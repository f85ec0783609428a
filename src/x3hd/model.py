"""Formula representation, clause predicates and the paired recursion state.

Formula literals: a literal is a plain int. 0 and 1 are the Boolean
constants; for a variable v >= 1 the literal 2*v is v itself and 2*v+1 is
its negation. `Formula`, the parser and the oracle use this encoding.

Pair literals: the recursion state holds one clause list for both
formulas phi(x) and phi(y), which share their clause structure and differ
only in signs and constants. A pair literal is 4*v + 2*b2 + b1, where v is
the variable (0 for a constant, so 0..3 are the four constant pairs) and
b1/b2 are its sign, or its constant value, on side 0 (phi(x)) and side 1
(phi(y)). On side `side` the literal reads `(p >> side) & 1`: the constant
itself when v = 0, otherwise the sign, true exactly when value(v) differs
from it.

Exactly-one enumeration: `true_positions` is the one enumeration of which
literal of a clause is the true one, as value masks over a variable ->
bit map. `side_solutions` folds those masks across clauses, the clause
sharing the most variables with those already folded first, and every
other reader goes through one of the two: `pair_sum`, the shape table in
`simplify` that gives the actions of case (iii) and case (iv), the
clause-splitting branches in `branching`, and `clause_unsatisfiable` on a
clause that repeats a free variable.
`pair_sum` is the one weighted sum over solution pairs, for the base case
and for case (vi) block elimination. Its rows come from `solution_rows`:
side 0's, and side 1's only when the two sides differ in a sign, a
constant or a forced value. The solver enumerates them itself, with a
limit on the rows per side, to see whether a state is worth finishing,
and hands them on; since the fold order keeps the partial folds small,
the limit bounds a state's solution count, not the order of its clauses.
`pair_sum` adds every pair's weight, as ints, into one degree ->
coefficient dict and builds one polynomial from it at the end. With one
enumeration for both sides it measures each unordered pair of solutions
once.

Class index: every branching case and the Case 2 decomposition read one
structure of a state, its dissimilar clause classes and the variables
they share (`ClassIndex`). A `PairState` builds it on first use and keeps
it, which holds because a state is never written after it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Iterable, KeysView, Mapping, NamedTuple, Sequence

from .errors import InternalError
from .poly import ONE, U, HDPoly

Clause = tuple[int, ...]


def from_dimacs(k: int) -> int:
    if k == 0:
        raise ValueError("0 is not a literal")
    return 2 * abs(k) + (1 if k < 0 else 0)


def to_dimacs(lit: int) -> int:
    if lit < 2:
        raise ValueError("constants have no signed form")
    return -(lit >> 1) if lit & 1 else lit >> 1


def clause_satisfied(clause: Clause, values: Mapping[int, int]) -> bool:
    """Exactly-one semantics on a formula clause: precisely one literal
    evaluates true."""
    count = 0
    for lit in clause:
        if lit < 2:
            count += lit
        else:
            count += values[lit >> 1] ^ (lit & 1)
        if count > 1:
            return False
    return count == 1


def clause_vars(clause: Clause) -> set[int]:
    """The variables of a pair clause."""
    return {p >> 2 for p in clause if p >= 4}


def true_positions(
    clause: Clause, fixed: Mapping[int, int], side: int, bit: Mapping[int, int]
) -> list[int | None]:
    """Per literal position, the values of the clause's variables that make
    exactly that literal true on `side` and agree with `fixed`, as an int
    mask over `bit` (variable -> its bit); None where the clause itself or
    `fixed` rules the position out.

    `bit` must hold every clause variable that `fixed` does not force; a
    forced one it leaves out is checked against `fixed` and sets no bit.
    Constants and a repeated variable are resolved here. A satisfying
    assignment has exactly one true literal, so the entries that are not
    None are the clause's local solutions, each given once. An entry may be
    0: test entries with `is not None`, never for truth.
    """
    seen = negated = 0
    for p in clause:
        if p < 4 or p >> 2 in fixed or seen & bit[p >> 2]:
            break
        seen |= bit[p >> 2]
        if p >> side & 1:
            negated |= bit[p >> 2]
    else:
        # distinct free variables: position pos flips its own literal's bit
        return [negated ^ bit[p >> 2] for p in clause]
    out: list[int | None] = []
    for pos in range(len(clause)):
        cc = vv = 0
        for t, p in enumerate(clause):
            # the value that makes literal t true exactly when t == pos
            val = (t == pos) ^ ((p >> side) & 1)
            if p < 4:
                if val:
                    break
                continue
            v = p >> 2
            if v in fixed:
                if fixed[v] != val:
                    break
                m = bit.get(v, 0)
            else:
                m = bit[v]
            if cc & m and bool(vv & m) != val:
                break
            cc |= m
            if val:
                vv |= m
        else:
            out.append(vv)
            continue
        out.append(None)
    return out


def clause_unsatisfiable(
    clause: Clause, fixed: tuple[Mapping[int, int], Mapping[int, int]]
) -> bool:
    """True iff on some side no assignment that agrees with that side's
    forced values (`fixed[side]`) makes exactly one literal of `clause`
    true.

    Both sides are read in one pass. With the free variables distinct,
    each free literal can be set either way, so a side is unsatisfiable
    iff more than one literal is pinned true there, or none is and no free
    literal is left. A clause that repeats a free variable is unsatisfiable
    on a side where `true_positions` leaves no position; a clause has at
    most three literals, so a repeat is one of the two variables before it.
    """
    f0, f1 = fixed
    pinned0 = pinned1 = free0 = free1 = 0
    last = before = 0
    for p in clause:
        if p < 4:
            pinned0 += p & 1
            pinned1 += p >> 1
            continue
        v = p >> 2
        val0 = f0.get(v)
        if val0 is None:
            free0 += 1
        else:
            pinned0 += val0 ^ (p & 1)
        val1 = f1.get(v)
        if val1 is None:
            free1 += 1
        else:
            pinned1 += val1 ^ (p >> 1 & 1)
        if (v == last or v == before) and (val0 is None or val1 is None):
            bit = {u: 1 << t for t, u in enumerate(clause_vars(clause))}
            return any(
                all(vv is None for vv in true_positions(clause, forced, side, bit))
                for side, forced in enumerate(fixed)
            )
        last, before = v, last
    return pinned0 > 1 or not (pinned0 or free0) or pinned1 > 1 or not (pinned1 or free1)


def side_solutions(
    clauses: Sequence[Clause],
    fixed: Mapping[int, int],
    variables: Sequence[int],
    side: int,
    limit: int | None = None,
) -> list[int] | None:
    """Assignments to `variables` that satisfy every clause on `side` and
    agree with `fixed`, each produced once as an int mask whose bit t holds
    the value of variables[t]. `variables` must cover every clause variable
    that `fixed` does not force; a forced one may be left out, which is how
    block elimination conditions on its boundary. Listed variables in no
    clause take every value `fixed` allows.

    Each clause contributes one care mask (the bits of its listed
    variables) and the value masks of its true positions
    (`true_positions`). A partial row v joins a clause value vv exactly
    when they agree on the bits both care about, v & shared == vv & shared
    with shared = care & clause_care, so each row looks its partners up
    among the values grouped by those bits.

    The fold order keeps the partial rows small, as a join order does
    (Selinger et al., SIGMOD 1979): the first clause, then each time the
    clause whose care shares the most bits with `care`, the bits of the
    clauses folded so far, ties to the lower index. A clause that shares
    bits constrains the rows already built instead of multiplying them.
    Any order gives the same set of rows; the order only sets how large
    the partial folds grow.

    With a `limit`, the enumeration stops and returns None as soon as a
    partial fold in that order, or the rows with the free variables added,
    hold more than `limit` rows; otherwise the rows are those returned
    without it.
    """
    bit = {v: 1 << t for t, v in enumerate(variables)}
    pending = list(clauses)
    # a clause's care: the sum of its distinct variable bits (constants have none)
    cares = [sum({bit.get(p >> 2, 0) for p in clause}) for clause in pending]
    care = 0
    rows = [0]
    while pending:
        k = max(range(len(pending)), key=lambda i: (cares[i] & care).bit_count())
        clause = pending.pop(k)
        clause_care = cares.pop(k)
        shared = care & clause_care
        joins: dict[int, list[int]] = {}
        for vv in true_positions(clause, fixed, side, bit):
            if vv is not None:
                joins.setdefault(vv & shared, []).append(vv)
        if limit is not None and not shared and len(rows) * len(joins.get(0, ())) > limit:
            return None
        rows = [v | vv for v in rows for vv in joins.get(v & shared, ())]
        if not rows:
            return []
        if limit is not None and len(rows) > limit:
            return None
        care |= clause_care
    for v, m in bit.items():
        if care & m:
            continue
        if v not in fixed:
            rows += [row | m for row in rows]
        elif fixed[v]:
            rows = [row | m for row in rows]
    if limit is not None and len(rows) > limit:
        return None
    return rows


def solution_rows(
    clauses: Sequence[Clause],
    fixed: tuple[Mapping[int, int], Mapping[int, int]],
    variables: Sequence[int],
    limit: int | None = None,
) -> list[list[int]] | None:
    """Each side's `side_solutions` on `variables`, as the list `pair_sum`
    reads: side 0's rows alone when the sides agree (`sides_agree`), else
    side 0's and side 1's. None as soon as a side holds more than `limit`
    rows; side 1 is then not enumerated, nor are the sides compared."""
    out = [side_solutions(clauses, fixed[0], variables, 0, limit)]
    if out[0] is None:
        return None
    if not sides_agree(clauses, fixed):
        out.append(side_solutions(clauses, fixed[1], variables, 1, limit))
        if out[1] is None:
            return None
    return out


@dataclass(frozen=True)
class Formula:
    """A conjunction of exactly-one clauses over variables 1..n_vars."""

    clauses: tuple[Clause, ...]
    n_vars: int

    def __post_init__(self):
        if self.n_vars < 0:
            raise ValueError("negative variable count")
        for clause in self.clauses:
            if not 1 <= len(clause) <= 3:
                raise ValueError(f"clause arity {len(clause)} outside 1..3")
            for lit in clause:
                if lit < 0 or (lit >= 2 and lit >> 1 > self.n_vars):
                    raise ValueError(f"literal {lit} out of range")

    @classmethod
    def from_dimacs(cls, clauses: Iterable[Iterable[int]], n_vars: int) -> "Formula":
        return cls(tuple(tuple(from_dimacs(k) for k in cl) for cl in clauses), n_vars)


class ClassIndex(NamedTuple):
    """The dissimilar clause classes of a clause list and the variables
    they share. Pair clauses are similar iff negating literals maps one
    onto the other: the same variable multiset and the same number of
    constants. Readers share one index, so none may write it."""

    # clause indices per class; classes in first-occurrence order
    classes: tuple[tuple[int, ...], ...]
    # each class's variables, sorted
    class_vars: tuple[tuple[int, ...], ...]
    # variable -> the classes holding it
    var_to_classes: dict[int, set[int]]
    # per class, the other classes sharing a variable with it
    neighbours: tuple[frozenset[int], ...]


def class_index(clauses: Sequence[Clause]) -> ClassIndex:
    """The `ClassIndex` of a pair clause list."""
    groups: dict[tuple[tuple[int, ...], int], list[int]] = {}
    for idx, clause in enumerate(clauses):
        variables = tuple(sorted([p >> 2 for p in clause if p >= 4]))
        groups.setdefault((variables, len(clause) - len(variables)), []).append(idx)
    class_vars = tuple(tuple(sorted(set(variables))) for variables, _ in groups)
    var_to_classes: dict[int, set[int]] = {}
    for k, vs in enumerate(class_vars):
        for v in vs:
            var_to_classes.setdefault(v, set()).add(k)
    neighbours = tuple(
        frozenset().union(*(var_to_classes[v] for v in vs)) - {k}
        for k, vs in enumerate(class_vars)
    )
    return ClassIndex(tuple(map(tuple, groups.values())), class_vars, var_to_classes, neighbours)


# Per-variable weight tables, indexed by 2*i + j for the value pair (i, j)
# taken by the variable in the two solutions being compared.
WeightTable = tuple[HDPoly, HDPoly, HDPoly, HDPoly]

PRISTINE: WeightTable = (ONE, U, U, ONE)


def pair_sum(
    clauses: Sequence[Clause],
    fixed: tuple[Mapping[int, int], Mapping[int, int]],
    variables: Sequence[int],
    weights: Mapping[int, WeightTable],
    rows: list[list[int]] | None = None,
) -> HDPoly:
    """The sum, over every pair of a side-0 and a side-1 solution b0, b1 on
    `variables` (see `side_solutions`), of the product over v of
    weights[v][2*b0[v] + b1[v]]. `rows` are the solutions as
    `solution_rows` lists them, passed by a caller that has enumerated them
    already; by default they are enumerated here.

    The solutions are int masks with bit t holding variables[t]. A variable
    whose table is PRISTINE (the object itself) contributes u exactly where
    the two values differ, so each side's masks are grouped by their bits
    on the other, tabled, variables (row & tabled mask), keeping the
    PRISTINE bits (row & plain mask). When both sides read the same signs
    and constants (every literal has p & 3 in (0, 3)) and the same forced
    values, their solutions are the same, and side 0's groups serve side 1.

    A pair of groups contributes the histogram of its plain masks' Hamming
    distances, (a ^ b).bit_count(), times the product of its table entries;
    a pair with a zero entry is skipped. The product is taken over the
    entries' (degree, coefficient) items as plain ints, which for monomial
    entries is one multiply and one add each, and every pair adds into one
    degree -> coefficient dict, which becomes the one result polynomial.

    With one enumeration for both sides, a group paired with itself
    measures each unordered pair of its masks once and counts it twice, and
    its n pairs of a mask with itself at distance 0. When every table's
    entries for (0, 1) and (1, 0) are also equal, the group pairs (g, h)
    and (h, g) have the same weight and histogram, so each unordered pair
    of groups is visited once and counted twice.
    """
    plain_mask = 0
    tabled = []
    transposable = True
    for t, v in enumerate(variables):
        table = weights[v]
        if table is PRISTINE:
            plain_mask |= 1 << t
        else:
            tabled.append((t, [tuple(entry.terms().items()) for entry in table]))
            transposable = transposable and table[1] == table[2]
    if rows is None:
        rows = solution_rows(clauses, fixed, variables)
    symmetric = len(rows) == 1
    groups: list[list[tuple[int, list[int]]]] = []
    for side_rows in rows:
        grouped: dict[int, list[int]] = {}
        for row in side_rows:
            grouped.setdefault(row & ~plain_mask, []).append(row & plain_mask)
        groups.append(list(grouped.items()))
    halve = symmetric and transposable
    total: dict[int, int] = {}
    for g, (key0, masks0) in enumerate(groups[0]):
        for key1, masks1 in groups[0][g:] if halve else groups[-1]:
            weight = {0: 1}
            for t, entries in tabled:
                entry = entries[2 * (key0 >> t & 1) + (key1 >> t & 1)]
                if not entry:
                    break
                prod: dict[int, int] = {}
                for d, c in weight.items():
                    for e, f in entry:
                        prod[d + e] = prod.get(d + e, 0) + c * f
                weight = prod
            else:
                hist: dict[int, int] = {}
                if masks0 is masks1:
                    hist[0] = len(masks0)
                    pairs, step = combinations(masks0, 2), 2
                else:
                    pairs, step = product(masks0, masks1), 2 if halve else 1
                for a, b in pairs:
                    h = (a ^ b).bit_count()
                    hist[h] = hist.get(h, 0) + step
                for d, c in weight.items():
                    for h, n in hist.items():
                        total[d + h] = total.get(d + h, 0) + c * n
    return HDPoly._trusted(total)


def sides_agree(
    clauses: Iterable[Clause], fixed: tuple[Mapping[int, int], Mapping[int, int]]
) -> bool:
    """True when both sides read the same signs, constants and forced
    values, so that their solutions are the same."""
    return fixed[0] == fixed[1] and all(p & 3 in (0, 3) for cl in clauses for p in cl)


@dataclass(eq=False, slots=True)
class PairState:
    """One node of the search: the clauses of both formulas as pair
    literals, plus bookkeeping.

    weights maps each variable of the state to its weight table, and its
    keys are the state's variables: `V` is that key view, not a second
    copy. fixed[side] maps a variable to the value forced on that side,
    side 0 being phi(x) and side 1 phi(y), as in the pair literals; a
    variable determined on both sides is eliminated. A state is never
    written after it is built: the rewrites in `simplify` work on a copy
    of a state and build a new one, never writing the dicts of their
    input. That contract lets `index()` build the state's `ClassIndex` on
    first use and keep it in `_index` for every later reader;
    `dataclasses.replace` yields a new state with none.
    """

    clauses: tuple[Clause, ...]
    fixed: tuple[dict[int, int], dict[int, int]]
    p_main: HDPoly
    weights: dict[int, WeightTable] = field(repr=False)
    _index: ClassIndex | None = field(init=False, default=None, repr=False)

    @property
    def V(self) -> KeysView[int]:
        """The state's variables: the keys of `weights`."""
        return self.weights.keys()

    def index(self) -> ClassIndex:
        """The dissimilar-class index of the clauses, built once."""
        if self._index is None:
            self._index = class_index(self.clauses)
        return self._index


def is_symmetric(st: PairState) -> bool:
    """True when the state equals its mirror, the state with its two sides
    swapped: each literal's b1 and b2, fixed[0] and fixed[1], and entries
    (0, 1) and (1, 0) of each weight table. A state and its mirror have the
    same value, because the polynomial counts ordered pairs. The root is
    symmetric, and so is every child of a symmetric state that assigns
    (i, i) pairs only."""
    return sides_agree(st.clauses, st.fixed) and all(
        t is PRISTINE or t[1] == t[2] for t in st.weights.values()
    )


def mirror(st: PairState) -> PairState:
    """The state with its two sides swapped (see `is_symmetric`). A
    PRISTINE table stays the object itself."""
    return PairState(
        tuple(tuple((p & ~3) | (p & 1) << 1 | (p >> 1 & 1) for p in cl) for cl in st.clauses),
        (st.fixed[1], st.fixed[0]),
        st.p_main,
        {v: t if t is PRISTINE else (t[0], t[2], t[1], t[3]) for v, t in st.weights.items()},
    )


def same_state(a: PairState | None, b: PairState | None) -> bool:
    """True when two states are equal field by field, or both None; a
    `PairState` itself compares by identity."""
    if a is None or b is None:
        return a is b
    return (a.clauses, a.fixed, a.p_main, a.weights) == (b.clauses, b.fixed, b.p_main, b.weights)


def initial_state(f: Formula) -> PairState:
    return PairState(
        clauses=tuple(tuple(4 * (lit >> 1) + 3 * (lit & 1) for lit in cl) for cl in f.clauses),
        fixed=({}, {}),
        p_main=ONE,
        weights=dict.fromkeys(range(1, f.n_vars + 1), PRISTINE),
    )


def check_state(st: PairState) -> None:
    """Full debug validation of a PairState."""
    if st._index is not None and st._index != class_index(st.clauses):
        raise InternalError("cached class index differs from the clauses")
    occ = st.index().var_to_classes.keys()
    if not occ <= st.V:
        raise InternalError(f"clause variables {occ - st.V} missing from V")
    for s in st.fixed:
        if not s.keys() <= st.V:
            raise InternalError("assignment mentions eliminated variables")
