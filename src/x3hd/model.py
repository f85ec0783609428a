"""Formula representation, clause predicates and the paired recursion state.

Literal encoding: a literal is a plain int. 0 and 1 are the Boolean
constants; for a variable v >= 1 the literal 2*v is v itself and 2*v+1 is
its negation. With this encoding `lit ^ 1` negates any literal, including
the constants (negating 1 gives 0), and substituting v := b turns the
literal into the constant b ^ (lit & 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Mapping, Sequence

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


def clause_vars(clause: Clause) -> set[int]:
    return {lit >> 1 for lit in clause if lit >= 2}


def clause_satisfied(clause: Clause, values: Mapping[int, int]) -> bool:
    """Exactly-one semantics: precisely one literal evaluates true."""
    count = 0
    for lit in clause:
        if lit < 2:
            count += lit
        else:
            count += values[lit >> 1] ^ (lit & 1)
        if count > 1:
            return False
    return count == 1


def true_positions(clause: Clause, fixed: Mapping[int, int]) -> list[dict[int, int] | None]:
    """Per literal position, the values of the clause's variables that make
    exactly that literal true and agree with `fixed`; None where the clause
    itself or `fixed` rules the position out.

    A satisfying assignment has exactly one true literal, so the entries
    that are not None are the clause's local solutions, each given once.
    An all-constant clause yields {} for its true position: test entries
    with `is not None`, never for truth.
    """
    out: list[dict[int, int] | None] = []
    for pos in range(len(clause)):
        values: dict[int, int] | None = {}
        for t, lit in enumerate(clause):
            want = 1 if t == pos else 0
            if lit < 2:
                if lit != want:
                    values = None
                    break
                continue
            v = lit >> 1
            val = want ^ (lit & 1)
            if fixed.get(v, val) != val or values.get(v, val) != val:
                values = None
                break
            values[v] = val
        out.append(values)
    return out


def clause_unsatisfiable(clause: Clause, fixed: Mapping[int, int]) -> bool:
    """True iff no assignment that agrees with `fixed` makes exactly one
    literal of `clause` true.

    With the free variables distinct this is closed form: each free literal
    can be set either way, so the clause is unsatisfiable iff more than one
    literal is pinned true, or none is and no free literal is left. A clause
    that repeats a free variable defers to `true_positions`.
    """
    pinned = 0
    free = []
    for lit in clause:
        if lit < 2:
            pinned += lit
            continue
        v = lit >> 1
        val = fixed.get(v)
        if val is not None:
            pinned += val ^ (lit & 1)
        elif v in free:
            return all(values is None for values in true_positions(clause, fixed))
        else:
            free.append(v)
    return pinned > 1 or (pinned == 0 and not free)


def side_solutions(
    clauses: Sequence[Clause], fixed: Mapping[int, int], variables: Sequence[int]
) -> list[tuple[int, ...]]:
    """Assignments to `variables` (as tuples in that order) that satisfy
    every clause and agree with `fixed`, built clause by clause from
    `true_positions`. Each is produced once. `variables` must cover the
    clauses' variables; those in no clause take every value `fixed` allows.
    """
    leaves: list[dict[int, int]] = []

    def extend(cidx: int, values: dict[int, int]) -> None:
        if cidx == len(clauses):
            leaves.append(values)
            return
        for derived in true_positions(clauses[cidx], values):
            if derived is not None:
                extend(cidx + 1, values | derived)

    extend(0, dict(fixed))
    if not leaves:
        return []
    # every leaf assigns the same variables: `fixed` plus all clause variables
    free = [v for v in variables if v not in leaves[0]]
    rows = []
    for values in leaves:
        for bits in product((0, 1), repeat=len(free)):
            values.update(zip(free, bits))
            rows.append(tuple(values[v] for v in variables))
    return rows


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


def similarity_key(clause: Clause):
    """Clauses are similar iff negating literals maps one onto the other:
    equivalently, same variable multiset and same number of constants."""
    return (tuple(sorted(lit >> 1 for lit in clause if lit >= 2)),
            sum(1 for lit in clause if lit < 2))


def are_similar(c1: Clause, c2: Clause) -> bool:
    return similarity_key(c1) == similarity_key(c2)


def are_neighbours(c1: Clause, c2: Clause) -> bool:
    return bool(clause_vars(c1) & clause_vars(c2))


def clause_classes(clauses: Iterable[Clause]) -> list[list[int]]:
    """Partition clause indices into similarity classes, by first occurrence."""
    order: dict = {}
    for idx, clause in enumerate(clauses):
        order.setdefault(similarity_key(clause), []).append(idx)
    return list(order.values())


def dissimilar_classes(f: Formula) -> list[list[int]]:
    return clause_classes(f.clauses)


# Per-variable weight tables, indexed by 2*i + j for the value pair (i, j)
# taken by the variable in the two solutions being compared.
WeightTable = tuple[HDPoly, HDPoly, HDPoly, HDPoly]

PRISTINE: WeightTable = (ONE, U, U, ONE)


def pristine_weights(variables: Iterable[int]) -> dict[int, WeightTable]:
    return {v: PRISTINE for v in variables}


@dataclass(eq=False)
class PairState:
    """One node of the search: two structure-locked formulas plus bookkeeping.

    phi1 and phi2 always have the same clause count and, position by
    position, reference the same variable (or are both constants). s1/s2
    hold values forced on one side only; a variable determined on both
    sides is eliminated. Treat instances as immutable snapshots: rewrites
    build new states and never mutate the dicts in place.
    """

    phi1: tuple[Clause, ...]
    phi2: tuple[Clause, ...]
    s1: dict[int, int]
    s2: dict[int, int]
    V: frozenset[int]
    p_main: HDPoly
    weights: dict[int, WeightTable] = field(repr=False)

    def occurring(self) -> set[int]:
        return {v for cl in self.phi1 for v in clause_vars(cl)}


def initial_state(f: Formula) -> PairState:
    variables = frozenset(range(1, f.n_vars + 1))
    return PairState(
        phi1=f.clauses,
        phi2=f.clauses,
        s1={},
        s2={},
        V=variables,
        p_main=ONE,
        weights=pristine_weights(sorted(variables)),
    )


def check_structure(st: PairState) -> None:
    """Assert the structure lock between phi1 and phi2."""
    if len(st.phi1) != len(st.phi2):
        raise InternalError("structure lock: clause counts differ")
    for idx, (c1, c2) in enumerate(zip(st.phi1, st.phi2)):
        if len(c1) != len(c2):
            raise InternalError(f"structure lock: arity differs at clause {idx}")
        for l1, l2 in zip(c1, c2):
            if (l1 < 2) != (l2 < 2) or (l1 >= 2 and l1 >> 1 != l2 >> 1):
                raise InternalError(f"structure lock: misaligned literal in clause {idx}")


def check_state(st: PairState) -> None:
    """Full debug validation of a PairState."""
    check_structure(st)
    occ = st.occurring()
    if not occ <= st.V:
        raise InternalError(f"clause variables {occ - st.V} missing from V")
    if set(st.weights) != set(st.V):
        raise InternalError("weight table keys differ from V")
    for s in (st.s1, st.s2):
        if not set(s) <= st.V:
            raise InternalError("assignment mentions eliminated variables")
