"""Non-branching rewrites, applied to a fixpoint in priority order.

Every rewrite here preserves the state's defining sum exactly (the
conservation property); a return value of None means the state evaluates
to the zero polynomial. `assign_value` fixes one value pair: it is a
rewrite when the forced values allow no other pair, and otherwise gives
one child of a branch over `value_combos`.

Priority inside the fixpoint: unsatisfiable clause detection, duplicate
clause removal, elimination of variables (case1_ii: `assign_value` for a
variable determined on both sides, `fold_free` for those in no clause),
small-clause normalisation, then resolution of clause pairs sharing
exactly two variables.

Every rewrite has one implementation, a method of `_Work`: a mutable
working copy of a `PairState` (a clause list, the two forced-value dicts,
the variable set, the weight tables and p_main) that the method edits in
place. `simplify_fixpoint` thaws its input once, applies each rule that
fires to the same working copy and freezes one `PairState` when no rule
fires any more; it returns the input itself when none fired at all. A
branch child's value pairs go in as `assignments`, fixed on the same copy
before the first round: one thaw and one freeze per child. The public
rewrites (`assign_value`, `fold_free`, `link_variables`,
`apply_small_clause`, `resolve_shared_pair`) are thin wrappers for the
branching rules and the tests: thaw, apply one method, freeze. Thawing
copies every dict and set, so no input state is ever written.

One fixpoint call does no work twice. A working copy memoises each
clause's variable set and dedup key, and a substitution rewrites only the
clauses whose variable set holds the replaced variable. A single scan per
iteration gives the unsat verdict, the duplicates and the clause variable
sets. The unsat check (closed form, `model.clause_unsatisfiable`) runs
only on clauses that are new or that hold a variable whose forced value
the working copy has set since they last passed it. Shared pairs are
found through a variable -> clause occurrence index. Variables in no
clause fold into p_main in one step: grouped by weight table and forced
values, each group's factor summed once and equal factors raised to a
power at once. Small clauses are classified once per shape, up to the
names of their at most two variables, from each side's `side_solutions`
rows: the small-clause table, like the unsat check's fallback for a
repeated variable, reads `model.true_positions`, the one enumeration of a
clause's true literal.
"""

from __future__ import annotations

from itertools import count
from typing import MutableMapping, NamedTuple, Sequence

from .errors import InternalError
from .model import (
    Clause,
    PairState,
    clause_unsatisfiable,
    clause_vars,
    side_solutions,
)
from .poly import HDPoly


def _values(forced: int | None) -> tuple[int, ...]:
    """The values a variable may take on one side, given its forced value
    there (None when free)."""
    return (0, 1) if forced is None else (forced,)


def _memo_entry(clause: Clause) -> tuple[set[int], Clause]:
    """A clause's variable set and dedup key."""
    return clause_vars(clause), tuple(sorted(clause))


class _Work:
    """A mutable working copy of one PairState, rewritten in place.

    The copy owns its clause list, forced-value dicts, variable set and
    weight dict; `freeze` hands them to the PairState it builds, after
    which the copy is not used again. A method returning bool returns
    False when the state evaluates to zero; the copy is then abandoned
    half-rewritten.
    """

    __slots__ = ("clauses", "fixed", "V", "weights", "p_main", "memo", "changed")

    def __init__(self, st: PairState):
        self.clauses = list(st.clauses)
        self.fixed = (dict(st.fixed[0]), dict(st.fixed[1]))
        self.V = set(st.V)
        self.weights = dict(st.weights)
        self.p_main = st.p_main
        # clause -> (variable set, dedup key), filled on first use
        self.memo: dict[Clause, tuple[set[int], Clause]] = {}
        # variables whose forced value this copy has set; the fixpoint
        # empties it once it has acted on it
        self.changed: set[int] = set()

    def freeze(self) -> PairState:
        return PairState(
            tuple(self.clauses), self.fixed, frozenset(self.V), self.p_main, self.weights
        )

    def substitute(self, old: int, new: int, i: int, j: int) -> None:
        """Replace variable `old` by `new`, where value(old) = value(new) ^ i
        on side 0 and ^ j on side 1; with new = 0 this sets old to the
        constant pair (i, j). Only the clauses holding `old` are rebuilt;
        a clause not yet memoised is memoised here."""
        lo, hi = 4 * old, 4 * old + 3
        base, flip = 4 * new, 2 * j + i
        memo, clauses = self.memo, self.clauses
        for k, cl in enumerate(clauses):
            entry = memo.get(cl)
            if entry is None:
                entry = memo[cl] = _memo_entry(cl)
            if old in entry[0]:
                clauses[k] = tuple(base + (p & 3 ^ flip) if lo <= p <= hi else p for p in cl)

    def drop(self, indices: set[int]) -> None:
        self.clauses = [cl for k, cl in enumerate(self.clauses) if k not in indices]

    def force(self, forces) -> bool:
        """Record (side, variable, value) forces; False on a contradiction."""
        for side, var, val in forces:
            s = self.fixed[side]
            have = s.get(var)
            if have is None:
                s[var] = val
                self.changed.add(var)
            elif have != val:
                return False
        return True

    def assign(self, x: int, i: int, j: int) -> None:
        """Fix x to i on side 0 and j on side 1: scale p_main by the
        matching weight entry, substitute the constants, drop x."""
        self.p_main = self.p_main * self.weights.pop(x)[2 * i + j]
        for s in self.fixed:
            s.pop(x, None)
        self.V.discard(x)
        self.substitute(x, 0, i, j)

    def fold(self, free: set[int] | frozenset[int]) -> None:
        """Fold the variables of `free`, none of which occurs in a clause,
        into p_main. Each contributes the sum of the weight entries its
        forced values allow; the variables are grouped by (table object,
        forced values) so each group's sum is taken once, and equal
        factors are merged and raised to their multiplicity."""
        f0, f1 = self.fixed
        weights = self.weights
        groups: dict[tuple[int, int | None, int | None], list] = {}
        for x in free:
            table = weights.pop(x)
            key = (id(table), f0.pop(x, None), f1.pop(x, None))
            group = groups.get(key)
            if group is None:
                groups[key] = [table, 1]
            else:
                group[1] += 1
        powers: dict[HDPoly, int] = {}
        for (_, i, j), (table, k) in groups.items():
            factor = sum(table[2 * a + b] for a in _values(i) for b in _values(j))
            powers[factor] = powers.get(factor, 0) + k
        for factor, k in powers.items():
            self.p_main = self.p_main * factor**k
        self.V -= free

    def link(self, keep: int, drop: int, pol1: int, pol2: int) -> bool:
        """Replace `drop` by `keep` everywhere; value(drop) = value(keep) ^
        pol per side. The dropped variable's weight folds into the kept
        one. False when a forced value of drop contradicts one already
        recorded for keep."""
        if keep == drop or keep not in self.V or drop not in self.V:
            raise InternalError(f"bad link {keep}~{drop}")
        weights = self.weights
        kept = weights[keep]
        dropped = weights.pop(drop)
        weights[keep] = tuple(
            kept[2 * i + j] * dropped[2 * (i ^ pol1) + (j ^ pol2)]
            for i in (0, 1) for j in (0, 1)
        )
        for s, pol in zip(self.fixed, (pol1, pol2)):
            if drop in s:
                implied = s.pop(drop) ^ pol
                have = s.get(keep)
                if have is None:
                    s[keep] = implied
                    self.changed.add(keep)
                elif have != implied:
                    return False
        self.V.discard(drop)
        self.substitute(drop, keep, pol1, pol2)
        return True

    def apply_small(self, idx: int, action: SmallClauseAction) -> bool:
        if action.unsat:
            return False
        del self.clauses[idx]
        return self.force(action.forces) and (action.link is None or self.link(*action.link))

    def resolve_pair(self, i: int, j: int) -> bool:
        """Resolve two clauses (3 distinct variables each) sharing exactly
        two variables: the two non-shared variables are always linked, and
        the polarity pattern of the shared literals may force values
        first."""
        ci, cj = self.clauses[i], self.clauses[j]
        vi = clause_vars(ci)
        vj = clause_vars(cj)
        shared = sorted(vi & vj)
        if len(shared) != 2 or len(vi) != 3 or len(vj) != 3:
            raise InternalError("shared-pair resolution needs 3-variable clauses sharing 2")
        w = (vi - set(shared)).pop()
        z = (vj - set(shared)).pop()
        forces: list[tuple[int, int, int]] = []
        pols = []
        for side in (0, 1):
            flips = [_sign_of(ci, v, side) != _sign_of(cj, v, side) for v in shared]
            gw = _sign_of(ci, w, side)
            gz = _sign_of(cj, z, side)
            if flips[0] and flips[1]:
                # both shared literals flipped: the two extra literals must be false
                rel = 0
                forces.append((side, w, gw))
                forces.append((side, z, gz))
            elif not flips[0] and not flips[1]:
                rel = 0
            else:
                # one flipped: the unflipped shared literal must be false
                rel = 1
                u = shared[0] if not flips[0] else shared[1]
                forces.append((side, u, _sign_of(ci, u, side)))
            pols.append(gw ^ gz ^ rel)
        keep, drop = (w, z) if w < z else (z, w)
        return self.force(forces) and self.link(keep, drop, pols[0], pols[1])


def detect_unsat(st: PairState) -> bool:
    """True iff some clause cannot be satisfied on some side by any
    assignment that is consistent with that side's forced values."""
    f0, f1 = st.fixed
    return any(clause_unsatisfiable(cl, f0, 0) or clause_unsatisfiable(cl, f1, 1)
               for cl in st.clauses)


def value_combos(st: PairState, x: int) -> list[tuple[int, int]]:
    """The (side 0, side 1) value pairs for x consistent with its forced
    values, in the fixed order (0,0), (0,1), (1,0), (1,1)."""
    f0, f1 = st.fixed
    return [(i, j) for i in _values(f0.get(x)) for j in _values(f1.get(x))]


def assign_value(st: PairState, x: int, i: int, j: int) -> PairState:
    """st with x fixed to i on side 0 and j on side 1 (`_Work.assign`)."""
    work = _Work(st)
    work.assign(x, i, j)
    return work.freeze()


def fold_free(st: PairState, free: frozenset[int]) -> PairState:
    """st with the variables of `free`, none of which occurs in a clause,
    folded into p_main (`_Work.fold`)."""
    work = _Work(st)
    work.fold(free)
    return work.freeze()


def link_variables(st: PairState, keep: int, drop: int, pol1: int, pol2: int) -> PairState | None:
    """st with `drop` replaced by `keep` (`_Work.link`); None when their
    forced values contradict the link."""
    work = _Work(st)
    return work.freeze() if work.link(keep, drop, pol1, pol2) else None


class SmallClauseAction(NamedTuple):
    """Joint effect of a pair clause with at most two distinct variables.

    The clause is always dropped unless unsat. Forces are (side, variable,
    value) records with side 0 or 1; the link, when present, carries a
    per-side polarity (value(drop) = value(keep) ^ pol).
    """

    unsat: bool
    forces: tuple[tuple[int, int, int], ...] = ()
    link: tuple[int, int, int, int] | None = None


def _classify_small_clause(clause: Clause) -> SmallClauseAction:
    """The joint action of a pair clause with <= 2 distinct variables, read
    off each side's `side_solutions` rows: a variable with one value in
    every row is forced; two free variables form a diagonal, a link whose
    polarity is the XOR of their bits. A fully forced side is consistent
    with the link through its single row."""
    variables = sorted(clause_vars(clause))
    forces = []
    # per side, the link polarity its rows admit; None when they admit none
    pols: list[int | None] = []
    linked = False
    for side in (0, 1):
        rows = side_solutions((clause,), {}, variables, side)
        if not rows:
            return SmallClauseAction(True)
        free = 0
        for t, v in enumerate(variables):
            values = {row >> t & 1 for row in rows}
            if len(values) == 1:
                forces.append((side, v, values.pop()))
            else:
                free += 1
        if free == 2 and len(rows) != 2:
            raise InternalError(f"unexpected satisfying set for {clause}")
        linked |= free == 2
        pols.append((rows[0] ^ rows[0] >> 1) & 1 if len(variables) == 2 and free != 1 else None)
    if not linked:
        return SmallClauseAction(False, tuple(forces))
    if None in pols:
        raise InternalError("link paired with a partially free side")
    return SmallClauseAction(False, tuple(forces), (*variables, *pols))


# Small-clause actions by shape: the clause with its variables renamed to
# 1 and 2 in sorted order. Filled on first sight of a shape; at most
# 12 + 12**2 + 12**3 entries (four constant pairs and two variables with
# four sign pairs per literal position).
_SHAPES: dict[Clause, SmallClauseAction] = {}


def normalize_small_clause(clause: Clause) -> SmallClauseAction:
    """Classify a pair clause with <= 2 distinct variables into the joint
    action to apply to both sides."""
    names = sorted(clause_vars(clause))
    rank = {v: k for k, v in enumerate(names, 1)}
    shape = tuple(4 * rank[p >> 2] + (p & 3) if p >= 4 else p for p in clause)
    action = _SHAPES.get(shape)
    if action is None:
        action = _SHAPES[shape] = _classify_small_clause(shape)
    real = (0, *names)
    link = action.link
    return SmallClauseAction(
        action.unsat,
        tuple((side, real[v], val) for side, v, val in action.forces),
        link and (real[link[0]], real[link[1]], link[2], link[3]),
    )


def apply_small_clause(st: PairState, idx: int, action: SmallClauseAction) -> PairState | None:
    """st with the small clause at `idx` replaced by its action
    (`_Work.apply_small`); None when the state evaluates to zero."""
    work = _Work(st)
    return work.freeze() if work.apply_small(idx, action) else None


def _sign_of(clause: Clause, var: int, side: int) -> int:
    for p in clause:
        if p >> 2 == var:
            return (p >> side) & 1
    raise InternalError(f"variable {var} not in clause")


def resolve_shared_pair(st: PairState, i: int, j: int) -> PairState | None:
    """st with the clauses at i and j resolved (`_Work.resolve_pair`); None
    when a forced value contradicts the resolution."""
    work = _Work(st)
    return work.freeze() if work.resolve_pair(i, j) else None


def _shared_pair(varsets: list[set[int]]) -> tuple[int, int] | None:
    """The first (a, b), a < b, in lexicographic order whose variable sets
    share exactly two variables, found through a variable -> clause index."""
    index: dict[int, list[int]] = {}
    for idx, vs in enumerate(varsets):
        for v in vs:
            index.setdefault(v, []).append(idx)
    for a, vs in enumerate(varsets):
        shared: dict[int, int] = {}
        for v in vs:
            for b in index[v]:
                if b > a:
                    shared[b] = shared.get(b, 0) + 1
        pairs = [b for b, k in shared.items() if k == 2]
        if pairs:
            return a, min(pairs)
    return None


def simplify_fixpoint(
    st: PairState,
    counts: MutableMapping[str, int] | None = None,
    assignments: Sequence[tuple[int, int, int]] = (),
) -> PairState | None:
    """Fix each (x, i, j) of `assignments` as `assign_value` does, then
    apply the non-branching rules in priority order until none fires, all
    on one working copy. Each application removes a variable, a clause, or
    determines a value, so the loop terminates. Returns None when the
    state evaluates to zero, the input itself when there were no
    assignments and no rule fired.
    """

    def bump(key: str, n: int = 1) -> None:
        if counts is not None:
            counts[key] = counts.get(key, 0) + n

    work = _Work(st)
    for x, i, j in assignments:
        work.assign(x, i, j)
    f0, f1 = work.fixed
    memo, changed = work.memo, work.changed
    # clauses that passed the unsat check; a verdict depends only on the
    # clause and the forced values of its variables
    passed: set[Clause] = set()
    for rounds in count():
        if changed:
            passed = {cl for cl in passed if memo[cl][0].isdisjoint(changed)}
            changed.clear()
        seen: set[Clause] = set()
        dups: set[int] = set()
        varsets: list[set[int]] = []
        small = None
        for idx, cl in enumerate(work.clauses):
            entry = memo.get(cl)
            if entry is None:
                entry = memo[cl] = _memo_entry(cl)
            vs, key = entry
            if cl not in passed:
                if clause_unsatisfiable(cl, f0, 0) or clause_unsatisfiable(cl, f1, 1):
                    bump("case1_i")
                    return None
                passed.add(cl)
            if key in seen:
                dups.add(idx)
            else:
                seen.add(key)
            if small is None and len(vs) <= 2:
                small = idx
            varsets.append(vs)
        if dups:
            work.drop(dups)
            bump("dedup")
            continue
        free = work.V - set().union(*varsets)
        target = min(free.union(f0.keys() & f1.keys() & work.V), default=None)
        if target is not None:
            if target not in free:
                work.assign(target, f0[target], f1[target])
                bump("case1_ii")
            else:
                # folding leaves the clauses unchanged, so folding one such
                # variable per iteration would fire the same rules in between:
                # fold them all now and count each one
                work.fold(free)
                bump("case1_ii", len(free))
            continue
        if small is not None:
            bump("case1_iii")
            if not work.apply_small(small, normalize_small_clause(work.clauses[small])):
                return None
            continue
        pair = _shared_pair(varsets)
        if pair is not None:
            bump("case1_iv")
            if not work.resolve_pair(*pair):
                return None
            continue
        # every earlier round fired a rule
        return work.freeze() if rounds or assignments else st
