"""Non-branching rewrites, applied to a fixpoint in priority order, and
the one place where a state is rewritten.

Every rewrite here preserves the state's defining sum exactly (the
conservation property); a return value of None means the state evaluates
to the zero polynomial.

Priority inside the fixpoint: unsatisfiable clause detection, duplicate
clause removal, elimination of variables (case1_ii: fix a variable
forced on both sides, fold those in no clause into p_main),
resolution of a clause with at most two variables (case1_iii), then of
clause pairs sharing exactly two variables (case1_iv).

Every rewrite is a method of `_Work`: a mutable working copy of a
`PairState` that the method edits in place. In the package,
`simplify_fixpoint` is their only caller: it thaws its input once,
applies to the same working copy a branch child's value pairs
(`assignments`), then a case (vi) block elimination (`block`), then each
rule that fires, and freezes one `PairState` when no rule fires any
more; it returns the input itself when there was nothing to do. Every
child a search node builds is one call, one thaw and one freeze.
Thawing copies every dict and set, so no input state is ever written.

A round of the fixpoint costs only what the last rule changed. The
working copy keeps each clause in a fixed slot and maintains, as each
rewrite edits it, every index a round reads: the slots' variable sets and
dedup keys, a variable -> slots occurrence index (the occurrence lists of
Chaff, Moskewicz et al., DAC 2001), the slots with at most two variables
and the variables in no clause. A substitution rewrites the slots in the
replaced variable's occurrence list and nothing else, and a force marks
the forced variable's occurrence list as the slots to recheck. A round
checks for an unsatisfiable clause (closed form on both sides at once,
`model.clause_unsatisfiable`) and for a duplicate only among the slots
rewritten or marked since the last round; it reads its variable target
off the free set and the variables forced on both sides, its small clause
off the maintained set, and searches for a shared pair only when no
earlier rule fires. Variables in no clause fold into p_main in one step:
grouped by weight table and forced values, each group's factor summed
once, or for a table shared by many variables read from a table built at
import (`_FACTORS`).
Cases (iii) and (iv) take one path (`_Work.apply_shape`). The variables
are renamed 1, 2, ... in naming order, the sorted variables of a small
clause or a, b, w, z of a shared pair; each of the at most 149,340
renamed shapes is classified once (`_SHAPES`) by `_classify` from each
side's `side_solutions` rows, which read `model.true_positions`, the one
enumeration of a clause's true literal.
"""

from __future__ import annotations

from itertools import count
from typing import MutableMapping, NamedTuple, Sequence

from .errors import InternalError
from .model import (
    PRISTINE,
    Clause,
    PairState,
    WeightTable,
    clause_unsatisfiable,
    clause_vars,
    pair_sum,
    side_solutions,
)
from .poly import ONE, ZERO, HDPoly


def _value_pairs(i: int | None, j: int | None) -> list[tuple[int, int]]:
    """The (side 0, side 1) value pairs that forced values i and j (None
    when free) allow, in the order (0,0), (0,1), (1,0), (1,1)."""
    return [
        (a, b) for a in ((0, 1) if i is None else (i,)) for b in ((0, 1) if j is None else (j,))
    ]


def _link_table(kept: WeightTable, dropped: WeightTable, pol1: int, pol2: int) -> WeightTable:
    """The kept variable's table after a link: entry (i, j) times the
    dropped variable's entry at (i ^ pol1, j ^ pol2)."""
    return tuple(
        kept[2 * i + j] * dropped[2 * (i ^ pol1) + (j ^ pol2)] for i in (0, 1) for j in (0, 1)
    )


# The table of a link between two PRISTINE variables, by 2 * pol1 + pol2:
# most links join two of them, and one shared object per polarity pair
# lets `fold` group the linked variables by table identity.
_PRISTINE_LINKS = tuple(_link_table(PRISTINE, PRISTINE, p1, p2) for p1 in (0, 1) for p2 in (0, 1))


def _fold_factor(table: WeightTable, i: int | None, j: int | None) -> HDPoly:
    """The sum of the table entries that forced values i and j allow."""
    return sum(table[2 * a + b] for a, b in _value_pairs(i, j))


# `fold`'s factor of each shared table (PRISTINE and the four link tables)
# for each pair of forced values, by `fold`'s group key: 45 entries.
_FACTORS = {
    (id(table), i, j): _fold_factor(table, i, j)
    for table in (PRISTINE, *_PRISTINE_LINKS)
    for i in (None, 0, 1)
    for j in (None, 0, 1)
}


class _Work:
    """A mutable working copy of one PairState, rewritten in place.

    The copy owns its forced-value dicts and its weight dict, whose keys
    are the state's variables; `freeze` hands them to the PairState it
    builds, after which the copy is not used again. A method returning bool returns False when the
    state evaluates to zero; the copy is then abandoned half-rewritten.

    Clauses sit in fixed slots: a removed clause leaves None, and `freeze`
    drops the empty slots, so the clause order is the input's. Every
    method keeps these indices equal to their value over the live slots:

    - `varsets[k]` and `keys[k]`: slot k's variable set and dedup key (its
      sorted literals), None for an empty slot;
    - `by_key`: dedup key -> the slots holding it;
    - `occ`: variable -> the slots holding it, only for variables that
      occur;
    - `small`: the slots with at most two variables;
    - `free`: the variables of `weights` in no clause.

    `fixed` holds no variable outside `weights`. One more set tells the
    fixpoint's next round what changed: `dirty`, the slots rewritten since
    it last looked and those of a variable forced since then.
    """

    __slots__ = (
        "clauses", "fixed", "weights", "p_main", "varsets", "keys", "by_key", "occ",
        "small", "free", "dirty",
    )

    def __init__(self, st: PairState):
        self.clauses: list[Clause | None] = list(st.clauses)
        self.fixed = (dict(st.fixed[0]), dict(st.fixed[1]))
        self.weights = dict(st.weights)
        self.p_main = st.p_main
        self.varsets: list[set[int] | None] = []
        self.keys: list[Clause | None] = []
        self.by_key: dict[Clause, list[int]] = {}
        self.occ: dict[int, set[int]] = {}
        self.small: set[int] = set()
        varsets, keys, by_key, occ = self.varsets, self.keys, self.by_key, self.occ
        for k, cl in enumerate(self.clauses):
            vs = {p >> 2 for p in cl if p >= 4}
            varsets.append(vs)
            for v in vs:
                slots = occ.get(v)
                if slots is None:
                    occ[v] = {k}
                else:
                    slots.add(k)
            if len(vs) <= 2:
                self.small.add(k)
            key = tuple(sorted(cl))
            keys.append(key)
            by_key.setdefault(key, []).append(k)
        self.free = self.weights.keys() - occ.keys()
        self.dirty = set(range(len(self.clauses)))

    def freeze(self) -> PairState:
        return PairState(
            tuple(cl for cl in self.clauses if cl is not None), self.fixed, self.p_main, self.weights
        )

    def _unkey(self, k: int) -> None:
        same = self.by_key[self.keys[k]]
        if len(same) == 1:
            del self.by_key[self.keys[k]]
        else:
            same.remove(k)

    def substitute(self, old: int, new: int, i: int, j: int) -> None:
        """Replace variable `old` by `new` in the clauses and indices, where
        value(old) = value(new) ^ i on side 0 and ^ j on side 1; with new = 0
        this sets old to the constant pair (i, j). The caller has already
        popped old's weight and forced values. Only the slots in old's
        occurrence list are rewritten."""
        self.free.discard(old)
        slots = self.occ.pop(old, None)
        if not slots:
            return
        lo, hi = 4 * old, 4 * old + 3
        base, flip = 4 * new, 2 * j + i
        clauses, varsets, keys, by_key = self.clauses, self.varsets, self.keys, self.by_key
        if new:
            self.occ.setdefault(new, set()).update(slots)
            self.free.discard(new)
        for k in slots:
            cl = clauses[k] = tuple([base + (p & 3 ^ flip) if lo <= p <= hi else p for p in clauses[k]])
            vs = varsets[k]
            vs.discard(old)
            if new:
                vs.add(new)
            if len(vs) <= 2:
                self.small.add(k)
            self._unkey(k)
            key = keys[k] = tuple(sorted(cl))
            by_key.setdefault(key, []).append(k)
        self.dirty |= slots

    def remove(self, k: int) -> None:
        """Empty slot k; its variables that occur nowhere else become free."""
        occ = self.occ
        for v in self.varsets[k]:
            slots = occ[v]
            slots.discard(k)
            if not slots:
                del occ[v]
                self.free.add(v)
        self._unkey(k)
        self.clauses[k] = self.varsets[k] = self.keys[k] = None
        self.small.discard(k)
        self.dirty.discard(k)

    def force(self, forces) -> bool:
        """Record (side, variable, value) forces, marking the slots of each
        newly forced variable dirty; False on a contradiction."""
        for side, var, val in forces:
            s = self.fixed[side]
            have = s.get(var)
            if have is None:
                s[var] = val
                self.dirty.update(self.occ.get(var, ()))
            elif have != val:
                return False
        return True

    def assign(self, x: int, i: int, j: int) -> None:
        """Fix x to i on side 0 and j on side 1: scale p_main by the
        matching weight entry, substitute the constants, drop x."""
        entry = self.weights.pop(x)[2 * i + j]
        if entry is not ONE:
            self.p_main = self.p_main * entry
        for s in self.fixed:
            s.pop(x, None)
        self.substitute(x, 0, i, j)

    def fold(self, free: set[int] | frozenset[int]) -> None:
        """Fold the variables of `free`, none of which occurs in a clause,
        into p_main. Each contributes the sum of the weight entries its
        forced values allow; the variables are grouped by (table object,
        forced values) so each group's sum is taken once, or read from
        `_FACTORS` for a shared table, and raised to the group's size.
        `free` may be the copy's own free set, which this empties."""
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
        for key, (table, k) in groups.items():
            factor = _FACTORS.get(key) or _fold_factor(table, key[1], key[2])
            self.p_main = self.p_main * factor**k
        self.free -= free

    def link(self, keep: int, drop: int, pol1: int, pol2: int) -> bool:
        """Replace `drop` by `keep` everywhere; value(drop) = value(keep) ^
        pol per side. The dropped variable's weight folds into the kept
        one. False when a forced value of drop contradicts one already
        recorded for keep."""
        weights = self.weights
        if keep == drop or keep not in weights or drop not in weights:
            raise InternalError(f"bad link {keep}~{drop}")
        kept = weights[keep]
        dropped = weights.pop(drop)
        if kept is PRISTINE and dropped is PRISTINE:
            weights[keep] = _PRISTINE_LINKS[2 * pol1 + pol2]
        else:
            weights[keep] = _link_table(kept, dropped, pol1, pol2)
        # drop's forced values move to keep
        moved = [
            (side, keep, s.pop(drop) ^ pol)
            for side, (s, pol) in enumerate(zip(self.fixed, (pol1, pol2)))
            if drop in s
        ]
        if not self.force(moved):
            return False
        self.substitute(drop, keep, pol1, pol2)
        return True

    def apply_shape(self, clauses: Sequence[Clause], names: Sequence[int]) -> bool:
        """Apply the action of `clauses` (`_shape`) under the real names:
        the forces first, then the link, which keeps the smaller real
        variable. False when unsatisfiable or on a contradiction."""
        action = _shape(clauses, names)
        real = (0, *names)
        if action.unsat or not self.force([(side, real[v], val) for side, v, val in action.forces]):
            return False
        link = action.link
        return link is None or self.link(*sorted((real[link[0]], real[link[1]])), *link[2:])

    def apply_small(self, idx: int) -> bool:
        """Case (iii): drop slot idx, a clause with at most two variables,
        and apply its action, its variables named in sorted order."""
        clause, names = self.clauses[idx], sorted(self.varsets[idx])
        self.remove(idx)
        return self.apply_shape((clause,), names)

    def resolve_pair(self, i: int, j: int) -> bool:
        """Case (iv): resolve two clauses (3 distinct variables each) sharing
        exactly two variables, a < b, by their action with the variables
        named a, b, then the first clause's other variable w and the
        second's z; the clauses stay."""
        vi, vj = self.varsets[i], self.varsets[j]
        shared = vi & vj
        if len(shared) != 2 or len(vi) != 3 or len(vj) != 3:
            raise InternalError("shared-pair resolution needs 3-variable clauses sharing 2")
        (w,), (z,) = vi - shared, vj - shared
        return self.apply_shape((self.clauses[i], self.clauses[j]), (*sorted(shared), w, z))

    def shared_pair(self) -> tuple[int, int] | None:
        """The first slot pair (a, b), a < b, in lexicographic order whose
        variable sets share exactly two variables, counted through the
        occurrence index."""
        occ = self.occ
        for a, vs in enumerate(self.varsets):
            if vs is None:
                continue
            shared: dict[int, int] = {}
            for v in vs:
                for b in occ[v]:
                    if b > a:
                        shared[b] = shared.get(b, 0) + 1
            pairs = [b for b, k in shared.items() if k == 2]
            if pairs:
                return a, min(pairs)
        return None

    def eliminate(self, block: set[int] | frozenset[int], x: int | None) -> None:
        """Sum out `block`, whose clauses hold no variable outside it but x
        (case (vi)): for each value pair (i, j) that x's forced values
        allow, the `pair_sum` over the block of those clauses with x forced
        to i and j scales x's table entry 2*i + j, and the entries x cannot
        take become zero; with no x the one `pair_sum` scales p_main. The
        block's clauses and variables are then dropped, and x folds into
        p_main when it occurs nowhere else. A zero entry evaluates the
        affected branch to zero downstream."""
        slots = sorted(set().union(*(self.occ.get(v, ()) for v in block)))
        touched = [self.clauses[k] for k in slots]
        ivars = sorted(block)
        f0, f1 = fixed = self.fixed
        weights = self.weights
        if x is None:
            self.p_main = self.p_main * pair_sum(touched, fixed, ivars, weights)
        else:
            old = weights[x]
            table = [ZERO] * 4
            for i, j in _value_pairs(f0.get(x), f1.get(x)):
                total = pair_sum(touched, (f0 | {x: i}, f1 | {x: j}), ivars, weights)
                table[2 * i + j] = old[2 * i + j] * total
            weights[x] = tuple(table)
        for k in slots:
            self.remove(k)
        for v in ivars:
            del weights[v]
            f0.pop(v, None)
            f1.pop(v, None)
        self.free -= block
        if x is not None and x not in self.occ:
            self.fold({x})


def value_combos(st: PairState, x: int) -> list[tuple[int, int]]:
    """The value pairs that x's forced values allow (`_value_pairs`)."""
    return _value_pairs(st.fixed[0].get(x), st.fixed[1].get(x))


class SmallClauseAction(NamedTuple):
    """The joint action of a clause with at most two variables (case (iii))
    or of two clauses sharing two (case (iv)): forces are (side, variable,
    value) records, and the link, when present, carries a per-side
    polarity (value(drop) = value(keep) ^ pol)."""

    unsat: bool
    forces: tuple[tuple[int, int, int], ...] = ()
    link: tuple[int, int, int, int] | None = None


def _classify(clauses: Sequence[Clause]) -> SmallClauseAction:
    """The joint action of `clauses`, read off each side's `side_solutions`
    rows: a variable with one value in every row is forced, and the last
    two variables are linked when there are two clauses or some side
    leaves both of them free. A side's link polarity is the XOR of their
    bits, which must be the same in every row."""
    variables = sorted(set().union(*map(clause_vars, clauses)))
    link = len(clauses) > 1
    forces = []
    sides = []
    for side in (0, 1):
        rows = side_solutions(clauses, {}, variables, side)
        if not rows:
            return SmallClauseAction(True)
        free = []
        for t, v in enumerate(variables):
            values = {row >> t & 1 for row in rows}
            if len(values) == 1:
                forces.append((side, v, values.pop()))
            else:
                free.append(v)
        link |= len(variables) >= 2 and free[-2:] == variables[-2:]
        sides.append(rows)
    if not link:
        return SmallClauseAction(False, tuple(forces))
    t = len(variables) - 2
    pols = [{(row >> t ^ row >> t + 1) & 1 for row in rows} for rows in sides]
    if len(pols[0]) != 1 or len(pols[1]) != 1:
        raise InternalError(f"no single link polarity for {clauses}")
    return SmallClauseAction(False, tuple(forces), (*variables[t:], *pols[0], *pols[1]))


# Actions by shape, filled on first sight. A shape is the clauses'
# literals in one flat tuple, variable names[t] renamed t + 1, where names
# are a small clause's sorted variables or a shared pair's a, b, w, z: at
# most 12 + 12**2 + 12**3 small shapes (four constant pairs and two
# variables with four sign pairs per literal position) and 36 variable
# orders times 4**6 sign pairs, 147,456, pair shapes; 149,340 in all.
_SHAPES: dict[Clause, SmallClauseAction] = {}


def _shape(clauses: Sequence[Clause], names: Sequence[int]) -> SmallClauseAction:
    """The action of `clauses`, `names` renamed 1, 2, ... and constants
    kept: read from `_SHAPES`, classified on a miss."""
    rename = dict(zip((0, *names), range(0, 20, 4)))
    key = tuple([rename[p >> 2] | p & 3 for cl in clauses for p in cl])
    action = _SHAPES.get(key)
    if action is None:
        renamed = [tuple([rename[p >> 2] | p & 3 for p in cl]) for cl in clauses]
        action = _SHAPES[key] = _classify(renamed)
    return action


def simplify_fixpoint(
    st: PairState,
    counts: MutableMapping[str, int] | None = None,
    assignments: Sequence[tuple[int, int, int]] = (),
    block: tuple[frozenset[int], int | None] | None = None,
) -> PairState | None:
    """The state that `st` rewrites to, built on one working copy: fix x to
    i on side 0 and j on side 1 for each (x, i, j) of `assignments`, then
    sum out the semiisolated `block` = (I, x) through its boundary
    variable x or None (`_Work.eliminate`, not counted), then apply the
    non-branching rules in priority order until none fires. Each rule
    removes a variable, a clause, or determines a value, so the loop
    terminates. Returns None when the state evaluates to zero, the input
    itself when there was nothing to apply and no rule fired.
    """

    def bump(key: str, n: int = 1) -> None:
        if counts is not None:
            counts[key] = counts.get(key, 0) + n

    work = _Work(st)
    for x, i, j in assignments:
        work.assign(x, i, j)
    if block is not None:
        work.eliminate(*block)
    clauses, fixed, keys, by_key = work.clauses, work.fixed, work.keys, work.by_key
    f0, f1 = fixed
    dirty, free, small = work.dirty, work.free, work.small
    for rounds in count():
        # a verdict depends only on the clause and the forced values of its
        # variables, so only the dirty slots, those rewritten and those of a
        # newly forced variable, need a check; a new duplicate holds a
        # rewritten slot
        if dirty:
            dups: set[int] = set()
            for k in dirty:
                if clause_unsatisfiable(clauses[k], fixed):
                    bump("case1_i")
                    return None
                same = by_key[keys[k]]
                if len(same) > 1:
                    first = min(same)
                    dups.update(s for s in same if s != first)
            dirty.clear()
            if dups:
                for k in dups:
                    work.remove(k)
                bump("dedup")
                continue
        # the smallest variable forced on both sides is assigned unless a
        # smaller or equal one is in no clause
        target = min(f0.keys() & f1.keys(), default=None) if f0 and f1 else None
        if target is not None and not (free and min(free) <= target):
            work.assign(target, f0[target], f1[target])
            bump("case1_ii")
            continue
        if free:
            # folding leaves the clauses unchanged, so folding one such
            # variable per round would fire the same rules in between:
            # fold them all now and count each one
            bump("case1_ii", len(free))
            work.fold(free)
            continue
        if small:
            bump("case1_iii")
            if not work.apply_small(min(small)):
                return None
            continue
        pair = work.shared_pair()
        if pair is not None:
            bump("case1_iv")
            if not work.resolve_pair(*pair):
                return None
            continue
        # every earlier round fired a rule
        return work.freeze() if rounds or assignments or block else st
