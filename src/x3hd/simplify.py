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

One call of the fixpoint does no work twice. A single scan per iteration
gives the unsat verdict, the duplicates and the clause variable sets, each
clause's variable set and dedup key being memoised for the call. The unsat
check (closed form, `model.clause_unsatisfiable`) runs only on clauses
that are new or that have a variable whose forced value changed since
they last passed it. Shared pairs are found through a variable -> clause
occurrence index. Variables in no clause fold into p_main in one step,
equal factors raised to a power at once. Small clauses are classified
once per shape, up to the names of their at most two variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import MutableMapping

from .errors import InternalError
from .model import (
    Clause,
    PairState,
    clause_unsatisfiable,
    clause_vars,
    substitute,
    true_positions,
)
from .poly import HDPoly


def drop_clauses(st: PairState, indices: set[int]) -> PairState:
    """The state without the clauses at `indices`."""
    clauses = tuple(cl for idx, cl in enumerate(st.clauses) if idx not in indices)
    return PairState(clauses, st.fixed, st.V, st.p_main, st.weights)


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
    ivals = (f0[x],) if x in f0 else (0, 1)
    jvals = (f1[x],) if x in f1 else (0, 1)
    return [(i, j) for i in ivals for j in jvals]


def assign_value(st: PairState, x: int, i: int, j: int) -> PairState:
    """Fix variable x to i on side 0 and j on side 1: scale p_main by the
    matching weight entry, substitute the constants, drop x."""
    weights = dict(st.weights)
    factor = weights.pop(x)[2 * i + j]
    f0, f1 = st.fixed
    return PairState(
        substitute(st.clauses, x, 0, i, j),
        ({k: v for k, v in f0.items() if k != x}, {k: v for k, v in f1.items() if k != x}),
        st.V - {x},
        st.p_main * factor,
        weights,
    )


def fold_free(st: PairState, free: frozenset[int]) -> PairState:
    """Fold every variable of `free`, none of which occurs in a clause, into
    p_main at once: each contributes the sum of its weight entries that its
    forced values allow, equal factors grouped and raised to their
    multiplicity."""
    groups: dict[HDPoly, int] = {}
    for x in free:
        table = st.weights[x]
        factor = sum(table[2 * i + j] for i, j in value_combos(st, x))
        groups[factor] = groups.get(factor, 0) + 1
    p_main = st.p_main
    for factor, k in groups.items():
        p_main = p_main * factor**k
    weights = {v: table for v, table in st.weights.items() if v not in free}
    f0, f1 = st.fixed
    fixed = ({k: v for k, v in f0.items() if k not in free},
             {k: v for k, v in f1.items() if k not in free})
    return PairState(st.clauses, fixed, st.V - free, p_main, weights)


def link_variables(st: PairState, keep: int, drop: int, pol1: int, pol2: int) -> PairState | None:
    """Replace `drop` by `keep` everywhere; value(drop) = value(keep) ^ pol
    per side. The dropped variable's weight folds into the kept one. None
    when a forced value of drop contradicts one already recorded for keep.
    """
    if keep == drop or keep not in st.V or drop not in st.V:
        raise InternalError(f"bad link {keep}~{drop}")
    weights = dict(st.weights)
    kept = weights[keep]
    dropped = weights.pop(drop)
    weights[keep] = tuple(
        kept[2 * i + j] * dropped[2 * (i ^ pol1) + (j ^ pol2)]
        for i in (0, 1) for j in (0, 1)
    )
    fixed = (dict(st.fixed[0]), dict(st.fixed[1]))
    for s, pol in zip(fixed, (pol1, pol2)):
        if drop in s:
            implied = s.pop(drop) ^ pol
            if s.get(keep, implied) != implied:
                return None
            s[keep] = implied
    return PairState(
        substitute(st.clauses, drop, keep, pol1, pol2), fixed, st.V - {drop}, st.p_main, weights
    )


@dataclass(frozen=True)
class SmallClauseAction:
    """Joint effect of a pair clause with at most two distinct variables.

    The clause is always dropped unless unsat. Forces are (side, variable,
    value) records with side 0 or 1; the link, when present, carries a
    per-side polarity (value(drop) = value(keep) ^ pol).
    """

    unsat: bool
    forces: tuple[tuple[int, int, int], ...] = ()
    link: tuple[int, int, int, int] | None = None


def _classify_side(clause: Clause, side: int):
    """Satisfying set of one small clause on `side`, summarised as one of
    'unsat', 'drop', 'force' (forced: var -> value) or 'link' (pol)."""
    variables = sorted(clause_vars(clause))
    sat = [values for values in true_positions(clause, {}, side) if values is not None]
    if not sat:
        return "unsat", {}, None
    if not variables:
        return "drop", {}, None
    forced = {}
    for v in variables:
        seen = {values[v] for values in sat}
        if len(seen) == 1:
            forced[v] = seen.pop()
    if len(forced) == len(variables):
        return "force", forced, None
    if len(variables) == 1:
        return "drop", {}, None
    if forced:
        return "force", forced, None
    # two free coupled variables: the satisfying set is a diagonal
    if len(sat) != 2:
        raise InternalError(f"unexpected satisfying set for {clause}")
    return "link", {}, sat[0][variables[0]] ^ sat[0][variables[1]]


def _classify_small_clause(clause: Clause) -> SmallClauseAction:
    """The joint action of a pair clause with <= 2 distinct variables,
    derived from its satisfying sets on both sides."""
    sides = [_classify_side(clause, side) for side in (0, 1)]
    if any(kind == "unsat" for kind, _, _ in sides):
        return SmallClauseAction(True)
    forces = tuple(
        (side, v, val)
        for side, (_, forced, _) in enumerate(sides)
        for v, val in sorted(forced.items())
    )
    if all(kind != "link" for kind, _, _ in sides):
        return SmallClauseAction(False, forces)
    keep, drop = sorted(clause_vars(clause))
    pols = []
    for kind, forced, pol in sides:
        if kind == "link":
            pols.append(pol)
        elif len(forced) == 2:
            # a fully forced side is consistent with the link that
            # passes through its single satisfying point
            pols.append(forced[keep] ^ forced[drop])
        else:
            raise InternalError("link paired with a partially free side")
    return SmallClauseAction(False, forces, (keep, drop, pols[0], pols[1]))


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


def _force(st: PairState, forces) -> PairState | None:
    """Record (side, variable, value) forces; None on a contradiction."""
    fixed = (dict(st.fixed[0]), dict(st.fixed[1]))
    for side, var, val in forces:
        s = fixed[side]
        if s.get(var, val) != val:
            return None
        s[var] = val
    return PairState(st.clauses, fixed, st.V, st.p_main, st.weights)


def apply_small_clause(st: PairState, idx: int, action: SmallClauseAction) -> PairState | None:
    if action.unsat:
        return None
    st = _force(drop_clauses(st, {idx}), action.forces)
    if st is not None and action.link is not None:
        return link_variables(st, *action.link)
    return st


def _sign_of(clause: Clause, var: int, side: int) -> int:
    for p in clause:
        if p >> 2 == var:
            return (p >> side) & 1
    raise InternalError(f"variable {var} not in clause")


def resolve_shared_pair(st: PairState, i: int, j: int) -> PairState | None:
    """Resolve two clauses (3 distinct variables each) sharing exactly two
    variables: the two non-shared variables are always linked, and the
    polarity pattern of the shared literals may force values first."""
    ci, cj = st.clauses[i], st.clauses[j]
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
    st = _force(st, forces)
    if st is None:
        return None
    keep, drop = (w, z) if w < z else (z, w)
    return link_variables(st, keep, drop, pols[0], pols[1])


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
) -> PairState | None:
    """Apply the non-branching rules in priority order until none fires.

    Each application removes a variable, a clause, or determines a value,
    so the loop terminates. Returns None when the state evaluates to zero.
    """

    def bump(key: str, n: int = 1) -> None:
        if counts is not None:
            counts[key] = counts.get(key, 0) + n

    # clause -> (variable set, dedup key), for this call
    memo: dict[Clause, tuple[set[int], Clause]] = {}
    # clauses that passed the unsat check under `checked_fixed`; a verdict
    # depends only on the clause and the forced values of its variables
    passed: set[Clause] = set()
    checked_fixed = st.fixed
    while True:
        f0, f1 = st.fixed
        if st.fixed is not checked_fixed:
            old0, old1 = checked_fixed
            diff = (old0.items() ^ f0.items()) | (old1.items() ^ f1.items())
            if diff:
                changed = {v for v, _ in diff}
                passed = {cl for cl in passed if memo[cl][0].isdisjoint(changed)}
            checked_fixed = st.fixed
        seen: set[Clause] = set()
        dups: set[int] = set()
        varsets: list[set[int]] = []
        small = None
        for idx, cl in enumerate(st.clauses):
            entry = memo.get(cl)
            if entry is None:
                entry = memo[cl] = (clause_vars(cl), tuple(sorted(cl)))
            if cl not in passed:
                if clause_unsatisfiable(cl, f0, 0) or clause_unsatisfiable(cl, f1, 1):
                    bump("case1_i")
                    return None
                passed.add(cl)
            vs, key = entry
            if key in seen:
                dups.add(idx)
            else:
                seen.add(key)
            if small is None and len(vs) <= 2:
                small = idx
            varsets.append(vs)
        if dups:
            st = drop_clauses(st, dups)
            bump("dedup")
            continue
        free = st.V - set().union(*varsets)
        target = min(free.union(f0.keys() & f1.keys() & st.V), default=None)
        if target is not None:
            if target not in free:
                st = assign_value(st, target, f0[target], f1[target])
                bump("case1_ii")
            else:
                # folding leaves the clauses unchanged, so folding one such
                # variable per iteration would fire the same rules in between:
                # fold them all now and count each one
                st = fold_free(st, free)
                bump("case1_ii", len(free))
            continue
        if small is not None:
            bump("case1_iii")
            nxt = apply_small_clause(st, small, normalize_small_clause(st.clauses[small]))
            if nxt is None:
                return None
            st = nxt
            continue
        pair = _shared_pair(varsets)
        if pair is not None:
            bump("case1_iv")
            nxt = resolve_shared_pair(st, *pair)
            if nxt is None:
                return None
            st = nxt
            continue
        return st
