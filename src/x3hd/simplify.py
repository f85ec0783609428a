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

The unsat check is closed form per clause (`model.clause_unsatisfiable`).
Variables in no clause fold into p_main in one step, equal factors raised
to a power at once. Each iteration computes the clause variable sets once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    return replace(st, clauses=clauses)


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
    return replace(
        st,
        clauses=substitute(st.clauses, x, 0, i, j),
        fixed=({k: v for k, v in f0.items() if k != x}, {k: v for k, v in f1.items() if k != x}),
        V=st.V - {x},
        p_main=st.p_main * factor,
        weights=weights,
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
    return replace(st, fixed=fixed, V=st.V - free, p_main=p_main, weights=weights)


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
    return replace(
        st,
        clauses=substitute(st.clauses, drop, keep, pol1, pol2),
        fixed=fixed, V=st.V - {drop}, weights=weights,
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


def normalize_small_clause(clause: Clause) -> SmallClauseAction:
    """Classify a pair clause with <= 2 distinct variables into the joint
    action to apply to both sides."""
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


def _force(st: PairState, forces) -> PairState | None:
    """Record (side, variable, value) forces; None on a contradiction."""
    fixed = (dict(st.fixed[0]), dict(st.fixed[1]))
    for side, var, val in forces:
        s = fixed[side]
        if s.get(var, val) != val:
            return None
        s[var] = val
    return replace(st, fixed=fixed)


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


def _first_duplicates(st: PairState) -> set[int]:
    """Indices of clauses equal, up to literal order, to an earlier one."""
    seen: set = set()
    dups: set[int] = set()
    for idx, cl in enumerate(st.clauses):
        key = tuple(sorted(cl))
        if key in seen:
            dups.add(idx)
        else:
            seen.add(key)
    return dups


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

    while True:
        if detect_unsat(st):
            bump("case1_i")
            return None
        dups = _first_duplicates(st)
        if dups:
            st = drop_clauses(st, dups)
            bump("dedup")
            continue
        varsets = [clause_vars(cl) for cl in st.clauses]
        occ = set().union(*varsets)
        f0, f1 = st.fixed
        target = min((v for v in st.V if v not in occ or (v in f0 and v in f1)), default=None)
        if target is not None:
            if target in occ:
                st = assign_value(st, target, f0[target], f1[target])
                bump("case1_ii")
            else:
                # folding leaves the clauses unchanged, so folding one such
                # variable per iteration would fire the same rules in between:
                # fold them all now and count each one
                free = st.V - occ
                st = fold_free(st, free)
                bump("case1_ii", len(free))
            continue
        small = next((k for k, vs in enumerate(varsets) if len(vs) <= 2), None)
        if small is not None:
            bump("case1_iii")
            nxt = apply_small_clause(st, small, normalize_small_clause(st.clauses[small]))
            if nxt is None:
                return None
            st = nxt
            continue
        pair = None
        for a in range(len(varsets)):
            for b in range(a + 1, len(varsets)):
                if len(varsets[a] & varsets[b]) == 2:
                    pair = (a, b)
                    break
            if pair:
                break
        if pair is not None:
            bump("case1_iv")
            nxt = resolve_shared_pair(st, *pair)
            if nxt is None:
                return None
            st = nxt
            continue
        return st
