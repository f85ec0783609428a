"""Branching rules and the detector that chooses between them.

A branch op returns the list of children produced for one parent state,
each built and simplified by one `simplify_fixpoint` call, so every child
is at its fixpoint; None entries are children whose subtree evaluates to
zero. The parent's value is always the exact sum of the children's values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import MutableMapping

from .errors import InternalError
from .model import (
    Clause,
    PairState,
    clause_classes,
    clause_vars,
    pair_sum,
    true_positions,
)
from .poly import ZERO
from .simplify import assign_value, fold_free, simplify_fixpoint, value_combos

Counts = MutableMapping[str, int] | None


def _finish_children(
    parent: PairState,
    children: list[PairState | None],
    floors: list[int] | None,
    debug: bool,
) -> list[PairState | None]:
    """The children, after checking in debug mode that each one removed
    at least its floor of variables."""
    if debug and floors is not None:
        for child, floor in zip(children, floors):
            removed = floor if child is None else len(parent.V) - len(child.V)
            if removed < floor:
                raise InternalError(f"child eliminated {removed} variables, expected >= {floor}")
    return children


def class_info(clauses: tuple[Clause, ...]):
    """The dissimilar clause classes, each class's sorted variables and
    variable -> class indices; built once per search node and shared by
    `pick_high_degree_var` and `find_config`."""
    classes = clause_classes(clauses)
    class_vars = [sorted(clause_vars(clauses[members[0]])) for members in classes]
    var_to_classes: dict[int, set[int]] = {}
    for k, vs in enumerate(class_vars):
        for v in vs:
            var_to_classes.setdefault(v, set()).add(k)
    return classes, class_vars, var_to_classes


def pick_high_degree_var(st: PairState, info=None) -> int | None:
    """A variable occurring in at least four dissimilar clause classes,
    preferring the highest class count, then the smallest id. `info` is
    `class_info(st.clauses)` when the caller has it."""
    _, _, var_to_classes = info or class_info(st.clauses)
    candidates = [v for v, ks in var_to_classes.items() if len(ks) >= 4]
    if not candidates:
        return None
    return min(candidates, key=lambda v: (-len(var_to_classes[v]), v))


def branch_high_degree_var(
    st: PairState, x: int, counts: Counts = None, debug: bool = False
) -> list[PairState | None]:
    """Four-way (or fewer) split on a variable in >= 4 dissimilar classes.
    Each child then links away one further variable per class of x."""
    children = [simplify_fixpoint(st, counts, ((x, i, j),)) for i, j in value_combos(st, x)]
    return _finish_children(st, children, [5] * len(children), debug)


@dataclass(frozen=True)
class SemiIsolated:
    """Variable block I reachable from the rest only through J: every
    clause uses only I | J variables or no I variable at all."""

    I: frozenset[int]
    J: frozenset[int]


@dataclass(frozen=True)
class SevenNeighbourPattern:
    """A clause with >= 4 dissimilar neighbour classes, plus the pivot
    variable sitting in two of them. Shape is informational; 'generic'
    marks a defensive match that skips the elimination-floor assertions."""

    clause: int
    pivot: int
    shape: str


def _extract_semiisolated(st: PairState, block: frozenset[int]) -> SemiIsolated:
    boundary = set()
    for cl in st.clauses:
        vs = clause_vars(cl)
        outside = vs - block
        if outside:
            boundary |= vs & block
    I = frozenset(block - boundary)
    for cl in st.clauses:
        vs = clause_vars(cl)
        if vs & I and not vs <= block:
            raise InternalError("semiisolated block leaks outside its boundary")
    return SemiIsolated(I, frozenset(boundary))


def _match_pattern(st: PairState, classes, class_vars, var_to_classes, k: int):
    """One step of the constructive search around a class with >= 4
    dissimilar neighbours: either a branchable pattern, or the context
    (block, a, b, next-class) for the semiisolated fallback."""
    clauses = st.clauses
    rep = classes[k][0]
    order = []
    for p in clauses[rep]:
        if p >= 4 and p >> 2 not in order:
            order.append(p >> 2)
    if len(order) != 3:
        raise InternalError("pattern search on a degenerate clause")
    pivot = next((v for v in order if len(var_to_classes[v] - {k}) >= 2), None)
    if pivot is None:
        raise InternalError("no pivot variable with two further classes")
    further = sorted(var_to_classes[pivot] - {k})
    if len(further) != 2:
        raise InternalError("pivot variable in more than three classes")
    n1_cls, n2_cls = further
    ab = sorted(set(class_vars[n1_cls]) - {pivot})
    cd = sorted(set(class_vars[n2_cls]) - {pivot})
    y, z = [v for v in order if v != pivot]
    side_classes = sorted((var_to_classes[y] | var_to_classes[z]) - {k})
    reps = [classes[q][0] for q in side_classes]
    if len(reps) < 2:
        raise InternalError("fewer side neighbours than the class count promises")
    known = {pivot, y, z, *ab, *cd}
    fresh = {r: clause_vars(clauses[r]) - known for r in reps}

    def shape_label(r1: int, r2: int, base: str, alt: str) -> str:
        via = lambda r: y in clause_vars(clauses[r])
        return base if via(r1) == via(r2) else alt

    for ra, rb in combinations(reps, 2):
        if fresh[ra] and fresh[rb] and len(fresh[ra] | fresh[rb]) >= 2:
            return SevenNeighbourPattern(rep, pivot, shape_label(ra, rb, "vii.2", "vii.4"))
    rich = next((r for r in reps if len(fresh[r]) >= 2), None)
    if rich is not None:
        other = next(r for r in reps if r != rich)
        return SevenNeighbourPattern(rep, pivot, shape_label(other, rich, "vii.1", "vii.3"))
    extra = set().union(*fresh.values()) if fresh else set()
    if len(extra) > 1:
        raise InternalError("distinct fresh variables escaped the pattern match")
    return frozenset(known | extra), ab[0], ab[1], n1_cls


def _generic_pattern(st: PairState, classes, var_to_classes, k: int) -> SevenNeighbourPattern:
    clauses = st.clauses
    rep = classes[k][0]
    pivot = next(
        v for v in sorted(clause_vars(clauses[rep]))
        if len(var_to_classes[v] - {k}) >= 2
    )
    return SevenNeighbourPattern(rep, pivot, "generic")


def find_config(st: PairState, info=None):
    """Decide how to handle a clause with >= 4 dissimilar neighbour
    classes: a branchable pattern, or a small semiisolated block to
    eliminate. None when no clause qualifies (the decomposition case).
    `info` is `class_info(st.clauses)` when the caller has it."""
    if not st.clauses:
        return None
    classes, class_vars, var_to_classes = info or class_info(st.clauses)

    def neighbour_count(k: int) -> int:
        return len({q for v in class_vars[k] for q in var_to_classes[v]} - {k})

    start = next((k for k in range(len(classes)) if neighbour_count(k) >= 4), None)
    if start is None:
        return None
    k = start
    visited = set()
    while True:
        found = _match_pattern(st, classes, class_vars, var_to_classes, k)
        if isinstance(found, SevenNeighbourPattern):
            return found
        block, a, b, n1_cls = found
        has_outside = any(
            {a, b} & clause_vars(cl) and clause_vars(cl) - block
            for cl in st.clauses
        )
        if not has_outside:
            si = _extract_semiisolated(st, block)
            if len(si.J) <= 3:
                return si
            return _generic_pattern(st, classes, var_to_classes, start)
        visited.add(k)
        k = n1_cls
        if k in visited or neighbour_count(k) < 4:
            return _generic_pattern(st, classes, var_to_classes, start)


def eliminate_semiisolated_1(st: PairState, si: SemiIsolated) -> PairState:
    """Eliminate the block I through its single boundary variable x (or
    none): for each value pair (i, j) that x's forced values allow, the
    `pair_sum` over I of the I-touching clauses with x forced to i and j
    scales x's table entry 2*i + j, and entries x cannot take become zero.
    With no boundary the one `pair_sum` scales p_main. The block and its
    clauses are then dropped; a zero entry evaluates the affected branch to
    zero downstream."""
    I = set(si.I)
    J = sorted(si.J)
    if len(J) > 1:
        raise InternalError("single-boundary elimination needs |J| <= 1")
    xvar = J[0] if J else None
    touched = [cl for cl in st.clauses if clause_vars(cl) & I]
    ivars = sorted(I)
    f0, f1 = st.fixed
    weights = dict(st.weights)
    p_main = st.p_main
    if xvar is None:
        p_main = p_main * pair_sum(touched, st.fixed, ivars, st.weights)
    else:
        old = weights[xvar]
        table = [ZERO] * 4
        for i, j in value_combos(st, xvar):
            block = pair_sum(touched, (f0 | {xvar: i}, f1 | {xvar: j}), ivars, st.weights)
            table[2 * i + j] = old[2 * i + j] * block
        weights[xvar] = tuple(table)
    for v in ivars:
        weights.pop(v)
    st = PairState(
        tuple(cl for cl in st.clauses if not clause_vars(cl) & I),
        ({k: v for k, v in f0.items() if k not in I}, {k: v for k, v in f1.items() if k not in I}),
        st.V - I,
        p_main,
        weights,
    )
    if xvar is not None and xvar not in st.occurring():
        st = fold_free(st, frozenset({xvar}))
    return st


def branch_semiisolated_2(
    st: PairState, si: SemiIsolated, counts: Counts = None, debug: bool = False
) -> list[PairState | None]:
    """|J| = 2: branch on the boundary variable that also sits in an
    outside clause, then eliminate I through the remaining one."""
    block = si.I | si.J
    x = cidx = None
    for v in sorted(si.J):
        for kdx, cl in enumerate(st.clauses):
            vs = clause_vars(cl)
            if v in vs and vs - block:
                x, cidx = v, kdx
                break
        if x is not None:
            break
    if x is None:
        raise InternalError("no boundary variable with an outside clause")
    wvar = next(v for v in sorted(si.J) if v != x)
    rest = SemiIsolated(si.I, frozenset({wvar}))
    children = [
        simplify_fixpoint(eliminate_semiisolated_1(assign_value(st, x, i, j), rest), counts)
        for i, j in value_combos(st, x)
    ]
    return _finish_children(st, children, [5] * len(children), debug)


def branch_semiisolated_3(
    st: PairState, si: SemiIsolated, counts: Counts = None, debug: bool = False
) -> list[PairState | None]:
    """|J| = 3: nine-way (or fewer) split on the clause joining two
    boundary variables with a block variable, then block elimination."""
    cidx = next(
        (
            k
            for k, cl in enumerate(st.clauses)
            if len(clause_vars(cl) & si.J) == 2 and len(clause_vars(cl) & si.I) == 1
        ),
        None,
    )
    if cidx is None:
        raise InternalError("no clause joins two boundary variables with the block")
    c = st.clauses[cidx]
    trio = sorted(clause_vars(c))
    jpair = clause_vars(c) & si.J
    evar = (clause_vars(c) & si.I).pop()
    rest = frozenset(si.J - jpair)
    inner = frozenset(si.I - {evar})
    pos1, pos2 = (true_positions(c, st.fixed[side], side) for side in (0, 1))
    children = []
    for vals1 in pos1:
        if vals1 is None:
            continue
        for vals2 in pos2:
            if vals2 is None:
                continue
            child = st
            for v in trio:
                child = assign_value(child, v, vals1[v], vals2[v])
            child = eliminate_semiisolated_1(child, SemiIsolated(inner, rest))
            children.append(simplify_fixpoint(child, counts))
    return _finish_children(st, children, [8] * len(children), debug)


def branch_four_neighbour(
    st: PairState, pattern: SevenNeighbourPattern, counts: Counts = None, debug: bool = False
) -> list[PairState | None]:
    """Six-way (or fewer) split on a clause with four dissimilar neighbour
    classes: one child makes the pivot literal false on both sides, the
    other five make it true on at least one side."""
    c = st.clauses[pattern.clause]
    pivot = pattern.pivot
    ppos = next(t for t, p in enumerate(c) if p >> 2 == pivot)
    others = [t for t in range(len(c)) if t != ppos]
    trio = sorted(clause_vars(c))
    generic = pattern.shape == "generic"
    children: list[PairState | None] = []
    floors: list[int] = []

    # the pivot literal is false where the pivot's value equals its sign
    i0 = c[ppos] & 1
    j0 = (c[ppos] >> 1) & 1
    if (i0, j0) in value_combos(st, pivot):
        children.append(simplify_fixpoint(st, counts, ((pivot, i0, j0),)))
        floors.append(4)

    pos1, pos2 = (true_positions(c, st.fixed[side], side) for side in (0, 1))
    for p1, p2 in [(ppos, ppos), (ppos, others[0]), (ppos, others[1]),
                   (others[0], ppos), (others[1], ppos)]:
        vals1, vals2 = pos1[p1], pos2[p2]
        if vals1 is None or vals2 is None:
            continue
        children.append(
            simplify_fixpoint(st, counts, [(v, vals1[v], vals2[v]) for v in trio])
        )
        floors.append(7)

    return _finish_children(st, children, None if generic else floors, debug)
