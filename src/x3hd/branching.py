"""Branching rules and the detector that chooses between them.

A branch op returns one entry per child of one parent state: the child,
or None for a child whose subtree evaluates to zero. The parent's value is
always the exact sum of the children's values. This module decides
which children to build and never rewrites a state itself: each op lists
its children's assignment lists, and `build_children` makes each child one
`simplify_fixpoint` call with those value pairs and, in case (vi), the
block to sum out and its boundary variable, so every child is at its
fixpoint. So is the single state of the case (vi) block elimination
(`eliminate_semiisolated_1`).

The mirror rule is applied in `build_children`, and only there. At a
symmetric parent (`model.is_symmetric`), swapping the two sides maps the
child of a list A = [(v, i, j), ...] onto the child of its swap
A' = [(v, j, i), ...], so the two have one value. Of each such pair only
the first is built: one of the four children of a free variable (case1_v,
case1_vi2), three of the nine of the clause split in case1_vi3, the
children (ppos, others[k]) and (others[k], ppos) of the six-way split
(case1_vii), and (4^c - 2^c)/2 of the 4^c children of c free cut
variables (case2_split, in `decompose`). A skipped child's slot holds its
twin's own entry, the same `PairState` object or None. This is symmetry
breaking in the sense of Crawford, Ginsberg, Luks and Roy (KR 1996); the
symmetry is the problem's own, so nothing has to detect it.

Detection (`pick_high_degree_var`, `find_config`) and the boundary search
of `branch_semiisolated_2` read the state's class index (`PairState.index`)
instead of scanning its clauses. The two clause splits
(`branch_four_neighbour`, `branch_semiisolated_3`) share `_clause_split`,
which takes each side's true positions of the split clause from
`model.true_positions`, the one enumeration of a clause's true literal,
as value masks over the clause's variables.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterable, MutableMapping, NamedTuple, Sequence

from .errors import InternalError
from .model import (
    Clause, ClassIndex, PairState, clause_vars, is_symmetric, mirror, same_state, true_positions
)
from .simplify import simplify_fixpoint, value_combos

Counts = MutableMapping[str, int] | None
Assignments = Sequence[tuple[int, int, int]]


def build_children(
    fixpoint: Callable[..., PairState | None],
    st: PairState,
    lists: Sequence[Assignments],
    counts: Counts = None,
    debug: bool = False,
    block: tuple[frozenset[int], int | None] | None = None,
    floors: Sequence[int] | None = None,
) -> list[PairState | None]:
    """One child per assignment list A: `fixpoint(st, counts, A, block)`,
    where `fixpoint` is the caller's own `simplify_fixpoint` binding, the
    name that `perfbench/tracing.py` wraps in each module.

    Each built child's simplify counts go to a dict of its own, which is
    then added to `counts`. The mirror rule (module docstring): at a
    symmetric state, a list whose swap comes earlier is not built. Its slot
    holds its twin's entry, and the twin's dict is added to `counts` again:
    the rules choose by variable id, slot and class, never by sign, so
    they fire alike on a child and its mirror. Debug mode builds it anyway,
    and raises InternalError unless it equals the twin's `mirror` with the
    same simplify counts, or if a child removed fewer variables than its
    floor.
    """
    symmetric = is_symmetric(st)
    first: dict[tuple, int] = {}
    children: list[PairState | None] = []
    built: list[dict[str, int]] = []
    for k, A in enumerate(lists):
        twin = None
        if symmetric:
            twin = first.get(tuple((v, j, i) for v, i, j in A))
            first.setdefault(tuple(A), k)
        if twin is None:
            own: dict[str, int] = {}
            children.append(fixpoint(st, own, A, block))
        else:
            own = built[twin]
            child = children[twin]
            if debug:
                check: dict[str, int] = {}
                state = fixpoint(st, check, A, block)
                if check != own or not same_state(state, None if child is None else mirror(child)):
                    raise InternalError("a mirror child differs from its twin's mirror")
            children.append(child)
        built.append(own)
        if counts is not None:
            for key, n in own.items():
                counts[key] = counts.get(key, 0) + n
    if debug and floors is not None:
        for child, floor in zip(children, floors):
            removed = floor if child is None else len(st.V) - len(child.V)
            if removed < floor:
                raise InternalError(f"child eliminated {removed} variables, expected >= {floor}")
    return children


def pick_high_degree_var(st: PairState) -> int | None:
    """A variable occurring in at least four dissimilar clause classes,
    preferring the highest class count, then the smallest id."""
    var_to_classes = st.index().var_to_classes
    candidates = [v for v, ks in var_to_classes.items() if len(ks) >= 4]
    if not candidates:
        return None
    return min(candidates, key=lambda v: (-len(var_to_classes[v]), v))


def branch_high_degree_var(
    st: PairState, x: int, counts: Counts = None, debug: bool = False
) -> list[PairState | None]:
    """Four-way (or fewer) split on a variable in >= 4 dissimilar classes.
    Each child then links away one further variable per class of x."""
    lists = [((x, i, j),) for i, j in value_combos(st, x)]
    return build_children(simplify_fixpoint, st, lists, counts, debug, floors=[5] * len(lists))


class SemiIsolated(NamedTuple):
    """Variable block I reachable from the rest only through J: every
    clause uses only I | J variables or no I variable at all."""

    I: frozenset[int]
    J: frozenset[int]


class SevenNeighbourPattern(NamedTuple):
    """A clause with >= 4 dissimilar neighbour classes, plus the pivot
    variable sitting in two of them. `generic` marks a defensive match
    that skips the elimination-floor assertions."""

    clause: int
    pivot: int
    generic: bool


def _extract_semiisolated(index: ClassIndex, block: frozenset[int]) -> SemiIsolated:
    boundary: set[int] = set()
    for vs in index.class_vars:
        if not block.issuperset(vs):
            boundary |= block.intersection(vs)
    I = frozenset(block - boundary)
    for vs in index.class_vars:
        if not I.isdisjoint(vs) and not block.issuperset(vs):
            raise InternalError("semiisolated block leaks outside its boundary")
    return SemiIsolated(I, frozenset(boundary))


def _match_pattern(st: PairState, k: int):
    """One step of the constructive search around a class with >= 4
    dissimilar neighbours: either a branchable pattern, or the context
    (block, a, b, next-class) for the semiisolated fallback."""
    classes, class_vars, var_to_classes, _ = st.index()
    rep = classes[k][0]
    order = []
    for p in st.clauses[rep]:
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
    if len(side_classes) < 2:
        raise InternalError("fewer side neighbours than the class count promises")
    known = {pivot, y, z, *ab, *cd}
    # two fresh variables among the side classes: one class holding both,
    # or two classes holding one each, make the pattern
    extra = set().union(*(class_vars[q] for q in side_classes)) - known
    if len(extra) >= 2:
        return SevenNeighbourPattern(rep, pivot, False)
    return frozenset(known | extra), ab[0], ab[1], n1_cls


def _generic_pattern(st: PairState, k: int) -> SevenNeighbourPattern:
    classes, class_vars, var_to_classes, _ = st.index()
    pivot = next(v for v in class_vars[k] if len(var_to_classes[v] - {k}) >= 2)
    return SevenNeighbourPattern(classes[k][0], pivot, True)


def find_config(st: PairState):
    """Decide how to handle a clause with >= 4 dissimilar neighbour
    classes: a branchable pattern, or a small semiisolated block to
    eliminate. None when no clause qualifies (the decomposition case)."""
    index = st.index()
    neighbours, var_to_classes = index.neighbours, index.var_to_classes
    start = next((k for k, ns in enumerate(neighbours) if len(ns) >= 4), None)
    if start is None:
        return None
    k = start
    visited = set()
    while True:
        found = _match_pattern(st, k)
        if isinstance(found, SevenNeighbourPattern):
            return found
        block, a, b, n1_cls = found
        has_outside = any(
            not block.issuperset(index.class_vars[q])
            for q in var_to_classes[a] | var_to_classes[b]
        )
        if not has_outside:
            si = _extract_semiisolated(index, block)
            if len(si.J) <= 3:
                return si
            return _generic_pattern(st, start)
        visited.add(k)
        k = n1_cls
        if k in visited or len(neighbours[k]) < 4:
            return _generic_pattern(st, start)


def eliminate_semiisolated_1(
    st: PairState, si: SemiIsolated, counts: Counts = None
) -> PairState | None:
    """Sum out the block I through its single boundary variable x (or
    none), then simplify: one `simplify_fixpoint` call with the block
    (`simplify._Work.eliminate`). None when the result evaluates to
    zero."""
    if len(si.J) > 1:
        raise InternalError("single-boundary elimination needs |J| <= 1")
    return simplify_fixpoint(st, counts, block=(si.I, min(si.J, default=None)))


def branch_semiisolated_2(
    st: PairState, si: SemiIsolated, counts: Counts = None, debug: bool = False
) -> list[PairState | None]:
    """|J| = 2: branch on the boundary variable that also sits in an
    outside clause, then eliminate I through the remaining one."""
    block = si.I | si.J
    _, class_vars, var_to_classes, _ = st.index()
    x = next(
        (
            v
            for v in sorted(si.J)
            if any(not block.issuperset(class_vars[q]) for q in var_to_classes[v])
        ),
        None,
    )
    if x is None:
        raise InternalError("no boundary variable with an outside clause")
    w = next(v for v in sorted(si.J) if v != x)
    lists = [((x, i, j),) for i, j in value_combos(st, x)]
    return build_children(
        simplify_fixpoint, st, lists, counts, debug, (si.I, w), [5] * len(lists)
    )


def _clause_split(
    st: PairState, c: Clause, pairs: Iterable[tuple[int, int]]
) -> list[Assignments]:
    """The assignment list of each position pair (p1, p2) of `pairs`, in
    order, that makes literal p1 of clause c the true one on side 0 and
    literal p2 on side 1: every variable of c takes the values of those two
    true positions (`model.true_positions`). A pair that a side rules out
    gives no list."""
    trio = sorted(clause_vars(c))
    bit = {v: 1 << t for t, v in enumerate(trio)}
    pos1, pos2 = (true_positions(c, st.fixed[side], side, bit) for side in (0, 1))
    return [
        [(v, pos1[p1] >> t & 1, pos2[p2] >> t & 1) for t, v in enumerate(trio)]
        for p1, p2 in pairs
        if pos1[p1] is not None and pos2[p2] is not None
    ]


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
    jpair = clause_vars(c) & si.J
    evar = (clause_vars(c) & si.I).pop()
    (w,) = si.J - jpair
    block = (si.I - {evar}, w)
    lists = _clause_split(st, c, product(range(len(c)), repeat=2))
    return build_children(simplify_fixpoint, st, lists, counts, debug, block, [8] * len(lists))


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
    lists: list[Assignments] = []
    floors: list[int] = []

    # the pivot literal is false where the pivot's value equals its sign
    i0 = c[ppos] & 1
    j0 = (c[ppos] >> 1) & 1
    if (i0, j0) in value_combos(st, pivot):
        lists.append(((pivot, i0, j0),))
        floors.append(4)

    split = _clause_split(st, c, [(ppos, ppos), (ppos, others[0]), (ppos, others[1]),
                                  (others[0], ppos), (others[1], ppos)])
    lists += split
    floors += [7] * len(split)

    return build_children(
        simplify_fixpoint, st, lists, counts, debug, floors=None if pattern.generic else floors
    )
