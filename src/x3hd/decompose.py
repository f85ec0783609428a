"""Decomposition: clause graph over dissimilar classes, connected-component
factorisation, heuristic balanced bisection, cut-variable branching and the
brute-force base case.

The clause graph and the component split read the state's class index
(`PairState.index`): its classes and their shared variables are the
graph. `ClauseGraph` adds only what the index lacks, the variables each
edge's two classes share. Like the branching rules, the cut branch builds
each child with one `simplify_fixpoint` call, and the base case rewrites
nothing: it takes one `pair_sum` over all of V, on the solution rows the
solver may already have enumerated.
"""

from __future__ import annotations

import random
from itertools import product
from typing import NamedTuple

from .branching import Counts, build_children
from .errors import InternalError
from .model import PairState, pair_sum
from .poly import ONE, HDPoly
from .simplify import simplify_fixpoint, value_combos


class ClauseGraph(NamedTuple):
    """Vertices are the state's dissimilar clause classes, numbered as in
    its class index; an edge (a, b), a < b, joins two classes sharing at
    least one variable and is labelled with the shared set. The members
    and neighbours of a vertex are in the index (`PairState.index`)."""

    n_vertices: int
    edge_vars: dict[tuple[int, int], frozenset[int]]


def build_clause_graph(st: PairState, debug: bool = False) -> ClauseGraph:
    index = st.index()
    class_vars, neighbours = index.class_vars, index.neighbours
    edge_vars = {
        (a, b): frozenset(class_vars[a]).intersection(class_vars[b])
        for a in range(len(class_vars))
        for b in sorted(neighbours[a])
        if b > a
    }
    if debug:
        for a, vs in enumerate(class_vars):
            if len(vs) != 3:
                raise InternalError("decomposition requires 3-variable clauses")
            if len(neighbours[a]) > 3:
                raise InternalError("decomposition requires degree <= 3")
        for shared in edge_vars.values():
            if len(shared) >= 2:
                raise InternalError("dissimilar classes sharing two variables survived")
    return ClauseGraph(len(class_vars), edge_vars)


def connected_components(st: PairState) -> list[PairState]:
    """Split the state into variable-disjoint sub-states along the class
    graph, each a new state that keeps its clauses in the parent's order
    and starts with p_main = 1; the caller multiplies the sub-results with
    the parent's p_main. Variables in no clause stay with the parent; a
    clause with no variable (none is left at a fixpoint) is a sub-state of
    its own."""
    classes, class_vars, _, neighbours = st.index()
    f0, f1 = st.fixed
    seen: set[int] = set()
    out = []
    for root in range(len(classes)):
        if root in seen:
            continue
        seen.add(root)
        group = [root]
        for k in group:
            for q in neighbours[k]:
                if q not in seen:
                    seen.add(q)
                    group.append(q)
        order = sorted({v for k in group for v in class_vars[k]})
        indices = sorted(idx for k in group for idx in classes[k])
        for part in [indices] if order else [[idx] for idx in indices]:
            out.append(
                PairState(
                    clauses=tuple(st.clauses[idx] for idx in part),
                    fixed=({v: f0[v] for v in order if v in f0}, {v: f1[v] for v in order if v in f1}),
                    p_main=ONE,
                    weights={v: st.weights[v] for v in order},
                )
            )
    return out


class Bisection(NamedTuple):
    sides: tuple[int, ...]
    cut_vars: frozenset[int]
    cut_size: int


def balanced_bisection(g: ClauseGraph, seed: int = 0) -> Bisection:
    """Seeded local search for a small balanced cut: four random balanced
    starts, each improved by greedy pair swaps (the move set of Kernighan
    and Lin, 1970) until no swap of one vertex from each side shrinks the
    cut, and the smallest of the four kept. The sides differ in size by at
    most one, and no such swap shrinks the returned cut. Correctness of
    the caller never depends on the cut size.

    Each sweep takes every vertex's gain D[v], its edges leaving its side
    minus those inside it, once; swapping a and b then shrinks the cut by
    D[a] + D[b] - 2 [a ~ b]. The sweep takes the first swap, a ascending on
    side 0 and b on side 1, with the largest positive gain."""
    n = g.n_vertices
    if n < 2:
        raise InternalError("bisection needs at least two vertices")
    edges = g.edge_vars
    rng = random.Random(seed)
    half = (n + 1) // 2
    best_sides: list[int] | None = None
    best_cut = None
    for _ in range(4):
        perm = list(range(n))
        rng.shuffle(perm)
        sides = [0] * n
        for pos in perm[half:]:
            sides[pos] = 1
        while True:
            cut = 0
            gains = [0] * n
            for a, b in edges:
                d = 1 if sides[a] != sides[b] else -1
                cut += d > 0
                gains[a] += d
                gains[b] += d
            best_gain, best_pair = 0, None
            zeros = [v for v in range(n) if sides[v] == 0]
            ones = [v for v in range(n) if sides[v] == 1]
            for a in zeros:
                gain_a = gains[a]
                for b in ones:
                    gain = gain_a + gains[b]
                    # an edge a ~ b matters only to a swap that could win
                    if gain > best_gain and ((a, b) if a < b else (b, a)) in edges:
                        gain -= 2
                    if gain > best_gain:
                        best_gain, best_pair = gain, (a, b)
            if best_pair is None:
                break
            a, b = best_pair
            sides[a], sides[b] = 1, 0
        if best_cut is None or cut < best_cut:
            best_cut, best_sides = cut, sides
    cut_vars: set[int] = set()
    for (a, b), shared in edges.items():
        if best_sides[a] != best_sides[b]:
            cut_vars |= shared
    return Bisection(tuple(best_sides), frozenset(cut_vars), best_cut)


def branch_cut_variables(
    st: PairState, bis: Bisection, counts: Counts = None, debug: bool = False
) -> list[PairState | None]:
    """Branch on every value combination of the cut variables; after
    simplification each child's clause set falls apart into the two
    bisection groups, handled by component factorisation upstream. At a
    symmetric state, the mirror rule (`branching.build_children`) builds
    2^c + (4^c - 2^c)/2 of the 4^c children of c free cut variables."""
    cut = sorted(bis.cut_vars)
    if not cut:
        raise InternalError("empty cut cannot make progress")
    options = [value_combos(st, v) for v in cut]
    lists = [[(v, i, j) for v, (i, j) in zip(cut, combo)] for combo in product(*options)]
    return build_children(simplify_fixpoint, st, lists, counts, debug)


def brute_force_base(st: PairState, rows: list[list[int]] | None = None) -> HDPoly:
    """Exact evaluation of a state with few solutions: p_main times the
    weighted `pair_sum` over the side solutions on sorted(V), in which a
    variable in no clause takes every value its forced values allow.
    `rows` are those solutions as `model.solution_rows` lists them, when
    the caller has enumerated them already to see whether they are few."""
    return st.p_main * pair_sum(st.clauses, st.fixed, sorted(st.V), st.weights, rows)
