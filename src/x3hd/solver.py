"""Recursion driver: priority dispatch over all rules, result assembly and
search-tree instrumentation.

Every rule that builds children hands them to `_branch`, which counts the
rule and searches each child, dead (None) or not, through `_node`. A
skipped mirror child's slot holds its twin's own entry (`branching` module
docstring), searched once and counted once per slot, so `SolveStats` keeps
counting the logical tree.

The finish: a state that would branch (`case1_v`, `case1_vi2`,
`case1_vi3`, `case1_vii`, or a Case 2 cut above `base_threshold`
variables) is a base case instead when each side has at most
`SolveOptions.finish_rows` solutions, since one `pair_sum` over them costs
less than building and searching the children, whatever the number of
variables. `_node` tries it at one place, before the branch rules. It
first sums out each clause's private variable pair with case (vi)'s one
elimination step (`simplify.sum_private_pairs`, `simplify.sum_out`): a
clause whose other two variables occur nowhere else scales the third's
table instead of doubling the rows where that variable's literal is
false, so the cap counts the solutions of the reduced state, whose rows
and state go to `brute_force_base`. A plain base case is summed as it
is. The cap bounds every partial fold of `model.side_solutions`, which
folds the most-shared clause first, so it tests the state's solution
count, not the order in which its clauses are listed.

With the finish on, `mhd` also sums out the root's private pairs before
the root's fixpoint, so the fixpoint, Case 1 detection, the component
split and the finish all see the reduced formula: a clause whose other
two variables occur nowhere else no longer puts its third variable in
another class (`case1_v`) or its class next to another (`case1_vii`).
Only the root is summed this way; a pair that becomes private deeper
down is summed out by the finish alone. `finish_rows=0` leaves the root
as it is and runs the paper's recursion exactly.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass, field, replace

from .branching import (
    SemiIsolated,
    SevenNeighbourPattern,
    branch_four_neighbour,
    branch_high_degree_var,
    branch_semiisolated_2,
    branch_semiisolated_3,
    eliminate_semiisolated_1,
    find_config,
    pick_high_degree_var,
)
from .decompose import (
    balanced_bisection,
    branch_cut_variables,
    brute_force_base,
    build_clause_graph,
    connected_components,
)
from .errors import InternalError
from .model import Formula, PairState, check_state, initial_state, mirror, solution_rows
from .poly import ZERO, HDPoly
from .simplify import simplify_fixpoint, sum_private_pairs

RULE_KEYS = (
    "case1_i",
    "dedup",
    "case1_ii",
    "case1_iii",
    "case1_iv",
    "case1_v",
    "case1_vi1",
    "case1_vi2",
    "case1_vi3",
    "case1_vii",
    "prop3_fallback",
    "case2_split",
    "component_split",
    "base",
)


@dataclass(frozen=True)
class SolveOptions:
    """A connected state on which no Case 1 rule fires is cut (Case 2)
    only above `base_threshold` variables, and is a base case otherwise; a
    state that would branch, by a Case 1 rule or that cut, is a base case
    instead when each side has at most `finish_rows` solutions, whatever
    the threshold. With a cap, the root's private pairs are summed out
    before its fixpoint as well; `finish_rows=0` does neither and leaves
    the paper's recursion alone.
    `seed` seeds the bisection; `debug` turns on the internal checks,
    which raise InternalError. Frozen: no solve and no caller changes an
    option in the middle of a search."""

    base_threshold: int = 16
    seed: int = 0
    debug: bool = False
    # Timed per node both ways, one `pair_sum` beat the branch up to about
    # 90 rows a side (70 x 70 rows: 0.77 vs 1.83 ms) and lost from about
    # 124 (374 x 374: 15.5 vs 2.2 ms), whatever the variable count. That
    # was measured on raw rows; the cap now counts the rows left after the
    # private pairs are summed out, whose tables make each pair of rows
    # dearer (`pair_sum` packs them). The cap also bounds the partial
    # folds of the enumeration; folded most-shared-first, they rarely
    # outgrow the rows themselves. 0 turns off the finish and the root's
    # private-pair sum.
    finish_rows: int = 90


@dataclass
class SolveStats:
    """Search-tree accounting.

    `nodes`, `leaves`, `max_depth`, `branched_vars` and `rules` describe
    the logical tree, the one the recursion defines, which is the same
    with or without reuse: a child answered by its mirror twin counts as
    if it had been built and searched. `max_depth` is the depth of the
    deepest node counted in `nodes`, the root at 0 and a dead child
    included. `mirrored` counts the slots answered by an earlier sibling's
    search (a dead twin's mirror needs none and is not counted); it is not
    a rule.

    A state finished by its few solutions instead of branched on is a base
    case: it counts in `rules["base"]` and as one leaf, and the children it
    was not branched into are not in the tree.

    `leaves` counts the leaves of the sequentialised search tree: sums add
    child leaf counts, independent component factors multiply them (as if
    the components were solved nested). With `branched_vars` the total
    number of variables branched on anywhere in the tree, this keeps
    leaves <= 4**branched_vars an exact invariant.
    """

    nodes: int = 0
    leaves: int = 0
    max_depth: int = 0
    branched_vars: int = 0
    mirrored: int = 0
    rules: dict[str, int] = field(default_factory=lambda: {k: 0 for k in RULE_KEYS})

    def as_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "leaves": self.leaves,
            "max_depth": self.max_depth,
            "branched_vars": self.branched_vars,
            "mirrored": self.mirrored,
            "rules": {k: self.rules.get(k, 0) for k in RULE_KEYS},
        }

    def add_tree(self, sub: "SolveStats") -> None:
        """Add the logical-tree counts of a subtree counted apart."""
        self.nodes += sub.nodes
        self.branched_vars += sub.branched_vars
        for key, n in sub.rules.items():
            self.rules[key] += n


@dataclass(frozen=True)
class SolveReport:
    poly: HDPoly
    max_hd: int | None
    solutions: int
    stats: SolveStats


def _branch(rule, branched, children, opts, stats, depth) -> tuple[HDPoly, int]:
    """Count `rule` and the `branched` variables it branched on, then search
    the children it built and return the sum of their polynomials and leaf
    counts. Every child goes through `_node` one depth below, a dead one
    (None) included. A state that fills more than one slot is searched once
    into its own `SolveStats`, and each further slot adds its polynomial,
    leaves and counts again; debug mode searches its mirror as well and
    raises InternalError unless all three match."""
    stats.rules[rule] += 1
    stats.branched_vars += branched
    total = ZERO
    leaves = 0
    slots = Counter(children)
    results: dict[PairState, tuple[HDPoly, int, SolveStats]] = {}
    for child in children:
        if child is None or slots[child] == 1:
            poly, sub_leaves = _node(child, opts, stats, depth + 1)
        elif child in results:
            poly, sub_leaves, sub = results[child]
            stats.add_tree(sub)
            stats.mirrored += 1
        else:
            sub = SolveStats()
            poly, sub_leaves = _node(child, opts, sub, depth + 1)
            if opts.debug:
                own = SolveStats()
                if _node(mirror(child), opts, own, depth + 1) != (poly, sub_leaves) or (
                    own.as_dict() != sub.as_dict()
                ):
                    raise InternalError("a mirror child's search differs from its twin's")
            results[child] = poly, sub_leaves, sub
            stats.add_tree(sub)
            stats.mirrored += sub.mirrored
            stats.max_depth = max(stats.max_depth, sub.max_depth)
        total = total + poly
        leaves += sub_leaves
    return total, max(leaves, 1)


def _node(
    st: PairState | None, opts: SolveOptions, stats: SolveStats, depth: int, part: bool = False
) -> tuple[HDPoly, int]:
    """One search node: apply the first rule that fires to a state at its
    fixpoint; returns the polynomial and the leaf count. A dead child
    (None, a state that evaluates to zero) is a leaf, counted in `nodes`
    and `max_depth` like any other. Every state arrives simplified: the
    root through a fixpoint call here, a child of `_branch` as the result
    of one, and a part of a component split as a subset of the clauses of
    a state at its fixpoint, with their variables. A part (`part=True`)
    skips detection and the split: it holds whole classes of a state on
    which no rule fired, each of its variables with all its classes and
    each class with all its neighbours, and it is connected, so
    `pick_high_degree_var`, `find_config` and `connected_components` would
    find nothing on it either. A state that would branch, by a Case 1 rule
    other than (vi) with |J| <= 1 or by a Case 2 cut above
    `base_threshold`, is a base case instead when each side of the state
    with its private pairs summed out (`sum_private_pairs`) has at most
    `opts.finish_rows` solutions: that state and the rows enumerated to
    see that they fit go to `brute_force_base`, so nothing is enumerated
    twice. Otherwise the rule branches, or the cut does when the clause
    graph has two vertices to bisect; every base case leaves by the last
    line. Debug mode checks the fixpoint at every node, re-runs the three
    detectors on every part, and searches a finished state again with the
    finish off, through a copy of `opts`, raising InternalError unless its
    polynomial is the same."""
    stats.nodes += 1
    if depth > stats.max_depth:
        stats.max_depth = depth
    if st is None:
        return ZERO, 1
    if opts.debug:
        if simplify_fixpoint(st, {}) is not st:
            raise InternalError("a state passed as simplified is not at its fixpoint")
        check_state(st)
        if part and (
            pick_high_degree_var(st) is not None
            or find_config(st) is not None
            or len(connected_components(st)) > 1
        ):
            raise InternalError("a rule fires on a part of a component split")
    if not st.V:
        return st.p_main, 1

    x = config = None
    if not part:
        x = pick_high_degree_var(st)
        config = find_config(st) if x is None else None
        if isinstance(config, SemiIsolated) and len(config.J) <= 1:
            children = [eliminate_semiisolated_1(st, config, stats.rules)]
            return _branch("case1_vi1", 0, children, opts, stats, depth)
        if x is None and config is None:
            components = connected_components(st)
            if len(components) > 1:
                stats.rules["component_split"] += 1
                components.sort(key=lambda c: (len(c.V), min(c.V)))
                poly = st.p_main
                leaves = 1
                for comp in components:
                    sub_poly, sub_leaves = _node(comp, opts, stats, depth + 1, part=True)
                    poly = poly * sub_poly
                    leaves *= sub_leaves
                    if poly.is_zero() and not opts.debug:
                        break
                return poly, leaves

    branches = x is not None or config is not None or len(st.V) > opts.base_threshold
    rows = None
    if opts.finish_rows and branches:
        reduced = sum_private_pairs(st)
        rows = solution_rows(reduced.clauses, reduced.fixed, sorted(reduced.V), opts.finish_rows)
    if rows is None:
        if x is not None:
            children = branch_high_degree_var(st, x, stats.rules, opts.debug)
            return _branch("case1_v", 1, children, opts, stats, depth)
        if isinstance(config, SemiIsolated):
            if len(config.J) == 2:
                children = branch_semiisolated_2(st, config, stats.rules, opts.debug)
                return _branch("case1_vi2", 1, children, opts, stats, depth)
            children = branch_semiisolated_3(st, config, stats.rules, opts.debug)
            return _branch("case1_vi3", 3, children, opts, stats, depth)
        if isinstance(config, SevenNeighbourPattern):
            stats.rules["prop3_fallback"] += config.generic
            children = branch_four_neighbour(st, config, stats.rules, opts.debug)
            return _branch("case1_vii", 3, children, opts, stats, depth)
        if len(st.V) > opts.base_threshold:
            graph = build_clause_graph(st, opts.debug)
            if graph.n_vertices >= 2:
                bisection = balanced_bisection(graph, opts.seed)
                children = branch_cut_variables(st, bisection, stats.rules, opts.debug)
                branched = len(bisection.cut_vars)
                return _branch("case2_split", branched, children, opts, stats, depth)
    stats.rules["base"] += 1
    poly = brute_force_base(st if rows is None else reduced, rows)
    if rows is not None and opts.debug:
        if _node(st, replace(opts, finish_rows=0), SolveStats(), depth, part)[0] != poly:
            raise InternalError("a finished state's branch gives another polynomial")
    return poly, 1


def mhd(st: PairState, opts: SolveOptions | None = None) -> tuple[HDPoly, SolveStats]:
    """Evaluate a recursion state exactly; returns the polynomial together
    with the search statistics. With the finish on, the state's private
    pairs are summed out (`sum_private_pairs`) before its fixpoint. The
    interpreter's recursion limit is raised to at least 20000 for the
    search and restored on return. That limit is process-wide: while a
    solve runs, every thread of the process sees the raised value."""
    opts = opts or SolveOptions()
    stats = SolveStats()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20000))
    try:
        root = sum_private_pairs(st) if opts.finish_rows else st
        poly, stats.leaves = _node(simplify_fixpoint(root, stats.rules), opts, stats, 0)
    finally:
        sys.setrecursionlimit(limit)
    return poly, stats


def solve(f: Formula, opts: SolveOptions | None = None) -> SolveReport:
    """Compute the Hamming-distance polynomial of a formula's solution
    pairs: coefficient of u^k counts ordered pairs at distance k, the
    degree is the maximum distance, the constant term the solution count."""
    poly, stats = mhd(initial_state(f), opts)
    return SolveReport(
        poly=poly,
        max_hd=poly.degree(),
        solutions=poly.coeff(0),
        stats=stats,
    )
