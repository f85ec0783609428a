import hashlib
import inspect
import json
import random
import sys
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import x3hd.branching
import x3hd.decompose
import x3hd.solver
from rulestates import clause, fuzz_weights, mkstate, resign
from x3hd.branching import (
    branch_four_neighbour,
    branch_high_degree_var,
    branch_semiisolated_2,
    branch_semiisolated_3,
    build_children,
    find_config,
    pick_high_degree_var,
)
from x3hd.errors import InternalError
from x3hd.decompose import balanced_bisection, branch_cut_variables, build_clause_graph
from x3hd.instances import generate, parse
from x3hd.model import (
    Formula,
    PairState,
    clause_vars,
    initial_state,
    is_symmetric,
    mirror,
    side_solutions,
)
from x3hd.oracle import hd_oracle, state_eval
from x3hd.poly import ONE, U, ZERO, HDPoly
from x3hd.solver import SolveOptions, mhd, solve

EXAMPLE = Formula.from_dimacs([[1, 2, 3], [1, 4, 5], [1, 6, 7], [2, 4, -6]], 7)


def test_worked_example_end_to_end():
    report = solve(EXAMPLE)
    assert report.poly == HDPoly({4: 12, 0: 4})
    assert report.max_hd == 4
    assert report.solutions == 4


def test_worked_example_with_tiny_base_threshold():
    report = solve(EXAMPLE, SolveOptions(base_threshold=2))
    assert report.poly == HDPoly({4: 12, 0: 4})


def test_unsatisfiable_formula():
    report = solve(Formula.from_dimacs([[1, 1]], 1))
    assert report.poly == ZERO
    assert report.max_hd is None
    assert report.solutions == 0


def test_empty_formula_single_variable():
    report = solve(Formula((), 1))
    assert report.poly == HDPoly({1: 2, 0: 2})
    assert report.max_hd == 1
    assert report.solutions == 2


def test_duplicate_variable_clause_input():
    # (x, x, z) forces x = 0 and z = 1, leaving the single solution (0, 1)
    report = solve(Formula.from_dimacs([[1, 1, 2]], 2))
    assert report.poly == HDPoly({0: 1})
    assert report.solutions == 1 and report.max_hd == 0


def test_mhd_accepts_prepared_states():
    poly, stats = mhd(initial_state(EXAMPLE))
    assert poly == HDPoly({4: 12, 0: 4})
    assert stats.nodes >= 1 and stats.leaves >= 1


def test_oracle_equivalence_random_sample():
    for seed in range(60):
        rng = random.Random(900 + seed)
        n = rng.randint(4, 12)
        m = rng.randint(1, n)
        inst = generate(n, m, seed=seed, planted=seed % 2 == 0)
        for bt in (3, 16):
            got = solve(inst.formula, SolveOptions(base_threshold=bt)).poly
            assert got == hd_oracle(inst.formula), (seed, bt)


# past the n = 24 reach of whole-formula brute force; the seeds keep the
# oracle's largest variable-disjoint part at 15..21 variables
@pytest.mark.parametrize("n, seeds", [(30, (1, 2, 14)), (36, (1, 2, 19)), (42, (4, 7, 12)),
                                      (48, (3, 6, 10))])
def test_oracle_equivalence_past_whole_formula_reach(n, seeds):
    for seed in seeds:
        f = generate(n, n // 3, seed=seed, planted=True).formula
        assert solve(f).poly == hd_oracle(f), (n, seed)


def test_negation_invariance():
    for seed in range(25):
        rng = random.Random(seed)
        inst = generate(rng.randint(4, 9), rng.randint(2, 6), seed=seed)
        f = inst.formula
        flip = rng.randint(1, f.n_vars)
        flipped = Formula(
            tuple(
                tuple(l ^ 1 if l >= 2 and l >> 1 == flip else l for l in cl)
                for cl in f.clauses
            ),
            f.n_vars,
        )
        opts = SolveOptions(base_threshold=4)
        assert solve(f, opts).poly == solve(flipped, opts).poly


def test_renaming_invariance():
    for seed in range(25):
        rng = random.Random(50 + seed)
        inst = generate(rng.randint(4, 9), rng.randint(2, 6), seed=seed)
        f = inst.formula
        perm = list(range(1, f.n_vars + 1))
        rng.shuffle(perm)
        mapping = dict(zip(range(1, f.n_vars + 1), perm))
        renamed = Formula(
            tuple(
                tuple(2 * mapping[l >> 1] + (l & 1) if l >= 2 else l for l in cl)
                for cl in f.clauses
            ),
            f.n_vars,
        )
        opts = SolveOptions(base_threshold=4)
        assert solve(f, opts).poly == solve(renamed, opts).poly


def test_disjoint_union_multiplies():
    for seed in range(15):
        rng = random.Random(200 + seed)
        a = generate(rng.randint(3, 6), rng.randint(1, 4), seed=seed).formula
        b = generate(rng.randint(3, 6), rng.randint(1, 4), seed=seed + 1000).formula
        shifted = tuple(
            tuple(l + 2 * a.n_vars if l >= 2 else l for l in cl) for cl in b.clauses
        )
        union = Formula(a.clauses + shifted, a.n_vars + b.n_vars)
        opts = SolveOptions(base_threshold=4)
        assert solve(union, opts).poly == solve(a, opts).poly * solve(b, opts).poly


def test_determinism_of_polynomial_and_stats():
    inst = generate(12, 8, seed=5, planted=True)
    opts = SolveOptions(base_threshold=4, seed=3)
    first = solve(inst.formula, opts)
    second = solve(inst.formula, opts)
    assert first.poly == second.poly
    assert first.stats.as_dict() == second.stats.as_dict()


def test_leaf_budget_invariant():
    for seed in range(20):
        inst = generate(12, 8, seed=seed, planted=seed % 2 == 0)
        rep = solve(inst.formula, SolveOptions(base_threshold=3, debug=True))
        assert rep.stats.leaves <= 4 ** rep.stats.branched_vars
        assert rep.stats.nodes >= 1


def test_solved_in_debug_mode_matches_release():
    for seed in range(12):
        inst = generate(10, 7, seed=seed)
        a = solve(inst.formula, SolveOptions(base_threshold=3, debug=True))
        b = solve(inst.formula, SolveOptions(base_threshold=3, debug=False))
        assert a.poly == b.poly


def test_deep_recursion_is_safe():
    # long chain of two-variable links: n = 200 collapses without branching
    clauses = [[i, i + 1] for i in range(1, 200)]
    f = Formula.from_dimacs(clauses, 200)
    report = solve(f)
    assert report.solutions == 2
    assert report.max_hd == 200


def test_a_search_path_deeper_than_the_callers_limit():
    # k disjoint copies of a gadget. In the paper's recursion (the finish
    # off) x is in four classes, so case1_v branches on it before any
    # component split, and a child with x = 1 on a side kills [x+1, x+2,
    # x+3] there. Each level has one live child, so the tree is a path
    # k + 1 levels deep, which needs more frames than the limit set here
    # leaves: `mhd` must raise it
    k = 100
    clauses = []
    for x in range(1, 9 * k, 9):
        clauses += [[x, x + i, x + 4 + i] for i in range(1, 5)] + [[x + 1, x + 2, x + 3]]
    f = Formula.from_dimacs(clauses, 9 * k)
    copy = HDPoly({0: 6, 2: 6, 4: 12, 6: 12})
    assert hd_oracle(Formula.from_dimacs(clauses[:5], 9)) == copy
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + k)
    try:
        report = solve(f, SolveOptions(finish_rows=0))
    finally:
        sys.setrecursionlimit(saved)
    assert (report.stats.max_depth, report.stats.nodes) == (101, 501)
    assert report.poly == copy**k
    # by default the root sums out each copy's private pair x+4, x+8
    # first, which leaves x in three classes: the root splits into the k
    # copies, each a base case
    report = solve(f)
    assert (report.stats.max_depth, report.stats.nodes) == (1, 101)
    assert report.stats.rules["component_split"] == 1
    assert report.poly == copy**k


def test_solve_restores_recursion_limit():
    # start below the solver's own limit, which an earlier solve may have left
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1500)
    try:
        solve(Formula.from_dimacs([[1, 2, 3], [1, 4, 5]], 5))
        assert sys.getrecursionlimit() == 1500
    finally:
        sys.setrecursionlimit(saved)


def test_dead_child_is_a_node_at_its_depth():
    # in the paper's recursion the root fires case1_vii once and all six
    # children are dead: each is a leaf one level below the root, counted
    # in nodes and max_depth
    f = Formula.from_dimacs([[4, -5, 9], [8, -5, 2], [3, 2, -9], [-6, -9, 1], [3, 7, -1],
                             [9, 6, -1]], 9)
    report = solve(f, SolveOptions(finish_rows=0))
    assert report.poly.is_zero() and hd_oracle(f).is_zero()
    stats = report.stats
    assert (stats.nodes, stats.leaves, stats.max_depth) == (7, 6, 1)
    assert stats.rules["case1_vii"] == 1


def test_free_variables_fold_in_closed_form():
    # 1997 variables in no clause: each contributes 2 + 2u, folded in one step
    report = solve(Formula.from_dimacs([[1, 2, 3]], 2000))
    free = HDPoly({d: 2**1997 * comb(1997, d) for d in range(1998)})
    assert report.poly == HDPoly({0: 3, 2: 6}) * free
    assert report.stats.rules["case1_ii"] == 1997


# Every `SolveStats` field summed over a seeded random sample (max_depth
# too). They pin the search tree: a change that only lowers the cost per
# node keeps every one of them.
SEARCH_COUNTS = {
    "nodes": 350, "leaves": 300, "max_depth": 24, "branched_vars": 0, "mirrored": 0,
    "case1_i": 66, "dedup": 173, "case1_ii": 2648, "case1_iii": 1563,
    "case1_iv": 312, "case1_v": 0, "case1_vi1": 0, "case1_vi2": 0,
    "case1_vi3": 0, "case1_vii": 0, "prop3_fallback": 0, "case2_split": 0,
    "component_split": 24, "base": 145,
}


# `SolveStats` counts a finish that fits as a base case; these pin the
# attempts too, counted as calls of `solution_rows`, and the fits among
# them: a failed attempt is the finish's cost
SEARCH_FINISHES = {"attempts": 16, "fits": 16}


def _add_stats(totals, stats):
    """Add every `SolveStats` field, the rule counts one key each."""
    counts = stats.as_dict()
    for key, value in [*counts.pop("rules").items(), *counts.items()]:
        totals[key] += value


def _count_attempts(monkeypatch):
    """Wrap the solver's `solution_rows` to count finish attempts and the
    ones that fit; returns the counting dict."""
    real = x3hd.solver.solution_rows
    finishes = {"attempts": 0, "fits": 0}

    def counting(*args):
        rows = real(*args)
        finishes["attempts"] += 1
        finishes["fits"] += rows is not None
        return rows

    monkeypatch.setattr(x3hd.solver, "solution_rows", counting)
    return finishes


def test_search_counts_are_pinned(monkeypatch):
    finishes = _count_attempts(monkeypatch)
    rng = random.Random(2024)
    totals = dict.fromkeys(SEARCH_COUNTS, 0)
    for seed in range(300):
        n = rng.randint(6, 30)
        m = rng.randint(1, n)
        _add_stats(totals, solve(generate(n, m, seed=seed, planted=seed % 2 == 0).formula).stats)
    assert totals == SEARCH_COUNTS
    assert finishes == SEARCH_FINISHES


# The same sums over generate(70, 28, seed=s, planted=True), s = 0..4, and
# one digest of the polynomials: clause lists longer than the benchmark
# pools' keep the same search tree and answers.
SCALE_COUNTS = {
    "nodes": 35, "leaves": 15, "max_depth": 3, "branched_vars": 6, "mirrored": 4,
    "case1_i": 0, "dedup": 4, "case1_ii": 182, "case1_iii": 124,
    "case1_iv": 7, "case1_v": 0, "case1_vi1": 0, "case1_vi2": 0,
    "case1_vi3": 0, "case1_vii": 2, "prop3_fallback": 0, "case2_split": 0,
    "component_split": 9, "base": 24,
}
SCALE_DIGEST = "d2ab285aa80eb054018ce3b27b63e130ea5ca89e1a8bd93672259447152994a2"
SCALE_FINISHES = {"attempts": 5, "fits": 3}


def test_search_counts_are_pinned_at_scale(monkeypatch):
    finishes = _count_attempts(monkeypatch)
    totals = dict.fromkeys(SCALE_COUNTS, 0)
    polys = []
    for seed in range(5):
        report = solve(generate(70, 28, seed=seed, planted=True).formula)
        _add_stats(totals, report.stats)
        polys.append(report.poly.to_pairs())
    assert totals == SCALE_COUNTS
    assert finishes == SCALE_FINISHES
    assert hashlib.sha256(json.dumps(polys).encode()).hexdigest() == SCALE_DIGEST


# The deep instance, write_instance(400, 100, True, Random("deep:400")) from
# the benchmark's generator: 400 variables, 100 clauses. Its digest (as
# SCALE_DIGEST's, of one polynomial) was computed with the root left
# unsummed, a search of 1,511,729 nodes and about three minutes; summing
# the root's private pairs out first takes it to 14,327.
DEEP_NODES = 14327
DEEP_DIGEST = "4da76839fde723f82a56df79443244b3c7663a301e17db26d7f70446988661c3"


def test_the_deep_instance_keeps_its_polynomial(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import write_instance

    report = solve(parse(write_instance(400, 100, True, random.Random("deep:400"))))
    assert report.stats.nodes == DEEP_NODES
    assert hashlib.sha256(json.dumps(report.poly.to_pairs()).encode()).hexdigest() == DEEP_DIGEST


# Inputs on which a rule that neither benchmark pool fires is reached
# through solve() in the paper's recursion (`finish_rows=0`); the
# first two are generate(13, 9, seed=2452, planted=True) and
# generate(13, 8, seed=2874, planted=True), the
# case1_vi2 ones generate(9, 6, seed=170, planted=True) and
# generate(10, 7, seed=59, planted=False). The case1_vi3 one is built by
# hand: class {1, 2, 3} has four neighbour classes and matches no case
# (vii) pattern, and the block {1..8} has the boundary J = {6, 7, 8}, each
# of whose variables sits in a clause outside it.
RARE_RULE_INSTANCES = [
    ("prop3_fallback", 13, [[-7, 4, -11], [-6, -11, -5], [8, 3, 4], [3, -9, 13], [6, 3, -7],
                            [1, -13, -11], [-11, 3, 1], [3, 2, -7], [-5, 1, -12]]),
    ("prop3_fallback", 13, [[-7, -12, -4], [-1, 2, 3], [13, 6, -12], [3, 11, -6],
                            [8, -4, -11], [-6, 13, 9], [-2, -6, -8], [-4, -2, 5]]),
    ("case1_vi1", 8, [[-5, -7, -2], [3, 5, -6], [-3, 4, -2], [1, 3, 8], [8, -5, -4]]),
    ("case1_vi1", 7, [[5, -7, -2], [-5, 4, 6], [7, -4, 3], [3, -6, -1], [-4, -1, -2]]),
    ("case1_vi2", 9, [[7, 5, 8], [2, -6, -5], [-1, -3, 7], [-6, 3, -4], [-3, 9, 8], [8, 1, -6]]),
    ("case1_vi2", 10, [[4, 2, -8], [-1, -10, -8], [3, 6, -10], [1, 6, 5], [-2, 10, 5],
                       [6, 3, -7], [-5, -9, -4]]),
    ("case1_vi3", 14, [[1, 2, 3], [1, 4, 5], [1, 6, 7], [2, 4, 6], [3, 5, 8], [6, 9, 10],
                       [7, 11, 12], [8, 13, 14]]),
]


def test_rare_rules_reached_through_solve():
    for rule, n, clauses in RARE_RULE_INSTANCES:
        f = Formula.from_dimacs(clauses, n)
        report = solve(f, SolveOptions(finish_rows=0))
        assert report.stats.rules[rule] >= 1, (rule, clauses)
        assert report.poly == hd_oracle(f), (rule, clauses)


def test_debug_mode_confirms_skipped_fixpoints():
    # _node takes every state at its fixpoint; debug mode re-runs the
    # fixpoint at each node and raises if one was not at its fixpoint. The
    # paper's recursion (`finish_rows=0`) reaches the branching rules,
    # and the default cap reaches the finish as well
    formulas = [Formula.from_dimacs(clauses, n) for _, n, clauses in RARE_RULE_INSTANCES]
    formulas += [generate(n, m, seed=s, planted=True).formula
                 for n in range(12, 22) for m in range(5, 11) for s in range(3)]
    reached = mirrored = 0
    for f in formulas:
        for rows in (SolveOptions().finish_rows, 0):
            debug = solve(f, SolveOptions(debug=True, finish_rows=rows))
            release = solve(f, SolveOptions(finish_rows=rows))
            assert debug.poly == release.poly
            assert debug.stats.as_dict() == release.stats.as_dict()
        rules = debug.stats.rules
        reached += any(rules[k] for k in ("case1_v", "case1_vi2", "case1_vii", "component_split"))
        mirrored += debug.stats.mirrored
    assert reached >= 30
    # debug mode also built every skipped child and searched its twin's mirror
    assert mirrored > 0


def _count_finishes(monkeypatch, perturb=ZERO):
    """Wrap the solver's `brute_force_base` to count the calls a finish
    makes, the ones given the rows it enumerated, and add `perturb` to
    their results; returns the one-item count list."""
    real = x3hd.solver.brute_force_base
    finished = [0]

    def counting(st, rows=None):
        if rows is None:
            return real(st)
        finished[0] += 1
        return real(st, rows) + perturb

    monkeypatch.setattr(x3hd.solver, "brute_force_base", counting)
    return finished


def _finish_formulas():
    # m = 0.4n as well as n/3: once the root's private pairs are summed
    # out, few n/3 formulas still reach a state that would branch
    return [Formula.from_dimacs(clauses, n) for _, n, clauses in RARE_RULE_INSTANCES] + [
        generate(n, n // 3, seed=s, planted=s % 2 == 0).formula
        for n in range(12, 25) for s in range(8)
    ] + [
        generate(n, int(0.4 * n), seed=s, planted=s % 2 == 0).formula
        for n in range(12, 25) for s in range(16)
    ]


def test_finish_equals_the_oracle(monkeypatch):
    finished = _count_finishes(monkeypatch)
    for f in _finish_formulas():
        assert solve(f).poly == hd_oracle(f)
    assert finished[0] >= 25


def test_finish_keeps_the_papers_polynomial(monkeypatch):
    finished = _count_finishes(monkeypatch)
    formulas = [generate(n, m, seed=s, planted=True).formula
                for n in range(24, 37) for m in (n // 3, int(0.4 * n)) for s in range(3)]
    polys = [solve(f).poly for f in formulas]
    assert finished[0] >= 10
    assert [solve(f, SolveOptions(finish_rows=0)).poly for f in formulas] == polys


def test_the_row_cap_alone_turns_the_finish_on(monkeypatch):
    # the cap does not depend on base_threshold: the finish fires at every
    # threshold, and at none once the cap is 0
    finished = _count_finishes(monkeypatch)
    formulas = _finish_formulas()[:12]
    expected = [hd_oracle(f) for f in formulas]
    for base_threshold in (0, 3, 16):
        opts = SolveOptions(base_threshold=base_threshold)
        finished[0] = 0
        assert [solve(f, opts).poly for f in formulas] == expected
        assert finished[0] > 0, base_threshold
    finished[0] = 0
    for base_threshold in (0, 3, 16):
        opts = SolveOptions(base_threshold=base_threshold, finish_rows=0)
        assert [solve(f, opts).poly for f in formulas] == expected
    assert finished[0] == 0


def test_the_row_cap_counts_solutions_not_clause_order(monkeypatch):
    # a chain of nine clauses, each shared variable negated in the clause
    # after it, listed every other clause first: the five disjoint clauses
    # listed first hold 3**5 = 243 rows together, past the cap, but the
    # chain has 11 solutions. Folded most-shared-first, no partial fold
    # passes the cap, so the root is finished instead of branched. Each
    # clause is listed twice, so the end clauses' pairs become private only
    # once the root's fixpoint has removed the duplicates: the root keeps
    # its 19 variables, past base_threshold, and the finish is tried there
    chain = [[1, 2, 3]] + [[-v, v + 1, v + 2] for v in range(3, 18, 2)]
    f = Formula.from_dimacs(2 * (chain[0::2] + chain[1::2]), 19)
    st = initial_state(f)
    variables = sorted(st.V)
    cap = SolveOptions().finish_rows
    first = st.clauses[:5]
    held = sorted(set().union(*map(clause_vars, first)))
    assert len(side_solutions(first, {}, held, 0)) == 243 > cap
    rows = side_solutions(st.clauses, {}, variables, 0)
    assert len(rows) == 11
    assert side_solutions(st.clauses, {}, variables, 0, cap) == rows
    finishes = _count_attempts(monkeypatch)
    report = solve(f)
    assert finishes == {"attempts": 1, "fits": 1}
    assert (report.stats.nodes, report.stats.rules["base"]) == (1, 1)
    assert report.poly == solve(f, SolveOptions(finish_rows=0)).poly == hd_oracle(f)


@pytest.mark.parametrize("sign", [1, -1])
def test_the_row_cap_counts_rows_after_private_pairs(monkeypatch, sign):
    # a star: x1 in seven clauses 1 2k +-(2k+1), each of whose other two
    # variables occurs nowhere else. Its 129 rows (x1 true: one; false:
    # 2**7) pass the cap, but with the seven pairs summed out into x1's
    # table the root has 2 rows, so it is finished instead of branched.
    # Each clause is listed twice, so its pair becomes private only once
    # the root's fixpoint has removed the duplicates, after the root's own
    # private-pair sum: x1 would branch (case1_v), and the finish sums the
    # pairs out
    star = [[1, 2 * k, sign * (2 * k + 1)] for k in range(1, 8)]
    f = Formula.from_dimacs(2 * star, 15)
    st = initial_state(f)
    assert len(side_solutions(st.clauses, {}, sorted(st.V), 0)) == 129
    lengths = []
    real = x3hd.solver.solution_rows

    def recording(*args):
        rows = real(*args)
        lengths.append(rows and list(map(len, rows)))
        return rows

    monkeypatch.setattr(x3hd.solver, "solution_rows", recording)
    report = solve(f)
    assert lengths == [[2]]
    assert (report.stats.nodes, report.stats.rules["base"]) == (1, 1)
    paper = solve(f, SolveOptions(finish_rows=0))
    assert paper.stats.nodes == 5
    assert report.poly == paper.poly == hd_oracle(f)


def test_debug_mode_catches_a_wrong_finish(monkeypatch):
    # release mode returns what the finish gives; debug mode also searches
    # the state with the finish off and objects
    _count_finishes(monkeypatch, perturb=U)
    f = next(f for f in _finish_formulas() if solve(f).poly != hd_oracle(f))
    with pytest.raises(InternalError, match="finished"):
        solve(f, SolveOptions(debug=True))


def test_solve_changes_no_module_global_and_no_option(monkeypatch):
    # a finish's debug check searches the state again with the finish off
    # through a copy of the options: every base case of a debug solve, the
    # check's own included, sees the solver module and the caller's
    # options as they were before the solve
    real = x3hd.solver.brute_force_base
    opts = SolveOptions(debug=True)

    def module_globals():
        return {k: v for k, v in vars(x3hd.solver).items() if k != "brute_force_base"}

    before = module_globals()
    calls = Counter()

    def checking(st, rows=None):
        assert module_globals() == before
        assert opts == SolveOptions(debug=True)
        calls["base" if rows is None else "finish"] += 1
        return real(st, rows)

    monkeypatch.setattr(x3hd.solver, "brute_force_base", checking)
    for f in _finish_formulas():
        solve(f, opts)
    assert calls["finish"] >= 25 and calls["base"] > 0
    with pytest.raises(FrozenInstanceError):
        opts.finish_rows = 0


def test_debug_mode_checks_every_part(monkeypatch):
    # a part of a component split skips detection; debug mode re-runs it
    # and objects to a part on which a rule fires
    hub = mkstate([clause(1, 2, 3), clause(1, 4, 5), clause(1, 6, 7), clause(1, 8, 9)])
    assert pick_high_degree_var(hub) == 1 and find_config(hub) is None
    split = x3hd.solver.connected_components
    extra = []

    def with_hub(st):
        # the first call after `extra` is filled, at the root, adds the hub
        parts = [*extra, *split(st)]
        extra.clear()
        return parts

    monkeypatch.setattr(x3hd.solver, "connected_components", with_hub)
    f = Formula.from_dimacs([[10, 11, 12]], 12)
    extra.append(hub)
    assert solve(f).stats.rules["case1_v"] == 0
    extra.append(hub)
    with pytest.raises(InternalError, match="part"):
        solve(f, SolveOptions(debug=True))


def _perturbed_mirror(state):
    """The mirror with one table entry changed."""
    swapped = mirror(state)
    v = min(swapped.weights)
    table = swapped.weights[v]
    return replace(swapped, weights=swapped.weights | {v: (table[0] + U, *table[1:])})


@pytest.mark.parametrize("module", [x3hd.branching, x3hd.solver])
def test_debug_mode_catches_a_wrong_mirror(monkeypatch, module):
    # branching checks each skipped child against its twin's mirror, and
    # the solver searches that mirror against the twin
    paper = SolveOptions(finish_rows=0)
    f = next(f for f in (generate(n, n // 3, seed=s, planted=True).formula
                         for n in range(24, 37) for s in range(5))
             if solve(f, paper).stats.mirrored > 0)
    monkeypatch.setattr(module, "mirror", _perturbed_mirror)
    with pytest.raises(InternalError):
        solve(f, replace(paper, debug=True))


def test_reuse_keeps_every_count_but_mirrored(monkeypatch):
    # the same solves with no state taken as symmetric search every child
    formulas = [Formula.from_dimacs(clauses, n) for _, n, clauses in RARE_RULE_INSTANCES]
    formulas += [generate(n, n // 3, seed=s, planted=True).formula
                 for n in range(24, 37) for s in range(3)]
    # n = 70, m = 0.4n: the two seeds of the pinned scale set that reuse most
    formulas += [generate(70, 28, seed=s, planted=True).formula for s in (1, 4)]
    reused = [solve(f) for f in formulas]
    monkeypatch.setattr(x3hd.branching, "is_symmetric", lambda st: False)
    mirrored = 0
    for f, on in zip(formulas, reused):
        off = solve(f)
        assert off.poly == on.poly
        assert off.stats.mirrored == 0
        assert off.stats.as_dict() == on.stats.as_dict() | {"mirrored": 0}
        mirrored += on.stats.mirrored
    assert mirrored > 0


# Symmetric parents: both sides read the same signs and forced values, and
# every table has equal entries (0, 1) and (1, 0). The bases are those of
# the rule families of the five branch ops in tests/rulestates.py.
MIRROR_BASES = {
    "case1_v": [[[1, 2, 3], [1, 4, 5], [1, 6, 7], [1, 8, 9]]],
    "case1_vi2": [[[1, 2, 3], [1, 4, 5], [-1, 6, 7], [2, 4, 6], [3, 5, 7], [6, 8, 9],
                   [7, 9, 10]]],
    "case1_vi3": [[[1, 2, 3], [1, 4, 5], [-1, 6, 7], [2, 4, 6], [3, 5, 8], [6, 9, 10],
                   [7, 10, 11], [8, 11, 9]]],
    "case1_vii": [[[1, 2, 3], [1, 4, 5], [-1, 6, 7], [2, 8, 9], [-2, 10, 11]],
                  [[1, 2, 3], [1, 4, 5], [-1, 6, 7], [2, 8, 9], [3, 10, 11]],
                  [[1, 2, 3], [1, 4, 5], [-1, 6, 7], [2, 4, 6], [-2, 8, 9]]],
    "case2_split": [[[1, 7, 2], [2, 8, 3], [3, 9, 4], [4, 10, 5], [5, 11, 6], [6, 12, 1]]],
}


def _symmetric_parent(rule, rng):
    phi = [resign(clause(*cl), rng) for cl in rng.choice(MIRROR_BASES[rule])]
    return fuzz_weights(mkstate(phi), rng, 0.5, transposable=True)


def _branch(rule, st, debug):
    if rule == "case1_v":
        return branch_high_degree_var(st, pick_high_degree_var(st), debug=debug)
    if rule == "case1_vi2":
        return branch_semiisolated_2(st, find_config(st), debug=debug)
    if rule == "case1_vi3":
        return branch_semiisolated_3(st, find_config(st), debug=debug)
    if rule == "case1_vii":
        return branch_four_neighbour(st, find_config(st), debug=debug)
    bisection = balanced_bisection(build_clause_graph(st), seed=0)
    return branch_cut_variables(st, bisection, debug=debug)


def _with_lists(monkeypatch, branch):
    """The children of `branch()`, the assignment lists it passed to
    `build_children`, and how many children it built."""
    recorded = []
    built = []

    def recording(fixpoint, parent, lists, *args, **kwargs):
        recorded.append(lists)

        def counting(*call):
            built.append(call)
            return fixpoint(*call)

        return build_children(counting, parent, lists, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(x3hd.branching, "build_children", recording)
        m.setattr(x3hd.decompose, "build_children", recording)
        children = branch()
    (lists,) = recorded
    return children, lists, len(built)


def _repeats(children):
    """Whether some state fills more than one slot."""
    states = [c for c in children if c is not None]
    return len({id(c) for c in states}) < len(states)


def _first_slots(children):
    """Per slot, the first slot holding the same entry."""
    return [next(j for j in range(k + 1) if children[j] is c) for k, c in enumerate(children)]


def _check_mirrors(parent, children, lists):
    """Check that at a symmetric parent each slot whose swapped list comes
    earlier holds that twin's own entry, whose mirror has its value under
    `state_eval`, and that the parent's value is the sum of the slots';
    returns the number of such slots."""
    assert len(children) == len(lists)
    assert all(c is None or isinstance(c, PairState) for c in children)
    first: dict[tuple, int] = {}
    total = ZERO
    marks = 0
    for k, (A, child) in enumerate(zip(lists, children)):
        twin = first.get(tuple((v, j, i) for v, i, j in A))
        first.setdefault(tuple(A), k)
        value = ZERO if child is None else state_eval(child)
        if twin is not None and is_symmetric(parent):
            assert child is children[twin]
            if child is not None:
                assert state_eval(mirror(child)) == value
            marks += 1
        total = total + value
    assert total == state_eval(parent)
    return marks


def test_mirror_children_equal_their_twins(monkeypatch):
    rng = random.Random(31)
    marked = dict.fromkeys(MIRROR_BASES, 0)
    for rule in list(MIRROR_BASES) * 12:
        st = _symmetric_parent(rule, rng)
        if rule == "case2_split" and rng.random() < 0.5:
            # a cut variable forced alike on both sides leaves c - 1 free
            v = min(balanced_bisection(build_clause_graph(st), seed=0).cut_vars)
            b = rng.randrange(2)
            st = replace(st, fixed=({v: b}, {v: b}))
        children, lists, _ = _with_lists(monkeypatch, lambda: _branch(rule, st, debug=True))
        marks = _check_mirrors(st, children, lists)
        # release mode repeats the same slots, every entry a state or None,
        # and builds none of the repeats
        release, _, built = _with_lists(monkeypatch, lambda: _branch(rule, st, debug=False))
        assert all(c is None or isinstance(c, PairState) for c in release)
        assert _first_slots(release) == _first_slots(children)
        assert built == len(lists) - marks
        if rule == "case2_split":
            cut = balanced_bisection(build_clause_graph(st), seed=0).cut_vars
            c = len(cut - st.fixed[0].keys())
            assert len(children) == 4**c
            assert marks == (4**c - 2**c) // 2
        marked[rule] += marks
    # case1_vi2 also fires on formulas; record its parents during solve()
    recorded = []

    def recording(st, config, counts=None, debug=False):
        children, lists, _ = _with_lists(
            monkeypatch, lambda: branch_semiisolated_2(st, config, counts, debug)
        )
        recorded.append((st, children, lists))
        return children

    monkeypatch.setattr(x3hd.solver, "branch_semiisolated_2", recording)
    for rule, n, clauses in RARE_RULE_INSTANCES:
        if rule == "case1_vi2":
            solve(Formula.from_dimacs(clauses, n), SolveOptions(debug=True))
    marked["case1_vi2"] += sum(_check_mirrors(*args) for args in recorded)
    assert all(marked.values()), marked


def test_asymmetric_parents_get_no_mirror_children(monkeypatch):
    # the swapped children of a parent that differs from its mirror in one
    # forced value, one sign or one table have different values: each is
    # built and searched
    rng = random.Random(8)
    for rule in list(MIRROR_BASES) * 4:
        st = _symmetric_parent(rule, rng)
        _, lists, built = _with_lists(monkeypatch, lambda: _branch(rule, st, debug=False))
        assert built < len(lists)
        # the largest variable is in one clause, none of the branched ones
        v = max(st.V)
        k, t = next((k, t) for k, cl in enumerate(st.clauses)
                    for t, p in enumerate(cl) if p >> 2 == v)
        signed = list(st.clauses)
        signed[k] = signed[k][:t] + (signed[k][t] ^ 2,) + signed[k][t + 1:]
        variants = [
            replace(st, fixed=({v: rng.randrange(2)}, {})),
            replace(st, clauses=tuple(signed)),
            replace(st, weights=st.weights | {v: (ONE, U, HDPoly({1: 2}), ONE)}),
        ]
        for variant in variants:
            _, lists, built = _with_lists(monkeypatch, lambda: _branch(rule, variant, debug=False))
            assert built == len(lists)
            assert not _repeats(_branch(rule, variant, debug=True))


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=4, max_value=10))
def test_solver_equals_oracle_property(seed, n):
    rng = random.Random(seed)
    inst = generate(n, rng.randint(1, n), seed=seed, planted=bool(seed % 2))
    assert solve(inst.formula, SolveOptions(base_threshold=4)).poly == hd_oracle(
        inst.formula
    )
