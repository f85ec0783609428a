import copy
import hashlib
import random
from collections import Counter
from dataclasses import replace
from itertools import permutations, product
from pathlib import Path

import pytest

import x3hd.branching
import x3hd.decompose
import x3hd.solver
from rulestates import (
    FAMILIES,
    build_paired,
    check_private_pair_sum,
    clause,
    detect_unsat,
    fuzz_weights,
    mkstate,
    pair_clause,
    rewrite,
)
from x3hd.instances import generate, parse
from x3hd.model import PRISTINE, Formula, PairState, clause_vars, initial_state
from x3hd.oracle import state_eval
from x3hd.poly import ONE, U, ZERO, HDPoly
import x3hd.simplify
from x3hd.simplify import _classify, _Work, simplify_fixpoint, sum_private_pairs, value_combos
from x3hd.solver import SolveOptions, solve


def classify(c1, c2=None):
    return _classify((pair_clause(c1, c2),))


def test_detect_unsat_examples():
    assert detect_unsat(mkstate([clause("F", "F", "F")]))
    assert detect_unsat(mkstate([clause("T", 1, -1)]))
    assert not detect_unsat(mkstate([clause("T", 1, 2)]))


def test_detect_unsat_uses_forced_values():
    st = mkstate([clause(1, 2, 3)])
    assert not detect_unsat(st)
    assert detect_unsat(replace(st, fixed=({1: 1, 2: 1}, {})))
    assert detect_unsat(replace(st, fixed=({}, {1: 0, 2: 0, 3: 0})))


def test_eliminate_free_variable_scales_by_two_plus_two_u():
    st = mkstate([clause(2, 3, 4)], extra_vars=(1,))
    out = rewrite(st, "fold", {1})
    assert out.p_main == HDPoly({0: 2, 1: 2})
    assert 1 not in out.V
    # forced on one side only: the two entries it allows are summed
    out = rewrite(replace(st, fixed=({}, {1: 1})), "fold", {1})
    assert out.p_main == HDPoly({0: 1, 1: 1})
    assert out.fixed == ({}, {})


def test_assign_determined_opposite_values_scales_by_u():
    st = mkstate([clause(1, 2, 3)], fixed=({1: 0}, {1: 1}))
    assert value_combos(st, 1) == [(0, 1)]
    out = rewrite(st, "assign", 1, 0, 1)
    assert out.p_main == U
    assert out.clauses[0][0] == 2  # false on side 0, true on side 1


def test_assign_determined_equal_values():
    st = mkstate([clause(1, 2, 3)], fixed=({1: 1}, {1: 1}))
    assert value_combos(st, 1) == [(1, 1)]
    out = rewrite(st, "assign", 1, 1, 1)
    assert out.p_main == ONE
    assert out.clauses[0][0] == 3  # true on both sides
    assert 1 not in out.fixed[0] and 1 not in out.fixed[1]


def test_small_clause_table():
    drop = classify(clause(1, -1))
    assert not drop.unsat and not drop.forces and drop.link is None

    link = classify(clause(1, 2))
    assert link.link == (1, 2, 1, 1)

    assert classify(clause(1, 1)).unsat

    forced = classify(clause(1, 1, 2))
    assert forced.forces == ((0, 1, 0), (0, 2, 1), (1, 1, 0), (1, 2, 1))

    const_force = classify(clause("T", 1, 2))
    assert const_force.forces == ((0, 1, 0), (0, 2, 0), (1, 1, 0), (1, 2, 0))


def test_small_clause_actions_conserve_the_state_value():
    # every small-clause shape, next to a clause that carries both of its
    # variables into the rest of the state, under distinct weight tables
    # that are asymmetric in the two sides: a wrong force or link polarity
    # changes the value
    tables = {
        v: tuple(HDPoly({k: 3 * v + 2 * e + 1}) for k, e in zip((0, 1, 1, 2), (1, 2, 3, 5)))
        for v in (1, 2, 3)
    }
    rest = pair_clause(clause(1, -2, 3), clause(-1, 2, 3))
    lits = [0, 1, 2, 3] + [4 * v + signs for v in (1, 2) for signs in range(4)]
    shapes = [cl for arity in (1, 2, 3) for cl in product(lits, repeat=arity)]
    assert len(shapes) == 1884
    for cl in shapes:
        st = PairState((cl, rest), ({}, {}), HDPoly({0: 1}), dict(tables))
        action = _classify((cl,))
        out = rewrite(st, "apply_small", 0)
        assert (out is None) is action.unsat, cl
        expected = ZERO if out is None else state_eval(out)
        assert state_eval(st) == expected, (cl, action)


def test_small_clause_rectangle_forces_only_one_side_variable():
    action = classify(clause(1, -1, 2))
    assert action.link is None
    assert action.forces == ((0, 2, 0), (1, 2, 0))


def test_cross_side_constant_flip_mixes_force_and_link():
    # (1, x, y) forces both variables; (0, x, y) links them
    action = classify(clause("T", 1, 2), clause("F", 1, 2))
    assert action.link is not None
    keep, dropv, pol1, pol2 = action.link
    assert (keep, dropv) == (1, 2)
    assert pol2 == 1  # side 2 genuinely couples the variables
    assert ((0, 1, 0) in action.forces) and ((0, 2, 0) in action.forces)
    assert pol1 == 0  # consistent with the forced point (0, 0)


def test_link_variables_pristine_table():
    st = mkstate([clause(1, 2, 3)])
    out = rewrite(st, "link", 1, 2, 1, 1)
    table = out.weights[1]
    assert table[0] == ONE  # 1 * q(1,1)
    assert table[1] == U * U  # u * q(1,0)
    assert 2 not in out.V


def test_link_spec_polarity_example():
    # clause (x, y) on side 1 with (x, ~y) on side 2:
    # p_x[i, j] picks up p_y[1 - i, j]
    st = mkstate([clause(1, 2)], [clause(1, -2)])
    assert _classify(st.clauses[:1]).link == (1, 2, 1, 0)
    out = rewrite(st, "apply_small", 0)
    assert out.weights[1] == (U, U, U, U)
    # conservation against direct enumeration
    assert state_eval(st) == state_eval(out) == HDPoly({1: 4})


def test_link_migrates_forced_values():
    st = mkstate([clause(1, 2), clause(2, 3, 4)], fixed=({2: 0}, {}))
    out = rewrite(st, "link", 1, 2, 0, 0)
    assert out.fixed[0][1] == 0 and 2 not in out.fixed[0]


def test_link_conflict_returns_zero():
    st = mkstate([clause(1, 2), clause(2, 3, 4)], fixed=({1: 1, 2: 1}, {}))
    # equality link forces value(1) = value(2) = 1 on side 0: fine
    assert rewrite(st, "link", 1, 2, 0, 0) is not None
    # inequality link contradicts the recorded values
    assert rewrite(st, "link", 1, 2, 1, 0) is None


@pytest.mark.parametrize(
    "shape1, shape2, forced, polarity",
    [
        ([1, 2, 3], [1, 2, 4], (), 0),          # w = z
        ([1, 2, 3], [-1, -2, 4], ((0, 3, 0), (0, 4, 0)), 0),  # w = z = 0
        ([1, 2, 3], [1, -2, 4], ((0, 1, 0),), 1),  # x = 0 and w = ~z
    ],
)
def test_resolve_shared_pair_polarity_cases(shape1, shape2, forced, polarity):
    st = mkstate([clause(*shape1), clause(*shape2)])
    out = rewrite(st, "resolve_pair", 0, 1)
    assert out is not None
    for side, var, val in forced:
        s = out.fixed[side]
        assert s.get(var) == val or var not in out.V
    # the non-shared variables were linked: 4 dropped, 3 kept
    assert out.V == frozenset({1, 2, 3})
    assert out.weights[3] == (ONE, U * U, U * U, ONE)
    # link polarity shows up in the substituted literal of the second clause
    substituted = [p for p in out.clauses[1] if p >> 2 == 3]
    assert substituted and substituted[0] & 1 == polarity
    assert state_eval(st) == state_eval(out)


def _sign_of(clause, var, side):
    for p in clause:
        if p >> 2 == var:
            return (p >> side) & 1
    raise AssertionError(f"variable {var} not in {clause}")


def _hand_pair_action(ci, cj):
    """Case (iv) by a polarity case analysis, independent of the clauses'
    solutions: the forces as a set, and the link of w and z."""
    vi, vj = clause_vars(ci), clause_vars(cj)
    shared = sorted(vi & vj)
    (w,) = vi - vj
    (z,) = vj - vi
    forces = set()
    pols = []
    for side in (0, 1):
        flips = [_sign_of(ci, v, side) != _sign_of(cj, v, side) for v in shared]
        gw = _sign_of(ci, w, side)
        gz = _sign_of(cj, z, side)
        if flips[0] and flips[1]:
            # both shared literals flipped: the two extra literals must be false
            rel = 0
            forces |= {(side, w, gw), (side, z, gz)}
        elif not flips[0] and not flips[1]:
            rel = 0
        else:
            # one flipped: the unflipped shared literal must be false
            rel = 1
            u = shared[0] if not flips[0] else shared[1]
            forces.add((side, u, _sign_of(ci, u, side)))
        pols.append(gw ^ gz ^ rel)
    return forces, (*sorted((w, z)), *pols)


class _RecordingWork(_Work):
    """A working copy that records the forces and the link it is given."""

    __slots__ = ("forced", "linked")

    def force(self, forces):
        self.forced = set(forces)
        return True

    def link(self, *link):
        self.linked = link
        return True


def test_resolve_pair_matches_the_hand_polarity_analysis(monkeypatch):
    # every shape of two 3-variable clauses sharing two variables with the
    # first clause's literals in one order (all 147,456 shapes take about
    # 10 s): the second clause's 6 literal orders times 4**3 sign pairs
    # per clause. The variables are named so that the shared pair, and w
    # against z, come in both orders
    monkeypatch.setattr(x3hd.simplify, "_SHAPES", {})
    weights = dict.fromkeys((2, 3, 4, 5, 7, 9), PRISTINE)
    checked = 0
    for k, order in enumerate(permutations(range(3))):
        a, b, w, z = (7, 2, 9, 4) if k % 2 else (2, 5, 3, 9)
        vars_i = (a, b, w)
        vars_j = [(a, b, z)[t] for t in order]
        for signs_i in product(range(4), repeat=3):
            ci = tuple(4 * v + s for v, s in zip(vars_i, signs_i))
            for signs_j in product(range(4), repeat=3):
                cj = tuple(4 * v + s for v, s in zip(vars_j, signs_j))
                work = _RecordingWork(PairState((ci, cj), ({}, {}), ONE, weights))
                assert work.resolve_pair(0, 1)
                assert (work.forced, work.linked) == _hand_pair_action(ci, cj), (ci, cj)
                checked += 1
    assert checked == 24576


def test_shape_table_matches_classification(monkeypatch):
    # cases (iii) and (iv) rename, look up and map back to the real names;
    # `_classify` on the real-named clauses must give the same forces and
    # link. Every pair clause of arity 1..3 over the four constant pairs
    # and two variables with any sign pair, the variables named (7, 3) and
    # (3, 7), and a sample of shared pairs whose shared variables are the
    # two smallest, so that sorted real names are the naming order up to
    # the linked pair, with w < z and w > z. The table starts empty, so
    # the second naming of a shape is a hit
    monkeypatch.setattr(x3hd.simplify, "_SHAPES", {})
    checked = []

    def check(clauses, apply):
        checked.append(clauses)
        want = _classify(clauses)
        weights = dict.fromkeys(set().union(*map(clause_vars, clauses)), PRISTINE)
        work = _RecordingWork(PairState(clauses, ({}, {}), ONE, weights))
        work.forced, work.linked = set(), None
        assert apply(work) is not want.unsat, clauses
        if not want.unsat:
            assert (work.forced, work.linked) == (set(want.forces), want.link), clauses

    for a, b in ((7, 3), (3, 7)):
        lits = [0, 1, 2, 3] + [4 * v + signs for v in (a, b) for signs in range(4)]
        for arity in (1, 2, 3):
            for cl in product(lits, repeat=arity):
                check((cl,), lambda work: work.apply_small(0))
    rng = random.Random(5)
    for _ in range(400):
        order_i, order_j = rng.sample(range(3), 3), rng.sample(range(3), 3)
        signs = [rng.randrange(4) for _ in range(6)]
        for w, z in ((8, 11), (11, 8)):
            ci = tuple(4 * (2, 5, w)[t] + s for t, s in zip(order_i, signs[:3]))
            cj = tuple(4 * (2, 5, z)[t] + s for t, s in zip(order_j, signs[3:]))
            check((ci, cj), lambda work: work.resolve_pair(0, 1))
    assert len(checked) == 2 * (1884 + 400)
    assert 2 * len(x3hd.simplify._SHAPES) <= len(checked)


# The shape table after solving both benchmark pools in the paper's
# recursion (`finish_rows=0`): sha256 of the repr of its 539 items, sorted.
# `_classify` reads `side_solutions`, whose fold order must leave every
# action as it was. The same for the default options, 450 items: the
# root's private pairs are summed out first, so that search meets states,
# and two shapes, that the paper's does not.
POOL_SHAPES_DIGEST = "c003bff86e9be121924c4b0c78a00003b715a8932ca98004dc7032a6f4a78a01"
DEFAULT_SHAPES_DIGEST = "fd2a93ba7d761ff9467847967af826716ce6c8177e376f7021e595ad03cc00f9"


def test_shape_table_of_both_pools_is_pinned(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import WORKLOADS, make_pool

    formulas = [parse(item.text) for w in ("sparse-search", "small-batch")
                for item in make_pool(WORKLOADS[w])]
    monkeypatch.setattr(x3hd.simplify, "_SHAPES", {})
    for f in formulas:
        solve(f, SolveOptions(finish_rows=0))
    paper = x3hd.simplify._SHAPES
    assert len(paper) == 539
    assert hashlib.sha256(repr(sorted(paper.items())).encode()).hexdigest() == POOL_SHAPES_DIGEST
    monkeypatch.setattr(x3hd.simplify, "_SHAPES", {})
    for f in formulas:
        solve(f)
    default = x3hd.simplify._SHAPES
    assert len(default) == 450
    assert hashlib.sha256(repr(sorted(default.items())).encode()).hexdigest() == (
        DEFAULT_SHAPES_DIGEST
    )
    assert all(default[k] == paper[k] for k in default.keys() & paper.keys())


def test_resolve_shared_pair_conserves_value():
    for seed in range(40):
        case = FAMILIES["case1_iv"](seed)
        if case.rule != "case1_iv":
            continue
        parent = state_eval(case.parent)
        total = sum((state_eval(c) for c in case.children if c is not None), ZERO)
        assert parent == total


def test_fixpoint_detects_all_duplicate_variable_clauses():
    assert simplify_fixpoint(mkstate([clause(1, 1, 1)])) is None


def test_fixpoint_chains_links():
    # both links apply, then the lone surviving variable occurs in no
    # clause and folds into p_main
    st = mkstate([clause(1, 2), clause(2, 3)])
    counts: dict = {}
    out = simplify_fixpoint(st, counts)
    assert out is not None
    assert counts["case1_iii"] == 2 and counts["case1_ii"] == 1
    assert out.V == frozenset()
    assert out.p_main == HDPoly({3: 2, 0: 2})
    assert state_eval(st) == state_eval(out)


def test_fixpoint_rechecks_clauses_after_a_small_clause_force():
    # (x1, x1, x2) forces x1 = 0 and x2 = 1 on both sides, which makes
    # (~x1, x2, x3), satisfiable on entry, unsatisfiable
    st = mkstate([clause(1, 1, 2), clause(-1, 2, 3)])
    counts: dict = {}
    assert simplify_fixpoint(st, counts) is None
    assert counts == {"case1_iii": 1, "case1_i": 1}


def test_fixpoint_rechecks_clauses_after_a_shared_pair_force():
    # resolving the first two clauses forces x3 = 0, which with x5 = 1 on
    # side 0 makes (~x3, x5, x6), satisfiable on entry, unsatisfiable
    st = mkstate([clause(1, 2, 3), clause(-1, -2, 4), clause(-3, 5, 6)], fixed=({5: 1}, {}))
    counts: dict = {}
    assert simplify_fixpoint(st, counts) is None
    assert counts == {"case1_iv": 1, "case1_i": 1}


def test_fixpoint_idle_on_worked_example():
    st = initial_state(Formula.from_dimacs([[1, 2, 3], [1, 4, 5], [1, 6, 7], [2, 4, -6]], 7))
    counts: dict = {}
    out = simplify_fixpoint(st, counts)
    assert out is not None
    assert counts == {}
    assert out.clauses == st.clauses


def test_fixpoint_removes_duplicate_clauses():
    st = mkstate([clause(1, 2, 3), clause(3, 2, 1), clause(1, 2, 3)])
    counts: dict = {}
    out = simplify_fixpoint(st, counts)
    assert counts.get("dedup", 0) >= 1
    assert state_eval(st) == state_eval(out)

    # pair clauses equal up to literal order are duplicates; a clause that
    # differs only in its side-1 signs is not
    st = mkstate([clause(1, -2, 3), clause(3, 1, -2), clause(1, -2, 3)],
                 [clause(1, 2, -3), clause(-3, 1, 2), clause(1, 2, 3)])
    counts = {}
    out = simplify_fixpoint(st, counts)
    assert counts == {"dedup": 1}
    assert out.clauses == (pair_clause(clause(1, -2, 3), clause(1, 2, -3)),
                           pair_clause(clause(1, -2, 3), clause(1, 2, 3)))
    assert state_eval(st) == state_eval(out)

    # each side alone repeats (T, F, x1), but the constant pairs differ:
    # not duplicates, so the small-clause rule removes both instead
    st = mkstate([clause("T", "F", 1), clause("T", "F", 1)],
                 [clause("T", "F", 1), clause("F", "T", 1)])
    counts = {}
    out = simplify_fixpoint(st, counts)
    assert "dedup" not in counts
    assert counts["case1_iii"] == 2
    assert out.clauses == ()
    assert state_eval(st) == state_eval(out) == ONE


def test_fixpoint_postconditions():
    rng = random.Random(11)
    for seed in range(25):
        st, _ = build_paired([[1, 2, 3], [1, 2, 4], [3, 5, 6], [5, 7, 2]], rng)
        st = fuzz_weights(st, rng)
        out = simplify_fixpoint(st)
        if out is None:
            assert state_eval(st) == ZERO
            continue
        assert state_eval(st) == state_eval(out)
        for cl in out.clauses:
            assert len(clause_vars(cl)) == 3
        varsets = [clause_vars(cl) for cl in out.clauses]
        for a in range(len(varsets)):
            for b in range(a + 1, len(varsets)):
                assert len(varsets[a] & varsets[b]) != 2
        for v in out.V:
            assert not (v in out.fixed[0] and v in out.fixed[1])


def test_single_rewrite_conservation_families():
    for name in ("case1_i", "case1_ii", "case1_iii"):
        for seed in range(40):
            case = FAMILIES[name](seed)
            parent = state_eval(case.parent)
            total = sum((state_eval(c) for c in case.children if c is not None), ZERO)
            assert parent == total, (name, seed)


def _free_product(st, free):
    """p_main times, per variable of `free`, the sum of its table entries
    that its forced values allow: the fold's reference."""
    f0, f1 = st.fixed
    out = st.p_main
    for x in sorted(free):
        allowed = [st.weights[x][2 * i + j] for i in (0, 1) for j in (0, 1)
                   if f0.get(x, i) == i and f1.get(x, j) == j]
        out = out * sum(allowed, ZERO)
    return out


def test_fold_free_equals_the_per_variable_product():
    # variables 1..2k occur in no clause; 1..k keep PRISTINE (one shared
    # table object), k+1..2k get tables from links, equal tables being
    # distinct objects, and some get arbitrary tables; forced values are
    # one-sided or two-sided
    rng = random.Random(7)
    shared = 0
    for trial in range(150):
        k = rng.randint(1, 6)
        free = list(range(1, 2 * k + 1))
        clause_var = 3 * k + 1
        st = mkstate([clause(clause_var, clause_var + 1, clause_var + 2)],
                     extra_vars=range(1, 3 * k + 1))
        for v in range(k + 1, 2 * k + 1):
            st = rewrite(st, "link", v, v + k, rng.randrange(2), rng.randrange(2))
        st = fuzz_weights(st, rng, prob=0.2)
        fixed = (dict(st.fixed[0]), dict(st.fixed[1]))
        for v in free:
            for side in (0, 1):
                if rng.random() < 0.3:
                    fixed[side][v] = rng.randrange(2)
        st = replace(st, fixed=fixed)
        shared += sum(st.weights[v] is PRISTINE for v in free) >= 2
        out = rewrite(st, "fold", set(free))
        assert out.p_main == _free_product(st, free), trial
        assert out.V == st.V - set(free)
        assert not set(free) & (out.weights.keys() | out.fixed[0].keys() | out.fixed[1].keys())
        # inside the fixpoint the same fold counts each folded variable once
        counts: dict = {}
        folded = simplify_fixpoint(st, counts)
        assert counts == {"case1_ii": len(free)}, trial
        assert folded.p_main == out.p_main and folded.V == out.V
    assert shared > 50


def _snapshot(st):
    return copy.deepcopy((st.clauses, st.fixed, st.weights, st.p_main))


def _fixpoint_inputs(monkeypatch, seeds):
    """Every state the solver hands to `simplify_fixpoint` while solving
    `generate(n, n // 3 + s % 5, seed=s)` for s in `seeds` with the
    paper's recursion alone (`finish_rows=0`); each call is
    checked to leave its input unchanged."""
    inputs = []

    def recording_fixpoint(st, counts=None, assignments=(), block=None):
        before = _snapshot(st)
        out = simplify_fixpoint(st, counts, assignments, block)
        assert _snapshot(st) == before
        inputs.append(st)
        return out

    with monkeypatch.context() as patch:
        for module in (x3hd.solver, x3hd.branching, x3hd.decompose):
            patch.setattr(module, "simplify_fixpoint", recording_fixpoint)
        for seed in seeds:
            n = 10 + seed % 12
            f = generate(n, n // 3 + seed % 5, seed=seed, planted=seed % 2 == 0).formula
            x3hd.solver.solve(f, x3hd.solver.SolveOptions(finish_rows=0))
    return inputs


def test_assignments_equal_chained_assign_value(monkeypatch):
    # a child built inside the fixpoint's working copy must equal the child
    # built by one `assign` rewrite per variable and then simplified
    states = _fixpoint_inputs(monkeypatch, range(24))
    states += [FAMILIES[name](seed).parent for name in FAMILIES for seed in range(12)]
    rng = random.Random(3)
    checked = zero = 0
    for st in states:
        order = sorted(st.V)
        for _ in range(3 if order else 0):
            chosen = rng.sample(order, rng.randint(1, min(3, len(order))))
            assignments = [(x, *rng.choice(value_combos(st, x))) for x in chosen]
            c1, c2 = {}, {}
            got = simplify_fixpoint(st, c1, assignments)
            chained = st
            for x, i, j in assignments:
                chained = rewrite(chained, "assign", x, i, j)
            want = simplify_fixpoint(chained, c2)
            assert got is not st
            assert c1 == c2
            if want is None:
                assert got is None
                zero += 1
            else:
                assert got.clauses == want.clauses
                assert got.fixed == want.fixed
                assert got.V == want.V
                assert got.weights == want.weights
                assert got.p_main == want.p_main
            checked += 1
    assert zero > 100 and checked - zero > 200


def test_block_child_equals_chained_rewrites():
    # a case (vi) child built in one fixpoint call, with its assignments
    # and its block, must equal the child built by one `assign` rewrite per
    # value pair, then the `eliminate` rewrite, then the fixpoint; each
    # semiisolated block is summed out through every boundary variable in
    # turn, the others assigned, and through none, all of them assigned
    rng = random.Random(5)
    checked = zero = 0
    for name in ("case1_vi1", "case1_vi2", "case1_vi3"):
        for seed in range(20):
            st = FAMILIES[name](seed).parent
            si = x3hd.branching.find_config(st)
            for x in sorted(si.J) + [None]:
                assignments = [(v, *rng.choice(value_combos(st, v))) for v in sorted(si.J - {x})]
                c1, c2 = {}, {}
                got = simplify_fixpoint(st, c1, assignments, (si.I, x))
                chained = st
                for a in assignments:
                    chained = rewrite(chained, "assign", *a)
                want = simplify_fixpoint(rewrite(chained, "eliminate", si.I, x), c2)
                assert c1 == c2
                if want is None:
                    assert got is None
                    zero += 1
                else:
                    assert got.clauses == want.clauses
                    assert got.fixed == want.fixed
                    assert got.V == want.V
                    assert got.weights == want.weights
                    assert got.p_main == want.p_main
                checked += 1
    assert zero > 20 and checked - zero > 100, (zero, checked)


def test_private_pair_sum_equals_eliminate_on_every_shape():
    # every clause over x, y, z (3! orders, 4**3 sign pairs) and every
    # forced pattern of y and z (3**4), x's table PRISTINE or arbitrary in
    # turn: summing the private pair {y, z} out must give the x table that
    # `_Work.eliminate` gives on the same state, and drop the clause, y
    # and z. x also sits in an anchor clause whose other variables are
    # tabled, so it is the only clause summed out. Each forced pattern of
    # x is checked on every order and sign pair with y and z free
    table = (HDPoly({0: 2}), HDPoly({1: 3}), HDPoly({2: 5}), HDPoly({0: 7, 3: 1}))
    anchor = (4, 16, 20)
    values = (None, 0, 1)
    checked = 0
    for order in permutations((1, 2, 3)):
        for signs in product(range(4), repeat=3):
            cl = tuple(4 * v + s for v, s in zip(order, signs))
            patterns = [(None, None, *yz) for yz in product(values, repeat=4)]
            patterns += [(x0, x1, None, None, None, None) for x0, x1 in product(values, repeat=2)]
            for k, (x0, x1, y0, z0, y1, z1) in enumerate(patterns):
                fixed = tuple(
                    {v: val for v, val in zip((1, 2, 3), side) if val is not None}
                    for side in ((x0, y0, z0), (x1, y1, z1))
                )
                x_table = (table, PRISTINE)[k % 2]
                weights = {1: x_table, 2: PRISTINE, 3: PRISTINE, 4: table, 5: table}
                st = PairState((cl, anchor), fixed, ONE, weights)
                got = sum_private_pairs(st)
                work = _Work(st)
                work.eliminate({2, 3}, 1)
                assert got.weights == work.weights, (cl, fixed)
                assert got.clauses == (anchor,)
                assert got.fixed == work.fixed
                assert got.p_main == ONE
                checked += 1
    assert checked == 6 * 4**3 * (3**4 + 3**2)


def test_private_pair_sum_keeps_the_state_value(monkeypatch):
    # every clause shape, 12 seeded forced patterns of x, y and z together
    # on both sides each; CI sweeps all 3**6 patterns
    monkeypatch.setattr(x3hd.simplify, "_PAIR_SHAPES", {})
    assert check_private_pair_sum(sample=12) == 6 * 4**3 * 12 * 2


def test_private_pairs_need_pristine_once_only_variables():
    # a clause is summed out only when exactly two of its variables occur
    # nowhere else and both tables are PRISTINE; the input is returned
    # itself when none qualifies, and left unwritten when one does
    def state(clauses, tables):
        variables = set().union(*map(clause_vars, clauses))
        weights = {v: tables.get(v, PRISTINE) for v in variables}
        return PairState(tuple(clauses), ({}, {}), ONE, weights)

    table = (ONE, U * U, U, ONE)
    star = [(4, 8, 12), (4, 16, 23), (4, 24, 28)]
    st = state(star, {1: table})
    got = sum_private_pairs(st)
    assert got.clauses == () and sorted(got.V) == [1]
    assert st.clauses == tuple(star) and len(st.V) == 7 and st.weights[1] is table
    assert state_eval(got) == state_eval(st)
    for blocked in (2, 7):
        assert sum_private_pairs(state(star, {blocked: table})).clauses == (star[blocked // 3],)
    for clauses in ([(4, 8, 12), (4, 8, 16)], [(4, 8, 12), (12, 16, 20), (20, 24, 4)]):
        st = state(clauses, {})
        assert sum_private_pairs(st) is st


def _smallest_component(clauses):
    """The variable set of the smallest connected component of the
    clauses that are not None (clauses joined by a shared variable); empty
    when no clause has a variable."""
    parts: list[set] = []
    for cl in clauses:
        vs = set() if cl is None else clause_vars(cl)
        if vs:
            joined = [part for part in parts if part & vs]
            parts = [part for part in parts if not part & vs] + [vs.union(*joined)]
    return min(parts, key=len, default=set())


def _rewrites(st):
    """(name, call) for the fixpoint, every `_Work` rewrite and
    `sum_private_pairs` that apply to st, the block elimination through
    the fixpoint."""
    calls = [("simplify_fixpoint", lambda: simplify_fixpoint(st, {}))]
    order = sorted(st.V)
    for x in {order[0], order[-1]} if order else ():
        i, j = value_combos(st, x)[-1]
        calls.append(("assign", lambda x=x, i=i, j=j: rewrite(st, "assign", x, i, j)))
    if order:
        assignments = [(x, *value_combos(st, x)[0]) for x in order[:3]]
        calls.append(("assignments", lambda: simplify_fixpoint(st, {}, assignments)))
    part = _smallest_component(st.clauses)
    if 0 < len(part) <= 12:
        x = min(part)
        calls.append(("block", lambda: simplify_fixpoint(st, {}, (), (part - {x}, x))))
    free = st.V - st.index().var_to_classes.keys()
    if free:
        calls.append(("fold", lambda: rewrite(st, "fold", free)))
    if len(order) >= 2:
        calls.append(("link", lambda: rewrite(st, "link", order[0], order[1], 1, 0)))
    varsets = [clause_vars(cl) for cl in st.clauses]
    small = next((k for k, vs in enumerate(varsets) if len(vs) <= 2), None)
    if small is not None:
        calls.append(("apply_small", lambda: rewrite(st, "apply_small", small)))
    pair = _Work(st).shared_pair()
    if pair is not None and all(len(varsets[k]) == 3 for k in pair):
        calls.append(("resolve_pair", lambda: rewrite(st, "resolve_pair", *pair)))
    if sum_private_pairs(st) is not st:
        calls.append(("sum_private_pairs", lambda: sum_private_pairs(st)))
    return calls


def test_rewrites_never_write_their_input(monkeypatch):
    inputs = _fixpoint_inputs(monkeypatch, range(64))
    assert len(inputs) > 100
    states = inputs + [FAMILIES[name](seed).parent for name in FAMILIES for seed in range(12)]
    fired = set()
    for st in states:
        for name, call in _rewrites(st):
            before = _snapshot(st)
            call()
            assert _snapshot(st) == before, name
            fired.add(name)
    assert len(fired) == 9, fired


def _assert_indices(work):
    """Every index a working copy maintains equals its recomputation over
    the live slots."""
    live = {k: cl for k, cl in enumerate(work.clauses) if cl is not None}
    occ: dict = {}
    by_key: dict = {}
    for k, cl in live.items():
        for v in clause_vars(cl):
            occ.setdefault(v, set()).add(k)
        by_key.setdefault(tuple(sorted(cl)), []).append(k)
    assert work.varsets == [None if cl is None else clause_vars(cl) for cl in work.clauses]
    assert work.keys == [None if cl is None else tuple(sorted(cl)) for cl in work.clauses]
    assert work.occ == occ
    assert {key: sorted(slots) for key, slots in work.by_key.items()} == by_key
    assert work.small == {k for k, cl in live.items() if len(clause_vars(cl)) <= 2}
    assert work.free == work.weights.keys() - occ.keys()
    assert work.fixed[0].keys() | work.fixed[1].keys() <= work.weights.keys()
    assert work.dirty <= live.keys()


def _random_step(work, rng):
    """Apply one `_Work` method that fits the copy, chosen at random, and
    return its name; None when none fits or the method returned False,
    after which the fixpoint abandons a copy too."""
    order = sorted(work.weights)
    live = [k for k, cl in enumerate(work.clauses) if cl is not None]
    steps = []
    if order:
        steps += ["assign", "force", "substitute"]
    if len(order) >= 2:
        steps.append("link")
    if work.free:
        steps.append("fold")
    if live:
        steps.append("remove")
    if work.small:
        steps.append("apply_small")
    pair = work.shared_pair()
    if pair is not None and all(len(work.varsets[k]) == 3 for k in pair):
        steps.append("resolve_pair")
    part = _smallest_component(work.clauses)
    if 0 < len(part) <= 12:
        steps.append("eliminate")
    if not steps:
        return None
    name = rng.choice(steps)
    ok = True
    if name == "assign":
        x = rng.choice(order)
        f0, f1 = work.fixed
        work.assign(x, f0.get(x, rng.randrange(2)), f1.get(x, rng.randrange(2)))
    elif name == "force":
        ok = work.force([(rng.randrange(2), rng.choice(order), rng.randrange(2))])
    elif name == "substitute":
        old = rng.choice(order)
        new = rng.choice([0] + [v for v in order if v != old])
        # as assign and link do first
        del work.weights[old]
        for s in work.fixed:
            s.pop(old, None)
        work.substitute(old, new, rng.randrange(2), rng.randrange(2))
    elif name == "link":
        keep, drop = rng.sample(order, 2)
        ok = work.link(keep, drop, rng.randrange(2), rng.randrange(2))
    elif name == "fold":
        free = sorted(work.free)
        work.fold(set(rng.sample(free, rng.randint(1, len(free)))))
    elif name == "remove":
        work.remove(rng.choice(live))
    elif name == "apply_small":
        k = rng.choice(sorted(work.small))
        ok = work.apply_small(k)
    elif name == "eliminate":
        x = rng.choice(sorted(part) + [None])
        work.eliminate(part - {x}, x)
    else:
        ok = work.resolve_pair(*pair)
    return name if ok is not False else None


def test_work_indices_follow_every_rewrite(monkeypatch):
    states = _fixpoint_inputs(monkeypatch, range(24))
    states += [FAMILIES[name](seed).parent for name in FAMILIES for seed in range(12)]
    rng = random.Random(13)
    applied = Counter()
    forced = Counter()
    for st in states:
        work = _Work(st)
        _assert_indices(work)
        for _ in range(8):
            before = [set(s) for s in work.fixed]
            # as a round of the fixpoint does, so that what the step marks
            # for the next round shows
            work.dirty.clear()
            name = _random_step(work, rng)
            if name is None:
                break
            _assert_indices(work)
            applied[name] += 1
            # a newly forced variable's slots are rechecked next round
            for side in (0, 1):
                for v in work.fixed[side].keys() - before[side]:
                    slots = work.occ.get(v, set())
                    assert slots <= work.dirty, (name, v, slots - work.dirty)
                    forced[name] += bool(slots)
    assert min(applied.values()) > 20 and len(applied) == 9, applied
    assert all(forced[name] for name in ("force", "link", "apply_small", "resolve_pair")), forced
