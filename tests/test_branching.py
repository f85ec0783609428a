import random

import pytest

from rulestates import FAMILIES, build_paired, clause, mkstate, rewrite
from x3hd.branching import (
    SemiIsolated,
    SevenNeighbourPattern,
    branch_high_degree_var,
    eliminate_semiisolated_1,
    find_config,
    pick_high_degree_var,
)
from x3hd.model import mirror
from x3hd.oracle import state_eval
from x3hd.poly import U, ZERO, HDPoly
from x3hd.simplify import value_combos


def conserve_sum(case):
    parent = state_eval(case.parent)
    total = sum((state_eval(c) for c in case.children if c is not None), ZERO)
    assert parent == total, case.rule


def test_assign_value_scales_and_substitutes():
    st = mkstate([clause(1, 2, 3)])
    child = rewrite(st, "assign", 1, 0, 1)
    assert child.p_main == U
    assert child.clauses[0][0] == 2  # false on side 0, true on side 1
    assert 1 not in child.V and 1 not in child.weights


def test_value_combos_filtered_by_forced_values():
    st = mkstate([clause(1, 2, 3)], fixed=({1: 1}, {}))
    assert value_combos(st, 1) == [(1, 0), (1, 1)]
    assert value_combos(st, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_pick_high_degree_var():
    st = mkstate([clause(1, 2, 3), clause(1, 4, 5), clause(1, 6, 7), clause(1, 8, 9)])
    assert pick_high_degree_var(st) == 1
    st3 = mkstate([clause(1, 2, 3), clause(1, 4, 5), clause(1, 6, 7)])
    assert pick_high_degree_var(st3) is None
    # similar clauses count as one
    st_sim = mkstate(
        [clause(1, 2, 3), clause(-1, 2, 3), clause(1, 4, 5), clause(1, 6, 7), clause(1, 8, 9)]
    )
    assert pick_high_degree_var(st_sim) == 1


def test_branch_high_degree_children_and_floor():
    st = mkstate([clause(1, 2, 3), clause(1, 4, 5), clause(1, 6, 7), clause(-1, 8, 9)])
    children = branch_high_degree_var(st, 1, debug=True)
    assert len(children) == 4
    # the state is symmetric: the (1, 0) child is the mirror of (0, 1), so
    # its slot holds the (0, 1) child itself, which has the mirror's value
    assert value_combos(st, 1)[1:3] == [(0, 1), (1, 0)]
    assert children[2] is children[1]
    assert state_eval(mirror(children[1])) == state_eval(children[1])
    for child in children:
        assert child is not None
        assert len(st.V) - len(child.V) >= 5


def test_branch_high_degree_respects_one_sided_value():
    st = mkstate(
        [clause(1, 2, 3), clause(1, 4, 5), clause(1, 6, 7), clause(1, 8, 9)],
        fixed=({1: 1}, {}),
    )
    children = branch_high_degree_var(st, 1, debug=True)
    assert len(children) == 2
    conserve_like = sum((state_eval(c) for c in children if c is not None), ZERO)
    assert conserve_like == state_eval(st)


def test_find_config_pattern_example():
    st = mkstate(
        [clause(1, 2, 3), clause(1, 4, 5), clause(-1, 6, 7),
         clause(2, 8, 9), clause(-2, 10, 11)]
    )
    config = find_config(st)
    assert isinstance(config, SevenNeighbourPattern)
    assert config.clause == 0 and config.pivot == 1
    assert not config.generic


def test_find_config_semiisolated_example():
    st = mkstate(
        [clause(1, 2, 3), clause(1, 4, 5), clause(-1, 6, 7),
         clause(2, 4, 6), clause(3, 5, 7), clause(6, 8, 9)]
    )
    config = find_config(st)
    assert isinstance(config, SemiIsolated)
    assert config.J == frozenset({6})
    assert config.I == frozenset({1, 2, 3, 4, 5, 7})
    # the block's five clauses go; the one through the boundary stays
    out = eliminate_semiisolated_1(st, config)
    assert out.clauses == (st.clauses[5],)
    assert out.V == frozenset({6, 8, 9})


def test_find_config_none_when_neighbourhoods_small():
    st = mkstate([clause(1, 2, 3), clause(1, 4, 5), clause(-1, 6, 7)])
    assert find_config(st) is None


def test_semiisolated_elimination_single_clause_block():
    # lone clause over {x, a, b}: fold the block through x, then x itself
    st = mkstate([clause(1, 2, 3)])
    si = SemiIsolated(I=frozenset({2, 3}), J=frozenset({1}))
    out = eliminate_semiisolated_1(st, si)
    assert out.V == frozenset()
    assert out.p_main == HDPoly({2: 6, 0: 3})
    assert out.p_main == state_eval(st)


def test_semiisolated_elimination_keeps_connected_boundary():
    st = mkstate([clause(1, 2, 3), clause(1, 4, 5)])
    si = SemiIsolated(I=frozenset({2, 3}), J=frozenset({1}))
    out = eliminate_semiisolated_1(st, si)
    assert out.V == frozenset({1, 4, 5})
    assert len(out.clauses) == 1
    assert state_eval(out) == state_eval(st)
    # the boundary variable's table now carries the block sums
    assert out.weights[1][0] == HDPoly({0: 2, 2: 2})
    assert out.weights[1][1] == HDPoly({2: 2})


def test_semiisolated_unsatisfiable_block_zeroes_the_state():
    # (a, a) admits no exactly-one assignment, so the block sum is empty
    dead = mkstate([clause(2, 2), clause(1, 3, 4)])
    si = SemiIsolated(I=frozenset({2}), J=frozenset())
    out = eliminate_semiisolated_1(dead, si)
    assert out.p_main == ZERO
    assert state_eval(dead) == ZERO


@pytest.mark.parametrize("rule, seeds", [
    ("case1_v", 25),
    ("case1_vi1", 25),
    ("case1_vi2", 25),
    ("case1_vi3", 20),
    ("case1_vii", 25),
])
def test_branch_rule_conservation(rule, seeds):
    for seed in range(seeds):
        conserve_sum(FAMILIES[rule](seed))


def test_child_count_bounds():
    for seed in range(15):
        assert len(FAMILIES["case1_v"](seed).children) <= 4
        assert len(FAMILIES["case1_vi2"](seed).children) <= 4
        assert len(FAMILIES["case1_vi3"](seed).children) <= 9
        assert len(FAMILIES["case1_vii"](seed).children) <= 6


def test_unconstrained_counts():
    rng = random.Random(0)
    st, _ = build_paired(
        [[1, 2, 3], [1, 4, 5], [-1, 6, 7], [2, 4, 6], [3, 5, 8],
         [6, 9, 10], [7, 10, 11], [8, 11, 9]], rng)
    config = find_config(st)
    assert isinstance(config, SemiIsolated) and len(config.J) == 3
    from x3hd.branching import branch_semiisolated_3

    children = branch_semiisolated_3(st, config)
    assert len(children) == 9

    st2 = mkstate(
        [clause(1, 2, 3), clause(1, 4, 5), clause(-1, 6, 7),
         clause(2, 8, 9), clause(-2, 10, 11)]
    )
    from x3hd.branching import branch_four_neighbour

    pattern = find_config(st2)
    children2 = branch_four_neighbour(st2, pattern)
    assert len(children2) == 6
