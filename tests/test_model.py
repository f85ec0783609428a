import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rulestates import clause, mkstate
from x3hd.model import (
    Formula,
    are_neighbours,
    are_similar,
    check_state,
    clause_satisfied,
    clause_unsatisfiable,
    dissimilar_classes,
    from_dimacs,
    initial_state,
    side_solutions,
    to_dimacs,
    true_positions,
)
from x3hd.poly import ONE, U

EXAMPLE = Formula.from_dimacs([[1, 2, 3], [1, 4, 5], [1, 6, 7], [2, 4, -6]], 7)


def test_literal_encoding_roundtrip():
    for k in (1, -1, 5, -9):
        assert to_dimacs(from_dimacs(k)) == k
    assert from_dimacs(3) ^ 1 == from_dimacs(-3)
    assert 1 ^ 1 == 0  # negating the true constant gives the false one


def test_clause_satisfied_exactly_one():
    cl = clause(1, 2, -3)
    assert clause_satisfied(cl, {1: 1, 2: 0, 3: 1})
    assert not clause_satisfied(cl, {1: 1, 2: 1, 3: 1})
    assert not clause_satisfied(cl, {1: 0, 2: 0, 3: 1})
    assert clause_satisfied(clause("T", 1), {1: 0})


# every clause of arity 1..3 over the constants F (0) and T (1) and every
# literal of variables 1, 2 and 3, with every partial map over those variables
ALL_CLAUSES = [cl for k in (1, 2, 3) for cl in product(range(8), repeat=k)]
PARTIAL_MAPS = [
    {v: b for v, b in zip((1, 2, 3), bits) if b is not None}
    for bits in product((None, 0, 1), repeat=3)
]
# the clauses over variables 1 and 2 only
SMALL_CLAUSES = [cl for cl in ALL_CLAUSES if max(cl) < 6]


def _assignments(variables, fixed):
    for bits in product((0, 1), repeat=len(variables)):
        values = dict(zip(variables, bits))
        if all(fixed.get(v, b) == b for v, b in values.items()):
            yield values


def test_true_positions_are_the_satisfying_assignments():
    for cl in ALL_CLAUSES:
        variables = sorted({lit >> 1 for lit in cl if lit >= 2})
        for fixed in PARTIAL_MAPS:
            positions = true_positions(cl, fixed)
            assert len(positions) == len(cl)
            found = []
            for pos, values in enumerate(positions):
                if values is None:
                    continue
                assert sorted(values) == variables
                lit = cl[pos]
                assert (lit if lit < 2 else values[lit >> 1] ^ (lit & 1)) == 1
                found.append(tuple(values[v] for v in variables))
            expected = [
                tuple(values[v] for v in variables)
                for values in _assignments(variables, fixed)
                if clause_satisfied(cl, values)
            ]
            assert sorted(found) == expected, (cl, fixed)
            assert clause_unsatisfiable(cl, fixed) is (not found), (cl, fixed)


def test_side_solutions_match_brute_force():
    rng = random.Random(5)
    variables = [1, 2, 3]  # variable 3 occurs in no clause
    fixed_maps = [
        {v: b for v, b in zip(variables, bits) if b is not None}
        for bits in product((None, 0, 1), repeat=3)
    ]
    for _ in range(3000):
        clauses = rng.sample(SMALL_CLAUSES, rng.choice((2, 3)))
        fixed = rng.choice(fixed_maps)
        expected = [
            tuple(values[v] for v in variables)
            for values in _assignments(variables, fixed)
            if all(clause_satisfied(cl, values) for cl in clauses)
        ]
        assert sorted(side_solutions(clauses, fixed, variables)) == expected


@pytest.mark.parametrize(
    "c1, c2, expected",
    [
        (clause(1, 2), clause(1, -2), True),
        (clause("T", 1, 2), clause("F", -1, 2), True),
        (clause(1, 3), clause(1, 2), False),
        (clause(1, -1, 3), clause(1, 3, -3), False),
        (clause(1, 2, 3), clause(3, 2, 1), True),
    ],
)
def test_are_similar(c1, c2, expected):
    assert are_similar(c1, c2) is expected


def test_are_neighbours():
    assert are_neighbours(clause(1, 2, 3), clause(-1, 4, 5))
    assert not are_neighbours(clause(1, 2, 3), clause(4, 5, 6))
    c = clause(1, 2, 3)
    assert are_neighbours(c, c)


def test_dissimilar_classes():
    f = Formula.from_dimacs([[1, 2, 3], [-1, 2, 3]], 3)
    assert dissimilar_classes(f) == [[0, 1]]
    g = Formula.from_dimacs([[1, 2, 3], [1, 4, 5]], 5)
    assert dissimilar_classes(g) == [[0], [1]]
    assert dissimilar_classes(Formula((), 0)) == []


def test_classmates_share_all_variables():
    import random

    from x3hd.model import clause_vars

    rng = random.Random(0)
    clauses = []
    for _ in range(30):
        vs = rng.sample(range(1, 6), 3)
        clauses.append(tuple(2 * v + rng.randrange(2) for v in vs))
    f = Formula(tuple(clauses), 5)
    for members in dissimilar_classes(f):
        variable_sets = {frozenset(clause_vars(f.clauses[i])) for i in members}
        assert len(variable_sets) == 1
        for i in members:
            for j in members:
                assert are_neighbours(f.clauses[i], f.clauses[j])


similar_vars = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3)


@given(similar_vars, st.data())
def test_similarity_is_an_equivalence(variables, data):
    def draw_clause():
        return tuple(
            2 * v + data.draw(st.integers(min_value=0, max_value=1)) for v in variables
        )

    a, b, c = draw_clause(), draw_clause(), draw_clause()
    assert are_similar(a, a)
    assert are_similar(a, b) == are_similar(b, a)
    if are_similar(a, b) and are_similar(b, c):
        assert are_similar(a, c)


def test_initial_state_worked_example():
    st0 = initial_state(EXAMPLE)
    assert len(st0.V) == 7
    assert st0.p_main == ONE
    assert st0.phi1 == st0.phi2 == EXAMPLE.clauses
    assert st0.weights[3] == (ONE, U, U, ONE)
    check_state(st0)


def test_initial_state_empty_formulas():
    assert initial_state(Formula((), 0)).V == frozenset()
    st0 = initial_state(Formula((), 2))
    assert st0.V == frozenset({1, 2})
    assert st0.phi1 == ()


def test_formula_validation():
    with pytest.raises(ValueError):
        Formula.from_dimacs([[1, 2, 3, 4]], 4)
    with pytest.raises(ValueError):
        Formula.from_dimacs([[]], 1)
    with pytest.raises(ValueError):
        Formula.from_dimacs([[5]], 3)
    # duplicate variables inside a clause are legal input
    Formula.from_dimacs([[1, 1, 2], [-1, 1, 2]], 2)


def test_check_state_catches_misalignment():
    from x3hd.errors import InternalError

    good = mkstate([clause(1, 2, 3)])
    check_state(good)
    bad = mkstate([clause(1, 2, 3)], [clause(1, 2, -3)])
    check_state(bad)  # same variables, different sign: fine
    with pytest.raises(InternalError):
        check_state(mkstate([clause(1, 2, 3)], [clause(1, 2)]))
    with pytest.raises(InternalError):
        check_state(mkstate([clause(1, 2, 3)], [clause(1, 2, 4)]))
