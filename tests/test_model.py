import random
from dataclasses import replace
from itertools import chain, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import x3hd.model as model
from rulestates import (
    clause,
    fuzz_one_sided_values,
    fuzz_weights,
    mkstate,
    pair_clause,
    pristine_weights,
    resign,
)
from x3hd.model import (
    PRISTINE,
    Formula,
    PairState,
    check_state,
    class_index,
    clause_satisfied,
    clause_unsatisfiable,
    clause_vars,
    from_dimacs,
    initial_state,
    is_symmetric,
    mirror,
    pair_sum,
    same_state,
    side_solutions,
    to_dimacs,
    true_positions,
)
from x3hd.instances import generate
from x3hd.oracle import state_eval
from x3hd.poly import ONE, U, HDPoly

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


# every pair clause of arity 1..3 over the constant pairs (0..3) and the
# variables 1, 2 and 3 with independent signs per side, with every partial
# map over those variables
PAIR_CLAUSES = [cl for k in (1, 2, 3) for cl in product(range(16), repeat=k)]
PARTIAL_MAPS = [
    {v: b for v, b in zip((1, 2, 3), bits) if b is not None}
    for bits in product((None, 0, 1), repeat=3)
]
# the pair clauses over variables 1 and 2 only
SMALL_CLAUSES = [cl for cl in PAIR_CLAUSES if max(cl) < 12]


def side_of(cl, side):
    """The formula clause that pair clause `cl` reads as on `side`."""
    return tuple(2 * (p >> 2) + ((p >> side) & 1) for p in cl)


def _assignments(variables, fixed):
    for bits in product((0, 1), repeat=len(variables)):
        values = dict(zip(variables, bits))
        if all(fixed.get(v, b) == b for v, b in values.items()):
            yield values


def test_true_positions_are_the_satisfying_assignments():
    expected_of: dict = {}
    for cl in PAIR_CLAUSES:
        variables = sorted(clause_vars(cl))
        for side in (0, 1):
            projected = side_of(cl, side)
            for idx, fixed in enumerate(PARTIAL_MAPS):
                key = (projected, idx)
                if key not in expected_of:
                    expected_of[key] = [
                        tuple(values[v] for v in variables)
                        for values in _assignments(variables, fixed)
                        if clause_satisfied(projected, values)
                    ]
                expected = expected_of[key]
                # every clause variable has a bit, or only the free ones, as
                # block elimination leaves its forced boundary out
                for listed in (variables, [v for v in variables if v not in fixed]):
                    bit = {v: 1 << t for t, v in enumerate(listed)}
                    positions = true_positions(cl, fixed, side, bit)
                    assert len(positions) == len(cl)
                    found = []
                    for pos, mask in enumerate(positions):
                        if mask is None:
                            continue
                        assert mask >> len(listed) == 0
                        values = fixed | {v: mask >> t & 1 for t, v in enumerate(listed)}
                        p = cl[pos]
                        b = (p >> side) & 1
                        assert (b if p < 4 else values[p >> 2] ^ b) == 1
                        found.append(tuple(values[v] for v in variables))
                    assert sorted(found) == expected, (cl, side, fixed, listed)


def test_clause_unsatisfiable_matches_side_solutions_on_both_sides():
    # every pair clause of PAIR_CLAUSES, repeated variables included, under
    # every combination of forced values of its variables on the two
    # sides, and under each partial map of PARTIAL_MAPS on both sides:
    # unsatisfiable iff some side has no solution
    for cl in PAIR_CLAUSES:
        variables = sorted(clause_vars(cl))
        unsat = [
            [not side_solutions((cl,), fixed, variables, side) for fixed in PARTIAL_MAPS]
            for side in (0, 1)
        ]
        own = [k for k, fixed in enumerate(PARTIAL_MAPS) if fixed.keys() <= set(variables)]
        diagonal = [(k, k) for k in range(len(PARTIAL_MAPS))]
        for k0, k1 in chain(product(own, own), diagonal):
            f0, f1 = PARTIAL_MAPS[k0], PARTIAL_MAPS[k1]
            assert clause_unsatisfiable(cl, (f0, f1)) is (unsat[0][k0] or unsat[1][k1]), (cl, f0, f1)


# the pair clauses that name one variable twice
REPEATING = [cl for cl in PAIR_CLAUSES if len(clause_vars(cl)) < sum(p >= 4 for p in cl)]


def _decoded_side_solutions(clauses, fixed, variables, side):
    """`side_solutions` rows as value tuples: bit t holds variables[t]."""
    rows = side_solutions(clauses, fixed, variables, side)
    return sorted(tuple(row >> t & 1 for t in range(len(variables))) for row in rows)


def _expected_side_solutions(clauses, fixed, variables, side):
    """Brute force over variables 1..3, projected onto `variables`; a
    variable left out must be forced, so the projection repeats no row."""
    projected = [side_of(cl, side) for cl in clauses]
    return sorted(
        tuple(values[v] for v in variables)
        for values in _assignments([1, 2, 3], fixed)
        if all(clause_satisfied(cl, values) for cl in projected)
    )


def test_side_solutions_match_brute_force():
    rng = random.Random(5)
    variables = [1, 2, 3]  # variable 3 occurs in no clause
    for _ in range(3000):
        clauses = rng.sample(SMALL_CLAUSES, rng.choice((2, 3)))
        fixed = rng.choice(PARTIAL_MAPS)
        for side in (0, 1):
            expected = _expected_side_solutions(clauses, fixed, variables, side)
            assert _decoded_side_solutions(clauses, fixed, variables, side) == expected
    # variable 1 forced and left out of `variables`, as block elimination
    # conditions on its boundary, with a clause that repeats a variable
    forcing_1 = [fixed for fixed in PARTIAL_MAPS if 1 in fixed]
    for _ in range(3000):
        clauses = [rng.choice(REPEATING)] + rng.sample(PAIR_CLAUSES, rng.choice((0, 1, 2)))
        rng.shuffle(clauses)
        fixed = rng.choice(forcing_1)
        for side in (0, 1):
            expected = _expected_side_solutions(clauses, fixed, [2, 3], side)
            assert _decoded_side_solutions(clauses, fixed, [2, 3], side) == expected


def _fold_order(clauses, variables):
    """The order in which `side_solutions` folds `clauses`, by its
    docstring and with sets: the first clause, then each time the clause
    sharing the most listed variables with the clauses folded so far, ties
    to the lower index."""
    listed = set(variables)
    left = list(range(len(clauses)))
    held: set[int] = set()
    order = []
    while left:
        k = max(left, key=lambda i: len(clause_vars(clauses[i]) & listed & held))
        left.remove(k)
        order.append(clauses[k])
        held |= clause_vars(clauses[k]) & listed
    return order


def _fold_sizes(clauses, fixed, variables, side):
    """The rows each partial fold of `_fold_order` holds: by brute force,
    the assignments to the listed variables of the clauses folded so far
    that agree with `fixed` and satisfy those clauses on `side`."""
    order = _fold_order(clauses, variables)
    sizes = []
    for k in range(1, len(order) + 1):
        held = [v for v in variables if any(v in clause_vars(cl) for cl in order[:k])]
        projected = [side_of(cl, side) for cl in order[:k]]
        sizes.append(sum(
            all(clause_satisfied(cl, values) for cl in projected)
            for values in _assignments(held, fixed)
        ))
    return sizes


def test_side_solutions_stop_past_their_limit():
    # a limit gives the same rows when no partial fold in the documented
    # order, nor the rows with the free variables added, holds more; None
    # from one row fewer
    rng = random.Random(17)
    for seed in range(40):
        st = initial_state(generate(rng.randint(4, 12), rng.randint(1, 6), seed=seed).formula)
        clauses = [tuple(p ^ rng.choice((0, 3)) for p in cl) for cl in st.clauses]
        variables = sorted(st.V)
        forced = {v: rng.randrange(2) for v in variables if rng.random() < 0.2}
        for side in (0, 1):
            rows = side_solutions(clauses, forced, variables, side)
            folds = _fold_sizes(clauses, forced, variables, side)
            widest = max(folds + [len(rows)])
            for limit in range(widest + 2):
                capped = side_solutions(clauses, forced, variables, side, limit)
                assert capped == (rows if limit >= widest else None), (seed, side, limit)


def _random_pair_clause(rng):
    """A pair clause over variables 1..6 with independent signs per side,
    a constant pair in about one literal position of ten."""
    return tuple(
        rng.randrange(4) if rng.random() < 0.1 else 4 * rng.randint(1, 6) + rng.randrange(4)
        for _ in range(rng.randint(1, 3))
    )


def test_clause_order_changes_neither_the_rows_nor_the_pair_sum():
    # seeded clause lists with constants, repeated variables, forced values
    # and unsatisfiable lists among them: every sampled order of a list
    # gives each side the same set of rows and the same pair_sum, and a
    # limit gives those rows or None
    rng = random.Random(29)
    variables = list(range(1, 7))
    seen = {"repeat": 0, "constant": 0, "forced": 0, "unsatisfiable": 0}
    for _ in range(200):
        clauses = [_random_pair_clause(rng) for _ in range(rng.randint(2, 7))]
        fixed = tuple({v: rng.randrange(2) for v in variables if rng.random() < 0.15}
                      for _ in range(2))
        # a variable forced on both sides may be left out, as block
        # elimination leaves its boundary out
        listed = [v for v in variables
                  if v not in fixed[0] or v not in fixed[1] or rng.random() < 0.5]
        weights = fuzz_weights(
            PairState(tuple(clauses), fixed, ONE, dict.fromkeys(listed, PRISTINE)), rng
        ).weights
        rows = [sorted(side_solutions(clauses, fixed[side], listed, side)) for side in (0, 1)]
        total = pair_sum(clauses, fixed, listed, weights)
        seen["repeat"] += any(len(clause_vars(cl)) < sum(p >= 4 for p in cl) for cl in clauses)
        seen["constant"] += any(p < 4 for cl in clauses for p in cl)
        seen["forced"] += bool(fixed[0] or fixed[1])
        seen["unsatisfiable"] += not (rows[0] and rows[1])
        for _ in range(6):
            order = rng.sample(clauses, len(clauses))
            for side in (0, 1):
                assert sorted(side_solutions(order, fixed[side], listed, side)) == rows[side]
                limit = rng.randrange(len(rows[side]) + 2)
                capped = side_solutions(order, fixed[side], listed, side, limit)
                assert capped is None or sorted(capped) == rows[side], (order, side, limit)
            assert pair_sum(order, fixed, listed, weights) == total, order
    assert min(seen.values()) >= 20, seen


def test_pair_sum_conditions_on_a_forced_variable_left_out():
    # x1 forced to 1 on side 0 and 0 on side 1 but not listed: side 0 has
    # only x2 = x3 = 0, side 1 has (1, 0) and (0, 1), each one flip away
    clauses = [pair_clause(clause(1, 2, 3))]
    weights = pristine_weights([2, 3])
    assert pair_sum(clauses, ({1: 1}, {1: 0}), [2, 3], weights) == HDPoly({1: 2})
    assert pair_sum(clauses, ({1: 1}, {1: 1}), [2, 3], weights) == ONE
    weights[2] = (ONE, ONE, ONE, HDPoly({0: 5}))
    assert pair_sum(clauses, ({1: 0}, {1: 0}), [2, 3], weights) == HDPoly({0: 6, 1: 2})


def test_pair_sum_enumerates_one_side_when_the_sides_agree(monkeypatch):
    # the same signs, constants and forced values on both sides give the
    # same side solutions, so one enumeration serves both
    sides = []

    def counted(clauses, fixed, variables, side, *limit):
        sides.append(side)
        return real(clauses, fixed, variables, side, *limit)

    real = model.side_solutions
    monkeypatch.setattr(model, "side_solutions", counted)
    phi = [clause("F", 1, 2), clause(-2, 3, 4)]
    cases = [
        (mkstate(phi), [0]),
        (mkstate(phi, fixed=({3: 0}, {3: 0})), [0]),
        (mkstate(phi, fixed=({3: 0}, {3: 1})), [0, 1]),
        (mkstate(phi, fixed=({3: 0}, {})), [0, 1]),
        (mkstate(phi, [clause("F", 1, 2), clause(2, 3, 4)]), [0, 1]),
        (mkstate(phi, [clause("T", 1, 2), clause(-2, 3, 4)]), [0, 1]),
    ]
    for st, expected in cases:
        sides.clear()
        result = pair_sum(st.clauses, st.fixed, sorted(st.V), st.weights)
        assert sides == expected
        assert result == state_eval(st)


def similar(a, b) -> bool:
    return len(class_index([a, b]).classes) == 1


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
    assert similar(pair_clause(c1), pair_clause(c2)) is expected


def test_dissimilar_classes():
    f = Formula.from_dimacs([[1, 2, 3], [-1, 2, 3]], 3)
    assert class_index(initial_state(f).clauses).classes == ((0, 1),)
    g = Formula.from_dimacs([[1, 2, 3], [1, 4, 5]], 5)
    assert class_index(initial_state(g).clauses).classes == ((0,), (1,))
    assert class_index(()).classes == ()


def test_class_index_of_worked_example():
    index = class_index(initial_state(EXAMPLE).clauses)
    assert index.classes == ((0,), (1,), (2,), (3,))
    assert index.class_vars == ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6))
    assert index.var_to_classes == {
        1: {0, 1, 2}, 2: {0, 3}, 3: {0}, 4: {1, 3}, 5: {1}, 6: {2, 3}, 7: {2},
    }
    assert index.neighbours == ({1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2})
    # a repeated variable is listed once; a constant-only clause has none
    loose = class_index([(4, 5, 8), (0, 1), (2, 3), (9, 4, 6)])
    assert loose.classes == ((0, 3), (1, 2))
    assert loose.class_vars == ((1, 2), ())
    assert loose.neighbours == (frozenset(), frozenset())


def test_state_index_is_built_once_per_state():
    st0 = initial_state(EXAMPLE)
    index = st0.index()
    assert index == class_index(st0.clauses)
    assert st0.index() is index
    assert set(st0.index().var_to_classes) == set(range(1, 8))
    # a copy made by replace builds its own index from its own clauses
    copy = replace(st0, clauses=st0.clauses[:2])
    assert copy.index() == class_index(st0.clauses[:2])
    assert st0.index() is index


def test_classmates_share_all_variables():
    rng = random.Random(0)
    clauses = []
    for _ in range(30):
        vs = rng.sample(range(1, 6), 3)
        clauses.append(tuple(4 * v + rng.randrange(4) for v in vs))
    for members in class_index(clauses).classes:
        variable_sets = {frozenset(clause_vars(clauses[i])) for i in members}
        assert len(variable_sets) == 1


similar_vars = st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3)


@given(similar_vars, st.data())
def test_similarity_is_an_equivalence(variables, data):
    def draw_clause():
        # independent signs on the two sides
        return tuple(
            4 * v + data.draw(st.integers(min_value=0, max_value=3)) for v in variables
        )

    a, b, c = draw_clause(), draw_clause(), draw_clause()
    assert similar(a, a)
    assert similar(a, b) == similar(b, a)
    if similar(a, b) and similar(b, c):
        assert similar(a, c)


def test_initial_state_worked_example():
    st0 = initial_state(EXAMPLE)
    assert len(st0.V) == 7
    assert st0.p_main == ONE
    # 4*v + 2*b2 + b1, the same sign on both sides
    assert st0.clauses == ((4, 8, 12), (4, 16, 20), (4, 24, 28), (8, 16, 27))
    assert st0.clauses == tuple(pair_clause(cl) for cl in EXAMPLE.clauses)
    assert st0.weights[3] == (ONE, U, U, ONE)
    check_state(st0)


def test_initial_state_empty_formulas():
    assert initial_state(Formula((), 0)).V == frozenset()
    st0 = initial_state(Formula((), 2))
    assert st0.V == frozenset({1, 2})
    assert st0.clauses == ()


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
    signs = mkstate([clause(1, 2, 3)], [clause(1, 2, -3)])
    check_state(signs)  # same variables, different sign: fine
    # a state whose sides disagree on a variable cannot be built any more;
    # the other faults are still caught
    with pytest.raises(InternalError):
        check_state(replace(good, weights={v: good.weights[v] for v in (1, 2)}))
    with pytest.raises(InternalError):
        check_state(replace(good, fixed=({}, {4: 1})))
    # writing a state after its index was built breaks the no-write contract
    stale = mkstate([clause(1, 2, 3), clause(1, 4, 5)])
    check_state(stale)
    stale.clauses = stale.clauses[:1]
    with pytest.raises(InternalError):
        check_state(stale)


@settings(max_examples=80)
@given(st.integers(min_value=0, max_value=10**6))
def test_mirror_swaps_the_sides(seed):
    # states whose sides differ in signs, forced values or tables, and some
    # that agree: the mirror has the state's value, is an involution, and
    # equals the state exactly when the state is symmetric
    rng = random.Random(seed)
    f = generate(rng.randint(3, 9), rng.randint(1, 5), seed=seed).formula
    phi1 = [resign(cl, rng) for cl in f.clauses]
    phi2 = phi1 if rng.random() < 0.5 else [resign(cl, rng) for cl in f.clauses]
    state = mkstate(phi1, phi2, extra_vars=range(1, f.n_vars + 1))
    state = fuzz_weights(state, rng, 0.5, transposable=rng.random() < 0.5)
    state = fuzz_one_sided_values(state, rng, 0.5)
    swapped = mirror(state)
    assert state_eval(swapped) == state_eval(state)
    assert same_state(mirror(swapped), state)
    assert is_symmetric(state) == same_state(swapped, state)
    assert all(swapped.weights[v] is t for v, t in state.weights.items() if t is PRISTINE)
