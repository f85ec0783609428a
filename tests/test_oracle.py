import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import x3hd
from rulestates import build_paired, fuzz_weights, mkstate
from x3hd.errors import LimitError
from x3hd.instances import generate
from x3hd.model import Formula, initial_state
from x3hd.oracle import (
    _distance_histogram_loop,
    _distance_histogram_wht,
    enumerate_solutions,
    hd_oracle,
    state_eval,
)
from x3hd.poly import ONE, ZERO, HDPoly

EXAMPLE = Formula.from_dimacs([[1, 2, 3], [1, 4, 5], [1, 6, 7], [2, 4, -6]], 7)

EXAMPLE_SOLUTIONS = {
    (1, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 1, 1, 0),
    (0, 0, 1, 1, 0, 1, 0),
    (0, 0, 1, 0, 1, 0, 1),
}


def test_enumerate_worked_example_solutions():
    masks = enumerate_solutions(EXAMPLE)
    # bit v-1 of a mask holds variable v
    assert {tuple(m >> v & 1 for v in range(7)) for m in masks} == EXAMPLE_SOLUTIONS


def test_enumerate_trivial_cases():
    assert enumerate_solutions(Formula.from_dimacs([[1, 1, 1]], 1)) == []
    assert len(enumerate_solutions(Formula((), 2))) == 4


def test_enumeration_limit():
    with pytest.raises(LimitError):
        enumerate_solutions(Formula((), 30))
    assert len(enumerate_solutions(Formula((), 5), limit=None)) == 32


def test_hd_oracle_worked_example():
    assert hd_oracle(EXAMPLE) == HDPoly({4: 12, 0: 4})


def test_hd_oracle_single_clause():
    # three one-hot solutions, every distinct pair at distance two
    assert hd_oracle(Formula.from_dimacs([[1, 2, 3]], 3)) == HDPoly({2: 6, 0: 3})


def test_hd_oracle_unsat():
    assert hd_oracle(Formula.from_dimacs([[1, 1, 1]], 1)) == ZERO


def test_histogram_paths_agree():
    rng = random.Random(5)
    for n in (6, 8, 10):
        masks = sorted(rng.sample(range(1 << n), rng.randint(3, 40)))
        assert _distance_histogram_loop(masks) == _distance_histogram_wht(masks, n)


def test_state_eval_matches_oracle_on_initial_states():
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(3, 9)
        inst = generate(n, rng.randint(1, n), seed=seed, planted=seed % 2 == 0)
        assert state_eval(initial_state(inst.formula)) == hd_oracle(inst.formula)


def test_state_eval_without_variables_returns_scale():
    st = mkstate([])
    assert state_eval(st) == ONE
    from dataclasses import replace

    scaled = replace(st, p_main=HDPoly({3: 5}))
    assert state_eval(scaled) == HDPoly({3: 5})


def test_state_eval_limit():
    st = initial_state(Formula((), 13))
    with pytest.raises(LimitError):
        state_eval(st)
    # free variables factor as (2 + 2u) each
    base = HDPoly({0: 2, 1: 2})
    expected = ONE
    for _ in range(13):
        expected = expected * base
    assert state_eval(st, limit=13) == expected


def test_oracle_invariants_random():
    for seed in range(25):
        rng = random.Random(100 + seed)
        n = rng.randint(4, 10)
        inst = generate(n, rng.randint(1, n), seed=seed)
        poly = hd_oracle(inst.formula)
        sols = len(enumerate_solutions(inst.formula))
        assert poly.coeff(0) == sols
        assert poly.total() == sols * sols
        assert all(c % 2 == 0 for k, c in poly.terms().items() if k >= 1)
        assert poly.is_zero() or poly.degree() <= n


def test_hd_oracle_parts_match_the_whole_formula():
    # constant literals, clauses of constants alone and variables in no
    # clause all pass through the split into variable-disjoint parts
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(0, 9)
        lits = [0, 1] + [2 * v + s for v in range(1, n + 1) for s in (0, 1)]
        f = Formula(
            tuple(tuple(rng.choice(lits) for _ in range(rng.randint(1, 3)))
                  for _ in range(rng.randint(0, 5))),
            n,
        )
        masks = enumerate_solutions(f)
        whole = HDPoly(_distance_histogram_loop(masks)) if masks else ZERO
        assert hd_oracle(f) == whole, f


def test_state_eval_respects_one_sided_values():
    rng = random.Random(2)
    st, _ = build_paired([[1, 2, 3]], rng)
    st = fuzz_weights(st, rng)
    from dataclasses import replace

    constrained = replace(st, fixed=(st.fixed[0] | {min(st.V): 0}, st.fixed[1]))
    full = state_eval(st)
    partial = state_eval(constrained)
    assert partial.total() <= full.total()


def test_package_imports_the_oracle_on_first_use():
    # a fresh `import x3hd` leaves `oracle` unimported; its three public
    # names still resolve from the package
    code = (
        "import sys, x3hd\n"
        "assert 'x3hd.oracle' not in sys.modules\n"
        "assert 'hd_oracle' in x3hd.__all__\n"
        "from x3hd import enumerate_solutions, hd_oracle, state_eval\n"
        "import x3hd.oracle as oracle\n"
        "assert hd_oracle is oracle.hd_oracle and state_eval is oracle.state_eval\n"
        "assert enumerate_solutions is oracle.enumerate_solutions\n"
    )
    src = str(Path(x3hd.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
