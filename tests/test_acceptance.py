"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
The differential checks run the solver with a small base threshold so the
full rule machinery is exercised even on oracle-sized instances.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout

import pytest

from rulestates import FAMILIES
from x3hd.cli import main
from x3hd.instances import generate, render
from x3hd.model import Formula
from x3hd.oracle import enumerate_solutions, hd_oracle, state_eval
from x3hd.poly import ZERO, HDPoly
from x3hd.solver import SolveOptions, solve

EXAMPLE_TEXT = "p x3sat 7 4\n1 2 3 0\n1 4 5 0\n1 6 7 0\n2 4 -6 0\n"
SUITE_SIZE = 500
RULE_TARGET = 100


def _ok(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {message}")


@pytest.fixture(scope="module")
def suite500():
    """Criterion 2 instance sweep, reused by criterion 4."""
    started = time.time()
    rows = []
    for seed in range(SUITE_SIZE):
        rng = random.Random(seed)
        n = rng.randint(4, 14)
        m = rng.randint(1, n)
        inst = generate(n, m, seed=seed, planted=seed % 2 == 0)
        reference = hd_oracle(inst.formula)
        report = solve(inst.formula, SolveOptions(base_threshold=4))
        rows.append((inst, reference, report))
    return rows, time.time() - started


@pytest.fixture(scope="module")
def rule_sweep():
    """Criteria 3 and 7: at least RULE_TARGET states per rule, conserved."""
    per_rule = {rule: [] for rule in FAMILIES}
    for rule, family in FAMILIES.items():
        seed = 0
        while len(per_rule[rule]) < RULE_TARGET:
            if seed > 6 * RULE_TARGET:
                raise AssertionError(f"could not build enough states for {rule}")
            case = family(seed)
            seed += 1
            if case.rule == rule:
                per_rule[rule].append(case)
            elif case.rule in per_rule:
                # fuzzing occasionally diverts a state to a higher-priority
                # rule; it still contributes to that rule's quota
                per_rule[case.rule].append(case)
    return per_rule


def test_criterion_1_worked_example(tmp_path):
    started = time.time()
    f = Formula.from_dimacs([[1, 2, 3], [1, 4, 5], [1, 6, 7], [2, 4, -6]], 7)
    report = solve(f)
    assert report.poly == HDPoly({4: 12, 0: 4})
    assert report.max_hd == 4
    assert report.solutions == 4
    path = tmp_path / "example.x3s"
    path.write_text(EXAMPLE_TEXT)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["solve", str(path)]) == 0
    assert "12*u^4 + 4" in out.getvalue()
    elapsed = time.time() - started
    assert elapsed < 1.0
    _ok(1, f"worked example gives 12*u^4 + 4 in {elapsed:.3f}s")


def test_criterion_2_oracle_equivalence(suite500):
    rows, elapsed = suite500
    assert len(rows) == SUITE_SIZE
    for inst, reference, report in rows:
        assert report.poly == reference, inst.meta
    assert elapsed < 600
    _ok(2, f"{SUITE_SIZE} random instances match the brute-force oracle "
           f"exactly in {elapsed:.1f}s")


def test_criterion_3_per_rule_conservation(rule_sweep):
    checked = 0
    for rule, cases in rule_sweep.items():
        assert len(cases) >= RULE_TARGET, rule
        for case in cases:
            parent_value = state_eval(case.parent)
            if case.combine == "product":
                got = case.parent.p_main
                for child in case.children:
                    got = got * state_eval(child)
            else:
                got = sum(
                    (state_eval(c) for c in case.children if c is not None), ZERO
                )
            assert parent_value == got, (rule, case)
            checked += 1
    _ok(3, f"conservation exact on {checked} states across "
           f"{len(rule_sweep)} rules (>= {RULE_TARGET} each)")


def test_criterion_4_algebraic_invariants(suite500):
    rows, _ = suite500
    rng = random.Random(4242)
    for inst, reference, report in rows:
        poly = report.poly
        n = inst.formula.n_vars
        solutions = len(enumerate_solutions(inst.formula))
        assert poly.coeff(0) == solutions
        assert poly.total() == solutions * solutions
        assert all(c % 2 == 0 for k, c in poly.terms().items() if k >= 1)
        assert poly.is_zero() or poly.degree() <= n

        f = inst.formula
        flip = rng.randint(1, n)
        flipped = Formula(
            tuple(tuple(l ^ 1 if l >= 2 and l >> 1 == flip else l for l in cl)
                  for cl in f.clauses),
            n,
        )
        assert solve(flipped, SolveOptions(base_threshold=4)).poly == poly

        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        mapping = dict(zip(range(1, n + 1), perm))
        renamed = Formula(
            tuple(tuple(2 * mapping[l >> 1] + (l & 1) if l >= 2 else l for l in cl)
                  for cl in f.clauses),
            n,
        )
        assert solve(renamed, SolveOptions(base_threshold=4)).poly == poly

    unions = 0
    for seed in range(50):
        r = random.Random(7000 + seed)
        a = generate(r.randint(3, 7), r.randint(1, 5), seed=seed).formula
        b = generate(r.randint(3, 7), r.randint(1, 5), seed=seed + 501).formula
        shifted = tuple(
            tuple(l + 2 * a.n_vars if l >= 2 else l for l in cl) for cl in b.clauses
        )
        union = Formula(a.clauses + shifted, a.n_vars + b.n_vars)
        opts = SolveOptions(base_threshold=4)
        assert solve(union, opts).poly == solve(a, opts).poly * solve(b, opts).poly
        unions += 1
    _ok(4, f"count/parity/degree plus negation, renaming and {unions} "
           f"disjoint-union identities all hold")


def test_criterion_5_byte_identical_output(tmp_path):
    path = tmp_path / "det.x3s"
    path.write_text(render(generate(12, 8, seed=21, planted=True)))
    outputs = []
    for _ in range(2):
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(["solve", str(path), "--json", "--base-threshold", "4",
                         "--seed", "1"])
        assert code == 0
        outputs.append(out.getvalue())
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert "stats" in payload and "rules" in payload["stats"]
    _ok(5, "two runs produce byte-identical JSON including statistics")


def test_criterion_6_performance_smoke():
    times = []
    for seed in range(3):
        inst = generate(40, 26, seed=seed, planted=True)
        started = time.time()
        report = solve(inst.formula)
        elapsed = time.time() - started
        times.append(elapsed)
        assert elapsed < 60.0
        assert report.stats.leaves <= 4 ** report.stats.branched_vars
    _ok(6, f"n=40 planted instances solve in {max(times):.2f}s worst case; "
           f"leaf budget verified")


def test_criterion_7_structural_floors(rule_sweep):
    floors = {"case1_v": 5, "case1_vi2": 5, "case1_vi3": 8}
    checked = 0
    for rule, floor in floors.items():
        for case in rule_sweep[rule]:
            if case.rule != rule:
                continue
            for child in case.children:
                if child is None:
                    continue
                assert len(case.parent.V) - len(child.V) >= floor, rule
                checked += 1
    for case in rule_sweep["case1_vii"]:
        if case.rule != "case1_vii":
            continue
        removals = [
            len(case.parent.V) - len(child.V)
            for child in case.children
            if child is not None
        ]
        assert all(r >= 4 for r in removals)
        assert sum(1 for r in removals if r < 7) <= 1
        checked += len(removals)
    _ok(7, f"variable-elimination floors hold on {checked} branch children "
           f"(and in-op debug assertions stayed silent)")
