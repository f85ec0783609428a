"""The benchmark's own test: every workload at a tiny size, every metric
printed with a unit, and a corrupted polynomial counted as a failure."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402
from checks import check_report, load_golden  # noqa: E402
from workloads import WORKLOADS, make_pool  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def own_modules():
    """The benchmark re-imports x3hd; give the rest of the test session its own
    module objects back afterwards."""
    saved = {k: v for k, v in sys.modules.items() if k == "x3hd" or k.startswith("x3hd.")}
    yield
    for name in [k for k in sys.modules if k == "x3hd" or k.startswith("x3hd.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def tiny_run(workload, trace):
    return bench.run(workload, seed=3, seconds=0.2, trace=trace, pool_limit=6)


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == [HERE.name]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_metric_printed_with_unit(workload, own_modules):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = tiny_run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == expected
        for m in result["metrics"].values():
            assert isinstance(m["value"], (int, float))
        json.dumps(result)


def _shift_mass(report):
    """Move 2 from the top coefficient one degree down: solution count,
    pair total, parity and degree bound all still hold, so only the golden
    digest can tell."""
    from x3hd import HDPoly, SolveReport

    terms = report.poly.terms()
    top = max(terms)
    assert top >= 2 and terms[top] >= 2
    terms[top] -= 2
    terms[top - 1] = terms.get(top - 1, 0) + 2
    poly = HDPoly(terms)
    return SolveReport(poly, poly.degree(), report.solutions, report.stats)


def test_corrupted_polynomial_counts_in_failed_frac(own_modules, monkeypatch):
    real_import = bench.fresh_import
    first_n = make_pool(WORKLOADS["sparse-search"], limit=1)[0].n

    def corrupting_import():
        x3hd = real_import()
        solve = x3hd.solve

        def corrupted(formula, opts=None):
            report = solve(formula, opts)
            return _shift_mass(report) if formula.n_vars == first_n else report

        x3hd.solve = corrupted
        return x3hd

    monkeypatch.setattr(bench, "fresh_import", corrupting_import)
    result = bench.run("sparse-search", seed=0, seconds=0.2, trace=True,
                       pool_limit=4)
    # pool entry 0 is the only instance of its size; both passes solve it once
    assert result["failed"] == 2 and result["attempted"] == 8
    assert not result["correct"]
    assert result["metrics"]["failed_frac"]["value"] == pytest.approx(0.25)


def test_rule_key_drift_is_reported(own_modules, monkeypatch, capsys):
    real_import = bench.fresh_import

    def drifting_import():
        x3hd = real_import()
        solve = x3hd.solve

        def drifted(formula, opts=None):
            report = solve(formula, opts)
            report.stats.rules["new_rule"] = 0
            return report

        x3hd.solve = drifted
        return x3hd

    monkeypatch.setattr(bench, "fresh_import", drifting_import)
    bench.run("small-batch", seed=0, seconds=0.2, trace=True, pool_limit=2)
    assert capsys.readouterr().err.count("new ['new_rule'], missing []") == 1


def test_check_report_catches_broken_invariants():
    import x3hd

    item = make_pool(WORKLOADS["small-batch"], limit=1)[0]
    digest = load_golden()["small-batch"]["digests"][0]
    report = x3hd.solve(x3hd.parse(item.text))
    assert check_report(item, report, digest) == []
    odd = x3hd.HDPoly({**report.poly.terms(), 1: report.poly.coeff(1) + 1})
    broken = x3hd.SolveReport(odd, odd.degree(), report.solutions, report.stats)
    problems = check_report(item, broken, digest)
    assert "odd coefficient at k >= 1" in problems and "differs from golden" in problems
