"""x3hd benchmark: one workload, one process, every metric by name and unit.

    python3 perfbench/run.py --workload sparse-search --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The benchmark writes each workload's instances as DIMACS text, so
the program only ever sees text, and times ``x3hd.parse`` and
``x3hd.solve`` from outside.

--trace 0 prints the end-to-end metrics. A closed loop (one client, one
instance at a time) solves the pool in the order the seed picks, in whole
passes, until at least three passes and --seconds of solve-loop time are
done. The rate is the median over the passes of each pass's rate; the
percentiles are over each instance's median time across the passes. Set-up
(a fresh import plus parsing every instance text) is repeated sixty times,
spread evenly over the loop time, and the median reported.

--trace 1 prints the per-layer metrics. It solves every instance once plain
and once with every layer boundary wrapped, so its counts repeat exactly;
the time ratio of the two is the tracing overhead. Spans are written to
``.perfbench-out/``.

Every result is checked outside the timed region; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from checks import Checker, load_golden
from tracing import Tracer
from workloads import WORKLOADS, make_pool, pool_digest, run_order

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3
SETUP_SAMPLES = 60  # set-ups per run, spread evenly over its loop time


def calibrate() -> float:
    """A fixed pure-Python loop; its time tracks how fast the host runs now."""
    t0 = perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return perf_counter() - t0


def fresh_import():
    for name in [m for m in sys.modules if m == "x3hd" or m.startswith("x3hd.")]:
        del sys.modules[name]
    return importlib.import_module("x3hd")


def setup(pool) -> tuple[object, list, float]:
    """Import the program afresh and parse every instance text; timed."""
    t0 = perf_counter()
    x3hd = fresh_import()
    formulas = [x3hd.parse(item.text) for item in pool]
    return x3hd, formulas, perf_counter() - t0


@contextmanager
def frozen_heap():
    """Keep the benchmark's own objects out of the collector's scans."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def solve_pass(solve, formulas, order) -> list[tuple[int, float, object]]:
    """Solve every instance once, in `order`, one at a time; returns
    (pool index, seconds, report or exception) per call."""
    results = []
    with frozen_heap():
        for index in order:
            t0 = perf_counter()
            try:
                outcome = solve(formulas[index])
            except Exception as exc:  # a failed solve is counted, not fatal
                outcome = exc
            results.append((index, perf_counter() - t0, outcome))
    return results


def end_to_end(pool, order, check, seconds) -> tuple[dict, str]:
    """Closed loop over the pool in whole passes until at least MIN_PASSES
    passes and `seconds` of loop time are done; results are checked between
    passes, off the clock."""
    setup_times: list[float] = []
    passes: list[list[float]] = []
    loop_time = 0.0
    while len(passes) < MIN_PASSES or loop_time < seconds:
        # each set-up starts from the same heap: the last one's objects
        # collected; the pass after it solves with what it returned
        if loop_time >= len(setup_times) * seconds / SETUP_SAMPLES:
            x3hd = formulas = None
            gc.collect()
            x3hd, formulas, elapsed = setup(pool)
            setup_times.append(elapsed)
        t0 = perf_counter()
        results = solve_pass(x3hd.solve, formulas, order)
        loop_time += perf_counter() - t0
        check([(index, outcome) for index, _, outcome in results])
        passes.append([elapsed for _, elapsed, _ in results])
    # every pass solves the same instances, so the passes are repeated
    # samples of one measurement. A shared host runs slow and fast spells of
    # seconds, both ways: the best of forty passes moved by a third between
    # runs, with whether a fast spell fell into the run, while the median
    # pass moved by a twentieth. Set-up is treated alike
    typical = [statistics.median(calls) for calls in zip(*passes)]
    pass_rates = sorted(len(order) / sum(p) for p in passes)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "solves_per_s": statistics.median(pass_rates),
        "solve_s_p50": statistics.median(typical),
        "solve_s_p90": statistics.quantiles(typical, n=10, method="inclusive")[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    summary = (
        f"{len(passes)} passes of {len(order)} solves in {loop_time:.2f} s of loop time "
        f"(solves/s per pass: min {pass_rates[0]:.4g}, median "
        f"{statistics.median(pass_rates):.4g}, max {pass_rates[-1]:.4g}); "
        f"percentiles over the median of {len(passes)} times of each of "
        f"{len(typical)} instances; setup is the median of {len(setup_times)} "
        f"(fastest {min(setup_times):.4g} s)"
    )
    return metrics, summary


def per_layer(pool, order, check, trace_path: Path) -> tuple[dict, str]:
    """Parse the pool traced, then solve each instance plain and traced,
    back to back, so both timings see the same host conditions."""
    x3hd = fresh_import()
    tracer = Tracer()
    tracer.install(x3hd)
    try:
        formulas = []
        for item in pool:
            tracer.trace_id = item.index
            formulas.append(x3hd.parse(item.text))
    finally:
        tracer.restore()
    elapsed = {False: 0.0, True: 0.0}
    with frozen_heap():
        for index in order:
            outcomes = []
            for traced in (False, True):
                if traced:
                    tracer.trace_id = index
                    tracer.install(x3hd)
                t0 = perf_counter()
                try:
                    outcomes.append((index, x3hd.solve(formulas[index])))
                except Exception as exc:  # a failed solve is counted, not fatal
                    outcomes.append((index, exc))
                finally:
                    elapsed[traced] += perf_counter() - t0
                    tracer.restore()
            check(outcomes)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = elapsed[True] / elapsed[False] - 1
    metrics["failed_frac"] = check.failed / check.attempted
    tracer.write(trace_path)
    summary = (
        f"{len(order)} instances solved plain ({elapsed[False]:.2f} s) and traced "
        f"({elapsed[True]:.2f} s); {len(tracer.spans)} spans written to {trace_path}"
    )
    return metrics, summary


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        pool_limit: int | None = None) -> dict:
    workload = WORKLOADS[workload_name]
    golden = load_golden()[workload.name]
    pool = make_pool(workload, pool_limit)
    if pool_limit is None and pool_digest(pool) != golden["pool_sha"]:
        raise SystemExit("perfbench: generator output differs from golden.json; rebuild it")
    order = run_order(workload, seed, len(pool))
    check = Checker(pool, golden["digests"])
    calib_before = calibrate()
    if trace:
        trace_path = ROOT / ".perfbench-out" / f"trace-{workload.name}-seed{seed}.tsv.gz"
        metrics, summary = per_layer(pool, order, check, trace_path)
    else:
        metrics, summary = end_to_end(pool, order, check, seconds)
    calib_after = calibrate()
    if trace:
        metrics["host.calib_s"] = (calib_before + calib_after) / 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}

    print(
        f"perfbench {workload.name} seed {seed}: {summary}; host calibration loop "
        f"{calib_before:.3f} s before, {calib_after:.3f} s after",
        file=sys.stderr,
    )
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:14.6g} {unit}", file=sys.stderr)
    return {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="x3hd benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "x3hd" / "__init__.py").is_file():
        print(f"perfbench: no x3hd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
