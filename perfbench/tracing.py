"""Per-layer tracing from outside the program.

The tracer replaces each public function of a layer with a wrapper at the
place where its caller looks it up (for example ``x3hd.solver.simplify_fixpoint``
and ``x3hd.branching.simplify_fixpoint`` are wrapped separately) and puts
every original back in ``restore``. Nothing under ``src/`` is edited.

Spans are kept in memory as (trace id, parent span, name, start, end) with
one trace id per instance; self times are computed from them afterwards.
Counts are taken at the same boundaries from the wrapped calls' results.
"""

from __future__ import annotations

import gzip
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# solver statistics read from SolveStats; the rule keys are the ones the
# solver defined when the benchmark was written, and a solve whose key set
# differs is reported on standard error
STAT_KEYS = ("nodes", "leaves", "max_depth", "branched_vars")
RULE_KEYS = (
    "case1_i", "dedup", "case1_ii", "case1_iii", "case1_iv", "case1_v",
    "case1_vi1", "case1_vi2", "case1_vi3", "case1_vii", "prop3_fallback",
    "case2_split", "component_split", "base",
)

# (module under x3hd, attribute, span name); one entry per binding site
SOLVER_BINDINGS = (
    ("solver", "simplify_fixpoint", "simplify.fixpoint"),
    ("branching", "simplify_fixpoint", "simplify.fixpoint"),
    ("decompose", "simplify_fixpoint", "simplify.fixpoint"),
    ("solver", "pick_high_degree_var", "branching.detect"),
    ("solver", "find_config", "branching.detect"),
    ("solver", "branch_high_degree_var", "branching.branch"),
    ("solver", "branch_semiisolated_2", "branching.branch"),
    ("solver", "branch_semiisolated_3", "branching.branch"),
    ("solver", "branch_four_neighbour", "branching.branch"),
    ("solver", "eliminate_semiisolated_1", "branching.branch"),
    ("solver", "connected_components", "decompose.components"),
    ("solver", "build_clause_graph", "decompose.bisect"),
    ("solver", "balanced_bisection", "decompose.bisect"),
    ("solver", "branch_cut_variables", "decompose.cut_branch"),
    ("solver", "brute_force_base", "decompose.base"),
)

class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # a slot is None only while its call runs
        self.trace_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        self._reported_keys: set[frozenset] = set()  # rule key sets that differed

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace owner.attr by a recording wrapper; observe(result), if
        given, runs after the span has closed, so its cost lands in the
        caller's self time."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                out = original(*args, **kwargs)
            finally:
                spans[sid] = (self.trace_id, parent, name, start, perf_counter())
                stack.pop()
            if observe is not None:
                observe(out)
            return out

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self, x3hd) -> None:
        """Wrap parse, solve and every layer boundary of the solver."""
        counts, reported_keys = self.counts, self._reported_keys

        def on_solve(report):
            stats = report.stats
            keys = frozenset(stats.rules)
            if keys != frozenset(RULE_KEYS) and keys not in reported_keys:
                reported_keys.add(keys)
                print(
                    f"perfbench: SolveStats.rules keys differ from tracing.RULE_KEYS: "
                    f"new {sorted(keys - set(RULE_KEYS))}, "
                    f"missing {sorted(set(RULE_KEYS) - keys)}",
                    file=sys.stderr,
                )
            for key in ("nodes", "leaves", "branched_vars"):
                counts[f"solver.{key}"] += getattr(stats, key)
            counts["solver.max_depth"] = max(counts["solver.max_depth"], stats.max_depth)
            for key in RULE_KEYS:
                counts[f"rules.{key}"] += stats.rules.get(key, 0)
            bits = max((c.bit_length() for c in report.poly.terms().values()), default=0)
            counts["poly.max_coeff_bits"] = max(counts["poly.max_coeff_bits"], bits)

        def on_simplify(st):
            counts["simplify.zero"] += st is None

        def on_branch(children):
            counts["branching.children"] += len(children)
            counts["branching.dead"] += sum(child is None for child in children)

        def on_bisection(bisection):
            counts["decompose.cut_vars"] += len(bisection.cut_vars)

        def on_base(poly):
            counts["decompose.base_zero"] += poly.is_zero()

        # keyed by the wrapped function; eliminate_semiisolated_1 returns a
        # single reduced state, not a list of children
        observers = {
            "simplify_fixpoint": on_simplify,
            "branch_high_degree_var": on_branch,
            "branch_semiisolated_2": on_branch,
            "branch_semiisolated_3": on_branch,
            "branch_four_neighbour": on_branch,
            "balanced_bisection": on_bisection,
            "brute_force_base": on_base,
        }
        self.wrap(x3hd, "parse", "instances.parse")
        self.wrap(x3hd, "solve", "solver.solve", on_solve)
        for module, attr, name in SOLVER_BINDINGS:
            self.wrap(getattr(x3hd, module), attr, name, observers.get(attr))
        self.wrap(x3hd.HDPoly, "__mul__", "poly.mul")
        self.wrap(x3hd.HDPoly, "__add__", "poly.add")

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Self time and call count per span name, plus the counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, parent, _, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (_, _, name, start, end), inner in zip(spans, child_time):
            self_s[name] += end - start - inner
            calls[name] += 1
        c = self.counts

        def ratio(part: str, whole: int) -> float:
            return c[part] / whole if whole else 0.0

        return {
            "instances.parse_s": self_s["instances.parse"],
            "instances.parse_calls": calls["instances.parse"],
            "solver.self_s": self_s["solver.solve"],
            "solver.calls": calls["solver.solve"],
            **{f"solver.{key}": c[f"solver.{key}"] for key in STAT_KEYS},
            **{f"rules.{key}": c[f"rules.{key}"] for key in RULE_KEYS},
            "simplify.self_s": self_s["simplify.fixpoint"],
            "simplify.calls": calls["simplify.fixpoint"],
            "simplify.zero_ratio": ratio("simplify.zero", calls["simplify.fixpoint"]),
            "branching.detect_s": self_s["branching.detect"],
            "branching.detect_calls": calls["branching.detect"],
            "branching.branch_s": self_s["branching.branch"],
            "branching.branch_calls": calls["branching.branch"],
            "branching.children": c["branching.children"],
            "branching.dead_child_ratio": ratio("branching.dead", c["branching.children"]),
            "decompose.components_s": self_s["decompose.components"],
            "decompose.components_calls": calls["decompose.components"],
            "decompose.bisect_s": self_s["decompose.bisect"],
            "decompose.bisect_calls": calls["decompose.bisect"],
            "decompose.cut_vars": c["decompose.cut_vars"],
            "decompose.cut_branch_s": self_s["decompose.cut_branch"],
            "decompose.base_s": self_s["decompose.base"],
            "decompose.base_calls": calls["decompose.base"],
            "decompose.base_zero_ratio": ratio("decompose.base_zero", calls["decompose.base"]),
            "poly.mul_s": self_s["poly.mul"],
            "poly.mul_calls": calls["poly.mul"],
            "poly.add_s": self_s["poly.add"],
            "poly.add_calls": calls["poly.add"],
            "poly.max_coeff_bits": c["poly.max_coeff_bits"],
            "trace.spans": len(spans),
        }

    def write(self, path: Path) -> None:
        """Spans as gzipped TSV: trace id, span id, parent span id, name,
        start and end in microseconds from the first span."""
        origin = self.spans[0][3] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("trace\tspan\tparent\tname\tstart_us\tend_us\n")
            for sid, (tid, parent, name, start, end) in enumerate(self.spans):
                fh.write(
                    f"{tid}\t{sid}\t{parent}\t{name}\t"
                    f"{(start - origin) * 1e6:.1f}\t{(end - origin) * 1e6:.1f}\n"
                )
