"""Build golden.json: one digest per pool instance of every workload.

Each instance is solved with the default SolveOptions and again with another
seed and base threshold; the two polynomials must be equal. Where n is small
enough, the brute-force oracle must agree as well. Any disagreement aborts
without writing the file.

    python3 perfbench/make_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from checks import GOLDEN_PATH, result_digest
from workloads import WORKLOADS, make_pool, pool_digest

ORACLE_MAX_N = 16


def build(workload) -> dict:
    import x3hd

    alt = x3hd.SolveOptions(seed=7, base_threshold=10)
    digests = []
    oracle_checked = 0
    pool = make_pool(workload)
    for item in pool:
        f = x3hd.parse(item.text)
        report = x3hd.solve(f)
        if x3hd.solve(f, alt).poly != report.poly:
            raise SystemExit(f"{workload.name}[{item.index}]: options disagree")
        if item.n <= ORACLE_MAX_N:
            if x3hd.hd_oracle(f) != report.poly:
                raise SystemExit(f"{workload.name}[{item.index}]: oracle disagrees")
            oracle_checked += 1
        digests.append(result_digest(item.text, report.poly))
    print(
        f"{workload.name}: {len(pool)} instances, {oracle_checked} also checked by the oracle",
        file=sys.stderr,
    )
    return {"pool_sha": pool_digest(pool), "digests": digests}


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    golden = {name: build(workload) for name, workload in WORKLOADS.items()}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
