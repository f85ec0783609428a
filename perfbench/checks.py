"""Result checks: algebraic invariants of an HD-polynomial plus the golden file.

Every check runs outside the timed region. A result that fails any of them
counts as a failed solve.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")
MAX_REPORTED = 5  # failures described on standard error per run


def result_digest(text: str, poly) -> str:
    """Digest binding an instance text to its polynomial's exact terms, so a
    changed generator shows up as loudly as a wrong result."""
    h = hashlib.sha256(text.encode())
    h.update(json.dumps(poly.to_pairs(), separators=(",", ":")).encode())
    return h.hexdigest()[:12]


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def check_report(item, report, golden_digest: str | None) -> list[str]:
    """Problems with one solve result; empty when it passes every check."""
    poly = report.poly
    count = poly.coeff(0)
    problems = []
    if report.solutions != count:
        problems.append(f"solutions {report.solutions} != coeff(0) {count}")
    if poly.total() != count * count:
        problems.append("total() != solutions^2")
    terms = poly.terms()
    if any(coeff % 2 for deg, coeff in terms.items() if deg >= 1):
        problems.append("odd coefficient at k >= 1")
    if terms and max(terms) > item.n:
        problems.append(f"degree {max(terms)} > n = {item.n}")
    if report.max_hd != (max(terms) if terms else None):
        problems.append("max_hd != degree")
    if item.planted and count < 1:
        problems.append("planted instance without a solution")
    if golden_digest is None:
        problems.append("no golden entry")
    elif result_digest(item.text, poly) != golden_digest:
        problems.append("differs from golden")
    return problems


class Checker:
    """Counts attempted and failed solves; call it with (pool index,
    report or exception) pairs."""

    def __init__(self, pool, golden_digests: list[str]):
        self.pool = pool
        self.golden = golden_digests
        self.attempted = 0
        self.failed = 0

    def __call__(self, results) -> None:
        for index, outcome in results:
            self.attempted += 1
            if isinstance(outcome, Exception):
                problems = [f"raised {outcome!r}"]
            else:
                digest = self.golden[index] if index < len(self.golden) else None
                problems = check_report(self.pool[index], outcome, digest)
            if problems:
                self.failed += 1
                if self.failed <= MAX_REPORTED:
                    print(f"FAILED instance {index}: {'; '.join(problems)}", file=sys.stderr)
