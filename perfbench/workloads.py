"""The benchmark's workloads: a seeded instance generator and the pools it fills.

Every workload is a fixed pool of instances. Pool entry ``i`` is generated
from its own seed (the workload name and ``i``), so the pool never depends
on the run and each entry has a golden result in ``golden.json``. A run's
``--seed`` picks the order in which the pool is solved. Runs solve the pool
in whole passes, so every seed measures the same multiset of solves and the
spread between runs is the host's, not the sample's.

The generator is the benchmark's own and deliberately does not call
``x3hd.generate``: a change to the program's generator must not silently
change what the benchmark measures. The program only ever sees the DIMACS
text written here.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Item:
    """One instance: its pool index, variable count, whether it has a
    planted solution, and its DIMACS text."""

    index: int
    n: int
    planted: bool
    text: str


def _sparse_search(rng: random.Random, index: int) -> tuple[int, int, bool]:
    # m = n/3 is the only density where branching, bisection, component
    # splits, brute-force leaves and wide polynomials all fire
    n = 24 + index % 13
    return n, n // 3, True


def _small_batch(rng: random.Random, index: int) -> tuple[int, int, bool]:
    # many tiny solves, half of them uniform random and often unsatisfiable
    n = 8 + index % 13
    return n, rng.randint(1, n), index % 2 == 0


@dataclass(frozen=True)
class Workload:
    name: str
    pool: int  # instances in the pool, all covered by the golden file
    shape: Callable[[random.Random, int], tuple[int, int, bool]]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sparse-search", pool=104, shape=_sparse_search),
        Workload("small-batch", pool=260, shape=_small_batch),
    )
}


def write_instance(n: int, m: int, planted: bool, rng: random.Random) -> str:
    """DIMACS text of a random X3SAT instance with three distinct variables
    per clause. A planted instance draws a hidden assignment first and makes
    exactly one literal of every clause true under it."""
    hidden = [rng.randrange(2) for _ in range(n + 1)]
    lines = [f"p x3sat {n} {m}"]
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), 3)
        if planted:
            true_pos = rng.randrange(3)
            lits = [
                v if hidden[v] == (pos == true_pos) else -v
                for pos, v in enumerate(variables)
            ]
        else:
            lits = [v if rng.randrange(2) else -v for v in variables]
        lines.append(" ".join(map(str, lits)) + " 0")
    return "\n".join(lines) + "\n"


def make_item(workload: Workload, index: int) -> Item:
    rng = random.Random(f"{workload.name}:{index}")
    n, m, planted = workload.shape(rng, index)
    return Item(index, n, planted, write_instance(n, m, planted, rng))


def make_pool(workload: Workload, limit: int | None = None) -> list[Item]:
    size = workload.pool if limit is None else min(limit, workload.pool)
    return [make_item(workload, i) for i in range(size)]


def run_order(workload: Workload, seed: int, size: int) -> list[int]:
    """The order in which a run with this seed visits the pool."""
    order = list(range(size))
    random.Random(f"{workload.name}:order:{seed}").shuffle(order)
    return order


def pool_digest(items: list[Item]) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.text.encode())
    return h.hexdigest()[:16]
