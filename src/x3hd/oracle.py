"""Ground-truth reference semantics by exhaustive enumeration.

Everything here is deliberately direct: full assignment sweeps with no
rewriting, so the solver can be checked against an independent path.
"""

from __future__ import annotations

from itertools import product

from .errors import LimitError
from .model import Formula, PairState, clause_satisfied, clause_vars
from .poly import ONE, ZERO, HDPoly

DEFAULT_SOLUTION_LIMIT = 24
DEFAULT_STATE_LIMIT = 12

# Above this many solution pairs the quadratic histogram loop gives way to a
# Walsh-Hadamard XOR convolution over the full cube (exact, integer-only).
_PAIR_LOOP_CUTOFF = 250_000


def enumerate_solutions(f: Formula, limit: int | None = DEFAULT_SOLUTION_LIMIT) -> list[int]:
    """All satisfying assignments as bitmasks (bit v-1 holds variable v).

    Sweeps all 2^n assignments; refuses n beyond `limit` (pass a larger
    limit or None to override).
    """
    n = f.n_vars
    if limit is not None and n > limit:
        raise LimitError(f"brute force over {n} variables exceeds limit {limit}")
    compiled = []
    for clause in f.clauses:
        consts = sum(1 for lit in clause if lit == 1)
        bits = [((lit >> 1) - 1, lit & 1) for lit in clause if lit >= 2]
        compiled.append((consts, bits))
    solutions = []
    for mask in range(1 << n):
        ok = True
        for consts, bits in compiled:
            count = consts
            for pos, neg in bits:
                count += ((mask >> pos) & 1) ^ neg
            if count != 1:
                ok = False
                break
        if ok:
            solutions.append(mask)
    return solutions


def _distance_histogram_loop(masks: list[int]) -> dict[int, int]:
    hist: dict[int, int] = {0: len(masks)}
    for i in range(len(masks)):
        mi = masks[i]
        for j in range(i + 1, len(masks)):
            d = bin(mi ^ masks[j]).count("1")
            hist[d] = hist.get(d, 0) + 2
    return hist


def _distance_histogram_wht(masks: list[int], n: int) -> dict[int, int]:
    # pair count at XOR-difference d is the XOR autocorrelation of the
    # indicator vector, computed exactly via two Walsh-Hadamard passes
    size = 1 << n
    vec = [0] * size
    for m in masks:
        vec[m] += 1
    for pass_squared in (False, True):
        h = 1
        while h < size:
            for start in range(0, size, h * 2):
                for idx in range(start, start + h):
                    a, b = vec[idx], vec[idx + h]
                    vec[idx], vec[idx + h] = a + b, a - b
            h *= 2
        if not pass_squared:
            vec = [v * v for v in vec]
    hist: dict[int, int] = {}
    for d, value in enumerate(vec):
        if value:
            k = bin(d).count("1")
            hist[k] = hist.get(k, 0) + value // size
    return hist


def _parts(f: Formula) -> list[Formula]:
    """Split f into variable-disjoint formulas, each over its own variables
    renumbered 1..k in order of first occurrence. A clause of constants
    alone is a part with no variables. Variables in no clause are left out.
    """
    parent: dict[int, int] = {}

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for clause in f.clauses:
        variables = [lit >> 1 for lit in clause if lit >= 2]
        for v in variables:
            parent.setdefault(v, v)
        for v in variables[1:]:
            parent[root(v)] = root(variables[0])
    grouped: dict[object, list] = {}
    for idx, clause in enumerate(f.clauses):
        key = next((root(lit >> 1) for lit in clause if lit >= 2), ("constants", idx))
        grouped.setdefault(key, []).append(clause)
    parts = []
    for clauses in grouped.values():
        renamed: dict[int, int] = {}
        for clause in clauses:
            for lit in clause:
                if lit >= 2:
                    renamed.setdefault(lit >> 1, len(renamed) + 1)
        parts.append(Formula(
            tuple(tuple(lit if lit < 2 else 2 * renamed[lit >> 1] + (lit & 1) for lit in clause)
                  for clause in clauses),
            len(renamed),
        ))
    return parts


def _part_poly(f: Formula) -> HDPoly:
    masks = enumerate_solutions(f, limit=None)
    if not masks:
        return ZERO
    if len(masks) * len(masks) <= _PAIR_LOOP_CUTOFF or f.n_vars > 16:
        hist = _distance_histogram_loop(masks)
    else:
        hist = _distance_histogram_wht(masks, f.n_vars)
    return HDPoly(hist)


def hd_oracle(f: Formula, limit: int | None = DEFAULT_SOLUTION_LIMIT) -> HDPoly:
    """Coefficient of u^k = number of ordered solution pairs at distance k.

    Solution pairs of variable-disjoint parts combine freely and their
    distances add, so the polynomial is the product of the parts'
    polynomials, each by brute force, times (2 + 2u) for each variable in
    no clause. `limit` bounds the variables of the largest part.
    """
    parts = _parts(f)
    largest = max((part.n_vars for part in parts), default=0)
    if limit is not None and largest > limit:
        raise LimitError(f"brute force over a part of {largest} variables exceeds limit {limit}")
    total = HDPoly({0: 2, 1: 2}) ** (f.n_vars - sum(part.n_vars for part in parts))
    # smallest first, so an unsatisfiable small part spares the large ones
    for part in sorted(parts, key=lambda part: part.n_vars):
        total = total * _part_poly(part)
        if not total:
            break
    return total


def _satisfying_assignments(clauses, s: dict[int, int], variables: list[int]):
    """All value tuples over `variables` consistent with s that satisfy
    every clause with exactly one true literal."""
    out = []
    for bits in product((0, 1), repeat=len(variables)):
        values = dict(zip(variables, bits))
        if any(values[v] != s[v] for v in values if v in s):
            continue
        if all(clause_satisfied(cl, values) for cl in clauses):
            out.append(bits)
    return out


def _consistent_weight_sum(st: PairState, v: int) -> HDPoly:
    f0, f1 = st.fixed
    ivals = (f0[v],) if v in f0 else (0, 1)
    jvals = (f1[v],) if v in f1 else (0, 1)
    acc = ZERO
    for i in ivals:
        for j in jvals:
            acc = acc + st.weights[v][2 * i + j]
    return acc


def state_eval(st: PairState, limit: int | None = DEFAULT_STATE_LIMIT) -> HDPoly:
    """Direct evaluation of the quantity the solver recursion computes:

        p_main * sum over satisfying pairs (b1, b2) on V of
                 prod over x in V of weights[x][b1(x), b2(x)]

    where b1/b2 must satisfy side 0/side 1 of the pair clauses and agree
    with fixed[0]/fixed[1]. Each side is read back as formula clauses, so
    the check goes through `clause_satisfied` and none of the solver's
    predicates.
    """
    if limit is not None and len(st.V) > limit:
        raise LimitError(f"state evaluation over {len(st.V)} variables exceeds limit {limit}")
    occ = {v for cl in st.clauses for v in clause_vars(cl)}
    core = sorted(occ)
    sats1, sats2 = (
        _satisfying_assignments(
            [tuple(2 * (p >> 2) + ((p >> side) & 1) for p in cl) for cl in st.clauses], s, core
        )
        for side, s in enumerate(st.fixed)
    )
    total = ZERO
    for b1 in sats1:
        for b2 in sats2:
            term = ONE
            for idx, v in enumerate(core):
                term = term * st.weights[v][2 * b1[idx] + b2[idx]]
            total = total + term
    for v in sorted(st.V - occ):
        total = total * _consistent_weight_sum(st, v)
    return st.p_main * total
