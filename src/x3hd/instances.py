"""Instance text format, parser and seeded generator.

Format: 'c' comment lines anywhere, one 'p x3sat N M' header, then M
clause lines of 1..3 nonzero integers in [-N, N] closed by a 0. A
negative integer is a negated variable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .errors import ParseError
from .model import Formula, to_dimacs


@dataclass(frozen=True)
class Instance:
    """A formula plus the provenance of its generation."""

    formula: Formula
    meta: dict = field(default_factory=dict, compare=False)


def parse(text: str) -> Formula:
    n_vars = None
    n_clauses = None
    clauses: list[list[int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n_vars is not None:
                raise ParseError("duplicate header", line_no)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "x3sat":
                raise ParseError("header must be 'p x3sat N M'", line_no)
            try:
                n_vars, n_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("header counts must be integers", line_no) from None
            if n_vars < 0 or n_clauses < 0:
                raise ParseError("header counts must be nonnegative", line_no)
            continue
        if n_vars is None:
            raise ParseError("clause before header", line_no)
        try:
            numbers = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError("clause lines must contain integers", line_no) from None
        if not numbers or numbers[-1] != 0:
            raise ParseError("clause line must end with 0", line_no)
        body = numbers[:-1]
        if 0 in body:
            raise ParseError("literal 0 inside clause", line_no)
        if not 1 <= len(body) <= 3:
            raise ParseError(f"clause arity {len(body)} outside 1..3", line_no)
        for lit in body:
            if abs(lit) > n_vars:
                raise ParseError(f"literal {lit} out of range", line_no)
        clauses.append(body)
    if n_vars is None:
        raise ParseError("missing header", 1)
    if len(clauses) != n_clauses:
        raise ParseError(
            f"header announced {n_clauses} clauses, found {len(clauses)}",
            len(text.splitlines()) or 1,
        )
    return Formula.from_dimacs(clauses, n_vars)


def render(item: Instance | Formula) -> str:
    if isinstance(item, Instance):
        formula = item.formula
        comments = [f"c {key} = {value}" for key, value in sorted(item.meta.items())]
    else:
        formula = item
        comments = []
    lines = comments + [f"p x3sat {formula.n_vars} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(to_dimacs(lit)) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def default_clause_count(n: int) -> int:
    """Default density: the decomposition regime packs at most 2n/3
    dissimilar clauses, so aim there."""
    return max(1, (2 * n) // 3)


def generate(n: int, m: int, seed: int = 0, planted: bool = False) -> Instance:
    """Seeded random instance with three distinct variables per clause.

    Planted mode draws a hidden assignment first and makes exactly one
    literal true under it in every clause, guaranteeing a solution.
    """
    if n < 3:
        raise ValueError("need at least 3 variables")
    if m < 1:
        raise ValueError("need at least 1 clause")
    rng = random.Random(seed)
    hidden = [rng.randrange(2) for _ in range(n + 1)] if planted else None
    clauses: list[list[int]] = []
    for _ in range(m):
        variables = rng.sample(range(1, n + 1), 3)
        if planted:
            true_pos = rng.randrange(3)
            clause = []
            for pos, v in enumerate(variables):
                value = 1 if pos == true_pos else 0
                clause.append(v if hidden[v] == value else -v)
        else:
            clause = [v if rng.randrange(2) == 0 else -v for v in variables]
        clauses.append(clause)
    meta = {"generator": "x3hd", "n": n, "m": m, "seed": seed, "planted": planted}
    return Instance(Formula.from_dimacs(clauses, n), meta)
