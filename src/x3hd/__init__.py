"""Exact Hamming-distance polynomial solver for X3SAT.

For an exactly-one 3-SAT formula the package computes, for every k, the
number of ordered solution pairs at Hamming distance k, as an exact
integer polynomial in u. The polynomial's degree is the maximum Hamming
distance between two solutions and its constant term the solution count.
"""

from .errors import InternalError, LimitError, ParseError
from .instances import Instance, default_clause_count, generate, parse, render
from .model import Formula, PairState, initial_state
from .poly import HDPoly
from .solver import SolveOptions, SolveReport, SolveStats, mhd, solve

__all__ = [
    "Formula",
    "HDPoly",
    "Instance",
    "InternalError",
    "LimitError",
    "PairState",
    "ParseError",
    "SolveOptions",
    "SolveReport",
    "SolveStats",
    "default_clause_count",
    "enumerate_solutions",
    "generate",
    "hd_oracle",
    "initial_state",
    "mhd",
    "parse",
    "render",
    "solve",
    "state_eval",
]

__version__ = "1.0.0"

# the brute-force references are not on the solve path, so `oracle` is
# imported on the first lookup of one of them, not with the package
_ORACLE_NAMES = frozenset({"enumerate_solutions", "hd_oracle", "state_eval"})


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
