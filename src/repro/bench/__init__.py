"""Benchmark harness: experiment runners and report formatting.

Every table and figure of the paper's evaluation has a runner here;
``benchmarks/claims.py`` and the ``benchmarks/bench_*.py`` scripts drive
them, and so can any caller (see ``examples/``).
"""

from .reporting import format_table, format_rate, format_time
from .harness import (
    ExperimentContext,
    make_context,
    run_scheme,
    scheme_factory,
    SCHEME_NAMES,
)

__all__ = [
    "format_table",
    "format_rate",
    "format_time",
    "ExperimentContext",
    "make_context",
    "run_scheme",
    "scheme_factory",
    "SCHEME_NAMES",
]
