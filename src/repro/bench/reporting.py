"""Plain-text report formatting for benchmark output.

The benchmarks print the same rows/series the paper's tables and figures
report; these helpers keep the formatting consistent and dependency-free.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, Sequence

from ..errors import ConfigError

#: Where :func:`emit` persists benchmark reports (overridable via env).
RESULTS_DIR = os.environ.get("REPRO_RESULTS_DIR", "benchmarks/results")

#: Schema version stamped into every emitted JSON artifact
#: (``metrics.json``, ``trace.json``, ``series.json``, ``alerts.json``,
#: benchmark payloads).  Bump when an artifact's shape changes
#: incompatibly; :func:`load_artifact` refuses newer-than-supported files.
SCHEMA_VERSION = 1


def format_time(seconds: float) -> str:
    """Human-readable duration with an appropriate unit."""
    if seconds < 1e-6:
        return f"{seconds * 1e9:.1f} ns"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.3f} s"


def format_rate(per_second: float) -> str:
    """Human-readable rate (inferences/sec, keys/sec, ...)."""
    if per_second >= 1e9:
        return f"{per_second / 1e9:.2f} G/s"
    if per_second >= 1e6:
        return f"{per_second / 1e6:.2f} M/s"
    if per_second >= 1e3:
        return f"{per_second / 1e3:.2f} K/s"
    return f"{per_second:.1f} /s"


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Render an aligned plain-text table."""
    cells: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        cells.append([str(c) for c in row])
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]

    def fmt_row(row: List[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(row, widths))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(cells[0]))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_row(r) for r in cells[1:])
    return "\n".join(lines)


def emit(name: str, text: str) -> str:
    """Print a benchmark report and persist it under ``RESULTS_DIR``.

    Returns the path written, for logging.
    """
    print()
    print(text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as f:
        f.write(text + "\n")
    return path


def emit_observability(snapshot, tracer) -> List[str]:
    """Persist a run's registry snapshot and span trace under ``RESULTS_DIR``.

    Writes ``metrics.json`` (the :class:`~repro.obs.MetricsSnapshot`
    rendered via ``to_dict`` — counters, gauges, histograms) and
    ``trace.json`` (the :class:`~repro.obs.SpanTracer` exported in the
    Chrome trace-event format; load in ``chrome://tracing`` or Perfetto).
    Both carry the ``version`` schema stamp.  Returns the two paths
    written.
    """
    paths = [emit_json("metrics", snapshot.to_dict())]
    paths.append(emit_json("trace", tracer.to_chrome_trace()))
    return paths


def emit_timeseries(collector) -> List[str]:
    """Persist a run's windowed series and alert history.

    Writes ``series.json`` (the
    :class:`~repro.obs.timeseries.WindowedCollector` ring buffer) and —
    when an SLO engine is attached to the collector — ``alerts.json`` (the
    :class:`~repro.obs.alerts.SloEngine` payload).  Returns the paths
    written.
    """
    paths = [emit_json("series", collector.to_payload())]
    engine = collector.engine
    if engine is not None:
        paths.append(emit_json("alerts", engine.to_payload()))
    return paths


def emit_json(name: str, payload: object) -> str:
    """Persist a machine-readable benchmark result under ``RESULTS_DIR``.

    ``payload`` must be JSON-serialisable (dicts/lists of plain numbers
    and strings).  Dict payloads are stamped with the artifact
    ``version`` (:data:`SCHEMA_VERSION`).  Written as ``<name>.json``
    next to the text reports so downstream tooling (CI trend tracking,
    plotting) can consume the same numbers the text tables show.
    Returns the path written.
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    if isinstance(payload, dict) and "version" not in payload:
        payload = {"version": SCHEMA_VERSION, **payload}
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def load_artifact(path: str, kind: Optional[str] = None) -> dict:
    """Load an emitted JSON artifact, checking its schema version.

    Raises :class:`~repro.errors.ConfigError` when the file is not a JSON
    object, carries no ``version``, declares a version newer than this
    code supports, or (``kind`` given) declares a different ``kind``.
    """
    with open(path) as f:
        payload = json.load(f)
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: artifact must be a JSON object")
    version = payload.get("version")
    if not isinstance(version, int):
        raise ConfigError(f"{path}: missing integer 'version' field")
    if version > SCHEMA_VERSION:
        raise ConfigError(
            f"{path}: artifact version {version} is newer than supported "
            f"version {SCHEMA_VERSION}"
        )
    if kind is not None and payload.get("kind") != kind:
        raise ConfigError(
            f"{path}: expected kind {kind!r}, got {payload.get('kind')!r}"
        )
    return payload
