"""OpenMetrics text exposition and the embedded metrics HTTP server.

:func:`render_openmetrics` turns a :class:`~repro.obs.MetricsSnapshot`
into the OpenMetrics text format (the Prometheus exposition format's
standardised successor): one ``# TYPE`` block per metric family, counter
samples suffixed ``_total``, histogram families rendered as cumulative
``_bucket{le=...}`` samples plus ``_count``/``_sum``, and the mandatory
``# EOF`` terminator.  Metric and label names are sanitised to the
OpenMetrics grammar (dots become underscores: ``cache.hits`` exposes as
``cache_hits_total``).

:func:`parse_openmetrics` is the matching strict parser — used by the
round-trip tests and by anything that wants to scrape-and-check without a
real Prometheus — and :class:`MetricsHttpServer` mounts three handlers on
a stdlib HTTP server that can attach to a live serving run:

* ``GET /metrics`` — the OpenMetrics exposition of the live registry
  (plus alert states as gauges when an SLO engine is attached);
* ``GET /healthz`` — JSON liveness: ``ok`` or ``alerting`` plus the
  firing rule names and the collector watermark;
* ``GET /series``  — the windowed collector's ring buffer as JSON (the
  same payload ``series.json`` persists).

Everything is stdlib-only; the server binds loopback by default and runs
on a daemon thread so a simulated run can be scraped while (or after) it
executes.
"""

from __future__ import annotations

import json
import math
import re
import threading
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError
from .registry import (
    HistogramStats,
    LabelSet,
    MetricsRegistry,
    MetricsSnapshot,
)

#: OpenMetrics metric-name grammar.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
#: One exposition sample line: ``name{labels} value`` (timestamp omitted).
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

#: Suffixes OpenMetrics attaches to family names, by family type.
_SUFFIXES = {
    "counter": ("_total",),
    "gauge": ("",),
    "histogram": ("_bucket", "_count", "_sum"),
}

CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)


def metric_name(name: str) -> str:
    """Sanitise a registry metric name to the OpenMetrics grammar."""
    out = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not out or not _NAME_RE.match(out):
        out = "_" + out
    return out


def _escape(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _labels_text(labels: LabelSet, extra: str = "") -> str:
    parts = [f'{metric_name(k)}="{_escape(v)}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _format_bound(bound: float) -> str:
    return "+Inf" if math.isinf(bound) else f"{bound:g}"


def render_openmetrics(
    snapshot: MetricsSnapshot,
    engine=None,
    collector=None,
) -> str:
    """Render a registry snapshot as OpenMetrics text.

    ``engine`` (an :class:`~repro.obs.alerts.SloEngine`) adds per-rule
    ``slo_alert_firing`` gauges; ``collector`` adds window bookkeeping
    gauges (``obs_windows_closed``, ``obs_watermark_seconds``).
    """
    lines: List[str] = []

    def family(name: str, kind: str) -> str:
        safe = metric_name(name)
        lines.append(f"# TYPE {safe} {kind}")
        return safe

    for name in sorted({n for (n, _) in snapshot.counters}):
        safe = family(name, "counter")
        for (n, labels), value in sorted(snapshot.counters.items()):
            if n != name:
                continue
            lines.append(
                f"{safe}_total{_labels_text(labels)} {_format_value(value)}"
            )
    for name in sorted({n for (n, _) in snapshot.gauges}):
        safe = family(name, "gauge")
        for (n, labels), value in sorted(snapshot.gauges.items()):
            if n != name:
                continue
            lines.append(
                f"{safe}{_labels_text(labels)} {_format_value(value)}"
            )
    for name in sorted({n for (n, _) in snapshot.histograms}):
        safe = family(name, "histogram")
        for (n, labels), stats in sorted(snapshot.histograms.items()):
            if n != name:
                continue
            for bound, cumulative in stats.cumulative_buckets():
                extra = f'le="{_format_bound(bound)}"'
                lines.append(
                    f"{safe}_bucket{_labels_text(labels, extra)} "
                    f"{_format_value(cumulative)}"
                )
            lines.append(
                f"{safe}_count{_labels_text(labels)} "
                f"{_format_value(stats.count)}"
            )
            lines.append(
                f"{safe}_sum{_labels_text(labels)} "
                f"{_format_value(stats.total)}"
            )

    if engine is not None:
        firing = {alert.rule for alert in engine.firing}
        lines.append("# TYPE slo_alert_firing gauge")
        for rule in engine.rules:
            flag = 1 if rule.name in firing else 0
            lines.append(
                f'slo_alert_firing{{rule="{_escape(rule.name)}",'
                f'slo="{_escape(rule.slo)}"}} {flag}'
            )
    if collector is not None:
        lines.append("# TYPE obs_windows_closed gauge")
        lines.append(f"obs_windows_closed {collector.closed_windows}")
        lines.append("# TYPE obs_watermark_seconds gauge")
        lines.append(
            f"obs_watermark_seconds {_format_value(float(collector.watermark))}"
        )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def parse_openmetrics(text: str) -> Dict[str, dict]:
    """Strict parse of OpenMetrics text; raises :class:`ConfigError` on
    any grammar violation.

    Returns ``{family: {"type": kind, "samples": [(name, labels, value)]}}``
    — the shape the round-trip tests compare against the source registry.
    """
    if not text.endswith("\n"):
        raise ConfigError("exposition must end with a newline")
    lines = text.split("\n")[:-1]
    if not lines or lines[-1] != "# EOF":
        raise ConfigError("exposition must terminate with '# EOF'")
    families: Dict[str, dict] = {}
    current: Optional[str] = None
    for lineno, line in enumerate(lines[:-1], start=1):
        if not line:
            raise ConfigError(f"line {lineno}: blank line in exposition")
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 4 or parts[0] != "#" or parts[1] not in (
                "TYPE", "HELP", "UNIT"
            ):
                raise ConfigError(f"line {lineno}: malformed comment {line!r}")
            name = parts[2]
            if not _NAME_RE.match(name):
                raise ConfigError(f"line {lineno}: bad family name {name!r}")
            if parts[1] == "TYPE":
                kind = parts[3]
                if kind not in ("counter", "gauge", "histogram", "summary",
                                "unknown", "info", "stateset"):
                    raise ConfigError(f"line {lineno}: bad type {kind!r}")
                if name in families:
                    raise ConfigError(
                        f"line {lineno}: duplicate family {name!r}"
                    )
                families[name] = {"type": kind, "samples": []}
                current = name
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ConfigError(f"line {lineno}: malformed sample {line!r}")
        sample = match.group("name")
        if current is None:
            raise ConfigError(
                f"line {lineno}: sample {sample!r} before any # TYPE"
            )
        kind = families[current]["type"]
        suffixes = _SUFFIXES.get(kind, ("",))
        if not any(sample == current + suffix for suffix in suffixes):
            raise ConfigError(
                f"line {lineno}: sample {sample!r} does not belong to "
                f"family {current!r} ({kind})"
            )
        raw = match.group("labels")
        labels: Dict[str, str] = {}
        if raw:
            consumed = 0
            for label_match in _LABEL_RE.finditer(raw):
                labels[label_match.group(1)] = label_match.group(2)
                consumed += len(label_match.group(0))
            if consumed + raw.count(",") != len(raw):
                raise ConfigError(f"line {lineno}: malformed labels {raw!r}")
        token = match.group("value")
        try:
            value = float(token.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value {token!r}")
        families[current]["samples"].append((sample, labels, value))
    return families


def _parse_rendered_key(rendered: str) -> Tuple[str, LabelSet]:
    """Invert :func:`~repro.obs.registry.render_key`."""
    if "{" not in rendered:
        return rendered, ()
    if not rendered.endswith("}"):
        raise ConfigError(f"malformed metric key {rendered!r}")
    name, _, inner = rendered[:-1].partition("{")
    labels = []
    for part in inner.split(","):
        key, sep, value = part.partition("=")
        if not sep:
            raise ConfigError(f"malformed metric key {rendered!r}")
        labels.append((key, value))
    return name, tuple(sorted(labels))


def snapshot_from_payload(payload: dict) -> MetricsSnapshot:
    """Rebuild a :class:`MetricsSnapshot` from a ``metrics.json`` payload
    (the ``to_dict`` form) — so persisted artifacts can be re-rendered as
    OpenMetrics text offline (``repro obs render``)."""
    counters = {
        _parse_rendered_key(k): v
        for k, v in payload.get("counters", {}).items()
    }
    gauges = {
        _parse_rendered_key(k): v
        for k, v in payload.get("gauges", {}).items()
    }
    histograms = {}
    for rendered, stats in payload.get("histograms", {}).items():
        bounds: Tuple[float, ...] = ()
        bucket_counts: Tuple[int, ...] = ()
        if "buckets" in stats:
            pairs = sorted(
                (float(label.split("=", 1)[1]), count)
                for label, count in stats["buckets"].items()
            )
            bounds = tuple(bound for bound, _ in pairs)
            bucket_counts = tuple(count for _, count in pairs)
        histograms[_parse_rendered_key(rendered)] = HistogramStats(
            count=stats.get("count", 0),
            total=stats.get("sum", 0.0),
            minimum=stats.get("min", float("inf")),
            maximum=stats.get("max", float("-inf")),
            bounds=bounds,
            bucket_counts=bucket_counts,
        )
    return MetricsSnapshot(counters, gauges, histograms)


# --------------------------------------------------------------------------
# HTTP server
# --------------------------------------------------------------------------


class MetricsHttpServer:
    """Serves ``/metrics``, ``/healthz`` and ``/series`` for a live run.

    The server snapshots the registry on every scrape, so attaching it to
    a running (or finished) serving loop requires no coordination beyond
    sharing the registry/collector/engine objects.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        collector=None,
        engine=None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registry = registry
        self.collector = collector
        self.engine = engine
        self._host = host
        self._requested_port = port
        self._server = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------- lifecycle

    def start(self) -> "MetricsHttpServer":
        if self._server is not None:
            raise ConfigError("metrics server already started")
        # Imported here: the HTTP stack (socketserver, http.client, ssl)
        # is only loaded by a run that scrapes, not by ``import repro``.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        owner = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):  # noqa: N802 - stdlib name
                pass

            def do_GET(self):  # noqa: N802 - stdlib name
                body, status, content_type = owner._respond(self.path)
                payload = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

        self._server = ThreadingHTTPServer(
            (self._host, self._requested_port), Handler
        )
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-metrics",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def port(self) -> int:
        if self._server is None:
            raise ConfigError("metrics server is not running")
        return self._server.server_address[1]

    def url(self, path: str = "/metrics") -> str:
        return f"http://{self._host}:{self.port}{path}"

    def close(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
            self._thread = None

    def __enter__(self) -> "MetricsHttpServer":
        return self.start() if self._server is None else self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- handlers

    def _respond(self, path: str) -> Tuple[str, int, str]:
        path = path.split("?", 1)[0]
        if path == "/metrics":
            text = render_openmetrics(
                self.registry.snapshot(),
                engine=self.engine,
                collector=self.collector,
            )
            return text, 200, CONTENT_TYPE
        if path == "/healthz":
            firing = ([a.rule for a in self.engine.firing]
                      if self.engine is not None else [])
            body = {
                "status": "alerting" if firing else "ok",
                "firing": firing,
                "windows": (self.collector.closed_windows
                            if self.collector is not None else 0),
                "watermark": (float(self.collector.watermark)
                              if self.collector is not None else 0.0),
            }
            return (json.dumps(body, sort_keys=True) + "\n", 200,
                    "application/json; charset=utf-8")
        if path == "/series":
            if self.collector is None:
                return ('{"error": "no collector attached"}\n', 404,
                        "application/json; charset=utf-8")
            payload = self.collector.to_payload()
            if self.engine is not None:
                payload = dict(payload)
                payload["alerts"] = self.engine.to_payload()
            return (json.dumps(payload, sort_keys=True) + "\n", 200,
                    "application/json; charset=utf-8")
        return ('{"error": "not found"}\n', 404,
                "application/json; charset=utf-8")
