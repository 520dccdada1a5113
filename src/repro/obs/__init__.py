"""Unified observability: metrics registry, invariant audits, the serving
record and its readers (span tracing, windowed time-series, SLO burn-rate
alerting, request traces), and OpenMetrics exposition.

See ``docs/observability.md`` for the registry API, the counter/span
taxonomy, the invariant catalogue and the window/series/alert layer.
"""

from .alerts import (
    Alert,
    BurnRateRule,
    Slo,
    SloEngine,
    default_refresh_slos,
    default_serving_slos,
)
from .exposition import (
    MetricsHttpServer,
    parse_openmetrics,
    render_openmetrics,
)
from .critical_path import (
    CAUSE_PRIORITY,
    SEGMENTS,
    analyze_payload,
    classify,
    conserves,
    decompose,
    dominant_segments,
    top_table_rows,
)
from .record import RecordLog, ServingRecord
from .registry import (
    Conservation,
    HistogramStats,
    MetricsRegistry,
    MetricsSnapshot,
    Observable,
    install_conservation_laws,
    install_reqtrace_laws,
    render_key,
)
from .reqtrace import (
    RequestTrace,
    RequestTracer,
    TraceConfig,
    TraceContext,
)
from .spans import SpanTracer
from .timeseries import (
    DEFAULT_LATENCY_BUCKETS,
    WORKLOAD_SERIES,
    WindowedCollector,
    WindowRecord,
    jensen_shannon,
)

__all__ = [
    "Alert",
    "BurnRateRule",
    "CAUSE_PRIORITY",
    "Conservation",
    "DEFAULT_LATENCY_BUCKETS",
    "HistogramStats",
    "MetricsHttpServer",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Observable",
    "RecordLog",
    "RequestTrace",
    "RequestTracer",
    "SEGMENTS",
    "Slo",
    "ServingRecord",
    "SloEngine",
    "SpanTracer",
    "TraceConfig",
    "TraceContext",
    "WORKLOAD_SERIES",
    "WindowRecord",
    "WindowedCollector",
    "analyze_payload",
    "classify",
    "conserves",
    "decompose",
    "default_refresh_slos",
    "default_serving_slos",
    "dominant_segments",
    "install_conservation_laws",
    "install_reqtrace_laws",
    "jensen_shannon",
    "parse_openmetrics",
    "render_openmetrics",
    "render_key",
    "top_table_rows",
]
