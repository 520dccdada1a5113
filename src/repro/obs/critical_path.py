"""Critical-path decomposition + SLA-miss root-cause classification.

A sampled request's trace (:class:`~repro.obs.reqtrace.RequestTrace`)
is a linear chain of parent-linked spans: the routing hop (cluster runs
only), the batch queue wait, then the batch's stage sequence where each
stage contributes an inter-stage *wait* (the batch sat ready while a
shared resource was busy) and an *exec* interval (the stage occupied its
resource).  Because the serving loop computes every finish instant by
telescoping exactly these terms,
the chain admits an **exclusive decomposition**: each simulated
nanosecond of a request's latency is charged to exactly one segment,
and the segments sum back to the end-to-end latency (the conservation
law ``reqtrace.segment-conservation`` audits this for every sampled
request, within float tolerance).

Segment taxonomy
----------------
``queue``
    arrival -> first-stage dispatch: batch formation plus head-of-line
    wait for the first free host slot.
``host`` / ``pcie`` / ``gpu``
    stage execution charged to the stage's primary resource — ``index``
    runs on the host thread, ``fetch`` streams over PCIe, ``copy`` and
    ``dense`` hold the GPU.
``host_wait`` / ``pcie_wait`` / ``gpu_wait``
    inter-stage stalls, charged to the resource the *next* stage was
    waiting for.
``coalesce_wait``
    the fetch-stage stall of a batch that took keys from another
    in-flight batch's pending fetch — waiting on someone else's I/O,
    not its own.
``hedge_wait`` / ``failover_redispatch`` / ``breaker_fastfail``
    the routing hop when the winning dispatch was a hedge copy, a
    re-dispatch after a lost send / lost in-flight response, or an
    immediate breaker-rejection failover (which is why its value is
    ~0 — the fast-fail *saved* the dispatch timeout).
``shed``
    no valid completion existed; the request has no latency to
    decompose and is tagged directly.

The classifier buckets an SLA-violating request by its dominant
segment (largest exclusive share; deterministic priority order breaks
exact ties), which is what the kill-drill artifact and the
``repro obs critical-path`` CLI report per cause.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

__all__ = [
    "CAUSE_PRIORITY",
    "CONSERVATION_TOL",
    "SEGMENTS",
    "analyze_payload",
    "classify",
    "conserves",
    "decompose",
    "dominant_segments",
    "top_table_rows",
]

#: Absolute slack allowed between the segment sum and the end-to-end
#: latency: the serving loop accumulates the same float terms in a
#: slightly different association order, so the difference is a few
#: ulps of sub-second values — nanoseconds of slack cover it.
CONSERVATION_TOL = 1e-9

#: Stage name -> the serial resource its execution is charged to.
#: Mirrors ``serving.pipeline.STAGE_RESOURCES`` (index on the host
#: thread, fetch co-holding the PCIe link, copy/dense on the GPU) with
#: the fetch stage charged to its distinguishing resource; stages a
#: scheme invents beyond the canonical four are host-driven by the same
#: conservative assumption the scheduler makes.
STAGE_RESOURCE: Dict[str, str] = {
    "index": "host",
    "fetch": "pcie",
    "copy": "gpu",
    "dense": "gpu",
}

#: The full exclusive-segment taxonomy, in display order.
SEGMENTS: Tuple[str, ...] = (
    "queue",
    "host",
    "pcie",
    "gpu",
    "host_wait",
    "pcie_wait",
    "gpu_wait",
    "coalesce_wait",
    "hedge_wait",
    "failover_redispatch",
    "breaker_fastfail",
    "shed",
)

#: Tie-break order for the root-cause classifier: when two segments are
#: exactly equal, the rarer / more actionable cause wins.
CAUSE_PRIORITY: Tuple[str, ...] = (
    "failover_redispatch",
    "breaker_fastfail",
    "hedge_wait",
    "coalesce_wait",
    "queue",
    "pcie_wait",
    "gpu_wait",
    "host_wait",
    "pcie",
    "gpu",
    "host",
    "shed",
)

_PRIORITY_RANK = {name: i for i, name in enumerate(CAUSE_PRIORITY)}


def decompose(trace) -> Dict[str, float]:
    """Exclusive segment decomposition of one sampled request.

    ``trace`` is any object with the :class:`~repro.obs.reqtrace.
    RequestTrace` shape: ``queue`` / ``stages`` (``(name, wait,
    exec)`` triples) measured on the serving replica's
    clock, a ``scale`` factor (the replica's slowdown multiplier at
    dispatch time — the router computes ``finish = at + latency *
    factor``, so every replica-side segment scales by the same factor),
    and a router-level ``route_wait`` / ``route_cause`` hop that is
    *not* scaled.  Returns ``segment name -> exclusive seconds``; only
    segments that actually occurred appear.
    """
    scale = float(getattr(trace, "scale", 1.0))
    segments: Dict[str, float] = {}

    def charge(name: str, value: float) -> None:
        if value:
            segments[name] = segments.get(name, 0.0) + value

    if trace.route_cause is not None or trace.route_wait:
        charge(trace.route_cause or "queue", trace.route_wait)
    charge("queue", trace.queue * scale)
    coalesced = trace.coalesced_keys > 0
    for name, wait, exec_s in trace.stages:  # lint: allow-loop (per stage)
        resource = STAGE_RESOURCE.get(name, "host")
        if wait:
            wait_key = (
                "coalesce_wait"
                if coalesced and name == "fetch" else f"{resource}_wait"
            )
            charge(wait_key, wait * scale)
        charge(resource, exec_s * scale)
    return segments


def conserves(
    segments: Dict[str, float],
    latency: float,
    tol: float = CONSERVATION_TOL,
) -> bool:
    """True when the exclusive segments telescope back to the latency."""
    total = sum(segments.values())
    return abs(total - latency) <= tol + tol * abs(latency)


def classify(segments: Dict[str, float]) -> str:
    """Dominant-segment root cause of one SLA-violating request.

    Largest exclusive share wins; exact ties fall back to the fixed
    :data:`CAUSE_PRIORITY` order so the tag is deterministic.  An empty
    or all-zero decomposition (a shed request, or a degenerate
    zero-latency trace) classifies as ``shed`` when that segment is
    present, else ``unattributed``.
    """
    if "shed" in segments:
        return "shed"
    best = None
    best_value = 0.0
    for name, value in segments.items():  # lint: allow-loop (per segment)
        if value <= 0.0:
            continue
        rank = _PRIORITY_RANK.get(name, len(CAUSE_PRIORITY))
        if (
            best is None
            or value > best_value
            or (value == best_value and rank < _PRIORITY_RANK.get(
                best, len(CAUSE_PRIORITY)))
        ):
            best, best_value = name, value
    return best if best is not None else "unattributed"


def _trace_latency(entry: dict) -> float:
    latency = entry.get("latency")
    return float("inf") if latency is None else float(latency)


def analyze_payload(
    payload: dict, top: int = 10
) -> dict:
    """Summarize a ``reqtrace`` artifact: top-k slowest + cause counts.

    Operates on the JSON payload (``RequestTracer.to_payload`` /
    ``load_artifact``) so the CLI needs no live tracer.  Returns a
    JSON-safe dict with the ``top`` slowest sampled requests (each with
    its segment decomposition and root-cause tag) and the per-cause
    breakdown of SLA violators.
    """
    traces: List[dict] = list(payload.get("traces", []))
    traces.sort(
        key=lambda e: (-_trace_latency(e), e.get("request_id", 0))
    )
    causes: Dict[str, int] = {}
    for entry in traces:
        tag = entry.get("rootcause")
        if tag:
            causes[tag] = causes.get(tag, 0) + 1
    slowest = [
        {
            "request_id": entry.get("request_id"),
            "latency_s": entry.get("latency"),
            "dispatch": entry.get("dispatch", "primary"),
            "replica": entry.get("replica"),
            "sampled_by": entry.get("sampled_by"),
            "rootcause": entry.get("rootcause"),
            "segments": entry.get("segments", {}),
        }
        for entry in traces[: max(0, int(top))]
    ]
    return {
        "requests": payload.get("requests", len(traces)),
        "sampled": payload.get("sampled", len(traces)),
        "sla_budget_s": payload.get("sla_budget_s"),
        "rootcause": payload.get("rootcause", {"causes": causes}),
        "top": slowest,
    }


def dominant_segments(
    segments: Dict[str, float]
) -> Iterable[Tuple[str, float]]:
    """The three largest segments, largest first (for display)."""
    ranked = sorted(
        segments.items(),
        key=lambda kv: (-kv[1], _PRIORITY_RANK.get(kv[0], 99)),
    )
    return ranked[:3]


def top_table_rows(analysis: dict) -> List[List[str]]:
    """Render ``analyze_payload``'s top-k as CLI/bench table rows."""
    rows: List[List[str]] = []
    for entry in analysis.get("top", []):
        latency = entry.get("latency_s")
        parts = ", ".join(
            f"{name}={value * 1e3:.3f}ms"
            for name, value in dominant_segments(
                entry.get("segments", {})
            )
        )
        rows.append([
            str(entry.get("request_id")),
            "shed" if latency is None else f"{latency * 1e3:.3f}",
            str(entry.get("dispatch", "primary")),
            str(entry.get("rootcause") or "-"),
            parts or "-",
        ])
    return rows
