"""Closed-loop adaptive tiering controller.

Online feedback control for the serving stack: an
:class:`AdaptiveController` subscribes to the
:class:`~repro.obs.timeseries.WindowedCollector` window stream (hit
rate, per-tier occupancy, Jensen-Shannon drift flags, SLA attainment)
and retunes the cache's runtime knobs — admission aggressiveness,
precision-tier thresholds, tier byte shares — through a typed,
rate-limited, hysteresis-guarded :class:`Action` interface applied
between batches (epoch boundaries).

"ML-Guided Memory Optimization for DLRM Inference on Tiered Memory"
(PAPERS.md, arXiv 2511.08568) shows online feedback-driven placement
beating static tiering; "A Frequency-aware Software Cache for Large
Recommendation System Embeddings" (arXiv 2208.05321) shows frequency
statistics are the right control signal.  Both signals already exist in
this repo (windowed series + the count-min estimator); this package
closes the loop.

Byte-identity contract: with no controller (``autotuner=None``), no
``autotune.*`` metric is ever emitted and no cache knob is ever touched.
A controller that proposes nothing adds only its admission gauge: hits,
latencies and counters are byte-identical to a controller-free run.
"""

from .actions import (
    APPLIED,
    CLAMPED,
    OUTCOMES,
    SET_ADMISSION,
    SET_THRESHOLDS,
    SUPPRESSED,
    TRANSFER_CAPACITY,
    Action,
    ActionRecord,
)
from .controller import AdaptiveController

__all__ = [
    "Action",
    "ActionRecord",
    "AdaptiveController",
    "APPLIED",
    "SUPPRESSED",
    "CLAMPED",
    "OUTCOMES",
    "SET_ADMISSION",
    "SET_THRESHOLDS",
    "TRANSFER_CAPACITY",
]
