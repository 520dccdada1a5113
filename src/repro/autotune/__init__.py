"""Closed-loop drift boost.

Online feedback control for the serving stack: an
:class:`AdaptiveController` subscribes to the
:class:`~repro.obs.timeseries.WindowedCollector` window stream (hit
rate and Jensen-Shannon drift flags) and, when the working set shifts,
opens a few-window *boost* — full admission and, on a quantizing cache,
low precision-tier thresholds — applied between batches and undone when
it expires.

"ML-Guided Memory Optimization for DLRM Inference on Tiered Memory"
(PAPERS.md, arXiv 2511.08568) shows online feedback beating static
tiering; "A Frequency-aware Software Cache for Large Recommendation
System Embeddings" (arXiv 2208.05321) shows frequency statistics are the
right control signal.  The boost's tier-threshold step is such a
frequency-threshold move, and it is the one rule of this controller that
an ablation shows moving a served result (``docs/scenarios.md``).

Byte-identity contract: with no controller (``autotuner=None``), no
``autotune.*`` metric is ever emitted and no cache knob is ever touched.
A controller that opens no boost adds only its admission gauge: hits,
latencies and counters are byte-identical to a controller-free run.
"""

from .controller import AdaptiveController

__all__ = ["AdaptiveController"]
