"""Inference serving layer: open-loop load over the simulated engine.

The paper frames its goal in SLA terms (§1): at a fixed latency budget, a
faster embedding layer lets the service examine more candidate items.
This package closes that loop:

* :mod:`repro.serving.arrivals` — open-loop Poisson request generator
  over a dataset's sparse-feature distribution;
* :mod:`repro.serving.batcher` — dynamic batch formation with a max batch
  size and a batching timeout, the standard inference-server policy;
* :mod:`repro.serving.server` — the queueing simulation: requests arrive,
  batches form, the engine serves them on the simulated platform, and
  per-request latencies (queueing + batching + compute) come out, so
  SLA-attainment curves under offered load can be measured for any cache
  scheme;
* :mod:`repro.serving.pipeline` — the pipelined serving engine: up to
  ``depth`` batches in flight on separate simulated streams, stages
  overlapped across batches with the host thread and PCIe link serialized,
  plus cross-batch in-flight miss coalescing.
"""

from .arrivals import PoissonArrivals, Request
from .batcher import BatchingPolicy
from .pipeline import (
    CoalescingStats,
    InFlightMissTable,
    PipelinedInferenceServer,
)
from .server import InferenceServer, ServingReport

__all__ = [
    "PoissonArrivals",
    "Request",
    "BatchingPolicy",
    "InferenceServer",
    "ServingReport",
    "PipelinedInferenceServer",
    "InFlightMissTable",
    "CoalescingStats",
]
