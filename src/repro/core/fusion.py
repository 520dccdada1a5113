"""Self-identified kernel fusion (paper §3.2, Figure 6).

Per-table cache queries are calls to the *same* kernel function with
different arguments, so instead of ``n`` launches Fleche issues one fused
launch and lets each thread work out which original kernel it belongs to:

1. **Initialization** — the CPU builds an *Args Array* with the original n
   kernels' arguments and a prefix-sum array ``scan`` over their thread
   counts, then launches ``sum(m_i)`` threads.
2. **Identification** — thread ``tid`` binary-searches ``scan`` for the
   largest element not exceeding ``tid``; its index ``phi`` names the
   original kernel, and ``tid - scan[phi]`` its position inside it.
   Rounding each kernel's thread count to warp multiples keeps the branch
   conditions of every warp uniform, so the search causes no divergence.
3. **Execution** — the thread reads its arguments from the Args Array and
   runs the original job.

:func:`build_fusion_plan` performs phase 1; :func:`identify_thread` is the
phase-2 search, implemented exactly as each GPU thread would run it (and
exercised heavily in the test suite); the workflow module performs phase 3
by fusing the per-table :class:`~repro.gpusim.KernelSpec` work into one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..gpusim.kernel import KernelSpec


#: Threads per warp: the fused launch rounds each kernel's share to it.
WARP_SIZE = 32


def round_to_warp(threads: int) -> int:
    """Round a thread count up to a warp multiple (divergence-free search)."""
    if threads <= 0:
        return 0
    return -(-threads // WARP_SIZE) * WARP_SIZE


@dataclass(frozen=True)
class FusionPlan:
    """Phase-1 output: args array + prefix-sum scan + the fused spec."""

    #: Original per-kernel arguments (opaque to the fusion machinery).
    args_array: Tuple[object, ...]
    #: ``scan[i]`` = threads of kernels 0..i-1; ``scan[n]`` = total threads.
    scan: np.ndarray
    #: The single fused kernel covering all original work.
    fused_spec: KernelSpec

    @property
    def num_kernels(self) -> int:
        return len(self.args_array)

    @property
    def total_threads(self) -> int:
        return int(self.scan[-1])

    @property
    def metadata_bytes(self) -> int:
        """Host->device bytes for the scan and args arrays (GDRCopy-sized)."""
        return fusion_metadata_bytes(self.num_kernels)


def fusion_metadata_bytes(num_kernels: int) -> int:
    """Scan (4 bytes per entry, one more entry than kernels) plus args
    (pointer+dim+count ~ 24 bytes per kernel)."""
    return 4 * (num_kernels + 1) + 24 * num_kernels


def fused_threads(threads: np.ndarray) -> int:
    """Threads of one fused launch over kernels of ``threads`` each,
    every share rounded up to a warp multiple (:func:`round_to_warp` in
    one step)."""
    return int((-(-threads // WARP_SIZE) * WARP_SIZE).sum())


def fused_kernel_spec(kernels: Sequence[KernelSpec], name: str) -> KernelSpec:
    """The single launch covering all of ``kernels``' work, each thread
    count rounded up to a warp multiple."""
    return KernelSpec(
        name=name,
        threads=sum(round_to_warp(k.threads) for k in kernels),
        stream_bytes=sum(k.stream_bytes for k in kernels),
        random_transactions=sum(k.random_transactions for k in kernels),
        dependent_hops=max((k.dependent_hops for k in kernels), default=0.0),
        flops=sum(k.flops for k in kernels),
    )


def build_fusion_plan(
    kernels: Sequence[KernelSpec],
    args: Sequence[object] = None,
) -> FusionPlan:
    """Fuse ``kernels`` into one launch (phase 1 of §3.2).

    Thread counts are rounded up to warp multiples before building the
    prefix sum, matching the paper's divergence-free guarantee.
    """
    if not kernels:
        raise SimulationError("cannot fuse an empty kernel list")
    if args is not None and len(args) != len(kernels):
        raise SimulationError("args array length must match kernel count")

    rounded = [round_to_warp(k.threads) for k in kernels]
    scan = np.zeros(len(kernels) + 1, dtype=np.int64)
    np.cumsum(rounded, out=scan[1:])
    fused = fused_kernel_spec(kernels, "fused_query")
    args_tuple = tuple(args) if args is not None else tuple(
        k.name for k in kernels
    )
    return FusionPlan(args_array=args_tuple, scan=scan, fused_spec=fused)


def identify_thread(plan: FusionPlan, tid: int) -> Tuple[int, int]:
    """Phase 2: map fused thread ``tid`` to (original kernel, local tid).

    Performs the binary search each GPU thread runs on the shared ``scan``
    array: find the largest scan element that is <= ``tid``.
    """
    if not 0 <= tid < plan.total_threads:
        raise SimulationError(
            f"tid {tid} outside fused launch of {plan.total_threads} threads"
        )
    scan = plan.scan
    lo, hi = 0, len(scan) - 1
    # Invariant: scan[lo] <= tid < scan[hi].
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if scan[mid] <= tid:
            lo = mid
        else:
            hi = mid
    return lo, tid - int(scan[lo])


def identify_threads(plan: FusionPlan, tids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised phase 2 for a whole launch (used by tests/examples)."""
    tids = np.asarray(tids, dtype=np.int64)
    if len(tids) and (tids.min() < 0 or tids.max() >= plan.total_threads):
        raise SimulationError("tid outside fused launch")
    kernel_ids = np.searchsorted(plan.scan, tids, side="right") - 1
    local = tids - plan.scan[kernel_ids]
    return kernel_ids.astype(np.int64), local.astype(np.int64)


def warp_divergence_free(plan: FusionPlan) -> bool:
    """Check the paper's divergence property: one kernel id per warp."""
    total = plan.total_threads
    if total == 0:
        return True
    tids = np.arange(total, dtype=np.int64)
    kernel_ids, _ = identify_threads(plan, tids)
    per_warp = kernel_ids.reshape(-1, WARP_SIZE) if total % WARP_SIZE == 0 else None
    if per_warp is None:
        return False
    return bool((per_warp == per_warp[:, :1]).all())
