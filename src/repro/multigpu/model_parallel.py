"""A model-parallel cluster of flat caches (paper §5, future work).

Each GPU owns one shard of the global flat-key space and runs a full
Fleche flat cache over its shard — no embedding is duplicated across
GPUs, so N GPUs hold N times the hot set.  A batched query:

1. partitions the deduplicated flat keys by owner;
2. each owner GPU runs its indexing + copying kernels in parallel
   (the slowest shard bounds the step);
3. hit embeddings owned by remote GPUs travel over the inter-GPU
   interconnect to GPU 0, which assembles the batch;
4. misses fall through to the shared CPU-DRAM store as usual.

The interconnect cost model is a PCIe-class fabric; the ablation bench
sweeps GPU counts to show where the gather traffic starts to eat the
capacity win.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..core.config import FlecheConfig
from ..core.flat_cache import FlatCache
from ..errors import ConfigError
from ..gpusim.kernel import coalesced_bytes
from ..hardware import HardwareSpec
from ..tables.table_spec import TableSpec
from .partition import HashPartitioner

US = 1e-6


@dataclass(frozen=True)
class InterconnectCost:
    """Inter-GPU fabric cost model."""

    #: Per-transfer fixed latency (launch + handshake).
    latency: float = 8 * US
    #: Point-to-point bandwidth (PCIe-class default; NVLink ~6x higher).
    bandwidth: float = 10e9

    def transfer_time(self, nbytes: int) -> float:
        if nbytes <= 0:
            return 0.0
        return self.latency + nbytes / self.bandwidth


@dataclass
class ShardQueryOutcome:
    """Result of a multi-GPU cache probe for one batch of unique keys."""

    hit_mask: np.ndarray
    vectors: Dict[int, np.ndarray]
    #: simulated time of the parallel shard step (slowest shard).
    shard_time: float
    #: simulated time of gathering remote hits to the assembling GPU.
    gather_time: float
    per_gpu_keys: List[int]


class MultiGpuFlatCache:
    """N flat-cache shards behaving as one big cache.

    Args:
        specs: embedding table specs.
        config: per-shard Fleche configuration (``cache_ratio`` applies to
            each GPU's share, so total capacity scales with ``num_gpus``).
        hw: platform spec of each GPU.
        num_gpus: cluster size.
    """

    def __init__(
        self,
        specs: Sequence[TableSpec],
        config: FlecheConfig,
        hw: HardwareSpec,
        num_gpus: int,
    ):
        if num_gpus <= 0:
            raise ConfigError("num_gpus must be positive")
        self.specs = list(specs)
        self.hw = hw
        self.num_gpus = num_gpus
        self.interconnect = InterconnectCost()
        self.partitioner = HashPartitioner(num_gpus)
        self.shards: List[FlatCache] = [
            FlatCache(specs, config) for _ in range(num_gpus)
        ]
        self.codec = self.shards[0].codec
        self._dim_of_table = {s.table_id: s.dim for s in specs}

    # ------------------------------------------------------------------ info

    def tick(self) -> None:
        for shard in self.shards:
            shard.tick()

    # ------------------------------------------------------------------ query

    def query_unique(
        self, table_of_key: np.ndarray, unique_keys: np.ndarray, dim: int
    ) -> ShardQueryOutcome:
        """Probe the cluster for deduplicated keys of one dimension class."""
        owners = self.partitioner.owner_of(unique_keys)
        hit_mask = np.zeros(len(unique_keys), dtype=bool)
        vectors: Dict[int, np.ndarray] = {}
        shard_times = []
        gather_time = 0.0
        per_gpu = []
        for gpu in range(self.num_gpus):
            mine = owners == gpu
            keys_here = unique_keys[mine]
            per_gpu.append(int(mine.sum()))
            if not len(keys_here):
                shard_times.append(0.0)
                continue
            outcome = self.shards[gpu].index_lookup(keys_here)
            hits = outcome.cache_hit
            hit_mask[np.nonzero(mine)[0][hits]] = True
            if hits.any():
                got = self.shards[gpu].gather(outcome.locations[hits])
                for pos, row in zip(np.nonzero(mine)[0][hits], got):
                    vectors[int(pos)] = row
                if gpu != 0:  # GPU 0 assembles the batch
                    payload = coalesced_bytes(dim * 4, 128) * int(hits.sum())
                    gather_time += self.interconnect.transfer_time(payload)
            # Shard-local probe + gather cost (keys and rows at this shard).
            probe_time = (
                outcome.stats.transactions * 128
                / (self.hw.gpu.hbm_bandwidth * self.hw.gpu.hbm_random_efficiency)
            )
            shard_times.append(probe_time)
        return ShardQueryOutcome(
            hit_mask=hit_mask,
            vectors=vectors,
            shard_time=max(shard_times) if shard_times else 0.0,
            gather_time=gather_time,
            per_gpu_keys=per_gpu,
        )

    def insert_unique(
        self, unique_keys: np.ndarray, rows: np.ndarray, dim: int
    ) -> int:
        """Insert missing embeddings into their owning shards."""
        owners = self.partitioner.owner_of(unique_keys)
        inserted = 0
        for gpu in range(self.num_gpus):
            mine = owners == gpu
            if not mine.any():
                continue
            mask, _ = self.shards[gpu].admit_and_insert(
                unique_keys[mine], rows[mine], dim
            )
            inserted += int(mask.sum())
        return inserted
