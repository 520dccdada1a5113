"""DeepFM (Guo et al., IJCAI'17): FM layer + deep tower.

One of the model families the paper's §6.1 names when arguing that DLRMs
differ mainly in their dense parts.  DeepFM scores a sample as

    sigmoid( FM(first-order + pairwise interactions) + MLP(concat) )

where the pairwise FM term uses the identity
``sum_{i<j} <v_i, v_j> = 0.5 * (||sum v_i||^2 - sum ||v_i||^2)`` computed
per embedding dimension — O(tables x dim), not O(tables^2).

The class implements the same interface the engine drives
(``concat_inputs`` / ``forward`` / ``kernels`` / ``flops``), so any cache
scheme serves it unchanged.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import ConfigError
from ..gpusim.kernel import KernelSpec
from .dcn import DenseForwardResult
from .mlp import MLP, _sigmoid


class DeepFM:
    """FM + deep tower over pooled embedding vectors."""

    def __init__(
        self,
        num_tables: int,
        embedding_dim: int,
        hidden_units: Sequence[int] = (400, 400),
        seed: int = 11,
    ):
        if num_tables <= 1:
            raise ConfigError("DeepFM needs at least two tables (pairwise FM)")
        if embedding_dim <= 0:
            raise ConfigError("invalid DeepFM dimensions")
        self.num_tables = num_tables
        self.embedding_dim = embedding_dim
        self.input_dim = num_tables * embedding_dim
        rng = np.random.default_rng(seed)
        #: first-order weight per table (applied to the pooled vector mean).
        self.first_order = (
            rng.standard_normal(num_tables) / np.sqrt(num_tables)
        ).astype(np.float32)
        self.mlp = MLP(self.input_dim, hidden_units, seed=seed + 1)

    # ------------------------------------------------------------------ api

    def concat_inputs(self, pooled_per_table: List[np.ndarray]) -> np.ndarray:
        if len(pooled_per_table) != self.num_tables:
            raise ConfigError(
                f"expected {self.num_tables} pooled tables, got "
                f"{len(pooled_per_table)}"
            )
        return np.concatenate(pooled_per_table, axis=1)

    def _fm_terms(self, x: np.ndarray) -> np.ndarray:
        """First-order + pairwise FM logits from the concatenated input."""
        batch = x.shape[0]
        fields = x[:, : self.num_tables * self.embedding_dim].reshape(
            batch, self.num_tables, self.embedding_dim
        )
        first = fields.mean(axis=2) @ self.first_order
        total = fields.sum(axis=1)
        pairwise = 0.5 * (
            (total ** 2).sum(axis=1) - (fields ** 2).sum(axis=(1, 2))
        )
        return first + pairwise / self.embedding_dim

    def forward(self, x: np.ndarray) -> DenseForwardResult:
        if x.shape[1] != self.input_dim:
            raise ConfigError(
                f"expected input dim {self.input_dim}, got {x.shape[1]}"
            )
        fm_logits = self._fm_terms(x)
        deep = self.mlp.forward(x)
        # Combine in logit space: invert the tower's sigmoid first.
        deep_logits = np.log(deep / np.clip(1.0 - deep, 1e-7, None))
        probabilities = _sigmoid(fm_logits + deep_logits)
        return DenseForwardResult(
            probabilities=probabilities.astype(np.float32),
            flops=self.flops(x.shape[0]),
        )

    # ------------------------------------------------------------------ cost

    def fm_flops(self, batch_size: int) -> float:
        per_sample = 4.0 * self.num_tables * self.embedding_dim
        return batch_size * per_sample

    def flops(self, batch_size: int) -> float:
        return self.fm_flops(batch_size) + self.mlp.flops(batch_size)

    def kernels(self, batch_size: int) -> List[KernelSpec]:
        fm = KernelSpec(
            name="fm_interaction",
            threads=batch_size * min(self.embedding_dim, 256),
            stream_bytes=4 * batch_size * self.input_dim,
            flops=self.fm_flops(batch_size),
        )
        return [fm] + self.mlp.kernels(batch_size)
