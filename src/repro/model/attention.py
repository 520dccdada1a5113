"""AutoInt-style self-attention interaction model (Song et al., CIKM'19).

The transformer-flavoured DLRM variant the paper's §6.1 mentions.  Each
table's pooled embedding is one token; interacting layers run multi-head
scaled-dot-product self-attention over the tokens, then an MLP head scores
the flattened result.

Also the reason Fleche rejects *reduction* caching (§5): with attention,
the contribution of an embedding depends on every other token of the
sample, so pooled-group memoization is unsound — which
`repro.baselines.reduction_cache` refuses by construction.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import ConfigError
from ..gpusim.kernel import KernelSpec
from .dcn import DenseForwardResult
from .mlp import MLP


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


class SelfAttentionInteraction:
    """Multi-head self-attention over per-table embedding tokens."""

    def __init__(
        self,
        num_tables: int,
        embedding_dim: int,
        num_heads: int = 2,
        num_layers: int = 2,
        hidden_units: Sequence[int] = (256,),
        seed: int = 13,
    ):
        if num_tables <= 0 or embedding_dim <= 0:
            raise ConfigError("invalid attention-model dimensions")
        if num_heads <= 0 or embedding_dim % num_heads:
            raise ConfigError("embedding_dim must divide by num_heads")
        if num_layers <= 0:
            raise ConfigError("num_layers must be positive")
        self.num_tables = num_tables
        self.embedding_dim = embedding_dim
        self.num_heads = num_heads
        self.num_layers = num_layers
        self.input_dim = num_tables * embedding_dim
        self.dense_dim = 0
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(embedding_dim)
        self.projections = [
            {
                name: (rng.standard_normal(
                    (embedding_dim, embedding_dim)) * scale).astype(np.float32)
                for name in ("q", "k", "v")
            }
            for _ in range(num_layers)
        ]
        self.mlp = MLP(self.input_dim, hidden_units, seed=seed + 1)

    # ------------------------------------------------------------------ api

    def concat_inputs(self, pooled_per_table: List[np.ndarray]) -> np.ndarray:
        if len(pooled_per_table) != self.num_tables:
            raise ConfigError(
                f"expected {self.num_tables} pooled tables, got "
                f"{len(pooled_per_table)}"
            )
        return np.concatenate(pooled_per_table, axis=1)

    def _attend(self, tokens: np.ndarray, layer: int) -> np.ndarray:
        """One residual multi-head self-attention layer (B, T, D)."""
        proj = self.projections[layer]
        q = tokens @ proj["q"]
        k = tokens @ proj["k"]
        v = tokens @ proj["v"]
        head_dim = self.embedding_dim // self.num_heads
        batch, T, _ = tokens.shape

        def split(x):
            return x.reshape(batch, T, self.num_heads, head_dim).transpose(
                0, 2, 1, 3
            )

        qh, kh, vh = split(q), split(k), split(v)
        scores = qh @ kh.transpose(0, 1, 3, 2) / np.sqrt(head_dim)
        out = _softmax(scores) @ vh
        merged = out.transpose(0, 2, 1, 3).reshape(batch, T, self.embedding_dim)
        return np.maximum(tokens + merged, 0.0)  # residual + ReLU

    def forward(self, x: np.ndarray) -> DenseForwardResult:
        if x.shape[1] != self.input_dim:
            raise ConfigError(
                f"expected input dim {self.input_dim}, got {x.shape[1]}"
            )
        batch = x.shape[0]
        tokens = x.reshape(batch, self.num_tables, self.embedding_dim)
        for layer in range(self.num_layers):
            tokens = self._attend(tokens, layer)
        probabilities = self.mlp.forward(tokens.reshape(batch, -1))
        return DenseForwardResult(
            probabilities=probabilities, flops=self.flops(batch)
        )

    # ------------------------------------------------------------------ cost

    def attention_flops(self, batch_size: int) -> float:
        T, D = self.num_tables, self.embedding_dim
        per_layer = 2.0 * batch_size * (3 * T * D * D + 2 * T * T * D)
        return per_layer * self.num_layers

    def flops(self, batch_size: int) -> float:
        return self.attention_flops(batch_size) + self.mlp.flops(batch_size)

    def kernels(self, batch_size: int) -> List[KernelSpec]:
        specs = []
        T, D = self.num_tables, self.embedding_dim
        for layer in range(self.num_layers):
            specs.append(KernelSpec(
                name=f"attention_{layer}",
                threads=batch_size * T * min(D, 128),
                stream_bytes=4 * batch_size * T * D * 4,
                flops=self.attention_flops(batch_size) / self.num_layers,
            ))
        return specs + self.mlp.kernels(batch_size)
