"""Cross layers of the Deep & Cross Network (Wang et al., ADKDD'17).

One cross layer computes ``x_{l+1} = x_0 * (w . x_l) + b + x_l`` — an
explicit bounded-degree feature interaction.  The paper's evaluation model
stacks six of these in front of the MLP (§6.1).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import ConfigError
from ..gpusim.kernel import KernelSpec


class CrossNetwork:
    """A stack of DCN cross layers over a fixed input dimension.

    Serving only reads the weights, so they are read-only and a deep
    copy is the same network: every copy of a model shares one.
    """

    def __init__(self, input_dim: int, num_layers: int, seed: int = 1):
        if input_dim <= 0:
            raise ConfigError("cross input_dim must be positive")
        if num_layers < 0:
            raise ConfigError("num_layers must be >= 0")
        self.input_dim = input_dim
        self.num_layers = num_layers
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(input_dim)
        self.weights = [
            (rng.standard_normal(input_dim) * scale).astype(np.float32)
            for _ in range(num_layers)
        ]
        self.biases = [np.zeros(input_dim, dtype=np.float32) for _ in range(num_layers)]
        for array in self.weights + self.biases:
            array.flags.writeable = False

    def __deepcopy__(self, memo):
        return self

    def forward(self, x0: np.ndarray) -> np.ndarray:
        """Apply every cross layer to batch ``x0`` (shape B x D)."""
        x = x0.astype(np.float32, copy=False)
        for w, b in zip(self.weights, self.biases):
            interaction = x @ w  # (B,)
            # Same op order as ``x0 * interaction + b + x``, accumulated
            # in place on the fresh product to avoid two temporaries.
            nxt = x0 * interaction[:, None]
            nxt += b
            nxt += x
            x = nxt
        return x

    def flops(self, batch_size: int) -> float:
        """Forward FLOPs: per layer, a dot product plus an axpy per sample."""
        per_layer = 2.0 * batch_size * self.input_dim * 2
        return per_layer * self.num_layers

    def kernels(self, batch_size: int) -> List[KernelSpec]:
        """One fused kernel per cross layer (memory-bound elementwise work)."""
        specs = []
        for i in range(self.num_layers):
            bytes_moved = 4 * batch_size * self.input_dim * 3
            specs.append(
                KernelSpec(
                    name=f"cross_{i}",
                    threads=batch_size * min(self.input_dim, 1024),
                    stream_bytes=bytes_moved,
                    flops=2.0 * batch_size * self.input_dim * 2,
                )
            )
        return specs
