"""Multilayer perceptron with a FLOP-accurate cost description.

The MLP's forward pass is real numpy; :meth:`MLP.kernels` describes the
equivalent cuDNN GEMM launches so the engine can charge device time and
per-layer launch overhead through the simulator.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..errors import ConfigError
from ..gpusim.kernel import KernelSpec


def _relu(x: np.ndarray) -> np.ndarray:
    # In-place on a freshly produced activation: same op, zero extra
    # allocation (callers only ever pass arrays they own).
    return np.maximum(x, 0.0, out=x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Same IEEE op sequence as 1/(1+exp(-clip(x))), applied in place.
    np.clip(x, -30.0, 30.0, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.divide(1.0, x, out=x)
    return x


class MLP:
    """Fully-connected tower ending in one sigmoid output unit.

    Serving only reads the weights, so they are read-only and a deep
    copy is the same tower: every copy of a model shares one.
    """

    def __init__(self, input_dim: int, hidden_units: Sequence[int], seed: int = 0):
        if input_dim <= 0:
            raise ConfigError("MLP input_dim must be positive")
        if any(h <= 0 for h in hidden_units):
            raise ConfigError("hidden unit counts must be positive")
        self.input_dim = input_dim
        self.hidden_units = list(hidden_units)
        rng = np.random.default_rng(seed)
        dims = [input_dim] + self.hidden_units + [1]
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(
                (rng.standard_normal((fan_in, fan_out)) * scale).astype(np.float32)
            )
            self.biases.append(np.zeros(fan_out, dtype=np.float32))
        for array in self.weights + self.biases:
            array.flags.writeable = False

    def __deepcopy__(self, memo):
        return self

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the per-sample click probability."""
        h = x.astype(np.float32, copy=False)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w
            h += b  # in place on the fresh GEMM output
            h = _sigmoid(h) if i == self.num_layers - 1 else _relu(h)
        return h[:, 0]

    def flops(self, batch_size: int) -> float:
        """Forward FLOPs for ``batch_size`` samples (2 x MACs)."""
        total = 0.0
        for w in self.weights:
            total += 2.0 * batch_size * w.shape[0] * w.shape[1]
        return total

    def kernels(self, batch_size: int) -> List[KernelSpec]:
        """One GEMM kernel per layer, for the timing model."""
        specs = []
        for i, w in enumerate(self.weights):
            fan_in, fan_out = w.shape
            bytes_moved = 4 * (batch_size * fan_in + fan_in * fan_out
                               + batch_size * fan_out)
            specs.append(
                KernelSpec(
                    name=f"mlp_gemm_{i}",
                    threads=batch_size * fan_out,
                    stream_bytes=bytes_moved,
                    flops=2.0 * batch_size * fan_in * fan_out,
                )
            )
        return specs
