"""Synthetic CTR task + trainer for the re-encoding AUC study (Exp #5).

Experiment #5 measures how flat-key collisions degrade model quality: when
two distinct feature IDs collapse onto one flat key, they are forced to
share an embedding, blurring the signal both carried.  To reproduce the
mechanism without the proprietary click logs, we build a synthetic CTR
task:

* every (table, feature ID) pair has a latent ground-truth weight;
* a sample's click probability is the logistic of the sum of its features'
  weights (plus noise);
* a learner with one scalar weight per *flat key* is trained by SGD.

When the coding layer is collision-free the learner can recover every
latent weight exactly (up to sampling noise) — the "Upper Bound" curve.
Collisions force one learned weight to serve several latent ones, and the
measured AUC drops exactly the way Figure 13 shows: fixed-length coding
(Kraken) collapses far earlier than Fleche's size-aware coding as the key
bit budget shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..coding.layout import FlatKeyCodec
from ..errors import WorkloadError
from ..tables.embedding_table import reference_vectors
from ..workloads.zipf import ZipfSampler
from .auc import auc_score


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


@dataclass
class SyntheticCtrTask:
    """A synthetic click-through-rate prediction task.

    Args:
        corpus_sizes: per-table distinct ID counts.
        num_train: training samples to generate.
        num_test: held-out samples for AUC measurement.
        alpha: popularity skew of feature occurrence.
        seed: base RNG seed.
    """

    corpus_sizes: Sequence[int]
    num_train: int = 40_000
    num_test: int = 10_000
    alpha: float = -1.2
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.corpus_sizes:
            raise WorkloadError("CTR task needs at least one table")
        rng = np.random.default_rng(self.seed)
        #: latent per-ID logit contribution, one array per table.
        self.latent_weights: List[np.ndarray] = [
            rng.standard_normal(size).astype(np.float64) * 0.9
            for size in self.corpus_sizes
        ]
        self._samplers = [
            ZipfSampler(size, alpha=self.alpha, seed=self.seed * 31 + t)
            for t, size in enumerate(self.corpus_sizes)
        ]
        self._rng = rng
        self.train_features, self.train_labels = self._draw(self.num_train)
        self.test_features, self.test_labels = self._draw(self.num_test)

    def _draw(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Sample ``count`` rows: feature matrix (count x tables) + labels."""
        features = np.stack(
            [s.sample(count, rng=self._rng) for s in self._samplers], axis=1
        )
        logits = np.zeros(count, dtype=np.float64)
        for t in range(len(self.corpus_sizes)):
            logits += self.latent_weights[t][features[:, t].astype(np.int64)]
        labels = (self._rng.random(count) < _sigmoid(logits)).astype(np.int64)
        return features, labels

    @property
    def num_tables(self) -> int:
        return len(self.corpus_sizes)


class _HashedLogisticModel:
    """Logistic model with one weight per flat key (hashed embedding dim 1)."""

    def __init__(self, learning_rate: float = 0.3, epochs: int = 4, seed: int = 0):
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.seed = seed
        self._weights: Optional[dict] = None

    def _encode(self, codec: FlatKeyCodec, features: np.ndarray) -> np.ndarray:
        keys = np.zeros(features.shape, dtype=np.uint64)
        for t in range(features.shape[1]):
            keys[:, t] = codec.encode(t, features[:, t])
        return keys

    def fit(
        self, codec: FlatKeyCodec, features: np.ndarray, labels: np.ndarray
    ) -> "._HashedLogisticModel":
        keys = self._encode(codec, features)
        # Densify keys -> weight slots.
        unique, dense = np.unique(keys, return_inverse=True)
        dense = dense.reshape(keys.shape)
        weights = np.zeros(len(unique), dtype=np.float64)
        bias = 0.0
        rng = np.random.default_rng(self.seed)
        n = len(labels)
        batch = 256
        for _ in range(self.epochs):
            order = rng.permutation(n)
            for start in range(0, n, batch):
                rows = order[start:start + batch]
                logits = weights[dense[rows]].sum(axis=1) + bias
                grad = _sigmoid(logits) - labels[rows]
                np.add.at(
                    weights,
                    dense[rows].ravel(),
                    -self.learning_rate * np.repeat(grad, keys.shape[1])
                    / len(rows),
                )
                bias -= self.learning_rate * grad.mean()
        self._weights = {int(k): w for k, w in zip(unique, weights)}
        self._bias = bias
        return self

    def predict(self, codec: FlatKeyCodec, features: np.ndarray) -> np.ndarray:
        if self._weights is None:
            raise WorkloadError("model not fitted")
        keys = self._encode(codec, features)
        scores = np.full(keys.shape[0], self._bias, dtype=np.float64)
        lookup = self._weights
        for t in range(keys.shape[1]):
            scores += np.fromiter(
                (lookup.get(int(k), 0.0) for k in keys[:, t]),
                dtype=np.float64,
                count=keys.shape[0],
            )
        return _sigmoid(scores)


class _IdentityCodec:
    """Collision-free reference codec: (table, id) kept distinct exactly."""

    def encode(self, table_id: int, feature_ids: np.ndarray) -> np.ndarray:
        return (np.uint64(table_id + 1) << np.uint64(48)) | feature_ids.astype(
            np.uint64
        )


def delta_vectors(
    table_id: int, feature_ids: np.ndarray, dim: int, version: int
) -> np.ndarray:
    """Deterministic "retrained" embedding of ``(table, id)`` at a model
    version.

    Version 0 is the ground truth served by the parameter server
    (:func:`~repro.tables.embedding_table.reference_vectors`); each later
    version rotates and shifts it by a version-dependent amount, so two
    replicas that applied the same version hold bit-identical rows while
    rows from different versions are guaranteed to differ.  A pure
    function of its arguments — replay from any point reproduces the
    exact same bytes.
    """
    base = reference_vectors(table_id, feature_ids, dim)
    if version == 0:
        return base
    scale = np.float32(1.0 + 0.25 * ((version % 7) + 1) / 7.0)
    shift = np.float32(0.001 * version)
    return (base * scale + shift).astype(np.float32)


class EmbeddingDeltaTrainer:
    """Emits rounds of refreshed embedding rows, one model version each.

    Stands in for the continuous-training side of the system: every call
    to :meth:`next_round` bumps the model version and "retrains" the rows
    of a popularity-skewed sample of keys per table (hot keys churn most,
    exactly the skew the serving cache holds).  Deltas are deterministic
    in ``(seed, version)`` via :func:`delta_vectors`, so an update stream
    can be regenerated or audited offline.
    """

    def __init__(
        self,
        corpus_sizes: Sequence[int],
        dims: Sequence[int],
        keys_per_round: int = 256,
        seed: int = 0,
    ):
        if not corpus_sizes:
            raise WorkloadError("delta trainer needs at least one table")
        if len(corpus_sizes) != len(dims):
            raise WorkloadError("corpus_sizes and dims length mismatch")
        if keys_per_round < 1:
            raise WorkloadError("keys_per_round must be >= 1")
        self.dims = list(dims)
        self.keys_per_round = int(keys_per_round)
        self.version = 0
        self._samplers = [
            ZipfSampler(size, seed=seed * 37 + t)
            for t, size in enumerate(corpus_sizes)
        ]

    def next_round(self):
        """Train one round: returns ``(version, {table: (ids, vectors)})``.

        Sampled IDs are deduplicated within the round (the trainer's own
        output has no torn rows); the sampler draws with replacement, so
        hot IDs reappear across rounds.
        """
        self.version += 1
        updates = {}
        for table_id, sampler in enumerate(self._samplers):
            ids = np.unique(sampler.sample(self.keys_per_round))
            vectors = delta_vectors(
                table_id, ids, self.dims[table_id], self.version
            )
            updates[table_id] = (ids, vectors)
        return self.version, updates


class CollisionAucStudy:
    """Measures AUC under a codec for the synthetic CTR task (Figure 13)."""

    def __init__(self, task: SyntheticCtrTask, epochs: int = 4, seed: int = 0):
        self.task = task
        self.epochs = epochs
        self.seed = seed

    def auc_with_codec(self, codec, weight_transform=None) -> float:
        """Train with flat keys from ``codec``; return held-out AUC.

        ``weight_transform``, if given, maps the trained weight table
        ``(keys, weights) -> new_weights`` before prediction — the hook
        the mixed-precision study uses to quantize a tier's worth of
        weights and measure the AUC movement that quantization alone
        causes (training itself is untouched).
        """
        model = _HashedLogisticModel(epochs=self.epochs, seed=self.seed)
        model.fit(codec, self.task.train_features, self.task.train_labels)
        if weight_transform is not None:
            keys = np.fromiter(
                model._weights.keys(), dtype=np.uint64,
                count=len(model._weights),
            )
            weights = np.fromiter(
                model._weights.values(), dtype=np.float64,
                count=len(model._weights),
            )
            new_weights = weight_transform(keys, weights)
            model._weights = {
                int(k): float(w) for k, w in zip(keys, new_weights)
            }
        scores = model.predict(codec, self.task.test_features)
        return auc_score(self.task.test_labels, scores)

    def upper_bound_auc(self) -> float:
        """AUC of the no-collision ideal case (Figure 13's red line)."""
        return self.auc_with_codec(_IdentityCodec())
