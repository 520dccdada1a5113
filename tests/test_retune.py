"""Tests for the online retune surface: the runtime setters on
``FlatCache``, with validation intact.
"""

import pytest

from repro import FlecheConfig, default_platform
from repro.core.precision import PrecisionConfig
from repro.core.workflow import FlecheEmbeddingLayer
from repro.errors import ConfigError
from repro.tables.store import EmbeddingStore
from repro.workloads.synthetic import uniform_tables_spec


def _layer():
    hw = default_platform()
    dataset = uniform_tables_spec(
        num_tables=3, corpus_size=2_000, alpha=-1.2, dim=16,
    )
    store = EmbeddingStore(dataset.table_specs(), hw)
    precision = PrecisionConfig(
        fp32_share=0.25, fp16_share=0.25, int8_share=0.5
    )
    return FlecheEmbeddingLayer(
        store, FlecheConfig(cache_ratio=0.05, precision=precision), hw,
    )


class TestCacheKnobs:
    def test_set_admission_probability(self):
        cache = _layer().cache
        cache.set_admission_probability(0.4)
        assert cache.admission.probability == 0.4
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                cache.set_admission_probability(bad)
