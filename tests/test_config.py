"""Tests for FlecheConfig and PerTableConfig validation."""

import pytest

from repro.baselines.per_table_cache import PerTableConfig
from repro.core.config import FlecheConfig
from repro.errors import ConfigError


class TestFlecheConfig:
    def test_defaults_enable_all_techniques(self):
        cfg = FlecheConfig()
        assert cfg.use_fusion and cfg.decouple_copy and cfg.use_unified_index

    def test_rejects_bad_cache_ratio(self):
        with pytest.raises(ConfigError):
            FlecheConfig(cache_ratio=0.0)
        with pytest.raises(ConfigError):
            FlecheConfig(cache_ratio=1.5)

    def test_rejects_bad_key_bits(self):
        with pytest.raises(ConfigError):
            FlecheConfig(key_bits=4)
        with pytest.raises(ConfigError):
            FlecheConfig(key_bits=128)

    def test_rejects_bad_watermarks(self):
        with pytest.raises(ConfigError):
            FlecheConfig(evict_high_watermark=0.5, evict_low_watermark=0.6)
        with pytest.raises(ConfigError):
            FlecheConfig(evict_high_watermark=1.2)

    def test_rejects_bad_admission(self):
        with pytest.raises(ConfigError):
            FlecheConfig(admission_probability=0.0)


class TestPerTableConfig:
    def test_defaults(self):
        assert PerTableConfig().cache_ratio == 0.05

    def test_rejects_bad_ratio(self):
        with pytest.raises(ConfigError):
            PerTableConfig(cache_ratio=0.0)
