"""Tests for the hardware platform specification."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.hardware import (
    CpuSpec,
    GpuSpec,
    HardwareSpec,
    InterconnectSpec,
    default_platform,
)


class TestDefaultPlatform:
    def test_matches_paper_table1_cpu(self):
        hw = default_platform()
        assert hw.cpu.cores == 64
        assert hw.cpu.dram_capacity == 512 * 1024**3
        assert hw.cpu.dram_bandwidth == 60e9

    def test_matches_paper_table1_gpu(self):
        hw = default_platform()
        assert hw.gpu.cuda_cores == 2560
        assert hw.gpu.hbm_capacity == 15 * 1024**3
        assert hw.gpu.hbm_bandwidth == 300e9

    def test_gdrcopy_much_cheaper_than_cudamemcpy(self):
        # Paper §4: 6-7 us vs ~0.1 us.
        hw = default_platform()
        ratio = hw.interconnect.cudamemcpy_overhead / hw.interconnect.gdrcopy_overhead
        assert ratio > 20

    def test_validate_passes(self):
        default_platform().validate()


class TestValidation:
    def test_rejects_zero_dram_bandwidth(self):
        hw = HardwareSpec(cpu=CpuSpec(dram_bandwidth=0))
        with pytest.raises(ConfigError):
            hw.validate()

    def test_rejects_bad_efficiency(self):
        hw = HardwareSpec(gpu=GpuSpec(hbm_random_efficiency=1.5))
        with pytest.raises(ConfigError):
            hw.validate()

    def test_rejects_negative_launch_overhead(self):
        base = default_platform()
        hw = dataclasses.replace(
            base, kernel=dataclasses.replace(base.kernel, launch_overhead=-1.0)
        )
        with pytest.raises(ConfigError):
            hw.validate()

    def test_rejects_zero_pcie(self):
        hw = HardwareSpec(interconnect=InterconnectSpec(pcie_bandwidth=0))
        with pytest.raises(ConfigError):
            hw.validate()


class TestFrozen:
    def test_spec_is_frozen(self):
        hw = default_platform()
        with pytest.raises(dataclasses.FrozenInstanceError):
            hw.cpu.cores = 1
