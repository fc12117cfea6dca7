"""Tests for GPU configuration (Table 1) and scaling."""

import pytest

from repro.gpusim import GPUConfig, paper_config, scaled_config
from repro.gpusim.config import default_setup


class TestTable1:
    """paper_config() must match the paper's Table 1 verbatim."""

    def test_table1_values(self):
        c = paper_config()
        assert c.num_sms == 16
        assert c.max_warps_per_sm == 32
        assert c.warp_size == 32
        assert c.max_cta_per_sm == 16
        assert c.registers_per_sm == 32768
        assert c.l1_bytes == 16 * 1024
        assert c.l1_latency == 39
        assert c.l1_assoc is None  # fully associative
        assert c.l2_bytes == 128 * 1024
        assert c.l2_latency == 187
        assert c.l2_assoc == 16
        assert c.rt_units_per_sm == 1
        assert c.rt_warp_buffer_size == 1

    def test_treelet_budget_is_half_l1(self):
        assert paper_config().treelet_bytes == 8 * 1024

    def test_ray_data_sizing_matches_sec65(self):
        c = paper_config()
        assert c.ray_record_bytes == 32
        assert c.ray_data_reserved_bytes == 128 * 1024  # 4096 rays x 32 B

    def test_cta_state_bytes_formula(self):
        c = paper_config()
        expected = 64 * 10 * 4 + 2 * 2 * 12  # regs + 2 warps x 2-deep stacks
        assert c.cta_state_bytes() == expected


class TestValidation:
    def test_bad_warp_size(self):
        with pytest.raises(ValueError):
            GPUConfig(warp_size=0)

    def test_cache_line_multiple(self):
        with pytest.raises(ValueError):
            GPUConfig(l1_bytes=100, line_bytes=32)

    def test_cta_warp_multiple(self):
        with pytest.raises(ValueError):
            GPUConfig(cta_threads=50)


# Every latency, cycle-cost and DRAM-timing field of GPUConfig.
COST_FIELDS = (
    "l1_latency", "l2_latency", "dram_latency", "dram_line_transfer",
    "intersection_latency", "miss_serialization_cycles",
    "raygen_cycles_per_warp", "shade_cycles_per_warp", "cta_launch_cycles",
    "gaussian_alpha_cycles", "gaussian_blend_cycles",
    "ray_sort_cycles_per_key", "dram_t_cas", "dram_t_rcd", "dram_t_rp",
    "dram_base_cycles", "cta_resume_schedule_cycles",
)


class TestCostFields:
    @pytest.mark.parametrize("name", COST_FIELDS)
    def test_negative_is_refused(self, name):
        with pytest.raises(ValueError, match=name):
            GPUConfig(**{name: -1})
        with pytest.raises(ValueError, match=name):
            GPUConfig(**{name: -0.5})

    @pytest.mark.parametrize("name", COST_FIELDS)
    def test_zero_is_accepted(self, name):
        assert getattr(GPUConfig(**{name: 0}), name) == 0

    def test_table_covers_every_cost_named_field(self):
        import dataclasses

        names = {f.name for f in dataclasses.fields(GPUConfig)}
        costly = {
            n for n in names
            if n.endswith(("_latency", "_cycles", "_transfer", "_per_warp",
                           "_per_key"))
            or n.startswith("dram_t_")
        }
        assert costly == set(COST_FIELDS)

    def test_sweep_override_is_refused(self):
        import dataclasses

        with pytest.raises(ValueError, match="dram_latency"):
            dataclasses.replace(scaled_config(), dram_latency=-100)


class TestScaling:
    def test_scaled_keeps_latencies(self):
        s = scaled_config()
        p = paper_config()
        assert s.l1_latency == p.l1_latency
        assert s.l2_latency == p.l2_latency
        assert s.dram_latency == p.dram_latency

    def test_scaled_preserves_l2_l1_ratio(self):
        s = scaled_config(cache_divisor=4)
        assert s.l2_bytes // s.l1_bytes == 8

    def test_scaled_treelet_still_half_l1(self):
        s = scaled_config(cache_divisor=4)
        assert s.treelet_bytes == s.l1_bytes // 2

    def test_default_setup_fast_is_small(self):
        fast = default_setup(fast=True)
        full = default_setup(fast=False)
        assert fast.pixels < full.pixels

    def test_default_setup_respects_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "4.0")
        setup = default_setup()
        assert setup.image_width == 128
        assert setup.scene_scale == 4.0

    def test_warps_per_cta(self):
        assert paper_config().warps_per_cta == 2
