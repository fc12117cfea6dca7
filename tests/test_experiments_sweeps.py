"""Tests for the design-space sweep utilities."""

import pytest

from repro.experiments.runner import ExperimentContext, run_case
from repro.experiments import default_context
from repro.experiments.sweeps import (
    sweep_gpu_param,
    sweep_scenes,
    sweep_vtq_param,
)


@pytest.fixture(scope="module")
def ctx():
    base = default_context(fast=True)
    return ExperimentContext(
        setup=base.setup, scene_list=("WKND",), use_disk_cache=False
    )


class TestVTQSweep:
    def test_rows_per_value(self, ctx):
        out = sweep_vtq_param("WKND", ctx, "queue_threshold", (8, 64))
        assert len(out["rows"]) == 2
        assert out["rows"][0][0] == "8"
        assert out["headers"][0] == "value"

    def test_metrics_parse(self, ctx):
        out = sweep_vtq_param("WKND", ctx, "repack_threshold", (8, 22))
        for row in out["rows"]:
            assert float(row[2].rstrip("x")) > 0
            assert 0 <= float(row[3]) <= 1
            assert 0 <= float(row[4]) <= 1

    def test_unknown_param_rejected(self, ctx):
        with pytest.raises(ValueError):
            sweep_vtq_param("WKND", ctx, "not_a_field", (1,))


class TestGPUSweep:
    def test_l1_sweep(self, ctx):
        out = sweep_gpu_param("WKND", ctx, "l1_bytes", (1024, 4096))
        assert len(out["rows"]) == 2

    def test_unknown_param_rejected(self, ctx):
        with pytest.raises(ValueError):
            sweep_gpu_param("WKND", ctx, "bogus", (1,))

    def test_bigger_l1_not_slower(self, ctx):
        out = sweep_gpu_param("WKND", ctx, "l1_bytes", (512, 8192),
                              policy="baseline")
        small = float(out["rows"][0][1].replace(",", ""))
        large = float(out["rows"][1][1].replace(",", ""))
        assert large <= small * 1.05

    def test_l1_points_equal_run_case(self, ctx):
        # l1_bytes sets the treelet budget (half of L1), so each point
        # needs its own BVH; with the default-L1 BVH, BUNNY/vtq at 1 KiB
        # reads 28,237 cycles instead of 25,308.
        values = [1024, 4096]
        out = sweep_gpu_param("BUNNY", ctx, "l1_bytes", values, policy="vtq")
        rows = []
        for value in values:
            overrides = {"l1_bytes": value}
            b = run_case("BUNNY", "baseline", ctx, gpu_overrides=overrides)
            m = run_case("BUNNY", "vtq", ctx, gpu_overrides=overrides)
            rows.append([
                str(value),
                f"{m['cycles']:,.0f}",
                f"{b['cycles'] / m['cycles']:.2f}x",
                f"{m['simt_efficiency']:.2f}",
                f"{m['mode_test_fractions']['treelet_stationary']:.3f}",
            ])
        assert out["rows"] == rows


class TestSceneSweep:
    def test_one_row_per_scene(self, ctx):
        out = sweep_scenes(ctx)
        assert len(out["rows"]) == 1
        assert out["rows"][0][0] == "WKND"
