"""Tests for the memory-trace capture & replay subsystem (docs/MEMTRACE.md).

The load-bearing guarantees:

* attaching a recorder is purely observational (bit-for-bit identical
  ``SimStats`` with and without it);
* a same-config replay reproduces the live run's ``SimStats`` snapshot
  bit-for-bit for every recordable policy on multiple scenes;
* a cross-config replay (baseline/prefetch, replay-safe overrides)
  equals a fresh live run at that configuration exactly;
* GPU-override sweep points never consult the trace store;
* replay-unsafe requests are refused with a typed error, never served
  approximately;
* a damaged or over-budget trace surfaces as a typed error and the
  store re-records instead of trusting it.
"""

import dataclasses
import json

import pytest

from repro.errors import ConfigError, TraceBudgetExceeded, TraceError
from repro.experiments import default_context
from repro.experiments.runner import (
    ExperimentContext,
    normalize_overrides,
    run_case,
    scene_and_bvh,
)
from repro.gpusim.config import ScaledSetup
from repro.memtrace import (
    ensure_trace,
    load_trace,
    replay_trace,
    save_trace,
    trace_file_info,
    trace_path,
    try_load_trace,
)
from repro.memtrace.store import record_trace, trace_key
from repro.tracing import render_scene


@pytest.fixture(scope="module")
def ctx():
    base = default_context(fast=True)
    return ExperimentContext(
        setup=base.setup, scene_list=base.scene_list, use_disk_cache=False
    )


def _override_setup(setup: ScaledSetup, overrides) -> ScaledSetup:
    gpu = dataclasses.replace(setup.gpu, **dict(overrides))
    return dataclasses.replace(setup, gpu=gpu)


def _record(ctx, scene_name, policy):
    scene, bvh = scene_and_bvh(scene_name, ctx.setup)
    return record_trace(
        scene, bvh, ctx.setup, policy, scene_name=scene_name
    )


class TestRecorderIsObservational:
    @pytest.mark.parametrize("policy", ["baseline", "prefetch", "vtq"])
    def test_recording_changes_nothing(self, ctx, policy):
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        plain = render_scene(scene, bvh, ctx.setup, policy=policy)
        _trace, recorded = _record(ctx, "BUNNY", policy)
        assert recorded.stats.snapshot() == plain.stats.snapshot()
        assert recorded.cycles == plain.cycles
        assert recorded.per_sm_cycles == plain.per_sm_cycles

    def test_sorted_policy_is_not_recordable(self):
        from repro.memtrace import TraceRecorder

        with pytest.raises(TraceError, match="sorted"):
            TraceRecorder("sorted")


class TestSameConfigReplay:
    @pytest.mark.parametrize("scene_name", ["BUNNY", "SPNZA"])
    @pytest.mark.parametrize("policy", ["baseline", "prefetch", "vtq"])
    def test_bit_for_bit(self, ctx, scene_name, policy):
        trace, live = _record(ctx, scene_name, policy)
        replayed = replay_trace(trace)
        assert replayed.stats.snapshot() == live.stats.snapshot()
        assert replayed.cycles == live.cycles
        assert replayed.per_sm_cycles == live.per_sm_cycles
        assert replayed.replayed is True
        assert replayed.replay_wall_s > 0.0

    def test_roundtrip_through_disk(self, ctx, tmp_path):
        trace, live = _record(ctx, "BUNNY", "prefetch")
        path = tmp_path / "t.memtrace"
        nbytes = save_trace(trace, path)
        assert nbytes == path.stat().st_size
        replayed = replay_trace(load_trace(path))
        assert replayed.stats.snapshot() == live.stats.snapshot()


class TestCrossConfigReplay:
    OVERRIDES = (
        (("l2_bytes", 4 * 1024 * 1024), ("l2_latency", 60.0)),
        (("dram_latency", 500.0), ("miss_serialization_cycles", 8.0)),
        (("l1_latency", 40.0), ("intersection_latency", 12.0)),
    )

    @pytest.mark.parametrize("policy", ["baseline", "prefetch"])
    @pytest.mark.parametrize("overrides", OVERRIDES)
    def test_replay_equals_fresh_live_run(self, ctx, policy, overrides):
        trace, _live = _record(ctx, "BUNNY", policy)
        point = _override_setup(ctx.setup, overrides)
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        fresh = render_scene(scene, bvh, point, policy=policy)
        replayed = replay_trace(trace, overrides)
        assert replayed.stats.snapshot() == fresh.stats.snapshot()
        assert replayed.cycles == fresh.cycles
        assert replayed.per_sm_cycles == fresh.per_sm_cycles

    def test_vtq_trace_is_pinned(self, ctx):
        trace, _live = _record(ctx, "BUNNY", "vtq")
        with pytest.raises(TraceError, match="pinned"):
            replay_trace(trace, (("l2_latency", 60.0),))
        # ... but a no-op "override" to the recorded value is fine.
        recorded = trace.meta["gpu"]["l2_latency"]
        replay_trace(trace, (("l2_latency", recorded),))

    def test_unsafe_axis_is_refused(self, ctx):
        trace, _live = _record(ctx, "BUNNY", "baseline")
        with pytest.raises(TraceError, match="replay-unsafe"):
            replay_trace(trace, (("l1_bytes", 4096),))

    def test_unknown_field_is_refused(self, ctx):
        trace, _live = _record(ctx, "BUNNY", "baseline")
        with pytest.raises(TraceError, match="unknown GPUConfig field"):
            replay_trace(trace, (("no_such_field", 1),))


class TestSafetyClassification:
    def test_normalize_overrides(self):
        pairs = normalize_overrides({"b": 2, "a": 1})
        assert pairs == (("a", 1), ("b", 2))
        assert normalize_overrides([("b", 2), ("a", 1)]) == pairs
        assert normalize_overrides(None) == ()
        assert normalize_overrides(()) == ()


class TestStoreHardening:
    @pytest.fixture
    def traced(self, ctx, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path))
        return ctx

    def test_ensure_trace_records_then_hits(self, traced):
        key = trace_key("BUNNY", "baseline", traced.setup, None)
        assert try_load_trace(key) is None
        first = ensure_trace("BUNNY", "baseline", traced)
        path = trace_path(key)
        assert path.exists()
        stamp = path.stat().st_mtime_ns
        again = ensure_trace("BUNNY", "baseline", traced)
        assert path.stat().st_mtime_ns == stamp  # served from the store
        assert again.meta == first.meta

    def test_flipped_byte_is_typed_and_rerecorded(self, traced, caplog):
        import logging

        ensure_trace("BUNNY", "baseline", traced)
        key = trace_key("BUNNY", "baseline", traced.setup, None)
        path = trace_path(key)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError):
            load_trace(path)
        with caplog.at_level(logging.WARNING, logger="repro.memtrace"):
            assert try_load_trace(key) is None  # dropped, not trusted
        assert not path.exists()
        assert any("re-recording" in r.message for r in caplog.records)
        trace = ensure_trace("BUNNY", "baseline", traced)  # recomputes
        assert path.exists()
        assert replay_trace(trace).stats is not None

    def test_truncated_header_is_typed(self, traced):
        ensure_trace("BUNNY", "baseline", traced)
        path = trace_path(trace_key("BUNNY", "baseline", traced.setup, None))
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(TraceError):
            load_trace(path)


class TestTraceBudget:
    def test_overrun_is_typed(self, ctx, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_BUDGET_BYTES", "64")
        with pytest.raises(TraceBudgetExceeded) as exc_info:
            _record(ctx, "BUNNY", "baseline")
        err = exc_info.value
        assert err.limit == 64
        assert err.observed is not None and err.observed > 64

    def test_partial_trace_is_marked_and_refused(self, ctx, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TRACE_BUDGET_BYTES", "64")
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        trace, _result = record_trace(
            scene, bvh, ctx.setup, "baseline",
            scene_name="BUNNY", allow_partial=True,
        )
        assert trace.partial
        with pytest.raises(TraceError, match="partial"):
            replay_trace(trace)
        path = tmp_path / "partial.memtrace"
        save_trace(trace, path)
        assert trace_file_info(path)["partial"] is True

    def test_budget_disabled_by_nonpositive(self, ctx, monkeypatch):
        """``0`` uncaps recording; a negative budget is refused."""
        monkeypatch.setenv("REPRO_TRACE_BUDGET_BYTES", "0")
        trace, _live = _record(ctx, "BUNNY", "baseline")
        assert not trace.partial
        monkeypatch.setenv("REPRO_TRACE_BUDGET_BYTES", "-1")
        with pytest.raises(ConfigError, match="REPRO_TRACE_BUDGET_BYTES"):
            _record(ctx, "BUNNY", "baseline")


class TestTraceFileInfo:
    def test_memory_trace_kind(self, ctx, tmp_path):
        trace, _live = _record(ctx, "BUNNY", "prefetch")
        path = tmp_path / "m.memtrace"
        save_trace(trace, path)
        info = trace_file_info(path)
        assert info["kind"] == "memory-trace"
        assert info["scene"] == "BUNNY"
        assert info["policy"] == "prefetch"
        assert info["warps"] == trace.num_warps()
        assert info["partial"] is False

    def test_chrome_timeline_kind(self, tmp_path):
        from repro.gpusim.timeline import ActivityTimeline, write_chrome_trace

        t = ActivityTimeline()
        t.record("warp", "ray_stationary", 0, 10)
        path = tmp_path / "timeline.json"
        write_chrome_trace(t.spans, path)
        info = trace_file_info(path)
        assert info["kind"] == "chrome-timeline"
        assert info["events"] == 1

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"\x00\x01\x02 not a trace")
        assert trace_file_info(path)["kind"] == "unknown"
        path.write_text(json.dumps({"hello": 1}))
        assert trace_file_info(path)["kind"] == "unknown"


def _table_row(label, baseline_cycles, m):
    """A sweep table row, formatted independently of repro.experiments."""
    return [
        label,
        f"{m['cycles']:,.0f}",
        f"{baseline_cycles / m['cycles']:.2f}x",
        f"{m['simt_efficiency']:.2f}",
        f"{m['mode_test_fractions']['treelet_stationary']:.3f}",
    ]


def _trace_store_empty():
    from repro.memtrace import trace_dir

    directory = trace_dir()
    return not directory.exists() or not any(directory.iterdir())


class TestSweepIntegration:
    """A GPU-override point is an ordinary live run: it equals a run whose
    context carries the value directly, and it never touches the trace
    store (sweeps do not consult memtrace)."""

    @pytest.fixture
    def cached(self, ctx, tmp_path, monkeypatch):
        from repro.experiments import runner

        monkeypatch.setattr(runner, "_CACHE_DIR", tmp_path / "cache")
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
        return ExperimentContext(
            setup=ctx.setup, scene_list=ctx.scene_list, use_disk_cache=True
        )

    @pytest.mark.parametrize("scene_name", ["BUNNY", "GSPL1"])
    @pytest.mark.parametrize("policy", ["baseline", "prefetch", "vtq"])
    @pytest.mark.parametrize(
        "field_name,value",
        [("l2_bytes", 4 * 1024 * 1024), ("dram_latency", 500.0), ("l1_bytes", 4096)],
    )
    def test_override_point_matches_direct_context(
        self, ctx, tmp_path, monkeypatch, scene_name, policy, field_name, value
    ):
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
        overridden = run_case(
            scene_name, policy, ctx, gpu_overrides={field_name: value}
        )
        direct = dataclasses.replace(
            ctx, setup=_override_setup(ctx.setup, ((field_name, value),))
        )
        # Exact dict equality: same keys, same values.
        assert overridden == run_case(scene_name, policy, direct)
        assert _trace_store_empty()

    def test_sweep_gpu_param_tables_match(self, ctx, cached):
        from repro.experiments.sweeps import sweep_gpu_param

        values = [1 * 1024 * 1024, 4 * 1024 * 1024]
        table = sweep_gpu_param(
            "BUNNY", cached, "l2_bytes", values, policy="prefetch"
        )
        rows = []
        for value in values:
            direct = dataclasses.replace(
                ctx, setup=_override_setup(ctx.setup, (("l2_bytes", value),))
            )
            base = run_case("BUNNY", "baseline", direct)
            m = run_case("BUNNY", "prefetch", direct)
            rows.append(_table_row(str(value), base["cycles"], m))
        assert table["rows"] == rows
        assert _trace_store_empty()

    def test_unsafe_axis_sweeps_live(self, cached):
        from repro.experiments.sweeps import sweep_gpu_param

        table = sweep_gpu_param(
            "BUNNY", cached, "l1_bytes", [8192, 16384], policy="baseline"
        )
        assert len(table["rows"]) == 2
        assert _trace_store_empty()

    def test_override_specs_through_run_cases(self, cached):
        from repro.experiments.parallel import CaseSpec, run_cases

        specs = [
            CaseSpec("BUNNY", "baseline", gpu_overrides=(("l2_latency", v),))
            for v in (20.0, 60.0)
        ]
        assert [s.label() for s in specs] == [
            "BUNNY/baseline+l2_latency=20.0",
            "BUNNY/baseline+l2_latency=60.0",
        ]
        results = run_cases(specs, cached, jobs=0)
        metrics = [m for m, failure in results if failure is None]
        assert len(metrics) == 2
        assert metrics[0]["cycles"] != metrics[1]["cycles"]
        assert _trace_store_empty()


class TestCLI:
    def test_trace_info_text_and_json(self, ctx, tmp_path, capsys):
        from repro.cli import main

        trace, _live = _record(ctx, "BUNNY", "baseline")
        path = tmp_path / "cli.memtrace"
        save_trace(trace, path)
        assert main(["trace", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "memory trace" in out and "BUNNY" in out
        assert main(["trace", "info", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "memory-trace"

    def test_trace_replay_with_override(self, ctx, tmp_path, capsys):
        from repro.cli import main

        trace, _live = _record(ctx, "BUNNY", "baseline")
        path = tmp_path / "cli.memtrace"
        save_trace(trace, path)
        assert main(
            ["trace", "replay", str(path), "--set", "l2_latency=60.0"]
        ) == 0
        assert "cycles" in capsys.readouterr().out
        # Unsafe override: typed refusal, exit 2.
        assert main(
            ["trace", "replay", str(path), "--set", "l1_bytes=4096"]
        ) == 2

    def test_parse_overrides_rejects_garbage(self):
        from repro.cli import _parse_overrides

        assert _parse_overrides(["a=1", "b=2.5"]) == [("a", 1), ("b", 2.5)]
        with pytest.raises(ValueError):
            _parse_overrides(["novalue"])
        with pytest.raises(ValueError):
            _parse_overrides(["a=xyz"])
