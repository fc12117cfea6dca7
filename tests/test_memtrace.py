"""Tests for memory traces: stored render plans (docs/MEMTRACE.md).

The load-bearing guarantees:

* recording a trace is purely observational (bit-for-bit identical
  ``SimStats`` with and without it), for every policy;
* a same-config replay reproduces the live run's ``SimStats`` snapshot,
  cycles and image bit-for-bit for every policy on multiple scenes;
* for every ``GPUConfig`` field, a replay either refuses a change
  (exactly ``l1_bytes`` and ``line_bytes``, which change the BVH) or,
  with the field changed, equals a fresh live run at that configuration;
* GPU-override sweep points never consult the trace store;
* a damaged trace file surfaces as a typed error and the store
  re-records instead of trusting it.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import TraceError
from repro.experiments import default_context
from repro.experiments.runner import (
    ExperimentContext,
    normalize_overrides,
    run_case,
    scene_and_bvh,
)
from repro.gpusim.config import GPUConfig, ScaledSetup
from repro.memtrace import (
    PLAN_GPU_FIELDS,
    ensure_trace,
    load_trace,
    replay_trace,
    save_trace,
    trace_file_info,
    trace_path,
    try_load_trace,
)
from repro.memtrace.format import decode_trace, encode_trace
from repro.memtrace.store import record_trace, trace_key
from repro.tracing import render_scene

POLICIES = ["baseline", "prefetch", "sorted", "vtq"]


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


def _assert_same_run(replayed, live):
    assert replayed.stats.snapshot() == live.stats.snapshot()
    assert replayed.cycles == live.cycles
    assert replayed.per_sm_cycles == live.per_sm_cycles
    assert replayed.image.tobytes() == live.image.tobytes()


def _assert_same_trace(a, b):
    assert a.meta == b.meta
    assert a.radiance.tobytes() == b.radiance.tobytes()
    assert len(a.batches) == len(b.batches)
    for x, y in zip(a.batches, b.batches):
        assert x.keys() == y.keys()
        for name in x:
            assert x[name].dtype == y[name].dtype
            assert np.array_equal(x[name], y[name])


class TestRecorderIsObservational:
    """Recording keeps the plan a render used; it changes nothing."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_recording_changes_nothing(self, ctx, policy):
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        plain = render_scene(scene, bvh, ctx.setup, policy=policy)
        _trace, recorded = _record(ctx, "BUNNY", policy)
        _assert_same_run(recorded, plain)


class TestSameConfigReplay:
    @pytest.mark.parametrize("scene_name", ["BUNNY", "SPNZA"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_bit_for_bit(self, ctx, scene_name, policy):
        trace, live = _record(ctx, scene_name, policy)
        _assert_same_run(replay_trace(trace), live)

    def test_roundtrip_through_disk(self, ctx, tmp_path):
        trace, live = _record(ctx, "BUNNY", "prefetch")
        path = tmp_path / "t.memtrace"
        nbytes = save_trace(trace, path)
        assert nbytes == path.stat().st_size
        loaded = load_trace(path)
        _assert_same_trace(loaded, trace)
        _assert_same_run(replay_trace(loaded), live)


class TestCrossConfigReplay:
    OVERRIDES = (
        (("l2_bytes", 4 * 1024 * 1024), ("l2_latency", 60.0)),
        (("dram_latency", 500.0), ("miss_serialization_cycles", 8.0)),
        (("l1_latency", 40.0), ("intersection_latency", 12.0)),
    )

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("overrides", OVERRIDES)
    def test_replay_equals_fresh_live_run(self, ctx, policy, overrides):
        trace, _live = _record(ctx, "BUNNY", policy)
        point = _override_setup(ctx.setup, overrides)
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        fresh = render_scene(scene, bvh, point, policy=policy)
        _assert_same_run(replay_trace(trace, overrides), fresh)

    def test_unsafe_axis_is_refused(self, ctx):
        trace, _live = _record(ctx, "BUNNY", "baseline")
        with pytest.raises(TraceError, match="change the BVH"):
            replay_trace(trace, (("l1_bytes", 4096),))

    def test_unknown_field_is_refused(self, ctx):
        trace, _live = _record(ctx, "BUNNY", "baseline")
        with pytest.raises(TraceError, match="unknown GPUConfig field"):
            replay_trace(trace, (("no_such_field", 1),))


# A changed, valid value for every GPUConfig field the plan does not
# depend on.  A new GPUConfig field fails test_every_field_is_classified
# until it is added here or to PLAN_GPU_FIELDS.
CHANGED_VALUES = {
    "num_sms": 3,
    "max_warps_per_sm": 16,
    "warp_size": 16,
    "max_cta_per_sm": 2,
    "registers_per_sm": 16384,
    "l1_latency": 20,
    "l1_assoc": 4,
    "l2_bytes": 4 * 1024 * 1024,
    "l2_latency": 60,
    "l2_assoc": 4,
    "rt_units_per_sm": 2,
    "rt_warp_buffer_size": 2,
    "dram_latency": 200,
    "dram_line_transfer": 6,
    "intersection_latency": 12,
    "miss_serialization_cycles": 8,
    "raygen_cycles_per_warp": 200,
    "shade_cycles_per_warp": 400,
    "cta_launch_cycles": 90,
    "cta_threads": 128,
    "gaussian_alpha_cycles": 20,
    "gaussian_blend_cycles": 7,
    "ray_sort_cycles_per_key": 9,
    "detailed_dram": True,
    "dram_channels": 4,
    "dram_banks": 2,
    "dram_row_bytes": 512,
    "dram_t_cas": 10,
    "dram_t_rcd": 90,
    "dram_t_rp": 5,
    "dram_base_cycles": 100,
    "max_virtual_rays_per_sm": 128,
    "raygen_registers_per_thread": 40,
    "simt_stack_depth": 6,
    "cta_resume_schedule_cycles": 300,
}
REFUSED_VALUES = {"l1_bytes": 4096, "line_bytes": 64}


@pytest.fixture(scope="module")
def field_traces(ctx):
    """One trace per (scene, policy) of the field matrix, through disk
    bytes so the replays read what a file holds."""
    return {
        (scene_name, policy): decode_trace(
            encode_trace(_record(ctx, scene_name, policy)[0])
        )
        for scene_name in ("BUNNY", "GSPL1")
        for policy in POLICIES
    }


class TestPlanFields:
    """Which GPUConfig fields the stored plan depends on."""

    def test_every_field_is_classified(self):
        names = {f.name for f in dataclasses.fields(GPUConfig)}
        assert set(PLAN_GPU_FIELDS) == set(REFUSED_VALUES)
        assert names == set(CHANGED_VALUES) | set(REFUSED_VALUES)

    @pytest.mark.parametrize("scene_name", ["BUNNY", "GSPL1"])
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("name", sorted(REFUSED_VALUES))
    def test_plan_field_change_is_refused(
        self, field_traces, scene_name, policy, name
    ):
        trace = field_traces[(scene_name, policy)]
        with pytest.raises(TraceError, match=name):
            replay_trace(trace, {name: REFUSED_VALUES[name]})

    def test_plan_field_at_its_recorded_value_replays(self, ctx, field_traces):
        trace = field_traces[("BUNNY", "baseline")]
        same = {name: trace.meta["gpu"][name] for name in REFUSED_VALUES}
        _trace, live = _record(ctx, "BUNNY", "baseline")
        _assert_same_run(replay_trace(trace, same), live)

    @pytest.mark.parametrize("scene_name", ["BUNNY", "GSPL1"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_other_field_replays_exactly(
        self, ctx, field_traces, scene_name, policy
    ):
        trace = field_traces[(scene_name, policy)]
        scene, bvh = scene_and_bvh(scene_name, ctx.setup)
        for name, value in sorted(CHANGED_VALUES.items()):
            assert getattr(ctx.setup.gpu, name) != value, name
            point = _override_setup(ctx.setup, ((name, value),))
            fresh = render_scene(scene, bvh, point, policy=policy)
            replayed = replay_trace(trace, {name: value})
            assert replayed.stats.snapshot() == fresh.stats.snapshot(), name
            assert replayed.cycles == fresh.cycles, name
            assert replayed.per_sm_cycles == fresh.per_sm_cycles, name
            assert replayed.image.tobytes() == fresh.image.tobytes(), name


class TestSafetyClassification:
    def test_normalize_overrides(self):
        pairs = normalize_overrides({"b": 2, "a": 1})
        assert pairs == (("a", 1), ("b", 2))
        assert normalize_overrides([("b", 2), ("a", 1)]) == pairs
        assert normalize_overrides(None) == ()
        assert normalize_overrides(()) == ()


def _corrupt_count():
    from repro.obs import registry

    family = registry().counter("repro_memtrace_traces_total", "", ("event",))
    return family.labels(event="corrupt").value


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
        _assert_same_trace(again, first)

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

    def test_wrong_version_file_is_a_counted_miss(self, traced):
        first = ensure_trace("BUNNY", "vtq", traced)
        path = trace_path(trace_key("BUNNY", "vtq", traced.setup, None))
        path.write_bytes(_with_version(path.read_bytes(), b"2"))
        before = _corrupt_count()
        again = ensure_trace("BUNNY", "vtq", traced)
        assert _corrupt_count() == before + 1
        _assert_same_trace(again, first)
        _assert_same_trace(load_trace(path), first)  # recorded again


def _with_version(data: bytes, version: bytes) -> bytes:
    header, _, payload = data.partition(b"\n")
    magic, _old, digest = header.split(b" ")
    return b" ".join((magic, version, digest)) + b"\n" + payload


@pytest.fixture(scope="module")
def small_trace_bytes(ctx):
    """A one-bounce 4x4 trace, small enough to fuzz."""
    setup = dataclasses.replace(
        ctx.setup, image_width=4, image_height=4, max_bounces=0
    )
    scene, bvh = scene_and_bvh("BUNNY", setup)
    trace, _live = record_trace(scene, bvh, setup, "baseline", scene_name="BUNNY")
    return encode_trace(trace)


class TestMalformedFiles:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_flips_and_truncations(self, small_trace_bytes, data):
        original = decode_trace(small_trace_bytes)
        blob = bytearray(small_trace_bytes)
        if data.draw(st.booleans(), label="truncate"):
            cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
            blob = blob[:cut]
        else:
            flips = data.draw(
                st.lists(
                    st.tuples(st.integers(0, len(blob) - 1), st.integers(1, 255)),
                    min_size=1, max_size=4,
                ),
                label="flips",
            )
            for index, mask in flips:
                blob[index] ^= mask
        try:
            loaded = decode_trace(bytes(blob))
        except TraceError:
            return
        _assert_same_trace(loaded, original)

    def test_wrong_version_is_typed(self, small_trace_bytes):
        with pytest.raises(TraceError, match="version"):
            decode_trace(_with_version(small_trace_bytes, b"2"))

    @pytest.mark.parametrize("defect", ["short_column", "missing_column", "bad_slot"])
    def test_checksummed_but_inconsistent_arrays_are_typed(
        self, small_trace_bytes, defect
    ):
        trace = decode_trace(small_trace_bytes)
        columns = trace.batches[0]
        if defect == "short_column":
            columns["tests"] = columns["tests"][:-1]
        elif defect == "missing_column":
            del columns["chain_ptr"]
        else:
            columns["slots"] = columns["slots"] + trace.meta["pixels"]
        with pytest.raises(TraceError, match="incomplete"):
            decode_trace(encode_trace(trace))

    def test_bvh_digest_mismatch_is_typed(self, small_trace_bytes):
        trace = decode_trace(small_trace_bytes)
        trace.meta["bvh_digest"] = "0" * 24
        with pytest.raises(TraceError, match="BVH"):
            replay_trace(decode_trace(encode_trace(trace)))

    def test_trace_info_on_a_defective_file_exits_2(
        self, small_trace_bytes, tmp_path, capsys
    ):
        from repro.cli import main

        path = tmp_path / "bad.memtrace"
        path.write_bytes(small_trace_bytes[:-7])
        assert main(["trace", "info", str(path)]) == 2
        assert "DEFECTIVE" in capsys.readouterr().err
        assert main(["trace", "info", str(path), "--format", "json"]) == 2


class TestTraceFileInfo:
    def test_memory_trace_kind(self, ctx, tmp_path):
        trace, _live = _record(ctx, "BUNNY", "prefetch")
        path = tmp_path / "m.memtrace"
        save_trace(trace, path)
        info = trace_file_info(path)
        assert info["kind"] == "memory-trace"
        assert info["scene"] == "BUNNY"
        assert info["policy"] == "prefetch"
        assert info["bounces"] == len(trace.batches)
        assert info["rays"] == trace.num_rays() > 0
        assert info["visits"] == trace.num_visits() > info["rays"]

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
        # A field the plan depends on: typed refusal, exit 2.
        assert main(
            ["trace", "replay", str(path), "--set", "l1_bytes=4096"]
        ) == 2
        # A negative cost is refused by GPUConfig itself, exit 2.
        assert main(
            ["trace", "replay", str(path), "--set", "dram_latency=-100"]
        ) == 2
        assert "dram_latency" in capsys.readouterr().err

    def test_parse_overrides_rejects_garbage(self):
        from repro.cli import _parse_overrides

        assert _parse_overrides(["a=1", "b=2.5"]) == [("a", 1), ("b", 2.5)]
        with pytest.raises(ValueError):
            _parse_overrides(["novalue"])
        with pytest.raises(ValueError):
            _parse_overrides(["a=xyz"])
