"""Bit-exactness contract of the plan-replay engine.

``render_scene`` precomputes a policy-independent render plan (one
functional pass over all rays) and replays it through pure timing
engines.  Its license to exist is exactness: for every scene x policy x
error-path combination it must produce byte-identical ``SimStats``
snapshots, images, cycle counts and timeline spans to the independent
scalar renderer in ``tests/scalar_reference.py``.  Memory-trace
recordings, made on the replay engines, must match digests of the
recordings the scalar engines produced before recording moved.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro import faults, settings
from repro.errors import BudgetExceeded, ConfigError, SanitizerError
from repro.experiments import default_context
from repro.experiments.runner import ExperimentContext, scene_and_bvh
from repro.faults import FaultSpec
from repro.core.config import VTQConfig
from repro.gpusim.soa import get_plan
from repro.memtrace import replay_trace
from repro.memtrace.store import record_trace
from repro.tracing import render_scene
from tests.scalar_reference import reference_render

SCENES = ("BUNNY", "SPNZA")
POLICIES = ("baseline", "prefetch", "vtq", "sorted")
# Engine class names SIM_STALL fault specs match on, per policy.
STALL_MATCH = {"baseline": "BaselineRTUnit", "prefetch": "PrefetchRTUnit",
               "vtq": "VTQRTUnit", "sorted": "BaselineRTUnit"}


@pytest.fixture(scope="module")
def ctx():
    base = default_context(fast=True)
    return ExperimentContext(
        setup=base.setup, scene_list=base.scene_list, use_disk_cache=False
    )


def _render_both(scene, bvh, setup, policy, **kw):
    reference = reference_render(scene, bvh, setup, policy=policy, **kw)
    replay = render_scene(scene, bvh, setup, policy=policy, **kw)
    return reference, replay


def _assert_identical(reference, replay):
    assert replay.engine_fallback_reason is None
    assert replay.stats.snapshot() == reference.stats.snapshot()
    assert replay.image.tobytes() == reference.image.tobytes()
    assert replay.cycles == reference.cycles
    assert replay.per_sm_cycles == reference.per_sm_cycles


class TestBitExactness:
    @pytest.mark.parametrize("scene_name", SCENES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_stats_image_cycles(self, ctx, scene_name, policy):
        scene, bvh = scene_and_bvh(scene_name, ctx.setup)
        _assert_identical(*_render_both(scene, bvh, ctx.setup, policy))

    @pytest.mark.parametrize("scene_name", SCENES)
    def test_vtq_scaled_queues(self, ctx, scene_name):
        scene, bvh = scene_and_bvh(scene_name, ctx.setup)
        reference, replay = _render_both(
            scene, bvh, ctx.setup, "vtq", vtq_config=VTQConfig().scaled_to(256)
        )
        _assert_identical(reference, replay)

    def test_multi_sample_renders(self, ctx):
        setup = dataclasses.replace(ctx.setup, samples_per_pixel=2)
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        for policy in POLICIES:
            _assert_identical(*_render_both(scene, bvh, setup, policy))

    @pytest.mark.parametrize("policy", ("baseline", "vtq", "sorted"))
    def test_timeline_spans_identical(self, ctx, policy):
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        reference, replay = _render_both(
            scene, bvh, ctx.setup, policy, record_timeline=True
        )
        _assert_identical(reference, replay)
        assert len(replay.timelines) == len(reference.timelines)
        for a, b in zip(reference.timelines, replay.timelines):
            assert a.spans == b.spans


class TestErrorPaths:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_cycle_budget_partial_stats(self, ctx, policy):
        """BudgetExceeded fires at the same cycle with the same partials."""
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        outcomes = []
        for render in (reference_render, render_scene):
            with pytest.raises(BudgetExceeded) as exc_info:
                render(scene, bvh, ctx.setup, policy=policy, cycle_budget=5000.0)
            err = exc_info.value
            outcomes.append((str(err), err.limit, err.observed, err.partial))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_sanitizer_passes_soa_renders(self, ctx, policy):
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        result = render_scene(scene, bvh, ctx.setup, policy=policy, sanitize=True)
        assert result.engine_fallback_reason is None

    def test_sanitizer_catches_corruption_under_soa(self, ctx):
        """The STATS_CORRUPT chaos fault trips the sanitizer identically."""
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        for policy in ("vtq", "sorted"):
            messages = []
            for render in (reference_render, render_scene):
                with faults.injected(
                    FaultSpec(site=faults.STATS_CORRUPT, match=f"BUNNY:{policy}")
                ):
                    with pytest.raises(SanitizerError) as exc_info:
                        render(scene, bvh, ctx.setup, policy=policy, sanitize=True)
                messages.append(str(exc_info.value))
            assert messages[0] == messages[1]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_sim_stall_fault_hits_soa_engines(self, ctx, policy):
        """SIM_STALL specs match the replay classes (names contain the
        scalar names), so chaos runs behave the same under either."""
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        cycles = []
        for render in (reference_render, render_scene):
            with faults.injected(
                FaultSpec(
                    site=faults.SIM_STALL, match=STALL_MATCH[policy],
                    payload={"extra_cycles": 123456.0},
                )
            ):
                cycles.append(render(scene, bvh, ctx.setup, policy=policy).cycles)
        assert cycles[0] == cycles[1]
        assert cycles[0] >= 123456.0


def trace_digest(trace) -> str:
    """sha256 over a trace's decoded payload: metadata (minus the
    recording's wall time) and every array's dtype, shape and bytes.

    The on-disk header checksum covers the npz container too, whose zip
    entries carry write timestamps, so it differs between identical
    recordings; this digest does not.
    """
    h = hashlib.sha256()
    meta = dict(trace.meta)
    meta.pop("record_wall_s")
    h.update(json.dumps(meta, sort_keys=True).encode())
    arrays = [trace.image, trace.treelet_base, trace.treelet_sizes]
    for sm in trace.sms:
        arrays += [sm.ops, sm.fops, sm.warp_start, sm.warp_end,
                   sm.warp_ready, sm.warp_parent]
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


# Digests of the recordings the scalar engines made (fast setup), taken
# before recording moved onto the replay engines.
GOLDEN_TRACE_DIGESTS = {
    ("BUNNY", "baseline"): "d4131c92631948322f845bfe83aa56aa25ac5b122008c6734efbd7e165e57904",
    ("BUNNY", "prefetch"): "ac345824b48fcac92f354c328ad54360c8834b9d56a119b2fa51009bc33126bf",
    ("BUNNY", "vtq"): "d81e4b53e9ddac934b35b5d4641c57b1bb216e080f1412dcc3b019705901310b",
    ("GSPL1", "vtq"): "289fff89c44915c3ece47b834e0550906240786018dcbddd20f7191027367626",
}


class TestRecording:
    @pytest.mark.parametrize(
        "scene_name,policy", sorted(GOLDEN_TRACE_DIGESTS),
        ids=[f"{s}-{p}" for s, p in sorted(GOLDEN_TRACE_DIGESTS)],
    )
    def test_recording_matches_scalar_golden(self, ctx, scene_name, policy):
        scene, bvh = scene_and_bvh(scene_name, ctx.setup)
        trace, live = record_trace(
            scene, bvh, ctx.setup, policy, scene_name=scene_name
        )
        assert live.engine_fallback_reason is None
        assert trace_digest(trace) == GOLDEN_TRACE_DIGESTS[(scene_name, policy)]

    @pytest.mark.parametrize("policy", ("prefetch", "vtq"))
    def test_recording_replays_bit_for_bit(self, ctx, policy):
        """A recorded render equals the reference render, and its trace
        replays byte-for-byte."""
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        trace, live = record_trace(
            scene, bvh, ctx.setup, policy, scene_name="BUNNY"
        )
        _assert_identical(reference_render(scene, bvh, ctx.setup, policy=policy), live)
        replayed = replay_trace(trace)
        assert replayed.stats.snapshot() == live.stats.snapshot()
        assert replayed.cycles == live.cycles
        assert replayed.per_sm_cycles == live.per_sm_cycles

    def test_sorted_replays_the_plan_sort_keys(self, ctx):
        """The one policy that used to run the scalar engine now replays
        the plan, taking its bounce-barrier order from the keys the plan
        stored; the reference sorts live ray geometry instead.  A splat
        scene at two samples per pixel is outside the main matrix."""
        setup = dataclasses.replace(ctx.setup, samples_per_pixel=2)
        scene, bvh = scene_and_bvh("GSPL1", ctx.setup)
        plan = get_plan(scene, bvh, setup)
        secondary = [t.sort_key for (_slot, b), t in plan.traces.items() if b]
        assert secondary and len(set(secondary)) > 1
        _assert_identical(*_render_both(scene, bvh, setup, "sorted"))


class TestPlanCache:
    def test_plan_reused_across_policies(self, ctx):
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        first = get_plan(scene, bvh, ctx.setup)
        again = get_plan(scene, bvh, ctx.setup)
        assert first is again

    def test_plan_cache_knob_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOA_PLAN_CACHE", "abc")
        with pytest.raises(ConfigError, match="REPRO_SOA_PLAN_CACHE.*'abc'"):
            settings.get("REPRO_SOA_PLAN_CACHE")
        monkeypatch.setenv("REPRO_SOA_PLAN_CACHE", "2")
        assert settings.get("REPRO_SOA_PLAN_CACHE") == 2

    def test_plan_keyed_on_render_parameters(self, ctx):
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        base = get_plan(scene, bvh, ctx.setup)
        spp2 = get_plan(
            scene, bvh, dataclasses.replace(ctx.setup, samples_per_pixel=2)
        )
        assert spp2 is not base
        assert spp2.num_slots == 2 * base.num_slots
