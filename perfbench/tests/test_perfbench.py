"""Tests of the benchmark's own logic: generators, percentiles, digests, wrappers."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from perfbench import pools, spans  # noqa: E402
from perfbench.common import DigestCheck, digest, percentile, pinned_env  # noqa: E402

SEEDS = range(12)


@pytest.mark.parametrize("make", [
    lambda seed: pools.shuffled(pools.cold_pool(), seed, "cold"),
    lambda seed: pools.shuffled(pools.warm_pool(), seed, "warm"),
    pools.served_streams,
])
def test_same_seed_same_operations(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


@pytest.mark.parametrize("pool, salt", [
    (pools.cold_pool, "cold"), (pools.warm_pool, "warm"),
])
def test_every_seed_runs_the_whole_pool_once(pool, salt):
    for seed in SEEDS:
        ops = pools.shuffled(pool(), seed, salt)
        assert sorted(c.id for c in ops) == sorted(c.id for c in pool())


def test_served_streams_compute_every_job_once_and_repeat_only_seen_jobs():
    pool_ids = sorted(c.id for c in pools.served_pool())
    for seed in SEEDS:
        streams = pools.served_streams(seed)
        assert len(streams) == pools.SERVED_CLIENTS
        assert sum(len(s) for s in streams) == pools.SERVED_SUBMISSIONS
        new = [sub.case.id for stream in streams for sub in stream if not sub.repeat]
        assert sorted(new) == pool_ids  # each distinct job once, split across clients
        for stream in streams:
            seen = set()
            for sub in stream:
                if sub.repeat:
                    assert sub.case.id in seen
                else:
                    seen.add(sub.case.id)
        repeats = sum(sub.repeat for stream in streams for sub in stream)
        assert 0.25 <= repeats / pools.SERVED_SUBMISSIONS <= 0.4


def test_pool_cases_have_distinct_vtq_configs_per_scene():
    from repro.experiments.runner import default_context

    context = default_context()
    for scene, labels in pools.SERVED_VTQ.items():
        configs = [repr(pools.vtq_config(v, context)) for v in labels]
        assert len(set(configs)) == len(configs), scene


def test_case_ids_round_trip():
    for case in pools.all_cases():
        assert pools.Case.parse(case.id) == case
    with pytest.raises(ValueError):
        pools.Case.parse("BUNNY/vtq")


def test_percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    assert percentile(list(range(100)), 90) == 89
    assert percentile(list(range(100)), 50, min_beyond=10) == 49


def test_perturbed_result_is_counted_as_failed():
    metrics = {"cycles": 1234.5, "node_visits": 77, "per_sm_cycles": [1.0, 2.0]}
    check = DigestCheck({"BUNNY/vtq/default": digest(metrics)})
    assert check.check("BUNNY/vtq/default", digest(dict(metrics)))
    perturbed = dict(metrics, cycles=1234.5000001)
    assert not check.check("BUNNY/vtq/default", digest(perturbed))
    assert not check.check("SPNZA/vtq/default", digest(metrics))  # not in the table
    assert check.wrong == ["BUNNY/vtq/default", "SPNZA/vtq/default"]


def test_committed_table_covers_every_pool_case():
    from perfbench.common import load_digests

    table = load_digests()
    assert sorted(table) == sorted(c.id for c in pools.all_cases())


def test_env_pinning_drops_stray_repro_settings(tmp_path):
    env = pinned_env(tmp_path, ROOT, {"REPRO_SOA_ENGINE": "0", "REPRO_SCALE": "4",
                                      "REPRO_SCENES": "HAIR", "HOME": "/h"})
    assert {k for k in env if k.startswith("REPRO_")} == {"REPRO_CACHE_DIR", "REPRO_MEMTRACE"}
    assert env["REPRO_CACHE_DIR"] == str(tmp_path)
    assert env["REPRO_MEMTRACE"] == "0"
    assert env["HOME"] == "/h"


def _fast_case(tracer):
    from repro.experiments import runner
    from repro.experiments.runner import ExperimentContext
    from repro.gpusim.config import default_setup

    context = ExperimentContext(setup=default_setup(fast=True), scene_list=("BUNNY",),
                                use_disk_cache=False)
    runner._scene_cache.clear()
    with tracer.operation("BUNNY/prefetch/default"):
        return runner.run_case("BUNNY", "prefetch", context)


def test_traced_run_restores_every_patched_name():
    before = spans.current_bindings()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert all(spans.current_bindings()[k] is not v for k, v in before.items())
        _fast_case(tracer)
    after = spans.current_bindings()
    assert all(after[k] is v for k, v in before.items())

    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer()):
            raise RuntimeError("a failing traced run")
    assert all(spans.current_bindings()[k] is v for k, v in before.items())


def test_traced_case_records_layers_and_covers_the_operation():
    tracer = spans.Tracer()
    with spans.installed(tracer):
        _fast_case(tracer)
    own = spans.self_times(tracer)
    for name in ("runner.run_case", "scenes.load", "bvh.build", "soa.build_plan",
                 "engine.render", "memory.price"):
        assert own.get(name, 0.0) > 0.0, name
    assert spans.self_times_by_tag(tracer, "engine.render").keys() == {"prefetch"}
    assert tracer.counts["memory.price.calls"] > 0
    assert spans.coverage(tracer) > 0.95


def test_coverage_takes_the_union_of_overlapping_children():
    tracer = spans.Tracer()
    with tracer.operation("op-1") as root:
        tracer.add("service.submit", 0.0, 2.0, root)
        tracer.add("service.queue_wait", 1.0, 3.0, root)
    tracer.start[root], tracer.end[root] = 0.0, 4.0
    assert spans.coverage(tracer) == pytest.approx(0.75)


def test_host_speed_divides_each_interval_by_its_own_slowness():
    from perfbench.hostspeed import PROBE_REF_S, Speed

    # Reference speed for t < 10, twice as slow from t = 10 on; one probe per 0.1 s.
    samples = [(i / 10, PROBE_REF_S * (1 if i < 100 else 2)) for i in range(200)]
    speed = Speed(samples)
    assert speed.normalize(1.0, 5.0) == pytest.approx(4.0)
    assert speed.normalize(12.0, 16.0) == pytest.approx(2.0)
    # An interval too short to hold enough probes borrows its neighbours'.
    assert speed.slowness(15.0, 15.01) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        Speed([])
