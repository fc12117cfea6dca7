"""Parallel sweep executor and cross-process cache safety.

Covers the `repro.experiments.parallel` layer (case enumeration, fan-out,
quarantine propagation, deterministic ordering) and the runner's
concurrency hardening: the ``flock`` claim that guarantees two processes
computing the same case key produce exactly one simulation and one valid
checksummed entry, and the ``REPRO_CACHE_DIR`` override.
"""

import json
import multiprocessing
import os

import pytest

import repro.experiments.runner as runner
from repro import settings
from repro.errors import ConfigError
from repro.experiments import default_context
from repro.experiments.parallel import (
    CaseSpec,
    cases_for_figure,
    cases_for_figures,
    run_cases,
    warm_cases,
)
from repro.experiments.runner import ExperimentContext, _case_key


@pytest.fixture
def ctx(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    runner.clear_failures()
    yield default_context(fast=True)
    runner.clear_failures()


def _fast_nocache(context):
    return ExperimentContext(
        setup=context.setup, scene_list=context.scene_list,
        use_disk_cache=False, budget=context.budget, sanitize=context.sanitize,
    )


class TestCacheDir:
    def test_env_override_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "elsewhere"))
        assert runner.cache_dir() == tmp_path / "elsewhere"

    def test_module_attribute_is_fallback(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setattr(runner, "_CACHE_DIR", tmp_path / "patched")
        assert runner.cache_dir() == tmp_path / "patched"

    def test_run_case_writes_under_override(self, ctx):
        metrics = runner.run_case("BUNNY", "baseline", ctx)
        assert metrics["cycles"] > 0
        entries = list(runner.cache_dir().glob("*.json"))
        assert len(entries) == 1


class TestJobsFromEnv:
    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert settings.get("REPRO_JOBS") == (os.cpu_count() or 1)

    def test_env_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert settings.get("REPRO_JOBS") == 3

    def test_garbage_falls_back(self, monkeypatch):
        """Garbage no longer falls back to the CPU count: it is refused."""
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigError, match="REPRO_JOBS.*'many'"):
            settings.get("REPRO_JOBS")

    def test_zero_is_explicit_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert settings.get("REPRO_JOBS") == 0

    def test_negative_is_an_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "-2")
        with pytest.raises(ValueError, match="REPRO_JOBS must be >= 0"):
            settings.get("REPRO_JOBS")


class TestCaseEnumeration:
    def test_fig10_cases(self, ctx):
        specs = cases_for_figure("fig10", ctx)
        scenes = ctx.scenes()
        assert len(specs) == 3 * len(scenes)
        assert specs[0] == CaseSpec(scenes[0], "baseline")
        assert specs[2].policy == "vtq" and specs[2].vtq is not None

    def test_tables_enumerate_nothing(self, ctx):
        assert cases_for_figure("table1", ctx) == []
        assert cases_for_figure("fig5", ctx) == []

    def test_union_deduplicates(self, ctx):
        merged = cases_for_figures(["fig1", "fig10", "fig17"], ctx)
        # baseline cases are shared by all three; the union keeps one each.
        baselines = [s for s in merged if s.policy == "baseline"]
        assert len(baselines) == len(ctx.scenes())
        assert len(merged) == len(set(merged))


class TestRunCases:
    def test_serial_results_in_input_order(self, ctx):
        specs = [
            CaseSpec("BUNNY", "baseline"),
            CaseSpec("SPNZA", "baseline"),
            CaseSpec("BUNNY", "prefetch"),
        ]
        results = run_cases(specs, _fast_nocache(ctx), jobs=1)
        assert len(results) == 3
        for (metrics, failure), spec in zip(results, specs):
            assert failure is None
            assert metrics["scene"] == spec.scene
            assert metrics["policy"] == spec.policy

    def test_jobs_zero_never_creates_a_pool(self, ctx, monkeypatch):
        def poisoned_pool(*args, **kwargs):
            raise AssertionError("jobs=0 must not create a SupervisedPool")

        monkeypatch.setattr("repro.resilience.SupervisedPool", poisoned_pool)
        results = run_cases(
            [CaseSpec("BUNNY", "baseline")], _fast_nocache(ctx), jobs=0
        )
        metrics, failure = results[0]
        assert failure is None and metrics["scene"] == "BUNNY"

    def test_negative_jobs_rejected(self, ctx):
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            run_cases([CaseSpec("BUNNY", "baseline")], ctx, jobs=-1)

    def test_parallel_matches_serial(self, ctx):
        specs = [CaseSpec("BUNNY", "baseline"), CaseSpec("BUNNY", "prefetch")]
        serial = run_cases(specs, _fast_nocache(ctx), jobs=1)
        parallel = run_cases(specs, ctx, jobs=2)
        for (sm, _), (pm, _) in zip(serial, parallel):
            assert json.dumps(sm, sort_keys=True) == json.dumps(pm, sort_keys=True)

    def test_parallel_failure_recorded_in_parent(self, ctx):
        specs = [CaseSpec("BUNNY", "baseline"), CaseSpec("NOSUCH", "baseline")]
        results = run_cases(specs, ctx, jobs=2)
        assert results[0][1] is None
        failure = results[1][1]
        assert failure is not None and failure.scene == "NOSUCH"
        assert [f.scene for f in runner.failures()] == ["NOSUCH"]

    def test_warm_cases_populates_cache_without_recording(self, ctx):
        specs = [CaseSpec("BUNNY", "baseline"), CaseSpec("NOSUCH", "baseline")]
        warmed = warm_cases(specs, ctx, jobs=2)
        assert warmed == 1
        assert runner.failures() == []  # replay records, warming does not
        # The warmed case is now a cache hit: no simulation on replay.
        trace = runner.cache_dir() / "trace.log"
        os.environ["REPRO_CACHE_TRACE"] = str(trace)
        try:
            runner.run_case("BUNNY", "baseline", ctx)
        finally:
            del os.environ["REPRO_CACHE_TRACE"]
        assert trace.read_text().strip().startswith("HIT ")

    def test_warm_cases_skips_without_disk_cache(self, ctx):
        assert warm_cases([CaseSpec("BUNNY", "baseline")],
                          _fast_nocache(ctx), jobs=2) == 0


def _race_worker(scene, policy, cache_dir, trace_path, barrier, out):
    """Race entry: compute the same case as the sibling process."""
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    os.environ["REPRO_CACHE_TRACE"] = trace_path
    import repro.experiments.runner as worker_runner

    context = worker_runner.default_context(fast=True)
    barrier.wait(timeout=60)
    metrics = worker_runner.run_case(scene, policy, context)
    out.put(json.dumps(metrics, sort_keys=True))


class TestCrossProcessCacheSafety:
    def test_two_processes_one_simulation(self, tmp_path):
        """Two processes racing on one key: one COMPUTE, one HIT, one
        valid checksummed entry, identical metrics."""
        cache = tmp_path / "cache"
        trace = tmp_path / "trace.log"
        spawn = multiprocessing.get_context("spawn")
        barrier = spawn.Barrier(2)
        out = spawn.Queue()
        procs = [
            spawn.Process(
                target=_race_worker,
                args=("BUNNY", "baseline", str(cache), str(trace), barrier, out),
            )
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        results = [out.get(timeout=300) for _ in procs]
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        # Identical metrics from both processes.
        assert results[0] == results[1]
        # Exactly one simulation happened; the other process read it.
        events = [line.split()[0] for line in trace.read_text().splitlines()]
        assert sorted(events) == ["COMPUTE", "HIT"]
        # Exactly one entry, and it passes the checksummed read.
        entries = list(cache.glob("*.json"))
        assert len(entries) == 1
        key = entries[0].stem
        metrics = runner._read_cache_entry(entries[0], key)
        assert json.dumps(metrics, sort_keys=True) == results[0]

    def test_claim_reentrant_for_distinct_keys(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with runner._case_claim("aaa"):
            with runner._case_claim("bbb"):
                pass  # distinct keys never deadlock

    def test_case_key_stable_across_processes(self):
        context = default_context(fast=True)
        key = _case_key("BUNNY", "baseline", context.setup, None)
        assert len(key) == 24
        assert key == _case_key("BUNNY", "baseline", context.setup, None)
