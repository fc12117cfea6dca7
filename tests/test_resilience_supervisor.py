"""Supervised pool: crash attribution, hang watchdog, poisoning, identity.

These spawn real forked workers over the fast two-scene context, with
fault specs installed in the parent (inherited at fork) — the same
mechanics the chaos harness uses.
"""

import json

import pytest

import repro.experiments.runner as runner
from repro import faults
from repro.errors import ConfigError
from repro.experiments import default_context
from repro.experiments.parallel import CaseSpec, run_cases
from repro.resilience import KILL_EXIT_CODE, SupervisedPool


@pytest.fixture
def ctx(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    faults.clear()
    runner.clear_failures()
    yield default_context(fast=True)
    faults.clear()
    runner.clear_failures()


CASES = [CaseSpec("BUNNY", "baseline"), CaseSpec("SPNZA", "baseline")]


class TestEnvKnobs:
    def test_hang_timeout(self, ctx, monkeypatch):
        monkeypatch.delenv("REPRO_HANG_TIMEOUT_S", raising=False)
        assert SupervisedPool(1, ctx).hang_timeout_s == 300.0
        monkeypatch.setenv("REPRO_HANG_TIMEOUT_S", "2.5")
        assert SupervisedPool(1, ctx).hang_timeout_s == 2.5
        monkeypatch.setenv("REPRO_HANG_TIMEOUT_S", "junk")
        with pytest.raises(ConfigError, match="REPRO_HANG_TIMEOUT_S.*'junk'"):
            SupervisedPool(1, ctx)

    def test_max_case_crashes(self, ctx, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_CASE_CRASHES", raising=False)
        assert SupervisedPool(1, ctx).max_case_crashes == 2
        monkeypatch.setenv("REPRO_MAX_CASE_CRASHES", "5")
        assert SupervisedPool(1, ctx).max_case_crashes == 5
        monkeypatch.setenv("REPRO_MAX_CASE_CRASHES", "0")  # no longer clamped
        with pytest.raises(ConfigError, match="REPRO_MAX_CASE_CRASHES must be >= 1"):
            SupervisedPool(1, ctx)

    def test_worker_count_validated(self, ctx):
        with pytest.raises(ValueError, match="workers"):
            SupervisedPool(0, ctx)


class TestCleanRun:
    def test_results_in_input_order(self, ctx):
        pool = SupervisedPool(2, ctx)
        results = pool.run(CASES)
        assert len(results) == len(CASES)
        for metrics, failure in results:
            assert failure is None
            assert metrics["cycles"] > 0
        assert pool.rebuilds == 0

    def test_empty_case_list(self, ctx):
        assert SupervisedPool(2, ctx).run([]) == []

    def test_on_result_fires_for_every_case(self, ctx):
        seen = []
        pool = SupervisedPool(2, ctx)
        pool.run(CASES, on_result=lambda i, result: seen.append(i))
        assert sorted(seen) == list(range(len(CASES)))


class TestCrashRecovery:
    def test_transient_kill_is_retried_to_success(self, ctx):
        # Fires only on attempt 0 of the victim; the retry must succeed.
        faults.install(faults.FaultSpec(
            site=faults.WORKER_KILL, match="BUNNY/baseline#0",
        ))
        pool = SupervisedPool(2, ctx, hang_timeout_s=30.0)
        results = pool.run(CASES)
        assert all(failure is None for _m, failure in results)
        assert pool.rebuilds >= 1
        assert runner.failures() == []

    def test_poisoned_case_is_quarantined_typed(self, ctx):
        # Fires on every attempt: after max_case_crashes workers die,
        # the case must be isolated, not retried forever.
        faults.install(faults.FaultSpec(
            site=faults.WORKER_KILL, match="SPNZA/baseline",
        ))
        pool = SupervisedPool(2, ctx, max_case_crashes=2)
        results = pool.run(CASES)
        bunny, spnza = results
        assert bunny[1] is None and bunny[0]["cycles"] > 0
        assert spnza[0] is None
        failure = spnza[1]
        assert failure.error_type == "WorkerCrash"
        assert "poisoned" in failure.message
        assert str(KILL_EXIT_CODE) in failure.message
        assert [f.error_type for f in runner.failures()] == ["WorkerCrash"]

    def test_record_failures_false_skips_the_parent_record(self, ctx):
        faults.install(faults.FaultSpec(
            site=faults.WORKER_KILL, match="SPNZA/baseline",
        ))
        pool = SupervisedPool(2, ctx, max_case_crashes=1)
        pool.run(CASES, record_failures=False)
        assert runner.failures() == []


class TestHangRecovery:
    def test_hung_worker_is_killed_and_case_retried(self, ctx):
        faults.install(faults.FaultSpec(
            site=faults.WORKER_HANG, match="BUNNY/baseline#0",
            payload={"hang_s": 120.0},
        ))
        pool = SupervisedPool(2, ctx, hang_timeout_s=1.0)
        results = pool.run(CASES)
        assert all(failure is None for _m, failure in results)
        assert pool.rebuilds >= 1

    def test_repeat_hangs_poison_with_their_own_type(self, ctx):
        faults.install(faults.FaultSpec(
            site=faults.WORKER_HANG, match="BUNNY/baseline",
            payload={"hang_s": 120.0},
        ))
        pool = SupervisedPool(2, ctx, hang_timeout_s=1.0, max_case_crashes=1)
        results = pool.run(CASES)
        failure = results[0][1]
        assert failure is not None
        assert failure.error_type == "WorkerHang"


class TestByteIdentity:
    def test_supervised_equals_serial(self, ctx):
        serial = run_cases(CASES, ctx, jobs=0)
        supervised = SupervisedPool(2, ctx).run(CASES)
        for (sm, sf), (pm, pf) in zip(serial, supervised):
            assert sf is None and pf is None
            assert json.dumps(sm, sort_keys=True) == json.dumps(
                pm, sort_keys=True
            )

    def test_crash_retried_results_stay_identical(self, ctx):
        serial = run_cases(CASES, ctx, jobs=0)
        faults.install(faults.FaultSpec(
            site=faults.WORKER_KILL, match="SPNZA/baseline#0",
        ))
        supervised = SupervisedPool(2, ctx).run(CASES)
        for (sm, _sf), (pm, pf) in zip(serial, supervised):
            assert pf is None
            assert json.dumps(sm, sort_keys=True) == json.dumps(
                pm, sort_keys=True
            )
