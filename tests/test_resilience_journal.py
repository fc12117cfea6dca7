"""Sweep journal: crash-safe append, torn-tail tolerance, lifecycle."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.experiments import default_context
from repro.experiments.parallel import CaseSpec
from repro.experiments.runner import CaseFailure, ExperimentContext
from repro.resilience import (
    SweepJournal,
    deserialize_failure,
    serialize_failure,
)


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture
def journal(tmp_path):
    return SweepJournal(path=tmp_path / "sweep.jsonl", sweep_id="testsweep")


CASES = [CaseSpec("BUNNY", "baseline"), CaseSpec("SPNZA", "prefetch")]


class TestForCases:
    def test_builds_under_the_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_SWEEP_JOURNAL", raising=False)
        journal = SweepJournal.for_cases(CASES, default_context(fast=True))
        assert journal is not None
        assert journal.path.parent == tmp_path / "journal"
        assert journal.path.name == f"{journal.sweep_id}.jsonl"

    def test_identity_is_the_case_set_not_its_order(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        context = default_context(fast=True)
        forward = SweepJournal.for_cases(CASES, context)
        reversed_ = SweepJournal.for_cases(list(reversed(CASES)), context)
        assert forward.sweep_id == reversed_.sweep_id

    def test_different_sweeps_get_different_journals(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        context = default_context(fast=True)
        full = SweepJournal.for_cases(CASES, context)
        subset = SweepJournal.for_cases(CASES[:1], context)
        assert full.sweep_id != subset.sweep_id

    def test_env_kill_switch(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_SWEEP_JOURNAL", "0")
        assert SweepJournal.for_cases(CASES, default_context(fast=True)) is None

    def test_no_disk_cache_means_no_journal(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        context = default_context(fast=True)
        nocache = ExperimentContext(
            setup=context.setup, scene_list=context.scene_list,
            use_disk_cache=False, budget=context.budget,
            sanitize=context.sanitize,
        )
        assert SweepJournal.for_cases(CASES, nocache) is None

    def test_empty_case_list_means_no_journal(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert SweepJournal.for_cases([], default_context(fast=True)) is None


class TestRoundTrip:
    def test_success_and_failure_entries(self, journal):
        failure = CaseFailure(scene="SPNZA", policy="vtq",
                              error_type="SimulationError", message="boom",
                              partial={"cycles": 12})
        journal.record("key-a", {"cycles": 100.0}, None)
        journal.record("key-b", None, serialize_failure(failure))
        journal.close()

        progress = journal.load()
        assert progress["key-a"] == ({"cycles": 100.0}, None)
        metrics, failure_data = progress["key-b"]
        assert metrics is None
        restored = deserialize_failure(failure_data)
        assert restored == failure

    def test_rewrites_keep_the_last_entry(self, journal):
        journal.record("key", {"cycles": 1.0}, None)
        journal.record("key", {"cycles": 2.0}, None)
        journal.close()
        assert journal.load()["key"] == ({"cycles": 2.0}, None)

    def test_missing_file_loads_empty(self, journal):
        assert journal.load() == {}

    @settings(max_examples=20, deadline=None)
    @given(
        metrics=st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(
                st.integers(-1000, 1000),
                st.floats(allow_nan=False, allow_infinity=False,
                          width=32),
                st.text(max_size=8),
            ),
            max_size=5,
        )
    )
    def test_any_json_metrics_survive(self, tmp_path_factory, metrics):
        path = tmp_path_factory.mktemp("journal") / "j.jsonl"
        journal = SweepJournal(path=path, sweep_id="prop")
        journal.record("k", metrics, None)
        journal.close()
        loaded, failure = journal.load()["k"]
        assert failure is None
        assert json.dumps(loaded, sort_keys=True) == json.dumps(
            metrics, sort_keys=True
        )


class TestCorruption:
    def test_torn_tail_is_dropped_valid_prefix_kept(self, journal):
        journal.record("key-a", {"cycles": 1.0}, None)
        journal.record("key-b", {"cycles": 2.0}, None)
        journal.close()
        with open(journal.path, "a") as handle:
            handle.write('{"v": "1", "key": "key-c", "status": "done", "met')
        progress = journal.load()
        assert set(progress) == {"key-a", "key-b"}

    def test_checksum_mismatch_is_dropped(self, journal):
        journal.record("key-a", {"cycles": 1.0}, None)
        journal.close()
        line = json.loads(journal.path.read_text())
        line["metrics"] = {"cycles": 999.0}  # tampered, checksum now stale
        journal.path.write_text(json.dumps(line) + "\n")
        assert journal.load() == {}

    def test_blank_lines_are_ignored(self, journal):
        journal.record("key-a", {"cycles": 1.0}, None)
        journal.close()
        journal.path.write_text("\n" + journal.path.read_text() + "\n\n")
        assert set(journal.load()) == {"key-a"}


class TestDegradation:
    def test_disk_full_disables_but_never_raises(self, journal):
        faults.install(faults.FaultSpec(
            site=faults.DISK_FULL, match="journal:testsweep", max_fires=1,
        ))
        journal.record("key-a", {"cycles": 1.0}, None)  # hits ENOSPC
        journal.record("key-b", {"cycles": 2.0}, None)  # silently skipped
        journal.close()
        assert journal.load() == {}

    def test_unwritable_directory_disables(self, tmp_path):
        journal = SweepJournal(
            path=tmp_path / "missing" / "j.jsonl", sweep_id="x"
        )
        (tmp_path / "missing").write_text("a file, not a directory")
        journal.record("key", {"cycles": 1.0}, None)  # mkdir fails -> disabled
        journal.record("key2", {"cycles": 2.0}, None)
        journal.close()


class TestLifecycle:
    def test_complete_unlinks(self, journal):
        journal.record("key-a", {"cycles": 1.0}, None)
        journal.complete()
        assert not journal.path.exists()

    def test_complete_without_entries_is_quiet(self, journal):
        journal.complete()  # nothing written, nothing to unlink
