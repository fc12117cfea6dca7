"""The settings surface: every REPRO_* knob declared once, parsed one way.

Table-driven over :data:`repro.settings.KNOBS`: each numeric knob refuses
garbage and below-minimum values with a :class:`ConfigError` naming it,
each bool knob accepts exactly the eight documented spellings, and the
misparses the per-module parsers used to make (a feature left on by
``off``, a knob-less crash, a silent default) each have a case of their
own, driven through the code that consumes the knob.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import settings
from repro.errors import ConfigError, ReproError
from repro.experiments import default_context
from repro.experiments.parallel import CaseSpec
from repro.experiments.runner import ExperimentContext, scene_and_bvh
from repro.gpusim.config import default_setup
from repro.obs.manifest import build_manifest
from repro.resilience import SweepJournal
from repro.service.resultcache import ResultCache
from repro.tracing import render_scene

REPO = Path(__file__).resolve().parents[1]

KNOBS = list(settings.KNOBS.values())
NUMERIC = [k for k in KNOBS if k.kind in ("int", "float")]
BOUNDED = [k for k in NUMERIC if k.minimum is not None]
BOOLS = [k for k in KNOBS if k.kind == "bool"]

SPELLINGS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def _ids(knobs):
    return [k.name for k in knobs]


def _below(knob) -> str:
    if knob.kind == "int":
        return str(int(knob.minimum) - 1)
    return repr(knob.minimum - 1.0)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    """Start every test from an environment with no REPRO_* set (CI legs
    export REPRO_JOBS)."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        monkeypatch.delenv(name)


@pytest.fixture
def ctx():
    base = default_context(fast=True)
    return ExperimentContext(
        setup=base.setup, scene_list=base.scene_list, use_disk_cache=False
    )


class TestDeclarations:
    @pytest.mark.parametrize("knob", KNOBS, ids=_ids(KNOBS))
    def test_well_formed(self, knob):
        assert knob.name.startswith("REPRO_")
        assert knob.kind in ("int", "float", "bool", "path", "str")
        assert knob.meaning
        assert knob.minimum is None or knob.kind in ("int", "float")

    @pytest.mark.parametrize("knob", KNOBS, ids=_ids(KNOBS))
    def test_unset_and_empty_mean_default(self, knob, monkeypatch):
        expected = knob.default() if callable(knob.default) else knob.default
        assert settings.get(knob.name) == expected
        monkeypatch.setenv(knob.name, "  ")
        assert settings.get(knob.name) == expected

    def test_undeclared_name_is_a_key_error(self):
        with pytest.raises(KeyError):
            settings.get("REPRO_NO_SUCH_KNOB")

    def test_read_on_every_call(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert settings.get("REPRO_JOBS") == 3
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert settings.get("REPRO_JOBS") == 5

    def test_computed_default_follows_its_source(self, monkeypatch):
        assert settings.get("REPRO_JOBS") == (os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert settings.get("REPRO_SERVICE_JOBS") == 3


class TestNumeric:
    @pytest.mark.parametrize("raw", ["abc", "1MB", "nan", "1e999"])
    @pytest.mark.parametrize("knob", NUMERIC, ids=_ids(NUMERIC))
    def test_garbage_is_refused(self, knob, raw, monkeypatch):
        monkeypatch.setenv(knob.name, raw)
        with pytest.raises(ConfigError) as exc_info:
            settings.get(knob.name)
        err = exc_info.value
        assert isinstance(err, ReproError) and isinstance(err, ValueError)
        assert (err.knob, err.value) == (knob.name, raw)
        assert knob.name in str(err) and repr(raw) in str(err)

    @pytest.mark.parametrize("knob", BOUNDED, ids=_ids(BOUNDED))
    def test_below_minimum_is_refused_not_clamped(self, knob, monkeypatch):
        monkeypatch.setenv(knob.name, _below(knob))
        with pytest.raises(ConfigError, match=f"{knob.name} must be >= "):
            settings.get(knob.name)

    @pytest.mark.parametrize("knob", BOUNDED, ids=_ids(BOUNDED))
    def test_minimum_is_accepted(self, knob, monkeypatch):
        monkeypatch.setenv(knob.name, str(knob.minimum))
        assert settings.get(knob.name) == knob.minimum


class TestBool:
    @pytest.mark.parametrize("raw", sorted(SPELLINGS))
    @pytest.mark.parametrize("knob", BOOLS, ids=_ids(BOOLS))
    def test_eight_spellings(self, knob, raw, monkeypatch):
        monkeypatch.setenv(knob.name, raw)
        assert settings.get(knob.name) is SPELLINGS[raw]
        monkeypatch.setenv(knob.name, f" {raw.upper()} ")
        assert settings.get(knob.name) is SPELLINGS[raw]

    @pytest.mark.parametrize("raw", ["2", "enabled", "y", "-1"])
    @pytest.mark.parametrize("knob", BOOLS, ids=_ids(BOOLS))
    def test_anything_else_is_refused(self, knob, raw, monkeypatch):
        monkeypatch.setenv(knob.name, raw)
        with pytest.raises(ConfigError, match=knob.name):
            settings.get(knob.name)


class TestFormerMisparses:
    """Each case here misbehaved under the per-module parsers."""

    def test_journal_off_disables_journalling(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_SWEEP_JOURNAL", "off")
        cases = [CaseSpec("BUNNY", "baseline")]
        assert SweepJournal.for_cases(cases, default_context(fast=True)) is None

    def test_dedupe_false_disables_the_result_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_DEDUPE", "false")
        cache = ResultCache(tmp_path / "results")
        cache.store("k", {"cycles": 1.0})
        assert cache.lookup("k") is None
        assert len(cache) == 0

    def test_sanitize_2_is_refused(self, ctx, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "2")
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        with pytest.raises(ConfigError, match="REPRO_SANITIZE"):
            render_scene(scene, bvh, ctx.setup, policy="baseline")

    @pytest.mark.parametrize("raw", ["abc", "-1"])
    def test_bad_scale_names_the_knob(self, raw, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", raw)
        with pytest.raises(ConfigError, match=f"REPRO_SCALE must be .*'{raw}'"):
            default_setup()

    def test_trace_budget_with_a_unit_is_refused(self, ctx, monkeypatch):
        from repro.memtrace.store import record_trace

        monkeypatch.setenv("REPRO_TRACE_BUDGET_BYTES", "1MB")
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        with pytest.raises(ConfigError, match="REPRO_TRACE_BUDGET_BYTES.*'1MB'"):
            record_trace(scene, bvh, ctx.setup, "baseline", scene_name="BUNNY")


class TestCheckAllAndEffective:
    def test_check_all_passes_on_a_clean_environment(self):
        settings.check_all()

    def test_check_all_names_the_bad_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_QUEUE_MAX", "lots")
        with pytest.raises(ConfigError, match="REPRO_SERVICE_QUEUE_MAX"):
            settings.check_all()

    def test_undeclared_names_are_accepted_and_reported(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMTRACE", "0")
        monkeypatch.setenv("REPRO_SOMETHING_RETIRED", "yes please")
        settings.check_all()
        effective = settings.effective()
        assert effective["REPRO_MEMTRACE"] == {"value": "0", "source": "undeclared"}
        assert effective["REPRO_SOMETHING_RETIRED"]["value"] == "yes please"
        assert build_manifest(metrics={})["settings"] == effective

    def test_retired_soa_engine_knob_is_undeclared_and_inert(self, ctx, monkeypatch):
        """``REPRO_SOA_ENGINE`` no longer exists: a stray setting is
        reported as undeclared and every render still replays its plan."""
        scene, bvh = scene_and_bvh("BUNNY", ctx.setup)
        plain = render_scene(scene, bvh, ctx.setup, policy="baseline")
        monkeypatch.setenv("REPRO_SOA_ENGINE", "0")
        settings.check_all()
        assert settings.effective()["REPRO_SOA_ENGINE"] == {
            "value": "0", "source": "undeclared"}
        stray = render_scene(scene, bvh, ctx.setup, policy="baseline")
        assert stray.engine_fallback_reason is None
        assert stray.stats.snapshot() == plain.stats.snapshot()
        assert stray.image.tobytes() == plain.image.tobytes()
        assert stray.per_sm_cycles == plain.per_sm_cycles

    def test_effective_values_and_sources(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        effective = settings.effective()
        assert set(settings.KNOBS) <= set(effective)
        assert list(effective) == sorted(effective)
        assert effective["REPRO_JOBS"] == {"value": 3, "source": "env"}
        assert effective["REPRO_CACHE_DIR"] == {"value": str(tmp_path), "source": "env"}
        assert effective["REPRO_SCALE"] == {"value": 1.0, "source": "default"}


class TestCLIRefusesBadKnobs:
    def _run(self, args, **env):
        full = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        full.update(env)
        full["PYTHONPATH"] = str(REPO / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            env=full, capture_output=True, text=True, timeout=120,
        )

    def test_bad_jobs_exits_2_naming_the_knob(self):
        proc = self._run(["scenes"], REPRO_JOBS="many")
        assert proc.returncode == 2
        assert "REPRO_JOBS" in proc.stderr and "'many'" in proc.stderr
        assert proc.stdout == ""

    def test_serve_never_starts_on_garbage(self, tmp_path):
        spool = tmp_path / "spool"
        proc = self._run(
            ["serve", "--fast"],
            REPRO_SERVICE_SPOOL=str(spool),
            REPRO_SERVICE_DEDUPE_MAX_ENTRIES="lots",
        )
        assert proc.returncode == 2
        assert "REPRO_SERVICE_DEDUPE_MAX_ENTRIES" in proc.stderr
        assert not spool.exists()


class TestReadmeTable:
    """The README's "Environment variables" table is the one full list."""

    ROW = re.compile(r"^\| `(REPRO_[A-Z0-9_]+)` \| (\w+) \| ([^|]+) \| ([^|]+) \|$")

    def _rows(self):
        text = (REPO / "README.md").read_text()
        section = text.split("## Environment variables", 1)[1].split("\n## ", 1)[0]
        return {
            m.group(1): (m.group(2), m.group(3).strip(), m.group(4).strip())
            for m in map(self.ROW.match, section.splitlines())
            if m
        }

    @staticmethod
    def _shown(default) -> str:
        if default is None:
            return "unset"
        if isinstance(default, bool):
            return "`on`" if default else "`off`"
        return f"`{default}`"

    def test_rows_match_knobs(self):
        rows = self._rows()
        assert sorted(rows) == sorted(settings.KNOBS)
        for name, (kind, default, meaning) in rows.items():
            knob = settings.KNOBS[name]
            assert kind == knob.kind, name
            assert meaning, name
            if not callable(knob.default):
                assert default == self._shown(knob.default), name
            if knob.minimum:
                assert meaning.endswith(f"(minimum {knob.minimum:g})"), name
