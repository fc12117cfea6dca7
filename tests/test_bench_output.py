"""The bench harness: report naming, the plan-build and policy-replay
phases, the serial/parallel sweep legs and the surrogate-sweep phase."""

import importlib.util
from pathlib import Path

_BENCH = Path(__file__).resolve().parents[1] / "tools" / "bench.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("repro_tools_bench", _BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDefaultOutputPath:
    def test_first_run_gets_plain_name(self, tmp_path):
        bench = _load_bench()
        path = bench.default_output_path("2026-08-05", tmp_path)
        assert path == tmp_path / "BENCH_2026-08-05.json"

    def test_same_day_runs_get_suffixes(self, tmp_path):
        bench = _load_bench()
        (tmp_path / "BENCH_2026-08-05.json").write_text("{}")
        second = bench.default_output_path("2026-08-05", tmp_path)
        assert second == tmp_path / "BENCH_2026-08-05.run2.json"
        second.write_text("{}")
        third = bench.default_output_path("2026-08-05", tmp_path)
        assert third == tmp_path / "BENCH_2026-08-05.run3.json"

    def test_different_day_unaffected(self, tmp_path):
        bench = _load_bench()
        (tmp_path / "BENCH_2026-08-05.json").write_text("{}")
        path = bench.default_output_path("2026-08-06", tmp_path)
        assert path == tmp_path / "BENCH_2026-08-06.json"


class TestPlanBuildPhase:
    def test_one_cold_build_per_scene(self):
        """Each scene's plan is built ``reps`` times from a BVH without its
        tracer tables, and the phase reports the spread."""
        from repro.experiments.parallel import CaseSpec
        from repro.experiments.runner import default_context

        bench = _load_bench()
        specs = [CaseSpec("BUNNY", "baseline"), CaseSpec("BUNNY", "vtq")]
        row = bench.bench_plan_build(default_context(fast=True), specs, 2)
        assert set(row) == {"per_scene", "reps", "total_s"}
        assert list(row["per_scene"]) == ["BUNNY"]
        scene = row["per_scene"]["BUNNY"]
        assert 0 < scene["min_s"] <= scene["max_s"]
        assert row["total_s"] == scene["min_s"]


class TestPolicyReplayPhase:
    def test_every_policy_per_scene(self):
        """One row per scene: each replay's spread over ``reps`` runs and
        the two ratios against ``baseline``."""
        from repro.experiments.parallel import CaseSpec
        from repro.experiments.runner import default_context

        bench = _load_bench()
        specs = [CaseSpec("BUNNY", "baseline"), CaseSpec("BUNNY", "vtq")]
        row = bench.bench_policy_replay(default_context(fast=True), specs, 2)
        assert set(row) == {"per_scene", "reps"}
        assert list(row["per_scene"]) == ["BUNNY"]
        scene = row["per_scene"]["BUNNY"]
        assert set(scene["replay"]) == {"baseline", "prefetch", "vtq", "vtq_naive"}
        for times in scene["replay"].values():
            assert 0 < times["min_s"] <= times["max_s"]
        base = scene["replay"]["baseline"]["min_s"]
        assert scene["ratio"] == {
            "prefetch/baseline": scene["replay"]["prefetch"]["min_s"] / base,
            "vtq/baseline": scene["replay"]["vtq"]["min_s"] / base,
        }


class TestSerialSweepPhase:
    def test_engine_legs(self):
        """The serial sweep times the one replay engine and nothing else."""
        from repro.experiments.parallel import CaseSpec
        from repro.experiments.runner import default_context

        bench = _load_bench()
        row = bench.bench_serial(
            default_context(fast=True), [CaseSpec("BUNNY", "baseline")], 1
        )
        assert set(row) == {"wall_s", "cases_per_s"}
        assert row["cases_per_s"] == 1 / row["wall_s"]

    def test_parallel_speedup_is_against_the_serial_soa_leg(self):
        bench = _load_bench()
        serial = {"wall_s": 2.0, "cases_per_s": 4.0}
        assert bench.speedup_vs_serial(serial, 0.5, cpu_count=2) == 4.0
        assert bench.speedup_vs_serial(serial, 0.5, cpu_count=1) is None


class TestSurrogateSweepPhase:
    def test_phase_reports_contract_fields(self):
        """The BENCH report's surrogate phase must carry the contract
        numbers CI asserts on: grid size, exact-run count, speedup vs
        exhaustive, and the true relative-error statistics."""
        from repro.experiments.runner import default_context

        bench = _load_bench()
        row = bench.bench_surrogate_sweep(default_context(fast=True))
        assert row["grid_points"] > row["exact_runs"] >= 3
        assert row["exact_fraction"] <= 0.05 + 1e-12
        assert row["sweep_s"] > 0 and row["exhaustive_s"] > 0
        assert row["speedup_vs_exhaustive"] > 0
        assert 0.0 <= row["mean_rel_error"] <= row["max_rel_error"]
        assert row["frontier_rel_error"] <= 0.10 + 1e-12
        assert row["bound_met"] is True
