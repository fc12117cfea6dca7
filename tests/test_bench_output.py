"""The bench harness: report naming, the serial/parallel sweep legs and
the surrogate-sweep phase."""

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
