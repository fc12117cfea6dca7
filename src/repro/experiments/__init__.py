"""Experiment harness: one entry point per paper table/figure.

:mod:`repro.experiments.runner` runs (scene, policy, config) cases through
the simulator with on-disk result caching, so the per-figure functions in
:mod:`repro.experiments.figures` can share runs (the baseline run feeds
Figures 1, 10, 12, 13, 16 and 17).

Every figure function returns a plain dict with ``title``, ``headers`` and
``rows`` — render it with :func:`repro.experiments.report.format_table`.

:mod:`repro.experiments.parallel` fans a sweep's cases out across worker
processes (``REPRO_JOBS``) into the shared disk cache, which the serial
figure code then replays as cache hits.
"""

from repro.experiments.runner import (
    CaseFailure,
    ExperimentContext,
    clear_cache,
    clear_failures,
    default_context,
    failures,
    record_failure,
    run_case,
    run_case_quarantined,
)
from repro.experiments.parallel import (
    CaseSpec,
    cases_for_figure,
    cases_for_figures,
    run_cases,
    warm_cases,
)
from repro.experiments.figures import (
    fig01_baseline_bottlenecks,
    fig05_analytical_model,
    fig10_overall_speedup,
    fig11_missrate_over_time,
    fig12_grouping_thresholds,
    fig13_warp_repacking,
    fig14_mode_cycles,
    fig15_mode_tests,
    fig16_virtualization_overhead,
    fig17_energy,
    sec65_area_overheads,
    table1_configuration,
    table2_scenes,
)
from repro.experiments.report import format_failures, format_table, render_all

__all__ = [
    "CaseFailure",
    "CaseSpec",
    "ExperimentContext",
    "cases_for_figure",
    "cases_for_figures",
    "default_context",
    "run_case",
    "run_case_quarantined",
    "run_cases",
    "warm_cases",
    "clear_cache",
    "clear_failures",
    "failures",
    "record_failure",
    "format_failures",
    "fig01_baseline_bottlenecks",
    "fig05_analytical_model",
    "fig10_overall_speedup",
    "fig11_missrate_over_time",
    "fig12_grouping_thresholds",
    "fig13_warp_repacking",
    "fig14_mode_cycles",
    "fig15_mode_tests",
    "fig16_virtualization_overhead",
    "fig17_energy",
    "table1_configuration",
    "table2_scenes",
    "sec65_area_overheads",
    "format_table",
    "render_all",
]
