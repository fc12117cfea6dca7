"""``repro pareto`` — surrogate-priced speedup-vs-cache frontier sweeps.

The engine prices a full cache-size x queue-size grid with two
surrogates (one for the policy under study, one for the baseline it is
measured against), walks the predicted speedup-vs-cost Pareto frontier,
and then **verifies every reported frontier point with an exact
run**.  Reported frontier values are always the exact ones; the
surrogate's job is only to decide *which* of the hundreds of grid points
deserve a simulation.

The result dict is deterministic for a fixed (scene, grid, seed): no
wall-clock fields, canonical key order when serialized — two identical
invocations must produce byte-identical frontier JSON (there is a
regression test for exactly this).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import registry as obs_registry
from repro.surrogate.features import (
    FeatureSpace,
    GridPoint,
    SurrogateError,
    axis_kind,
    build_profile,
    make_point,
)
from repro.surrogate.loop import (
    ExactLedger,
    ExactRunner,
    PRIMARY_FIELD,
    RefineReport,
    refine,
)
from repro.surrogate.model import error_summary, relative_errors

#: Default frontier axes: L2 capacity (cost) x VTQ batch threshold.
DEFAULT_CACHE_AXIS = "l2_bytes"
DEFAULT_QUEUE_AXIS = "queue_threshold"
#: Fraction of the grid the exact-run ledger may spend by default.
DEFAULT_EXACT_FRACTION = 0.05
#: Floor on the ledger so tiny grids can still fit + verify.
MIN_EXACT_BUDGET = 16


def geometric_values(center: float, count: int, span: float = 8.0,
                     integer: bool = True, minimum: float = 1.0) -> List[float]:
    """``count`` log-spaced axis values centred on ``center``.

    Spans ``center/span .. center*span`` geometrically; integer axes are
    rounded and deduplicated (so the result may be shorter than asked).
    """
    if count < 1:
        raise SurrogateError("axis needs at least one value")
    if count == 1:
        raw = np.asarray([center], dtype=float)
    else:
        raw = np.geomspace(max(minimum, center / span), center * span, count)
    if integer:
        vals = sorted({max(int(minimum), int(round(v))) for v in raw})
        return [float(v) for v in vals]
    return [float(v) for v in raw]


def build_grid(cache_axis: str, cache_values: Sequence[float],
               queue_axis: str, queue_values: Sequence[float]
               ) -> List[GridPoint]:
    """The row-major cache x queue product grid as :class:`GridPoint` s."""
    if axis_kind(cache_axis) != "gpu":
        raise SurrogateError(
            f"cache axis {cache_axis!r} must be a GPUConfig field"
        )
    axis_kind(queue_axis)  # raises on unknown axes
    grid = []
    for c in cache_values:
        for q in queue_values:
            grid.append(make_point({cache_axis: float(c),
                                    queue_axis: float(q)}))
    if not grid:
        raise SurrogateError("empty pareto grid")
    return grid


def pareto_indices(costs: Sequence[float], gains: Sequence[float]
                   ) -> List[int]:
    """Non-dominated indices: minimize cost, maximize gain.

    A point survives iff no other point has cost <= and gain >= with at
    least one strict inequality; ties keep the first (stable) index.
    """
    order = sorted(range(len(costs)),
                   key=lambda i: (costs[i], -gains[i], i))
    frontier: List[int] = []
    best = -np.inf
    last_cost = None
    for i in order:
        if costs[i] == last_cost:
            continue  # only the top gain per cost level can survive
        if gains[i] > best:
            frontier.append(i)
            best = gains[i]
            last_cost = costs[i]
    return sorted(frontier)


def epsilon_prune(costs: Sequence[float], gains: Sequence[float],
                  indices: Sequence[int], epsilon: float) -> List[int]:
    """Drop frontier points whose gain step over the previous kept point
    is below ``epsilon`` (relative).

    The cheapest point always survives.  This bounds how many exact
    verification runs a dense cost axis can demand: near-flat stretches
    of the frontier collapse to their cheapest representative.
    """
    kept: List[int] = []
    last_gain: Optional[float] = None
    for i in sorted(indices, key=lambda i: (costs[i], -gains[i])):
        if last_gain is None or gains[i] >= last_gain * (1.0 + epsilon):
            kept.append(i)
            last_gain = float(gains[i])
    return sorted(kept)


@dataclass
class ParetoResult:
    """Everything ``repro pareto`` reports; serializable + deterministic."""

    payload: Dict

    def to_json(self) -> str:
        return json.dumps(self.payload, indent=2, sort_keys=True) + "\n"

    def write(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path


def run_pareto(
    scene: str,
    context,
    policy: str = "vtq",
    baseline_policy: str = "baseline",
    cache_axis: str = DEFAULT_CACHE_AXIS,
    queue_axis: str = DEFAULT_QUEUE_AXIS,
    cache_values: Optional[Sequence[float]] = None,
    queue_values: Optional[Sequence[float]] = None,
    cache_count: int = 8,
    queue_count: int = 6,
    error_bound: float = 0.10,
    exact_fraction: float = DEFAULT_EXACT_FRACTION,
    exact_budget: Optional[int] = None,
    frontier_epsilon: float = 0.02,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> ParetoResult:
    """Price a cache x queue grid, emit a verified Pareto frontier.

    The exact-run ledger defaults to
    ``max(MIN_EXACT_BUDGET, exact_fraction * grid size)`` and covers
    *everything* exact the sweep does: the reference/profile run, both
    surrogates' training points and the frontier verification runs.
    """
    from repro.experiments.figures import vtq_default

    base_vtq = vtq_default(context)
    if cache_values is None:
        center = float(getattr(context.setup.gpu, cache_axis))
        cache_values = geometric_values(center, cache_count)
    if cache_axis in ("l1_bytes", "l2_bytes"):
        # Cache capacities must be whole cache lines; snap and dedupe.
        line = context.setup.gpu.line_bytes
        cache_values = sorted({
            float(max(line, int(round(v / line)) * line))
            for v in cache_values
        })
    if queue_values is None:
        if axis_kind(queue_axis) == "vtq":
            center = float(getattr(base_vtq, queue_axis))
        else:
            center = float(getattr(context.setup.gpu, queue_axis))
        queue_values = geometric_values(center, queue_count, span=4.0)
    cache_values = [float(v) for v in cache_values]
    queue_values = [float(v) for v in queue_values]

    grid = build_grid(cache_axis, cache_values, queue_axis, queue_values)
    n = len(grid)
    if exact_budget is None:
        exact_budget = max(MIN_EXACT_BUDGET, int(exact_fraction * n))
    if exact_budget < 12:
        raise SurrogateError(
            f"exact budget {exact_budget} too small: the sweep needs a "
            f"reference run, two surrogate fits and frontier verification "
            f"(>= 12 exact runs)"
        )
    # Slots held back from the refine loops so the mandatory frontier
    # verification pass rarely has to overrun the ledger, and so the
    # baseline fit cannot starve the policy fit of its held-out rounds.
    verify_reserve = max(5, exact_budget // 5)
    policy_floor = max(7, (exact_budget - 1 - verify_reserve) // 2)
    ledger = ExactLedger(limit=exact_budget)
    rng = np.random.default_rng(seed)

    runner = ExactRunner(scene, policy, context, base_vtq, ledger, jobs=jobs)
    base_runner = ExactRunner(scene, baseline_policy, context, None, ledger,
                              jobs=jobs)

    # -- scene profile, anchored on one exact reference run -------------------
    ref_point = GridPoint()
    ref_metrics = runner.run([ref_point])[ref_point]
    profile = build_profile(scene, context, ref_metrics, seed=seed)

    # -- baseline surrogate: cycles vary only on the cache (gpu) axis ---------
    base_grid = [make_point({cache_axis: v}) for v in cache_values]
    base_space = FeatureSpace.for_grid(profile, base_grid)
    base_report = refine(
        base_grid, base_space, base_runner, rng,
        error_bound=error_bound,
        init_points=min(3, len(base_grid)),
        round_points=1,
        max_rounds=2,
        reserve=verify_reserve + policy_floor,
    )
    base_by_cache = {
        cache_values[i]: float(base_report.predictions[PRIMARY_FIELD][i])
        for i in range(len(cache_values))
    }

    # -- policy surrogate over the full grid, frontier-critical acquisition --
    space = FeatureSpace.for_grid(profile, grid)
    costs = [p.axis_values()[cache_axis] for p in grid]

    # The frontier's gain axis: speedup over the baseline policy at the
    # *reference* configuration (one exact run, fixed denominator).  The
    # per-point ``speedup`` column instead compares against the baseline
    # at the *same* cache size — paper-faithful, but monotone in cache
    # cost, so it cannot serve as a Pareto gain.
    ref_base_point = GridPoint()
    ref_base_cycles = float(
        base_runner.run([ref_base_point])[ref_base_point][PRIMARY_FIELD]
    )

    def speedups(cycles: np.ndarray) -> np.ndarray:
        """Same-cache speedup: baseline(cache) / policy(cache, queue)."""
        base = np.asarray([base_by_cache[c] for c in costs])
        return base / np.maximum(np.asarray(cycles, dtype=float), 1e-9)

    def ref_speedups(cycles: np.ndarray) -> np.ndarray:
        """Frontier gain: baseline(reference config) / policy(point)."""
        return ref_base_cycles / np.maximum(
            np.asarray(cycles, dtype=float), 1e-9
        )

    def frontier_of(cycles_arr: np.ndarray) -> List[int]:
        gains = ref_speedups(cycles_arr)
        idx = pareto_indices(costs, gains)
        return epsilon_prune(costs, gains, idx, frontier_epsilon)

    def critical(predictions: Dict[str, np.ndarray]) -> List[int]:
        return frontier_of(predictions[PRIMARY_FIELD])

    costs_arr = np.asarray(costs, dtype=float)

    def focus(predictions: Dict[str, np.ndarray]) -> np.ndarray:
        """Down-weight points far below the frontier envelope.

        A point's slack is how far its predicted gain falls below the
        best predicted gain at its cost or cheaper; deep-dominated
        points never reach the report, so their residual error is not
        worth exact runs or held-out strictness.
        """
        gains = ref_speedups(predictions[PRIMARY_FIELD])
        order = np.argsort(costs_arr, kind="stable")
        envelope = np.empty(len(gains))
        envelope[order] = np.maximum.accumulate(gains[order])
        slack = (envelope - gains) / np.maximum(envelope, 1e-12)
        return np.where(slack < 0.2, 1.0, 0.05)

    report = refine(
        grid, space, runner, rng,
        error_bound=error_bound,
        critical_fn=critical,
        focus_fn=focus,
        reserve=verify_reserve,
    )

    # -- verify the frontier: every reported point becomes exact --------------
    # The refine loop's closure rounds already ran-and-refit most
    # frontier candidates; one final pass picks up any still-pending
    # predicted-frontier points, capped at the ledger's remaining budget
    # (highest predicted gain first).  The REPORTED frontier is then
    # computed over exact points only, so an unverified prediction can
    # never appear on it.  (Recomputing over predictions after
    # substitution does not converge: exact values nudge near-tied
    # neighbours onto the frontier forever.)
    cycles = report.predictions[PRIMARY_FIELD].copy()
    predicted_speedup = ref_speedups(cycles)
    exact_set = set(report.exact_indices)
    # ``grid index -> pre-run prediction error`` for every verification-
    # phase nomination (closure rounds + the final pass below).
    prerun_rel: Dict[int, float] = dict(report.verification_rel)
    pending = [i for i in frontier_of(cycles) if i not in exact_set]
    budget_left = ledger.remaining()
    if budget_left is not None and len(pending) > budget_left:
        pending = sorted(
            sorted(pending, key=lambda i: -float(predicted_speedup[i]))
            [:budget_left]
        )
    if pending:
        got = runner.run([grid[i] for i in pending], mandatory=True)
        for i in pending:
            before = float(cycles[i])
            exact = float(got[grid[i]][PRIMARY_FIELD])
            prerun_rel[i] = float(relative_errors(
                np.asarray([before]), np.asarray([exact])
            )[0])
            cycles[i] = exact
            exact_set.add(i)
    exact_list = sorted(exact_set)
    exact_gains = ref_speedups(cycles)
    sub_front = pareto_indices(
        [costs[i] for i in exact_list],
        [float(exact_gains[i]) for i in exact_list],
    )
    frontier = epsilon_prune(
        costs, exact_gains, [exact_list[j] for j in sub_front],
        frontier_epsilon,
    )

    exact_speedup = speedups(cycles)
    exact_ref_speedup = ref_speedups(cycles)
    # Contract check: for each REPORTED frontier row, how far was the
    # converged surrogate's standing prediction from the exact run that
    # verified it?  Rows that became exact during exploration (before
    # the bound was met) carry no surrogate claim — the report shows
    # their exact values and they verify trivially (0.0).
    frontier_row_rel = [float(prerun_rel.get(i, 0.0)) for i in frontier]
    verification = error_summary(frontier_row_rel)
    # ``bound_met`` gates on the quantities the contract names: the
    # policy surrogate's held-out cycle error and the frontier rows'
    # predicted-vs-exact agreement.  The baseline surrogate only feeds
    # the informational same-cache speedup column, so its error is
    # reported but does not gate.
    surrogate_error = {
        "bound": error_bound,
        "bound_met": bool(
            report.bound_met and verification["max"] <= error_bound
        ),
        "policy_heldout": report.heldout,
        "policy_final_heldout": report.final_heldout,
        "baseline_heldout": base_report.heldout,
        "baseline_final_heldout": base_report.final_heldout,
        "policy_loo": report.loo,
        "frontier_verification": verification,
        # All verification-phase nominations, including churn points
        # that did not survive to the reported frontier — a strictly
        # harder population than the reported rows.
        "frontier_candidates": error_summary(list(prerun_rel.values())),
    }
    reg = obs_registry()
    reg.gauge(
        "repro_surrogate_error_bound",
        "Configured held-out relative error bound of the last surrogate sweep",
    ).labels().set(error_bound)
    achieved = max(
        report.final_heldout.get(PRIMARY_FIELD, 0.0),
        verification.get("max", 0.0),
    )
    reg.gauge(
        "repro_surrogate_heldout_error",
        "Achieved held-out max relative cycle error of the last surrogate sweep",
    ).labels().set(achieved)

    points = []
    frontier_set = set(frontier)
    for i, point in enumerate(grid):
        values = point.axis_values()
        points.append({
            "cache": values[cache_axis],
            "queue": values[queue_axis],
            "cycles": float(cycles[i]),
            "speedup": float(exact_speedup[i]),
            "speedup_vs_ref": float(exact_ref_speedup[i]),
            "exact": i in exact_set,
            "frontier": i in frontier_set,
        })
    frontier_rows = []
    for i in sorted(frontier, key=lambda i: costs[i]):
        values = grid[i].axis_values()
        frontier_rows.append({
            "cache": values[cache_axis],
            "queue": values[queue_axis],
            "cycles": float(cycles[i]),
            "speedup": float(exact_speedup[i]),
            "speedup_vs_ref": float(exact_ref_speedup[i]),
            "predicted_speedup_vs_ref": float(predicted_speedup[i]),
            "verified": True,
            # The same-cache baseline behind "speedup" may itself be
            # surrogate-priced; the frontier gain never is.
            "baseline_exact": base_runner.known(
                make_point({cache_axis: values[cache_axis]})
            ) is not None,
        })

    payload = {
        "schema": "repro-pareto/1",
        "scene": scene,
        "policy": policy,
        "baseline_policy": baseline_policy,
        "seed": seed,
        "grid": {
            "cache_axis": cache_axis,
            "cache_values": cache_values,
            "queue_axis": queue_axis,
            "queue_values": queue_values,
            "size": n,
        },
        "frontier_epsilon": frontier_epsilon,
        "exact_runs": ledger.as_dict(),
        "exact_fraction": ledger.total / n,
        "surrogate": {
            "policy_rounds": report.rounds,
            "baseline_rounds": base_report.rounds,
            "ensemble_exact_points": len(report.exact_indices),
        },
        "surrogate_error": surrogate_error,
        "points": points,
        "frontier": frontier_rows,
    }
    return ParetoResult(payload=payload)


# -- figure -------------------------------------------------------------------

def render_pareto_svg(result: ParetoResult, width: int = 640,
                      height: int = 420) -> str:
    """A dependency-free SVG scatter of the priced grid and its frontier.

    Grey dots are surrogate-priced points, filled dots exact runs, the
    polyline the verified frontier (ringed markers).
    """
    payload = result.payload
    points = payload["points"]
    xs = np.log2(np.asarray([p["cache"] for p in points], dtype=float))
    ys = np.asarray([p["speedup_vs_ref"] for p in points], dtype=float)
    pad = 48
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    x1 = x1 if x1 > x0 else x0 + 1.0
    y1 = y1 if y1 > y0 else y0 + 1.0

    def sx(x: float) -> float:
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y: float) -> float:
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12">log2 {payload["grid"]["cache_axis"]}</text>',
        f'<text x="14" y="{height / 2:.0f}" text-anchor="middle" '
        f'font-size="12" transform="rotate(-90 14 {height / 2:.0f})">'
        f'speedup vs reference {payload["baseline_policy"]}</text>',
        f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
        f'font-size="13">{payload["scene"]}: {payload["policy"]} '
        f'Pareto frontier ({payload["exact_runs"]["total"]} exact / '
        f'{payload["grid"]["size"]} points)</text>',
    ]
    for p, x, y in zip(points, xs, ys):
        if p["frontier"]:
            continue
        fill = "#444444" if p["exact"] else "#bbbbbb"
        parts.append(
            f'<circle cx="{sx(float(x)):.1f}" cy="{sy(float(y)):.1f}" '
            f'r="3" fill="{fill}"/>'
        )
    front = sorted(payload["frontier"], key=lambda r: r["cache"])
    if front:
        path = " ".join(
            f'{sx(float(np.log2(r["cache"]))):.1f},'
            f'{sy(r["speedup_vs_ref"]):.1f}'
            for r in front
        )
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="#c0392b" '
            f'stroke-width="1.5"/>'
        )
        for r in front:
            parts.append(
                f'<circle cx="{sx(float(np.log2(r["cache"]))):.1f}" '
                f'cy="{sy(r["speedup_vs_ref"]):.1f}" r="5" fill="#c0392b" '
                f'stroke="black" stroke-width="1"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
