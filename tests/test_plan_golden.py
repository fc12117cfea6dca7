"""Golden digests of the state tracer's output.

:func:`repro.gpusim.soa.trace_states` is the functional half of every
timing run: render plans, query batches and vkrt launches all replay
what it traced.  ``tests/golden/plan_golden.json`` pins a SHA-256 per
case over a canonical encoding of everything it produces:

* per ray, the traced columns — visit items, leaf flags, triangle-test
  counts, the four position lists (``curwork``, ``cur_tre``,
  ``next_tre``, ``top_item``), the chain table and the tail;
* per ray, every field written back to the traversal state — ``t_hit``,
  ``hit_prim``, ``all_hits`` and the four counters;
* per plan, each bounce's slots and sort keys, and the radiance bytes.

Cases: the render plans of BUNNY, SPNZA, LANDS and GSPL1 at
``default_setup(fast=True)``, one ``RangeIndex`` any-hit batch and one
vkrt launch (per-warp tracing, mixed closest-hit and any-hit rays).

Regenerate only for a deliberate change of traversal behaviour::

    PYTHONPATH=src python -m tests.test_plan_golden --write
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

import repro.gpusim.soa as soa
import repro.vkrt.pipeline as vkrt_pipeline
from repro.experiments.runner import scene_and_bvh
from repro.gpusim.config import default_setup

GOLDEN = Path(__file__).parent / "golden" / "plan_golden.json"
PLAN_SCENES = ("BUNNY", "SPNZA", "LANDS", "GSPL1")


def _digest(value) -> str:
    text = json.dumps(value, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _state_fields(state) -> list:
    all_hits = state.all_hits
    return [
        state.t_hit,
        state.hit_prim,
        None if all_hits is None else [[prim, t] for prim, t in all_hits],
        state.nodes_visited,
        state.leaf_visits,
        state.triangle_tests,
        state.culled,
    ]


def _traced_rows(traced) -> list:
    """Per ray: ``[items, isleaf, tests, curwork, cur_tre, next_tre,
    top_item, chains, tail]`` from one ``trace_states`` result."""
    cols = traced.replay_columns()
    rows = []
    for r in range(traced.num_rays):
        first, last = cols.start[r], cols.start[r + 1] - 1
        visits = slice(first, last)
        positions = slice(first, last + 1)
        rows.append([
            traced.item[visits].tolist(),
            [int(v) for v in traced.isleaf[visits]],
            traced.tests[visits].tolist(),
            [int(v) for v in traced.curwork[positions]],
            traced.cur_tre[positions].tolist(),
            traced.next_tre[positions].tolist(),
            traced.top_item[positions].tolist(),
            [[p - first, list(cols.chains[p])]
             for p in range(first, last) if cols.chains[p] is not None],
            list(cols.tails[r]),
        ])
    return rows


class _Capture:
    """Wraps ``trace_states`` (under the name a driver calls it by) and
    encodes every call's traced rows and written-back state fields."""

    def __init__(self):
        self.calls = []

    def install(self, monkeypatch, module):
        original = soa.trace_states

        def recording(bvh, states):
            traced = original(bvh, states)
            self.calls.append([
                row + [_state_fields(state)]
                for row, state in zip(_traced_rows(traced), states)
            ])
            return traced

        monkeypatch.setattr(module, "trace_states", recording)


def _plan_extras(plan) -> list:
    """Per bounce: the traced slots and their sort keys; then radiance."""
    bounces = [
        [slots.tolist(), batch.sort_key.tolist()]
        for batch, slots in zip(plan.batches, plan.slots)
    ]
    return [bounces, hashlib.sha256(plan.radiance.tobytes()).hexdigest()]


def plan_case(name: str, monkeypatch) -> str:
    setup = default_setup(fast=True)
    scene, bvh = scene_and_bvh(name, setup)
    capture = _Capture()
    capture.install(monkeypatch, soa)
    plan = soa.build_plan(scene, bvh, setup)
    return _digest([capture.calls, _plan_extras(plan)])


def range_index_case(monkeypatch) -> str:
    from tests.test_engine_golden import NUM_QUERIES, query_workloads

    bvh, factory = query_workloads()["range_index"]
    states = [factory(i) for i in range(NUM_QUERIES)]
    capture = _Capture()
    capture.install(monkeypatch, soa)
    soa.trace_states(bvh, states)
    assert all(state.all_hits is not None for state in states)
    return _digest(capture.calls)


def vkrt_case(monkeypatch) -> str:
    from tests.test_engine_golden import run_launch_case

    capture = _Capture()
    capture.install(monkeypatch, vkrt_pipeline)
    run_launch_case("baseline")
    return _digest(capture.calls)


CASES = {
    **{f"plan_{name}": functools.partial(plan_case, name) for name in PLAN_SCENES},
    "range_index": range_index_case,
    "vkrt_launch": vkrt_case,
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_matches_golden(golden, case, monkeypatch):
    assert CASES[case](monkeypatch) == golden[case]


def generate() -> dict:
    out = {}
    for case, run in sorted(CASES.items()):
        with pytest.MonkeyPatch.context() as monkeypatch:
            out[case] = run(monkeypatch)
    return out


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_plan_golden --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
