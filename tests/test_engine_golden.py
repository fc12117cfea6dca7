"""Golden outputs of the non-render timing drivers.

``repro.rtquery.time_queries`` and ``repro.vkrt.RayTracingPipeline``
run flat query batches and shader-driven launches through the policy
RT units.  ``tests/golden/engine_golden.json`` pins what they produced
when every trace was stepped live through the scalar RT units: cycles,
per-SM cycles, the full ``SimStats.snapshot()`` and every functional
result (any-hit lists per query, payloads per launch thread).  The
engines now replay traced states; these tests hold them to the scalar
numbers bit for bit, and the scalar reference units in
``tests/scalar_reference.py`` stay a live oracle for the query batches.

Regenerate only for a deliberate change of simulated behaviour::

    PYTHONPATH=src python -m tests.test_engine_golden --write
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bvh import build_scene_bvh
from repro.gpusim.config import scaled_config
from repro.rtquery import MeshClassifier, NeighborIndex, RangeIndex, time_queries
from repro.scenes import icosphere, load_scene
from repro.vkrt import RayTracingPipeline, TraceCall
from tests.scalar_reference import reference_time_queries

GOLDEN = Path(__file__).parent / "golden" / "engine_golden.json"
POLICIES = ("baseline", "prefetch", "vtq")
QUERY_WORKLOADS = ("range_index", "neighbor_index", "mesh_classifier")
NUM_QUERIES = 256


def _canonical(value):
    """JSON round trip: int dict keys become strings, tuples lists."""
    return json.loads(json.dumps(value))


def _state_result(state):
    return [
        [[prim, t] for prim, t in state.all_hits],
        state.nodes_visited, state.leaf_visits, state.triangle_tests, state.culled,
    ]


@functools.lru_cache(maxsize=None)
def query_workloads():
    """``{name: (bvh, state_factory)}`` for the three Section 8 workloads."""
    rng = np.random.default_rng(11)
    index = RangeIndex(rng.uniform(0.0, 1000.0, 1000))
    lows = rng.uniform(0.0, 990.0, NUM_QUERIES)

    def range_state(i):
        return index.make_query_state(lows[i], lows[i] + 10.0, ray_id=i)

    points = rng.uniform(-5.0, 5.0, (300, 3))
    neighbors = NeighborIndex(points, 0.8)
    near = rng.uniform(-5.0, 5.0, (NUM_QUERIES, 3))

    def neighbor_state(i):
        return neighbors.make_query_state(near[i], ray_id=i)

    classifier = MeshClassifier(icosphere(3, radius=2.0))
    inside = rng.uniform(-2.5, 2.5, (NUM_QUERIES, 3))

    def classify_state(i):
        return classifier.make_query_state(inside[i], ray_id=i)

    return {
        "range_index": (index.bvh, range_state),
        "neighbor_index": (neighbors.bvh, neighbor_state),
        "mesh_classifier": (classifier.bvh, classify_state),
    }


def run_query_case(name: str, policy: str, timer=time_queries) -> dict:
    bvh, factory = query_workloads()[name]
    result = timer(bvh, factory, NUM_QUERIES, policy=policy)
    return _canonical({
        "cycles": result.cycles,
        "stats": result.stats.snapshot(),
        "results": [_state_result(state) for state in result.states],
    })


@functools.lru_cache(maxsize=None)
def _launch_scene():
    scene = load_scene("BUNNY", scale=0.5)
    config = scaled_config(num_sms=2)
    bvh = build_scene_bvh(scene.mesh, treelet_budget_bytes=config.treelet_bytes)
    return scene, bvh, config


def run_launch_case(policy: str) -> dict:
    """A 2-SM 24x24 launch: a closest-hit primary, a shadow ray toward a
    point light and an any-hit (``mode="all"``) ray through the mesh."""
    scene, bvh, config = _launch_scene()
    width = height = 24
    primaries = scene.camera.primary_rays(width, height)
    bounds = scene.mesh.bounds()
    light = bounds.centroid() + np.array([0.4, 0.6, -0.3]) * bounds.extent()

    def raygen(launch_id, payload):
        origin = primaries.origins[launch_id]
        direction = primaries.directions[launch_id]
        hit = yield TraceCall(tuple(origin), tuple(direction))
        payload["t"] = hit.t if hit.hit else None
        payload["prim"] = hit.prim_id
        if hit.hit:
            to_light = light - hit.position
            distance = float(np.linalg.norm(to_light))
            shadow = yield TraceCall(
                tuple(hit.position), tuple(to_light / distance),
                tmin=1e-3, tmax=distance,
            )
            payload["shadowed"] = shadow.hit
        through = yield TraceCall(tuple(origin), tuple(direction), mode="all")
        payload["all_hits"] = [[prim, t] for prim, t in through.all_hits]

    result = RayTracingPipeline(raygen).launch(
        bvh, width, height, policy=policy, config=config
    )
    return _canonical({
        "cycles": result.cycles,
        "per_sm_cycles": result.per_sm_cycles,
        "stats": result.stats.snapshot(),
        "payloads": result.payloads,
    })


def _golden_entry(run, functional: str) -> dict:
    """Functional results are policy-independent, so an entry stores them
    once, next to each policy's timing."""
    entry = {}
    for policy in POLICIES:
        case = run(policy)
        result = case.pop(functional)
        assert entry.setdefault(functional, result) == result, policy
        entry[policy] = case
    return entry


def generate() -> dict:
    out = {
        name: _golden_entry(lambda policy: run_query_case(name, policy), "results")
        for name in QUERY_WORKLOADS
    }
    out["vkrt"] = _golden_entry(run_launch_case, "payloads")
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", QUERY_WORKLOADS)
def test_time_queries_matches_golden(golden, name, policy):
    case = run_query_case(name, policy)
    assert case.pop("results") == golden[name]["results"]
    assert case == golden[name][policy]


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", QUERY_WORKLOADS)
def test_time_queries_matches_scalar_reference(name, policy):
    """Replayed query batches equal live stepping through the scalar units."""
    reference = run_query_case(name, policy, timer=reference_time_queries)
    assert run_query_case(name, policy) == reference


@pytest.mark.parametrize("policy", POLICIES)
def test_vkrt_launch_matches_golden(golden, policy):
    case = run_launch_case(policy)
    assert case.pop("payloads") == golden["vkrt"]["payloads"]
    assert case == golden["vkrt"][policy]


def test_golden_cases_are_nontrivial(golden):
    """The fixtures exercise what they claim: hits, shadows, treelet mode."""
    ranges = golden["range_index"]["results"]
    assert sum(len(hits) for hits, *_ in ranges) > NUM_QUERIES
    launch = golden["vkrt"]
    assert len(launch["vtq"]["per_sm_cycles"]) == 2
    assert any(p.get("shadowed") for p in launch["payloads"])
    assert any(len(p["all_hits"]) > 1 for p in launch["payloads"])
    modes = golden["mesh_classifier"]["vtq"]["stats"]["mode_cycles"]
    assert modes["treelet_stationary"] > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_engine_golden --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(generate(), sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
