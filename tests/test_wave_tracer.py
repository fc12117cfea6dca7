"""The wave tracer against scalar stepping, and its input checks.

:func:`repro.gpusim.soa.trace_states` runs every ray's traversal as
array operations over lock-step waves.  The oracle here shares no code
with it: each ray is stepped alone by the scalar
:func:`repro.bvh.traversal.single_step`, and its visit sequence, the
stacks observed before every pop, the treelets each pop entered, the
hit and the counters are read off the live ``RayTraversalState``.
Micro-scenes cover triangle and gaussian BVHs with treelets small
enough that most pops cross treelet boundaries, in closest-hit,
any-hit and mixed batches.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bvh import TraversalOrder, build_scene_bvh, init_traversal, single_step
from repro.bvh.traversal import RayTraversalState
from repro.errors import SimulationError
from repro.geometry import TriangleMesh
from repro.geometry.gaussian import GaussianSet
from repro.gpusim.soa import trace_states

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def micro_scenes(draw, kind):
    """A small triangle soup or splat cloud with tiny treelets."""
    n = draw(st.integers(1, 160))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    spread = draw(st.floats(0.2, 3.0))
    anchors = rng.uniform(-spread, spread, size=(n, 1, 3))
    if kind == "triangle":
        tris = anchors + rng.uniform(-0.5, 0.5, size=(n, 3, 3))
        mesh = TriangleMesh(tris.reshape(-1, 3), np.arange(3 * n).reshape(n, 3))
    else:
        b = rng.normal(scale=0.3, size=(n, 3, 3))
        cov = b @ np.swapaxes(b, -1, -2) + 0.05 * np.eye(3)
        mesh = GaussianSet.from_covariance(
            anchors[:, 0], cov, rng.uniform(0.2, 1.0, n), rng.uniform(0, 1, (n, 3))
        )
    budget = draw(st.sampled_from([128, 256, 1024]))
    return build_scene_bvh(mesh, treelet_budget_bytes=budget)


def _rays(bvh, count, seed):
    rng = np.random.default_rng(seed)
    box = bvh.wide.root_bounds
    center = box.centroid()
    radius = float(np.linalg.norm(box.extent())) + 1.0
    # Half the rays start inside the scene, where boxes overlap and stacks
    # run deep enough that culled entries sit above live ones.
    scale = np.where(np.arange(count) % 2 == 0, radius, 0.2 * radius)[:, None]
    origins = center + rng.normal(size=(count, 3)) * scale
    targets = center + rng.uniform(-0.5, 0.5, (count, 3)) * box.extent()
    directions = targets - origins
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    return origins, np.where(norms > 1e-12, directions / norms, [1.0, 0.0, 0.0])


def _states(bvh, origins, directions, modes):
    """Fresh states; ``modes[i]`` any-hit states clip at a finite tmax."""
    states = []
    for i, any_hit in enumerate(modes):
        tmax = 2.0 * float(np.linalg.norm(bvh.wide.root_bounds.extent())) + 4.0
        states.append(init_traversal(
            bvh, origins[i], directions[i],
            tmax=tmax if any_hit else float("inf"), collect_all_hits=any_hit,
        ))
    return states


def _step_alone(bvh, state, entered):
    """One ray's record from ``single_step``: visits, positions, chains
    (visit index -> treelets entered by that pop) and the tail."""
    visits, positions, chains = [], [], {}
    while True:
        positions.append((
            bool(state.current_stack),
            state.current_treelet,
            state.treelet_stack[-1][0] if state.treelet_stack else -1,
            state.current_stack[-1][0] if state.current_stack else -1,
        ))
        entered.clear()
        step = single_step(bvh, state)
        if step is None:
            return visits, positions, chains, tuple(entered)
        if entered:
            chains[len(visits)] = tuple(entered)
        visits.append(step)


def _traced(batch, r):
    cols = batch.replay_columns()
    first, last = cols.start[r], cols.start[r + 1] - 1
    visits = list(zip(
        batch.item[first:last].tolist(),
        batch.isleaf[first:last].tolist(),
        batch.tests[first:last].tolist(),
    ))
    positions = list(zip(
        batch.curwork[first:last + 1].tolist(),
        batch.cur_tre[first:last + 1].tolist(),
        batch.next_tre[first:last + 1].tolist(),
        batch.top_item[first:last + 1].tolist(),
    ))
    chains = {
        p - first: cols.chains[p]
        for p in range(first, last) if cols.chains[p] is not None
    }
    return visits, positions, chains, cols.tails[r]


def _result(state):
    return (state.t_hit, state.hit_prim, state.all_hits, state.nodes_visited,
            state.leaf_visits, state.triangle_tests, state.culled)


@pytest.mark.parametrize("kind", ["triangle", "gaussian"])
def test_wave_tracer_matches_scalar_stepping(kind):
    _check_against_scalar_stepping(kind)


def _check_against_scalar_stepping(kind):
    @SETTINGS
    @given(
        micro_scenes(kind),
        st.integers(0, 1000),
        st.sampled_from(["closest", "any", "mixed"]),
    )
    def check(bvh, seed, mode):
        _compare(bvh, seed, mode)

    check()


def _compare(bvh, seed, mode):
    count = 16
    origins, directions = _rays(bvh, count, seed)
    modes = {
        "closest": [False] * count,
        "any": [True] * count,
        "mixed": [i % 2 == 1 for i in range(count)],
    }[mode]
    scalar = _states(bvh, origins, directions, modes)
    traced = _states(bvh, origins, directions, modes)

    entered = []
    advance = RayTraversalState.advance_treelet

    def recording(state):
        treelet = advance(state)
        if treelet is not None:
            entered.append(treelet)
        return treelet

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RayTraversalState, "advance_treelet", recording)
        expected = [_step_alone(bvh, state, entered) for state in scalar]
    batch = trace_states(bvh, traced)

    assert batch.num_rays == count
    for r in range(count):
        assert _traced(batch, r) == expected[r]
        assert _result(traced[r]) == _result(scalar[r])
        assert traced[r].finished()


@pytest.fixture(scope="module")
def quad_bvh():
    vertices = np.array([[-1, -1, 0], [1, -1, 0], [1, 1, 0], [-1, 1, 0]], float)
    return build_scene_bvh(TriangleMesh(vertices, np.array([[0, 1, 2], [0, 2, 3]])))


def _toward_quad(bvh, **kwargs):
    return init_traversal(bvh, (0.2, 0.1, -5.0), (0.0, 0.0, 1.0), **kwargs)


class TestRefusesBadInput:
    """The tracer seeds every ray from its ray fields and the root entry,
    so any other state would be silently mis-traced."""

    def test_depth_first_order(self, quad_bvh):
        state = _toward_quad(quad_bvh, order=TraversalOrder.DEPTH_FIRST)
        with pytest.raises(SimulationError, match="TREELET"):
            trace_states(quad_bvh, [_toward_quad(quad_bvh), state])

    def test_finished_state(self, quad_bvh):
        state = _toward_quad(quad_bvh)
        while single_step(quad_bvh, state) is not None:
            pass
        assert state.finished()
        with pytest.raises(SimulationError, match="already finished"):
            trace_states(quad_bvh, [state])

    def test_half_walked_stack(self, quad_bvh):
        state = _toward_quad(quad_bvh)
        single_step(quad_bvh, state)
        assert not state.finished()
        with pytest.raises(SimulationError, match="other than the root"):
            trace_states(quad_bvh, [state])

    def test_refused_batch_is_left_untouched(self, quad_bvh):
        fresh = _toward_quad(quad_bvh)
        bad = _toward_quad(quad_bvh, order=TraversalOrder.DEPTH_FIRST)
        with pytest.raises(SimulationError):
            trace_states(quad_bvh, [fresh, bad])
        assert fresh.current_stack == [(0, False, 0, fresh.tmin)]
        assert fresh.nodes_visited == 0
