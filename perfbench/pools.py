"""The benchmark's case pools and the seeded operation lists drawn from them.

A *case* is one simulated point: a scene, a policy, a VTQ variant and an
optional L2-size factor.  Its id (``SCENE/policy/vtq[/l2xF]``) keys the
committed digest table.  The pools are fixed; the seed only decides the
order in which a workload visits them (and, for ``served_jobs``, which
client submits which job and where the repeats fall), so every seed does
the same work and run-to-run differences are host noise, not input mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

SCENES = ("BUNNY", "SPNZA", "LANDS", "GSPL1")
POLICIES = ("baseline", "prefetch", "vtq")

#: VTQ variants, named ``q<Q>-r<R>``: queue threshold Q and repack
#: threshold R (``off`` = repacking disabled), on top of the figures'
#: population-scaled default (Q=32, R=22 at the default setup).  Fig. 12's
#: ``group@T`` is ``qT-roff``; Fig. 13's "no repack" is ``q32-roff`` and
#: its ``repack@T`` is ``q32-rT``.  ``default`` is ``run_case``'s own
#: default (``vtq=None``) and ``naive`` is Fig. 12's naive queues.
QUEUE_AXIS = (16, 32, 48, 64, 96, 128)
REPACK_AXIS = ("off", 8, 12, 16, 20, 22)
VTQ_GRID = tuple(f"q{q}-r{r}" for q in QUEUE_AXIS for r in REPACK_AXIS)

#: The Fig. 12 and Fig. 13 points: naive, ``group@{32,64,128}`` (repack
#: off), ``repack@{8,16,22}``.
FIGURE_VTQ = ("naive", "q32-roff", "q64-roff", "q128-roff", "q32-r8", "q32-r16", "q32-r22")

#: L2 sizes of the cache-axis points, as factors of the default L2.
L2_FACTORS = (0.5, 2.0)


@dataclass(frozen=True)
class Case:
    scene: str
    policy: str
    vtq: str = "default"
    l2: Optional[float] = None

    @property
    def id(self) -> str:
        parts = [self.scene, self.policy, self.vtq]
        if self.l2 is not None:
            parts.append(f"l2x{self.l2:g}")
        return "/".join(parts)

    @classmethod
    def parse(cls, case_id: str) -> "Case":
        parts = case_id.split("/")
        if len(parts) not in (3, 4):
            raise ValueError(f"malformed case id {case_id!r}")
        l2 = None
        if len(parts) == 4:
            if not parts[3].startswith("l2x"):
                raise ValueError(f"malformed case id {case_id!r}")
            l2 = float(parts[3][3:])
        case = cls(parts[0], parts[1], parts[2], l2)
        if case.id != case_id:
            raise ValueError(f"non-canonical case id {case_id!r}")
        return case


def vtq_config(label: str, context):
    """The ``VTQConfig`` (or ``None``) a VTQ label names under ``context``."""
    from dataclasses import replace

    from repro.experiments.figures import vtq_default

    if label == "default":
        return None
    base = vtq_default(context)
    if label == "naive":
        return base.naive()
    if label not in VTQ_GRID:
        raise ValueError(f"unknown VTQ label {label!r}")
    queue, repack = label[1:].split("-r")
    cfg = replace(base, queue_threshold=int(queue))
    if repack == "off":
        return replace(cfg, repack_enabled=False)
    return replace(cfg, repack_threshold=int(repack))


def gpu_overrides(case: Case, context) -> Optional[Dict[str, int]]:
    if case.l2 is None:
        return None
    return {"l2_bytes": int(context.setup.gpu.l2_bytes * case.l2)}


# -- pools -------------------------------------------------------------------------

def cold_pool() -> List[Case]:
    """Every scene under baseline and default VTQ.

    ``prefetch`` shares its scene, BVH and plan with these two and adds
    only the dearest replay, which ``warm_sweep`` and ``served_jobs``
    measure; leaving it out keeps a run inside the benchmark's time budget.
    """
    return [Case(s, p) for s in SCENES for p in ("baseline", "vtq")]


#: GSPL1's plan build and replays run in ``cold_case``; in a warm pass
#: its three replays alone would cost 6 s.
WARM_SCENES = ("BUNNY", "SPNZA", "LANDS")


def warm_pool() -> List[Case]:
    """A design-space sweep over the triangle scenes.

    Every Fig. 12/13 variant runs on BUNNY and LANDS, and one of each on
    SPNZA.  The cheap BUNNY and LANDS variants also keep the pool's median
    case inside a dense cluster of similar op times.  The cache-axis
    points (served by memtrace replay) run on BUNNY and ``sorted`` (the
    scalar engine) on BUNNY and LANDS: on the other scenes each of those
    costs 5-12 s, more than a whole pass can spend.
    """
    cases = [Case(s, p) for s in WARM_SCENES for p in POLICIES]
    cases += [Case(s, "vtq", v) for s in ("BUNNY", "LANDS") for v in FIGURE_VTQ]
    cases += [Case("SPNZA", "vtq", v) for v in ("q64-roff", "q32-r16")]
    cases += [Case("BUNNY", p, l2=f) for p in ("baseline", "prefetch")
              for f in L2_FACTORS]
    cases += [Case(s, "sorted") for s in ("BUNNY", "LANDS")]
    return cases


SERVED_SCENES = ("BUNNY", "LANDS", "SPNZA")
#: VTQ variants per served scene.  A warm VTQ job costs about 0.25 s on
#: BUNNY, 0.4 s on LANDS and 1 s on SPNZA, so BUNNY carries the whole
#: grid, LANDS the figure rows and SPNZA the default only; SPNZA's cold
#: plan build (about 4 s) still lands in the latency tail.
SERVED_VTQ = {
    "BUNNY": ("default", "naive") + VTQ_GRID,
    "LANDS": ("default", "naive")
    + tuple(f"q{q}-r{r}" for q in (16, 32, 64, 128) for r in ("off", 8, 16, 22))
    + ("q48-roff", "q48-r12", "q96-r20"),
    "SPNZA": ("default",),
}


def served_pool() -> List[Case]:
    """The distinct jobs of ``served_jobs``: every one is computed once."""
    cases = []
    for scene in SERVED_SCENES:
        cases += [Case(scene, "baseline"), Case(scene, "prefetch")]
        cases += [Case(scene, "vtq", v) for v in SERVED_VTQ[scene]]
    return cases


def all_cases() -> List[Case]:
    seen: Dict[str, Case] = {}
    for case in cold_pool() + warm_pool() + served_pool():
        seen.setdefault(case.id, case)
    return list(seen.values())


# -- seeded operation lists --------------------------------------------------------

def shuffled(cases: List[Case], seed: int, salt: str) -> List[Case]:
    order = list(cases)
    random.Random(f"{salt}:{seed}").shuffle(order)
    return order


SERVED_CLIENTS = 2
SERVED_SUBMISSIONS = 100


@dataclass(frozen=True)
class Submission:
    case: Case
    repeat: bool


def served_streams(seed: int) -> Tuple[List[Submission], ...]:
    """One closed-loop submission list per client.

    The pool is shuffled and dealt round-robin, so each distinct job
    belongs to exactly one client and is computed exactly once.  The
    remaining slots repeat a job the same client submitted earlier —
    which it has seen finish, because each client waits for every reply
    — so those are answered by the server's result-dedupe cache.
    """
    rng = random.Random(f"served:{seed}")
    pool = served_pool()
    rng.shuffle(pool)
    per_client = SERVED_SUBMISSIONS // SERVED_CLIENTS
    streams = []
    for client in range(SERVED_CLIENTS):
        new = pool[client::SERVED_CLIENTS]
        repeats = per_client - len(new)
        if repeats < 0:
            raise ValueError("served pool larger than the submission budget")
        # Slot 0 is always new: a repeat needs an earlier job to repeat.
        repeat_slots = set(rng.sample(range(1, per_client), repeats))
        stream: List[Submission] = []
        fresh = iter(new)
        for slot in range(per_client):
            if slot in repeat_slots:
                done = [s.case for s in stream if not s.repeat]
                stream.append(Submission(rng.choice(done), True))
            else:
                stream.append(Submission(next(fresh), False))
        streams.append(stream)
    return tuple(streams)
