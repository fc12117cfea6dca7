"""GPU substrate: a transaction-level timing model of a ray-tracing GPU.

This package plays the role Vulkan-Sim plays in the paper (see DESIGN.md
for the fidelity argument).  The model is *warp-step* granular: one step =
every active ray of the warp in the RT unit visits one BVH item; the step's
latency is the slowest ray's memory access plus the fixed-function
intersection latency.  The RT unit has a warp buffer of size one (Table 1),
so warps are processed serially per SM and an SM's cycle counter advances
as a discrete-event timeline.

Modules:

* :mod:`repro.gpusim.config` — Table 1 configuration and scaling presets.
* :mod:`repro.gpusim.cache` — L1/L2 cache models (LRU, set-assoc or full).
* :mod:`repro.gpusim.memory` — the per-SM memory hierarchy with bypass
  rules, reserved ray-data region, burst fetches and windowed statistics.
* :mod:`repro.gpusim.energy` — per-event energy accounting (AccelWattch
  stand-in).
* :mod:`repro.gpusim.warp` — warps, trace jobs and SIMT bookkeeping.
* :mod:`repro.gpusim.rt_unit` — the baseline ray-stationary RT unit
  (scalar: driven by the Vulkan-style pipeline and ray queries).
* :mod:`repro.gpusim.stats` — counters and timelines shared by all models.
* :mod:`repro.gpusim.soa` / :mod:`repro.gpusim.soa_engines` — the
  struct-of-arrays warp engine every render runs: precomputed render
  plans replayed through pure timing loops, bit-identical to the scalar
  units (checked against the test suite's scalar reference renderer).
"""

from repro.gpusim.config import GPUConfig, ScaledSetup, paper_config, scaled_config
from repro.gpusim.cache import Cache
from repro.gpusim.memory import AccessKind, MemorySystem
from repro.gpusim.energy import EnergyModel, ENERGY_COSTS
from repro.gpusim.stats import SimStats, TraversalMode
from repro.gpusim.warp import SimRay, TraceWarp, warp_step
from repro.gpusim.rt_unit import BaselineRTUnit
from repro.gpusim.dram import DRAMModel
from repro.gpusim.timeline import ActivityTimeline, write_chrome_trace

__all__ = [
    "GPUConfig",
    "ScaledSetup",
    "paper_config",
    "scaled_config",
    "Cache",
    "AccessKind",
    "MemorySystem",
    "EnergyModel",
    "ENERGY_COSTS",
    "SimStats",
    "TraversalMode",
    "SimRay",
    "TraceWarp",
    "warp_step",
    "BaselineRTUnit",
    "DRAMModel",
    "ActivityTimeline",
    "write_chrome_trace",
]
