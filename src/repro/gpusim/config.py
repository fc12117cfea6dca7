"""GPU configuration (the paper's Table 1) and the scaled experiment setup.

``paper_config()`` returns Table 1 verbatim.  ``scaled_config()`` returns
the scale-model configuration the reproduction runs by default: the same
latencies and the same *ratios* (L2 = 8x L1, treelet = L1/2, ray budget =
pixels per SM), with capacities shrunk in proportion to the synthetic
scenes (see DESIGN.md's substitution table).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro import settings


#: GPUConfig fields that are a latency, a cycle cost or a DRAM timing:
#: zero is a valid (free) cost, a negative one is refused.
COST_FIELDS = (
    "l1_latency",
    "l2_latency",
    "dram_latency",
    "dram_line_transfer",
    "intersection_latency",
    "miss_serialization_cycles",
    "raygen_cycles_per_warp",
    "shade_cycles_per_warp",
    "cta_launch_cycles",
    "gaussian_alpha_cycles",
    "gaussian_blend_cycles",
    "ray_sort_cycles_per_key",
    "dram_t_cas",
    "dram_t_rcd",
    "dram_t_rp",
    "dram_base_cycles",
    "cta_resume_schedule_cycles",
)


@dataclass(frozen=True)
class GPUConfig:
    """Simulated GPU parameters.

    The first block mirrors the paper's Table 1; the second block holds the
    transaction-level model's cost parameters, which Table 1 leaves to
    Vulkan-Sim internals.
    """

    # --- Table 1 -----------------------------------------------------------
    num_sms: int = 16
    max_warps_per_sm: int = 32
    warp_size: int = 32
    max_cta_per_sm: int = 16
    registers_per_sm: int = 32768
    l1_bytes: int = 16 * 1024
    l1_latency: int = 39
    l1_assoc: Optional[int] = None  # None = fully associative (Table 1)
    l2_bytes: int = 128 * 1024
    l2_latency: int = 187
    l2_assoc: int = 16
    rt_units_per_sm: int = 1
    rt_warp_buffer_size: int = 1

    # --- model cost parameters ----------------------------------------------
    line_bytes: int = 32
    dram_latency: int = 471  # Accel-Sim RTX 3080 average DRAM round trip
    dram_line_transfer: int = 2  # extra cycles per line in a burst fetch
    intersection_latency: int = 4  # fixed-function box/tri test per step
    # Optional extra contention: each distinct L1 miss beyond the first in
    # a warp step adds this many cycles on top of the fractional-stall
    # cost (see step_latency).  Zero by default — the fractional-stall model
    # already charges partially-missing steps; this knob exists for
    # bandwidth-pressure sensitivity studies.
    miss_serialization_cycles: int = 0
    raygen_cycles_per_warp: int = 60
    shade_cycles_per_warp: int = 40
    cta_launch_cycles: int = 20
    cta_threads: int = 64  # threads per CTA (2 warps)
    # Gaussian-workload leaf costs (splat scenes, see docs/GAUSSIAN.md).
    # A gaussian candidate is priced like a fixed-function box/tri test
    # *plus* an alpha evaluation in the shader core (the exp and blend
    # math RT hardware does not provide): ``gaussian_alpha_cycles`` per
    # candidate tested, ``gaussian_blend_cycles`` per leaf-visiting lane
    # (front-to-back blend bookkeeping).  Both charge zero on triangle
    # BVHs — the triangle cost model is untouched.
    gaussian_alpha_cycles: int = 8
    gaussian_blend_cycles: int = 2
    # Amortized per-key cost of the software ray sort used by the
    # "sorted" comparison policy (GPU radix sort over (octant, Morton)
    # keys; Garanzha & Loop's overhead is the reason the paper dismisses
    # sorting in favour of treelet queues).
    ray_sort_cycles_per_key: int = 2

    # --- optional banked DRAM model (see repro.gpusim.dram) --------------------
    # When False (default) every DRAM access costs the flat dram_latency;
    # when True, misses go through a channels x banks open-row model whose
    # parameters below sum to ~dram_latency for a row miss.
    detailed_dram: bool = False
    dram_channels: int = 2
    dram_banks: int = 8
    dram_row_bytes: int = 2048
    dram_t_cas: int = 40
    dram_t_rcd: int = 45
    dram_t_rp: int = 45
    dram_base_cycles: int = 340  # controller + interconnect round trip

    # --- ray virtualization ----------------------------------------------------
    max_virtual_rays_per_sm: int = 4096
    raygen_registers_per_thread: int = 10  # ptxas figure from Section 6.6
    simt_stack_depth: int = 2
    cta_resume_schedule_cycles: int = 30

    def __post_init__(self):
        if self.warp_size < 1 or self.num_sms < 1:
            raise ValueError("warp_size and num_sms must be positive")
        if self.l1_bytes % self.line_bytes or self.l2_bytes % self.line_bytes:
            raise ValueError("cache sizes must be multiples of the line size")
        if self.cta_threads % self.warp_size:
            raise ValueError("cta_threads must be a multiple of warp_size")
        negative = [name for name in COST_FIELDS if getattr(self, name) < 0]
        if negative:
            raise ValueError(f"cost fields must not be negative: {negative}")

    # -- derived quantities ---------------------------------------------------

    @property
    def warps_per_cta(self) -> int:
        return self.cta_threads // self.warp_size

    @property
    def treelet_bytes(self) -> int:
        """Treelet budget: half the L1, per the paper's methodology."""
        return self.l1_bytes // 2

    @property
    def ray_record_bytes(self) -> int:
        """Ray origin + direction + tmin + tmax = 32 B (Section 6.5)."""
        return 32

    @property
    def ray_data_reserved_bytes(self) -> int:
        """Reserved L2 region sized for the full virtual ray population."""
        return self.max_virtual_rays_per_sm * self.ray_record_bytes

    def cta_state_bytes(self) -> int:
        """Bytes saved when a CTA is suspended (Section 6.6).

        Per thread: ``raygen_registers_per_thread`` 32-bit registers.  Per
        warp: a 32-bit SIMT mask, PC and reconvergence PC per stack entry.
        """
        per_thread = self.raygen_registers_per_thread * 4
        per_warp = self.simt_stack_depth * (4 + 4 + 4)
        return self.cta_threads * per_thread + self.warps_per_cta * per_warp


@dataclass(frozen=True)
class ScaledSetup:
    """A full experiment setup: GPU config plus workload scale knobs."""

    gpu: GPUConfig
    image_width: int = 64
    image_height: int = 64
    scene_scale: float = 1.0
    max_bounces: int = 3
    samples_per_pixel: int = 1

    @property
    def pixels(self) -> int:
        return self.image_width * self.image_height


def paper_config() -> GPUConfig:
    """Table 1 exactly."""
    return GPUConfig()


def scaled_config(
    cache_divisor: int = 8,
    num_sms: int = 4,
    max_virtual_rays_per_sm: int = 4096,
) -> GPUConfig:
    """The reproduction's default scale-model GPU.

    Caches shrink by ``cache_divisor`` to keep BVH-size : cache-size in the
    paper's regime against the synthetic scenes, and the SM count shrinks
    so a Python-speed simulation finishes; per-SM behaviour (the unit the
    paper's mechanisms live in) is unchanged.  Latencies are untouched.
    """
    base = GPUConfig()
    return replace(
        base,
        num_sms=num_sms,
        l1_bytes=base.l1_bytes // cache_divisor,
        l2_bytes=base.l2_bytes // cache_divisor,
        max_virtual_rays_per_sm=max_virtual_rays_per_sm,
    )


def default_setup(fast: bool = False) -> ScaledSetup:
    """The setup experiments run by default.

    ``REPRO_SCALE`` (a float) multiplies the scene scale and image area
    toward the paper's full 256x256 / 16-SM configuration for users with
    more patience; ``fast=True`` shrinks everything for unit tests.
    """
    scale = settings.get("REPRO_SCALE")
    if fast:
        return ScaledSetup(
            gpu=scaled_config(cache_divisor=8, num_sms=2),
            image_width=16,
            image_height=16,
            scene_scale=0.5,
            max_bounces=3,
        )
    side = int(64 * scale**0.5)
    return ScaledSetup(
        gpu=scaled_config(),
        image_width=side,
        image_height=side,
        scene_scale=scale,
        max_bounces=3,
    )
