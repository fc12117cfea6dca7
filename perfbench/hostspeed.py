"""Host execution speed, sampled beside a run, to normalize its times.

On a shared host the same Python code runs up to 1.8x slower for tens of
seconds at a time: on the reference host, a shared 2-CPU VM, a fixed
pure-Python loop took 1.0-1.9 s from one run to the next.  Its CPU time
slowed as much as its wall time, so the slowdown is execution speed, not
scheduling.  Medians within a run
cannot remove a slowdown that lasts longer than the run.

So every run starts a sampler process beside the workload.  Every
``INTERVAL_S`` it times a fixed pure-Python task in thread CPU time,
which waiting for a CPU does not inflate.  A measured interval is divided
by the host's slowness over that interval: the median probe time in the
interval over ``PROBE_REF_S``, the probe time of the reference host when
it is quiet.  Normalized times are seconds at reference speed; raw times
are kept in the result file.  The sampler never touches the program, and
it takes about 5% of one CPU.

Usage (sampler process): ``python perfbench/hostspeed.py OUT_FILE``.
"""

from __future__ import annotations

import bisect
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Sequence, Tuple

#: Probe thread-CPU seconds on the reference host (2-CPU VM, Python 3.11)
#: when it is quiet.
PROBE_REF_S = 0.0045
INTERVAL_S = 0.1
#: Fewest probes a factor is taken over; short intervals borrow neighbours.
MIN_SAMPLES = 5


def probe() -> float:
    """Thread CPU seconds of a fixed dict-and-arithmetic loop."""
    start = time.thread_time()
    table = {}
    acc = 0.0
    for i in range(20000):
        key = i & 255
        table[key] = table.get(key, 0) + i * 0.5
        acc += (i % 7) * 1.5
    return time.thread_time() - start


class Sampler:
    """A sampler process; :meth:`stop` ends it and returns its samples."""

    def __init__(self, out: Path):
        self.out = out
        self.proc = subprocess.Popen([sys.executable, __file__, str(out)],
                                     stdin=subprocess.PIPE, stdout=subprocess.DEVNULL)

    def stop(self) -> "Speed":
        self.proc.stdin.close()  # the sampler exits when its stdin closes
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        samples = []
        for line in self.out.read_text().splitlines():
            t, p = line.split()
            samples.append((float(t), float(p)))
        return Speed(samples)


class Speed:
    """Probe samples ``(perf_counter, probe seconds)`` and the factors they give."""

    def __init__(self, samples: Sequence[Tuple[float, float]]):
        if not samples:
            raise ValueError("the host-speed sampler recorded nothing")
        self.samples = sorted(samples)
        self.times = [t for t, _ in self.samples]

    def slowness(self, t0: float, t1: float) -> float:
        """Median probe time over ``[t0, t1]`` relative to the reference host.

        An interval holding fewer than ``MIN_SAMPLES`` probes takes the
        ``MIN_SAMPLES`` probes nearest its middle instead.
        """
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.times, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            hi = min(len(self.times), lo + MIN_SAMPLES)
        return statistics.median(p for _, p in self.samples[lo:hi]) / PROBE_REF_S

    def normalize(self, t0: float, t1: float) -> float:
        """``t1 - t0`` in seconds at reference speed."""
        return (t1 - t0) / self.slowness(t0, t1)

    def summary(self) -> dict:
        probes = [p for _, p in self.samples]
        return {"probes": len(probes), "slowness_median": statistics.median(probes) / PROBE_REF_S,
                "slowness_min": min(probes) / PROBE_REF_S, "slowness_max": max(probes) / PROBE_REF_S}


def _sample(out_path: str) -> None:
    import select

    with open(out_path, "w") as out:
        while True:
            p = probe()
            out.write(f"{time.perf_counter()!r} {p!r}\n")
            out.flush()
            ready, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
            if ready and not sys.stdin.buffer.read1(1):
                return  # the parent closed our stdin


if __name__ == "__main__":
    _sample(sys.argv[1])
