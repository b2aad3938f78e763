"""Host speed, measured with a fixed kernel, for host-normalized timings.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds to minutes. That drift moves every wall-clock
timing of a run together, whatever the program does. The closed loops
therefore time a fixed kernel of their own — small numpy calls driven
from Python, the same kind of work as the engine's read path, and no code
of the program — between the reads they measure, about once a second,
and before each set-up, and report each read's latency and each set-up
time at a reference host speed: divided by the host factor in force when
it ran (throughput is scaled to match). The
factor is the kernel's time divided by ``REF_S``, its time on a quiet
host. A change to the program moves the
reads and not the kernel, so it shows in the normalized figures in full;
a slower host moves both, and cancels out.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

__all__ = ["REF_S", "kernel_s", "factor", "HostClock"]

#: The kernel's time on a quiet 2-vCPU Xeon VM: the host speed that
#: normalized timings are reported at.
REF_S = 3.0e-3

_rng = np.random.default_rng(12345)
_ROWS = _rng.random((2000, 4))
_WEIGHTS = _rng.random(4)
_CALLS = 200


def kernel_s() -> float:
    """One timing of the fixed kernel: score 2000 4-d rows and pick the
    10 best, ``_CALLS`` times."""
    t0 = perf_counter()
    for _ in range(_CALLS):
        np.argpartition(_ROWS @ _WEIGHTS, 10)[:10]
    return perf_counter() - t0


def factor(reps: int = 3) -> float:
    """The host factor now: median of ``reps`` kernel timings over
    ``REF_S`` (above 1 when the host runs slower than the reference).
    One untimed call first brings the kernel's data back into cache, so
    that what the reads left there does not count as host speed."""
    kernel_s()
    return statistics.median(kernel_s() for _ in range(reps)) / REF_S


class HostClock:
    """Host-factor samples taken through a run, and the time they took."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0

    def sample(self, reps: int = 3) -> float:
        t0 = perf_counter()
        f = factor(reps)
        self.spent_s += perf_counter() - t0
        self.samples.append(f)
        return f

    def median(self) -> float:
        return statistics.median(self.samples)

    def summary(self) -> dict:
        return {"ref_kernel_s": REF_S, "samples": len(self.samples),
                "median": self.median(), "min": min(self.samples),
                "max": max(self.samples)}
