"""Machine-speed reference sampled while a workload runs.

On a shared host the same code runs up to twice as fast at one moment as at
the next.  A timer signal interrupts the workload every PERIOD_S seconds and
times a small fixed kernel with the mix the workloads run: an 11-mode
tridiagonal eigensolve and product, vector arithmetic over a 121-point scan,
a small SVD and an interpreted loop.  The kernel uses only numpy and scipy,
never rwasim, so a change to the program cannot move it.  Time spent in the
kernel is tallied so the caller can subtract it from its own timings.
"""
from __future__ import annotations

import signal
from time import perf_counter

import numpy as np
from scipy.linalg import eigh_tridiagonal

PERIOD_S = 0.1
KERNEL_REPEATS = 4
# Kernel time that defines one nominal second; a run on a machine whose
# kernel takes this long reports its rates unchanged.
NOMINAL_KERNEL_S = 1e-3

_DIAG = np.linspace(3.1, 4.1, 11)
_OFFDIAG = np.full(10, 0.14)
_X = np.linspace(-0.6, 0.6, 121)
_JAC = np.vander(_X, 5)


def _step() -> float:
    w, q = eigh_tridiagonal(_DIAG, _OFFDIAG)
    u = (q * np.exp(-1j * 24.0 * w)) @ q.T
    acc = float(np.abs(u[:, 0]) @ np.abs(u[:, 1]))
    r = (_X + 1.0) * (1.0 - 0.5 * np.exp(-(_X - 0.1) ** 2 / 0.01))
    acc += float(np.linalg.svd(_JAC * r[:, None], compute_uv=False)[0])
    for i in range(100):
        acc += abs(complex(i, 1.0)) ** 0.5
    return acc


def kernel() -> float:
    """Seconds KERNEL_REPEATS steps take, after one untimed step that
    refills whatever caches the interrupted workload evicted."""
    _step()
    t0 = perf_counter()
    for _ in range(KERNEL_REPEATS):
        _step()
    return perf_counter() - t0


def slowdown(samples) -> float:
    """Mean kernel time over its nominal time (> 1: slower than nominal)."""
    return float(np.mean(samples)) / NOMINAL_KERNEL_S if len(samples) else 1.0


class SpeedSampler:
    """Times `kernel` from a SIGALRM handler while installed."""

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0

    def _handler(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(kernel())
        self.stolen += perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
