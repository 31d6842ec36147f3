"""A fixed kernel that measures how fast the host runs right now.

The benchmark host is shared: the same code runs up to 60% slower for
tens of seconds at a time. Timings are therefore reported at a reference
speed: measured times are multiplied by REFERENCE_S over the kernel's time
measured around them. The kernel does not call geninv, so no change to the
library moves it. It mixes what the workloads execute: an integer loop in
plain Python bytecode, and Python driving small complex numpy vector
operations (a few one-sided Jacobi sweeps on a fixed 6 x 6 matrix) and
Fraction arithmetic. On the 2-core host this was tuned on, the numpy and
Fraction part alone slows down more than the workloads when the host is
busy and the integer loop alone less. With their sum, the quartile spread
of operations per second over ten seeds fell from 9-22% to 2-6% on the
four workloads; the rest is code that slows down by a different factor.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 8e-3   # roughly the kernel's time on the host it was tuned on
SAMPLES = 2          # kernel runs per sample; the fastest counts

_MATRIX = (np.random.default_rng(0).standard_normal((6, 6))
           + 1j * np.random.default_rng(1).standard_normal((6, 6)))


def _kernel() -> Fraction:
    total = 0
    for i in range(60000):
        total += i * i
    a = _MATRIX.copy()
    for _ in range(8):
        for i in range(5):
            for j in range(i + 1, 6):
                ci, cj = a[:, i], a[:, j]
                app = float(np.vdot(ci, ci).real)
                aqq = float(np.vdot(cj, cj).real)
                apq = complex(np.vdot(ci, cj))
                if abs(apq) < 1e-300:
                    continue
                tau = (aqq - app) / (2.0 * abs(apq))
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                cj_ph = cj * np.conj(apq / abs(apq))
                a[:, i], a[:, j] = c * ci - s * cj_ph, s * ci + c * cj_ph
    f = Fraction(0)
    for k in range(1, 120):
        f += Fraction(k, k + 1) * Fraction(k + 2, 3)
    return f


def sample() -> float:
    """Seconds the kernel takes now (fastest of SAMPLES runs)."""
    best = float("inf")
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def to_reference(times: list[float], samples: list[float]) -> list[float]:
    """Scale every time by REFERENCE_S over the time-weighted mean sample.

    samples[i] was taken right after times[i]. One factor for the whole
    run: single samples are too noisy to correct single operations, while
    the weighted mean follows the host's speed over the run.
    """
    mean = sum(t * s for t, s in zip(times, samples)) / sum(times)
    return [t * REFERENCE_S / mean for t in times]
