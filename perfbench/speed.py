"""Core-speed probe: express measured times on a reference core.

The machines this benchmark runs on share physical cores with other
tenants. For seconds to minutes at a time the same Python + small-matrix
numpy work runs up to twice as slow, and the slow spells are longer than
one op, so neither medians nor best-of-repeats inside one run remove
them. The probe runs a fixed kernel of the same kind of work (scalar
random draws, 1 x 1 matrix products, float arithmetic) in a short burst
before every op. An op's time is then scaled by

    REFERENCE_S / (mean kernel time of the bursts just before and after it)

which reads as "seconds on a core that runs the kernel in REFERENCE_S".
REFERENCE_S is close to the kernel's time on an unloaded core of the
shared 2-core Xeon VM the benchmark was tuned on, so scaled times are near
what that core measures when nothing else runs. The detail line keeps
the run's mean scale as ``speed_factor``.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REFERENCE_S = 1.0e-3
BURST = 7

_RNG = np.random.default_rng(0)
_V = np.ones(1)
_K = np.ones((1, 1))


def kernel() -> float:
    """One calibration sample of fixed work: scalar draws, 1 x 1 products, float arithmetic.

    This mix tracked both the simulator's and the LMI solver's slow spells
    more closely than a kernel built on ``eigh``.
    """
    acc = 0.0
    for _ in range(400):
        theta = int(_RNG.random() >= 0.2)
        x = _K @ _V
        acc += theta * float(x[0]) + _RNG.standard_normal()
    return acc


class SpeedProbe:
    """Bursts of the kernel, timestamped, and the scale factor for any interval."""

    def __init__(self) -> None:
        self.times: list[float] = []  # burst mid-points
        self.values: list[float] = []  # burst median kernel seconds

    def sample(self) -> None:
        runs = []
        start = time.perf_counter()
        for _ in range(BURST):
            t = time.perf_counter()
            kernel()
            runs.append(time.perf_counter() - t)
        self.times.append(0.5 * (start + time.perf_counter()))
        self.values.append(statistics.median(runs))

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the bursts from the last one before ``start`` to the first after ``end``.

        1.0 when the probe never ran.
        """
        if not self.values:
            return 1.0
        lo = max(bisect.bisect_right(self.times, start) - 1, 0)
        hi = bisect.bisect_left(self.times, end) + 1
        return REFERENCE_S / statistics.fmean(self.values[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.factor(start, end)
