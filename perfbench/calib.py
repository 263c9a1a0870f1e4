"""Host-speed calibration.

The machines this benchmark runs on drift in speed by +-25% over tens of
seconds (a fixed pure-Python loop, averaged over 5.6 s windows, varied from
11.9 to 17.9 ms per chunk within 90 s), which no amount of averaging inside a
20 s run removes.  So every timing is taken next to a fixed calibration
kernel and scaled to reference speed:

    reference seconds = wall seconds * CAL_REF_S / (kernel seconds nearby)

The kernel is exact rational polynomial arithmetic on ``fractions.Fraction``
(the standard library only, so no change to qonf or its dependencies moves
it); among the kernels tried it tracked the exact workloads' speed best.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# seconds one kernel call takes at reference speed; an arbitrary fixed scale
CAL_REF_S = 0.005

_rng = random.Random(20191101)
_A = [Fraction(_rng.randint(-10**6, 10**6), _rng.randint(1, 10**6)) for _ in range(40)]
_B = [Fraction(_rng.randint(-10**6, 10**6), _rng.randint(1, 10**6)) for _ in range(20)]


def _kernel_once() -> float:
    t = time.perf_counter()
    out = [Fraction(0)] * (len(_A) + len(_B) - 1)
    for i, a in enumerate(_A):
        for j, b in enumerate(_B):
            out[i + j] += a * b
    return time.perf_counter() - t


def kernel_s() -> float:
    """Wall time of the calibration kernel: the median of three runs, which
    tracks the host's speed better than a single run."""
    return sorted(_kernel_once() for _ in range(3))[1]


def factor(samples) -> float:
    """Scale from wall seconds to reference seconds, given nearby kernel times."""
    return CAL_REF_S * len(samples) / sum(samples)
