"""A fixed piece of work owned by the benchmark: a gauge of the machine's speed.

The host this benchmark was written on switches between a fast and a slow
state about 1.8x apart, for seconds to minutes at a time.  A run's op
latencies follow the share of the run spent in each state, so two runs of
the same code can differ by more than any useful regression bound.

The probe does the two kinds of work the ops do, in the same process, and
does not depend on the package: ``Fraction`` arithmetic and small complex
``eigh`` solves.  Among the candidates tried (an integer loop, ``Fraction``
arithmetic, dict and tuple allocation, a large array copy, ``eigh``), these
two slowed most like the ops do; allocation also set off garbage
collections that landed in the ops.

The run times the probe between ops, and divides each op's latency by the
mean time of the probes just before and just after it.  The probe slows
together with the ops when the host slows, so the quotient follows the
program, not the host.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# The probe time, in ms, that calibrated values are scaled to.  It is the
# probe's time in the fast state of a 2-vCPU VM (Intel Xeon at 2.0 GHz,
# Python 3.11, numpy 2.4), so calibrated values there read like wall-clock
# values in that state.
REFERENCE_MS = 3.0

_rng = np.random.default_rng(0)
_h = _rng.normal(size=(16, 16)) + 1j * _rng.normal(size=(16, 16))
_HERMITIAN = _h + _h.conj().T


def _work() -> None:
    s = Fraction(0)
    for k in range(1, 600):
        s += Fraction(k % 7 + 1, k % 11 + 1) * Fraction(3, k % 5 + 2)
    for _ in range(3):
        np.linalg.eigh(_HERMITIAN)


def probe_s() -> float:
    """Seconds one probe takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def probe_ms(reps: int) -> float:
    """Median of ``reps`` probes, in ms."""
    return statistics.median(probe_s() for _ in range(reps)) * 1e3


def calibrated(seconds: float, local_probe_s: float) -> float:
    """``seconds`` rescaled to the speed at which the probe takes REFERENCE_MS."""
    return seconds * (REFERENCE_MS / 1e3) / local_probe_s
