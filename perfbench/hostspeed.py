"""Host-speed probe: wall times expressed at a fixed reference speed.

The hosts this benchmark runs on are shared: a 2-CPU x86_64 VM measured
while writing it ran in speed states up to 2x apart, each lasting from
seconds to minutes.  That moved the raw wall time of a warm ``gemm`` by
10% within a run and by 40% between runs, more than any bound a
regression gate can use, and no amount of repetition within a run removes
it when a whole run falls in one state.

So each timed operation is bracketed by bursts of a short fixed probe, run
between operations outside the timed region, and its wall time is scaled
by ``REFERENCE_S / probe``, with ``probe`` the median of the bursts right
before and right after it: the time the operation would have taken on a
host where the probe takes :data:`REFERENCE_S`.  The probe mixes what the
simulator spends its time on -- interpreted Python, small NumPy calls and
a stream over a buffer larger than L2 -- because a pure-Python loop alone
missed the slowdowns that come from shared caches: over 142 samples of
the warm workload, the scaled median varied by 2.3% (coefficient of
variation) with this probe, 6.3% with the loop alone and 10.7% unscaled.
Single probes taken back to back vary by 14-19% themselves, which is why
an operation is scaled by six of them, all taken next to it: a probe
taken an operation earlier would let a change of host state during a
multi-second operation through.  The probe does not see every kind of
contention: over 24 repeats of a 1 s fixed-budget tune, its bursts
correlated with the tune's wall time by only 0.3-0.45 and scaling did not
lower the tune's 12% variation.
The probe is the same code on every commit and does not touch the
program, so the scale compares like with like; the raw times are printed
beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: A unit, not a measurement: about the probe's duration on the 2-CPU host
#: above in its usual state, so that scaled times read close to raw ones.
REFERENCE_S = 0.0025
#: Probes per burst.
BURST = 3


class Probe:
    """The probe and the buffers it works on (4 MB, allocated once)."""

    def __init__(self) -> None:
        self._stream = np.ones(1 << 20, dtype=np.float32)
        self._small = np.ones(64)

    def __call__(self) -> float:
        """Seconds the fixed probe work takes, now."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        for _ in range(3):
            float(self._stream.sum())
        for _ in range(100):
            np.add(self._small, self._small)
        return time.perf_counter() - t0

    def burst(self) -> list[float]:
        """:data:`BURST` probes back to back."""
        return [self() for _ in range(BURST)]


def scaled(wall_s: list[float], bursts: list[list[float]]) -> list[float]:
    """Scale operation ``i``'s wall time by the median of the probes in the
    bursts taken right before and right after it (``bursts`` has one more
    entry than ``wall_s``: burst ``i + 1`` follows operation ``i``)."""
    return [
        wall * REFERENCE_S / statistics.median(bursts[i] + bursts[i + 1])
        for i, wall in enumerate(wall_s)
    ]
