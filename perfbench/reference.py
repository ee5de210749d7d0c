"""Reference loop: the machine's speed, sampled next to the measured work.

On a VM that shares its cores with other tenants, the same code runs at two
speeds about 1.7x apart, switching every few tens of milliseconds, and the
share of slow time drifts over minutes.  That drift moved whole runs by a
third.  So the benchmark interleaves a fixed piece of work, exact rational
elimination in the style of the engine but with no engine code, and reports
times as multiples of its mean CPU time around the same child (unit "ref").
A change to the engine moves those ratios; a change of the machine's speed
moves both sides and cancels.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

SHARE = 0.05  # reference time, as a share of the measured time it follows
WINDOW = 32  # fewest samples that a child's scale is the mean of, pass allowing
N = 10


def _eliminate() -> None:
    """Gauss-Jordan elimination of a fixed nonsingular 10x10 rational matrix."""
    m = [[Fraction((i * 7 + j * 3) % 11 - 5 + 13 * (i == j)) for j in range(N)]
         for i in range(N)]
    for c in range(N):
        pivot = m[c][c]
        for r in range(N):
            if r != c and m[r][c]:
                f = m[r][c] / pivot
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]


def sample_ms() -> float:
    """CPU milliseconds of one run of the reference work."""
    start = time.process_time()
    _eliminate()
    _eliminate()
    return (time.process_time() - start) * 1000


class Meter:
    """Reference samples taken in proportion to the time measured."""

    def __init__(self):
        self.samples = []
        self._owed = 0.0  # reference seconds still to run

    def after(self, seconds: float) -> None:
        """Account for `seconds` of measured work: sample once, then until the
        reference has run for SHARE of all measured work so far."""
        self._owed += SHARE * seconds
        while True:
            ms = sample_ms()
            self.samples.append(ms)
            self._owed -= ms / 1000
            if self._owed <= 0:
                return


def scales(samples, bounds) -> list:
    """Mean reference ms around each child of a pass.

    bounds[k + 1] is the number of samples taken once child k had ended
    (bounds[0] = 0).  Child k gets the samples taken just before it, after
    child k - 1, and just after it.  Where those are fewer than WINDOW, the
    window widens by one child on each side until it holds WINDOW samples or
    the whole pass: one sample shows the speed of a moment, and a short
    child's own speed is as random as that.
    """
    last = len(bounds) - 1
    out = []
    for k in range(last):
        lo, hi = max(k - 1, 0), k + 1
        while bounds[hi] - bounds[lo] < WINDOW and (lo > 0 or hi < last):
            lo, hi = max(lo - 1, 0), min(hi + 1, last)
        out.append(statistics.fmean(samples[bounds[lo]:bounds[hi]]))
    return out
