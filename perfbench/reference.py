"""Host-speed references: fixed slices of work timed between ops.

The benchmark runs on shared hosts whose speed drifts by 1.5x and more for
seconds to minutes at a time, with process time equal to wall time.  A
wall-clock op latency then measures the host as much as labmech.  So the
benchmark times a fixed slice of work after every op, and scales each op's
wall time by the slice's ``nominal_s`` over the median slice time around
that op.  A reported time is thus the op's wall time on a host that runs
the slice in ``nominal_s``.  A slice does not use labmech, so a change to
labmech moves a reported time exactly as it moves wall time; a change in
host speed moves both the op and the slice, and cancels.

A slow host does not slow all code alike, so each workload takes the slice
whose slowdown followed its op's most closely.  On the 2-core VM the
benchmark was tuned on, ops ran up to 1.8x slower in slow stretches.  The
ratio of op time to slice time, in groups of 24 to 40 ops, then stayed:

* ``INTERPRETER``, a plain Python loop that stays in the first-level
  caches: within 5% for thread engagement and 3% for the icosphere-4
  rollout, where ``DISPATCH`` slowed 10% to 15% more than the op;
* ``DISPATCH``, numpy calls on a 188-row array (the shape of ``clip_volume``
  on the 48-segment cylinder): within 5% for the half-full cylinder
  rollout and 8% for the replay, where the Python loop missed by 15% and
  10%.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Slices on each side of an op that set its host speed.
HALF_WINDOW = 16


@dataclass(frozen=True)
class Slice:
    """A fixed slice of work, and the wall seconds it took on the tuning VM
    (x86-64, Python 3.11, numpy with one BLAS thread) at its usual speed."""

    work: Callable[[], float]
    nominal_s: float

    def timed(self) -> float:
        """Wall seconds of one slice."""
        t0 = time.perf_counter()
        self.work()
        return time.perf_counter() - t0

    def scale(self, slices) -> float:
        """``nominal_s`` over the median of ``slices``: the factor that turns
        a wall time measured among them into one at nominal host speed."""
        return self.nominal_s / statistics.median(slices)

    def local_scale(self, slices: list) -> list:
        """For each position ``i``, the scale of the slices within
        ``HALF_WINDOW`` positions of ``i``."""
        return [self.scale(slices[max(0, i - HALF_WINDOW):i + HALF_WINDOW + 1])
                for i in range(len(slices))]


def _interpreter() -> float:
    x = 0.0
    for i in range(5000):
        x += (i % 7) * 0.5 - x * 1e-3
    return x


_rng = np.random.default_rng(20250514)
_ROWS = _rng.random((188, 3))
_NORMALS = _rng.normal(size=(16, 3))


def _dispatch() -> float:
    acc = 0.0
    for normal in _NORMALS:
        d = _ROWS @ normal - 0.1
        acc += float(np.where(d > 0.0, d, 0.0).sum())
        acc += float(np.cross(_ROWS[:-1], _ROWS[1:]).sum())
    return acc


INTERPRETER = Slice(_interpreter, 0.5e-3)
DISPATCH = Slice(_dispatch, 0.6e-3)
