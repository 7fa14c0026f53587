"""Operation timing normalised by a reference kernel timed alongside it.

On the 2-core box this benchmark was written on, identical work ran up to
twice as slow for stretches of seconds to minutes, with process CPU time
slowing as much as wall time (so not throttling; presumably a busy
neighbour on the same physical core), and raw times of one run differed
from the next by up to a third. The meter times a fixed numpy kernel that
does not touch signolearn between operations, at least every PROBE_EVERY_S
seconds, and scales each operation's measured times by REF_NOMINAL_S over
the median of the probes taken around it. The result is the operation's
time at the speed where the kernel takes REF_NOMINAL_S, about its fastest
time on that box; the raw times are kept next to it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

REF_NOMINAL_S = 0.0055
REF_REPS = 1500
WARM_REPS = 100
PROBE_EVERY_S = 0.25
PROBE_MARGIN_S = 0.3  # probes this close to an operation calibrate it

_A = np.linspace(0.5, 2.0, 600).reshape(200, 3)
_B = np.linspace(-1.0, 1.0, 9).reshape(3, 3)


def reference_kernel(reps: int = REF_REPS) -> float:
    """Small matmuls and reductions driven from Python, like the workloads."""
    acc = 0.0
    for _ in range(reps):
        acc += float(np.exp(_A @ _B).sum())
    return acc


class Op(NamedTuple):
    kind: str
    start: float  # perf_counter() at the start
    wall_s: float  # as measured
    cpu_s: float  # process CPU time, as measured


class Meter:
    """Times operations and, between them, the reference kernel."""

    def __init__(self):
        self.ops: list[Op] = []
        self._probe_at: list[float] = []  # midpoints, increasing
        self._probe_s: list[float] = []
        reference_kernel()  # first call pays numpy's warm-up
        self.probe()

    def probe(self) -> None:
        reference_kernel(WARM_REPS)  # untimed: refills caches the last operation evicted
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self._probe_at.append(0.5 * (t0 + t1))
        self._probe_s.append(t1 - t0)

    def tick(self) -> None:
        """Probe when one is due; call between operations only."""
        if time.perf_counter() - self._probe_at[-1] >= PROBE_EVERY_S:
            self.probe()

    @contextmanager
    def op(self, kind: str):
        """Time the block as one operation of `kind`, then maybe probe."""
        self.tick()
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            yield
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            self.ops.append(Op(kind, t0, wall, cpu))
            self.tick()

    def scale(self, op: Op) -> float:
        """Factor from `op`'s measured times to reference-speed times."""
        lo = bisect.bisect_left(self._probe_at, op.start - PROBE_MARGIN_S)
        hi = bisect.bisect_right(self._probe_at, op.start + op.wall_s + PROBE_MARGIN_S)
        near = self._probe_s[lo:hi] or self._probe_s[max(lo - 1, 0) : lo + 1]
        return REF_NOMINAL_S / statistics.median(near)

    def total(self, ops: list[Op], field: str = "wall_s", ref: bool = True) -> float:
        """Sum of `field` over `ops`, at reference speed unless `ref` is false."""
        return sum(getattr(op, field) * (self.scale(op) if ref else 1.0) for op in ops)

    def each(self, ops: list[Op], ref: bool = True) -> list[float]:
        return [op.wall_s * (self.scale(op) if ref else 1.0) for op in ops]

    def speed(self) -> float:
        """Median reference speed over the run: 1 at the nominal speed."""
        return REF_NOMINAL_S / statistics.median(self._probe_s)
