"""Host-normalised timing.

The benchmark runs on a few cores of a shared host, whose speed drifts by
tens of percent within minutes while other tenants load it: one cell's
CPU time went from 1.67 s to 2.6 s within ten minutes, with nothing
changed.  A run of half a minute cannot average that out, so every timed op
is bracketed by a short fixed loop, the *yardstick*, which is also sampled
inside it, and the op's wall time is scaled by :data:`NOMINAL_S` over the
mean yardstick time around and inside it.  The result is the op's time on a
host where the yardstick takes :data:`NOMINAL_S`.

The yardstick and :data:`NOMINAL_S` are fixed in the benchmark, not in the
program, so a change to the program moves a normalised time exactly as it
would move the wall time on a steady host.  The raw wall times and the
yardstick samples are reported beside the normalised figures.
"""

from __future__ import annotations

import contextlib
import os
import signal
import statistics
import time
from typing import Iterator, List

#: Iterations of the yardstick loop: about 25 ms on a 2-vCPU Xeon VM.
YARDSTICK_LOOPS = 200_000
#: The yardstick's time on the nominal host the normalised seconds refer to.
NOMINAL_S = 0.025
#: Yardstick samples taken after an op per second of its wall time, at
#: least one and at most :data:`MAX_SAMPLES`: the host's speed changes
#: within a second, so a long op needs more samples to estimate it.
SAMPLES_PER_S = 4.0
MAX_SAMPLES = 8
#: Wall seconds between the yardstick samples taken inside an op.
INTERVAL_S = 0.25


def pin_to_one_cpu() -> None:
    """Keep this process, and the children it starts, on one CPU.

    The CPUs of a shared host are loaded by different neighbours, so the
    yardstick only speaks for the CPU it ran on: the ops must run there too.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def yardstick() -> float:
    """Wall seconds of the fixed loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(YARDSTICK_LOOPS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


@contextlib.contextmanager
def sampling(inside: List[float]) -> Iterator[None]:
    """Take a yardstick sample every :data:`INTERVAL_S` of the body of the
    ``with`` block, from a timer signal, into ``inside``."""

    def sample(_signum, _frame) -> None:
        inside.append(yardstick())

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Op:
    """One timed op: ``wall`` is its wall time, without the yardstick
    samples taken inside it (``inside``); ``seconds`` its normalised time."""

    wall = 0.0
    seconds = 0.0

    def __init__(self) -> None:
        self.inside: List[float] = []

    @property
    def factor(self) -> float:
        """Normalised seconds per wall second, over this op."""
        return self.seconds / self.wall if self.wall else 0.0


class HostClock:
    """Normalises the wall time of consecutive ops.

    The yardstick samples taken after one op also open the next one.
    """

    def __init__(self) -> None:
        self.samples: List[float] = [yardstick()]
        self.last = self.samples[0]
        self.wall_s = 0.0

    @contextlib.contextmanager
    def op(self, sample_inside: bool = True) -> Iterator[Op]:
        """Time the body of the ``with`` block as one op.

        With ``sample_inside``, yardstick samples are taken inside the body
        (:func:`sampling`) and their time is left out of its wall time, so
        an op of several seconds is normalised by the host's speed over its
        whole length, not only at its ends.  An op that waits for a child
        process, or runs under the layer tracer, must not sample inside:
        the sample would take the child's CPU, or count in a layer's self
        time.  A child can sample inside itself instead and hand its
        samples to ``Op.inside`` before the block ends.
        """
        result = Op()
        start = time.perf_counter()
        try:
            with sampling(result.inside) if sample_inside else contextlib.nullcontext():
                yield result
        finally:
            wall = time.perf_counter() - start - sum(result.inside)
            count = max(1, min(MAX_SAMPLES, round(wall * SAMPLES_PER_S)))
            after = [yardstick() for _ in range(count)]
            self.samples.extend(result.inside + after)
            before, self.last = self.last, statistics.fmean(after)
            self.wall_s += wall
            result.wall = wall
            result.seconds = wall * NOMINAL_S / statistics.fmean(
                [before, *result.inside, self.last])

    def median_s(self) -> float:
        """Median yardstick time: when it moves, the host moved."""
        return statistics.median(self.samples)
