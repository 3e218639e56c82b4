"""A fixed reference computation that gauges the machine's current speed.

On a shared host the speed of one core drifts by up to 2x, and it moves
within seconds, also during one long CLI call.  While a pass runs, an
interval timer interrupts it every SAMPLE_EVERY_S and times one chunk of a
fixed computation in the signal handler.  The pass's wall time, less the
time spent in chunks, is rescaled to a reference speed:

    time at reference speed = wall time * CHUNK_REFERENCE_S / mean chunk time

The computation mixes what qlie spends its time on (tuple keys, dict
updates, Fraction arithmetic).  It runs with the garbage collector off, so
the size of the heap a pass leaves behind does not change its speed.  It
does not touch qlie, so a change to the program cannot move it.  Sampling
uses a signal, not a thread or a process, so it runs on the core the pass
runs on.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# chunk time that defines the reference speed; about what one chunk takes on
# a fast core of the machine the benchmark was built on
CHUNK_REFERENCE_S = 0.0048
SAMPLE_EVERY_S = 0.1
# chunks per calibration of a pass that is not sampled (the traced one)
CALIBRATION_CHUNKS = 30


def chunk_seconds() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table: dict[tuple[int, int, int], Fraction] = {}
        acc = Fraction(0)
        for i in range(800):
            key = (i % 97, i % 13, i % 7)
            value = Fraction(i % 11 + 1, i % 7 + 1)
            acc += value * value
            table[key] = table.get(key, 0) + value
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def at_reference(wall: float, chunk_s: float) -> float:
    """`wall`, measured while a chunk took `chunk_s`, at reference speed."""
    return wall * CHUNK_REFERENCE_S / chunk_s


def calibration_seconds() -> float:
    """Mean chunk time over CALIBRATION_CHUNKS chunks run back to back."""
    return statistics.fmean(chunk_seconds() for _ in range(CALIBRATION_CHUNKS))


class SpeedSampler:
    """Chunk times sampled while the `with` block runs.

    One chunk runs on entry, one every SAMPLE_EVERY_S of wall time and one on
    exit.  `sampled_s` is the time spent in chunks so far; a caller timing a
    call inside the block subtracts its growth from the call's wall time.
    """

    def __init__(self) -> None:
        self.chunks: list[float] = []
        self.sampled_s = 0.0
        self._handler = None

    def _sample(self, signum=None, frame=None) -> None:
        seconds = chunk_seconds()
        self.chunks.append(seconds)
        self.sampled_s += seconds

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self._sample()

    @property
    def chunk_s(self) -> float:
        return statistics.fmean(self.chunks)


# Set-up times are gauged differently.  Each set-up probe is its own process,
# so it cannot be sampled; the parent's calibration runs on whichever core it
# is given and tracks process start-up poorly.  Each probe is instead paired
# with baseline starts of the worker that stop before importing qlie
# (interpreter, site and the benchmark's own modules):
#
#     set-up time at reference speed = probe time * BASELINE_REFERENCE_S / baseline time
#
# BASELINE_REFERENCE_S is about what a baseline start takes on the machine the
# benchmark was built on.  A change to qlie cannot move the baseline.
BASELINE_REFERENCE_S = 0.08
