"""The host's speed at the moment, from a fixed pure-Python reference.

A shared cloud host runs the same op at speeds up to about 2x apart as
its neighbours come and go, for seconds to minutes at a time; the
thread's CPU time slows with its wall time, so the slowdown is
contention for the core and its caches, not only waiting for a CPU.
The benchmark therefore times this reference next to every op (before
and after it; between episodes when serving; around every set-up) and
reports end-to-end host times scaled to a host that runs the reference
in ``REFERENCE_S``: ``normalized = measured * REFERENCE_S / reference``.
The host clock's figures stay in each result file
(``end_to_end_measured``).

The reference is the benchmark's own code, so a change to the program
moves the op and not the reference.  It is interpreter-bound work (a
k-way ``heapq`` merge and a dict tally over its output) because the
program's ops are too.  On a 2-vCPU Xeon cloud host with a toggling
two-process neighbour load, the op-to-reference ratio of a model sort
and of a simulated sort each stayed within about 9% while their wall
times moved 50-70%; a numpy sort as the reference tracked them two to
four times worse.  Over five seeds under that load, the spread
(interquartile range over median) of ``sort_model``'s median job time
fell from 0.2-0.8 measured to about 0.05 normalized.
"""

from __future__ import annotations

import heapq
import random
import time

#: Seconds the reference takes on an uncontended 2-vCPU Xeon cloud host
#: (its median there); normalized times read as seconds on such a host.
REFERENCE_S = 0.006
_LISTS, _LIST_LENGTH, _REPEATS = 16, 1000, 5


class HostSpeed:
    """Times the reference; a sample is the mean of ``_REPEATS`` runs."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._lists = [sorted(rng.randrange(1 << 30) for _ in range(_LIST_LENGTH))
                       for _ in range(_LISTS)]
        self.samples: list[float] = []
        self._run()  # warm-up, not a sample

    def _reference(self) -> int:
        tally: dict[int, int] = {}
        for index, key in enumerate(heapq.merge(*self._lists)):
            tally[key & 1023] = tally.get(key & 1023, 0) + index
        return len(tally)

    def _run(self) -> float:
        begin = time.perf_counter()
        for _ in range(_REPEATS):
            self._reference()
        return (time.perf_counter() - begin) / _REPEATS

    def sample(self) -> float:
        """Seconds of one reference run (a sample), also kept in ``samples``."""
        seconds = self._run()
        self.samples.append(seconds)
        return seconds


def scale(before: float, after: float) -> float:
    """Factor from measured to normalized seconds for work timed between
    two reference samples."""
    return REFERENCE_S / ((before + after) / 2.0)
