"""Contention correction: a fixed reference kernel timed between tasks.

A core of a machine shared with other work switches between running at
full speed and running about 1.8 times slower, many times a millisecond,
while the process keeps the core (its CPU time follows wall time).  The
share of slow time drifts over seconds and minutes, so raw latencies
from two runs of the same code differ by up to a quarter.

So each run also times a fixed pure-Python kernel at regular intervals
between tasks.  The kernel's mean time over the run, divided by its time
on an uncontended core, is the run's slowdown; every end-to-end time is
divided by it, so times read as on an uncontended core.  Samples longer
than three times the median (an interrupt, not a slow core) are left out
of the mean.  (Correcting each task by the samples nearest it instead
made the 99th percentile less steady: a few dozen samples are too noisy
a measure of one task's slowdown.)
"""

from __future__ import annotations

import array
import statistics
from time import perf_counter_ns

# The kernel's time on an uncontended core of an Intel Xeon (2 vCPUs, Python 3.11).
REFERENCE_NS = 53_000
PROBE_EVERY_NS = 5_000_000

_WORD = "".join("abAB"[(7 * i * i + i) % 11 % 4] for i in range(600))  # reduces to 382 letters


def kernel() -> int:
    """Fixed work of the library's kind: a letter-by-letter free reduction.

    Interpreted loops like this one are where ranktwo spends its time;
    a kernel of C string routines tracked the workloads' slowdown less
    closely.
    """
    out: list[str] = []
    for ch in _WORD:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return len(out)


class Pace:
    """Kernel timings taken at most once per PROBE_EVERY_NS."""

    def __init__(self) -> None:
        self.samples = array.array("q")
        self._next = 0

    def probe(self) -> None:
        start = perf_counter_ns()
        kernel()
        self.samples.append(perf_counter_ns() - start)

    def poll(self) -> None:
        now = perf_counter_ns()
        if now >= self._next:
            self.probe()
            self._next = now + PROBE_EVERY_NS

    def slowdown(self) -> float:
        """Mean kernel time over REFERENCE_NS, without the interrupted samples."""
        cut = 3 * statistics.median(self.samples)
        kept = [ns for ns in self.samples if ns <= cut]
        return sum(kept) / len(kept) / REFERENCE_NS
