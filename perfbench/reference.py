"""The host's current speed, measured with a fixed job beside the operations.

The host this benchmark runs on changes speed by tens of percent from one
stretch of seconds to the next.  A run lasts only a few such stretches, so
whole-run figures in wall time spread as much as the host does.
:class:`HostSpeed` times a fixed reference job (an integer loop of about
1 ms that allocates no containers and runs no duomatch code) after every
``EVERY_S`` seconds of operation time.  Each operation's wall time is then
scaled by ``REFERENCE_S / t``, where ``t`` is the median time of the job over
the ``2 * WINDOW + 1`` samples taken nearest to that operation: the time the
operation would take on a host that runs the job in ``REFERENCE_S``.  The
program cannot change the job, so a slower or faster program still shows in
full.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: Reference job time that scaled times are expressed against.
REFERENCE_S = 0.001
#: Operation time between two samples of the reference job.
EVERY_S = 0.05
#: Samples on each side of an operation that its scale is taken from.
WINDOW = 8


def job() -> int:
    s = 0
    for i in range(12000):
        s += i * i % 7
    return s


def sample_seconds() -> float:
    t0 = perf_counter()
    job()
    return perf_counter() - t0


class HostSpeed:
    """Samples of the reference job taken between operations."""

    def __init__(self) -> None:
        self.samples = [sample_seconds() for _ in range(WINDOW)]
        self.owed = 0.0

    def tick(self, op_seconds: float) -> int:
        """Count an operation's time, sample the job when ``EVERY_S`` of it
        has built up, and return the index of the operation's sample (the
        first one taken after it)."""
        index = len(self.samples)
        self.owed += op_seconds
        if self.owed >= EVERY_S:
            self.owed = 0.0
            self.samples.append(sample_seconds())
        return index

    def finish(self) -> list[float]:
        """Scale factors by sample index, once the operations are done."""
        self.samples.extend(sample_seconds() for _ in range(WINDOW + 1))
        s = self.samples
        return [REFERENCE_S / statistics.median(s[max(0, i - WINDOW):i + WINDOW + 1])
                for i in range(len(s))]
