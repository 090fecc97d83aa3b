"""A speed gauge for the host: a fixed pure-Python kernel timed between queries.

On a small shared VM the speed of a core drifts by up to 1.6x, in phases
that last from seconds to more than a minute (CPU time tracks wall time, so
it is not preemption).  A 20 s run can sit wholly in a slow or a fast phase,
and that, not the program, then decides its timings.  The gauge times the
same kernel every ``EVERY_S`` of queries, outside the timed calls, and a
query's time is scaled by ``REFERENCE_S`` over the mean of the readings just
before and just after it: the time the query would take on a core that runs
the kernel in ``REFERENCE_S``.  The kernel does the kind of work the program
does - small-integer arithmetic, floor division, dict stores and Fraction
sums that grow big integers - and nothing in ``src/`` runs in it, so a
change to the program never moves the gauge.  A reading tells the speed of
the CPU it ran on only, so ``run.py`` keeps a run on one CPU.
"""

from __future__ import annotations

import time
from fractions import Fraction

# About the kernel's time in a fast phase of the 2-vCPU Xeon VM the bounds
# were set on; any fixed value would do, it only sets the scale.
REFERENCE_S = 0.007
EVERY_S = 0.25            # query time between two readings


def kernel() -> tuple:
    total, table = 0, {}
    for i in range(20_000):
        total += -(-(i * 2654435761) // 1000003)
        table[i & 1023] = total
    harmonic = Fraction(0)
    for i in range(1, 200):
        harmonic += Fraction(1, i)
    return total, harmonic


class SpeedGauge:
    def __init__(self, every: float = EVERY_S):
        self.every = every
        self.readings = []        # kernel seconds, in the order taken
        self.marks = []           # per query, the index of the last reading before it
        self._last = float("-inf")

    def read(self) -> float:
        start = time.perf_counter()
        kernel()
        self._last = time.perf_counter()
        self.readings.append(self._last - start)
        return self.readings[-1]

    def before_query(self):
        """Take a reading when one is due; call right before each timed query."""
        if time.perf_counter() - self._last >= self.every:
            self.read()
        self.marks.append(len(self.readings) - 1)

    def scales(self) -> list:
        """Takes a closing reading; then, per query in the order they ran,
        ``REFERENCE_S`` over the mean of the readings around it."""
        self.read()
        return [2 * REFERENCE_S / (self.readings[i] + self.readings[i + 1]) for i in self.marks]
