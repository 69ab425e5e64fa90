"""Machine-speed probe for normalising the benchmark's times.

On a shared two-vCPU virtual machine (Intel Xeon, Python 3.11) the same job
runs up to 1.8x slower for stretches of seconds to minutes, with no steal
time to show for it: the run's core is shared with work outside it.  A
run's raw times therefore say as much about the neighbours as about the
code.  The probe is a fixed exact computation in pure Python (Fraction
elimination) that belongs to the benchmark and never changes.  It runs on
the jobs' core before and after each job, and every SAMPLE_PERIOD_S during a
job, while the job is stopped (so the two never compete for the core and the
pause is left out of the job's time).

Each job's time is scaled by how much slower than PROBE_REFERENCE_S the
median of its probe readings ran.  The scaled figures are "seconds at
reference speed"; the figures as timed and every job's probe reading are
kept in the run's record.  Not every job slows down as much as the probe:
on that machine the Phi-heavy regularity jobs and process start-up tracked
it closely, while the memory-heavy graded construction slowed by about a
third as much, so its scaled times are the least steady.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

PROBE_REFERENCE_S = 0.04  # probe time at that machine's fast speed
SAMPLE_PERIOD_S = 0.5


def probe_once() -> float:
    """Seconds to reduce a fixed 22x22 integer matrix over the rationals."""
    rng = random.Random(1)
    n = 22
    a = [[Fraction(rng.randint(-9, 9)) for _ in range(n)] for _ in range(n)]
    start = perf_counter()
    for c in range(n):
        p = next(i for i in range(c, n) if a[i][c])
        a[c], a[p] = a[p], a[c]
        piv = a[c][c]
        a[c] = [x / piv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return perf_counter() - start


def reference_seconds(wall_s: float, probe_s: float) -> float:
    """A wall time scaled to the speed at which the probe takes PROBE_REFERENCE_S."""
    return wall_s * PROBE_REFERENCE_S / probe_s
