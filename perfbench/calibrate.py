"""Reference loop that measures how fast this CPU runs Python right now.

On a shared host the same process can take 30 % longer from one minute to
the next, and CPU time moves with wall time, so the cause is a slower CPU,
not waiting.  run.py times this fixed loop on the same CPU just before and
just after every workload process and rescales the process's wall time to
the speed at which the loop takes REFERENCE_S (`scale_to_reference`).  The
loop mixes the operations mtfan spends its time in: row reduction over F_p
on lists of ints, Fraction sums and hashing tuples into a set.  It never
imports mtfan, so no change to the package can move it.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

# median loop time on a 2.1 GHz Xeon vCPU; sets the scale of the results
REFERENCE_S = 0.185

# A 0.18 s loop is itself noisy, so dividing by it over-corrects: regressing
# log(process time) on log(loop time) gave slopes 0.60-0.72 on three
# workloads, and exponents 0.65-0.8 minimised the spread of scaled times.
SCALE_EXPONENT = 0.7


def _reduce(rows, p):
    r = 0
    for c in range(len(rows[0])):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        r += 1
    return tuple(tuple(row) for row in rows)


def scale_to_reference(wall_s, loop_times):
    """wall_s rescaled to the reference speed, from loops run around it."""
    speed = REFERENCE_S / (sum(loop_times) / len(loop_times))
    return wall_s * speed**SCALE_EXPONENT


def reference_loop(reps=600):
    """Seconds taken by a fixed amount of pure-Python work."""
    rng = random.Random(1)
    seen = set()
    total = Fraction(0)  # kept live so the loop's results are consumed
    start = time.perf_counter()
    for _ in range(reps):
        rows = [[rng.randrange(3) for _ in range(12)] for _ in range(10)]
        seen.add(_reduce(rows, 3))
        total += sum(Fraction(a, a + 1) for a in range(40))
    return time.perf_counter() - start
