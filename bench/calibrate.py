"""Host-speed calibration of measured times.

On a shared machine the speed of one core can shift by a third within a few
seconds, as other tenants come and go; that is far more than the changes the
benchmark has to resolve.  So a fixed reference task runs between timed
calls, and each time is reported at the nominal speed at which the task takes
REF_NOMINAL_S:

    calibrated time = measured time * REF_NOMINAL_S / reference time

where the reference time of a call is the slower of the runs just before and
just after it: a call that overlaps the start or end of a slow spell is
slowed by it, and the faster run would under-correct it.

The task does the program's kinds of work, fraction-free elimination over
growing big integers and exact-fraction arithmetic, so both slow down alike.
The raw times are printed next to the calibrated ones.
"""

import random
import statistics
from fractions import Fraction
from time import perf_counter

REF_NOMINAL_S = 0.001

_rng = random.Random(20240517)
_MATRIX = [[_rng.randint(-99, 99) for _ in range(20)] for _ in range(20)]
_FRACTIONS = [Fraction(_rng.randint(-50, 50), _rng.randint(1, 30)) for _ in range(100)]


def reference_task() -> float:
    """Seconds taken by one run of the fixed reference task."""
    t0 = perf_counter()
    a = [row[:] for row in _MATRIX]
    n = len(a)
    prev = 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if a[i][k]), k)
        a[k], a[pivot] = a[pivot], a[k]
        rk = a[k]
        pk = rk[k] or 1
        for i in range(k + 1, n):
            ri = a[i]
            f = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pk - f * rk[j]) // prev
            ri[k] = 0
        prev = pk
    total = Fraction(0)
    for x, y in zip(_FRACTIONS, _FRACTIONS[1:]):
        total += x * y
    return perf_counter() - t0


def speed_factor(samples) -> float:
    """REF_NOMINAL_S over the median of ``samples`` reference times."""
    return REF_NOMINAL_S / statistics.median(samples)
