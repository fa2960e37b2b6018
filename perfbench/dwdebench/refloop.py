"""The reference loop: a fixed unit of work that times the host, not dwde.

On a shared host the same code runs up to about 1.5 times slower for
seconds to minutes at a time.  On the 2-vCPU VM this benchmark was
tuned on, this loop read anywhere from 18 to 29 ms, and request
latencies moved with it: over 36 s windows of one oracle-mix stream the
median latency had a quartile spread of 0.21 of its median in seconds
and 0.05 in reference-loop units.  So the timed loop runs this loop
right after each request and divides the request's latency by it.  The
result, in "refloop" units, keeps a change in dwde and drops most of a
change in the host's speed.

The loop is pure Python over small integers: it allocates nothing the
cyclic garbage collector tracks, so the state of dwde's heap cannot
change its time.  Do not change it; every refloop figure is relative
to it.
"""

from __future__ import annotations

import statistics
from time import perf_counter

ITERATIONS = 60_000
# about one sample per this much request latency, and at least one
SAMPLE_EVERY_S = 0.15


def time_once() -> float:
    t0 = perf_counter()
    s = 0
    for i in range(ITERATIONS):
        s += i * i
    return perf_counter() - t0


def time_after(latency_s: float) -> float:
    """Median reference-loop time, sampled right after a request of latency_s."""
    n = max(1, round(latency_s / SAMPLE_EVERY_S))
    return statistics.median(time_once() for _ in range(n))
