"""Host speed, measured next to every timed query.

The benchmark runs on a few cores of a shared host whose speed swings by up
to a factor of two for seconds to minutes at a time, as neighbours come and
go.  A per-run minimum or median cannot remove a swing that lasts the whole
run, so every timing is scaled to a fixed reference speed instead.

Before each query (and after the last one) the benchmark times ``probe``: a
fixed stdlib-only routine of the kind of work the library does (tuple keys,
dict and set updates, ``Fraction`` arithmetic, string building).  A query's
speed factor is ``REFERENCE_S`` over the median probe time in a window of
probes around it, and its scaled time is its measured time times that
factor: the seconds it would take on a host where the probe takes
``REFERENCE_S``.  The probe is benchmark code; no change to the library can
change it.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# about the probe's time on one unloaded 2.1 GHz core (Python 3.11), so
# scaled times read close to the wall time of a quiet host
REFERENCE_S = 0.0002

WINDOW = 3  # probes on each side of a query that set its speed


def _reference_work():
    counts = {}
    pairs = set()
    acc = Fraction(0)
    parts = []
    for i in range(200):
        key = (i % 17, i % 13, f"v{i % 29}")
        counts[key] = counts.get(key, 0) + 1
        pairs.add(key[:2])
        if i % 8 == 0:
            acc += Fraction(i + 1, 7 + i % 5)
            parts.append(str(acc))
    return len(counts) + len(pairs) + len(" ".join(parts))


def probe():
    """Seconds one run of the reference routine takes now, with the
    collector held off so a collection the library's heap is due for does
    not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def factors(probes):
    """Speed factors of the ``len(probes) - 1`` timings that lie between
    consecutive probes: ``REFERENCE_S`` over the median of the ``2 * WINDOW``
    nearest probes."""
    return [REFERENCE_S / statistics.median(probes[max(0, i - WINDOW + 1): i + WINDOW + 1])
            for i in range(len(probes) - 1)]
