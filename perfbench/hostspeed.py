"""Host-speed probe: a fixed reference loop timed around every timed call.

On a shared virtual machine the same pass of identical work can take 3.8 s
in one minute and 5.8 s in the next, because other tenants load the host.
That drift moves percgame and any other CPU-bound code alike.  The run
therefore times `probe()` right before and right after every call and
reports the call's time scaled to the reference host speed:

    call seconds x REFERENCE_S / (median of the probe slots around the call)

`probe()` runs benchmark code only, never percgame, so a change to percgame
moves the scaled times exactly as it moves the raw ones, while a slower or
faster host moves both the call and the probe.  The raw, unscaled times are
kept in the run record.

The loop spends equal time on the two kinds of work percgame does:
interpreter-bound Python (operator steps on 1x1 to 2x2 matrices, the sweep
and CLI plumbing, the duration loops) and vectorised passes over a few
hundred kilobytes (the large-kappa operator and the oracle's forest
kernels).  These two react differently to a loaded host.  In two 200-second
tests on the reference machine, the equal-time sum was the only variant
tried that narrowed the spread of a kappa=2 solve, a kappa=60 solve and an
oracle chunk in both tests; each part alone left one of them as wide or
wider.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median probe() time on the reference machine of the benchmark (2 vCPUs,
# Intel Xeon, Python 3.11, numpy 2.4).  A constant: changing it rescales every
# reported time, so it must stay the same between the commits compared.
REFERENCE_S = 0.0194

PROBE_SHARE = 0.05   # probing after a call lasts at least this share of it
WINDOW = 6           # probe slots per scaling window

_PY_STEPS = 64_000
_VECTOR_STEPS = 140
_VECTOR = np.linspace(0.0, 1.0, 1 << 15)


def _work() -> float:
    table, acc = {}, 0
    for i in range(_PY_STEPS):
        table[i & 63] = acc
        acc += (i * 7) % 13
    v = _VECTOR
    for _ in range(_VECTOR_STEPS):
        v = np.sqrt(v * 0.999 + 0.001)
    return acc + float(v.sum())


def probe() -> float:
    """Seconds the reference loop takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def slot(after_seconds: float) -> float:
    """Median probe time over at least PROBE_SHARE of `after_seconds`, and
    at least one probe: one probe alone varies by a fifth on a loaded host."""
    times = [probe()]
    while sum(times) < PROBE_SHARE * after_seconds:
        times.append(probe())
    return statistics.median(times)


def scaled(seconds: list, slots: list) -> list:
    """Times of consecutive calls at reference speed.

    `slots[i]` was taken just before call i and `slots[i + 1]` just after
    it.  A call is scaled by the median of the WINDOW slots nearest to it, so
    that one stray slot does not move it.
    """
    if len(slots) != len(seconds) + 1:
        raise ValueError("need one slot before each call and one after the last")
    out = []
    for i, t in enumerate(seconds):
        lo = min(max(0, i + 1 - WINDOW // 2), max(0, len(slots) - WINDOW))
        out.append(t * REFERENCE_S / statistics.median(slots[lo:lo + WINDOW]))
    return out
