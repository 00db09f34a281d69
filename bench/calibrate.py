"""Machine-speed reference for calibrated end-to-end timings.

On a shared machine the speed of the same code drifts by up to half for
tens of seconds at a time, as neighbours load the cores and caches.  A
whole run can sit in a slow or a fast spell, so raw wall times of two
runs of the same code disagree by more than any useful bound.  The
benchmark therefore times a fixed reference unit of work right before
and right after every sample and scales the sample by ``NOMINAL_S``
over the mean of the two: a calibrated second is the time the work
would take on a machine where the unit takes ``NOMINAL_S``.  The unit does what aggkit's hot loops do (small
float arithmetic, frozenset-keyed dicts, JSON text) but calls no aggkit
code, so a change to aggkit cannot move it.  It needs only the standard
library, so a fresh interpreter can time it before importing anything.  Raw times are reported
beside the calibrated ones.
"""

from __future__ import annotations

import gc
import json
import math
from time import perf_counter

# About the unit's time on an idle 2-core x86-64 machine with Python 3.11.
NOMINAL_S = 0.005

_POINTS = [((i * 0.37) % 1.0, (i * 0.61) % 1.0) for i in range(64)]


def _unit() -> None:
    table = {}
    for i in range(64):
        for j in range(i + 1, 64, 2):
            (ax, ay), (bx, by) = _POINTS[i], _POINTS[j]
            dx, dy = ax - bx, ay - by
            lam = (ax * dx + ay * dy) / (dx * dx + dy * dy)
            table[frozenset((i, j))] = (lam, math.hypot(ax - lam * dx, ay - lam * dy))
    json.dumps(sorted((sorted(k), v) for k, v in table.items()))


def reference_seconds() -> float:
    """Wall time of one fixed unit of reference work.

    The unit runs once untimed first, so what the previous verdict left
    in the caches does not leak into the reference, and the collector is
    paused so that garbage the previous verdict left is not collected on
    the reference's clock.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _unit()
        start = perf_counter()
        _unit()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(sample: float, before: float, after: float) -> float:
    """``sample`` in calibrated seconds, given the references that bracket it."""
    return sample * NOMINAL_S / ((before + after) / 2.0)
