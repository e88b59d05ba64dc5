"""Wall-clock timing corrected for the machine's speed at the time.

The 2-core VM this benchmark was built on shares its cores with other
tenants, and its speed drifts by up to 2x within a minute; process CPU
time drifts with wall time, so the drift is not scheduling.  Raw wall
times of one fixed job had an interquartile spread of 45% of their
median.  Every timed region is therefore bracketed by a short fixed
pure-Python calibration pass, and its wall time is rescaled to the speed
at which that pass takes CAL_REF_S seconds.  On the same job the
rescaled times had a spread of 15%.  A change to the program moves the
rescaled time exactly as it moves the raw time; only the machine's
momentary speed is divided out.  Raw figures are reported alongside.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, TypeVar

T = TypeVar("T")

# Duration of one calibration pass at the speed all reported times refer
# to, close to the fast state of the machine the benchmark was built on.
# A constant of the benchmark: changing it rescales every reported time.
CAL_REF_S = 0.002

# Passes per calibration; the median of three shrugs off one preemption.
_PASSES = 3


@dataclass(frozen=True)
class _Item:
    name: str
    coeffs: tuple


def _calibration_pass() -> float:
    """What the program does most, on a small scale: build frozen
    dataclasses, merge Fractions in a dict by tuple keys, sort by key."""
    t0 = time.perf_counter()
    acc: dict = {}
    for i in range(180):
        item = _Item(f"k{i % 37}", ((i % 5, Fraction(i % 7 - 3, i % 4 + 1)), (i % 3, Fraction(1, i % 6 + 1))))
        key = (item.name, item.coeffs[0][0])
        acc[key] = acc.get(key, Fraction(0)) + item.coeffs[0][1] * item.coeffs[1][1]
    sorted(acc.items(), key=lambda kv: (kv[0][1], kv[0][0], kv[1]))
    return time.perf_counter() - t0


def calibrate() -> float:
    """Median duration of three calibration passes, collector paused, so
    the program's heap does not leak into the reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_calibration_pass() for _ in range(_PASSES))
    finally:
        if enabled:
            gc.enable()


def timed(fn: Callable[[], T]) -> tuple[T, float, float]:
    """Run fn once; return (result, raw seconds, reference seconds)."""
    before = calibrate()
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    after = calibrate()
    return result, raw, raw * CAL_REF_S * 2 / (before + after)
