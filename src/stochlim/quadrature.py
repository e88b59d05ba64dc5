"""Numeric check of the oscillation limit.

I(lam) = integral f(t,x) (1/lam^2) exp(-i t x / lam^2) dt dx tends to 2pi f(0,0) for
smooth rapidly decaying f.  With x = lam^2 y it is the integral over y of
G(y) = integral f(s, lam^2 y) exp(-i s y) ds.  Both integrals are trapezoidal sums,
walked out from 0 until their terms stay negligible.  For analytic integrands the rule's
error falls like exp(-c/h): a sum of step h beats its half on every other point, of
step 2h, by far.  Their differences (the y-sum's, plus the s-sums' summed over y) make
est_error at no extra evaluation; h_s and h_y are halved until it is small.  The s-sum
has period 2pi/h_s in y: a y-walk that would pass the alias bound pi/h_s halves h_s.
The sweep integrates the Gaussian exp(-(t^2 + x^2)/2); another f is passed as a callable.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, NamedTuple, Sequence

__all__ = ["QuadratureResult", "QuadratureError", "oscillation_quadrature",
           "quadrature_sweep", "DEFAULT_SWEEP"]

def _gaussian(t: float, x: float) -> float:
    return math.exp(-(t * t + x * x) / 2.0)


DEFAULT_SWEEP: tuple[float, ...] = (0.4, 0.2, 0.1, 0.05)

_H0 = 0.5  # first h_s and h_y
_HALVINGS = 6  # rounds that halve h_s or h_y before giving up
_TOL = 1e-8  # est_error must be below _TOL * (1 + |I|)
_TINY = 1e-16  # a term below _TINY of the largest is negligible...
_RUN = 3  # ...and _RUN negligible steps in a row end a walk
_REACH = 100.0  # no s-walk passes |s| = _REACH


class QuadratureError(RuntimeError):
    def __init__(self, message: str, estimate: complex, est_error: float):
        super().__init__(f"{message} (estimate {estimate}, error {est_error:.3e})")
        self.estimate = estimate
        self.est_error = est_error


class QuadratureResult(NamedTuple):
    lam: float
    value: complex
    est_error: float
    target: float  # 2pi f(0,0)

    @property
    def abs_error(self) -> float:
        return abs(self.value - self.target)


def _trapezoid(term, h: float, reach: float) -> tuple[complex, complex] | None:
    """(h * sum of term(kh) over the integers k, 2h * the sum over even k), walked out from
    0 until term(±kh) stay below _TINY of the peak _RUN steps in a row; None past reach."""
    fine = coarse = term(0.0)
    peak, quiet, k = abs(fine), 0, 0
    while quiet < _RUN and (k + 1) * h <= reach:
        k += 1
        a, b = term(k * h), term(-k * h)
        peak = max(peak, abs(a), abs(b))
        quiet = quiet + 1 if max(abs(a), abs(b)) <= _TINY * peak else 0
        fine += a + b
        if k % 2 == 0:
            coarse += a + b
    return (h * fine, 2 * h * coarse) if quiet == _RUN else None


def oscillation_quadrature(
    lam: float, f: Callable[[float, float], float] = _gaussian
) -> QuadratureResult:
    """Evaluate I(lam) for the integrand f(t, x) by the nested trapezoidal rule."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    h_s = h_y = _H0
    value, est_error = complex("nan"), math.inf
    for _ in range(_HALVINGS + 1):
        inner = []  # |fine - coarse| of each s-sum

        def g(y: float) -> complex:
            sums = _trapezoid(lambda s: cmath.rect(f(s, lam * lam * y), -s * y), h_s, _REACH)
            if sums is None:
                raise QuadratureError("integrand does not decay in t", value, est_error)
            inner.append(abs(sums[0] - sums[1]))
            return sums[0]

        sums = _trapezoid(g, h_y, math.pi / h_s)
        if sums is None:  # the y-walk reached the alias bound
            h_s /= 2
            continue
        value, outer_error, inner_error = sums[0], abs(sums[0] - sums[1]), h_y * sum(inner)
        est_error, tol = outer_error + inner_error, _TOL * (1.0 + abs(value))
        if est_error <= tol:
            return QuadratureResult(lam, value, est_error, 2 * math.pi * f(0.0, 0.0))
        h_s /= 2 if inner_error > tol / 2 else 1
        h_y /= 2 if outer_error > tol / 2 else 1
    raise QuadratureError("quadrature did not converge", value, est_error)


def quadrature_sweep(lams: Sequence[float] = DEFAULT_SWEEP) -> list[QuadratureResult]:
    return [oscillation_quadrature(lam) for lam in lams]


def sweep_csv_rows(results: Sequence[QuadratureResult]) -> list[str]:
    rows = ["lambda,realPart,imagPart,absError"]
    for r in results:
        rows.append(
            f"{r.lam:g},{r.value.real:.12e},{r.value.imag:.12e},{r.abs_error:.12e}"
        )
    return rows
