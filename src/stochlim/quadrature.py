"""Numeric check of the oscillation limit.

I(lam) = integral f(t,x) (1/lam^2) exp(-i t x / lam^2) dt dx tends to
2pi f(0,0) for smooth rapidly decaying f.  The substitution u = t/lam^2
turns the kernel into exp(-i u x); the inner u-integral is done with
Fourier-weight quadrature, the outer x-integral adaptively after the
further substitution x = lam^2 y that undoes the sharpening of the inner
result around x = 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = [
    "TEST_FUNCTIONS",
    "QuadratureResult",
    "QuadratureError",
    "oscillation_quadrature",
    "quadrature_sweep",
    "sweep_csv_rows",
    "DEFAULT_SWEEP",
]

def _sech_profile(t: float, x: float) -> float:
    if abs(t) > 700.0 or abs(x) > 700.0:
        return 0.0
    return 1.0 / (math.cosh(t) * math.cosh(x))


TEST_FUNCTIONS: dict[str, Callable[[float, float], float]] = {
    "gaussian": lambda t, x: math.exp(-(t * t + x * x) / 2.0),
    "sech": _sech_profile,
    "zero": lambda t, x: 0.0,
}

DEFAULT_SWEEP: tuple[float, ...] = (0.4, 0.2, 0.1, 0.05)


class QuadratureError(RuntimeError):
    def __init__(self, message: str, estimate: complex, est_error: float):
        super().__init__(f"{message} (estimate {estimate}, error {est_error:.3e})")
        self.estimate = estimate
        self.est_error = est_error


@dataclass(frozen=True)
class QuadratureResult:
    lam: float
    value: complex
    est_error: float
    target: float  # 2pi f(0,0)

    @property
    def abs_error(self) -> float:
        return abs(self.value - self.target)


def _quad(fn, a, b, **kw) -> tuple[float, float]:
    # imported here so that `import stochlim` does not load scipy
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        value, err = integrate.quad(fn, a, b, limit=200, **kw)
    return value, err


def oscillation_quadrature(lam: float, test_fn: str = "gaussian") -> QuadratureResult:
    """Evaluate I(lam) for a named test function by adaptive quadrature."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if test_fn not in TEST_FUNCTIONS:
        raise ValueError(f"unknown test function {test_fn!r}")
    f = TEST_FUNCTIONS[test_fn]
    l2 = lam * lam
    errors: list[float] = []

    def inner(x: float) -> complex:
        # integral over u of f(lam^2 u, x) exp(-i u x), split even/odd
        even = lambda u: f(l2 * u, x) + f(-l2 * u, x)
        odd = lambda u: f(l2 * u, x) - f(-l2 * u, x)
        if x == 0.0:
            re, re_err = _quad(even, 0.0, math.inf)
            im, im_err = 0.0, 0.0
        else:
            re, re_err = _quad(even, 0.0, math.inf, weight="cos", wvar=abs(x))
            im, im_err = _quad(odd, 0.0, math.inf, weight="sin", wvar=abs(x))
            im *= math.copysign(1.0, x)
        errors.append(re_err + im_err)
        return complex(re, -im)

    def outer_re(y: float) -> float:
        return l2 * inner(l2 * y).real

    def outer_im(y: float) -> float:
        return l2 * inner(l2 * y).imag

    re, re_err = _quad(outer_re, -math.inf, math.inf)
    im, im_err = _quad(outer_im, -math.inf, math.inf)
    value = complex(re, im)
    est_error = re_err + im_err + (max(errors) if errors else 0.0)
    target = 2 * math.pi * f(0.0, 0.0)
    if est_error > 1e-4 * (1.0 + abs(value)):
        raise QuadratureError("quadrature did not converge", value, est_error)
    return QuadratureResult(lam=lam, value=value, est_error=est_error, target=target)


def quadrature_sweep(
    lams: Sequence[float] = DEFAULT_SWEEP, test_fn: str = "gaussian"
) -> list[QuadratureResult]:
    return [oscillation_quadrature(lam, test_fn) for lam in lams]


def sweep_csv_rows(results: Sequence[QuadratureResult]) -> list[str]:
    rows = ["lambda,realPart,imagPart,absError"]
    for r in results:
        rows.append(
            f"{r.lam:g},{r.value.real:.12e},{r.value.imag:.12e},{r.abs_error:.12e}"
        )
    return rows
