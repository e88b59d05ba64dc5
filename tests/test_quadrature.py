import math

import pytest

from stochlim import quadrature
from stochlim.quadrature import (
    DEFAULT_SWEEP,
    QuadratureError,
    QuadratureResult,
    oscillation_quadrature,
    quadrature_sweep,
    sweep_csv_rows,
)


def sech_profile(t, x):
    if abs(t) > 700.0 or abs(x) > 700.0:
        return 0.0
    return 1.0 / (math.cosh(t) * math.cosh(x))


def closed_form_gaussian(lam):
    # separable Gaussian integrals give I(lam) = 2pi / sqrt(1 + lam^4)
    return 2 * math.pi / math.sqrt(1 + lam**4)


def sech_reduction(lam, h=0.05, reach=60.0):
    # the Fourier transform of sech(t) is pi sech(pi w / 2), so the t-integral
    # leaves I(lam) = integral pi sech(lam^2 y) sech(pi y / 2) dy, a 1D sum here
    g = lambda y: math.pi / (math.cosh(lam * lam * y) * math.cosh(math.pi * y / 2))
    return h * (g(0.0) + 2 * sum(g(k * h) for k in range(1, int(reach / h) + 1)))


def test_gaussian_matches_closed_form():
    for lam in DEFAULT_SWEEP:
        result = oscillation_quadrature(lam)
        true_error = abs(result.value - closed_form_gaussian(lam))
        assert true_error < 1e-10, lam
        assert result.est_error >= true_error, lam


def test_non_convergence_raises(monkeypatch):
    # 1/(1 + t^2 + x^2) has not decayed by the end of the t-walk
    with pytest.raises(QuadratureError, match="does not decay"):
        oscillation_quadrature(0.3, lambda t, x: 1 / (1 + t * t + x * x))
    # no halving allowed: the first y-walk reaches its alias bound
    monkeypatch.setattr(quadrature, "_HALVINGS", 0)
    with pytest.raises(QuadratureError, match="did not converge"):
        oscillation_quadrature(0.3)


def test_errors_decrease_along_sweep():
    results = quadrature_sweep((0.4, 0.2, 0.1))
    errors = [r.abs_error for r in results]
    assert errors[1] < errors[0]
    assert errors[2] < errors[1]
    assert errors[-1] / (2 * math.pi) < 0.01


def test_zero_function():
    result = oscillation_quadrature(0.3, lambda t, x: 0.0)
    assert result.value == 0
    assert result.target == 0


def test_sech_converges_towards_target():
    coarse = oscillation_quadrature(0.5, sech_profile)
    fine = oscillation_quadrature(0.2, sech_profile)
    assert abs(coarse.value - sech_reduction(0.5)) < 1e-9
    assert abs(fine.value - sech_reduction(0.2)) < 1e-9
    assert fine.abs_error < coarse.abs_error
    assert abs(fine.target - 2 * math.pi) < 1e-12


def test_csv_rows_format():
    rows = sweep_csv_rows(
        [QuadratureResult(lam=0.4, value=6.2 + 0j, est_error=1e-9, target=2 * math.pi)]
    )
    assert rows[0] == "lambda,realPart,imagPart,absError"
    assert rows[1].startswith("0.4,6.2")


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        oscillation_quadrature(-0.1)
