"""Free-probability closed forms: each path alone held to the moments of
its statistics, with no second path to agree with, so a fault that two
paths share shows here too.

The occupation shadow of a sum reads every delta, power of 2pi and phase
as 1 and each occupation N(k)+c as nu+c.  Summed over all balanced words
of length 2n it is a polynomial in nu of degree at most n, so n+1 values
of nu pin it down.  In the Gaussian state the limit is free and gives the
semicircle moment C_n (2nu+1)^n on `limit` and `free`; finite coupling is
Gaussian and gives the Gaussian moment (2n-1)!! (2nu+1)^n on `finite` and
`doubled`.  The Fock state writes no occupation factor (nu = 0): there the
same sums give C_n and (2n-1)!!, with `qdef` in place of `doubled`
(Nica, Speicher, Lectures on the Combinatorics of Free Probability, CUP
2006, lecture 2; Bozejko, Speicher, Commun. Math. Phys. 137 (1991)).
"""

from fractions import Fraction
from math import comb, prod

import pytest

from stochlim.correlator import FOCK, GAUSSIAN, finite_lambda_correlator, limit_correlator
from stochlim.masterfield import free_correlator
from stochlim.oracle import doubled_normal_order, qdef_normal_order
from stochlim.scalars import ScalarSum
from stochlim.words import balanced_patterns, word_from_pattern


def shadow(s: ScalarSum, nu) -> Fraction:
    """Sum of c * prod(nu + offset) over the occupation factors of each
    term c * m, exactly."""
    return sum(
        (Fraction(c) * prod(nu + offset for _, offset in m.m_factors) for m, c in s.terms),
        Fraction(0),
    )


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def gaussian_moment(n: int) -> int:
    """(2n-1)!!, the number of pair partitions of 2n points."""
    return prod(range(1, 2 * n, 2))


# path name: (the path in the state, the moment at nu = 0, largest n)
PATHS = {
    GAUSSIAN: {
        "limit": (lambda w: limit_correlator(w, GAUSSIAN), catalan, 5),
        "free": (lambda w: free_correlator(w, GAUSSIAN), catalan, 5),
        "finite": (lambda w: finite_lambda_correlator(w, GAUSSIAN), gaussian_moment, 4),
        "doubled": (lambda w: doubled_normal_order(w, GAUSSIAN), gaussian_moment, 4),
    },
    FOCK: {
        "limit": (lambda w: limit_correlator(w, FOCK), catalan, 5),
        "free": (lambda w: free_correlator(w, FOCK), catalan, 5),
        "finite": (lambda w: finite_lambda_correlator(w, FOCK), gaussian_moment, 4),
        "qdef": (qdef_normal_order, gaussian_moment, 4),
    },
}


def _cases(state):
    return [
        pytest.param(name, n, id=f"{name}-{2 * n}")
        for name, (_, _, top) in PATHS[state].items()
        for n in range(1, top + 1)
    ]


def _sums(state, name, n) -> list[ScalarSum]:
    path = PATHS[state][name][0]
    return [path(word_from_pattern(p)) for p in balanced_patterns(2 * n)]


@pytest.mark.parametrize("name,n", _cases(GAUSSIAN))
def test_gaussian_moments(name, n):
    sums = _sums(GAUSSIAN, name, n)
    moment = PATHS[GAUSSIAN][name][1](n)
    for nu in range(n + 1):
        assert sum(shadow(s, nu) for s in sums) == moment * (2 * nu + 1) ** n, nu


@pytest.mark.parametrize("name,n", _cases(FOCK))
def test_fock_moments(name, n):
    sums = _sums(FOCK, name, n)
    assert all(not m.m_factors for s in sums for m, _ in s.terms)
    assert sum(shadow(s, 0) for s in sums) == PATHS[FOCK][name][1](n)

