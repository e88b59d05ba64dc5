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

Single Gaussian words of length 2n pin each occupation offset, which a
sum over all words does not: (a a+)^n gives the free Poisson moment, the
Narayana polynomial, on `limit` and `free`, and the weak-excedance
Eulerian polynomial on `finite` and `doubled`; the rainbow a^n a+^n gives
(nu+1)^n and n! (nu+1)^n, and the reversed rainbow nu^n and n! nu^n.
"""

from fractions import Fraction
from itertools import permutations
from math import comb, factorial, prod

import pytest

from stochlim.scalars import ScalarSum
from stochlim.words import balanced_patterns, word_from_pattern

from rewriting import PATHS


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


def narayana(n: int, nu) -> int:
    """The free Poisson moment: the sum over k of the Narayana number
    N(n, k) times (nu+1)^k nu^(n-k)."""
    return sum(
        comb(n, k) * comb(n, k - 1) // n * (nu + 1) ** k * nu ** (n - k) for k in range(1, n + 1)
    )


def eulerian(n: int, nu) -> int:
    """The sum over permutations s of range(n) of prod_i (nu + [s(i) >= i])."""
    return sum(prod(nu + (s[i] >= i) for i in range(n)) for s in permutations(range(n)))


# state -> path name -> (the moment at nu = 0, largest n)
MOMENTS = {
    state: {"limit": (catalan, 5), "free": (catalan, 5)}
    | {name: (gaussian_moment, 4) for name in ("finite", oracle)}
    for state, oracle in (("gaussian", "doubled"), ("fock", "qdef"))
}

# word -> (its pattern of length 2n, its shadow on limit and free, on finite and doubled)
WORDS = {
    "alternating": (lambda n: (-1, 1) * n, narayana, eulerian),
    "rainbow": (
        lambda n: (-1,) * n + (1,) * n,
        lambda n, nu: (nu + 1) ** n,
        lambda n, nu: factorial(n) * (nu + 1) ** n,
    ),
    "reversed-rainbow": (
        lambda n: (1,) * n + (-1,) * n,
        lambda n, nu: nu**n,
        lambda n, nu: factorial(n) * nu**n,
    ),
}


def _cases(state):
    return [
        pytest.param(name, n, id=f"{name}-{2 * n}")
        for name, (_, top) in MOMENTS[state].items()
        for n in range(1, top + 1)
    ]


def _sums(state, name, n) -> list[ScalarSum]:
    path = PATHS[f"{name}-{state}"]
    return [path(word_from_pattern(p)) for p in balanced_patterns(2 * n)]


@pytest.mark.parametrize("name,n", _cases("gaussian"))
def test_gaussian_moments(name, n):
    sums = _sums("gaussian", name, n)
    moment = MOMENTS["gaussian"][name][0](n)
    for nu in range(n + 1):
        assert sum(shadow(s, nu) for s in sums) == moment * (2 * nu + 1) ** n, nu


@pytest.mark.parametrize("name,n", _cases("fock"))
def test_fock_moments(name, n):
    sums = _sums("fock", name, n)
    assert all(not m.m_factors for s in sums for m, _ in s.terms)
    assert sum(shadow(s, 0) for s in sums) == MOMENTS["fock"][name][0](n)


@pytest.mark.parametrize("name", ["limit", "free", "finite", "doubled"])
@pytest.mark.parametrize("word", WORDS)
def test_single_gaussian_word(word, name):
    pattern, free_form, gaussian_form = WORDS[word]
    form = free_form if name in ("limit", "free") else gaussian_form
    for n in range(1, 5):
        s = PATHS[f"{name}-gaussian"](word_from_pattern(pattern(n)))
        for nu in range(n + 1):
            assert shadow(s, nu) == form(n, nu), (n, nu)
