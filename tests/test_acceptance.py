"""Acceptance suite.

One test per criterion; each prints a PASS line (run with -s to see them
all) and enforces the stated tolerance and runtime budget.
"""

import math
import random
import time
from fractions import Fraction

from stochlim.correlator import (
    FOCK,
    GAUSSIAN,
    finite_lambda_correlator,
    take_limit,
)
from stochlim.diagrams import count_non_crossing, enumerate_pairings
from stochlim.masterfield import check_free_equivalence
from stochlim.oracle import (
    doubled_normal_order,
    numeric_eval,
    qdef_normal_order,
    random_assignment,
)
from stochlim.quadrature import quadrature_sweep
from stochlim.scalars import (
    DeltaK,
    EnergyDelta,
    Monomial,
    OscExp,
    ScalarSum,
    TimeDelta,
)
from stochlim.symbols import TimeLabel, WaveLabel, dot, dot_p, omega
from stochlim.words import OperatorWord, balanced_patterns, word_from_pattern

from rewriting import sum_times

HALF = Fraction(1, 2)


def labels(n):
    return (
        [TimeLabel(f"t{i}") for i in range(1, n + 1)],
        [WaveLabel(f"k{i}") for i in range(1, n + 1)],
    )


def four_point_word():
    return word_from_pattern([-1, -1, 1, 1])


def four_point_expected():
    (t1, t2, t3, t4), (k1, k2, k3, k4) = labels(4)
    e1 = omega(k1) + HALF * dot(k1, k1) + dot_p(k1)
    e2 = omega(k2) + HALF * dot(k2, k2) + dot_p(k2)
    rainbow = Monomial.build(
        lam=-4,
        factors=[
            OscExp(t2 - t3, -(e2 + dot(k1, k2)), pairing=True),
            DeltaK(k2, k3),
            OscExp(t1 - t4, -e1, pairing=True),
            DeltaK(k1, k4),
        ],
    )
    crossing = Monomial.build(
        lam=-4,
        factors=[
            OscExp(t1 - t3, -e1, pairing=True),
            DeltaK(k1, k3),
            OscExp(t2 - t4, -e2, pairing=True),
            DeltaK(k2, k4),
            OscExp(t2 - t3, -dot(k2, k3)),
        ],
    )
    return ScalarSum.from_iter([rainbow, crossing])


def four_point_limit_expected():
    (t1, t2, t3, t4), (k1, k2, k3, k4) = labels(4)
    return ScalarSum.from_iter([
        Monomial.build(
            two_pi=2,
            factors=[
                TimeDelta(t2 - t3),
                EnergyDelta(
                    omega(k2) + HALF * dot(k2, k2) + dot_p(k2) + dot(k1, k2)
                ),
                DeltaK(k2, k3),
                TimeDelta(t1 - t4),
                EnergyDelta(omega(k1) + HALF * dot(k1, k1) + dot_p(k1)),
                DeltaK(k1, k4),
            ],
        )
    ])


def test_c01_four_point_reproduction():
    start = time.perf_counter()
    result = finite_lambda_correlator(four_point_word(), FOCK)
    assert result == four_point_expected()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS four-point reproduction ({elapsed:.3f}s)")


def test_c02_four_point_limit():
    result = take_limit(finite_lambda_correlator(four_point_word(), FOCK))
    assert result == four_point_limit_expected()
    assert len(result.terms) == 1
    term, _ = result.terms[0]
    assert term.two_pi == 2 and term.lam == 0 and term.osc == ()
    assert len(term.time_deltas) == 2 and len(term.energy_deltas) == 2
    print("\nACCEPTANCE 2 PASS four-point limit keeps only the non-crossing term")


def test_c03_permutation_coherence():
    word = four_point_word()
    (t1, t2, t3, t4), (k1, k2, k3, k4) = labels(4)
    first, second, *rest = word.letters
    swapped = OperatorWord.build((second, first, *rest))
    # the inverse deformation exponent exp(+(i/lam^2)(t1-t2) k1.k2)
    factor = Monomial.build(factors=[OscExp(t1 - t2, dot(k1, k2))])
    # the swapped correlator, written by hand: the diagram that crossed
    # before now nests (with the k1(p+k2) shift) and vice versa
    e1 = omega(k1) + HALF * dot(k1, k1) + dot_p(k1)
    e2 = omega(k2) + HALF * dot(k2, k2) + dot_p(k2)
    nested = Monomial.build(
        lam=-4,
        factors=[
            OscExp(t1 - t3, -(e1 + dot(k2, k1)), pairing=True),
            DeltaK(k1, k3),
            OscExp(t2 - t4, -e2, pairing=True),
            DeltaK(k2, k4),
        ],
    )
    crossed = Monomial.build(
        lam=-4,
        factors=[
            OscExp(t2 - t3, -e2, pairing=True),
            DeltaK(k2, k3),
            OscExp(t1 - t4, -e1, pairing=True),
            DeltaK(k1, k4),
            OscExp(t1 - t3, -dot(k1, k3)),
        ],
    )
    swapped_expected = ScalarSum.from_iter([nested, crossed])
    assert qdef_normal_order(swapped) == swapped_expected
    # multiplying back by the exchange factor restores the original word
    product = sum_times(qdef_normal_order(swapped), factor)
    assert product == qdef_normal_order(word)
    # and the limit forgets the permutation entirely
    assert take_limit(product) == four_point_limit_expected()
    print("\nACCEPTANCE 3 PASS permutation coherence and order-restoring limit")


def test_c04_fock_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for n in (2, 4, 6):
        for pattern in balanced_patterns(n):
            word = word_from_pattern(pattern)
            assert qdef_normal_order(word) == finite_lambda_correlator(word, FOCK), (
                pattern
            )
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 4 PASS rewriting oracle == diagram engine (fock), "
        f"{checked} patterns ({elapsed:.2f}s)"
    )


def test_c05_gaussian_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for n in (2, 4, 6):
        for pattern in balanced_patterns(n):
            word = word_from_pattern(pattern)
            assert doubled_normal_order(word, GAUSSIAN) == finite_lambda_correlator(
                word, GAUSSIAN
            ), pattern
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 5 PASS doubled oracle == diagram engine (gaussian), "
        f"{checked} patterns ({elapsed:.2f}s)"
    )


def test_c06_free_equivalence():
    start = time.perf_counter()
    checked = 0
    for n in (2, 4, 6, 8):
        for pattern in balanced_patterns(n):
            word = word_from_pattern(pattern)
            report = check_free_equivalence(word, GAUSSIAN)
            assert report.equal, (pattern, report)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 6 PASS free master-field == diagram limit, "
        f"{checked} patterns up to N=8 ({elapsed:.2f}s)"
    )


def test_c07_combinatorial_counts():
    for n in range(1, 7):
        for pattern in balanced_patterns(2 * n):
            assert len(enumerate_pairings(pattern)) == math.factorial(n)
    catalan = [1, 2, 5, 14, 42, 132]
    for n in range(1, 7):
        assert count_non_crossing((-1, 1) * n) == catalan[n - 1]
        assert count_non_crossing((-1,) * n + (1,) * n) == 1
    print("\nACCEPTANCE 7 PASS pairing counts: n!, catalan, rainbow")


def test_c08_numeric_dual_path():
    rng = random.Random(2024)
    worst = 0.0
    for n in (2, 4, 6):
        for pattern in balanced_patterns(n):
            word = word_from_pattern(pattern)
            engine = finite_lambda_correlator(word, FOCK)
            oracle = qdef_normal_order(word)
            for _ in range(100):
                assign = random_assignment([engine, oracle], rng)
                v1 = numeric_eval(engine, assign)
                v2 = numeric_eval(oracle, assign)
                rel = abs(v1 - v2) / max(1.0, abs(v1), abs(v2))
                worst = max(worst, rel)
                assert rel <= 1e-9, (pattern, rel)
    print(f"\nACCEPTANCE 8 PASS numeric dual path, worst relative diff {worst:.2e}")


def test_c09_oscillation_quadrature():
    start = time.perf_counter()
    results = quadrature_sweep((0.4, 0.2, 0.1, 0.05))
    errors = [r.abs_error for r in results]
    assert all(b < a for a, b in zip(errors, errors[1:])), errors
    assert errors[-1] / (2 * math.pi) < 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 9 PASS oscillation quadrature: errors "
        f"{', '.join(f'{e:.2e}' for e in errors)} ({elapsed:.2f}s)"
    )


def test_c10_bosonic_double():
    # the doubled oracle weighs a a+ through species 1, |u|^2 = N+1, and
    # a+ a through species 2, |v|^2 = N; a a and a+ a+ have no pairing
    k1 = WaveLabel("k1")
    offsets = []
    for pattern, weight in (([-1, 1], "(N(k1)+1)"), ([1, -1], "N(k1)")):
        ((term, rational),) = doubled_normal_order(word_from_pattern(pattern), GAUSSIAN).terms
        ((wave, offset),) = term.m_factors
        assert rational == 1 and wave == k1
        assert term.render().endswith(f"dk(k1,k2) * {weight}")
        offsets.append(offset)
    # the mixing keeps the commutator: |u|^2 - |v|^2 = 1
    assert offsets[0] - offsets[1] == 1
    for pattern in ([-1, -1], [1, 1]):
        assert doubled_normal_order(word_from_pattern(pattern), GAUSSIAN).is_zero
    print("\nACCEPTANCE 10 PASS bosonic temperature double")
