import functools
import json
import random
from fractions import Fraction

import pytest

from stochlim import symbols
from stochlim.correlator import GAUSSIAN, finite_lambda_correlator

from stochlim.scalars import (
    DeltaK,
    EnergyDelta,
    MFactor,
    Monomial,
    OscExp,
    ScalarSum,
    TimeDelta,
)
from stochlim.symbols import EnergyComb, TimeComb, TimeLabel, WaveLabel, dot, dot_p, omega
from stochlim.words import word_from_pattern

from rewriting import times

T1, T2, T3 = (TimeLabel(f"t{i}") for i in (1, 2, 3))
K1, K2, K3 = (WaveLabel(f"k{i}") for i in (1, 2, 3))


def osc_sum(*factors, **kw):
    return ScalarSum.from_iter([Monomial.build(factors=list(factors), **kw)])


def test_merge_exponents_with_equal_time():
    a = OscExp(T1 - T2, omega(K1))
    b = OscExp(T1 - T2, dot_p(K1))
    merged = osc_sum(OscExp(T1 - T2, omega(K1) + dot_p(K1)))
    assert osc_sum(a, b) == merged
    # and the product of the two built monomials merges them alike
    product = times(Monomial.build(factors=[a]), Monomial.build(factors=[b]))
    assert ScalarSum.from_iter([product]) == merged


def test_zero_annihilates():
    a = osc_sum(OscExp(T1 - T2, omega(K1)))
    assert a.scale(0).is_zero
    assert ScalarSum.make([(a.terms[0][0], 0)]).is_zero


def test_exponent_cancellation_gives_unit():
    a = OscExp(T1 - T2, omega(K1))
    b = OscExp(T1 - T2, -omega(K1))
    assert osc_sum(a, b) == ScalarSum.from_iter([Monomial.build()])


def test_factored_forms_compare_equal():
    # exp((i/l^2)(t1-t2)E) written as a difference or as two single-time rows
    diff_form = osc_sum(OscExp(T1 - T2, omega(K1)))
    row_form = osc_sum(
        OscExp(TimeComb.of(T1), omega(K1)), OscExp(TimeComb.of(T2), -omega(K1))
    )
    assert diff_form == row_form


def test_q_factor_is_negated_exponent():
    # exp(-(i/lam^2)(t1 - t2) w) is exp((i/lam^2)(t2 - t1) w)
    assert osc_sum(OscExp(T1 - T2, -omega(K1))) == osc_sum(OscExp(T2 - T1, omega(K1)))


def test_sum_merges_structurally_identical_terms():
    # two equal monomials merge to the int coefficient 2
    m = Monomial.build(factors=[MFactor(K1, 0)])
    s = ScalarSum.from_iter([m, m])
    ((merged, two),) = s.terms
    assert merged == m and type(two) is int and two == 2
    assert s.render() == "2 * N(k1)"
    assert s.to_json()["terms"][0]["rational"] == [2, 1]
    sixth = s.scale(Fraction(1, 12))
    assert (sixth + sixth + sixth).terms == ((m, Fraction(1, 2)),)
    assert (s - s).is_zero


def test_canonicalization_idempotent():
    m = Monomial.build(
        two_pi=1,
        lam=-2,
        factors=[
            OscExp(T2 - T1, omega(K2), pairing=True),
            DeltaK(K2, K1),
            MFactor(K2, 1),
        ],
    )
    rebuilt = Monomial.build(
        two_pi=m.two_pi,
        lam=m.lam,
        factors=[OscExp(TimeComb.of(l), e) for l, e in m.osc]
        + [DeltaK(a, b) for a, b in m.delta_k]
        + [MFactor(w, o) for w, o in m.m_factors],
        quotas=m.quotas,
    )
    assert m == rebuilt


def _random_term(rng):
    """A one-term sum: a random monomial with a random rational."""
    times = [TimeLabel(f"t{i}") for i in range(1, 5)]
    waves = [WaveLabel(f"k{i}") for i in range(1, 5)]
    factors = []
    for _ in range(rng.randint(0, 3)):
        t = rng.choice(times) - rng.choice(times)
        e = omega(rng.choice(waves)) + Fraction(rng.randint(-2, 2)) * dot(
            rng.choice(waves), rng.choice(waves)
        )
        if not t.is_zero and not e.is_zero:
            factors.append(OscExp(t, e))
    if rng.random() < 0.5:
        a, b = rng.sample(waves, 2)
        factors.append(DeltaK(a, b))
    if rng.random() < 0.5:
        factors.append(MFactor(rng.choice(waves), rng.randint(0, 1)))
    rational = Fraction(rng.randint(1, 5), rng.randint(1, 3))
    monomial = Monomial.build(lam=rng.choice([0, -2]), factors=factors)
    return ScalarSum.from_iter([monomial]).scale(rational)


def test_multiply_associative_commutative():
    rng = random.Random(5)
    for _ in range(60):
        a, b, c = (_random_term(rng).terms[0][0] for _ in range(3))
        assert times(a, b) == times(b, a)
        assert times(times(a, b), c) == times(a, times(b, c))


def test_momentum_delta_substitution():
    s = osc_sum(DeltaK(K1, K2), OscExp(T1 - T2, dot(K2, K3)))
    expect = osc_sum(DeltaK(K1, K2), OscExp(T1 - T2, dot(K1, K3)))
    assert s == expect

    s2 = osc_sum(DeltaK(K1, K2), OscExp(T1 - T2, dot_p(K2)))
    expect2 = osc_sum(DeltaK(K1, K2), OscExp(T1 - T2, dot_p(K1)))
    assert s2 == expect2


def test_momentum_delta_chain_closure():
    s = osc_sum(
        DeltaK(K1, K2),
        DeltaK(K2, K3),
        OscExp(T1 - T2, omega(K3) + dot_p(K2)),
        MFactor(K3, 0),
    )
    expect = osc_sum(
        DeltaK(K1, K2),
        DeltaK(K2, K3),
        OscExp(T1 - T2, omega(K1) + dot_p(K1)),
        MFactor(K1, 0),
    )
    assert s == expect


def test_momentum_delta_can_cancel_rows():
    s = osc_sum(DeltaK(K1, K2), OscExp(T1 - T2, dot(K1, K3) - dot(K2, K3)))
    assert s.terms[0][0].osc == ()
    # an exponent that is zero from the start is dropped too, unless it pairs
    assert osc_sum(OscExp(TimeComb.zero(), omega(K1))) == osc_sum()


def test_product_unifies_across_operands():
    # the delta of one factor identifies a label in the other's exponent
    a = Monomial.build(factors=[OscExp(T1 - T2, dot(K2, K3))])
    b = Monomial.build(factors=[DeltaK(K1, K2)])
    unified = Monomial.build(factors=[DeltaK(K1, K2), OscExp(T1 - T2, dot(K1, K3))])
    assert times(a, b) == unified


def test_delta_factor_validation():
    with pytest.raises(ValueError):
        Monomial.build(factors=[DeltaK(K1, K1)])
    with pytest.raises(ValueError):
        Monomial.build(factors=[TimeDelta(TimeComb.zero())])
    with pytest.raises(ValueError):
        Monomial.build(factors=[MFactor(K1, 2)])
    with pytest.raises(ValueError):
        Monomial.build(factors=[OscExp(TimeComb.zero(), omega(K1), pairing=True)])
    with pytest.raises(ValueError, match="pairing quota needs a nonzero time"):
        Monomial.build(quotas=[TimeComb.zero()])


def test_factors_are_told_apart_by_their_exact_type():
    """A factor is one of the five factor types itself: neither a plain
    tuple of the same fields nor an instance of a subclass is one."""

    class Occupation(MFactor):
        __slots__ = ()

    for factor in [(K1, 0), Occupation(K1, 0)]:
        with pytest.raises(TypeError, match="not a scalar factor"):
            Monomial.build(factors=[factor])


def test_delta_sign_normalization():
    a = osc_sum(TimeDelta(T1 - T2), EnergyDelta(omega(K1) - dot_p(K2)))
    b = osc_sum(TimeDelta(T2 - T1), EnergyDelta(dot_p(K2) - omega(K1)))
    assert a == b


def test_json_round_trip():
    rng = random.Random(9)
    for _ in range(20):
        s = ScalarSum.make([t for _ in range(3) for t in _random_term(rng).terms])
        assert ScalarSum.from_json(s.to_json()) == s
    minus = osc_sum(OscExp(T1 - T2, omega(K1)), DeltaK(K1, K2)).scale(Fraction(-3, 2))
    assert minus.to_json()["terms"][0]["rational"] == [-3, 2]
    assert ScalarSum.from_json(minus.to_json()) == minus
    limit_like = ScalarSum.from_iter([
        Monomial.build(
            two_pi=2,
            factors=[
                TimeDelta(T1 - T2),
                EnergyDelta(omega(K1) + dot_p(K1)),
                DeltaK(K1, K2),
                MFactor(K1, 1),
            ],
        )
    ])
    assert ScalarSum.from_json(limit_like.to_json()) == limit_like


def test_render_deterministic():
    m = Monomial.build(
        two_pi=1,
        lam=-2,
        factors=[OscExp(T1 - T2, omega(K1), pairing=True), DeltaK(K1, K2)],
    )
    text = ScalarSum.from_iter([m]).scale(Fraction(1, 2)).render()
    assert text == (
        "1/2 * (2pi) * lam^-2 * pair(t1 - t2) * "
        "exp{(i/lam^2)[t1: w(k1); t2: -w(k1)]} * dk(k1,k2)"
    )


# per field of Monomial, the build arguments of a monomial with that field alone
# and its rendering
ONE_FIELD = {
    "two_pi": ({"two_pi": 1}, "(2pi)"),
    "lam": ({"lam": -2}, "lam^-2"),
    "quotas": ({"quotas": [T1 - T2]}, "pair(t1 - t2)"),
    "osc": ({"factors": [OscExp(T1 - T2, omega(K1))]}, "exp{(i/lam^2)[t1: w(k1); t2: -w(k1)]}"),
    "time_deltas": ({"factors": [TimeDelta(T1 - T2)]}, "dT(t1 - t2)"),
    "energy_deltas": ({"factors": [EnergyDelta(omega(K1))]}, "dE(w(k1))"),
    "delta_k": ({"factors": [DeltaK(K1, K2)]}, "dk(k1,k2)"),
    "m_factors": ({"factors": [MFactor(K1, 1)]}, "(N(k1)+1)"),
}


def test_render_omits_unit_rational_beside_quotas():
    # a quota is a factor: a rational of 1 is left out, as beside every other
    # field, each alone, so that render's any() is pinned field by field
    for field, (kwargs, rendered) in ONE_FIELD.items():
        alone = ScalarSum.from_iter([Monomial.build(**kwargs)])
        assert [f for f in Monomial._fields if getattr(alone.terms[0][0], f)] == [field]
        assert alone.render() == rendered, field
        assert alone.scale(2).render() == "2 * " + rendered, field
    assert ScalarSum.from_iter([Monomial.build()]).render() == "1"


def test_labels_with_equal_natural_parts_do_not_merge():
    a = Monomial.build(factors=[MFactor(WaveLabel("k01"), 0)])
    b = Monomial.build(factors=[MFactor(WaveLabel("k1"), 0)])
    s = ScalarSum.from_iter([a, b])
    assert len(s.terms) == 2
    assert s.render() == "N(k01)\n+ N(k1)"


def test_json_dot_labels_in_either_order():
    s = osc_sum(OscExp(T1 - T2, dot(K1, K2)))
    data = s.to_json()
    for _, energy in data["terms"][0]["osc"]:
        for _, waves, _, _ in energy:
            assert waves == ["k1", "k2"]
            waves.reverse()
    parsed = ScalarSum.from_json(data)
    assert parsed == s
    assert parsed.render() == s.render()


def _dumps(s: ScalarSum) -> str:
    return json.dumps(s.to_json(), sort_keys=True)


def test_coefficient_type_makes_no_difference():
    # an integral coefficient may be held as int or as Fraction
    bases = [b for e in (omega(K1), dot(K1, K2), dot_p(K2)) for b, _ in e.terms]
    coeffs = [1, -2, 3]
    as_int = EnergyComb.make(list(zip(bases, coeffs)))
    as_frac = EnergyComb.make([(b, Fraction(c)) for b, c in zip(bases, coeffs)])
    assert as_int == as_frac
    assert hash(as_int) == hash(as_frac)
    assert as_int.render() == as_frac.render()
    assert as_int.sort_key == as_frac.sort_key
    assert _dumps(osc_sum(OscExp(T1 - T2, as_int))) == _dumps(osc_sum(OscExp(T1 - T2, as_frac)))
    # a mixed-type make that cancels drops the term
    w1, k1k2 = bases[:2]
    assert EnergyComb.make([(w1, 1), (k1k2, 1), (w1, Fraction(-1))]).support == (k1k2,)
    halves = EnergyComb.make([(w1, Fraction(1, 2)), (w1, Fraction(1, 2))])
    assert halves == EnergyComb.make([(w1, 1)])


def test_json_round_trip_of_a_finite_sum():
    # from_json yields Fraction coefficients, a built sum may hold ints
    s = finite_lambda_correlator(word_from_pattern([-1, 1] * 4), GAUSSIAN)
    parsed = ScalarSum.from_json(s.to_json())
    assert parsed == s
    assert _dumps(parsed) == _dumps(s)


def test_each_oscillation_row_is_merged_once(monkeypatch):
    # t1 gets three contributions and t2 one, and a delta chain maps k2, k3 to k1
    t1, t2 = TimeComb.of(T1), TimeComb.of(T2)
    factors = [
        OscExp(t1, omega(K1)),
        OscExp(t1, dot(K2, K3)),
        OscExp(t1, dot_p(K3)),
        OscExp(t2, omega(K3)),
        DeltaK(K1, K2),
        DeltaK(K2, K3),
    ]
    made = []
    make = symbols._Comb.make.__func__

    def counting_make(cls, items):
        made.append(cls)
        return make(cls, items)

    monkeypatch.setattr(symbols._Comb, "make", classmethod(counting_make))
    m = Monomial.build(factors=factors)
    assert len(made) == len(m.osc) == 2
    assert [(label.name, e.render()) for label, e in m.osc] == [
        ("t1", "w(k1) + k1.k1 + k1.p"),
        ("t2", "w(k1)"),
    ]
    assert m == functools.reduce(times, (Monomial.build(factors=[f]) for f in factors))


def test_multi_time_exponent_rows_cancel_as_single_time_factors():
    # 2 t1 - t2 contributes -E to t2, which a second factor cancels after
    # the delta maps k2 to k1; t1 keeps 2 E
    energy = omega(K2) + dot_p(K3)
    mixed = TimeComb.make([(T1, 2), (T2, -1)])
    factors = [OscExp(mixed, energy), OscExp(TimeComb.of(T2), omega(K1) + dot_p(K3)), DeltaK(K1, K2)]
    m = Monomial.build(factors=factors)
    assert m.osc == ((T1, 2 * (omega(K1) + dot_p(K3))),)
    single = [
        OscExp(TimeComb.of(T1, 2), energy),
        OscExp(TimeComb.of(T2, -1), energy),
        *factors[1:],
    ]
    assert m == functools.reduce(times, (Monomial.build(factors=[f]) for f in single))
