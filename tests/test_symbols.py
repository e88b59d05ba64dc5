import copy
import pickle
import random
from fractions import Fraction

import pytest

from stochlim.correlator import GAUSSIAN, finite_lambda_correlator
from stochlim.symbols import (
    EnergyComb,
    TimeComb,
    TimeLabel,
    WaveLabel,
    basis_from_json,
    basis_to_json,
    dispersion,
    dot,
    dot_p,
    omega,
)
from stochlim.words import word_from_pattern

from rewriting import shift_p


def test_natural_label_order():
    k2, k10 = WaveLabel("k2"), WaveLabel("k10")
    assert k2.sort_key < k10.sort_key
    k1, k1p = WaveLabel("k1"), WaveLabel("k1p")
    assert k1.sort_key < k1p.sort_key < k2.sort_key


def test_time_comb_arithmetic():
    t1, t2 = TimeLabel("t1"), TimeLabel("t2")
    d = t1 - t2
    assert d.terms == ((t1, 1), (t2, -1))
    assert (d + (-d)).is_zero
    assert (d - d).is_zero
    assert TimeComb.of(t1, 0).is_zero


def test_time_comb_sign_normalization():
    t1, t2 = TimeLabel("t1"), TimeLabel("t2")
    assert (t2 - t1).normalized() == (t1 - t2).normalized()
    assert (t1 - t2).normalized().terms == ((t1, 1), (t2, -1))


def test_dot_is_symmetric():
    a, b = WaveLabel("k1"), WaveLabel("k2")
    assert dot(a, b) == dot(b, a)


def test_energy_comb_merges_and_cancels():
    k1, k2 = WaveLabel("k1"), WaveLabel("k2")
    e = omega(k1) + omega(k1) - 2 * omega(k1)
    assert e.is_zero
    e2 = dot(k1, k2) + Fraction(1, 2) * dot(k2, k1)
    assert e2.terms[0][1] == Fraction(3, 2)


def test_shift_p_example():
    k1, k2 = WaveLabel("k1"), WaveLabel("k2")
    shifted = shift_p(dot_p(k2), [(k1, +1)])
    assert shifted == dot_p(k2) + dot(k1, k2)
    assert shift_p(omega(k2), [(k1, +1)]) == omega(k2)


def test_shift_p_inverse():
    k1, k2, k3 = (WaveLabel(f"k{i}") for i in (1, 2, 3))
    e = omega(k1) + 3 * dot_p(k2) - Fraction(1, 2) * dot_p(k3)
    assert shift_p(shift_p(e, [(k1, +1)]), [(k1, -1)]) == e


def _random_comb(rng: random.Random, waves) -> EnergyComb:
    e = EnergyComb.zero()
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(["w", "dot", "kp"])
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if kind == "w":
            e = e + c * omega(rng.choice(waves))
        elif kind == "dot":
            e = e + c * dot(rng.choice(waves), rng.choice(waves))
        else:
            e = e + c * dot_p(rng.choice(waves))
    return e


def test_shift_p_distributes_over_addition():
    rng = random.Random(11)
    waves = [WaveLabel(f"k{i}") for i in range(1, 5)]
    for _ in range(50):
        a, b = _random_comb(rng, waves), _random_comb(rng, waves)
        shift = [(rng.choice(waves), rng.choice([1, -1]))]
        assert shift_p(a + b, shift) == shift_p(a, shift) + shift_p(b, shift)


def test_shift_p_over_a_list_is_one_pair_at_a_time():
    rng = random.Random(12)
    waves = [WaveLabel(f"k{i}") for i in range(1, 5)]
    for _ in range(50):
        e = _random_comb(rng, waves)
        shifts = [(rng.choice(waves), rng.choice([1, -1])) for _ in range(rng.randint(0, 5))]
        one_at_a_time = e
        for pair in shifts:
            one_at_a_time = shift_p(one_at_a_time, [pair])
        assert shift_p(e, shifts) == one_at_a_time
        assert shift_p(e, iter(shifts)) == one_at_a_time


def test_shift_p_rejects_bad_sign():
    k1, k2 = WaveLabel("k1"), WaveLabel("k2")
    with pytest.raises(ValueError):
        shift_p(dot_p(k1), [(k1, 2)])
    # one bad sign anywhere in the list raises, even on an energy without k.p
    for at in range(3):
        shifts = [(k1, 1), (k2, -1), (k1, -1)]
        shifts[at] = (shifts[at][0], 0)
        for energy in (dot_p(k1), omega(k2)):
            with pytest.raises(ValueError):
                shift_p(energy, shifts)


def test_dispersion_equals_the_written_out_energy():
    """w(k) + (s/2) k.k + k.p shifted term by term through `shift_p`, for
    both signs, with no shifts and with seeded shift lists, some of whose
    waves sort before k."""
    rng = random.Random(34)
    waves = [WaveLabel(f"k{i}") for i in range(1, 12)]
    k = WaveLabel("k6")
    cases = [(sign, []) for sign in (1, -1)]
    cases += [(-1, [(WaveLabel("k1"), 1), (WaveLabel("k01"), -1)])]
    for _ in range(40):
        shifts = [(rng.choice(waves), rng.choice([1, -1])) for _ in range(rng.randint(1, 5))]
        cases.append((rng.choice([1, -1]), shifts))
    assert any(j.sort_key < k.sort_key for _, shifts in cases for j, _ in shifts)
    for sign, shifts in cases:
        written = shift_p(omega(k) + Fraction(sign, 2) * dot(k, k) + dot_p(k), shifts)
        energy = dispersion(k, sign, shifts)
        assert energy == written, (sign, shifts)
        assert energy.render() == written.render()
    with pytest.raises(ValueError):
        dispersion(k, 0)


def test_energy_render():
    k1, k2 = WaveLabel("k1"), WaveLabel("k2")
    e = omega(k1) - Fraction(1, 2) * dot(k1, k1) + dot_p(k2)
    assert e.render() == "w(k1) - 1/2 k1.k1 + k2.p"
    assert EnergyComb.zero().render() == "0"


def test_label_key_is_a_total_order():
    # names with equal natural parts still sort apart, by name
    a, b = WaveLabel("k01"), WaveLabel("k1")
    assert a.sort_key != b.sort_key
    assert a.sort_key < b.sort_key < WaveLabel("k2").sort_key
    assert a != b and repr(a) == "k01"
    assert TimeLabel("t1") == TimeLabel("t1")
    assert hash(TimeLabel("t1")) == hash(TimeLabel("t1"))
    assert TimeLabel("t1") != WaveLabel("t1")
    # a digit that is not a decimal digit is text, not a number
    assert WaveLabel("k1").sort_key < WaveLabel("\u00b2").sort_key


def test_one_object_per_label():
    assert WaveLabel("k1") is WaveLabel("k1")
    assert TimeLabel("k1") != WaveLabel("k1")
    assert WaveLabel("k01") is not WaveLabel("k1")
    label = WaveLabel("k1")
    with pytest.raises(AttributeError):
        label.name = "k2"
    with pytest.raises(AttributeError):
        del label.sort_key
    assert label.name == "k1"


def test_one_object_per_basis():
    k1, k2 = WaveLabel("k1"), WaveLabel("k2")
    (basis, _), = dot(k1, k2).terms
    assert basis_from_json("dot", ["k2", "k1"]) is basis
    assert dot(k2, k1).terms[0][0] is basis
    assert omega(k1).terms[0][0] is basis_from_json("w", ["k1"])
    assert shift_p(dot_p(k2), [(k1, 1)]).terms[0][0] is basis
    with pytest.raises(ValueError):
        basis_from_json("dot", ["k1"])


def test_copies_give_back_the_interned_symbols():
    value = finite_lambda_correlator(word_from_pattern([-1, -1, 1, 1]), GAUSSIAN)
    assert value.terms
    for copied in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert copied == value
        for (m, _), (original, _) in zip(copied.terms, value.terms):
            assert m.sort_key == original.sort_key
            for q, q0 in zip(m.quotas, original.quotas):
                assert q.sort_key == q0.sort_key
            for label, energy in m.osc:
                assert label is TimeLabel(label.name)
                for basis in energy.support:
                    assert basis is basis_from_json(*basis_to_json(basis))
            for wave, _ in m.m_factors:
                assert wave is WaveLabel(wave.name)


def fresh_key(comb):
    return tuple((b.sort_key, c.numerator, c.denominator) for b, c in comb.terms)


def test_cached_sort_key_is_the_fresh_key():
    k1, k2 = WaveLabel("k1"), WaveLabel("k2")
    t9, t10 = TimeLabel("t9"), TimeLabel("t10")
    combs = [
        omega(k1) + 2 * dot(k1, k2) - dot_p(k2),
        omega(k2) + Fraction(1, 2) * dot(k2, k2) - Fraction(3, 2) * dot_p(k1),
        TimeComb.of(t10, 3) - TimeComb.of(t9),
        EnergyComb.zero(),
    ]
    for comb in combs:
        assert comb.sort_key == fresh_key(comb)
        assert comb.sort_key is comb.sort_key
        assert not hasattr(comb, "__dict__")
        for copied in (copy.deepcopy(comb), pickle.loads(pickle.dumps(comb))):
            assert copied == comb and type(copied) is type(comb)
            assert copied.sort_key == comb.sort_key == fresh_key(copied)
    with pytest.raises(AttributeError):
        combs[0].no_such_attribute


def test_time_diff_is_the_merged_difference():
    t1, t2, t9, t10 = (TimeLabel(f"t{i}") for i in (1, 2, 9, 10))
    for a, b in ((t1, t2), (t2, t1), (t9, t10), (t10, t9), (t10, t2)):
        d = TimeComb.diff(a, b)
        assert d == TimeComb.make([(a, 1), (b, -1)])
        assert d.terms == TimeComb.make([(a, 1), (b, -1)]).terms
        assert a - b == d
    assert TimeComb.diff(t9, t10).terms == ((t9, 1), (t10, -1))
    assert TimeComb.diff(t9, t9).is_zero and (t9 - t9) == TimeComb.zero()


def test_scalar_times_energy_keeps_the_coefficient_type():
    k = WaveLabel("k1")
    (_, half), = (Fraction(1, 2) * dot(k, k)).terms
    assert half == Fraction(1, 2) and type(half) is Fraction
    (_, two), = (2 * dot(k, k)).terms
    assert two == 2 and type(two) is int


class Key:
    """A basis with a sort key, hashed by identity."""

    def __init__(self, n: int) -> None:
        self.sort_key = (n,)


def test_make_merges_by_basis_and_keeps_lone_coefficients():
    keys = [Key(n) for n in (3, 1, 2)]
    half = Fraction(1, 2)
    comb = EnergyComb.make([(keys[0], half), (keys[1], 1), (keys[2], 1)])
    assert comb.terms == ((keys[1], 1), (keys[2], 1), (keys[0], half))
    assert comb.terms[2][1] is half
    # equal small ints are one object, yet a second 1 still merges, and a
    # sum that cancels is dropped
    a, b = keys[:2]
    assert EnergyComb.make([(a, 1), (b, 1), (a, 1), (b, -1)]).terms == ((a, 2),)


def test_subst_keeps_a_basis_no_wave_of_which_is_mapped():
    k1, k2, k3, k4 = (WaveLabel(f"k{i}") for i in (1, 2, 3, 4))
    rep = {k4: k1}
    for comb in (omega(k2), dot(k2, k3), dot(k3, k3), dot_p(k3)):
        (basis, _), = comb.terms
        assert basis.subst(rep) is basis
        assert basis.subst({}) is basis


def test_subst_gives_the_stored_basis():
    k1, k2, k3 = (WaveLabel(f"k{i}") for i in (1, 2, 3))
    (b23, _), = dot(k2, k3).terms
    (b12, _), = dot(k1, k2).terms
    (b11, _), = dot(k1, k1).terms
    assert b23.subst({k3: k1}) is b12
    assert b23.subst({k2: k1, k3: k1}) is b11
    (w3, _), = omega(k3).terms
    (w1, _), = omega(k1).terms
    assert w3.subst({k3: k1}) is w1


def test_subst_waves_is_self_when_nothing_maps():
    k1, k2, k3 = (WaveLabel(f"k{i}") for i in (1, 2, 3))
    e = omega(k2) + Fraction(1, 2) * dot(k2, k3) - dot_p(k3)
    assert e.subst_waves({k1: k2}) is e
    assert e.subst_waves({}) is e
    assert e.subst_waves({k1: k2}, -1) == -e
    assert e.subst_waves({k3: k2}) == omega(k2) + Fraction(1, 2) * dot(k2, k2) - dot_p(k2)
    assert e.subst_waves({k3: k2}, 2) == 2 * e.subst_waves({k3: k2})
