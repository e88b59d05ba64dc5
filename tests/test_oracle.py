import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest

from stochlim.correlator import (
    FOCK,
    GAUSSIAN,
    finite_lambda_correlator,
    take_limit,
    temperature,
)
from stochlim.oracle import (
    Assignment,
    UnassignedSymbolError,
    _ccr_step,
    _doubled_term,
    _qdef_step,
    doubled_normal_order,
    numeric_eval,
    qdef_normal_order,
    random_assignment,
)
from stochlim.scalars import (
    DeltaK,
    MFactor,
    Monomial,
    OscExp,
    ScalarSum,
)
from stochlim.symbols import TimeComb, TimeLabel, WaveLabel, dot, dot_p, omega
from stochlim.words import (
    Letter,
    OperatorWord,
    balanced_patterns,
    normal_order,
    word_from_pattern,
)

from rewriting import _free_step, normal_order_at, species_product, sum_times, sweep, times

HALF = Fraction(1, 2)


def test_qdef_two_point():
    word = word_from_pattern([-1, 1])
    t1, t2 = TimeLabel("t1"), TimeLabel("t2")
    k1, k2 = WaveLabel("k1"), WaveLabel("k2")
    expected = ScalarSum.from_iter([
        Monomial.build(
            lam=-2,
            factors=[
                OscExp(
                    t1 - t2,
                    -(omega(k1) + HALF * dot(k1, k1) + dot_p(k1)),
                    pairing=True,
                ),
                DeltaK(k1, k2),
            ],
        )
    ])
    assert qdef_normal_order(word) == expected


def test_qdef_antinormal_is_zero():
    assert qdef_normal_order(word_from_pattern([1, -1])).is_zero
    assert qdef_normal_order(word_from_pattern([1, 1, -1, -1])).is_zero


def test_qdef_unbalanced_is_zero():
    assert qdef_normal_order(word_from_pattern([-1, -1, 1])).is_zero


def _rewrite(step, term, branches=species_product):
    """word, driver -> the word's value per branch: each branch rewritten by
    driver(letters, step), each finished one built by term(word, collected)."""

    def reduce(word, driver):
        return [
            ScalarSum.from_iter(term(word, c) for c in driver(letters, step))
            for letters in branches(word)
        ]

    return reduce


REWRITE_PATHS = [
    pytest.param(
        _rewrite(
            _qdef_step,
            lambda w, f: Monomial.build(lam=-len(w), factors=f),
            lambda w: [w.letters],
        ),
        id="qdef",
    ),
    pytest.param(_rewrite(_ccr_step, lambda w, pairs: _doubled_term([], pairs)), id="ccr"),
    pytest.param(
        _rewrite(_free_step, lambda w, f: Monomial.build(two_pi=len(w) // 2, factors=f)),
        id="free",
    ),
]


@pytest.mark.parametrize("reduce", REWRITE_PATHS)
def test_rewrite_sites_agree(reduce):
    # every word up to N=6: the program's driver, which takes the leftmost
    # site, against the rightmost site and a seeded random one
    rng = random.Random(6)
    for n in range(1, 7):
        for pattern in product((-1, 1), repeat=n):
            word = word_from_pattern(pattern)
            leftmost = reduce(word, normal_order)
            for choose in (lambda sites: sites[-1], rng.choice):
                at = reduce(word, lambda letters, step: normal_order_at(letters, step, choose))
                assert at == leftmost, pattern


def test_driver_never_steps_on_a_dead_end():
    # a a+ a+ a ends with an annihilator and a+ a a a+ starts with a creator:
    # that letter can never move or contract, so the step is never called
    calls = []

    def step(letters, i, collected):
        calls.append((letters, i))
        return _qdef_step(letters, i, collected)

    for pattern in ([-1, 1, 1, -1], [1, -1, -1, 1]):
        assert normal_order(word_from_pattern(pattern).letters, step) == []
    assert calls == []


def _inversions(letters) -> int:
    """Pairs of an annihilator and a creator right of it, adjacent or not."""
    return sum(1 for i, l in enumerate(letters) for r in letters[i + 1 :] if not l.dag and r.dag)


def test_qdef_step_lowers_length_and_inversions():
    # the measure that ends the qdef rewriting, at every (annihilator,
    # creator) site of every word up to N=8
    for n in range(2, 9):
        for pattern in product((-1, 1), repeat=n):
            letters = word_from_pattern(pattern).letters
            measure = (n, _inversions(letters))
            for i in range(n - 1):
                if letters[i].dag or not letters[i + 1].dag:
                    continue
                branches = _qdef_step(letters, i, ())
                assert len(branches) == 2, (pattern, i)
                for _, rest in branches:
                    assert (len(rest), _inversions(rest)) < measure, (pattern, i)


def test_reorder_annihilators_factor():
    # the two annihilators of a1 a2 a+ a+ swap against exp((i/lam^2)(t1-t2) k1.k2),
    # and swapping back cancels the factor exactly
    word = word_from_pattern([-1, -1, 1, 1])
    t1, t2 = TimeLabel("t1"), TimeLabel("t2")
    k1, k2 = WaveLabel("k1"), WaveLabel("k2")
    first, second, *rest = word.letters
    swapped = OperatorWord.build((second, first, *rest))
    factor = Monomial.build(factors=[OscExp(t1 - t2, dot(k1, k2))])
    back = Monomial.build(factors=[OscExp(t2 - t1, dot(k2, k1))])
    assert times(factor, back) == Monomial.build()
    assert sum_times(qdef_normal_order(swapped), factor) == qdef_normal_order(word)
    assert sum_times(qdef_normal_order(word), back) == qdef_normal_order(swapped)


def test_exchange_coherence():
    word = word_from_pattern([-1, -1, 1, 1])
    t1, t2 = TimeLabel("t1"), TimeLabel("t2")
    k1, k2 = WaveLabel("k1"), WaveLabel("k2")
    first, second, *rest = word.letters
    swapped = OperatorWord.build((second, first, *rest))
    factor = Monomial.build(factors=[OscExp(t1 - t2, dot(k1, k2))])
    direct = qdef_normal_order(word)
    via_swap = sum_times(qdef_normal_order(swapped), factor)
    assert direct == via_swap
    assert take_limit(direct) == take_limit(via_swap)


def test_doubled_two_point_emission():
    word = word_from_pattern([1, -1])
    t1, t2 = TimeLabel("t1"), TimeLabel("t2")
    k1, k2 = WaveLabel("k1"), WaveLabel("k2")
    expected = ScalarSum.from_iter([
        Monomial.build(
            lam=-2,
            factors=[
                OscExp(
                    t1 - t2,
                    omega(k1) - HALF * dot(k1, k1) + dot_p(k1),
                    pairing=True,
                ),
                MFactor(k1, 0),
                DeltaK(k1, k2),
            ],
        )
    ])
    assert doubled_normal_order(word, GAUSSIAN) == expected


def test_doubled_two_point_absorption():
    word = word_from_pattern([-1, 1])
    result = doubled_normal_order(word, GAUSSIAN)
    assert len(result.terms) == 1
    assert result.terms[0][0].m_factors[0][1] == 1


def test_oracles_match_engine_ten_letters():
    words = [word_from_pattern(p) for p in random.Random(10).sample(balanced_patterns(10), 6)]
    assert sweep(["finite=qdef-fock", "finite=doubled-gaussian"], words) == 0


def test_doubled_rejects_fock():
    with pytest.raises(ValueError):
        doubled_normal_order(word_from_pattern([-1, 1]), FOCK)


def test_numeric_eval_unit_and_pi():
    assert numeric_eval(ScalarSum.from_iter([Monomial.build()]), Assignment(lam=0.5)) == 1 + 0j
    # T*E = pi*lam^2 makes the exponent exp(i pi) = -1
    t1, t2 = TimeLabel("t1"), TimeLabel("t2")
    k1 = WaveLabel("k1")
    s = ScalarSum.from_iter([Monomial.build(factors=[OscExp(t1 - t2, omega(k1))])])
    import math

    lam = 0.7
    assign = Assignment(
        lam=lam,
        times={"t1": math.pi * lam**2, "t2": 0.0},
        omega={"k1": 1.0},
    )
    value = numeric_eval(s, assign)
    assert abs(value - (-1 + 0j)) < 1e-12


def test_numeric_eval_sums_each_row_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16, so a left fold leaves the row at 0.0;
    # the built-in sum compensates from Python 3.12 on and leaves 1.0, so
    # seeded reports would depend on the interpreter
    k1, k2, k3 = (WaveLabel(f"k{i}") for i in (1, 2, 3))
    row = omega(k1) + omega(k2) + omega(k3)
    s = ScalarSum.from_iter([Monomial.build(factors=[OscExp(TimeComb.of(TimeLabel("t1")), row)])])
    assign = Assignment(lam=1.0, times={"t1": 1.0}, omega={"k1": 1e16, "k2": 1.0, "k3": -1e16})
    assert numeric_eval(s, assign) == 1 + 0j


def test_numeric_eval_rejects_limit_factors():
    word = word_from_pattern([-1, 1])
    limit = take_limit(finite_lambda_correlator(word, FOCK))
    with pytest.raises(ValueError):
        numeric_eval(limit, Assignment(lam=0.5))


def test_numeric_eval_names_missing_symbol():
    word = word_from_pattern([-1, 1])
    s = finite_lambda_correlator(word, FOCK)
    with pytest.raises(UnassignedSymbolError) as err:
        numeric_eval(s, Assignment(lam=0.5, times={"t1": 0.1, "t2": 0.2}))
    assert "w(k1)" in str(err.value) or "k1" in str(err.value)


def test_numeric_dual_path_smoke():
    rng = random.Random(3)
    for pattern in [(-1, 1), (-1, -1, 1, 1), (-1, 1, -1, 1)]:
        word = word_from_pattern(pattern)
        engine = finite_lambda_correlator(word, FOCK)
        oracle = qdef_normal_order(word)
        for _ in range(10):
            assign = random_assignment([engine, oracle], rng)
            v1 = numeric_eval(engine, assign)
            v2 = numeric_eval(oracle, assign)
            assert abs(v1 - v2) <= 1e-9 * (1 + abs(v1) + abs(v2))


def test_temperature_assignment_occupation():
    word = word_from_pattern([1, -1])
    state = temperature(2.0)
    s = finite_lambda_correlator(word, state)
    assign = random_assignment([s], random.Random(1), state)
    import math

    k = "k1"
    expected = 1.0 / math.expm1(2.0 * assign.omega[k])
    assert abs(assign.occupation[k] - expected) < 1e-15
    value = numeric_eval(s, assign)
    assert value == value  # evaluates without raising


def _k9_k10_phase() -> ScalarSum:
    k9, k10 = WaveLabel("k9"), WaveLabel("k10")
    return ScalarSum.from_iter([
        Monomial.build(factors=[OscExp(TimeComb.of(TimeLabel("t1")), dot(k9, k10))])
    ])


def test_random_assignment_orders_dot_labels_naturally():
    # k9 sorts before k10 in the symbols; the assignment must key the dot
    # product the same way
    s = _k9_k10_phase()
    assert s.render() == "exp{(i/lam^2)[t1: k9.k10]}"
    assign = random_assignment([s], random.Random(1))
    assert list(assign.dot) == [("k9", "k10")]
    assert abs(abs(numeric_eval(s, assign)) - 1.0) < 1e-12


def test_dot_key_order_of_a_given_assignment_is_free():
    s = _k9_k10_phase()
    values = [
        numeric_eval(s, Assignment(lam=0.7, times={"t1": 0.4}, dot={key: 0.3}))
        for key in (("k9", "k10"), ("k10", "k9"))
    ]
    assert values[0] == values[1]


def test_random_assignment_draw_order_is_pinned():
    # Gaussian finite sum of a length-10 word with waves k5..k14: k9 and
    # k10 both survive the delta unification, and they order differently
    # by label and by string, as t9 and t10 do.  Each drawn key and the
    # float.hex() of its value, in dict order, hash to a fixed digest; a
    # changed draw order or key order changes it.  Uniform draws are exact
    # IEEE operations, so the digest holds on every platform (the
    # temperature state, whose occupations go through expm1, is left out).
    word = OperatorWord.build(
        Letter(eps, TimeLabel(f"t{i}"), WaveLabel(f"k{i + 4}"))
        for i, eps in enumerate([-1, 1] * 5, start=1)
    )
    s = finite_lambda_correlator(word, GAUSSIAN)
    assign = random_assignment([s], random.Random(1), GAUSSIAN)
    lines = [f"lam {assign.lam.hex()}"]
    for section in ("times", "omega", "dot", "dot_p", "occupation"):
        for key, value in getattr(assign, section).items():
            name = key if isinstance(key, str) else ",".join(key)
            lines.append(f"{section} {name} {value.hex()}")
    assert "dot k9,k10" in {l.rsplit(" ", 1)[0] for l in lines}
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert len(lines) == 72
    assert digest == "cf9c63ab54e5a98816988ce90236e3f643ede22135a27f7e6e17aff71de3f24d"
