from fractions import Fraction

import pytest

from stochlim.correlator import (
    FOCK,
    GAUSSIAN,
    LimitStructureError,
    StateSpec,
    _absorb,
    finite_lambda_correlator,
    limit_correlator,
    take_limit,
    temperature,
)
from stochlim.diagrams import (
    count_fock_surviving,
    enumerate_pairings,
    is_non_crossing,
    pairing_blocks,
)
from stochlim.scalars import (
    DeltaK,
    EnergyDelta,
    MFactor,
    Monomial,
    OscExp,
    ScalarSum,
    TimeDelta,
)
from stochlim.symbols import (
    EnergyComb,
    TimeComb,
    TimeLabel,
    WaveLabel,
    dot,
    dot_p,
    omega,
)
from stochlim.words import balanced_patterns, word_from_pattern

from rewriting import PATHS, STATES, _eliminate, positional_words, vacuum

HALF = Fraction(1, 2)


@pytest.mark.parametrize(
    "args", [("bogus",), ("temperature",), ("temperature", 0.0)], ids=repr
)
def test_state_spec_rejects_bad_kind_and_beta(args):
    with pytest.raises(ValueError):
        StateSpec(*args)


def test_state_spec_keeps_its_fields():
    assert temperature(2.0) == StateSpec("temperature", 2.0)
    assert temperature(2.0).beta == 2.0
    assert (FOCK.kind, FOCK.beta) == ("fock", None)


def labels(n):
    return (
        [TimeLabel(f"t{i}") for i in range(1, n + 1)],
        [WaveLabel(f"k{i}") for i in range(1, n + 1)],
    )


def absorption_pairing():
    """<a(t1,k1) a+(t2,k2)>, built by hand: creation right of annihilation."""
    (t1, t2), (k1, k2) = labels(2)
    return Monomial.build(
        lam=-2,
        factors=[
            OscExp(t2 - t1, omega(k2) + HALF * dot(k2, k2) + dot_p(k2), pairing=True),
            MFactor(k2, 1),
            DeltaK(k2, k1),
        ],
    )


def test_pairing_factor_absorption_edge():
    word = word_from_pattern([-1, 1])
    assert finite_lambda_correlator(word, GAUSSIAN) == ScalarSum.from_iter([absorption_pairing()])


def test_pairing_factor_emission_edge():
    # <a+(t1,k1) a(t2,k2)>: creation left of annihilation, N-weighted
    word = word_from_pattern([1, -1])
    (t1, t2), (k1, k2) = labels(2)
    expected = Monomial.build(
        lam=-2,
        factors=[
            OscExp(t1 - t2, omega(k1) - HALF * dot(k1, k1) + dot_p(k1), pairing=True),
            MFactor(k1, 0),
            DeltaK(k1, k2),
        ],
    )
    assert finite_lambda_correlator(word, GAUSSIAN) == ScalarSum.from_iter([expected])


def test_two_point_correlators():
    word = word_from_pattern([-1, 1])
    result = finite_lambda_correlator(word, GAUSSIAN)
    assert result == ScalarSum.from_iter([absorption_pairing()])
    # Fock keeps the N+1 edge as weight one
    fock = finite_lambda_correlator(word, FOCK)
    assert len(fock.terms) == 1 and fock.terms[0][0].m_factors == ()
    # the reversed order carries N and dies in the Fock state
    rev = finite_lambda_correlator(word_from_pattern([1, -1]), FOCK)
    assert rev.is_zero


def test_unbalanced_word_is_zero():
    assert finite_lambda_correlator(word_from_pattern([-1, 1, 1]), FOCK).is_zero
    assert finite_lambda_correlator(word_from_pattern([-1, -1, 1]), GAUSSIAN).is_zero
    assert limit_correlator(word_from_pattern([-1]), FOCK).is_zero
    assert limit_correlator(word_from_pattern([-1, -1, 1]), GAUSSIAN).is_zero


def four_point_golden():
    """The two-term exact 4-point in the Fock state, built by hand."""
    word = word_from_pattern([-1, -1, 1, 1])
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
    return word, ScalarSum.from_iter([rainbow, crossing])


def test_four_point_reproduction():
    word, expected = four_point_golden()
    assert finite_lambda_correlator(word, FOCK) == expected


def test_four_point_limit_keeps_rainbow():
    word, _ = four_point_golden()
    (t1, t2, t3, t4), (k1, k2, k3, k4) = labels(4)
    limit = take_limit(finite_lambda_correlator(word, FOCK))
    expected = ScalarSum.from_iter([
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
    assert limit == expected
    assert limit == limit_correlator(word, FOCK)


def test_limit_two_point():
    word = word_from_pattern([-1, 1])
    (t1, t2), (k1, k2) = labels(2)
    expected = ScalarSum.from_iter([
        Monomial.build(
            two_pi=1,
            factors=[
                TimeDelta(t1 - t2),
                EnergyDelta(omega(k2) + HALF * dot(k2, k2) + dot_p(k2)),
                MFactor(k2, 1),
                DeltaK(k1, k2),
            ],
        )
    ])
    assert limit_correlator(word, GAUSSIAN) == expected


def test_limit_alternating_gaussian():
    # both diagrams are non-crossing; the nested edge carries the shift
    word = word_from_pattern([-1, 1, -1, 1])
    (t1, t2, t3, t4), (k1, k2, k3, k4) = labels(4)
    disjoint = Monomial.build(
        two_pi=2,
        factors=[
            TimeDelta(t1 - t2),
            EnergyDelta(omega(k1) + HALF * dot(k1, k1) + dot_p(k1)),
            MFactor(k1, 1),
            DeltaK(k1, k2),
            TimeDelta(t3 - t4),
            EnergyDelta(omega(k3) + HALF * dot(k3, k3) + dot_p(k3)),
            MFactor(k3, 1),
            DeltaK(k3, k4),
        ],
    )
    nested = Monomial.build(
        two_pi=2,
        factors=[
            TimeDelta(t1 - t4),
            EnergyDelta(omega(k1) + HALF * dot(k1, k1) + dot_p(k1)),
            MFactor(k1, 1),
            DeltaK(k1, k4),
            TimeDelta(t2 - t3),
            EnergyDelta(
                omega(k2) - HALF * dot(k2, k2) + dot_p(k2) + dot(k1, k2)
            ),
            MFactor(k2, 0),
            DeltaK(k2, k3),
        ],
    )
    expected = ScalarSum.from_iter([disjoint, nested])
    assert limit_correlator(word, GAUSSIAN) == expected
    # the Fock state kills the N-weighted nested term
    assert len(limit_correlator(word, FOCK).terms) == 1


def test_take_limit_rules():
    t1, t2 = TimeLabel("t1"), TimeLabel("t2")
    k1 = WaveLabel("k1")
    paired = ScalarSum.from_iter([
        Monomial.build(lam=-2, factors=[OscExp(t1 - t2, omega(k1), pairing=True)])
    ])
    assert take_limit(paired) == ScalarSum.from_iter([
        Monomial.build(two_pi=1, factors=[TimeDelta(t1 - t2), EnergyDelta(omega(k1))])
    ])
    bare = ScalarSum.from_iter([Monomial.build(factors=[OscExp(t1 - t2, omega(k1))])])
    assert take_limit(bare).is_zero
    shared = ScalarSum.from_iter([
        Monomial.build(
            lam=-2,
            factors=[
                OscExp(t1 - t2, omega(k1), pairing=True),
                OscExp(t1 - t2, dot_p(k1)),
            ],
        )
    ])
    assert take_limit(shared) == ScalarSum.from_iter([
        Monomial.build(
            two_pi=1,
            factors=[TimeDelta(t1 - t2), EnergyDelta(omega(k1) + dot_p(k1))],
        )
    ])


def test_take_limit_structural_errors():
    t1, t2 = TimeLabel("t1"), TimeLabel("t2")
    k1 = WaveLabel("k1")
    with pytest.raises(LimitStructureError):
        take_limit(
            ScalarSum.from_iter([Monomial.build(lam=-2, factors=[OscExp(t1 - t2, omega(k1))])])
        )
    with pytest.raises(LimitStructureError, match="share the time label t1$"):
        take_limit(
            ScalarSum.from_iter([
                Monomial.build(
                    lam=-4,
                    factors=[
                        OscExp(t1 - t2, omega(k1), pairing=True),
                        OscExp(t1 - t2, dot_p(k1), pairing=True),
                    ],
                )
            ])
        )
    with pytest.raises(LimitStructureError):
        take_limit(
            ScalarSum.from_iter([
                Monomial.build(
                    lam=-2,
                    factors=[
                        OscExp(t1 - t2, omega(k1), pairing=True),
                        OscExp(t1 - t2, -omega(k1)),
                    ],
                )
            ])
        )
    with pytest.raises(LimitStructureError):
        take_limit(
            ScalarSum.from_iter([Monomial.build(two_pi=1, factors=[TimeDelta(t1 - t2)])])
        )


def _chained_sums():
    """Hand-built sums whose pairing quotas share a time label, each with
    what `rewriting._eliminate` solves its one term to: an energy per quota,
    in quota order, or None when the term is killed."""
    t1, t2, t3, t4 = (TimeLabel(f"t{i}") for i in (1, 2, 3, 4))
    k1, k2, k3 = (WaveLabel(f"k{i}") for i in (1, 2, 3))
    w1, w2, w3, p3 = omega(k1), omega(k2), omega(k3), dot_p(k3)

    def chain(pairs, extra=()):
        factors = [*(OscExp(t, e, pairing=True) for t, e in pairs), *extra]
        return ScalarSum.from_iter([Monomial.build(lam=-2 * len(pairs), factors=factors)])

    # eliminating t1 - t2 and t1 - t4 leaves -1 as the pivot of t2 - t3
    pivot = [(t1 - t2, w1), (t1 - t4, w2), (t2 - t3, w3)]
    return {
        "chain": (chain([(t1 - t2, w1), (t2 - t3, w2)]), [w1, w2]),
        "negative-pivot": (chain(pivot, [OscExp(t2 - t3, p3)]), [w1, w2, w3 + p3]),
        # t1 - t3 = (t1 - t2) + (t2 - t3) lies in the quota span: absorbed
        "in-span": (chain(pivot, [OscExp(t1 - t3, p3)]), [w1 + p3, w2, w3 + p3]),
        "outside-span": (chain(pivot, [OscExp(TimeComb.of(t3), p3)]), None),
    }


@pytest.mark.parametrize("case", list(_chained_sums()))
def test_elimination_solves_chained_quotas(case):
    s, expected = _chained_sums()[case]
    ((m, _),) = s.terms
    assert _eliminate(m.quotas, dict(m.osc)) == expected


def test_take_limit_chained_quotas():
    # quotas t1 - t2 and t2 - t3 share t2; no path builds such a sum
    s, _ = _chained_sums()["chain"]
    with pytest.raises(LimitStructureError, match="share the time label t2$"):
        take_limit(s)


def test_take_limit_chained_quotas_negative_pivot():
    # quotas in order t1 - t2, t1 - t4, t2 - t3: t1 is shared first, whatever
    # the rest of the term would give
    for case in ("negative-pivot", "in-span", "outside-span"):
        s, _ = _chained_sums()[case]
        with pytest.raises(LimitStructureError, match="share the time label t1$"):
            take_limit(s)


def test_take_limit_names_a_shared_label_read_from_json():
    # JSON input is the way a sum that no path built reaches take_limit
    row = [["w", ["k1"], 1, 1]]
    s = ScalarSum.from_json({"terms": [{
        "rational": [1, 1], "twoPi": 0, "lambda": -4,
        "pairs": [[["s1", 1], ["s2", -1]], [["s2", 1], ["s3", -1]]],
        "osc": [["s1", row]],
        "timeDeltas": [], "energyDeltas": [], "waveDeltas": [], "occupation": [],
    }]})
    with pytest.raises(LimitStructureError, match="share the time label s2$"):
        take_limit(s)


def test_take_limit_non_unit_pivot_stays_exact():
    # a hand-built quota 2 t1 - t2: its pivot is 2, so F = w(k1)/2 exactly
    t1, t2 = TimeLabel("t1"), TimeLabel("t2")
    k1 = WaveLabel("k1")
    quota = TimeComb.make([(t1, 2), (t2, -1)])
    s = ScalarSum.from_iter([
        Monomial.build(
            lam=-2,
            quotas=[quota],
            factors=[
                OscExp(TimeComb.of(t1), omega(k1)),
                OscExp(TimeComb.of(t2), -HALF * omega(k1)),
            ],
        )
    ])
    limit = take_limit(s)
    assert limit == ScalarSum.from_iter([
        Monomial.build(
            two_pi=1, factors=[TimeDelta(quota), EnergyDelta(HALF * omega(k1))]
        )
    ])
    ((m, c),) = limit.terms
    ((_, half),) = m.energy_deltas[0].terms
    assert half == HALF and type(half) is Fraction
    coefficients = [c] + [
        x for comb in m.time_deltas + m.energy_deltas for _, x in comb.terms
    ]
    assert not any(isinstance(x, float) for x in coefficients)


def test_absorb_matches_elimination_on_every_path_term():
    for word in positional_words(8):
        for state in STATES.values():
            for m, _ in finite_lambda_correlator(word, state).terms:
                rows = dict(m.osc)
                assert _absorb(m.quotas, rows) == _eliminate(m.quotas, rows), m


def _disjoint_cases():
    t1, t2, t3 = (TimeLabel(f"t{i}") for i in (1, 2, 3))
    k1 = WaveLabel("k1")
    w = omega(k1)
    double = TimeComb.make([(t1, 2), (t2, -1)])
    return {
        # a row on a label no quota covers kills the term, even when every
        # quota row is zero and the quota's energy would vanish
        "uncovered-row": ([t1 - t2], {t3: w}, None),
        "single-label-quota": ([TimeComb.of(t1)], {t1: w}, [w]),
        "other-row-missing": ([t1 - t2], {t1: w}, None),
        "no-row-at-all": ([t1 - t2], {}, [EnergyComb.zero()]),
        "opposite-rows": ([t1 - t2], {t1: w, t2: -w}, [w]),
        "coefficient-2": ([double], {t1: w, t2: -HALF * w}, [HALF * w]),
        "coefficient-2-mismatch": ([double], {t1: w, t2: -w}, None),
    }


@pytest.mark.parametrize("case", list(_disjoint_cases()))
def test_absorb_matches_elimination_on_hand_built_disjoint_quotas(case):
    quotas, rows, expected = _disjoint_cases()[case]
    assert _absorb(quotas, rows) == _eliminate(quotas, rows) == expected


def test_take_limit_kills_an_uncovered_row_before_a_vanishing_energy():
    t1, t2, t3 = (TimeLabel(f"t{i}") for i in (1, 2, 3))
    s = ScalarSum.from_iter([
        Monomial.build(
            lam=-2,
            quotas=[t1 - t2],
            factors=[OscExp(TimeComb.of(t3), omega(WaveLabel("k1")))],
        )
    ])
    assert take_limit(s).is_zero


def test_lambda_power_bookkeeping():
    for pattern in balanced_patterns(6):
        word = word_from_pattern(pattern)
        for m, _ in finite_lambda_correlator(word, GAUSSIAN).terms:
            assert m.lam == -6
            assert len(m.quotas) == 3


def test_limit_factor_counts():
    for pattern in balanced_patterns(6):
        word = word_from_pattern(pattern)
        for m, _ in limit_correlator(word, GAUSSIAN).terms:
            assert len(m.time_deltas) == 3
            assert len(m.energy_deltas) == 3
            assert len(m.delta_k) == 3
            assert len(m.m_factors) == 3


def test_crossing_terms_match_non_crossing_counts():
    from stochlim.diagrams import count_non_crossing, is_non_crossing

    for pattern in balanced_patterns(6):
        word = word_from_pattern(pattern)
        assert len(limit_correlator(word, GAUSSIAN).terms) == count_non_crossing(
            pattern
        )
        fock_surviving = sum(
            1
            for d in enumerate_pairings(pattern)
            if is_non_crossing(d) and all(e.delta == 1 for e in d)
        )
        assert len(limit_correlator(word, FOCK).terms) == fock_surviving


def whole_diagram_monomial(word, edges, crossing=True):
    """The exact monomial of one pairing, built diagram by diagram: every
    edge's enclosing and crossing edges by the interval definitions, its
    energy summed here term by term, and one single-time exponent per
    crossing vertex; with crossing=False none, the undeformed (q = 1)
    bosonic exchange."""
    letters = word.letters
    factors = []
    for f in edges:
        cre = letters[f.creation - 1]
        ann = letters[f.annihilation - 1]
        k = cre.wave
        energy = omega(k) + Fraction(f.delta, 2) * dot(k, k) + dot_p(k)
        for e in edges:
            k_e = letters[e.creation - 1].wave
            if e.a < f.a < f.b < e.b:
                energy = energy + e.delta * dot(k_e, k)
            elif crossing and e.a < f.a < e.b < f.b:  # e has the vertex f.a, f has e.b
                for pos, edge in ((f.a, e), (e.b, f)):
                    vertex = letters[pos - 1]
                    coeff = vertex.eps * edge.delta
                    factors.append(OscExp(TimeComb.of(vertex.time), coeff * dot(k_e, k)))
        factors += [
            OscExp(cre.time - ann.time, energy, pairing=True),
            MFactor(k, (f.delta + 1) // 2),
            DeltaK(k, ann.wave),
        ]
    return Monomial.build(lam=-2 * len(edges), factors=factors)


def test_fock_sum_is_the_state_applied_to_every_pairing():
    """In the Fock state only the vacuum pairings are built: the state's
    rule N = 0 (`vacuum`) drops none of their terms, only turns each (N+1)
    into 1, and the sum equals the state applied to the sum over every
    pairing, which is the Gaussian sum."""
    for word in positional_words(8):
        pairings = enumerate_pairings(word.pattern)
        every = ScalarSum.from_iter(whole_diagram_monomial(word, d) for d in pairings)
        wick = ScalarSum.from_iter(
            whole_diagram_monomial(word, d) for d in pairings if all(e.delta == 1 for e in d)
        )
        assert all(o == 1 for m, _ in wick.terms for _, o in m.m_factors)
        kept = vacuum(wick)
        assert len(kept.terms) == len(wick.terms) == count_fock_surviving(word.pattern)
        assert kept == finite_lambda_correlator(word, FOCK)
        assert every == finite_lambda_correlator(word, GAUSSIAN), word.pattern
        assert kept == vacuum(every)


@pytest.mark.parametrize("n, kept, differ", [(4, 12, 4), (6, 120, 20), (8, 1680, 70)])
def test_q_one_control_keeps_every_pairing(n, kept, differ):
    """The paper's claim run in reverse: without the crossing-vertex
    exponents (q = 1, bosonic exchange) every pairing survives the limit,
    so the limit differs from the free master field exactly on the
    patterns that have a crossing pairing."""
    from stochlim.masterfield import free_correlator

    total, differing = 0, 0
    for pattern in balanced_patterns(n):
        word = word_from_pattern(pattern)
        pairings = enumerate_pairings(pattern)
        bosonic = ScalarSum.from_iter(
            whole_diagram_monomial(word, d, crossing=False) for d in pairings
        )
        limit = take_limit(bosonic)
        assert len(limit.terms) == len(pairings)
        total += len(limit.terms)
        crossing = not all(is_non_crossing(d) for d in pairings)
        assert (limit != free_correlator(word, GAUSSIAN)) == crossing, pattern
        differing += crossing
    assert (total, differing) == (kept, differ)


def test_fock_state_enumerates_no_pairing(monkeypatch):
    """The Fock state asks for the vacuum pairings only: the 12-letter
    alternating word has 720 pairings and one vacuum pairing."""
    from stochlim import correlator

    made = []

    def counted(pattern, block, fock=False, non_crossing=False):
        pairings = pairing_blocks(pattern, block, fock, non_crossing)
        made.append((fock, non_crossing, len(pairings)))
        return pairings

    monkeypatch.setattr(correlator, "pairing_blocks", counted)
    word = word_from_pattern((-1, 1) * 6)
    assert len(finite_lambda_correlator(word, FOCK).terms) == 1
    assert made == [(True, False, 1)]
    assert len(enumerate_pairings(word.pattern)) == 720


@pytest.mark.parametrize("tokens,built", [((1, -1), 0), ((-1, 1), 1)])
def test_fock_limit_builds_only_vacuum_diagrams(monkeypatch, tokens, built):
    """On 16 letters: a+ a repeated has no vacuum pairing, a a+ repeated one;
    each has 1430 non-crossing pairings.  Each term is assembled once, by
    `Monomial._canonical`."""
    canonical = Monomial._canonical
    made = []

    def counted(*args, **kwargs):
        made.append(1)
        return canonical(*args, **kwargs)

    monkeypatch.setattr(Monomial, "_canonical", counted)
    word = word_from_pattern(tokens * 8)
    assert len(limit_correlator(word, FOCK).terms) == built
    assert len(made) == built


def test_exact_sum_makes_each_edge_energy_once(monkeypatch):
    """On the 12-letter alternating word in the Gaussian state: one energy
    per edge and tuple of straddling edges, the earlier edges whose right
    end lies past its left end, shifted by those of them that enclose it."""
    from stochlim import correlator

    word = word_from_pattern((-1, 1) * 6)
    straddled = {
        (f, tuple(e for e in edges if e.a < f.a < e.b))
        for edges in enumerate_pairings(word.pattern)
        for f in edges
    }
    made = []
    edge_energy = correlator._edge_energy

    def counted(wave, edge, enclosing):
        made.append((edge, tuple(enclosing)))
        return edge_energy(wave, edge, enclosing)

    monkeypatch.setattr(correlator, "_edge_energy", counted)
    assert len(finite_lambda_correlator(word, GAUSSIAN).terms) == 720
    assert len(made) == len(straddled)
    assert set(made) == {(f, tuple(e for e in s if f.b < e.b)) for f, s in straddled}


@pytest.mark.parametrize(
    "sum_of, letters, terms, edges",
    [(finite_lambda_correlator, 6, 720, 36), (limit_correlator, 8, 1430, 64)],
)
def test_each_edge_makes_its_factors_once(monkeypatch, sum_of, letters, terms, edges):
    """In the Gaussian state on the alternating word a a+ repeated: one
    momentum delta per edge, not one per edge and tuple of straddling
    edges (finite) or enclosing edges (limit)."""
    from stochlim import correlator

    made = []

    def counted(left, right):
        made.append((left, right))
        return DeltaK(left, right)

    monkeypatch.setattr(correlator, "DeltaK", counted)
    word = word_from_pattern((-1, 1) * letters)
    assert len(sum_of(word, GAUSSIAN).terms) == terms
    assert len(made) == len(set(made)) == edges


def test_each_energy_is_merged_at_most_once(monkeypatch):
    """In the Gaussian state on one positional word, whose free walk
    substitutes no wave: an edge energy with no enclosing edge and a
    contraction energy with no passed letter take no `EnergyComb.make`,
    a shifted one takes exactly one, and the two paths merge no other
    energy."""
    from stochlim import correlator, masterfield, symbols
    from stochlim.masterfield import free_correlator

    merges = []
    make = symbols._Comb.make.__func__

    def counting_make(cls, items):
        if cls is EnergyComb:
            merges.append(cls)
        return make(cls, items)

    made = []  # per energy: (letters it is shifted over, merges it took)

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(a, b, shifted_over, *rest):
            before = len(merges)
            out = inner(a, b, shifted_over, *rest)
            made.append((len(shifted_over), len(merges) - before))
            return out

        monkeypatch.setattr(module, name, wrapper)

    monkeypatch.setattr(symbols._Comb, "make", classmethod(counting_make))
    counted(correlator, "_edge_energy")
    counted(masterfield, "_contract")
    word = word_from_pattern((-1, -1, 1, -1, 1, 1, -1, 1, 1, -1))
    assert limit_correlator(word, GAUSSIAN) == free_correlator(word, GAUSSIAN)
    assert {n > 0 for n, _ in made} == {True, False}
    assert [m for _, m in made] == [1 if n else 0 for n, _ in made]
    assert len(merges) == sum(1 for n, _ in made if n)


CYCLE_WORD = "a a+ a a a+ a+ a a+ a a+"


def _cycle_paths():
    from stochlim.diagrams import count_non_crossing
    from stochlim.masterfield import check_free_equivalence

    def blocks(**kind):
        return lambda w: pairing_blocks(w.pattern, lambda edge, straddling: edge, **kind)

    return {
        "free_correlator": PATHS["free-gaussian"],
        "limit_correlator": PATHS["limit-gaussian"],
        "limit_correlator-fock": PATHS["limit-fock"],
        "check_free_equivalence": lambda w: check_free_equivalence(w, GAUSSIAN),
        "non_crossing_pairings": blocks(non_crossing=True),
        "count_non_crossing": lambda w: count_non_crossing(w.pattern),
        "enumerate_pairings": lambda w: enumerate_pairings(w.pattern),
        "pairing_blocks-fock": blocks(fock=True),
        "finite_lambda_correlator-fock": PATHS["finite-fock"],
        "finite_lambda_correlator-gaussian": PATHS["finite-gaussian"],
        "take_limit": lambda w: take_limit(PATHS["finite-gaussian"](w)),
        "qdef_normal_order": PATHS["qdef-fock"],
        "doubled_normal_order": PATHS["doubled-gaussian"],
    }


@pytest.mark.parametrize("path", sorted(_cycle_paths()))
def test_paths_leave_nothing_to_the_cyclic_collector(path):
    """Every call frees its own work by reference counting: with the
    collector off, a call leaves no unreachable object behind."""
    import gc

    from stochlim.words import parse_pattern

    word = word_from_pattern(parse_pattern(CYCLE_WORD))
    run = _cycle_paths()[path]
    gc.collect()
    gc.disable()
    try:
        run(word)
        assert gc.collect() == 0
    finally:
        gc.enable()


def whole_diagram_limit(word, state):
    """The limit built diagram by diagram: every non-crossing pairing, each
    edge's enclosing edges by the interval definition, and one block per
    edge whose energy is summed here term by term; in the Fock state the
    vacuum's rule is applied to the whole sum."""
    letters = word.letters
    terms = []
    for edges in filter(is_non_crossing, enumerate_pairings(word.pattern)):
        factors = []
        for edge in edges:
            enclosing = [o for o in edges if o.a < edge.a < edge.b < o.b]
            cre = letters[edge.creation - 1]
            ann = letters[edge.annihilation - 1]
            k = cre.wave
            energy = omega(k) + Fraction(edge.delta, 2) * dot(k, k) + dot_p(k)
            for o in enclosing:
                energy = energy + o.delta * dot(letters[o.creation - 1].wave, k)
            factors += [
                TimeDelta(cre.time - ann.time),
                EnergyDelta(energy),
                MFactor(k, (edge.delta + 1) // 2),
                DeltaK(k, ann.wave),
            ]
        terms.append(Monomial.build(two_pi=len(edges), factors=factors))
    s = ScalarSum.from_iter(terms)
    return vacuum(s) if state.kind == "fock" else s


def test_limit_walk_matches_whole_diagrams():
    for word in positional_words(10):
        for state in STATES.values():
            expected = whole_diagram_limit(word, state)
            assert limit_correlator(word, state) == expected, (word.pattern, state.kind)


def test_limit_walk_matches_whole_diagrams_at_fourteen_letters():
    import random

    for pattern in random.Random(14).sample(balanced_patterns(14), 40):
        word = word_from_pattern(pattern)
        expected = whole_diagram_limit(word, GAUSSIAN)
        assert limit_correlator(word, GAUSSIAN) == expected, pattern


def test_limit_walk_matches_whole_diagrams_on_relabelled_words():
    from test_label_independence import relabelled_words

    for word in relabelled_words():
        for state in (FOCK, GAUSSIAN):
            assert limit_correlator(word, state) == whole_diagram_limit(word, state)


def test_limit_walk_makes_each_edge_energy_once(monkeypatch):
    """On the 16-letter alternating word: one energy per edge and tuple of
    edges enclosing it (outermost first)."""
    from stochlim import correlator

    word = word_from_pattern((-1, 1) * 8)
    expected = {
        (edge, tuple(o for o in edges if o.a < edge.a < edge.b < o.b))
        for edges in filter(is_non_crossing, enumerate_pairings(word.pattern))
        for edge in edges
    }
    made = []
    edge_energy = correlator._edge_energy

    def counted(wave, edge, enclosing):
        made.append((edge, tuple(enclosing)))
        return edge_energy(wave, edge, enclosing)

    monkeypatch.setattr(correlator, "_edge_energy", counted)
    assert len(limit_correlator(word, GAUSSIAN).terms) == 1430
    assert len(made) == len(set(made)) == len(expected)
    assert set(made) == expected
