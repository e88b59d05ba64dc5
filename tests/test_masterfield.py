import json
import random
from fractions import Fraction
from itertools import product

import pytest

from stochlim.cli import main
from stochlim.correlator import FOCK, GAUSSIAN, limit_correlator
from stochlim.diagrams import count_non_crossing
from stochlim import masterfield
from stochlim.masterfield import check_free_equivalence, free_correlator
from stochlim.oracle import _ccr_step
from stochlim.scalars import (
    DeltaK,
    EnergyDelta,
    MFactor,
    Monomial,
    ScalarSum,
    TimeDelta,
)
from stochlim.symbols import TimeLabel, WaveLabel, dot, dot_p, omega
from stochlim.words import (
    MasterLetter,
    balanced_patterns,
    expand_master_word,
    normal_order,
    word_from_pattern,
)

from rewriting import (
    _free_step,
    normal_order_at,
    positional_words,
    reduce_all_orders,
    species_product,
    sweep,
    vacuum,
)

HALF = Fraction(1, 2)


def passes_ballot(branch):
    """Per species, no prefix has more creators than annihilators, and
    both species end balanced."""
    open_ann = {1: 0, 2: 0}
    for l in branch:
        open_ann[l.species] += -1 if l.dag else 1
        if open_ann[l.species] < 0:
            return False
    return open_ann == {1: 0, 2: 0}


def free_by_rewriting(word):
    """The free path by rewriting, before the state is applied: every
    vacuum-pruned species branch normal-ordered with the free step."""
    return ScalarSum.from_iter(
        Monomial.build(two_pi=len(word) // 2, factors=factors)
        for branch in expand_master_word(word)
        for factors in normal_order(branch, _free_step)
    )


def labels(n):
    return (
        [TimeLabel(f"t{i}") for i in range(1, n + 1)],
        [WaveLabel(f"k{i}") for i in range(1, n + 1)],
    )


def test_two_point_absorption_channel():
    word = word_from_pattern([-1, 1])
    (t1, t2), (k1, k2) = labels(2)
    expected = ScalarSum.from_iter([
        Monomial.build(
            two_pi=1,
            factors=[
                TimeDelta(t1 - t2),
                EnergyDelta(omega(k1) + HALF * dot(k1, k1) + dot_p(k1)),
                MFactor(k1, 1),
                DeltaK(k1, k2),
            ],
        )
    ])
    assert free_correlator(word, GAUSSIAN) == expected


def test_two_point_emission_channel():
    word = word_from_pattern([1, -1])
    (t1, t2), (k1, k2) = labels(2)
    expected = ScalarSum.from_iter([
        Monomial.build(
            two_pi=1,
            factors=[
                TimeDelta(t2 - t1),
                EnergyDelta(omega(k2) - HALF * dot(k2, k2) + dot_p(k2)),
                MFactor(k2, 0),
                DeltaK(k2, k1),
            ],
        )
    ])
    assert free_correlator(word, GAUSSIAN) == expected
    # only the occupation-weighted channel contributes, so Fock kills it
    assert free_correlator(word, FOCK).is_zero


def test_nested_four_point_inner_shift():
    word = word_from_pattern([-1, -1, 1, 1])
    result = free_correlator(word, GAUSSIAN)
    assert len(result.terms) == 1
    (t, k) = labels(4)
    k1, k2 = k[0], k[1]
    inner = omega(k2) + HALF * dot(k2, k2) + dot_p(k2) + dot(k1, k2)
    assert inner.normalized() in result.terms[0][0].energy_deltas


def test_expansion_keeps_the_ballot_branches():
    # every word up to N=8, balanced or not; the dropped branches are
    # rewritten by both rewriting paths up to N=6 (N=8 would add about
    # 40 s on a 2-core VM), at the leftmost site but without the driver's
    # dead-end rule, so the check does not rest on it
    for n in range(1, 9):
        for pattern in product((-1, 1), repeat=n):
            word = word_from_pattern(pattern)
            full = species_product(word)
            assert expand_master_word(word) == [
                b for b in full if passes_ballot(b)
            ], pattern
            if n > 6:
                continue
            for branch in full:
                if passes_ballot(branch):
                    continue
                for step in (_free_step, _ccr_step):
                    assert normal_order_at(branch, step, lambda sites: sites[0]) == [], branch


def test_cross_species_adjacency_vanishes():
    t, k = labels(4)
    letters = (
        MasterLetter(1, False, t[0], k[0]),
        MasterLetter(2, True, t[1], k[1]),
    )
    assert normal_order(letters, _free_step) == []


def test_unreducible_word_vanishes():
    t, k = labels(2)
    letters = (
        MasterLetter(2, True, t[0], k[0]),
        MasterLetter(2, False, t[1], k[1]),
    )
    assert normal_order(letters, _free_step) == []


def test_reduction_confluence():
    for word in positional_words(6):
        for branch in species_product(word):
            assert len(reduce_all_orders(branch)) == 1


def test_stack_walk_equals_rewriting():
    # every word up to N=10, balanced or not
    for n in range(1, 11):
        for pattern in product((-1, 1), repeat=n):
            word = word_from_pattern(pattern)
            reference = free_by_rewriting(word)
            assert free_correlator(word, GAUSSIAN) == reference, pattern
            assert free_correlator(word, FOCK) == vacuum(reference), pattern


def test_channel_count_equals_non_crossing():
    for word in positional_words(10):
        assert len(free_correlator(word, GAUSSIAN).terms) == count_non_crossing(word.pattern)


def test_free_equivalence_ten_letters():
    words = [word_from_pattern(p) for p in balanced_patterns(10)]
    assert sweep(["limit=free-gaussian"], words) == 0


def test_free_equivalence_sixteen_letters():
    rng = random.Random(16)
    words = []
    for _ in range(40):
        pattern = [-1] * 8 + [1] * 8
        rng.shuffle(pattern)
        words.append(word_from_pattern(pattern))
    assert sweep(["limit=free-gaussian"], words) == 0


def _tampered_free(word, state):
    # the limit with its first term dropped, when it has two or more, and
    # the first remaining term's rational doubled
    terms = list(limit_correlator(word, state).terms)
    if len(terms) > 1:
        terms.pop(0)
    if terms:
        m, rational = terms[0]
        terms[0] = (m, 2 * rational)
    return ScalarSum(tuple(terms))


def test_equivalence_report_lists_each_side(monkeypatch):
    monkeypatch.setattr("stochlim.masterfield.free_correlator", _tampered_free)
    word = word_from_pattern([-1, 1, -1, 1])
    dropped, doubled = (ScalarSum((t,)) for t in limit_correlator(word, GAUSSIAN).terms[:2])
    report = check_free_equivalence(word, GAUSSIAN)
    assert not report.equal
    assert set(report.only_diagram) == {dropped.render(), doubled.render()}
    assert set(report.only_free) == {doubled.scale(2).render()}


def test_check_free_prints_mismatches_and_exits_1(monkeypatch, capsys):
    monkeypatch.setattr("stochlim.masterfield.free_correlator", _tampered_free)
    assert main(["--mode", "check-free", "--max-n", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    term = limit_correlator(word_from_pattern([-1, 1]), FOCK)
    assert len(term.terms) == 1
    at = lines.index("MISMATCH a a+")
    assert lines[at + 1 : at + 3] == [
        f"  only diagram path: {term.render()}",
        f"  only free path:    {term.scale(2).render()}",
    ]
    assert "ok a+ a" in lines  # a zero limit has nothing to tamper with
    assert lines[-1] == "checked: 8  mismatches: 3"


def test_check_free_json_lists_the_differing_terms(monkeypatch, capsys):
    monkeypatch.setattr("stochlim.masterfield.free_correlator", _tampered_free)
    assert main(["--mode", "check-free", "--max-n", "4", "--json"]) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    entries = {d["pattern"]: d for d in result["patterns"]}
    term = limit_correlator(word_from_pattern([-1, 1]), FOCK)
    assert len(term.terms) == 1
    assert entries["a a+"] == {
        "pattern": "a a+",
        "equal": False,
        "onlyDiagram": [term.render()],
        "onlyFree": [term.scale(2).render()],
    }
    # a matching pattern keeps its two keys, so passing reports are unchanged
    assert entries["a+ a"] == {"pattern": "a+ a", "equal": True}
    assert result["mismatches"] == 3



@pytest.mark.parametrize("tokens,built", [((1, -1), 0), ((-1, 1), 1)])
def test_fock_walk_builds_only_vacuum_branches(monkeypatch, tokens, built):
    """On 16 letters: a+ a repeated has no vacuum branch, a a+ repeated one;
    each has 1430 live species branches in the Gaussian state.  Each term
    is assembled once, by `Monomial._canonical`."""
    canonical = Monomial._canonical
    made = []

    def counted(*args, **kwargs):
        made.append(1)
        return canonical(*args, **kwargs)

    monkeypatch.setattr(Monomial, "_canonical", counted)
    word = word_from_pattern(tokens * 8)
    assert len(free_correlator(word, FOCK).terms) == built
    assert len(made) == built


def test_walk_makes_each_contraction_once(monkeypatch):
    keys = []
    contract = masterfield._contract

    def counted(ann, cre, passed, fock):
        keys.append((ann, cre, tuple(passed)))
        return contract(ann, cre, passed, fock)

    monkeypatch.setattr(masterfield, "_contract", counted)
    word = word_from_pattern([-1, 1] * 8)
    value = free_correlator(word, GAUSSIAN)
    assert len(value.terms) == count_non_crossing(word.pattern) == 1430
    assert len(keys) == len(set(keys)) == 502
