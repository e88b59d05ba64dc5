"""The paths agree: every row of the specification, `rewriting.EQUALITIES`,
holds on every balanced pattern up to N=8, once on the positional words
and once on words whose labels are not t1..tN / k1..kN.

The representative of a momentum-delta chain is its smallest label in
label order, so relabelling changes which label survives unification.
Multi-digit names, leading zeros and letters other than t/k put that
order out of step with the letters' positions.
"""

import random

import pytest

from stochlim.scalars import ScalarSum
from stochlim.symbols import TimeLabel, WaveLabel
from stochlim.words import Letter, OperatorWord, balanced_patterns

from rewriting import EQUALITIES, evaluate, positional_words, sweep


def _names(rng: random.Random, count: int) -> list[str]:
    names: set[str] = set()
    while len(names) < count:
        digits = str(rng.randint(0, 60))
        if rng.random() < 0.2:
            digits = "0" + digits
        names.add(rng.choice("squkv") + digits)
    return rng.sample(sorted(names), count)


def _word(pattern, names: list[str]) -> OperatorWord:
    n = len(pattern)
    return OperatorWord.build(
        Letter(eps, TimeLabel(t), WaveLabel(k))
        for eps, t, k in zip(pattern, names[:n], names[n:])
    )


def relabelled_words() -> list[OperatorWord]:
    """Every balanced pattern up to N=8 with seeded label names: four
    sampled patterns per length first, then the rest in pattern order."""
    rng = random.Random(2020)
    words, rest = [], []
    for n in (2, 4, 6, 8):
        patterns = balanced_patterns(n)
        sampled = rng.sample(patterns, min(4, len(patterns)))
        words += [_word(pattern, _names(rng, 2 * n)) for pattern in sampled]
        rest += [p for p in patterns if p not in sampled]
    return words + [_word(pattern, _names(rng, 2 * len(pattern))) for pattern in rest]


def _word_id(word: OperatorWord) -> str:
    return "-".join(
        f"{'a' if l.eps == -1 else 'a+'}:{l.time.name}:{l.wave.name}" for l in word.letters
    )


@pytest.mark.parametrize("row", EQUALITIES)
def test_paths_agree(row):
    assert sweep([row], positional_words(8)) == 0


@pytest.mark.parametrize("word", relabelled_words(), ids=_word_id)
def test_paths_agree_on_relabelled_words(word):
    """Every row holds, and each row's value reads back from its JSON form
    unchanged: `ScalarSum.from_json` unifies each term again through
    `Monomial.build`, so a term left ununified by its path would differ."""
    memo: dict = {}
    for row, (left, right) in EQUALITIES.items():
        value = evaluate(left, word, memo)
        assert value == evaluate(right, word, memo), row
        assert ScalarSum.from_json(value.to_json()) == value, row
