"""The three paths agree on words whose labels are not t1..tN / k1..kN.

The representative of a momentum-delta chain is its smallest label in
label order, so relabelling changes which label survives unification.
Multi-digit names, leading zeros and letters other than t/k put that
order out of step with the letters' positions.
"""

import random

import pytest

from stochlim.correlator import (
    FOCK,
    GAUSSIAN,
    finite_lambda_correlator,
    limit_correlator,
    take_limit,
)
from stochlim.masterfield import free_correlator
from stochlim.oracle import doubled_normal_order, qdef_normal_order
from stochlim.symbols import TimeLabel, WaveLabel
from stochlim.words import Letter, OperatorWord, balanced_patterns


def _names(rng: random.Random, count: int) -> list[str]:
    names: set[str] = set()
    while len(names) < count:
        digits = str(rng.randint(0, 60))
        if rng.random() < 0.2:
            digits = "0" + digits
        names.add(rng.choice("squkv") + digits)
    return rng.sample(sorted(names), count)


def relabelled_words() -> list[OperatorWord]:
    rng = random.Random(2020)
    words = []
    for n in (2, 4, 6, 8):
        for pattern in rng.sample(balanced_patterns(n), min(4, len(balanced_patterns(n)))):
            names = _names(rng, 2 * n)
            words.append(
                OperatorWord.build(
                    Letter(eps, TimeLabel(t), WaveLabel(k))
                    for eps, t, k in zip(pattern, names[:n], names[n:])
                )
            )
    return words


def _word_id(word: OperatorWord) -> str:
    return "-".join(
        f"{'a' if l.eps == -1 else 'a+'}:{l.time.name}:{l.wave.name}" for l in word.letters
    )


@pytest.mark.parametrize("word", relabelled_words(), ids=_word_id)
def test_paths_agree_on_relabelled_words(word):
    finite_fock = finite_lambda_correlator(word, FOCK)
    finite_gaussian = finite_lambda_correlator(word, GAUSSIAN)
    assert finite_fock == qdef_normal_order(word)
    assert finite_gaussian == doubled_normal_order(word, GAUSSIAN)
    for state, finite in ((FOCK, finite_fock), (GAUSSIAN, finite_gaussian)):
        limit = limit_correlator(word, state)
        assert take_limit(finite) == limit
        assert limit == free_correlator(word, state)
