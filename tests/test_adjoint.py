"""Each path on its own satisfies <W>* = <W+>: the conjugate of a word's
value is the value of its adjoint.  The relation needs no second path, so
it can catch a fault that every path shares, one that breaks the word's
mirror symmetry, which no cross-check between paths can see."""

import pytest

from stochlim.correlator import (
    FOCK,
    GAUSSIAN,
    finite_lambda_correlator,
    limit_correlator,
    temperature,
)
from stochlim.masterfield import free_correlator
from stochlim.oracle import doubled_normal_order, qdef_normal_order
from stochlim.words import balanced_patterns, format_pattern, word_from_pattern

from rewriting import adjoint, conjugate
from test_label_independence import _word_id, relabelled_words

THERMAL = temperature(1.0)
STATES = {"fock": FOCK, "gaussian": GAUSSIAN, "temperature": THERMAL}

# name -> the path's value of a word
PATHS = {
    **{
        f"{name}-{kind}": lambda word, path=path, state=state: path(word, state)
        for name, path in (
            ("finite", finite_lambda_correlator),
            ("limit", limit_correlator),
            ("free", free_correlator),
        )
        for kind, state in STATES.items()
    },
    "qdef-fock": qdef_normal_order,
    "doubled-gaussian": lambda word: doubled_normal_order(word, GAUSSIAN),
    "doubled-temperature": lambda word: doubled_normal_order(word, THERMAL),
}


def test_adjoint_reverses_and_flips():
    word = word_from_pattern([-1, 1, -1, -1, 1, 1])
    dagger = adjoint(word)
    assert dagger.pattern == (-1, -1, 1, 1, -1, 1)
    assert [(l.time, l.wave) for l in dagger] == [(l.time, l.wave) for l in reversed(word)]
    assert adjoint(dagger) == word


@pytest.mark.parametrize("path", PATHS.values(), ids=PATHS.keys())
def test_conjugate_is_the_adjoints_value(path):
    for n in range(2, 9, 2):
        for pattern in balanced_patterns(n):
            word = word_from_pattern(pattern)
            assert conjugate(path(word)) == path(adjoint(word)), format_pattern(pattern)


@pytest.mark.parametrize("word", relabelled_words(), ids=_word_id)
def test_conjugate_is_the_adjoints_value_on_relabelled_words(word):
    for name, path in PATHS.items():
        assert conjugate(path(word)) == path(adjoint(word)), name
