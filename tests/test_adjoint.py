"""Each path on its own satisfies <W>* = <W+>: the conjugate of a word's
value is the value of its adjoint.  The relation needs no second path, so
it can catch a fault that every path shares, one that breaks the word's
mirror symmetry, which no cross-check between paths can see."""

import pytest

from stochlim.words import format_pattern, word_from_pattern

from rewriting import PATHS, adjoint, conjugate, positional_words
from test_label_independence import _word_id, relabelled_words


def test_adjoint_reverses_and_flips():
    word = word_from_pattern([-1, 1, -1, -1, 1, 1])
    dagger = adjoint(word)
    assert dagger.pattern == (-1, -1, 1, 1, -1, 1)
    assert [(l.time, l.wave) for l in dagger] == [(l.time, l.wave) for l in reversed(word)]
    assert adjoint(dagger) == word


@pytest.mark.parametrize("path", PATHS.values(), ids=PATHS.keys())
def test_conjugate_is_the_adjoints_value(path):
    for word in positional_words(8):
        assert conjugate(path(word)) == path(adjoint(word)), format_pattern(word.pattern)


@pytest.mark.parametrize("word", relabelled_words(), ids=_word_id)
def test_conjugate_is_the_adjoints_value_on_relabelled_words(word):
    for name, path in PATHS.items():
        assert conjugate(path(word)) == path(adjoint(word)), name
