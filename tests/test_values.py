"""The value types keep what their users rely on: they cannot be changed,
combinations of different classes never compare equal, and a word is the
tuple of its letters."""

import copy
import pickle

import pytest

from stochlim.correlator import GAUSSIAN, StateSpec, finite_lambda_correlator
from stochlim.diagrams import Edge
from stochlim.oracle import Assignment
from stochlim.symbols import EnergyComb, TimeComb, TimeLabel, WaveLabel, dot
from stochlim.words import Letter, OperatorWord, balanced_patterns, word_from_pattern

t1, t2, k1, k2 = TimeLabel("t1"), TimeLabel("t2"), WaveLabel("k1"), WaveLabel("k2")
MONOMIAL = finite_lambda_correlator(word_from_pattern([-1, 1]), GAUSSIAN).terms[0][0]

VALUES = {
    "Letter": (Letter(-1, t1, k1), "eps"),
    "Edge": (Edge(2, 1), "creation"),
    "StateSpec": (StateSpec("gaussian"), "kind"),
    "Monomial": (MONOMIAL, "lam"),
    "OperatorWord": (word_from_pattern([-1, 1]), "letters"),
    "TimeComb": (t1 - t2, "terms"),
    "_EBasis": (dot(k1, k2).terms[0][0], "waves"),
    "Assignment": (Assignment(lam=0.5, times={"t1": 0.1}), "times"),
}


@pytest.mark.parametrize("value, field", VALUES.values(), ids=VALUES.keys())
def test_fields_cannot_be_assigned(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        value.no_such_field = 1
    assert getattr(value, field) is before


def test_combinations_of_different_classes_differ():
    assert TimeComb.zero() != EnergyComb.zero()
    assert TimeComb.zero() == TimeComb.zero()
    assert hash(TimeComb.zero()) == hash(TimeComb.zero())


def test_word_length_is_its_letter_count():
    for n in range(0, 9, 2):
        assert balanced_patterns(n + 1) == []
        for pattern in balanced_patterns(n) + [(1,) * (n + 1)]:
            assert len(word_from_pattern(pattern)) == len(pattern)


def test_words_compare_and_copy_by_their_letters():
    word = word_from_pattern([-1, -1, 1, 1])
    assert word == word_from_pattern([-1, -1, 1, 1]) != word_from_pattern([-1, 1, -1, 1])
    assert hash(word) == hash(word_from_pattern([-1, -1, 1, 1]))
    for copied in (copy.deepcopy(word), pickle.loads(pickle.dumps(word))):
        assert copied == word and copied.letters == word.letters


def test_a_word_is_the_tuple_of_its_letters():
    pattern = (-1, 1, -1, 1)
    word = word_from_pattern(pattern)
    letters = tuple(
        Letter(eps, TimeLabel(f"t{i}"), WaveLabel(f"k{i}")) for i, eps in enumerate(pattern, 1)
    )
    assert word == letters and hash(word) == hash(letters) and word.letters is word
    assert list(word) == list(letters)
    assert word[0] == letters[0] and word[-1] == letters[-1]
    assert word[1:3] == letters[1:3]
    assert word.pattern == pattern and sum(word.pattern) == 0
    repeated = letters[1]._replace(time=letters[0].time)
    with pytest.raises(ValueError, match="pairwise distinct"):
        OperatorWord.build((letters[0], repeated))
    with pytest.raises(ValueError, match="must be -1 or"):
        OperatorWord.build((letters[0]._replace(eps=0),))


def test_assignment_tables_default_to_one_read_only_empty_mapping():
    a, b = Assignment(lam=1.0), Assignment(lam=2.0)
    assert a.times is b.occupation and not a.times
    with pytest.raises(TypeError):
        a.times["t1"] = 0.0
