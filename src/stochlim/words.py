"""Operator words, and the plumbing the rewriting oracles share: two-species
letters, the one species map (`master_letters`), the species expansion and
one normal-ordering driver.  Each path passes in its own step, which
extends the factors collected along a branch, and builds each finished
branch once, so the paths keep their own physics.  The species expansion
is vacuum-pruned: it yields only the branches that can have a nonzero
vacuum value, a small share of the 2^N (at most 132 of 4096 for any
balanced word of 12 letters).  The free master-field path uses only the
two-species letters and the species map: it walks the word with a stack
of open letters instead of expanding and rewriting it."""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, NamedTuple, Sequence

from .symbols import TimeLabel, WaveLabel

__all__ = [
    "Letter",
    "MasterLetter",
    "OperatorWord",
    "PatternError",
    "word_from_pattern",
    "parse_pattern",
    "balanced_patterns",
]


class PatternError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"pattern token {position}: {message}")
        self.position = position


class Letter(NamedTuple):
    eps: int  # -1 annihilation, +1 creation
    time: TimeLabel
    wave: WaveLabel

    @property
    def dag(self) -> bool:
        return self.eps == 1


class MasterLetter(NamedTuple):
    """A letter of one of two species: b_s (dag False) or b_s+ (dag True)."""

    species: int  # 1 or 2
    dag: bool
    time: TimeLabel
    wave: WaveLabel


class OperatorWord(tuple):
    """The letters of a word: a tuple of them, so it cannot be changed and
    equals, hashes, copies and measures as its letters; `letters` is the
    word itself."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"OperatorWord({tuple(self)!r})"

    @classmethod
    def build(cls, letters: Iterable[Letter]) -> "OperatorWord":
        letters = tuple(letters)
        times = [l.time for l in letters]
        waves = [l.wave for l in letters]
        if len(set(times)) != len(times) or len(set(waves)) != len(waves):
            raise ValueError("word labels must be pairwise distinct symbols")
        for l in letters:
            if l.eps not in (-1, 1):
                raise ValueError("letter sign must be -1 or +1")
        return cls(letters)

    @property
    def letters(self) -> tuple[Letter, ...]:
        return self

    @property
    def pattern(self) -> tuple[int, ...]:
        return tuple(l.eps for l in self.letters)


def word_from_pattern(pattern: Sequence[int]) -> OperatorWord:
    """Word with positional labels t1..tN, k1..kN."""
    return OperatorWord.build(
        Letter(eps, TimeLabel(f"t{i + 1}"), WaveLabel(f"k{i + 1}"))
        for i, eps in enumerate(pattern)
    )


def token_sign(token: str, position: int) -> int:
    """-1 for the token "a" (annihilation), +1 for "a+" (creation)."""
    if token not in ("a", "a+"):
        raise PatternError(f"expected 'a' or 'a+', got {token!r}", position)
    return -1 if token == "a" else 1


def parse_pattern(text: str) -> tuple[int, ...]:
    """Whitespace separated tokens: "a" annihilation, "a+" creation."""
    return tuple(token_sign(token, pos) for pos, token in enumerate(text.split(), start=1))


def format_pattern(pattern: Sequence[int]) -> str:
    """The tokens of a sign pattern, as parse_pattern reads them."""
    return " ".join("a" if eps == -1 else "a+" for eps in pattern)


def balanced_patterns(length: int) -> list[tuple[int, ...]]:
    """All sign patterns of the given even length with equally many +1 and -1."""
    if length % 2:
        return []
    out = []
    for creations in combinations(range(length), length // 2):
        pattern = [-1] * length
        for i in creations:
            pattern[i] = 1
        out.append(tuple(pattern))
    return out


def master_letters(l: Letter) -> tuple[MasterLetter, MasterLetter]:
    """The letter's species-1 and species-2 parts: b = b1 + b2+ and
    b+ = b1+ + b2."""
    return (
        MasterLetter(1, l.dag, l.time, l.wave),
        MasterLetter(2, not l.dag, l.time, l.wave),
    )


def expand_master_word(word: OperatorWord) -> list[tuple[MasterLetter, ...]]:
    """The species assignments of b = b1 + b2+ and b+ = b1+ + b2 that can
    have a nonzero vacuum value, in the order of the full 2^N expansion.

    Vacuum-pruned: a rewrite pairs a creator only with an annihilator of
    its species standing to its left (annihilators only move right, and
    <0| b_s+ = 0), so a branch is dropped as soon as some species has
    more creators than annihilators, or more annihilators are open than
    letters remain.  The rule reads species and daggers only, never a
    scalar; every dropped branch rewrites to nothing.
    """
    # prefix, open annihilators of species 1 and of species 2
    out: list[tuple[tuple[MasterLetter, ...], int, int]] = [((), 0, 0)]
    remaining = len(word.letters)
    for l in word.letters:
        remaining -= 1
        options = master_letters(l)
        grown = []
        for prefix, open1, open2 in out:
            for o in options:
                step = -1 if o.dag else 1
                o1 = open1 + step if o.species == 1 else open1
                o2 = open2 + step if o.species == 2 else open2
                if o1 >= 0 and o2 >= 0 and o1 + o2 <= remaining:
                    grown.append((prefix + (o,), o1, o2))
        out = grown
    return [prefix for prefix, _, _ in out]


def normal_order(letters: Iterable, step: Callable) -> list[tuple]:
    """Factor tuples of every rewrite of the letters down to the empty word.

    Depth first from (): at the leftmost adjacent (annihilator, creator)
    site i, step(letters, i, collected) returns (collected, letters)
    branches that extend the tuple.  A branch vanishes with letters but no
    such site left, or with no step branch.  It is dropped at once when it
    starts with a creator or ends with an annihilator: that letter can
    never move or contract (<0| a+ = 0, a |0> = 0).  There is no site
    option: the tests check that other sites give the same result.
    """
    done = []
    stack = [((), tuple(letters))]
    while stack:
        collected, ls = stack.pop()
        if ls and (ls[0].dag or not ls[-1].dag):
            continue
        site = next((i for i in range(len(ls) - 1) if not ls[i].dag and ls[i + 1].dag), None)
        if site is not None:
            stack.extend(step(ls, site, collected))
        elif not ls:
            done.append(collected)
    return done
