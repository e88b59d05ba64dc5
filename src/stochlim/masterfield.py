"""The free master-field algebra and its Fock-state evaluator.

The limit of an annihilation-type entangled operator splits into two
free channels, b(t,k) = b1(t,k) + b2+(t,k), independent in the free
sense (an annihilator meeting a creator of the other species gives the
zero operator).  `free_correlator` evaluates the vacuum expectation in
one left-to-right walk over the word with a stack of open annihilators:
every letter either opens or closes, and a closer contracts with the top
of the stack when that top is of its own species.  Only the live species
branches are walked, in every state (in the Fock state N = 0 drops b2's
channel and makes b1's weight N+1 one).  Each contraction is checked
once, as a `scalars.piece`, and `Monomial._canonical` joins a finished
branch's pieces, unified over the deltas that map a wave they hold.  The
contraction scalar (`_contract`), with its own occupation weights (the
doubled oracle reads the Bogoliubov table in `stochlim.oracle`), lives
here; the tests rewrite with it through `words.normal_order` as a
reference for the walk.  No diagrams are enumerated here, so the path
stays independent of the engine it checks.
"""

from __future__ import annotations

from typing import NamedTuple

from .correlator import StateSpec, limit_correlator
from .scalars import (
    DeltaK,
    EnergyDelta,
    MFactor,
    Monomial,
    ScalarSum,
    TimeDelta,
    piece,
    wave_representatives,
)
from .symbols import dispersion
from .words import MasterLetter, OperatorWord, master_letters

__all__ = [
    "free_correlator",
    "check_free_equivalence",
    "EquivalenceReport",
]

# Moving a function of p leftward across a master letter shifts p by the
# letter's field momentum: from b1 p = (p+k) b1, b2 p = (p-k) b2 and their
# adjoints.  Keyed by (species, dagger).
_PASS_SHIFT = {
    (1, False): +1,  # b1
    (1, True): -1,   # b1+
    (2, False): -1,  # b2
    (2, True): +1,   # b2+
}


def _contract(ann: MasterLetter, cre: MasterLetter, passed, fock: bool) -> list:
    """The four factors of contracting the annihilator ann with the creator
    cre just right of it, the p-dependence shifted across the passed
    letters still standing to the left of ann; three in the Fock state,
    whose only contraction, of b1, has occupation N+1 = 1."""
    sign = 1 if ann.species == 1 else -1
    shifts = [(l.wave, _PASS_SHIFT[(l.species, l.dag)]) for l in passed]
    occupation = [] if fock else [MFactor(ann.wave, 1 if ann.species == 1 else 0)]
    return occupation + [
        TimeDelta(ann.time - cre.time),
        EnergyDelta(dispersion(ann.wave, sign, shifts)),
        DeltaK(ann.wave, cre.wave),
    ]


def _walk(options, i, stack: tuple, pieces: tuple, joins: tuple, parts, memo, fock) -> None:
    """One step of `free_correlator`'s walk; the memo of pieces per (stack,
    closer) is passed in, so a call frees its work without the cyclic
    collector.  A piece holds only openers' waves, so a branch is unified
    over `joins`, the deltas whose closer's wave sorts before the opener's."""
    n = len(options)
    if i == n:
        parts.append(Monomial._canonical(n // 2, 0, pieces, wave_representatives(joins)))
        return
    for letter in options[i]:
        if not letter.dag:
            if len(stack) < n - i - 1:
                _walk(options, i + 1, stack + (letter,), pieces, joins, parts, memo, fock)
        elif stack and stack[-1].species == letter.species:
            below, top = stack[:-1], stack[-1]
            got = memo.get((stack, letter))
            if got is None:
                join = ((top.wave, letter.wave),) if letter.wave.sort_key < top.wave.sort_key else ()
                got = memo[stack, letter] = piece(_contract(top, letter, below, fock)), join
            more, join = got
            _walk(options, i + 1, below, pieces + (more,), joins + join, parts, memo, fock)


def free_correlator(word: OperatorWord, state: StateSpec) -> ScalarSum:
    """Fock expectation of the master-field word mapped from the given
    creation/annihilation word.

    A depth-first walk from the left.  `a` opens as b1 or closes as b2+,
    `a+` opens as b2 or closes as b1+; the Fock state keeps b1 and b1+.
    Under leftmost-first reduction the letters standing left of a closer
    are exactly the open stack, so a closer contracts with the top of the
    stack, and only with one of its own species; a prefix with more
    letters open than remain is dropped, so each finished branch pairs
    every `a` with one `a+`.  Each contraction is made once per open stack
    and closer and shared by every branch that reaches it.
    """
    fock = state.kind == "fock"
    live = 1 if fock else 2  # b2's channel is weighted N = 0 in the Fock state
    # per letter: its live parts, opener (dag False) before closer
    options = [
        sorted(master_letters(l)[:live], key=lambda m: m.dag) for l in word.letters
    ]
    parts: list[Monomial] = []
    _walk(options, 0, (), (), (), parts, {}, fock)
    return ScalarSum.from_iter(parts)


class EquivalenceReport(NamedTuple):
    equal: bool
    only_diagram: tuple[str, ...]
    only_free: tuple[str, ...]


def check_free_equivalence(word: OperatorWord, state: StateSpec) -> EquivalenceReport:
    """Compare the diagram-built limit against the free-algebra evaluation;
    on a mismatch, each side's terms that the other lacks, in its sum's
    canonical order."""
    lhs = limit_correlator(word, state)
    rhs = free_correlator(word, state)
    if lhs == rhs:
        return EquivalenceReport(True, (), ())
    # a term is its (monomial, rational) pair, so a term whose rational
    # differs is listed on both sides
    lhs_terms, rhs_terms = set(lhs.terms), set(rhs.terms)
    only_l = tuple(m.render(c) for m, c in lhs.terms if (m, c) not in rhs_terms)
    only_r = tuple(m.render(c) for m, c in rhs.terms if (m, c) not in lhs_terms)
    return EquivalenceReport(False, only_l, only_r)
