"""Independent verification paths for the correlator engine.

Three routes that never touch the diagram sum:

* qdef_normal_order rewrites a word with the raw exchange relations of
  the entangled operators (Fock state): an annihilator moving right past
  a creator either swaps against a deformation exponent or contracts
  into a 1/lam^2 pairing scalar whose p-dependence is then commuted to
  the far left.
* doubled_normal_order expresses an arbitrary Gaussian state through
  two auxiliary Fock fields, a(k) -> u a1(k) + v a2+(k), peels the
  particle dressing off every letter and normal-orders the bare letters
  with plain canonical commutation relations.
* numeric_eval evaluates finite-coupling expressions at concrete numbers
  so structurally different computations can be compared to double
  precision.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .correlator import StateSpec
from .scalars import (
    DeltaK,
    MFactor,
    Monomial,
    OscExp,
    ScalarSum,
    _UnionFind,
    apply_momentum_deltas,
)
from .symbols import (
    EnergyComb,
    TimeComb,
    TimeLabel,
    WaveLabel,
    dot,
    dot_p,
    omega,
    shift_p,
)
from .words import Letter, OperatorWord

__all__ = [
    "qdef_normal_order",
    "reorder_annihilators",
    "doubled_normal_order",
    "numeric_eval",
    "Assignment",
    "random_assignment",
    "UnassignedSymbolError",
]


class UnassignedSymbolError(KeyError):
    def __init__(self, symbol: str):
        super().__init__(symbol)
        self.symbol = symbol

    def __str__(self) -> str:
        return f"no numeric value assigned to {self.symbol}"


def _inversions(letters) -> int:
    return sum(
        1
        for i in range(len(letters))
        for j in range(i + 1, len(letters))
        if letters[i].eps == -1 and letters[j].eps == 1
    )


def _entangled_energy(letter: Letter) -> EnergyComb:
    """Energetic argument of one letter's own oscillation:
    w(k) + (1/2)k.k + k.p for annihilators, w(k) - (1/2)k.k + k.p for creators."""
    return (
        omega(letter.wave)
        - Fraction(letter.eps, 2) * dot(letter.wave, letter.wave)
        + dot_p(letter.wave)
    )


def qdef_normal_order(word: OperatorWord, pick: str = "leftmost") -> ScalarSum:
    """Fock expectation by exhausting the deformed exchange relations.

    Each rewriting step takes an adjacent (annihilator, creator) pair and
    branches: swap against exp(-(i/lam^2)(t-t') k.k'), or contract into
    (1/lam^2) exp(-(i/lam^2)(t-t')[w+k^2/2+k.p]) d(k-k').  The contraction
    scalar is commuted to the far left, shifting p by -eps*k at every
    letter it passes.  Words that normal-order with letters left have
    vanishing vacuum expectation.
    """
    if pick not in ("leftmost", "rightmost"):
        raise ValueError("pick must be 'leftmost' or 'rightmost'")
    done: list[Monomial] = []
    stack: list[tuple[Monomial, tuple[Letter, ...]]] = [
        (Monomial.one(), word.letters)
    ]
    while stack:
        scalar, letters = stack.pop()
        sites = [
            i
            for i in range(len(letters) - 1)
            if letters[i].eps == -1 and letters[i + 1].eps == 1
        ]
        if not sites:
            if not letters:
                done.append(scalar)
            continue
        i = sites[0] if pick == "leftmost" else sites[-1]
        ann, cre = letters[i], letters[i + 1]
        measure = (len(letters), _inversions(letters))

        swapped = letters[:i] + (cre, ann) + letters[i + 2 :]
        assert (len(swapped), _inversions(swapped)) < measure
        swap_scalar = scalar * Monomial.build(
            factors=[OscExp(ann.time - cre.time, -dot(ann.wave, cre.wave))]
        )
        stack.append((swap_scalar, swapped))

        energy = (
            omega(ann.wave)
            + Fraction(1, 2) * dot(ann.wave, ann.wave)
            + dot_p(ann.wave)
        )
        for passed in letters[:i]:
            energy = shift_p(energy, passed.wave, -passed.eps)
        contracted = letters[:i] + letters[i + 2 :]
        assert (len(contracted), _inversions(contracted)) < measure
        pair_scalar = scalar * Monomial.build(
            lam=-2,
            factors=[
                OscExp(ann.time - cre.time, -energy, pairing=True),
                DeltaK(ann.wave, cre.wave),
            ],
        )
        stack.append((pair_scalar, contracted))
    return apply_momentum_deltas(ScalarSum.from_iter(done))


def reorder_annihilators(
    word: OperatorWord, i: int
) -> tuple[OperatorWord, Monomial]:
    """Swap the annihilators at positions i, i+1 (0-based); the returned
    factor exp((i/lam^2)(t-t') k.k') times the swapped word's correlator
    equals the original word's correlator."""
    letters = word.letters
    if i < 0 or i + 1 >= len(letters):
        raise ValueError("position out of range")
    first, second = letters[i], letters[i + 1]
    if first.eps != -1 or second.eps != -1:
        raise ValueError("both letters must be annihilators")
    swapped = OperatorWord.build(
        letters[:i] + (second, first) + letters[i + 2 :]
    )
    factor = Monomial.build(
        factors=[OscExp(first.time - second.time, dot(first.wave, second.wave))]
    )
    return swapped, factor


@dataclass(frozen=True)
class _BareLetter:
    species: int  # 1 or 2, the two auxiliary Fock fields
    dag: bool
    time: TimeComb
    wave: WaveLabel


def _dress(word: OperatorWord) -> tuple[Monomial, tuple[tuple[WaveLabel, int], ...]]:
    """Peel the particle dressing off every letter: the product of each
    letter's oscillation conjugated through the accumulated exp(i kappa q)
    (p -> p - kappa), and the final shift kappa = sum eps*k."""
    prefix = Monomial.one()
    kappa: list[tuple[WaveLabel, int]] = []
    for letter in word.letters:
        energy = _entangled_energy(letter)
        for wave, eps in kappa:
            energy = shift_p(energy, wave, -eps)
        prefix = prefix * Monomial.build(
            factors=[OscExp(TimeComb.of(letter.time, letter.eps), energy)]
        )
        kappa.append((letter.wave, letter.eps))
    return prefix, tuple(kappa)


def _ccr_vacuum(bare: tuple[_BareLetter, ...]) -> list[Monomial]:
    """Double-Fock vacuum expectation of a bare word by plain commutation:
    a_s(k) a_s'(k')+ = a_s'(k')+ a_s(k) + [s=s'] d(k-k').  Contractions of
    species 1 carry N+1, of species 2 carry N."""
    done: list[Monomial] = []
    stack: list[tuple[Monomial, tuple[_BareLetter, ...]]] = [(Monomial.one(), bare)]
    while stack:
        scalar, letters = stack.pop()
        site = next(
            (
                i
                for i in range(len(letters) - 1)
                if not letters[i].dag and letters[i + 1].dag
            ),
            None,
        )
        if site is None:
            if not letters:
                done.append(scalar)
            continue
        ann, cre = letters[site], letters[site + 1]
        stack.append(
            (scalar, letters[:site] + (cre, ann) + letters[site + 2 :])
        )
        if ann.species == cre.species:
            pair = scalar * Monomial.build(
                factors=[
                    DeltaK(ann.wave, cre.wave),
                    MFactor(ann.wave, 1 if ann.species == 1 else 0),
                ],
                quotas=[ann.time - cre.time],
            )
            stack.append((pair, letters[:site] + letters[site + 2 :]))
    return done


def doubled_normal_order(word: OperatorWord, state: StateSpec) -> ScalarSum:
    """Gaussian expectation through the doubled Fock representation."""
    if state.kind == "fock":
        raise ValueError("the doubled oracle works on gaussian/temperature states")
    prefix, kappa = _dress(word)
    branches: list[tuple[_BareLetter, ...]] = [()]
    for letter in word.letters:
        if letter.eps == -1:
            options = [(1, False), (2, True)]
        else:
            options = [(1, True), (2, False)]
        branches = [
            prev + (_BareLetter(sp, dag, TimeComb.of(letter.time), letter.wave),)
            for prev in branches
            for sp, dag in options
        ]
    lam_base = Monomial.build(lam=-len(word.letters))
    terms: list[Monomial] = []
    for branch in branches:
        for contraction in _ccr_vacuum(branch):
            terms.append(prefix * contraction * lam_base)
    result = apply_momentum_deltas(ScalarSum.from_iter(terms))
    _assert_shift_vanishes(result, kappa)
    return result


def _assert_shift_vanishes(result: ScalarSum, kappa) -> None:
    # fully contracted terms must have zero net exp(i kappa q) once the
    # pairing deltas identify wave labels
    for m in result.terms:
        uf = _UnionFind()
        for a, b in m.delta_k:
            uf.union(a, b)
        net: dict[WaveLabel, int] = {}
        for wave, eps in kappa:
            r = uf.find(wave)
            net[r] = net.get(r, 0) + eps
        assert all(v == 0 for v in net.values()), "pending momentum shift survived"


@dataclass
class Assignment:
    """Concrete numbers for a finite-coupling expression, keyed by label
    names (after delta unification)."""

    lam: float
    times: dict[str, float] = field(default_factory=dict)
    omega: dict[str, float] = field(default_factory=dict)
    dot: dict[tuple[str, str], float] = field(default_factory=dict)
    dot_p: dict[str, float] = field(default_factory=dict)
    occupation: dict[str, float] = field(default_factory=dict)

    def normalized_dot(self) -> dict[tuple[str, str], float]:
        """Dot values keyed by their two names in label order, whichever
        order they were given in."""
        return {
            tuple(sorted(k, key=lambda n: WaveLabel(n).sort_key)): v
            for k, v in self.dot.items()
        }


def numeric_eval(s: ScalarSum, assign: Assignment) -> complex:
    """Evaluate a finite-coupling sum at the given numbers.  Momentum deltas
    are label-equality indicators (the expression must already be unified);
    limit factors are rejected."""
    if assign.lam <= 0:
        raise ValueError("lam must be positive")
    dot_v = assign.normalized_dot()
    total = 0j
    for m in s.terms:
        if m.time_deltas or m.energy_deltas:
            raise ValueError("numeric evaluation handles finite-coupling sums only")
        value = float(m.rational) * (2 * math.pi) ** m.two_pi * assign.lam**m.lam
        phase = 0.0
        for label, energy in m.osc:
            if label.name not in assign.times:
                raise UnassignedSymbolError(label.name)
            try:
                e_val = energy.evaluate(assign.omega, dot_v, assign.dot_p)
            except KeyError as err:
                raise UnassignedSymbolError(err.args[0]) from None
            phase += assign.times[label.name] * e_val
        out = value * cmath.exp(1j * phase / assign.lam**2)
        for wave, offset in m.m_factors:
            if wave.name not in assign.occupation:
                raise UnassignedSymbolError(f"N({wave.name})")
            out *= assign.occupation[wave.name] + offset
        total += out
    return total


def random_assignment(
    sums: Iterable[ScalarSum],
    rng: random.Random,
    state: Optional[StateSpec] = None,
) -> Assignment:
    """Uniform random values for every symbol the given sums need."""
    # label tuples: one label per time, omega, k.p and occupation symbol,
    # the two labels of a dot basis (stored in label order)
    times: set[tuple[TimeLabel]] = set()
    omegas: set[tuple[WaveLabel]] = set()
    dots: set[tuple[WaveLabel, WaveLabel]] = set()
    dot_ps: set[tuple[WaveLabel]] = set()
    occupations: set[tuple[WaveLabel]] = set()
    for s in sums:
        for m in s.terms:
            for label, energy in m.osc:
                times.add((label,))
                for basis, _ in energy.terms:
                    if basis.kind == 0:
                        omegas.add(basis.waves)
                    elif basis.kind == 1:
                        dots.add(basis.waves)
                    else:
                        dot_ps.add(basis.waves)
            for wave, _ in m.m_factors:
                occupations.add((wave,))

    def ordered(groups) -> list[tuple[str, ...]]:
        keyed = sorted(groups, key=lambda g: tuple(l.sort_key for l in g))
        return [tuple(l.name for l in g) for g in keyed]

    assign = Assignment(lam=rng.uniform(0.3, 1.2))
    assign.times = {n: rng.uniform(-2.0, 2.0) for (n,) in ordered(times)}
    assign.omega = {n: rng.uniform(0.5, 2.5) for (n,) in ordered(omegas)}
    assign.dot = {k: rng.uniform(-1.5, 1.5) for k in ordered(dots)}
    assign.dot_p = {n: rng.uniform(-1.5, 1.5) for (n,) in ordered(dot_ps)}
    if state is not None and state.kind == "temperature":
        assign.occupation = {
            n: 1.0 / math.expm1(state.beta * assign.omega.get(n, 1.0))
            for (n,) in ordered(occupations)
        }
    else:
        assign.occupation = {n: rng.uniform(0.1, 2.0) for (n,) in ordered(occupations)}
    return assign
