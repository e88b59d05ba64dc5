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
  with plain canonical commutation relations, each contracted pair
  weighted from the Bogoliubov table `_OFFSET`: |u|^2 = N+1 for
  species 1, |v|^2 = N for species 2.
* numeric_eval, the one owner of symbol values, evaluates finite-coupling
  sums at concrete numbers so structurally different computations can be
  compared to double precision.

The two rewriting routes run on the driver and the species expansion of
`stochlim.words`.  Their steps (`_qdef_step`, `_ccr_step`), which live here
only, extend a branch's collected factors; each finished branch is built once.
"""

from __future__ import annotations

import cmath
import math
import random
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional

from .correlator import StateSpec
from .scalars import (
    DeltaK,
    MFactor,
    Monomial,
    OscExp,
    ScalarSum,
    wave_representatives,
)
from .symbols import (
    EnergyComb,
    TimeComb,
    WaveLabel,
    basis_from_json,
    basis_to_json,
    dispersion,
    dot,
)
from .words import (
    Letter,
    MasterLetter,
    OperatorWord,
    expand_master_word,
    normal_order,
)

__all__ = [
    "qdef_normal_order",
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


def _entangled_energy(letter: Letter, left: Iterable[Letter]) -> EnergyComb:
    """Energetic argument of one letter's own oscillation, w(k) + (1/2)k.k + k.p
    for annihilators and w(k) - (1/2)k.k + k.p for creators, with p shifted by
    -eps*k over each letter to its left, as commuting it to the far left does."""
    return dispersion(letter.wave, -letter.eps, [(l.wave, -l.eps) for l in left])


def _qdef_step(letters: tuple[Letter, ...], i: int, collected: tuple):
    """Swap and contraction branches of the deformed exchange relation at
    the adjacent (annihilator, creator) pair i, i+1, each extending the
    collected factors and lowering (length, inversions) of the letters."""
    ann, cre = letters[i], letters[i + 1]
    swapped = letters[:i] + (cre, ann) + letters[i + 2 :]
    swap = collected + (OscExp(ann.time - cre.time, -dot(ann.wave, cre.wave)),)

    energy = _entangled_energy(ann, letters[:i])
    contracted = letters[:i] + letters[i + 2 :]
    pair = collected + (
        OscExp(ann.time - cre.time, -energy, pairing=True),
        DeltaK(ann.wave, cre.wave),
    )
    return (swap, swapped), (pair, contracted)


def qdef_normal_order(word: OperatorWord) -> ScalarSum:
    """Fock expectation by exhausting the deformed exchange relations.

    Each rewriting step takes the leftmost adjacent (annihilator, creator)
    pair and branches: swap against exp(-(i/lam^2)(t-t') k.k'), or contract into
    (1/lam^2) exp(-(i/lam^2)(t-t')[w+k^2/2+k.p]) d(k-k').  The contraction
    scalar is commuted to the far left, shifting p by -eps*k at every
    letter it passes.  Words that normal-order with letters left have
    vanishing vacuum expectation.  Each finished branch is built once.
    """
    done = normal_order(word.letters, _qdef_step)
    lam = -len(word.letters)
    return ScalarSum.from_iter(Monomial.build(lam=lam, factors=f) for f in done)


def _dress(word: OperatorWord) -> list[OscExp]:
    """Peel the particle dressing off every letter: its oscillation factor
    conjugated through exp(i kappa q), kappa = sum eps*k over the letters to
    its left, which `_entangled_energy` applies as p -> p - kappa."""
    letters = word.letters
    return [
        OscExp(TimeComb.of(letter.time, letter.eps), _entangled_energy(letter, letters[:i]))
        for i, letter in enumerate(letters)
    ]


def _ccr_step(letters: tuple[MasterLetter, ...], i: int, collected: tuple):
    """Plain commutation of the bare pair at i, i+1 over the double Fock
    vacuum: a_s(k) a_s'(k')+ = a_s'(k')+ a_s(k) + [s=s'] d(k-k').  A
    contraction extends the collected tuple by its (ann, cre) pair."""
    ann, cre = letters[i], letters[i + 1]
    branches = [(collected, letters[:i] + (cre, ann) + letters[i + 2 :])]
    if ann.species == cre.species:
        branches.append((collected + ((ann, cre),), letters[:i] + letters[i + 2 :]))
    return branches


# the weight of a contracted pair is N(k) + offset: |u|^2 = N+1 for species 1
# (a a+ keeps u a1 * u a1+), |v|^2 = N for species 2 (a+ a keeps v a2 * v a2+)
_OFFSET = {1: 1, 2: 0}


def _doubled_term(dressing: list[OscExp], pairs: tuple) -> Monomial:
    """The one monomial of a finished branch: the dressing, and per contracted
    pair d(k-k'), its weight from the Bogoliubov table and a pairing quota."""
    factors: list = list(dressing)
    for ann, cre in pairs:
        factors += [DeltaK(ann.wave, cre.wave), MFactor(ann.wave, _OFFSET[ann.species])]
    quotas = [ann.time - cre.time for ann, cre in pairs]
    return Monomial.build(lam=-2 * len(pairs), factors=factors, quotas=quotas)


def doubled_normal_order(word: OperatorWord, state: StateSpec) -> ScalarSum:
    """Gaussian expectation through the doubled Fock representation."""
    if state.kind == "fock":
        raise ValueError("the doubled oracle works on gaussian/temperature states")
    dressing = _dress(word)
    result = ScalarSum.from_iter(
        _doubled_term(dressing, pairs)
        for branch in expand_master_word(word)
        for pairs in normal_order(branch, _ccr_step)
    )
    _assert_shift_vanishes(result, word)
    return result


def _assert_shift_vanishes(result: ScalarSum, word: OperatorWord) -> None:
    # fully contracted terms must have zero net exp(i kappa q), kappa = sum
    # eps*k over the word, once the pairing deltas identify wave labels
    for m, _ in result.terms:
        rep = wave_representatives(m.delta_k)
        net: dict[WaveLabel, int] = {}
        for letter in word.letters:
            r = rep.get(letter.wave, letter.wave)
            net[r] = net.get(r, 0) + letter.eps
        assert all(v == 0 for v in net.values()), "pending momentum shift survived"


_EMPTY: Mapping = MappingProxyType({})


class Assignment(NamedTuple):
    """Concrete numbers for a finite-coupling expression, keyed by label
    names (after delta unification); a dot value is keyed by its two names
    in either order.  Each table not given is one shared read-only empty
    mapping."""

    lam: float
    times: Mapping[str, float] = _EMPTY
    omega: Mapping[str, float] = _EMPTY
    dot: Mapping[tuple[str, str], float] = _EMPTY
    dot_p: Mapping[str, float] = _EMPTY
    occupation: Mapping[str, float] = _EMPTY


def numeric_eval(s: ScalarSum, assign: Assignment) -> complex:
    """Evaluate a finite-coupling sum at the given numbers.  Each energy basis
    symbol is looked up in one table made from the assignment, and a symbol
    without a value raises UnassignedSymbolError.  Momentum deltas are
    label-equality indicators, already applied because every monomial is
    built unified; limit factors and values that are not finite are rejected."""
    if assign.lam <= 0:
        raise ValueError("lam must be positive")
    # keyed by basis symbol through the JSON form, which puts a dot pair in label order
    values = {basis_from_json("w", [n]): v for n, v in assign.omega.items()}
    values.update((basis_from_json("dot", pair), v) for pair, v in assign.dot.items())
    values.update((basis_from_json("kp", [n]), v) for n, v in assign.dot_p.items())
    total = 0j
    for m, rational in s.terms:
        if m.time_deltas or m.energy_deltas:
            raise ValueError("numeric evaluation handles finite-coupling sums only")
        phase = 0.0
        for label, energy in m.osc:
            if label.name not in assign.times:
                raise UnassignedSymbolError(label.name)
            # a left fold, not sum(), which compensates rounding from Python 3.12 on
            e_val = 0.0
            try:
                for b, c in energy.terms:
                    e_val += float(c) * values[b]
            except KeyError as err:
                raise UnassignedSymbolError(err.args[0].render()) from None
            phase += assign.times[label.name] * e_val
        try:
            value = float(rational) * (2 * math.pi) ** m.two_pi * assign.lam**m.lam
            out = value * cmath.exp(1j * phase / assign.lam**2)
        except OverflowError:  # a power of lam; the total then reads nan
            out = math.nan
        for wave, offset in m.m_factors:
            if wave.name not in assign.occupation:
                raise UnassignedSymbolError(f"N({wave.name})")
            out *= assign.occupation[wave.name] + offset
        total += out
    if not cmath.isfinite(total):
        raise ValueError("numeric value is not a finite number")
    return total


def thermal_occupation(beta: float, w: float) -> float:
    """Bose occupation N = 1/(exp(beta*w) - 1) of a mode of energy w > 0 at
    inverse temperature beta > 0; a ValueError when it is not a finite number."""
    x = beta * w
    # expm1 overflows near x = 709.8; from x = 40 on N equals exp(-x) to double precision
    if x >= 700.0:
        return math.exp(-x)
    n = 1.0 / math.expm1(x) if x else math.inf
    if not math.isfinite(n):
        raise ValueError(f"thermal occupation is not finite at beta={beta!r}, omega={w!r}")
    return n


def random_assignment(
    sums: Iterable[ScalarSum],
    rng: random.Random,
    state: Optional[StateSpec] = None,
) -> Assignment:
    """Uniform random values for every symbol the given sums need.  After lam,
    the times are drawn in label order, then the energy basis symbols in
    their key order (kind w, dot, kp, then labels), then the occupations."""
    times, bases, occupied = set(), set(), set()
    for s in sums:
        for m, _ in s.terms:
            for label, energy in m.osc:
                times.add(label)
                bases.update(energy.support)
            occupied.update(wave for wave, _ in m.m_factors)

    def ordered(symbols) -> list:
        return sorted(symbols, key=lambda x: x.sort_key)

    lam = rng.uniform(0.3, 1.2)
    times = {t.name: rng.uniform(-2.0, 2.0) for t in ordered(times)}
    omegas, dots, dot_ps = {}, {}, {}
    ranges = {"w": (omegas, 0.5, 2.5), "dot": (dots, -1.5, 1.5), "kp": (dot_ps, -1.5, 1.5)}
    for basis in ordered(bases):
        kind, names = basis_to_json(basis)
        values, low, high = ranges[kind]
        values[tuple(names) if kind == "dot" else names[0]] = rng.uniform(low, high)
    if state is not None and state.kind == "temperature":
        occupation = {
            w.name: thermal_occupation(state.beta, omegas.get(w.name, 1.0))
            for w in ordered(occupied)
        }
    else:
        occupation = {w.name: rng.uniform(0.1, 2.0) for w in ordered(occupied)}
    return Assignment(lam, times, omegas, dots, dot_ps, occupation)
