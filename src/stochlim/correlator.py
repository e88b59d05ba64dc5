"""Correlation functions of entangled operators and their weak-coupling limit.

The exact N-point correlator is a sum over pair partitions.  Every edge
contributes a 1/lam^2 pairing exponent whose energy carries the edge's
orientation and the momentum shifts inherited from enclosing edges;
crossing edges leave extra single-time exponents behind.  Both sums make
each edge's block once per tuple of straddling edges, which enclose or
cross it, in one pairing recursion (`pairing_blocks`); the direct limit
takes its non-crossing pairings, and the Fock state the vacuum's, whose
edges write no occupation factor: N = 0 there, so N+1 is 1.  An edge's
wave (as its momentum delta unifies it), bare energy, pairing time,
occupation and delta come from one per-edge table (`_edges`); a block
adds what its straddling edges change and is checked once, as a
`scalars.piece`; `Monomial._canonical` joins each pairing's blocks, and
each survivor of `take_limit`, with no wave substitution, as they hold
only unified waves.  In the limit lam -> 0 each pairing exponent turns
into 2pi * dT * dE while any oscillation that cannot be matched to a
pairing quota suppresses its whole term, which is why only non-crossing
diagrams survive.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .diagrams import Edge, pairing_blocks
from .scalars import (
    DeltaK,
    EnergyDelta,
    MFactor,
    Monomial,
    OscExp,
    Piece,
    ScalarSum,
    TimeDelta,
    piece,
    wave_representatives,
)
from .symbols import EnergyComb, TimeComb, WaveLabel, dispersion, dot
from .words import OperatorWord

__all__ = [
    "StateSpec",
    "FOCK",
    "GAUSSIAN",
    "temperature",
    "LimitStructureError",
    "finite_lambda_correlator",
    "take_limit",
    "limit_correlator",
]


STATE_KINDS = ("fock", "gaussian", "temperature")


class _StateFields(NamedTuple):
    kind: str
    beta: float | None = None


class StateSpec(_StateFields):
    """Gaussian field state: Fock vacuum, symbolic occupation N(k), or a
    temperature state (beta only matters to the numeric harness).  A
    NamedTuple whose constructor checks the kind and beta."""

    __slots__ = ()

    def __new__(cls, kind: str, beta: float | None = None) -> "StateSpec":
        if kind not in STATE_KINDS:
            raise ValueError(f"unknown state kind {kind!r}")
        if kind == "temperature" and (beta is None or beta <= 0):
            raise ValueError("temperature state needs beta > 0")
        return super().__new__(cls, kind, beta)


FOCK = StateSpec("fock")
GAUSSIAN = StateSpec("gaussian")


def temperature(beta: float) -> StateSpec:
    return StateSpec("temperature", beta=beta)


class LimitStructureError(ValueError):
    """A sum whose lam powers cannot be matched to pairing quotas."""


def _edges(letters, fock: bool):
    """Per edge, cached for one call: its wave k, the creation's wave as the
    edge's momentum delta unifies it (no other delta of a pairing touches
    it); its bare energy w(k) + (delta/2) k.k + k.p; its pairing time
    t_cre - t_ann; and its factors, the occupation N(k)+1 or N(k) (none on
    a vacuum edge, whose N(k)+1 is 1) and the momentum delta.  Made once
    per edge, not once per tuple of edges straddling it."""

    @cache
    def edge(e: Edge) -> tuple[WaveLabel, EnergyComb, TimeComb, tuple]:
        cre, ann = letters[e.creation - 1], letters[e.annihilation - 1]
        k = wave_representatives([(cre.wave, ann.wave)]).get(cre.wave, cre.wave)
        energy = dispersion(k, e.delta)
        occupation = () if fock else (MFactor(k, (e.delta + 1) // 2),)
        return k, energy, cre.time - ann.time, occupation + (DeltaK(cre.wave, ann.wave),)

    return edge


def _edge_energy(table, edge: Edge, enclosing) -> EnergyComb:
    """The edge's energy with p shifted by delta_o * k_o over every
    enclosing edge o, made in one merge; the bare energy from the per-edge
    `table` when no edge encloses it."""
    k, energy, _, _ = table(edge)
    if not enclosing:
        return energy
    return dispersion(k, edge.delta, [(table(o)[0], o.delta) for o in enclosing])


def finite_lambda_correlator(word: OperatorWord, state: StateSpec) -> ScalarSum:
    """Exact correlator at finite coupling: sum over all pair partitions,
    in the Fock state over those it keeps (`fock`)."""
    fock = state.kind == "fock"
    letters = word.letters
    table = _edges(letters, fock)

    def block(f: Edge, straddling) -> Piece:
        """f's pairing exponent, shifted by the straddling edges enclosing
        f, one exponent per crossing vertex, then f's own factors."""
        k, _, time, own = table(f)
        factors, enclosing = [], []
        for e in straddling:  # by left end, so e.a < f.a < e.b
            if f.b < e.b:  # e encloses f
                enclosing.append(e)
            else:  # e and f cross: e has the vertex f.a, f has e.b
                dot_ef = dot(table(e)[0], k)
                for pos, edge in ((f.a, e), (e.b, f)):
                    vertex = letters[pos - 1]
                    factors.append(
                        OscExp(TimeComb.of(vertex.time), (vertex.eps * edge.delta) * dot_ef)
                    )
        energy = _edge_energy(table, f, enclosing)
        return piece([*factors, OscExp(time, energy, pairing=True), *own])

    terms = [
        Monomial._canonical(0, -2 * len(blocks), blocks)
        for blocks in pairing_blocks(word.pattern, block, fock=fock)
    ]
    return ScalarSum.from_iter(terms)


_ZERO = EnergyComb.zero()


def _absorb(quotas, rows):
    """Solve sum_j C[t][j] * F_j = rows[t] exactly, where C[t][j] is the
    coefficient of time label t in quota j.

    Returns the list of F_j, or None when the system is inconsistent (the
    leftover oscillation has no 1/lam^2 quota and kills the monomial).

    Every quota the paths make is t_cre - t_ann, and no two of them share
    a time label, so the system falls apart into one check per quota: F_j
    is the row of its first label over that label's coefficient, and every
    other label's row must be its coefficient times F_j; a row on a label
    no quota covers kills the term.  Quotas that share a label (hand-built
    sums, JSON input) raise `LimitStructureError` naming the first one.
    """
    supports = [q.terms for q in quotas]
    covered = {l for terms in supports for l, _ in terms}
    if len(covered) != sum(map(len, supports)):
        seen = set()
        for terms in supports:
            for l, _ in terms:
                if l in seen:
                    raise LimitStructureError(f"pairing quotas share the time label {l.name}")
                seen.add(l)
    if not covered.issuperset(rows) and any(
        l not in covered and not e.is_zero for l, e in rows.items()
    ):
        return None
    out = []
    for (l0, c0), *rest in supports:
        f = rows.get(l0, _ZERO)
        if c0 != 1:
            f = f.scale(1 / Fraction(c0))
        for l, c in rest:
            terms = rows.get(l, _ZERO).terms
            if len(terms) != len(f.terms) or any(
                b is not fb or x != c * fx
                for (b, x), (fb, fx) in zip(terms, f.terms)
            ):
                return None
        out.append(f)
    return out


def take_limit(s: ScalarSum) -> ScalarSum:
    """lam -> 0 limit: every pairing quota becomes 2pi * dT * dE; oscillation
    not matched by a quota sends its monomial to zero.  `_absorb` settles
    each term from its own quota rows, one quota at a time; no two quotas
    may share a time label, as on every sum `finite_lambda_correlator`
    builds, and a term whose quotas do raises `LimitStructureError`."""
    out = []
    for m, c in s.terms:
        if m.time_deltas or m.energy_deltas:
            raise LimitStructureError("input already contains limit factors")
        n = len(m.quotas)
        if m.lam != -2 * n:
            raise LimitStructureError(
                f"lam power {m.lam} does not match {n} pairing quotas"
            )
        deltas = _absorb(m.quotas, dict(m.osc))
        if deltas is None:
            continue
        if any(e.is_zero for e in deltas):
            raise LimitStructureError("pairing exponent with vanishing energy")
        # quotas become time deltas; m was unified when made: no substitution
        eds = [e.normalized() for e in deltas]
        survivor = Piece((), (), m.quotas, eds, m.delta_k, m.m_factors)
        out.append((Monomial._canonical(m.two_pi + n, 0, [survivor]), c))
    return ScalarSum.make(out)


def limit_correlator(word: OperatorWord, state: StateSpec) -> ScalarSum:
    """Direct limit construction: non-crossing diagrams only, each edge a
    2pi * dT * dE * occupation * momentum-delta block, made once per edge
    and enclosing edges and shared by every diagram that holds it there."""
    fock = state.kind == "fock"
    table = _edges(word.letters, fock)

    def block(edge: Edge, enclosing) -> Piece:
        _, _, time, own = table(edge)
        energy = _edge_energy(table, edge, enclosing)
        return piece([TimeDelta(time), EnergyDelta(energy), *own])

    terms = [
        Monomial._canonical(len(blocks), 0, blocks)
        for blocks in pairing_blocks(word.pattern, block, fock=fock, non_crossing=True)
    ]
    return ScalarSum.from_iter(terms)
