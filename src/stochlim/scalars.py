"""Scalar expressions: exact sums of monomials.

A monomial is a product of formal powers of 2pi and of the coupling lam,
oscillating exponents, delta factors and occupation factors; it carries
no coefficient.  A sum is a `symbols._Comb` of (monomial, rational)
terms with its own merge, `ScalarSum.make`: it adds the coefficients of
equal monomials, drops zeros and sorts the terms field by field, by the
keys of `_FIELD_KEYS`, the one definition of monomial order; it hashes
no monomial.  A coefficient is an `int` or a `Fraction`, which render
alike.  Equality of sums is structural equality of canonical forms, so
canonicalization is the load-bearing part of this module:

* The oscillating content exp((i/lam^2) * sum_r T_r * E_r) is expanded
  into one energy row per time label.  Products that were written with
  composite time arguments, such as exp((i/lam^2)(t - t') * E), compare
  equal to the same content written as two single-time factors; the
  different computation paths of this package produce both shapes.
* Each pairing owns one 1/lam^2 quota, recorded as the sign-normalized
  time combination of its exponent.  The quota multiset is part of the
  canonical form; the stochastic limit consumes exactly these quotas.
* Momentum deltas identify wave labels per monomial: every monomial is
  built unified, each wave label in its oscillation rows, energy deltas
  and occupation factors replaced by the smallest label of its delta
  chain (`wave_representatives`); the delta factors themselves keep
  their original labels.

Factors are checked once, by `piece`, which turns them into monomial
fields: an oscillating factor into one (time label, coefficient, energy)
contribution per label of its exponent, every delta argument
sign-normalized.  A piece that many terms share, a diagram block of
`correlator` or a contraction of `masterfield`'s walk, is made once.
Canonical order is owned by one constructor, Monomial._canonical: it
joins a term's pieces, sums each oscillation row in one merge and sorts
every field by the label key of `symbols`, checking nothing again.  It
applies the wave substitution its caller passes: Monomial.build (the
rewriting oracles, JSON input) makes it from its deltas with
`wave_representatives`, the free walk from those that map a wave its
pieces hold, and the diagram sums and `take_limit` pass none, as their
waves are unified already.

The imaginary unit never appears in coefficients; it lives only in the
semantics of the oscillating exponent and is materialized in the numeric
evaluator.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence, Union

from .symbols import (
    EnergyComb,
    _Comb,
    TimeComb,
    TimeLabel,
    WaveLabel,
    basis_from_json,
    basis_to_json,
)

__all__ = [
    "OscExp",
    "DeltaK",
    "TimeDelta",
    "EnergyDelta",
    "MFactor",
    "Monomial",
    "ScalarSum",
]


class OscExp(NamedTuple):
    """exp((i/lam^2) * time * energy); pairing=True attaches a 1/lam^2 quota."""

    time: TimeComb
    energy: EnergyComb
    pairing: bool = False


class DeltaK(NamedTuple):
    """Momentum delta d(k - k'), symmetric in its two labels."""

    left: WaveLabel
    right: WaveLabel


class TimeDelta(NamedTuple):
    """d(T) for a time combination T; a limit object."""

    time: TimeComb


class EnergyDelta(NamedTuple):
    """d(E) for an energy combination E, operator valued in p; a limit object."""

    energy: EnergyComb


class MFactor(NamedTuple):
    """Occupation factor N(k) + offset with offset 0 or 1."""

    wave: WaveLabel
    offset: int


Factor = Union[OscExp, DeltaK, TimeDelta, EnergyDelta, MFactor]


def _pair_key(p: tuple[WaveLabel, WaveLabel]) -> tuple:
    return (p[0].sort_key, p[1].sort_key)


_key = attrgetter("sort_key")


def _nonzero_delta(c: "TimeComb | EnergyComb", kind: str):
    """The sign-normalized argument of a delta factor; deltas are even."""
    if c.is_zero:
        raise ValueError(f"{kind} delta of the zero combination")
    return c.normalized()


class Piece(NamedTuple):
    """Checked monomial fields, not yet ordered or unified, as `piece` makes
    them; an oscillation entry (time label, c, energy) adds c * energy."""

    quotas: Sequence[TimeComb]
    osc: Sequence[tuple[TimeLabel, int, EnergyComb]]
    time_deltas: Sequence[TimeComb]
    energy_deltas: Sequence[EnergyComb]
    delta_k: Sequence[tuple[WaveLabel, WaveLabel]]
    m_factors: Sequence[tuple[WaveLabel, int]]


def piece(factors: Iterable[Factor], quotas: Iterable[TimeComb] = ()) -> Piece:
    """The one check of scalar factors, each of one of the five factor types
    exactly, and pairing quotas, and their conversion to fields: an
    oscillation factor becomes one (label, coefficient, energy) contribution
    per time label of its exponent; every delta argument is sign-normalized."""
    quota_list = [q.normalized() for q in quotas]
    if any(q.is_zero for q in quota_list):
        raise ValueError("a pairing quota needs a nonzero time argument")
    rows, tds, eds, dks, mfs = [], [], [], [], []
    for f in factors:
        if (kind := type(f)) is OscExp:
            if f.time.is_zero or f.energy.is_zero:
                if f.pairing:
                    raise ValueError("a pairing exponent needs nonzero time and energy")
                continue
            if f.pairing:
                quota_list.append(f.time.normalized())
            rows += [(label, c, f.energy) for label, c in f.time.terms]
        elif kind is TimeDelta:
            tds.append(_nonzero_delta(f.time, "time"))
        elif kind is EnergyDelta:
            eds.append(_nonzero_delta(f.energy, "energy"))
        elif kind is DeltaK:
            a, b = f
            if a == b:
                raise ValueError("momentum delta needs two distinct labels")
            dks.append((a, b) if a.sort_key < b.sort_key else (b, a))
        elif kind is MFactor:
            if f.offset not in (0, 1):
                raise ValueError("occupation offset must be 0 or 1")
            mfs.append((f.wave, f.offset))
        else:
            raise TypeError(f"not a scalar factor: {f!r}")
    return Piece(quota_list, rows, tds, eds, dks, mfs)


class Monomial(NamedTuple):
    """One canonical product of factors, without a coefficient: a sum
    pairs each monomial with its rational.  A NamedTuple, so it compares
    and hashes as the tuple of its fields.

    Do not call the constructor directly: every factor is checked by
    `piece`, and every field is sorted by Monomial._canonical.
    """

    two_pi: int
    lam: int
    quotas: tuple[TimeComb, ...]
    osc: tuple[tuple[TimeLabel, EnergyComb], ...]
    time_deltas: tuple[TimeComb, ...]
    energy_deltas: tuple[EnergyComb, ...]
    delta_k: tuple[tuple[WaveLabel, WaveLabel], ...]
    m_factors: tuple[tuple[WaveLabel, int], ...]

    @classmethod
    def _canonical(cls, two_pi: int, lam: int, pieces: Iterable[Piece], rep=None) -> "Monomial":
        """The one place that orders monomial fields: the pieces' fields
        joined, each oscillation row summed from its contributions in one
        merge, zero rows dropped, every field sorted by the keys of
        `symbols`; nothing is checked again.  `rep`, the caller's wave
        substitution, is applied to the rows, energy deltas and occupation
        factors; None when they are unified already."""
        quotas, tds, eds, dks, mfs = [], [], [], [], []
        parts: dict[TimeLabel, list[tuple[int, EnergyComb]]] = {}
        for p in pieces:
            quotas += p.quotas
            for label, c, e in p.osc:
                parts.setdefault(label, []).append((c, e))
            tds += p.time_deltas
            eds += p.energy_deltas
            dks += p.delta_k
            mfs += p.m_factors
        rows = []
        for label, ces in parts.items():
            if len(ces) == 1:
                c, e = ces[0]
                row = e.subst_waves(rep, c) if rep else e.scale(c)
            else:
                row = EnergyComb.make(
                    [(b.subst(rep) if rep else b, cc if c == 1 else -cc if c == -1 else c * cc)
                     for c, e in ces for b, cc in e.terms]
                )
            if not row.is_zero:
                rows.append((label, row))
        rows.sort(key=lambda le: le[0].sort_key)
        if rep:
            eds = [_nonzero_delta(e.subst_waves(rep), "energy") for e in eds]
            mfs = [(rep.get(w, w), o) for w, o in mfs]
        return cls(
            two_pi,
            lam,
            tuple(sorted(quotas, key=_key)),
            tuple(rows),
            tuple(sorted(tds, key=_key)),
            tuple(sorted(eds, key=_key)),
            tuple(sorted(dks, key=_pair_key)),
            tuple(sorted(mfs, key=lambda mo: (mo[0].sort_key, mo[1]))),
        )

    @classmethod
    def build(cls, two_pi: int = 0, lam: int = 0, factors=(), quotas=()) -> "Monomial":
        """The canonical monomial of a term's own factors and pairing quotas
        (the rewriting oracles, JSON input): one `piece`, unified over its
        momentum deltas."""
        p = piece(factors, quotas)
        return cls._canonical(two_pi, lam, (p,), wave_representatives(p.delta_k))

    @property
    def sort_key(self) -> tuple:
        """The monomial's place in the order of a sum's terms: its keys of
        `_FIELD_KEYS`."""
        return tuple([key(self) for key in _FIELD_KEYS])

    def render(self, rational=1) -> str:
        """The monomial times rational; the rational is printed when it is
        not 1 or when no field holds a factor (`any` over the fields)."""
        parts: list[str] = []
        if rational != 1 or not any(self):
            parts.append(str(rational))
        if self.two_pi:
            parts.append("(2pi)" if self.two_pi == 1 else f"(2pi)^{self.two_pi}")
        if self.lam:
            parts.append(f"lam^{self.lam}")
        for q in self.quotas:
            parts.append(f"pair({q.render()})")
        if self.osc:
            rows = "; ".join(f"{l.name}: {e.render()}" for l, e in self.osc)
            parts.append("exp{(i/lam^2)[" + rows + "]}")
        for t in self.time_deltas:
            parts.append(f"dT({t.render()})")
        for e in self.energy_deltas:
            parts.append(f"dE({e.render()})")
        for a, b in self.delta_k:
            parts.append(f"dk({a.name},{b.name})")
        for w, off in self.m_factors:
            parts.append(f"N({w.name})" if off == 0 else f"(N({w.name})+1)")
        return " * ".join(parts)


# Monomial order, its one definition: a key per field, in field order;
# two monomials compare by the first key on which they differ, and are
# equal when they tie on every key.
_FIELD_KEYS = (
    lambda m: m[:2],  # (two_pi, lam)
    lambda m: tuple(map(_key, m.quotas)),
    lambda m: tuple([(l.sort_key, e.sort_key) for l, e in m.osc]),
    lambda m: tuple(map(_key, m.time_deltas)),
    lambda m: tuple(map(_key, m.energy_deltas)),
    lambda m: tuple(map(_pair_key, m.delta_k)),
    lambda m: tuple([(w.sort_key, o) for w, o in m.m_factors]),
)
_LAST_FIELD = len(_FIELD_KEYS) - 1


def _merge(items: list, field: int, out: list) -> None:
    """Append to `out` the merged terms of `items`, which tie on every field
    before `field`: grouped by that field's key, groups in key order, each
    group of more than one term merged on the later fields; terms that tie
    on every field add their rationals in arrival order."""
    key = _FIELD_KEYS[field]
    groups: dict = {}
    for item in items:
        groups.setdefault(key(item[0]), []).append(item)
    for k in sorted(groups):
        group = groups[k]
        if len(group) > 1 and field < _LAST_FIELD:
            _merge(group, field + 1, out)
            continue
        m, c = group[0]
        for _, x in group[1:]:
            c = c + x
        if c:
            out.append((m, c))


class ScalarSum(_Comb):
    """Canonical sum of (monomial, rational) terms: merged, zero terms
    dropped, sorted by monomial."""

    __slots__ = ()

    @classmethod
    def make(cls, items: Iterable[tuple[Monomial, "int | Fraction"]]) -> "ScalarSum":
        """The one merge of (monomial, rational) items, field by field in
        `_FIELD_KEYS` order: a field's key is made only for terms that tie
        on every earlier field, and no monomial is hashed.  A term that
        merges with nothing keeps its rational object."""
        terms: list = []
        _merge(list(items), 0, terms)
        return cls(tuple(terms))

    @classmethod
    def from_iter(cls, monomials: Iterable[Monomial]) -> "ScalarSum":
        """The sum of the monomials, each with coefficient 1."""
        return cls.make((m, 1) for m in monomials)

    def render(self) -> str:
        if not self.terms:
            return "0"
        return "\n+ ".join(m.render(c) for m, c in self.terms)

    def to_json(self) -> dict:
        def tc(t: TimeComb):
            return [[l.name, c] for l, c in t.terms]

        def ec(e: EnergyComb):
            return [[*basis_to_json(b), c.numerator, c.denominator] for b, c in e.terms]

        return {
            "terms": [
                {
                    "rational": [r.numerator, r.denominator],
                    "twoPi": m.two_pi,
                    "lambda": m.lam,
                    "pairs": [tc(q) for q in m.quotas],
                    "osc": [[l.name, ec(e)] for l, e in m.osc],
                    "timeDeltas": [tc(t) for t in m.time_deltas],
                    "energyDeltas": [ec(e) for e in m.energy_deltas],
                    "waveDeltas": [[a.name, b.name] for a, b in m.delta_k],
                    "occupation": [[w.name, o] for w, o in m.m_factors],
                }
                for m, r in self.terms
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> "ScalarSum":
        def tc(items) -> TimeComb:
            return TimeComb.make([(TimeLabel(n), int(c)) for n, c in items])

        def ec(items) -> EnergyComb:
            return EnergyComb.make(
                [
                    (basis_from_json(kind, waves), Fraction(int(num), int(den)))
                    for kind, waves, num, den in items
                ]
            )

        terms = []
        for t in data["terms"]:
            factors: list[Factor] = []
            for name, e in t["osc"]:
                factors.append(OscExp(TimeComb.of(TimeLabel(name)), ec(e)))
            for item in t["timeDeltas"]:
                factors.append(TimeDelta(tc(item)))
            for item in t["energyDeltas"]:
                factors.append(EnergyDelta(ec(item)))
            for a, b in t["waveDeltas"]:
                factors.append(DeltaK(WaveLabel(a), WaveLabel(b)))
            for w, o in t["occupation"]:
                factors.append(MFactor(WaveLabel(w), int(o)))
            m = Monomial.build(
                two_pi=int(t["twoPi"]),
                lam=int(t["lambda"]),
                factors=factors,
                quotas=[tc(q) for q in t["pairs"]],
            )
            terms.append((m, Fraction(t["rational"][0], t["rational"][1])))
        return cls.make(terms)


def wave_representatives(
    delta_k: Iterable[tuple[WaveLabel, WaveLabel]],
) -> dict[WaveLabel, WaveLabel]:
    """Every wave label that a chain of momentum deltas joins to a smaller
    label, mapped to the smallest label of its chain in label order;
    labels that represent themselves are absent."""
    parent: dict[WaveLabel, WaveLabel] = {}

    def find(w: WaveLabel) -> WaveLabel:
        while w in parent:
            w = parent[w]
        return w

    for a, b in delta_k:
        ra, rb = find(a), find(b)
        if ra is not rb:
            if rb.sort_key < ra.sort_key:
                ra, rb = rb, ra
            parent[rb] = ra
    return {w: find(w) for w in parent}
