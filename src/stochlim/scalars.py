"""Scalar expressions: exact sums of monomials.

A monomial is a product of formal powers of 2pi and of the coupling lam,
oscillating exponents, delta factors and occupation factors; it carries
no coefficient.  A sum is a `symbols._Comb` of (monomial, rational)
terms, so one merge (`_Comb.make`) adds the coefficients of equal
monomials, drops zeros and sorts by `Monomial.sort_key`; a coefficient
is an `int` or a `Fraction`, which render alike.  Equality of sums is
structural equality of canonical forms, so canonicalization is the
load-bearing part of this module:

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

Canonical order and unification are owned by one constructor,
Monomial._canonical: build, the limit and JSON parsing all hand it
fields, and it substitutes representatives and sorts the fields by the
label key of `symbols`.  Monomial.build only checks factors and
converts them to fields; an oscillating factor becomes one (time label,
time coefficient, energy) contribution per label of its exponent, and
`_canonical` makes each row from its contributions in one pass,
substituting and scaling every term on its way into one merge.

The imaginary unit never appears in coefficients; it lives only in the
semantics of the oscillating exponent and is materialized in the numeric
evaluator.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Iterable, NamedTuple, Union

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


class Monomial(NamedTuple):
    """One canonical product of factors, without a coefficient: a sum
    pairs each monomial with its rational.  A NamedTuple, so it compares
    and hashes as the tuple of its fields.

    Do not call the constructor directly: Monomial.build validates factors,
    and every field is sorted by Monomial._canonical.
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
    def _canonical(
        cls,
        two_pi: int,
        lam: int,
        quotas: Iterable[TimeComb] = (),
        osc: Iterable[tuple[TimeLabel, int, EnergyComb]] = (),
        time_deltas: Iterable[TimeComb] = (),
        energy_deltas: Iterable[EnergyComb] = (),
        delta_k: Iterable[tuple[WaveLabel, WaveLabel]] = (),
        m_factors: Iterable[tuple[WaveLabel, int]] = (),
    ) -> "Monomial":
        """The one place that orders and unifies monomial fields: oscillation
        rows summed per time label, wave labels replaced by their delta-chain
        representatives, zero rows dropped, every field sorted by the label
        and combination keys of `symbols`.  Entries must already be valid
        and sign-normalized.

        An oscillation contribution (label, c, energy) adds c * energy to
        the label's row.  Each row is made in one pass: its contributions
        gathered, each basis substituted and each coefficient multiplied
        by c on the way in, and one EnergyComb.make.  A lone contribution
        none of whose waves is mapped needs no merge: it is kept as the
        same object when c = 1, and only scaled otherwise."""
        delta_k = tuple(sorted(delta_k, key=_pair_key))
        rep = wave_representatives(delta_k)
        parts: dict[TimeLabel, list[tuple[int, EnergyComb]]] = {}
        for label, c, e in osc:
            got = parts.get(label)
            if got is None:
                parts[label] = [(c, e)]
            else:
                got.append((c, e))
        rows = []
        for label, ces in parts.items():
            if len(ces) == 1:
                c, e = ces[0]
                row = e.subst_waves(rep, c)
            else:
                row = EnergyComb.make(
                    [
                        (b.subst(rep), cc if c == 1 else -cc if c == -1 else c * cc)
                        for c, e in ces
                        for b, cc in e.terms
                    ]
                )
            if not row.is_zero:
                rows.append((label, row))
        rows.sort(key=lambda le: le[0].sort_key)
        if rep:
            energy_deltas = [
                _nonzero_delta(e.subst_waves(rep), "energy") for e in energy_deltas
            ]
            m_factors = [(rep.get(w, w), o) for w, o in m_factors]
        return cls(
            two_pi=two_pi,
            lam=lam,
            quotas=tuple(sorted(quotas, key=_key)),
            osc=tuple(rows),
            time_deltas=tuple(sorted(time_deltas, key=_key)),
            energy_deltas=tuple(sorted(energy_deltas, key=_key)),
            delta_k=delta_k,
            m_factors=tuple(
                sorted(m_factors, key=lambda mo: (mo[0].sort_key, mo[1]))
            ),
        )

    @classmethod
    def build(
        cls,
        two_pi: int = 0,
        lam: int = 0,
        factors: Iterable[Factor] = (),
        quotas: Iterable[TimeComb] = (),
    ) -> "Monomial":
        """The canonical monomial of the factors and pairing quotas: each
        factor checked and converted to fields, an oscillation factor into
        one (label, time coefficient, energy) contribution per time label
        of its exponent, all handed to `_canonical`."""
        quota_list: list[TimeComb] = []
        for q in quotas:
            if q.is_zero:
                raise ValueError("a pairing quota needs a nonzero time argument")
            quota_list.append(q.normalized())
        rows: list[tuple[TimeLabel, int, EnergyComb]] = []
        tds: list[TimeComb] = []
        eds: list[EnergyComb] = []
        dks: list[tuple[WaveLabel, WaveLabel]] = []
        mfs: list[tuple[WaveLabel, int]] = []
        for f in factors:
            if isinstance(f, OscExp):
                if f.time.is_zero or f.energy.is_zero:
                    if f.pairing:
                        raise ValueError(
                            "a pairing exponent needs nonzero time and energy"
                        )
                    continue
                if f.pairing:
                    quota_list.append(f.time.normalized())
                rows += [(label, c, f.energy) for label, c in f.time.terms]
            elif isinstance(f, TimeDelta):
                tds.append(_nonzero_delta(f.time, "time"))
            elif isinstance(f, EnergyDelta):
                eds.append(_nonzero_delta(f.energy, "energy"))
            elif isinstance(f, DeltaK):
                if f.left == f.right:
                    raise ValueError("momentum delta needs two distinct labels")
                dks.append(tuple(sorted((f.left, f.right), key=_key)))
            elif isinstance(f, MFactor):
                if f.offset not in (0, 1):
                    raise ValueError("occupation offset must be 0 or 1")
                mfs.append((f.wave, f.offset))
            else:
                raise TypeError(f"not a scalar factor: {f!r}")
        return cls._canonical(
            two_pi,
            lam,
            quotas=quota_list,
            osc=rows,
            time_deltas=tds,
            energy_deltas=eds,
            delta_k=dks,
            m_factors=mfs,
        )

    @property
    def sort_key(self) -> tuple:
        """The monomial's place in the order of a sum's terms."""
        return (
            self.two_pi,
            self.lam,
            tuple([q.sort_key for q in self.quotas]),
            tuple([(l.sort_key, e.sort_key) for l, e in self.osc]),
            tuple([t.sort_key for t in self.time_deltas]),
            tuple([e.sort_key for e in self.energy_deltas]),
            tuple([_pair_key(p) for p in self.delta_k]),
            tuple([(w.sort_key, o) for w, o in self.m_factors]),
        )

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


class ScalarSum(_Comb):
    """Canonical sum of (monomial, rational) terms: merged, zero terms
    dropped, sorted by monomial."""

    __slots__ = ()

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
        ra, rb = sorted((find(a), find(b)), key=_key)
        if ra != rb:
            parent[rb] = ra
    return {w: find(w) for w in parent}
