"""Formal labels and exact linear combinations.

Times and wave vectors stay opaque symbols end to end; nothing in the
engine ever assigns them components.  Energies live in the span of the
basis symbols w(k) (dispersion), k.k' (dot products between wave
vectors, k.k allowed) and k.p (dot product with the particle momentum),
with exact rational coefficients: an `int` when integral, a `Fraction`
otherwise (the two compare, hash and render alike).  Time combinations
carry integer coefficients.

There is one object per label and per basis: a label's class and name,
or a basis's kind and waves, find the object made the first time, so
dicts and sets hash and compare them by identity.  The order of a set
of them follows object addresses, which differ from run to run, so no
output may depend on it.

Label order is owned by one key: `sort_key`, computed once when a label
is made, orders names naturally (k9 before k10) and tells every two
distinct names apart.  Every place that orders labels, here or in the
modules that build on this one, sorts by that key.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

__all__ = [
    "TimeLabel",
    "WaveLabel",
    "TimeComb",
    "EnergyComb",
    "omega",
    "dot",
    "dot_p",
    "shift_p",
]

_DIGIT_SPLIT = re.compile(r"(\d+)")


def _natural_key(name: str) -> tuple:
    # orders k2 before k10 and never compares int with str; the name
    # itself breaks ties such as k01 / k1
    parts = tuple(
        (0, int(part)) if part.isdecimal() else (1, part)
        for part in _DIGIT_SPLIT.split(name)
        if part
    )
    return (parts, name)


_LABELS: dict = {}


class _Label:
    """A named symbol, one object per (class, name): the first call makes it
    with its `sort_key`, its place in label order, and every later call
    returns that object, so dicts and sets hash and compare labels by
    identity.  Labels cannot be changed; copy and pickle give back the one
    object."""

    __slots__ = ("name", "sort_key")

    def __new__(cls, name: str):
        label = _LABELS.get((cls, name))
        if label is None:
            label = object.__new__(cls)
            object.__setattr__(label, "name", name)
            object.__setattr__(label, "sort_key", _natural_key(name))
            _LABELS[cls, name] = label
        return label

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} {self.name!r} cannot be changed")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), (self.name,)

    def __repr__(self) -> str:
        return self.name


class TimeLabel(_Label):
    __slots__ = ()

    def __sub__(self, other: "TimeLabel") -> "TimeComb":
        return TimeComb.diff(self, other)


class WaveLabel(_Label):
    __slots__ = ()


def _signed_join(parts: list[tuple[str, bool]]) -> str:
    """Join rendered terms, folding leading signs into ' + ' / ' - '."""
    if not parts:
        return "0"
    text, negative = parts[0]
    out = ("-" + text) if negative else text
    for text, negative in parts[1:]:
        out += (" - " if negative else " + ") + text
    return out


@dataclass(frozen=True)
class _Comb:
    """Exact linear combination of basis symbols with a `sort_key`: terms
    merged, zero coefficients dropped, sorted by basis; empty is zero."""

    terms: tuple

    @classmethod
    def make(cls, items: Iterable[tuple]):
        """One merge of (basis, coefficient) items: a coefficient is added
        only to another of the same basis, so a term that merges with
        nothing keeps its coefficient object."""
        acc: dict = {}
        for basis, c in items:
            acc[basis] = acc[basis] + c if basis in acc else c
        kept = [(b, c) for b, c in acc.items() if c]
        kept.sort(key=lambda bc: bc[0].sort_key)
        return cls(tuple(kept))

    @classmethod
    def sum_of(cls, combs: Iterable):
        """The sum of several combinations, merged and sorted once."""
        return cls.make([t for c in combs for t in c.terms])

    @classmethod
    def zero(cls):
        return cls(())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, basis):
        for b, c in self.terms:
            if b == basis:
                return c
        return 0

    @property
    def support(self) -> tuple:
        return tuple(b for b, _ in self.terms)

    def __add__(self, other):
        return self.make(self.terms + other.terms)

    def __neg__(self):
        return type(self)(tuple((b, -c) for b, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if c == 1:
            return self
        if c == 0:
            return self.zero()
        return type(self)(tuple((b, c * cc) for b, cc in self.terms))

    def normalized(self):
        """Flip the overall sign so the earliest basis symbol has a positive
        coefficient."""
        if self.terms and self.terms[0][1] < 0:
            return -self
        return self

    @property
    def sort_key(self) -> tuple:
        # an int c sorts like (c, 1), so integer and rational terms order alike
        return tuple(
            (b.sort_key, c.numerator, c.denominator) for b, c in self.terms
        )

    def render(self) -> str:
        parts = []
        for b, c in self.terms:
            mag = str(b) if abs(c) == 1 else f"{abs(c)} {b}"
            parts.append((mag, c < 0))
        return _signed_join(parts)

    def __repr__(self) -> str:
        return self.render()


class TimeComb(_Comb):
    """Integer combination of time labels."""

    @classmethod
    def of(cls, label: TimeLabel, coeff: int = 1) -> "TimeComb":
        return cls.make([(label, coeff)])

    @classmethod
    def diff(cls, a: TimeLabel, b: TimeLabel) -> "TimeComb":
        return cls.make([(a, 1), (b, -1)])


_W, _DOT, _KP = 0, 1, 2
_KIND_NAMES = {_W: "w", _DOT: "dot", _KP: "kp"}
_KINDS_BY_NAME = {v: k for k, v in _KIND_NAMES.items()}


def basis_to_json(b: "_EBasis") -> tuple[str, list[str]]:
    """A basis symbol's JSON form: its kind name and its wave names."""
    return _KIND_NAMES[b.kind], [w.name for w in b.waves]


def basis_from_json(kind: str, names) -> "_EBasis":
    """The basis symbol of a JSON kind name and wave names."""
    return _basis(_KINDS_BY_NAME[kind], tuple(WaveLabel(n) for n in names))


@dataclass(frozen=True, slots=True, eq=False)
class _EBasis:
    """An energy basis symbol, one object per (kind, waves), made only by
    `_basis`, so it hashes and compares by identity; `sort_key`, its place
    in basis order, is made once, as a label's is.  `subst` maps its waves,
    returning self when none is mapped."""

    kind: int
    waves: tuple[WaveLabel, ...]
    sort_key: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "sort_key", (self.kind, tuple(w.sort_key for w in self.waves))
        )

    def __reduce__(self):
        return _basis, (self.kind, self.waves)

    def subst(self, rep: Mapping[WaveLabel, WaveLabel]) -> "_EBasis":
        if not any(w in rep for w in self.waves):
            return self
        return _basis(self.kind, tuple(rep.get(w, w) for w in self.waves))

    def render(self) -> str:
        if self.kind == _W:
            return f"w({self.waves[0].name})"
        if self.kind == _DOT:
            return f"{self.waves[0].name}.{self.waves[1].name}"
        return f"{self.waves[0].name}.p"

    __str__ = render


_BASES: dict[tuple, _EBasis] = {}


def _basis(kind: int, waves: tuple[WaveLabel, ...]) -> _EBasis:
    """The one basis symbol of a kind and its waves.  A dot basis keeps its
    two labels in label order; the table also holds it under the other
    order, so either order finds it without a sort."""
    basis = _BASES.get((kind, waves))
    if basis is None:
        arity = 2 if kind == _DOT else 1
        if len(waves) != arity:
            raise ValueError(f"a {_KIND_NAMES[kind]} basis takes {arity} waves, not {len(waves)}")
        if kind == _DOT and waves[1].sort_key < waves[0].sort_key:
            basis = _basis(kind, waves[::-1])
        else:
            basis = _EBasis(kind, waves)
        _BASES[kind, waves] = basis
    return basis


class EnergyComb(_Comb):
    """Exact rational combination of energy basis symbols.

    The dot-product symbol is stored with its two labels sorted, so
    dot(a, b) and dot(b, a) are the same term.
    """

    def __rmul__(self, c) -> "EnergyComb":
        # an int stays an int: int and Fraction compare, hash and render alike
        return self.scale(c if type(c) is int else Fraction(c))

    def subst_waves(self, rep: Mapping[WaveLabel, WaveLabel]) -> "EnergyComb":
        """Every wave label that `rep` maps replaced by its image; self, not
        re-made, when no such label is named."""
        if not any(w in rep for b, _ in self.terms for w in b.waves):
            return self
        return self.make([(b.subst(rep), c) for b, c in self.terms])


def omega(k: WaveLabel) -> EnergyComb:
    """The dispersion symbol w(k)."""
    return EnergyComb(((_basis(_W, (k,)), 1),))


def dot(a: WaveLabel, b: WaveLabel) -> EnergyComb:
    """The dot product a.b of two wave vectors (a.a is the square)."""
    return EnergyComb(((_basis(_DOT, (a, b)), 1),))


def dot_p(k: WaveLabel) -> EnergyComb:
    """The dot product k.p with the particle momentum."""
    return EnergyComb(((_basis(_KP, (k,)), 1),))


def shift_p(energy: EnergyComb, shifts: Iterable[tuple[WaveLabel, int]]) -> EnergyComb:
    """Substitute p -> p + sum(sign*k_j) over the (k_j, sign) pairs of shifts,
    in one merge: every c*(k.p) term adds c*sign*(k.k_j) per pair.  The same
    as shifting one pair at a time, since a shift adds no k.p term."""
    shifts = tuple(shifts)
    if any(sign not in (1, -1) for _, sign in shifts):
        raise ValueError("shift sign must be +1 or -1")
    extra = [
        (_basis(_DOT, (basis.waves[0], j)), c * sign)
        for basis, c in energy.terms
        if basis.kind == _KP
        for j, sign in shifts
    ]
    if not extra:
        return energy
    return EnergyComb.make(list(energy.terms) + extra)
