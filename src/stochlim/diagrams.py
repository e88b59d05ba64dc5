"""Pair partitions of balanced operator patterns.

A pairing matches every creation position with an annihilation position;
edges are drawn as arcs above the word, and a pairing is the tuple of its
edges ordered by left end.  Its geometry is read pairwise from the edge
ends: e encloses f when e.a < f.a < f.b < e.b, and e and f cross when
e.a < f.a < e.b < f.b, which gives e the crossing vertex f.a and f the
crossing vertex e.b.  The exact correlator reads both; `is_non_crossing`
reads the crossings.  Positions are 1-based.

The exact correlator sums over pairings made by one recursion
(`enumerate_pairings`): all (N/2)! of them in the Gaussian and
temperature states, and with `fock=True` only those in which every
creation follows its annihilation, the ones the Fock vacuum keeps.  The
limit keeps the non-crossing ones, from one Catalan recursion that carries
each edge's enclosing edges (`non_crossing_blocks`); `count_non_crossing`
is made from it too.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, NamedTuple, Sequence

__all__ = [
    "Edge",
    "enumerate_pairings",
    "non_crossing_blocks",
    "is_non_crossing",
    "count_non_crossing",
    "count_fock_surviving",
]


class _EdgeFields(NamedTuple):
    creation: int
    annihilation: int


class Edge(_EdgeFields):
    """The positions of an edge's creation and annihilation; a NamedTuple
    whose constructor checks them."""

    __slots__ = ()

    def __new__(cls, creation: int, annihilation: int) -> "Edge":
        if creation == annihilation:
            raise ValueError("edge endpoints must differ")
        if creation < 1 or annihilation < 1:
            raise ValueError("positions are 1-based")
        return super().__new__(cls, creation, annihilation)

    @property
    def a(self) -> int:
        return min(self.creation, self.annihilation)

    @property
    def b(self) -> int:
        return max(self.creation, self.annihilation)

    @property
    def delta(self) -> int:
        """+1 when the creation sits right of the annihilation, else -1."""
        return 1 if self.creation > self.annihilation else -1


def _balanced(pattern: Sequence[int]) -> bool:
    return pattern.count(1) == pattern.count(-1)


def _assign(creations, i, free, edge, left, out, fock) -> None:
    if i == len(creations):
        out.append(tuple(e for e in left if e is not None))
        return
    c = creations[i]
    for j, a in enumerate(free):
        if fock and a > c:
            break
        e = edge[c, a]
        left[c], left[a] = (e, None) if c < a else (None, e)
        _assign(creations, i + 1, free[:j] + free[j + 1 :], edge, left, out, fock)


def enumerate_pairings(pattern: Sequence[int], fock: bool = False) -> tuple[tuple, ...]:
    """All matchings of creations with annihilations, in lexicographic order
    of the assignment vector taken in ascending creation order; with `fock`
    only those in which every creation follows its annihilation, in the same
    order.  Each is the tuple of its edges by left end.  Unbalanced patterns
    have no pairings."""
    creations = [i + 1 for i, eps in enumerate(pattern) if eps == 1]
    annihilations = [i + 1 for i, eps in enumerate(pattern) if eps == -1]
    if len(creations) != len(annihilations):
        return ()
    edge = {(c, a): Edge(c, a) for c in creations for a in annihilations}
    # every position is written on every full branch: its edge when it is
    # the edge's left end, else None; the edges then come out by left end
    left = [None] * (len(pattern) + 1)
    out: list[tuple[Edge, ...]] = []
    _assign(creations, 0, tuple(annihilations), edge, left, out, fock)
    return tuple(out)


def _partners(pattern: Sequence[int], lo: int, hi: int) -> Iterator[int]:
    """The j in (lo, hi) that position lo can pair with in a non-crossing
    pairing of pattern[lo:hi]: opposite sign and a balanced inside.
    Indices are 0-based."""
    depth = 0
    for j in range(lo + 1, hi):
        if depth == 0 and pattern[j] == -pattern[lo]:
            yield j
        depth += pattern[j]


def _blocks(pattern, lo, hi, enclosing, block, memo) -> list[tuple]:
    """Per non-crossing pairing of pattern[lo:hi] inside the edges
    `enclosing`, its edges' blocks by left end.  The memo is passed in, so
    nothing is left for the cyclic collector."""
    key = lo, enclosing  # hi is the innermost enclosing edge's right end
    out = memo.get(key)
    if out is None:
        out = [()] if lo == hi else []
        for j in _partners(pattern, lo, hi):
            edge = Edge(j + 1, lo + 1) if pattern[j] == 1 else Edge(lo + 1, j + 1)
            first = (block(edge, enclosing),)
            outside = _blocks(pattern, j + 1, hi, enclosing, block, memo)
            for inside in _blocks(pattern, lo + 1, j, enclosing + (edge,), block, memo):
                out += [first + inside + rest for rest in outside]
        memo[key] = out
    return out


def non_crossing_blocks(pattern: Sequence[int], block) -> list[tuple]:
    """The non-crossing pairings of a pattern as tuples of per-edge blocks,
    edges by left end, by the Catalan recursion: the first letter pairs with
    a partner whose inside is balanced, then the inside and the outside are
    paired on their own.  `block(edge, enclosing)` is called once per edge
    and tuple of the edges enclosing it, outermost first, and its value is
    shared by every pairing that holds the edge there."""
    pattern = tuple(pattern)
    if not _balanced(pattern):
        return []
    return _blocks(pattern, 0, len(pattern), (), block, {})


def is_non_crossing(edges: Sequence[Edge]) -> bool:
    """No two edges, ordered by left end, cross: e.a < f.a < e.b < f.b
    holds for no e before f."""
    return not any(e.a < f.a < e.b < f.b for e, f in combinations(edges, 2))


def count_non_crossing(pattern: Sequence[int]) -> int:
    """The number of non-crossing pairings, from `non_crossing_blocks`."""
    return len(non_crossing_blocks(pattern, lambda edge, enclosing: None))


def count_fock_surviving(pattern: Sequence[int]) -> int:
    """Diagrams in which every creation follows its annihilation: scanning
    left to right, each creation picks one of the annihilations still open."""
    if not _balanced(pattern):
        return 0
    total, open_ann = 1, 0
    for eps in pattern:
        if eps == 1:
            total *= open_ann
            open_ann -= 1
        else:
            open_ann += 1
    return total
