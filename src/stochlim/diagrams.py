"""Pair partitions of balanced operator patterns.

A pairing matches every creation position with an annihilation position;
edges are drawn as arcs above the word, and a pairing is the tuple of its
edges ordered by left end.  Its geometry is read pairwise from the edge
ends: e encloses f when e.a < f.a < f.b < e.b, and e and f cross when
e.a < f.a < e.b < f.b, which gives e the crossing vertex f.a and f the
crossing vertex e.b.  The exact correlator reads both; `is_non_crossing`
reads the crossings.  Positions are 1-based.

Both diagram sums come from one recursion (`pairing_blocks`): the
leftmost unpaired position pairs with each later partner the rules allow,
and each new edge is handed to the caller with its straddling edges, the
earlier ones whose right end lies past its left end, which enclose it or
cross it.  The exact correlator takes all (N/2)! pairings in the Gaussian
and temperature states and with `fock` only those in which every creation
follows its annihilation, the ones the Fock vacuum keeps; the limit takes
the non-crossing ones (`non_crossing`), where every straddling edge
encloses.  `count_non_crossing` counts the non-crossing pairings by the
Catalan recursion without making them; `enumerate_pairings` lists the
pairings directly, in its own order.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import NamedTuple, Sequence

__all__ = [
    "Edge",
    "enumerate_pairings",
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


def _pair(pattern, lo, straddling, block, fock, non_crossing, memo) -> list[tuple]:
    """Per pairing of the unpaired positions, lo the leftmost of them, its
    edges' blocks by left end.  `straddling` holds the earlier edges whose
    right end lies past lo, by left end; the unpaired positions are those
    from lo on at which none of them ends.  Indices are 0-based.  The memo
    is passed in, so nothing is left for the cyclic collector."""
    key = lo, straddling  # the unpaired positions follow from these two
    out = memo.get(key)
    if out is not None:
        return out
    out = memo[key] = [()] if lo == len(pattern) else []
    if out or (fock and pattern[lo] == 1):  # a vacuum pairing opens with an annihilation
        return out
    ends = [e.b - 1 for e in straddling]  # the positions they have taken
    # a non-crossing partner lies inside the innermost straddling edge
    hi = ends[-1] if non_crossing and ends else len(pattern)
    depth = 0
    for j in range(lo + 1, hi):
        # non-crossing also needs a balanced inside: depth 0 at j
        if pattern[j] == -pattern[lo] and j not in ends and not (non_crossing and depth):
            edge = Edge(j + 1, lo + 1) if pattern[j] == 1 else Edge(lo + 1, j + 1)
            nxt = lo + 1
            while nxt in ends or nxt == j:
                nxt += 1
            later = tuple(e for e, end in zip(straddling, ends) if end > nxt)
            if j > nxt:
                later += (edge,)
            rests = _pair(pattern, nxt, later, block, fock, non_crossing, memo)
            if rests:  # a Fock branch can die; its edge then needs no block
                first = (block(edge, straddling),)
                out += [first + rest for rest in rests]
        depth += pattern[j]
    return out


def pairing_blocks(
    pattern: Sequence[int], block, fock: bool = False, non_crossing: bool = False
) -> list[tuple]:
    """The pairings of a pattern as tuples of per-edge blocks, edges by left
    end: the leftmost unpaired position pairs with each later unpaired
    position of opposite sign that the rules allow.  With `fock` it must be
    an annihilation (the Fock vacuum's pairings); with `non_crossing` the
    partner lies inside the innermost straddling edge, with a balanced
    inside.  `block(edge, straddling)` is called once per edge and tuple of
    the earlier edges whose right end lies past the edge's left end,
    outermost first, each enclosing or crossing it; its value is shared by
    every pairing that holds the edge there.  An unbalanced pattern has
    no pairings, so both diagram sums of an unbalanced word are zero."""
    pattern = tuple(pattern)
    if not _balanced(pattern):
        return []
    return _pair(pattern, 0, (), block, fock, non_crossing, {})


def enumerate_pairings(pattern: Sequence[int]) -> tuple[tuple, ...]:
    """All matchings of creations with annihilations, in lexicographic order
    of the assignment vector taken in ascending creation order.  Each is the
    tuple of its edges by left end.  Unbalanced patterns have no pairings.

    Listed directly, so the reference sums that tests build over it share
    no code with `pairing_blocks`: the assignment vectors in that order are
    the permutations of the ascending annihilation positions."""
    if not _balanced(pattern):
        return ()
    creations = [i for i, eps in enumerate(pattern, start=1) if eps == 1]
    annihilations = [i for i, eps in enumerate(pattern, start=1) if eps == -1]
    # per creation, its Edge to each annihilation, shared by every pairing holding it
    edges = [{a: Edge(c, a) for a in annihilations} for c in creations]
    return tuple(
        tuple(sorted([row[a] for row, a in zip(edges, partners)], key=min))
        for partners in permutations(annihilations)
    )


def is_non_crossing(edges: Sequence[Edge]) -> bool:
    """No two edges, ordered by left end, cross: e.a < f.a < e.b < f.b
    holds for no e before f."""
    return not any(e.a < f.a < e.b < f.b for e, f in combinations(edges, 2))


def _count(pattern, lo, hi, memo) -> int:
    """Non-crossing pairings of pattern[lo:hi]: its first position pairs with
    each later opposite one whose inside is balanced; inside and rest apart."""
    if (lo, hi) not in memo:
        total = depth = 0
        for j in range(lo + 1, hi):
            if pattern[j] == -pattern[lo] and not depth:
                total += _count(pattern, lo + 1, j, memo) * _count(pattern, j + 1, hi, memo)
            depth += pattern[j]
        memo[lo, hi] = total if lo < hi else 1
    return memo[lo, hi]


def count_non_crossing(pattern: Sequence[int]) -> int:
    """The number of non-crossing pairings, counted by the Catalan
    recursion without listing them; 0 for an unbalanced pattern."""
    return _count(tuple(pattern), 0, len(pattern), {})


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
