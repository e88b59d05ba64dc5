import math
import random

import pytest

from stochlim.diagrams import (
    Edge,
    count_fock_surviving,
    count_non_crossing,
    enumerate_pairings,
    is_non_crossing,
    non_crossing_pairings,
)
from stochlim.words import balanced_patterns


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def filtered_non_crossing(pattern):
    """Brute force: every pairing, then drop the crossing ones."""
    return [d for d in enumerate_pairings(pattern) if is_non_crossing(d)]


def balanced_up_to(n):
    return [p for m in range(2, n + 1, 2) for p in balanced_patterns(m)]


def test_two_point():
    diagrams = enumerate_pairings((-1, 1))
    assert len(diagrams) == 1
    assert diagrams[0].edges == (Edge(2, 1),)
    assert is_non_crossing(diagrams[0])


def test_four_point_pair():
    diagrams = enumerate_pairings((-1, -1, 1, 1))
    assert len(diagrams) == 2
    # lexicographic over the annihilation assignment in creation order
    assert str(diagrams[0]) == "(3,1)(4,2)"
    assert str(diagrams[1]) == "(4,1)(3,2)"
    assert not is_non_crossing(diagrams[0])
    assert is_non_crossing(diagrams[1])


def test_unbalanced_empty():
    assert enumerate_pairings((-1, 1, 1)) == ()
    assert enumerate_pairings((-1,)) == ()


def test_alternating_four_point():
    assert len(enumerate_pairings((-1, 1, -1, 1))) == 2


def test_counts_are_factorial():
    for n in range(1, 7):
        for pattern in balanced_patterns(2 * n):
            assert len(enumerate_pairings(pattern)) == math.factorial(n)


def test_non_crossing_counts():
    assert count_non_crossing((-1, -1, 1, 1)) == 1
    assert count_non_crossing((-1, 1)) == 1
    for n in range(1, 7):
        alternating = (-1, 1) * n
        assert count_non_crossing(alternating) == catalan(n)
        rainbow = (-1,) * n + (1,) * n
        assert count_non_crossing(rainbow) == 1


def test_non_crossing_below_catalan():
    for n in range(1, 4):
        for pattern in balanced_patterns(2 * n):
            assert count_non_crossing(pattern) <= catalan(n)


def test_fock_surviving():
    assert count_fock_surviving((-1, -1, 1, 1)) == 2
    assert count_fock_surviving((1, -1)) == 0
    assert count_fock_surviving((-1, 1, -1, 1)) == 1
    assert count_fock_surviving((-1, -1, 1)) == 0
    assert count_non_crossing((-1, -1, 1)) == 0


def test_counts_match_brute_force():
    for pattern in balanced_up_to(10):
        diagrams = enumerate_pairings(pattern)
        assert count_non_crossing(pattern) == sum(map(is_non_crossing, diagrams))
        assert count_fock_surviving(pattern) == sum(
            1 for d in diagrams if all(e.delta == 1 for e in d.edges)
        ), pattern


def test_non_crossing_generator_matches_filter():
    sample = random.Random(12).sample(balanced_patterns(12), 40)
    for pattern in balanced_up_to(10) + sample:
        direct = list(non_crossing_pairings(pattern))
        assert len(set(direct)) == len(direct)
        assert set(direct) == set(filtered_non_crossing(pattern)), pattern
    assert list(non_crossing_pairings((-1, 1, 1))) == []


def test_span_scan_matches_interval_definitions():
    """Every diagram of every balanced pattern up to N=8: the scan's
    enclosing edges and crossing positions are the interval definitions,
    and a diagram is non-crossing when no edge has a crossing position."""
    for pattern in balanced_up_to(8):
        for d in enumerate_pairings(pattern):
            spans = d.spans()
            assert len(spans) == len(d.edges)
            crossing = False
            for e, (enclosing, crossings) in zip(d.edges, spans):
                assert sorted(enclosing, key=lambda l: l.a) == [
                    l for l in d.edges if l.a < e.a < e.b < l.b
                ], (d, e)
                inside = [
                    p
                    for l in d.edges
                    if (e.a < l.a < e.b) != (e.a < l.b < e.b)
                    for p in (l.a, l.b)
                    if e.a < p < e.b
                ]
                assert crossings == sorted(inside), (d, e)
                crossing = crossing or bool(inside)
            assert is_non_crossing(d) == (not crossing), d


def test_degenerate_edges_rejected():
    with pytest.raises(ValueError):
        Edge(2, 2)


def test_edge_orientation():
    assert Edge(3, 1).delta == 1
    assert Edge(1, 3).delta == -1
    assert Edge(3, 1).a == 1 and Edge(3, 1).b == 3
