import math
import random
from functools import cache
from itertools import combinations, permutations, product

import pytest

from stochlim.diagrams import (
    Edge,
    count_fock_surviving,
    count_non_crossing,
    enumerate_pairings,
    is_non_crossing,
    pairing_blocks,
)
from stochlim.words import balanced_patterns, normal_order, word_from_pattern


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def filtered_non_crossing(pattern):
    """Brute force: every pairing, then drop the crossing ones."""
    return [d for d in enumerate_pairings(pattern) if is_non_crossing(d)]


def balanced_up_to(n):
    return [p for m in range(2, n + 1, 2) for p in balanced_patterns(m)]


def non_crossing_edges(pattern):
    return pairing_blocks(pattern, lambda edge, straddling: edge, non_crossing=True)


def fock_edges(pattern):
    return pairing_blocks(pattern, lambda edge, straddling: edge, fock=True)


def test_two_point():
    diagrams = enumerate_pairings((-1, 1))
    assert len(diagrams) == 1
    assert diagrams[0] == (Edge(2, 1),)
    assert is_non_crossing(diagrams[0])


def test_four_point_pair():
    diagrams = enumerate_pairings((-1, -1, 1, 1))
    assert len(diagrams) == 2
    # lexicographic over the annihilation assignment in creation order
    assert diagrams[0] == (Edge(3, 1), Edge(4, 2))
    assert diagrams[1] == (Edge(4, 1), Edge(3, 2))
    assert not is_non_crossing(diagrams[0])
    assert is_non_crossing(diagrams[1])


def test_unbalanced_empty():
    assert enumerate_pairings((-1, 1, 1)) == ()
    assert enumerate_pairings((-1,)) == ()


def permutation_order(pattern):
    """Brute force: the pairings of every permutation of the annihilations
    in lexicographic order, paired in ascending creation order."""
    creations = [i + 1 for i, eps in enumerate(pattern) if eps == 1]
    annihilations = [i + 1 for i, eps in enumerate(pattern) if eps == -1]
    return [
        tuple(sorted(map(Edge, creations, perm), key=lambda e: e.a))
        for perm in permutations(annihilations)
    ]


def test_pairings_keep_the_permutation_order():
    for pattern in balanced_up_to(10):
        assert list(enumerate_pairings(pattern)) == permutation_order(pattern), pattern


RULES = [(False, False), (True, False), (False, True), (True, True)]


@pytest.mark.parametrize("fock,non_crossing", RULES)
def test_pairing_blocks_match_brute_force(fock, non_crossing):
    """Every rule combination gives the permutations' pairings that pass its
    filters, each once, edges by left end; `block` is called once per edge
    and tuple of its straddling edges, the earlier edges whose right end
    lies past its left end, by left end."""
    for pattern in balanced_up_to(10):
        expected = [
            d
            for d in permutation_order(pattern)
            if (not fock or all(e.delta == 1 for e in d))
            and (not non_crossing or is_non_crossing(d))
        ]
        made = []

        def block(edge, straddling):
            made.append((edge, straddling))
            return edge

        direct = pairing_blocks(pattern, block, fock=fock, non_crossing=non_crossing)
        assert len(set(direct)) == len(direct)
        assert set(direct) == set(expected), pattern
        assert all(list(d) == sorted(d, key=lambda e: e.a) for d in direct)
        straddled = {
            (f, tuple(e for e in d if e.a < f.a < e.b)) for d in expected for f in d
        }
        assert len(made) == len(set(made))
        assert set(made) == straddled, pattern
    assert pairing_blocks((-1, 1, 1), lambda e, s: e, fock, non_crossing) == []


@pytest.mark.parametrize("non_crossing", [False, True])
def test_pairing_walk_enters_no_dead_state(monkeypatch, non_crossing):
    """Without `fock` every state the recursion enters has a pairing: a
    non-crossing partner is taken only with a balanced inside."""
    from stochlim import diagrams

    pair = diagrams._pair
    sizes = []

    def recorded(*args):
        out = pair(*args)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(diagrams, "_pair", recorded)
    for pattern in balanced_up_to(10):
        sizes.clear()
        pairing_blocks(pattern, lambda e, s: e, non_crossing=non_crossing)
        assert sizes and all(sizes), pattern


def test_alternating_four_point():
    assert len(enumerate_pairings((-1, 1, -1, 1))) == 2


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


def test_non_crossing_count_matches_the_listing():
    """The counting recursion against the listed non-crossing pairings, on
    every sign pattern up to N=12, balanced or not."""
    for n in range(13):
        for pattern in product((-1, 1), repeat=n):
            assert count_non_crossing(pattern) == len(non_crossing_edges(pattern)), pattern


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
            1 for d in diagrams if all(e.delta == 1 for e in d)
        ), pattern


def test_non_crossing_generator_matches_filter():
    sample = random.Random(12).sample(balanced_patterns(12), 40)
    for pattern in balanced_up_to(10) + sample:
        direct = non_crossing_edges(pattern)
        assert len(set(direct)) == len(direct)
        assert set(direct) == set(filtered_non_crossing(pattern)), pattern


def recursion_order(pattern):
    """The non-crossing pairings by a plain Catalan recursion over (lo, hi)
    ranges, 0-based: the first letter pairs with every opposite letter
    whose inside is balanced, in order, then inside times outside."""

    @cache
    def edges(lo, hi):
        if lo == hi:
            return [()]
        out, depth = [], 0
        for j in range(lo + 1, hi):
            if depth == 0 and pattern[j] == -pattern[lo]:
                first = Edge(j + 1, lo + 1) if pattern[j] == 1 else Edge(lo + 1, j + 1)
                for inside in edges(lo + 1, j):
                    for outside in edges(j + 1, hi):
                        out.append((first,) + inside + outside)
            depth += pattern[j]
        return out

    return edges(0, len(pattern))


def test_non_crossing_generator_keeps_the_recursion_order():
    for pattern in balanced_up_to(10):
        assert non_crossing_edges(pattern) == recursion_order(pattern), pattern


def test_walk_blocks_see_their_enclosing_edges():
    """Each block is made once, for an edge and the edges enclosing it by
    the interval definition, outermost first."""
    for pattern in balanced_up_to(10):
        made = []
        pairing_blocks(pattern, lambda e, enc: made.append((e, enc)), non_crossing=True)
        assert len(made) == len(set(made))
        seen = set()
        for edges in filtered_non_crossing(pattern):
            for f in edges:
                seen.add((f, tuple(e for e in edges if e.a < f.a < f.b < e.b)))
        assert seen == set(made), pattern


def filtered_fock(pattern):
    """Brute force: every pairing, then keep those whose creations all
    follow their annihilations."""
    return [
        d for d in enumerate_pairings(pattern) if all(e.delta == 1 for e in d)
    ]


def test_fock_generator_matches_filter():
    sample = random.Random(12).sample(balanced_patterns(12), 40)
    for pattern in balanced_up_to(10) + sample:
        direct = fock_edges(pattern)
        assert len(set(direct)) == len(direct)
        assert len(direct) == count_fock_surviving(pattern), pattern
        assert set(direct) == set(filtered_fock(pattern)), pattern
    assert fock_edges((-1, 1, 1)) == []
    assert fock_edges((-1, -1, 1)) == []
    assert fock_edges((1, -1)) == []


def histogram(counts):
    """hist[c] is how many of the counts equal c."""
    hist = [0]
    for c in counts:
        hist += [0] * (c + 1 - len(hist))
        hist[c] += 1
    return hist


def crossing_histogram(pairings):
    """Coefficients of sum q^cr over the pairings, cr the number of pairs
    of edges e, f with e.a < f.a < e.b < f.b."""
    return histogram(
        sum(e.a < f.a < e.b < f.b for e, f in combinations(d, 2)) for d in pairings
    )


def q_integer_product(pattern):
    """Coefficients of the product over creations of [m]_q = 1 + q + ...
    + q^(m-1), m the number of annihilators open at that creation."""
    poly, open_ann = [1], 0
    for eps in pattern:
        if eps == -1:
            open_ann += 1
            continue
        out = [0] * (len(poly) + open_ann - 1)
        for i, c in enumerate(poly):
            for j in range(open_ann):
                out[i + j] += c
        poly, open_ann = out, open_ann - 1
    return poly


def test_fock_crossings_are_q_integers():
    """The q-Fock moment: sum over the vacuum pairings of q^cr is the
    product of q-integers of the open annihilators at each creation."""
    for pattern in balanced_up_to(10):
        if count_fock_surviving(pattern):
            hist = crossing_histogram(fock_edges(pattern))
            assert hist == q_integer_product(pattern), pattern


def test_fock_crossings_sum_to_touchard_riordan():
    total = [0] * 7
    for pattern in balanced_patterns(8):
        for i, c in enumerate(crossing_histogram(fock_edges(pattern))):
            total[i] += c
    assert total == [14, 28, 28, 20, 10, 4, 1]


def _q_step(letters, i, collected):
    """a a+ = q a+ a + 1 at site i for `words.normal_order`: the swap
    branch records one q, the contraction branch none."""
    swapped = letters[:i] + (letters[i + 1], letters[i]) + letters[i + 2 :]
    contracted = letters[:i] + letters[i + 2 :]
    return ((collected + ("q",), swapped), (collected, contracted))


def test_q_rewriting_counts_crossings():
    """The q-Fock moment on the rewriting side: normal ordering by
    a a+ = q a+ a + 1 leaves one branch per vacuum pairing, with one q per
    crossing pair of its edges."""
    for pattern in balanced_up_to(12):
        branches = normal_order(word_from_pattern(pattern).letters, _q_step)
        expected = crossing_histogram(fock_edges(pattern))
        assert histogram(map(len, branches)) == expected, pattern


def test_is_non_crossing_matches_brute_force():
    """Every pairing of every balanced pattern up to N=8: non-crossing when
    no edge has exactly one end of another edge inside it."""
    for pattern in balanced_up_to(8):
        for d in enumerate_pairings(pattern):
            crossing = any(
                sum(e.a < p < e.b for p in (f.a, f.b)) == 1 for e in d for f in d
            )
            assert is_non_crossing(d) == (not crossing), d


def test_degenerate_edges_rejected():
    with pytest.raises(ValueError):
        Edge(2, 2)
    with pytest.raises(ValueError):
        Edge(0, 2)


def test_edge_orientation():
    assert Edge(3, 1).delta == 1
    assert Edge(1, 3).delta == -1
    assert Edge(3, 1).a == 1 and Edge(3, 1).b == 3
