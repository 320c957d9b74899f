"""Composition combinatorics: word encoding, shuffle, stuffle, enumeration.

The products are validated against brute-force numeric evaluation of the
multiple harmonic sums they are supposed to expand, plus exact counting
invariants (interleaving counts for shuffle, term mass for stuffle).
"""

import itertools
import math
from fractions import Fraction

import pytest

from padicmhs.compositions import (
    bounded_tuples,
    check_comp,
    comp_to_word,
    compositions_of,
    enumerate_compositions,
    format_comp,
    parse_comp,
    shuffle,
    stuffle,
    weight,
    word_to_comp,
)

F = Fraction


def mhs_brute(N: int, s: tuple) -> Fraction:
    """Reference H_N(s) by explicit iteration over strictly decreasing
    tuples; only usable for tiny depth/N but entirely independent."""
    if not s:
        return F(1)
    total = F(0)
    for idx in itertools.combinations(range(1, N + 1), len(s)):
        desc = tuple(reversed(idx))  # strictly decreasing
        term = F(1)
        for n, e in zip(desc, s):
            term *= F(1, n**e)
        total += term
    return total


def all_comps_of_weight(w: int):
    if w == 0:
        yield ()
        return
    for first in range(1, w + 1):
        for rest in all_comps_of_weight(w - first):
            yield (first,) + rest


class TestWords:
    def test_roundtrip(self):
        for w in range(0, 6):
            for s in all_comps_of_weight(w):
                assert word_to_comp(comp_to_word(s)) == s

    def test_examples(self):
        assert comp_to_word((2, 1)) == "xyy"
        assert comp_to_word((1, 1, 1)) == "yyy"
        assert comp_to_word(()) == ""
        assert word_to_comp("xxy") == (3,)


class TestStuffle:
    def test_numeric_exhaustive(self):
        comps = [c for w in range(0, 5) for c in all_comps_of_weight(w) if len(c) <= 2]
        for s in comps:
            for t in comps:
                expansion = stuffle(s, t)
                for N in (1, 2, 3, 7, 12):
                    lhs = mhs_brute(N, s) * mhs_brute(N, t)
                    rhs = sum(F(m) * mhs_brute(N, u) for u, m in expansion.items())
                    assert lhs == rhs, (s, t, N)

    def test_weight_additive(self):
        for s, t in [((2,), (3, 1)), ((1, 1), (2,)), ((2, 1), (2, 1))]:
            for u in stuffle(s, t):
                assert weight(u) == weight(s) + weight(t)

    def test_known_expansion(self):
        assert stuffle((1,), (1,)) == {(1, 1): 2, (2,): 1}
        assert stuffle((1,), (2,)) == {(1, 2): 1, (2, 1): 1, (3,): 1}

    def test_commutative(self):
        for s, t in [((2, 1), (1,)), ((1, 1), (3,)), ((2,), (2, 2))]:
            assert stuffle(s, t) == stuffle(t, s)

    def test_empty_identity(self):
        assert stuffle((), (2, 1)) == {(2, 1): 1}
        assert stuffle((), ()) == {(): 1}


class TestShuffle:
    def test_total_mass(self):
        comps = [c for w in range(0, 7) for c in all_comps_of_weight(w)]
        for s in comps[:40]:
            for t in comps[:40]:
                if weight(s) + weight(t) > 6:
                    continue
                total = sum(shuffle(s, t).values())
                ls, lt = weight(s), weight(t)
                assert total == math.comb(ls + lt, ls), (s, t)

    def test_known_expansion(self):
        # xy shuffle y = xyy + 2 yxy -> (2,1) + 2(1,2)... careful:
        # interleavings of "xy" and "y": xyy (x y y), xyy again? enumerate:
        # positions of the single y of t among 3 slots with x<y order kept:
        # yxy, xyy, xyy -> {(1,2):1, (2,1):2}
        assert shuffle((2,), (1,)) == {(1, 2): 1, (2, 1): 2}
        assert shuffle((1,), (1,)) == {(1, 1): 2}

    def test_commutative(self):
        for s, t in [((2, 1), (1,)), ((1, 1), (3,)), ((2,), (2, 2))]:
            assert shuffle(s, t) == shuffle(t, s)

    def test_empty_identity(self):
        assert shuffle((), (3, 1)) == {(3, 1): 1}


class TestEnumeration:
    def test_prefix_order(self):
        got = enumerate_compositions(3)
        assert got == [
            (),
            (1,),
            (1, 1),
            (2,),
            (1, 1, 1),
            (1, 2),
            (2, 1),
            (3,),
        ]

    def test_count_per_weight(self):
        # 2^(w-1) compositions of weight w >= 1.
        comps = enumerate_compositions(8)
        for w in range(1, 9):
            assert sum(1 for c in comps if weight(c) == w) == 2 ** (w - 1)

    def test_weight_monotone_and_prefix_stable(self):
        c6 = enumerate_compositions(6)
        c8 = enumerate_compositions(8)
        assert c8[: len(c6)] == c6
        weights = [weight(c) for c in c8]
        assert weights == sorted(weights)


class TestGenerators:
    def test_composition_generator_count_and_order(self):
        for w in range(1, 9):
            comps = list(compositions_of(w))
            assert len(comps) == 2 ** (w - 1)
            assert comps == sorted(set(comps))
            assert all(sum(s) == w and min(s) >= 1 for s in comps)
        assert list(compositions_of(0)) == [()]

    def test_bounded_tuples_match_filtered_product(self):
        for m in range(4):
            for bound in range(-1, 5):
                expected = [
                    t
                    for t in itertools.product(range(max(bound + 1, 0)), repeat=m)
                    if sum(t) <= bound
                ]
                assert list(bounded_tuples(m, bound)) == expected, (m, bound)

    def test_check_comp(self):
        assert check_comp((2, 1)) == (2, 1)
        assert check_comp(()) == ()
        with pytest.raises(ValueError, match="^s must be a nonempty composition$"):
            check_comp((), allow_empty=False, name="s")
        for bad in [(1, 0), [1], (1.0,), "12", (True,), (2, True)]:
            with pytest.raises(ValueError, match="^composition must be a tuple"):
                check_comp(bad)


class TestFormatting:
    def test_roundtrip(self):
        for s in [(), (1,), (2, 1), (10, 1, 3)]:
            assert parse_comp(format_comp(s)) == s

    def test_render(self):
        assert format_comp((2, 1)) == "(2,1)"
        assert format_comp(()) == "()"

    def test_parse_spaces(self):
        assert parse_comp("( 2, 1 )") == (2, 1)
