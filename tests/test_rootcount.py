from fractions import Fraction

import pytest

from conftest import CUBE, GOLDEN, P, THREE_ROOTS, TWO_ROOTS
from semidomain_atoms import (SturmChain, isolate_positive_roots,
                              positive_root_count, sign_variations,
                              squarefree_part)


class TestSignVariations:
    @pytest.mark.parametrize("poly,expected", [
        (P(1, 1, 1), 0),
        (P(-1, 1), 1),
        (P(1, -3, 1), 2),
        (P(-2, 4, -8, 1), 3),
        (P(-1, 6, -5, 1), 3),
        (P(-2, 0, 0, -15, 2), 1),   # zeros between equal signs do not count
        (P(1, 0, -1), 1),
    ])
    def test_known(self, poly, expected):
        assert sign_variations(poly) == expected


class TestSturm:
    @pytest.mark.parametrize("poly,count", [
        (CUBE, 1),
        (TWO_ROOTS, 2),
        (THREE_ROOTS, 3),
        (GOLDEN, 1),
        (P(1, 1, 1), 0),
        (P(-1, 1), 1),
    ])
    def test_count_positive(self, poly, count):
        assert SturmChain(poly).count_positive() == count

    def test_count_in_additivity(self):
        chain = SturmChain(THREE_ROOTS)
        total = chain.count_in(Fraction(0), Fraction(10))
        split = (chain.count_in(Fraction(0), Fraction(1))
                 + chain.count_in(Fraction(1), Fraction(10)))
        assert total == split == 3

    def test_right_endpoint_root_counted(self):
        # (x - 1)^2: the double root at 1 counts once, in intervals
        # whose right endpoint is 1 but not whose left endpoint is 1.
        sq = P(1, -2, 1)
        chain = SturmChain(sq)
        assert chain.count_in(Fraction(0), Fraction(1)) == 1
        assert chain.count_in(Fraction(1), Fraction(2)) == 0


class TestRootCounts:
    def test_distinct_vs_multiplicity(self):
        # (x - 1)^2 (x + 2) = x^3 - 3x + 2
        f = P(2, -3, 0, 1)
        assert positive_root_count(f) == 1
        assert positive_root_count(f, with_multiplicity=True) == 2
        g = P(-8, 12, -6, 1)  # (x - 2)^3
        assert positive_root_count(g) == 1
        assert positive_root_count(g, with_multiplicity=True) == 3

    def test_zero_root_ignored(self):
        f = P(0, 0, -1, 1)  # x^2 (x - 1)
        assert positive_root_count(f) == 1
        assert positive_root_count(f, with_multiplicity=True) == 1

    def test_rational_input(self):
        from semidomain_atoms import RatPoly
        f = RatPoly((Fraction(1, 2), Fraction(-3, 2), Fraction(1, 2)))
        assert positive_root_count(f) == 2

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            positive_root_count(P())

    def test_squarefree_part(self):
        f = P(2, -3, 0, 1)  # (x - 1)^2 (x + 2)
        sf = squarefree_part(f)
        assert sf == P(-2, 1, 1)  # (x - 1)(x + 2), positive lead


class TestIsolation:
    def test_two_roots_separated(self):
        ivs = isolate_positive_roots(TWO_ROOTS)
        assert len(ivs) == 2
        assert ivs[0].hi <= ivs[1].lo
        for iv in ivs:
            assert SturmChain(TWO_ROOTS).count_in(iv.lo, iv.hi) == 1

    def test_three_roots(self):
        ivs = isolate_positive_roots(THREE_ROOTS)
        assert len(ivs) == 3

    def test_no_roots(self):
        assert isolate_positive_roots(P(1, 1, 1)) == []

    def test_multiple_root_isolated_once(self):
        # (x - 1)^2 (x + 2): the double root at 1 gives one interval.
        assert len(isolate_positive_roots(P(2, -3, 0, 1))) == 1
        # (x - 1)^2 (x - 2): two distinct positive roots, two intervals.
        assert len(isolate_positive_roots(P(-2, 5, -4, 1))) == 2

    def test_refined_keeps_root(self):
        iv = isolate_positive_roots(CUBE)[0]
        small = iv.refined(Fraction(1, 10**6))
        assert small.width <= Fraction(1, 10**6)
        assert small.lo >= iv.lo and small.hi <= iv.hi
        assert SturmChain(CUBE).count_in(small.lo, small.hi) == 1

    @pytest.mark.parametrize("width", [Fraction(0), Fraction(-1), 0])
    def test_refined_needs_positive_width(self, width):
        iv = isolate_positive_roots(P(-2, 0, 1))[0]
        with pytest.raises(ValueError, match="max_width"):
            iv.refined(width)
