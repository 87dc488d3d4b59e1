import itertools
import random
from fractions import Fraction

import pytest

from conftest import CUBE, P, TWO_ROOTS
from semidomain_atoms import (FactorSearchCaps, Irreducible, IntPoly,
                              Reducible, Unknown, certify_irreducible,
                              eisenstein_check, irreducibility,
                              rational_roots)


class TestEisenstein:
    def test_flagship(self):
        assert eisenstein_check(CUBE) == 2

    def test_square_root_shapes(self):
        assert eisenstein_check(P(-2, 0, 1)) == 2
        assert eisenstein_check(P(-3, 0, 2)) == 3

    def test_substituted_family_member(self):
        assert eisenstein_check(P(-2, 0, 4, 0, -8, 0, 1)) == 2

    def test_no_prime(self):
        assert eisenstein_check(TWO_ROOTS) is None
        assert eisenstein_check(P(-4, 0, 1)) is None  # 4 fails p^2 | const


class TestRationalRoots:
    def test_half(self):
        assert rational_roots(P(-1, 2)) == [Fraction(1, 2)]

    def test_two_integer_roots(self):
        assert rational_roots(P(2, -3, 1)) == [1, 2]

    def test_none(self):
        assert rational_roots(TWO_ROOTS) == []
        assert rational_roots(CUBE) == []

    def test_zero_root(self):
        assert Fraction(0) in rational_roots(P(0, 1, 1))


class TestCertify:
    def test_eisenstein_route(self):
        v = certify_irreducible(CUBE)
        assert isinstance(v, Irreducible)
        assert v.method == "eisenstein"
        assert v.eisenstein_prime == 2

    def test_degree_one(self):
        v = certify_irreducible(P(-1, 1))
        assert isinstance(v, Irreducible)
        assert v.method == "degree-1"

    def test_low_degree_no_rational_root(self):
        v = certify_irreducible(TWO_ROOTS)
        assert isinstance(v, Irreducible)
        v = certify_irreducible(P(-1, 6, -5, 1))
        assert isinstance(v, Irreducible)

    def test_factor_search_route(self):
        v = certify_irreducible(P(1, 0, -10, 0, 1))
        assert isinstance(v, Irreducible)
        assert v.method == "factor-search"

    def test_rational_root_reducible(self):
        v = certify_irreducible(P(2, -3, 0, 1))  # (x-1)^2 (x+2)
        assert isinstance(v, Reducible)
        assert v.factor in (P(-1, 1), P(2, 1))

    def test_quartic_with_quadratic_factors(self):
        m = TWO_ROOTS * P(-2, 0, 1)  # (x^2-3x+1)(x^2-2)
        v = certify_irreducible(m)
        assert isinstance(v, Reducible)
        q, r = divmod_check(m, v.factor)
        assert r

    def test_power_of_x(self):
        v = certify_irreducible(P(0, 1, 1))
        assert isinstance(v, Reducible)
        assert v.factor == P(0, 1)

    def test_unknown_on_tiny_budget(self):
        v = certify_irreducible(P(1, 0, -10, 0, 1),
                                FactorSearchCaps(max_candidates=1))
        assert isinstance(v, Unknown)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            certify_irreducible(P(5))

    def test_content_removed_first(self):
        v = certify_irreducible(2 * CUBE)
        assert isinstance(v, Irreducible)


# The seed-1 inputs of degree at most 7 from the benchmark's
# irreducibility workload (first three passes) and their certificates:
# (method, Eisenstein prime) or ("reducible", factor).
SEED1_LOW_DEGREE = [
    ((-1, 1, 7, -5, -5, 9, -5, 1), ('factor-search', None)),
    ((-4, -2, 0, -2, 2, -1, 1), ('reducible', (2, -1, 1))),
    ((7, 36, 57, 53, 30, 9, 1), ('factor-search', None)),
    ((-2, -8, -6, -4, 2, 6, 4, 1), ('eisenstein', 2)),
    ((9, -18, 23, -22, 15, -6, 1), ('factor-search', None)),
    ((-2, 2, 6, -3, 6, 0, -1, 1), ('reducible', (2, 2, -2, 1))),
    ((-2, 5, 1, 4, 0, 4, -1, 1), ('reducible', (2, -1, 1))),
    ((1, 21, -63, 89, -73, 35, -9, 1), ('factor-search', None)),
    ((7, 14, 21, 22, 15, 6, 1), ('factor-search', None)),
    ((-2, 0, 0, 1, 0, 0, 1), ('reducible', (-1, 1))),
    ((2, 0, -5, -4, 0, 2, 1), ('reducible', (1, 1))),
    ((-1, -1, -2, 0, -3, 2, -2, 1), ('reducible', (1, 0, 1))),
    ((-2, 4, 3, -6, -3, 2, 1), ('reducible', (-1, 1, 1))),
    ((-7, 34, -90, 122, -95, 42, -10, 1), ('factor-search', None)),
    ((-5, -3, 6, 17, 15, 6, 1), ('factor-search', None)),
    ((-3, -11, -25, -23, -5, 7, 5, 1), ('factor-search', None)),
    ((-2, -6, 6, -2, 3, -3, 1), ('factor-search', None)),
    ((2, -4, 2, -1, -2, -2, 0, 1), ('reducible', (-1, 1, 1, 1))),
    ((5, 16, 15, 10, 7, 4, 1), ('factor-search', None)),
    ((7, 29, 59, 65, 47, 23, 7, 1), ('factor-search', None)),
    ((-3, 4, 21, 32, 23, 8, 1), ('factor-search', None)),
    ((-1, -2, 2, 4, 2, 2, 1), ('reducible', (1, 1))),
    ((-7, 21, -47, 69, -63, 33, -9, 1), ('factor-search', None)),
    ((2, 2, -3, -3, 0, 1, 1), ('reducible', (1, 1))),
    ((-3, -15, -25, -23, -5, 7, 5, 1), ('factor-search', None)),
    ((-4, 4, -2, 0, 2, -3, 0, 1), ('reducible', (1, 0, 1))),
    ((-4, 8, -2, -6, 0, 4, 4, 1), ('reducible', (-2, 2, 1))),
    ((7, 21, 45, 50, 30, 9, 1), ('factor-search', None)),
    ((3, 9, 37, 67, 63, 33, 9, 1), ('factor-search', None)),
    ((-5, -3, -6, -7, 0, 3, 1), ('factor-search', None)),
]


class TestLowDegreeUnchanged:
    @pytest.mark.parametrize("coeffs,expected", SEED1_LOW_DEGREE)
    def test_certificate(self, coeffs, expected):
        v = certify_irreducible(IntPoly(coeffs))
        if isinstance(v, Reducible):
            assert expected == ("reducible", v.factor.coeffs)
        else:
            assert isinstance(v, Irreducible)
            assert (v.method, v.eisenstein_prime, v.primes) == expected + ((),)


def _ref_rem(a, g, p):
    """Remainder of a by a monic g over GF(p), by schoolbook division."""
    a = list(a)
    for i in range(len(a) - len(g), -1, -1):
        c = a[i + len(g) - 1]
        for j, gj in enumerate(g):
            a[i + j] = (a[i + j] - c * gj) % p
    return a[:len(g) - 1]


def _ref_factors(f, p):
    """The monic irreducible factors of f over GF(p), with multiplicity,
    by trial division by every monic polynomial of rising degree."""
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    factors = []
    while len(f) > 1:
        n = len(f) - 1
        g = next((list(low) + [1] for d in range(1, n // 2 + 1)
                  for low in itertools.product(range(p), repeat=d)
                  if not any(_ref_rem(f, list(low) + [1], p))), f)
        factors.append(tuple(g))
        d = len(g) - 1
        q, rest = [0] * (n - d + 1), list(f)
        for i in range(n - d, -1, -1):
            q[i] = rest[i + d]
            for j, gj in enumerate(g):
                rest[i + j] = (rest[i + j] - q[i] * gj) % p
        f = q
    return factors


def _shift(m, s):
    """m(x + s)."""
    out = IntPoly(())
    for i, c in enumerate(m.coeffs):
        out = out + c * P(s, 1) ** i
    return out


def _random_factor(rng, d):
    while True:
        cs = [rng.randint(-3, 3) for _ in range(d)] + [rng.randint(1, 2)]
        if cs[0]:
            return IntPoly(cs)


class TestDegreePattern:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_against_trial_division(self, p, n):
        rng = random.Random(f"pattern:{p}:{n}")
        for _ in range(15):
            f = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
            factors = _ref_factors(f, p)
            squarefree = len(set(factors)) == len(factors)
            assert (irreducibility._reduce_mod_p(IntPoly(f), p)
                    is not None) == squarefree
            if squarefree:
                assert (sorted(irreducibility._degree_pattern(f, p))
                        == sorted(len(g) - 1 for g in factors))

    def test_square_is_unusable(self):
        # (x^2 + 1)^2 is squarefree modulo no prime.
        m = P(1, 0, 1) ** 2
        assert all(irreducibility._reduce_mod_p(m, p) is None
                   for p in (2, 3, 5, 7, 11, 13))

    def test_lead_prime_is_unusable(self):
        assert irreducibility._reduce_mod_p(P(1, 1, 0, 3), 3) is None


class TestModPRoute:
    @pytest.fixture
    def no_search(self, monkeypatch):
        calls = []
        original = irreducibility._interior_candidates

        def counted(*args):
            for c in original(*args):
                calls.append(c)
                yield c
        monkeypatch.setattr(irreducibility, "_interior_candidates", counted)
        return calls

    @pytest.mark.parametrize("seed", range(4))
    def test_products_never_certified(self, seed):
        rng = random.Random(f"product:{seed}")
        for a in range(2, 9):
            b = rng.randint(max(a, 8 - a), 16 - a)
            m = _random_factor(rng, a) * _random_factor(rng, b)
            assert irreducibility._mod_p_certificate(m) is None, m

    def test_product_falls_through_to_its_factor(self):
        g = P(1, 1, 1)
        m = g * P(-1, 2, 0, -1, 3, 0, 1)  # a quadratic times a sextic
        v = certify_irreducible(m)
        assert isinstance(v, Reducible)
        assert divmod_check(m, v.factor)[1]

    @pytest.mark.parametrize("degree", [8, 9, 10, 11, 12])
    def test_shifted_eisenstein_without_candidates(self, degree, no_search):
        rng = random.Random(f"eisenstein:{degree}")
        for _ in range(4):
            q = rng.choice([2, 3])
            units = [u for u in (-1, 1, 2) if u % q]
            base = IntPoly([q * rng.choice(units)]
                           + [q * rng.randint(-1, 1)
                              for _ in range(degree - 1)] + [1])
            m = _shift(base, rng.choice([-1, 1]))
            if eisenstein_check(m) is not None:
                continue
            v = certify_irreducible(m, FactorSearchCaps(max_candidates=1))
            assert isinstance(v, Irreducible), m
            assert v.method in ("mod-p", "degree-sets")
            assert (len(v.primes) == 1) == (v.method == "mod-p")
        assert no_search == []

    def test_certificate_primes(self):
        v = certify_irreducible(P(-1, 0, 0, 0, -1, 0, 0, 0, 1))
        assert v == Irreducible("mod-p", primes=(3,))
        v = certify_irreducible(P(-3, 0, 0, 1, 0, 0, -2, 0, 0, 1))
        assert v == Irreducible("mod-p", primes=(13,))

    def test_swinnerton_dyer_quartic_keeps_factor_search(self):
        # x^4 - 10x^2 + 1 is irreducible but splits modulo every prime.
        m = P(1, 0, -10, 0, 1)
        assert irreducibility._mod_p_certificate(m) is None
        assert certify_irreducible(m).method == "factor-search"
        v = certify_irreducible(m, FactorSearchCaps(max_candidates=1))
        assert isinstance(v, Unknown)

    def test_fallback_after_exhausted_search(self, no_search):
        m = P(3, -1, 4, -1, 5, -9, 1)  # irreducible sextic
        assert certify_irreducible(m).method == "factor-search"
        v = certify_irreducible(m, FactorSearchCaps(max_candidates=1))
        assert isinstance(v, Irreducible)
        assert v.method in ("mod-p", "degree-sets")


def divmod_check(m, factor):
    """Exact division: returns (quotient, divides_exactly)."""
    from semidomain_atoms import divmod_rat
    q, r = divmod_rat(m.to_rat(), factor.to_rat())
    return q, not r
