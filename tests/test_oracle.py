import random

import pytest

from semidomain_atoms import (FactorizationMultiset, Irreducible, IntPoly,
                              MonoidElement, NonStrong, OracleCaps,
                              StrongUpTo, Unknown, certify_irreducible,
                              enumerate_factorizations,
                              isolate_positive_roots, reduce_element,
                              strong_check_oracle)
from semidomain_atoms import oracle

from conftest import BINOMIAL, CUBE, GOLDEN, P, TWO_ROOTS

SMALL = OracleCaps(max_power=5, max_total=6)


def facts(*exps):
    return tuple(FactorizationMultiset(e) for e in exps)


# Monic moduli that are not irreducible: power-basis coordinates do not
# name elements modulo them.
REDUCIBLE = [P(-2, -1, 1), P(-4, 0, 1), P(-1, 0, 1), P(0, -1, 0, 1),
             P(-1, 0, 0, 0, 1)]


def coords_sum(m, factorization):
    acc = (0,) * m.degree
    for e in factorization.exponents:
        pc = reduce_element(IntPoly.monomial(1, e), m).coords
        acc = tuple(a + b for a, b in zip(acc, pc))
    return acc


class TestDataShapes:
    def test_caps_validation(self):
        with pytest.raises(ValueError):
            OracleCaps(max_power=-1)
        with pytest.raises(ValueError):
            OracleCaps(max_total=0)

    def test_multiset_must_be_sorted(self):
        with pytest.raises(ValueError):
            FactorizationMultiset((2, 1))
        assert FactorizationMultiset((1, 2, 2)).size == 3

    def test_element_equality_by_coords(self):
        assert MonoidElement((1, 2)) == MonoidElement((1, 2))
        assert MonoidElement((1, 2)) != MonoidElement((1, 3))


class TestReduceElement:
    def test_cube_of_generator(self):
        assert reduce_element(P(0, 0, 0, 1), TWO_ROOTS).coords == (-3, 8)

    def test_modulus_reduces_to_zero(self):
        assert reduce_element(CUBE, CUBE).coords == (0, 0, 0)

    def test_low_degree_passthrough(self):
        assert reduce_element(P(7, 5), CUBE).coords == (7, 5, 0)

    def test_monic_required(self):
        with pytest.raises(ValueError, match="monic"):
            reduce_element(P(1), BINOMIAL)


class TestEnumerate:
    def test_sqrt2_two(self):
        got = enumerate_factorizations(P(2), P(-2, 0, 1), SMALL)
        assert got == facts((0, 0), (2,))

    def test_three_alpha(self):
        got = enumerate_factorizations(P(0, 3), TWO_ROOTS, SMALL)
        assert got == facts((0, 2), (1, 1, 1))

    def test_collapsed_powers_for_one(self):
        got = enumerate_factorizations(P(3), P(-1, 1),
                                       OracleCaps(max_power=4, max_total=4))
        assert got == facts((0, 0, 0))

    def test_budget_cuts_off(self):
        got = enumerate_factorizations(P(3), P(-1, 1),
                                       OracleCaps(max_power=4, max_total=2))
        assert got == ()

    def test_negative_target_is_unreachable(self):
        got = enumerate_factorizations(P(-1), CUBE,
                                       OracleCaps(max_power=4, max_total=4))
        assert got == ()

    def test_monoid_element_target(self):
        via_poly = enumerate_factorizations(P(0, 3), TWO_ROOTS, SMALL)
        via_elem = enumerate_factorizations(MonoidElement((0, 3)), TWO_ROOTS,
                                            SMALL)
        assert via_poly == via_elem

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="coordinates"):
            enumerate_factorizations(MonoidElement((1, 2, 3)), TWO_ROOTS,
                                     SMALL)

    def test_no_positive_root_rejected(self):
        with pytest.raises(ValueError, match="positive real root"):
            enumerate_factorizations(P(2), P(1, 0, 1), SMALL)

    def test_allowed_powers_restrict_alphabet(self):
        only_trivial = enumerate_factorizations(P(0, 3), TWO_ROOTS, SMALL,
                                                allowed_powers={1})
        assert only_trivial == facts((1, 1, 1))
        only_relation = enumerate_factorizations(P(0, 3), TWO_ROOTS, SMALL,
                                                 allowed_powers={0, 2})
        assert only_relation == facts((0, 2))
        assert enumerate_factorizations(P(0, 3), TWO_ROOTS, SMALL,
                                        allowed_powers=iter([1])) \
            == only_trivial

    @pytest.mark.parametrize("powers,bad", [([-1, 2], "-1"),
                                            ([1.5, 2], "1.5"),
                                            ([2, 4], "4"), ([True], "True")])
    def test_allowed_powers_validated(self, powers, bad):
        caps = OracleCaps(max_power=3, max_total=6)
        msg = rf"allowed power {bad} is not an integer in \[0, 3\]"
        with pytest.raises(ValueError, match=msg):
            strong_check_oracle(1, GOLDEN, 3, caps, allowed_powers=powers)
        with pytest.raises(ValueError, match=msg):
            enumerate_factorizations(P(0, 3), GOLDEN, caps,
                                     allowed_powers=powers)

    @pytest.mark.parametrize("m,target", [
        (TWO_ROOTS, P(0, 3)),
        (TWO_ROOTS, P(5)),
        (P(-2, 0, 1), P(2)),
        (GOLDEN, P(3, 1)),
        (CUBE, P(0, 0, 0, 2)),
    ])
    def test_pruning_is_invisible(self, m, target):
        pruned = enumerate_factorizations(target, m, SMALL, use_pruning=True)
        plain = enumerate_factorizations(target, m, SMALL, use_pruning=False)
        assert pruned == plain

    def test_every_factorization_sums_to_target(self):
        target = P(0, 3)
        for f in enumerate_factorizations(target, TWO_ROOTS, SMALL):
            assert coords_sum(TWO_ROOTS, f) == \
                reduce_element(target, TWO_ROOTS).coords


class TestStrongCheck:
    def test_validation(self):
        with pytest.raises(ValueError):
            strong_check_oracle(-1, TWO_ROOTS, 3)
        with pytest.raises(ValueError):
            strong_check_oracle(9, TWO_ROOTS, 3, OracleCaps(max_power=8))
        with pytest.raises(ValueError):
            strong_check_oracle(1, TWO_ROOTS, 1)
        with pytest.raises(ValueError):
            strong_check_oracle(0, BINOMIAL, 3)

    def test_non_strong_generator(self):
        res = strong_check_oracle(1, TWO_ROOTS, 3, SMALL)
        assert res == NonStrong(3, FactorizationMultiset((0, 2)))

    def test_strong_unit(self):
        res = strong_check_oracle(0, TWO_ROOTS, 4, SMALL)
        assert res == StrongUpTo(4)

    def test_alphabet_restriction_hides_relation(self):
        res = strong_check_oracle(1, TWO_ROOTS, 3, SMALL,
                                  allowed_powers={1})
        assert res == StrongUpTo(3)

    def test_cube_needs_large_budget(self):
        # The first refuting relation for the fourth power multiplies out
        # to seventeen summands, so the default total budget misses it.
        atoms = {0, 1, 2, 3, 4}
        small = strong_check_oracle(4, CUBE, 2,
                                    OracleCaps(max_power=4, max_total=12),
                                    allowed_powers=atoms)
        assert small == StrongUpTo(2)
        big = strong_check_oracle(4, CUBE, 2,
                                  OracleCaps(max_power=4, max_total=17),
                                  allowed_powers=atoms)
        assert isinstance(big, NonStrong)
        assert big.n == 2
        target = reduce_element(IntPoly.monomial(2, 4), CUBE).coords
        assert coords_sum(CUBE, big.factorization) == target

    def test_pruning_agreement(self):
        for k in (0, 1):
            a = strong_check_oracle(k, TWO_ROOTS, 3, SMALL, use_pruning=True)
            b = strong_check_oracle(k, TWO_ROOTS, 3, SMALL, use_pruning=False)
            assert a == b


class TestIrreducibleModulus:
    # x^2 - x - 2 has alpha = 2, where 2*alpha^0 = alpha^1; x^2 - 4 hides
    # the same relation at n = 2; x^2 - 1, x^3 - x and x^4 - 1 have
    # alpha = 1, where no refinement separates the power values.
    @pytest.mark.parametrize("m", REDUCIBLE)
    def test_strong_check_refuses_reducible(self, m):
        with pytest.raises(ValueError, match="irreducible.*factor"):
            strong_check_oracle(0, m, 8)

    @pytest.mark.parametrize("m", REDUCIBLE)
    def test_enumerate_refuses_reducible(self, m):
        with pytest.raises(ValueError, match="irreducible.*factor"):
            enumerate_factorizations(P(2), m, SMALL)

    def test_unknown_names_the_reason(self, monkeypatch):
        monkeypatch.setattr(oracle, "certify_irreducible",
                            lambda m: Unknown("factor search budget spent"))
        with pytest.raises(ValueError, match="factor search budget spent"):
            strong_check_oracle(0, TWO_ROOTS, 3, SMALL)


def per_n_route(k, m, n_max, caps, use_pruning, allowed):
    """Reference: one enumerate_factorizations call, and so one context,
    for each n."""
    for n in range(2, n_max + 1):
        trivial = (k,) * n
        for f in enumerate_factorizations(IntPoly.monomial(n, k), m, caps,
                                          use_pruning=use_pruning,
                                          allowed_powers=allowed):
            if f.exponents != trivial:
                return NonStrong(n, f)
    return StrongUpTo(n_max)


class TestOneContextPerCall:
    def test_roots_isolated_once(self, monkeypatch):
        calls = []

        def counting(m):
            calls.append(m)
            return isolate_positive_roots(m)

        monkeypatch.setattr(oracle, "isolate_positive_roots", counting)
        assert strong_check_oracle(0, TWO_ROOTS, 6, SMALL) == StrongUpTo(6)
        if len(calls) != 1:
            raise AssertionError(f"{len(calls)} root isolations, wanted 1")

    def test_matches_the_per_n_route(self):
        rng = random.Random(20261019)
        caps = OracleCaps(max_power=5, max_total=6)
        kinds = set()
        cases = 0
        while cases < 80:
            degree = rng.randint(2, 4)
            m = IntPoly(tuple(rng.randint(-4, 4) for _ in range(degree))
                        + (1,))
            if m.coeffs[0] == 0 or not isolate_positive_roots(m):
                continue
            if not isinstance(certify_irreducible(m), Irreducible):
                continue
            cases += 1
            k = rng.randint(0, caps.max_power)
            n_max = rng.randint(2, 5)
            allowed = (None if rng.random() < 0.25 else
                       sorted(rng.sample(range(caps.max_power + 1),
                                         rng.randint(1, caps.max_power + 1))))
            for use_pruning in (True, False):
                got = strong_check_oracle(k, m, n_max, caps,
                                          use_pruning=use_pruning,
                                          allowed_powers=allowed)
                want = per_n_route(k, m, n_max, caps, use_pruning, allowed)
                if got != want:
                    raise AssertionError(
                        f"{m}, k={k}, n_max={n_max}, allowed={allowed}, "
                        f"pruning={use_pruning}: {got!r} != {want!r}")
                kinds.add(type(got))
        if kinds != {NonStrong, StrongUpTo}:
            raise AssertionError(f"sample reached only {kinds}")
