import pytest

from semidomain_atoms import (AlgebraicNumberSpec, AtLeast, Caps,
                              EisensteinPrime, FamilyParams, Finite, Infinite,
                              TransformReducibleError, TransformScaling,
                              TransformUncertifiedError, analyze,
                              eisenstein_check, family_polynomial,
                              substitute_power, transform_scale,
                              verify_certificate)
from semidomain_atoms.irreducibility import FactorSearchCaps

from conftest import BINOMIAL, CUBE, P, TWO_ROOTS


def spec_of(m):
    return AlgebraicNumberSpec.from_polynomial(m)


class TestFamilyParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            FamilyParams(0)
        with pytest.raises(ValueError):
            FamilyParams(1, -1)
        assert FamilyParams(1).c == 0


class TestFamilyPolynomial:
    @pytest.mark.parametrize("k,c,coeffs,strong,atoms", [
        (1, 0, (-2, 4, -8, 1), 4, 5),
        (2, 0, (-2, 0, 4, 0, -8, 0, 1), 8, 10),
        (1, 1, (-2, -2, 4, -8, 1), 5, 6),
        (1, 2, (-2, 0, -2, 4, -8, 1), 6, 7),
        (2, 1, (-2, -2, 0, 4, 0, -8, 0, 1), 9, 11),
        (2, 2, (-2, 0, -2, 0, 4, 0, -8, 0, 1), 10, 12),
    ])
    def test_members(self, k, c, coeffs, strong, atoms):
        m, expected = family_polynomial(FamilyParams(k, c))
        assert m == P(*coeffs)
        assert expected.pair == (Finite(strong), Finite(atoms))
        assert expected.certificates == (EisensteinPrime(2),)
        assert eisenstein_check(m) == 2
        assert verify_certificate(EisensteinPrime(2), m)

    def test_base_member_is_the_scaling_seed(self):
        m1, _ = family_polynomial(FamilyParams(1))
        m3, _ = family_polynomial(FamilyParams(3))
        assert m3 == substitute_power(m1, 3)

    def test_first_member_analyzes_to_expected(self):
        m, expected = family_polynomial(FamilyParams(1))
        res = analyze(spec_of(m))
        assert res.pair == expected.pair

    def test_shifted_member_analyzes_to_expected(self):
        m, expected = family_polynomial(FamilyParams(1, 1))
        res = analyze(spec_of(m))
        assert res.pair == expected.pair


class TestTransformScale:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            transform_scale(spec_of(CUBE), 0)

    def test_identity(self):
        spec = spec_of(CUBE)
        assert transform_scale(spec, 1).pair == analyze(spec).pair

    def test_cube_doubles(self):
        res = transform_scale(spec_of(CUBE), 2)
        assert res.pair == (Finite(8), Finite(10))
        cert = res.certificates[-1]
        assert cert == TransformScaling(2, CUBE, Finite(4), Finite(5))
        assert verify_certificate(cert, substitute_power(CUBE, 2))

    def test_cube_doubles_with_cross_check(self):
        res = transform_scale(spec_of(CUBE), 2, cross_check=True)
        assert res.pair == (Finite(8), Finite(10))

    def test_infinite_component_is_preserved(self):
        res = transform_scale(spec_of(BINOMIAL), 2)
        assert res.strong == Finite(0)
        assert isinstance(res.atoms, Infinite)

    def test_lower_bounds_scale(self):
        res = transform_scale(spec_of(CUBE), 2, Caps(max_witness_deg=4))
        assert res.strong == AtLeast(0) and res.atoms == AtLeast(10)

    def test_reducible_substitution_rejected(self):
        with pytest.raises(TransformReducibleError) as exc:
            transform_scale(spec_of(TWO_ROOTS), 2)
        assert exc.value.k == 2
        assert exc.value.factor in (P(-1, -1, 1), P(-1, 1, 1))

    def test_uncertified_substitution_rejected(self):
        spec = spec_of(P(1, -10, 1))
        with pytest.raises(TransformUncertifiedError) as exc:
            transform_scale(spec, 2,
                            factor_caps=FactorSearchCaps(max_candidates=1))
        assert exc.value.k == 2

    def test_substituted_modulus_certified_modulo_primes(self):
        # m(x^3) = x^9 - 2x^6 + x^3 - 3 is not Eisenstein, and its factor
        # search needs far more than the one candidate allowed here.
        m = P(-3, 1, -2, 1)
        assert eisenstein_check(substitute_power(m, 3)) is None
        res = transform_scale(spec_of(m), 3,
                              factor_caps=FactorSearchCaps(max_candidates=1))
        assert res.pair == (Finite(12), Finite(12))

    def test_errors_are_value_errors(self):
        assert issubclass(TransformReducibleError, ValueError)
        assert issubclass(TransformUncertifiedError, ValueError)
