import operator
from fractions import Fraction

import pytest

from conftest import CUBE, P
from semidomain_atoms import (IntPoly, RatPoly, content_primitive, divmod_rat,
                              gcd_rat, minimal_pair, reduce_mod,
                              substitute_power)


class TestIntPolyBasics:
    def test_trailing_zeros_trimmed(self):
        assert P(1, 2, 0, 0) == P(1, 2)
        assert P(0, 0).coeffs == ()

    def test_zero_polynomial(self):
        z = IntPoly.zero()
        assert not z
        assert z.degree == -1
        assert z == P()
        assert z.constant == 0 and type(z.constant) is int
        assert RatPoly.zero().constant == 0
        assert type(RatPoly.zero().constant) is Fraction

    def test_constructors(self):
        assert IntPoly.one() == P(1)
        assert IntPoly.x() == P(0, 1)
        assert IntPoly.monomial(-7, 3) == P(0, 0, 0, -7)
        assert IntPoly.monomial(0, 5) == IntPoly.zero()

    def test_degree_lead_constant(self):
        m = CUBE
        assert m.degree == 3
        assert m.lead == 1
        assert m.constant == -2

    def test_ord_and_support(self):
        assert P(0, 0, 3, 1).ord == 2
        assert CUBE.ord == 0
        assert CUBE.support == (0, 1, 2, 3)
        with pytest.raises(ValueError):
            IntPoly.zero().ord

    def test_repr_str(self):
        assert repr(P(-2, 1)) == "IntPoly((-2, 1))"
        assert str(CUBE) == "x^3 - 8x^2 + 4x - 2"
        assert str(P(0, 1)) == "x"
        assert str(IntPoly.zero()) == "0"


class TestIntPolyArithmetic:
    def test_add_sub_neg(self):
        assert P(1, 2) + P(3, -2) == P(4)
        assert P(1, 2) - P(1, 2) == IntPoly.zero()
        assert -P(1, -2) == P(-1, 2)

    def test_mul_known_products(self):
        # (2x + 1)(x^3 - 8x^2 + 4x - 2) = 2x^4 - 15x^3 - 2
        assert P(1, 2) * CUBE == P(-2, 0, 0, -15, 2)
        # (x^2 + 2x + 1)(x^3 - 8x^2 + 4x - 2) = x^5 - 6x^4 - 11x^3 - 2x^2 - 2
        assert P(1, 2, 1) * CUBE == P(-2, 0, -2, -11, -6, 1)

    def test_scalar_mul(self):
        assert 3 * P(1, -2) == P(3, -6)
        assert P(1, -2) * -1 == P(-1, 2)

    def test_pow(self):
        assert P(1, 1) ** 2 == P(1, 2, 1)
        assert P(0, 1) ** 5 == IntPoly.monomial(1, 5)
        assert CUBE ** 0 == IntPoly.one()
        with pytest.raises(ValueError):
            CUBE ** -1

    def test_call(self):
        assert CUBE(0) == -2
        assert CUBE(1) == -5
        assert CUBE(Fraction(1, 2)) == Fraction(-15, 8)

    def test_shift(self):
        assert P(1, 2).shifted(2) == P(0, 0, 1, 2)
        assert P(0, 0, 1).shifted(-1) == P(0, 1)
        with pytest.raises(ValueError):
            P(1, 1).shifted(-1)

    def test_derivative(self):
        assert CUBE.derivative() == P(4, -16, 3)
        assert P(5).derivative() == IntPoly.zero()


class TestRatPoly:
    def test_roundtrip(self):
        r = CUBE.to_rat()
        assert isinstance(r, RatPoly)
        assert r.is_integer()
        assert r.to_int() == CUBE
        assert r.to_rat() is r

    def test_arithmetic(self):
        half = RatPoly((Fraction(1, 2), 1))
        assert half + half == RatPoly((1, 2))
        assert half * RatPoly((2,)) == RatPoly((1, 2))
        assert (half - half) == RatPoly.zero()

    def test_clear_denominators(self):
        r = RatPoly((Fraction(1, 2), Fraction(1, 3)))
        scale, p = r.clear_denominators()
        assert scale == 6
        assert p == P(3, 2)

    def test_primitive_part_preserves_sign(self):
        r = RatPoly((Fraction(-1, 2), -1))
        scale, p = r.primitive_part()
        assert scale > 0
        assert p == P(-1, -2)
        assert p.to_rat() == scale * r

    def test_to_int_requires_integrality(self):
        with pytest.raises(ValueError):
            RatPoly((Fraction(1, 2),)).to_int()


class TestOneImplementation:
    """What the shared base keeps apart: the two types never mix."""

    @pytest.mark.parametrize("coeffs", [(), (1,), (-2, 4, -8, 1), (0, 3)])
    def test_equal_coefficients_unequal_types(self, coeffs):
        a, b = IntPoly(coeffs), RatPoly(coeffs)
        assert a.coeffs == b.coeffs
        assert a != b and b != a
        assert hash(a) == hash(("IntPoly", a.coeffs))
        assert hash(b) == hash(("RatPoly", b.coeffs))
        assert hash(a) != hash(b)

    @pytest.mark.parametrize("op", [operator.add, operator.sub,
                                    operator.mul])
    def test_mixed_arithmetic_raises(self, op):
        for a, b in ((CUBE, CUBE.to_rat()), (CUBE.to_rat(), CUBE)):
            with pytest.raises(TypeError):
                op(a, b)

    def test_intpoly_rejects_fraction_scalar(self):
        with pytest.raises(TypeError):
            CUBE * Fraction(1, 2)
        with pytest.raises(TypeError):
            Fraction(1, 2) * CUBE
        assert CUBE.to_rat() * Fraction(1, 2) == RatPoly(
            (-1, 2, -4, Fraction(1, 2)))


class TestHelpers:
    def test_content_primitive(self):
        assert content_primitive(P(-4, -6)) == (2, P(-2, -3))
        assert content_primitive(P(3)) == (3, P(1))
        assert content_primitive(CUBE) == (1, CUBE)

    def test_minimal_pair(self):
        mp = minimal_pair(CUBE)
        assert mp.scale == 1
        assert mp.p == P(0, 4, 0, 1)
        assert mp.q == P(2, 0, 8)
        assert mp.recompose() == CUBE
        # p and q have disjoint support and nonnegative coefficients
        assert set(mp.p.support).isdisjoint(mp.q.support)
        assert all(c >= 0 for c in mp.p.coeffs)
        assert all(c >= 0 for c in mp.q.coeffs)

    def test_minimal_pair_golden(self):
        mp = minimal_pair(P(-1, -1, 1))
        assert (mp.p, mp.q) == (P(0, 0, 1), P(1, 1))

    def test_divmod_rat(self):
        q, r = divmod_rat((P(1, 2, 1) * CUBE).to_rat(), CUBE.to_rat())
        assert q == P(1, 2, 1).to_rat()
        assert r == RatPoly.zero()
        q, r = divmod_rat(P(0, 0, 0, 1).to_rat(), P(1, -3, 1).to_rat())
        assert r == P(-3, 8).to_rat()
        assert q * P(1, -3, 1).to_rat() + r == P(0, 0, 0, 1).to_rat()

    def test_divmod_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod_rat(CUBE.to_rat(), RatPoly.zero())

    def test_reduce_mod(self):
        assert reduce_mod(P(0, 0, 0, 1), P(1, -3, 1)) == P(-3, 8).to_rat()

    def test_gcd_rat(self):
        # gcd((x-1)(x+2), (x-1)(x-3)) = x - 1, monic
        a = (P(-1, 1) * P(2, 1)).to_rat()
        b = (P(-1, 1) * P(-3, 1)).to_rat()
        assert gcd_rat(a, b) == P(-1, 1).to_rat()
        assert gcd_rat(CUBE.to_rat(), RatPoly.zero()) == CUBE.to_rat() * Fraction(1, 1)

    def test_substitute_power(self):
        assert substitute_power(CUBE, 2) == P(-2, 0, 4, 0, -8, 0, 1)
        assert substitute_power(CUBE, 1) == CUBE
        with pytest.raises(ValueError):
            substitute_power(CUBE, 0)
