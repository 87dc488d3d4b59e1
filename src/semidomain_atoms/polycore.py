"""Exact dense polynomial arithmetic over the integers and rationals.

Coefficients are stored ascending by degree: ``coeffs[i]`` is the
coefficient of x**i, and the zero polynomial is the empty tuple.
:class:`IntPoly` carries arbitrary-precision Python integers;
:class:`RatPoly` carries :class:`fractions.Fraction` values, which are
always in lowest terms with positive denominator by construction.

Both types are immutable and hashable, and every operation here is a
pure function of its inputs, so values can be shared freely (including
across threads).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]

__all__ = [
    "IntPoly",
    "RatPoly",
    "MinimalPair",
    "content_primitive",
    "minimal_pair",
    "reduce_mod",
    "substitute_power",
    "divmod_rat",
    "gcd_rat",
]


def _fmt(coeffs: tuple, var: str = "x") -> str:
    if not coeffs:
        return "0"
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if i == 0:
            body = f"{mag}"
        elif i == 1:
            body = f"{var}" if mag == 1 else f"{mag}{var}"
        else:
            body = f"{var}^{i}" if mag == 1 else f"{mag}{var}^{i}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


class IntPoly:
    """Dense polynomial with integer coefficients.

    ``IntPoly((-2, 4, -8, 1))`` is x^3 - 8x^2 + 4x - 2.  Trailing zero
    coefficients are stripped on construction; the zero polynomial has
    an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = []
        for c in coeffs:
            if isinstance(c, bool) or not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {c!r}")
            cs.append(c)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    def __reduce__(self):
        # Copy and pickle through the constructor: the default route
        # restores the slot with setattr, which immutability refuses.
        return (type(self), (self.coeffs,))

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls(())

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "IntPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, coeff: int, power: int) -> "IntPoly":
        if power < 0:
            raise ValueError("power must be >= 0")
        return cls((0,) * power + (coeff,))

    # -- structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    @property
    def ord(self) -> int:
        """Multiplicity of the root 0, i.e. the lowest power with support."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no order")
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        raise AssertionError("unreachable")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coeffs) if c)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("IntPoly", self.coeffs))

    def __repr__(self) -> str:
        return f"IntPoly({self.coeffs!r})"

    def __str__(self) -> str:
        return _fmt(self.coeffs)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        if not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, IntPoly):
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return IntPoly.zero()
            out = [0] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if ca:
                    for j, cb in enumerate(b):
                        if cb:
                            out[i + j] += ca * cb
            return IntPoly(out)
        if isinstance(other, int) and not isinstance(other, bool):
            return IntPoly(tuple(other * c for c in self.coeffs))
        return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n: int) -> "IntPoly":
        if n < 0:
            raise ValueError("negative power")
        out = IntPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __call__(self, x: Scalar) -> Scalar:
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shifted(self, k: int) -> "IntPoly":
        """Multiply by x**k (k >= 0), or divide exactly by x**-k (k < 0)."""
        if k >= 0:
            return IntPoly((0,) * k + self.coeffs) if self.coeffs else self
        drop = -k
        if any(self.coeffs[:drop]):
            raise ValueError("not divisible by x**%d" % drop)
        return IntPoly(self.coeffs[drop:])

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def to_rat(self) -> "RatPoly":
        return RatPoly(tuple(Fraction(c) for c in self.coeffs))


class RatPoly:
    """Dense polynomial with rational coefficients, ascending by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    def __reduce__(self):
        # Copy and pickle through the constructor: the default route
        # restores the slot with setattr, which immutability refuses.
        return (type(self), (self.coeffs,))

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls(())

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, RatPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("RatPoly", self.coeffs))

    def __repr__(self) -> str:
        return f"RatPoly({tuple(str(c) for c in self.coeffs)!r})"

    def __str__(self) -> str:
        return _fmt(self.coeffs)

    def __add__(self, other: "RatPoly") -> "RatPoly":
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, RatPoly):
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return RatPoly.zero()
            out = [Fraction(0)] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if ca:
                    for j, cb in enumerate(b):
                        if cb:
                            out[i + j] += ca * cb
            return RatPoly(out)
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return RatPoly(tuple(other * c for c in self.coeffs))
        return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def __call__(self, x: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "RatPoly":
        return RatPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def is_integer(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def to_int(self) -> IntPoly:
        if not self.is_integer():
            raise ValueError(f"non-integer coefficients in {self}")
        return IntPoly(tuple(int(c) for c in self.coeffs))

    def clear_denominators(self) -> tuple[int, IntPoly]:
        """Smallest positive integer L with L*self integral; returns (L, L*self)."""
        if not self.coeffs:
            return 1, IntPoly.zero()
        L = 1
        for c in self.coeffs:
            L = L * c.denominator // math.gcd(L, c.denominator)
        return L, IntPoly(tuple(int(c * L) for c in self.coeffs))

    def primitive_part(self) -> tuple[Fraction, IntPoly]:
        """Unique r > 0 such that r*self is integral with content 1.

        Returns (r, r*self).  The sign of the leading coefficient is
        preserved.  Raises ValueError on the zero polynomial.
        """
        if not self.coeffs:
            raise ValueError("zero polynomial has no primitive part")
        L, g = self.clear_denominators()
        c, prim = content_primitive(g)
        return Fraction(L, c), prim


def content_primitive(a: IntPoly) -> tuple[int, IntPoly]:
    """Split ``a`` into (content, primitive part).

    The content is the positive gcd of the coefficients; the primitive
    part keeps the sign of ``a``.  Raises ValueError on zero input.
    """
    if not a:
        raise ValueError("zero polynomial has no content")
    g = 0
    for c in a.coeffs:
        g = math.gcd(g, c)
    return g, IntPoly(tuple(c // g for c in a.coeffs))


@dataclass(frozen=True, slots=True)
class MinimalPair:
    """Canonical decomposition r*f = p - q of a nonzero rational polynomial.

    ``scale`` is the unique positive rational r with r*f integral of
    content 1; ``p`` collects the positive coefficients of r*f and
    ``q`` the negated negative ones, so p and q have nonnegative
    coefficients and disjoint supports.
    """

    scale: Fraction
    p: IntPoly
    q: IntPoly

    def recompose(self) -> IntPoly:
        return self.p - self.q


def minimal_pair(f: Union[IntPoly, RatPoly]) -> MinimalPair:
    """Minimal pair of a nonzero polynomial (see :class:`MinimalPair`)."""
    rf = f.to_rat() if isinstance(f, IntPoly) else f
    r, prim = rf.primitive_part()
    p = IntPoly(tuple(c if c > 0 else 0 for c in prim.coeffs))
    q = IntPoly(tuple(-c if c < 0 else 0 for c in prim.coeffs))
    return MinimalPair(r, p, q)


def divmod_rat(a: RatPoly, b: RatPoly) -> tuple[RatPoly, RatPoly]:
    """Exact quotient and remainder of a by b over the rationals."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, a.degree - b.degree + 1)
    r = list(a.coeffs)
    db, lb = b.degree, b.lead
    while len(r) - 1 >= db and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db:
            break
        k = len(r) - 1 - db
        t = r[-1] / lb
        q[k] = t
        for i, cb in enumerate(b.coeffs):
            r[k + i] -= t * cb
    return RatPoly(q), RatPoly(r)


def reduce_mod(target: IntPoly, m: IntPoly) -> RatPoly:
    """Remainder of ``target`` modulo ``m`` over the rationals."""
    if not m:
        raise ZeroDivisionError("reduction modulo the zero polynomial")
    _, r = divmod_rat(target.to_rat(), m.to_rat())
    return r


def gcd_rat(a: RatPoly, b: RatPoly) -> RatPoly:
    """Monic gcd over the rationals (zero if both inputs are zero)."""
    x, y = a, b
    while y:
        _, r = divmod_rat(x, y)
        x, y = y, r
    if not x:
        return RatPoly.zero()
    return x * (1 / x.lead)


def substitute_power(m: IntPoly, k: int) -> IntPoly:
    """The polynomial m(x**k) for k >= 1."""
    if k < 1:
        raise ValueError("power must be >= 1")
    if not m:
        return IntPoly.zero()
    out = [0] * (k * m.degree + 1)
    for i, c in enumerate(m.coeffs):
        out[k * i] = c
    return IntPoly(out)
