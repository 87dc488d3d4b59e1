"""Exact dense polynomial arithmetic over the integers and rationals.

Coefficients are stored ascending by degree: ``coeffs[i]`` is the
coefficient of x**i, and the zero polynomial is the empty tuple.
:class:`IntPoly` carries arbitrary-precision Python integers;
:class:`RatPoly` carries :class:`fractions.Fraction` values, which are
always in lowest terms with positive denominator by construction.
The two types share one implementation of the ring operations, the
structure accessors and the formatting; each adds only its constructor,
its ``repr`` and its own helpers.  Both answer ``to_rat()``: an
``IntPoly`` converts, a ``RatPoly`` returns itself.

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


class _Frozen:
    """Slotted immutable value, copied and pickled through its constructor."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # Copy and pickle through the constructor: the default route
        # restores the slots with setattr, which immutability refuses.
        return (type(self), self._args())

    def _args(self) -> tuple:
        """Constructor arguments that rebuild this value."""
        raise NotImplementedError


class _Poly(_Frozen):
    """Ring operations shared by :class:`IntPoly` and :class:`RatPoly`.

    Both operands of a binary operation must have the same type: an
    ``IntPoly`` and a ``RatPoly`` never compare equal, and mixing them
    in arithmetic raises ``TypeError``.  Subclasses set ``_zero``, the
    coefficient zero, and ``_scalars``, the scalar types ``*`` accepts.
    """

    __slots__ = ("coeffs",)
    _zero: Scalar
    _scalars: tuple[type, ...]

    def _args(self) -> tuple:
        return (self.coeffs,)

    @classmethod
    def zero(cls):
        return cls(())

    # -- structure ---------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> Scalar:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant(self) -> Scalar:
        return self.coeffs[0] if self.coeffs else self._zero

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.coeffs))

    def __str__(self) -> str:
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if i == 0:
                body = f"{mag}"
            elif i == 1:
                body = "x" if mag == 1 else f"{mag}x"
            else:
                body = f"x^{i}" if mag == 1 else f"{mag}x^{i}"
            parts.append(("-" if c < 0 else "+", body))
        if not parts:
            return "0"
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return type(self)(out)

    def __neg__(self):
        return type(self)(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        cls = type(self)
        if type(other) is cls:
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return cls(())
            out = [self._zero] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if ca:
                    for j, cb in enumerate(b):
                        if cb:
                            out[i + j] += ca * cb
            return cls(out)
        if isinstance(other, cls._scalars) and not isinstance(other, bool):
            return cls(tuple(other * c for c in self.coeffs))
        return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def __call__(self, x: Scalar) -> Scalar:
        acc = self._zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return type(self)(tuple(i * c for i, c in enumerate(self.coeffs)
                                if i > 0))


class IntPoly(_Poly):
    """Dense polynomial with integer coefficients.

    ``IntPoly((-2, 4, -8, 1))`` is x^3 - 8x^2 + 4x - 2.  Trailing zero
    coefficients are stripped on construction; the zero polynomial has
    an empty coefficient tuple and degree -1.
    """

    __slots__ = ()
    _zero = 0
    _scalars = (int,)

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = []
        for c in coeffs:
            if isinstance(c, bool) or not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {c!r}")
            cs.append(c)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __repr__(self) -> str:
        return f"IntPoly({self.coeffs!r})"

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

    def shifted(self, k: int) -> "IntPoly":
        """Multiply by x**k (k >= 0), or divide exactly by x**-k (k < 0)."""
        if k >= 0:
            return IntPoly((0,) * k + self.coeffs) if self.coeffs else self
        drop = -k
        if any(self.coeffs[:drop]):
            raise ValueError("not divisible by x**%d" % drop)
        return IntPoly(self.coeffs[drop:])

    def to_rat(self) -> "RatPoly":
        return RatPoly(tuple(Fraction(c) for c in self.coeffs))


class RatPoly(_Poly):
    """Dense polynomial with rational coefficients, ascending by degree."""

    __slots__ = ()
    _zero = Fraction(0)
    _scalars = (int, Fraction)

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __repr__(self) -> str:
        return f"RatPoly({tuple(str(c) for c in self.coeffs)!r})"

    def to_rat(self) -> "RatPoly":
        """This polynomial itself, so either type answers ``to_rat()``."""
        return self

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
    r, prim = f.to_rat().primitive_part()
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
