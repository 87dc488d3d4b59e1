"""Exact positive-root counting, isolation, and sign-variation tools.

Everything here works over exact rationals.  Root counts come from
Sturm chains (the canonical remainder sequence p0 = f, p1 = f',
p_{i+1} = -rem(p_{i-1}, p_i)); the chain evaluated at 0+ uses the sign
of the lowest nonzero coefficient and at +infinity the sign of the
leading coefficient, so no numeric limits are involved.  Counting over
an interval (a, b] is the variation difference V(a) - V(b) with zeros
skipped, which also counts a root sitting exactly at b.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence, Union

from .polycore import IntPoly, RatPoly, _Frozen, divmod_rat, gcd_rat

__all__ = [
    "sign_variations",
    "SturmChain",
    "positive_root_count",
    "RootInterval",
    "isolate_positive_roots",
    "squarefree_part",
]

AnyPoly = Union[IntPoly, RatPoly]


def _signs(values) -> list[int]:
    out = []
    for v in values:
        if v > 0:
            out.append(1)
        elif v < 0:
            out.append(-1)
    return out


def _variations(signs: Sequence[int]) -> int:
    count = 0
    for a, b in zip(signs, signs[1:]):
        if a != b:
            count += 1
    return count


def sign_variations(f: AnyPoly) -> int:
    """Number of sign changes in the coefficient sequence (zeros skipped)."""
    return _variations(_signs(f.coeffs))


class SturmChain(_Frozen):
    """Canonical Sturm chain of a nonzero polynomial."""

    __slots__ = ("polys",)

    def __init__(self, f: AnyPoly) -> None:
        rf = f.to_rat()
        if not rf:
            raise ValueError("Sturm chain of the zero polynomial")
        chain = [rf]
        d = rf.derivative()
        if d:
            chain.append(d)
            while True:
                _, r = divmod_rat(chain[-2], chain[-1])
                if not r:
                    break
                chain.append(-r)
        object.__setattr__(self, "polys", tuple(chain))

    def _args(self) -> tuple:
        return (self.polys[0],)

    def variations_at(self, x: Fraction) -> int:
        return _variations(_signs(p(x) for p in self.polys))

    def variations_at_zero_plus(self) -> int:
        signs = []
        for p in self.polys:
            for c in p.coeffs:
                if c:
                    signs.append(1 if c > 0 else -1)
                    break
        return _variations(signs)

    def variations_at_infinity(self) -> int:
        return _variations(_signs(p.lead for p in self.polys))

    def count_in(self, a: Fraction, b: Fraction) -> int:
        """Distinct real roots of the chain's polynomial in (a, b]."""
        if not a < b:
            raise ValueError("empty interval")
        return self.variations_at(a) - self.variations_at(b)

    def count_positive(self) -> int:
        """Distinct real roots in (0, +infinity)."""
        return self.variations_at_zero_plus() - self.variations_at_infinity()


def squarefree_part(f: IntPoly) -> IntPoly:
    """Primitive squarefree part of a nonzero polynomial, positive lead."""
    if not f:
        raise ValueError("zero polynomial")
    rf = f.to_rat()
    g = gcd_rat(rf, rf.derivative())
    q, r = divmod_rat(rf, g)
    if r:
        raise RuntimeError("squarefree_part: gcd(f, f') does not divide f")
    _, prim = q.primitive_part()
    return prim if prim.lead > 0 else -prim


@lru_cache(maxsize=8192)
def _positive_root_count(f: IntPoly, with_multiplicity: bool) -> int:
    k = f.ord
    g = f.shifted(-k) if k else f
    if g.degree < 1:
        return 0
    if not with_multiplicity:
        return SturmChain(g).count_positive()
    total = 0
    cur = g.to_rat()
    while cur.degree >= 1:
        _, prim = cur.primitive_part()
        total += SturmChain(prim).count_positive()
        cur = gcd_rat(cur, cur.derivative())
    return total


def positive_root_count(f: AnyPoly, with_multiplicity: bool = False) -> int:
    """Number of real roots in (0, +infinity), distinct by default.

    With ``with_multiplicity=True`` every root is counted as many times
    as its multiplicity, by summing distinct-root counts over the
    layers f, gcd(f, f'), gcd of that with its derivative, and so on.
    Roots at 0 are never counted.
    """
    if not f:
        raise ValueError("zero polynomial")
    if isinstance(f, RatPoly):
        _, f = f.primitive_part()
    return _positive_root_count(f, with_multiplicity)


class RootInterval(_Frozen):
    """Half-open rational interval (lo, hi] containing exactly one real root."""

    __slots__ = ("lo", "hi", "polynomial", "_chain")

    def __init__(self, lo: Fraction, hi: Fraction, polynomial: IntPoly,
                 _chain: Optional[SturmChain] = None) -> None:
        if not lo < hi:
            raise ValueError("need lo < hi")
        object.__setattr__(self, "lo", Fraction(lo))
        object.__setattr__(self, "hi", Fraction(hi))
        object.__setattr__(self, "polynomial", polynomial)
        object.__setattr__(self, "_chain", _chain or SturmChain(polynomial))
        if self._chain.count_in(self.lo, self.hi) != 1:
            raise ValueError(f"({lo}, {hi}] does not isolate one root of {polynomial}")

    def _args(self) -> tuple:
        return (self.lo, self.hi, self.polynomial, self._chain)

    def __repr__(self) -> str:
        return f"RootInterval(({self.lo}, {self.hi}], {self.polynomial})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, RootInterval)
                and (self.lo, self.hi, self.polynomial)
                == (other.lo, other.hi, other.polynomial))

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.polynomial))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def refined(self, max_width: Fraction) -> "RootInterval":
        """Bisect until the width is at most ``max_width``, which must be
        positive: halving never reaches width 0."""
        if not max_width > 0:
            raise ValueError(f"max_width must be positive, got {max_width}")
        lo, hi = self.lo, self.hi
        while hi - lo > max_width:
            mid = (lo + hi) / 2
            if self._chain.count_in(lo, mid) == 1:
                hi = mid
            else:
                lo = mid
        return RootInterval(lo, hi, self.polynomial, self._chain)


def isolate_positive_roots(f: IntPoly) -> list[RootInterval]:
    """Disjoint isolating intervals for every positive real root of f.

    Intervals follow the (lo, hi] convention and are returned in
    increasing order; each carries the squarefree part of f, whose
    positive roots are the same as f's.
    """
    if not f:
        raise ValueError("zero polynomial")
    k = f.ord
    g = squarefree_part(f.shifted(-k) if k else f)
    if g.degree < 1:
        return []
    chain = SturmChain(g)
    total = chain.count_positive()
    if total == 0:
        return []
    # Cauchy bound: all roots lie strictly inside |x| < 1 + max|c_i|/|lead|.
    bound = 1 + max(abs(c) for c in g.coeffs) // abs(g.lead) + 1
    lo0, hi0 = Fraction(0), Fraction(bound)
    if chain.count_in(lo0, hi0) != total:
        raise RuntimeError(
            "isolate_positive_roots: a positive root lies outside the "
            "Cauchy bound")
    done: list[tuple[Fraction, Fraction]] = []
    stack = [(lo0, hi0, total)]
    while stack:
        lo, hi, count = stack.pop()
        if count == 0:
            continue
        if count == 1:
            done.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        left = chain.count_in(lo, mid)
        stack.append((lo, mid, left))
        stack.append((mid, hi, count - left))
    done.sort()
    return [RootInterval(lo, hi, g, chain) for lo, hi in done]
