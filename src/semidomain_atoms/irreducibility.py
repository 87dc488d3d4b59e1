"""Irreducibility certification over the rationals.

The certifier is sound in both directions: ``Irreducible`` is returned
only with a verifiable reason (degree one, an Eisenstein prime, root
exclusion for cubics and quadratics, or an exhausted complete factor
search) and ``Reducible`` always carries an explicit proper factor that
is re-checked by exact division before being returned.  When the
bounded factor search runs out of budget the answer is ``Unknown`` —
never a guess.

The factor search enumerates integer factor candidates of each degree d
up to half the input degree.  A candidate is pinned down by its values
at 0, 1 and -1 (which must divide the input's values there) plus its
leading coefficient (dividing the input's), leaving d - 3 free interior
coefficients, each bounded by the Mignotte-style bound
2^d * ceil(l2norm(m)).  Exhausting that finite space without finding a
divisor proves irreducibility.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .polycore import IntPoly, content_primitive, divmod_rat

__all__ = [
    "Irreducible",
    "Reducible",
    "Unknown",
    "FactorSearchCaps",
    "eisenstein_check",
    "rational_roots",
    "certify_irreducible",
]


@dataclass(frozen=True, slots=True)
class Irreducible:
    """Positive certificate; ``method`` says which argument applies."""

    method: str  # "degree-1" | "eisenstein" | "no-rational-root" | "factor-search"
    eisenstein_prime: Optional[int] = None

    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True, slots=True)
class Reducible:
    """Negative certificate: ``factor`` properly divides the input."""

    factor: IntPoly

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True, slots=True)
class Unknown:
    reason: str

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True, slots=True)
class FactorSearchCaps:
    max_candidates: int = 200_000


IrreducibilityResult = Union[Irreducible, Reducible, Unknown]


def _prime_factors(n: int) -> list[int]:
    n = abs(n)
    out = []
    for p in itertools.chain((2,), itertools.count(3, 2)):
        if p * p > n:
            break
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
    if n > 1:
        out.append(n)
    return out


def _divisors(n: int) -> list[int]:
    """All positive divisors of n != 0, ascending."""
    n = abs(n)
    divs = [1]
    m = n
    for p in _prime_factors(n):
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        divs = [d * p**e for d in divs for e in range(k + 1)]
        m = n
    return sorted(divs)


def _signed_divisors(n: int) -> list[int]:
    out = []
    for d in _divisors(n):
        out.extend((d, -d))
    return out


def eisenstein_check(m: IntPoly) -> Optional[int]:
    """An Eisenstein prime for m, or None.

    Looks for a prime p with p dividing every coefficient below the
    leading one, p not dividing the leading coefficient, and p^2 not
    dividing the constant term.
    """
    if m.degree < 1 or m.constant == 0:
        return None
    for p in _prime_factors(m.constant):
        if m.lead % p == 0 or m.constant % (p * p) == 0:
            continue
        if all(c % p == 0 for c in m.coeffs[:-1]):
            return p
    return None


def rational_roots(m: IntPoly) -> list["Fraction"]:
    """All rational roots of a nonzero polynomial, ascending."""
    from fractions import Fraction

    if not m:
        raise ValueError("zero polynomial")
    roots = []
    if m.ord:
        roots.append(Fraction(0))
        m = m.shifted(-m.ord)
    if m.degree >= 1:
        for q in _divisors(m.lead):
            for p in _signed_divisors(m.constant):
                if math.gcd(abs(p), q) != 1:
                    continue
                cand = Fraction(p, q)
                if m(cand) == 0:
                    roots.append(cand)
    return sorted(set(roots))


def _mignotte_bound(m: IntPoly, d: int) -> int:
    norm2 = sum(c * c for c in m.coeffs)
    return (2**d) * (math.isqrt(norm2 - 1) + 1 if norm2 else 0)


def _interior_candidates(d: int, b0: int, bd: int, s1: int, sneg1: int,
                         bound: int) -> Iterator[tuple[int, ...]]:
    """Interior coefficients (b_1 .. b_{d-1}) consistent with the pins.

    The even-index coefficients must sum to (s1 + sneg1)/2 minus the
    pinned even-position ones, and the odd-index coefficients to
    (s1 - sneg1)/2 minus the pinned odd ones.  One index per parity
    class is solved for; the rest range over [-bound, bound].
    """
    if (s1 + sneg1) % 2:
        return
    even_sum = (s1 + sneg1) // 2 - b0 - (bd if d % 2 == 0 else 0)
    odd_sum = (s1 - sneg1) // 2 - (bd if d % 2 == 1 else 0)
    evens = list(range(2, d, 2))
    odds = list(range(1, d, 2))
    if not evens and even_sum != 0:
        return
    if not odds and odd_sum != 0:
        return
    free = (evens[:-1] if evens else []) + (odds[:-1] if odds else [])
    rng = range(-bound, bound + 1)
    for vals in itertools.product(rng, repeat=len(free)):
        coeffs = dict(zip(free, vals))
        if evens:
            solved = even_sum - sum(coeffs.get(j, 0) for j in evens[:-1])
            if abs(solved) > bound:
                continue
            coeffs[evens[-1]] = solved
        if odds:
            solved = odd_sum - sum(coeffs.get(j, 0) for j in odds[:-1])
            if abs(solved) > bound:
                continue
            coeffs[odds[-1]] = solved
        yield tuple(coeffs[j] for j in range(1, d))


def _factor_search(m: IntPoly, caps: FactorSearchCaps) -> IrreducibilityResult:
    """Complete bounded search for a proper factor of a primitive m.

    Assumes m(0), m(1), m(-1) are all nonzero and m has no rational
    root (degree-1 factors are already excluded).
    """
    v0, v1, vneg1 = m.constant, m(1), m(-1)
    tried = 0
    for d in range(2, m.degree // 2 + 1):
        bound = _mignotte_bound(m, d)
        for bd in _divisors(m.lead):
            for b0 in _signed_divisors(v0):
                for s1 in _signed_divisors(v1):
                    for sneg1 in _signed_divisors(vneg1):
                        for interior in _interior_candidates(
                                d, b0, bd, s1, sneg1, bound):
                            tried += 1
                            if tried > caps.max_candidates:
                                return Unknown(
                                    "factor search budget exhausted after "
                                    f"{caps.max_candidates} candidates")
                            g = IntPoly((b0,) + interior + (bd,))
                            _, r = divmod_rat(m.to_rat(), g.to_rat())
                            if not r:
                                _, gp = content_primitive(g)
                                return Reducible(gp)
    return Irreducible("factor-search")


def certify_irreducible(m: IntPoly,
                        caps: FactorSearchCaps = FactorSearchCaps(),
                        ) -> IrreducibilityResult:
    """Decide irreducibility of m over the rationals, with certificate.

    Constant and zero inputs are rejected.  Content is ignored (units
    of the rational polynomial ring).
    """
    if m.degree < 1:
        raise ValueError("irreducibility needs degree >= 1")
    _, m = content_primitive(m)
    if m.ord:
        if m.degree == 1:
            return Irreducible("degree-1")
        return Reducible(IntPoly.x())
    if m.degree == 1:
        return Irreducible("degree-1")
    p = eisenstein_check(m)
    if p is not None:
        return Irreducible("eisenstein", eisenstein_prime=p)
    for root in rational_roots(m):
        lin = IntPoly((-root.numerator, root.denominator))
        _, r = divmod_rat(m.to_rat(), lin.to_rat())
        if r:
            raise RuntimeError(
                f"certify_irreducible: rational root {root} does not "
                f"divide {m}")
        return Reducible(lin)
    if m.degree <= 3:
        return Irreducible("no-rational-root")
    return _factor_search(m, caps)
