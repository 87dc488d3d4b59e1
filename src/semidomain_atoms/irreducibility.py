"""Irreducibility certification over the rationals.

The certifier is sound in both directions: ``Irreducible`` is returned
only with a verifiable reason (degree one, an Eisenstein prime, root
exclusion for cubics and quadratics, an exhausted complete factor
search, or factor degrees modulo primes) and ``Reducible`` always
carries an explicit proper factor that is re-checked by exact division
before being returned.  When neither the primes nor the bounded factor
search settle the question the answer is ``Unknown`` — never a guess.

The factor search enumerates integer factor candidates of each degree d
up to half the input degree.  A candidate is pinned down by its values
at 0, 1 and -1 (which must divide the input's values there) plus its
leading coefficient (dividing the input's), leaving d - 3 free interior
coefficients, each bounded by the Mignotte-style bound
2^d * ceil(l2norm(m)).  Exhausting that finite space without finding a
divisor proves irreducibility.

The finite-field route reduces m modulo the primes 2, 3, 5, ... that do
not divide its lead and leave it squarefree, and reads off the degrees
of its irreducible factors over GF(p) by distinct-degree factorization.
A factorization m = g*h over the integers survives reduction with the
same degrees, so deg g is a sum of some of those factor degrees modulo
every such prime.  One prime where m stays irreducible ("mod-p", Rabin's
test) or a few primes whose sets of factor-degree sums share only 0 and
deg m ("degree-sets", Musser's test) therefore prove m irreducible; a
product is never certified this way.  The route runs before the factor
search from degree 8 up, where the search starts enumerating free
coefficients, and after it when the search runs out of budget.  Each
such certificate is re-checked before it is returned along a route
other than the one that found it: Rabin's conditions on x^(p^n) - x
for one prime, and for degree sets the factor degrees recomputed from
the degree of gcd(x^(p^d) - x, m mod p) for each d up to n/2, without
the distinct-degree factorization's divisions or its Frobenius matrix.
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

    # "degree-1" | "eisenstein" | "no-rational-root" | "factor-search"
    # | "mod-p" | "degree-sets"
    method: str
    eisenstein_prime: Optional[int] = None
    primes: tuple[int, ...] = ()  # for "mod-p" and "degree-sets"

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


# --------------------------------------------------------------------------
# Factor degrees modulo primes.  Polynomials over GF(p) are lists of ints
# in [0, p), ascending like IntPoly coefficients, with no trailing zeros.

MOD_P_MIN_DEGREE = 8  # below this the factor search answers first
MOD_P_PRIMES = 20  # usable primes tried (and unusable ones skipped)


def _gf_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_divmod(a: list[int], b: list[int],
               p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder over GF(p); a may hold any integers."""
    a = list(a)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 0)
    inv = pow(b[-1], -1, p)
    for i in range(len(a) - 1 - db, -1, -1):
        c = a[i + db] * inv % p
        if c:
            q[i] = c
            for j in range(db):
                a[i + j] -= c * b[j]
    return _gf_trim(q), _gf_trim([c % p for c in a[:db]])


def _gf_mulmod(a: list[int], b: list[int], f: list[int],
               p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return _gf_divmod(prod, f, p)[1]


def _gf_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    out = [1]
    while e:
        if e & 1:
            out = _gf_mulmod(out, a, f, p)
        e >>= 1
        if e:
            a = _gf_mulmod(a, a, f, p)
    return out


def _gf_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _gf_divmod(a, b, p)[1]
    return a


def _gf_minus_x(a: list[int], p: int) -> list[int]:
    a = a + [0] * (2 - len(a))
    a[1] = (a[1] - 1) % p
    return _gf_trim(a)


def _reduce_mod_p(m: IntPoly, p: int) -> Optional[list[int]]:
    """m mod p, when p does not divide the lead and it stays squarefree."""
    if m.lead % p == 0:
        return None
    f = [c % p for c in m.coeffs]
    df = _gf_trim([i * c % p for i, c in enumerate(f)][1:])
    if not df or len(_gf_gcd(f, df, p)) > 1:
        return None
    return f


def _degree_pattern(f: list[int], p: int) -> list[int]:
    """Degrees of the irreducible factors of a squarefree f over GF(p).

    Distinct-degree factorization: gcd(x^(p^d) - x, f) collects the
    factors of degree d once the lower degrees are divided out.  Each
    x^(p^d) mod f comes from the one before by the Frobenius map
    h -> h^p = sum h_i x^(ip), a matrix-vector product over the
    precomputed rows x^(ip) mod f.
    """
    n = len(f) - 1
    xp = _gf_powmod([0, 1], p, f, p)
    rows = [[1]]
    for _ in range(n - 1):
        rows.append(_gf_mulmod(rows[-1], xp, f, p))
    pattern: list[int] = []
    rest, h, d = f, [0, 1], 0
    while 2 * (d + 1) <= len(rest) - 1:
        d += 1
        nxt = [0] * n
        for hi, row in zip(h, rows):
            for j, c in enumerate(row):
                nxt[j] += hi * c
        h = _gf_trim([c % p for c in nxt])
        g = _gf_gcd(rest, _gf_minus_x(h, p), p)
        if len(g) > 1:
            pattern += [d] * ((len(g) - 1) // d)
            rest = _gf_divmod(rest, g, p)[0]
    if len(rest) > 1:
        pattern.append(len(rest) - 1)
    return pattern


def _degree_sums(pattern: list[int]) -> int:
    """Bit set of the sums of sub-multisets of the pattern."""
    sums = 1
    for d in pattern:
        sums |= sums << d
    return sums


def _frobenius_powers(f: list[int], p: int, top: int) -> list[list[int]]:
    """x^(p^d) mod f for d = 0..top, by plain repeated powering."""
    out = [_gf_divmod([0, 1], f, p)[1]]
    for _ in range(top):
        out.append(_gf_powmod(out[-1], p, f, p))
    return out


def _recheck_mod_p(m: IntPoly, cert: Irreducible) -> None:
    """Re-check a finite-field certificate; raise RuntimeError if it fails."""
    n = m.degree
    reduced = [_reduce_mod_p(m, p) for p in cert.primes]
    if not reduced or None in reduced:
        raise RuntimeError(f"certify_irreducible: {cert} uses a prime that "
                           f"divides the lead of {m} or leaves it "
                           "non-squarefree")
    if cert.method == "mod-p":
        (p,), (f,) = cert.primes, reduced
        frob = _frobenius_powers(f, p, n)
        if (_gf_minus_x(frob[n], p)
                or any(len(_gf_gcd(f, _gf_minus_x(frob[n // q], p), p)) > 1
                       for q in _prime_factors(n))):
            raise RuntimeError(f"certify_irreducible: {m} fails Rabin's "
                               f"irreducibility test modulo {p}")
        return
    common = -1
    for p, f in zip(cert.primes, reduced):
        # deg gcd(x^(p^d) - x, f) is the sum of e * count_e over e | d, so
        # the counts come back degree by degree without dividing f; what
        # is left above n/2 is at most one factor.
        frob = _frobenius_powers(f, p, n // 2)
        counts = [0] * (n + 1)
        for d in range(1, n // 2 + 1):
            gd = len(_gf_gcd(f, _gf_minus_x(frob[d], p), p)) - 1
            counts[d], r = divmod(
                gd - sum(e * counts[e] for e in range(1, d) if d % e == 0), d)
            if r or counts[d] < 0:
                raise RuntimeError(f"certify_irreducible: inconsistent "
                                   f"factor degrees of {m} modulo {p}")
        pattern = [d for d in range(1, n + 1) for _ in range(counts[d])]
        rest = n - sum(pattern)
        common &= _degree_sums(pattern + ([rest] if rest else []))
    if common != _degree_sums([n]):
        raise RuntimeError(f"certify_irreducible: the factor degrees of {m} "
                           f"modulo {cert.primes} do not rule out a factor")


def _mod_p_certificate(m: IntPoly) -> Optional[Irreducible]:
    """A "mod-p" or "degree-sets" certificate for a primitive m, or None.

    Looks at up to MOD_P_PRIMES usable primes, and gives up after as
    many unusable ones (m not squarefree over Q makes every prime so).
    """
    n = m.degree
    target = _degree_sums([n])
    common = -1
    used: list[int] = []
    skipped = 0
    for p in itertools.count(2):
        if len(used) == MOD_P_PRIMES or skipped == MOD_P_PRIMES:
            break
        if _prime_factors(p) != [p]:
            continue
        f = _reduce_mod_p(m, p)
        if f is None:
            skipped += 1
            continue
        used.append(p)
        pattern = _degree_pattern(f, p)
        if pattern == [n]:
            cert = Irreducible("mod-p", primes=(p,))
        else:
            common &= _degree_sums(pattern)
            if common != target:
                continue
            cert = Irreducible("degree-sets", primes=tuple(used))
        _recheck_mod_p(m, cert)
        return cert
    return None


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
    if m.degree >= MOD_P_MIN_DEGREE:
        return _mod_p_certificate(m) or _factor_search(m, caps)
    verdict = _factor_search(m, caps)
    if isinstance(verdict, Unknown):
        return _mod_p_certificate(m) or verdict
    return verdict
