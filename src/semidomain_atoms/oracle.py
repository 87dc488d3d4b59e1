"""Brute-force enumeration oracle for small instances.

An independent second route to the same questions the search engine
answers, used to cross-check it.  Elements of the monoid generated by
the nonnegative-coefficient values of a positive algebraic number are
represented exactly: reducing a polynomial modulo the (monic) modulus
gives integer coordinates in the power basis 1, alpha, ..., alpha^(d-1),
and two polynomials name the same element exactly when their reduced
coordinates agree.  That holds only when the modulus is the minimal
polynomial of alpha: modulo a proper multiple of it, distinct
coordinates can name one value (alpha = 2 is a root of x^2 - x - 2,
and 2 = alpha there although (2, 0) != (0, 1)).  So the oracle accepts
a monic modulus only once ``certify_irreducible`` proves it irreducible,
and raises ``ValueError`` naming the factor or the reason otherwise.

``enumerate_factorizations`` lists every way to write a target element
as a multiset of generator powers (bounded exponent, bounded multiset
size), by exact depth-first search over coordinate vectors.  Real-value
interval arithmetic — powers bracketed with exact rational endpoints
from a refined isolating interval — only prunes branches that provably
cannot reach the target; it never decides membership, so the pruned and
unpruned routes return identical lists.

``strong_check_oracle`` uses that enumeration to test whether small
multiples of a power admit any representation other than the trivial
one.  The modulus check, the root isolation, the power coordinates and
the value brackets depend on the modulus and the alphabet but not on
the multiple, so one call builds them once and searches every n over
them.  Interpreting a hit as a genuine second factorization is only
valid when the powers it uses are atoms; callers restrict the power
alphabet accordingly via ``allowed_powers``.  The CLI's ``oracle
--verify`` re-checks a ``NonStrong`` answer apart from the search: the
coordinates of its powers, from ``reduce_element``, must sum to those
of n * alpha^k, and it must not be n copies of alpha^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .irreducibility import Irreducible, Reducible, certify_irreducible
from .polycore import IntPoly, reduce_mod
from .rootcount import RootInterval, isolate_positive_roots

__all__ = [
    "OracleCaps",
    "MonoidElement",
    "FactorizationMultiset",
    "reduce_element",
    "enumerate_factorizations",
    "StrongUpTo",
    "NonStrong",
    "strong_check_oracle",
]


@dataclass(frozen=True, slots=True)
class OracleCaps:
    """Enumeration bounds: largest exponent and largest multiset size."""

    max_power: int = 8
    max_total: int = 12

    def __post_init__(self) -> None:
        if self.max_power < 0 or self.max_total < 1:
            raise ValueError("need max_power >= 0 and max_total >= 1")


@dataclass(frozen=True, slots=True)
class MonoidElement:
    """Exact power-basis coordinates of an element (modulus implied)."""

    coords: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class FactorizationMultiset:
    """A multiset of generator exponents, stored ascending."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if tuple(sorted(self.exponents)) != self.exponents:
            raise ValueError("exponents must be sorted ascending")

    @property
    def size(self) -> int:
        return len(self.exponents)


def _require_monic(m: IntPoly) -> None:
    if m.degree < 1 or m.lead != 1:
        raise ValueError(
            "the oracle requires a monic modulus of degree >= 1 "
            "(power-basis coordinates are only integral then)")


def reduce_element(p: IntPoly, m: IntPoly) -> MonoidElement:
    """Canonical coordinates of p's value in the power basis."""
    _require_monic(m)
    cs = reduce_mod(p, m).to_int().coeffs
    return MonoidElement(cs + (0,) * (m.degree - len(cs)))


def _require_irreducible(m: IntPoly) -> None:
    verdict = certify_irreducible(m)
    if isinstance(verdict, Irreducible):
        return
    if isinstance(verdict, Reducible):
        why = f"{m} has the factor {verdict.factor}"
    else:
        why = f"{m} is not certified irreducible ({verdict.reason})"
    raise ValueError(
        f"the oracle requires an irreducible modulus: {why} "
        "(power-basis coordinates name elements only modulo the minimal "
        "polynomial)")


class _Context:
    """Deduplicated power alphabet with disjoint exact value brackets."""

    def __init__(self, m: IntPoly, max_power: int,
                 allowed_powers: Optional[Iterable[int]]) -> None:
        allowed = set(range(max_power + 1))
        if allowed_powers is not None:
            requested = list(allowed_powers)
            for e in requested:
                if (isinstance(e, bool) or not isinstance(e, int)
                        or e not in allowed):
                    raise ValueError(f"allowed power {e!r} is not an "
                                     f"integer in [0, {max_power}]")
            allowed = set(requested)
        _require_monic(m)
        _require_irreducible(m)
        self.m = m
        self.dim = m.degree
        roots = isolate_positive_roots(m)
        if not roots:
            raise ValueError(f"{m} has no positive real root")
        coords: dict[int, tuple[int, ...]] = {}
        cur = IntPoly.one()
        for e in range(max_power + 1):
            if e in allowed:
                coords[e] = reduce_element(cur, m).coords
            cur = cur.shifted(1)
        # Powers with equal coordinates are the same element; keep the
        # smallest exponent for each.
        smallest: dict[tuple[int, ...], int] = {}
        for e in sorted(coords):
            smallest.setdefault(coords[e], e)
        self.exponents = sorted(smallest.values())
        self.coords = {e: coords[e] for e in self.exponents}
        self._bracket_powers(roots[-1])

    def _bracket_powers(self, interval: RootInterval) -> None:
        """Refine until power brackets are pairwise disjoint.

        Distinct elements have distinct real values (the value map is
        injective on elements, as m is irreducible), so refinement
        terminates.
        """
        lo, hi = interval.lo, interval.hi
        for _ in range(2000):
            if lo > 0 and (hi - lo) * (1 << 20) < lo:
                brackets = {e: (lo ** e, hi ** e) for e in self.exponents}
                order = sorted(self.exponents,
                               key=lambda e: brackets[e][1], reverse=True)
                if all(brackets[order[i]][0] > brackets[order[i + 1]][1]
                       for i in range(len(order) - 1)):
                    self.order = order
                    self.brackets = brackets
                    self.basis = [(lo ** i, hi ** i) for i in range(self.dim)]
                    return
            interval = interval.refined(interval.width / 2)
            lo, hi = interval.lo, interval.hi
        raise RuntimeError(
            "could not separate power values")  # pragma: no cover

    def value_bounds(self, coords: Sequence[int]) -> tuple[Fraction, Fraction]:
        lo = Fraction(0)
        hi = Fraction(0)
        for c, (blo, bhi) in zip(coords, self.basis):
            if c >= 0:
                lo += c * blo
                hi += c * bhi
            else:
                lo += c * bhi
                hi += c * blo
        return lo, hi


def enumerate_factorizations(target: Union[MonoidElement, IntPoly],
                             m: IntPoly, caps: OracleCaps = OracleCaps(),
                             *, use_pruning: bool = True,
                             allowed_powers: Optional[Iterable[int]] = None
                             ) -> tuple[FactorizationMultiset, ...]:
    """All multisets of powers (from the allowed alphabet, at most
    max_total of them) whose values sum to the target element.

    Exact: a multiset is reported iff its coordinate sum equals the
    target's coordinates.  With pruning, branches whose value brackets
    exclude the target are skipped; this cannot change the result set.
    Output is canonical: exponent tuples ascending, the list sorted.
    """
    ctx = _Context(m, caps.max_power, allowed_powers)
    if isinstance(target, IntPoly):
        target = reduce_element(target, m)
    if len(target.coords) != ctx.dim:
        raise ValueError(
            f"target has {len(target.coords)} coordinates; expected "
            f"{ctx.dim}")
    return _search(ctx, target.coords, caps.max_total, use_pruning)


def _search(ctx: _Context, target: tuple[int, ...], max_total: int,
            use_pruning: bool) -> tuple[FactorizationMultiset, ...]:
    """Depth-first search for ``enumerate_factorizations`` over a built
    context; target is a coordinate vector of the context's dimension."""
    order = ctx.order
    found: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def go(idx: int, rem: tuple[int, ...], budget: int) -> None:
        if idx == len(order):
            if not any(rem):
                found.append(tuple(sorted(chosen)))
            return
        e = order[idx]
        c_max = budget
        if use_pruning:
            rlo, rhi = ctx.value_bounds(rem)
            if rhi < 0:
                return
            # order is descending by value, so e is the largest power
            # still available; budget copies of it bound the reachable sum.
            if budget * ctx.brackets[e][1] < rlo:
                return
            c_max = min(c_max, int(rhi // ctx.brackets[e][0]))
        pc = ctx.coords[e]
        go(idx + 1, rem, budget)
        cur = rem
        pushed = 0
        for c in range(1, c_max + 1):
            cur = tuple(r - p for r, p in zip(cur, pc))
            chosen.append(e)
            pushed += 1
            go(idx + 1, cur, budget - c)
        if pushed:
            del chosen[-pushed:]

    go(0, target, max_total)
    return tuple(FactorizationMultiset(f) for f in sorted(found))


@dataclass(frozen=True, slots=True)
class StrongUpTo:
    """No alternative representation found for any multiple up to n_max."""

    n_max: int


@dataclass(frozen=True, slots=True)
class NonStrong:
    """Some multiple of the power has a second representation."""

    n: int
    factorization: FactorizationMultiset


def strong_check_oracle(k: int, m: IntPoly, n_max: int,
                        caps: OracleCaps = OracleCaps(), *,
                        use_pruning: bool = True,
                        allowed_powers: Optional[Iterable[int]] = None
                        ) -> Union[StrongUpTo, NonStrong]:
    """Search n = 2..n_max for a representation of n * alpha^k other
    than n copies of alpha^k, over the allowed power alphabet.

    Only meaningful as a strong-atom refutation when every allowed
    power is an atom; the caller is responsible for that restriction.
    """
    if k < 0 or k > caps.max_power:
        raise ValueError("need 0 <= k <= caps.max_power")
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    ctx = _Context(m, caps.max_power, allowed_powers)
    # Reduction modulo m is linear, so n * alpha^k has n times the
    # coordinates of alpha^k.
    base = reduce_element(IntPoly.monomial(1, k), m).coords
    for n in range(2, n_max + 1):
        facts = _search(ctx, tuple(n * c for c in base), caps.max_total,
                        use_pruning)
        trivial = tuple([k] * n)
        for f in facts:
            if f.exponents != trivial:
                return NonStrong(n, f)
    return StrongUpTo(n_max)
