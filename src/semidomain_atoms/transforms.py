"""Power substitution and the explicit realization family.

Two constructions that manufacture moduli with prescribed counts:

* ``transform_scale``: replacing the generator alpha by a k-th root
  beta (beta^k = alpha) replaces the modulus m(x) by m(x^k); when the
  substituted polynomial is still irreducible, both counts scale by
  exactly k, because decompositions transport along x -> x^k in both
  directions.

* ``family_polynomial``: a two-parameter family whose counts are
  (4k + c, 5k + c).  The c >= 1 members are written down directly; the
  c = 0 members are the power substitutions of the base member, which
  keeps the constant term at -2 and the family Eisenstein at 2 (hence
  irreducible) throughout.

Together these realize every pair (n, n+1) with n >= 4 — and those are
the only near-diagonal pairs possible: no modulus yields
(0,1), (1,2), (2,3), or (3,4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .irreducibility import (FactorSearchCaps, Reducible, Unknown,
                             certify_irreducible)
from .monoid import (AlgebraicNumberSpec, AtLeast, Count, EisensteinPrime,
                     Finite, PairResult, TransformScaling, analyze,
                     counts_equal, is_decided)
from .polycore import IntPoly, substitute_power
from .rootcount import isolate_positive_roots
from .signsearch import Caps

__all__ = [
    "FamilyParams",
    "family_polynomial",
    "TransformReducibleError",
    "TransformUncertifiedError",
    "transform_scale",
]


_FAMILY_BASE = IntPoly((-2, 4, -8, 1))  # x^3 - 8x^2 + 4x - 2


@dataclass(frozen=True, slots=True)
class FamilyParams:
    """Family member selector: stretch factor k >= 1, shift c >= 0."""

    k: int
    c: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.c < 0:
            raise ValueError("c must be >= 0")


def family_polynomial(params: FamilyParams) -> tuple[IntPoly, PairResult]:
    """The family member and its expected (strong, atom) counts.

    For c >= 1 the member is
        x^(3k+c) - 8 x^(2k+c) + 4 x^(k+c) - 2 x^c - 2,
    and for c = 0 it is the base member x^3 - 8x^2 + 4x - 2 with x
    replaced by x^k.  Every member is Eisenstein at 2.  The expected
    counts are (4k + c, 5k + c).
    """
    k, c = params.k, params.c
    if c == 0:
        m = substitute_power(_FAMILY_BASE, k)
    else:
        m = (IntPoly.monomial(1, 3 * k + c)
             + IntPoly.monomial(-8, 2 * k + c)
             + IntPoly.monomial(4, k + c)
             + IntPoly.monomial(-2, c)
             + IntPoly((-2,)))
    expected = PairResult(Finite(4 * k + c), Finite(5 * k + c),
                          (EisensteinPrime(2),))
    return m, expected


class TransformReducibleError(ValueError):
    """The substituted polynomial factors, so the scaling law is void."""

    def __init__(self, k: int, factor: IntPoly) -> None:
        super().__init__(
            f"substituted polynomial is reducible for k={k}; "
            f"factor {factor}")
        self.k = k
        self.factor = factor


class TransformUncertifiedError(ValueError):
    """Irreducibility of the substituted polynomial could not be settled."""

    def __init__(self, k: int, reason: str) -> None:
        super().__init__(
            f"could not certify irreducibility of the substituted "
            f"polynomial for k={k} ({reason}); analyze it directly with "
            "an assumed-irreducible spec if that is known")
        self.k = k
        self.reason = reason


def _scale_count(count: Count, k: int) -> Count:
    if isinstance(count, Finite):
        return Finite(k * count.value)
    if isinstance(count, AtLeast):
        return AtLeast(k * count.bound)
    return count


def transform_scale(spec: AlgebraicNumberSpec, k: int, caps: Caps = Caps(),
                    *, cross_check: bool = False,
                    factor_caps: Optional[FactorSearchCaps] = None
                    ) -> PairResult:
    """Counts for the k-th-root generator, via the scaling law.

    Analyzes the base modulus and multiplies both counts by k, after
    certifying that m(x^k) is irreducible (otherwise the law does not
    apply and this raises).  With ``cross_check`` the substituted
    polynomial is also analyzed directly and any disagreement on
    decided components raises RuntimeError.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    base = analyze(spec, caps)
    if k == 1:
        return base
    m = spec.minimal_polynomial
    mk = substitute_power(m, k)
    verdict = certify_irreducible(mk, factor_caps or FactorSearchCaps())
    if isinstance(verdict, Reducible):
        raise TransformReducibleError(k, verdict.factor)
    if isinstance(verdict, Unknown):
        raise TransformUncertifiedError(k, verdict.reason)
    cert = TransformScaling(k, m, base.strong, base.atoms)
    scaled = PairResult(_scale_count(base.strong, k),
                        _scale_count(base.atoms, k),
                        base.certificates + (cert,))
    if cross_check:
        roots = isolate_positive_roots(mk)
        spec_k = AlgebraicNumberSpec(mk, verdict, False,
                                     roots[-1] if roots else None)
        direct = analyze(spec_k, caps)
        for name, via_scaling, via_direct in (
                ("strong", scaled.strong, direct.strong),
                ("atoms", scaled.atoms, direct.atoms)):
            if (is_decided(via_scaling) and is_decided(via_direct)
                    and not counts_equal(via_scaling, via_direct)):
                raise RuntimeError(
                    f"scaling law and direct analysis disagree on {name} "
                    f"for k={k}: {via_scaling} vs {via_direct}")
    return scaled
