"""Counting atoms and strong atoms of the additive monoid of N0[alpha].

The monoid under study is the set of values p(alpha) for polynomials p
with nonnegative integer coefficients, where alpha is a positive real
algebraic number with primitive irreducible minimal polynomial m.  Its
isomorphism class depends only on m: two values p(alpha), q(alpha)
coincide exactly when m divides p - q, so every structural question
reduces to sign-pattern divisibility queries answered by the search
engine, plus exact positive-root counts.

``analyze`` computes the pair (number of strong atoms, number of atoms)
with certificates.  Every verdict is backed by one of:

* syntactic detectors (all-nonnegative coefficients; two-term shape;
  the complete degree-2 classifier; the free-monoid shape of the
  minimal pair),
* root-count arguments (two positive roots make every power an atom;
  three make every power a strong atom; a root above 1 makes the
  element 1 an atom),
* explicit multiplier witnesses found by the search engine,
* the leading-coefficient obstruction: a non-monic primitive modulus
  divides no monic integer polynomial, so no power ever decomposes.

Counts are Finite(n), Infinite(reason), or the honest AtLeast(n) when
search caps ran out before a verdict; cap exhaustion is never upgraded
to a verdict.  When both components are decided the strong count never
exceeds the atom count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .irreducibility import (FactorSearchCaps, Irreducible,
                             IrreducibilityResult, Reducible, Unknown,
                             certify_irreducible)
from .polycore import IntPoly, RatPoly, content_primitive, minimal_pair
from .rootcount import (RootInterval, SturmChain, isolate_positive_roots,
                        positive_root_count)
from .signsearch import (Caps, ExhaustedCaps, InfeasibleProven,
                         MonicAtomPattern, PatternKind, SingleNegativeAt,
                         StrongPrefixPattern, UnitRepresentation, Witness,
                         descartes_prune, integer_witness_search,
                         pattern_matches, rational_feasibility)

__all__ = [
    "UnsupportedInputError",
    "AlgebraicNumberSpec",
    "Finite",
    "Infinite",
    "AtLeast",
    "Count",
    "counts_equal",
    "PairResult",
    "MultiplierWitness",
    "DescartesBound",
    "BinomialRelation",
    "Degree2Case",
    "EisensteinPrime",
    "TransformScaling",
    "UfmMinimalPair",
    "AtomicityDetector",
    "Certificate",
    "Atomic",
    "NotAtomic",
    "UndecidedAtomicity",
    "atomicity_check",
    "ufm_check",
    "binomial_check",
    "classify_degree2",
    "count_atoms",
    "count_strong_atoms",
    "analyze",
    "verify_certificate",
]


class UnsupportedInputError(ValueError):
    """Input outside the analyzer's scope (or not a minimal polynomial)."""


# --------------------------------------------------------------------------
# Counts.


@dataclass(frozen=True, slots=True)
class Finite:
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, slots=True)
class Infinite:
    reason: str

    def __str__(self) -> str:
        return "infinite"


@dataclass(frozen=True, slots=True)
class AtLeast:
    """Search stopped at this lower bound; not a verdict."""

    bound: int

    def __str__(self) -> str:
        return f">={self.bound} (undecided)"


Count = Union[Finite, Infinite, AtLeast]


def is_decided(count: Count) -> bool:
    return isinstance(count, (Finite, Infinite))


def count_le(a: Count, b: Count) -> bool:
    """Partial order with Finite(n) < Infinite; only for decided counts."""
    if isinstance(a, Finite):
        return isinstance(b, Infinite) or a.value <= b.value
    return isinstance(b, Infinite)


def counts_equal(a: Count, b: Count) -> bool:
    """Same decided verdict, ignoring explanation strings."""
    if isinstance(a, Finite) and isinstance(b, Finite):
        return a.value == b.value
    return isinstance(a, Infinite) and isinstance(b, Infinite)


# --------------------------------------------------------------------------
# Certificates.


@dataclass(frozen=True, slots=True)
class MultiplierWitness:
    role: str  # "atom-decomposition" | "strong-prefix" | "non-strong-power"
    #          | "non-atomicity"
    multiplier: Union[IntPoly, RatPoly]
    product: Union[IntPoly, RatPoly]
    pattern: PatternKind


@dataclass(frozen=True, slots=True)
class DescartesBound:
    role: str
    positive_roots: int
    max_variations: int
    pattern: Optional[PatternKind] = None


@dataclass(frozen=True, slots=True)
class BinomialRelation:
    """m = b*x^n - a certifies a*alpha^k = b*alpha^(n+k) for every k."""

    a: int
    b: int
    n: int


@dataclass(frozen=True, slots=True)
class Degree2Case:
    case: int  # 1..4
    subcase: str


@dataclass(frozen=True, slots=True)
class EisensteinPrime:
    p: int


@dataclass(frozen=True, slots=True)
class TransformScaling:
    k: int
    base_polynomial: IntPoly
    base_strong: Count
    base_atoms: Count


@dataclass(frozen=True, slots=True)
class UfmMinimalPair:
    p: IntPoly
    q: IntPoly


@dataclass(frozen=True, slots=True)
class AtomicityDetector:
    kind: str  # "all-nonnegative-coefficients" | "constant-magnitude"
    #          | "two-positive-roots" | "root-exceeds-one" | "non-monic-lead"
    detail: str = ""


Certificate = Union[MultiplierWitness, DescartesBound, BinomialRelation,
                    Degree2Case, EisensteinPrime, TransformScaling,
                    UfmMinimalPair, AtomicityDetector]


@dataclass(frozen=True, slots=True)
class PairResult:
    strong: Count
    atoms: Count
    certificates: tuple[Certificate, ...] = ()

    def __post_init__(self) -> None:
        if (is_decided(self.strong) and is_decided(self.atoms)
                and not count_le(self.strong, self.atoms)):
            raise ValueError(
                f"strong count {self.strong} exceeds atom count {self.atoms}")

    @property
    def pair(self) -> tuple[Count, Count]:
        return (self.strong, self.atoms)

    @property
    def decided(self) -> bool:
        return is_decided(self.strong) and is_decided(self.atoms)


# --------------------------------------------------------------------------
# Input spec.


@dataclass(frozen=True, slots=True)
class AlgebraicNumberSpec:
    """A positive algebraic number, given by its minimal polynomial.

    The polynomial is stored primitive with positive leading
    coefficient; ``root`` is an isolating interval for the largest
    positive real root (None when there is no positive real root, in
    which case only the all-nonnegative detector applies).
    """

    minimal_polynomial: IntPoly
    irreducibility: Optional[IrreducibilityResult]
    assumed_irreducible: bool
    root: Optional[RootInterval]

    @classmethod
    def from_polynomial(cls, m: IntPoly, *, assume_irreducible: bool = False,
                        factor_caps: Optional[FactorSearchCaps] = None
                        ) -> "AlgebraicNumberSpec":
        if m.degree < 1:
            raise UnsupportedInputError("need a polynomial of degree >= 1")
        _, m = content_primitive(m)
        if m.lead < 0:
            m = -m
        if m.ord:
            raise UnsupportedInputError(
                "the polynomial vanishes at zero; zero is not a positive "
                "algebraic number")
        verdict: Optional[IrreducibilityResult] = None
        if not assume_irreducible:
            verdict = certify_irreducible(m, factor_caps or FactorSearchCaps())
            if isinstance(verdict, Reducible):
                raise UnsupportedInputError(
                    f"not a minimal polynomial: {m} has factor "
                    f"{verdict.factor}")
            if isinstance(verdict, Unknown):
                raise UnsupportedInputError(
                    f"could not certify irreducibility of {m} "
                    f"({verdict.reason}); pass assume_irreducible=True "
                    "to proceed")
        roots = isolate_positive_roots(m)
        return cls(m, verdict, assume_irreducible,
                   roots[-1] if roots else None)

    @property
    def degree(self) -> int:
        return self.minimal_polynomial.degree


# --------------------------------------------------------------------------
# Atomicity.


@dataclass(frozen=True, slots=True)
class Atomic:
    certificate: Certificate


@dataclass(frozen=True, slots=True)
class NotAtomic:
    witness: Witness


@dataclass(frozen=True, slots=True)
class UndecidedAtomicity:
    note: str


AtomicityVerdict = Union[Atomic, NotAtomic, UndecidedAtomicity]


def _has_root_above_one(m: IntPoly) -> bool:
    chain = SturmChain(m)
    bound = 1 + max(abs(c) for c in m.coeffs) // abs(m.lead) + 1
    return chain.count_in(Fraction(1), Fraction(bound)) > 0


def atomicity_check(spec: AlgebraicNumberSpec,
                    caps: Caps = Caps()) -> AtomicityVerdict:
    """Is every element a sum of atoms?  Equivalent to 1 being an atom.

    Atomic shortcuts, in order: |m(0)| >= 2 (a decomposition of 1 would
    make m(0) divide 1, by the integrality of the cofactor over a
    primitive modulus); two positive roots (no decomposition pattern
    fits under the Descartes bound); some root above 1 (the value of a
    nonempty sum of positive powers of that root exceeds 1).  Otherwise
    the engine searches for an explicit decomposition of 1; a witness
    proves NotAtomic, and anything short of a witness leaves the
    question undecided — within-cap infeasibility is not a proof.
    """
    m = spec.minimal_polynomial
    if abs(m.constant) >= 2:
        return Atomic(AtomicityDetector("constant-magnitude",
                                        detail=str(m.constant)))
    roots = positive_root_count(m)
    if roots >= 2:
        return Atomic(AtomicityDetector("two-positive-roots",
                                        detail=str(roots)))
    if _has_root_above_one(m):
        return Atomic(AtomicityDetector("root-exceeds-one"))
    res = integer_witness_search(
        m, UnitRepresentation(caps.max_witness_deg, unit_only=True), caps)
    if isinstance(res, Witness):
        return NotAtomic(res)
    note = (res.note if isinstance(res, (InfeasibleProven, ExhaustedCaps))
            else "")
    return UndecidedAtomicity(
        f"1 has no decomposition within caps, but no proof either ({note})")


# --------------------------------------------------------------------------
# Special-case detectors.


def _is_antimatter_shape(m: IntPoly) -> bool:
    """All coefficients nonnegative (with nonzero constant term).

    Such a modulus has no positive root, so the generator's powers admit
    integer relations with mixed signs on both sides; every element is
    invertible and there are no atoms at all.
    """
    return all(c >= 0 for c in m.coeffs) and m.constant != 0


def ufm_check(spec: AlgebraicNumberSpec) -> Optional[PairResult]:
    """Free-monoid detector: minimal pair (x^d, q).

    When the positive part of the minimal pair is the bare monomial
    x^d, the powers 1, alpha, ..., alpha^(d-1) generate freely: the
    monoid factors uniquely, and both counts equal d.
    """
    m = spec.minimal_polynomial
    mp = minimal_pair(m)
    d = m.degree
    if mp.p == IntPoly.monomial(1, d):
        cert = UfmMinimalPair(mp.p, mp.q)
        return PairResult(Finite(d), Finite(d), (cert,))
    return None


def binomial_check(spec: AlgebraicNumberSpec) -> Optional[PairResult]:
    """Two-term detector: m = b*x^n - a with coprime a, b >= 2.

    The relation a*alpha^k = b*alpha^(n+k) holds for every k, so no
    power is a strong atom; and the non-monic/non-unit shape blocks
    every decomposition pattern, so every power is an atom.
    """
    m = spec.minimal_polynomial
    if m.support != (0, m.degree):
        return None
    a, b, n = -m.constant, m.lead, m.degree
    if a < 2 or b < 2 or math.gcd(a, b) != 1:
        return None
    cert = BinomialRelation(a=a, b=b, n=n)
    return PairResult(Finite(0), Infinite("binomial"), (cert,))


_FORMS = ("AllPositive", "PosPosNeg", "PosNegPos", "PosNegNeg")


def _degree2_poly(a: int, b: int, c: int, form: str) -> IntPoly:
    sb = b if form in ("AllPositive", "PosPosNeg") else -b
    sc = c if form in ("AllPositive", "PosNegPos") else -c
    return IntPoly((sc, sb, a))


def classify_degree2(a: int, b: int, c: int, form: str) -> PairResult:
    """The complete classification for quadratic minimal polynomials.

    Forms (a, b, c all positive integers):
      AllPositive  a*x^2 + b*x + c  -> (0, 0): no atoms at all
      PosPosNeg    a*x^2 + b*x - c  -> c = 1: (0, 0);  c > 1: (0, inf)
      PosNegPos    a*x^2 - b*x + c  -> (1, inf)
      PosNegNeg    a*x^2 - b*x - c  -> a = 1: (2, 2);  a > 1: (2, inf)

    The input must be primitive and irreducible, with a positive real
    root where the case requires one (every form except AllPositive).
    """
    if form not in _FORMS:
        raise UnsupportedInputError(f"unknown form {form!r}")
    if min(a, b, c) < 1:
        raise UnsupportedInputError("coefficients must be positive integers")
    if math.gcd(a, math.gcd(b, c)) != 1:
        raise UnsupportedInputError("polynomial is not primitive")
    m = _degree2_poly(a, b, c, form)
    disc = b * b - 4 * a * c if form in ("AllPositive", "PosNegPos") \
        else b * b + 4 * a * c
    if disc >= 0 and math.isqrt(disc) ** 2 == disc:
        raise UnsupportedInputError(
            f"{m} is reducible (discriminant {disc} is a perfect square)")
    if form == "AllPositive":
        return PairResult(Finite(0), Finite(0),
                          (Degree2Case(1, "antimatter"),
                           AtomicityDetector("all-nonnegative-coefficients")))
    if form == "PosPosNeg":
        if c == 1:
            wit = MultiplierWitness(
                "non-atomicity", IntPoly.one(), m,
                UnitRepresentation(2, unit_only=True))
            return PairResult(Finite(0), Finite(0),
                              (Degree2Case(2, "c=1"), wit))
        wit = MultiplierWitness("non-strong-power", IntPoly.one(), m,
                                SingleNegativeAt(0, 2))
        return PairResult(Finite(0), Infinite("degree2-case2-c>1"),
                          (Degree2Case(2, "c>1"), wit))
    if form == "PosNegPos":
        if disc <= 0:
            raise UnsupportedInputError(
                f"{m} has no real root; a positive real root is required")
        prune = DescartesBound("strong-at-0", positive_root_count(m, True), 1,
                               UnitRepresentation(2))
        wit = MultiplierWitness("non-strong-power", IntPoly.one(), m,
                                SingleNegativeAt(1, 2))
        return PairResult(Finite(1), Infinite("two-positive-roots"),
                          (Degree2Case(3, ""), prune, wit))
    if a == 1:
        return PairResult(Finite(2), Finite(2),
                          (Degree2Case(4, "a=1"),
                           UfmMinimalPair(IntPoly.monomial(1, 2),
                                          IntPoly((c, b)))))
    return PairResult(Finite(2), Infinite("non-monic"),
                      (Degree2Case(4, "a>1"),
                       AtomicityDetector("non-monic-lead", detail=str(a))))


def _degree2_dispatch(spec: AlgebraicNumberSpec) -> Optional[PairResult]:
    m = spec.minimal_polynomial
    if m.degree != 2:
        return None
    c0, c1, c2 = m.coeffs
    if c0 == 0 or c1 == 0:
        return None
    if c1 > 0 and c0 > 0:
        form = "AllPositive"
    elif c1 > 0:
        form = "PosPosNeg"
    elif c0 > 0:
        form = "PosNegPos"
    else:
        form = "PosNegNeg"
    return classify_degree2(c2, abs(c1), abs(c0), form)


# --------------------------------------------------------------------------
# General counting.


def _non_atomicity(atomicity: NotAtomic, caps: Caps) -> MultiplierWitness:
    """The certificate that 1 decomposes, so that no power is an atom."""
    wit = atomicity.witness
    return MultiplierWitness("non-atomicity", wit.multiplier, wit.product,
                             UnitRepresentation(caps.max_witness_deg,
                                                unit_only=True))


def count_atoms(spec: AlgebraicNumberSpec, caps: Caps = Caps(),
                atomicity: Optional[AtomicityVerdict] = None
                ) -> tuple[Count, tuple[Certificate, ...]]:
    """How many powers of the generator are atoms.

    In an atomic monoid the atoms are exactly the powers below the first
    decomposable one, so the count is the smallest n admitting a monic
    decomposition pattern — searched from deg m upward (lower powers
    never decompose: a monic multiple of m has degree at least deg m).
    Infinite shortcut when no monic multiple can ever match: non-monic
    modulus (leading-coefficient obstruction) or two positive roots
    (Descartes obstruction).
    """
    m = spec.minimal_polynomial
    if atomicity is None:
        atomicity = atomicity_check(spec, caps)
    if isinstance(atomicity, NotAtomic):
        return Finite(0), (_non_atomicity(atomicity, caps),)
    if isinstance(atomicity, UndecidedAtomicity):
        return AtLeast(0), ()
    certs: tuple[Certificate, ...] = (atomicity.certificate,)
    if m.lead != 1:
        return Infinite("non-monic"), certs + (
            AtomicityDetector("non-monic-lead", detail=str(m.lead)),)
    roots = positive_root_count(m)
    if roots >= 2:
        return Infinite("two-positive-roots"), certs + (
            DescartesBound("all-powers-atoms",
                           positive_root_count(m, True), 1,
                           MonicAtomPattern(m.degree)),)
    for n in range(m.degree, caps.max_witness_deg + 1):
        res = integer_witness_search(m, MonicAtomPattern(n), caps)
        if isinstance(res, Witness):
            cert = MultiplierWitness("atom-decomposition", res.multiplier,
                                     res.product, MonicAtomPattern(n))
            return Finite(n), certs + (cert,)
        if isinstance(res, ExhaustedCaps):
            return AtLeast(n), certs
        if isinstance(res, InfeasibleProven) and res.scope == "all-degrees":
            break  # no later power decomposes either
    return AtLeast(caps.max_witness_deg + 1), certs


def count_strong_atoms(spec: AlgebraicNumberSpec, caps: Caps = Caps(),
                       atoms: Optional[Count] = None,
                       atomicity: Optional[AtomicityVerdict] = None
                       ) -> tuple[Count, tuple[Certificate, ...]]:
    """How many powers of the generator are strong atoms.

    The strong atoms are the powers below the first non-strong one.
    With three positive roots no single-negative pattern ever fits, so
    every power is strong.  When 1 decomposes no power is an atom, so
    none is a strong atom either.  When the atom count is finite the
    answer is the smallest product degree admitting the strong-prefix
    pattern (a rational question).  Otherwise powers are scanned
    upward: a power is certified strong by the Descartes prune and
    certified non-strong by an integer witness — the witness direction
    is only sound when every power is known to be an atom, which the
    Infinite atom verdict supplies.
    """
    m = spec.minimal_polynomial
    mult_roots = positive_root_count(m, with_multiplicity=True)
    if mult_roots >= 3:
        cert = DescartesBound("three-positive-conjugates", mult_roots, 2)
        return Infinite("three-positive-roots"), (cert,)
    if atomicity is None and (atoms is None or atoms == Finite(0)):
        atomicity = atomicity_check(spec, caps)
    if isinstance(atomicity, NotAtomic):
        return Finite(0), (_non_atomicity(atomicity, caps),)
    if atoms is None:
        atoms, _ = count_atoms(spec, caps, atomicity)
    if isinstance(atoms, Finite):
        for s in range(m.degree, atoms.value + 1):
            res = rational_feasibility(m, StrongPrefixPattern(s), caps)
            if isinstance(res, Witness):
                cert = MultiplierWitness("strong-prefix", res.multiplier,
                                         res.product, StrongPrefixPattern(s))
                return Finite(s), (cert,)
        return AtLeast(m.degree), ()
    certs: list[Certificate] = []
    for k in range(caps.max_witness_deg + 1):
        kind = SingleNegativeAt(k, caps.max_witness_deg)
        pruned = descartes_prune(m, kind)
        if pruned is not None:
            certs.append(DescartesBound(f"strong-at-{k}",
                                        pruned.positive_roots,
                                        pruned.max_variations, kind))
            continue
        if not isinstance(atoms, Infinite):
            return AtLeast(k), tuple(certs)
        res = integer_witness_search(m, kind, caps)
        if isinstance(res, Witness):
            cert = MultiplierWitness("non-strong-power", res.multiplier,
                                     res.product, kind)
            return Finite(k), tuple(certs) + (cert,)
        return AtLeast(k), tuple(certs)
    return AtLeast(caps.max_witness_deg + 1), tuple(certs)


def _require_certified(spec: AlgebraicNumberSpec) -> None:
    if spec.assumed_irreducible:
        return
    if not isinstance(spec.irreducibility, Irreducible):
        raise UnsupportedInputError(
            "spec carries no irreducibility certificate and is not flagged "
            "assumed-irreducible")


def analyze(spec: AlgebraicNumberSpec, caps: Caps = Caps(), *,
            general_only: bool = False) -> PairResult:
    """The full pipeline: (strong atom count, atom count) with certificates.

    Dispatch: all-nonnegative shape (no atoms); explicit decomposition
    of 1 (no atoms); the two-term and degree-2 and free-monoid
    detectors; three positive roots (everything strong); then the
    search-based general counters.  ``general_only`` skips the middle
    detectors so their answers can be cross-checked against the engine.
    """
    _require_certified(spec)
    m = spec.minimal_polynomial
    if _is_antimatter_shape(m):
        return PairResult(Finite(0), Finite(0),
                          (AtomicityDetector("all-nonnegative-coefficients"),))
    if spec.root is None:
        raise UnsupportedInputError(
            f"{m} has no positive real root and is not all-nonnegative; "
            "out of scope")
    atomicity = atomicity_check(spec, caps)
    if isinstance(atomicity, NotAtomic):
        return PairResult(Finite(0), Finite(0),
                          (_non_atomicity(atomicity, caps),))
    if not general_only:
        for detector in (binomial_check, _degree2_dispatch, ufm_check):
            hit = detector(spec)
            if hit is not None:
                return hit
    if positive_root_count(m, with_multiplicity=True) >= 3:
        cert = DescartesBound("three-positive-conjugates",
                              positive_root_count(m, True), 2)
        return PairResult(Infinite("three-positive-roots"),
                          Infinite("three-positive-roots"), (cert,))
    atoms, atom_certs = count_atoms(spec, caps, atomicity)
    strong, strong_certs = count_strong_atoms(spec, caps, atoms, atomicity)
    return PairResult(strong, atoms, atom_certs + strong_certs)


# --------------------------------------------------------------------------
# Certificate re-checking.


def verify_certificate(cert: Certificate, m: IntPoly) -> bool:
    """Re-check a certificate against the modulus from first principles.

    Uses only polynomial arithmetic and root counting; returns False
    rather than raising when a check fails.
    """
    if isinstance(cert, MultiplierWitness):
        product = cert.multiplier.to_rat() * m.to_rat()
        if product != cert.product.to_rat():
            return False
        return pattern_matches(cert.pattern, cert.product)
    if isinstance(cert, DescartesBound):
        if positive_root_count(m, with_multiplicity=True) != cert.positive_roots:
            return False
        if cert.pattern is not None:
            from .signsearch import pattern_max_variations
            if pattern_max_variations(cert.pattern) != cert.max_variations:
                return False
        return cert.max_variations < cert.positive_roots
    if isinstance(cert, BinomialRelation):
        shape = IntPoly.monomial(cert.b, cert.n) - IntPoly((cert.a,))
        return (m == shape and cert.a >= 2 and cert.b >= 2
                and math.gcd(cert.a, cert.b) == 1)
    if isinstance(cert, Degree2Case):
        if m.degree != 2:
            return False
        c0, c1, c2 = m.coeffs
        if c0 == 0 or c1 == 0:
            return False
        a, b, c = c2, abs(c1), abs(c0)
        disc = b * b - 4 * a * c if c0 > 0 else b * b + 4 * a * c
        if disc >= 0 and math.isqrt(disc) ** 2 == disc:
            return False
        if cert.case == 1:
            return c1 > 0 and c0 > 0
        if cert.case == 2:
            return (c1 > 0 and c0 < 0
                    and ((cert.subcase == "c=1") == (c == 1)))
        if cert.case == 3:
            return c1 < 0 and c0 > 0 and disc > 0
        if cert.case == 4:
            return (c1 < 0 and c0 < 0
                    and ((cert.subcase == "a=1") == (a == 1)))
        return False
    if isinstance(cert, EisensteinPrime):
        p = cert.p
        if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
            return False
        return (m.lead % p != 0 and m.constant % (p * p) != 0
                and all(c % p == 0 for c in m.coeffs[:-1]))
    if isinstance(cert, TransformScaling):
        from .polycore import substitute_power
        return cert.k >= 1 and substitute_power(cert.base_polynomial,
                                                cert.k) == m
    if isinstance(cert, UfmMinimalPair):
        mp = minimal_pair(m)
        return (mp.p == cert.p and mp.q == cert.q
                and cert.p == IntPoly.monomial(1, m.degree))
    if isinstance(cert, AtomicityDetector):
        if cert.kind == "all-nonnegative-coefficients":
            return _is_antimatter_shape(m)
        if cert.kind == "constant-magnitude":
            return abs(m.constant) >= 2
        if cert.kind == "two-positive-roots":
            return positive_root_count(m) >= 2
        if cert.kind == "root-exceeds-one":
            return _has_root_above_one(m)
        if cert.kind == "non-monic-lead":
            return abs(m.lead) != 1
        return False
    raise TypeError(f"unknown certificate: {cert!r}")
