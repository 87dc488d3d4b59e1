"""Search for multiples of a fixed polynomial with prescribed coefficient signs.

For the minimal polynomial m of a positive algebraic number, an additive
relation among powers of that number is exactly an integer polynomial
multiple of m whose coefficient signs follow a fixed pattern.  Deciding
whether such a multiple exists is therefore the engine behind counting
atoms and strong atoms: each pattern kind below encodes one question
about decomposability of a power.

Pattern kinds (h denotes the sought product, a multiple of m):

* ``MonicAtomPattern(n)`` — h = x^n - (nonnegative integer terms of lower
  degree).  Existence means the n-th power decomposes; m must be monic.
* ``StrongPrefixPattern(s)`` — h of degree exactly s whose leading
  coefficient is the only negative one, rational coefficients allowed.
  Stored witnesses are normalized to the equivalent positive-leading
  form (lead > 0, every other coefficient <= 0).
* ``SingleNegativeAt(k, D)`` — h of degree <= D with a negative
  coefficient exactly at position k and nonnegative ones elsewhere.
  Existence means some positive multiple of the k-th power decomposes
  into other powers.
* ``UnitRepresentation(D)`` — the k = 0 case of the above; with
  ``unit_only=True`` the constant is pinned to exactly -1 and the other
  coefficients must sum to at least 2, i.e. the element 1 itself
  decomposes nontrivially.

Decision pipeline per query, cheapest proof first:

1. A Descartes bound: any h matching the pattern has at most 1 or 2
   coefficient sign variations, so if m has more positive roots counted
   with multiplicity, no multiple can match, at any degree.
2. For ``MonicAtomPattern``, the root box: if m has a root beta in
   (0, 1), the relation beta^n = sum_{j<n} y_j beta^j with integers
   y_j >= 0 is impossible (any y_j >= 1 already exceeds beta^n), again
   at every degree.
3. The rational relaxation in power-basis residue coordinates
   r_j = x^j mod m, where h is a multiple of m exactly when
   sum_j h_j r_j = 0: an exact cone-membership LP with deg m rows
   (when each kind asks it is set out below), and for the rational
   kinds the witness from the same simplex: ``lexicographic_point``,
   with no forms for a bare cone test, which re-checks every answer,
   an empty cone by its Farkas vector.
4. For what survives, Fourier-Motzkin elimination over the
   multiplier's coefficients and, for the kinds demanding genuinely
   integer coefficients, a depth-first sweep of integer points inside
   the exact feasible region.

``SingleNegativeAt`` and plain ``UnitRepresentation`` are scale-free:
the defining constraints survive multiplication by positive rationals,
so a rational solution scales to an integer one by clearing
denominators, and rational infeasibility already settles the integer
question for those kinds.  A matching product of degree <= D exists
exactly when r_k lies in the cone of the r_j with j <= D, j != k.  That
cone grows with D: the lowest probed degree is asked first, then the
top one, which proves infeasibility for every probed degree at once,
and a bisection finds the lowest feasible degree.  The witness is the
lexicographically smallest multiplier of that degree: with
h = f * m, each f_i is affine in the residue weights h_j, and
``lexicographic_point`` minimizes f_0, f_1, ... in turn on the cone
LP's own tableau.  That is the Fourier-Motzkin point of the degree's
system in the multiplier's coefficients, the witness an ascending
per-degree elimination scan would report, found without eliminating.
At the lowest probed degree the question is that lexicographic LP
itself, whose phase 1 is the cone test, so a probe feasible there runs
phase 1 once.

``StrongPrefixPattern(s)`` is the system with k = D = s: r_s against
the cone of r_0..r_(s-1).  When that LP's deg m rows are fewer than
the s - deg m + 1 unknowns elimination would handle, the witness comes
from ``lexicographic_point`` the same way; smaller probes stay with
elimination, which is faster there.

The integer-pinned kinds use the same residues to drop degrees before
eliminating.  The unit-only kind's relaxation is plain
``UnitRepresentation`` (no integrality, no sum >= 2 row), so no degree
below its lowest feasible one is swept.  A monic-atom degree n is
dropped when r_n is outside the cone of r_0..r_(n-1), asked only when
that LP's deg m rows are fewer than the n - deg m + 1 unknowns
elimination would handle.  Each surviving degree builds one
Fourier-Motzkin projection chain, and the integer sweep reads every
node's range of the next coordinate off it, enumerating that range in
ascending order (so the reported witness is the one with the
lexicographically smallest multiplier coefficient vector).  The chain
skips, by Chernikov's rule, every combination of more input rows than
one plus the number of unknowns eliminated so far: the rows kept imply
it, so each entry is still the exact projection, and the rule is what
keeps these chains small (a monic-atom probe of a quartic at n = 9
peaks at 16 rows, where keeping every combination reached 128,835).
A sweep that exhausts the finite region without clamping is a proof of
integer infeasibility for the queried degrees; sweeps cut short by caps
report ``ExhaustedCaps`` and never a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from ._exactlp import (Row, coordinate_range, feasible_point,
                       lexicographic_point, projection_chain)
from .polycore import IntPoly, RatPoly
from .rootcount import SturmChain, positive_root_count, squarefree_part

__all__ = [
    "Caps",
    "MonicAtomPattern",
    "StrongPrefixPattern",
    "SingleNegativeAt",
    "UnitRepresentation",
    "Witness",
    "InfeasibleProven",
    "ExhaustedCaps",
    "pattern_max_variations",
    "pattern_matches",
    "descartes_prune",
    "rational_feasibility",
    "integer_witness_search",
]


@dataclass(frozen=True, slots=True)
class Caps:
    """Search budget: witness degree, coefficient magnitude, sweep nodes."""

    max_witness_deg: int = 24
    max_coeff: int = 10**6
    max_nodes: int = 100_000

    def __post_init__(self) -> None:
        if self.max_witness_deg < 1:
            raise ValueError("max_witness_deg must be >= 1")
        if self.max_coeff < 0:
            raise ValueError("max_coeff must be >= 0")
        if self.max_nodes < 0:
            raise ValueError("max_nodes must be >= 0")


@dataclass(frozen=True, slots=True)
class MonicAtomPattern:
    power: int  # n: the product is monic of degree exactly n

    def __post_init__(self) -> None:
        if self.power < 1:
            raise ValueError("power must be >= 1")


@dataclass(frozen=True, slots=True)
class StrongPrefixPattern:
    degree: int  # s: the product has degree exactly s

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be >= 1")


@dataclass(frozen=True, slots=True)
class SingleNegativeAt:
    power: int  # k: position of the unique negative coefficient
    degree_cap: int  # D: product degree at most D

    def __post_init__(self) -> None:
        if self.power < 0:
            raise ValueError("power must be >= 0")
        if self.degree_cap < self.power:
            raise ValueError("degree cap below the negative position")


@dataclass(frozen=True, slots=True)
class UnitRepresentation:
    degree_cap: int
    unit_only: bool = False  # pin the constant to exactly -1

    def __post_init__(self) -> None:
        if self.degree_cap < 1:
            raise ValueError("degree cap must be >= 1")


PatternKind = Union[MonicAtomPattern, StrongPrefixPattern, SingleNegativeAt,
                    UnitRepresentation]


@dataclass(frozen=True, slots=True)
class Witness:
    """A verified multiplier/product pair: product == multiplier * modulus."""

    multiplier: Union[IntPoly, RatPoly]
    product: Union[IntPoly, RatPoly]


@dataclass(frozen=True, slots=True)
class InfeasibleProven:
    """No pattern-matching multiple exists.

    reason "descartes": the pattern admits fewer sign variations than
    the modulus has positive roots — valid at every degree
    (scope "all-degrees").  reason "root-box": a monic-atom pattern
    against a modulus with a root in (0, 1), whose powers no sum of
    lower powers with nonnegative integer coefficients can reach —
    also scope "all-degrees".  reason "linear": the exact feasible
    region for the queried degrees contains no solution (rationally
    empty, or swept completely without an integer point) — scope
    "query".
    """

    reason: str  # "descartes" | "root-box" | "linear"
    scope: str  # "all-degrees" | "query"
    positive_roots: Optional[int] = None
    max_variations: Optional[int] = None
    note: str = ""


@dataclass(frozen=True, slots=True)
class ExhaustedCaps:
    note: str = ""


WitnessResult = Union[Witness, InfeasibleProven, ExhaustedCaps]


def pattern_max_variations(kind: PatternKind) -> int:
    """Most coefficient sign variations any pattern-matching product can have.

    Single block of one sign then the distinguished coefficient gives 1;
    an interior negative position splits the nonnegatives, giving 2.
    """
    if isinstance(kind, SingleNegativeAt):
        return 1 if kind.power == 0 else 2
    return 1


def pattern_matches(kind: PatternKind, product) -> bool:
    """Exact sign check of a candidate product against the pattern."""
    cs = product.coeffs
    if not cs:
        return False
    deg = len(cs) - 1
    if isinstance(kind, MonicAtomPattern):
        return (deg == kind.power and cs[-1] == 1
                and all(c <= 0 for c in cs[:-1]))
    if isinstance(kind, StrongPrefixPattern):
        return (deg == kind.degree and cs[-1] > 0
                and all(c <= 0 for c in cs[:-1]))
    if isinstance(kind, SingleNegativeAt):
        k = kind.power
        return (deg <= kind.degree_cap and k <= deg and cs[k] <= -1
                and all(c >= 0 for i, c in enumerate(cs) if i != k))
    if isinstance(kind, UnitRepresentation):
        ok = (deg <= kind.degree_cap and cs[0] <= -1
              and all(c >= 0 for c in cs[1:]))
        if ok and kind.unit_only:
            ok = cs[0] == -1 and sum(cs[1:]) >= 2
        return ok
    raise TypeError(f"unknown pattern kind: {kind!r}")


def descartes_prune(m: IntPoly, kind: PatternKind
                    ) -> Optional[InfeasibleProven]:
    """Infeasibility at every degree, from the rule of signs.

    Any product h is a multiple of m, so h inherits every positive root
    of m (with multiplicity), and sign variations of h bound those roots
    from above.  When the pattern's variation ceiling is below m's
    positive-root count, no matching multiple exists, period.  Absent
    when m has no positive root (nothing to inherit).
    """
    roots = positive_root_count(m, with_multiplicity=True)
    if roots == 0:
        return None
    ceiling = pattern_max_variations(kind)
    if ceiling < roots:
        return InfeasibleProven("descartes", "all-degrees",
                                positive_roots=roots, max_variations=ceiling)
    return None


# --------------------------------------------------------------------------
# Linear system assembly.


def _coeff_form(m: IntPoly, t: int, j: int) -> tuple[Fraction, ...]:
    """Coefficient j of f*m as a linear form in f_0..f_t."""
    mc = m.coeffs
    return tuple(Fraction(mc[j - v]) if 0 <= j - v < len(mc) else Fraction(0)
                 for v in range(t + 1))


def _pattern_rows(m: IntPoly, kind: PatternKind, prod_deg: int) -> list[Row]:
    """Inequality rows (a.f <= b) over multiplier coefficients f_0..f_t."""
    d = m.degree
    t = prod_deg - d
    rows: list[Row] = []

    def le(j, bound):  # h_j <= bound
        rows.append((_coeff_form(m, t, j), Fraction(bound)))

    def ge(j, bound):  # h_j >= bound
        a = _coeff_form(m, t, j)
        rows.append((tuple(-c for c in a), Fraction(-bound)))

    if isinstance(kind, MonicAtomPattern):
        le(prod_deg, 1)
        ge(prod_deg, 1)
        for j in range(prod_deg):
            le(j, 0)
    elif isinstance(kind, StrongPrefixPattern):
        le(prod_deg, -1)
        ge(prod_deg, -1)
        for j in range(prod_deg):
            ge(j, 0)
    elif isinstance(kind, (SingleNegativeAt, UnitRepresentation)):
        k = kind.power if isinstance(kind, SingleNegativeAt) else 0
        le(k, -1)
        ge(k, -1)
        for j in range(prod_deg + 1):
            if j != k:
                ge(j, 0)
        if isinstance(kind, UnitRepresentation) and kind.unit_only:
            # The nonconstant coefficients must sum to at least 2: a sum
            # of 1 is the relation "1 equals a bare power", which only
            # the excluded modulus x - 1 admits, not a decomposition.
            acc = [Fraction(0)] * (t + 1)
            for j in range(1, prod_deg + 1):
                for v, c in enumerate(_coeff_form(m, t, j)):
                    acc[v] += c
            rows.append((tuple(-c for c in acc), Fraction(-2)))
    else:
        raise TypeError(f"unknown pattern kind: {kind!r}")
    return rows


def _probe_degrees(m: IntPoly, kind: PatternKind, caps: Caps) -> list[int]:
    """Product degrees to probe, ascending; [] when none is admissible."""
    d = m.degree
    if isinstance(kind, MonicAtomPattern):
        return [kind.power] if kind.power >= d else []
    if isinstance(kind, StrongPrefixPattern):
        return [kind.degree] if kind.degree >= d else []
    k = kind.power if isinstance(kind, SingleNegativeAt) else 0
    top = min(kind.degree_cap, caps.max_witness_deg)
    return list(range(max(d, k), top + 1))


def _validate(m: IntPoly, kind: PatternKind) -> None:
    if m.degree < 1:
        raise ValueError("modulus must have degree >= 1")
    if m.ord:
        raise ValueError("modulus must not vanish at zero")
    if isinstance(kind, MonicAtomPattern) and m.lead != 1:
        raise ValueError("monic pattern needs a monic modulus")


def _checked_witness(kind: PatternKind, multiplier, product) -> Witness:
    """The witness, after an exact re-check of the product's signs."""
    if not pattern_matches(kind, product):
        raise RuntimeError(
            f"witness check failed: {product} does not match {kind!r}")
    return Witness(multiplier, product)


def _canonical_integer_witness(kind: PatternKind, f: RatPoly,
                               m: IntPoly) -> Witness:
    """Scale a rational solution to the primitive integer witness.

    Valid for the scale-free kinds plus StrongPrefixPattern, whose
    witness is flipped to the positive-leading normal form first.
    """
    if isinstance(kind, StrongPrefixPattern):
        f = -f
    _, fi = f.primitive_part()
    return _checked_witness(kind, fi, fi * m)


def _residues(m: IntPoly, top: int) -> list[tuple[Fraction, ...]]:
    """r_j = x^j mod m in the basis 1, x, ..., x^(d-1), for j = 0..top.

    Each residue is x times the previous one, with x^d replaced by
    -(m_0 + ... + m_(d-1) x^(d-1)) / lead(m).
    """
    d = m.degree
    tail = [Fraction(c, m.lead) for c in m.coeffs[:-1]]
    r = [Fraction(int(i == 0)) for i in range(d)]
    out = [tuple(r)]
    for _ in range(top):
        over = r[-1]
        r = [Fraction(0)] + r[:-1]
        if over:
            r = [v - over * c for v, c in zip(r, tail)]
        out.append(tuple(r))
    return out


def _is_scale_free(kind: PatternKind) -> bool:
    return isinstance(kind, SingleNegativeAt) or (
        isinstance(kind, UnitRepresentation) and not kind.unit_only)


def _cone_reach(res: list[tuple[Fraction, ...]], k: int, top: int
                ) -> Optional[int]:
    """Highest degree a combination of the r_j, j <= top, j != k, equal
    to r_k uses; None when r_k is outside their cone."""
    js = [j for j in range(top + 1) if j != k]
    found = lexicographic_point([res[j] for j in js], res[k], ())
    if found is None:
        return None
    return max((j for j, wj in zip(js, found[0]) if wj), default=0)


def _lowest_cone_degree(m: IntPoly, k: int,
                        degrees: list[int]) -> Optional[int]:
    """Lowest probed degree D at which r_k lies in the cone of the r_j,
    j <= D, j != k; None when it lies in none of them.

    The lowest degree is asked first, since small feasible probes are
    settled there with few generators.
    """
    if not degrees:
        return None
    if _cone_reach(_residues(m, degrees[0]), k, degrees[0]) is not None:
        return degrees[0]
    return _lowest_cone_degree_above(m, k, degrees)


def _lowest_cone_degree_above(m: IntPoly, k: int,
                              degrees: list[int]) -> Optional[int]:
    """``_lowest_cone_degree`` when r_k is known to be outside the cone
    at ``degrees[0]``.

    ``degrees`` is consecutive and the cone only grows with D, so one
    question at the top degree settles infeasibility for every degree
    at once, and a bisection finds the lowest feasible one.
    """
    if len(degrees) == 1:
        return None
    res = _residues(m, degrees[-1])
    reach = _cone_reach(res, k, degrees[-1])
    if reach is None:
        return None
    # degrees[0] is outside, so the combination found reaches above it
    # and bounds the answer.
    lo, hi = 1, reach - degrees[0]
    while lo < hi:
        mid = (lo + hi) // 2
        if _cone_reach(res, k, degrees[mid]) is None:
            lo = mid + 1
        else:
            hi = mid
    return degrees[lo]


def _lexicographic_multiplier(m: IntPoly, k: int, top: int
                              ) -> Optional[tuple[Fraction, ...]]:
    """The lexicographically smallest multiplier f_0..f_(top - deg m) of
    a product of degree <= top with -1 at position k and nonnegative
    coefficients elsewhere; None when there is none.

    The product's coefficients are the weights of r_j, j <= top,
    j != k, in a combination equal to r_k, and dividing by m from the
    constant term makes each multiplier coefficient affine in them:
    f_i = (h_i - sum_{l=1..min(i, deg m)} m_l f_(i-l)) / m_0.  Taking
    the forms' lexicographic minimum is the walk ``feasible_point``
    makes over the multiplier's coefficients, so the point is the same.
    """
    d, mc = m.degree, m.coeffs
    res = _residues(m, top)
    js = [j for j in range(top + 1) if j != k]
    # fs[i][j]: the coefficient of h_j in f_i.
    fs: list[list[Fraction]] = []
    for i in range(top - d + 1):
        f = [Fraction(int(j == i)) for j in range(top + 1)]
        for lag in range(1, min(i, d) + 1):
            if mc[lag]:
                f = [a - mc[lag] * b for a, b in zip(f, fs[i - lag])]
        fs.append([a / mc[0] for a in f])
    forms = [(tuple(f[j] for j in js), -f[k]) for f in fs]
    found = lexicographic_point([res[j] for j in js], res[k], forms)
    return None if found is None else found[1]


def _scale_free_feasibility(m: IntPoly, kind: PatternKind,
                            degrees: list[int]) -> WitnessResult:
    """The scale-free kinds as cone questions in residue coordinates.

    A product of degree <= D with -1 at position k and nonnegative
    coefficients elsewhere exists exactly when r_k lies in the cone of
    r_j, j <= D, j != k.  At the lowest such D, the lexicographically
    smallest multiplier is the witness an ascending per-degree
    elimination scan would report.
    """
    k = kind.power if isinstance(kind, SingleNegativeAt) else 0
    infeasible = InfeasibleProven(
        "linear", "query",
        note=f"rationally infeasible at product degrees {degrees!r}")
    if not degrees:
        return infeasible
    # The lowest degree's lexicographic LP is its cone test too: its
    # phase 1 comes out infeasible exactly when r_k is outside the cone.
    f = _lexicographic_multiplier(m, k, degrees[0])
    if f is None:
        prod_deg = _lowest_cone_degree_above(m, k, degrees)
        if prod_deg is None:
            return infeasible
        f = _lexicographic_multiplier(m, k, prod_deg)
    return _canonical_integer_witness(kind, RatPoly(f), m)


def rational_feasibility(m: IntPoly, kind: PatternKind,
                         caps: Caps = Caps()) -> WitnessResult:
    """Exact feasibility of the pattern with rational coefficients.

    Returns the witness at the lowest feasible admissible product
    degree.  For the scale-free kinds (and the strong-prefix pattern,
    which is rational by definition) the witness is already the
    canonical integer one; for the integer-pinned kinds the witness is
    the rational relaxation point and only signals that an integer sweep
    is worthwhile.  Infeasibility at all probed degrees is a proof for
    exactly those degrees (scope "query").
    """
    _validate(m, kind)
    degrees = _probe_degrees(m, kind, caps)
    if _is_scale_free(kind):
        return _scale_free_feasibility(m, kind, degrees)
    infeasible = InfeasibleProven(
        "linear", "query",
        note=f"rationally infeasible at product degrees {degrees!r}")
    if (isinstance(kind, StrongPrefixPattern)
            and kind.degree - m.degree + 1 > m.degree):
        # r_s against r_0..r_(s-1): deg m rows, fewer than the
        # s - deg m + 1 unknowns elimination would handle.
        f = _lexicographic_multiplier(m, kind.degree, kind.degree)
        if f is None:
            return infeasible
        return _canonical_integer_witness(kind, RatPoly(f), m)
    for prod_deg in degrees:
        t = prod_deg - m.degree
        rows = _pattern_rows(m, kind, prod_deg)
        point = feasible_point(rows, t + 1)
        if point is None:
            continue
        f = RatPoly(point)
        if isinstance(kind, StrongPrefixPattern):
            return _canonical_integer_witness(kind, f, m)
        return _checked_witness(kind, f, f * m.to_rat())
    return infeasible


class _NodeBudget:
    __slots__ = ("left",)

    def __init__(self, n: int) -> None:
        self.left = n


def _integer_sweep(chain: list[list[Row]], caps: Caps, budget: _NodeBudget
                   ) -> tuple[Optional[tuple[int, ...]], bool]:
    """Depth-first enumeration of integer points of the feasible region.

    ``chain`` is the region's projection chain.  Coordinates are fixed
    left to right, each running in ascending order over its exact range
    given the fixed prefix, so the first solution found is
    lexicographically smallest.  Returns (solution or None, complete);
    ``complete`` is False when the node budget ran out or a range had to
    be clamped to the coefficient cap, in which case a None solution
    proves nothing.
    """

    def rec(prefix: list[int]) -> tuple[Optional[tuple[int, ...]], bool]:
        if len(prefix) == len(chain):
            return tuple(prefix), True
        rng = coordinate_range(chain, prefix)
        if rng is None:
            return None, True
        lo, hi = rng
        complete = True
        lo_i = -caps.max_coeff if lo is None else max(math.ceil(lo),
                                                     -caps.max_coeff)
        hi_i = caps.max_coeff if hi is None else min(math.floor(hi),
                                                    caps.max_coeff)
        if lo is None or math.ceil(lo) < -caps.max_coeff:
            complete = False
        if hi is None or math.floor(hi) > caps.max_coeff:
            complete = False
        if hi_i - lo_i >= budget.left:
            return None, False
        for v in range(lo_i, hi_i + 1):
            budget.left -= 1
            if budget.left <= 0:
                return None, False
            sol, sub_complete = rec(prefix + [v])
            if sol is not None:
                return sol, True
            complete = complete and sub_complete
        return None, complete

    return rec([])


def _root_box(m: IntPoly, kind: PatternKind) -> Optional[InfeasibleProven]:
    """Integer infeasibility of every monic-atom degree, from a root in (0, 1).

    A matching product vanishes at every root beta of m, so
    beta^n = sum_{j<n} y_j beta^j with integers y_j >= 0.  When
    0 < beta < 1, any y_j >= 1 makes the right side at least
    beta^j > beta^n, and y = 0 leaves beta^n = 0; so no power
    decomposes, whatever n.
    """
    if isinstance(kind, MonicAtomPattern) and _has_root_below_one(m):
        return InfeasibleProven("root-box", "all-degrees")
    return None


@lru_cache(maxsize=8192)
def _has_root_below_one(m: IntPoly) -> bool:
    """Whether m has a real root strictly between 0 and 1."""
    g = squarefree_part(m)
    # count_in covers (0, 1]; a root at 1 itself does not count.
    return SturmChain(g).count_in(Fraction(0), Fraction(1)) - (g(1) == 0) > 0


def _relaxed_degrees(m: IntPoly, kind: PatternKind,
                     degrees: list[int]) -> list[int]:
    """The probed degrees an integer-pinned kind still has to sweep.

    Drops the degrees at which the rational relaxation in residue
    coordinates is already infeasible.  For the unit-only kind that
    relaxation is plain ``UnitRepresentation``, whose cone grows with
    the degree, so the degrees below its lowest feasible one go.  A
    monic-atom degree n goes when r_n is outside the cone of
    r_0..r_(n-1); that question has deg m rows, so it is asked only
    when elimination would work on more unknowns than that (its
    projection chain already comes out None on an infeasible system).
    """
    if isinstance(kind, UnitRepresentation):
        lowest = _lowest_cone_degree(m, 0, degrees)
        return [] if lowest is None else degrees[degrees.index(lowest):]
    n, d = kind.power, m.degree
    if not degrees or n - d + 1 <= d:
        return degrees
    return degrees if _cone_reach(_residues(m, n), n, n) is not None else []


def integer_witness_search(m: IntPoly, kind: PatternKind,
                           caps: Caps = Caps()) -> WitnessResult:
    """Find an integer pattern witness, or prove there is none.

    The strong-prefix kind is inherently rational and is served by
    rational_feasibility; all other kinds are accepted here.  Pipeline:
    Descartes prune and, for the monic-atom kind, the root box (both
    all-degrees proofs); the rational relaxation; and, for the kinds
    whose constraints do not scale, the exact integer sweep.
    """
    if isinstance(kind, StrongPrefixPattern):
        raise ValueError("strong-prefix queries are rational; "
                         "use rational_feasibility")
    _validate(m, kind)
    pruned = descartes_prune(m, kind) or _root_box(m, kind)
    if pruned is not None:
        return pruned
    if _is_scale_free(kind):
        return rational_feasibility(m, kind, caps)

    # Integer-pinned kinds: the residue relaxation drops degrees, then
    # per remaining degree one projection chain (None when rationally
    # infeasible) and the sweep over it.
    budget = _NodeBudget(caps.max_nodes)
    degrees = _probe_degrees(m, kind, caps)
    all_complete = True
    for prod_deg in _relaxed_degrees(m, kind, degrees):
        t = prod_deg - m.degree
        rows = _pattern_rows(m, kind, prod_deg)
        chain = projection_chain(rows, t + 1)
        if chain is None:
            continue
        sol, complete = _integer_sweep(chain, caps, budget)
        if sol is not None:
            f = IntPoly(sol)
            return _checked_witness(kind, f, f * m)
        all_complete = all_complete and complete
        if budget.left <= 0:
            all_complete = False
            break
    if all_complete:
        return InfeasibleProven(
            "linear", "query",
            note=f"no integer solution at product degrees {degrees!r}")
    return ExhaustedCaps(note="integer sweep stopped by caps")
