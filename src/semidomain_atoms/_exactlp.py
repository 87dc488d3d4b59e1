"""Exact rational linear feasibility, variable-range and
lexicographic-minimum queries.

Constraint rows are pairs ``(a, b)`` over ``Fraction`` meaning
``a . x <= b`` with all variables unrestricted in sign.  Equalities are
expressed as two opposite rows by callers.

Two engines, each serving its own question.  Fourier-Motzkin
elimination with canonical row deduplication serves general inequality
systems: ``projection_chain`` eliminates x_{n-1}, ..., x_1 in turn and
keeps every intermediate system, so its entry k describes the
projection of the polyhedron onto x_0..x_k.  Elimination projects
exactly whatever the order, so the range of x_k over the points that
extend a fixed x_0..x_{k-1} is a single read of entry k
(``coordinate_range``); a feasible point is a walk down the chain
(``feasible_point``), and a depth-first integer sweep reads every
node's range from the same chain without eliminating again.

Elimination keeps Chernikov's rule (S. N. Chernikov, "The convolution
of finite systems of linear inequalities", 1965; J.-L. Imbert,
"Fourier's elimination: which to choose?", 1993).  Every row carries
its history, the set of input rows it is a nonnegative combination of.
After s variables are eliminated, a combination whose history has more
than s + 1 members has multipliers that are not an extreme ray of the
cone of input multipliers cancelling those s variables: it is a sum of
combinations over smaller histories, which the rows kept imply.  So
such a pair is skipped before its row is built, and every entry is
still exactly the projection.  Pruning never touches the last entry,
the input system itself, and the last coordinate of every point is read
from it; so an over-pruned projection could only widen the ranges of
earlier coordinates, the integer sweep could accept no point outside
the input rows, and ``feasible_point`` would raise rather than return
one.

``lexicographic_point`` is the one simplex: a dense phase 1 with
Bland's rule and one equality row per coordinate of the target asks
whether the target is a nonnegative combination of generators, and then
one phase-2 pass per affine form of the weights runs on the same
tableau, each restricted to the optimal face of the passes before it
(preemptive, or lexicographic, linear optimisation; Isermann, "Linear
lexicographic optimization", OR Spektrum 1982).  With no forms it is
the cone-membership test.  With the forms taken as the coordinates of
some other description of the region, its point is the one
``feasible_point`` walks to there: each coordinate in turn at the lower
end of its range, else the upper end, else 0.  The tableau keeps one
row per coordinate of the target, plus one for each form held at 0
because it is unbounded both ways.  Every answer is re-checked exactly
before it is returned: a point against the region and the form values,
an empty region against the Farkas vector phase 1 ends with, which must
separate the target from every generator.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

__all__ = [
    "FM_CUTOVER",
    "Row",
    "projection_chain",
    "coordinate_range",
    "feasible_point",
    "variable_range",
    "lexicographic_point",
]

# Elimination serves every system size.  Only perfbench/spans.py reads
# this name, to count calls above it as simplex calls (there are none).
FM_CUTOVER = math.inf

Row = tuple[tuple[Fraction, ...], Fraction]
Interval = tuple[Optional[Fraction], Optional[Fraction]]


def _canon(a: Sequence[Fraction], b: Fraction) -> tuple[tuple[int, ...], int]:
    """Primitive integer form of a row, for dedupe keys."""
    denom = math.lcm(*(x.denominator for x in a), b.denominator)
    ints = [int(x * denom) for x in a] + [int(b * denom)]
    g = math.gcd(*(abs(v) for v in ints))
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints[:-1]), ints[-1]


_INFEASIBLE = object()


def _dedupe(rows: list[Row], hists: list[int]) -> object:
    """Drop duplicate and trivial rows; _INFEASIBLE on a false constant.

    ``hists[i]`` is row i's history: the input rows it combines, as a
    bit mask.  Returns the kept rows and their histories; a row kept
    for several equal ones takes the smallest of their histories.
    """
    at: dict[tuple, int] = {}
    out: list[Row] = []
    out_hists: list[int] = []
    for (a, b), h in zip(rows, hists):
        if not any(a):
            if b < 0:
                return _INFEASIBLE
            continue
        key = _canon(a, b)
        i = at.get(key)
        if i is not None:
            if h.bit_count() < out_hists[i].bit_count():
                out_hists[i] = h
            continue
        at[key] = len(out)
        out.append((tuple(a), b))
        out_hists.append(h)
    return out, out_hists


def _eliminate(rows: list[Row], hists: list[int], k: int, most: int
               ) -> object:
    """Project away variable k; rows stay indexed over the same tuple width.

    A pair whose combined history has more than ``most`` members is
    skipped before its row is built (Chernikov's rule).
    """
    pos, neg, zero = [], [], []
    for row, h in zip(rows, hists):
        c = row[0][k]
        (pos if c > 0 else neg if c < 0 else zero).append((row, h))
    new = [row for row, _ in zero]
    new_hists = [h for _, h in zero]
    for (au, bu), hu in pos:
        for (al, bl), hl in neg:
            h = hu | hl
            if h.bit_count() > most:
                continue
            cu, cl = -al[k], au[k]
            a = tuple(cu * au[j] + cl * al[j] for j in range(len(au)))
            new.append((a, cu * bu + cl * bl))
            new_hists.append(h)
    return _dedupe(new, new_hists)


def _read_interval(rows: list[Row], j: int) -> Optional[Interval]:
    """The interval of x_j cut out by rows in which only x_j is unknown.

    A row without x_j is a constant condition; None when one fails or
    the bounds cross.
    """
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    for a, b in rows:
        c = a[j]
        if c > 0:
            v = b / c
            hi = v if hi is None else min(hi, v)
        elif c < 0:
            v = b / c
            lo = v if lo is None else max(lo, v)
        elif b < 0:
            return None
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi


def projection_chain(rows: Sequence[Row], n: int
                     ) -> Optional[list[list[Row]]]:
    """Fourier-Motzkin projections onto x_0..x_k for k = 0..n-1.

    Entry k holds rows over the full tuple width whose coefficients
    beyond k are zero; entry n-1 is the deduplicated system itself.
    None when the system is infeasible.

    Input row i starts with the history {i}, and a combined row takes
    the union of its parents' histories.  Once s variables are
    eliminated, a row whose history has more than s + 1 members is
    never built (Chernikov's rule): its multipliers on the input rows
    are not an extreme ray of the cone of multipliers that cancel the
    eliminated variables, so the rows kept imply it, and every entry is
    still exactly the projection.
    """
    cur = _dedupe(list(rows), [1 << i for i in range(len(rows))])
    chain: list[list[Row]] = []
    for k in range(n - 1, -1, -1):
        if cur is _INFEASIBLE:
            return None
        chain.append(cur[0])
        if k:
            cur = _eliminate(*cur, k, n - k + 1)
    # Contradictory bounds on x_0 never become a constant row, because
    # x_0 is the one variable never eliminated.
    if cur is _INFEASIBLE or (n and _read_interval(cur[0], 0) is None):
        return None
    chain.reverse()
    return chain


def coordinate_range(chain: Sequence[list[Row]], prefix: Sequence
                     ) -> Optional[Interval]:
    """Exact (min, max) of x_k, k = len(prefix), over the feasible points
    whose first k coordinates equal ``prefix``.

    ``chain`` comes from ``projection_chain``.  None means no feasible
    point starts with ``prefix``; a None endpoint means that side is
    unbounded.
    """
    k = len(prefix)
    return _read_interval(
        [(a, b - sum(a[i] * prefix[i] for i in range(k)))
         for a, b in chain[k]], k)


def feasible_point(rows: Sequence[Row], n: int
                   ) -> Optional[tuple[Fraction, ...]]:
    """A rational point satisfying every row, or None if there is none.

    Each coordinate in turn takes the lower end of its range, else the
    upper end, else 0.
    """
    chain = projection_chain(rows, n)
    if chain is None:
        return None
    point: list[Fraction] = []
    for _ in range(n):
        rng = coordinate_range(chain, point)
        if rng is None:
            raise RuntimeError(
                "empty range after a feasible projection")  # pragma: no cover
        lo, hi = rng
        point.append(lo if lo is not None
                     else hi if hi is not None else Fraction(0))
    return tuple(point)


def variable_range(rows: Sequence[Row], n: int, j: int
                   ) -> Optional[Interval]:
    """Exact (min, max) of variable j over the polyhedron.

    None means the system is infeasible; a None endpoint means that
    side is unbounded.
    """
    if not 0 <= j < n:
        raise IndexError("variable index out of range")
    # Put x_j first: its range is then read off the chain's first entry.
    order = [j] + [k for k in range(n) if k != j]
    chain = projection_chain(
        [(tuple(a[k] for k in order), b) for a, b in rows], n)
    return None if chain is None else coordinate_range(chain, ())


def _pivot(tab: list[list[Fraction]], z: list[Fraction], basis: list[int],
           row: int, col: int) -> None:
    """Make ``col`` basic in ``row``, updating every row and the costs z."""
    piv = tab[row]
    inv = 1 / piv[col]
    piv[:] = [v * inv for v in piv]
    for other in tab:
        f = other[col]
        if other is not piv and f:
            other[:] = [v - f * p for v, p in zip(other, piv)]
    f = z[col]
    if f:
        z[:] = [v - f * p for v, p in zip(z, piv)]
    basis[row] = col


def _simplex(tab: list[list[Fraction]], z: list[Fraction], basis: list[int],
             cols: Sequence[int], until_zero: bool = False) -> Optional[int]:
    """Bland's-rule simplex minimizing the cost row z over ``cols``.

    z holds the reduced costs of the tableau's columns and, in its last
    slot, minus the objective value.  Only the columns in ``cols`` (in
    ascending order) may enter: the lowest-index one with a negative
    reduced cost, leaving by the lowest ratio, ties to the lowest-index
    basic variable, which rules out cycling.  Returns None at an
    optimum (or, with ``until_zero``, once the objective reaches 0),
    else the entering column along which the objective is unbounded
    below.
    """
    while not (until_zero and not z[-1]):
        col = next((j for j in cols if z[j] < 0), None)
        if col is None:
            return None
        best = None
        for i, r in enumerate(tab):
            a = r[col]
            if a > 0:
                key = (r[-1] / a, basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            return col
        _pivot(tab, z, basis, best[1], col)
    return None


def _feasible_tableau(gens: Sequence[Sequence[Fraction]],
                      target: Sequence[Fraction]):
    """Phase 1 for ``sum_j w_j gens[j] = target``, ``w >= 0``.

    One artificial variable per row (rows flipped so the right-hand
    side is nonnegative) starts the basis, and the sum of the
    artificials is minimized.  Returns the final tableau (generator
    columns, artificial columns, rhs), its basis, the phase-1 cost row
    and the row signs.
    """
    d, n = len(target), len(gens)
    signs = [-1 if t < 0 else 1 for t in target]
    tab = [[Fraction(signs[i] * g[i]) for g in gens]
           + [Fraction(int(i == r)) for r in range(d)]
           + [Fraction(signs[i] * target[i])]
           for i in range(d)]
    basis = [n + i for i in range(d)]
    # Reduced costs of the phase-1 objective (sum of artificials), with
    # its negated value in the last slot.
    z = [-sum(tab[i][j] for i in range(d)) for j in range(n)] \
        + [Fraction(0)] * d + [-sum(tab[i][-1] for i in range(d))]
    if _simplex(tab, z, basis, range(n + d), until_zero=True) is not None:
        # Unbounded below is impossible for a sum of nonnegatives.
        raise RuntimeError("phase-1 objective unbounded")  # pragma: no cover
    return tab, basis, z, signs


def _basic_point(tab: list[list[Fraction]], basis: list[int], n: int
                 ) -> tuple[Fraction, ...]:
    """The generator weights of the basis: basic ones at their right-hand
    side, the rest 0."""
    w = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            w[b] = tab[i][-1]
    return tuple(w)


def _costs(tab: list[list[Fraction]], basis: list[int],
           coeffs: Sequence[Fraction], const: Fraction) -> list[Fraction]:
    """Reduced-cost row of the objective ``coeffs . w + const``; the
    columns past the generators (artificials) cost nothing."""
    c = list(coeffs) + [Fraction(0)] * (len(tab[0]) - len(coeffs))
    c[-1] = -const
    z = c
    for i, b in enumerate(basis):
        cb = c[b] if b < len(coeffs) else 0
        if cb:
            z = [v - cb * t for v, t in zip(z, tab[i])]
    return z


def _drive_out(tab: list[list[Fraction]], basis: list[int], n: int,
               cols: Sequence[int]) -> None:
    """Pivot every artificial still basic (at level 0) out of the basis.

    Any nonzero entry in an allowed column will do, since the row's
    right-hand side is 0.  A row with none is redundant over the
    allowed columns and no later pivot touches it.
    """
    for i, b in enumerate(basis):
        if b >= n:
            col = next((j for j in cols if tab[i][j]), None)
            if col is not None:
                _pivot(tab, [Fraction(0)] * len(tab[i]), basis, i, col)


def _hold(tab: list[list[Fraction]], basis: list[int], n: int,
          cols: Sequence[int], coeffs: Sequence[Fraction],
          value: Fraction) -> None:
    """Add the equality row ``coeffs . w = value`` and restore feasibility
    over the allowed columns with one more artificial."""
    for r in tab:
        r.insert(-1, Fraction(0))
    row = list(coeffs) + [Fraction(0)] * (len(tab[0]) - len(coeffs))
    row[-1] = value
    for i, b in enumerate(basis):
        f = row[b]
        if f:
            row = [v - f * t for v, t in zip(row, tab[i])]
    if row[-1] < 0:
        row = [-v for v in row]
    row[-2] = Fraction(1)
    tab.append(row)
    basis.append(len(row) - 2)
    # Reduced costs of the new artificial alone; z[-1] is minus its value.
    z = [-v for v in row]
    z[-2] = Fraction(0)
    _simplex(tab, z, basis, cols, until_zero=True)
    _drive_out(tab, basis, n, cols)


Form = tuple[Sequence[Fraction], Fraction]


def _lexicographic(gens: Sequence[Sequence[Fraction]],
                   target: Sequence[Fraction], forms: Sequence[Form]
                   ) -> tuple[bool, tuple]:
    """Phase 1, then one phase-2 pass per form on the same tableau.

    Returns ``(True, (w, values))``, or ``(False, y)`` with the Farkas
    vector y when phase 1 ends above 0: at that optimum the simplex
    multipliers pi satisfy pi.(column) <= 0 for every generator column
    and pi.rhs > 0, and undoing the row flips turns them into y.

    Each pass minimizes its form over the optimal face of the passes
    before it: only the columns whose reduced cost was zero at the end
    of every earlier pass may enter, and the others stay at 0.  A form
    unbounded below is maximized instead, and a form unbounded both
    ways is held at 0 with an added equality row.
    """
    n = len(gens)
    tab, basis, z, signs = _feasible_tableau(gens, target)
    if z[-1]:
        # The reduced cost of artificial i is 1 - pi_i.
        return False, tuple(s * (1 - z[n + i]) for i, s in enumerate(signs))
    cols = list(range(n))
    _drive_out(tab, basis, n, cols)
    values = []
    for coeffs, const in forms:
        z = _costs(tab, basis, coeffs, const)
        if _simplex(tab, z, basis, cols) is None:
            values.append(-z[-1])
        else:
            z = _costs(tab, basis, [-c for c in coeffs], -const)
            if _simplex(tab, z, basis, cols) is not None:
                _hold(tab, basis, n, cols, coeffs, -const)
                values.append(Fraction(0))
                continue
            values.append(z[-1])
        cols = [j for j in cols if not z[j]]
    return True, (_basic_point(tab, basis, n), tuple(values))


def lexicographic_point(gens: Sequence[Sequence[Fraction]],
                        target: Sequence[Fraction], forms: Sequence[Form]
                        ) -> Optional[tuple[tuple[Fraction, ...],
                                            tuple[Fraction, ...]]]:
    """The lexicographic minimum of affine forms over a cone's fibre.

    The region is ``{w >= 0 : sum_j w_j gens[j] == target}`` and each
    form is ``(coeffs, const)``, the value ``coeffs . w + const``.  The
    first form is minimized over the region, the second over the points
    where the first takes its minimum, and so on; a form unbounded
    below takes its maximum instead, or 0 when it has none, the same
    rule ``feasible_point`` applies to each coordinate.  Returns
    ``(w, values)``, a point of the final face and the form values
    there, or None when the region is empty; with no forms this is the
    test whether ``target`` lies in the cone spanned by ``gens``.

    Both answers are re-checked exactly, and a failed check raises
    RuntimeError: a point must lie in the region and give the form
    values, and None needs a Farkas vector y with ``y . target > 0``
    and ``y . g <= 0`` for every generator.
    """
    d = len(target)
    if not d:
        raise ValueError("the target needs at least one coordinate")
    if any(len(g) != d for g in gens):
        raise ValueError("generators and target differ in length")
    if any(len(c) != len(gens) for c, _ in forms):
        raise ValueError("a form's length differs from the generator count")
    feasible, answer = _lexicographic(gens, target, forms)
    if not feasible:
        def dot(v):
            return sum(a * b for a, b in zip(answer, v))
        if not (len(answer) == d and dot(target) > 0
                and all(dot(g) <= 0 for g in gens)):
            raise RuntimeError(
                "lexicographic check failed: the Farkas vector does not "
                "separate the target from the generators")
        return None
    w, values = answer
    ok = (len(w) == len(gens) and len(values) == len(forms)
          and all(v >= 0 for v in w)
          and all(sum(v * g[i] for v, g in zip(w, gens)) == target[i]
                  for i in range(d))
          and all(sum(c * v for c, v in zip(coeffs, w)) + const == value
                  for (coeffs, const), value in zip(forms, values)))
    if not ok:
        raise RuntimeError(
            "lexicographic check failed: the point is not in the region or "
            "misses a form value")
    return w, values
