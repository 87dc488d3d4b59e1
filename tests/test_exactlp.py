import itertools
import math
import random
from fractions import Fraction

import pytest

from semidomain_atoms._exactlp import (coordinate_range, feasible_point,
                                       projection_chain, variable_range)

F = Fraction


def rows_of(*triples):
    """Each triple is (coeffs..., bound) meaning coeffs . x <= bound."""
    out = []
    for t in triples:
        *a, b = t
        out.append((tuple(F(v) for v in a), F(b)))
    return out


class TestFeasiblePoint:
    def test_single_variable_point(self):
        rows = rows_of((1, 1), (-1, -1))  # x <= 1 and x >= 1
        assert feasible_point(rows, 1) == (F(1),)

    def test_single_variable_infeasible(self):
        # Contradictory bounds that never become a constant row.
        rows = rows_of((1, -1), (-1, 0))  # x <= -1 and x >= 0
        assert feasible_point(rows, 1) is None

    def test_no_variables(self):
        assert feasible_point(rows_of((5,)), 0) == ()
        assert feasible_point(rows_of((-1,)), 0) is None

    def test_box(self):
        rows = rows_of((1, 0, 2), (-1, 0, -1), (0, 1, 5), (0, -1, -3))
        pt = feasible_point(rows, 2)
        assert pt is not None
        x, y = pt
        assert 1 <= x <= 2 and 3 <= y <= 5

    def test_unbounded_defaults_to_zero(self):
        assert feasible_point([], 2) == (F(0), F(0))

    def test_coupled_infeasible(self):
        # x + y <= 0, x >= 1, y >= 1
        rows = rows_of((1, 1, 0), (-1, 0, -1), (0, -1, -1))
        assert feasible_point(rows, 2) is None

    def test_point_satisfies_rows(self):
        rows = rows_of((2, 3, 12), (-1, 2, 4), (1, -4, 2), (-3, -1, -3))
        pt = feasible_point(rows, 2)
        assert pt is not None
        for a, b in rows:
            assert sum(c * v for c, v in zip(a, pt)) <= b


class TestVariableRange:
    def test_box_ranges(self):
        rows = rows_of((1, 0, 2), (-1, 0, -1), (0, 1, 5), (0, -1, -3))
        assert variable_range(rows, 2, 0) == (F(1), F(2))
        assert variable_range(rows, 2, 1) == (F(3), F(5))

    def test_unbounded_side(self):
        rows = rows_of((1, 1),)  # x <= 1
        assert variable_range(rows, 1, 0) == (None, F(1))

    def test_infeasible(self):
        rows = rows_of((1, -1), (-1, 0))
        assert variable_range(rows, 1, 0) is None

    def test_projection(self):
        # Triangle x >= 0, y >= 0, x + y <= 3: each variable spans [0, 3].
        rows = rows_of((-1, 0, 0), (0, -1, 0), (1, 1, 3))
        assert variable_range(rows, 2, 0) == (F(0), F(3))
        assert variable_range(rows, 2, 1) == (F(0), F(3))

    def test_index_bounds(self):
        with pytest.raises(IndexError):
            variable_range([], 2, 2)


def boxed_system(rng, n):
    """Random rows over n unknowns, plus the box -9 <= x_j <= 9."""
    rows = [(tuple(F(rng.randint(-4, 4)) for _ in range(n)),
             F(rng.randint(-6, 6)))
            for _ in range(rng.randint(1, 6))]
    for j in range(n):
        for sign in (1, -1):
            e = [F(0)] * n
            e[j] = F(sign)
            rows.append((tuple(e), F(9)))
    return rows


def solve_square(a_rows, b):
    """The unique solution of the square system a x = b, or None."""
    n = len(b)
    m = [list(r) + [v] for r, v in zip(a_rows, b)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col] / m[col][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(m[r][n] / m[r][r] for r in range(n))


def vertices(rows, n):
    """Every vertex of a bounded polyhedron: the exactly solved n x n
    subsystems, held tight, whose solution satisfies every row."""
    out = set()
    for pick in itertools.combinations(rows, n):
        x = solve_square([a for a, _ in pick], [b for _, b in pick])
        if x is not None and all(
                sum(c * v for c, v in zip(a, x)) <= b for a, b in rows):
            out.add(x)
    return out


def substituted(rows, prefix):
    """The system over the unknowns after ``prefix``, with it fixed."""
    k = len(prefix)
    return [(a[k:], b - sum(a[i] * prefix[i] for i in range(k)))
            for a, b in rows]


class TestEngineAgreement:
    """Elimination against vertex enumeration on bounded random systems."""

    def test_random_systems(self):
        rng = random.Random(20260819)
        feasible = 0
        for trial in range(150):
            n = rng.randint(1, 3)
            rows = boxed_system(rng, n)
            pt = feasible_point(rows, n)
            assert (pt is None) == (not vertices(rows, n)), (rows, n)
            if pt is not None:
                feasible += 1
                for a, b in rows:
                    assert sum(c * v for c, v in zip(a, pt)) <= b
        assert 20 <= feasible <= 130

    def test_random_ranges(self):
        rng = random.Random(77)
        for trial in range(80):
            n = rng.randint(1, 3)
            rows = boxed_system(rng, n)
            vs = vertices(rows, n)
            for j in range(n):
                got = variable_range(rows, n, j)
                if not vs:
                    assert got is None, (rows, j)
                    continue
                assert got == (min(v[j] for v in vs),
                               max(v[j] for v in vs)), (rows, j)


class TestProjectionChain:
    def test_infeasible_is_none(self):
        assert projection_chain(rows_of((1, -1), (-1, 0)), 1) is None
        assert projection_chain(rows_of((-1,)), 0) is None
        assert projection_chain(rows_of((5,)), 0) == []

    def test_entries_drop_trailing_unknowns(self):
        rows = rows_of((-1, 0, 0), (0, -1, 0), (1, 1, 3))
        chain = projection_chain(rows, 2)
        assert len(chain) == 2
        assert all(a[1] == 0 for a, _ in chain[0])
        assert coordinate_range(chain, ()) == (F(0), F(3))
        assert coordinate_range(chain, (F(1),)) == (F(0), F(2))
        assert coordinate_range(chain, (F(4),)) is None
        # x = -1 breaks x >= 0, a row without y: no y extends it.
        assert coordinate_range(chain, (F(-1),)) is None

    def test_ranges_match_substituted_system(self):
        rng = random.Random(4242)
        feasible = 0
        for trial in range(120):
            n = rng.randint(2, 3)
            rows = boxed_system(rng, n)
            chain = projection_chain(rows, n)
            if chain is None:
                continue
            # Walk a random integer prefix through the ranges, so every
            # prefix checked extends to a feasible point.
            prefix = []
            for k in range(n):
                got = coordinate_range(chain, prefix)
                assert got == variable_range(substituted(rows, prefix),
                                             n - k, 0), (rows, prefix)
                lo, hi = got
                if math.ceil(lo) > math.floor(hi):
                    break
                feasible += 1
                prefix.append(rng.randint(math.ceil(lo), math.floor(hi)))
        assert feasible >= 60
