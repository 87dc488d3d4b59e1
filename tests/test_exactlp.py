import itertools
import math
import random
from fractions import Fraction

import pytest

from semidomain_atoms import IntPoly, MonicAtomPattern, _exactlp
from semidomain_atoms._exactlp import (coordinate_range, feasible_point,
                                       lexicographic_point, projection_chain,
                                       variable_range)
from semidomain_atoms.signsearch import _pattern_rows

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


def unpruned_chain(rows, n):
    """Fourier-Motzkin projections keeping every combination: the
    elimination without Chernikov's rule, kept as the reference."""

    def dedupe(rows):
        seen, out = set(), []
        for a, b in rows:
            if not any(a):
                if b < 0:
                    return None
                continue
            key = _exactlp._canon(a, b)
            if key not in seen:
                seen.add(key)
                out.append((tuple(a), b))
        return out

    def eliminate(rows, k):
        pos = [r for r in rows if r[0][k] > 0]
        neg = [r for r in rows if r[0][k] < 0]
        new = [r for r in rows if not r[0][k]]
        for au, bu in pos:
            for al, bl in neg:
                cu, cl = -al[k], au[k]
                new.append((tuple(cu * u + cl * v for u, v in zip(au, al)),
                            cu * bu + cl * bl))
        return dedupe(new)

    cur = dedupe(rows)
    chain = []
    for k in range(n - 1, -1, -1):
        if cur is None:
            return None
        chain.append(cur)
        if k:
            cur = eliminate(cur, k)
    if cur is None or (n and _exactlp._read_interval(cur, 0) is None):
        return None
    return chain[::-1]


def walk(chain, n):
    """``feasible_point``'s walk down a chain."""
    point = []
    for _ in range(n):
        lo, hi = coordinate_range(chain, point)
        point.append(lo if lo is not None else hi if hi is not None else F(0))
    return tuple(point)


def redundant_system(rng, n):
    """Random rows over n unknowns with the shapes elimination meets:
    equality pairs, positive multiples of a row (equal rows reached by
    different histories), zero rows and, often, a box.  At most 16
    rows, so the unpruned reference stays quick."""
    rows = []
    for _ in range(rng.randint(0, 4)):
        a = tuple(F(rng.randint(-3, 3)) for _ in range(n))
        b = F(rng.randint(-4, 4))
        rows.append((a, b))
        if rng.random() < 0.3:
            rows.append((tuple(-x for x in a), -b))
        if rng.random() < 0.3:
            c = F(rng.choice((2, 3)), rng.choice((1, 2)))
            rows.append((tuple(c * x for x in a), c * b))
    if rng.random() < 0.2:
        rows.append(((F(0),) * n, F(rng.randint(-1, 3))))
    if rng.random() < 0.6:
        for j in range(n):
            for sign in (1, -1):
                rows.append((tuple(F(sign * int(i == j)) for i in range(n)),
                             F(rng.randint(0, 6))))
    rng.shuffle(rows)
    return rows[:16]


class TestChernikovRule:
    """The pruned projection chain against elimination keeping every
    combination: the same sets, read at the same prefixes."""

    def test_random_systems_against_unpruned(self):
        rng = random.Random(1965)
        feasible = pruned = extended = 0
        for trial in range(400):
            n = rng.randint(0, 5)
            rows = redundant_system(rng, n)
            ref = unpruned_chain(rows, n)
            chain = projection_chain(rows, n)
            assert (chain is None) == (ref is None), (rows, n)
            if ref is None:
                assert feasible_point(rows, n) is None
                continue
            feasible += 1
            pruned += sum(map(len, chain)) < sum(map(len, ref))
            assert len(chain) == n and chain[-1:] == ref[-1:]
            for _ in range(20):
                k = rng.randint(0, n - 1) if n else 0
                prefix = [F(rng.randint(-8, 8), rng.choice((1, 1, 2, 3)))
                          for _ in range(k)]
                if k < n:
                    got = coordinate_range(chain, prefix)
                    assert got == coordinate_range(ref, prefix), \
                        (rows, n, prefix)
                    extended += got is not None
            assert feasible_point(rows, n) == walk(ref, n), (rows, n)
        assert 150 <= feasible <= 350
        assert pruned >= 20 and extended >= 1000

    def test_small_cases(self):
        # n = 0: only constant rows; n = 1: nothing is eliminated.
        assert projection_chain(rows_of((0,)), 0) == []
        assert projection_chain(rows_of((-1,), (3,)), 0) is None
        rows = rows_of((2, 4), (1, 2), (-1, 0), (0, 1))
        assert projection_chain(rows, 1) == unpruned_chain(rows, 1) == [
            rows_of((2, 4), (-1, 0))]
        assert feasible_point(rows, 1) == (F(0),)

    def test_equal_rows_keep_the_smaller_history(self):
        # Rows 0 and 1 are one row reached by two histories: the first
        # row stays, with the history of fewer members.
        rows, hists = _exactlp._dedupe(
            rows_of((0, 1, 2), (0, 2, 4), (1, 0, 0)), [0b1011, 0b11, 0b100])
        assert rows == rows_of((0, 1, 2), (1, 0, 0))
        assert hists == [0b11, 0b100]

    def test_monic_atom_chain_stays_small(self):
        # x^4 - 4x^3 + 2x^2 + x - 1 at n = 9: 11 rows over 6 unknowns.
        # Keeping every combination, the first entry has 128835 rows.
        m = IntPoly((-1, 1, 2, -4, 1))
        rows = _pattern_rows(m, MonicAtomPattern(9), 9)
        chain = projection_chain(rows, 6)
        assert chain is not None and len(chain) == 6
        assert max(len(entry) for entry in chain) <= 20


def solve_exact(cols, target):
    """The unique w with sum_j w_j cols[j] == target, or None when the
    columns are dependent or the system is inconsistent."""
    d, n = len(target), len(cols)
    aug = [[F(c[i]) for c in cols] + [F(target[i])] for i in range(d)]
    row = 0
    pivots = []
    for col in range(n + 1):
        piv = next((r for r in range(row, d) if aug[r][col]), None)
        if piv is None:
            continue
        if col == n:
            return None  # a row reads 0 = nonzero
        aug[row], aug[piv] = aug[piv], aug[row]
        aug[row] = [v / aug[row][col] for v in aug[row]]
        for r in range(d):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    if len(pivots) < n:
        return None
    return tuple(aug[i][n] for i in range(n))


def caratheodory_in_cone(gens, target):
    """Brute force: by Caratheodory's theorem the target is in the cone
    iff some set of at most d independent generators rebuilds it with
    nonnegative weights."""
    d = len(target)
    for size in range(min(d, len(gens)) + 1):
        for pick in itertools.combinations(gens, size):
            w = solve_exact(pick, target)
            if w is not None and all(v >= 0 for v in w):
                return True
    return False


def cone_answer(gens, target):
    """The cone test, ``lexicographic_point`` with no forms, and the
    simplex answer behind it: ``(True, w)`` with the weights, or
    ``(False, y)`` with the Farkas vector the None was checked by."""
    got = lexicographic_point(gens, target, ())
    feasible, answer = _exactlp._lexicographic(gens, target, ())
    assert feasible == (got is not None)
    if feasible:
        assert answer == got and got[1] == ()
        return True, got[0]
    return False, answer


def check_cone_answer(gens, target, answer):
    inside, vec = answer
    if inside:
        assert len(vec) == len(gens) and all(w >= 0 for w in vec)
        assert all(sum(w * g[i] for w, g in zip(vec, gens)) == target[i]
                   for i in range(len(target)))
    else:
        def dot(v):
            return sum(a * b for a, b in zip(vec, v))
        assert dot(target) > 0 and all(dot(g) <= 0 for g in gens)


class TestConeMembership:
    """``lexicographic_point`` with no forms is the cone test."""

    def test_random_against_caratheodory(self):
        rng = random.Random(515)
        inside = 0
        for trial in range(300):
            d = rng.randint(1, 3)
            gens = [tuple(F(rng.randint(-3, 3)) for _ in range(d))
                    for _ in range(rng.randint(0, 6))]
            target = tuple(F(rng.randint(-3, 3)) for _ in range(d))
            answer = cone_answer(gens, target)
            assert answer[0] == caratheodory_in_cone(gens, target), \
                (gens, target)
            check_cone_answer(gens, target, answer)
            inside += answer[0]
        assert 60 <= inside <= 240

    def test_zero_target(self):
        gens = [(F(1), F(-2)), (F(-3), F(1))]
        assert lexicographic_point(gens, (F(0), F(0)), ()) == (
            (F(0), F(0)), ())

    def test_empty_generators(self):
        assert lexicographic_point([], (F(0), F(0)), ()) == ((), ())
        target = (F(-2), F(3))
        answer = cone_answer([], target)
        assert answer[0] is False
        check_cone_answer([], target, answer)

    def test_parallel_generators(self):
        gens = [(F(1), F(2)), (F(2), F(4)), (F(3), F(6))]
        answer = cone_answer(gens, (F(5), F(10)))
        assert answer[0] is True
        check_cone_answer(gens, (F(5), F(10)), answer)
        for target in ((F(-1), F(-2)), (F(1), F(0))):
            answer = cone_answer(gens, target)
            assert answer[0] is False
            check_cone_answer(gens, target, answer)

    def test_degenerate_pivot(self):
        # The first entering column has a zero ratio in row 0, so the
        # first pivot leaves the objective unchanged.
        gens = [(F(1), F(1)), (F(-1), F(1))]
        assert lexicographic_point(gens, (F(0), F(1)), ()) == (
            (F(1, 2), F(1, 2)), ())

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            lexicographic_point([(F(1),)], (F(1), F(0)), ())

    @pytest.mark.parametrize("fake", [
        (True, ((F(-1), F(2)), ())),  # a negative weight
        (True, ((F(1), F(1)), ())),  # weights that miss the target
        (False, (F(1), F(0))),  # y . target is not positive
        (False, (F(0), F(1))),  # y . g > 0 for a generator
    ])
    def test_recheck_failures_raise(self, monkeypatch, fake):
        monkeypatch.setattr(_exactlp, "_lexicographic", lambda g, t, f: fake)
        gens = [(F(1), F(0)), (F(0), F(1))]
        with pytest.raises(RuntimeError, match="lexicographic check failed"):
            lexicographic_point(gens, (F(0), F(2)), ())


def form_rows(gens, target, forms):
    """The region of ``lexicographic_point`` as rows over (form values,
    free weights), for ``feasible_point``.

    The equalities v_q = c_q . w + k_q and sum_j w_j gens[j] = target
    are solved for as many weights as they determine (Gauss-Jordan,
    last weight first); substituting them projects exactly, so the
    walk over the form values is the one over the full system, and
    elimination only sees the weights left free.
    """
    n, p = len(gens), len(forms)
    eqs = [[F(int(i == q)) for i in range(p)] + [-F(c) for c in coeffs]
           + [F(const)] for q, (coeffs, const) in enumerate(forms)]
    eqs += [[F(0)] * p + [F(g[i]) for g in gens] + [F(target[i])]
            for i in range(len(target))]
    pivot_row = {}
    for col in range(p + n - 1, p - 1, -1):
        r = len(pivot_row)
        piv = next((i for i in range(r, len(eqs)) if eqs[i][col]), None)
        if piv is None:
            continue
        eqs[r], eqs[piv] = eqs[piv], eqs[r]
        eqs[r] = [v / eqs[r][col] for v in eqs[r]]
        for i in range(len(eqs)):
            if i != r and eqs[i][col]:
                f = eqs[i][col]
                eqs[i] = [a - f * b for a, b in zip(eqs[i], eqs[r])]
        pivot_row[col] = r
    keep = [j for j in range(p + n) if j not in pivot_row]
    rows = []
    for e in eqs[len(pivot_row):]:  # left over: equalities among the v's
        a = tuple(e[j] for j in keep)
        rows += [(a, e[-1]), (tuple(-x for x in a), -e[-1])]
    for j in range(p, p + n):
        if j in pivot_row:  # w_j = rhs - e . rest >= 0
            e = eqs[pivot_row[j]]
            rows.append((tuple(e[k] for k in keep), e[-1]))
        else:
            rows.append((tuple(F(-int(k == j)) for k in keep), F(0)))
    return rows, len(keep)


def check_lexicographic_answer(gens, target, forms, answer):
    w, values = answer
    assert len(w) == len(gens) and all(v >= 0 for v in w)
    assert all(sum(v * g[i] for v, g in zip(w, gens)) == target[i]
               for i in range(len(target)))
    assert values == tuple(sum(c * v for c, v in zip(coeffs, w)) + const
                           for coeffs, const in forms)


class TestLexicographicPoint:
    def test_random_against_elimination(self):
        rng = random.Random(1982)
        empty = unbounded = held = 0
        for trial in range(300):
            d = rng.randint(1, 3)
            gens = [tuple(F(rng.randint(-3, 3)) for _ in range(d))
                    for _ in range(rng.randint(0, 6))]
            target = tuple(F(rng.randint(-3, 3)) for _ in range(d))
            forms = [(tuple(F(rng.randint(-2, 2)) for _ in gens),
                      F(rng.randint(-2, 2)))
                     for _ in range(rng.randint(1, 3))]
            rows, n = form_rows(gens, target, forms)
            ref = feasible_point(rows, n)
            got = lexicographic_point(gens, target, forms)
            if ref is None:
                assert got is None, (gens, target, forms)
                empty += 1
                continue
            assert got is not None, (gens, target, forms)
            assert got[1] == ref[:len(forms)], (gens, target, forms)
            check_lexicographic_answer(gens, target, forms, got)
            chain = projection_chain(rows, n)
            for q in range(len(forms)):
                lo, hi = coordinate_range(chain, ref[:q])
                unbounded += lo is None
                held += lo is None and hi is None
        assert 60 <= empty <= 240
        assert unbounded >= 30 and held >= 10

    def test_infeasible(self):
        gens = [(F(1), F(1)), (F(1), F(2))]
        assert lexicographic_point(gens, (F(-1), F(0)), []) is None

    def test_degenerate_pivot(self):
        # As in TestConeMembership: the first pivot has a zero ratio.
        # The third generator makes the region a segment, and the
        # forms pick its end with w_2 = 0.
        gens = [(F(1), F(1)), (F(-1), F(1)), (F(0), F(1))]
        forms = [((F(0), F(0), F(1)), F(0)), ((F(1), F(0), F(0)), F(0))]
        assert lexicographic_point(gens, (F(0), F(1)), forms) == (
            (F(1, 2), F(1, 2), F(0)), (F(0), F(1, 2)))

    def test_unbounded_below_takes_upper_end(self):
        # w_0 - w_1 = 1: -w_0 has no minimum, its maximum is -1.
        gens = [(F(1),), (F(-1),)]
        forms = [((F(-1), F(0)), F(3))]
        assert lexicographic_point(gens, (F(1),), forms) == (
            (F(1), F(0)), (F(2),))

    def test_unbounded_both_ways_held_at_zero(self):
        # w_0 - w_1 = 1 with w_2 free: w_0 - w_2 takes every value, so
        # it is held at 0, and then w_2 >= 1 follows from w_0 >= 1.
        gens = [(F(1),), (F(-1),), (F(0),)]
        forms = [((F(1), F(0), F(-1)), F(0)), ((F(0), F(0), F(1)), F(0))]
        assert lexicographic_point(gens, (F(1),), forms) == (
            (F(1), F(0), F(1)), (F(0), F(1)))

    def test_no_forms(self):
        gens = [(F(1), F(0)), (F(0), F(1))]
        assert lexicographic_point(gens, (F(2), F(3)), []) == (
            (F(2), F(3)), ())

    def test_bad_lengths(self):
        with pytest.raises(ValueError):
            lexicographic_point([(F(1),)], (F(1), F(0)), [])
        with pytest.raises(ValueError):
            lexicographic_point([(F(1),)], (F(1),), [((F(1), F(1)), F(0))])
        with pytest.raises(ValueError):
            lexicographic_point([()], (), [])

    @pytest.mark.parametrize("fake", [
        (True, ((F(-1), F(2)), (F(-1),))),  # a negative weight
        (True, ((F(1), F(1)), (F(1),))),  # weights that miss the target
        (True, ((F(0), F(2)), (F(1),))),  # a form value the weights miss
        (True, ((F(0), F(2)), ())),  # a form value missing
    ], ids=["negative", "target", "value", "count"])
    def test_recheck_failures_raise(self, monkeypatch, fake):
        monkeypatch.setattr(_exactlp, "_lexicographic", lambda g, t, f: fake)
        gens = [(F(1), F(0)), (F(0), F(1))]
        with pytest.raises(RuntimeError, match="lexicographic check failed"):
            lexicographic_point(gens, (F(0), F(2)),
                                [((F(1), F(0)), F(0))])
