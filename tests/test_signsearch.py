import random
from fractions import Fraction as F

import pytest

from semidomain_atoms import (AlgebraicNumberSpec, AtLeast, Caps,
                              ExhaustedCaps, FamilyParams, Finite,
                              InfeasibleProven, Infinite, IntPoly,
                              MonicAtomPattern, MultiplierWitness, RatPoly,
                              SingleNegativeAt, StrongPrefixPattern,
                              UnitRepresentation, Witness, _exactlp, analyze,
                              count_atoms, descartes_prune, family_polynomial,
                              integer_witness_search, isolate_positive_roots,
                              pattern_matches, pattern_max_variations,
                              positive_root_count, rational_feasibility,
                              signsearch, verify_certificate)
from semidomain_atoms._exactlp import feasible_point, projection_chain
from semidomain_atoms.signsearch import (_NodeBudget, _integer_sweep,
                                         _pattern_rows, _probe_degrees)

from conftest import BINOMIAL, CUBE, GOLDEN, P, THREE_ROOTS, TWO_ROOTS


class TestPatternValidation:
    def test_monic_power_positive(self):
        with pytest.raises(ValueError):
            MonicAtomPattern(0)

    def test_strong_degree_positive(self):
        with pytest.raises(ValueError):
            StrongPrefixPattern(0)

    def test_single_negative_position(self):
        with pytest.raises(ValueError):
            SingleNegativeAt(-1, 3)
        with pytest.raises(ValueError):
            SingleNegativeAt(3, 2)

    def test_unit_cap(self):
        with pytest.raises(ValueError):
            UnitRepresentation(0)


class TestVariationCeiling:
    @pytest.mark.parametrize("kind,expected", [
        (MonicAtomPattern(3), 1),
        (StrongPrefixPattern(4), 1),
        (SingleNegativeAt(0, 5), 1),
        (SingleNegativeAt(1, 5), 2),
        (SingleNegativeAt(4, 5), 2),
        (UnitRepresentation(5), 1),
        (UnitRepresentation(5, unit_only=True), 1),
    ])
    def test_ceiling(self, kind, expected):
        assert pattern_max_variations(kind) == expected


class TestPatternMatches:
    def test_monic(self):
        assert pattern_matches(MonicAtomPattern(4), P(-2, -1, 0, 0, 1))
        assert not pattern_matches(MonicAtomPattern(4), P(-2, 0, 0, -15, 2))
        assert not pattern_matches(MonicAtomPattern(3), P(-2, -1, 0, 0, 1))
        assert not pattern_matches(MonicAtomPattern(4), P(-2, 1, 0, 0, 1))

    def test_strong_prefix(self):
        assert pattern_matches(StrongPrefixPattern(4), P(-2, 0, 0, -15, 2))
        assert not pattern_matches(StrongPrefixPattern(3), P(-2, 0, 0, -15, 2))
        assert not pattern_matches(StrongPrefixPattern(4), P(-2, 0, 1, -15, 2))

    def test_single_negative(self):
        assert pattern_matches(SingleNegativeAt(1, 4), TWO_ROOTS)
        assert not pattern_matches(SingleNegativeAt(1, 1), TWO_ROOTS)
        assert not pattern_matches(SingleNegativeAt(2, 4), TWO_ROOTS)
        assert not pattern_matches(SingleNegativeAt(1, 4), P(1, -3, -1))

    def test_unit(self):
        assert pattern_matches(UnitRepresentation(3), P(-2, 1, 1, 1))
        assert not pattern_matches(UnitRepresentation(3, unit_only=True),
                                   P(-2, 1, 1, 1))
        assert pattern_matches(UnitRepresentation(2, unit_only=True),
                               P(-1, 1, 1))
        assert not pattern_matches(UnitRepresentation(2, unit_only=True),
                                   P(-1, 1))
        assert not pattern_matches(UnitRepresentation(2), P(1, 1))

    def test_zero_polynomial_never_matches(self):
        assert not pattern_matches(UnitRepresentation(2), IntPoly.zero())


class TestDescartesPrune:
    def test_no_positive_root_no_prune(self):
        assert descartes_prune(P(1, 1), MonicAtomPattern(2)) is None

    def test_single_root_within_ceiling(self):
        assert descartes_prune(CUBE, MonicAtomPattern(4)) is None

    def test_two_roots_beat_monic(self):
        res = descartes_prune(TWO_ROOTS, MonicAtomPattern(3))
        assert isinstance(res, InfeasibleProven)
        assert res.reason == "descartes" and res.scope == "all-degrees"
        assert res.positive_roots == 2 and res.max_variations == 1

    def test_two_roots_within_interior_ceiling(self):
        assert descartes_prune(TWO_ROOTS, SingleNegativeAt(1, 6)) is None

    def test_three_roots_beat_everything(self):
        res = descartes_prune(THREE_ROOTS, SingleNegativeAt(1, 6))
        assert isinstance(res, InfeasibleProven)
        assert res.positive_roots == 3 and res.max_variations == 2

    def test_multiplicity_counts(self):
        # (x - 1)^2 has one distinct but two counted positive roots.
        square = P(1, -2, 1)
        res = descartes_prune(square, UnitRepresentation(4))
        assert isinstance(res, InfeasibleProven)
        assert res.positive_roots == 2


class TestInputValidation:
    def test_constant_modulus(self):
        with pytest.raises(ValueError):
            integer_witness_search(P(5), UnitRepresentation(3))

    def test_root_at_zero(self):
        with pytest.raises(ValueError):
            integer_witness_search(P(0, -1, 1), UnitRepresentation(3))

    def test_monic_pattern_needs_monic_modulus(self):
        with pytest.raises(ValueError):
            integer_witness_search(BINOMIAL, MonicAtomPattern(3))

    def test_strong_prefix_rejected_by_integer_search(self):
        with pytest.raises(ValueError):
            integer_witness_search(CUBE, StrongPrefixPattern(4))


class TestMonicProbes:
    def test_degree_three_infeasible(self):
        res = integer_witness_search(CUBE, MonicAtomPattern(3))
        assert isinstance(res, InfeasibleProven)
        assert res.reason == "linear" and res.scope == "query"

    def test_degree_four_rational_but_not_integer(self):
        relaxed = rational_feasibility(CUBE, MonicAtomPattern(4))
        assert isinstance(relaxed, Witness)
        assert relaxed.multiplier == RatPoly((F(1, 2), F(1)))
        assert relaxed.product == RatPoly((F(-1), F(0), F(0), F(-15, 2), F(1)))
        exact = integer_witness_search(CUBE, MonicAtomPattern(4))
        assert isinstance(exact, InfeasibleProven)
        assert exact.reason == "linear" and exact.scope == "query"

    def test_degree_five_witness(self):
        res = integer_witness_search(CUBE, MonicAtomPattern(5))
        assert isinstance(res, Witness)
        assert res.multiplier == P(1, 2, 1)
        assert res.product == P(-2, 0, -2, -11, -6, 1)
        assert res.product == res.multiplier * CUBE
        assert pattern_matches(MonicAtomPattern(5), res.product)

    def test_power_below_degree_is_infeasible(self):
        res = integer_witness_search(CUBE, MonicAtomPattern(2))
        assert isinstance(res, InfeasibleProven)
        assert res.reason == "linear"


class TestStrongPrefixProbes:
    def test_degree_three_infeasible(self):
        res = rational_feasibility(CUBE, StrongPrefixPattern(3))
        assert isinstance(res, InfeasibleProven)
        assert res.reason == "linear" and res.scope == "query"

    def test_degree_four_witness_normalized(self):
        res = rational_feasibility(CUBE, StrongPrefixPattern(4))
        assert isinstance(res, Witness)
        assert res.multiplier == P(1, 2)
        assert res.product == P(-2, 0, 0, -15, 2)
        assert res.product == res.multiplier * CUBE
        assert pattern_matches(StrongPrefixPattern(4), res.product)


class TestScaleFreeKinds:
    def test_interior_negative_witness(self):
        res = integer_witness_search(TWO_ROOTS, SingleNegativeAt(1, 6))
        assert res == Witness(P(1), TWO_ROOTS)

    def test_unit_position_pruned_for_two_roots(self):
        res = integer_witness_search(TWO_ROOTS, UnitRepresentation(6))
        assert isinstance(res, InfeasibleProven)
        assert res.reason == "descartes" and res.scope == "all-degrees"

    def test_rational_route_matches_integer_route(self):
        kind = SingleNegativeAt(1, 6)
        a = integer_witness_search(TWO_ROOTS, kind)
        b = rational_feasibility(TWO_ROOTS, kind)
        assert a == b
        assert isinstance(a.multiplier, IntPoly)


class TestUnitOnly:
    def test_unit_decomposes_for_golden_sibling(self):
        # x^2 + x - 1: the positive root r satisfies 1 = r + r^2.
        m = P(-1, 1, 1)
        res = integer_witness_search(m, UnitRepresentation(4, unit_only=True))
        assert res == Witness(P(1), m)

    def test_unit_decomposes_for_half(self):
        # 2x - 1: the root 1/2 satisfies 1 = r + r.
        m = P(-1, 2)
        res = integer_witness_search(m, UnitRepresentation(3, unit_only=True))
        assert res == Witness(P(1), m)

    def test_unit_atom_for_one(self):
        # x - 1: 1 never decomposes into at least two positive terms.
        m = P(-1, 1)
        res = integer_witness_search(m, UnitRepresentation(8, unit_only=True))
        assert isinstance(res, InfeasibleProven)
        assert res.reason == "linear" and res.scope == "query"

    def test_cube_unit_is_atom_within_cap(self):
        res = integer_witness_search(CUBE,
                                     UnitRepresentation(6, unit_only=True))
        assert isinstance(res, InfeasibleProven)
        assert res.reason == "linear" and res.scope == "query"

    def test_rational_route_keeps_rational_point(self):
        m = P(-1, 2)
        res = rational_feasibility(m, UnitRepresentation(2, unit_only=True))
        assert isinstance(res, Witness)
        assert res.multiplier == RatPoly((F(1),))


class TestCaps:
    @pytest.mark.parametrize("field,value", [
        ("max_witness_deg", 0), ("max_witness_deg", -3),
        ("max_coeff", -1), ("max_nodes", -1),
    ])
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=field):
            Caps(**{field: value})

    def test_zero_budgets_allowed(self):
        assert Caps(max_witness_deg=1, max_coeff=0, max_nodes=0).max_nodes == 0

    def test_node_budget_exhaustion(self):
        res = integer_witness_search(CUBE, MonicAtomPattern(5),
                                     Caps(max_nodes=1))
        assert isinstance(res, ExhaustedCaps)

    def test_witness_degree_cap_limits_probes(self):
        # A degree cap below every admissible product degree leaves the
        # sweep with nothing to do, which is a (trivial) proof.
        res = integer_witness_search(CUBE,
                                     UnitRepresentation(12, unit_only=True),
                                     Caps(max_witness_deg=2))
        assert isinstance(res, InfeasibleProven)

    def test_golden_unit_only_infeasible(self):
        res = integer_witness_search(GOLDEN,
                                     UnitRepresentation(6, unit_only=True))
        assert isinstance(res, InfeasibleProven)


def per_degree_reference(m, kind, caps):
    """The ascending per-degree elimination scan, kept as the reference
    for the scale-free kinds' single cone question."""
    degrees = _probe_degrees(m, kind, caps)
    for prod_deg in degrees:
        point = feasible_point(_pattern_rows(m, kind, prod_deg),
                               prod_deg - m.degree + 1)
        if point is not None:
            _, f = RatPoly(point).primitive_part()
            return Witness(f, f * m)
    return InfeasibleProven(
        "linear", "query",
        note=f"rationally infeasible at product degrees {degrees!r}")


def seeded_scale_free_cases():
    rng = random.Random(2024)
    cases = [(P(-1, 0, -3, 2), SingleNegativeAt(0, 10), 10),
             (TWO_ROOTS, SingleNegativeAt(1, 10), 10)]
    while len(cases) < 60:
        d = rng.randint(2, 4)
        cs = [rng.randint(-4, 4) for _ in range(d + 1)]
        if cs[0] == 0 or cs[-1] == 0:
            continue
        k = rng.randint(0, 2)
        cap = rng.randint(max(k, 1), 10)
        kind = (UnitRepresentation(cap) if k == 0 and rng.random() < 0.5
                else SingleNegativeAt(k, cap))
        cases.append((IntPoly(cs), kind, rng.randint(1, 10)))
    return cases + wide_scale_free_cases()


def wide_scale_free_cases():
    """Caps up to 24, leads in [-4, 4], with and without a positive root.

    A negative lead with no positive root can leave a multiplier
    coefficient unbounded below, where the rule of taking the upper end
    applies.

    Only probes whose reference scan stops by 6 multiplier unknowns are
    kept: eliminating at the higher degrees of a quartic can take
    seconds, which is what the single simplex saves.
    """
    rng = random.Random(1982)
    cases = []
    while len(cases) < 60:
        d = rng.randint(2, 4)
        cs = [rng.randint(-4, 4) for _ in range(d + 1)]
        k = rng.randint(0, 2)
        cap = rng.randint(max(k, 1), 24)
        if not cs[0] or not cs[-1]:
            continue
        kind = (UnitRepresentation(cap) if k == 0 and rng.random() < 0.5
                else SingleNegativeAt(k, cap))
        m = IntPoly(cs)
        got = rational_feasibility(m, kind, Caps(max_witness_deg=cap))
        last = got.product.degree if isinstance(got, Witness) else cap
        if last - d + 1 <= 6:
            cases.append((m, kind, cap))
    return cases


class TestConeRouteMatchesPerDegreeScan:
    @pytest.mark.parametrize("m,kind,max_deg", seeded_scale_free_cases())
    def test_same_result(self, m, kind, max_deg):
        caps = Caps(max_witness_deg=max_deg)
        got = rational_feasibility(m, kind, caps)
        assert repr(got) == repr(per_degree_reference(m, kind, caps))

    def test_cases_cover_both_answers(self):
        kinds = {type(per_degree_reference(m, kind, Caps(max_witness_deg=d)))
                 for m, kind, d in seeded_scale_free_cases()}
        assert kinds == {Witness, InfeasibleProven}

    def test_wide_cases_cover_every_shape(self):
        cases = wide_scale_free_cases()
        assert sum(cap > 10 and isinstance(
            rational_feasibility(m, kind, Caps(max_witness_deg=cap)), Witness)
            for m, kind, cap in cases) >= 10
        assert sum(positive_root_count(m) == 0 for m, _, _ in cases) >= 10
        assert sum(m.coeffs[0] < 0 for m, _, _ in cases) >= 10
        assert sum(m.lead < 0 and positive_root_count(m) == 0
                   for m, _, _ in cases) >= 5


def per_degree_integer_reference(m, kind, caps):
    """The integer-pinned route without the root box or the residue
    relaxation: Descartes, then per probed degree one projection chain
    and the sweep over it."""
    pruned = descartes_prune(m, kind)
    if pruned is not None:
        return pruned
    budget = _NodeBudget(caps.max_nodes)
    degrees = _probe_degrees(m, kind, caps)
    all_complete = True
    for prod_deg in degrees:
        chain = projection_chain(_pattern_rows(m, kind, prod_deg),
                                 prod_deg - m.degree + 1)
        if chain is None:
            continue
        sol, complete = _integer_sweep(chain, caps, budget)
        if sol is not None:
            f = IntPoly(sol)
            return Witness(f, f * m)
        all_complete = all_complete and complete
        if budget.left <= 0:
            all_complete = False
            break
    if all_complete:
        return InfeasibleProven(
            "linear", "query",
            note=f"no integer solution at product degrees {degrees!r}")
    return ExhaustedCaps(note="integer sweep stopped by caps")


def root_in_unit_interval(m):
    """Whether m, with m(1) != 0, has a root strictly between 0 and 1,
    by refining the isolating intervals of its positive roots past 1."""
    for r in isolate_positive_roots(m):
        while r.lo < 1 <= r.hi:
            r = r.refined(r.width / 2)
        if r.hi < 1:
            return True
    return False


def seeded_monic(seed, count, degrees, below_one):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        cs = [rng.randint(-4, 4) for _ in range(rng.choice(degrees))] + [1]
        m = IntPoly(cs)
        if cs[0] and m(1) and root_in_unit_interval(m) == below_one:
            out.append((m, rng.randint(m.degree, 10 if below_one else 8)))
    return out


class CallCounter:
    """Wraps a function and records the arguments of every call."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = []

    def __call__(self, *args):
        self.calls.append(args)
        return self.fn(*args)


@pytest.fixture
def simplex_calls(monkeypatch):
    """signsearch's ``lexicographic_point`` calls, split into cone tests
    (no forms), recorded as (gens, target), and witness LPs."""
    cone, lex = [], []
    simplex = signsearch.lexicographic_point

    def recorded(gens, target, forms):
        if forms:
            lex.append((gens, target, forms))
        else:
            cone.append((gens, target))
        return simplex(gens, target, forms)
    monkeypatch.setattr(signsearch, "lexicographic_point", recorded)
    return cone, lex


@pytest.fixture
def cone_calls(simplex_calls):
    return simplex_calls[0]


@pytest.fixture
def lex_calls(simplex_calls):
    return simplex_calls[1]


@pytest.fixture
def chain_calls(monkeypatch):
    counter = CallCounter(_exactlp.projection_chain)
    monkeypatch.setattr(_exactlp, "projection_chain", counter)
    monkeypatch.setattr(signsearch, "projection_chain", counter)
    return counter.calls


class TestRootBox:
    @pytest.mark.parametrize("m,n", seeded_monic(31, 40, (2, 3, 4), True))
    def test_agrees_with_sweep(self, m, n):
        caps = Caps(max_nodes=2000)
        kind = MonicAtomPattern(n)
        assert not isinstance(per_degree_integer_reference(m, kind, caps),
                              Witness)
        got = integer_witness_search(m, kind, caps)
        assert isinstance(got, InfeasibleProven)
        assert got.scope == "all-degrees"
        # Two positive roots are refuted by Descartes first.
        assert got.reason == ("descartes" if positive_root_count(m) >= 2
                              else "root-box")

    def test_root_box_reason(self, chain_calls):
        # x^2 + x - 1: the golden ratio's reciprocal lies in (0, 1).
        res = integer_witness_search(P(-1, 1, 1), MonicAtomPattern(7))
        assert res == InfeasibleProven("root-box", "all-degrees")
        assert chain_calls == []

    def test_root_above_one_only(self):
        res = integer_witness_search(CUBE, MonicAtomPattern(3))
        assert res.reason == "linear"

    def test_rational_question_unaffected(self):
        res = rational_feasibility(P(-1, 1, 1), MonicAtomPattern(3))
        assert not (isinstance(res, InfeasibleProven)
                    and res.reason == "root-box")

    def test_count_atoms_stops_at_first_proof(self, chain_calls):
        # x^4 + 3x^3 + 4x^2 - x - 2 is atomic (|m(0)| = 2) with a root
        # in (0, 1): no power decomposes, and no degree is eliminated.
        spec = AlgebraicNumberSpec.from_polynomial(P(-2, -1, 4, 3, 1))
        count, _ = count_atoms(spec)
        assert count == AtLeast(Caps().max_witness_deg + 1)
        assert chain_calls == []


class TestMonicResidueCone:
    @pytest.mark.parametrize("m,n", seeded_monic(37, 40, (2, 3), False)
                             + [(CUBE, n) for n in range(5, 9)])
    def test_same_result(self, m, n):
        caps = Caps(max_nodes=500)
        kind = MonicAtomPattern(n)
        assert repr(integer_witness_search(m, kind, caps)) == repr(
            per_degree_integer_reference(m, kind, caps))

    def test_cone_cases_cover_every_answer(self):
        kinds = {type(per_degree_integer_reference(
                    m, MonicAtomPattern(n), Caps(max_nodes=500)))
                 for m, n in seeded_monic(37, 40, (2, 3), False)
                 if n >= 2 * m.degree}
        assert kinds == {Witness, InfeasibleProven, ExhaustedCaps}

    def test_asked_only_above_twice_the_degree(self, cone_calls):
        for n in range(3, 9):
            integer_witness_search(CUBE, MonicAtomPattern(n))
        # deg m = 3 rows against n - 2 unknowns: n = 6, 7, 8.
        assert [len(gens) for gens, _ in cone_calls] == [6, 7, 8]

    def test_flagship_never_asks(self, cone_calls):
        res = analyze(AlgebraicNumberSpec.from_polynomial(CUBE))
        assert res.pair == (Finite(4), Finite(5))
        assert cone_calls == []

    def test_refutes_without_elimination(self, chain_calls):
        # x^2 + 3x - 5: the conjugate -4.19... outweighs the root
        # 1.19..., and r_n is outside the cone of r_0..r_(n-1).
        m = P(-5, 3, 1)
        for n in range(4, 11):
            res = integer_witness_search(m, MonicAtomPattern(n))
            assert res == InfeasibleProven(
                "linear", "query",
                note=f"no integer solution at product degrees {[n]!r}")
        assert chain_calls == []


@pytest.fixture
def chain_sizes(monkeypatch):
    """The row count of the largest entry of every projection chain."""
    sizes = []

    def recorded(rows, n):
        chain = _exactlp.projection_chain(rows, n)
        if chain is not None:
            sizes.append(max(map(len, chain), default=0))
        return chain

    monkeypatch.setattr(signsearch, "projection_chain", recorded)
    return sizes


class TestPrunedChainsDecide:
    """Quartics whose integer-pinned probes need Chernikov's rule:
    keeping every Fourier-Motzkin combination, each analysis runs for
    more than 20 s (the monic-atom chain of x^4 - 4x^3 + 2x^2 + x - 1
    at n = 9 has 128835 rows in its first entry)."""

    @pytest.mark.parametrize("m,pair", [
        (P(-1, 1, 2, -4, 1), (Finite(8), Finite(10))),
        (P(-3, -3, 3, -2, 1), (Finite(10), Finite(10))),
        (P(-1, 4, -3, -3, 4), (Finite(0), Finite(0))),
    ])
    def test_decided_with_small_chains(self, chain_sizes, m, pair):
        spec = AlgebraicNumberSpec.from_polynomial(m)
        res = analyze(spec)
        assert res.pair == pair
        assert all(verify_certificate(c, spec.minimal_polynomial)
                   for c in res.certificates)
        assert chain_sizes and max(chain_sizes) <= 40


def seeded_unit_only_cases():
    rng = random.Random(41)
    # Degree caps stay at 8 or below: the reference's elimination on a
    # quadratic's 8 unknowns takes 6 s at cap 9 (3x^2 - x - 1).
    cases = [(P(-1, 3, 2, -3, 1), 6), (P(-1, -1, 1), 4), (P(-1, 2), 3),
             (P(-1, 1), 8), (P(-1, -1, 3), 8)]
    while len(cases) < 50:
        d = rng.randint(2, 4)
        cs = [rng.randint(-4, 4) for _ in range(d + 1)]
        if cs[0] and cs[-1]:
            cases.append((IntPoly(cs), rng.randint(1, 8)))
    return cases


class TestUnitOnlyRelaxation:
    @pytest.mark.parametrize("m,cap", seeded_unit_only_cases())
    def test_same_result(self, m, cap):
        caps = Caps(max_witness_deg=cap, max_nodes=500)
        kind = UnitRepresentation(cap, unit_only=True)
        assert repr(integer_witness_search(m, kind, caps)) == repr(
            per_degree_integer_reference(m, kind, caps))

    def test_cases_cover_every_answer(self):
        kinds = {type(per_degree_integer_reference(
                    m, UnitRepresentation(cap, unit_only=True),
                    Caps(max_witness_deg=cap, max_nodes=500)))
                 for m, cap in seeded_unit_only_cases()}
        assert kinds == {Witness, InfeasibleProven, ExhaustedCaps}

    def test_refuted_quadratic_reaches_the_table(self, chain_calls):
        res = analyze(AlgebraicNumberSpec.from_polynomial(P(-1, -1, 3)))
        assert res.pair == (Finite(2), Infinite("non-monic"))
        assert chain_calls == []


class TestScaleFreeLowestDegreeFirst:
    def test_small_feasible_probe_asks_once(self, cone_calls, lex_calls):
        res = rational_feasibility(TWO_ROOTS, SingleNegativeAt(1, 24))
        assert res == Witness(P(1), TWO_ROOTS)
        # x^2 - 3x + 1 is feasible at the lowest degree as well.
        m = P(1, -3, 1)
        assert repr(rational_feasibility(m, SingleNegativeAt(1, 24))) == \
            repr(per_degree_reference(m, SingleNegativeAt(1, 24), Caps()))
        # One question per probe at degree 2, r_1 against r_0 and r_2:
        # the lexicographic LP, whose phase 1 is the cone test.
        assert [len(gens) for gens, _, _ in lex_calls] == [2, 2]
        assert cone_calls == []

    def test_infeasible_low_degree_then_top(self, cone_calls, lex_calls):
        m = P(-1, 0, -3, 2)
        res = rational_feasibility(m, SingleNegativeAt(0, 10),
                                   Caps(max_witness_deg=10))
        assert res == per_degree_reference(m, SingleNegativeAt(0, 10),
                                           Caps(max_witness_deg=10))
        # Degree 3 by the lexicographic LP (outside the cone), then the
        # top degree by the cone LP.
        assert len(lex_calls[0][0]) == 3
        assert [len(gens) for gens, _ in cone_calls][:1] == [10]


def strong_prefix_reference(m, kind):
    """The elimination route for a strong-prefix probe: the walk over
    the multiplier's coefficients at product degree s."""
    s = kind.degree
    point = feasible_point(_pattern_rows(m, kind, s), s - m.degree + 1)
    if point is None:
        return InfeasibleProven(
            "linear", "query",
            note=f"rationally infeasible at product degrees {[s]!r}")
    _, f = (-RatPoly(point)).primitive_part()
    return Witness(f, f * m)


def seeded_strong_prefix_cases():
    """s in [2d, 2d + 3], where the residue system is the smaller one.

    Quartics stop at s = 2d: elimination on their 6 or more unknowns
    can take seconds.
    """
    rng = random.Random(1607)
    cases = []
    while len(cases) < 60:
        d = rng.randint(2, 4)
        cs = [rng.randint(-4, 4) for _ in range(d)] + [rng.randint(1, 4)]
        s = rng.randint(2 * d, 2 * d + 3)
        if cs[0] and (d < 4 or s == 2 * d):
            cases.append((IntPoly(cs), StrongPrefixPattern(s)))
    return cases


class TestLexicographicWitness:
    @pytest.mark.parametrize("m,kind", seeded_strong_prefix_cases())
    def test_strong_prefix_matches_elimination(self, m, kind):
        assert repr(rational_feasibility(m, kind)) == repr(
            strong_prefix_reference(m, kind))

    def test_strong_prefix_cases_cover_both_answers(self):
        kinds = {type(strong_prefix_reference(m, kind))
                 for m, kind in seeded_strong_prefix_cases()}
        assert kinds == {Witness, InfeasibleProven}

    def test_single_negative_without_elimination(self, chain_calls):
        res = rational_feasibility(TWO_ROOTS, SingleNegativeAt(1, 24))
        assert res == Witness(P(1), TWO_ROOTS)
        assert chain_calls == []

    def test_large_strong_prefix_without_elimination(self, chain_calls):
        # x^4 - 4x^3 + 4x^2 + x - 4 at s = 8: 4 rows against the 5
        # unknowns elimination would handle.
        m = P(-4, 1, 4, -4, 1)
        res = rational_feasibility(m, StrongPrefixPattern(8))
        assert chain_calls == []
        assert repr(res) == repr(
            strong_prefix_reference(m, StrongPrefixPattern(8)))

    def test_small_strong_prefix_keeps_elimination(self, lex_calls):
        # The flagship at s = 4: 2 unknowns against 3 rows.
        res = rational_feasibility(CUBE, StrongPrefixPattern(4))
        assert res == Witness(P(1, 2), P(-2, 0, 0, -15, 2))
        assert lex_calls == []

    def test_family_never_asks(self, lex_calls):
        for k, c in ((1, 0), (1, 3), (2, 0), (2, 2), (3, 1)):
            m, expected = family_polynomial(FamilyParams(k, c))
            res = analyze(AlgebraicNumberSpec.from_polynomial(m),
                          Caps(max_witness_deg=5 * k + c))
            assert res.pair == expected.pair
        assert lex_calls == []

    def test_high_degree_witness(self):
        # Elimination on this probe's 10 unknowns ran for minutes; the
        # lowest feasible product degree is 13.
        m = P(2, -4, -4, 2, 3)
        kind = SingleNegativeAt(1, 24)
        res = rational_feasibility(m, kind)
        assert isinstance(res, Witness) and res.product.degree == 13
        assert verify_certificate(MultiplierWitness(
            "non-strong-power", res.multiplier, res.product, kind), m)
