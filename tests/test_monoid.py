import copy
import dataclasses
import pickle
from fractions import Fraction as F

import pytest

from semidomain_atoms import (AlgebraicNumberSpec, AtLeast, Atomic,
                              AtomicityDetector, BinomialRelation, Caps,
                              Degree2Case, DescartesBound, EisensteinPrime,
                              Finite, Infinite, IntPoly, MonicAtomPattern,
                              MultiplierWitness, NotAtomic, PairResult,
                              RatPoly,
                              SingleNegativeAt, StrongPrefixPattern,
                              TransformScaling, UfmMinimalPair,
                              UndecidedAtomicity, UnitRepresentation,
                              UnsupportedInputError,
                              Witness, analyze, atomicity_check,
                              binomial_check, classify_degree2, count_atoms,
                              count_strong_atoms, counts_equal,
                              substitute_power, ufm_check, verify_certificate)
from semidomain_atoms.irreducibility import FactorSearchCaps, Irreducible
from semidomain_atoms.monoid import count_le, is_decided

from conftest import BINOMIAL, CUBE, GOLDEN, P, THREE_ROOTS, TWO_ROOTS


def spec_of(m, **kw):
    return AlgebraicNumberSpec.from_polynomial(m, **kw)


class TestCounts:
    def test_str_forms(self):
        assert str(Finite(3)) == "3"
        assert str(Infinite("whatever")) == "infinite"
        assert str(AtLeast(2)) == ">=2 (undecided)"

    def test_is_decided(self):
        assert is_decided(Finite(0)) and is_decided(Infinite("r"))
        assert not is_decided(AtLeast(5))

    def test_count_le(self):
        assert count_le(Finite(2), Finite(2))
        assert count_le(Finite(2), Infinite("r"))
        assert count_le(Infinite("a"), Infinite("b"))
        assert not count_le(Infinite("a"), Finite(99))
        assert not count_le(Finite(3), Finite(2))

    def test_counts_equal_ignores_reasons(self):
        assert counts_equal(Infinite("non-monic"), Infinite("binomial"))
        assert counts_equal(Finite(4), Finite(4))
        assert not counts_equal(Finite(4), Finite(5))
        assert not counts_equal(Finite(4), Infinite("r"))
        assert not counts_equal(AtLeast(4), AtLeast(4))

    def test_pair_invariant(self):
        with pytest.raises(ValueError):
            PairResult(Finite(3), Finite(2))
        with pytest.raises(ValueError):
            PairResult(Infinite("r"), Finite(2))
        assert PairResult(AtLeast(5), Finite(2)).decided is False
        ok = PairResult(Finite(2), Infinite("r"))
        assert ok.pair == (Finite(2), Infinite("r")) and ok.decided


class TestSpecConstruction:
    def test_normalization(self):
        scaled = IntPoly(tuple(-3 * c for c in CUBE.coeffs))
        spec = spec_of(scaled)
        assert spec.minimal_polynomial == CUBE
        assert spec.degree == 3
        assert isinstance(spec.irreducibility, Irreducible)
        assert spec.root is not None

    def test_constant_rejected(self):
        with pytest.raises(UnsupportedInputError):
            spec_of(P(5))

    def test_zero_root_rejected(self):
        with pytest.raises(UnsupportedInputError,
                           match="zero is not a positive"):
            spec_of(P(0, 1, 1))

    def test_reducible_rejected(self):
        with pytest.raises(UnsupportedInputError,
                           match="not a minimal polynomial"):
            spec_of(P(2, -3, 1))  # (x - 1)(x - 2)

    def test_uncertifiable_rejected(self):
        with pytest.raises(UnsupportedInputError, match="could not certify"):
            spec_of(P(1, 0, -10, 0, 1),
                    factor_caps=FactorSearchCaps(max_candidates=1))

    def test_assume_irreducible_bypasses(self):
        spec = spec_of(P(1, 0, -10, 0, 1),
                       assume_irreducible=True,
                       factor_caps=FactorSearchCaps(max_candidates=1))
        assert spec.assumed_irreducible and spec.irreducibility is None

    def test_no_positive_root_spec(self):
        spec = spec_of(P(1, 1))
        assert spec.root is None


class TestAtomicity:
    def test_constant_magnitude(self):
        res = atomicity_check(spec_of(CUBE))
        assert res == Atomic(AtomicityDetector("constant-magnitude", "-2"))

    def test_two_positive_roots(self):
        res = atomicity_check(spec_of(TWO_ROOTS))
        assert res == Atomic(AtomicityDetector("two-positive-roots", "2"))

    def test_root_exceeds_one(self):
        res = atomicity_check(spec_of(GOLDEN))
        assert res == Atomic(AtomicityDetector("root-exceeds-one"))

    def test_explicit_decomposition_of_one(self):
        res = atomicity_check(spec_of(P(-1, 2)))
        assert isinstance(res, NotAtomic)
        assert res.witness == Witness(P(1), P(-1, 2))

    def test_undecided_for_one(self):
        res = atomicity_check(spec_of(P(-1, 1)), Caps(max_witness_deg=6))
        assert isinstance(res, UndecidedAtomicity)
        assert "no proof" in res.note


class TestShapeDetectors:
    def test_ufm_golden(self):
        res = ufm_check(spec_of(GOLDEN))
        assert res is not None
        assert res.pair == (Finite(2), Finite(2))
        assert res.certificates == (UfmMinimalPair(P(0, 0, 1), P(1, 1)),)

    def test_ufm_sqrt2(self):
        res = ufm_check(spec_of(P(-2, 0, 1)))
        assert res is not None and res.pair == (Finite(2), Finite(2))

    def test_ufm_misses_cube(self):
        assert ufm_check(spec_of(CUBE)) is None

    def test_binomial_hit(self):
        res = binomial_check(spec_of(BINOMIAL))
        assert res is not None
        assert res.pair == (Finite(0), Infinite("binomial"))
        assert res.certificates == (BinomialRelation(a=3, b=2, n=2),)

    def test_binomial_needs_both_large(self):
        assert binomial_check(spec_of(P(-2, 0, 1))) is None  # b = 1
        assert binomial_check(spec_of(P(-1, 2))) is None  # a = 1
        assert binomial_check(spec_of(CUBE)) is None  # not two-term


class TestDegree2Classifier:
    def test_all_positive(self):
        res = classify_degree2(1, 1, 1, "AllPositive")
        assert res.pair == (Finite(0), Finite(0))
        assert Degree2Case(1, "antimatter") in res.certificates

    def test_pos_pos_neg_unit_constant(self):
        res = classify_degree2(1, 1, 1, "PosPosNeg")
        assert res.pair == (Finite(0), Finite(0))
        assert Degree2Case(2, "c=1") in res.certificates

    def test_pos_pos_neg_larger_constant(self):
        res = classify_degree2(1, 1, 3, "PosPosNeg")
        assert res.strong == Finite(0)
        assert isinstance(res.atoms, Infinite)
        assert Degree2Case(2, "c>1") in res.certificates

    def test_pos_neg_pos(self):
        res = classify_degree2(1, 3, 1, "PosNegPos")
        assert res.strong == Finite(1)
        assert isinstance(res.atoms, Infinite)
        assert Degree2Case(3, "") in res.certificates

    def test_pos_neg_neg_monic(self):
        res = classify_degree2(1, 1, 1, "PosNegNeg")
        assert res.pair == (Finite(2), Finite(2))
        assert Degree2Case(4, "a=1") in res.certificates

    def test_pos_neg_neg_nonmonic(self):
        res = classify_degree2(2, 1, 2, "PosNegNeg")
        assert res.strong == Finite(2)
        assert isinstance(res.atoms, Infinite)
        assert Degree2Case(4, "a>1") in res.certificates

    def test_unknown_form(self):
        with pytest.raises(UnsupportedInputError, match="unknown form"):
            classify_degree2(1, 1, 1, "NegNegNeg")

    def test_nonpositive_coefficient(self):
        with pytest.raises(UnsupportedInputError, match="positive integers"):
            classify_degree2(1, 0, 1, "PosNegPos")

    def test_imprimitive(self):
        with pytest.raises(UnsupportedInputError, match="not primitive"):
            classify_degree2(2, 2, 2, "PosNegNeg")

    def test_square_discriminant(self):
        with pytest.raises(UnsupportedInputError, match="reducible"):
            classify_degree2(1, 1, 2, "PosPosNeg")  # (x + 2)(x - 1)
        with pytest.raises(UnsupportedInputError, match="reducible"):
            classify_degree2(1, 4, 4, "AllPositive")  # (x + 2)^2

    def test_no_real_root(self):
        with pytest.raises(UnsupportedInputError, match="real root"):
            classify_degree2(1, 1, 1, "PosNegPos")

    def test_certificates_verify(self):
        cases = [(1, 1, 1, "AllPositive"), (1, 1, 1, "PosPosNeg"),
                 (1, 1, 3, "PosPosNeg"), (1, 3, 1, "PosNegPos"),
                 (1, 1, 1, "PosNegNeg"), (2, 1, 2, "PosNegNeg")]
        for a, b, c, form in cases:
            res = classify_degree2(a, b, c, form)
            sb = b if form in ("AllPositive", "PosPosNeg") else -b
            sc = c if form in ("AllPositive", "PosNegPos") else -c
            m = P(sc, sb, a)
            for cert in res.certificates:
                assert verify_certificate(cert, m), (form, cert)


class TestCountAtoms:
    def test_cube(self):
        count, certs = count_atoms(spec_of(CUBE))
        assert count == Finite(5)
        kinds = [type(c) for c in certs]
        assert kinds == [AtomicityDetector, MultiplierWitness]
        wit = certs[1]
        assert wit.role == "atom-decomposition"
        assert wit.multiplier == P(1, 2, 1)
        assert wit.product == P(-2, 0, -2, -11, -6, 1)

    def test_non_monic_infinite(self):
        count, certs = count_atoms(spec_of(BINOMIAL))
        assert count == Infinite("non-monic")
        assert AtomicityDetector("non-monic-lead", "2") in certs

    def test_two_roots_infinite(self):
        count, certs = count_atoms(spec_of(TWO_ROOTS))
        assert count == Infinite("two-positive-roots")
        assert any(isinstance(c, DescartesBound)
                   and c.role == "all-powers-atoms" for c in certs)

    def test_not_atomic_zero(self):
        count, certs = count_atoms(spec_of(P(-1, 2)))
        assert count == Finite(0)
        assert certs[0].role == "non-atomicity"

    def test_undecided_atomicity(self):
        count, certs = count_atoms(spec_of(P(-1, 1)), Caps(max_witness_deg=6))
        assert count == AtLeast(0) and certs == ()

    def test_degree_cap_gives_lower_bound(self):
        count, _ = count_atoms(spec_of(CUBE), Caps(max_witness_deg=4))
        assert count == AtLeast(5)

    def test_node_cap_gives_lower_bound(self):
        count, _ = count_atoms(spec_of(CUBE), Caps(max_nodes=1))
        assert count == AtLeast(5)

    def test_golden_immediate(self):
        count, _ = count_atoms(spec_of(GOLDEN))
        assert count == Finite(2)


class TestCountStrongAtoms:
    def test_three_roots(self):
        count, certs = count_strong_atoms(spec_of(THREE_ROOTS))
        assert count == Infinite("three-positive-roots")
        assert certs == (DescartesBound("three-positive-conjugates", 3, 2),)

    def test_cube_prefix(self):
        spec = spec_of(CUBE)
        count, certs = count_strong_atoms(spec, atoms=Finite(5))
        assert count == Finite(4)
        (wit,) = certs
        assert wit.role == "strong-prefix"
        assert wit.multiplier == P(1, 2)
        assert wit.product == P(-2, 0, 0, -15, 2)

    def test_two_roots_scan(self):
        spec = spec_of(TWO_ROOTS)
        count, certs = count_strong_atoms(spec)
        assert count == Finite(1)
        assert isinstance(certs[0], DescartesBound)
        assert certs[0].role == "strong-at-0"
        wit = certs[-1]
        assert wit.role == "non-strong-power"
        assert wit.multiplier == P(1) and wit.product == TWO_ROOTS
        assert wit.pattern.power == 1

    def test_binomial_scan(self):
        count, certs = count_strong_atoms(spec_of(BINOMIAL))
        assert count == Finite(0)
        assert certs[-1].product == BINOMIAL

    @pytest.mark.parametrize("poly", [P(-1, 1, 1), P(-1, 1, 1, 1)])
    def test_not_atomic_gives_zero(self, poly):
        # 1 decomposes, so no power is an atom, let alone a strong one.
        spec = spec_of(poly)
        count, certs = count_strong_atoms(spec)
        assert count == Finite(0)
        (wit,) = certs
        assert wit.role == "non-atomicity"
        assert verify_certificate(wit, poly)
        assert count_strong_atoms(spec, atoms=Finite(0)) == (count, certs)
        assert count_atoms(spec) == (count, certs)
        assert analyze(spec) == PairResult(count, count, certs)

    def test_undecided_atoms_give_bound(self):
        count, _ = count_strong_atoms(spec_of(P(-1, 1)),
                                      Caps(max_witness_deg=6))
        assert count == AtLeast(0)


class TestAnalyze:
    @pytest.mark.parametrize("poly,strong,atoms", [
        (P(1, 1), Finite(0), Finite(0)),
        (P(1, 1, 1), Finite(0), Finite(0)),
        (P(-1, 1, 1), Finite(0), Finite(0)),
        (P(-3, 1, 1), Finite(0), Infinite("")),
        (TWO_ROOTS, Finite(1), Infinite("")),
        (GOLDEN, Finite(2), Finite(2)),
        (P(-2, -1, 2), Finite(2), Infinite("")),
        (CUBE, Finite(4), Finite(5)),
        (THREE_ROOTS, Infinite(""), Infinite("")),
        (BINOMIAL, Finite(0), Infinite("")),
        (P(-2, 0, 1), Finite(2), Finite(2)),
        (P(-1, 1), Finite(1), Finite(1)),
        (P(-1, 2), Finite(0), Finite(0)),
    ])
    def test_battery(self, poly, strong, atoms):
        res = analyze(spec_of(poly))
        assert counts_equal(res.strong, strong), res
        assert counts_equal(res.atoms, atoms), res

    def test_battery_certificates_verify(self):
        for poly in (P(1, 1), P(-1, 1, 1), TWO_ROOTS, GOLDEN, CUBE,
                     THREE_ROOTS, BINOMIAL, P(-2, 0, 1), P(-1, 2)):
            spec = spec_of(poly)
            res = analyze(spec)
            for cert in res.certificates:
                assert verify_certificate(cert, spec.minimal_polynomial), \
                    (poly, cert)

    def test_cube_certificate_chain(self):
        res = analyze(spec_of(CUBE))
        roles = [getattr(c, "role", getattr(c, "kind", ""))
                 for c in res.certificates]
        assert roles == ["constant-magnitude", "atom-decomposition",
                         "strong-prefix"]

    def test_general_route_matches_detectors(self):
        decided = 0
        for poly in (BINOMIAL, TWO_ROOTS, GOLDEN, P(-2, -1, 2), P(-2, 0, 1)):
            spec = spec_of(poly)
            fast = analyze(spec)
            slow = analyze(spec, general_only=True)
            for shortcut, engine in ((fast.strong, slow.strong),
                                     (fast.atoms, slow.atoms)):
                if is_decided(engine):
                    decided += 1
                    assert counts_equal(shortcut, engine), poly
        # The engine decides all but the strong count of 2x^2 - x - 2:
        # witness infeasibility below the degree cap proves nothing, so
        # that component stays a lower bound.
        assert decided == 9

    def test_general_only_can_stay_undecided(self):
        res = analyze(spec_of(P(-1, -1, 8)),
                      Caps(max_witness_deg=6, max_nodes=2000),
                      general_only=True)
        assert not res.decided
        assert res.strong == AtLeast(0) and res.atoms == AtLeast(0)

    def test_uncertified_spec_rejected(self):
        bare = AlgebraicNumberSpec(CUBE, None, False, None)
        with pytest.raises(UnsupportedInputError, match="certificate"):
            analyze(bare)

    def test_assumed_spec_accepted(self):
        spec = spec_of(CUBE, assume_irreducible=True)
        assert analyze(spec).pair == (Finite(4), Finite(5))

    def test_no_positive_root_out_of_scope(self):
        with pytest.raises(UnsupportedInputError, match="positive real root"):
            analyze(spec_of(P(2, -2, 1)))

    def test_caps_produce_honest_bounds(self):
        res = analyze(spec_of(CUBE), Caps(max_witness_deg=4))
        assert res.strong == AtLeast(0) and res.atoms == AtLeast(5)
        assert not res.decided


class TestVerifyCertificate:
    def test_multiplier_witness(self):
        good = MultiplierWitness("strong-prefix", P(1, 2),
                                 P(-2, 0, 0, -15, 2), StrongPrefixPattern(4))
        assert verify_certificate(good, CUBE)
        wrong_product = MultiplierWitness("strong-prefix", P(1, 2),
                                          P(-2, 0, 0, -15, 3),
                                          StrongPrefixPattern(4))
        assert not verify_certificate(wrong_product, CUBE)
        wrong_pattern = MultiplierWitness("strong-prefix", P(1, 2),
                                          P(-2, 0, 0, -15, 2),
                                          MonicAtomPattern(4))
        assert not verify_certificate(wrong_pattern, CUBE)

    def test_descartes_bound(self):
        good = DescartesBound("strong-at-0", 2, 1, UnitRepresentation(2))
        assert verify_certificate(good, TWO_ROOTS)
        assert not verify_certificate(good, CUBE)  # root count differs
        not_pruning = DescartesBound("strong-at-0", 1, 1,
                                     UnitRepresentation(2))
        assert not verify_certificate(not_pruning, CUBE)
        wrong_ceiling = DescartesBound("strong-at-0", 2, 2,
                                       UnitRepresentation(2))
        assert not verify_certificate(wrong_ceiling, TWO_ROOTS)

    def test_binomial(self):
        assert verify_certificate(BinomialRelation(3, 2, 2), BINOMIAL)
        assert not verify_certificate(BinomialRelation(3, 2, 2), CUBE)
        assert not verify_certificate(BinomialRelation(1, 2, 1), P(-1, 2))

    def test_degree2(self):
        assert verify_certificate(Degree2Case(3, ""), TWO_ROOTS)
        assert not verify_certificate(Degree2Case(3, ""), GOLDEN)
        assert verify_certificate(Degree2Case(4, "a=1"), GOLDEN)
        assert not verify_certificate(Degree2Case(4, "a>1"), GOLDEN)
        assert verify_certificate(Degree2Case(2, "c=1"), P(-1, 1, 1))
        assert not verify_certificate(Degree2Case(2, "c=1"), P(-3, 1, 1))
        assert not verify_certificate(Degree2Case(1, "antimatter"), CUBE)
        assert not verify_certificate(Degree2Case(9, ""), TWO_ROOTS)

    def test_eisenstein(self):
        assert verify_certificate(EisensteinPrime(2), CUBE)
        assert not verify_certificate(EisensteinPrime(2), TWO_ROOTS)
        assert not verify_certificate(EisensteinPrime(4), CUBE)
        assert not verify_certificate(EisensteinPrime(2), P(-4, 0, 1))

    def test_transform_scaling(self):
        cert = TransformScaling(2, CUBE, Finite(4), Finite(5))
        assert verify_certificate(cert, substitute_power(CUBE, 2))
        assert not verify_certificate(cert, CUBE)
        assert not verify_certificate(
            TransformScaling(0, CUBE, Finite(4), Finite(5)), CUBE)

    def test_ufm_pair(self):
        assert verify_certificate(UfmMinimalPair(P(0, 0, 1), P(1, 1)), GOLDEN)
        assert not verify_certificate(UfmMinimalPair(P(0, 0, 1), P(2)),
                                      GOLDEN)
        assert not verify_certificate(
            UfmMinimalPair(P(0, 4, 0, 1), P(2, 0, 8)), CUBE)

    def test_atomicity_detectors(self):
        yes = [
            (AtomicityDetector("all-nonnegative-coefficients"), P(1, 1)),
            (AtomicityDetector("constant-magnitude", "-2"), CUBE),
            (AtomicityDetector("two-positive-roots", "2"), TWO_ROOTS),
            (AtomicityDetector("root-exceeds-one"), GOLDEN),
            (AtomicityDetector("non-monic-lead", "2"), BINOMIAL),
        ]
        for cert, m in yes:
            assert verify_certificate(cert, m), cert
        no = [
            (AtomicityDetector("all-nonnegative-coefficients"), CUBE),
            (AtomicityDetector("constant-magnitude"), P(-1, 2)),
            (AtomicityDetector("two-positive-roots"), CUBE),
            (AtomicityDetector("root-exceeds-one"), P(-1, 2)),
            (AtomicityDetector("non-monic-lead"), CUBE),
            (AtomicityDetector("made-up-kind"), CUBE),
        ]
        for cert, m in no:
            assert not verify_certificate(cert, m), cert

    def test_unknown_certificate_type(self):
        with pytest.raises(TypeError):
            verify_certificate("bogus", CUBE)


def _value_objects(obj):
    """obj and every dataclass instance reachable through its fields."""
    yield obj
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _value_objects(getattr(obj, f.name))
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _value_objects(item)


# The flagship; a quadratic settled by the degree-2 table once the
# unit-only relaxation is refuted; a quartic whose 1 decomposes.
PICKLE_CASES = [CUBE, P(-1, -1, 3), P(-1, 3, 2, -3, 1)]


class TestValueClasses:
    @pytest.mark.parametrize("poly", PICKLE_CASES)
    def test_results_round_trip(self, poly):
        res = analyze(spec_of(poly))
        assert pickle.loads(pickle.dumps(res)) == res
        assert copy.deepcopy(res) == res
        assert repr(copy.copy(res)) == repr(res)

    def test_polynomials_round_trip(self):
        for poly in (CUBE, RatPoly((F(1, 2), 3)), IntPoly(()), RatPoly(())):
            for back in (pickle.loads(pickle.dumps(poly)),
                         copy.deepcopy(poly)):
                assert back == poly and type(back) is type(poly)

    @pytest.mark.parametrize("poly", [CUBE, P(-1, -1, 3)])
    def test_specs_round_trip(self, poly):
        spec = spec_of(poly)
        for back in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
            assert back == spec
            assert back.root._chain.polys == spec.root._chain.polys
            assert analyze(back) == analyze(spec)

    @pytest.mark.parametrize("poly", PICKLE_CASES)
    def test_no_instance_dict(self, poly):
        spec = spec_of(poly)
        found = list(_value_objects(analyze(spec)))
        found += [spec.irreducibility, atomicity_check(spec), Caps(),
                  spec.root, spec.root._chain]
        assert len(found) > 3
        for obj in found:
            assert not hasattr(obj, "__dict__"), type(obj)

    def test_value_classes_refuse_setattr(self):
        spec = spec_of(CUBE)
        for obj in (CUBE, CUBE.to_rat(), spec.root._chain, spec.root):
            name = type(obj).__name__
            with pytest.raises(AttributeError, match=f"{name} is immutable"):
                obj.coeffs = ()
