"""Soundness checks must hold under ``python -O``, which strips asserts."""

import ast
import pathlib
from fractions import Fraction

import pytest

from semidomain_atoms import (MonicAtomPattern, SingleNegativeAt,
                              StrongPrefixPattern, _exactlp,
                              certify_irreducible, integer_witness_search,
                              irreducibility, rational_feasibility,
                              signsearch)

from conftest import CUBE, P, TWO_ROOTS

PACKAGE = pathlib.Path(signsearch.__file__).parent


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


@pytest.mark.parametrize("search", [
    # The integer sweep's witness (x^2 + 2x + 1).
    lambda: integer_witness_search(CUBE, MonicAtomPattern(5)),
    # The rational relaxation point of an integer-pinned kind.
    lambda: rational_feasibility(CUBE, MonicAtomPattern(5)),
    # The canonical integer witness of a scale-free kind (2x + 1).
    lambda: rational_feasibility(CUBE, StrongPrefixPattern(4)),
], ids=["sweep", "relaxation", "canonical"])
def test_rejected_witness_raises(monkeypatch, search):
    monkeypatch.setattr(signsearch, "pattern_matches", lambda kind, p: False)
    with pytest.raises(RuntimeError, match="witness check failed"):
        search()


@pytest.mark.parametrize("fake", [
    # x^2 - 3x + 1 over 3: r_1 = (r_0 + r_2) / 3, and the one
    # multiplier coefficient is 1/3.
    ((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 3),)),
    ((Fraction(1, 3), Fraction(1, 3)), (Fraction(1),)),
], ids=["weights", "form-value"])
def test_wrong_simplex_answer_raises(monkeypatch, fake):
    monkeypatch.setattr(_exactlp, "_lexicographic", lambda g, t, f: fake)
    with pytest.raises(RuntimeError, match="lexicographic check failed"):
        rational_feasibility(TWO_ROOTS, SingleNegativeAt(1, 6))


# (x^4 + x + 1)(x^4 - x^3 + 2x - 1): a product with no rational root.
OCTIC_PRODUCT = P(1, 1, 0, 0, 1) * P(-1, 2, 0, -1, 1)


@pytest.mark.parametrize("patterns,method", [
    ([[8]], "mod-p"),
    ([[3, 5], [1, 7]], "degree-sets"),
], ids=["mod-p", "degree-sets"])
def test_wrong_factor_degrees_raise(monkeypatch, patterns, method):
    calls = []

    def fake(f, p):
        calls.append(p)
        return patterns[min(len(calls), len(patterns)) - 1]
    monkeypatch.setattr(irreducibility, "_degree_pattern", fake)
    with pytest.raises(RuntimeError, match="certify_irreducible"):
        certify_irreducible(OCTIC_PRODUCT)
    assert len(calls) == len(patterns)
