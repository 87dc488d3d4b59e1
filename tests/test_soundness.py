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


def test_no_unused_imports_in_package():
    """Every module-level import is used in its module.

    ``__init__.py`` only re-exports, a name listed in ``__all__`` is
    used by being exported, and ``__future__`` imports are directives.
    """
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and [t.id for t in node.targets
                         if isinstance(t, ast.Name)] == ["__all__"]):
                used |= set(ast.literal_eval(node.value))
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
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
    (True, ((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 3),))),
    (True, ((Fraction(1, 3), Fraction(1, 3)), (Fraction(1),))),
], ids=["weights", "form-value"])
def test_wrong_simplex_answer_raises(monkeypatch, fake):
    monkeypatch.setattr(_exactlp, "_lexicographic", lambda g, t, f: fake)
    with pytest.raises(RuntimeError, match="lexicographic check failed"):
        rational_feasibility(TWO_ROOTS, SingleNegativeAt(1, 6))


def test_unseparating_farkas_vector_raises(monkeypatch):
    # x^4 + x^3 - 2x - 3 has no strong-prefix multiple of degree 8, and
    # the residue LP says so; the zero vector separates nothing.
    m = P(-3, -2, 0, 1, 1)
    assert rational_feasibility(m, StrongPrefixPattern(8)).reason == "linear"
    monkeypatch.setattr(_exactlp, "_lexicographic",
                        lambda g, t, f: (False, (Fraction(0),) * len(t)))
    with pytest.raises(RuntimeError, match="Farkas vector does not separate"):
        rational_feasibility(m, StrongPrefixPattern(8))


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
