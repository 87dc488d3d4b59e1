import json
import subprocess
import sys

import pytest

from semidomain_atoms import FactorizationMultiset, IntPoly, NonStrong, cli
from semidomain_atoms.cli import (PolynomialParseError, main,
                                  parse_polynomial)

from conftest import BINOMIAL, CUBE, P, TWO_ROOTS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


class TestParseExpression:
    @pytest.mark.parametrize("text,expected", [
        ("x^3 - 8x^2 + 4x - 2", CUBE),
        ("x**3 - 8x**2 + 4x - 2", CUBE),
        ("2*x^2 - 3", BINOMIAL),
        ("2x^2-3", BINOMIAL),
        ("X^2 - 3X + 1", TWO_ROOTS),
        ("5", P(5)),
        ("-x + 1", P(1, -1)),
        ("x^2 + x^2 - 2", P(-2, 0, 2)),
        ("x", P(0, 1)),
        ("+x - 1", P(-1, 1)),
    ])
    def test_good(self, text, expected):
        assert parse_polynomial(text) == expected

    @pytest.mark.parametrize("text,pos,message", [
        ("x^", 2, "expected an integer"),
        ("x 3", 2, "expected '+' or '-'"),
        ("2*", 2, "expected 'x' after '*'"),
        ("+ ?", 2, "expected a coefficient or 'x'"),
        ("", 0, "empty polynomial"),
    ])
    def test_bad(self, text, pos, message):
        with pytest.raises(PolynomialParseError) as exc:
            parse_polynomial(text)
        assert exc.value.pos == pos
        assert message in str(exc.value)
        assert "at position" in str(exc.value)


class TestParseList:
    @pytest.mark.parametrize("text,expected", [
        ("[-2, 4, -8, 1]", CUBE),
        ("  [ -2,4 , -8 ,1 ]  ", CUBE),
        ("[+1, -2]", P(1, -2)),
        ("[]", IntPoly.zero()),
    ])
    def test_good(self, text, expected):
        assert parse_polynomial(text) == expected

    @pytest.mark.parametrize("text,message", [
        ("[1, 2", "expected ',' or ']'"),
        ("[1] x", "trailing text"),
        ("[a]", "expected an integer"),
    ])
    def test_bad(self, text, message):
        with pytest.raises(PolynomialParseError, match=message):
            parse_polynomial(text)


class TestAnalyzeCommand:
    def test_human_output(self, capsys):
        code, out, err = run(capsys, "analyze", "[-2,4,-8,1]")
        assert code == 0 and err == ""
        assert "strong atoms: 4" in out
        assert "atoms: 5" in out
        assert "elapsed:" in out

    def test_json_output(self, capsys):
        code, doc = run_json(capsys, "analyze", "x^2 - 3x + 1", "--json")
        assert code == 0
        assert doc["schema"] == "semidomain-atoms/1"
        assert doc["command"] == "analyze"
        assert doc["modulus"] == ["1", "-3", "1"]
        assert doc["result"]["strong_atoms"] == {"kind": "finite", "value": 1}
        assert doc["result"]["atoms"]["kind"] == "infinite"
        assert doc["result"]["decided"] is True
        assert doc["result"]["certificates"]

    def test_json_is_canonical_and_single_line(self, capsys):
        code, out, _ = run(capsys, "analyze", "[-2,4,-8,1]", "--json")
        assert code == 0
        body = out.strip()
        assert "\n" not in body
        assert body == json.dumps(json.loads(body), sort_keys=True,
                                  separators=(",", ":"))

    def test_json_deterministic_modulo_timing(self, capsys):
        _, first = run_json(capsys, "analyze", "[-2,4,-8,1]", "--json")
        _, second = run_json(capsys, "analyze", "[-2,4,-8,1]", "--json")
        first.pop("timing_ms")
        second.pop("timing_ms")
        assert first == second

    def test_flagship_json_pinned(self, capsys):
        _, doc = run_json(capsys, "analyze", "[-2,4,-8,1]", "--json")
        doc.pop("timing_ms")
        assert json.dumps(doc, sort_keys=True, separators=(",", ":")) == (
            '{"command":"analyze","modulus":["-2","4","-8","1"],"result":'
            '{"atoms":{"kind":"finite","value":5},"certificates":['
            '{"detail":"-2","kind":"constant-magnitude",'
            '"type":"AtomicityDetector"},'
            '{"multiplier":["1","2","1"],'
            '"pattern":{"kind":"monic-atom","power":5},'
            '"product":["-2","0","-2","-11","-6","1"],'
            '"role":"atom-decomposition","type":"MultiplierWitness"},'
            '{"multiplier":["1","2"],'
            '"pattern":{"degree":4,"kind":"strong-prefix"},'
            '"product":["-2","0","0","-15","2"],'
            '"role":"strong-prefix","type":"MultiplierWitness"}],'
            '"decided":true,"strong_atoms":{"kind":"finite","value":4}},'
            '"schema":"semidomain-atoms/1"}')

    def test_flagship_human_certificates(self, capsys):
        _, out, _ = run(capsys, "analyze", "[-2,4,-8,1]")
        assert ("  - AtomicityDetector(kind=constant-magnitude, detail=-2)"
                in out.splitlines())
        assert ("  - MultiplierWitness(role=strong-prefix, multiplier=2x + 1,"
                " product=2x^4 - 15x^3 - 2,"
                " pattern=StrongPrefixPattern(degree=4))" in out.splitlines())

    def test_verify_flag(self, capsys):
        code, _, _ = run(capsys, "analyze", "[-2,4,-8,1]", "--verify")
        assert code == 0

    def test_assume_irreducible_flag(self, capsys):
        code, _, _ = run(capsys, "analyze", "[-2,4,-8,1]",
                         "--assume-irreducible")
        assert code == 0

    def test_antimatter(self, capsys):
        code, out, _ = run(capsys, "analyze", "x^2 + x + 1")
        assert code == 0 and "strong atoms: 0" in out

    def test_undecided_exits_two(self, capsys):
        code, out, _ = run(capsys, "analyze", "8x^2 - x - 1",
                           "--general-only", "--max-witness-deg", "6")
        assert code == 2
        assert "undecided" in out

    def test_reducible_exits_one(self, capsys):
        code, _, err = run(capsys, "analyze", "x^2 - 3x + 2")
        assert code == 1 and err.startswith("error:")

    def test_parse_error_exits_one(self, capsys):
        code, _, err = run(capsys, "analyze", "x^")
        assert code == 1 and "position" in err


class TestCapsWiring:
    def test_env_restricts_search(self, capsys, monkeypatch):
        monkeypatch.setenv("SEMIDOMAIN_ATOMS_MAX_DEG", "4")
        code, _, _ = run(capsys, "analyze", "[-2,4,-8,1]")
        assert code == 2

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SEMIDOMAIN_ATOMS_MAX_DEG", "4")
        code, _, _ = run(capsys, "analyze", "[-2,4,-8,1]",
                         "--max-witness-deg", "24")
        assert code == 0

    def test_bad_env_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("SEMIDOMAIN_ATOMS_MAX_DEG", "many")
        code, _, err = run(capsys, "analyze", "[-2,4,-8,1]")
        assert code == 1 and "SEMIDOMAIN_ATOMS_MAX_DEG" in err

    def test_negative_witness_degree_rejected(self, capsys):
        code, out, err = run(capsys, "analyze", "x^3-8x^2+4x-2",
                             "--max-witness-deg", "-3")
        assert code == 1 and "max_witness_deg" in err
        assert out == ""

    @pytest.mark.parametrize("flag", ["--max-nodes", "--max-coeff"])
    def test_zero_budget_is_kept(self, capsys, flag):
        # A zero budget stops the sweep that decides the flagship; it
        # must not fall back to the default budget.
        code, out, _ = run(capsys, "analyze", "x^3-8x^2+4x-2", flag, "0")
        assert code == 2 and "undecided" in out


class TestClassify2Command:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "classify2", "1", "3", "1", "pnp")
        assert code == 0
        assert "strong atoms: 1" in out and "atoms: infinite" in out

    @pytest.mark.parametrize("alias", ["pos-neg-pos", "+-+", "pnp",
                                       "PosNegPos", "posnegpos",
                                       "posnegneg"])
    def test_aliases(self, capsys, alias):
        code, doc = run_json(capsys, "classify2", "1", "3", "1", alias,
                             "--json")
        want = "PosNegNeg" if alias == "posnegneg" else "PosNegPos"
        assert code == 0 and doc["form"] == want

    def test_all_four_forms_resolve(self, capsys):
        for args, form in [(("1", "1", "1", "all-positive"), "AllPositive"),
                           (("1", "1", "3", "posposneg"), "PosPosNeg"),
                           (("1", "3", "1", "++-"), None),
                           (("1", "1", "1", "pnn"), "PosNegNeg")]:
            code, doc = run_json(capsys, "classify2", *args, "--json")
            assert code == 0
            if form is not None:
                assert doc["form"] == form

    def test_verify(self, capsys):
        code, _, _ = run(capsys, "classify2", "2", "1", "2", "pnn",
                         "--verify")
        assert code == 0

    def test_unknown_form(self, capsys):
        code, _, err = run(capsys, "classify2", "1", "1", "1", "zzz")
        assert code == 1 and "unknown form" in err

    def test_reducible_combination(self, capsys):
        code, _, err = run(capsys, "classify2", "1", "1", "2", "ppn")
        assert code == 1 and "reducible" in err


class TestFamilyCommand:
    def test_member_json(self, capsys):
        code, doc = run_json(capsys, "family", "1", "0", "--json")
        assert code == 0
        assert doc["member"] == ["-2", "4", "-8", "1"]
        assert doc["expected"]["strong_atoms"] == {"kind": "finite",
                                                   "value": 4}
        assert doc["expected"]["atoms"] == {"kind": "finite", "value": 5}

    def test_check_agrees(self, capsys):
        code, doc = run_json(capsys, "family", "1", "1", "--check", "--json")
        assert code == 0
        assert doc["analysis"]["strong_atoms"] == {"kind": "finite",
                                                   "value": 5}

    def test_bad_parameters(self, capsys):
        assert run(capsys, "family", "0", "0")[0] == 1
        assert run(capsys, "family", "1", "-1")[0] == 1


class TestTransformCommand:
    def test_scaling(self, capsys):
        code, doc = run_json(capsys, "transform", "[-2,4,-8,1]", "2",
                             "--json")
        assert code == 0
        assert doc["modulus"] == ["-2", "0", "4", "0", "-8", "0", "1"]
        assert doc["result"]["strong_atoms"] == {"kind": "finite", "value": 8}
        assert doc["result"]["atoms"] == {"kind": "finite", "value": 10}

    def test_cross_check(self, capsys):
        code, _, _ = run(capsys, "transform", "[-2,4,-8,1]", "2",
                         "--cross-check", "--verify")
        assert code == 0

    def test_cross_check_disagreement_exits_cleanly(self, capsys,
                                                    monkeypatch):
        def disagree(*args, **kwargs):
            raise RuntimeError("scaling law and direct analysis disagree "
                               "on strong for k=2: 8 vs 9")
        monkeypatch.setattr(cli, "transform_scale", disagree)
        code, out, err = run(capsys, "transform", "[-2,4,-8,1]", "2",
                             "--cross-check")
        assert code == 1 and out == ""
        assert err == ("error: internal check failed: scaling law and "
                       "direct analysis disagree on strong for k=2: "
                       "8 vs 9\n")
        assert "Traceback" not in err

    def test_reducible_substitution(self, capsys):
        code, _, err = run(capsys, "transform", "x^2 - 3x + 1", "2")
        assert code == 1 and "reducible" in err


class TestOracleCommand:
    def test_non_strong(self, capsys):
        code, doc = run_json(capsys, "oracle", "x^2-3x+1", "--k", "1",
                             "--n-max", "3", "--json")
        assert code == 0
        assert doc["verdict"] == {"kind": "non-strong", "n": 3,
                                  "factorization": [0, 2]}

    def test_restricted_powers(self, capsys):
        code, doc = run_json(capsys, "oracle", "x^2-3x+1", "--k", "1",
                             "--n-max", "3", "--powers", "1", "--json")
        assert code == 0
        assert doc["verdict"] == {"kind": "strong-up-to", "n_max": 3}

    def test_no_prune_matches(self, capsys):
        _, pruned = run_json(capsys, "oracle", "x^2-3x+1", "--k", "1",
                             "--n-max", "3", "--json")
        _, plain = run_json(capsys, "oracle", "x^2-3x+1", "--k", "1",
                            "--n-max", "3", "--no-prune", "--json")
        pruned.pop("timing_ms")
        plain.pop("timing_ms")
        assert pruned["verdict"] == plain["verdict"]

    def test_bad_power(self, capsys):
        code, _, err = run(capsys, "oracle", "x^2-3x+1", "--k", "9",
                           "--max-power", "4")
        assert code == 1 and "error:" in err

    @pytest.mark.parametrize("modulus", ["x^2-x-2", "x^2-4", "x^2-1",
                                         "x^3-x", "x^4-1"])
    def test_reducible_modulus(self, capsys, modulus):
        code, out, err = run(capsys, "oracle", modulus, "--k", "0")
        assert code == 1 and out == ""
        assert err.startswith("error: the oracle requires an irreducible")
        assert "Traceback" not in err

    @pytest.mark.parametrize("powers,why", [
        ("a,b", "--powers: 'a' is not an integer"),
        ("-1,2", "--powers: exponent -1 is outside [0, 8]"),
        ("0,9", "--powers: exponent 9 is outside [0, 8]"),
    ])
    def test_bad_powers(self, capsys, powers, why):
        code, out, err = run(capsys, "oracle", "x^2-3x+1", "--k", "1",
                             f"--powers={powers}")
        assert code == 1 and out == ""
        assert err.startswith(f"error: {why}")

    def test_verify_accepts_a_true_answer(self, capsys):
        code, doc = run_json(capsys, "oracle", "x^2-3x+1", "--k", "1",
                             "--n-max", "3", "--verify", "--json")
        assert code == 0
        assert doc["verdict"]["factorization"] == [0, 2]

    @pytest.mark.parametrize("exponents", [(0, 1), (1, 1, 1)])
    def test_verify_rejects_a_wrong_answer(self, capsys, monkeypatch,
                                           exponents):
        # 3*alpha = 1 + alpha^2 modulo x^2 - 3x + 1; (0, 1) sums to
        # something else and (1, 1, 1) is the trivial factorization.
        wrong = NonStrong(3, FactorizationMultiset(exponents))
        monkeypatch.setattr(cli, "strong_check_oracle",
                            lambda *args, **kwargs: wrong)
        code, _, _ = run(capsys, "oracle", "x^2-3x+1", "--k", "1")
        assert code == 0
        code, out, err = run(capsys, "oracle", "x^2-3x+1", "--k", "1",
                             "--verify")
        assert code == 1 and out == ""
        assert err.startswith("error: internal check failed: oracle "
                              "factorization")


class TestRootsCommand:
    def test_three_roots(self, capsys):
        code, doc = run_json(capsys, "roots", "x^3 - 5x^2 + 6x - 1",
                             "--json")
        assert code == 0
        assert doc["distinct_positive_roots"] == 3
        assert doc["positive_roots_with_multiplicity"] == 3
        assert len(doc["isolating_intervals"]) == 3
        for lo, hi in doc["isolating_intervals"]:
            assert "/" in lo and "/" in hi

    def test_zero_polynomial(self, capsys):
        code, _, err = run(capsys, "roots", "[]")
        assert code == 1 and "root data" in err


class TestIrreducibleCommand:
    def test_eisenstein(self, capsys):
        code, doc = run_json(capsys, "irreducible", "[-2,4,-8,1]", "--json")
        assert code == 0
        assert doc["verdict"]["kind"] == "irreducible"
        assert doc["verdict"]["method"] == "eisenstein"
        assert doc["verdict"]["eisenstein_prime"] == 2

    def test_reducible(self, capsys):
        code, doc = run_json(capsys, "irreducible", "x^2 - 3x + 2", "--json")
        assert code == 0
        assert doc["verdict"]["kind"] == "reducible"
        assert doc["verdict"]["factor"] == ["-1", "1"]

    def test_factor_search(self, capsys):
        code, doc = run_json(capsys, "irreducible", "[1,0,-10,0,1]", "--json")
        assert code == 0
        assert doc["verdict"]["method"] == "factor-search"

    def test_octic_modulo_primes(self, capsys):
        octic = "x^8 + x^6 + 3x^5 + x^4 + 2x^2 - 2x - 2"
        code, doc = run_json(capsys, "irreducible", octic, "--json")
        assert code == 0
        assert doc["verdict"] == {"kind": "irreducible",
                                  "method": "degree-sets",
                                  "primes": [3, 5, 7]}
        code, out, _ = run(capsys, "irreducible", octic)
        assert code == 0
        assert "irreducible (degree-sets, primes 3, 5, 7)" in out


class TestTopLevel:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "semidomain-atoms" in capsys.readouterr().out

    def test_missing_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "semidomain_atoms", "--version"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "semidomain-atoms" in proc.stdout
