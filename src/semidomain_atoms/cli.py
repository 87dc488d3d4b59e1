"""Command-line interface.

Subcommands::

    analyze      counts of strong atoms and atoms for one modulus
    classify2    the closed-form degree-2 classification
    family       realization-family member and its expected counts
    transform    counts for a k-th-root generator via the scaling law
    oracle       brute-force strong-atom check on small multiples
    roots        positive real root counts and isolating intervals
    irreducible  irreducibility certificate for a polynomial

Polynomials are written either as expressions (``x^3 - 8x^2 + 4x - 2``,
with ``^`` or ``**`` for powers and an optional ``*`` after the
coefficient) or as ascending coefficient lists (``[-2, 4, -8, 1]``).

Exit codes: 0 when every reported count is decided, 2 when a search cap
or certification gap leaves part of the answer open, 1 on bad input or
when an internal consistency check fails (a certificate or witness
re-check, a disagreement between two routes to the same answer); the
latter prints ``error: internal check failed: ...`` without a
traceback.

With ``--json`` the result is a canonical single-line JSON document:
keys sorted, fractions rendered ``"num/den"``, coefficient arrays as
ascending decimal strings, schema tag ``semidomain-atoms/1``.  All
fields except ``timing_ms`` are deterministic for a given input and
version.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import __version__
from .irreducibility import (FactorSearchCaps, Irreducible, Reducible,
                             certify_irreducible)
from .monoid import (AlgebraicNumberSpec, AtLeast, Count, Finite, Infinite,
                     PairResult, TransformScaling, UnsupportedInputError,
                     _FORMS, _degree2_poly, analyze, classify_degree2,
                     verify_certificate)
from .oracle import (NonStrong, OracleCaps, StrongUpTo, reduce_element,
                     strong_check_oracle)
from .polycore import IntPoly, RatPoly, substitute_power
from .rootcount import isolate_positive_roots, positive_root_count
from .signsearch import (Caps, MonicAtomPattern, SingleNegativeAt,
                         StrongPrefixPattern, UnitRepresentation)
from .transforms import (FamilyParams, TransformReducibleError,
                         TransformUncertifiedError, family_polynomial,
                         transform_scale)

__all__ = ["PolynomialParseError", "parse_polynomial", "main"]

_ENV_MAX_DEG = "SEMIDOMAIN_ATOMS_MAX_DEG"


class PolynomialParseError(ValueError):
    """Bad polynomial text; carries the offending position."""

    def __init__(self, text: str, pos: int, message: str) -> None:
        super().__init__(f"{message} at position {pos}: {text!r}")
        self.text = text
        self.pos = pos


# --------------------------------------------------------------------------
# Parsing.


def _skip_ws(s: str, i: int) -> int:
    while i < len(s) and s[i].isspace():
        i += 1
    return i


def _read_int(s: str, i: int) -> tuple[int, int]:
    j = i
    while j < len(s) and s[j].isdigit():
        j += 1
    if j == i:
        raise PolynomialParseError(s, i, "expected an integer")
    return int(s[i:j]), j


def _parse_list(s: str) -> IntPoly:
    i = _skip_ws(s, 0)
    if i >= len(s) or s[i] != "[":
        raise PolynomialParseError(s, i, "expected '['")
    i = _skip_ws(s, i + 1)
    coeffs: list[int] = []
    if i < len(s) and s[i] == "]":
        i += 1
    else:
        while True:
            sign = 1
            if i < len(s) and s[i] in "+-":
                sign = -1 if s[i] == "-" else 1
                i = _skip_ws(s, i + 1)
            value, i = _read_int(s, i)
            coeffs.append(sign * value)
            i = _skip_ws(s, i)
            if i < len(s) and s[i] == ",":
                i = _skip_ws(s, i + 1)
                continue
            if i < len(s) and s[i] == "]":
                i += 1
                break
            raise PolynomialParseError(s, i, "expected ',' or ']'")
    i = _skip_ws(s, i)
    if i != len(s):
        raise PolynomialParseError(s, i, "trailing text after ']'")
    return IntPoly(coeffs)


def _parse_expression(s: str) -> IntPoly:
    powers: dict[int, int] = {}
    i = _skip_ws(s, 0)
    if i == len(s):
        raise PolynomialParseError(s, i, "empty polynomial")
    first = True
    while i < len(s):
        sign = 1
        if first:
            if s[i] in "+-":
                sign = -1 if s[i] == "-" else 1
                i = _skip_ws(s, i + 1)
        else:
            if s[i] not in "+-":
                raise PolynomialParseError(s, i, "expected '+' or '-'")
            sign = -1 if s[i] == "-" else 1
            i = _skip_ws(s, i + 1)
        first = False
        coeff: Optional[int] = None
        if i < len(s) and s[i].isdigit():
            coeff, i = _read_int(s, i)
            i = _skip_ws(s, i)
            if i < len(s) and s[i] == "*" and not s.startswith("**", i):
                i = _skip_ws(s, i + 1)
                if i >= len(s) or s[i] not in "xX":
                    raise PolynomialParseError(s, i, "expected 'x' after '*'")
        power = 0
        if i < len(s) and s[i] in "xX":
            power = 1
            i = _skip_ws(s, i + 1)
            if i < len(s) and (s[i] == "^" or s.startswith("**", i)):
                i = _skip_ws(s, i + (2 if s.startswith("**", i) else 1))
                power, i = _read_int(s, i)
                i = _skip_ws(s, i)
        elif coeff is None:
            raise PolynomialParseError(s, i, "expected a coefficient or 'x'")
        if coeff is None:
            coeff = 1
        powers[power] = powers.get(power, 0) + sign * coeff
        i = _skip_ws(s, i)
    if not powers:
        raise PolynomialParseError(s, len(s), "empty polynomial")
    top = max(powers)
    return IntPoly([powers.get(p, 0) for p in range(top + 1)])


def parse_polynomial(text: str) -> IntPoly:
    """Parse expression syntax or ascending-coefficient-list syntax."""
    if _skip_ws(text, 0) < len(text) and text[_skip_ws(text, 0)] == "[":
        return _parse_list(text)
    return _parse_expression(text)


# --------------------------------------------------------------------------
# Serialization.


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _poly_json(p: Union[IntPoly, RatPoly]) -> list[str]:
    if isinstance(p, IntPoly):
        return [str(c) for c in p.coeffs]
    return [_frac_str(c) for c in p.coeffs]


def _count_json(c: Count) -> dict:
    if isinstance(c, Finite):
        return {"kind": "finite", "value": c.value}
    if isinstance(c, Infinite):
        return {"kind": "infinite", "reason": c.reason}
    return {"kind": "at-least", "bound": c.bound}


def _pattern_json(kind) -> dict:
    if isinstance(kind, MonicAtomPattern):
        return {"kind": "monic-atom", "power": kind.power}
    if isinstance(kind, StrongPrefixPattern):
        return {"kind": "strong-prefix", "degree": kind.degree}
    if isinstance(kind, SingleNegativeAt):
        return {"kind": "single-negative", "power": kind.power,
                "degree_cap": kind.degree_cap}
    if isinstance(kind, UnitRepresentation):
        return {"kind": "unit-representation", "degree_cap": kind.degree_cap,
                "unit_only": kind.unit_only}
    raise TypeError(f"unknown pattern {kind!r}")


def _cert_json(cert) -> dict:
    name = type(cert).__name__
    out: dict = {"type": name}
    for f in fields(cert):
        field_name, value = f.name, getattr(cert, f.name)
        if isinstance(value, (IntPoly, RatPoly)):
            out[field_name] = _poly_json(value)
        elif isinstance(value, (Finite, Infinite, AtLeast)):
            out[field_name] = _count_json(value)
        elif isinstance(value, (MonicAtomPattern, StrongPrefixPattern,
                                SingleNegativeAt, UnitRepresentation)):
            out[field_name] = _pattern_json(value)
        elif value is None or isinstance(value, (int, str, bool)):
            out[field_name] = value
        else:
            out[field_name] = str(value)
    return out


def _pair_json(res: PairResult) -> dict:
    return {
        "strong_atoms": _count_json(res.strong),
        "atoms": _count_json(res.atoms),
        "decided": res.decided,
        "certificates": [_cert_json(c) for c in res.certificates],
    }


def _emit(payload: dict, as_json: bool, lines: list[str],
          started: float) -> None:
    if as_json:
        payload = dict(payload)
        payload["schema"] = "semidomain-atoms/1"
        payload["timing_ms"] = round((time.monotonic() - started) * 1000, 3)
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in lines:
            print(line)
        print(f"elapsed: {(time.monotonic() - started) * 1000:.1f} ms")


def _pair_lines(m: IntPoly, res: PairResult) -> list[str]:
    lines = [f"modulus: {m}",
             f"strong atoms: {res.strong}",
             f"atoms: {res.atoms}"]
    if res.certificates:
        lines.append("certificates:")
        for cert in res.certificates:
            lines.append(f"  - {_cert_human(cert)}")
    return lines


def _cert_human(cert) -> str:
    parts = [f"{f.name}={getattr(cert, f.name)}" for f in fields(cert)]
    return f"{type(cert).__name__}({', '.join(parts)})"


# --------------------------------------------------------------------------
# Commands.


@dataclass
class _Ctx:
    args: argparse.Namespace
    caps: Caps
    started: float


def _flag_or(args: argparse.Namespace, name: str, default: int) -> int:
    """The flag's value when given (0 included), else the default."""
    value = getattr(args, name, None)
    return default if value is None else value


def _build_caps(args: argparse.Namespace) -> Caps:
    defaults = Caps()
    max_deg = defaults.max_witness_deg
    env = os.environ.get(_ENV_MAX_DEG)
    if env is not None:
        try:
            max_deg = int(env)
        except ValueError:
            raise UnsupportedInputError(
                f"environment variable {_ENV_MAX_DEG} is not an integer: "
                f"{env!r}")
    if getattr(args, "max_witness_deg", None) is not None:
        max_deg = args.max_witness_deg
    return Caps(
        max_witness_deg=max_deg,
        max_coeff=_flag_or(args, "max_coeff", defaults.max_coeff),
        max_nodes=_flag_or(args, "max_nodes", defaults.max_nodes),
    )


def _verify_pair(res: PairResult, m: IntPoly) -> None:
    for cert in res.certificates:
        target = m
        if isinstance(cert, TransformScaling):
            target = substitute_power(cert.base_polynomial, cert.k)
        if not verify_certificate(cert, target):
            raise UnsupportedInputError(
                f"certificate failed re-verification: {_cert_human(cert)}")


def _exit_for(res: PairResult) -> int:
    return 0 if res.decided else 2


def _cmd_analyze(ctx: _Ctx) -> int:
    args = ctx.args
    m = parse_polynomial(args.polynomial)
    spec = AlgebraicNumberSpec.from_polynomial(
        m, assume_irreducible=args.assume_irreducible)
    res = analyze(spec, ctx.caps, general_only=args.general_only)
    if args.verify:
        _verify_pair(res, spec.minimal_polynomial)
    payload = {
        "command": "analyze",
        "modulus": _poly_json(spec.minimal_polynomial),
        "result": _pair_json(res),
    }
    _emit(payload, args.json, _pair_lines(spec.minimal_polynomial, res),
          ctx.started)
    return _exit_for(res)


# Keys are lower-case: the lookup lower-cases the given form first.
_FORM_ALIASES = {
    **{form.lower(): form for form in _FORMS},
    "all-positive": "AllPositive", "+++": "AllPositive", "ppp": "AllPositive",
    "pos-pos-neg": "PosPosNeg", "++-": "PosPosNeg", "ppn": "PosPosNeg",
    "pos-neg-pos": "PosNegPos", "+-+": "PosNegPos", "pnp": "PosNegPos",
    "pos-neg-neg": "PosNegNeg", "+--": "PosNegNeg", "pnn": "PosNegNeg",
}


def _cmd_classify2(ctx: _Ctx) -> int:
    args = ctx.args
    form = _FORM_ALIASES.get(args.form.lower())
    if form is None:
        raise UnsupportedInputError(
            f"unknown form {args.form!r}; use one of all-positive, "
            "pos-pos-neg, pos-neg-pos, pos-neg-neg")
    res = classify_degree2(args.a, args.b, args.c, form)
    m = _degree2_poly(args.a, args.b, args.c, form)
    if args.verify:
        _verify_pair(res, m)
    payload = {
        "command": "classify2",
        "modulus": _poly_json(m),
        "form": form,
        "result": _pair_json(res),
    }
    _emit(payload, args.json, _pair_lines(m, res), ctx.started)
    return _exit_for(res)


def _cmd_family(ctx: _Ctx) -> int:
    args = ctx.args
    params = FamilyParams(k=args.k, c=args.c)
    m, expected = family_polynomial(params)
    lines = [f"member: {m}",
             f"expected strong atoms: {expected.strong}",
             f"expected atoms: {expected.atoms}"]
    payload = {
        "command": "family",
        "k": params.k,
        "c": params.c,
        "member": _poly_json(m),
        "expected": _pair_json(expected),
    }
    code = 0
    if args.check:
        spec = AlgebraicNumberSpec.from_polynomial(m)
        res = analyze(spec, ctx.caps)
        payload["analysis"] = _pair_json(res)
        lines += [f"analyzed strong atoms: {res.strong}",
                  f"analyzed atoms: {res.atoms}"]
        if args.verify:
            _verify_pair(res, m)
        if not res.decided:
            code = 2
        elif res.pair != expected.pair:
            raise UnsupportedInputError(
                f"analysis {res.strong}, {res.atoms} does not match the "
                f"expected counts {expected.strong}, {expected.atoms}")
    _emit(payload, args.json, lines, ctx.started)
    return code


def _cmd_transform(ctx: _Ctx) -> int:
    args = ctx.args
    m = parse_polynomial(args.polynomial)
    spec = AlgebraicNumberSpec.from_polynomial(
        m, assume_irreducible=args.assume_irreducible)
    res = transform_scale(spec, args.k, ctx.caps,
                          cross_check=args.cross_check)
    if args.verify:
        _verify_pair(res, spec.minimal_polynomial)
    mk = substitute_power(spec.minimal_polynomial, args.k)
    payload = {
        "command": "transform",
        "base_modulus": _poly_json(spec.minimal_polynomial),
        "k": args.k,
        "modulus": _poly_json(mk),
        "result": _pair_json(res),
    }
    _emit(payload, args.json, [f"base modulus: {spec.minimal_polynomial}",
                               f"substituted modulus: {mk}"]
          + _pair_lines(mk, res)[1:], ctx.started)
    return _exit_for(res)


def _parse_powers(text: str, max_power: int) -> list[int]:
    powers = []
    for item in text.split(","):
        try:
            e = int(item)
        except ValueError:
            raise ValueError(
                f"--powers: {item.strip()!r} is not an integer") from None
        if not 0 <= e <= max_power:
            raise ValueError(
                f"--powers: exponent {e} is outside [0, {max_power}] "
                "(see --max-power)")
        powers.append(e)
    return powers


def _verify_oracle(verdict: NonStrong, k: int, m: IntPoly) -> None:
    """Re-check a second factorization by re-summing power coordinates."""
    exps = verdict.factorization.exponents
    total = [0] * m.degree
    for e in exps:
        part = reduce_element(IntPoly.monomial(1, e), m).coords
        total = [t + c for t, c in zip(total, part)]
    target = reduce_element(IntPoly.monomial(verdict.n, k), m).coords
    if tuple(total) != target:
        raise RuntimeError(
            f"oracle factorization {list(exps)} does not sum to "
            f"{verdict.n}*alpha^{k}")
    if exps == (k,) * verdict.n:
        raise RuntimeError(
            f"oracle factorization {list(exps)} is the trivial one")


def _cmd_oracle(ctx: _Ctx) -> int:
    args = ctx.args
    m = parse_polynomial(args.polynomial)
    caps = OracleCaps(max_power=args.max_power, max_total=args.max_total)
    allowed = None
    if args.powers:
        allowed = _parse_powers(args.powers, caps.max_power)
    verdict = strong_check_oracle(args.k, m, args.n_max, caps,
                                  use_pruning=not args.no_prune,
                                  allowed_powers=allowed)
    if args.verify and isinstance(verdict, NonStrong):
        _verify_oracle(verdict, args.k, m)
    if isinstance(verdict, StrongUpTo):
        payload_verdict = {"kind": "strong-up-to", "n_max": verdict.n_max}
        lines = [f"modulus: {m}",
                 f"power {args.k}: no alternative representation of "
                 f"n*alpha^{args.k} for n <= {verdict.n_max} within caps"]
    else:
        payload_verdict = {
            "kind": "non-strong",
            "n": verdict.n,
            "factorization": list(verdict.factorization.exponents),
        }
        expo = ", ".join(f"alpha^{e}" for e in verdict.factorization.exponents)
        lines = [f"modulus: {m}",
                 f"power {args.k}: {verdict.n}*alpha^{args.k} also equals "
                 f"{expo}"]
    payload = {
        "command": "oracle",
        "modulus": _poly_json(m),
        "k": args.k,
        "n_max": args.n_max,
        "max_power": caps.max_power,
        "max_total": caps.max_total,
        "verdict": payload_verdict,
    }
    _emit(payload, args.json, lines, ctx.started)
    return 0


def _cmd_roots(ctx: _Ctx) -> int:
    args = ctx.args
    m = parse_polynomial(args.polynomial)
    if not m:
        raise UnsupportedInputError("the zero polynomial has no root data")
    distinct = positive_root_count(m)
    mult = positive_root_count(m, with_multiplicity=True)
    intervals = isolate_positive_roots(m)
    payload = {
        "command": "roots",
        "polynomial": _poly_json(m),
        "distinct_positive_roots": distinct,
        "positive_roots_with_multiplicity": mult,
        "isolating_intervals": [[_frac_str(r.lo), _frac_str(r.hi)]
                                for r in intervals],
    }
    lines = [f"polynomial: {m}",
             f"distinct positive roots: {distinct}",
             f"positive roots with multiplicity: {mult}"]
    for r in intervals:
        lines.append(f"  root in ({r.lo}, {r.hi}]")
    _emit(payload, args.json, lines, ctx.started)
    return 0


def _cmd_irreducible(ctx: _Ctx) -> int:
    args = ctx.args
    m = parse_polynomial(args.polynomial)
    verdict = certify_irreducible(m, FactorSearchCaps())
    if isinstance(verdict, Irreducible):
        v: dict = {"kind": "irreducible", "method": verdict.method}
        how = verdict.method
        if verdict.eisenstein_prime is not None:
            v["eisenstein_prime"] = verdict.eisenstein_prime
        if verdict.primes:
            v["primes"] = list(verdict.primes)
            how += ", primes " + ", ".join(map(str, verdict.primes))
        lines = [f"polynomial: {m}", f"irreducible ({how})"]
        code = 0
    elif isinstance(verdict, Reducible):
        v = {"kind": "reducible", "factor": _poly_json(verdict.factor)}
        lines = [f"polynomial: {m}", f"reducible: factor {verdict.factor}"]
        code = 0
    else:
        v = {"kind": "unknown", "reason": verdict.reason}
        lines = [f"polynomial: {m}", f"undecided ({verdict.reason})"]
        code = 2
    payload = {"command": "irreducible", "polynomial": _poly_json(m),
               "verdict": v}
    _emit(payload, args.json, lines, ctx.started)
    return code


# --------------------------------------------------------------------------
# Argument wiring.


def _add_caps_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-witness-deg", type=int, default=None,
                   help="largest multiplier/product degree to search "
                        f"(default 24; env {_ENV_MAX_DEG})")
    p.add_argument("--max-coeff", type=int, default=None,
                   help="largest multiplier coefficient magnitude "
                        "(default 1000000)")
    p.add_argument("--max-nodes", type=int, default=None,
                   help="search node budget (default 100000)")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true",
                   help="emit canonical JSON on stdout")
    p.add_argument("--verify", action="store_true",
                   help="re-check every certificate before printing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semidomain-atoms",
        description="Atoms and strong atoms of monoids generated by "
                    "nonnegative-integer combinations of powers of a "
                    "positive algebraic number.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="count strong atoms and atoms")
    p.add_argument("polynomial")
    p.add_argument("--assume-irreducible", action="store_true")
    p.add_argument("--general-only", action="store_true",
                   help="skip the closed-form detectors")
    _add_caps_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("classify2", help="degree-2 closed-form counts")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("c", type=int)
    p.add_argument("form",
                   help="all-positive | pos-pos-neg | pos-neg-pos | "
                        "pos-neg-neg")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_classify2)

    p = sub.add_parser("family", help="realization-family member")
    p.add_argument("k", type=int)
    p.add_argument("c", type=int)
    p.add_argument("--check", action="store_true",
                   help="also analyze the member and compare")
    _add_caps_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("transform", help="k-th-root scaling law")
    p.add_argument("polynomial")
    p.add_argument("k", type=int)
    p.add_argument("--assume-irreducible", action="store_true")
    p.add_argument("--cross-check", action="store_true",
                   help="also analyze the substituted modulus directly")
    _add_caps_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("oracle", help="brute-force strong-atom check")
    p.add_argument("polynomial")
    p.add_argument("--k", type=int, required=True,
                   help="power of the generator to test")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--max-power", type=int, default=8)
    p.add_argument("--max-total", type=int, default=12)
    p.add_argument("--powers", default=None,
                   help="comma-separated allowed exponents")
    p.add_argument("--no-prune", action="store_true",
                   help="disable interval pruning (slow, same answers)")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("roots", help="positive real root counts")
    p.add_argument("polynomial")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("irreducible", help="irreducibility certificate")
    p.add_argument("polynomial")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_irreducible)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        caps = _build_caps(args)
        ctx = _Ctx(args=args, caps=caps, started=started)
        return args.func(ctx)
    except TransformUncertifiedError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return 2
    except (PolynomialParseError, TransformReducibleError,
            UnsupportedInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
