"""The four workloads: seeded inputs, the library call, and the verdict check.

Each workload yields passes: lists of distinct inputs drawn from the
seed.  ``call`` is the only code inside the timed window; it drives the
package through its public functions and turns the package's documented
rejections into values.  ``judge`` runs after the window and checks the
result against an independent reference, returning "decided" or
"undecided", or raising ``WrongVerdict``.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional

import reference as ref


class WrongVerdict(Exception):
    """The package returned an answer the reference contradicts."""


@dataclass(frozen=True)
class Rejected:
    """A documented refusal (UnsupportedInputError) from the package."""

    message: str


def _count_value(count):
    """A decided count as an int or ref.INF; None when undecided."""
    name = type(count).__name__
    if name == "Finite":
        return count.value
    if name == "Infinite":
        return ref.INF
    return None


def _check_certificates(sa, certs, m) -> None:
    for cert in certs:
        if not sa.verify_certificate(cert, m):
            raise WrongVerdict(f"certificate fails verification: {cert!r}")


class Workload:
    name = ""

    def __init__(self, sa, cfg: dict, seed: int) -> None:
        self.sa = sa
        self.cfg = cfg
        self.wcfg = cfg["workloads"][self.name]
        self.limit_s = float(self.wcfg["limit_s"])
        self.rng = random.Random(f"{self.name}:{seed}")
        budgets = cfg["budgets"]
        self.caps = sa.Caps(**budgets["caps"])
        self.factor_caps = sa.FactorSearchCaps(**budgets["factor_search_caps"])
        self.oracle_caps = sa.OracleCaps(**budgets["oracle_caps"])

    def passes(self) -> Iterator[list]:
        raise NotImplementedError

    def call(self, inp):
        raise NotImplementedError

    def judge(self, inp, result) -> str:
        raise NotImplementedError


# --------------------------------------------------------------------------
# family


@dataclass(frozen=True)
class FamilyInput:
    k: int
    c: int

    @property
    def label(self) -> str:
        return f"family(k={self.k}, c={self.c})"


@dataclass(frozen=True)
class CrossCheckFailed:
    """transform_scale's cross-check found the scaling law and the
    direct analysis of the substituted modulus in disagreement."""

    message: str


class Family(Workload):
    """Members with c >= 1 go through from_polynomial and analyze; members
    with c = 0 go through transform_scale(base, k, cross_check=True).

    Every pass is the same grid, the c = 0 member for each k = 1..k_max
    and every c in 1..c_max for each k = 1..k_max_shifted; the seed only
    shuffles its order.  A member's cost grows with its degree 3k + c,
    so a seeded choice of c would move the timings from seed to seed.
    """

    name = "family"

    def __init__(self, sa, cfg: dict, seed: int) -> None:
        super().__init__(sa, cfg, seed)
        self._direct_checked: set[int] = set()

    def passes(self):
        w = self.wcfg
        grid = [FamilyInput(k, 0) for k in range(1, w["k_max"] + 1)]
        grid += [FamilyInput(k, c) for k in range(1, w["k_max_shifted"] + 1)
                 for c in range(1, w["c_max"] + 1)]
        while True:
            items = list(grid)
            self.rng.shuffle(items)
            yield items

    def _caps(self, inp: FamilyInput):
        return self.sa.Caps(max_witness_deg=5 * inp.k + inp.c,
                            max_coeff=self.caps.max_coeff,
                            max_nodes=self.caps.max_nodes)

    def _spec(self, k: int, c: int):
        return self.sa.AlgebraicNumberSpec.from_polynomial(
            self.sa.IntPoly(ref.family_member(k, c)),
            factor_caps=self.factor_caps)

    def call(self, inp: FamilyInput):
        sa = self.sa
        if inp.c == 0:
            try:
                return sa.transform_scale(self._spec(1, 0), inp.k,
                                          self._caps(inp), cross_check=True,
                                          factor_caps=self.factor_caps)
            except RuntimeError as exc:
                if "disagree" not in str(exc):
                    raise
                return CrossCheckFailed(str(exc))
        return sa.analyze(self._spec(inp.k, inp.c), self._caps(inp))

    def _check_pair(self, inp: FamilyInput, result, what: str) -> None:
        got = (_count_value(result.strong), _count_value(result.atoms))
        if got != ref.family_pair(inp.k, inp.c):
            raise WrongVerdict(f"{inp.label}{what}: got {got}, closed form "
                               f"{ref.family_pair(inp.k, inp.c)}")

    def _check_direct(self, inp: FamilyInput) -> None:
        """Judge the direct analysis of the k-th member, which the
        cross-check inside the timed call compares only where both sides
        are decided.  analyze is deterministic, so it is rerun here, once
        per k, outside the timed window."""
        if inp.k in self._direct_checked:
            return
        result = self.sa.analyze(self._spec(inp.k, 0), self._caps(inp))
        self._check_pair(inp, result, " direct analysis")
        _check_certificates(self.sa, result.certificates,
                            self.sa.IntPoly(ref.family_member(inp.k, 0)))
        self._direct_checked.add(inp.k)

    def judge(self, inp: FamilyInput, result) -> str:
        sa = self.sa
        if isinstance(result, CrossCheckFailed):
            raise WrongVerdict(f"{inp.label}: {result.message}")
        self._check_pair(inp, result, "")
        member = sa.IntPoly(ref.family_member(inp.k, inp.c))
        base = sa.IntPoly(ref.family_member(1, 0))
        for cert in result.certificates:
            is_scaling = isinstance(cert, sa.TransformScaling)
            m = member if (inp.c or is_scaling) else base
            _check_certificates(sa, (cert,), m)
        if inp.c == 0 and inp.k > 1:
            self._check_direct(inp)
        return "decided"


# --------------------------------------------------------------------------
# random_moduli


@dataclass(frozen=True)
class ModulusInput:
    coeffs: tuple

    @property
    def label(self) -> str:
        return f"analyze({list(self.coeffs)})"


class RandomModuli(Workload):
    """Exactly the `semidomain-atoms analyze` path: from_polynomial with
    the default factor caps, then analyze under the default Caps.

    Every primitive polynomial of each degree with positive lead at most
    lead_max, other coefficients in [-coeff_bound, coeff_bound] and a
    nonzero constant term is put in a seeded order.  Each pass takes
    per_degree moduli of every degree, in the proportion of that
    degree's pool that has a positive real root (positive_root_share,
    measured over the whole pool): the next ones of each kind, wrapping
    round when a kind runs out.  Moduli without a positive root are the
    quick rejections, so a seeded share of them would move the median
    time from seed to seed.
    """

    name = "random_moduli"

    def _kind(self, pool: list, with_root: bool) -> Iterator[tuple]:
        for cs in itertools.cycle(pool):
            if (ref.positive_root_count(cs) > 0) == with_root:
                yield cs

    def passes(self):
        w = self.wcfg
        b, n = w["coeff_bound"], w["per_degree"]
        draws = []
        for d, share in zip(w["degrees"], w["positive_root_share"]):
            rest = range(-b, b + 1)
            pool = [(c0,) + mid + (lead,)
                    for lead in range(1, w["lead_max"] + 1)
                    for c0 in rest if c0
                    for mid in itertools.product(rest, repeat=d - 1)
                    if math.gcd(c0, lead, *mid) == 1]
            self.rng.shuffle(pool)
            with_root = round(n * share)
            draws += [(self._kind(pool, True), with_root),
                      (self._kind(pool, False), n - with_root)]
        while True:
            items = [ModulusInput(next(kind)) for kind, count in draws
                     for _ in range(count)]
            self.rng.shuffle(items)
            yield items

    def call(self, inp: ModulusInput):
        sa = self.sa
        try:
            spec = sa.AlgebraicNumberSpec.from_polynomial(
                sa.IntPoly(inp.coeffs), factor_caps=self.factor_caps)
            return sa.analyze(spec, self.caps)
        except sa.UnsupportedInputError as exc:
            return Rejected(str(exc))

    def judge(self, inp: ModulusInput, result) -> str:
        sa = self.sa
        cs = list(inp.coeffs)
        m = sa.IntPoly(inp.coeffs)
        if isinstance(result, Rejected):
            verdict = sa.certify_irreducible(m, self.factor_caps)
            if isinstance(verdict, sa.Reducible):
                if not ref.is_proper_factor(list(verdict.factor.coeffs), cs):
                    raise WrongVerdict(f"{inp.label}: rejected as reducible "
                                       f"by a non-factor {verdict.factor}")
                return "decided"
            if isinstance(verdict, sa.Unknown):
                return "undecided"
            if all(c >= 0 for c in cs) or ref.positive_root_count(cs):
                raise WrongVerdict(f"{inp.label}: in-scope modulus rejected: "
                                   f"{result.message}")
            return "decided"
        if len(cs) == 3 and ref.quadratic_is_reducible(*cs):
            raise WrongVerdict(f"{inp.label}: reducible quadratic analyzed")
        _check_certificates(sa, result.certificates, m)
        if not result.decided:
            return "undecided"
        if len(cs) == 3:
            want = ref.quadratic_pair(*cs)
            got = (_count_value(result.strong), _count_value(result.atoms))
            if want is not None and got != want:
                raise WrongVerdict(f"{inp.label}: got {got}, table {want}")
        return "decided"


# --------------------------------------------------------------------------
# irreducibility


@dataclass(frozen=True)
class IrreducibilityInput:
    kind: str  # "product" | "eisenstein"
    coeffs: tuple
    detail: str

    @property
    def label(self) -> str:
        return f"certify_irreducible({list(self.coeffs)}) [{self.detail}]"


class Irreducibility(Workload):
    """Products of two random factors (must be Reducible, with a factor
    that divides exactly) and Eisenstein polynomials under x -> x + s
    (must be Irreducible or Unknown)."""

    name = "irreducibility"

    def _factor(self, d: int) -> list:
        w = self.wcfg
        b = w["factor_coeff_bound"]
        while True:
            cs = ([self.rng.randint(-b, b) for _ in range(d)]
                  + [self.rng.randint(1, w["factor_lead_max"])])
            if cs[0]:
                return cs

    def _eisenstein(self, d: int) -> tuple[list, str]:
        w = self.wcfg
        p = self.rng.choice(w["eisenstein_primes"])
        b = w["eisenstein_coeff_bound"]
        units = [u for u in range(-b, b + 1) if u % p]
        base = ([p * self.rng.choice(units)]
                + [p * self.rng.randint(-b, b) for _ in range(d - 1)]
                + [self.rng.choice([u for u in units if u > 0])])
        assert ref.is_eisenstein(base, p)
        s = self.rng.choice([s for s in w["shifts"] if s % p])
        return ref.shift_argument(base, s), f"eisenstein at {p}, x -> x{s:+d}"

    def passes(self):
        w = self.wcfg
        while True:
            items = []
            for a, b in w["product_splits"]:
                f, g = self._factor(a), self._factor(b)
                items.append(IrreducibilityInput(
                    "product", tuple(ref.mul(f, g)), f"factors {a}x{b}"))
            for d in w["eisenstein_degrees"]:
                cs, detail = self._eisenstein(d)
                items.append(IrreducibilityInput("eisenstein", tuple(cs),
                                                 detail))
            self.rng.shuffle(items)
            yield items

    def call(self, inp: IrreducibilityInput):
        return self.sa.certify_irreducible(self.sa.IntPoly(inp.coeffs),
                                           self.factor_caps)

    def judge(self, inp: IrreducibilityInput, result) -> str:
        sa = self.sa
        cs = list(inp.coeffs)
        if isinstance(result, sa.Unknown):
            return "undecided"
        if inp.kind == "product":
            if not isinstance(result, sa.Reducible):
                raise WrongVerdict(f"{inp.label}: a product came back "
                                   f"{result!r}")
            if not ref.is_proper_factor(list(result.factor.coeffs), cs):
                raise WrongVerdict(f"{inp.label}: {result.factor} is not a "
                                   "proper factor")
            return "decided"
        if not isinstance(result, sa.Irreducible):
            raise WrongVerdict(f"{inp.label}: an irreducible input came back "
                               f"{result!r}")
        if (result.method == "eisenstein"
                and not ref.is_eisenstein(cs, result.eisenstein_prime)):
            raise WrongVerdict(f"{inp.label}: not Eisenstein at "
                               f"{result.eisenstein_prime}")
        return "decided"


# --------------------------------------------------------------------------
# oracle


@dataclass(frozen=True)
class OracleInput:
    coeffs: tuple  # monic modulus
    k: int
    n_max: int
    allowed: tuple  # known atom powers
    strong: object  # closed-form strong count: int or ref.INF
    nonstrong_by: Optional[int]  # a known second factorization at this n

    @property
    def label(self) -> str:
        return (f"strong_check_oracle(k={self.k}, {list(self.coeffs)}, "
                f"n_max={self.n_max})")


class Oracle(Workload):
    """Monic quadratics from the degree-2 table and family members of
    degree 3-5, with the alphabet restricted to known atom powers.

    Expectations from the closed forms: a power below the strong count
    never has a second factorization.  For x^2 + bx - c (c >= 2) the
    relation c*a^k = a^(k+2) + b*a^(k+1), and for x^2 - bx + c the
    relation b*a^k = a^(k+1) + c*a^(k-1), give a known second
    factorization; when it fits the caps the oracle must find one.
    """

    name = "oracle"

    def _quadratics(self):
        w = self.wcfg
        top = self.oracle_caps.max_power
        out = []
        for form in ("++-", "+-+", "+--"):
            seen = set()
            while len(seen) < w["quadratics_per_form"]:
                b = self.rng.randint(1, w["quadratic_b_max"])
                c = self.rng.randint(1, w["quadratic_c_max"])
                coeffs = {"++-": (-c, b, 1), "+-+": (c, -b, 1),
                          "+--": (-c, -b, 1)}[form]
                if ref.quadratic_is_reducible(*coeffs):
                    continue
                if form == "+-+" and b * b <= 4 * c:
                    continue  # no real root
                if form == "++-" and c < 2:
                    continue  # (0, 0): no atoms to test
                strong, atoms = ref.quadratic_pair(*coeffs)
                allowed = tuple(range(top + 1) if atoms == ref.INF
                                else range(min(atoms, top + 1)))
                k = self.rng.choice(allowed)
                n_max = self.rng.randint(*w["n_max_range"])
                key = (coeffs, k, n_max)
                if key in seen:
                    continue
                seen.add(key)
                by = None
                if form == "++-" and k + 2 <= top and b + 1 <= \
                        self.oracle_caps.max_total and c <= n_max:
                    by = c
                if form == "+-+" and k >= 1 and k + 1 <= top and c + 1 <= \
                        self.oracle_caps.max_total and b <= n_max:
                    by = b
                out.append(OracleInput(coeffs, k, n_max, allowed, strong, by))
        return out

    def passes(self):
        w = self.wcfg
        top = self.oracle_caps.max_power
        while True:
            items = self._quadratics()
            for c in w["family_c"]:
                strong, atoms = ref.family_pair(1, c)
                allowed = tuple(range(min(atoms, top + 1)))
                items.append(OracleInput(
                    tuple(ref.family_member(1, c)), self.rng.choice(allowed),
                    self.rng.randint(*w["n_max_range"]), allowed, strong,
                    None))
            self.rng.shuffle(items)
            yield items

    def call(self, inp: OracleInput):
        sa = self.sa
        return sa.strong_check_oracle(inp.k, sa.IntPoly(inp.coeffs),
                                      inp.n_max, self.oracle_caps,
                                      allowed_powers=inp.allowed)

    def judge(self, inp: OracleInput, result) -> str:
        sa = self.sa
        below_strong = inp.strong == ref.INF or inp.k < inp.strong
        if isinstance(result, sa.StrongUpTo):
            if result.n_max != inp.n_max:
                raise WrongVerdict(f"{inp.label}: {result!r}")
            if inp.nonstrong_by is not None:
                raise WrongVerdict(f"{inp.label}: missed the known second "
                                   f"factorization at n={inp.nonstrong_by}")
            return "decided"
        if below_strong:
            raise WrongVerdict(f"{inp.label}: a strong power came back "
                               f"{result!r}")
        n, exps = result.n, result.factorization.exponents
        m = list(inp.coeffs)
        total = [0] * (len(m) - 1)
        for e in exps:
            total = [a + b for a, b in zip(total, ref.power_coords(e, m))]
        target = [n * v for v in ref.power_coords(inp.k, m)]
        if (not 2 <= n <= inp.n_max or total != target
                or exps == (inp.k,) * n
                or not set(exps) <= set(inp.allowed)
                or len(exps) > self.oracle_caps.max_total
                or (inp.nonstrong_by is not None and n > inp.nonstrong_by)):
            raise WrongVerdict(f"{inp.label}: bad second factorization "
                               f"{result!r}")
        return "decided"


WORKLOADS = {cls.name: cls for cls in (Family, RandomModuli, Irreducibility,
                                       Oracle)}
