"""Independent exact references for the benchmark's correctness gate.

Everything here works on plain constant-first coefficient lists of
Python ints and Fractions and imports nothing from the package, so a
defect in the package's polynomial or root-counting code cannot hide
itself by agreeing with its own reference.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

INF = "inf"


def trim(a: Sequence) -> list:
    out = list(a)
    while out and out[-1] == 0:
        out.pop()
    return out


def mul(a: Sequence, b: Sequence) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return trim(out)


def remainder(a: Sequence, b: Sequence) -> list:
    """Remainder of a modulo b over the rationals (b nonzero)."""
    b = trim(b)
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    r = [Fraction(x) for x in trim(a)]
    while len(r) >= len(b):
        t = r[-1] / b[-1]
        shift = len(r) - len(b)
        for i, c in enumerate(b):
            r[shift + i] -= t * c
        r = trim(r)
    return r


def is_proper_factor(g: Sequence, f: Sequence) -> bool:
    """g divides f exactly over the rationals and 0 < deg g < deg f."""
    g, f = trim(g), trim(f)
    return 1 < len(g) < len(f) and not remainder(f, g)


def shift_argument(p: Sequence[int], s: int) -> list:
    """Coefficients of p(x + s), by Horner's rule."""
    out: list = []
    for c in reversed(list(p)):
        out = mul(out, [s, 1]) or [0]
        out[0] += c
        out = trim(out)
    return out


def is_eisenstein(p: Sequence[int], prime: int) -> bool:
    cs = trim(p)
    return (len(cs) >= 2 and cs[-1] % prime != 0
            and all(c % prime == 0 for c in cs[:-1])
            and cs[0] % (prime * prime) != 0)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _variations(signs: Sequence[int]) -> int:
    nz = [s for s in signs if s]
    return sum(1 for a, b in zip(nz, nz[1:]) if a != b)


def positive_root_count(p: Sequence[int]) -> int:
    """Distinct real roots in (0, inf) of p, which must not vanish at 0.

    Sturm's theorem: V(0) - V(inf) over the Sturm sequence of p.
    """
    f = [Fraction(c) for c in trim(p)]
    if not f or f[0] == 0:
        raise ValueError("need a polynomial with nonzero constant term")
    seq = [f]
    nxt = trim([i * c for i, c in enumerate(f)][1:])
    while nxt:
        seq.append(nxt)
        nxt = [-c for c in remainder(seq[-2], seq[-1])]
    at_zero = _variations([_sign(s[0]) for s in seq])
    at_inf = _variations([_sign(s[-1]) for s in seq])
    return at_zero - at_inf


def power_coords(e: int, m: Sequence[int]) -> list:
    """Power-basis coordinates of x^e modulo the monic m."""
    d = len(m) - 1
    if m[-1] != 1:
        raise ValueError("need a monic modulus")
    v = [0] * d
    if e < d:
        v[e] = 1
        return v
    v[d - 1] = 1
    for _ in range(e - d + 1):
        top = v[-1]
        v = [0] + v[:-1]
        for i in range(d):
            v[i] -= top * m[i]
    return v


def family_member(k: int, c: int) -> list:
    """The (4k + c, 5k + c) realization family, written out directly.

    c = 0: x^(3k) - 8x^(2k) + 4x^k - 2.
    c >= 1: x^(3k+c) - 8x^(2k+c) + 4x^(k+c) - 2x^c - 2.
    """
    if c == 0:
        terms = {3 * k: 1, 2 * k: -8, k: 4, 0: -2}
    else:
        terms = {3 * k + c: 1, 2 * k + c: -8, k + c: 4, c: -2}
        terms[0] = terms.get(0, 0) - 2
    out = [0] * (max(terms) + 1)
    for e, v in terms.items():
        out[e] += v
    return out


def family_pair(k: int, c: int) -> tuple[int, int]:
    return 4 * k + c, 5 * k + c


def quadratic_is_reducible(c0: int, c1: int, c2: int) -> bool:
    disc = c1 * c1 - 4 * c2 * c0
    return disc >= 0 and math.isqrt(disc) ** 2 == disc


def quadratic_pair(c0: int, c1: int, c2: int) -> Optional[tuple]:
    """The closed-form (strong, atoms) table for a primitive irreducible
    quadratic c2 x^2 + c1 x + c0 with c2 > 0 and c0, c1 nonzero.

    all coefficients positive       -> (0, 0)
    + + -  with |c0| = 1            -> (0, 0);  |c0| > 1 -> (0, inf)
    + - +  (two positive roots)     -> (1, inf)
    + - -  with c2 = 1              -> (2, 2);  c2 > 1   -> (2, inf)

    None when the shape is outside the table (a zero coefficient).
    """
    if c0 == 0 or c1 == 0 or c2 <= 0:
        return None
    if c1 > 0 and c0 > 0:
        return (0, 0)
    if c1 > 0:
        return (0, 0) if c0 == -1 else (0, INF)
    if c0 > 0:
        return (1, INF)
    return (2, 2) if c2 == 1 else (2, INF)
