"""Seeded inputs for the benchmark workloads.

Nothing here imports binform: the library receives only what this module
generates.  Every random choice comes from ``random.Random(seed)``, so one
seed always gives the same inputs, and ``digest`` names them.

Quintics are coefficient vectors (a0, ..., a5) of
a0*x1**5 + a1*x1**4*x2 + ... + a5*x2**5, as Fractions.  Every generated
quintic has distinct roots (checked here with a gcd, independently of the
library), so no request hits the library's "unstable form" refusal.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import comb

# Coefficient heights the mix varies over; cost grows with height.
HEIGHTS = ("small", "int20", "rat64")

# One numeric block: every request kind at every height, plus TAIL_SLOTS,
# shuffled.  Pairs are half equivalent by construction and half independent
# draws.
NUMERIC_SLOTS = (
    ("invariants", None), ("invariants", None),
    ("closed_form", None), ("closed_form", None), ("closed_form", None),
    ("pipeline", None),
    ("discriminant", None),
    ("equiv", True), ("equiv", False),
    ("jdata", True), ("jdata", False),
)
# Five more beauville_pipeline requests on 64-bit rationals.  With them, six
# of a block's 38 requests (16 %) are 64-bit pipelines, which take 36-51 ms
# on a 2-core virtual machine against at most 20 ms for any other request,
# and det_fraction_free is about 87 % of their time.  So the 90th percentile
# falls inside their cluster, a third of the way up, and moves with the
# determinant; with fewer it would fall among the pair requests, which never
# call it.  The median falls among the 6-8 ms requests, where the
# transvectant chain dominates and the determinant does not run.
TAIL_SLOTS = (("pipeline", None, "rat64"),) * 5
NUMERIC_BLOCK = len(NUMERIC_SLOTS) * len(HEIGHTS) + len(TAIL_SLOTS)
# About one input in five has a0 = 0, which sends the pipeline down the
# shear path.
A0_ZERO_PER_BLOCK = NUMERIC_BLOCK // 5

# `verify disc` is the slowest invocation (about twice the others).  With
# four of a block's 19 invocations (21 %) the 90th percentile falls in the
# middle of their cluster; with one it would fall in the gap below it, and
# jump from run to run.
VERIFY_DISC_PER_BLOCK = 4

MALFORMED = ("five-coeffs", "zero-form", "not-a-number", "zero-denominator",
             "bad-degree", "not-48")


def _coefficient(rng: random.Random, height: str) -> Fraction:
    if height == "small":
        return Fraction(rng.randint(-8, 8))
    if height == "int20":
        return Fraction(rng.randint(-(1 << 20) + 1, (1 << 20) - 1))
    numerator = rng.randint(-(1 << 63) + 1, (1 << 63) - 1)
    return Fraction(numerator, rng.randint(1, (1 << 16) - 1))


def _trim(poly: list) -> list:
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _poly_rem(num: list, den: list) -> list:
    """Remainder of univariate polynomials, coefficient lists low to high."""
    num = list(num)
    while len(num) >= len(den):
        factor = num[-1] / den[-1]
        shift = len(num) - len(den)
        for i, c in enumerate(den):
            num[shift + i] -= factor * c
        num.pop()
        _trim(num)
    return num


def has_distinct_roots(coeffs) -> bool:
    """True when the binary quintic has five distinct roots on P^1.

    A root at infinity (a0 = 0) is simple exactly when a1 != 0; the affine
    part is checked by gcd(p, p') being constant.
    """
    a = [Fraction(c) for c in coeffs]
    if a[0] == 0 and a[1] == 0:
        return False
    p = _trim(list(reversed(a)))      # p(t) = a0 t^5 + ... + a5, low to high
    f, g = p, _trim([i * c for i, c in enumerate(p)][1:])
    while g:
        f, g = g, _trim(_poly_rem(f, g))
    return len(f) == 1


def random_quintic(rng: random.Random, height: str, a0_zero: bool = False):
    while True:
        coeffs = [_coefficient(rng, height) for _ in range(6)]
        if a0_zero:
            coeffs[0] = Fraction(0)
        elif coeffs[0] == 0:
            continue
        if has_distinct_roots(coeffs):
            return tuple(coeffs)


def _linear_power(a, b, m):
    """Coefficients of (a*x1 + b*x2)**m by power of x2."""
    return [comb(m, j) * a ** (m - j) * b ** j for j in range(m + 1)]


def transform(coeffs, matrix, scale):
    """scale * F(a*x1 + b*x2, c*x1 + d*x2), computed by direct expansion."""
    a, b, c, d = matrix
    out = [Fraction(0)] * 6
    for i, ai in enumerate(coeffs):
        if not ai:
            continue
        left = _linear_power(a, b, 5 - i)
        right = _linear_power(c, d, i)
        for j, x in enumerate(left):
            for k, y in enumerate(right):
                out[j + k] += scale * ai * x * y
    return tuple(out)


def equivalent_partner(rng: random.Random, coeffs):
    """s * (g.F) with det g = 1 and s a small nonzero rational."""
    k1, k2 = rng.randint(-2, 2), rng.randint(-2, 2)
    matrix = (1 + k1 * k2, k1, k2, 1)          # [[1,k1],[0,1]]@[[1,0],[k2,1]]
    scale = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2, 3)))
    scale *= rng.choice((1, -1))
    return transform(coeffs, matrix, scale)


def _pair(rng, height, a0_zero, equivalent):
    first = random_quintic(rng, height, a0_zero)
    if equivalent:
        second = equivalent_partner(rng, first)
    else:
        second = random_quintic(rng, height)
    return first, second


def numeric_block(rng: random.Random) -> list:
    """One block of numeric requests: each kind at each height, the tail
    slots, a fixed number with a0 = 0, shuffled."""
    slots = [(kind, eq, height) for height in HEIGHTS
             for kind, eq in NUMERIC_SLOTS] + list(TAIL_SLOTS)
    zero_a0 = set(rng.sample(range(len(slots)), A0_ZERO_PER_BLOCK))
    requests = []
    for index, (kind, equivalent, height) in enumerate(slots):
        a0_zero = index in zero_a0
        request = {"kind": kind, "height": height}
        if equivalent is None:
            request["f"] = random_quintic(rng, height, a0_zero)
        else:
            request["f"], request["g"] = _pair(rng, height, a0_zero,
                                               equivalent)
            request["equivalent"] = equivalent
        requests.append(request)
    rng.shuffle(requests)
    return requests


def numeric_blocks(seed: int):
    """The endless seeded stream of numeric blocks."""
    rng = random.Random(f"numeric:{seed}")
    while True:
        yield numeric_block(rng)


def coeff_text(coeffs) -> str:
    return ",".join(str(c) for c in coeffs)


def _degree48_triple(rng: random.Random):
    """A random (a1, a2, a3) with 12*a1 + 8*a2 + 4*a3 a positive multiple
    of 48."""
    while True:
        a1, a2 = rng.randint(0, 8), rng.randint(0, 12)
        rest = -(12 * a1 + 8 * a2) % 48 + 48 * rng.randint(0, 2)
        a3 = rest // 4
        if 12 * a1 + 8 * a2 + 4 * a3 > 0:
            return a1, a2, a3


def _malformed(rng: random.Random, kind: str, height: str) -> list:
    f = coeff_text(random_quintic(rng, height))
    if kind == "five-coeffs":
        return ["invariants", f.rsplit(",", 1)[0]]
    if kind == "zero-form":
        return ["beauville", "0,0,0,0,0,0"]
    if kind == "not-a-number":
        return ["invariants", "x," + f.split(",", 1)[1]]
    if kind == "zero-denominator":
        return ["equiv", "1/0," + f.split(",", 1)[1], f]
    if kind == "bad-degree":
        return ["dim", str(4 * rng.randint(1, 30) + rng.choice((1, 2, 3)))]
    return ["decompose48", "1", "1", "1"]


def cli_block(rng: random.Random, height: str) -> list:
    """One block of CLI invocations: every subcommand except keyprop, with
    four `verify disc`, one malformed input and one unstable input (both
    must exit 2), shuffled."""
    f = random_quintic(rng, height, a0_zero=rng.random() < 0.2)
    eq_first, eq_second = _pair(rng, height, False, True)
    in_first, in_second = _pair(rng, height, False, False)
    j_first, j_second = _pair(rng, height, False, True)
    k_first, k_second = _pair(rng, height, False, False)
    unstable = random_quintic(rng, height)
    unstable = (Fraction(0), Fraction(0)) + unstable[2:]
    calls = [
        {"argv": ["invariants", coeff_text(f)], "expect": "invariants",
         "f": f},
        {"argv": ["beauville", coeff_text(f)], "expect": "closed_form",
         "f": f},
        {"argv": ["beauville", coeff_text(f), "--pipeline"],
         "expect": "pipeline", "f": f},
        {"argv": ["equiv", coeff_text(eq_first), coeff_text(eq_second)],
         "expect": "equiv", "f": eq_first, "g": eq_second,
         "equivalent": True},
        {"argv": ["equiv", coeff_text(in_first), coeff_text(in_second)],
         "expect": "equiv", "f": in_first, "g": in_second,
         "equivalent": False},
        {"argv": ["jdata", coeff_text(j_first), coeff_text(j_second)],
         "expect": "jdata", "f": j_first, "g": j_second, "equivalent": True},
        {"argv": ["jdata", coeff_text(k_first), coeff_text(k_second)],
         "expect": "jdata", "f": k_first, "g": k_second, "equivalent": False},
        {"argv": ["dim", str(4 * rng.randint(1, 60))], "expect": "dim"},
        {"argv": ["basis", str(4 * rng.randint(1, 30)), "--json"],
         "expect": "basis"},
        {"argv": ["decompose48", *map(str, _degree48_triple(rng)), "--json"],
         "expect": "decompose48"},
        {"argv": [rng.choice(("equiv", "jdata")), coeff_text(unstable),
                  coeff_text(f)], "expect": "usage_error"},
        {"argv": _malformed(rng, rng.choice(MALFORMED), height),
         "expect": "usage_error"},
    ]
    calls += [{"argv": ["verify", target], "expect": "verify"}
              for target in ("relation", "prop48", "dims")]
    calls += [{"argv": ["verify", "disc", "--seed",
                        str(rng.randint(0, 10 ** 6))], "expect": "verify"}
              for _ in range(VERIFY_DISC_PER_BLOCK)]
    for call in calls:
        call["height"] = height
    rng.shuffle(calls)
    return calls


def cli_blocks(seed: int):
    """The endless seeded stream of CLI blocks, cycling through heights."""
    rng = random.Random(f"cli:{seed}")
    while True:
        for height in HEIGHTS:
            yield cli_block(rng, height)


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def digest(inputs) -> str:
    """SHA-256 of the canonical JSON form of a set of generated inputs."""
    text = json.dumps(_jsonable(inputs), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
