"""Invariants of binary quartics and quintics in exact rational arithmetic.

A quartic carries the classical pair (S, T); a quintic carries the vector
(J, K, L, H) built from a fixed transvectant chain, together with its
discriminant.  The three-parameter Sylvester family

    u*x1**5 + v*x2**5 - w*(x1 + x2)**5

is the worked test bed: on it every quintic invariant collapses to a short
closed form in u, v, w, which makes exact cross-checking cheap.

All functions accept numeric (rational) or symbolic (polynomial) coefficients
and return values in kind: a Fraction when the result is constant, an MPoly
otherwise.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple

from .forms import (BinaryForm, _over, _require_forms, _transvectant_sum,
                    discriminant, transvectant)
from .mpoly import (MPoly, _Record, _addmul, _as_exact, _cleared,
                    _int_exponent, _int_terms, _shown, _universe)

__all__ = [
    "QuarticInvariants",
    "quartic_S",
    "quartic_S_transvectant",
    "quartic_T",
    "quartic_T_transvectant",
    "quartic_invariants",
    "j_invariant",
    "CovariantChain",
    "quintic_covariants",
    "canonizant",
    "InvariantVector",
    "quintic_invariants",
    "verify_relation",
    "graded_dimension",
    "iter_monomial_basis",
    "monomial_basis",
    "SylvesterPoint",
    "sylvester_specialize",
    "sylvester_invariants",
    "verify_disc",
    "verify_dims",
]


def _require_order(form: BinaryForm, order: int, what: str) -> None:
    _require_forms(what, form)
    if form.order != order:
        raise ValueError(
            f"{what} requires a form of order {order}, got order {form.order}")


# ---------------------------------------------------------------------------
# quartic invariants
# ---------------------------------------------------------------------------

class QuarticInvariants(_Record):
    """The invariant pair (S, T) of a binary quartic.

    S has degree 2 and weight 4, T degree 3 and weight 6, and the quartic
    discriminant is 2**8 * (S**3 - 27*T**2) identically.
    """

    __slots__ = ("S", "T")

    def __init__(self, S, T):
        self.S = _as_exact(S)
        self.T = _as_exact(T)

    @property
    def discriminant(self):
        return _as_exact(256 * (self.S ** 3 - 27 * self.T ** 2))


def quartic_S(quartic: BinaryForm):
    """Degree-2 quartic invariant: q0*q4 - 4*q1*q3 + 3*q2**2.

    The q's are the binomial-convention coefficients of the quartic; the
    half-fourth-transvectant route ``quartic_S_transvectant`` computes the
    same value by differentiation and is kept as an independent cross-check.
    """
    _require_order(quartic, 4, "quartic_S")
    (vs, d), s = islice(_scaled_quartic(quartic), 2)
    return _as_exact(MPoly._make(vs, s, 12 * d * d))


def quartic_S_transvectant(quartic: BinaryForm):
    """S computed as half the fourth transvectant of the quartic with itself."""
    _require_order(quartic, 4, "quartic_S_transvectant")
    return _as_exact(
        Fraction(1, 2) * transvectant(quartic, quartic, 4).coeffs[0])


def quartic_T(quartic: BinaryForm):
    """Degree-3 quartic invariant:
    q0*q2*q4 + 2*q1*q2*q3 - q2**3 - q0*q3**2 - q1**2*q4.
    """
    _require_order(quartic, 4, "quartic_T")
    (vs, d), _, t = _scaled_quartic(quartic)
    return _as_exact(MPoly._make(vs, t, 432 * d ** 3))


def _scaled_quartic(quartic: BinaryForm) -> Iterator:
    """The sorted universe vs of a quartic's coefficients and the lcm d of
    their denominators, then s = 12 d**2 S and t = 432 d**3 T as int term
    dicts over vs, lazily: S needs no T.

    On the plain coefficients c_i = n_i / d, 12 S = 12 c0 c4 - 3 c1 c3
    + c2**2 and 432 T = c2 (72 c0 c4 + 9 c1 c3 - 2 c2**2)
    - 27 (c0 c3**2 + c1**2 c4), so the same sums of the int term dicts n_i
    give s and t, each product's degree checked by the kernel.
    """
    vs = _universe(quartic.coeffs)
    n, d = _int_terms(quartic.coeffs, vs)
    yield vs, d
    n0, n1, n2, n3, n4 = n
    s = _addmul(_addmul(_addmul({}, n0, n4, 12, vs), n1, n3, -3, vs),
                n2, n2, 1, vs)
    yield {k: c for k, c in s.items() if c}
    inner = _addmul(_addmul(_addmul({}, n0, n4, 72, vs), n1, n3, 9, vs),
                    n2, n2, -2, vs)
    t = _addmul({}, n2, inner, 1, vs)
    _addmul(t, n0, _addmul({}, n3, n3, 1, vs), -27, vs)
    _addmul(t, n4, _addmul({}, n1, n1, 1, vs), -27, vs)
    yield {k: c for k, c in t.items() if c}


def quartic_T_transvectant(quartic: BinaryForm):
    """T computed as one sixth of (Q, (Q,Q)_2)_4."""
    _require_order(quartic, 4, "quartic_T_transvectant")
    inner = transvectant(quartic, quartic, 2)
    return _as_exact(
        Fraction(1, 6) * transvectant(quartic, inner, 4).coeffs[0])


def quartic_invariants(quartic: BinaryForm) -> QuarticInvariants:
    return QuarticInvariants(quartic_S(quartic), quartic_T(quartic))


def j_invariant(quartic: BinaryForm) -> Fraction:
    """Projective invariant S**3 / (S**3 - 27*T**2) of a numeric quartic.

    Classifies the configuration of the quartic's four roots on the
    projective line; requires a nonvanishing quartic discriminant.
    """
    s = quartic_S(quartic)
    t = quartic_T(quartic)
    if isinstance(s, MPoly) or isinstance(t, MPoly):
        raise TypeError("j_invariant requires a numeric quartic")
    denominator = s ** 3 - 27 * t ** 2
    if denominator == 0:
        raise ValueError("degenerate quartic")
    return Fraction(s ** 3, 1) / denominator


# ---------------------------------------------------------------------------
# quintic covariants and invariants
# ---------------------------------------------------------------------------

class CovariantChain(NamedTuple):
    """The four chained covariants of a quintic F.

    first   = (F, F)_4             order 2, degree 2
    second  = (F, first)_2         order 3, degree 3
    third   = (second, second)_2   order 2, degree 6
    fourth  = (second, first)_2    order 1, degree 5

    The negated ``second`` is the canonizant: its three linear factors are
    the fifth-power forms of the Sylvester canonical shape.
    """

    first: BinaryForm
    second: BinaryForm
    third: BinaryForm
    fourth: BinaryForm


def quintic_covariants(quintic: BinaryForm) -> CovariantChain:
    """Compute the covariant chain of a quintic; orders come out (2, 3, 2, 1)."""
    _require_order(quintic, 5, "quintic_covariants")
    return CovariantChain(*(BinaryForm([_over(c, scale) for c in form])
                            for form, scale in _scaled_covariants(quintic)))


def _scaled_covariants(quintic: BinaryForm) -> Iterator[tuple]:
    """The covariant chain as (coefficients, scale) pairs, one at a time,
    each covariant being its coefficients over its int scale.

    A numeric quintic is cleared first, by the lcm m of its coefficient
    denominators, so that every sum runs on ints; with an MPoly
    coefficient m = 1.  Each sum carries its weights' den times the scales
    of its two operands: ``first`` carries d1 * m**2.
    """
    f, m = quintic.coeffs, 1
    if not any(isinstance(c, MPoly) for c in f):
        f, m = _cleared(f)
    first = _scaled_transvectant((f, m), (f, m), 4)
    second = _scaled_transvectant((f, m), first, 2)
    yield from (first, second, _scaled_transvectant(second, second, 2))
    yield _scaled_transvectant(second, first, 2)


def _scaled_transvectant(f: tuple, g: tuple, k: int) -> tuple:
    """(f, g)_k of two (coefficients, scale) pairs, as such a pair."""
    out, den = _transvectant_sum(f[0], g[0], k)
    return out, den * f[1] * g[1]


def canonizant(quintic: BinaryForm) -> BinaryForm:
    """The degree-3, order-3 covariant locating the canonical fifth powers."""
    _require_order(quintic, 5, "canonizant")
    first = transvectant(quintic, quintic, 4)
    return -transvectant(quintic, first, 2)


class InvariantVector(_Record):
    """The fundamental quintic invariants J, K, L, H plus the discriminant.

    Degrees are (4, 8, 12, 18) and weights (10, 20, 30, 45); the discriminant
    has degree 8 and weight 20 and is computed as Disc = 5**5 * (J**2 - 128*K).
    The four generators are linked by the exact degree-36 relation

        16*H**2 = -432*L**3 - 72*L**2*K*J + 8*L*K**3
                  - 2*L*K**2*J**2 + L**2*J**3 + K**4*J.
    """

    __slots__ = ("J", "K", "L", "H", "Disc")

    DEGREES = {"J": 4, "K": 8, "L": 12, "H": 18, "Disc": 8}

    def __init__(self, J, K, L, H):
        self.J = _as_exact(J)
        self.K = _as_exact(K)
        self.L = _as_exact(L)
        self.H = _as_exact(H)
        self.Disc = _as_exact(3125 * (self.J * self.J - 128 * self.K))

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def quintic_invariants(quintic: BinaryForm) -> InvariantVector:
    """The invariant vector of a quintic, by the transvectant chain.

    J = -1/2 (first, first)_2        degree  4
    K =  1/8 (first, third)_2        degree  8
    L = 1/96 (third, third)_2        degree 12
    H = -1/384 ((fourth, third)_1, (first, fourth)_1)_1   degree 18

    Each is one numerator of the scaled chain, divided once.
    """
    _require_order(quintic, 5, "quintic_invariants")
    return InvariantVector(*(_over(n, d)
                             for n, d in _scaled_invariants(quintic)))


def _scaled_invariants(quintic: BinaryForm) -> Iterator[tuple]:
    """J, K, L, H as pairs (n, d) of value n / d, lazily: L needs no H."""
    chain = _scaled_covariants(quintic)
    first, _, third = islice(chain, 3)
    for f, g, divisor in ((first, first, -2), (first, third, 8),
                          (third, third, 96)):
        out, scale = _scaled_transvectant(f, g, 2)
        yield out[0], divisor * scale
    fourth = next(chain)
    out, scale = _scaled_transvectant(_scaled_transvectant(fourth, third, 1),
                                      _scaled_transvectant(first, fourth, 1), 1)
    yield out[0], -384 * scale


def verify_relation(vector: InvariantVector) -> bool:
    """Exact check of the degree-36 relation tying J, K, L, H together."""
    J, K, L, H = vector.J, vector.K, vector.L, vector.H
    lhs = 16 * H * H
    rhs = (-432 * L ** 3 - 72 * L ** 2 * K * J + 8 * L * K ** 3
           - 2 * L * K ** 2 * J ** 2 + L ** 2 * J ** 3 + K ** 4 * J)
    return lhs == rhs


# ---------------------------------------------------------------------------
# graded components of the quintic invariant ring
# ---------------------------------------------------------------------------

def _check_graded_degree(d: int) -> None:
    if _int_exponent(d, "degree") <= 0 or d % 4:
        raise ValueError(
            f"degree must be a positive multiple of 4, got {_shown(d)}")


def graded_dimension(d: int) -> int:
    """Dimension of the space of degree-d quintic invariants.

    This is the partition-count sum nu(0) + ... + nu(m), m = d/4, with
    nu(k) = floor(k/6) when k = 1 mod 6 and floor(k/6) + 1 otherwise,
    summed in closed form: with m + 1 = 6q + r, 0 <= r < 6, the floors add
    up to 3q(q - 1) + rq, and the ones to 5q + r, less one when r >= 2.
    For d = 24*l this equals 3*l**2 + 3*l + 1.
    """
    _check_graded_degree(d)
    q, r = divmod(d // 4 + 1, 6)
    return 3 * q * (q - 1) + r * q + 5 * q + r - (1 if r >= 2 else 0)


def iter_monomial_basis(d: int) -> Iterator[tuple]:
    """Exponent triples (a1, a2, a3) with L**a1 * K**a2 * J**a3 of degree d,
    one at a time.

    Since J, K, L are algebraically independent these monomials are a basis
    of the degree-d graded component; the fixed output order is L-exponent
    descending, then K-exponent descending.
    """
    _check_graded_degree(d)
    m = d // 4
    for a1 in range(m // 3, -1, -1):
        for a2 in range((m - 3 * a1) // 2, -1, -1):
            yield (a1, a2, m - 3 * a1 - 2 * a2)


def monomial_basis(d: int) -> list:
    """The list of ``iter_monomial_basis(d)``."""
    return list(iter_monomial_basis(d))


# ---------------------------------------------------------------------------
# the Sylvester canonical family
# ---------------------------------------------------------------------------

class SylvesterPoint(_Record):
    """Parameters (u, v, w) of the canonical quintic
    u*x1**5 + v*x2**5 - w*(x1 + x2)**5; shown positionally."""

    __slots__ = ("u", "v", "w")

    def __init__(self, u, v, w):
        self.u = _as_exact(u)
        self.v = _as_exact(v)
        self.w = _as_exact(w)

    @classmethod
    def symbolic(cls) -> "SylvesterPoint":
        return cls(MPoly.variable("u"), MPoly.variable("v"),
                   MPoly.variable("w"))

    def __repr__(self):
        return f"SylvesterPoint({self.u!r}, {self.v!r}, {self.w!r})"


def sylvester_specialize(point: SylvesterPoint) -> BinaryForm:
    """Coefficient vector [u-w, -5w, -10w, -10w, -5w, v-w] of the canonical
    quintic."""
    u, v, w = point.u, point.v, point.w
    return BinaryForm([u - w, -5 * w, -10 * w, -10 * w, -5 * w, v - w])


def sylvester_invariants(point: SylvesterPoint) -> InvariantVector:
    """Closed forms of the quintic invariants on the canonical family:

    J = (uv + uw + vw)**2 - 4uvw(u + v + w)
    K = (uvw)**2 * (uv + uw + vw)
    L = (uvw)**4
    H = (uvw)**5 * (u - v)(u - w)(v - w)

    These equal the transvectant-route values of ``quintic_invariants`` on
    ``sylvester_specialize(point)`` — an identity the test suite pins down
    with u, v, w symbolic.
    """
    u, v, w = point.u, point.v, point.w
    e1 = u + v + w
    e2 = u * v + u * w + v * w
    e3 = u * v * w
    j = e2 * e2 - 4 * (e3 * e1)
    k = e3 * e3 * e2
    l = e3 ** 4
    h = e3 ** 5 * (u - v) * (u - w) * (v - w)
    return InvariantVector(j, k, l, h)


# ---------------------------------------------------------------------------
# batch verifications (used by the command line front end)
# ---------------------------------------------------------------------------

def verify_disc(seed: int = 0) -> dict:
    """Dual-route discriminant check: Disc(F) == 5**5 * (J**2 - 128*K).

    The left side always comes from the resultant of the two partial
    derivatives, the right side from the transvectant-route invariants.
    Checked symbolically on the canonical family (u, v, w indeterminate) and
    numerically on 20 seeded random integer quintics.
    """
    point = SylvesterPoint.symbolic()
    form = sylvester_specialize(point)
    # InvariantVector's Disc is 5**5 * (J**2 - 128*K)
    symbolic_ok = discriminant(form) == quintic_invariants(form).Disc

    rng = random.Random(seed)
    numeric_ok = True
    for _ in range(20):
        coeffs = [rng.randrange(-9, 10) for _ in range(6)]
        form = BinaryForm(coeffs)
        if discriminant(form) != quintic_invariants(form).Disc:
            numeric_ok = False
            break
    return {
        "symbolic_canonical": symbolic_ok,
        "numeric_samples": 20,
        "numeric_random": numeric_ok,
        "holds": symbolic_ok and numeric_ok,
    }


def verify_dims() -> dict:
    """Check the graded dimensions through all three routes.

    For l = 1..5 (degrees 24..120) the partition-count sum (summed in
    closed form by ``graded_dimension``), the closed form 3*l**2 + 3*l + 1,
    and the enumerated monomial basis must agree; the
    degree-24/48/72 values are additionally pinned to 7, 19, 37.
    """
    pinned = {24: 7, 48: 19, 72: 37}
    rows = []
    ok = True
    for l in range(1, 6):
        d = 24 * l
        nu_sum = graded_dimension(d)
        closed = 3 * l * l + 3 * l + 1
        basis = len(monomial_basis(d))
        match = nu_sum == closed == basis
        if d in pinned:
            match = match and nu_sum == pinned[d]
        ok = ok and match
        rows.append({"degree": d, "nu_sum": nu_sum, "closed_form": closed,
                     "basis_size": basis, "match": match})
    return {"holds": ok, "rows": rows}
