"""Binary forms, the GL2 action, transvectants, resultants, discriminants.

A binary form of order p is F(x) = sum_i a_i x1^(p-i) x2^i with no
binomial factors in the coefficients.  Each coefficient is a Fraction or a
non-constant MPoly: numbers and constant MPolys become Fractions, so a
numeric form is a vector of rationals and a generic (symbolic) one holds
polynomials in its coefficient symbols.  The routines below need only
``+``, ``*`` and truth-testing, which both types support.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm
from typing import Sequence

from .mpoly import (MPoly, Scalar, _Record, _addmul, _as_exact,
                    _as_fraction, _check_degree, _cleared, _int_exponent,
                    _int_terms, _max_degree, _mentions, _monomials, _product,
                    _universe, det_fraction_free)

__all__ = [
    "BinaryForm", "GroupElement",
    "act", "transvectant", "resultant", "discriminant", "weight_of",
    "sylvester_matrix", "form_from_roots", "generic_form",
]


class GroupElement(_Record):
    """An invertible 2x2 matrix with exact rational entries."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Scalar, b: Scalar, c: Scalar, d: Scalar):
        self.a = _as_fraction(a)
        self.b = _as_fraction(b)
        self.c = _as_fraction(c)
        self.d = _as_fraction(d)
        if self.det == 0:
            raise ValueError("singular matrix is not a group element")

    @property
    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "GroupElement":
        dt = self.det
        return GroupElement(self.d / dt, -self.b / dt, -self.c / dt, self.a / dt)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        return GroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d)

    def __repr__(self) -> str:
        return f"GroupElement({self.a}, {self.b}, {self.c}, {self.d})"


def weight_of(degree: int, source_order: int, order: int) -> int:
    """Weight of a covariant of given degree and order of a p-form."""
    w2 = (_int_exponent(degree, "degree")
          * _int_exponent(source_order, "source_order")
          - _int_exponent(order, "order"))
    if w2 < 0 or w2 % 2:
        raise ValueError(
            f"no covariant of degree {degree}, order {order} on a form of "
            f"order {source_order}")
    return w2 // 2


class BinaryForm(_Record):
    """A binary form, stored as its ordered coefficient vector: each
    coefficient a Fraction or a non-constant MPoly."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = tuple(_as_exact(c) for c in coeffs)
        if not cs:
            raise ValueError("a form needs at least one coefficient")
        self.coeffs = cs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def binomial_coeffs(self) -> tuple:
        """The (q0..q4) of a quartic in the binomial convention."""
        if self.order != 4:
            raise ValueError("binomial convention is defined for quartics")
        a = self.coeffs
        return (a[0], a[1] / 4, a[2] / 6, a[3] / 4, a[4])

    def to_mpoly(self) -> MPoly:
        """F as a polynomial in x1, x2 and the coefficient symbols; a
        coefficient in which x1 or x2 occurs raises ValueError."""
        for x in ("x1", "x2"):
            if _mentions(self.coeffs, x):
                raise ValueError(f"to_mpoly: a coefficient uses {x!r},"
                                 " a variable of the form")
        p = self.order
        acc = MPoly(("x1", "x2"), {})
        for i, c in enumerate(self.coeffs):
            acc = acc + c * MPoly(("x1", "x2"), {(p - i, i): 1})
        return acc

    def diff_x1(self) -> "BinaryForm":
        p = self.order
        if p == 0:
            return BinaryForm([0])
        return BinaryForm([(p - i) * self.coeffs[i] for i in range(p)])

    def diff_x2(self) -> "BinaryForm":
        p = self.order
        if p == 0:
            return BinaryForm([0])
        return BinaryForm([(i + 1) * self.coeffs[i + 1] for i in range(p)])

    def evaluate(self, x1: Scalar, x2: Scalar):
        """F(x1, x2) at rational x1, x2: a Fraction on a numeric form, an
        MPoly in the coefficient symbols otherwise."""
        x1 = _as_fraction(x1)
        x2 = _as_fraction(x2)
        p = self.order
        acc = 0
        for i, c in enumerate(self.coeffs):
            acc = acc + c * (x1 ** (p - i) * x2 ** i)
        return acc

    def __mul__(self, other):
        if isinstance(other, BinaryForm):
            out = _addmul({}, dict(enumerate(self.coeffs)),
                          dict(enumerate(other.coeffs)))
            return BinaryForm([out[i] for i in range(len(out))])
        return BinaryForm([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __add__(self, other: "BinaryForm") -> "BinaryForm":
        if not isinstance(other, BinaryForm):
            return NotImplemented
        if self.order != other.order:
            raise ValueError("cannot add forms of different orders")
        return BinaryForm([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "BinaryForm") -> "BinaryForm":
        if not isinstance(other, BinaryForm):
            return NotImplemented
        if self.order != other.order:
            raise ValueError("cannot subtract forms of different orders")
        return BinaryForm([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "BinaryForm":
        return BinaryForm([-c for c in self.coeffs])

    def __repr__(self) -> str:
        return f"BinaryForm([{', '.join(str(c) for c in self.coeffs)}])"


def act(g: GroupElement, form: BinaryForm) -> BinaryForm:
    """The substitution action (g.F)(x) = F(g^-1 x): with h = g^-1, the sum
    of c_i X1^(p-i) X2^i over the linear forms X1 = h.a x1 + h.b x2 and
    X2 = h.c x1 + h.d x2.

    It runs on ints: h's entries go over their common denominator m and
    the c_i, numbers or MPolys, over theirs, e, as int term dicts.  The
    images of X1^(p-i) X2^i are then term dicts over m^p keyed by the
    exponent of x2, made by the product kernel, and each output
    coefficient, a sum of int multiples of the c_i, is divided once by
    e m^p.
    """
    _require_forms("act", form)
    if not isinstance(g, GroupElement):
        raise TypeError(f"act needs a GroupElement, got {type(g).__name__}")
    h = g.inverse()
    (ha, hb, hc, hd), m = _cleared((h.a, h.b, h.c, h.d))
    vs = _universe(form.coeffs)
    coeffs, e = _int_terms(form.coeffs, vs)
    p = form.order
    images = _monomials([(p - i, i) for i in range(p + 1)],
                        ({0: ha, 1: hb}, {0: hc, 1: hd}), {0: 1}, _product)
    out = [{} for _ in range(p + 1)]
    for c, image in zip(coeffs, images):
        for j, w in image.items():
            if w:
                _addmul(out[j], {0: w}, c)
    return BinaryForm([MPoly._make(vs, acc, e * m ** p) for acc in out])


def transvectant(f: BinaryForm, g: BinaryForm, k: int) -> BinaryForm:
    """The k-th transvectant (f, g)_k of forms of orders p and q:

    (p-k)!(q-k)!/(p!q!) * sum_j (-1)^j C(k,j)
        d^k f/dx1^(k-j)dx2^j * d^k g/dx1^j dx2^(k-j),

    a form of order p + q - 2k, summed here straight from the coefficient
    vectors: the product a_i * b_l of f's i-th and g's l-th coefficients
    lands in coefficient i + l - k with weight

    (p-k)!(q-k)!/(p!q!) * sum_j (-1)^j C(k,j)
        (p-i)_(k-j) (i)_j (q-l)_j (l)_(k-j),

    where (n)_m = n!/(n-m)! is the falling factorial, zero when m > n.
    The sum runs with int weights, and each coefficient is divided once
    by their common denominator.
    """
    _require_forms("transvectant", f, g)
    out, den = _transvectant_sum(f.coeffs, g.coeffs,
                                 _int_exponent(k, "transvectant index"))
    return BinaryForm([_over(c, den) for c in out])


def _transvectant_sum(a: Sequence, b: Sequence, k: int) -> tuple:
    """den * (f, g)_k for the forms with coefficient vectors a and b, as a
    coefficient list, and the int den of ``_transvectant_weights``.  On
    int coefficients the sum runs on ints."""
    p, q = len(a) - 1, len(b) - 1
    if k < 0 or k > p or k > q:
        raise ValueError(f"transvectant index {k} out of range for orders {p},{q}")
    weights, den = _transvectant_weights(p, q, k)
    out = [0] * (p + q - 2 * k + 1)
    for i, l, weight in weights:
        ai, bl = a[i], b[l]
        if ai and bl:
            out[i + l - k] = out[i + l - k] + ai * bl * weight
    return out, den


def _over(c, den: int):
    """c / den exactly; ``/`` between two ints would give a float."""
    return c / den if isinstance(c, MPoly) else Fraction(c, den)


@lru_cache
def _transvectant_weights(p: int, q: int, k: int) -> tuple:
    """The (i, l, w) of (f, g)_k with a nonzero weight, in the order of the
    sum, and the lcm den of the weights' denominators: w is den times
    ``transvectant``'s weight, prefactor included, and an int."""
    pref = Fraction(factorial(p - k) * factorial(q - k), factorial(p) * factorial(q))
    out = []
    for i in range(p + 1):
        for l in range(q + 1):
            weight = sum((-1) ** j * comb(k, j) * perm(p - i, k - j) * perm(i, j)
                         * perm(q - l, j) * perm(l, k - j) for j in range(k + 1))
            if weight:
                out.append((i, l, weight * pref))
    ints, den = _cleared(w for _, _, w in out)
    return tuple((i, l, w) for (i, l, _), w in zip(out, ints)), den


def sylvester_matrix(f: BinaryForm, g: BinaryForm) -> list:
    """The rows of the (p+q)x(p+q) Sylvester matrix of the coefficient
    vectors: q shifted copies of f's, then p of g's.

    ``resultant`` does not build it; it is the independent second route
    that the tests check the resultant against.
    """
    _require_forms("sylvester_matrix", f, g)
    p, q = f.order, g.order
    if p == 0 or q == 0:
        raise ValueError("resultant needs two forms of positive order")
    n = p + q
    rows = []
    for r in range(q):
        rows.append([0] * r + list(f.coeffs) + [0] * (q - 1 - r))
    for r in range(p):
        rows.append([0] * r + list(g.coeffs) + [0] * (p - 1 - r))
    assert all(len(row) == n for row in rows)
    return rows


def resultant(f: BinaryForm, g: BinaryForm) -> MPoly:
    """The resultant det(sylvester_matrix(f, g)), taken as the determinant
    of the max(p, q)-square hybrid Bezout matrix.

    With F(x) = sum_i a_i x^(p-i) and G(x) = sum_i b_i x^(q-i), p >= q, the
    matrix has p columns, column c holding the coefficient of x^(p-1-c),
    and these rows, top to bottom:

    - P_q, ..., P_1, where P_k = x^(p-q) B_k G - A_k F with
      A_k = b_0 x^(k-1) + ... + b_(k-1) and B_k = a_0 x^(k-1) + ... + a_(k-1).
      The coefficients of P_k from x^p up cancel identically, and
      P_k = x P_(k-1) + a_(k-1) x^(p-q) G - b_(k-1) F, so entry c of P_k
      is entry c + 1 of P_(k-1) plus a_(k-1) b_(c+1) - b_(k-1) a_(c+1);
    - x^(p-q-1) G, ..., x G, G.

    Its determinant equals the Sylvester determinant as a polynomial
    identity in the a and b, so zero leading coefficients need no special
    case, and no division enters.  When p < q the forms are swapped, and
    Res(f, g) = (-1)^(pq) Res(g, f) restores the sign.  For the generic
    quintic's pipeline (p = 5, q = 4) this is a 5x5 determinant instead of
    a 9x9 one.

    A thin wrapper over ``_bezout_resultant``, on int term dicts.
    """
    _require_forms("resultant", f, g)
    p, q = f.order, g.order
    if p == 0 or q == 0:
        raise ValueError("resultant needs two forms of positive order")
    if p < q:
        f, g = g, f
    vs = _universe(f.coeffs + g.coeffs)
    (a, da), (b, db) = (_int_terms(h.coeffs, vs) for h in (f, g))
    res = _bezout_resultant(a, da, b, db, vs)
    return -res if p < q and p * q % 2 else res


def _bezout_resultant(a: list, da: int, b: list, db: int, vs: tuple) -> MPoly:
    """Res(f, g) of the forms of orders p = len(a) - 1 >= q = len(b) - 1
    with coefficients the int term dicts a / da and b / db over vs: the
    Bezout determinant of da f and db g, da^q db^p Res, divided once."""
    p, q = len(a) - 1, len(b) - 1
    _check_degree(_max_degree(a, vs) + _max_degree(b, vs))
    bezout = []
    row = [{}] * p
    for k in range(q):
        nxt = []
        for c in range(p):
            entry = dict(row[c + 1]) if c + 1 < p else {}
            if c < q:
                _addmul(entry, a[k], b[c + 1])
            nxt.append(_addmul(entry, b[k], a[c + 1], -1))
        row = nxt
        bezout.append(row)
    rows = [[MPoly._make(vs, e) for e in row] for row in reversed(bezout)]
    g_row = [MPoly._make(vs, e) for e in b]
    rows += [[0] * j + g_row + [0] * (p - q - 1 - j) for j in range(p - q)]
    return det_fraction_free(rows) / (da ** q * db ** p)


def _require_forms(what: str, *forms) -> None:
    for form in forms:
        if not isinstance(form, BinaryForm):
            raise TypeError(
                f"{what} needs a BinaryForm, got {type(form).__name__}")


def discriminant(form: BinaryForm) -> MPoly:
    """Discriminant normalised as the squared product of root brackets:

    (-1)^(p(p-1)/2) / p^(p-2) * Res(dF/dx1, dF/dx2).
    """
    _require_forms("discriminant", form)
    p = form.order
    if p < 2:
        raise ValueError("discriminant needs a form of order >= 2")
    sign = -1 if (p * (p - 1) // 2) % 2 else 1
    res = resultant(form.diff_x1(), form.diff_x2())
    return res * Fraction(sign, p ** (p - 2))


def form_from_roots(roots: Sequence) -> BinaryForm:
    """Product of linear forms (x1 r2 - x2 r1) over roots (r1, r2)."""
    acc = BinaryForm([1])
    for r1, r2 in roots:
        acc = acc * BinaryForm([r2, -_as_exact(r1)])
    return acc


def generic_form(order: int, prefix: str = "a") -> BinaryForm:
    """A form of the given order whose coefficients are fresh symbols
    prefix0, prefix1, ..., prefixP."""
    if _int_exponent(order, "order") < 0:
        raise ValueError("order must be nonnegative")
    return BinaryForm([MPoly.variable(f"{prefix}{i}")
                       for i in range(order + 1)])
