"""Differential tests: the determinant and the resultant against sympy.

hypothesis draws the inputs under a derandomized profile, so every run
checks the same examples.
"""

from fractions import Fraction

import sympy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from binform.forms import BinaryForm, resultant, sylvester_matrix
from binform.mpoly import MPoly, det_fraction_free

settings.register_profile(
    "differential", derandomize=True, database=None, deadline=None,
    max_examples=60, suppress_health_check=[HealthCheck.too_slow])
DIFFERENTIAL = settings.get_profile("differential")

NAMES = ("x", "y", "z")
SYMBOLS = sympy.symbols(NAMES)
VARIABLES = [MPoly.variable(v) for v in NAMES]

integers = st.integers(-9, 9)
rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))


@st.composite
def monomial_sums(draw, coefficients=rationals):
    """At most two terms in x, y, z, of degree at most two."""
    out = MPoly.zero(NAMES)
    for _ in range(draw(st.integers(1, 2))):
        term = MPoly.constant(draw(coefficients))
        for v in VARIABLES:
            term = term * v ** draw(st.integers(0, 2))
        out = out + term
    return out


def to_sympy(f: MPoly):
    symbols = [SYMBOLS[NAMES.index(v)] for v in f.variables]
    return sympy.Add(*(
        sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
        * sympy.Mul(*(s ** e for s, e in zip(symbols, exps)))
        for exps, c in f.terms()))


@st.composite
def matrices(draw):
    """Square matrices up to 9x9 of integer, rational or symbolic entries,
    sparse or dense, some with a zero column."""
    kind = draw(st.sampled_from(("integer", "rational", "symbolic")))
    # symbolic minors grow fast: keep the large symbolic matrices sparse
    n = draw(st.integers(1, 9))
    density = draw(st.sampled_from((0.25, 0.5, 1.0)))
    if kind == "symbolic" and n > 5:
        density = 0.25
    entry = {"integer": integers, "rational": rationals,
             "symbolic": monomial_sums()}[kind]
    rows = [[draw(entry) if draw(st.floats(0, 1)) < density else 0
             for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = 0
    return rows


def forms(order, coefficients):
    """Binary forms of the given order with a nonzero leading coefficient,
    so the univariate resultant in sympy has the same degree."""
    return st.tuples(coefficients.filter(lambda c: c != 0),
                     st.lists(coefficients, min_size=order,
                              max_size=order)).map(
        lambda t: BinaryForm([t[0], *t[1]]))


def sympy_det(rows):
    return sympy.Matrix(
        [[to_sympy(e if isinstance(e, MPoly) else MPoly.constant(e))
          for e in row] for row in rows]).det(method="berkowitz")


@DIFFERENTIAL
@given(matrices())
def test_det_matches_sympy(rows):
    det = det_fraction_free(rows)
    assert sympy.expand(to_sympy(det) - sympy_det(rows)) == 0


@DIFFERENTIAL
@given(st.data())
def test_det_of_sylvester_shape_matches_sympy(data):
    p = data.draw(st.integers(1, 5))
    q = data.draw(st.integers(1, 9 - p))
    coefficients = data.draw(st.sampled_from((integers, rationals)))
    f = BinaryForm(data.draw(st.lists(coefficients, min_size=p + 1,
                                      max_size=p + 1)))
    g = BinaryForm(data.draw(st.lists(coefficients, min_size=q + 1,
                                      max_size=q + 1)))
    matrix = sylvester_matrix(f, g)
    rows = [[matrix.entry(i, j) for j in range(matrix.cols)]
            for i in range(matrix.rows)]
    det = det_fraction_free(matrix)
    assert sympy.expand(to_sympy(det) - sympy_det(rows)) == 0


@DIFFERENTIAL
@given(st.data())
def test_resultant_matches_sympy(data):
    # sympy 1.14 returns Res(g, f) for resultant(f, g) when deg f < deg g,
    # so f gets the larger order here and the swap is checked on our side
    p = data.draw(st.integers(1, 4))
    q = data.draw(st.integers(1, p))
    coefficients = data.draw(st.sampled_from(
        (integers, rationals, monomial_sums(integers))))
    f = data.draw(forms(p, coefficients))
    g = data.draw(forms(q, coefficients))
    t = sympy.Symbol("t")

    def univariate(form):
        return sum(to_sympy(c) * t ** (form.order - i)
                   for i, c in enumerate(form.coeffs))

    expected = sympy.resultant(univariate(f), univariate(g), t)
    res = resultant(f, g)
    assert sympy.expand(to_sympy(res) - expected) == 0
    assert resultant(g, f) == res * (-1) ** (p * q)
