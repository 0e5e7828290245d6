"""Differential tests: the determinant, the resultant, the discriminant,
substitution, ring operations, the J, K, L ring, derivatives,
coefficients, division, row reduction and the text format against sympy,
the resultant against the Sylvester determinant, the numeric routes
against the generic symbolic ones, the rejection of non-invariants that
agree with an invariant on the canonical family, and the command line on
random argument lists.

The sympy references run in sympy's polynomial rings over QQ: ``to_ring``
reads a polynomial or a number into a ring element, determinants are
Berkowitz's on ``DomainMatrix``, and every comparison is exact equality of
ring elements or of matrices.  hypothesis draws the inputs under a
derandomized profile, and the J, K, L ring test from a seeded generator,
so every run checks the same examples.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import lcm

import pytest
import sympy
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import PolyRing

from binform.beauville import (KEYPROP_TABLES, JKLPolynomial, _row_reduce,
                               beauville_closed_form, beauville_pipeline,
                               decompose_in_JKL, same_j_data)
from binform.forms import (BinaryForm, GroupElement, act, discriminant,
                           form_from_roots, generic_form, resultant,
                           sylvester_matrix, transvectant)
from binform.invariants import _scaled_invariants, quintic_invariants
from binform.mpoly import (_BITS, MPoly, _addmul, _remap_key, _remap_table,
                           det_fraction_free, format_poly, monic_divrem)
from conftest import draw_coefficient, run_cli

settings.register_profile(
    "differential", derandomize=True, database=None, deadline=None,
    max_examples=60, suppress_health_check=[HealthCheck.too_slow])
DIFFERENTIAL = settings.get_profile("differential")

NAMES = ("x", "y", "z")
VARIABLES = [MPoly.variable(v) for v in NAMES]

integers = st.integers(-9, 9)
rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))


@st.composite
def monomial_sums(draw, coefficients=rationals):
    """At most two terms in x, y, z, of degree at most two."""
    out = MPoly(NAMES, {})
    for _ in range(draw(st.integers(1, 2))):
        term = MPoly((), {(): draw(coefficients)})
        for v in VARIABLES:
            term = term * v ** draw(st.integers(0, 2))
        out = out + term
    return out


# sympy's polynomial ring QQ[x, y, z], in lex order
XYZ = PolyRing(NAMES, QQ)


def to_ring(f, ring):
    """A polynomial, read through its terms, or a rational number as an
    element of the sympy polynomial ring ``ring``, whose generators include
    the polynomial's variables."""
    if not isinstance(f, MPoly):
        f = MPoly((), {(): f})
    index = [ring.symbols.index(sympy.Symbol(v)) for v in f.variables]
    terms = {}
    for exps, c in f.terms():
        monomial = [0] * ring.ngens
        for i, e in zip(index, exps):
            monomial[i] = e
        terms[tuple(monomial)] = QQ(c.numerator, c.denominator)
    return ring.from_dict(terms)


def to_matrix(rows, ring):
    """Rows of polynomials or numbers as a DomainMatrix over ``ring``, or
    over QQ when every entry is a number."""
    entries = [[to_ring(e, ring) for e in row] for row in rows]
    shape = (len(rows), len(rows[0]) if rows else 0)
    matrix = DomainMatrix(entries, shape, ring.to_domain())
    if all(e.is_ground for row in entries for e in row):
        return matrix.convert_to(QQ)
    return matrix


def reference_det(rows):
    """sympy's determinant of a square matrix, in XYZ: up to sign, the
    constant term of Berkowitz's division-free characteristic polynomial,
    an algorithm apart from the library's fraction-free elimination."""
    return XYZ((-1) ** len(rows) * to_matrix(rows, XYZ).charpoly()[-1])


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


# polynomials in t over the domain XYZ: their discriminant in t is an
# element of XYZ
T_OVER_XYZ = PolyRing("t", XYZ.to_domain())


def univariate(form):
    """A form's dehomogenization as a polynomial in t over XYZ."""
    t = T_OVER_XYZ.gens[0]
    return sum((T_OVER_XYZ(to_ring(c, XYZ)) * t ** (form.order - i)
                for i, c in enumerate(form.coeffs)), T_OVER_XYZ.zero)


def reference_resultant(f, g):
    """Res(f, g) in XYZ: the determinant of the Sylvester matrix, built
    here from the coefficient lists, q shifted rows of f's over p of g's."""
    a, b = list(f.coeffs), list(g.coeffs)
    p, q = f.order, g.order
    return reference_det(
        [[0] * i + a + [0] * (q - 1 - i) for i in range(q)]
        + [[0] * i + b + [0] * (p - 1 - i) for i in range(p)])


def forms(order, coefficients):
    """Binary forms of the given order with a nonzero leading coefficient,
    so the form's polynomial in t has the same degree."""
    return st.tuples(coefficients.filter(lambda c: c != 0),
                     st.lists(coefficients, min_size=order,
                              max_size=order)).map(
        lambda t: BinaryForm([t[0], *t[1]]))


@DIFFERENTIAL
@given(matrices())
def test_det_matches_sympy(rows):
    det = det_fraction_free(rows)
    assert to_ring(det, XYZ) == reference_det(rows)


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
    rows = sylvester_matrix(f, g)
    det = det_fraction_free(rows)
    assert to_ring(det, XYZ) == reference_det(rows)


# coefficients past 64 bits, so the packing width is past 64 bits too
wide = st.integers(2 ** 64, 2 ** 100).flatmap(
    lambda c: st.sampled_from((c, -c, Fraction(c, 3))))


def term(names, exps, c):
    return MPoly(names, {tuple(exps[v] for v in names): c})


@st.composite
def packed_matrices(draw):
    """Square matrices up to 5x5 over two or three variables, which
    det_fraction_free takes through its Kronecker-packed path:
    coefficients past 64 bits, signs that alternate between adjacent
    powers of a variable, so the decoding borrows, degrees up to three,
    a zero column and singular matrices.  Two kinds test the packing
    width: a permuted diagonal of one-term entries, whose determinant's
    coefficient is exactly the width bound B (any other choice of one
    entry per column adds to B and not to the determinant), and Hadamard
    +-1 patterns times a monomial, whose coefficient is n^(n/2)."""
    names = draw(st.sampled_from((("x", "z"), ("x", "y", "z"))))
    kind = draw(st.sampled_from(("random", "alternating", "bound",
                                 "hadamard")))
    exponents = st.fixed_dictionaries({v: st.integers(0, 3) for v in names})
    if kind == "hadamard":
        n = draw(st.sampled_from((1, 2, 4)))
        exps = draw(exponents)
        return [[term(names, exps, (-1) ** bin(i & j).count("1"))
                 for j in range(n)] for i in range(n)]
    n = draw(st.integers(0, 5))
    if kind == "bound":
        order = draw(st.permutations(range(n)))
        rows = [[0] * n for _ in range(n)]
        for i, j in enumerate(order):
            rows[i][j] = term(names, draw(exponents),
                              draw(st.one_of(wide, integers.filter(bool))))
        return rows
    coefficients = st.one_of(integers, rationals, wide)

    def entry():
        out = MPoly(names, {})
        if kind == "alternating":
            # c, -c, c, ... along the powers of one variable
            v, c, base = (draw(st.sampled_from(names)), draw(wide),
                          draw(exponents))
            for e in range(draw(st.integers(1, 4))):
                out = out + term(names, {**base, v: e}, (-1) ** e * c)
            return out
        for _ in range(draw(st.integers(0, 3))):
            out = out + term(names, draw(exponents), draw(coefficients))
        return out

    rows = [[entry() for _ in range(n)] for _ in range(n)]
    if n and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = 0
    if n > 1 and draw(st.booleans()):
        # a row repeated up to a factor: the matrix is singular
        i, k = draw(st.permutations(range(n)))[:2]
        rows[i] = [e * draw(rationals) for e in rows[k]]
    return rows


@DIFFERENTIAL
@given(packed_matrices())
def test_packed_det_matches_sympy(rows):
    det = det_fraction_free(rows)
    assert to_ring(det, XYZ) == reference_det(rows)


@DIFFERENTIAL
@given(packed_matrices())
def test_det_is_the_same_whichever_variable_is_packed(rows):
    # an extra diagonal entry x^a * y^b * z^c evens the column-degree
    # bounds of x and z and lifts y's to at least theirs, and ties go to
    # the later name, so swapping the names x and z swaps which of the two
    # is packed
    names = ("x", "y", "z")
    rows = [[MPoly(names, {(0,) * len(names): e}) if not isinstance(e, MPoly)
             else e.in_universe(names) for e in row] for row in rows]
    bound = {v: sum(max(0, *(e.degree(v) for e in col))
                    for col in zip(*rows)) for v in names}
    top = max(bound["x"], bound["z"])
    corner = term(names, {v: max(0, top - bound[v]) for v in names}, 1)
    rows = [row + [0] for row in rows] + [[0] * len(rows) + [corner]]
    swap = {"x": MPoly.variable("z"), "z": MPoly.variable("x")}
    swapped = [[e.substitute(swap) if isinstance(e, MPoly) else e
                for e in row] for row in rows]
    det = det_fraction_free(rows)
    assert det_fraction_free(swapped).substitute(swap) == det
    assert to_ring(det, XYZ) == reference_det(rows)


@DIFFERENTIAL
@given(st.data())
def test_resultant_matches_sympy(data):
    # f gets the larger order, and the swap is checked on our side
    p = data.draw(st.integers(1, 4))
    q = data.draw(st.integers(1, p))
    coefficients = data.draw(st.sampled_from(
        (integers, rationals, monomial_sums(integers))))
    f = data.draw(forms(p, coefficients))
    g = data.draw(forms(q, coefficients))
    res = resultant(f, g)
    assert to_ring(res, XYZ) == reference_resultant(f, g)
    assert resultant(g, f) == res * (-1) ** (p * q)


V = MPoly.variable("v")
# polynomials linear in a variable no other strategy uses, over
# denominators of their own: the shape of the pipeline's reduced
# j-polynomial, whose coefficients are rational polynomials in z
linear_in_v = st.builds(lambda c0, c1: c0 + c1 * V, rationals, rationals)


@st.composite
def form_pairs(draw):
    """Two forms of orders up to 6 whose coefficient kinds are drawn
    independently, with zero leading and trailing coefficients drawn on
    purpose."""
    p = draw(st.integers(1, 6))
    q = draw(st.integers(1, 6))
    kinds = (integers, rationals)
    if p + q <= 9:
        kinds += (linear_in_v,)
    if p + q <= 6:
        kinds += (monomial_sums(integers), monomial_sums())
    pair = []
    for order in (p, q):
        coefficients = draw(st.sampled_from(kinds))
        coeffs = draw(st.lists(coefficients, min_size=order + 1,
                               max_size=order + 1))
        for end in (0, -1):
            if draw(st.booleans()):
                coeffs[end] = 0
        pair.append(BinaryForm(coeffs))
    return tuple(pair)


# the pipeline's shape, both ways round: a monic quintic over denominators
# 2 and 7 against a quartic linear in v over denominators 3, 9, 5 and 6
PIPELINE_SHAPE = (
    BinaryForm([1, Fraction(1, 2), -3, Fraction(5, 7), 0, 11]),
    BinaryForm([V / 3 + 1, 2 * V, Fraction(-4, 9), V - Fraction(1, 5), V / 6]))


@DIFFERENTIAL
@given(form_pairs())
@example(PIPELINE_SHAPE)
@example(PIPELINE_SHAPE[::-1])
def test_resultant_equals_sylvester_determinant(pair):
    # the Bezout route against the Sylvester route.  f and g go over
    # different denominators when their kinds differ, as in the pipeline,
    # where f is numeric and g's coefficients are linear in z
    f, g = pair
    assert resultant(f, g) == det_fraction_free(sylvester_matrix(f, g))


OUTSIDE = "w"       # a variable no drawn polynomial has
XYZW = PolyRing(NAMES + (OUTSIDE,), QQ)


@st.composite
def polynomials(draw, names, max_terms):
    """Sums of terms with rational coefficients, exponents at most 3, built
    without a polynomial product, so a wrong product cannot make them."""
    out = MPoly(names, {})
    for _ in range(draw(st.integers(0, max_terms))):
        c = draw(rationals)
        exps = {v: draw(st.integers(0, 3)) for v in names}
        out = out + MPoly(names, {tuple(exps[v] for v in names): c})
    return out


# a binding: a scalar, zero, a one-term polynomial, or a sum of two or
# three terms, over the polynomial's own variables and one outside them
BINDINGS = st.one_of(
    rationals,
    st.sampled_from((0, MPoly(NAMES, {}))),
    polynomials(NAMES + (OUTSIDE,), 1),
    polynomials(NAMES + (OUTSIDE,), 3).filter(lambda b: len(b) >= 2))


@DIFFERENTIAL
@given(polynomials(NAMES, 6),
       st.dictionaries(st.sampled_from(NAMES + (OUTSIDE,)), BINDINGS))
def test_substitute_matches_sympy(f, bindings):
    got = f.substitute(bindings)
    # compose substitutes every binding at once
    expected = to_ring(f, XYZW).compose(
        [(to_ring(MPoly.variable(v), XYZW), to_ring(b, XYZW))
         for v, b in bindings.items()])
    assert to_ring(got, XYZW) == expected
    # a binding outside the universe changes nothing
    if OUTSIDE in bindings:
        assert f.substitute({OUTSIDE: bindings[OUTSIDE]}) == f


@DIFFERENTIAL
@given(st.data())
def test_discriminant_matches_sympy(data):
    p = data.draw(st.integers(2, 6))
    form = data.draw(forms(p, rationals))
    assert to_ring(discriminant(form), XYZ) == univariate(form).discriminant()


# the one product kernel, directly and behind *, ** and monic_divrem, and
# - (through +), against the ring operations of XYZ


@DIFFERENTIAL
@given(polynomials(NAMES, 6), polynomials(NAMES, 4), polynomials(NAMES, 4),
       st.sampled_from((1, -1)))
def test_product_kernel_matches_sympy(f, g, h, sign):
    # the kernel runs on int dicts: f and g * h are put over one
    # denominator m first
    m = lcm(f._den, g._den * h._den)
    acc = {k: c * (m // f._den) for k, c in f._terms.items()}
    scaled = {k: c * (m // (g._den * h._den)) for k, c in g._terms.items()}
    got = MPoly._make(NAMES, _addmul(acc, scaled, h._terms, sign), m)
    assert to_ring(got, XYZ) == (to_ring(f, XYZ)
                                 + sign * to_ring(g, XYZ) * to_ring(h, XYZ))


@DIFFERENTIAL
@given(polynomials(("x", "y"), 6), polynomials(("y", "z"), 6),
       st.integers(0, 4))
def test_ring_operations_match_sympy(f, g, e):
    # the operands' universes differ, so they are aligned first
    a, b = to_ring(f, XYZ), to_ring(g, XYZ)
    assert to_ring(f * g, XYZ) == a * b
    assert to_ring(f - g, XYZ) == a - b
    # the ring refuses 0 ** 0, which is 1 in Python and in the library
    assert to_ring(f ** e, XYZ) == (a ** e if a else XYZ(0 ** e))


@DIFFERENTIAL
@given(st.one_of(polynomials(NAMES, 6),
                 rationals.map(lambda c: MPoly((), {(): c}))))
def test_format_reads_back_in_sympy(f):
    text = format_poly(f).replace("^", "**")
    assert XYZ.from_expr(sympy.sympify(text)) == to_ring(f, XYZ)


@DIFFERENTIAL
@given(polynomials(NAMES, 6), st.sampled_from(NAMES), st.integers(0, 4))
def test_diff_and_coefficient_match_sympy(f, name, power):
    v, a = to_ring(MPoly.variable(name), XYZ), to_ring(f, XYZ)
    assert to_ring(f.diff(name), XYZ) == a.diff(v)
    assert to_ring(f.coefficient(name, power), XYZ) == a.coeff_wrt(v, power)


@st.composite
def remaps(draw):
    """A key over a universe of 0-6 variables, with a degree field and
    exponents up to 65535, and a new universe that is a superset, a subset
    or a mix of the old one."""
    pool = "abcdefgh"
    old = sorted(draw(st.sets(st.sampled_from(pool), max_size=6)))
    kind = draw(st.sampled_from(("superset", "subset", "mixed")))
    kept = old if kind == "superset" else [
        v for v in old if draw(st.booleans())]
    added = set() if kind == "subset" else draw(st.sets(
        st.sampled_from([v for v in pool if v not in old]),
        max_size=6 - len(kept)))
    new = sorted(set(kept) | added)
    fields = draw(st.lists(st.integers(0, 65535), min_size=len(old) + 1,
                           max_size=len(old) + 1))
    key = 0
    for e in fields:    # degree first, then old[0], old[1], ...
        key = (key << _BITS) | e
    return tuple(old), tuple(new), key


@DIFFERENTIAL
@given(remaps())
def test_remap_key_moves_each_field(remap):
    # the run-based remap against a field-by-field repacking
    old, new, key = remap
    mask = (1 << _BITS) - 1
    exps = {v: (key >> ((len(old) - 1 - i) * _BITS)) & mask
            for i, v in enumerate(old)}
    expected = (key >> (len(old) * _BITS)) << (len(new) * _BITS)
    for i, v in enumerate(new):
        expected |= exps.get(v, 0) << ((len(new) - 1 - i) * _BITS)
    assert _remap_key(key, _remap_table(old, new)) == expected


@st.composite
def linear_systems(draw):
    """Rational matrices of 1-6 rows and columns, some with a zero column,
    a repeated row or a row combined from two others, and a right-hand
    side."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = [[draw(rationals) if draw(st.booleans()) else Fraction(0)
             for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = Fraction(0)
    if m > 1 and draw(st.booleans()):
        i, k = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        rows[i] = list(rows[k])
    if m > 2 and draw(st.booleans()):
        i, k, l = (draw(st.integers(0, m - 1)) for _ in range(3))
        a, b = draw(rationals), draw(rationals)
        rows[i] = [a * x + b * y for x, y in zip(rows[k], rows[l])]
    rhs = [draw(rationals) for _ in range(m)]
    return rows, rhs


@DIFFERENTIAL
@given(linear_systems())
def test_row_reduce_matches_sympy_rref(system):
    rows, rhs = system
    n = len(rows[0])
    expected, expected_pivots = to_matrix(rows, XYZ).rref()
    reduced, pivots = _row_reduce(rows, n)
    assert tuple(pivots) == expected_pivots
    assert to_matrix(reduced, XYZ) == expected
    # augmented: the pivot rows agree on the matrix, the zero rows show an
    # inconsistent system, and a consistent one has sympy's solution column
    augmented = [row + [b] for row, b in zip(rows, rhs)]
    full, full_pivots = to_matrix(augmented, XYZ).rref()
    reduced, pivots = _row_reduce(augmented, n)
    rank = len(pivots)
    assert tuple(pivots) == expected_pivots
    got = to_matrix(reduced, XYZ)
    assert got[:rank, :n] == expected[:rank, :]
    inconsistent = n in full_pivots
    assert any(row[-1] for row in reduced[rank:]) == inconsistent
    if not inconsistent:
        assert got[:rank, :] == full[:rank, :]


@DIFFERENTIAL
@given(polynomials(NAMES, 6), polynomials(NAMES, 4), st.integers(1, 3))
def test_monic_divrem_matches_sympy(f, tail, d):
    x = MPoly.variable("x")
    # x^d plus the part of tail below degree d in x
    g = x ** d + sum((tail.coefficient("x", i) * x ** i for i in range(d)),
                     MPoly(NAMES, {}))
    q, r = monic_divrem(f, g, "x")
    assert q * g + r == f
    assert r.degree("x") < d
    # x^d leads g in lex order, so lex division leaves deg_x r < d
    expected_q, expected_r = to_ring(f, XYZ).div(to_ring(g, XYZ))
    assert (to_ring(q, XYZ), to_ring(r, XYZ)) == (expected_q, expected_r)


# the numeric routes against the generic symbolic ones: the same
# transvectant sums run once on Fractions and once on coefficient symbols

GENERIC = quintic_invariants(generic_form(5))


def coefficient_values(prefix, form):
    return {f"{prefix}{i}": c for i, c in enumerate(form.coeffs)}


@DIFFERENTIAL
@given(st.lists(rationals, min_size=6, max_size=6))
def test_numeric_invariants_equal_the_generic_ones(coeffs):
    form = BinaryForm(coeffs)
    got = quintic_invariants(form)
    values = coefficient_values("a", form)
    for name in ("J", "K", "L", "H"):
        value = getattr(got, name)
        assert isinstance(value, Fraction)
        assert value == getattr(GENERIC, name).evaluate(values)


# sympy's ring QQ[L, K, J]: a JKL triple (a1, a2, a3) is its exponent vector
LKJ = PolyRing(("L", "K", "J"), QQ)
# the same ring with the generic coefficients, where J, K, L get their images
LKJ_A = PolyRing(("L", "K", "J", "a0", "a1", "a2", "a3", "a4", "a5"), QQ)


def jkl_to_ring(p, ring):
    """A JKLPolynomial read from its terms into ``ring``, whose first three
    generators are L, K, J."""
    zeros = (0,) * (ring.ngens - 3)
    return ring.from_dict({t + zeros: QQ.convert(c)
                           for t, c in p.terms.items()})


def random_jkl(rng, height, top):
    """One to three terms with triples in range(top) ** 3, one of them
    unlike its reverse, so a ring that reads the triples backwards differs."""
    while True:
        triples = {tuple(rng.randrange(top) for _ in range(3))
                   for _ in range(rng.randint(1, 3))}
        if any(t != t[::-1] for t in triples):
            return JKLPolynomial({t: draw_coefficient(rng, height) or 1
                                  for t in triples})


@pytest.mark.parametrize("height", ["small", "int20", "rat64"])
def test_jkl_ring_matches_sympy(height):
    # JKLPolynomial's sum, product and evaluation against sympy's ring in
    # L, K, J, at rationals and at the generic quintic's J, K, L
    rng = random.Random(f"jkl-{height}")
    generic = [to_ring(getattr(GENERIC, v), LKJ_A) for v in "LKJ"]
    for _ in range(6):
        p, q = random_jkl(rng, height, 3), random_jkl(rng, height, 3)
        a, b = jkl_to_ring(p, LKJ), jkl_to_ring(q, LKJ)
        s = draw_coefficient(rng, height)
        assert jkl_to_ring(p + q, LKJ) == a + b
        assert jkl_to_ring(p - q, LKJ) == a - b
        assert jkl_to_ring(p * q, LKJ) == a * b
        assert jkl_to_ring(p * s, LKJ) == jkl_to_ring(s * p, LKJ) \
            == a * QQ.convert(s)
        L, K, J = (draw_coefficient(rng, height) for _ in range(3))
        value = p.evaluate(J=J, K=K, L=L)
        assert isinstance(value, Fraction)
        assert QQ.convert(value) == a(*map(QQ.convert, (L, K, J)))
    # triples in {0, 1} ** 3 keep the symbolic degree at most 24
    p = random_jkl(rng, height, 2)
    expected = jkl_to_ring(p, LKJ_A).compose(list(zip(LKJ_A.gens, generic)))
    assert to_ring(p.evaluate(J=GENERIC.J, K=GENERIC.K, L=GENERIC.L),
                   LKJ_A) == expected


def fraction_route(form):
    """The six closed forms evaluated on Fraction J, K, L."""
    iv = quintic_invariants(form)
    return tuple(table.evaluate(iv.J, iv.K, iv.L) for table in KEYPROP_TABLES)


heights = {
    "small": st.integers(-8, 8),
    "int20": st.integers(-2 ** 20, 2 ** 20),
    "rat64": st.builds(Fraction, st.integers(-2 ** 64, 2 ** 64),
                       st.integers(1, 2 ** 16)),
}


@st.composite
def quintics_of_each_height(draw):
    """Nonzero quintics at one of three coefficient heights, a fifth of
    them with a0 = 0."""
    coefficient = heights[draw(st.sampled_from(sorted(heights)))]
    coeffs = [draw(coefficient) for _ in range(6)]
    if draw(st.integers(0, 4)) == 0:
        coeffs[0] = 0
    if not any(coeffs):
        coeffs[5] = 1
    return BinaryForm(coeffs)


@DIFFERENTIAL
@given(quintics_of_each_height())
def test_closed_form_equals_the_fraction_route(form):
    # the integer tables over one denominator against the Fraction route
    assert beauville_closed_form(form).b == fraction_route(form)


SPECIAL_FORMS = {
    # the canonical family at w = 1/4 has J = 0, at w = -1/2 K = 0
    "J-zero": BinaryForm([Fraction(3, 4), Fraction(-5, 4), Fraction(-5, 2),
                          Fraction(-5, 2), Fraction(-5, 4), Fraction(3, 4)]),
    "K-zero": BinaryForm([Fraction(3, 2), Fraction(5, 2), 5, 5,
                          Fraction(5, 2), Fraction(3, 2)]),
    "fifth-powers": BinaryForm([1, 0, 0, 0, 0, 1]),      # K = L = 0
    # a fivefold root: all of b vanish
    "fivefold-root": BinaryForm([1, 0, 0, 0, 0, 0]),
    "300-digits": BinaryForm([Fraction(7 * 10 ** 299 + i, 3 * 10 ** 299 - i * i)
                              for i in range(1, 7)]),
}


@pytest.mark.parametrize("form", SPECIAL_FORMS.values(), ids=SPECIAL_FORMS)
def test_closed_form_equals_the_fraction_route_on_special_forms(form):
    assert beauville_closed_form(form).b == fraction_route(form)


@pytest.mark.parametrize("form", SPECIAL_FORMS.values(), ids=SPECIAL_FORMS)
def test_closed_form_chain_gives_the_invariants_j_k_l(form):
    # the closed forms read J, K, L from the chain without H: the same
    # values as quintic_invariants and as the generic J, K, L evaluated
    chain = [Fraction(n, d) for n, d in islice(_scaled_invariants(form), 3)]
    got = quintic_invariants(form)
    values = coefficient_values("a", form)
    assert chain == [got.J, got.K, got.L] == [
        getattr(GENERIC, name).evaluate(values) for name in ("J", "K", "L")]


def jdata_by_fractions(first, second):
    """same_j_data's rule on the Fraction route: b0..b5 proportional."""
    b1, b2 = fraction_route(first), fraction_route(second)
    for which, b in (("first", b1), ("second", b2)):
        if b[0] == 0:
            raise ValueError(f"{which} quintic: repeated roots; j-data"
                             " undefined")
    return all(b2[0] * b1[i] == b1[0] * b2[i] for i in range(1, 6))


small_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))


@st.composite
def jdata_pairs(draw):
    """Two quintics, in either order: a form and its image under a random
    GL2 element, a nonzero multiple of it, an independent draw, or a form
    with a repeated root."""
    first = draw(quintics_of_each_height())
    kind = draw(st.sampled_from(("act", "scale", "independent", "repeated")))
    if kind == "act":
        g = draw(st.tuples(*[small_rationals] * 4).filter(
            lambda e: e[0] * e[3] != e[1] * e[2]))
        second = act(GroupElement(*g), first)
    elif kind == "scale":
        second = draw(rationals.filter(bool)) * first
    elif kind == "independent":
        second = draw(quintics_of_each_height())
    else:
        roots = draw(st.lists(st.tuples(integers, integers).filter(any),
                              min_size=4, max_size=4))
        second = form_from_roots(roots + roots[:1])
    return (first, second) if draw(st.booleans()) else (second, first)


@settings(DIFFERENTIAL, max_examples=120)
@given(jdata_pairs())
def test_same_j_data_equals_the_fraction_rule(pair):
    try:
        expected = jdata_by_fractions(*pair)
    except ValueError as error:
        with pytest.raises(ValueError, match=f"^{error}$"):
            same_j_data(*pair)
    else:
        assert same_j_data(*pair) is expected


@DIFFERENTIAL
@given(quintics_of_each_height(), st.integers(0, 5), st.booleans())
def test_same_j_data_rejects_symbolic_quintics(form, i, swap):
    coeffs = list(form.coeffs)
    coeffs[i] = MPoly.variable("t")
    symbolic = BinaryForm(coeffs)
    # t may leave J, K, L constant, as on t * x2**5
    iv = quintic_invariants(symbolic)
    assume(any(isinstance(x, MPoly) for x in (iv.J, iv.K, iv.L)))
    pair = (form, symbolic)
    which = "first" if swap else "second"
    with pytest.raises(
            TypeError,
            match=f"^{which} quintic: same_j_data needs a numeric quintic$"):
        same_j_data(*(pair[::-1] if swap else pair))


def bracket(p, q):
    return p[0] * q[1] - p[1] * q[0]


def five_point_js(points):
    """For five distinct points (r1, r2) of the line, the j of the four
    left when point i is removed, for i = 0..4: from the cross-ratio
    lam = [13][24] / ([14][23]) of brackets [pq] = p1 q2 - p2 q1, which
    drops the factors with infinity, (1, 0), by itself, as
    j = 4 (lam^2 - lam + 1)^3 / (27 lam^2 (lam - 1)^2)."""
    js = []
    for i in range(5):
        p, q, r, s = (x for k, x in enumerate(points) if k != i)
        lam = Fraction(bracket(p, r) * bracket(q, s),
                       bracket(p, s) * bracket(q, r))
        js.append(4 * (lam ** 2 - lam + 1) ** 3
                  / (27 * lam ** 2 * (lam - 1) ** 2))
    return js


def signed_symmetric_functions(js):
    """(1, -e1, e2, -e3, e4, -e5): the coefficients of prod (z - j)."""
    out = [Fraction(1)]
    for j in js:
        out = [a - j * b for a, b in zip(out + [0], [0] + out)]
    return out


def proportional(b, v):
    return b[0] != 0 and all(b[0] * v[i] == v[0] * b[i] for i in range(6))


def point_value(point):
    # a named function: hypothesis reads a lambda's source as a regex here
    return Fraction(*point)


@st.composite
def five_points(draw, bits):
    """Five distinct points (r1, r2) for r1 / r2 of the projective line,
    with |r1| <= 2**bits and 1 <= r2 <= 2**bits; in about half the draws
    one of them is infinity, (1, 0), so x2 divides the quintic (a0 = 0)."""
    finite = st.tuples(st.integers(-2 ** bits, 2 ** bits),
                       st.integers(1, 2 ** bits))
    infinity = [(1, 0)] if draw(st.booleans()) else []
    points = infinity + draw(st.lists(
        finite, min_size=5 - len(infinity), max_size=5 - len(infinity),
        unique_by=point_value))
    return draw(st.permutations(points))


@DIFFERENTIAL
@given(st.data())
def test_b_is_the_symmetric_functions_of_five_point_js(data):
    # a route to b that shares nothing with the library's: the five
    # four-point j's from cross-ratios are the roots of r_bar in z
    bits = data.draw(st.sampled_from((3, 20, 64)))
    points = data.draw(five_points(bits))
    js = five_point_js(points)
    expected = signed_symmetric_functions(js)
    form = form_from_roots(points)
    assert proportional(beauville_closed_form(form).b, expected)
    if bits == 3:
        assert proportional(beauville_pipeline(form)[0].b, expected)
    # a rational Mobius image of the points, and a reordering with each
    # point's representative rescaled, have the same j-data
    a, b, c, d = data.draw(st.tuples(*[small_rationals] * 4).filter(
        lambda e: e[0] * e[3] != e[1] * e[2]))
    image = [(a * r1 + b * r2, c * r1 + d * r2) for r1, r2 in points]
    assert sorted(five_point_js(image)) == sorted(js)
    assert same_j_data(form, form_from_roots(image))
    scales = data.draw(st.lists(st.integers(-9, 9).filter(bool),
                                min_size=5, max_size=5))
    reordered = [(s * r1, s * r2) for s, (r1, r2) in zip(
        scales, data.draw(st.permutations(points)))]
    assert same_j_data(form, form_from_roots(reordered))
    # on an independent draw same_j_data is equality of the j multisets
    other = data.draw(five_points(data.draw(st.sampled_from((3, 20, 64)))))
    assert same_j_data(form, form_from_roots(other)) is (
        sorted(five_point_js(other)) == sorted(js))


@lru_cache
def generic_transvectant(p, q, k):
    return transvectant(generic_form(p, "a"), generic_form(q, "b"), k)


@DIFFERENTIAL
@given(st.data())
def test_numeric_transvectant_equals_the_generic_one(data):
    p = data.draw(st.integers(1, 5))
    q = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(0, min(p, q)))
    f = BinaryForm(data.draw(st.lists(rationals, min_size=p + 1,
                                      max_size=p + 1)))
    g = BinaryForm(data.draw(st.lists(rationals, min_size=q + 1,
                                      max_size=q + 1)))
    got = transvectant(f, g, k)
    values = {**coefficient_values("a", f), **coefficient_values("b", g)}
    expected = [c.evaluate(values)
                for c in generic_transvectant(p, q, k).coeffs]
    assert all(isinstance(c, Fraction) for c in got.coeffs)
    assert list(got.coeffs) == expected


@DIFFERENTIAL
@given(st.lists(rationals, min_size=6, max_size=6).filter(any))
def test_constant_polynomial_coefficients_are_numbers(coeffs):
    numeric = BinaryForm(coeffs)
    wrapped = BinaryForm([MPoly((), {(): c}) for c in coeffs])
    assert wrapped == numeric
    assert all(isinstance(c, Fraction) for c in wrapped.coeffs)
    # the symbolic route would refuse constants that are not 1
    vector, _ = beauville_pipeline(wrapped)
    assert all(isinstance(b, Fraction) for b in vector.b)
    assert vector == beauville_pipeline(numeric)[0]


# a0..a5; each perturbation below vanishes on the canonical family
# a1 = a4 = -5w, a2 = a3 = -10w, where decompose_in_JKL solves
COEFFS = [MPoly.variable(f"a{i}") for i in range(6)]
SLICE_VANISHING = (COEFFS[1] - COEFFS[4], COEFFS[2] - COEFFS[3],
                   2 * COEFFS[1] - COEFFS[2],
                   4 * COEFFS[1] * COEFFS[4] - COEFFS[2] * COEFFS[3])


@DIFFERENTIAL
@given(st.data())
def test_slice_vanishing_perturbation_rejected(data):
    # the perturbation keeps the input homogeneous; when drawn isobaric
    # (only 4 a1 a4 - a2 a3 is), it also keeps the weight 5d/2 of J, K or
    # L, so the derivation and not the weight has to reject it
    name, degree = data.draw(st.sampled_from((("J", 4), ("K", 8),
                                              ("L", 12))))
    if data.draw(st.booleans()):
        factor = SLICE_VANISHING[-1]
        weight = 5 * degree // 2 - 5
    else:
        factor = data.draw(st.sampled_from(SLICE_VANISHING))
        weight = None
    size = degree - factor.total_degree()
    indices = data.draw(st.lists(st.integers(0, 5), min_size=size,
                                 max_size=size).filter(
        lambda ix: weight is None or sum(ix) == weight))
    perturbation = data.draw(rationals.filter(bool)) * factor
    for i in indices:
        perturbation = perturbation * COEFFS[i]
    with pytest.raises(ValueError, match="not in the J,K,L subring"):
        decompose_in_JKL(getattr(GENERIC, name) + perturbation, degree)


# the command line on random argument lists: every run ends in exit code
# 0, 1 or 2, never in a traceback.  verify keyprop is left out of the pool
# for its cost, and each basis degree is small or past the size limit.
COMMANDS = ("invariants", "beauville", "verify", "dim", "basis",
            "decompose48", "equiv", "jdata", "bogus", "--help", "")
TOKENS = ("1,0,0,0,0,1", "1,-2,3,0,5,-7", "-7,5,0,3,-2,1",
          "0,1,-3,2,5,1", "1,0,0,0,0,0", "0,0,0,0,0,0", "1/2,0,-2/3,1,0,5",
          "1,2,3", "1,0,0,0,0,x", "1/0,1,1,1,1,1", "1e3,0,0,0,0,1",
          "9" * 5000 + ",1,1,1,1,1", "relation", "disc", "prop48", "dims",
          "--pipeline", "--json", "--timing", "--seed", "--", "-h", "--x",
          "0", "1", "-1", "4", "48", "7", "-48", "2.5", "abc",
          "10000000000", "12345678901234567890", "")


@settings(DIFFERENTIAL, max_examples=300)
@given(st.sampled_from(COMMANDS), st.lists(st.sampled_from(TOKENS),
                                            max_size=5))
def test_cli_argv_fuzz(command, tokens):
    code, _, err = run_cli([command, *tokens])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert "internal failure" not in err
