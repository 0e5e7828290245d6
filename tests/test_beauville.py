"""The degree-24 invariants: pipeline vs closed forms, JKL decomposition,
degree-48 products, factor splitting, equivalence, and five-point data."""

import hashlib
import random
import sys
from fractions import Fraction
from math import comb, isqrt, prod

import pytest
from conftest import draw_coefficient
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from binform import beauville, mpoly
from binform.beauville import (
    KEYPROP_TABLES,
    BeauvilleVector,
    JKLPolynomial,
    beauville_closed_form,
    beauville_pipeline,
    build_phi,
    decompose_in_JKL,
    equivalence_witness,
    gl2_equivalent,
    prop48_rank,
    quartic_of_root,
    same_j_data,
    thm48_decompose,
    verify_keyprop,
)
from binform.forms import (BinaryForm, GroupElement, act, discriminant,
                           form_from_roots, generic_form, resultant,
                           sylvester_matrix, transvectant)
from binform.invariants import (
    SylvesterPoint,
    canonizant,
    j_invariant,
    monomial_basis,
    quartic_invariants,
    quartic_S,
    quartic_S_transvectant,
    quartic_T,
    quartic_T_transvectant,
    quintic_covariants,
    quintic_invariants,
    sylvester_specialize,
)
from binform.mpoly import MPoly, format_poly, monic_divrem


def random_stable_quintic(rng, bound=9):
    while True:
        form = BinaryForm([rng.randrange(-bound, bound + 1) for _ in range(6)])
        if form.is_zero():
            continue
        if quintic_invariants(form).Disc != 0:
            return form


class TestJKLPolynomial:
    def test_construction_cleans(self):
        p = JKLPolynomial({(0, 0, 1): 2, (1, 0, 0): 0})
        assert p.terms == {(0, 0, 1): 2}
        assert not JKLPolynomial({}).terms

    def test_repr(self):
        assert repr(JKLPolynomial({})) == "JKLPolynomial(0)"
        assert repr(JKLPolynomial({(0, 0, 0): 5, (1, 0, 0): Fraction(-3, 4),
                                   (0, 2, 1): -1})) \
            == "JKLPolynomial(-J*K^2 - 3/4*L + 5)"
        assert repr(KEYPROP_TABLES[5]) == (
            "JKLPolynomial(-30517578125/470184984576*J^6"
            " + 30517578125/52242776064*J^4*K"
            " - 30517578125/17414258688*J^2*K^2"
            " + 30517578125/17414258688*K^3)")

    def test_degree_validation(self):
        JKLPolynomial({(2, 0, 0): 1, (0, 0, 6): -1})
        with pytest.raises(ValueError, match="negative"):
            JKLPolynomial({(-1, 0, 0): 1})

    def test_degree_is_worked_out_from_the_terms(self):
        assert [t.degree for t in KEYPROP_TABLES] == [24] * 6
        p = JKLPolynomial({(1, 0, 0): 1, (0, 1, 1): 2})
        assert p.degree == 12
        assert (p * KEYPROP_TABLES[0]).degree == 36
        # a mixed-degree polynomial and the zero polynomial have none
        assert JKLPolynomial({(1, 0, 0): 1, (0, 0, 1): 1}).degree is None
        assert JKLPolynomial({}).degree is None
        assert (p - p).degree is None
        with pytest.raises(AttributeError):
            p.degree = 24

    def test_terms_are_the_only_argument(self):
        with pytest.raises(TypeError):
            JKLPolynomial({(2, 0, 0): 1}, degree=24)
        with pytest.raises(TypeError):
            JKLPolynomial({(2, 0, 0): 1}, 24)

    @pytest.mark.parametrize("triple", [(-1, 0, 0), (0, 0, -4)])
    def test_one_message_for_a_negative_exponent(self, triple):
        # the constructor and the factor splitting share one triple rule,
        # and a zero coefficient does not skip it; the message names the
        # exponent and its value
        name = f"a{triple.index(min(triple)) + 1}"
        message = f"^exponent {name} must be nonnegative, got {min(triple)}$"
        for value in (1, 0):
            with pytest.raises(ValueError, match=message):
                JKLPolynomial({triple: value})
        with pytest.raises(ValueError, match=message):
            thm48_decompose(triple)

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError, match="exact rational"):
            JKLPolynomial({(0, 0, 6): 0.1})

    def test_text_coefficient_rejected(self):
        with pytest.raises(TypeError, match="exact rational"):
            JKLPolynomial({(0, 0, 6): "1"})

    def test_float_exponent_rejected(self):
        with pytest.raises(TypeError, match="not an int"):
            JKLPolynomial({(1.5, 0, 0): 1})

    def test_float_scalar_rejected(self):
        p = JKLPolynomial({(0, 0, 6): 1})
        with pytest.raises(TypeError, match="exact rational"):
            p * 0.1
        with pytest.raises(TypeError, match="exact rational"):
            0.1 * p

    def test_arithmetic(self):
        p = JKLPolynomial({(1, 0, 0): 1})
        q = JKLPolynomial({(0, 1, 1): 2})
        assert (p + q).terms == {(1, 0, 0): 1, (0, 1, 1): 2}
        assert not (p - p).terms
        assert (3 * p).terms == {(1, 0, 0): 3}
        product = p * q
        assert product.terms == {(1, 1, 1): 2}
        assert product.degree == 24
        mixed = p * JKLPolynomial({(0, 0, 1): 1, (0, 1, 0): 1})
        assert mixed.degree is None

    def test_items_ordering(self):
        p = JKLPolynomial({(0, 0, 6): 1, (2, 0, 0): 1, (0, 3, 0): 1})
        assert list(p.terms) == [(2, 0, 0), (0, 3, 0), (0, 0, 6)]

    def test_evaluate_numeric(self):
        p = JKLPolynomial({(1, 1, 1): 2, (0, 0, 2): -1})
        assert p.evaluate(J=3, K=5, L=7) == 2 * 7 * 5 * 3 - 9

    @pytest.mark.parametrize("value", [1.5, True, "2"],
                             ids=["float", "bool", "str"])
    def test_evaluate_refuses_inexact_values(self, value):
        table = KEYPROP_TABLES[5]
        for args in ((value, 2, 3), (1, value, 3), (1, 2, value)):
            with pytest.raises(TypeError, match="^not an exact rational: "):
                table.evaluate(*args)

    def test_equality_and_hash(self):
        p = JKLPolynomial({(1, 0, 0): Fraction(1, 2)})
        q = JKLPolynomial({(1, 0, 0): Fraction(2, 4)})
        assert p == q
        assert hash(p) == hash(q)


class TestKeypropTables:
    def test_shape(self):
        assert len(KEYPROP_TABLES) == 6
        basis = set(monomial_basis(24))
        for table in KEYPROP_TABLES:
            assert table.degree == 24
            assert set(table.terms) <= basis
        assert [len(t.terms) for t in KEYPROP_TABLES] == [4, 4, 6, 7, 6, 4]

    def test_leading_table_coefficients(self):
        # 5^15/2^40 * (-2^21 K^3 + 3*2^14 K^2 J^2 - 3*2^7 K J^4 + J^6)
        t0 = KEYPROP_TABLES[0].terms
        assert t0[(0, 3, 0)] == Fraction(-(2 ** 21) * 5 ** 15, 2 ** 40)
        assert t0[(0, 2, 2)] == Fraction(3 * 2 ** 14 * 5 ** 15, 2 ** 40)
        assert t0[(0, 1, 4)] == Fraction(-3 * 2 ** 7 * 5 ** 15, 2 ** 40)
        assert t0[(0, 0, 6)] == Fraction(5 ** 15, 2 ** 40)

    def test_last_table_coefficients(self):
        # 5^15/(2^15 3^15) * (3^3 K^3 - 3^3 K^2 J^2 + 3^2 K J^4 - J^6)
        t5 = KEYPROP_TABLES[5].terms
        assert t5[(0, 3, 0)] == Fraction(3 ** 3 * 5 ** 15, 2 ** 15 * 3 ** 15)
        assert t5[(0, 0, 6)] == Fraction(-(5 ** 15), 2 ** 15 * 3 ** 15)

    def test_span_misses_one_dimension(self):
        # the six products span a 6-dimensional subspace of the 7-dimensional
        # degree-24 component: the single missing dimension is exactly the
        # obstruction that blocks building the full ring out of them
        from binform.beauville import _row_reduce
        basis = monomial_basis(24)
        matrix = [[t.terms.get(triple, Fraction(0)) for triple in basis]
                  for t in KEYPROP_TABLES]
        _, pivots = _row_reduce(matrix, len(basis))
        assert len(pivots) == 6
        assert len(basis) == 7


class TestQuarticOfRoot:
    def test_division_identity_symbolic(self):
        # (x1 - lam x2) * Q equals F minus its value at lam times x2^5
        lam = MPoly.variable("lam")
        tail = [MPoly.variable(f"a{i}") for i in range(1, 6)]
        quartic = quartic_of_root(tail[:4], lam)
        linear = BinaryForm([1, -lam])
        product = linear * quartic
        quintic = BinaryForm([1, *tail])
        difference = quintic - product
        for c in difference.coeffs[:5]:
            assert c == 0
        horner = lam ** 5
        for i, a in enumerate(tail):
            horner = horner + a * lam ** (4 - i)
        assert difference.coeffs[5] == horner

    def test_numeric_root_removal(self):
        # F = (x-1)(x-2)(x-3)(x-4)(x-5): at lam = 2 the quartic has the
        # other four roots
        tail = [Fraction(c) for c in (-15, 85, -225, 274, -120)]
        quartic = quartic_of_root(tail[:4], Fraction(2))
        expected = form_from_roots([(1, 1), (3, 1), (4, 1), (5, 1)])
        assert quartic == expected


class TestBuildPhi:
    def test_shape(self):
        lam = MPoly.variable("lam")
        tail = [MPoly.variable(f"a{i}") for i in range(1, 5)]
        phi = build_phi(quartic_of_root(tail, lam))
        assert phi.degree("z") == 1
        assert phi.degree("lam") <= 12

    @staticmethod
    def assert_transvectant_route(q):
        # phi on ints, wrapped once, against (S^3 - 27 T^2) z - S^3 in MPoly
        # arithmetic on the transvectant routes' S and T
        s, t = quartic_S_transvectant(q), quartic_T_transvectant(q)
        z = MPoly.variable("z")
        expected = (s ** 3 - 27 * t ** 2) * z - s ** 3
        phi = build_phi(q)
        assert phi == expected
        assert (phi.variables, format_poly(phi)) \
            == (expected.variables, format_poly(expected))

    @pytest.mark.parametrize("height", ["small", "int20", "rat64"])
    def test_numeric_equals_the_transvectant_route(self, height):
        rng = random.Random(f"phi-{height}")
        for _ in range(10):
            tail = [draw_coefficient(rng, height) for _ in range(4)]
            self.assert_transvectant_route(
                quartic_of_root(tail, MPoly.variable("lam")))
            self.assert_transvectant_route(
                BinaryForm([draw_coefficient(rng, height) for _ in range(5)]))

    def test_rejects_a_quartic_that_uses_z(self):
        # phi is linear in its own z, which a z in the quartic would break
        a, z = MPoly.variable("a"), MPoly.variable("z")
        for q in (BinaryForm([1, z, 0, 0, 1]),
                  BinaryForm([1, a, 0, 0, a * z])):
            with pytest.raises(ValueError, match="^build_phi needs a quartic"
                                                 " free of z"):
                build_phi(q)
        # a universe naming z with no term using it is accepted
        assert build_phi(BinaryForm([1, a + z - z, 0, 0, 1])) \
            == build_phi(BinaryForm([1, a, 0, 0, 1]))

    def test_symbolic_equals_the_transvectant_route(self):
        tail = [MPoly.variable(f"a{i}") for i in range(1, 5)]
        for lam in (MPoly.variable("lam"), Fraction(2, 3)):
            self.assert_transvectant_route(quartic_of_root(tail, lam))

    def test_z_root_is_the_j_invariant(self):
        # the z-root of phi at a numeric lam is the j-invariant of the
        # companion quartic
        tail = [Fraction(c) for c in (-15, 85, -225, 274, -120)]
        lam = Fraction(2)
        quartic = quartic_of_root(tail[:4], lam)
        phi = build_phi(quartic)
        a = phi.coefficient("z", 1).constant_value()
        b = phi.coefficient("z", 0).constant_value()
        assert Fraction(-b, a) == j_invariant(quartic)


def root_product(tail, roots):
    """Poisson's formula for r_bar: the product of phi at the roots of the
    monic quintic with coefficient tail a1..a5, since phi_bar = phi modulo
    the quintic, and a monic resultant is the product over the roots."""
    return prod(build_phi(quartic_of_root(tail[:4], lam)) for lam in roots)


def transvectant_root_product(tail, roots):
    """The same product with phi built at each root as (S^3 - 27 T^2) z
    - S^3 from the transvectant route's S and T: no ``build_phi``."""
    z = MPoly.variable("z")
    out = 1
    for lam in roots:
        quartic = quartic_of_root(tail[:4], lam)
        s = quartic_S_transvectant(quartic)
        t = quartic_T_transvectant(quartic)
        out = out * ((s ** 3 - 27 * t ** 2) * z - s ** 3)
    return out


class TestNumericPipeline:
    @pytest.mark.parametrize("height", ["small", "int20", "rat64"])
    def test_r_bar_is_the_product_over_the_roots(self, height):
        rng = random.Random(f"roots-{height}")
        for _ in range(20):
            roots = set()
            while len(roots) < 5:
                roots.add(Fraction(draw_coefficient(rng, height)))
            form = form_from_roots([(lam, 1) for lam in roots])
            _, trace = beauville_pipeline(form)
            assert trace.r_bar == root_product(form.coeffs[1:], roots)

    @pytest.mark.parametrize("height", ["small", "int20", "rat64"])
    def test_r_bar_is_the_transvectant_product_over_the_roots(self, height):
        rng = random.Random(f"transvectant-roots-{height}")
        for _ in range(10):
            roots = set()
            while len(roots) < 5:
                roots.add(Fraction(draw_coefficient(rng, height)))
            form = form_from_roots([(lam, 1) for lam in roots])
            _, trace = beauville_pipeline(form)
            assert trace.r_bar \
                == transvectant_root_product(form.coeffs[1:], roots)

    def test_r_bar_is_the_product_over_the_sheared_roots(self):
        # a0 = 0, a root at infinity: the pipeline shears by g = (1, 0, 1,
        # 1), which sends a root (p : q) to (p : p + q), and its trace is
        # that of the monic sheared form, with roots lam / (lam + 1) and 1
        roots = [Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2)]
        form = form_from_roots([(lam, 1) for lam in roots] + [(1, 0)])
        assert form.coeffs[0] == 0
        sheared_roots = [lam / (lam + 1) for lam in roots] + [Fraction(1)]
        monic = form_from_roots([(mu, 1) for mu in sheared_roots])
        sheared = act(GroupElement(1, 0, 1, 1), form)
        assert sheared == sheared.coeffs[0] * monic
        _, trace = beauville_pipeline(form)
        assert trace.r_bar == root_product(monic.coeffs[1:], sheared_roots)

    def test_fifth_power_sum(self):
        vector, trace = beauville_pipeline(BinaryForm([1, 0, 0, 0, 0, 1]))
        assert vector.b[0] == Fraction(3125 ** 3, 2 ** 40)
        assert vector == beauville_closed_form(BinaryForm([1, 0, 0, 0, 0, 1]))
        assert trace.quartic.order == 4
        assert trace.quartic.coeffs[0] == 1
        assert trace.r_bar.degree("z") == 5
        assert trace.r_bar.coefficient("z", 5).constant_value() == vector.b[0]

    def test_matches_closed_form_on_random_quintics(self):
        rng = random.Random(61)
        for _ in range(5):
            form = random_stable_quintic(rng)
            pipeline, _ = beauville_pipeline(form)
            assert pipeline == beauville_closed_form(form)

    def test_rational_coefficients(self):
        form = BinaryForm([Fraction(1, 2), 0, Fraction(-2, 3), 1, 0, 5])
        pipeline, _ = beauville_pipeline(form)
        assert pipeline == beauville_closed_form(form)

    def test_scaling_covariance(self):
        form = BinaryForm([1, 2, 0, -1, 3, 1])
        base, _ = beauville_pipeline(form)
        scaled, _ = beauville_pipeline(Fraction(3, 2) * form)
        factor = Fraction(3, 2) ** 24
        assert list(scaled.b) == [factor * x for x in base.b]

    def test_zero_leading_coefficient_sheared(self):
        form = sylvester_specialize(SylvesterPoint(1, 1, 1))
        assert form.coeffs[0] == 0
        pipeline, _ = beauville_pipeline(form)
        assert pipeline == beauville_closed_form(form)

    def test_repeated_root_gives_zero_leading_entry(self):
        form = BinaryForm([1, 0, 0, 0, 0, 0])  # x1^5, all roots equal
        vector, _ = beauville_pipeline(form)
        assert vector.b[0] == 0

    def test_fivefold_root_keeps_z(self):
        # (x1 + x2)^5: every entry vanishes, and the zero r_bar still has z
        # in its universe
        vector, trace = beauville_pipeline(BinaryForm([1, 5, 10, 10, 5, 1]))
        assert vector.b == (Fraction(0),) * 6
        assert not trace.r_bar and trace.r_bar.variables == ("z",)

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError, match="zero form"):
            beauville_pipeline(BinaryForm([0, 0, 0, 0, 0, 0]))

    def test_closed_form_rejects_symbolic(self):
        with pytest.raises(TypeError, match="numeric"):
            beauville_closed_form(generic_form(5))
        with pytest.raises(TypeError,
                           match="^beauville_closed_form needs a numeric"
                                 " quintic$"):
            beauville_closed_form(
                BinaryForm([MPoly.variable("t"), 0, 0, 0, 0, 1]))

    def test_closed_form_of_symbolic_form_with_constant_invariants(self):
        # (x1 + t x2)**5 + x2**5 is a unipotent image of x1**5 + x2**5, so
        # its J, K, L are constant polynomials in t: the closed forms and
        # the j-data are numbers
        t = MPoly.variable("t")
        form = BinaryForm([1, 5 * t, 10 * t ** 2, 10 * t ** 3, 5 * t ** 4,
                           t ** 5 + 1])
        fifth_powers = BinaryForm([1, 0, 0, 0, 0, 1])
        assert (beauville_closed_form(form)
                == beauville_closed_form(fifth_powers))
        assert same_j_data(form, fifth_powers)


def _pinned_outputs() -> str:
    """The numeric pipeline's vector and trace on 120 seeded quintics at
    three heights (a0 = 0 in one in five, so the shear runs), two fivefold
    roots and a double root, then ``act`` on 30 seeded pairs with a
    rational g of det g != +-1, every third form with a coefficient in t:
    each value with its type, as one text."""
    rng = random.Random(20)
    heights = (lambda: rng.randint(-8, 8),
               lambda: rng.randint(-2 ** 20, 2 ** 20),
               lambda: Fraction(rng.randint(-2 ** 64, 2 ** 64),
                                rng.randint(1, 2 ** 16)))
    quintics = []
    for draw in heights:
        for i in range(40):
            coeffs = [draw() for _ in range(6)]
            if i % 5 == 0:
                coeffs[0] = 0
            if any(coeffs):
                quintics.append(BinaryForm(coeffs))
    quintics += [BinaryForm([1, 0, 0, 0, 0, 0]),
                 BinaryForm([1, 5, 10, 10, 5, 1]),
                 form_from_roots([(1, 1), (1, 1), (-2, 1), (3, 2), (0, 1)])]
    lines = []
    for form in quintics:
        vector, trace = beauville_pipeline(form)
        lines.append(" ".join(f"{type(b).__name__}:{b}" for b in vector.b))
        for poly in (trace.phi, trace.phi_bar, trace.r_bar):
            lines.append(format_poly(poly))
            lines.append(" ".join(type(c).__name__ for _, c in poly.terms()))
    t = MPoly.variable("t")

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    for i in range(30):
        while True:
            g = [rational() for _ in range(4)]
            det = g[0] * g[3] - g[1] * g[2]
            if det and abs(det) != 1:
                break
        coeffs = [rational() for _ in range(rng.randint(1, 7))]
        if i % 3 == 0:
            coeffs[rng.randrange(len(coeffs))] += rational() * t + 2
        out = act(GroupElement(*g), BinaryForm(coeffs))
        lines.append(" ".join(f"{type(c).__name__}:{c}" for c in out.coeffs))
    return "\n".join(lines)


def test_numeric_outputs_are_pinned_by_digest():
    # the digest of _pinned_outputs as the Fraction and MPoly-operation
    # routes of build_phi, act and the six entries computed it
    assert hashlib.sha256(_pinned_outputs().encode()).hexdigest() \
        == "089766916e5218841527261c47abbdf3183c5682c7e75b762e55958ae374488c"


def stage_trace(tail):
    """The trace fields by the public stages, quartic_of_root ->
    build_phi -> monic_divrem -> resultant, for the monic quintic with
    coefficients (1, *tail)."""
    lam = MPoly.variable("lam")
    quartic = quartic_of_root(tail[:4], lam)
    phi = build_phi(quartic)
    _, phi_bar = monic_divrem(phi, lam * quartic.coeffs[4] + tail[4], "lam")
    parts = phi_bar.coefficients("lam")
    r_bar = resultant(BinaryForm([1, *tail]), BinaryForm(
        [parts[e] if e < len(parts) else 0 for e in range(4, -1, -1)]))
    return (*quartic.coeffs, phi, phi_bar,
            r_bar.in_universe(sorted({*r_bar.variables, "z"})))


def pipeline_tail(form):
    """The tail of the monic quintic that the numeric pipeline runs on:
    a form with a0 = 0 is first sheared by (1, 0, c, 1), c = 1, 2, ..."""
    coeffs, c = form.coeffs, 0
    while coeffs[0] == 0:
        c += 1
        coeffs = act(GroupElement(1, 0, c, 1), form).coeffs
    return [v / coeffs[0] for v in coeffs[1:]]


def assert_same_trace(trace, expected):
    fields = (*trace.quartic.coeffs, trace.phi, trace.phi_bar, trace.r_bar)
    for got, want in zip(fields, expected, strict=True):
        assert type(got) is type(want)
        assert got == want
        if isinstance(got, MPoly):
            assert got.variables == want.variables
            assert [type(c) for _, c in got.terms()] \
                == [type(c) for _, c in want.terms()]


@pytest.mark.parametrize("height", ["small", "int20", "rat64"])
def test_traces_of_one_quintic_are_equal_records(height):
    # two runs on one quintic give two trace objects with equal fields:
    # they compare and hash equal, and a changed quintic's trace differs
    rng = random.Random(f"trace-record-{height}")
    form = BinaryForm([draw_coefficient(rng, height) or 1 for _ in range(6)])
    other = BinaryForm([*form.coeffs[:5], form.coeffs[5] + 1])
    (_, trace), (_, again), (_, changed) = map(beauville_pipeline,
                                               (form, form, other))
    assert trace is not again
    assert trace == again and hash(trace) == hash(again)
    assert trace != changed


def test_hashing_a_trace_formats_no_polynomial(symbolic_vector,
                                               monkeypatch):
    # a record hashes its fields' values, not their text: the generic
    # quintic's trace, r_bar of 14859 terms included, prints nothing
    _, trace = symbolic_vector

    def refuse(f):
        raise AssertionError("format_poly called")

    monkeypatch.setattr(mpoly, "format_poly", refuse)
    copy = beauville.TschirnhausTrace(*trace._fields())
    assert copy is not trace and hash(copy) == hash(trace)


@pytest.mark.parametrize("height", ["small", "int20", "rat64"])
def test_pipeline_trace_equals_the_public_stage_route(height):
    # the pipeline runs its stages on int term dicts; its trace is what
    # the public MPoly stages give, a0 = 0 (the shear) included
    rng = random.Random(f"stage-route-{height}")
    for i in range(12):
        coeffs = [draw_coefficient(rng, height) for _ in range(6)]
        coeffs[0] = 0 if i % 3 == 0 else coeffs[0] or 1
        coeffs[1] = coeffs[1] or 1
        form = BinaryForm(coeffs)
        _, trace = beauville_pipeline(form)
        assert_same_trace(trace, stage_trace(pipeline_tail(form)))


def test_symbolic_pipeline_trace_equals_the_public_stage_route(
        symbolic_vector):
    # the generic quintic, and a unit lead whose tail symbols sort around
    # lam and z, with a5's symbol first
    _, trace = symbolic_vector
    assert_same_trace(trace, stage_trace(
        [MPoly.variable(f"a{i}") for i in range(1, 6)]))
    tail = [MPoly.variable(n) for n in ("x", "a", "zeta", "mu", "b")]
    _, trace = beauville_pipeline(BinaryForm([1, *tail]))
    assert_same_trace(trace, stage_trace(tail))


def test_numeric_pipeline_makes_no_mpoly_product_or_sum(monkeypatch):
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        def spy(self, other, _original=getattr(MPoly, name), _name=name):
            calls.append(_name)
            return _original(self, other)
        monkeypatch.setattr(MPoly, name, spy)
    quartic_of_root([1, 2, 3, 4], MPoly.variable("lam"))
    assert {"__mul__", "__add__"} <= set(calls)    # the spy sees them
    calls.clear()
    rng = random.Random("no-mpoly-arithmetic")
    for height in ("small", "int20", "rat64"):
        for a0 in (0, 1):
            coeffs = [draw_coefficient(rng, height) for _ in range(6)]
            coeffs[0] = a0 * (coeffs[0] or 1)
            coeffs[1] = coeffs[1] or 1
            beauville_pipeline(BinaryForm(coeffs))
    assert calls == []


def test_keyprop_calls_the_determinant_once_through_its_bindings(
        monkeypatch):
    # patched at every module binding, as perfbench's tracer patches it:
    # CI's traced keyprop step reads the 14859 terms it returns
    original = mpoly.det_fraction_free
    results = []

    def counted(rows):
        results.append(original(rows))
        return results[-1]

    for name, module in list(sys.modules.items()):
        if name == "binform" or name.startswith("binform."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    assert verify_keyprop()["all_match"]
    assert [len(r) for r in results] == [14859]


def test_pipeline_takes_phi_from_build_phi_once_through_its_bindings(
        monkeypatch):
    # patched at every module binding, as perfbench's tracer patches it:
    # its phi stage row reads build_phi, and the trace's quartic and phi are
    # its argument and its result
    original = beauville.build_phi
    quartics, results = [], []

    def counted(quartic):
        quartics.append(quartic)
        results.append(original(quartic))
        return results[-1]

    for name, module in list(sys.modules.items()):
        if name == "binform" or name.startswith("binform."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    forms = [BinaryForm([2, -3, Fraction(1, 7), 0, 5, -1]),
             BinaryForm([0, 1, 0, -2, 3, 1]),    # a0 = 0: the shear path
             generic_form(5)]
    for calls, form in enumerate(forms, 1):
        _, trace = beauville_pipeline(form)
        assert len(results) == calls
        assert trace.quartic is quartics[-1]
        assert trace.phi is results[-1]


class TestSymbolicPipeline:
    def test_entries_homogeneous_isobaric(self, symbolic_vector):
        vector, _ = symbolic_vector
        coefficient_names = {f"a{i}" for i in range(6)}
        for entry in vector.b:
            assert isinstance(entry, MPoly)
            names = entry.variables
            for exps, _c in entry.terms():
                by_name = dict(zip(names, exps))
                for name, exp in by_name.items():
                    if name not in coefficient_names:
                        assert exp == 0
                assert sum(by_name.get(f"a{i}", 0) for i in range(6)) == 24
                assert sum(i * by_name.get(f"a{i}", 0)
                           for i in range(6)) == 60

    def test_leading_entry_is_discriminant_cubed(self, symbolic_vector):
        vector, _ = symbolic_vector
        iv = quintic_invariants(generic_form(5))
        disc = 3125 * (iv.J * iv.J - 128 * iv.K)
        expected = disc * disc * disc * Fraction(1, 2 ** 40)
        assert not vector.b[0] - expected

    def test_tables_at_generic_JKL_equal_the_entries(self, symbolic_vector):
        # a second route to keyprop: the closed forms evaluated at the
        # generic J, K, L, term for term
        vector, _ = symbolic_vector
        iv = quintic_invariants(generic_form(5))
        for table, entry in zip(KEYPROP_TABLES, vector.b):
            assert table.evaluate(iv.J, iv.K, iv.L) == entry

    def test_trace_shapes(self, symbolic_vector):
        _, trace = symbolic_vector
        assert trace.quartic.order == 4
        assert trace.quartic.coeffs[0] == 1
        assert trace.phi.degree("z") == 1
        assert trace.phi_bar.degree("lam") <= 4
        assert trace.r_bar.degree("z") == 5

    def test_resultant_is_pinned_term_for_term(self, symbolic_vector):
        # the generic r_bar over Q[a1..a5, z], as the unpacked determinant
        # computed it
        _, trace = symbolic_vector
        assert len(trace.r_bar) == 14859
        assert hashlib.sha256(format_poly(trace.r_bar).encode()).hexdigest() \
            == "4b50634be497aa559a8c10ee76d79fbe849ec80f4aca5a5a61fd560337bdd667"

    def test_canonical_substitution_is_pinned(self, symbolic_vector):
        # the six entries on the canonical family, as decompose_in_JKL
        # specializes them: 14859 terms in, 546 out
        vector, _ = symbolic_vector
        bindings, _, _ = beauville._canonical_family(24)
        specialized = [entry.substitute(bindings) for entry in vector.b]
        assert sum(len(entry) for entry in vector.b) == 14859
        assert sum(len(p) for p in specialized) == 546
        text = "\n".join(format_poly(p) for p in specialized)
        assert hashlib.sha256(text.encode()).hexdigest() \
            == "ac52d686a81d5261cbc000b0610d1d3e93d07501fbe63768b15e3c0be771cbba"

    def test_verify_keyprop_with_reused_vector(self, symbolic_vector,
                                               monkeypatch):
        monkeypatch.setattr(beauville, "beauville_pipeline",
                            lambda form: symbolic_vector)
        report = verify_keyprop()
        assert report["all_match"]
        assert list(report) == ["all_match", "entries"]
        assert [e["index"] for e in report["entries"]] == list(range(6))
        assert all(e["match"] for e in report["entries"])

    def test_tampered_expectation_flips_one_entry(self, symbolic_vector,
                                                  monkeypatch):
        tampered = list(KEYPROP_TABLES)
        tampered[3] = tampered[3] + JKLPolynomial({(0, 0, 6): Fraction(1, 7)})
        monkeypatch.setattr(beauville, "KEYPROP_TABLES", tuple(tampered))
        monkeypatch.setattr(beauville, "beauville_pipeline",
                            lambda form: symbolic_vector)
        report = verify_keyprop()
        assert not report["all_match"]
        assert [e["match"] for e in report["entries"]] \
            == [True, True, True, False, True, True]
        diffs = report["entries"][3]["differences"]
        assert len(diffs) == 1
        assert (diffs[0]["L"], diffs[0]["K"], diffs[0]["J"]) == (0, 0, 6)

    def test_mismatch_shows_a_missing_coefficient_as_zero(
            self, symbolic_vector, monkeypatch):
        # b0's table has four of the seven basis monomials: one term moved
        # to a monomial it lacks shows 0 on each side where it is missing,
        # and the two monomials that neither side has are not listed
        terms = dict(KEYPROP_TABLES[0].terms)
        moved = terms.pop((0, 3, 0))
        tampered = (JKLPolynomial({**terms, (2, 0, 0): moved}),
                    *KEYPROP_TABLES[1:])
        monkeypatch.setattr(beauville, "KEYPROP_TABLES", tampered)
        monkeypatch.setattr(beauville, "beauville_pipeline",
                            lambda form: symbolic_vector)
        entry = verify_keyprop()["entries"][0]
        assert not entry["match"]
        assert sorted((d["L"], d["K"], d["J"], d["computed"], d["expected"])
                      for d in entry["differences"]) \
            == [(0, 3, 0, str(moved), "0"), (2, 0, 0, "0", str(moved))]
        assert len(entry["expected"]) == 4

    def test_pipeline_rejects_mixed_coefficients(self):
        bad = BinaryForm([MPoly.variable("a0"), MPoly.variable("a1"),
                          MPoly.variable("a1"), MPoly.variable("a3"),
                          MPoly.variable("a4"), MPoly.variable("a5")])
        with pytest.raises(TypeError, match="distinct"):
            beauville_pipeline(bad)

    def test_unit_leading_coefficient_is_rehomogenized(self, symbolic_vector):
        # with a0 = 1 the symbol a0 is put back by rehomogenizing
        tail = [MPoly.variable(f"a{i}") for i in range(1, 6)]
        vector, _ = beauville_pipeline(BinaryForm([1, *tail]))
        assert vector.b == symbolic_vector[0].b

    def test_unit_lead_is_renamed_apart_from_a_tail_a0(self, symbolic_vector):
        # with a tail a0..a4 the unit lead is homogenized with a0_: the
        # generic entries under {a0 -> a0_, a1 -> a0, ..., a5 -> a4}
        tail = [MPoly.variable(f"a{i}") for i in range(5)]
        vector, _ = beauville_pipeline(BinaryForm([1, *tail]))
        renaming = {"a0": MPoly.variable("a0_"),
                    **{f"a{i + 1}": t for i, t in enumerate(tail)}}
        assert vector.b == tuple(b.substitute(renaming)
                                 for b in symbolic_vector[0].b)

    def test_pipeline_rejects_reused_leading_symbol(self):
        tail = [MPoly.variable(f"a{i}") for i in range(1, 6)]
        with pytest.raises(TypeError, match="reused in the tail"):
            beauville_pipeline(BinaryForm([tail[0], *tail]))

    @pytest.mark.parametrize("name, index",
                             [("z", 5), ("z", 1), ("lam", 1), ("lam", 5)])
    def test_pipeline_rejects_its_own_symbols_in_the_tail(self, name, index):
        # the pipeline's own lam and z would capture such a coefficient: z
        # at a5 gave six entries over a0..a4 alone, with no error
        coeffs = [MPoly.variable(f"a{i}") for i in range(6)]
        coeffs[index] = MPoly.variable(name)
        message = f"^symbolic pipeline uses the symbol '{name}' itself"
        for lead in (coeffs[0], 1):
            with pytest.raises(TypeError, match=message):
                beauville_pipeline(BinaryForm([lead, *coeffs[1:]]))

    @pytest.mark.parametrize("name", ["z", "lam"])
    def test_leading_symbol_may_be_named_z_or_lam(self, name,
                                                   symbolic_vector):
        # the lead only enters when the entries are rehomogenized
        lead = MPoly.variable(name)
        tail = [MPoly.variable(f"a{i}") for i in range(1, 6)]
        vector, _ = beauville_pipeline(BinaryForm([lead, *tail]))
        assert vector.b == tuple(entry.substitute({"a0": lead})
                                 for entry in symbolic_vector[0].b)

    def test_pipeline_rejects_non_symbol_leading_coefficient(self):
        a = [MPoly.variable(f"a{i}") for i in range(6)]
        for lead in (a[0] + 1, 2 * a[0], 2):
            with pytest.raises(TypeError, match="leading coefficient 1 or"):
                beauville_pipeline(BinaryForm([lead, *a[1:]]))


class TestDecomposeInJKL:
    def test_generators(self):
        iv = quintic_invariants(generic_form(5))
        assert decompose_in_JKL(iv.J, 4).terms == {(0, 0, 1): 1}
        assert decompose_in_JKL(iv.K, 8).terms == {(0, 1, 0): 1}
        assert decompose_in_JKL(iv.L, 12).terms == {(1, 0, 0): 1}

    def test_simple_products(self):
        iv = quintic_invariants(generic_form(5))
        assert decompose_in_JKL(iv.J * iv.J, 8).terms == {(0, 0, 2): 1}
        assert decompose_in_JKL(iv.J * iv.K, 12).terms == {(0, 1, 1): 1}

    def test_H_squared_recovers_the_relation(self):
        # 16 H^2 = -432 L^3 - 72 L^2 K J + 8 L K^3 - 2 L K^2 J^2
        #          + L^2 J^3 + K^4 J
        iv = quintic_invariants(generic_form(5))
        decomposition = decompose_in_JKL(iv.H * iv.H, 36)
        expected = JKLPolynomial({
            (3, 0, 0): Fraction(-432, 16),
            (2, 1, 1): Fraction(-72, 16),
            (1, 3, 0): Fraction(8, 16),
            (1, 2, 2): Fraction(-2, 16),
            (2, 0, 3): Fraction(1, 16),
            (0, 4, 1): Fraction(1, 16),
        })
        assert decomposition == expected

    def test_zero_has_no_degree(self):
        decomposition = decompose_in_JKL(MPoly((), {}), 24)
        assert not decomposition.terms and decomposition.degree is None

    def test_zero_over_the_coefficients(self):
        zero = MPoly(("a0", "a1", "a2", "a3", "a4", "a5"), {})
        assert decompose_in_JKL(zero, 24) == JKLPolynomial({})

    def test_a_named_but_unused_variable_is_no_extra(self, symbolic_vector):
        # t cancels: only the variables that a term uses are judged
        vector, _ = symbolic_vector
        t = MPoly.variable("t")
        b0 = vector.b[0] + t - t
        assert "t" in b0.variables
        assert decompose_in_JKL(b0, 24) == KEYPROP_TABLES[0]

    def test_non_invariant_rejected(self):
        quartic_monomial = MPoly.variable("a0") ** 4
        with pytest.raises(ValueError, match="not in the J,K,L subring"):
            decompose_in_JKL(quartic_monomial, 4)

    def test_slice_vanishing_non_invariants_rejected(self):
        # both equal J on the canonical family, where the linear solve runs;
        # the second is even homogeneous and isobaric of J's weight 10
        iv = quintic_invariants(generic_form(5))
        a0, a1, a2, a3, a4, a5 = (MPoly.variable(f"a{i}") for i in range(6))
        for poly in (iv.J + (2 * a1 - a2) * a0 ** 3,
                     iv.J + a0 * a5 * (4 * a1 * a4 - a2 * a3)):
            with pytest.raises(ValueError, match="not in the J,K,L subring"):
                decompose_in_JKL(poly, 4)

    def test_input_validation(self):
        iv = quintic_invariants(generic_form(5))
        with pytest.raises(ValueError, match="multiple of 4"):
            decompose_in_JKL(iv.H, 18)
        with pytest.raises(ValueError, match="homogeneous"):
            decompose_in_JKL(MPoly.variable("a0") ** 4 + MPoly.variable("a0"),
                             4)
        with pytest.raises(ValueError, match="unexpected variables"):
            decompose_in_JKL(MPoly.variable("b0") ** 4, 4)
        with pytest.raises(TypeError):
            decompose_in_JKL(7, 4)

    @pytest.mark.parametrize("degree", [24.0, True])
    def test_degree_is_checked_before_the_invariance_proof(
            self, degree, monkeypatch):
        def unreached(poly, degree):
            raise AssertionError("the invariance proof ran")

        monkeypatch.setattr(beauville, "_require_invariant", unreached)
        iv = quintic_invariants(generic_form(5))
        with pytest.raises(TypeError, match="^degree .* is not an int$"):
            decompose_in_JKL(iv.K ** 3, degree)

    def test_missing_basis_column_leaves_a_residual(self, monkeypatch):
        # the residual check guards the linear solve: without K's column
        # the system for K on the canonical family has no solution
        family = beauville._canonical_family

        def without_K(degree):
            bindings, basis, columns = family(degree)
            i = basis.index((0, 1, 0))
            return (bindings, basis[:i] + basis[i + 1:],
                    columns[:i] + columns[i + 1:])

        monkeypatch.setattr(beauville, "_canonical_family", without_K)
        with pytest.raises(ValueError, match="^not in the J,K,L subring$"):
            decompose_in_JKL(quintic_invariants(generic_form(5)).K, 8)

    def test_round_trip_on_random_JKL_polynomials(self):
        # decompose(expand(R)) == R for seeded sparse JKL polynomials; low
        # degrees dominate to keep the Cartesian expansions moderate, with
        # one genuinely degree-48 case included
        iv = quintic_invariants(generic_form(5))
        rng = random.Random(67)
        degrees = [4, 8, 12, 16, 20, 24] * 3 + [28, 32]
        polys = []
        for degree in degrees:
            basis = monomial_basis(degree)
            count = rng.randrange(1, min(4, len(basis)) + 1)
            terms = {}
            for triple in rng.sample(basis, count):
                terms[triple] = Fraction(rng.randrange(-9, 10) or 1,
                                         rng.randrange(1, 5))
            polys.append(JKLPolynomial(terms))
        polys.append(JKLPolynomial(
            {(3, 1, 1): Fraction(2, 3), (3, 0, 3): -5}))
        assert len(polys) >= 20
        for poly in polys:
            expanded = poly.evaluate(J=iv.J, K=iv.K, L=iv.L)
            degree = poly.degree
            if not poly.terms:
                continue
            assert decompose_in_JKL(expanded, degree) == poly


class TestProp48:
    def test_rank_is_full(self):
        matrix, rank = prop48_rank()
        assert rank == 19
        assert len(matrix) == 19
        assert all(len(row) == 21 for row in matrix)

    def test_columns_are_products_in_order(self):
        matrix, _ = prop48_rank()
        basis = monomial_basis(48)
        squares = KEYPROP_TABLES[0] * KEYPROP_TABLES[0]
        for i, triple in enumerate(basis):
            assert matrix[i][0] == squares.terms.get(triple, Fraction(0))
        last = KEYPROP_TABLES[4] * KEYPROP_TABLES[5]
        for i, triple in enumerate(basis):
            assert matrix[i][20] == last.terms.get(triple, Fraction(0))


# the columns of prop48_rank: the six squares, then b_i b_j for i < j
PROP48_PAIRS = ([(i, i) for i in range(6)]
                + [(i, j) for i in range(6) for j in range(i + 1, 6)])


def test_prop48_kernel_is_spanned_by_the_two_quadratic_relations():
    # R1 and R2, the two quadratic relations among b0..b5, vanish on
    # every row; with rank 19 of 21 columns they span the kernel,
    # so a column moved or replaced either breaks a relation or drops the
    # rank
    r1 = {(0, 4): 531441, (0, 0): -143360, (1, 1): -34992, (0, 1): -148608,
          (0, 2): 128304, (1, 2): 78732}
    r2 = {(0, 5): 28697814, (0, 0): 2289664, (1, 1): 1236384,
          (2, 2): -531441, (0, 1): 3383424, (0, 2): 244944, (0, 3): 2755620,
          (0, 4): -2125764, (1, 3): 2125764}
    matrix, rank = prop48_rank()
    assert rank == 19
    for relation in (r1, r2):
        assert set(relation) <= set(PROP48_PAIRS)
        vector = [relation.get(pair, 0) for pair in PROP48_PAIRS]
        for row in matrix:
            assert sum(x * y for x, y in zip(row, vector)) == 0


@pytest.mark.parametrize("height", ["small", "int20", "rat64"])
def test_prop48_columns_evaluate_to_the_pipeline_products(height):
    # a second route to every column: at a numeric quintic, column (i, j)
    # dotted with the basis monomials at its J, K, L is the pipeline's
    # b_i b_j
    rng = random.Random(f"prop48-columns-{height}")
    form = BinaryForm([draw_coefficient(rng, height) or 1 for _ in range(6)])
    b = beauville_pipeline(form)[0].b
    iv = quintic_invariants(form)
    values = [iv.L ** a1 * iv.K ** a2 * iv.J ** a3
              for a1, a2, a3 in monomial_basis(48)]
    matrix, _ = prop48_rank()
    for col, (i, j) in enumerate(PROP48_PAIRS):
        assert sum(row[col] * v for row, v in zip(matrix, values)) \
            == b[i] * b[j]


class TestThm48Decompose:
    def test_pinned_examples(self):
        assert thm48_decompose((4, 0, 0)) == [(4, 0, 0)]
        assert thm48_decompose((1, 0, 21)) == [(1, 0, 9), (0, 0, 12)]
        assert thm48_decompose((5, 0, 33)) \
            == [(1, 0, 9), (4, 0, 0), (0, 0, 12), (0, 0, 12)]
        assert thm48_decompose((0, 0, 0)) == []
        assert thm48_decompose((8, 0, 0)) == [(4, 0, 0), (4, 0, 0)]
        assert thm48_decompose((0, 6, 0)) == [(0, 6, 0)]
        assert thm48_decompose((3, 5, 5)) == [(3, 0, 3), (0, 5, 2)]

    def test_errors(self):
        with pytest.raises(ValueError, match="not divisible by 48"):
            thm48_decompose((1, 0, 0))
        with pytest.raises(ValueError, match="nonnegative"):
            thm48_decompose((-4, 0, 0))

    def test_float_exponent_rejected(self):
        with pytest.raises(TypeError, match="not an int"):
            thm48_decompose((4.7, 0, 0))

    def test_round_trip_random(self):
        rng = random.Random(71)
        checked = 0
        while checked < 60:
            alpha = (rng.randrange(0, 14), rng.randrange(0, 14),
                     rng.randrange(0, 30))
            degree = 12 * alpha[0] + 8 * alpha[1] + 4 * alpha[2]
            if degree % 48:
                continue
            factors = thm48_decompose(alpha)
            for factor in factors:
                assert 12 * factor[0] + 8 * factor[1] + 4 * factor[2] == 48
            sums = tuple(sum(f[i] for f in factors) for i in range(3))
            assert sums == alpha or (degree == 0 and not factors)
            checked += 1


def twisted(coeffs, d):
    """F(x + r y, x - r y) for a palindromic quintic F and r^2 = d.  The
    coefficient of x^(5-k) y^k is r^k times an int sum, which vanishes for
    odd k, because r -> -r swaps the two arguments of F."""
    out = []
    for k in range(6):
        c = sum(a * comb(5 - i, j) * comb(i, k - j) * (-1) ** (k - j)
                for i, a in enumerate(coeffs) for j in range(k + 1))
        assert k % 2 == 0 or c == 0
        out.append(c * d ** (k // 2))
    return BinaryForm(out)


class TestEquivalence:
    def test_self_witness(self):
        form = BinaryForm([1, 0, 0, 0, 0, 1])
        witness = equivalence_witness(form, form)
        assert witness == {"equivalent": True, "pinned_by": "J",
                           "s_squared": "1", "s": "1"}

    def test_scaled_copy_with_rational_root(self):
        form = BinaryForm([1, 2, 0, -1, 3, 1])
        witness = equivalence_witness(form, 2 * form)
        # J scales by 2^4 = 16, so s^2 = 16 and s = 4
        assert witness["equivalent"]
        assert witness["s_squared"] == "16"
        assert witness["s"] == "4"

    def test_transformed_copy(self):
        rng = random.Random(73)
        for _ in range(5):
            form = random_stable_quintic(rng)
            b, c = rng.randrange(-3, 4), rng.randrange(-3, 4)
            g = GroupElement(1, b, c, 1 + b * c)  # determinant one
            other = Fraction(rng.randrange(1, 5)) * act(g, form)
            assert gl2_equivalent(form, other)
            assert gl2_equivalent(other, form)

    def test_witness_scales_every_invariant(self):
        # for F2 = lam * g.F, X2 = s^(d/2) X1 for J, K, L, H of degrees
        # 4, 8, 12, 18, and s = lam^2 / det(g)^5 when H1 != 0
        rng = random.Random(61)
        for trial in range(24):
            form = random_stable_quintic(rng)
            while True:
                a, b, c, d = (rng.randrange(-3, 4) for _ in range(4))
                det = a * d - b * c
                if det:
                    break
            if (det > 0) != (trial % 2 == 0):
                a, b, c, d = c, d, a, b
            g = GroupElement(a, b, c, d)
            lam = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                           rng.randrange(1, 4))
            other = lam * act(g, form)
            witness = equivalence_witness(form, other)
            v1, v2 = quintic_invariants(form), quintic_invariants(other)
            assert witness["equivalent"]
            if not v1.J:
                continue
            s = Fraction(witness["s"])
            for name, degree in (("J", 4), ("K", 8), ("L", 12), ("H", 18)):
                assert getattr(v2, name) == \
                    s ** (degree // 2) * getattr(v1, name)
            if v1.H:
                assert s == lam ** 2 / g.det ** 5

    def test_irrational_s_is_not_given(self):
        # the second forms are F(x + r y, x - r y) for r^2 = 2 and r^2 = -1
        # (see twisted): s^2 is positive and not a square, then negative
        form = BinaryForm([1, 3, -2, -2, 3, 1])
        for other, s_squared in (([4, 0, 80, 0, -48, 0], "32768"),
                                 ([4, 0, -40, 0, -12, 0], "-1024")):
            other = BinaryForm(other)
            assert equivalence_witness(form, other) == {
                "equivalent": True, "pinned_by": "J",
                "s_squared": s_squared}
            assert same_j_data(form, other)

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=40)
    @given(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
           st.integers(-20, 20).filter(
               lambda d: d < 0 or isqrt(d) ** 2 != d))
    @example([3, -5, -10], 2)      # J = 0: K pins s^4
    @example([3, -5, -10], -3)
    def test_twist_by_a_non_square_root(self, half, d):
        # the twist's determinant is -2r, so an invariant of degree k
        # scales by (-2r)^(5k/2): s^2 = 2^10 d^5, never a rational square
        form = BinaryForm(half + half[::-1])
        assume(quintic_invariants(form).Disc != 0)
        other = twisted(form.coeffs, d)
        witness = equivalence_witness(form, other)
        assert "s" not in witness
        key, value = {"J": ("s_squared", 2 ** 10 * d ** 5),
                      "K": ("s_fourth", 2 ** 20 * d ** 10)}[
            witness["pinned_by"]]
        assert witness == {"equivalent": True,
                           "pinned_by": witness["pinned_by"],
                           key: str(value)}
        assert gl2_equivalent(form, other) is same_j_data(form, other)

    def test_canonical_pair_fails_on_K(self):
        first = sylvester_specialize(SylvesterPoint(1, 1, 1))
        second = sylvester_specialize(SylvesterPoint(1, 2, 3))
        witness = equivalence_witness(first, second)
        assert witness == {"equivalent": False, "reason": "K-ratio mismatch"}

    def test_L_ratio_mismatch(self):
        # J pins s^2 in the first pair; J = 0 in both forms of the second,
        # so K pins s^4
        for first, second in (((1, -2, 0, -2, 1, 0), (1, -2, 0, -1, 2, 0)),
                              ((1, -2, -3, -2, 2, -2), (1, -2, 2, 1, 1, -1))):
            witness = equivalence_witness(BinaryForm(first),
                                          BinaryForm(second))
            assert witness == {"equivalent": False,
                               "reason": "L-ratio mismatch"}

    def test_J_vanishing_pattern(self):
        # (1, 1, 1/4) gives a stable quintic with J = 0, K != 0
        special = sylvester_specialize(SylvesterPoint(1, 1, Fraction(1, 4)))
        vector = quintic_invariants(special)
        assert vector.J == 0 and vector.K != 0 and vector.Disc != 0
        generic_point = BinaryForm([1, 0, 0, 0, 0, 1])
        witness = equivalence_witness(special, generic_point)
        assert witness == {"equivalent": False,
                           "reason": "J vanishing pattern differs"}

    def test_K_branch_scaling(self):
        special = sylvester_specialize(SylvesterPoint(1, 1, Fraction(1, 4)))
        witness = equivalence_witness(special, 2 * special)
        assert witness == {"equivalent": True, "pinned_by": "K",
                           "s_fourth": "256"}

    def test_unstable_rejected(self):
        stable = BinaryForm([1, 0, 0, 0, 0, 1])
        unstable = BinaryForm([1, 0, 0, 0, 0, 0])
        with pytest.raises(ValueError, match="unstable form"):
            equivalence_witness(stable, unstable)

    def test_symbolic_rejected(self):
        with pytest.raises(TypeError, match="numeric"):
            equivalence_witness(generic_form(5), BinaryForm([1, 0, 0, 0, 0, 1]))


@pytest.mark.parametrize("route, message", [
    (equivalence_witness, "unstable form"),
    (same_j_data, "repeated roots; j-data undefined"),
])
def test_refusals_name_the_quintic(route, message):
    good, bad = BinaryForm([1, 0, 0, 0, 0, 1]), BinaryForm([1, 0, 0, 0, 0, 0])
    for pair, which in (((bad, good), "first"), ((good, bad), "second"),
                        ((bad, bad), "first")):
        with pytest.raises(ValueError, match=f"^{which} quintic: {message}$"):
            route(*pair)


class TestSameJData:
    def test_reflexive_and_scaled(self):
        form = BinaryForm([1, 2, 0, -1, 3, 1])
        assert same_j_data(form, form)
        assert same_j_data(form, Fraction(7, 2) * form)

    def test_transformed_copy(self):
        form = BinaryForm([1, 2, 0, -1, 3, 1])
        g = GroupElement(2, 1, 1, 1)
        assert same_j_data(form, act(g, form))

    def test_distinct_forms_differ(self):
        first = sylvester_specialize(SylvesterPoint(1, 1, 1))
        second = sylvester_specialize(SylvesterPoint(1, 2, 3))
        assert not same_j_data(first, second)

    def test_repeated_roots_rejected(self):
        good = BinaryForm([1, 0, 0, 0, 0, 1])
        bad = BinaryForm([1, 0, 0, 0, 0, 0])
        with pytest.raises(ValueError, match="repeated roots"):
            same_j_data(good, bad)

    def test_agrees_with_equivalence(self):
        rng = random.Random(79)
        for _ in range(8):
            first = random_stable_quintic(rng)
            if rng.randrange(2):
                b, c = rng.randrange(-3, 4), rng.randrange(-3, 4)
                g = GroupElement(1, b, c, 1 + b * c)
                second = Fraction(rng.randrange(1, 4)) * act(g, first)
                if quintic_invariants(second).Disc == 0:
                    continue
            else:
                second = random_stable_quintic(rng)
            assert same_j_data(first, second) \
                == gl2_equivalent(first, second)


class TestBeauvilleVector:
    def test_equal_vectors_hash_equal(self):
        a0 = MPoly.variable("a0")
        first = BeauvilleVector([a0, Fraction(2, 4), 0, 0, 0, 1])
        second = BeauvilleVector([a0.in_universe(("a0", "a1")),
                                  Fraction(1, 2), Fraction(0),
                                  MPoly(("a1",), {}), 0, MPoly((), {(): 1})])
        assert first == second
        assert hash(first) == hash(second)

    def test_repr(self):
        x, y = MPoly.variable("x"), MPoly.variable("y")
        assert repr(BeauvilleVector([1, Fraction(1, 2), 0, -3, x, y ** 2])) \
            == ("BeauvilleVector([Fraction(1, 1), Fraction(1, 2),"
                " Fraction(0, 1), Fraction(-3, 1), MPoly('x'), MPoly('y^2')])")

    def test_wrong_arity(self):
        with pytest.raises(ValueError, match="six"):
            BeauvilleVector([1, 2, 3])

    def test_float_entry_rejected(self):
        with pytest.raises(TypeError, match="exact rational"):
            BeauvilleVector([0.1] * 6)


# every public route that takes a form, with the route its error names:
# the two-form routes are given the list on either side
QUINTIC = BinaryForm([1, 0, 0, 0, 0, 1])
COEFFS = [1, 0, 0, 0, 0, 1]
ROUTES_GIVEN_A_LIST = [
    (quartic_S, (COEFFS[:5],), "quartic_S"),
    (quartic_S_transvectant, (COEFFS[:5],), "quartic_S_transvectant"),
    (quartic_T, (COEFFS[:5],), "quartic_T"),
    (quartic_T_transvectant, (COEFFS[:5],), "quartic_T_transvectant"),
    (quartic_invariants, (COEFFS[:5],), "quartic_S"),
    (j_invariant, (COEFFS[:5],), "quartic_S"),
    (quintic_covariants, (COEFFS,), "quintic_covariants"),
    (canonizant, (COEFFS,), "canonizant"),
    (quintic_invariants, (COEFFS,), "quintic_invariants"),
    (beauville_pipeline, (COEFFS,), "beauville_pipeline"),
    (beauville_closed_form, (COEFFS,), "beauville_closed_form"),
    (equivalence_witness, (QUINTIC, COEFFS), "equivalence_witness"),
    (equivalence_witness, (COEFFS, QUINTIC), "equivalence_witness"),
    (gl2_equivalent, (COEFFS, QUINTIC), "equivalence_witness"),
    (same_j_data, (QUINTIC, COEFFS), "same_j_data"),
    (same_j_data, (COEFFS, QUINTIC), "same_j_data"),
    (discriminant, (COEFFS,), "discriminant"),
    (resultant, (QUINTIC, COEFFS), "resultant"),
    (resultant, (COEFFS, QUINTIC), "resultant"),
    (sylvester_matrix, (QUINTIC, COEFFS), "sylvester_matrix"),
    (sylvester_matrix, (COEFFS, QUINTIC), "sylvester_matrix"),
    (act, (GroupElement(1, 1, 0, 1), COEFFS), "act"),
    (transvectant, (QUINTIC, COEFFS, 2), "transvectant"),
    (transvectant, (COEFFS, QUINTIC, 2), "transvectant"),
]


@pytest.mark.parametrize(
    "route, args, name", ROUTES_GIVEN_A_LIST,
    ids=[f"{route.__name__}-{i}"
         for i, (route, _, _) in enumerate(ROUTES_GIVEN_A_LIST)])
def test_routes_reject_a_list_of_coefficients(route, args, name):
    with pytest.raises(TypeError,
                       match=f"^{name} needs a BinaryForm, got list$"):
        route(*args)
