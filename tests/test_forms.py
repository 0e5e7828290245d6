"""Binary forms: group action, transvectants, resultants, discriminants."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binform.forms import (
    BinaryForm,
    GroupElement,
    act,
    discriminant,
    form_from_roots,
    generic_form,
    resultant,
    sylvester_matrix,
    transvectant,
    weight_of,
)
from binform import forms
from binform.mpoly import MPoly, det_fraction_free


def random_group_element(rng, bound=5):
    while True:
        a, b, c, d = (rng.randrange(-bound, bound + 1) for _ in range(4))
        if a * d - b * c != 0:
            return GroupElement(a, b, c, d)


def random_det1(rng, factors=3, bound=5):
    g = GroupElement(1, 0, 0, 1)
    for i in range(factors):
        r = rng.randrange(-bound, bound + 1)
        shear = GroupElement(1, r, 0, 1) if i % 2 else GroupElement(1, 0, r, 1)
        g = g @ shear
    return g


def random_form(rng, order, bound=9):
    while True:
        coeffs = [rng.randrange(-bound, bound + 1) for _ in range(order + 1)]
        if any(coeffs):
            return BinaryForm(coeffs)


class TestGroupElement:
    def test_det_and_inverse(self):
        g = GroupElement(2, 3, 1, 2)
        assert g.det == 1
        assert g @ g.inverse() == GroupElement(1, 0, 0, 1)
        h = GroupElement(1, 0, 0, Fraction(1, 3))
        assert h.det == Fraction(1, 3)
        assert h.inverse() @ h == GroupElement(1, 0, 0, 1)

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            GroupElement(1, 2, 2, 4)

    def test_float_entry_rejected(self):
        with pytest.raises(TypeError, match="exact rational"):
            GroupElement(0.1, 0, 0, 1)

    @pytest.mark.parametrize("entry", ["1", True])
    def test_text_and_bool_entries_rejected(self, entry):
        with pytest.raises(TypeError, match="exact rational"):
            GroupElement(entry, 0, 0, 1)

    def test_repr(self):
        assert repr(GroupElement(1, Fraction(1, 2), -3, 2)) \
            == "GroupElement(1, 1/2, -3, 2)"

    @pytest.mark.parametrize("other", [3, Fraction(1, 2), [[1, 0], [0, 1]]],
                             ids=["int", "fraction", "list"])
    def test_product_needs_a_group_element(self, other):
        g = GroupElement(1, 0, 0, 1)
        with pytest.raises(TypeError, match="^unsupported operand type"):
            g @ other
        with pytest.raises(TypeError, match="^unsupported operand type"):
            other @ g

    def test_composition_is_matrix_product(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_group_element(rng)
            h = random_group_element(rng)
            gh = g @ h
            assert gh.a == g.a * h.a + g.b * h.c
            assert gh.d == g.c * h.b + g.d * h.d


class TestWeights:
    def test_quintic_invariant_weights(self):
        # invariants (order 0) of the quintic: degree d has weight 5d/2
        assert weight_of(4, 5, 0) == 10
        assert weight_of(8, 5, 0) == 20
        assert weight_of(12, 5, 0) == 30
        assert weight_of(18, 5, 0) == 45
        assert weight_of(24, 5, 0) == 60

    def test_covariant_weights(self):
        # the quintic's quadratic covariant (F,F)_4: degree 2, order 2
        assert weight_of(2, 5, 2) == 4

    def test_parity_violation_rejected(self):
        with pytest.raises(ValueError):
            weight_of(1, 5, 2)


QUINTIC = BinaryForm([1, 2, 0, -1, 3, 1])


@pytest.mark.parametrize("value", [True, 2.0, "2"],
                         ids=["bool", "float", "str"])
@pytest.mark.parametrize("name,call", [
    ("transvectant index", lambda n: transvectant(QUINTIC, QUINTIC, n)),
    ("order", generic_form),
    ("degree", lambda n: weight_of(n, 5, 0)),
    ("source_order", lambda n: weight_of(2, n, 0)),
    ("order", lambda n: weight_of(2, 5, n)),
], ids=["transvectant-k", "generic_form-order", "weight_of-degree",
        "weight_of-source_order", "weight_of-order"])
def test_integer_arguments_refuse_other_numbers(name, call, value):
    # True once read as 1 and 2.0 gave float weights
    with pytest.raises(TypeError, match=f"^{name} {value!r} is not an int$"):
        call(value)


class TestBinaryForm:
    def test_order_and_zero(self):
        f = BinaryForm([1, 0, 0])
        assert f.order == 2
        assert not f.is_zero()
        assert BinaryForm([0, 0]).is_zero()
        with pytest.raises(ValueError):
            BinaryForm([])

    def test_repr(self):
        x = MPoly.variable("x")
        assert repr(BinaryForm([1, Fraction(-1, 2), 0, x ** 2 - 3, 3])) \
            == "BinaryForm([1, -1/2, 0, x^2 - 3, 3])"

    @pytest.mark.parametrize("lead", ["1/2", "1e4000000", True, 0.5])
    def test_non_rational_coefficient_rejected(self, lead):
        # text is parsed only by the command line, which bounds its size
        with pytest.raises(TypeError, match="exact rational"):
            BinaryForm([lead, 0, 0, 0, 0, 1])

    def test_partials_match_mpoly_diff(self):
        rng = random.Random(7)
        for _ in range(10):
            f = random_form(rng, rng.randrange(1, 6))
            assert f.diff_x1().to_mpoly() == f.to_mpoly().diff("x1")
            assert f.diff_x2().to_mpoly() == f.to_mpoly().diff("x2")

    def test_product_matches_mpoly_product(self):
        rng = random.Random(9)
        for _ in range(10):
            f = random_form(rng, rng.randrange(1, 4))
            g = random_form(rng, rng.randrange(1, 4))
            assert (f * g).to_mpoly() == f.to_mpoly() * g.to_mpoly()

    def test_evaluate(self):
        f = BinaryForm([1, 0, 0, 0, 0, 1])  # x1^5 + x2^5
        assert f.evaluate(2, 1) == 33
        assert isinstance(f.evaluate(2, 1), Fraction)
        with pytest.raises(TypeError, match="exact rational"):
            f.evaluate(0.1, 1)

    def test_generic_form(self):
        f = generic_form(3, prefix="c")
        assert f.order == 3
        assert [c.variables for c in f.coeffs] \
            == [("c0",), ("c1",), ("c2",), ("c3",)]

    def test_generic_form_of_negative_order_rejected(self):
        with pytest.raises(ValueError, match="^order must be nonnegative$"):
            generic_form(-1)

    def test_sum_and_difference_need_one_order(self):
        f, g = BinaryForm([1, 2, 3]), BinaryForm([1, 2])
        with pytest.raises(ValueError,
                           match="^cannot add forms of different orders$"):
            f + g
        with pytest.raises(
                ValueError,
                match="^cannot subtract forms of different orders$"):
            f - g

    @pytest.mark.parametrize("other", [[1, 2], 3], ids=["list", "int"])
    def test_sum_and_difference_need_a_form(self, other):
        f = BinaryForm([1, 2])
        with pytest.raises(TypeError, match="^unsupported operand type"):
            f + other
        with pytest.raises(TypeError, match="^unsupported operand type"):
            f - other

    @pytest.mark.parametrize("name", ["x1", "x2"])
    def test_to_mpoly_refuses_coefficients_in_x1_or_x2(self, name):
        # generic_form(2, "x") has coefficients x0, x1, x2: without the
        # check its polynomial printed as x0*x1^2 + x1^2*x2 + x2^3
        x = MPoly.variable(name)
        with pytest.raises(ValueError, match=f"^to_mpoly: a coefficient"
                                             f" uses '{name}'"):
            BinaryForm([1, 2 * x + 1, 3]).to_mpoly()
        with pytest.raises(ValueError, match="uses 'x1'"):
            generic_form(2, "x").to_mpoly()
        # a universe naming x1 or x2 with no term using it is accepted
        a = MPoly.variable("a")
        assert BinaryForm([a + x - x, 1]).to_mpoly() \
            == BinaryForm([a, 1]).to_mpoly()

    def test_partials_of_a_constant_are_zero(self):
        for partial in (BinaryForm([7]).diff_x1(), BinaryForm([7]).diff_x2()):
            assert partial.order == 0
            assert partial.is_zero()


class TestAction:
    def test_matches_substitution(self):
        rng = random.Random(11)
        x1, x2 = MPoly.variable("x1"), MPoly.variable("x2")
        for _ in range(15):
            f = random_form(rng, rng.randrange(1, 6))
            g = random_group_element(rng)
            inv = g.inverse()
            expected = f.to_mpoly().substitute({
                "x1": inv.a * x1 + inv.b * x2,
                "x2": inv.c * x1 + inv.d * x2,
            })
            assert act(g, f).to_mpoly() == expected

    def test_identity_and_composition(self):
        rng = random.Random(13)
        for _ in range(10):
            f = random_form(rng, 4)
            g = random_group_element(rng)
            h = random_group_element(rng)
            assert act(GroupElement(1, 0, 0, 1), f) == f
            assert act(g @ h, f) == act(g, act(h, f))

    @pytest.mark.parametrize("g", [[[1, 0], [0, 1]], None, (1, 0, 0, 1)],
                             ids=["nested-list", "none", "tuple"])
    def test_needs_a_group_element(self, g):
        with pytest.raises(TypeError,
                           match=f"^act needs a GroupElement, got"
                                 f" {type(g).__name__}$"):
            act(g, BinaryForm([1, 2, 3]))

    def test_scaling_matrix(self):
        # g = diag(1, 1/2): x2 -> 2 x2 in the argument, so a_i -> 2^i a_i
        f = BinaryForm([1, 1, 1, 1])
        g = GroupElement(1, 0, 0, Fraction(1, 2))
        assert list(act(g, f).coeffs) == [1, 2, 4, 8]


def act_by_products(g, form):
    """The substitution action as sums of BinaryForm products: a second
    route to ``act``, on Fraction and MPoly arithmetic."""
    h = g.inverse()
    p = form.order
    x1, x2 = BinaryForm([h.a, h.b]), BinaryForm([h.c, h.d])
    total = BinaryForm([0] * (p + 1))
    for i, c in enumerate(form.coeffs):
        image = BinaryForm([1])
        for linear in [x1] * (p - i) + [x2] * i:
            image = image * linear
        total = total + image * c
    return total


# act clears g^-1 and the form to ints, so the heights are those of the
# numeric benchmark: small ints, 20-bit ints, 64-bit over 16-bit rationals
HEIGHTS = {
    "small": st.integers(-8, 8),
    "int20": st.integers(-(1 << 20), 1 << 20),
    "rat64": st.builds(Fraction, st.integers(-(1 << 63), 1 << 63),
                       st.integers(1, 1 << 16)),
}
ACT_PROFILE = settings(derandomize=True, database=None, deadline=None,
                       max_examples=40)
points = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


def group_elements(numbers, unimodular=True):
    """Invertible g over the numbers; det g = +-1 only if unimodular."""
    bad = {0} if unimodular else {0, 1, -1}
    return st.tuples(numbers, numbers, numbers, numbers).filter(
        lambda e: e[0] * e[3] - e[1] * e[2] not in bad).map(
        lambda e: GroupElement(*e))


def binary_forms(numbers):
    return st.lists(numbers, min_size=1, max_size=7).map(BinaryForm)


@pytest.mark.parametrize("height", HEIGHTS)
class TestActOnInts:
    @ACT_PROFILE
    @given(data=st.data())
    def test_is_the_substitution_at_points(self, height, data):
        numbers = HEIGHTS[height]
        g = data.draw(group_elements(numbers))
        f = data.draw(binary_forms(numbers))
        x1, x2 = data.draw(points), data.draw(points)
        h = g.inverse()
        assert act(g, f).evaluate(x1, x2) == f.evaluate(h.a * x1 + h.b * x2,
                                                        h.c * x1 + h.d * x2)

    @ACT_PROFILE
    @given(data=st.data())
    def test_composes(self, height, data):
        numbers = HEIGHTS[height]
        g, k = (data.draw(group_elements(numbers)) for _ in range(2))
        f = data.draw(binary_forms(numbers))
        assert act(g, act(k, f)) == act(g @ k, f)

    @ACT_PROFILE
    @given(data=st.data())
    def test_generic_quintic_equals_the_product_route(self, height, data):
        g = data.draw(group_elements(HEIGHTS[height], unimodular=False))
        f = generic_form(5)
        got, expected = act(g, f), act_by_products(g, f)
        assert got == expected
        assert str(got) == str(expected)


class TestTransvectant:
    def test_zeroth_is_product(self):
        rng = random.Random(17)
        for _ in range(5):
            f = random_form(rng, 3)
            g = random_form(rng, 2)
            assert transvectant(f, g, 0) == f * g

    def test_symmetry_sign(self):
        rng = random.Random(19)
        for _ in range(10):
            p = rng.randrange(1, 5)
            q = rng.randrange(1, 5)
            f = random_form(rng, p)
            g = random_form(rng, q)
            for k in range(min(p, q) + 1):
                lhs = transvectant(f, g, k)
                rhs = transvectant(g, f, k)
                assert lhs == (rhs if k % 2 == 0 else -rhs)

    def test_normalization_pinned(self):
        # ((x1^2 + x2^2), (x1^2 + x2^2))_2 = 2 with the factorial prefactor
        f = BinaryForm([1, 0, 1])
        t = transvectant(f, f, 2)
        assert t.order == 0
        assert t.coeffs[0] == 2

    def test_order_bookkeeping(self):
        f = generic_form(5)
        t = transvectant(f, f, 4)
        assert t.order == 2

    def test_index_out_of_range(self):
        f = BinaryForm([1, 0, 1])
        with pytest.raises(ValueError, match="out of range"):
            transvectant(f, f, 3)

    def test_matches_the_definition(self):
        # (f, g)_k = (p-k)!(q-k)!/(p!q!) * sum_j (-1)^j C(k,j)
        #            d^k f/dx1^(k-j)dx2^j * d^k g/dx1^j dx2^(k-j),
        # with the partials taken on the expanded polynomials
        def partial(poly, n1, n2):
            for var, n in (("x1", n1), ("x2", n2)):
                for _ in range(n):
                    poly = poly.diff(var)
            return poly

        for p in range(1, 6):
            for q in range(1, 6):
                f, g = generic_form(p, "a"), generic_form(q, "b")
                fx, gx = f.to_mpoly(), g.to_mpoly()
                for k in range(min(p, q) + 1):
                    pref = Fraction(factorial(p - k) * factorial(q - k),
                                    factorial(p) * factorial(q))
                    total = MPoly((), {})
                    for j in range(k + 1):
                        total = total + (partial(fx, k - j, j)
                                         * partial(gx, j, k - j)
                                         * ((-1) ** j * comb(k, j)))
                    got = transvectant(f, g, k)
                    assert got.order == p + q - 2 * k
                    assert got.to_mpoly() == total * pref

    def test_int_weights_over_den_are_the_docstring_weights(self):
        # den * (f, g)_k = sum a_i b_l w: each int w over den is the weight
        # of the docstring, and every nonzero weight is listed once
        def falling(n, m):
            return factorial(n) // factorial(n - m) if m <= n else 0

        for p in range(7):
            for q in range(7):
                for k in range(min(p, q) + 1):
                    pref = Fraction(factorial(p - k) * factorial(q - k),
                                    factorial(p) * factorial(q))
                    expected = {}
                    for i in range(p + 1):
                        for l in range(q + 1):
                            w = pref * sum(
                                (-1) ** j * comb(k, j) * falling(p - i, k - j)
                                * falling(i, j) * falling(q - l, j)
                                * falling(l, k - j) for j in range(k + 1))
                            if w:
                                expected[i, l] = w
                    weights, den = forms._transvectant_weights(p, q, k)
                    assert type(den) is int and den > 0
                    assert all(type(w) is int for _, _, w in weights)
                    assert len(weights) == len(expected)
                    assert {(i, l): Fraction(w, den)
                            for i, l, w in weights} == expected

    def test_int_forms_give_fraction_coefficients(self):
        # the one division by den is exact: a Fraction, never a float,
        # also where den does not divide the sum
        rng = random.Random(29)
        proper = 0
        for p in range(1, 7):
            for q in range(1, 7):
                f = BinaryForm([rng.randint(-9, 9) for _ in range(p + 1)])
                g = BinaryForm([rng.randint(-9, 9) for _ in range(q + 1)])
                for k in range(min(p, q) + 1):
                    coeffs = transvectant(f, g, k).coeffs
                    assert all(type(c) is Fraction for c in coeffs)
                    proper += sum(c.denominator > 1 for c in coeffs)
        assert proper

    def test_covariance_under_the_action(self):
        # (gF, gG)_k = det(g)^(-k) * g (F, G)_k
        rng = random.Random(23)
        for _ in range(8):
            f = random_form(rng, 3)
            h = random_form(rng, 2)
            g = random_group_element(rng)
            for k in range(3):
                lhs = transvectant(act(g, f), act(g, h), k)
                rhs = act(g, transvectant(f, h, k)) * (g.det ** -k)
                assert lhs == rhs


class TestResultant:
    def test_sylvester_shape_and_layout(self):
        f = BinaryForm([1, 2, 3])   # p = 2
        g = BinaryForm([4, 5, 6, 7])  # q = 3
        m = sylvester_matrix(f, g)
        assert (len(m), [len(row) for row in m]) == (5, [5] * 5)
        # q rows of f's coefficients first
        assert m[0] == [1, 2, 3, 0, 0]
        assert m[3][0] == 4
        with pytest.raises(ValueError, match="positive order"):
            sylvester_matrix(BinaryForm([3]), g)

    @pytest.mark.parametrize("f, g", [(BinaryForm([3]), BinaryForm([1, 2])),
                                      (BinaryForm([1, 2]), BinaryForm([3]))],
                             ids=["first-constant", "second-constant"])
    def test_constant_form_rejected(self, f, g):
        with pytest.raises(
                ValueError,
                match="^resultant needs two forms of positive order$"):
            resultant(f, g)

    def test_linear_case(self):
        xi, eta = Fraction(3), Fraction(-2)
        f = form_from_roots([(xi, 1)])
        g = form_from_roots([(eta, 1)])
        assert resultant(f, g).constant_value() == xi - eta

    def test_root_product_formula(self):
        rng = random.Random(29)
        for _ in range(8):
            xs = [Fraction(rng.randrange(-6, 7)) for _ in range(rng.randrange(1, 4))]
            ys = [Fraction(rng.randrange(-6, 7)) for _ in range(rng.randrange(1, 4))]
            f = form_from_roots([(x, 1) for x in xs])
            g = form_from_roots([(y, 1) for y in ys])
            expected = Fraction(1)
            for x in xs:
                for y in ys:
                    expected *= x - y
            assert resultant(f, g).constant_value() == expected

    def test_multiplicativity(self):
        rng = random.Random(31)
        for _ in range(6):
            f = random_form(rng, 2)
            g = random_form(rng, 2)
            h = random_form(rng, 3)
            lhs = resultant(f * g, h)
            rhs = resultant(f, h) * resultant(g, h)
            assert lhs == rhs

    def test_vanishes_iff_common_root(self):
        f = form_from_roots([(1, 1), (2, 1)])
        g = form_from_roots([(2, 1), (5, 1)])
        h = form_from_roots([(3, 1), (5, 1)])
        assert not resultant(f, g)
        assert resultant(f, h)

    def test_symbolic_resultant(self):
        # Res(x1^2 - t x2^2, x1 x2) vanishes exactly at t = 0; the root of
        # the second form at infinity flips the affine product's sign
        t = MPoly.variable("t")
        f = BinaryForm([1, 0, -t])
        g = BinaryForm([0, 1, 0])
        assert resultant(f, g) == -t

    @pytest.mark.parametrize("swap", [False, True], ids=["p>q", "p<q"])
    def test_bezout_matrix_is_built_without_mpoly_arithmetic(
            self, monkeypatch, swap):
        # the pipeline's shape: a monic quintic with rational coefficients
        # against a quartic whose coefficients are rational polynomials in z
        # (tests/test_differential.py checks its value).  The matrix is
        # built on int term dicts, and the one determinant call goes
        # through the module-bound name that tracers wrap
        z = MPoly.variable("z")
        f = BinaryForm([1, Fraction(1, 2), -3, Fraction(5, 7), 0, 11])
        g = BinaryForm([z / 3 + 1, 2 * z, Fraction(-4, 9), z - Fraction(1, 5),
                        z / 6])
        if swap:
            f, g = g, f
        calls = {"__mul__": 0, "__add__": 0, "det": 0}

        def spy(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        for attr in ("__mul__", "__rmul__", "__add__", "__radd__"):
            name = "__mul__" if "mul" in attr else "__add__"
            monkeypatch.setattr(MPoly, attr, spy(name, getattr(MPoly, attr)))
        monkeypatch.setattr(forms, "det_fraction_free",
                            spy("det", forms.det_fraction_free))
        resultant(f, g)
        assert calls == {"__mul__": 0, "__add__": 0, "det": 1}


class TestResultantAgainstSylvester:
    # resultant takes the max(p, q)-square hybrid Bezout determinant; the
    # Sylvester determinant is the independent second route (numeric forms
    # are drawn in tests/test_differential.py)

    @pytest.mark.parametrize("p", range(1, 7))
    def test_generic_forms(self, p):
        for q in range(1, 7):
            f, g = generic_form(p, "a"), generic_form(q, "b")
            assert resultant(f, g) == det_fraction_free(sylvester_matrix(f, g))

    @pytest.mark.parametrize("zeros", [((0,), ()), ((), (0,)), ((-1,), ()),
                                       ((), (-1,)), ((0,), (0,)),
                                       ((0, -1), (-1,))])
    def test_zero_leading_and_trailing_coefficients(self, zeros):
        for p in range(1, 7):
            for q in range(1, 7):
                f, g = generic_form(p, "a"), generic_form(q, "b")
                fc, gc = list(f.coeffs), list(g.coeffs)
                for i in zeros[0]:
                    fc[i] = 0
                for i in zeros[1]:
                    gc[i] = 0
                f, g = BinaryForm(fc), BinaryForm(gc)
                assert resultant(f, g) == det_fraction_free(
                    sylvester_matrix(f, g))

    def test_determinant_is_max_order_square(self, monkeypatch):
        sizes = []

        def det(rows):
            sizes.append((len(rows), {len(row) for row in rows}))
            return det_fraction_free(rows)

        monkeypatch.setattr(forms, "det_fraction_free", det)
        for p, q in ((5, 4), (4, 5), (3, 3), (6, 1), (1, 6)):
            resultant(generic_form(p, "a"), generic_form(q, "b"))
        assert sizes == [(5, {5}), (5, {5}), (3, {3}), (6, {6}), (6, {6})]

    def test_every_result_that_fits_is_made(self):
        # each Bezout product and the result fit, though the degrees of
        # the two forms' coefficients add up past the limit; the product
        # of the two high coefficients does not fit, and is refused
        x, y = MPoly.variable("x"), MPoly.variable("y")
        f, g = BinaryForm([1, x ** 40000]), BinaryForm([1, y ** 30000])
        assert resultant(f, g) == y ** 30000 - x ** 40000 \
            == det_fraction_free(sylvester_matrix(f, g))
        with pytest.raises(OverflowError, match="^total degree 70000 "):
            resultant(BinaryForm([x ** 40000, 1]), BinaryForm([1, x ** 30000]))


class TestDiscriminant:
    def test_squared_root_differences(self):
        rng = random.Random(37)
        for _ in range(8):
            n = rng.randrange(2, 6)
            xs = [Fraction(rng.randrange(-6, 7)) for _ in range(n)]
            f = form_from_roots([(x, 1) for x in xs])
            expected = Fraction(1)
            for i in range(n):
                for j in range(i + 1, n):
                    expected *= (xs[i] - xs[j]) ** 2
            assert discriminant(f).constant_value() == expected

    def test_repeated_root_vanishes(self):
        f = form_from_roots([(2, 1), (2, 1), (3, 1)])
        assert not discriminant(f)

    def test_scaling_degree(self):
        rng = random.Random(41)
        for p in (2, 3, 4, 5):
            f = random_form(rng, p)
            c = Fraction(3, 2)
            assert discriminant(c * f) == discriminant(f) * c ** (2 * p - 2)

    def test_fifth_power_sum_value(self):
        f = BinaryForm([1, 0, 0, 0, 0, 1])
        assert discriminant(f).constant_value() == 3125

    def test_low_order_rejected(self):
        with pytest.raises(ValueError, match="order >= 2"):
            discriminant(BinaryForm([1, 2]))
