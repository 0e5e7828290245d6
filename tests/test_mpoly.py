"""Exact sparse polynomial arithmetic: ring axioms, calculus, text format,
Euclidean division, fraction-free determinants, and the canonical stored
form (int terms over one denominator)."""

import random
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binform import mpoly
from binform.mpoly import (
    MPoly,
    _monomials,
    _rehomogenize,
    det_fraction_free,
    format_poly,
    monic_divrem,
)

X = MPoly.variable("x")
Y = MPoly.variable("y")
Z = MPoly.variable("z")


def random_poly(rng, variables=("x", "y", "z"), max_terms=6, max_exp=4,
                rational=False):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        key = tuple(rng.randrange(max_exp + 1) for _ in variables)
        c = rng.randrange(-9, 10)
        if rational:
            c = Fraction(c, rng.randrange(1, 7))
        terms[key] = terms.get(key, 0) + c
    return MPoly(variables, terms)


class TestConstruction:
    def test_zero_and_constant(self):
        assert not MPoly((), {})
        assert MPoly((), {(): 7}).constant_value() == 7
        half = MPoly((), {(): Fraction(3, 6)})
        assert half.constant_value() == Fraction(1, 2)
        assert len(MPoly((), {(): 0})) == 0

    @pytest.mark.parametrize("value", ["1", "1/2", True, False, 0.5])
    def test_only_ints_and_fractions_are_numbers(self, value):
        with pytest.raises(TypeError, match="exact rational"):
            MPoly((), {(): value})
        with pytest.raises(TypeError, match="exact rational"):
            MPoly(("x",), {(1,): value})
        with pytest.raises(TypeError, match="exact rational"):
            X / value
        with pytest.raises(TypeError, match="exact rational"):
            det_fraction_free([[1, value], [X, 3]])

    # 65537 packs x in the library's own key format, which the constructor
    # does not read
    @pytest.mark.parametrize("key", [65537, "k", True, 1.0])
    def test_keys_must_be_exponent_vectors(self, key):
        message = re.escape(f"term key {key!r} is not an exponent vector")
        with pytest.raises(TypeError, match=f"^{message}$"):
            MPoly(("x",), {key: 1})

    @settings(derandomize=True, database=None, deadline=None)
    @given(st.permutations(("x", "y", "z")),
           st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3),
                           st.integers(-9, 9), max_size=5))
    @example(["y", "x", "z"], {(2, 0, 0): 1, (0, 1, 0): 3})
    def test_vectors_follow_the_given_names(self, names, terms):
        # terms maps exponents of x, y, z; the vectors are permuted with
        # the names, and the expected value is built by ring operations
        permuted = {tuple(exps["xyz".index(v)] for v in names): c
                    for exps, c in terms.items()}
        expected = sum((c * X ** a * Y ** b * Z ** e
                        for (a, b, e), c in terms.items()), MPoly((), {}))
        p = MPoly(names, permuted)
        assert p == expected
        assert p.variables == ("x", "y", "z")

    def test_variable(self):
        assert X.variables == ("x",)
        assert X.total_degree() == 1
        assert X.evaluate({"x": 5}) == 5

    def test_from_terms_drops_zeros_and_merges(self):
        p = MPoly(("x",), {(1,): 2, (2,): 0})
        assert len(p) == 1
        q = MPoly(("x",), {(1,): Fraction(1, 2)})
        assert (q + q).coefficient("x", 1).constant_value() == 1

    def test_constant_value_rejects_nonconstant(self):
        with pytest.raises(ValueError, match="not constant"):
            (X + 1).constant_value()

    def test_integral_coefficients_stay_integral(self):
        p = (X * Fraction(1, 3)) * 3
        for _, c in p.terms():
            assert isinstance(c, int)

    @pytest.mark.parametrize("universe", [("x", "x"), ("y", "x", "y")],
                             ids=["duplicated", "duplicated-unsorted"])
    def test_universe_must_be_sorted_and_duplicate_free(self, universe):
        with pytest.raises(ValueError, match="^variable universe must be"
                           " duplicate-free$"):
            MPoly(universe, {})

    def test_variable_name_must_be_an_identifier(self):
        with pytest.raises(ValueError, match=r"^bad variable name: '1x'$"):
            MPoly.variable("1x")

    @pytest.mark.parametrize("name", ["", "1x", "x*y", "a b", "x'"])
    def test_every_constructor_has_the_one_name_rule(self, name):
        # a name that is not an identifier could print as something else:
        # "" as the constant 1, "x*y" as a product
        message = f"^bad variable name: {re.escape(repr(name))}$"
        for build in (lambda: MPoly((name,), {(1,): 1}),
                      lambda: MPoly.variable(name),
                      lambda: MPoly((name,), {}),
                      lambda: MPoly(("x", name), {(0, 0): 3}),
                      lambda: X.in_universe(("x", name))):
            with pytest.raises(ValueError, match=message):
                build()

    @pytest.mark.parametrize("name", [1, None, b"x", ("x",)])
    def test_a_name_that_is_not_a_str_is_a_type_error(self, name):
        message = f"^variable name {re.escape(repr(name))} is not a str$"
        for build in (lambda: MPoly(("x", name), {}),
                      lambda: MPoly.variable(name),
                      lambda: X.in_universe(("x", name))):
            with pytest.raises(TypeError, match=message):
                build()

    @pytest.mark.parametrize("build, text", [
        (lambda: MPoly("lam", {(1, 0, 0): 1}), "lam"),
        (lambda: MPoly("lam", {}), "lam"),
        (lambda: X.in_universe("xyz"), "xyz"),
        (lambda: MPoly("xy", {(0, 0): 1}), "xy"),
    ], ids=["constructor", "zero", "in_universe", "constant"])
    def test_a_str_universe_is_a_type_error(self, build, text):
        # a str would be read as the sequence of its letters: "lam" as the
        # universe a, l, m
        message = f"^universe '{text}' is a str, not a sequence$"
        with pytest.raises(TypeError, match=message):
            build()

    def test_generators_and_sets_are_universes(self):
        assert MPoly((v for v in ("y", "x")), {}).variables == ("x", "y")
        assert MPoly({"x", "y"}, {}).variables == ("x", "y")
        assert MPoly((v for v in ("x",)), {(0,): 3}) == 3
        assert X.in_universe({"x", "y"}).variables == ("x", "y")

    @pytest.mark.parametrize("e", [True, False, 1.0, Fraction(1), "1"])
    def test_exponents_are_ints(self, e):
        message = f"^exponent {re.escape(repr(e))} is not an int$"
        with pytest.raises(TypeError, match=message):
            X ** e
        with pytest.raises(TypeError, match=message):
            MPoly(("x",), {(e,): 1})
        with pytest.raises(TypeError, match=message):
            MPoly(("x", "y"), {(1, e): 1})

    def test_negative_power_is_a_value_error(self):
        with pytest.raises(ValueError,
                           match="^exponent must be a nonnegative integer$"):
            X ** -1

    def test_from_terms_rejects_bad_exponent_vectors(self):
        with pytest.raises(ValueError,
                           match="^exponent vector length mismatch$"):
            MPoly(("x", "y"), {(1,): 1})
        with pytest.raises(ValueError, match="^negative exponent$"):
            MPoly(("x", "y"), {(1, -1): 1})

    def test_in_universe_needs_every_variable(self):
        with pytest.raises(ValueError,
                           match="^universe does not contain all variables$"):
            (X * Y).in_universe(("x", "z"))

    def test_no_division_by_a_polynomial(self):
        with pytest.raises(TypeError,
                           match="^use monic_divrem for polynomial division$"):
            X / Y


class TestRingAxioms:
    def test_random_identities(self):
        rng = random.Random(11)
        for _ in range(40):
            f = random_poly(rng)
            g = random_poly(rng, rational=True)
            h = random_poly(rng, variables=("x", "y"))
            assert (f + g) * h == f * h + g * h
            assert f * g == g * f
            assert (f - g) + g == f
            assert f + 0 == f and 1 * f == f
            assert -(-f) == f

    def test_scalar_mixing(self):
        assert 2 + X == X + 2
        assert 2 - X == -(X - 2)
        assert X * Fraction(1, 2) * 2 == X
        assert (X / 2) * 2 == X
        with pytest.raises(ZeroDivisionError):
            X / 0

    def test_pow_matches_repeated_multiplication(self):
        rng = random.Random(13)
        for _ in range(10):
            f = random_poly(rng, variables=("x", "y"), max_terms=4, max_exp=3)
            product = MPoly((), {(): 1})
            for k in range(5):
                assert f ** k == product
                product = product * f
        with pytest.raises(ValueError):
            X ** -1

    def test_huge_powers_of_degree_zero(self):
        # a degree-0 power passes the degree check at any exponent, so
        # making it must not recurse once per halving
        assert MPoly((), {(): 1}) ** 2 ** 1000 == 1
        assert MPoly(("x",), {}) ** (2 ** 1000 + 1) == 0
        assert MPoly((), {(): -1}) ** (2 ** 1000 + 1) == -1

    def test_disjoint_variable_alignment(self):
        p = X + 1
        q = Y + 1
        assert (p * q).variables == ("x", "y")
        assert (p * q).evaluate({"x": 2, "y": 3}) == 12


class TestPowerRoutine:
    # mpoly._monomials makes each power of a base once, when first asked
    # for: times the base when the power below it is made, else from its
    # two halves

    @staticmethod
    def counting(mul):
        made = []

        def counted(f, g):
            made.append(mul(f, g))
            return made[-1]

        return counted, made

    def test_a_lone_exponent_takes_about_log2_products(self):
        mul, made = self.counting(lambda f, g: f * g)
        assert _monomials([(1024,)], [3], 1, mul) == [3 ** 1024]
        assert len(made) <= 11      # a list of every power takes 1023

    @pytest.mark.parametrize("order", [range(25), range(24, -1, -1)],
                             ids=["increasing", "decreasing"])
    def test_each_dense_exponent_costs_one_product(self, order):
        mul, made = self.counting(lambda f, g: f * g)
        exponents = [(e,) for e in order]
        assert _monomials(exponents, [3], 1, mul) == [3 ** e for e in order]
        assert len(made) == 23      # one for each of the powers 2 .. 24

    def test_how_each_power_is_made(self):
        # with a str base and a product that writes its operands, each
        # result shows how it was made: the power below it times the base,
        # and a lone power from its halves
        def mul(f, g):
            return f"({f}*{g})"

        assert _monomials([(1,), (2,), (3,), (4,)], ["x"], "1", mul) == [
            "x", "(x*x)", "((x*x)*x)", "(((x*x)*x)*x)"]
        assert _monomials([(4,)], ["x"], "1", mul) == ["((x*x)*(x*x))"]

    def test_no_power_is_made_twice(self):
        # with the base 1, the unit 0 and + as the product, each product is
        # the exponent of the power it makes, so a power made twice repeats
        rng = random.Random(31)
        for _ in range(50):
            exponents = [(rng.randrange(300),)
                         for _ in range(rng.randrange(1, 12))]
            mul, made = self.counting(lambda f, g: f + g)
            assert _monomials(exponents, [1], 0, mul) == [
                e for e, in exponents]
            assert len(made) == len(set(made))
            assert {e for e, in exponents if e > 1} <= set(made)


class TestCalculusAndSubstitution:
    def test_diff_product_rule(self):
        rng = random.Random(17)
        for _ in range(15):
            f = random_poly(rng)
            g = random_poly(rng)
            lhs = (f * g).diff("x")
            rhs = f.diff("x") * g + f * g.diff("x")
            assert lhs == rhs

    def test_diff_unknown_variable_rejected(self):
        with pytest.raises(ValueError, match="unknown variable"):
            (X ** 2).diff("t")

    def test_evaluate_needs_every_value(self):
        with pytest.raises(ValueError,
                           match=r"^missing values for \['y'\]$"):
            (X + Y).evaluate({"x": 1})

    def test_substitute_commutes_with_evaluate(self):
        rng = random.Random(19)
        for _ in range(15):
            f = random_poly(rng)
            g = random_poly(rng, variables=("u", "v"), max_terms=3, max_exp=2)
            point = {"u": Fraction(rng.randrange(-4, 5)),
                     "v": Fraction(rng.randrange(-4, 5)),
                     "y": Fraction(rng.randrange(-4, 5)),
                     "z": Fraction(rng.randrange(-4, 5))}
            composed = f.substitute({"x": g})
            direct = f.evaluate({"x": g.evaluate(point),
                                 "y": point["y"], "z": point["z"]})
            assert composed.evaluate(point) == direct

    def test_substitute_scalar(self):
        p = X ** 2 + Y
        assert p.substitute({"x": 3}) == Y + 9

    def test_substitute_swaps_simultaneously(self):
        f = X ** 2 * Y + 3 * Y - X
        assert f.substitute({"x": Y, "y": X}) == Y ** 2 * X + 3 * X - Y

    def test_substitute_renames_apart_of_names_in_use(self):
        # the images mention bound variables, so the bound variables are
        # renamed apart; the suffixes _ and __ would give x_ and x__, which
        # are in use, and no renamed variable may clash with them
        x1, x2, ab = (MPoly.variable(v) for v in ("x_", "x__", "a_b"))
        f = MPoly(("x", "x_", "x__", "a_b"),
                  {(2, 1, 0, 0): 1, (0, 1, 0, 1): -2, (1, 0, 1, 0): 5,
                   (0, 0, 0, 0): 7})
        got = f.substitute({"x": x1, "x_": X * ab + 1})
        p, q = x1, X * ab + 1
        assert got == p ** 2 * q - 2 * q * ab + 5 * p * x2 + 7
        assert got.variables == ("a_b", "x", "x_", "x__")

    def test_apart_is_the_shortest_run_of_underscores(self):
        # the one rename-apart rule: empty when nothing clashes, else the
        # shortest run that clears every name at once
        assert mpoly._apart(["a0"], ["a1", "a0_"]) == ""
        assert mpoly._apart(["a0"], ["a0", "a0_"]) == "__"
        assert mpoly._apart(["x", "y"], {"x", "y", "y_", "x__"}) == "___"

    def test_substitute_zero_fraction_and_polynomial_in_one_call(self):
        f = X ** 3 * Y + X * Z ** 2 + Y * Z ** 2 + 5
        u, v = MPoly.variable("u"), MPoly.variable("v")
        image = u + v ** 2 / 2 - 1
        got = f.substitute({"x": 0, "y": Fraction(2, 3), "z": image})
        assert got == Fraction(2, 3) * image ** 2 + 5
        assert got.variables == ("u", "v")

    def test_substitute_powers_by_squaring(self, monkeypatch):
        # a binding of two terms raised to 1024: halving takes a dozen
        # products, where a list of every power takes 1023.  The lower bound
        # shows that the products go through the counted kernel at all
        f = X ** 1024 + X
        kernel = mpoly._addmul
        products = 0

        def counted(*args):
            nonlocal products
            products += 1
            if products > 64:
                raise AssertionError("more than 64 products")
            return kernel(*args)

        monkeypatch.setattr(mpoly, "_addmul", counted)
        got = f.substitute({"x": Y + Z})
        monkeypatch.undo()
        assert 10 <= products <= 64
        assert got.variables == ("y", "z") and len(got) == 1027
        assert got.coefficient("z", 0) == Y ** 1024 + Y
        assert got.evaluate({"y": 1, "z": 1}) == 2 ** 1024 + 2

    def test_substitute_steps_dense_powers_up_by_the_image(self,
                                                           monkeypatch):
        # 23 powers (y + z)**2 .. **24, one product each, and one product
        # per part x**0 .. x**24; a fresh squaring per power takes 125
        f = sum((X ** e for e in range(25)), MPoly((), {}))
        image = Y + Z
        expected = sum((image ** e for e in range(25)), MPoly((), {}))
        kernel = mpoly._addmul
        products = 0

        def counted(*args):
            nonlocal products
            products += 1
            return kernel(*args)

        monkeypatch.setattr(mpoly, "_addmul", counted)
        got = f.substitute({"x": image})
        monkeypatch.undo()
        assert 25 <= products <= 48
        assert got == expected

    def test_coefficient_reconstruction(self):
        rng = random.Random(23)
        # random polynomials, then gaps in the degrees of x, the zero
        # polynomial and x of degree 0
        inputs = [random_poly(rng) for _ in range(10)] + [
            X ** 5 * Y - 3 * X ** 2 + Z, MPoly(("x", "y"), {}),
            MPoly(("x", "y", "z"), {(0, 1, 1): 1, (0, 0, 0): 2})]
        for f in inputs:
            rebuilt = MPoly((), {})
            for k in range(f.degree("x") + 1):
                rebuilt = rebuilt + f.coefficient("x", k) * X ** k
            assert rebuilt == f
            split = f.coefficients("x")
            assert len(split) == f.degree("x") + 1
            assert all("x" not in c.variables for c in split)
            assert sum((c * X ** k for k, c in enumerate(split)),
                       MPoly((), {})) == f

    @pytest.mark.parametrize("power", [True, 1.0, "1"])
    def test_coefficient_power_is_an_int(self, power):
        p = X ** 2 * Y + X * Y
        message = f"^exponent {re.escape(repr(power))} is not an int$"
        with pytest.raises(TypeError, match=message):
            p.coefficient("x", power)

    def test_coefficient_drops_the_variable(self):
        p = X ** 2 * Y + X ** 2
        c = p.coefficient("x", 2)
        assert "x" not in c.variables
        assert c == Y + 1
        # below 0 or above the degree: zero over the remaining universe
        for power in (3, -1, 2 ** 70):
            outside = p.coefficient("x", power)
            assert not outside and outside.variables == ("y",)


class TestTextFormat:
    def test_canonical_examples(self):
        assert format_poly(MPoly((), {})) == "0"
        p = MPoly(("x", "y"), {(0, 0): 1, (1, 1): Fraction(-2, 3),
                               (2, 0): 1})
        assert format_poly(p) == "x^2 - 2/3*x*y + 1"

    def test_repr(self):
        assert repr(MPoly((), {})) == "MPoly('0')"
        assert repr(X ** 2 - Fraction(2, 3) * X * Y + 1) \
            == "MPoly('x^2 - 2/3*x*y + 1')"


class TestExponentOverflow:
    # exponents are packed in 16-bit fields: a total degree above 65535
    # must raise instead of wrapping into the neighbouring field

    def test_largest_degree_is_exact(self):
        f = X ** 65535
        assert f.total_degree() == 65535 and f.degree("x") == 65535
        assert format_poly(f) == "x^65535"

    def test_mul(self):
        with pytest.raises(OverflowError):
            X ** 65535 * X
        with pytest.raises(OverflowError):
            X ** 40000 * Y ** 30000

    def test_pow(self):
        with pytest.raises(OverflowError):
            X ** 65536
        with pytest.raises(OverflowError):
            (X * Y) ** 65535

    def test_substitute(self):
        f = X ** 40000 + Y
        assert f.substitute({"y": X ** 2}).total_degree() == 40000
        with pytest.raises(OverflowError):
            f.substitute({"x": X * Y})

    def test_substitute_each_kind_of_binding(self):
        f = X ** 2 * Y + Z
        # a one-term binding
        assert f.substitute({"x": X ** 32767, "y": Z}).total_degree() == 65535
        with pytest.raises(OverflowError):
            f.substitute({"x": X ** 32767 * Y})
        # a binding of several terms
        assert f.substitute({"x": X ** 32767 + Y}).total_degree() == 65535
        with pytest.raises(OverflowError):
            f.substitute({"x": X ** 32767 * Y + 1})
        # a scalar or 0 lowers the degree
        g = X ** 40000 * Y ** 25535
        assert g.substitute({"y": 3}) == 3 ** 25535 * X ** 40000
        assert not g.substitute({"y": 0})

    def test_substitute_checks_terms_that_vanish(self):
        # a term sent to 0, or cancelled by another, still has its degree
        # checked with the other images
        W = MPoly.variable("w")
        with pytest.raises(OverflowError):
            (X ** 40000 * Y + 1).substitute({"y": 0, "x": Z ** 2})
        with pytest.raises(OverflowError):
            (X ** 40000 * (Y - Z)).substitute({"y": W, "z": W, "x": Z ** 2})
        assert not (X ** 30000 * (Y - Z)).substitute(
            {"y": W, "z": W, "x": Z ** 2})

    def test_from_terms(self):
        with pytest.raises(OverflowError):
            MPoly(("x",), {(65536,): 1})
        with pytest.raises(OverflowError):
            MPoly(("x", "y"), {(40000, 30000): 1})

    def test_det_fraction_free(self):
        with pytest.raises(OverflowError):
            det_fraction_free([[X ** 40000, 0], [0, X ** 30000]])
        assert det_fraction_free([[X ** 40000, 0], [0, X ** 25535]]) == X ** 65535
        # two variables: y is packed into the coefficients, so x's degree
        # is checked per product and the total degree once y is decoded
        with pytest.raises(OverflowError):
            det_fraction_free([[X ** 40000 * Y, 0], [0, X ** 30000 * Y]])
        with pytest.raises(OverflowError):
            det_fraction_free([[X ** 40000 * Y, 0], [0, X ** 25534 * Y]])
        assert det_fraction_free([[X ** 40000 * Y, 0], [0, X ** 25533 * Y]]) \
            == X ** 65533 * Y ** 2

    def test_monic_divrem(self):
        lam, y = MPoly.variable("lam"), MPoly.variable("y")
        with pytest.raises(OverflowError):
            monic_divrem(lam ** 2, lam + y ** 65535, "lam")
        q, r = monic_divrem(lam ** 2, lam + y ** 30000, "lam")
        assert q * (lam + y ** 30000) + r == lam ** 2


class TestMonicDivision:
    def test_division_invariant(self):
        rng = random.Random(31)
        for _ in range(20):
            f = random_poly(rng, variables=("x", "y"), max_terms=8, max_exp=5)
            d = rng.randrange(1, 4)
            g = X ** d + random_poly(rng, variables=("x", "y"),
                                     max_terms=4, max_exp=d - 1)
            if g.degree("x") != d:
                continue
            q, r = monic_divrem(f, g, "x")
            assert q * g + r == f
            assert r.degree("x") < d

    def test_exactness_on_products(self):
        g = X ** 3 + Y * X + 1
        f = (X ** 2 - Y + 2) * g
        q, r = monic_divrem(f, g, "x")
        assert not r
        assert q == X ** 2 - Y + 2

    def test_rejects_nonmonic(self):
        with pytest.raises(ValueError, match="not monic"):
            monic_divrem(X ** 2, 2 * X + 1, "x")
        with pytest.raises(ValueError, match="not monic"):
            monic_divrem(X ** 2, Y * X + 1, "x")
        # a lead of two terms, 1 + y
        with pytest.raises(ValueError, match="^divisor is not monic in 'x'$"):
            monic_divrem(X ** 3, (1 + Y) * X + 1, "x")

    def test_lower_degree_dividend_is_the_remainder(self):
        f = Fraction(2, 3) * X * Y + Z
        q, r = monic_divrem(f, X ** 2 + Y, "x")
        assert not q and r == f

    def test_rejects_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            monic_divrem(X, MPoly(("x",), {}), "x")

    @pytest.mark.parametrize("f, g", [(X ** 2, 1), (2, X + 1)],
                             ids=["number-divisor", "number-dividend"])
    def test_rejects_a_non_polynomial_operand(self, f, g):
        with pytest.raises(TypeError,
                           match="^monic_divrem expects MPoly operands$"):
            monic_divrem(f, g, "x")

    def test_rejects_an_unknown_variable(self):
        with pytest.raises(ValueError, match="^unknown variable: 't'$"):
            monic_divrem(X ** 2, X + Y, "t")


def vandermonde(symbols):
    n = len(symbols)
    return [[symbols[i] ** j for j in range(n)] for i in range(n)]


class TestDeterminant:
    def test_vandermonde_closed_form(self):
        for n in (2, 3, 4, 5):
            xs = [MPoly.variable(f"x{i}") for i in range(n)]
            det = det_fraction_free(vandermonde(xs))
            expected = MPoly((), {(): 1})
            for j in range(n):
                for i in range(j):
                    expected = expected * (xs[j] - xs[i])
            assert det == expected

    def test_numeric_matches_cofactor_expansion(self):
        rng = random.Random(37)

        def cofactor(rows):
            n = len(rows)
            if n == 1:
                return rows[0][0]
            total = 0
            for j in range(n):
                minor = [row[:j] + row[j + 1:] for row in rows[1:]]
                term = rows[0][j] * cofactor(minor)
                total = total + (term if j % 2 == 0 else -term)
            return total

        for _ in range(10):
            n = rng.randrange(1, 6)
            rows = [[rng.randrange(-9, 10) for _ in range(n)]
                    for _ in range(n)]
            det = det_fraction_free(rows)
            assert det.constant_value() == cofactor(rows)

    def test_repeated_row_vanishes(self):
        row = [X, Y, X * Y, 1]
        other = [[random.Random(41).randrange(-5, 6) for _ in range(4)]
                 for _ in range(2)]
        matrix = [row] + other + [row]
        assert not det_fraction_free(matrix)

    def test_rational_entries(self):
        matrix = [[Fraction(1, 2), Fraction(1, 3)],
                  [Fraction(1, 5), Fraction(1, 7)]]
        assert det_fraction_free(matrix).constant_value() == \
            Fraction(1, 14) - Fraction(1, 15)

    @pytest.mark.parametrize("y", [1, Y], ids=["terms", "packed"])
    def test_coefficients_are_stored_normalised(self, y):
        # over one variable the terms are kept, over two one is packed; in
        # both, a coefficient the rows' scale divides is stored as an int
        det = det_fraction_free([[X * Fraction(1, 2), y],
                                 [y * Fraction(1, 3), X]])
        assert det == X * X * Fraction(1, 2) - y * y * Fraction(1, 3)
        assert sorted(type(c).__name__ for _, c in det.terms()) \
            == ["Fraction", "Fraction"]
        det = det_fraction_free([[X * Fraction(1, 2), y * Fraction(1, 2)],
                                 [y * 2, X * 4]])
        assert det == 2 * X * X - y * y
        assert all(type(c) is int for _, c in det.terms())

    def test_empty_and_shape_errors(self):
        assert det_fraction_free([]).constant_value() == 1
        with pytest.raises(ValueError, match="ragged"):
            det_fraction_free([[1, 2], [3]])
        with pytest.raises(ValueError, match="square"):
            det_fraction_free([[1, 2]])


class TestRehomogenize:
    def test_pads_every_term_to_the_target_degree(self):
        rng = random.Random(43)
        for _ in range(10):
            f = random_poly(rng, variables=("a1", "a2", "z"), rational=True)
            padded = _rehomogenize(f, "a0", 12)
            expected = MPoly(
                ("a0", "a1", "a2", "z"),
                {(12 - sum(exps), *exps): c for exps, c in f.terms()})
            assert padded == expected
            assert padded.variables == ("a0", "a1", "a2", "z")

    def test_rejects_a_present_variable_or_a_higher_term(self):
        with pytest.raises(ValueError, match="already present"):
            _rehomogenize(X + Y, "x", 3)
        with pytest.raises(ValueError, match="exceeds"):
            _rehomogenize(X ** 4 + Y, "a", 3)


# every public operation returns the canonical stored form

CANONICAL = settings(derandomize=True, database=None, deadline=None,
                     max_examples=40)
rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))


@st.composite
def polys(draw, names=("x", "y"), top=3):
    """Up to five terms with rational coefficients, the exponent of the
    first variable below ``top``."""
    keys = st.tuples(st.integers(0, top - 1),
                     *[st.integers(0, 3)] * (len(names) - 1))
    return MPoly(names, draw(st.dictionaries(keys, rationals, max_size=5)))


def assert_canonical(p):
    """Int terms, none zero, over a positive int denominator coprime to
    their content."""
    assert type(p._den) is int and p._den > 0
    assert all(type(c) is int and c for c in p._terms.values())
    assert gcd(p._den, *p._terms.values()) == 1


class TestCanonicalForm:
    @CANONICAL
    @given(polys(("x", "y")), polys(("y", "z")), st.integers(0, 3),
           rationals.filter(lambda c: c < 0))
    def test_ring_operations(self, f, g, e, c):
        for p in (f, g, f + g, f - g, -f, f * g, f ** e, f / c, f * c,
                  f + c, c - f, MPoly((), {(): c}),
                  MPoly(("x",), {(1,): c, (0,): Fraction(1, 3)})):
            assert_canonical(p)

    @CANONICAL
    @given(polys(("x", "y", "z")))
    def test_terms_round_trip(self, f):
        assert MPoly(f.variables, dict(f.terms())) == f

    @CANONICAL
    @given(polys(("x", "y")))
    def test_calculus_and_universes(self, f):
        assert_canonical(f.diff("x"))
        for c in f.coefficients("x"):
            assert_canonical(c)
        assert_canonical(f.in_universe(("w", "x", "y")))
        assert_canonical(_rehomogenize(f, "a", 6))

    @CANONICAL
    @given(polys(("x", "y", "z")),
           st.dictionaries(st.sampled_from(("x", "y", "z")),
                           st.one_of(rationals, polys(("y", "z")))))
    def test_substitute(self, f, bindings):
        assert_canonical(f.substitute(bindings))

    @CANONICAL
    @given(polys(("x", "y"), top=6), st.integers(1, 3), st.data())
    def test_monic_divrem(self, f, d, data):
        # a monic divisor with a rational tail below x**d
        g = X ** d + data.draw(polys(("x", "y"), top=d))
        q, r = monic_divrem(f, g, "x")
        assert_canonical(q)
        assert_canonical(r)
        assert q * g + r == f and r.degree("x") < d

    @CANONICAL
    @given(st.integers(1, 3), st.sampled_from([("x",), ("x", "y")]),
           st.data())
    def test_det_fraction_free(self, n, names, data):
        # over one variable the terms are kept, over two one is packed
        rows = [[data.draw(polys(names)) for _ in range(n)] for _ in range(n)]
        assert_canonical(det_fraction_free(rows))

    @CANONICAL
    @given(polys(("x", "y")), polys(("x", "y")), rationals)
    def test_hash_agrees_with_equality(self, f, g, c):
        # a universe variable that no term uses changes neither, and a
        # constant hashes as its number
        wide = f.in_universe(("w", "x", "y", "z"))
        assert wide == f and hash(wide) == hash(f)
        assert hash(f + g - g) == hash(f)
        constant = f - f + c
        assert constant == c and hash(constant) == hash(c)
        assert hash(MPoly(("x", "y"), {(0, 0): c})) == hash(c)
        assert hash(MPoly(("x",), {})) == hash(0) == hash(Fraction(0))
        assert len({f, wide, f + 0}) == 1
