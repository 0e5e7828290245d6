"""Quartic and quintic invariants: dual routes, pinned values, the degree-36
relation, discriminant identities, canonizant constants, graded dimensions."""

import json
import pathlib
import random
from fractions import Fraction

import pytest
from conftest import draw_coefficient, run_cli

from binform import invariants
from binform.beauville import quartic_of_root
from binform.forms import (
    BinaryForm,
    GroupElement,
    act,
    discriminant,
    form_from_roots,
    generic_form,
    transvectant,
)
from binform.invariants import (
    CovariantChain,
    InvariantVector,
    QuarticInvariants,
    SylvesterPoint,
    canonizant,
    graded_dimension,
    j_invariant,
    monomial_basis,
    quartic_S,
    quartic_S_transvectant,
    quartic_T,
    quartic_T_transvectant,
    quartic_invariants,
    quintic_covariants,
    quintic_invariants,
    sylvester_invariants,
    sylvester_specialize,
    verify_dims,
    verify_disc,
    verify_relation,
)
from binform.mpoly import MPoly, format_poly

GOLDEN = pathlib.Path(__file__).parent / "golden"

# closed-form invariant values of the canonical family at chosen (u, v, w);
# frozen from the formulas (uv+uw+vw)^2 - 4uvw(u+v+w), u^2v^2w^2(uv+uw+vw),
# u^4v^4w^4, u^5v^5w^5(u-v)(u-w)(v-w)
CANONICAL_POINTS = {
    (1, 1, 1): (-3, 3, 1, 0),
    (1, 2, 3): (-23, 396, 1296, -15552),
    (2, 1, 1): (-7, 20, 16, 0),
    (1, 1, 0): (1, 0, 0, 0),
}


def random_det1(rng, factors=3, bound=4):
    g = GroupElement(1, 0, 0, 1)
    for i in range(factors):
        r = rng.randrange(-bound, bound + 1)
        shear = GroupElement(1, r, 0, 1) if i % 2 else GroupElement(1, 0, r, 1)
        g = g @ shear
    return g


class TestQuarticInvariants:
    def test_dual_routes_agree_symbolically(self):
        q = generic_form(4, prefix="q")
        assert quartic_S(q) == quartic_S_transvectant(q)
        assert quartic_T(q) == quartic_T_transvectant(q)

    def test_discriminant_identity_symbolic(self):
        q = generic_form(4, prefix="q")
        inv = quartic_invariants(q)
        assert discriminant(q) == inv.discriminant

    def test_discriminant_factor(self):
        inv = QuarticInvariants(Fraction(2), Fraction(1))
        assert inv.discriminant == 256 * (8 - 27)

    def test_repr(self):
        assert repr(quartic_invariants(BinaryForm([1, 0, 0, 0, 1]))) \
            == "QuarticInvariants(S=Fraction(1, 1), T=Fraction(0, 1))"
        x, y = MPoly.variable("x"), MPoly.variable("y")
        assert repr(quartic_invariants(BinaryForm([x, 0, 0, 0, y]))) \
            == "QuarticInvariants(S=MPoly('x*y'), T=Fraction(0, 1))"

    def test_equal_pairs_hash_equal(self):
        q = MPoly.variable("q")
        first = QuarticInvariants(Fraction(6, 4), q * q)
        second = QuarticInvariants(Fraction(3, 2),
                                   (q * q).in_universe(("p", "q")))
        assert first == second
        assert hash(first) == hash(second)

    def test_degrees_and_weights_by_scaling(self):
        # S and T have degrees 2, 3 and weights 4, 6: c*Q scales them by
        # c**2, c**3, and g = diag(1, 1/2) of det 1/2 by det(g)**-4, **-6
        q = BinaryForm([1, 2, 0, -1, 3])
        before = quartic_invariants(q)
        assert before.S and before.T
        scaled = quartic_invariants(3 * q)
        assert (scaled.S, scaled.T) == (9 * before.S, 27 * before.T)
        moved = quartic_invariants(
            act(GroupElement(1, 0, 0, Fraction(1, 2)), q))
        assert (moved.S, moved.T) == (2 ** 4 * before.S, 2 ** 6 * before.T)

    def test_invariance_under_det1(self):
        rng = random.Random(43)
        for _ in range(6):
            f = BinaryForm([rng.randrange(-5, 6) for _ in range(5)])
            if f.is_zero():
                continue
            g = random_det1(rng)
            assert quartic_invariants(act(g, f)) == quartic_invariants(f)


class TestQuarticRoutesAgree:
    """quartic_S and quartic_T run on int term dicts; the transvectant
    routes run on Fractions and MPolys.  They must agree in value and in
    type."""

    @staticmethod
    def assert_same(got, expected):
        assert got == expected
        assert type(got) is type(expected)
        if isinstance(got, MPoly):
            assert (got.variables, str(got)) \
                == (expected.variables, str(expected))

    @pytest.mark.parametrize("height", ["small", "int20", "rat64"])
    def test_numeric_quartics(self, height):
        rng = random.Random(f"quartic-routes-{height}")
        for _ in range(25):
            q = BinaryForm([draw_coefficient(rng, height) for _ in range(5)])
            self.assert_same(quartic_S(q), quartic_S_transvectant(q))
            self.assert_same(quartic_T(q), quartic_T_transvectant(q))
            assert type(quartic_S(q)) is Fraction

    @pytest.mark.parametrize("lam", ["symbol", "number"])
    def test_companion_quartic_of_the_generic_quintic(self, lam):
        lam = MPoly.variable("lam") if lam == "symbol" else Fraction(-3, 7)
        tail = [MPoly.variable(f"a{i}") for i in range(1, 5)]
        q = quartic_of_root(tail, lam)
        self.assert_same(quartic_S(q), quartic_S_transvectant(q))
        self.assert_same(quartic_T(q), quartic_T_transvectant(q))

    def test_constant_invariants_of_a_symbolic_quartic(self):
        # x1 -> x1 + t x2 moves a numeric quartic without moving S and T
        t = MPoly.variable("t")
        x1, x2 = MPoly.variable("x1"), MPoly.variable("x2")
        moved = BinaryForm([1, 2, 3, 4, 5]).to_mpoly().substitute(
            {"x1": x1 + t * x2})
        q = BinaryForm([moved.coefficient("x1", 4 - i).coefficient("x2", i)
                        for i in range(5)])
        self.assert_same(quartic_S(q), Fraction(15, 4))
        self.assert_same(quartic_T(q), Fraction(5, 8))

    def test_S_runs_without_T(self):
        # S has degree 50000 here, within the limit; T's 75000 is not, and
        # a kernel that made T before S would refuse S too
        x = MPoly.variable("x")
        q = BinaryForm([1, 0, x ** 25000, 0, 1])
        assert quartic_S(q).total_degree() == 50000
        with pytest.raises(OverflowError, match="total degree 75000"):
            quartic_T(q)

    # the degrees e0..e4 of the coefficients x**e_i at which one term of S's
    # guard alone reaches 65536, and the same term one step down, with the
    # degree of S there
    S_GUARD = {
        "e0+e4": ((32768, 0, 0, 0, 32768), (32767, 0, 0, 0, 32768), 65535),
        "e1+e3": ((0, 32768, 0, 32768, 0), (0, 32768, 0, 32767, 0), 65535),
        "2*e2": ((0, 0, 32768, 0, 0), (0, 0, 32767, 0, 0), 65534),
    }

    @pytest.mark.parametrize("over, under, degree", S_GUARD.values(),
                             ids=S_GUARD)
    def test_each_term_of_the_S_guard_decides_it(self, over, under, degree):
        x = MPoly.variable("x")
        with pytest.raises(OverflowError, match="^total degree 65536 "):
            quartic_S(BinaryForm([x ** e for e in over]))
        assert quartic_S(BinaryForm([x ** e for e in under])).total_degree() \
            == degree

    # the degrees e0..e4 of the coefficients x**e_i at which one term of T's
    # guard alone passes 65535, and the same term at 65535 one step down
    T_GUARD = {
        "e0+e2+e4": ((32768, 0, 1, 0, 32767), (32767, 0, 1, 0, 32767)),
        "e1+e2+e3": ((0, 32767, 2, 32767, 0), (0, 32766, 2, 32767, 0)),
        "3*e2": ((0, 0, 21846, 0, 0), (0, 0, 21845, 0, 0)),
        "e0+2*e3": ((2, 0, 0, 32767, 0), (1, 0, 0, 32767, 0)),
        "2*e1+e4": ((0, 32767, 0, 0, 2), (0, 32767, 0, 0, 1)),
    }

    @pytest.mark.parametrize("over, under", T_GUARD.values(), ids=T_GUARD)
    def test_each_term_of_the_T_guard_decides_it(self, over, under):
        # S's guard stays below the limit in both, so S is made
        x = MPoly.variable("x")
        q = BinaryForm([x ** e for e in over])
        quartic_S(q)
        # 3 * e2 passes 65535 at 65538, each other term at 65536
        with pytest.raises(OverflowError, match="^total degree 6553[68] "):
            quartic_T(q)
        assert quartic_T(BinaryForm([x ** e for e in under])).total_degree() \
            == 65535


class TestJInvariant:
    def test_harmonic_is_one(self):
        # roots 0, 1, -1, infinity
        f = BinaryForm([0, 1, 0, -1, 0])
        assert j_invariant(f) == 1

    def test_equianharmonic_is_zero(self):
        f = BinaryForm([1, 0, 0, 1, 0])
        assert j_invariant(f) == 0

    def test_lambda_formula(self):
        # quartic with roots 0, 1, lambda, infinity
        x2 = BinaryForm([0, 1])
        for lam in (Fraction(2), Fraction(-1), Fraction(3, 2), Fraction(5),
                    Fraction(-7, 3)):
            f = form_from_roots([(0, 1), (1, 1), (lam, 1)]) * x2
            expected = (Fraction(4, 27) * (lam ** 2 - lam + 1) ** 3
                        / (lam ** 2 * (lam - 1) ** 2))
            assert j_invariant(f) == expected

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate quartic"):
            j_invariant(BinaryForm([0, 0, 1, 0, 0]))

    def test_symbolic_rejected(self):
        with pytest.raises(TypeError, match="numeric quartic"):
            j_invariant(generic_form(4))


class TestCovariantChain:
    def test_orders(self):
        chain = quintic_covariants(generic_form(5))
        assert isinstance(chain, CovariantChain)
        assert [c.order for c in chain] == [2, 3, 2, 1]

    def test_fifth_power_degenerates(self):
        f = BinaryForm([1, 0, 0, 0, 0, 0])  # x1^5
        chain = quintic_covariants(f)
        assert chain.first.is_zero()

    def test_wrong_order_rejected(self):
        with pytest.raises(ValueError, match="order 5"):
            quintic_covariants(generic_form(4))


def reference_covariants(form):
    """The chain of the CovariantChain docstring, each transvectant
    normalised on its own."""
    first = transvectant(form, form, 4)
    second = transvectant(form, first, 2)
    third = transvectant(second, second, 2)
    fourth = transvectant(second, first, 2)
    return first, second, third, fourth


def reference_invariants(form):
    """J, K, L, H by the formulas of the quintic_invariants docstring."""
    first, _, third, fourth = reference_covariants(form)
    left = transvectant(fourth, third, 1)
    right = transvectant(first, fourth, 1)
    return (Fraction(-1, 2) * transvectant(first, first, 2).coeffs[0],
            Fraction(1, 8) * transvectant(first, third, 2).coeffs[0],
            Fraction(1, 96) * transvectant(third, third, 2).coeffs[0],
            Fraction(-1, 384) * transvectant(left, right, 1).coeffs[0])


class TestScaledChain:
    """The chain clears the quintic once and carries one scale per
    covariant; the references divide at every step instead, so a wrong
    scale cannot cancel out of the comparison."""

    @pytest.mark.parametrize("height", ["small", "int20", "rat64"])
    def test_equals_the_step_by_step_reference(self, height):
        rng = random.Random(f"scaled-chain-{height}")
        for n in range(30):
            coeffs = [draw_coefficient(rng, height) for _ in range(6)]
            if n % 3 == 0:
                coeffs[0] = 0
            form = BinaryForm(coeffs)
            vector = quintic_invariants(form)
            got = (vector.J, vector.K, vector.L, vector.H)
            assert got == reference_invariants(form)
            assert all(type(x) is Fraction for x in got)
            assert tuple(quintic_covariants(form)) == reference_covariants(form)

    def test_partly_symbolic_form_with_rational_coefficients(self):
        # an MPoly coefficient sends the chain down m = 1, with the other
        # coefficients left as Fractions
        a1 = MPoly.variable("a1")
        form = BinaryForm([Fraction(1, 3), a1, 0, Fraction(-2, 5), 7,
                           Fraction(5, 4)])
        vector = quintic_invariants(form)
        assert (vector.J, vector.K, vector.L, vector.H) == \
            reference_invariants(form)
        assert tuple(quintic_covariants(form)) == reference_covariants(form)


class TestQuinticInvariants:
    @pytest.mark.parametrize("point,expected", sorted(CANONICAL_POINTS.items()))
    def test_canonical_points(self, point, expected):
        form = sylvester_specialize(SylvesterPoint(*point))
        vector = quintic_invariants(form)
        assert (vector.J, vector.K, vector.L, vector.H) == expected

    def test_closed_forms_match_canonical_points(self):
        for point, expected in CANONICAL_POINTS.items():
            vector = sylvester_invariants(SylvesterPoint(*point))
            assert (vector.J, vector.K, vector.L, vector.H) == expected

    def test_transvectant_equals_closed_forms_symbolically(self):
        # the flagship oracle equivalence on the symbolic canonical family
        symbolic = SylvesterPoint.symbolic()
        via_transvectants = quintic_invariants(sylvester_specialize(symbolic))
        via_closed_forms = sylvester_invariants(symbolic)
        assert via_transvectants == via_closed_forms

    def test_disc_default(self):
        vector = quintic_invariants(BinaryForm([1, 0, 0, 0, 0, 1]))
        assert (vector.J, vector.K, vector.L, vector.H) == (1, 0, 0, 0)
        assert vector.Disc == 3125

    def test_metadata(self):
        assert InvariantVector.DEGREES == \
            {"J": 4, "K": 8, "L": 12, "H": 18, "Disc": 8}
        # the degrees are the scaling exponents: 2*F scales X by 2**d
        f = BinaryForm([1, 2, 0, -1, 3, 1])
        before, after = quintic_invariants(f), quintic_invariants(2 * f)
        for name, d in InvariantVector.DEGREES.items():
            assert getattr(before, name)
            assert getattr(after, name) == 2 ** d * getattr(before, name)

    def test_equal_vectors_hash_equal(self):
        x = MPoly.variable("x")
        first = InvariantVector(Fraction(2, 4), 3, x, 0)
        second = InvariantVector(Fraction(1, 2), MPoly((), {(): 3}),
                                 x.in_universe(("x", "y")), Fraction(0))
        assert first == second
        assert hash(first) == hash(second)

    def test_as_dict(self):
        vector = quintic_invariants(BinaryForm([1, 1, 0, 0, -1, 2]))
        fields = vector.as_dict()
        assert list(fields) == ["J", "K", "L", "H", "Disc"]
        assert all(value is getattr(vector, name)
                   for name, value in fields.items())

    def test_json_round_trip(self):
        vector = quintic_invariants(BinaryForm([1, 1, 0, 0, -1, 2]))
        payload = vector.to_json_dict()
        assert set(payload) == {"J", "K", "L", "H", "Disc"}
        assert Fraction(payload["J"]) == vector.J

    def test_repr(self):
        assert repr(quintic_invariants(BinaryForm([1, 0, 0, 0, 0, 1]))) \
            == ("InvariantVector(J=Fraction(1, 1), K=Fraction(0, 1),"
                " L=Fraction(0, 1), H=Fraction(0, 1), Disc=Fraction(3125, 1))")
        u, v = MPoly.variable("u"), MPoly.variable("v")
        assert repr(InvariantVector(u, 0, v ** 3, Fraction(-1, 2))) \
            == ("InvariantVector(J=MPoly('u'), K=Fraction(0, 1),"
                " L=MPoly('v^3'), H=Fraction(-1, 2), Disc=MPoly('3125*u^2'))")

    def test_symbolic_vector_refuses_json(self):
        vector = quintic_invariants(generic_form(5))
        with pytest.raises(TypeError, match="numeric"):
            vector.to_json_dict()

    def test_invariance_under_det1(self):
        rng = random.Random(47)
        for _ in range(6):
            f = BinaryForm([rng.randrange(-5, 6) for _ in range(6)])
            if f.is_zero():
                continue
            g = random_det1(rng)
            assert quintic_invariants(act(g, f)) == quintic_invariants(f)

    def test_weight_covariance_under_scaling(self):
        # g = diag(1, 1/2) has det 1/2; an invariant of weight w picks up
        # det(g)**(-w)
        f = BinaryForm([1, 2, 0, -1, 3, 1])
        g = GroupElement(1, 0, 0, Fraction(1, 2))
        before = quintic_invariants(f)
        after = quintic_invariants(act(g, f))
        assert after.J == before.J * 2 ** 10
        assert after.K == before.K * 2 ** 20
        assert after.L == before.L * 2 ** 30
        assert after.H == before.H * 2 ** 45
        assert after.Disc == before.Disc * 2 ** 20


class TestGoldenCartesianForms:
    def test_generic_J_matches_golden(self):
        vector = quintic_invariants(generic_form(5))
        golden = (GOLDEN / "quintic_J.txt").read_text().strip()
        assert format_poly(vector.J) == golden

    def test_generic_K_matches_golden(self):
        vector = quintic_invariants(generic_form(5))
        golden = (GOLDEN / "quintic_K.txt").read_text().strip()
        assert format_poly(vector.K) == golden

    def test_term_counts(self):
        vector = quintic_invariants(generic_form(5))
        assert len(vector.J) == 12
        assert len(vector.K) == 68
        assert len(vector.L) == 228
        assert len(vector.H) == 848


class TestRelation:
    def test_symbolic_canonical(self):
        vector = sylvester_invariants(SylvesterPoint.symbolic())
        assert verify_relation(vector)

    def test_numeric_random(self):
        rng = random.Random(53)
        for _ in range(10):
            f = BinaryForm([rng.randrange(-9, 10) for _ in range(6)])
            if f.is_zero():
                continue
            assert verify_relation(quintic_invariants(f))

    def test_tamper_detected(self):
        vector = quintic_invariants(BinaryForm([1, 2, 0, -1, 3, 1]))
        tampered = InvariantVector(vector.J, vector.K, vector.L,
                                   vector.H + 1)
        assert verify_relation(vector)
        assert not verify_relation(tampered)


class TestCanonizant:
    def test_canonical_point_value(self):
        form = sylvester_specialize(SylvesterPoint(1, 1, 1))
        can = canonizant(form)
        assert list(can.coeffs) == [0, -6, -6, 0]

    def test_partials_resultant_gives_L(self):
        # raw resultant of the canonizant's partials = -2^4 * 3^5 * L
        symbolic = SylvesterPoint.symbolic()
        can = canonizant(sylvester_specialize(symbolic))
        closed_L = sylvester_invariants(symbolic).L
        from binform.forms import resultant
        raw = resultant(can.diff_x1(), can.diff_x2())
        assert raw == -3888 * closed_L

    def test_normalized_discriminant_gives_L(self):
        # with the bracket normalization the cubic prefactor (-1)^3/3 turns
        # -3888 into +1296 = 2^4 * 3^4
        symbolic = SylvesterPoint.symbolic()
        can = canonizant(sylvester_specialize(symbolic))
        closed_L = sylvester_invariants(symbolic).L
        assert discriminant(can) == 1296 * closed_L

    def test_negated_chain_member(self):
        f = BinaryForm([1, 2, 0, -1, 3, 1])
        chain = quintic_covariants(f)
        assert canonizant(f) == -chain.second


class TestSylvesterFamily:
    def test_specialized_coefficients(self):
        form = sylvester_specialize(SylvesterPoint(2, 1, 1))
        assert list(form.coeffs) == [1, -5, -10, -10, -5, 0]

    def test_symbolic_point(self):
        point = SylvesterPoint.symbolic()
        assert isinstance(point.u, MPoly)
        form = sylvester_specialize(point)
        assert form.coeffs[1] == -5 * MPoly.variable("w")

    def test_repr(self):
        assert repr(SylvesterPoint(1, Fraction(2, 3), -1)) \
            == "SylvesterPoint(Fraction(1, 1), Fraction(2, 3), Fraction(-1, 1))"
        assert repr(SylvesterPoint.symbolic()) \
            == "SylvesterPoint(MPoly('u'), MPoly('v'), MPoly('w'))"

    def test_text_parameter_rejected(self):
        with pytest.raises(TypeError, match="exact rational"):
            SylvesterPoint("1", 1, 1)

    def test_expansion_identity(self):
        # u x1^5 + v x2^5 - w (x1 + x2)^5 expanded termwise
        u, v, w = (Fraction(x) for x in (3, -2, 5))
        form = sylvester_specialize(SylvesterPoint(u, v, w))
        x1, x2 = MPoly.variable("x1"), MPoly.variable("x2")
        expected = u * x1 ** 5 + v * x2 ** 5 - w * (x1 + x2) ** 5
        assert form.to_mpoly() == expected


class TestDiscriminantIdentity:
    def test_verify_disc_report(self):
        report = verify_disc()
        assert report["holds"]
        assert report["symbolic_canonical"]
        assert report["numeric_random"]
        assert report["numeric_samples"] == 20

    def test_mismatch_is_reported(self, monkeypatch):
        # a discriminant off by one on numeric forms only: the symbolic
        # check still holds, the numeric one fails, and the command exits 1
        exact = invariants.discriminant

        def off_on_numbers(form):
            symbolic = any(isinstance(c, MPoly) for c in form.coeffs)
            return exact(form) + (0 if symbolic else 1)

        monkeypatch.setattr(invariants, "discriminant", off_on_numbers)
        report = {"symbolic_canonical": True, "numeric_samples": 20,
                  "numeric_random": False, "holds": False}
        assert verify_disc() == report
        code, out, _ = run_cli(["verify", "disc"])
        assert code == 1 and json.loads(out) == report

    def test_seed_determinism(self):
        assert verify_disc(seed=5) == verify_disc(seed=5)
        assert verify_disc(seed=9)["holds"]

    def test_direct_identity_numeric(self):
        rng = random.Random(59)
        for _ in range(5):
            f = BinaryForm([rng.randrange(-9, 10) for _ in range(6)])
            if f.is_zero():
                continue
            vector = quintic_invariants(f)
            assert discriminant(f).constant_value() \
                == 3125 * (vector.J ** 2 - 128 * vector.K)


class TestGradedDimensions:
    def test_pinned_table(self):
        expected = {4: 1, 8: 2, 12: 3, 16: 4, 20: 5, 24: 7, 36: 12,
                    48: 19, 72: 37, 96: 61, 120: 91}
        for degree, dimension in expected.items():
            assert graded_dimension(degree) == dimension

    def test_closed_form_for_24l(self):
        for ell in range(1, 9):
            assert graded_dimension(24 * ell) == 3 * ell ** 2 + 3 * ell + 1

    def test_closed_form_matches_the_nu_sum(self):
        for degree in range(4, 4001, 4):
            total = 0
            for k in range(degree // 4 + 1):
                total += k // 6 + (0 if k % 6 == 1 else 1)
            assert graded_dimension(degree) == total

    def test_huge_degree_in_constant_time(self):
        ell = 10 ** 3999
        assert graded_dimension(24 * ell) == 3 * ell ** 2 + 3 * ell + 1
        with pytest.raises(ValueError, match="multiple of 4"):
            graded_dimension(24 * ell + 2)

    def test_basis_counts_match_dimension(self):
        for degree in range(4, 100, 4):
            basis = monomial_basis(degree)
            assert len(basis) == graded_dimension(degree)
            assert len(set(basis)) == len(basis)
            for a1, a2, a3 in basis:
                assert 12 * a1 + 8 * a2 + 4 * a3 == degree

    def test_basis_order_pinned(self):
        assert monomial_basis(4) == [(0, 0, 1)]
        assert monomial_basis(12) == [(1, 0, 0), (0, 1, 1), (0, 0, 3)]
        assert monomial_basis(24) == [
            (2, 0, 0), (1, 1, 1), (1, 0, 3), (0, 3, 0), (0, 2, 2),
            (0, 1, 4), (0, 0, 6)]

    def test_rejects_bad_degrees(self):
        for bad in (0, -4, 7, 26):
            with pytest.raises(ValueError, match="multiple of 4"):
                graded_dimension(bad)
            with pytest.raises(ValueError, match="multiple of 4"):
                monomial_basis(bad)

    def test_verify_dims_report(self):
        report = verify_dims()
        assert report["holds"]
        degrees = [row["degree"] for row in report["rows"]]
        assert degrees == [24, 48, 72, 96, 120]
        assert [row["nu_sum"] for row in report["rows"]] \
            == [7, 19, 37, 61, 91]
        for row in report["rows"]:
            assert row["match"]
            assert row["nu_sum"] == row["closed_form"] == row["basis_size"]
