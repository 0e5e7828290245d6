"""Acceptance criteria, one test each, exact arithmetic throughout.

Every check runs at tolerance zero.  The ``criterion`` fixture times each
block and the terminal summary prints one PASS/FAIL line per criterion with
its runtime against the stated budget.
"""

import json
import random
from fractions import Fraction

from conftest import run_cli

from binform.beauville import (
    KEYPROP_TABLES,
    beauville_closed_form,
    beauville_pipeline,
    gl2_equivalent,
    same_j_data,
    thm48_decompose,
)
from binform.forms import BinaryForm, GroupElement, act, generic_form
from binform.invariants import (
    SylvesterPoint,
    quartic_S,
    quartic_T,
    quintic_invariants,
    sylvester_invariants,
    sylvester_specialize,
)


def random_det1(rng):
    """A random determinant-one matrix as a product of integer shears."""
    g = GroupElement(1, 0, 0, 1)
    for _ in range(rng.randrange(2, 5)):
        entry = rng.randrange(-3, 4)
        if rng.randrange(2):
            g = g @ GroupElement(1, entry, 0, 1)
        else:
            g = g @ GroupElement(1, 0, entry, 1)
    return g


def random_stable_quintic(rng, bound=9):
    while True:
        form = BinaryForm([rng.randrange(-bound, bound + 1) for _ in range(6)])
        if form.is_zero():
            continue
        if quintic_invariants(form).Disc != 0:
            return form


def test_criterion_1_keyprop_tables(criterion, request):
    with criterion(1, 900):
        result = request.getfixturevalue("keyprop_cli")
        assert result["code"] == 0
        report = result["report"]
        assert report["all_match"] is True
        assert result["wall_seconds"] <= 900
        assert list(report) == ["all_match", "entries", "seconds"]

        # every coefficient of every table, parsed back exactly
        assert len(report["entries"]) == 6
        for index, entry in enumerate(report["entries"]):
            assert entry["match"] is True
            parsed = {(row["L"], row["K"], row["J"]): Fraction(row["coefficient"])
                      for row in entry["coefficients"]}
            assert parsed == KEYPROP_TABLES[index].terms

        # the leading table pinned term by term with explicit prime powers:
        # (5^15/2^40) * (-2^21 K^3 + 3*2^14 K^2 J^2 - 3*2^7 K J^4 + J^6)
        prefactor = Fraction(5 ** 15, 2 ** 40)
        first = {(row["L"], row["K"], row["J"]): Fraction(row["coefficient"])
                 for row in report["entries"][0]["coefficients"]}
        assert first == {
            (0, 3, 0): prefactor * -(2 ** 21),
            (0, 2, 2): prefactor * 3 * 2 ** 14,
            (0, 1, 4): prefactor * -3 * 2 ** 7,
            (0, 0, 6): prefactor,
        }


def test_criterion_2_degree_36_relation(criterion):
    with criterion(2, 10):
        code, out, _ = run_cli(["verify", "relation"])
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is True
        assert payload["mode"] == "symbolic-canonical"


def test_criterion_3_discriminant_identity(criterion):
    with criterion(3, 60):
        code, out, _ = run_cli(["verify", "disc"])
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is True
        assert payload["symbolic_canonical"] is True
        assert payload["numeric_samples"] == 20


def test_criterion_4_degree_48_rank(criterion):
    with criterion(4, 10):
        code, out, _ = run_cli(["verify", "prop48"])
        assert code == 0
        payload = json.loads(out)
        assert payload == {"holds": True, "rows": 19, "cols": 21, "rank": 19}


def test_criterion_5_graded_dimensions(criterion):
    with criterion(5, 1):
        code, out, _ = run_cli(["verify", "dims"])
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is True
        dims = [row["nu_sum"] for row in payload["rows"]]
        assert dims == [7, 19, 37, 61, 91]
        for row in payload["rows"]:
            assert row["nu_sum"] == row["closed_form"] == row["basis_size"]


def test_criterion_6_term_counts(criterion):
    with criterion(6, 30):
        vector = quintic_invariants(generic_form(5))
        assert len(vector.J) == 12
        assert len(vector.K) == 68
        assert len(vector.L) == 228
        assert len(vector.H) == 848


def test_criterion_7_property_suite(criterion):
    with criterion(7, 300):
        rng = random.Random(2024)

        # SL2 invariance of S, T, J, K, L, H and the six degree-24
        # invariants on 20 determinant-one matrices
        quartic = BinaryForm([2, -1, 0, 3, 1])
        quintic = random_stable_quintic(rng)
        base_S, base_T = quartic_S(quartic), quartic_T(quartic)
        base_quintic = quintic_invariants(quintic)
        base_b = beauville_closed_form(quintic)
        matrices = [random_det1(rng) for _ in range(20)]
        assert len(matrices) >= 20
        for g in matrices:
            assert g.det == 1
            assert quartic_S(act(g, quartic)) == base_S
            assert quartic_T(act(g, quartic)) == base_T
            moved = quintic_invariants(act(g, quintic))
            assert (moved.J, moved.K, moved.L, moved.H) == \
                (base_quintic.J, base_quintic.K, base_quintic.L,
                 base_quintic.H)
            assert beauville_closed_form(act(g, quintic)) == base_b
        for g in matrices[:5]:
            vector, _ = beauville_pipeline(act(g, quintic))
            assert vector == base_b

        # leading-entry identity: b0 = 2^-40 Disc^3 on random quintics
        for _ in range(10):
            form = random_stable_quintic(rng)
            vector = beauville_closed_form(form)
            disc = quintic_invariants(form).Disc
            assert vector.b[0] == disc ** 3 / 2 ** 40
        pipeline_vector, _ = beauville_pipeline(quintic)
        assert pipeline_vector.b[0] == base_quintic.Disc ** 3 / 2 ** 40

        # factor-splitting round-trip on 200 degree-divisible-by-48 triples
        checked = 0
        while checked < 200:
            alpha = (rng.randrange(0, 14), rng.randrange(0, 14),
                     rng.randrange(0, 40))
            if (12 * alpha[0] + 8 * alpha[1] + 4 * alpha[2]) % 48:
                continue
            factors = thm48_decompose(alpha)
            for factor in factors:
                assert 12 * factor[0] + 8 * factor[1] + 4 * factor[2] == 48
            if alpha != (0, 0, 0):
                sums = tuple(sum(f[i] for f in factors) for i in range(3))
                assert sums == alpha
            checked += 1
        assert checked >= 200

        # five-point data agrees with scaled-GL2 equivalence on 26 pairs
        outcomes = set()
        pairs = 0
        while pairs < 26:
            first = random_stable_quintic(rng)
            if pairs % 2 == 0:
                b, c = rng.randrange(-3, 4), rng.randrange(-3, 4)
                g = GroupElement(1, b, c, 1 + b * c)
                second = Fraction(rng.randrange(1, 5)) * act(g, first)
                if quintic_invariants(second).Disc == 0:
                    continue
            else:
                second = random_stable_quintic(rng)
            same = same_j_data(first, second)
            assert same == gl2_equivalent(first, second)
            outcomes.add(same)
            pairs += 1
        assert outcomes == {True, False}


def test_criterion_8_closed_form_oracle(criterion):
    with criterion(8, 30):
        point = SylvesterPoint.symbolic()
        transvectant_route = quintic_invariants(sylvester_specialize(point))
        closed = sylvester_invariants(point)
        assert transvectant_route.J == closed.J
        assert transvectant_route.K == closed.K
        assert transvectant_route.L == closed.L
        assert transvectant_route.H == closed.H
