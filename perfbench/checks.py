"""Output checks: every answer is compared with one known by construction
or computed by a second route through the library.

A check returns None when the answer is right and a one-line reason when
it is wrong.  The numeric workload and the CLI workload share the checks:
the CLI's stdout is parsed into the same answer shapes first.
"""

from __future__ import annotations

import json
from fractions import Fraction

import binform
from binform import (
    BinaryForm,
    KEYPROP_TABLES,
    beauville_closed_form,
    beauville_pipeline,
    discriminant,
    equivalence_witness,
    quintic_invariants,
    same_j_data,
)


def form(coeffs) -> BinaryForm:
    return BinaryForm(coeffs)


def syzygy_holds(J, K, L, H) -> bool:
    """The degree-36 relation among the quintic invariants."""
    return 16 * H * H == (-432 * L ** 3 - 72 * L ** 2 * K * J + 8 * L * K ** 3
                          - 2 * L * K ** 2 * J ** 2 + L ** 2 * J ** 3
                          + K ** 4 * J)


def _disc_from_invariants(coeffs) -> Fraction:
    v = quintic_invariants(form(coeffs))
    return 3125 * (v.J * v.J - 128 * v.K)


def check_invariants(request, answer):
    J, K, L, H, disc = (Fraction(answer[n]) for n in ("J", "K", "L", "H",
                                                      "Disc"))
    if disc != 3125 * (J * J - 128 * K):
        return "Disc != 5^5 (J^2 - 128 K)"
    if disc != discriminant(form(request["f"])).constant_value():
        return "Disc differs from the resultant discriminant"
    if not syzygy_holds(J, K, L, H):
        return "degree-36 relation fails"
    return None


def check_closed_form(request, answer):
    expected, _ = beauville_pipeline(form(request["f"]))
    if [Fraction(b) for b in answer] != list(expected.b):
        return "closed form differs from the pipeline"
    return None


def check_pipeline(request, answer):
    expected = beauville_closed_form(form(request["f"]))
    if [Fraction(b) for b in answer] != list(expected.b):
        return "pipeline differs from the closed form"
    return None


def check_discriminant(request, answer):
    if Fraction(answer) != _disc_from_invariants(request["f"]):
        return "resultant discriminant != 5^5 (J^2 - 128 K)"
    return None


def check_equiv(request, answer):
    equivalent = answer.get("equivalent")
    if not isinstance(equivalent, bool):
        return "no equivalence verdict"
    if request["equivalent"] and not equivalent:
        return "constructed equivalent pair reported inequivalent"
    if equivalent != same_j_data(form(request["f"]), form(request["g"])):
        return "equivalence_witness disagrees with same_j_data"
    return None


def check_jdata(request, answer):
    if not isinstance(answer, bool):
        return "no j-data verdict"
    if request["equivalent"] and not answer:
        return "constructed equivalent pair has different j-data"
    witness = equivalence_witness(form(request["f"]), form(request["g"]))
    if answer != witness["equivalent"]:
        return "same_j_data disagrees with equivalence_witness"
    return None


NUMERIC_CHECKS = {
    "invariants": check_invariants,
    "closed_form": check_closed_form,
    "pipeline": check_pipeline,
    "discriminant": check_discriminant,
    "equiv": check_equiv,
    "jdata": check_jdata,
}


def numeric_call(request):
    """Build the arguments of one numeric request and return a function
    making its single public call, which yields the normalised answer.

    The call looks the function up on the package at call time, so a
    traced run sees it."""
    kind = request["kind"]
    f = form(request["f"])
    if kind == "invariants":
        return lambda: binform.quintic_invariants(f).as_dict()
    if kind == "closed_form":
        return lambda: binform.beauville_closed_form(f).b
    if kind == "pipeline":
        return lambda: binform.beauville_pipeline(f)[0].b
    if kind == "discriminant":
        return lambda: binform.discriminant(f).constant_value()
    g = form(request["g"])
    if kind == "equiv":
        return lambda: binform.equivalence_witness(f, g)
    return lambda: binform.same_j_data(f, g)


def check_numeric(request, answer):
    try:
        return NUMERIC_CHECKS[request["kind"]](request, answer)
    except (ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
        return f"check raised {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# CLI invocations
# ---------------------------------------------------------------------------

def _basis(degree):
    """Exponent triples (a1, a2, a3) with 12 a1 + 8 a2 + 4 a3 = degree,
    enumerated by brute force."""
    return {(a1, a2, (degree - 12 * a1 - 8 * a2) // 4)
            for a1 in range(degree // 12 + 1)
            for a2 in range((degree - 12 * a1) // 8 + 1)}


def _check_verify(target, payload):
    if target == "relation":
        ok = payload.get("holds") is True
    elif target == "disc":
        ok = (payload.get("holds") is True
              and payload.get("symbolic_canonical") is True
              and payload.get("numeric_random") is True
              and payload.get("numeric_samples") == 20)
    elif target == "prop48":
        ok = payload.get("rank") == 19 and payload.get("holds") is True
    else:
        rows = payload.get("rows", [])
        ok = payload.get("holds") is True and [
            (r["degree"], r["basis_size"], r["match"]) for r in rows] == [
            (24 * l, 3 * l * l + 3 * l + 1, True) for l in range(1, 6)]
    return None if ok else f"verify {target} reported {payload}"


def check_cli(call, code, stdout, stderr):
    """Check one CLI invocation's exit code and parsed stdout."""
    expect = call["expect"]
    if expect == "usage_error":
        if code != 2 or stdout.strip() or not stderr.strip():
            return f"expected exit 2 with an error message, got {code}"
        return None
    argv = call["argv"]
    try:
        if expect in ("invariants", "closed_form", "pipeline", "equiv",
                      "jdata", "basis", "decompose48", "verify"):
            payload = json.loads(stdout)
        if expect == "invariants":
            reason = check_invariants(call, payload)
        elif expect in ("closed_form", "pipeline"):
            route = "closed-form" if expect == "closed_form" else "pipeline"
            if payload.get("route") != route:
                return f"route {payload.get('route')!r}, expected {route!r}"
            reason = NUMERIC_CHECKS[expect](call, payload["b"])
        elif expect == "equiv":
            reason = check_equiv(call, payload)
            if reason is None and code != (0 if payload["equivalent"] else 1):
                reason = f"exit {code} does not match the verdict"
            return reason
        elif expect == "jdata":
            reason = check_jdata(call, payload["same_j_data"])
            if reason is None and code != (0 if payload["same_j_data"] else 1):
                reason = f"exit {code} does not match the verdict"
            return reason
        elif expect == "dim":
            degree = int(argv[1])
            reason = (None if int(stdout) == len(_basis(degree))
                      else "wrong dimension")
        elif expect == "basis":
            degree = int(argv[1])
            got = [tuple(t) for t in payload["basis"]]
            reason = (None if len(got) == len(set(got)) and set(got)
                      == _basis(degree) else "wrong basis")
        elif expect == "decompose48":
            target = tuple(int(a) for a in argv[1:4])
            factors = [tuple(t) for t in payload["factors"]]
            sums = tuple(sum(t[i] for t in factors) for i in range(3))
            ok = sums == target and all(
                min(t) >= 0 and 12 * t[0] + 8 * t[1] + 4 * t[2] == 48
                for t in factors)
            reason = None if ok else "factors do not split the input"
        else:
            reason = _check_verify(argv[1], payload)
    except (ValueError, TypeError, KeyError, ZeroDivisionError) as exc:
        return f"unparsable output ({type(exc).__name__}: {exc})"
    if reason is None and code != 0:
        return f"exit {code}, expected 0"
    return reason


# ---------------------------------------------------------------------------
# keyprop
# ---------------------------------------------------------------------------

def keyprop_expected():
    """The six closed-form tables as {(L, K, J): coefficient string}."""
    return [{triple: str(value) for triple, value in table.terms.items()}
            for table in KEYPROP_TABLES]


def check_keyprop(report, expected):
    if report.get("all_match") is not True:
        return "all_match is not true"
    entries = report.get("entries", [])
    if len(entries) != len(expected):
        return f"{len(entries)} entries, expected {len(expected)}"
    for entry, table in zip(entries, expected):
        got = {(c["L"], c["K"], c["J"]): c["coefficient"]
               for c in entry["coefficients"]}
        if entry.get("match") is not True or got != table:
            return f"entry {entry.get('index')} differs from KEYPROP_TABLES"
    return None
