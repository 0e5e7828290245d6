"""Command-line front end: exact invariant computations as batch commands.

Every subcommand is deterministic given its arguments (and seed where one
applies); JSON output is byte-identical across runs, with all rationals
serialized as decimal strings, never floats.  Exit codes: 0 success/true,
1 mathematically false, 2 usage/parse/domain error.  Results are printed
however many digits they have; each input coefficient is bounded instead,
at CPython's default int/str conversion limit.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from fractions import Fraction

from .beauville import (
    _thm48_degree,
    beauville_closed_form,
    beauville_pipeline,
    equivalence_witness,
    prop48_rank,
    same_j_data,
    thm48_decompose,
    verify_keyprop,
)
from .forms import BinaryForm
from .invariants import (
    graded_dimension,
    iter_monomial_basis,
    quintic_invariants,
    sylvester_specialize,
    SylvesterPoint,
    verify_disc,
    verify_dims,
    verify_relation,
)

def _emit(payload) -> None:
    print(json.dumps(payload, indent=2))


_MAX_DIGITS = 4300


def _digits(text: str) -> int:
    """Digits of the larger of numerator and denominator as written, plus
    the size of a decimal exponent, counted without building the number."""
    mantissa, _, exponent = text.replace("_", "").lower().partition("e")
    digits = max(sum(ch.isdecimal() for ch in part)
                 for part in mantissa.split("/"))
    exponent = exponent.strip().lstrip("+-").lstrip("0")
    if exponent.isdecimal():
        # six leading digits already exceed the bound
        digits += int(exponent[:6])
    return digits


def _parse_quintic(text: str, name: str = "quintic") -> BinaryForm:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 6:
        raise ValueError(f"{name}: expected six comma-separated"
                         f" coefficients, got {len(parts)}")
    for i, part in enumerate(parts):
        if _digits(part) > _MAX_DIGITS:
            raise ValueError(
                f"{name}: coefficient a{i} has more than {_MAX_DIGITS} digits")
    try:
        values = [Fraction(p) for p in parts]
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{name}: cannot parse coefficient: {exc}") from None
    if all(v == 0 for v in values):
        raise ValueError(f"{name}: zero form")
    return BinaryForm(values)


def _cmd_invariants(args) -> int:
    form = _parse_quintic(args.coeffs)
    vector = quintic_invariants(form)
    _emit(vector.to_json_dict())
    return 0


def _cmd_beauville(args) -> int:
    form = _parse_quintic(args.coeffs)
    if args.pipeline:
        result, _ = beauville_pipeline(form)
        route = "pipeline"
    else:
        result = beauville_closed_form(form)
        route = "closed-form"
    if result.b[0] == 0:    # b0 = 2**-40 Disc**3
        print("warning: discriminant is zero (repeated roots); b0 = 0",
              file=sys.stderr)
    _emit({"route": route, "b": result.to_json_list()})
    return 0


def _verify_relation() -> dict:
    vector = quintic_invariants(
        sylvester_specialize(SylvesterPoint.symbolic()))
    return {"holds": verify_relation(vector), "mode": "symbolic-canonical"}


def _verify_prop48() -> dict:
    _, rank = prop48_rank()
    return {"holds": rank == 19, "rows": 19, "cols": 21, "rank": rank}


# verify target -> (report builder, key of the verdict in the report); the
# builders look the library functions up when called
_VERIFY = {
    "keyprop": (lambda args: verify_keyprop(), "all_match"),
    "relation": (lambda args: _verify_relation(), "holds"),
    "disc": (lambda args: verify_disc(seed=args.seed), "holds"),
    "prop48": (lambda args: _verify_prop48(), "holds"),
    "dims": (lambda args: verify_dims(), "holds"),
}


def _cmd_verify(args) -> int:
    build, verdict = _VERIFY[args.target]
    start = time.perf_counter()
    report = build(args)
    if args.timing:
        report["seconds"] = time.perf_counter() - start
    _emit(report)
    return 0 if report[verdict] else 1


def _cmd_dim(args) -> int:
    dimension = graded_dimension(args.degree)
    if args.json:
        _emit({"degree": args.degree, "dimension": dimension})
    else:
        print(dimension)
    return 0


# the most triples that basis or decompose48 prints
_MAX_TRIPLES = 10 ** 6


def _print_triples(triples, payload, as_json: bool) -> None:
    """Print the triples one a line, or with as_json the bytes of
    _emit(payload) with the triples filled, as lists, into the empty list
    that is payload's last value; one triple is written at a time."""
    if not as_json:
        for a1, a2, a3 in triples:
            print(f"({a1},{a2},{a3})")
        return
    write = sys.stdout.write
    write(json.dumps(payload, indent=2)[:-3])   # up to the '[' of '[]\n}'
    separator = "\n"
    for a1, a2, a3 in triples:
        write(f"{separator}    [\n      {a1},\n      {a2},\n      {a3}\n    ]")
        separator = ",\n"
    write("]\n}\n" if separator == "\n" else "\n  ]\n}\n")


def _cmd_basis(args) -> int:
    if graded_dimension(args.degree) > _MAX_TRIPLES:
        raise ValueError(
            f"basis larger than the limit of {_MAX_TRIPLES} monomials")
    _print_triples(iter_monomial_basis(args.degree),
                   {"degree": args.degree, "basis": []}, args.json)
    return 0


def _cmd_decompose48(args) -> int:
    alpha = (args.a1, args.a2, args.a3)
    # the factors have degree 48 each and sum to alpha
    if _thm48_degree(alpha) // 48 > _MAX_TRIPLES:
        raise ValueError(
            f"decomposition larger than the limit of {_MAX_TRIPLES} factors")
    _print_triples(thm48_decompose(alpha),
                   {"input": list(alpha), "factors": []}, args.json)
    return 0


def _cmd_equiv(args) -> int:
    first = _parse_quintic(args.first, "first quintic")
    second = _parse_quintic(args.second, "second quintic")
    witness = equivalence_witness(first, second)
    _emit(witness)
    return 0 if witness["equivalent"] else 1


def _cmd_jdata(args) -> int:
    first = _parse_quintic(args.first, "first quintic")
    second = _parse_quintic(args.second, "second quintic")
    same = same_j_data(first, second)
    _emit({"same_j_data": same})
    return 0 if same else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binform",
        description="Exact invariants of binary quartics and quintics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("invariants",
                       help="J, K, L, H, Disc of a quintic")
    p.add_argument("coeffs", help='six rationals "a0,a1,a2,a3,a4,a5"')
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("beauville",
                       help="the six degree-24 invariants b0..b5")
    p.add_argument("coeffs", help='six rationals "a0,a1,a2,a3,a4,a5"')
    p.add_argument("--pipeline", action="store_true",
                   help="force the full resultant route")
    p.set_defaults(func=_cmd_beauville)

    p = sub.add_parser("verify", help="run a headline verification")
    p.add_argument("target", choices=tuple(_VERIFY))
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock seconds in the report")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized checks (verify disc)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dim", help="dimension of the degree-d component")
    p.add_argument("degree", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("basis", help="monomial basis of the degree-d component")
    p.add_argument("degree", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("decompose48",
                       help="split a JKL monomial into degree-48 factors")
    p.add_argument("a1", type=int)
    p.add_argument("a2", type=int)
    p.add_argument("a3", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decompose48)

    p = sub.add_parser("equiv",
                       help="decide scaled-GL2 equivalence of two quintics")
    p.add_argument("first", help='six rationals "a0,...,a5"')
    p.add_argument("second", help='six rationals "a0,...,a5"')
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("jdata",
                       help="decide equality of five-point j-data")
    p.add_argument("first", help='six rationals "a0,...,a5"')
    p.add_argument("second", help='six rationals "a0,...,a5"')
    p.set_defaults(func=_cmd_jdata)

    return parser


# a value, not a flag: a token that holds a comma, as only coefficient
# lists do, or is "-" or starts with "-" and a digit or ".", as no option
_VALUE = re.compile(r"[^,]*,|-([\d.]|$)")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    fence = argv.index("--") if "--" in argv else len(argv)
    # argparse reads a token as an option only when it starts with "-", so
    # a space in front of a value, or of any token typed after "--", hands
    # it over as a value; int() and _parse_quintic ignore the space
    argv = [" " + token if token.startswith("-")
            and (i > fence or _VALUE.match(token)) else token
            for i, token in enumerate(argv) if i != fence]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return int(exc.code or 0)
    # results outgrow their inputs (H has degree 18 in the coefficients),
    # so printing is unbounded; _parse_quintic bounds the inputs instead
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader left early (``| head``): not an error; keep the
        # interpreter's final flush of the dead pipe quiet as well
        sys.stdout = open(os.devnull, "w")
        return 0
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # contract: never panic
        print(f"error: internal failure: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
