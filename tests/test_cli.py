"""Command-line front end: wire format, JSON payloads, and exit codes."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest
from conftest import run_cli
from hypothesis import given, settings
from hypothesis import strategies as st

import binform
from binform import cli
from binform.cli import main as cli_main

from binform.beauville import beauville_closed_form, thm48_decompose
from binform.forms import BinaryForm, GroupElement, act, generic_form
from binform.invariants import monomial_basis, quintic_invariants

# canonical stable quintics used throughout: the first two are inequivalent,
# the third has a repeated root
FORM_A = "0,-5,-10,-10,-5,0"
FORM_B = "-2,-15,-30,-30,-15,-1"
FIFTH_POWERS = "1,0,0,0,0,1"
REPEATED = "1,0,0,0,0,0"


class TestInvariantsCmd:
    def test_pinned_values(self):
        code, out, err = run_cli(["invariants", "1,-5,-10,-10,-5,0"])
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload == {"J": "-7", "K": "20", "L": "16", "H": "0",
                           "Disc": "-7846875"}

    def test_fifth_power_sum(self):
        code, out, _ = run_cli(["invariants", FIFTH_POWERS])
        assert code == 0
        payload = json.loads(out)
        assert payload == {"J": "1", "K": "0", "L": "0", "H": "0",
                           "Disc": "3125"}

    def test_rational_coefficients(self):
        code, out, _ = run_cli(["invariants", "1/2,0,-2/3,1,0,5"])
        assert code == 0
        payload = json.loads(out)
        form = BinaryForm([Fraction(1, 2), 0, Fraction(-2, 3), 1, 0, 5])
        vector = quintic_invariants(form)
        assert Fraction(payload["J"]) == vector.J
        assert Fraction(payload["H"]) == vector.H

    def test_zero_form_is_usage_error(self):
        code, out, err = run_cli(["invariants", "0,0,0,0,0,0"])
        assert code == 2
        assert "zero form" in err

    def test_wrong_arity(self):
        code, _, err = run_cli(["invariants", "1,2,3"])
        assert code == 2
        assert "expected six comma-separated coefficients" in err

    def test_unparseable_coefficient(self):
        code, _, err = run_cli(["invariants", "1,2,x,4,5,6"])
        assert code == 2
        assert "cannot parse coefficient" in err

    def test_result_beyond_int_str_limit(self):
        # H has degree 18 in the coefficients: over 5000 digits here
        big = 7 ** 600
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(["invariants", f"{big + 1},{big + 3},2,3,4,5"])
        assert code == 0 and err == ""
        assert sys.get_int_max_str_digits() == limit  # restored after the run
        form = BinaryForm([big + 1, big + 3, 2, 3, 4, 5])
        sys.set_int_max_str_digits(0)
        try:
            expected = {name: str(value) for name, value
                        in quintic_invariants(form).as_dict().items()}
        finally:
            sys.set_int_max_str_digits(limit)
        assert json.loads(out) == expected
        assert len(expected["H"]) > 5000

    def test_emit_writes_each_fraction_as_its_string(self, capsys):
        cli._emit({"b": [Fraction(-1, 3), Fraction(2)], "holds": True})
        assert capsys.readouterr().out \
            == '{\n  "b": [\n    "-1/3",\n    "2"\n  ],\n  "holds": true\n}\n'

    def test_emit_refuses_a_polynomial(self):
        vector = quintic_invariants(generic_form(5))
        with pytest.raises(TypeError,
                           match="^MPoly does not serialize to JSON$"):
            cli._emit(vector.as_dict())
        with pytest.raises(TypeError,
                           match="^object does not serialize to JSON$"):
            cli._emit([object()])

    def test_coefficient_digit_bound(self):
        code, _, err = run_cli(["invariants", "1," + "9" * 4301 + ",2,3,4,5"])
        assert code == 2
        assert "coefficient a1 has more than 4300 digits" in err
        code, _, _ = run_cli(["invariants", "1," + "9" * 4300 + ",2,3,4,5"])
        assert code == 0

    def test_coefficient_exponent_bound(self):
        for text, name in (("1e100000,1,2,3,4,5", "a0"),
                           ("1,2,3,4,5,1e-1_00000", "a5"),
                           ("1,2,3,4.5E+4300,5,6", "a3")):
            code, _, err = run_cli(["invariants", text])
            assert code == 2
            assert f"coefficient {name} has more than 4300 digits" in err
        code, _, _ = run_cli(["invariants", "1e4299,1,2,3,4,5"])
        assert code == 0


class TestBeauvilleCmd:
    def test_closed_form_route(self):
        code, out, err = run_cli(["beauville", FORM_A])
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["route"] == "closed-form"
        values = [Fraction(s) for s in payload["b"]]
        disc = Fraction(-1171875)  # 3125*((-3)**2 - 128*3)
        assert values[0] == disc ** 3 / 2 ** 40
        assert values[4] == 0 and values[5] == 0

    def test_pipeline_route_is_identical(self):
        closed_code, closed_out, _ = run_cli(["beauville", FORM_A])
        pipe_code, pipe_out, _ = run_cli(["beauville", "--pipeline", FORM_A])
        assert closed_code == pipe_code == 0
        closed = json.loads(closed_out)
        piped = json.loads(pipe_out)
        assert piped["route"] == "pipeline"
        assert piped["b"] == closed["b"]

    def test_repeated_root_warns(self):
        code, out, err = run_cli(["beauville", REPEATED])
        assert code == 0
        assert "discriminant is zero" in err
        payload = json.loads(out)
        assert payload["b"][0] == "0"

    def test_parse_error(self):
        code, _, err = run_cli(["beauville", "1,2"])
        assert code == 2
        assert "error" in err


class TestVerifyCmd:
    def test_relation(self):
        code, out, _ = run_cli(["verify", "relation"])
        assert code == 0
        payload = json.loads(out)
        assert payload == {"holds": True, "mode": "symbolic-canonical"}

    def test_disc(self):
        code, out, _ = run_cli(["verify", "disc"])
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is True
        assert payload["symbolic_canonical"] is True
        assert payload["numeric_samples"] == 20

    def test_disc_seed_determinism(self):
        first = run_cli(["verify", "disc", "--seed", "7"])
        second = run_cli(["verify", "disc", "--seed", "7"])
        assert first == second
        assert first[0] == 0

    def test_prop48(self):
        code, out, _ = run_cli(["verify", "prop48"])
        assert code == 0
        payload = json.loads(out)
        assert payload == {"holds": True, "rows": 19, "cols": 21, "rank": 19}

    def test_dims(self):
        code, out, _ = run_cli(["verify", "dims"])
        assert code == 0
        payload = json.loads(out)
        assert payload["holds"] is True
        assert [row["nu_sum"] for row in payload["rows"]] \
            == [7, 19, 37, 61, 91]
        assert all(row["match"] for row in payload["rows"])

    def test_timing_flag_adds_seconds(self):
        code, out, _ = run_cli(["verify", "dims", "--timing"])
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload["seconds"], float)
        assert list(payload)[-1] == "seconds"

    def test_no_seconds_without_timing(self):
        code, out, _ = run_cli(["verify", "dims"])
        assert code == 0
        assert "seconds" not in json.loads(out)

    def test_unknown_target(self):
        code, _, err = run_cli(["verify", "nonsense"])
        assert code == 2
        assert err


class TestDimBasisDecompose48:
    def test_dim_text(self):
        code, out, _ = run_cli(["dim", "24"])
        assert code == 0
        assert out.strip() == "7"

    def test_dim_json(self):
        code, out, _ = run_cli(["dim", "48", "--json"])
        assert code == 0
        assert json.loads(out) == {"degree": 48, "dimension": 19}

    def test_dim_rejects_bad_degree(self):
        code, _, err = run_cli(["dim", "25"])
        assert code == 2
        assert "multiple of 4" in err

    def test_basis_text(self):
        code, out, _ = run_cli(["basis", "12"])
        assert code == 0
        assert out.splitlines() == ["(1,0,0)", "(0,1,1)", "(0,0,3)"]

    def test_basis_json(self):
        code, out, _ = run_cli(["basis", "12", "--json"])
        assert code == 0
        assert json.loads(out) == {"degree": 12,
                                   "basis": [[1, 0, 0], [0, 1, 1], [0, 0, 3]]}

    @pytest.mark.parametrize("degree", [4, 24, 48, 1000])
    def test_streamed_basis_json_is_json_dumps(self, degree):
        code, out, _ = run_cli(["basis", str(degree), "--json"])
        assert code == 0
        assert out == json.dumps(
            {"degree": degree,
             "basis": [list(triple) for triple in monomial_basis(degree)]},
            indent=2) + "\n"

    def test_dim_of_a_4001_digit_degree(self):
        ell = 10 ** 3999
        code, out, _ = run_cli(["dim", str(24 * ell)])
        assert code == 0
        # the answer has 7999 digits, beyond this interpreter's int limit
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert int(out) == 3 * ell ** 2 + 3 * ell + 1
        finally:
            sys.set_int_max_str_digits(limit)

    def test_dim_rejects_a_degree_beyond_the_int_limit(self):
        code, out, err = run_cli(["dim", "4" + "0" * 4300])
        assert code == 2
        assert out == ""
        assert "invalid int value" in err

    @pytest.mark.parametrize("degree", ["13848", "100000000"])
    def test_basis_beyond_the_limit_exits_before_enumerating(
            self, degree, monkeypatch):
        # 13844 is the largest degree with at most 10**6 basis monomials
        def enumerate_basis(d):
            raise AssertionError("basis enumerated")

        monkeypatch.setattr("binform.cli.iter_monomial_basis", enumerate_basis)
        for argv in (["basis", degree], ["basis", degree, "--json"]):
            code, out, err = run_cli(argv)
            assert code == 2
            assert out == ""
            assert err == ("error: basis larger than the limit of 1000000"
                           " monomials\n")

    def test_basis_limit_is_the_graded_dimension(self):
        from binform.invariants import graded_dimension
        assert graded_dimension(13844) <= 10 ** 6 < graded_dimension(13848)

    def test_decompose48_single_factor(self):
        code, out, _ = run_cli(["decompose48", "4", "0", "0"])
        assert code == 0
        assert out.splitlines() == ["(4,0,0)"]

    def test_decompose48_two_factors(self):
        code, out, _ = run_cli(["decompose48", "1", "0", "21"])
        assert code == 0
        assert out.splitlines() == ["(1,0,9)", "(0,0,12)"]

    def test_decompose48_json(self):
        code, out, _ = run_cli(["decompose48", "1", "0", "21", "--json"])
        assert code == 0
        assert json.loads(out) == {"input": [1, 0, 21],
                                   "factors": [[1, 0, 9], [0, 0, 12]]}

    @pytest.mark.parametrize("alpha", [(0, 0, 0), (4, 0, 0), (1, 0, 21),
                                       (5, 7, 19), (8, 12, 24)])
    def test_streamed_decompose48_json_is_json_dumps(self, alpha):
        argv = ["decompose48", *map(str, alpha), "--json"]
        code, out, _ = run_cli(argv)
        assert code == 0
        assert out == json.dumps(
            {"input": list(alpha),
             "factors": [list(triple) for triple in thm48_decompose(alpha)]},
            indent=2) + "\n"

    @pytest.mark.parametrize("a1", ["4000004", "4" + "0" * 3000],
                             ids=["just-over", "3001-digits"])
    def test_decompose48_beyond_the_limit_exits_before_splitting(
            self, a1, monkeypatch):
        # 4000000 0 0 has exactly 10**6 factors of degree 48
        def split(alpha):
            raise AssertionError("decomposition computed")

        monkeypatch.setattr("binform.cli.thm48_decompose", split)
        for argv in (["decompose48", a1, "0", "0"],
                     ["decompose48", a1, "0", "0", "--json"]):
            code, out, err = run_cli(argv)
            assert code == 2
            assert out == ""
            assert err == ("error: decomposition larger than the limit of"
                           " 1000000 factors\n")

    def test_decompose48_bad_degree(self):
        code, _, err = run_cli(["decompose48", "1", "0", "0"])
        assert code == 2
        assert "not divisible by 48" in err


class TestEquivCmd:
    def test_self_equivalence(self):
        code, out, _ = run_cli(["equiv", FIFTH_POWERS, FIFTH_POWERS])
        assert code == 0
        payload = json.loads(out)
        assert payload["equivalent"] is True
        assert payload["s"] == "1"

    def test_canonical_pair_negative_coefficients(self):
        # both arguments begin with '-' and must survive option parsing
        code, out, _ = run_cli(["equiv", FORM_A, FORM_B])
        assert code == 1
        payload = json.loads(out)
        assert payload == {"equivalent": False, "reason": "K-ratio mismatch"}

    def test_unstable_input(self):
        code, _, err = run_cli(["equiv", FIFTH_POWERS, REPEATED])
        assert code == 2
        assert "unstable form" in err


class TestJdataCmd:
    def test_same_form(self):
        code, out, _ = run_cli(["jdata", FIFTH_POWERS, FIFTH_POWERS])
        assert code == 0
        assert json.loads(out) == {"same_j_data": True}

    def test_distinct_forms(self):
        code, out, _ = run_cli(["jdata", FORM_A, FORM_B])
        assert code == 1
        assert json.loads(out) == {"same_j_data": False}

    def test_repeated_root_rejected(self):
        code, _, err = run_cli(["jdata", FIFTH_POWERS, REPEATED])
        assert code == 2
        assert "repeated roots" in err


def test_refusals_name_the_quintic():
    assert run_cli(["equiv", "1,0,0,0,0,0", FIFTH_POWERS]) \
        == (2, "", "error: first quintic: unstable form\n")
    assert run_cli(["jdata", FIFTH_POWERS, "1,2,1,0,0,0"]) \
        == (2, "", "error: second quintic: repeated roots; j-data undefined\n")


# hostile inputs to the quintic subcommands, with the start of the one
# error line, which names the argument at fault
HOSTILE = [
    (["invariants", "0,0,0,0,0,0"], "quintic: zero form"),
    (["invariants", "1,2,3"], "quintic: expected six"),
    (["invariants", "1,2,x,4,5,6"], "quintic: cannot parse coefficient"),
    (["invariants", "1e100000,1,2,3,4,5"],
     "quintic: coefficient a0 has more than 4300 digits"),
    (["beauville", "--pipeline", "0,0,0,0,0,0"], "quintic: zero form"),
    (["beauville", "-1,2"], "quintic: expected six"),
    (["beauville", "1,1,1,1,1," + "9" * 4301],
     "quintic: coefficient a5 has more than 4300 digits"),
    (["equiv", "0,0,0,0,0,0", FIFTH_POWERS], "first quintic: zero form"),
    (["equiv", FIFTH_POWERS, "1,2,3,4,5,6,7"], "second quintic: expected six"),
    (["equiv", REPEATED, FIFTH_POWERS], "first quintic: unstable form"),
    (["equiv", FIFTH_POWERS, REPEATED], "second quintic: unstable form"),
    (["jdata", "-1/0,1,1,1,1,1", FIFTH_POWERS],
     "first quintic: cannot parse coefficient"),
    (["jdata", FIFTH_POWERS, "1," + "9" * 4301 + ",2,3,4,5"],
     "second quintic: coefficient a1 has more than 4300 digits"),
    (["jdata", "1,2,1,0,0,0", FIFTH_POWERS],
     "first quintic: repeated roots; j-data undefined"),
    # a lone rational that argparse would read as an unknown flag
    (["invariants", "-1/2"], "quintic: expected six"),
    # the degree and exponent refusals name the argument and its value,
    # a value typed after "--" included
    (["dim", "-4"], "degree must be a positive multiple of 4, got -4"),
    (["dim", "--", "-4"], "degree must be a positive multiple of 4, got -4"),
    (["basis", "5"], "degree must be a positive multiple of 4, got 5"),
    (["decompose48", "-1", "2", "3"],
     "exponent a1 must be nonnegative, got -1"),
    (["decompose48", "1", "1", "1"],
     "degree 12*a1 + 8*a2 + 4*a3 = 24 is not divisible by 48"),
]


@pytest.mark.parametrize("argv, start", HOSTILE,
                         ids=[f"{argv[0]}-{i}"
                              for i, (argv, _) in enumerate(HOSTILE)])
def test_hostile_inputs_name_the_argument(argv, start):
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and err.startswith(f"error: {start}")


@pytest.mark.parametrize("typed", [
    ["--seed", "-1_0"], ["--seed=-1_0"], ["--seed", "-10"], ["--se", "-1_0"]],
    ids=["underscore", "joined", "plain", "prefix"])
def test_every_spelling_of_a_negative_seed_reaches_verify_disc(typed,
                                                               monkeypatch):
    # int() reads "-1_0" as -10, so argparse must take it as the value
    seeds = []

    def spy(seed):
        seeds.append(seed)
        return {"holds": True}

    monkeypatch.setattr("binform.cli.verify_disc", spy)
    code, out, err = run_cli(["verify", "disc", *typed])
    assert (code, json.loads(out), err) == (0, {"holds": True}, "")
    assert seeds == [-10]


def test_an_option_joined_to_a_comma_list_is_read_as_the_option():
    # "--seed=1,2" holds a comma but starts with "--": argparse reads it
    # as --seed and refuses its value
    code, out, err = run_cli(["verify", "disc", "--seed=1,2"])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(
        "error: argument --seed: invalid int value: '1,2'")


def test_a_value_behind_the_fence_keeps_the_order_typed():
    # "-0" is a value and stays a1, in the order typed; moving it
    # alone would read a1 = 6, of degree 72, which is refused
    assert run_cli(["decompose48", "-0", "6", "0"]) \
        == run_cli(["decompose48", "0", "6", "0"]) == (0, "(0,6,0)\n", "")


SEEDS = st.integers(-50, 50).map(str)
QUINTICS = st.lists(
    st.one_of(st.integers(-9, 9).map(str),
              st.builds("{}/{}".format, st.integers(-9, 9),
                        st.integers(1, 9))),
    min_size=6, max_size=6).map(",".join)


@st.composite
def cli_calls(draw):
    """A well-formed call as (command, flags, positionals); each flag is
    its tokens as typed and in the canonical ``--flag=value`` spelling."""
    command = draw(st.sampled_from(
        ["invariants", "beauville", "verify", "dim", "basis", "decompose48",
         "equiv", "jdata"]))
    flags = []
    if command in ("invariants", "beauville"):
        positionals = [draw(QUINTICS)]
        if command == "beauville" and draw(st.booleans()):
            flags.append((["--pipeline"], ["--pipeline"]))
    elif command in ("equiv", "jdata"):
        positionals = [draw(QUINTICS), draw(QUINTICS)]
    elif command == "verify":   # keyprop is left out for its cost
        positionals = [draw(st.sampled_from(
            ["disc", "relation", "prop48", "dims"]))]
        if draw(st.booleans()):
            seed = draw(SEEDS)
            typed = draw(st.sampled_from(
                [["--seed", seed], [f"--seed={seed}"]]))
            flags.append((typed, [f"--seed={seed}"]))
    elif command in ("dim", "basis"):
        positionals = [str(draw(st.integers(-12, 60)))]
    else:
        positionals = [str(draw(st.integers(-3, 12))) for _ in range(3)]
    if command in ("dim", "basis", "decompose48") and draw(st.booleans()):
        flags.append((["--json"], ["--json"]))
    return command, flags, positionals


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(cli_calls(), st.data())
def test_argv_order_does_not_change_the_result(call, data):
    # flags anywhere among the positionals, and perhaps a '--' typed after
    # the last flag, against flags, then '--', then the positionals
    command, flags, positionals = call
    items = [[p] for p in positionals]
    for typed, _ in flags:
        items.insert(data.draw(st.integers(0, len(items))), typed)
    argv, after_flags = [command], 1
    for item in items:
        argv += item
        if item[0].startswith("--"):
            after_flags = len(argv)
    if data.draw(st.booleans()):
        argv.insert(data.draw(st.integers(after_flags, len(argv))), "--")
    canonical = [command, *(t for _, c in flags for t in c), "--",
                 *positionals]
    assert run_cli(argv)[:2] == run_cli(canonical)[:2]


class TestDeterminismAndEnvironment:
    def test_byte_stability(self):
        first = run_cli(["beauville", FORM_B])
        second = run_cli(["beauville", FORM_B])
        assert first == second

    def test_byte_stability_across_hash_seeds(self):
        # str hashing, and so set and dict order over names, changes with
        # PYTHONHASHSEED; no command's output or exit code may follow it
        form = BinaryForm([1, -2, 3, 0, 5, -7])
        image = act(GroupElement(2, 1, -1, 3), form)
        commands = [
            ["invariants", FORM_B],
            ["beauville", FORM_B, "--pipeline"],
            ["equiv", ",".join(str(c) for c in form.coeffs),
             ",".join(str(c) for c in image.coeffs)],
            ["verify", "prop48"],
            ["basis", "48", "--json"],
        ]
        src = os.path.dirname(os.path.dirname(binform.__file__))
        runs = {}
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p)
            runs[seed] = [
                (proc.returncode, proc.stdout) for proc in (
                    subprocess.run([sys.executable, "-m", "binform.cli", *argv],
                                   capture_output=True, env=env, timeout=120)
                    for argv in commands)]
        assert [code for code, _ in runs["0"]] == [0, 0, 0, 0, 0]
        assert runs["0"] == runs["4242"]

    def test_no_subcommand_is_usage_error(self):
        code, _, err = run_cli([])
        assert code == 2

    @pytest.mark.parametrize("argv", [["-h"], ["dim", "--help"],
                                      ["verify", "disc", "-h"]])
    def test_help_exits_0(self, argv):
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: binform")

    def test_internal_failure_exits_2_without_a_traceback(self, monkeypatch):
        def fail(form):
            raise RuntimeError("boom")

        monkeypatch.setattr("binform.cli.quintic_invariants", fail)
        code, out, err = run_cli(["invariants", FIFTH_POWERS])
        assert code == 2
        assert out == ""
        assert err == "error: internal failure: boom\n"

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "binform.cli", "verify", "dims"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["holds"] is True

    def test_broken_pipe_exits_quietly(self):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        err = io.StringIO()
        with contextlib.redirect_stdout(ClosedPipe()), \
                contextlib.redirect_stderr(err):
            code = cli_main(["basis", "48"])
            # later writes, such as the interpreter's final flush, go nowhere
            assert sys.stdout.name == os.devnull
            sys.stdout.close()
        assert code == 0
        assert err.getvalue() == ""

    def test_reader_closing_the_pipe_early(self):
        # the output (about 400 kB) outgrows the pipe buffer, so the process
        # is still writing when the reader stops after one line
        proc = subprocess.Popen(
            [sys.executable, "-m", "binform.cli", "basis", "2400"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"(200,0,0)\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert proc.stderr.read() == b""
        proc.stderr.close()

    def test_console_script_installed(self):
        path = shutil.which("binform")
        assert path is not None
        proc = subprocess.run([path, "dim", "24"], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "7"
