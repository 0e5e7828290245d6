"""Golden CLI outputs: stdout bytes and exit codes, one case per file.

Each case runs ``python -m binform.cli`` in a fresh process and compares its
stdout, byte for byte, with ``tests/golden/cli/<case>.out``.  After an
intended change of output, rewrite the files with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import binform

GOLDEN = Path(__file__).parent / "golden" / "cli"

FORM = "1,-2,3,0,5,-7"
FORM_SWAPPED = "-7,5,0,3,-2,1"      # FORM with x1 and x2 exchanged
FORM_A0_ZERO = "0,1,-3,2,5,1"
FORM_A = "0,-5,-10,-10,-5,0"
FORM_B = "-2,-15,-30,-30,-15,-1"

# case name -> (argv, exit code)
CASES = {
    "invariants": (["invariants", FORM], 0),
    "invariants_rational": (["invariants", "1/2,0,-2/3,1,0,5"], 0),
    "invariants_zero_form": (["invariants", "0,0,0,0,0,0"], 2),
    "beauville_closed_form": (["beauville", FORM], 0),
    "beauville_pipeline": (["beauville", FORM, "--pipeline"], 0),
    "beauville_a0_zero_closed_form": (["beauville", FORM_A0_ZERO], 0),
    "beauville_a0_zero_pipeline": (["beauville", FORM_A0_ZERO, "--pipeline"], 0),
    "equiv_true": (["equiv", FORM, FORM_SWAPPED], 0),
    "equiv_false": (["equiv", FORM_A, FORM_B], 1),
    "jdata_true": (["jdata", FORM, FORM_SWAPPED], 0),
    "jdata_false": (["jdata", FORM_A, FORM_B], 1),
    "dim": (["dim", "48"], 0),
    "dim_json": (["dim", "72", "--json"], 0),
    "basis_json": (["basis", "48", "--json"], 0),
    "decompose48_json": (["decompose48", "5", "7", "19", "--json"], 0),
    "verify_relation": (["verify", "relation"], 0),
    "verify_disc": (["verify", "disc"], 0),
    "verify_prop48": (["verify", "prop48"], 0),
    "verify_dims": (["verify", "dims"], 0),
    "verify_keyprop": (["verify", "keyprop"], 0),
}


def run_cli_process(argv):
    """(exit code, stdout bytes) of one CLI process on the imported package."""
    src = str(Path(binform.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "binform.cli", *argv],
                          capture_output=True, env=env, timeout=120)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_stdout_and_exit_code(case):
    argv, expected_code = CASES[case]
    code, out = run_cli_process(argv)
    assert code == expected_code
    assert out == (GOLDEN / f"{case}.out").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, (argv, expected_code) in sorted(CASES.items()):
        code, out = run_cli_process(argv)
        if code != expected_code:
            sys.exit(f"{name}: exit code {code}, expected {expected_code}")
        (GOLDEN / f"{name}.out").write_bytes(out)
        print(f"wrote {name}.out ({len(out)} bytes)")
