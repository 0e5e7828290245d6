"""Shared fixtures and the acceptance summary hook.

The two expensive artifacts — the symbolic pipeline vector and the CLI
keyprop verification — are computed once per session and shared; everything
else is cheap.  Acceptance tests record one line per criterion through the
``criterion`` context manager, and the terminal summary prints them as a
PASS/FAIL table.  A test, or the collection of a test module, that runs
past ``TEST_SECONDS`` ends the run with the traceback of every thread, so a
hang fails instead of holding CI.
"""

import contextlib
import faulthandler
import io
import json
import os
import sys
import time

from fractions import Fraction

import pytest

from binform import beauville_pipeline, generic_form
from binform.cli import main as cli_main

ACCEPTANCE_LOG = []

# the slowest test takes about 2 s, and a hang takes forever
TEST_SECONDS = 120


def pytest_configure(config):
    # a copy of stderr made before any test's output is captured, for the
    # traceback of a test past its time
    global _STDERR
    _STDERR = os.dup(sys.stderr.fileno())


@contextlib.contextmanager
def _time_bound():
    faulthandler.dump_traceback_later(TEST_SECONDS, exit=True, file=_STDERR)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.hookimpl(wrapper=True)
def pytest_runtest_protocol(item, nextitem):
    with _time_bound():
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_make_collect_report(collector):
    # collecting a test module runs its module and class bodies
    with _time_bound():
        return (yield)


_CRITERIA = {
    1: "verify keyprop reproduces all six closed-form tables exactly",
    2: "verify relation: degree-36 relation as a symbolic identity in u,v,w",
    3: "verify disc: Disc = 5^5(J^2-128K) symbolic + 20 random quintics",
    4: "verify prop48: 19x21 product matrix has rank 19",
    5: "verify dims: 7, 19, 37 by nu-sum, closed form, and basis count",
    6: "Cartesian term counts of J, K, L, H are 12, 68, 228, 848",
    7: "seeded property suite (SL2 invariance, b0 identity, thm48, jdata)",
    8: "transvectant-route J, K, L, H equal the closed forms symbolically",
}


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_LOG


@pytest.fixture(scope="session")
def criterion(acceptance_log):
    @contextlib.contextmanager
    def run(number, budget_seconds):
        start = time.perf_counter()
        ok = False
        try:
            yield
            ok = True
        finally:
            elapsed = time.perf_counter() - start
            acceptance_log.append((number, ok, elapsed, budget_seconds))

    return run


@pytest.fixture(scope="session")
def symbolic_vector():
    """The six degree-24 invariants of the generic quintic, symbolically."""
    vector, trace = beauville_pipeline(generic_form(5))
    return vector, trace


def run_cli(argv):
    """Invoke the CLI in-process, capturing stdout/stderr and the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="session")
def keyprop_cli():
    """One full run of `binform verify keyprop --timing` through the CLI."""
    start = time.perf_counter()
    code, out, err = run_cli(["verify", "keyprop", "--timing"])
    wall = time.perf_counter() - start
    return {"code": code, "report": json.loads(out), "stderr": err,
            "wall_seconds": wall}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LOG:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_CRITERIA):
        entries = [e for e in ACCEPTANCE_LOG if e[0] == number]
        if not entries:
            terminalreporter.write_line(
                f"criterion {number}: NOT RUN — {_CRITERIA[number]}")
            continue
        _, ok, elapsed, budget = entries[-1]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(
            f"criterion {number}: {status} — {_CRITERIA[number]} "
            f"({elapsed:.2f}s, budget {budget:.0f}s)")


def draw_coefficient(rng, height):
    """A coefficient at one of the numeric benchmark's three heights: an
    int of at most 8, a 20-bit int, or a 64-bit over a 16-bit int."""
    if height == "small":
        return rng.randint(-8, 8)
    if height == "int20":
        return rng.randint(-(1 << 20), 1 << 20)
    return Fraction(rng.randint(-(1 << 63), 1 << 63), rng.randint(1, 1 << 16))
