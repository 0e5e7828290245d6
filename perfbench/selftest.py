"""Self-test of the benchmark's checks: every right answer passes, every
corrupted answer counts as failed, and so does each broken traced run
(a bypassed function called, stages short of the wall time, term counts
that differ).

    PYTHONPATH=src python3 perfbench/selftest.py

Exits 0 when every corruption and every broken traced run was caught, 1
otherwise.
"""

from __future__ import annotations

import re
import sys

import checks
import inputs
from worker import (KEYPROP_COUNTS, Tally, check_cli_outputs, check_trace,
                    cli_in_process)


def corrupt_numeric(kind, answer):
    if kind == "invariants":
        return {**answer, "H": answer["H"] + 1}
    if kind in ("closed_form", "pipeline"):
        return list(answer[:3]) + [answer[3] + 1] + list(answer[4:])
    if kind == "discriminant":
        return answer + 1
    if kind == "equiv":
        return {**answer, "equivalent": not answer["equivalent"]}
    return not answer


def corrupt_cli(code, stdout, stderr):
    """Flip the first verdict, else change the last digit, else the exit
    code."""
    if "true" in stdout:
        return code, stdout.replace("true", "false", 1), stderr
    if "false" in stdout:
        return code, stdout.replace("false", "true", 1), stderr
    digits = list(re.finditer(r"\d", stdout))
    if digits:
        at = digits[-1].start()
        bumped = str((int(stdout[at]) + 1) % 10)
        return code, stdout[:at] + bumped + stdout[at + 1:], stderr
    return 0, stdout, stderr


def keyprop_report(expected):
    return {"all_match": True, "entries": [
        {"index": i, "match": True,
         "coefficients": [{"L": t[0], "K": t[1], "J": t[2], "coefficient": c}
                          for t, c in table.items()]}
        for i, table in enumerate(expected)]}


CALLS = {"forms.transvectant": {"calls": 0},
         "mpoly.MPoly.substitute": {"calls": 0}}
CALLED = {name: {"calls": 2} for name in CALLS}
WHOLE = {"stage_sum_frac": 0.999}

# (workload, span table, term counts per pass, extra) of a traced run that
# passes its checks, and of runs that each break one of them.
GOOD_TRACES = (
    ("keyprop", CALLS, [KEYPROP_COUNTS, KEYPROP_COUNTS], WHOLE),
    ("numeric", CALLS, [{"n": 1}] * 3, {}),
)
BROKEN_TRACES = (
    ("keyprop", CALLED, [KEYPROP_COUNTS, KEYPROP_COUNTS], WHOLE),
    ("keyprop", CALLS, [KEYPROP_COUNTS, KEYPROP_COUNTS],
     {"stage_sum_frac": 0.9}),
    ("keyprop", CALLS, [{**KEYPROP_COUNTS,
                         "mpoly.det_fraction_free.out_terms": 1},
                        KEYPROP_COUNTS], WHOLE),
    ("numeric", CALLED, [{"n": 1}] * 3, {}),
    ("numeric", CALLS, [{"n": 1}, {"n": 1}, {"n": 2}], {}),
)


def trace_checks(right):
    """Run the traced-run checks on good runs (into ``right``) and on each
    broken run; returns how many broken runs had exactly one failure."""
    for workload, table, counts, extra in GOOD_TRACES:
        check_trace(workload, table, counts, extra, right)
    caught = 0
    for workload, table, counts, extra in BROKEN_TRACES:
        tally = Tally()
        check_trace(workload, table, counts, extra, tally)
        caught += tally.failed == 1
    return caught


def main() -> int:
    right, wrong = Tally(), Tally()

    for request in next(inputs.numeric_blocks(0)):
        answer = checks.numeric_call(request)()
        right.record(checks.check_numeric(request, answer), request["kind"])
        wrong.record(checks.check_numeric(
            request, corrupt_numeric(request["kind"], answer)),
            request["kind"])

    calls = next(inputs.cli_blocks(0))
    _, outputs = cli_in_process(calls)
    check_cli_outputs(calls, outputs, right)
    check_cli_outputs(calls, [corrupt_cli(*o) for o in outputs], wrong)

    expected = checks.keyprop_expected()
    report = keyprop_report(expected)
    right.record(checks.check_keyprop(report, expected), "keyprop")
    report["entries"][2]["coefficients"][0]["coefficient"] += "1"
    wrong.record(checks.check_keyprop(report, expected), "keyprop")
    wrong.record(checks.check_keyprop(
        {**keyprop_report(expected), "all_match": False}, expected),
        "keyprop")

    traced_caught = trace_checks(right)
    caught = wrong.failed
    print(f"right answers passed: {right.attempted - right.failed}"
          f"/{right.attempted}")
    print(f"corrupted answers counted as failed: {caught}/{wrong.attempted}")
    for reason in right.reasons:
        print(f"right answer failed: {reason}")
    print(f"broken traced runs counted as failed: {traced_caught}"
          f"/{len(BROKEN_TRACES)}")
    ok = (right.failed == 0 and caught == wrong.attempted
          and traced_caught == len(BROKEN_TRACES))
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
