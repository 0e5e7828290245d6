"""One measuring process of the benchmark; ``run.py`` starts it.

    python3 perfbench/worker.py <workload> <role> <seed> <seconds> <out_dir>

with ``src`` on PYTHONPATH.  Roles:

  setup   set up only (import, inputs, expected answers) and report the time
  sample  keyprop: set up, then one verify_keyprop() and its check
  run     numeric / cli: set up, warm up, then a closed loop with one client
          until the operations have taken ``seconds``
  trace   set up, time the CLI probe untraced, then run the workload's
          traced pass and report per-layer tables

Prints one JSON object on stdout.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import inputs

TRACE_NUMERIC_BLOCKS = 4        # fixed work for the traced numeric pass
TRACE_CLI_BLOCKS = 2            # fixed work for the traced CLI pass
TRACE_ROUNDS = 3                # untraced/traced pass pairs per traced run
PROBE_REPEATS = 9               # subprocess timings for cli.interp/import
CLI_TIMEOUT_S = 60
STAGE_SUM_TOLERANCE = 0.05      # keyprop stages vs traced wall time
# Term counts of the traced keyprop: the 9x9 Sylvester resultant of the
# generic quintic has 14859 terms, whatever algorithm computes it, and the
# six canonical substitutions read 14859 terms and give 546.
KEYPROP_COUNTS = {
    "mpoly.det_fraction_free.out_terms": 14859,
    "mpoly.MPoly.substitute.in_terms": 14859,
    "mpoly.MPoly.substitute.out_terms": 546,
}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

class Inputs:
    """A workload's seeded input blocks, made on demand; ``used`` keeps
    every block handed out, for the digest."""

    def __init__(self, stream):
        self.stream = stream
        self.used = []

    def next_block(self):
        block = next(self.stream)
        self.used.append(block)
        return block

    def identity(self):
        return {"inputs": sum(map(len, self.used)),
                "digest": inputs.digest(self.used)}


def setup(workload, seed):
    """Import, the first inputs and expected answers; returns
    (expected keyprop tables or None, inputs, seconds)."""
    start = perf_counter()
    import checks               # imports binform: part of the set-up time
    expected = None
    if workload == "keyprop":
        expected = checks.keyprop_expected()
        source = Inputs(iter([[{"input": "generic quintic a0..a5",
                                "expected": expected}]]))
    elif workload == "numeric":
        source = Inputs(inputs.numeric_blocks(seed))
    else:
        source = Inputs(inputs.cli_blocks(seed))
    source.next_block()
    return expected, source, perf_counter() - start


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, reason, what):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{what}: {reason}")

    def as_dict(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "reasons": self.reasons}


# ---------------------------------------------------------------------------
# one operation of each workload
# ---------------------------------------------------------------------------

def timed_call(call):
    """(seconds, answer, error) of one call; error is None unless it
    raised, which no generated input should make it do."""
    start = perf_counter()
    try:
        answer = call()
    except Exception as exc:
        return (perf_counter() - start, None,
                f"raised {type(exc).__name__}: {exc}")
    return perf_counter() - start, answer, None


def numeric_request(request, tally):
    """Time one numeric request's single public call, then check it."""
    import checks
    elapsed, answer, error = timed_call(checks.numeric_call(request))
    tally.record(error or checks.check_numeric(request, answer),
                 request["kind"])
    return elapsed


def cli_invocation(call, tally):
    """Time one CLI process from start to exit, then check its output."""
    import checks
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "binform.cli", *call["argv"]],
                          capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    elapsed = perf_counter() - start
    tally.record(checks.check_cli(call, proc.returncode, proc.stdout,
                                  proc.stderr), " ".join(call["argv"][:2]))
    return elapsed


def cli_in_process(calls):
    """binform.cli.main on each call's argv in this process; returns the
    seconds per call and the (exit code, stdout, stderr) of each."""
    from binform import cli
    times, outputs = [], []
    for call in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            code = cli.main(call["argv"])
            times.append(perf_counter() - start)
        outputs.append((code, out.getvalue(), err.getvalue()))
    return times, outputs


def check_cli_outputs(calls, outputs, tally):
    import checks
    for call, (code, out, err) in zip(calls, outputs):
        tally.record(checks.check_cli(call, code, out, err),
                     " ".join(call["argv"][:2]))


# ---------------------------------------------------------------------------
# roles
# ---------------------------------------------------------------------------

def role_sample(expected, tally):
    import checks
    import binform
    start = perf_counter()
    _, report, error = timed_call(binform.verify_keyprop)
    tally.record(error or checks.check_keyprop(report, expected), "keyprop")
    return {"latencies": [perf_counter() - start],
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def role_run(workload, source, seconds, tally):
    """Warm up on the first block, then measure whole blocks until the
    operations themselves have taken ``seconds``.  The checks between
    them stretch the run, so its samples span more of the machine's
    speed changes."""
    one = numeric_request if workload == "numeric" else cli_invocation
    for item in source.used[0]:
        one(item, Tally())
    latencies = []
    while sum(latencies) < seconds:
        latencies += [one(item, tally) for item in source.next_block()]
    if workload == "numeric":
        return {"latencies": latencies,
                "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    bare = [_wall_s([sys.executable, "-c", "pass"])
            for _ in range(PROBE_REPEATS)]
    return {"latencies": latencies, "rss_kb": rss_kb,
            "interp_ms": 1000 * statistics.median(bare),
            "interp_n": len(bare)}


def _wall_s(argv):
    start = perf_counter()
    subprocess.run(argv, check=True, capture_output=True,
                   timeout=CLI_TIMEOUT_S)
    return perf_counter() - start


def cli_probe(seed, tally):
    """cli.interp_ms, cli.import_ms and cli.main_ms_p50, untraced.  The
    bare and importing interpreters alternate, and import_ms is the median
    of their paired differences."""
    bare, imports = [], []
    for _ in range(PROBE_REPEATS):
        bare.append(_wall_s([sys.executable, "-c", "pass"]))
        imports.append(_wall_s([sys.executable, "-c", "import binform.cli"]))
    block = next(inputs.cli_blocks(seed))
    main_times, outputs = cli_in_process(block)
    check_cli_outputs(block, outputs, tally)
    return {"cli.interp_ms": 1000 * statistics.median(bare),
            "cli.import_ms": 1000 * statistics.median(
                i - b for i, b in zip(imports, bare)),
            "cli.main_ms_p50": 1000 * statistics.median(main_times)}


def traced_passes(one_pass):
    """Alternate untraced and traced passes over the same inputs, so drift
    in the machine's speed cancels.  Returns the first traced pass's
    tracer, the overhead (traced time over untraced time, minus one), the
    outputs of the first untraced and first traced pass, and the term
    counts of every traced pass."""
    from tracer import Tracer
    untraced = traced = 0.0
    counts = []
    for index in range(TRACE_ROUNDS):
        seconds, plain = one_pass()
        untraced += seconds
        with Tracer() as round_tracer:
            seconds, outputs = one_pass()
        traced += seconds
        counts.append(round_tracer.counts)
        if index == 0:
            tracer, passes = round_tracer, (plain, outputs)
    return tracer, traced / untraced - 1, passes, counts


def check_trace(workload, table, counts, extra, tally):
    """The traced run's own checks, each recorded as one operation: the
    bypassed functions are not called, the keyprop stages account for the
    traced wall time, and the term counts repeat exactly."""
    if workload == "keyprop":
        calls = table["forms.transvectant"]["calls"]
        tally.record(None if calls == 0 else f"{calls} calls on keyprop",
                     "trace: transvectant bypass")
        frac = extra["stage_sum_frac"]
        tally.record(None if abs(frac - 1) <= STAGE_SUM_TOLERANCE else
                     f"stages sum to {frac:.4f} of the traced wall time",
                     "trace: stage sum")
    if workload == "numeric":
        calls = table["mpoly.MPoly.substitute"]["calls"]
        tally.record(None if calls == 0 else f"{calls} calls on numeric",
                     "trace: substitute bypass")
    tally.record(None if all(c == counts[0] for c in counts) else
                 f"term counts differ between passes: {counts}",
                 "trace: term counts")


def role_trace(workload, expected, source, seed, out_dir, tally):
    import binform
    import checks
    from tracer import Tracer, wrapper_cost

    probe = cli_probe(seed, tally)
    if workload == "keyprop":
        tracer = Tracer()
        with tracer:
            wall, report, error = timed_call(binform.verify_keyprop)
        tally.record(error or checks.check_keyprop(report, expected),
                     "keyprop")
        # A second, untraced keyprop would double the run, so the overhead
        # is the span count times the measured cost of one traced call.
        added = len(tracer) * wrapper_cost()
        overhead = added / (wall - added)
        stages = tracer.stages()
        extra = {"stages_s": stages, "wall_s": wall,
                 "stage_sum_frac": sum(stages.values()) / wall}
        # One traced pass only: its term counts must be the ones every
        # correct run gives.
        counts = [tracer.counts, KEYPROP_COUNTS]
    else:
        if workload == "numeric":
            for request in source.used[0]:           # warm-up, not timed
                numeric_request(request, Tally())
            items = [r for _ in range(TRACE_NUMERIC_BLOCKS)
                     for r in source.next_block()]

            def one_pass():
                results = [timed_call(checks.numeric_call(r)) for r in items]
                return sum(r[0] for r in results), results
        else:
            items = [c for _ in range(TRACE_CLI_BLOCKS)
                     for c in source.next_block()]

            def one_pass():
                times, outputs = cli_in_process(items)
                return sum(times), outputs
        tracer, overhead, passes, counts = traced_passes(one_pass)
        for outputs in passes:
            if workload == "numeric":
                for request, (_, answer, error) in zip(items, outputs):
                    tally.record(error or checks.check_numeric(request,
                                                                answer),
                                 request["kind"])
            else:
                check_cli_outputs(items, outputs, tally)
        extra = {"operations": len(items)}
    table = tracer.table()
    check_trace(workload, table, counts, extra, tally)
    tracer.dump(Path(out_dir) / f"spans-{workload}-seed{seed}.json")
    return {"table": table, "counts": tracer.counts,
            "spans": len(tracer), "trace_overhead_frac": overhead,
            "probe": probe, **extra}


def main(argv):
    workload, role, seed, seconds, out_dir = argv
    seed, seconds = int(seed), float(seconds)
    expected, source, setup_s = setup(workload, seed)
    tally = Tally()
    result = {"setup_s": setup_s}
    if role == "sample":
        result.update(role_sample(expected, tally))
    elif role == "run":
        result.update(role_run(workload, source, seconds, tally))
    elif role == "trace":
        result.update(role_trace(workload, expected, source, seed, out_dir,
                                 tally))
    result.update(source.identity())
    result.update(tally.as_dict())
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
