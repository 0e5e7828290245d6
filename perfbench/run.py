"""The binform benchmark.

    python3 perfbench/run.py --workload keyprop|numeric|cli|all --seed N \
        --seconds S --trace 0|1

``--seconds`` is how long the timed operations of a run take together;
keyprop always runs at least one whole sample.  ``all`` runs the three
workloads in turn.  Run from anywhere inside a checkout of the
repository; the library is imported from its ``src``.  Every measurement happens in fresh worker
processes (``worker.py``), so each run pays interpreter start-up and import
the way a user does.  Earlier lines of stdout are a readable report; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones,
with ``--trace 1`` the per-layer ones from a separate traced run.  Full
results and the spans of traced runs go to ``.bench_out/`` in the checkout.

Workloads (BENCHMARK.json lists numeric and keyprop, and why each was
chosen; cli runs by hand or through ``all``, see README.md):
  keyprop  one verify_keyprop() per sample, each in a fresh interpreter
  numeric  seeded single requests to the numeric public functions, one
           client in a closed loop, after a warm-up
  cli      seeded ``python -m binform.cli`` invocations, one at a time
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("keyprop", "numeric", "cli")
SETUPS = 21                 # set-ups per run; setup_s is their median
WORKER_TIMEOUT_S = 170
RUN_BUDGET_S = 150          # no new keyprop sample starts after this
ROTATE_S = 0.25             # seconds a worker stays on one CPU

# Spans timed on every workload (the others are bypassed by some workload
# and report calls only, so no time metric reads a constant 0).
TIMED_SPANS = (
    "mpoly.det_fraction_free", "mpoly.monic_divrem", "mpoly.MPoly.__mul__",
    "forms.resultant", "beauville.beauville_pipeline", "beauville.build_phi",
)


class BenchError(RuntimeError):
    pass


def worker(workload, role, seed, seconds):
    """Run one worker process and return its JSON result.

    While it runs, the worker is moved to the next allowed CPU every
    ROTATE_S seconds (CLI processes it starts inherit the CPU it is on).
    On a shared machine each core is slowed by its own neighbours, and a
    run that stays on one core would measure that core's neighbours."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, str(ROOT / "perfbench" / "worker.py"), workload,
            role, str(seed), str(seconds), str(OUT_DIR)]
    cpus = sorted(os.sched_getaffinity(0))
    deadline = perf_counter() + WORKER_TIMEOUT_S
    with subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        turn = 0
        while True:
            try:
                os.sched_setaffinity(proc.pid, {cpus[turn % len(cpus)]})
            except ProcessLookupError:
                pass
            turn += 1
            try:
                out, err = proc.communicate(timeout=ROTATE_S)
                break
            except subprocess.TimeoutExpired:
                if perf_counter() > deadline:
                    proc.kill()
                    proc.communicate()
                    raise
    if proc.returncode != 0:
        raise BenchError(f"{workload} {role} worker exited "
                         f"{proc.returncode}:\n{err[-2000:]}")
    return json.loads(out)


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment(seed, result):
    """Interpreter, machine, code and input identity of one result."""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
        "inputs": result["inputs"],
        "inputs_sha256": result["digest"],
    }


def git_commit():
    """HEAD of the checkout, or None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """SHA-256 over the library's source files, names and contents."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# timed run: end-to-end metrics
# ---------------------------------------------------------------------------

def setup_times(workload, seed, count):
    """Set-up times of ``count`` fresh worker processes."""
    return [worker(workload, "setup", seed, 0)["setup_s"]
            for _ in range(count)]


def timed_run(workload, seed, seconds):
    """setup_s is the median of SETUPS set-ups, each in a fresh worker (the
    measuring workers' own set-ups among them).  Half run before the
    measured operations and the rest after them, so setup_s samples the
    machine over the whole run."""
    setups = setup_times(workload, seed, SETUPS // 2)
    if workload == "keyprop":
        start = perf_counter()
        samples = [worker(workload, "sample", seed, seconds)]
        while (sum(s["latencies"][0] for s in samples) < seconds
               and perf_counter() - start + samples[-1]["latencies"][0]
               < RUN_BUDGET_S):
            samples.append(worker(workload, "sample", seed, seconds))
        result = dict(samples[0])
        for key in ("latencies", "reasons"):
            result[key] = [x for s in samples for x in s[key]]
        for key in ("attempted", "failed"):
            result[key] = sum(s[key] for s in samples)
        result["rss_kb"] = max(s["rss_kb"] for s in samples)
        setups += [s["setup_s"] for s in samples]
    else:
        result = worker(workload, "run", seed, seconds)
        setups.append(result["setup_s"])
    setups += setup_times(workload, seed, SETUPS - len(setups))
    latencies = result["latencies"]
    metrics = {
        "latency_ms_p50": (1000 * statistics.median(latencies), "ms"),
        "latency_ms_p90": (1000 * percentile(latencies, 90), "ms"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (result["rss_kb"] / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    n = len(latencies)
    report = {
        "keyprop": [("keyprop_s", metrics["latency_ms_p50"][0] / 1000, "s",
                     n)],
        "numeric": [("quintics_per_s", metrics["ops_per_s"][0], "1/s", n),
                    ("quintic_ms_p50", metrics["latency_ms_p50"][0], "ms", n),
                    ("quintic_ms_p90", metrics["latency_ms_p90"][0], "ms", n)],
        "cli": [("cli_ms_p50", metrics["latency_ms_p50"][0], "ms", n),
                ("cli_ms_p90", metrics["latency_ms_p90"][0], "ms", n),
                ("cli.interp_ms", result.get("interp_ms"), "ms",
                 result.get("interp_n"))],
    }[workload]
    report += [
        ("failed_frac", result["failed"] / result["attempted"], "ratio",
         result["attempted"]),
        ("peak_rss_mb", metrics["peak_rss_mb"][0], "MB", 1),
        ("setup_s", metrics["setup_s"][0], "s", len(setups)),
    ]
    result["setups_s"] = setups
    return result, metrics, report


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

def traced_run(workload, seed, seconds):
    result = worker(workload, "trace", seed, seconds)
    metrics = {}
    for span, row in result["table"].items():
        metrics[f"{span}.calls"] = (row["calls"], "count")
        if span in TIMED_SPANS:
            metrics[f"{span}.self_s"] = (row["self_s"], "s")
            metrics[f"{span}.total_s"] = (row["total_s"], "s")
    for name, value in result["counts"].items():
        metrics[name] = (value, "count")
    for name, value in result["probe"].items():
        metrics[name] = (value, "ms")
    metrics["trace_overhead_frac"] = (result["trace_overhead_frac"], "ratio")
    report = []
    for span, row in result["table"].items():
        report.append((f"{span}.calls", row["calls"], "count", 1))
        if row["calls"]:
            report += [(f"{span}.{key}", row[key], "s", row["calls"])
                       for key in ("self_s", "total_s")]
    report += [(name, value, "count", 1)
               for name, value in result["counts"].items()]
    report += [(name, value, "ms", 1) for name, value in result["probe"].items()]
    report.append(("trace_overhead_frac", result["trace_overhead_frac"],
                   "ratio", result["spans"]))
    if workload == "numeric":
        calls = result["table"]["invariants.quintic_invariants"]["calls"]
        report.append(("quintic_invariants_calls_per_request",
                       calls / result["operations"], "ratio",
                       result["operations"]))
    if workload == "keyprop":
        report += [(f"stage.{stage}", value, "s", 1)
                   for stage, value in result["stages_s"].items()]
        report.append(("stage_sum_frac", result["stage_sum_frac"], "ratio", 1))
    return result, metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True, help="'all' runs the three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        if not run_one(workload, args.seed, args.seconds, args.trace):
            return 1
    return 0


def run_one(workload, seed, seconds, trace) -> bool:
    run = traced_run if trace else timed_run
    try:
        result, metrics, report = run(workload, seed, seconds)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return False
    env = environment(seed, result)
    print(f"# binform benchmark: workload={workload} seed={seed} "
          f"seconds={seconds:g} trace={trace}")
    print("# env " + json.dumps(env))
    for name, value, unit, count in report:
        print(f"# {name:<44} {value:>14.6g} {unit:<6} n={count}")
    for reason in result["reasons"]:
        print(f"# FAILED {reason}")
    path = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps({"env": env, "report": report,
                                "result": result}, indent=1))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return True


if __name__ == "__main__":
    sys.exit(main())
