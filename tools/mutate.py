"""Mutation sampler: how many small faults in chosen functions does tier-1
catch?

    python tools/mutate.py --seed 1 --count 20 mpoly:_monomials \\
        invariants:_scaled_quartic mpoly:MPoly.substitute

Each function is named as module:qualname, the module under src/binform.
Its mutation sites are the comparison swaps (== and !=, < and <=, > and
>=), the + and - and the * and // swaps, augmented assignments included,
and each int constant plus one.  A seeded sample of --count sites is
taken.  Each mutant is written into a scratch copy of src/ and tests/,
never into the working tree, and tier-1 runs on it with -x under a limit
of --timeout seconds and of MEMORY_MB of address space: the mutant is
killed when tier-1 fails, survives when it passes, and is timed out past
the time limit.  Tests that already fail
on the unmutated copy are deselected first.  The sampler is a tool, run by
hand on the functions a change touches; tier-1 and CI do not run it.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "binform"
MEMORY_MB = 2048    # address space for each process of a mutant's run
# operator type -> (as written, as mutated)
SWAPS = {
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"),
    ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"),
    ast.Mult: ("*", "//"), ast.FloorDiv: ("//", "*"),
}


def find_function(tree: ast.Module, qualname: str) -> ast.AST:
    node = tree
    for name in qualname.split("."):
        node = next((n for n in node.body
                     if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                     and n.name == name), None)
        if node is None:
            raise SystemExit(f"no function {qualname!r}")
    return node


def sites(spec: str) -> list:
    """The mutation sites of one function as (spec, line:column, start,
    end, old, new): the bytes start..end of the module's source read old,
    and the mutant has new there."""
    module, _, qualname = spec.partition(":")
    source = (ROOT / PACKAGE / f"{module}.py").read_bytes()
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(line, col):  # ast columns count UTF-8 bytes
        return starts[line - 1] + col

    def where(lo):
        line = next(i for i, s in enumerate(starts) if s > lo)
        return f"{line}:{lo - starts[line - 1] + 1}"

    found = []

    def gap(left, right, old, new):
        # the operator between two operands, with only blanks, parentheses
        # and line continuations around it
        lo = offset(left.end_lineno, left.end_col_offset)
        hi = offset(right.lineno, right.col_offset)
        text = source[lo:hi].decode()
        match = re.fullmatch(r"[\s()\\]*(%s)[\s()\\]*" % re.escape(old), text)
        if match:
            found.append((spec, where(lo + match.start(1)),
                          lo + match.start(1), lo + match.end(1), old, new))

    for node in ast.walk(find_function(ast.parse(source), qualname)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    gap(operands[i], operands[i + 1], *SWAPS[type(op)])
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            gap(node.left, node.right, *SWAPS[type(node.op)])
        elif isinstance(node, ast.AugAssign) and type(node.op) in SWAPS:
            old, new = SWAPS[type(node.op)]
            gap(node.target, node.value, old + "=", new + "=")
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            lo = offset(node.lineno, node.col_offset)
            hi = offset(node.end_lineno, node.end_col_offset)
            found.append((spec, where(lo), lo, hi,
                          source[lo:hi].decode(), str(node.value + 1)))
    return sorted(found, key=lambda s: s[2])


def tier1(copy: Path, extra: list, timeout: float):
    """Run tier-1 in the copy, each process in at most MEMORY_MB of address
    space: (exit code or None past the time limit, output)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    limit = MEMORY_MB << 20

    def bound():    # a mutant that allocates without end fails instead
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", *extra],
        cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True, preexec_fn=bound)
    out = None
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        pass
    finally:
        # past the limit, or interrupted: end the run, the CLI tests'
        # children too, as it has a session of its own
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    return (None, "") if out is None else (proc.returncode, out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Sample mutants of chosen functions and run tier-1 on"
                    " each, in a scratch copy.")
    parser.add_argument("functions", nargs="+",
                        help="module:qualname, e.g. mpoly:MPoly.substitute")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("--timeout", type=float, default=600,
                        help="seconds allowed for each mutant's tier-1 run")
    args = parser.parse_args(argv)

    every = [s for spec in args.functions for s in sites(spec)]
    count = min(args.count, len(every))
    sample = random.Random(args.seed).sample(every, count)
    print(f"{len(every)} sites in {len(args.functions)} functions;"
          f" seed {args.seed}, {len(sample)} sampled", flush=True)

    copy = Path(tempfile.mkdtemp(prefix="mutate-"))
    try:
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=skip)
        code, out = tier1(copy, [], args.timeout)
        if code is None:
            raise SystemExit("the unmutated copy ran past the limit")
        failing = re.findall(r"^FAILED (\S+)", out, re.M)
        deselect = [f"--deselect={test}" for test in failing]
        print(f"unmutated: exit {code}, deselected {failing or 'none'}",
              flush=True)
        tally = {"killed": 0, "survived": 0, "timed out": 0}
        for spec, line, lo, hi, old, new in sample:
            path = copy / PACKAGE / f"{spec.partition(':')[0]}.py"
            original = path.read_bytes()
            path.write_bytes(original[:lo] + new.encode() + original[hi:])
            start = time.perf_counter()
            code, _ = tier1(copy, ["-x", *deselect], args.timeout)
            path.write_bytes(original)
            verdict = ("timed out" if code is None
                       else "survived" if code == 0 else "killed")
            tally[verdict] += 1
            print(f"{verdict:9}  {spec} line {line}: {old!r} -> {new!r}"
                  f"  ({time.perf_counter() - start:.1f} s)", flush=True)
        print(", ".join(f"{n} {verdict}" for verdict, n in tally.items()))
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
