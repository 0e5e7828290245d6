"""Spans around calls into binform's public functions, from outside the
library.

``Tracer.install`` replaces each traced function at every module binding
that holds it: ``beauville`` does ``from .forms import resultant`` and
``forms`` binds ``det_fraction_free`` by name, so patching the defining
module alone would miss calls.  Methods are replaced on the class, under
every attribute name that holds them (``MPoly.__rmul__`` is
``MPoly.__mul__``).  ``uninstall`` puts the originals back.

Spans (name, start, end, parent) are kept in memory in flat arrays and
written out by ``dump`` when the run ends.  A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (layer, module, qualified name) of every traced public function.
TRACED = (
    ("mpoly", "binform.mpoly", "det_fraction_free"),
    ("mpoly", "binform.mpoly", "MPoly.substitute"),
    ("mpoly", "binform.mpoly", "monic_divrem"),
    ("mpoly", "binform.mpoly", "MPoly.__mul__"),
    ("forms", "binform.forms", "transvectant"),
    ("forms", "binform.forms", "resultant"),
    ("forms", "binform.forms", "discriminant"),
    ("forms", "binform.forms", "act"),
    ("invariants", "binform.invariants", "quintic_invariants"),
    ("beauville", "binform.beauville", "verify_keyprop"),
    ("beauville", "binform.beauville", "beauville_pipeline"),
    ("beauville", "binform.beauville", "build_phi"),
    ("beauville", "binform.beauville", "decompose_in_JKL"),
    ("beauville", "binform.beauville", "beauville_closed_form"),
    ("beauville", "binform.beauville", "equivalence_witness"),
    ("beauville", "binform.beauville", "same_j_data"),
)

SPAN_NAMES = tuple(f"{layer}.{name}" for layer, _, name in TRACED)

# The keyprop stage table: stage -> span whose self time it is.  Spans that
# are no stage (MPoly.__mul__, resultant, verify_keyprop) are left out, so
# the stages need not sum to the whole traced wall time.
STAGES = (
    ("phi", "beauville.build_phi"),
    ("reduction_mod_f", "mpoly.monic_divrem"),
    ("sylvester_det", "mpoly.det_fraction_free"),
    ("zsplit_rehomogenize", "beauville.beauville_pipeline"),
    ("canonical_substitution", "mpoly.MPoly.substitute"),
    ("linear_solve", "beauville.decompose_in_JKL"),
)


def _term_count(value) -> int:
    return len(value)


# Term counts recorded at a boundary: span name -> (counter, what it reads).
COUNTERS = {
    "mpoly.det_fraction_free": (("out_terms", "result"),),
    "mpoly.MPoly.substitute": (("in_terms", "self"), ("out_terms", "result")),
}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {f"{span}.{counter}": 0
                       for span, spec in COUNTERS.items()
                       for counter, _ in spec}
        self._open = []
        self._patches = []

    def _wrap(self, index, span, fn):
        names, parents, starts, ends = (self.name, self.parent, self.start,
                                         self.end)
        stack = self._open
        counters = COUNTERS.get(span, ())
        counts = self.counts

        def traced(*args, **kwargs):
            slot = len(starts)
            names.append(index)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(slot)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[slot] = perf_counter()
                stack.pop()
            for counter, source in counters:
                counts[f"{span}.{counter}"] += _term_count(
                    result if source == "result" else args[0])
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "binform" or n.startswith("binform.")]
        for index, (layer, module_name, qualname) in enumerate(TRACED):
            span = SPAN_NAMES[index]
            owner = sys.modules[module_name]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                holders = [owner]
            else:
                original = getattr(owner, qualname)
                holders = modules
            wrapper = self._wrap(index, span, original)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, attr, original))
                        setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def __len__(self):
        return len(self.start)

    # -- aggregation -------------------------------------------------------

    def _self_times(self):
        duration = [e - s for s, e in zip(self.start, self.end)]
        own = list(duration)
        for slot, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= duration[slot]
        return duration, own

    def table(self) -> dict:
        """Per span name: calls, self_s and total_s.  total_s counts a span
        only when no ancestor has the same name, so recursion is not
        counted twice."""
        duration, own = self._self_times()
        out = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
               for name in SPAN_NAMES}
        for slot, (index, parent) in enumerate(zip(self.name, self.parent)):
            nested = False
            p = parent
            while p >= 0:
                if self.name[p] == index:
                    nested = True
                    break
                p = self.parent[p]
            row = out[SPAN_NAMES[index]]
            row["calls"] += 1
            row["self_s"] += own[slot]
            if not nested:
                row["total_s"] += duration[slot]
        return out

    def stages(self) -> dict:
        """The keyprop stage table: each stage's span self time, in
        seconds."""
        table = self.table()
        return {stage: table[span]["self_s"] for stage, span in STAGES}

    def dump(self, path) -> None:
        """Write every span as name, start, end, parent (start and end in
        seconds from the first span)."""
        origin = self.start[0] if len(self) else 0.0
        with open(path, "w") as fh:
            json.dump({
                "names": SPAN_NAMES,
                "fields": ["name", "start_s", "end_s", "parent"],
                "spans": [[n, round(s - origin, 9), round(e - origin, 9), p]
                          for n, s, e, p in zip(self.name, self.start,
                                                self.end, self.parent)],
            }, fh, separators=(",", ":"))


def wrapper_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Measured seconds one traced call adds over a bare call (best of
    ``repeats`` loops on each side)."""
    def bare():
        return None

    traced = Tracer()._wrap(0, "calibration", bare)
    best = []
    for fn in (bare, traced):
        loops = []
        for _ in range(repeats):
            start = perf_counter()
            for _ in range(calls):
                fn()
            loops.append(perf_counter() - start)
        best.append(min(loops))
    return max(best[1] - best[0], 0.0) / calls
