"""Per-layer spans around stabscape's public functions, installed from outside.

The tracer replaces each traced function with a timing wrapper in three
places: the defining module, every stabscape module that imported the name
directly (``from .x import f``), and the class for methods.  Spans stay in
memory as ``(name, parent, start, end)`` with ``parent`` the index of the
enclosing span (-1 at top level); counts taken from arguments and results
are summed by name.  ``lattice`` gets no spans: its helpers run about a
million times per job, so wrapping them would distort the trace, and their
cost shows in the callers' self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from importlib import import_module


def _search_counts(args, result):
    counts = {"states": result.states_visited}
    if result.status == "budget_exhausted":
        counts["ruled_out"] = result.ruled_out
    return counts


# (module, attribute, span name, counts from (args, result))
FUNCTIONS = [
    ("cli", "main", "cli", None),
    ("reports", "emit", "reports.emit", lambda a, r: {"bytes": sum(p.stat().st_size for p in r)}),
    ("codes", "get_code", "codes.get_code", None),
    ("gf2", "gf2_solve", "gf2.gf2_solve", None),
    ("gf2", "nullspace", "gf2.nullspace", None),
    ("paths", "pyramid_path", "paths.pyramid_path", lambda a, r: {"steps": len(r)}),
    ("paths", "pyramid_operator", "paths.pyramid_operator", None),
    ("paths", "energy_profile", "paths.energy_profile", lambda a, r: {"steps": len(r.counts) - 1}),
    ("rg", "syndrome_history", "rg.syndrome_history", lambda a, r: {"steps": r.T}),
    ("rg", "level_histories", "rg.level_histories", None),
    ("rg", "track_charged_clusters", "rg.track_charged_clusters", None),
    ("rg", "box_counting_dimension", "rg.box_counting_dimension", None),
    ("defects", "cluster_partition", "defects.cluster_partition",
     lambda a, r: {"cubes": sum(len(c) for c in r.clusters)}),
    ("defects", "min_dense_run", "defects.min_dense_run", None),
    ("defects", "is_neutral", "defects.is_neutral", lambda a, r: {"placements": r.placements_tried}),
    ("defects", "scan_for_strings", "defects.scan_for_strings",
     lambda a, r: {"pairs": r.pairs_scanned, "patterns": r.patterns_tested}),
    ("oracle", "min_barrier_logical", "oracle.search", _search_counts),
    ("oracle", "min_barrier_cluster", "oracle.search", _search_counts),
    ("oracle", "coset_space", "oracle.coset_space", None),
    ("oracle", "code_distance", "oracle.code_distance", lambda a, r: {"elements": r.elements_enumerated}),
]

# (module, class, method, span name, counts); args[0] is self (or cls)
METHODS = [
    ("codes", "CodeInstance", "syndrome_of", "codes.syndrome_of", lambda a, r: {"terms": a[1].weight}),
    ("codes", "CodeInstance", "stabilizer_rref", "codes.stabilizer_rref", None),
    ("gf2", "BitMatrix", "rref", "gf2.rref", lambda a, r: {"bits": a[0].nrows * a[0].ncols}),
    ("pauli", "PauliOperator", "from_terms", "pauli.from_terms", None),
]

# Counters that record a frontier rather than an amount of work: the
# largest value seen, not a sum.
MAX_COUNTERS = {"oracle.search.ruled_out"}

# Per-layer metrics as (name, unit, better).  Times and counts are per round
# of the workload's job list, so runs of different length compare directly.
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("reports.emit.busy_s", "s", "lower"),
    ("reports.emit.bytes", "B", "lower"),
    ("codes.get_code.calls", "count", "lower"),
    ("codes.get_code.busy_s", "s", "lower"),
    ("codes.syndrome_of.calls", "count", "lower"),
    ("codes.syndrome_of.busy_s", "s", "lower"),
    ("codes.syndrome_of.terms", "count", "lower"),
    ("codes.stabilizer_rref.busy_s", "s", "lower"),
    ("gf2.rref.calls", "count", "lower"),
    ("gf2.rref.busy_s", "s", "lower"),
    ("gf2.rref.bits", "count", "lower"),
    ("gf2.gf2_solve.calls", "count", "lower"),
    ("gf2.gf2_solve.busy_s", "s", "lower"),
    ("gf2.nullspace.busy_s", "s", "lower"),
    ("paths.pyramid_path.busy_s", "s", "lower"),
    ("paths.pyramid_path.steps", "count", "lower"),
    ("paths.energy_profile.busy_s", "s", "lower"),
    ("paths.energy_profile.steps", "count", "lower"),
    ("paths.steps_per_s", "1/s", "higher"),
    ("paths.pyramid_operator.busy_s", "s", "lower"),
    ("rg.syndrome_history.busy_s", "s", "lower"),
    ("rg.syndrome_history.steps", "count", "lower"),
    ("rg.level_histories.self_s", "s", "lower"),
    ("rg.track_charged_clusters.busy_s", "s", "lower"),
    ("rg.box_counting_dimension.busy_s", "s", "lower"),
    ("pauli.from_terms.calls", "count", "lower"),
    ("pauli.from_terms.busy_s", "s", "lower"),
    ("defects.cluster_partition.calls", "count", "lower"),
    ("defects.cluster_partition.busy_s", "s", "lower"),
    ("defects.cluster_partition.cubes", "count", "lower"),
    ("defects.min_dense_run.calls", "count", "lower"),
    ("defects.is_neutral.calls", "count", "lower"),
    ("defects.is_neutral.busy_s", "s", "lower"),
    ("defects.is_neutral.placements", "count", "lower"),
    ("defects.scan_for_strings.self_s", "s", "lower"),
    ("defects.scan_for_strings.pairs", "count", "lower"),
    ("defects.scan_for_strings.patterns", "count", "lower"),
    ("oracle.search.busy_s", "s", "lower"),
    ("oracle.states", "count", "lower"),
    ("oracle.states_per_s", "1/s", "higher"),
    ("oracle.ruled_out", "count", "higher"),
    ("oracle.coset_space.busy_s", "s", "lower"),
    ("oracle.code_distance.busy_s", "s", "lower"),
    ("oracle.code_distance.elements", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, parent, start, end)
            if count is not None:
                for key, v in count(args, result).items():
                    full = f"{name}.{key}"
                    counts[full] = max(counts[full], v) if full in MAX_COUNTERS else counts[full] + v
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every traced name for its wrapper; restore on exit."""
        undo: list[tuple[object, str, object]] = []
        modules = [m for n, m in list(sys.modules.items()) if n == "stabscape" or n.startswith("stabscape.")]

        def swap(owner, attr, new):
            undo.append((owner, attr, getattr(owner, attr) if not isinstance(owner, type) else owner.__dict__[attr]))
            setattr(owner, attr, new)

        try:
            for mod_name, attr, name, count in FUNCTIONS:
                original = getattr(import_module(f"stabscape.{mod_name}"), attr)
                wrapper = self.wrap(name, original, count)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            swap(mod, key, wrapper)
            for mod_name, cls_name, attr, name, count in METHODS:
                cls = getattr(import_module(f"stabscape.{mod_name}"), cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    swap(cls, attr, classmethod(self.wrap(name, original.__func__, count)))
                else:
                    swap(cls, attr, self.wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def summary(self) -> dict[str, float]:
        """Totals by span name: ``calls``, ``busy_s`` (outermost span of a
        name, so recursion is not double counted), ``self_s`` (span time not
        covered by child spans), plus the argument and result counts."""
        out: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, parent, start, end) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - child_time[i]
            if not self._has_ancestor_named(parent, name):
                out[f"{name}.busy_s"] += end - start
        out.update(self.counts)
        return out

    def _has_ancestor_named(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def per_layer_metrics(totals: dict[str, float], rounds: int, overhead_frac: float) -> dict[str, float]:
    """The PER_LAYER values from a traced batch of ``rounds`` rounds."""
    per_round = {k: v / rounds for k, v in totals.items()}
    walk_s = per_round.get("paths.energy_profile.busy_s", 0.0)
    search_s = per_round.get("oracle.search.busy_s", 0.0)
    derived = {
        "paths.steps_per_s": per_round.get("paths.energy_profile.steps", 0.0) / walk_s if walk_s else 0.0,
        "oracle.states": per_round.get("oracle.search.states", 0.0),
        "oracle.states_per_s": per_round.get("oracle.search.states", 0.0) / search_s if search_s else 0.0,
        "oracle.ruled_out": totals.get("oracle.search.ruled_out", 0.0),
        "trace.overhead_frac": overhead_frac,
    }
    return {name: derived.get(name, per_round.get(name, 0.0)) for name, _, _ in PER_LAYER}
