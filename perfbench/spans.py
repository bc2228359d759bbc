"""Tracing from outside the library: spans around calls into each layer.

`install` wraps every listed public function wherever a treemrf module holds
a reference to it (the defining module, modules that imported it by name,
and the package's re-exports), so nested calls see the caller's span as
their parent. Each span records its name, parent span, job, start and end;
spans stay in memory and are written once at the end. Functions called
tens of thousands of times or more per run keep only an aggregate per
(function, parent): calls, busy time and self time. Self time is a span's
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# The public functions traced, by module of definition: the layers.
TRACED = (
    "tree_core.root_at", "tree_core.path", "tree_core.prune",
    "tree_core.canonical_code", "tree_core.enumerate_shapes",
    "series_poly.mul", "series_poly.affine_thin",
    "mpmrf.h_poly", "mpmrf.aggregate_dist", "mpmrf.cov_with_sum",
    "mpmrf.closeness_indices", "mpmrf.expected_allocation",
    "mpmrf.tvar_contribution_table", "mpmrf.sample",
    "orders.st_compare", "orders.shape_compare",
    "poset.build_poset", "poset.is_lattice", "poset.hasse_dot", "poset.corollary_chain",
    "spectral.spectrum",
    "cli.main",
)
# Aggregate only: called over 1e5 times in one traced pass of some workload
# (mul, affine_thin, st_compare), or over 1e4 times (the rest).
AGGREGATE_ONLY = frozenset({
    "series_poly.mul", "series_poly.affine_thin", "orders.st_compare",
    "tree_core.root_at", "tree_core.path", "tree_core.canonical_code",
    "mpmrf.h_poly",
})


def _count_aggregate(counts, args, result):
    k = len(result.pmf) - 1
    counts["mpmrf.aggregate_dist.k_total"] += k
    counts["mpmrf.aggregate_dist.panjer_terms"] += k * args[0].tree.d


def _count_sample(counts, args, result):
    counts["mpmrf.sample.draws"] += int(result.size)


def _count_moves(counts, args, result):
    # every edge of a d-vertex tree admits d - 2 re-anchoring moves
    d = result.d
    counts["poset.build_poset.moves"] += len(result.reps) * (d - 1) * (d - 2)


HOOKS = {
    "mpmrf.aggregate_dist": _count_aggregate,
    "mpmrf.sample": _count_sample,
    "poset.build_poset": _count_moves,
}
COUNTS = ("mpmrf.aggregate_dist.k_total", "mpmrf.aggregate_dist.panjer_terms",
          "mpmrf.sample.draws", "poset.build_poset.moves")


class Tracer:
    def __init__(self):
        self.stack: list[list] = []       # open spans: [name, span id, child time]
        self.agg: dict[tuple, list] = {}  # (name, parent name) -> [calls, busy, self]
        self.spans: list[tuple] = []      # (id, parent id, name, job, start, end)
        self.counts = dict.fromkeys(COUNTS, 0)
        self.job = -1
        self._next_id = 0

    def wrap(self, name: str, fn):
        keep_spans = name not in AGGREGATE_ONLY
        hook = HOOKS.get(name)
        stack, agg, spans, clock = self.stack, self.agg, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [name, self._next_id, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[2] += dur
                key = (name, parent[0] if parent else None)
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[2]
                if keep_spans:
                    spans.append((frame[1], parent[1] if parent else None, name,
                                  self.job, t0, t1))
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the traced functions in the currently imported treemrf."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "treemrf" or n.startswith("treemrf."))]
        for qual in TRACED:
            mod_name, fn_name = qual.split(".")
            original = getattr(sys.modules.get("treemrf." + mod_name), fn_name, None)
            if original is None:
                continue
            wrapper = self.wrap(qual, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def totals(self, name: str) -> tuple[int, float, float]:
        calls = busy = own = 0
        for (fn, _parent), (c, b, s) in self.agg.items():
            if fn == name:
                calls, busy, own = calls + c, busy + b, own + s
        return calls, busy, own

    def calls_under(self, name: str, parent: str) -> int:
        rec = self.agg.get((name, parent))
        return rec[0] if rec else 0

    def dump(self, path) -> None:
        blob = {
            "spans": [dict(zip(("id", "parent", "name", "job", "start", "end"), s))
                      for s in self.spans],
            "aggregate": [{"name": n, "parent": p, "calls": c, "busy_s": b, "self_s": s}
                          for (n, p), (c, b, s) in sorted(self.agg.items(), key=str)],
            "counts": self.counts,
        }
        with open(path, "w") as fh:
            json.dump(blob, fh)
