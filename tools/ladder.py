"""Layer timings of the aggregate on a size ladder of trees, and of the shape poset.

Usage, from the root of a checkout:

    python tools/ladder.py [--quick] [-o FILE]

For each cell (shape, d), shape in {path, star, random} and d in
{10, 100, 1000, 10^4} (--quick: d <= 1000), it times the layers of
`treemrf.mpmrf.aggregate_dist`, of writing its pmf and of the TVaR rows
of every vertex:

    root_s        root_at at the smallest label
    eta_s         the eta pass on that rooting, every law formed and dropped
    q_s           _exponent: the rooting, the eta pass and the sums into Q
    tail_bound_s  _tail_bound, the Chernoff size of the Panjer pass
    panjer_s      _panjer on Q, its own _tail_bound call included
    csv_s         dist_to_csv of the aggregate
    rows_s        every vertex's TVaR row at kappa = .99 as tvar_contribution_table
                  forms them: _exponent keeping the eta laws of its pass, then
                  the reverse pass _h_rows on them (g from the cell's aggregate)

The layers that call _exponent root the tree afresh each time, as every
call did before a tree kept its rooting (Tree.rooted).

For each poset cell, d in {7, 8, 9} (--quick: 7, 8), it times the layers of
`treemrf.poset.build_poset(d)` on the default alpha grid:

    enum_s        enumerate_shapes with its cache cleared
    moves_s       the build up to its closure: the shapes' codes and every
                  move's evaluation (_residual_moves, the H laws, _dominance)
    closure_s     Warshall's closure, the antisymmetry check and the Hasse edges
    twins_s       _assert_distinct_aggregates, the twin check on Q at alpha = 1/2

The last three come from one build, told apart by the times at which it
calls and leaves _transitive_closure and _assert_distinct_aggregates.

A round times every layer of every cell once, cells (the poset's last) and
layers in a fixed order, so the rounds interleave; each value is the median
over the rounds (default 7, --quick 3). The trees are a path and a star hung from vertex 1
and a random recursive tree (vertex i joins a uniform earlier vertex, from a
fixed seed), all at lambda = 0.5, alpha = 0.5 and the default tol. It
imports treemrf from src/ and uses the standard library and numpy only, with
one BLAS thread. The JSON report (default BENCH_layers.json) names the
machine it ran on.

A shared host's speed swings from minute to minute, so every cell is timed
between two readings of the benchmark's reference task
(perfbench/reference.py, imported read-only, as perfbench/run.py does), each
running for reference.SPAN_SHARE of the cell's time from the round before,
at least once. Each layer is reported raw (`panjer_s`) and at the reference
speed (`panjer_ref_s`): its time times reference.speed_scale of the two
readings, per round, then the median.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import deque  # noqa: E402
from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from treemrf import mpmrf, poset, tree_core  # noqa: E402
from treemrf.tree_core import Tree, root_at  # noqa: E402

sys.path.insert(0, str(ROOT / "perfbench"))
_writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # read-only: no __pycache__ there
import reference  # noqa: E402

sys.dont_write_bytecode = _writes

SHAPES = ("path", "star", "random")
SIZES = (10, 100, 1000, 10_000)
QUICK_MAX_D = 1000
LAM, ALPHA, SEED, KAPPA = 0.5, 0.5, 0, 0.99
LAYERS = ("root_s", "eta_s", "q_s", "tail_bound_s", "panjer_s", "csv_s", "rows_s")
REF_LAYERS = tuple(f"{k[:-2]}_ref_s" for k in LAYERS)
POSET_SIZES = (7, 8, 9)
QUICK_MAX_POSET_D = 8
POSET_LAYERS = ("enum_s", "moves_s", "closure_s", "twins_s")
POSET_REF_LAYERS = tuple(f"{k[:-2]}_ref_s" for k in POSET_LAYERS)


def tree_of(shape: str, d: int) -> Tree:
    if shape == "path":
        return Tree.of(d, [(i, i + 1) for i in range(1, d)])
    if shape == "star":
        return Tree.of(d, [(1, i) for i in range(2, d + 1)])
    rng = random.Random(SEED)
    return Tree.of(d, [(rng.randint(1, i - 1), i) for i in range(2, d + 1)])


def clock(fn, *args):
    """(seconds, result) of one call."""
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def unrooted(tree: Tree) -> Tree:
    """tree without the rooting it keeps, so the next _exponent call makes it."""
    tree.__dict__.pop("rooted", None)
    return tree


def tvar_rows(tree: Tree, g: np.ndarray) -> dict:
    eta = {}
    mpmrf._exponent(tree, ALPHA, eta)
    return mpmrf._h_rows(tree.rooted, ALPHA, eta, g)


def time_cell(tree: Tree) -> dict:
    """One timing of every layer of one cell, each on the previous layer's result."""
    tol = mpmrf.DEFAULT_TOL
    times = {}
    times["root_s"], rooted = clock(root_at, tree, tree.vertices[0])
    times["eta_s"], _ = clock(deque, mpmrf._eta(rooted, ALPHA), 0)
    times["q_s"], q = clock(mpmrf._exponent, unrooted(tree), ALPHA)
    times["tail_bound_s"], _ = clock(mpmrf._tail_bound, LAM, q, tol)
    times["panjer_s"], dist = clock(mpmrf._panjer, LAM, q, tol)
    times["csv_s"], _ = clock(mpmrf.dist_to_csv, dist)
    g = mpmrf._tvar_g(dist, [dist.quantile(KAPPA)], tree.d)
    times["rows_s"], _ = clock(tvar_rows, unrooted(tree), g)
    return {"times": times, "j_max": len(q) - 1, "k_max": dist.k_max}


def stamped(fn, stamps: list):
    """fn, appending the clock to stamps as each call starts and ends."""
    def wrapped(*args):
        stamps.append(time.perf_counter())
        out = fn(*args)
        stamps.append(time.perf_counter())
        return out
    return wrapped


def time_poset(d: int) -> dict:
    """One timing of every layer of one poset cell: the enumeration, then one
    build split at the calls of its closure and of its twin check."""
    times = {}
    tree_core._enumerate_shapes_cached.cache_clear()
    times["enum_s"], _ = clock(tree_core.enumerate_shapes, d)
    stamps: list[float] = []
    closure, twins = poset._transitive_closure, poset._assert_distinct_aggregates
    poset._transitive_closure = stamped(closure, stamps)
    poset._assert_distinct_aggregates = stamped(twins, stamps)
    try:
        t0 = time.perf_counter()
        ps = poset.build_poset(d)
        t_end = time.perf_counter()
    finally:
        poset._transitive_closure, poset._assert_distinct_aggregates = closure, twins
    closure_in, _closure_out, twins_in, twins_out = stamps
    times["moves_s"] = closure_in - t0
    times["twins_s"] = twins_out - twins_in
    times["closure_s"] = (t_end - t0) - times["moves_s"] - times["twins_s"]
    return {"times": times, "shapes": len(ps.shapes), "hasse": len(ps.hasse)}


def time_at_ref(timing, span: float) -> dict:
    """timing() between two readings of the reference task, each of
    SPAN_SHARE of span (the cell's time the round before), with the factor
    that turns the cell's times into times at the reference speed."""
    before = reference.reading(reference.SPAN_SHARE * span)
    cell = timing()
    after = reference.reading(reference.SPAN_SHARE * sum(cell["times"].values()))
    cell["scale"] = reference.speed_scale(before, after)
    return cell


def medians(runs: list[dict], layers, ref_layers) -> dict:
    """Each layer's median over the rounds, raw and at the reference speed."""
    row = {k: statistics.median(r["times"][k] for r in runs) for k in layers}
    row.update({ref: statistics.median(r["times"][k] * r["scale"] for r in runs)
                for k, ref in zip(layers, ref_layers)})
    row["speed_scale"] = statistics.median(r["scale"] for r in runs)
    return row


def run(sizes, poset_sizes, rounds: int) -> tuple[list[dict], list[dict]]:
    cells = [((shape, d), partial(time_cell, tree_of(shape, d))) for d in sizes for shape in SHAPES]
    cells += [(("poset", d), partial(time_poset, d)) for d in poset_sizes]
    samples = {key: [] for key, _ in cells}
    for _ in range(rounds):
        for key, timing in cells:
            runs = samples[key]
            span = sum(runs[-1]["times"].values()) if runs else 0.0
            runs.append(time_at_ref(timing, span))
    rows, poset_rows = [], []
    for (shape, d), _ in cells:
        runs = samples[shape, d]
        if shape == "poset":
            row = {"d": d, "shapes": runs[0]["shapes"], "hasse": runs[0]["hasse"]}
            poset_rows.append(row | medians(runs, POSET_LAYERS, POSET_REF_LAYERS))
        else:
            row = {"shape": shape, "d": d, "j_max": runs[0]["j_max"], "k_max": runs[0]["k_max"]}
            rows.append(row | medians(runs, LAYERS, REF_LAYERS))
    return rows, poset_rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help=f"only d <= {QUICK_MAX_D} (posets: d <= {QUICK_MAX_POSET_D}), in 3 rounds")
    ap.add_argument("-o", "--output", default=str(ROOT / "BENCH_layers.json"))
    args = ap.parse_args(argv)
    rounds = 3 if args.quick else 7
    sizes = [d for d in SIZES if not args.quick or d <= QUICK_MAX_D]
    poset_sizes = [d for d in POSET_SIZES if not args.quick or d <= QUICK_MAX_POSET_D]
    rows, poset_rows = run(sizes, poset_sizes, rounds)
    report = {
        "tool": "tools/ladder.py",
        "rounds": rounds,
        "statistic": "median over interleaved rounds, seconds",
        "lambda": LAM, "alpha": ALPHA, "tol": mpmrf.DEFAULT_TOL, "random_tree_seed": SEED,
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "system": platform.system(), "arch": platform.machine(),
                    "cpus": os.cpu_count(), "blas_threads": 1},
        "reference": {"task": "perfbench/reference.py", "ref_seconds": reference.REF_SECONDS,
                      "span_share": reference.SPAN_SHARE,
                      "speed_scale": "median per cell of REF_SECONDS over the task's mean run"},
        "layers": list(LAYERS),
        "ref_layers": list(REF_LAYERS),
        "cells": rows,
        "poset_alpha_grid": list(poset.DEFAULT_ALPHA_GRID),
        "poset_layers": list(POSET_LAYERS),
        "poset_ref_layers": list(POSET_REF_LAYERS),
        "poset_cells": poset_rows,
    }
    Path(args.output).write_text(json.dumps(report, indent=1) + "\n")
    for row in rows:
        print(f"{row['shape']:>6} d={row['d']:<6} K={row['k_max']:<6} scale={row['speed_scale']:.2f} "
              + " ".join(f"{k[:-2]}={row[k] * 1e3:.3f}/{row[ref] * 1e3:.3f}ms"
                         for k, ref in zip(LAYERS, REF_LAYERS)))
    for row in poset_rows:
        print(f" poset d={row['d']:<6} shapes={row['shapes']:<4} scale={row['speed_scale']:.2f} "
              + " ".join(f"{k[:-2]}={row[k] * 1e3:.3f}/{row[ref] * 1e3:.3f}ms"
                         for k, ref in zip(POSET_LAYERS, POSET_REF_LAYERS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
