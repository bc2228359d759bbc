"""Seeded benchmark of treemrf: CLI job times end to end, traced layers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scale|risk|poset --seed N \
        --seconds S --trace 0|1

One client runs the workload's job list in a closed loop, one job at a time,
in this process. Every pass over the list starts from a fresh import of
treemrf, so its caches start cold. Passes repeat while another one fits in
--seconds. A job that failed once is not run again in that process: it
counts at its deadline in every pass, since repeating a hang measures
nothing new. A job's latency is its median over passes, and a latency
metric sums those medians. The reference task (reference.py) is timed
between every two jobs and every two set-ups; the gated metrics give each
time at the reference speed, scaled by the reference's speed around it.
With --trace 1 one untraced pass is followed by one traced pass of every
job, and the per-layer metrics come from the traced one. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics. See README.md.
"""

from __future__ import annotations

import os

# One process, one BLAS/OpenMP thread: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 15
KINDS = ("pmf", "allocate", "mc", "spectral", "poset", "compare", "closeness", "chain")


def drop_treemrf() -> None:
    """Forget any earlier import of treemrf, and with it all its caches."""
    for name in [n for n in sys.modules if n == "treemrf" or n.startswith("treemrf.")]:
        del sys.modules[name]
    gc.collect()


def import_treemrf():
    tm = importlib.import_module("treemrf")
    importlib.import_module("treemrf.cli")
    return tm


def set_up(workload: str, seed: int, work: Path):
    """Import plus input generation, timed SETUP_REPEATS times between two
    runs of the reference task; the medians as measured and at the
    reference speed."""
    times, ref_times = [], []
    before = reference.reading()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        drop_treemrf()
        t0 = time.perf_counter()
        import_treemrf()
        job_list = workloads.build(workload, seed, work)
        times.append(time.perf_counter() - t0)
        after = reference.reading()
        ref_times.append(times[-1] * reference.speed_scale(before, after))
        before = after
    return job_list, statistics.median(times), statistics.median(ref_times)


def run_pass(job_list, first=None, tracer=None) -> list:
    """Outcomes of one pass; jobs that failed in `first` keep that outcome.

    The reference task runs between every two jobs, for SPAN_SHARE of the
    longer of the two: the one that just ran, and the next one as `first`
    measured it.
    """
    drop_treemrf()
    tm = import_treemrf()
    if tracer is not None:
        tracer.install()

    def span(i):
        if first is None or i >= len(job_list) or not first[i].ok:
            return 0.0
        return first[i].elapsed

    outcomes = []
    before = reference.reading(reference.SPAN_SHARE * span(0))
    for i, job in enumerate(job_list):
        if first is not None and not first[i].ok:
            outcomes.append(first[i])
            continue
        if tracer is not None:
            tracer.job = i
        out = jobs.run(tm, job)
        ran = out.elapsed if out.ok else 0.0
        after = reference.reading(reference.SPAN_SHARE * max(ran, span(i + 1)))
        out.scale = reference.speed_scale(before, after)
        before = after
        outcomes.append(out)
    return outcomes


def latency_sums(job_list, passes, attr="latency") -> dict:
    """Per kind and in all, the sum over jobs of each job's median latency,
    as measured or (attr="ref_latency") at the reference speed."""
    sums = dict.fromkeys(KINDS + ("wall",), 0.0)
    for i, job in enumerate(job_list):
        median = statistics.median(getattr(outs[i], attr) for outs in passes)
        sums[job.kind] += median
        sums["wall"] += median
    return sums


def layer_metrics(tracer, untraced, traced) -> dict:
    from spans import TRACED
    m = {}
    for name in TRACED:
        calls, busy, own = tracer.totals(name)
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.busy_s"] = (busy, "s")
        m[f"{name}.self_s"] = (own, "s")
    for name, value in tracer.counts.items():
        m[name] = (value, "count")
    base = 2 * tracer.calls_under("orders.st_compare", "poset.build_poset")
    h_calls = tracer.calls_under("mpmrf.h_poly", "poset.build_poset")
    m["poset.h_cache_hit_ratio"] = (1.0 - h_calls / base if base else 0.0, "ratio")
    m["poset.h_cache_hit_ratio.base"] = (base, "count")
    m["cli.main.bytes_out"] = (sum(o.bytes_out for o in traced), "B")
    # compare only jobs that returned in both passes
    both = [(a.elapsed, b.elapsed) for a, b in zip(untraced, traced) if a.ok and b.ok]
    plain = sum(a for a, _ in both)
    m["trace.overhead_frac"] = (sum(b for _, b in both) / plain - 1.0 if plain else 0.0,
                                "ratio")
    return m


def failures(job_list, passes) -> list:
    """(job, outcome) of each job's first failure."""
    out = []
    for i, job in enumerate(job_list):
        bad = [outs[i] for outs in passes if not outs[i].ok]
        if bad:
            out.append((job, bad[0]))
    return out


def report(workload, seed, job_list, passes, setup_s, setup_ref_s) -> None:
    """Human-readable lines; the JSON result line follows them."""
    sums = latency_sums(job_list, passes)
    ref_sums = latency_sums(job_list, passes, "ref_latency")
    failed = failures(job_list, passes)
    scales = [o.scale for outs in passes for o in outs if o.ok]
    print(f"# treemrf benchmark  workload={workload} seed={seed} passes={len(passes)} "
          f"jobs={len(job_list)} setup_s={setup_s:.4f} measured, "
          f"{setup_ref_s:.4f} at ref speed")
    if scales:
        print(f"# reference task: {reference.REF_SECONDS * 1e3:.2f} ms at the reference "
              f"speed, {reference.REF_SECONDS / statistics.median(scales) * 1e3:.2f} ms "
              f"(median) around the jobs")
    print(f"#   {'':<12} {'measured':>10}     {'at ref speed':>12}")
    for kind in KINDS + ("wall",):
        n = sum(1 for j in job_list if j.kind == kind or kind == "wall")
        if n:
            print(f"#   {kind + '_s':<12} {sums[kind]:10.4f} s   {ref_sums[kind]:10.4f} s"
                  f"   (sum of {n} job medians)")
    print(f"#   failed_frac  {len(failed) / len(job_list):10.4f}     "
          f"({len(failed)} failed / {len(job_list)} attempted)")
    for i, job in enumerate(job_list):
        lat = statistics.median(outs[i].latency for outs in passes)
        ref_lat = statistics.median(outs[i].ref_latency for outs in passes)
        ok = all(outs[i].ok for outs in passes)
        print(f"#   job {lat:9.4f} s {ref_lat:9.4f} s  {'ok    ' if ok else 'FAILED'}  "
              f"{job.describe()}")
    for job, out in failed:
        print(f"# FAILED {job.describe()}: {out.reason}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("scale", "risk", "poset"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "treemrf" / "__init__.py").is_file():
        print(f"error: no treemrf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # every import of treemrf compiles its sources, whatever the environment
    sys.dont_write_bytecode = True
    import numpy  # noqa: F401  (the environment, not part of set-up time)

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        job_list, setup_s, setup_ref_s = set_up(args.workload, args.seed, work)
        passes = []
        tracer = None
        t_start = time.perf_counter()
        while True:
            t_pass = time.perf_counter()
            passes.append(run_pass(job_list, passes[0] if passes else None))
            # the next pass re-runs only the jobs that returned
            upcoming = time.perf_counter() - t_pass
            if len(passes) == 1:
                upcoming -= sum(o.elapsed for o in passes[0] if not o.ok)
            if args.trace or time.perf_counter() - t_start + upcoming > args.seconds:
                break
        if args.trace:
            from spans import Tracer
            tracer = Tracer()
            traced = run_pass(job_list, tracer=tracer)
            out_dir = HERE / "_out"
            out_dir.mkdir(exist_ok=True)
            tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report(args.workload, args.seed, job_list, passes, setup_s, setup_ref_s)
    correct = not any(o.wrong for outs in passes for o in outs)
    if args.trace:
        metrics = layer_metrics(tracer, passes[0], traced)
        correct = correct and not any(o.wrong for o in traced)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (setup_ref_s, "s"),
            "wall_ref_s": (latency_sums(job_list, passes, "ref_latency")["wall"], "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    print(json.dumps({
        "correct": correct, "attempted": len(job_list),
        "failed": len(failures(job_list, passes)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    import jobs  # noqa: E402
    import reference  # noqa: E402
    import workloads  # noqa: E402
    sys.exit(main())
