"""Running one job under its deadline, and checking what it returned.

A job fails when it exits non-zero, fails its correctness gate or passes its
deadline; a failed job counts in every latency sum at its deadline. The
deadline is a SIGALRM interval timer, so no thread or process is started.
The gates use only the benchmark's own arithmetic and tree code (trees.py),
never the library's computational paths, so a fast wrong answer fails the
job instead of counting as a speed-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import signal
import time
from dataclasses import dataclass

import trees
from workloads import ALPHA_GRID, SHAPE_COUNTS, UNDERFLOW_RATE, Job


class Deadline(BaseException):
    """Raised in the job by SIGALRM. A BaseException, so that no handler in
    the code under test that catches Exception can swallow it."""


def _on_alarm(signum, frame):
    raise Deadline()


@dataclass
class Outcome:
    latency: float          # seconds; the deadline when the job failed
    ok: bool
    wrong: bool             # returned normally with an answer its gate refutes
    reason: str
    bytes_out: int
    elapsed: float          # measured time, even for failed jobs
    scale: float = 1.0      # to the reference speed, from the readings around it

    @property
    def ref_latency(self) -> float:
        """Latency at the reference speed; a failed job stays at its deadline."""
        if not self.ok:
            return self.latency
        return self.latency * self.scale


def _cli(tm, job: Job):
    """Each argv through treemrf.cli.main; returns the exit codes."""
    codes = []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in job.args["argv"]:
            codes.append(tm.cli.main(argv))
    return codes, len(sink.getvalue())


def _closeness(tm, job: Job):
    with open(job.args["model"]) as fh:
        model = tm.MpmrfModel.from_json(json.load(fh))
    return tm.closeness_indices(model), 0


def _chain(tm, job: Job):
    with open(job.args["spec"]) as fh:
        spec = json.load(fh)
    params = dict(spec["params"])
    if "tau" in params:
        params["tau"] = tm.Tree.from_json(params["tau"])
    if spec["kind"] == "ray_tool":
        params["subtrees"] = tuple(tm.Tree.from_json(t) for t in params["subtrees"])
    if spec["kind"] == "beam_balance":
        params["subtrees"] = tuple((k, tm.Tree.from_json(t)) for k, t in params["subtrees"])
    pairs = tm.corollary_chain(spec["kind"], **params)
    verdicts = [[tm.shape_compare(lo, hi, alpha).relation.value for alpha in ALPHA_GRID]
                for lo, hi in pairs]
    return verdicts, 0


def run(tm, job: Job) -> Outcome:
    """Run `job` once against the imported package `tm` and gate its output."""
    runner = _cli if "argv" in job.args else (_closeness if job.kind == "closeness" else _chain)
    for path in job.args.get("outputs", ()):
        if os.path.exists(path):
            os.remove(path)  # so a gate never reads an earlier pass's output
    signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, job.deadline)
            result, stdout_bytes = runner(tm, job)
            elapsed = time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        return Outcome(job.deadline, False, False, _deadline_reason(job), 0,
                       time.perf_counter() - t0)
    except Exception as exc:  # the library raised instead of returning
        return Outcome(job.deadline, False, False, f"raised {exc.__class__.__name__}: {exc}",
                       0, time.perf_counter() - t0)
    bytes_out = stdout_bytes + sum(os.path.getsize(p) for p in job.args.get("outputs", ())
                                   if os.path.exists(p))
    if runner is _cli and any(result):
        return Outcome(job.deadline, False, False, f"exit codes {result}", bytes_out, elapsed)
    try:
        problem = CHECKS[job.kind](job, result)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problem = f"unreadable output: {exc}"
    if problem:
        return Outcome(job.deadline, False, True, f"wrong answer: {problem}", bytes_out, elapsed)
    return Outcome(elapsed, True, False, "", bytes_out, elapsed)


def _deadline_reason(job: Job) -> str:
    base = f"passed its {job.deadline:g} s deadline"
    if job.kind not in ("pmf", "allocate", "mc"):
        return base + " (new finding: no known defect on this path)"
    if job.rate > UNDERFLOW_RATE:
        return base + f" (known: Panjer start exp(-{job.rate:.0f}) underflows, K doubles forever)"
    return base + " (known: pmf rounding floor above tol, K doubles forever)"


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _read_rows(path: str) -> tuple[list[list[str]], dict[str, list[str]]]:
    """CSV body rows (header dropped) and '# name' trailer rows by name."""
    body, trailers = [], {}
    with open(path) as fh:
        next(fh)
        for line in fh:
            cells = line.rstrip("\n").split(",")
            if cells[0].startswith("# "):
                trailers[cells[0][2:]] = cells[1:]
            else:
                body.append(cells)
    return body, trailers


def _cov_with_sum(job: Job, v: int) -> float:
    """Cov(N_v, M) = lambda * sum_j alpha^dist(v, j), by the benchmark's BFS."""
    dist = trees.bfs_dist(trees.adjacency(job.d, job.edges), v)
    return job.lam * sum(job.alpha ** x for x in dist[1:])


def check_pmf(job: Job, _result) -> str | None:
    body, trailers = _read_rows(job.args["outputs"][0])
    ks = [int(k) for k, _ in body]
    ps = [float(p) for _, p in body]
    tail = float(trailers["tail_mass"][0])
    if ks != list(range(len(ks))):
        return "k column is not 0..K"
    if min(ps) < 0.0 or tail < 0.0:
        return "negative probability"
    total = math.fsum(ps) + tail
    if abs(total - 1.0) > 1e-9:
        return f"pmf plus tail sums to {total!r}"
    mean = math.fsum(k * p for k, p in zip(ks, ps))
    if not _close(mean, job.d * job.lam, 1e-6):
        return f"mean {mean!r} != d*lambda {job.d * job.lam!r}"
    return None


def check_allocate(job: Job, _result) -> str | None:
    body, trailers = _read_rows(job.args["outputs"][0])
    if "vertex" in job.args:
        values = [float(x) for _, x in body]
        if min(values) < 0.0:
            return "negative allocation"
        total = math.fsum(values)
        if not _close(total, job.lam, 1e-8):
            return f"table sums to {total!r}, not lambda {job.lam!r}"
        # sum_k k E[N_v 1{M=k}] = E[N_v M] = Cov(N_v, M) + lambda * d * lambda
        moment = math.fsum(k * x for k, x in enumerate(values))
        want = _cov_with_sum(job, job.args["vertex"]) + job.d * job.lam ** 2
        if not _close(moment, want, 1e-6):
            return f"E[N_v M] {moment!r} != {want!r}"
        return None
    rows = {int(r[0]): [float(x) for x in r[1:]] for r in body}
    if sorted(rows) != list(range(1, job.d + 1)):
        return "vertex rows are not 1..d"
    for v, (mean, cov, _c) in rows.items():
        if not _close(mean, job.lam, 1e-12):
            return f"vertex {v} mean {mean!r}"
        want = _cov_with_sum(job, v)
        if not _close(cov, want, 1e-9):
            return f"vertex {v} cov_with_sum {cov!r} != {want!r}"
    sum_mean, _sum_cov, sum_c = (float(x) for x in trailers["sum"])
    tvar = float(trailers["tvar_check"][-1])
    if not _close(sum_mean, job.d * job.lam, 1e-12):
        return f"# sum mean {sum_mean!r} != d*lambda"
    contributions = math.fsum(r[2] for r in rows.values())
    if not (_close(contributions, sum_c, 1e-9) and _close(sum_c, tvar, 1e-6)):
        return f"contributions {contributions!r} / {sum_c!r} != tvar {tvar!r}"
    if tvar < job.d * job.lam - 1e-9:
        return f"tvar {tvar!r} below the mean"
    return None


def check_mc(job: Job, _result) -> str | None:
    with open(job.args["outputs"][0]) as fh:
        report = json.load(fh)
    if report.get("ok") is not True:
        return "report not ok"
    if report["n"] != job.n or report["seed"] != job.args["seed"]:
        return "report is for another n or seed"
    return None


def check_spectral(job: Job, _result) -> str | None:
    with open(job.args["outputs"][0]) as fh:
        report = json.load(fh)
    mu = report["eigenvalues"]
    if len(mu) != job.d:
        return f"{len(mu)} eigenvalues for d={job.d}"
    if abs(math.fsum(mu)) > 1e-8 * job.d:
        return f"trace {math.fsum(mu)!r} != 0"
    sq = math.fsum(x * x for x in mu)
    if abs(sq - 2 * (job.d - 1)) > 1e-8 * job.d:
        return f"sum of squares {sq!r} != 2(d-1)"
    if report["degrees"] != trees.degrees(job.d, job.edges):
        return "degree sequence differs"
    return None


def _dot_graph(path: str) -> tuple[dict[int, list], list[tuple[int, int]]]:
    """Node trees (from their tooltips) and arcs of a Hasse DOT file."""
    nodes, arcs = {}, []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if "->" in line:
                a, b = line.rstrip(";").split(" -> ")
                arcs.append((int(a[1:]), int(b[1:])))
            elif 'tooltip="' in line:
                node = int(line.split(" ", 1)[0][1:])
                tip = line.split('tooltip="', 1)[1].split('"', 1)[0]
                nodes[node] = [tuple(map(int, e.split("-"))) for e in tip.split()]
    return nodes, arcs


def check_poset(job: Job, _result) -> str | None:
    d = job.d
    nodes, arcs = _dot_graph(job.args["prefix"] + ".dot")
    with open(job.args["prefix"] + ".json") as fh:
        blob = json.load(fh)
    if len(nodes) != SHAPE_COUNTS[d] or len(blob["shapes"]) != SHAPE_COUNTS[d]:
        return f"{len(nodes)} shapes, expected {SHAPE_COUNTS[d]}"
    if len({trees.shape_code(d, e) for e in nodes.values()}) != len(nodes):
        return "two nodes hold the same shape"
    minimal = [i for i in nodes if all(b != i for _, b in arcs)]
    maximal = [i for i in nodes if all(a != i for a, _ in arcs)]
    if len(minimal) != 1 or max(trees.degrees(d, nodes[minimal[0]])) != 2:
        return f"minimal shapes {minimal} are not the path alone"
    if len(maximal) != 1 or max(trees.degrees(d, nodes[maximal[0]])) != d - 1:
        return f"maximal shapes {maximal} are not the star alone"
    return None


_REVERSE = {"LE": "GE", "GE": "LE", "EQ": "EQ", "INCOMPARABLE": "INCOMPARABLE"}


def check_compare(job: Job, _result) -> str | None:
    verdicts = []
    for path in job.args["outputs"]:
        with open(path) as fh:
            verdicts.append(json.load(fh)["relation"])
    if _REVERSE[verdicts[0]] != verdicts[1]:
        return f"compare(t1,t2)={verdicts[0]} but compare(t2,t1)={verdicts[1]}"
    return None


def check_closeness(job: Job, result) -> str | None:
    with open(job.args["model"]) as fh:
        obj = json.load(fh)
    adj = trees.adjacency(obj["d"], obj["edges"])
    if sorted(result) != list(range(1, obj["d"] + 1)):
        return "vertices missing"
    for v, c in result.items():
        dist = trees.bfs_dist(adj, v)[1:]
        if c.freeman != sum(dist):
            return f"vertex {v} Freeman {c.freeman} != {sum(dist)}"
        want = math.fsum(obj["alpha"] ** x for x in dist)
        if not _close(c.exp_transform, want, 1e-9):
            return f"vertex {v} exponential closeness {c.exp_transform!r} != {want!r}"
    return None


def check_chain(job: Job, result) -> str | None:
    if not result:
        return "empty chain"
    for i, rels in enumerate(result):
        if any(r != "LE" for r in rels):
            return f"pair {i} verdicts {rels}"
    return None


CHECKS = {
    "pmf": check_pmf,
    "allocate": check_allocate,
    "mc": check_mc,
    "spectral": check_spectral,
    "poset": check_poset,
    "compare": check_compare,
    "closeness": check_closeness,
    "chain": check_chain,
}
