"""Seeded job lists of the three workloads.

Each workload has a fixed structure: one job per cell of its size ladder.
The seed draws every free parameter of a cell inside a narrow stratum around
the cell's anchor, the shapes of random recursive trees, compare pairs, chain
parameters and vertex relabelings. The anchors together span the stated
ranges; keeping each draw near its anchor keeps the cost of a job list, and
which of its jobs hit a known defect, the same from seed to seed, so that
medians taken over seeds compare two versions of the program and not two
draws of inputs. README.md states why each workload exists.

The library only ever sees the JSON files written here.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import trees

# The grid the library's poset and chain checks use by default, restated so
# that the chain gate does not read it from the code under test.
ALPHA_GRID = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)

# The compound-Poisson start exp(-rate) underflows to 0.0 above this rate.
UNDERFLOW_RATE = 745.0


@dataclass
class Job:
    """One closed-loop job: a CLI call (or pair of calls) or a library call."""

    kind: str
    family: str
    d: int
    deadline: float
    lam: float | None = None
    alpha: float | None = None
    n: int | None = None
    edges: list = field(default_factory=list, repr=False)
    args: dict = field(default_factory=dict)

    @property
    def rate(self) -> float | None:
        """Compound-Poisson rate lambda * (d - sum of alphas)."""
        if self.lam is None or self.alpha is None:
            return None
        return self.lam * (self.d - (self.d - 1) * self.alpha)

    def describe(self) -> str:
        parts = [self.kind, self.family, f"d={self.d}"]
        if self.lam is not None:
            parts += [f"lambda={self.lam:.4g}", f"alpha={self.alpha:.4g}",
                      f"rate={self.rate:.4g}"]
        if self.n is not None:
            parts.append(f"n={self.n}")
        for key in ("kappa", "vertex"):
            if key in self.args:
                parts.append(f"{key}={self.args[key]}")
        return " ".join(parts)


def _jitter(rng: random.Random, lam: float, alpha: float) -> tuple[float, float]:
    """A draw in the stratum of an anchor, kept inside [0.05, 2] x [0.1, 0.9]."""
    lam = min(2.0, max(0.05, lam * math.exp(rng.uniform(-0.05, 0.05))))
    alpha = min(0.9, max(0.1, alpha + rng.uniform(-0.02, 0.02)))
    return round(lam, 6), round(alpha, 6)


class _Writer:
    def __init__(self, root: Path):
        self.root = root
        (root / "in").mkdir(parents=True, exist_ok=True)
        (root / "out").mkdir(parents=True, exist_ok=True)
        self.inputs = self.outputs = 0

    def put(self, obj: dict) -> str:
        self.inputs += 1
        name = self.root / "in" / f"{self.inputs:04d}.json"
        with open(name, "w") as fh:
            json.dump(obj, fh)
        return str(name)

    def out(self, suffix: str) -> str:
        self.outputs += 1
        return str(self.root / "out" / f"{self.outputs:04d}{suffix}")


def _model(d: int, edges, lam: float, alpha: float) -> dict:
    return {"d": d, "edges": [list(e) for e in edges], "lambda": lam, "alpha": alpha}


# scale: one pmf job per (family, d) cell of the ladder. Paths stop at 3000
# because the rooted view keeps O(d^2) descendant sets (410 MB at d=3000).
# At d >= 1000 whether the aggregate terminates is chaotic below the
# underflow: the pmf's rounding floor lands within a factor of a few of the
# default tol, above or below it, for a change of lambda in the fourth digit
# or a different random tree. So those cells are fixed inputs (the anchor
# values exactly, random trees from a fixed stream): path 1000 (rate 250)
# and star 1000 (rate 500) are the measured rounding-floor hangs, the other
# two terminate. Cells above rate 745, where exp(-rate) underflows, fail on
# every draw, and cells at d <= 100 terminate on every draw, so those are
# drawn from the seed.
PMF_LADDER = (
    ("path", 10, 2.0, 0.1), ("path", 100, 0.05, 0.9),
    ("path", 1000, 0.5, 0.5), ("path", 3000, 0.1, 0.9),
    ("star", 10, 0.5, 0.5), ("star", 100, 2.0, 0.5),
    ("star", 1000, 1.0, 0.5), ("star", 3000, 0.05, 0.9),
    ("star", 10000, 1.0, 0.5),
    ("random", 10, 1.0, 0.9), ("random", 100, 0.5, 0.3),
    ("random", 1000, 0.3, 0.1), ("random", 3000, 0.3, 0.9),
    ("random", 10000, 0.2, 0.5),
)
# (family, d, lambda, alpha, n) of the Monte Carlo jobs. `treemrf mc` exits 4
# when any of its 2d + 1 three-sigma checks misses, which a correct sampler
# does with probability about 0.27% per check; small d keeps those false
# alarms rare (about 1 seed in 10 over these three jobs) without hiding them.
MC_JOBS = (
    ("path", 4, 1.0, 0.5, 1_000_000),
    ("star", 6, 2.0, 0.3, 750_000),
    ("random", 8, 0.5, 0.7, 500_000),
)


def _pmf_deadline(d: int) -> float:
    # about five times what a terminating aggregate needs at this size
    return 2.0 if d <= 1000 else 5.0


def _mc_deadline(n: int, d: int) -> float:
    # about four times the sampler's cost at the seed
    return max(2.0, 4e-7 * n * d)


def scale(rng: random.Random, w: _Writer) -> list[Job]:
    jobs = []
    for family, d, lam0, alpha0 in PMF_LADDER:
        if d >= 1000 and lam0 * (d - (d - 1) * alpha0) <= UNDERFLOW_RATE:
            lam, alpha = lam0, alpha0
            edges = trees.family_edges(family, d, random.Random(f"fixed:{family}:{d}"))
        else:
            lam, alpha = _jitter(rng, lam0, alpha0)
            edges = trees.family_edges(family, d, rng)
        model = w.put(_model(d, edges, lam, alpha))
        out = w.out(".csv")
        jobs.append(Job("pmf", family, d, _pmf_deadline(d), lam, alpha,
                        args={"argv": [["pmf", "--model", model, "-o", out]],
                              "outputs": [out]}))
    for family, d, lam0, alpha0, n0 in MC_JOBS:
        lam, alpha = _jitter(rng, lam0, alpha0)
        n = int(n0 * rng.uniform(0.95, 1.05))
        edges = trees.family_edges(family, d, rng)
        model = w.put(_model(d, edges, lam, alpha))
        out = w.out(".json")
        seed = rng.randrange(2**31)
        jobs.append(Job("mc", family, d, _mc_deadline(n, d), lam, alpha, n=n,
                        args={"argv": [["mc", "--model", model, "--n", str(n),
                                        "--seed", str(seed), "-o", out]],
                              "outputs": [out], "seed": seed}))
    return jobs


# risk: (family, d, lambda, alpha, jobs) cells. The jobs of a cell are
# drawn from allocate --kappa, allocate --table, spectral and
# closeness_indices. The host's speed swings by a third within seconds, so a
# run needs many short passes for its medians to hold: the list is kept near
# 6 s a pass. One d=100 cell (a random tree, as in the ROADMAP baseline) is
# as large as that allows, with its two allocate jobs only: the per-vertex
# paths cost O(d^3), and closeness and spectral would add 2 s and 3 s.
ALL_RISK_JOBS = ("kappa", "table", "spectral", "closeness")
RISK_CELLS = (
    ("path", 25, 2.0, 0.1, ALL_RISK_JOBS), ("path", 50, 0.5, 0.5, ALL_RISK_JOBS),
    ("star", 25, 0.05, 0.9, ALL_RISK_JOBS), ("star", 50, 1.0, 0.3, ALL_RISK_JOBS),
    ("random", 25, 0.5, 0.7, ALL_RISK_JOBS), ("random", 50, 2.0, 0.9, ALL_RISK_JOBS),
    ("random", 100, 1.0, 0.5, ("kappa", "table")),
)


def risk(rng: random.Random, w: _Writer) -> list[Job]:
    jobs = []
    for family, d, lam0, alpha0, kinds in RISK_CELLS:
        lam, alpha = _jitter(rng, lam0, alpha0)
        # The Jacobi solver's sweep count, and with it the cost of spectral,
        # doubles between some random trees at d=50; the cost of the path
        # calls varies too. The random trees at d >= 50 are fixed.
        tree_rng = random.Random(f"fixed:{family}:{d}") if d >= 50 else rng
        edges = trees.family_edges(family, d, tree_rng)
        model = w.put(_model(d, edges, lam, alpha))

        def job(kind, deadline, **args):
            jobs.append(Job(kind, family, d, deadline, lam, alpha, edges=edges, args=args))

        # every draw is made, so a cell's draws do not depend on its jobs
        kappa = round(rng.uniform(0.9, 0.99), 4)
        vertex = rng.randint(1, d)
        if "kappa" in kinds:
            out = w.out("-kappa.csv")
            job("allocate", 30.0, kappa=kappa, outputs=[out],
                argv=[["allocate", "--model", model, "--kappa", str(kappa), "-o", out]])
        if "table" in kinds:
            out = w.out("-table.csv")
            job("allocate", 10.0, vertex=vertex, outputs=[out],
                argv=[["allocate", "--model", model, "--table", str(vertex), "-o", out]])
        if "spectral" in kinds:
            out = w.out("-spectral.json")
            job("spectral", 30.0, outputs=[out],
                argv=[["spectral", "--model", model, "-o", out]])
        if "closeness" in kinds:
            job("closeness", 30.0, model=model)
    return jobs


POSET_DS = (4, 5, 6, 7, 8, 9)
SHAPE_COUNTS = {4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}
SINGLE_MOVE_DS = (6, 8, 10, 12, 14, 16)
MULTI_MOVE_DS = (7, 8, 9)


def _single_move(rng: random.Random, d: int) -> tuple[list, list]:
    """A random tree and the tree one re-anchoring move away from it."""
    edges = trees.random_recursive_edges(d, rng)
    while True:
        u, v = rng.choice(edges)
        if rng.random() < 0.5:
            u, v = v, u
        rest = [e for e in edges if e != tuple(sorted((u, v)))]
        side = trees.bfs_dist(trees.adjacency(d, rest), u)
        targets = [x for x in range(1, d + 1) if side[x] < 0 and x != v]
        if targets:
            w_ = rng.choice(targets)
            return edges, rest + [tuple(sorted((u, w_)))]


def _multi_move(rng: random.Random, d: int) -> tuple[list, list]:
    """Two trees on the same labels whose edge sets differ in two or more edges."""
    a = trees.random_recursive_edges(d, rng)
    while True:
        b = trees.random_recursive_edges(d, rng)
        if len({tuple(sorted(e)) for e in a} ^ {tuple(sorted(e)) for e in b}) >= 4:
            return a, b


def _random_subtree(rng: random.Random, lo: int, hi: int) -> dict:
    m = rng.randint(lo, hi)
    return {"d": m, "edges": [list(e) for e in trees.random_recursive_edges(m, rng)]}


def _chain_params(rng: random.Random) -> list[tuple[str, dict, int]]:
    """(kind, parameters, largest d) for each chain kind, every tree at d <= 15."""
    sub = lambda lo, hi: _random_subtree(rng, lo, hi)  # noqa: E731
    ray_subs = [sub(1, 3) for _ in range(rng.randint(1, 2))]
    d_ray = rng.randint(6, 8)
    d_se, tau = rng.randint(8, 10), sub(3, 5)
    d_beam, d_beam_ray, beam_sub = rng.randint(4, 5), rng.randint(4, 5), sub(1, 2)
    star_d = rng.randint(13, 15)
    return [
        ("star_to_series", {"d": star_d}, star_d),
        ("ray_tool", {"d_ray": d_ray, "subtrees": ray_subs},
         d_ray + 1 + sum(t["d"] for t in ray_subs)),
        ("series_slide", {"d_se": d_se, "tau": tau}, d_se + tau["d"]),
        # a subtree at beam position 2 is mirrored onto position d_beam - 1
        ("beam_balance", {"d_beam": d_beam, "d_ray": d_beam_ray, "subtrees": [[2, beam_sub]]},
         d_beam + d_beam_ray + 2 * beam_sub["d"]),
    ]


def poset(rng: random.Random, w: _Writer) -> list[Job]:
    jobs = []
    for d in POSET_DS:
        prefix = w.out(f"-poset{d}")
        jobs.append(Job("poset", "all", d, 60.0, args={
            "argv": [["poset", "--d", str(d), "-o", prefix]],
            "outputs": [prefix + ".dot", prefix + ".json"], "prefix": prefix}))

    def compare(family, d, pair, lam, alpha, deadline):
        a, b = pair
        ma = w.put(_model(d, a, lam, alpha))
        mb = w.put(_model(d, b, lam, alpha))
        oa, ob = w.out("-ab.json"), w.out("-ba.json")
        jobs.append(Job("compare", family, d, deadline, lam, alpha, args={
            "outputs": [oa, ob],
            "argv": [["compare", "--model", ma, mb, "-o", oa],
                     ["compare", "--model", mb, ma, "-o", ob]]}))

    for d in SINGLE_MOVE_DS:
        lam, alpha = _jitter(rng, 1.0, 0.5)
        compare("single-move", d, _single_move(rng, d), lam, alpha, 10.0)
    for d in MULTI_MOVE_DS:
        lam, alpha = _jitter(rng, 1.0, 0.5)
        compare("multi-move", d, _multi_move(rng, d), lam, alpha, 60.0)

    for kind, params, d in _chain_params(rng):
        spec = w.put({"kind": kind, "params": params})
        jobs.append(Job("chain", kind, d, 30.0, args={"spec": spec}))

    for d, shapes in trees.free_trees(9).items():
        for edges in shapes:
            labels = list(range(1, d + 1))
            rng.shuffle(labels)
            relabeled = trees.relabel(edges, dict(zip(range(1, d + 1), labels)))
            tree = w.put({"d": d, "edges": [list(e) for e in relabeled]})
            out = w.out(".json")
            jobs.append(Job("spectral", "shape", d, 10.0, edges=relabeled, args={
                "outputs": [out], "argv": [["spectral", "--model", tree, "-o", out]]}))
    return jobs


WORKLOADS = {"scale": scale, "risk": risk, "poset": poset}


def build(name: str, seed: int, root: Path) -> list[Job]:
    """Write the inputs of workload `name` under `root` and return its jobs."""
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name](rng, _Writer(root))
