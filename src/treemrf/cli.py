"""Command-line front end.

Subcommands: pmf, allocate, compare, poset, mc, spectral. Exit codes:
0 ok, 2 usage, 3 bad input, 4 numerical tolerance failure. Identical
arguments and seed give byte-identical outputs.

An optional --config JSON file supplies defaults for any long flag
(keys named like the flags: model, tol, seed, n, kappa, d, lambda,
alpha_grid, output, format); explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from dataclasses import dataclass

import numpy as np

from . import mpmrf, orders, poset as poset_mod, spectral, tree_core
from .mpmrf import ToleranceError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_TOLERANCE = 4

FORMATS = {
    "pmf": ("csv",),
    "allocate": ("csv",),
    "compare": ("json",),
    "poset": ("dot", "json"),
    "mc": ("json",),
    "spectral": ("json",),
}


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    model_path: str | None = None
    tree2_path: str | None = None
    tol: float = 1e-12
    seed: int = 0
    n_samples: int = 100_000
    kappa: float = 0.95
    table_vertex: int | None = None
    d: int | None = None
    lam: float = 1.0
    alpha_grid: tuple[float, ...] = poset_mod.DEFAULT_ALPHA_GRID
    output: str | None = None
    format: str | None = None

    def validate(self) -> None:
        if not 0.0 < self.tol <= 1e-3:
            raise InputError(f"tol {self.tol} outside (0, 1e-3]")
        if self.n_samples < 1:
            raise UsageError("n must be >= 1")
        if self.format is not None and self.format not in FORMATS[self.command]:
            raise UsageError(
                f"format {self.format!r} not supported by {self.command} "
                f"(expects one of {', '.join(FORMATS[self.command])})")


def _fmt(x: float) -> str:
    return repr(float(x))


def _write(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_model(path: str) -> mpmrf.MpmrfModel:
    obj = _load_json(path)
    try:
        return mpmrf.MpmrfModel.from_json(obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad model file {path}: {exc}") from exc


def _load_tree(path: str) -> tree_core.Tree:
    obj = _load_json(path)
    try:
        return tree_core.Tree.from_json(obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"bad tree file {path}: {exc}") from exc


def _require_model(cfg: RunConfig) -> mpmrf.MpmrfModel:
    if cfg.model_path is None:
        raise UsageError("--model is required")
    return _load_model(cfg.model_path)


def cmd_pmf(cfg: RunConfig) -> None:
    model = _require_model(cfg)
    dist = mpmrf.aggregate_dist(model, cfg.tol)
    _write(mpmrf.dist_to_csv(dist), cfg.output)


def cmd_allocate(cfg: RunConfig) -> None:
    model = _require_model(cfg)
    if cfg.table_vertex is not None:
        if cfg.table_vertex not in model.tree.vertices:
            raise InputError(f"vertex {cfg.table_vertex} not in the tree")
        table = mpmrf.expected_allocation(model, cfg.table_vertex, cfg.tol)
        _write(mpmrf.allocation_to_csv(table), cfg.output)
        return
    agg = mpmrf.aggregate_dist(model, cfg.tol)
    contrib = mpmrf.tvar_contribution_table(model, [cfg.kappa], cfg.tol)
    lines = ["vertex,mean,cov_with_sum,tvar_contribution"]
    total_cov = total_c = 0.0
    for v in model.tree.vertices:
        cov = mpmrf.cov_with_sum(model, v)
        c = float(contrib[v][0])
        total_cov += cov
        total_c += c
        lines.append(f"{v},{_fmt(model.lam)},{_fmt(cov)},{_fmt(c)}")
    d = model.tree.d
    lines.append(f"# sum,{_fmt(d * model.lam)},{_fmt(total_cov)},{_fmt(total_c)}")
    lines.append(f"# tvar_check,,,{_fmt(mpmrf.tvar(agg, cfg.kappa))}")
    _write("\n".join(lines) + "\n", cfg.output)


def cmd_compare(cfg: RunConfig) -> None:
    model = _require_model(cfg)
    if cfg.tree2_path is None:
        raise UsageError("a second tree file is required")
    t1 = model.tree
    obj2 = _load_json(cfg.tree2_path)
    t2 = (_load_model(cfg.tree2_path).tree if "lambda" in obj2
          else _load_tree(cfg.tree2_path))
    if t1.vertices != t2.vertices:
        raise InputError("trees must share the same vertex count")
    if not model.is_homogeneous():
        raise InputError("shape comparison needs a homogeneous alpha")
    alpha = next(iter(model.alpha.values()))
    if set(t1.edges) == set(t2.edges):
        verdict, method = orders.OrderVerdict(orders.Relation.EQ), "identical"
    else:
        try:
            verdict = orders.shape_compare(t1, t2, alpha)
            method = "single_move_criterion"
        except ValueError:
            verdict, method = _compare_via_poset(t1, t2, cfg, model.lam)
    out = verdict.to_json()
    out["method"] = method
    if verdict.relation is orders.Relation.INCOMPARABLE:
        out["note"] = "criterion inconclusive: the sufficient condition is not met"
    _write(json.dumps(out, sort_keys=True) + "\n", cfg.output)


def _compare_via_poset(t1, t2, cfg: RunConfig, lam: float):
    lo, hi = poset_mod.POSET_D_RANGE
    if not lo <= t1.d <= hi:
        raise InputError(
            f"trees differ by several moves and d={t1.d} is outside the poset range [{lo},{hi}]")
    ps = poset_mod.build_poset(t1.d, cfg.alpha_grid, lam)
    c1, c2 = tree_core.canonical_code(t1), tree_core.canonical_code(t2)
    if c1 == c2:
        return orders.OrderVerdict(orders.Relation.EQ), "poset_closure"
    le, ge = ps.leq(c1, c2), ps.leq(c2, c1)
    rel = (orders.Relation.LE if le else
           orders.Relation.GE if ge else orders.Relation.INCOMPARABLE)
    return orders.OrderVerdict(rel), "poset_closure"


def cmd_poset(cfg: RunConfig) -> None:
    if cfg.d is None:
        raise UsageError("--d is required")
    try:
        ps = poset_mod.build_poset(cfg.d, cfg.alpha_grid, cfg.lam)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    dot = poset_mod.hasse_dot(ps)
    blob = json.dumps(ps.to_json(), sort_keys=True) + "\n"
    if cfg.output is None:
        if cfg.format in (None, "dot"):
            sys.stdout.write(dot)
        if cfg.format in (None, "json"):
            sys.stdout.write(blob)
    else:
        if cfg.format in (None, "dot"):
            with open(cfg.output + ".dot", "w") as fh:
                fh.write(dot)
        if cfg.format in (None, "json"):
            with open(cfg.output + ".json", "w") as fh:
                fh.write(blob)


def cmd_mc(cfg: RunConfig) -> None:
    model = _require_model(cfg)
    n = cfg.n_samples
    draws = mpmrf.sample(model, model.tree.vertices[0], cfg.seed, n)
    total = draws.sum(axis=1)
    agg = mpmrf.aggregate_dist(model, cfg.tol)
    k_hi = max(int(total.max()), agg.k_max)
    emp = np.bincount(total, minlength=k_hi + 1) / n
    ana = np.zeros(k_hi + 1)
    ana[: len(agg.pmf)] = agg.pmf
    tv = 0.5 * float(np.abs(emp - ana).sum()) + 0.5 * agg.tail_mass
    # A correct sampler's TV distance has mean at most
    # 0.5 * sum_k sqrt(p_k (1 - p_k) / n) plus the tail mass, and one draw moves
    # it by at most 1/n, so by McDiarmid's inequality it passes that mean by
    # sqrt(ln(1/0.0027) / (2n)) at most 0.27% of the time.
    p = agg.pmf
    tv_limit = (0.5 * float(np.sqrt(p * (1.0 - p) / n).sum())
                + math.sqrt(math.log(1 / 0.0027) / (2 * n)) + agg.tail_mass)
    report = {"n": n, "seed": cfg.seed, "tv_distance": tv, "tv_limit": tv_limit,
              "vertices": {}}
    ok = tv < tv_limit
    # z-sigma bands, Bonferroni-corrected so the 2d per-vertex checks
    # together raise a false alarm at most 0.27% of the time, as one 3-sigma band
    z = statistics.NormalDist().inv_cdf(1 - 0.0027 / (4 * model.tree.d))
    for i, v in enumerate(model.tree.vertices):
        mean = float(draws[:, i].mean())
        band = z * (model.lam / n) ** 0.5
        cov = float(np.cov(draws[:, i], total)[0, 1])
        cov_true = mpmrf.cov_with_sum(model, v)
        prod = (draws[:, i] - model.lam) * (total - float(total.mean()))
        cov_band = z * float(prod.std()) / n ** 0.5
        v_ok = abs(mean - model.lam) < band and abs(cov - cov_true) < cov_band
        ok = ok and v_ok
        report["vertices"][str(v)] = {
            "mean": mean, "mean_expected": model.lam, "mean_band": band,
            "cov_with_sum": cov, "cov_expected": cov_true, "cov_band": cov_band,
            "ok": v_ok,
        }
    report["ok"] = ok
    _write(json.dumps(report, sort_keys=True) + "\n", cfg.output)
    if not ok:
        raise ToleranceError("Monte Carlo statistics fall outside tolerance bands")


def cmd_spectral(cfg: RunConfig) -> None:
    if cfg.model_path is None:
        raise UsageError("--model is required")
    report = spectral.spectrum(_load_tree(cfg.model_path))
    _write(json.dumps(report.to_json(), sort_keys=True) + "\n", cfg.output)


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="treemrf",
        description="Tree-structured Poisson Markov random fields: aggregate "
                    "laws, risk allocations, stochastic-order comparisons and "
                    "the tree-shape partial order.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, model=True):
        p.add_argument("--config", default=None, help="JSON file with flag defaults")
        if model:
            p.add_argument("--model", default=None, help="model JSON file")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--format", default=None)
        p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("pmf", help="aggregate pmf as CSV")
    common(p)
    p = sub.add_parser("allocate", help="per-vertex covariance and TVaR contributions")
    common(p)
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--table", type=int, default=None, metavar="VERTEX",
                   help="write one vertex's k,value allocation table instead")
    p = sub.add_parser("compare", help="shape comparison verdict as JSON")
    common(p)
    p.add_argument("tree2", nargs="?", default=None, help="second tree or model JSON file")
    p.add_argument("--alpha-grid", type=float, nargs="+", default=None)
    p = sub.add_parser("poset", help="shape poset with Hasse diagram (DOT + JSON)")
    common(p, model=False)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--lambda", type=float, default=None, metavar="LAM")
    p.add_argument("--alpha-grid", type=float, nargs="+", default=None)
    p = sub.add_parser("mc", help="Monte Carlo validation of the sampler")
    common(p)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n", type=int, default=None, metavar="N_SAMPLES")
    p = sub.add_parser("spectral", help="adjacency spectrum report as JSON")
    common(p)
    return ap


_CONFIG_KEYS = {
    "model": "model_path",
    "tree2": "tree2_path",
    "tol": "tol",
    "seed": "seed",
    "n": "n_samples",
    "kappa": "kappa",
    "table": "table_vertex",
    "d": "d",
    "lambda": "lam",
    "alpha_grid": "alpha_grid",
    "output": "output",
    "format": "format",
}


def _config_from(ns: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=ns.command)
    if getattr(ns, "config", None):
        blob = _load_json(ns.config)
        if not isinstance(blob, dict):
            raise InputError(f"config file {ns.config} must hold a JSON object")
        for key, value in blob.items():
            field = _CONFIG_KEYS.get(key)
            if field is None:
                raise InputError(f"unknown config key {key!r}")
            setattr(cfg, field, tuple(value) if field == "alpha_grid" else value)
    for key, field in _CONFIG_KEYS.items():
        value = getattr(ns, key, None)
        if value is not None:
            setattr(cfg, field, tuple(value) if field == "alpha_grid" else value)
    return cfg


COMMANDS = {
    "pmf": cmd_pmf,
    "allocate": cmd_allocate,
    "compare": cmd_compare,
    "poset": cmd_poset,
    "mc": cmd_mc,
    "spectral": cmd_spectral,
}


def main(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        cfg = _config_from(ns)
        cfg.validate()
        COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InputError as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ToleranceError as exc:
        print(f"error: tolerance: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (ValueError, KeyError) as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
