"""Command-line front end.

Subcommands: pmf, allocate, compare, poset, mc, spectral; only poset has a
choice of output (--format dot or json, default both). compare decides the
convex order of two trees' aggregates at every lambda, at the model's alpha
and any d, from their exponents (orders.exponent_compare). Exit codes:
0 ok, 2 usage, 3 bad input, 4 numerical tolerance failure. Identical
arguments and seed give byte-identical outputs.

An optional --config JSON file supplies defaults for any long flag
(keys named like the flags: model, tree2, tol, seed, n, kappa, table, d,
alpha_grid, output, format); explicit flags win. A config value goes
through its flag's type conversion and choices; paths and names must be
strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import statistics
import sys

import numpy as np

from . import mpmrf, orders, poset as poset_mod, spectral, tree_core
from .mpmrf import ToleranceError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_TOLERANCE = 4


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


def _validate(ns: argparse.Namespace) -> None:
    if not 0.0 < getattr(ns, "tol", mpmrf.MAX_TOL) <= mpmrf.MAX_TOL:
        raise InputError(f"tol {ns.tol} outside (0, {mpmrf.MAX_TOL:g}]")
    if getattr(ns, "n", 2) < 2:
        raise UsageError("n must be >= 2")


def _fmt(x: float) -> str:
    return repr(float(x))


def _write(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {output}: {exc}") from exc


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _parse(obj, path: str, kind=mpmrf.MpmrfModel):
    """A model, or with kind=Tree a tree, from `obj`, the JSON read from `path`."""
    try:
        return kind.from_json(obj)
    except (KeyError, ValueError, TypeError) as exc:
        what = "tree" if kind is tree_core.Tree else "model"
        raise InputError(f"bad {what} file {path}: {exc}") from exc


def _require_model(ns: argparse.Namespace, kind=mpmrf.MpmrfModel):
    if ns.model is None:
        raise UsageError("--model is required")
    return _parse(_load_json(ns.model), ns.model, kind)


def cmd_pmf(ns: argparse.Namespace) -> None:
    model = _require_model(ns)
    dist = mpmrf.aggregate_dist(model, ns.tol)
    _write(mpmrf.dist_to_csv(dist), ns.output)


def cmd_allocate(ns: argparse.Namespace) -> None:
    model = _require_model(ns)
    if ns.table is not None:
        if ns.table not in model.tree.vertices:
            raise InputError(f"vertex {ns.table} not in the tree")
        table = mpmrf.expected_allocation(model, ns.table, ns.tol)
        _write(mpmrf.allocation_to_csv(table), ns.output)
        return
    agg, contrib = mpmrf.tvar_contribution_table(model, [ns.kappa], ns.tol)
    covs = mpmrf.cov_with_sum(model)  # the table's rooting: model.tree.rooted
    lines = ["vertex,mean,cov_with_sum,tvar_contribution"]
    total_cov = total_c = 0.0
    for v in model.tree.vertices:
        cov, c = covs[v], float(contrib[v][0])
        total_cov += cov
        total_c += c
        lines.append(f"{v},{_fmt(model.lam)},{_fmt(cov)},{_fmt(c)}")
    d = model.tree.d
    lines.append(f"# sum,{_fmt(d * model.lam)},{_fmt(total_cov)},{_fmt(total_c)}")
    lines.append(f"# tvar_check,,,{_fmt(mpmrf.tvar(agg, ns.kappa, d * model.lam))}")
    _write("\n".join(lines) + "\n", ns.output)


def cmd_compare(ns: argparse.Namespace) -> None:
    model = _require_model(ns)
    if ns.tree2 is None:
        raise UsageError("a second tree file is required")
    obj2 = _load_json(ns.tree2)
    is_model = isinstance(obj2, dict) and "lambda" in obj2
    second = _parse(obj2, ns.tree2, mpmrf.MpmrfModel if is_model else tree_core.Tree)
    alpha, *others = {*model.alpha.values(), *(second.alpha.values() if is_model else ())} or {0.0}
    if others:  # one alpha on every edge of both trees; the lambdas may differ
        raise InputError("shape comparison needs one homogeneous alpha, the same in both models")
    verdict = orders.exponent_compare(model.tree, second.tree if is_model else second, alpha)
    _write(json.dumps(verdict.to_json(), sort_keys=True) + "\n", ns.output)


def cmd_poset(ns: argparse.Namespace) -> None:
    if ns.d is None:
        raise UsageError("--d is required")
    ps = poset_mod.build_poset(ns.d, ns.alpha_grid)
    texts = {"dot": poset_mod.hasse_dot(ps),
             "json": json.dumps(ps.to_json(), sort_keys=True) + "\n"}
    for fmt, text in texts.items():
        if ns.format in (None, fmt):
            _write(text, None if ns.output is None else f"{ns.output}.{fmt}")


def cmd_mc(ns: argparse.Namespace) -> None:
    model = _require_model(ns)
    n, lam = ns.n, model.lam
    draws = mpmrf.sample(model, ns.seed, n)
    total = draws.sum(axis=1)
    agg = mpmrf.aggregate_dist(model, ns.tol)
    k_hi = max(int(total.max()), agg.k_max)
    emp = np.bincount(total, minlength=k_hi + 1) / n
    ana = np.zeros(k_hi + 1)
    ana[: len(agg.pmf)] = agg.pmf
    tv = 0.5 * float(np.abs(emp - ana).sum()) + 0.5 * agg.tail_mass
    # A correct sampler's TV distance has mean at most
    # 0.5 * sum_k sqrt(p_k (1 - p_k) / n) plus the tail mass, and one draw moves
    # it by at most 1/n, so by McDiarmid's inequality it passes that mean by
    # sqrt(ln(1/0.0027) / (2n)) at most 0.27% of the time.
    tv_limit = (0.5 * float(np.sqrt(agg.pmf * (1.0 - agg.pmf) / n).sum())
                + math.sqrt(math.log(1 / 0.0027) / (2 * n)) + agg.tail_mass)
    report = {"n": n, "seed": ns.seed, "tv_distance": tv, "tv_limit": tv_limit,
              "vertices": {}}
    ok = tv < tv_limit
    # z-sigma bands, Bonferroni-corrected so the 2d per-vertex checks
    # together raise a false alarm at most 0.27% of the time, as one 3-sigma band
    z = statistics.NormalDist().inv_cdf(1 - 0.0027 / (4 * model.tree.d))
    covs = mpmrf.cov_with_sum(model)
    centred = total - float(total.mean())
    del total
    buf = np.empty(n)  # each vertex's n-long terms in turn, so memory is draws + two columns
    for i, v in enumerate(model.tree.vertices):
        x = draws[:, i]
        mean = float(x.mean())
        band = z * (lam / n) ** 0.5
        np.subtract(x, mean, out=buf)
        cov = float(buf @ centred) / (n - 1)
        np.subtract(x, lam, out=buf)
        buf *= centred
        buf -= buf.mean()  # the population std of (x - lam) * centred, as np.std forms it
        np.square(buf, out=buf)
        cov_band = z * math.sqrt(float(buf.sum()) / n) / n ** 0.5
        v_ok = abs(mean - lam) < band and abs(cov - covs[v]) < cov_band
        ok = ok and v_ok
        report["vertices"][str(v)] = {
            "mean": mean, "mean_expected": lam, "mean_band": band,
            "cov_with_sum": cov, "cov_expected": covs[v], "cov_band": cov_band, "ok": v_ok}
    report["ok"] = ok
    _write(json.dumps(report, sort_keys=True, allow_nan=False) + "\n", ns.output)
    if not ok:
        raise ToleranceError("Monte Carlo statistics fall outside tolerance bands")


def cmd_spectral(ns: argparse.Namespace) -> None:
    report = spectral.spectrum(_require_model(ns, tree_core.Tree))
    _write(json.dumps(report.to_json(), sort_keys=True) + "\n", ns.output)


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, dict[str, argparse.Action]]]:
    """The parser, and each subcommand's arguments keyed by their dest, which
    is also their config key. Built on the first call, then shared: main
    puts back any default a config file changed."""
    ap = argparse.ArgumentParser(
        prog="treemrf",
        description="Tree-structured Poisson Markov random fields: aggregate "
                    "laws, risk allocations, stochastic-order comparisons and "
                    "the tree-shape partial order.")
    sub = ap.add_subparsers(dest="command", required=True)
    args: dict[str, dict[str, argparse.Action]] = {}

    def command(name, run, help, model=True, tol=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        acts = args[name] = {}

        def add(*flags, **kwargs):
            action = p.add_argument(*flags, **kwargs)
            acts[action.dest] = action

        add("--config", default=None, help="JSON file with flag defaults")
        if model:
            add("--model", default=None, help="model JSON file")
        if tol:  # only the subcommands that compute an aggregate law
            add("--tol", type=float, default=mpmrf.DEFAULT_TOL)
        add("-o", "--output", default=None)
        return add

    command("pmf", cmd_pmf, "aggregate pmf as CSV")
    add = command("allocate", cmd_allocate, "per-vertex covariance and TVaR contributions")
    add("--kappa", type=float, default=0.95)
    add("--table", type=int, default=None, metavar="VERTEX",
        help="write one vertex's k,value allocation table instead")
    add = command("compare", cmd_compare, "shape comparison verdict as JSON", tol=False)
    add("tree2", nargs="?", default=None, help="second tree or model JSON file")
    add = command("poset", cmd_poset, "shape poset with Hasse diagram (DOT + JSON)",
                  model=False, tol=False)
    add("--d", type=int, default=None)
    add("--alpha-grid", type=float, nargs="+", default=poset_mod.DEFAULT_ALPHA_GRID)
    add("--format", choices=("dot", "json"), default=None, help="write only this one")
    add = command("mc", cmd_mc, "Monte Carlo validation of the sampler")
    add("--seed", type=int, default=0)
    add("--n", type=int, default=100_000, metavar="N_SAMPLES")
    command("spectral", cmd_spectral, "adjacency spectrum report as JSON", tol=False)
    return ap, args


def _config_defaults(path: str, args: dict[str, dict[str, argparse.Action]],
                     command: str) -> None:
    """Make the config file's values the defaults of `command`'s arguments.

    A key names a flag of any subcommand; keys of other subcommands are
    ignored. Each value is converted as its flag's text would be.
    """
    blob = _load_json(path)
    if not isinstance(blob, dict):
        raise InputError(f"config file {path} must hold a JSON object")
    known = set().union(*args.values()) - {"config"}
    for key, value in blob.items():
        if key not in known:
            raise InputError(f"unknown config key {key!r}")
        action = args[command].get(key)
        if action is None:
            continue
        try:
            action.default = _as_flag(action, value)
        except (TypeError, ValueError) as exc:
            raise InputError(f"config key {key!r}: {exc}") from exc


def _as_flag(action: argparse.Action, value):
    """A config value converted and checked as its flag's text would be;
    untyped flags take strings."""
    def one(x):
        if action.type is None and not isinstance(x, str):
            raise TypeError(f"expected a string, not {x!r}")
        x = x if action.type is None else action.type(str(x))
        if action.choices is not None and x not in action.choices:
            raise ValueError(f"{x!r} is not one of {action.choices}")
        return x
    return [one(x) for x in value] if action.nargs == "+" else one(value)


def main(argv=None) -> int:
    ap, args = _parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    defaults = {key: action.default for key, action in args[ns.command].items()}
    try:
        if ns.config:
            # the config sets defaults, so flags given explicitly still win
            _config_defaults(ns.config, args, ns.command)
            ns = ap.parse_args(argv)
        _validate(ns)
        ns.run(ns)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ToleranceError as exc:
        print(f"error: tolerance: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (InputError, ValueError, KeyError) as exc:
        print(f"error: input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:  # a config's defaults hold for this call only
        for key, action in args[ns.command].items():
            action.default = defaults[key]
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
