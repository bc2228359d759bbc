"""Independent oracles and generators used across the test suite.

Everything here is deliberately written without reaching into the package's
computational paths: brute-force isomorphism by permutation search, AHU
codes one rooting at a time, paths by breadth-first search, re-anchoring
moves and tree centers from path lengths, the reachability relation of a
digraph by breadth-first search, the two parts of a cut edge by
growing one side over the edge list, trees from random Pruefer
sequences, pgfs expanded with raw numpy convolutions, path sums by the
rerooting recurrences on the tree's own adjacency, the compound pgf
exponentiated as a truncated Taylor series, the compound Poisson by the
unscaled Panjer recursion, the sampler's stream drawn whole, one array
per vertex, and the Monte Carlo report's covariance statistics by np.cov
and np.std.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from treemrf.mpmrf import MpmrfModel
from treemrf.tree_core import RootedTree, Tree, root_at


def brute_force_isomorphic(t1: Tree, t2: Tree) -> bool:
    """Isomorphism by exhaustive permutation search (small d only)."""
    if t1.d != t2.d:
        return False
    e2 = {frozenset(e) for e in t2.edges}
    vs = list(t1.vertices)
    for perm in itertools.permutations(t2.vertices):
        m = dict(zip(vs, perm))
        if {frozenset((m[a], m[b])) for a, b in t1.edges} == e2:
            return True
    return False


def ahu_encoding(rooted: RootedTree) -> bytes:
    """AHU code of one rooted view, leaves first: b"(" + sorted child codes + b")"."""
    enc: dict[int, bytes] = {}
    for v in reversed(rooted.order):
        parts = sorted(enc[c] for c in rooted.children[v])
        enc[v] = b"(" + b"".join(parts) + b")"
    return enc[rooted.order[0]]


def tree_on(vertices, edges) -> Tree:
    """The tree on any set of positive labels, given in any order."""
    return Tree(tuple(sorted(vertices)), tuple(edges))


def prune(tree: Tree, u: int, v: int) -> tuple[Tree, Tree]:
    """Delete edge (u,v) and return (residual, detached), each keeping its labels.

    `detached` is the part containing u, `residual` the one containing v:
    `root_at(tree, x, away=u)` should root the residual at x.
    """
    e = (min(u, v), max(u, v))
    rest = list(tree.edges)  # stored as (smaller, larger)
    if e not in rest:
        raise ValueError(f"({u},{v}) is not an edge")
    rest.remove(e)
    side = {u}
    grew = True
    while grew:  # add every vertex one remaining edge away from the side, until none is
        grew = False
        for a, b in rest:
            if (a in side) != (b in side):
                side |= {a, b}
                grew = True
    detached = tree_on(side, [x for x in rest if x[0] in side])
    residual = tree_on(set(tree.vertices) - side, [x for x in rest if x[0] not in side])
    return residual, detached


def relabel(tree: Tree, mapping: dict[int, int]) -> Tree:
    """The tree with each vertex v renamed mapping[v] (mapping injective)."""
    return tree_on([mapping[v] for v in tree.vertices],
                   [(mapping[a], mapping[b]) for a, b in tree.edges])


def relabel_model(model: MpmrfModel, mapping: dict[int, int]) -> MpmrfModel:
    """The model on relabel(model.tree, mapping), each edge keeping its alpha."""
    alpha = {(mapping[a], mapping[b]): x for (a, b), x in model.alpha.items()}
    return MpmrfModel(relabel(model.tree, mapping), model.lam, alpha)


def path_sums_by_hand(tree: Tree, alpha) -> dict[int, float]:
    """sum_j prod_{e in path(v,j)} alpha(e) for every v, from the tree's own
    adjacency; alpha(a, b) gives an edge's parameter.

    Hung from the smallest label, s_v = 1 + sum_c alpha(v, c) * s_c over the
    children in ascending order, then t_c = s_c + alpha * (t_p - alpha * s_c)
    going down: every vertex is summed in the same floating-point order as
    the library's one-rooting pass, so the two agree exactly.
    """
    adj = {v: [] for v in tree.vertices}
    for a, b in tree.edges:
        adj[a].append(b)
        adj[b].append(a)
    for ns in adj.values():
        ns.sort()
    root = tree.vertices[0]
    parent = {root: None}
    order = [root]
    for x in order:  # the list grows while it is walked
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
    s = {}
    for v in reversed(order):
        acc = 1.0
        for u in adj[v]:
            if u != parent[v]:
                acc += alpha(v, u) * s[u]
        s[v] = acc
    t = {root: s[root]}
    for v in order[1:]:
        a = alpha(parent[v], v)
        t[v] = s[v] + a * (t[parent[v]] - a * s[v])
    return t


def path(tree: Tree, u: int, w: int) -> list[tuple[int, int]]:
    """The edges from u to w in walking order, each as (smaller, larger);
    empty when u == w. Found by a breadth-first search from w."""
    if u not in tree.vertices or w not in tree.vertices:
        raise ValueError(f"invalid vertices ({u},{w})")
    adj = {v: [] for v in tree.vertices}
    for a, b in tree.edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = {w: None}
    queue = [w]
    for x in queue:  # the queue grows while it is walked
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    seq = []
    while u != w:
        seq.append((min(u, parent[u]), max(u, parent[u])))
        u = parent[u]
    return seq


def centers(tree: Tree) -> list[int]:
    """The vertices of least eccentricity (longest path to another vertex),
    ascending."""
    ecc = {v: max(len(path(tree, v, w)) for w in tree.vertices) for v in tree.vertices}
    least = min(ecc.values())
    return [v for v in tree.vertices if ecc[v] == least]


def all_moves(tree: Tree):
    """Every re-anchoring move of `tree`: (moved tree, u, v, w), edge (u,v) -> (u,w).

    w runs in ascending order over v's side of the cut, the vertices other
    than v that are nearer to v than to u, measured by path above.
    """
    for (a, b) in tree.edges:
        edges = [e for e in tree.edges if e != (a, b)]
        for u, v in ((a, b), (b, a)):
            for w in tree.vertices:
                if w != v and len(path(tree, w, v)) < len(path(tree, w, u)):
                    yield tree_on(tree.vertices, edges + [(u, w)]), u, v, w


def reachable_by_bfs(arcs: np.ndarray) -> np.ndarray:
    """r[i, j]: j is reached from i along one or more arcs of the boolean
    adjacency matrix `arcs`, found by a breadth-first search from each i."""
    n = len(arcs)
    succ = [[j for j in range(n) if arcs[i, j]] for i in range(n)]
    r = np.zeros((n, n), dtype=bool)
    for i in range(n):
        queue = list(succ[i])
        for x in queue:  # the queue grows while it is walked
            if not r[i, x]:
                r[i, x] = True
                queue.extend(succ[x])
    return r


def pruefer_tree(seq: list[int], d: int) -> Tree:
    """Decode a Pruefer sequence over {1..d} (length d-2) into a tree."""
    degree = {v: 1 for v in range(1, d + 1)}
    for v in seq:
        degree[v] += 1
    edges = []
    seq = list(seq)
    for v in seq:
        leaf = min(u for u in degree if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
        del degree[leaf]
    a, b = sorted(u for u in degree if degree[u] == 1)
    edges.append((a, b))
    return Tree.of(d, edges)


def random_tree(rng: np.random.Generator, d: int) -> Tree:
    if d == 1:
        return Tree.of(1, [])
    if d == 2:
        return Tree.of(2, [(1, 2)])
    seq = [int(x) for x in rng.integers(1, d + 1, size=d - 2)]
    return pruefer_tree(seq, d)


def poisson_pmf(mu: float, k_max: int) -> np.ndarray:
    ks = np.arange(k_max + 1)
    return np.exp(-mu + ks * math.log(mu) - np.array([math.lgamma(k + 1.0) for k in ks]))


def eta_by_hand(tree: Tree, root: int, alpha: float) -> np.ndarray:
    """pgf of H_root expanded with raw numpy, an independent recursion."""
    adj = {v: [] for v in tree.vertices}
    for a, b in tree.edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = {root: None}
    order = [root]
    stack = [root]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
                stack.append(u)
    coeffs: dict[int, np.ndarray] = {}
    for v in reversed(order):
        p = np.array([1.0])
        for u in adj[v]:
            if u != parent[v]:
                term = alpha * coeffs[u]
                term[0] += 1.0 - alpha
                p = np.convolve(p, term)
        coeffs[v] = np.concatenate([[0.0], p])
    return coeffs[root]


def agg_pmf_series_exp(tree: Tree, lam: float, alpha: float, k_max: int) -> np.ndarray:
    """pmf of the aggregate by exponentiating the compound pgf as a series.

    exp(lam * sum_v (1-a_pa(v)) (eta_v - 1)) expanded as a truncated Taylor
    series: the m-th power of the severity polynomial only feeds degrees
    >= m, so truncation at k_max is exact.
    """
    root = tree.vertices[0]
    adj = {v: [] for v in tree.vertices}
    for a, b in tree.edges:
        adj[a].append(b)
        adj[b].append(a)
    parent = {root: None}
    order = [root]
    stack = [root]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
                stack.append(u)
    etas: dict[int, np.ndarray] = {}
    for v in reversed(order):
        p = np.array([1.0])
        for u in adj[v]:
            if u != parent[v]:
                term = alpha * etas[u]
                term[0] += 1.0 - alpha
                p = np.convolve(p, term)
        etas[v] = np.concatenate([[0.0], p])
    b = np.zeros(k_max + 1)
    rate = 0.0
    for v in tree.vertices:
        w = lam if v == root else lam * (1.0 - alpha)
        rate += w
        e = etas[v]
        b[: len(e)] += w * e
    term = np.zeros(k_max + 1)
    term[0] = 1.0
    acc = term.copy()
    for m in range(1, k_max + 1):
        term = np.convolve(term, b)[: k_max + 1] / m
        acc += term
    return math.exp(-rate) * acc


def panjer_exp_start(rate: float, sev: np.ndarray, k_max: int) -> np.ndarray:
    """pmf of a compound Poisson on {0..k_max} by the textbook Panjer recursion.

    It starts from p_0 = exp(-rate (1 - s_0)) in floats and carries no scale,
    so it is only usable below rate 700, where that start does not underflow.
    """
    j_max = len(sev) - 1
    p = np.zeros(k_max + 1)
    p[0] = math.exp(-rate * (1.0 - sev[0]))
    jq = np.arange(1, j_max + 1) * sev[1:]
    for k in range(1, k_max + 1):
        lo = max(0, k - j_max)
        p[k] = rate / k * float(jq[: k - lo] @ p[lo:k][::-1])
    return p


def path_star_moments(shape: str, d: int, lam: float, alpha: float) -> tuple[float, float]:
    """Closed-form mean d*lam and variance lam*V of M on a d-path or d-star.

    Var(M) = lam * sum over vertex pairs of alpha^distance, so
    V = d + 2 sum_{k=1}^{d-1} (d-k) alpha^k on the path and
    V = d + 2(d-1) alpha + (d-1)(d-2) alpha^2 on the star.
    """
    if shape == "path":
        v = d + 2 * sum((d - k) * alpha ** k for k in range(1, d))
    else:
        v = d + 2 * (d - 1) * alpha + (d - 1) * (d - 2) * alpha ** 2
    return d * lam, lam * v


def variance(pmf) -> float:
    """Variance of a pmf on {0, 1, ...} about its own mean, from the definition."""
    mean = math.fsum(k * p for k, p in enumerate(pmf))
    return math.fsum((k - mean) ** 2 * p for k, p in enumerate(pmf))


def stop_loss_brute(pmf, c: int) -> float:
    return sum((k - c) * p for k, p in enumerate(pmf) if k > c)


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    n = max(len(p), len(q))
    p = np.pad(p, (0, n - len(p)))
    q = np.pad(q, (0, n - len(q)))
    return 0.5 * float(np.abs(p - q).sum())


def reference_sample(model: MpmrfModel, root: int, rng_seed: int, n: int) -> np.ndarray:
    """The sampler as a whole-array pass per vertex: the same PCG64 stream and
    consumption order as `mpmrf.sample`, each vertex's uniforms in one
    `rng.random` call and every carried event's uniform in one array."""
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    tree = model.tree
    rooted = root_at(tree, root)
    col = {v: i for i, v in enumerate(tree.vertices)}
    out = np.zeros((n, tree.d), dtype=np.int64)
    out[:, col[root]] = reference_poisson(rng, model.lam, n)
    for v in rooted.order[1:]:
        a = model.edge_alpha(rooted.parent[v], v)
        innov = reference_poisson(rng, model.lam * (1.0 - a), n)
        carried = reference_thinning(rng, out[:, col[rooted.parent[v]]], a)
        out[:, col[v]] = innov + carried
    return out


def reference_poisson(rng: np.random.Generator, mu: float, n: int) -> np.ndarray:
    if mu == 0.0:
        rng.random(n)
        return np.zeros(n, dtype=np.int64)
    ks = np.arange(int(mu + 12.0 * math.sqrt(mu) + 30.0) + 1)
    log_fact = np.fromiter((math.lgamma(k + 1) for k in range(ks.size)), dtype=float, count=ks.size)
    cdf = np.cumsum(np.exp(-mu + ks * math.log(mu) - log_fact))
    u = rng.random(n)
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


def reference_thinning(rng: np.random.Generator, counts: np.ndarray, alpha: float) -> np.ndarray:
    total = int(counts.sum())
    if total == 0:
        return np.zeros(len(counts), dtype=np.int64)
    hits = (rng.random(total) < alpha).astype(np.int64)
    cs = np.concatenate([[0], np.cumsum(hits)])
    ends = np.cumsum(counts)
    starts = ends - counts
    return cs[ends] - cs[starts]


def mc_cov_stats(x: np.ndarray, total: np.ndarray, lam: float) -> tuple[float, float]:
    """The sample covariance of x and total by np.cov, and the population std
    of (x - lam) * (total - mean total), the spread behind the report's band."""
    centred = total - float(total.mean())
    return float(np.cov(x, total)[0, 1]), float(((x - lam) * centred).std())
