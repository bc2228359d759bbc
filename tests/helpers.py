"""Independent oracles and generators used across the test suite.

Everything here is deliberately written without reaching into the package's
computational paths: brute-force isomorphism by permutation search, AHU
codes one rooting at a time, free-tree shapes by attaching a leaf at every
vertex (centres found by peeling leaves), paths by breadth-first search, re-anchoring
moves and tree centers from path lengths, the reachability relation of a
digraph by breadth-first search, the two parts of a cut edge by
growing one side over the edge list, trees from random Pruefer
sequences, pgfs expanded with raw numpy convolutions, path sums by the
rerooting recurrences on the tree's own adjacency, the compound pgf
exponentiated as a truncated Taylor series, the compound Poisson by the
unscaled Panjer recursion, the sampler's stream drawn whole, one array
per vertex, and the Monte Carlo report's covariance statistics by np.cov
and np.std. The eta pass, the aggregate's exponent and its blocked Panjer
pass are also kept as they were before their shortcuts (one convolution
per pair, every weight added), and the Laplacian as diag(degrees) - a, so
the shortcuts can be held to the same bytes. The TVaR contributions have a
truth in 60-digit decimal arithmetic, each H law by its own rooting.
"""

from __future__ import annotations

import heapq
import itertools
import math
from decimal import Decimal, localcontext

import numpy as np

from treemrf import mpmrf
from treemrf.mpmrf import DiscreteDist, MpmrfModel
from treemrf.spectral import adjacency_matrix
from treemrf.tree_core import RootedTree, Tree, _norm_edge, root_at


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


def reference_shapes(d: int) -> list[Tree]:
    """One representative per free-tree shape on vertices 1..d, ordered by the
    centre-rooted AHU code: a leaf attached at every vertex of every (d-1)-vertex
    representative, the first tree of each code kept. The centre, or the two of
    a bicentre, is what is left once leaves are peeled off while three remain."""
    def code(tree: Tree) -> bytes:
        alive = set(tree.vertices)
        while len(alive) > 2:
            alive -= {x for x in alive if sum(y in alive for y in tree.neighbors[x]) <= 1}
        return min(ahu_encoding(root_at(tree, c)) for c in alive)

    reps = [Tree.of(1, [])]
    for n in range(2, d + 1):
        found: dict[bytes, Tree] = {}
        for smaller in reps:
            for v in smaller.vertices:
                cand = Tree.of(n, list(smaller.edges) + [(v, n)])
                found.setdefault(code(cand), cand)
        reps = [found[c] for c in sorted(found)]
    return reps


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
    """Decode a Pruefer sequence over {1..d} (length d-2) into a tree.

    Each step joins the smallest current leaf, taken from a heap, to the
    sequence's next vertex, which becomes a leaf once it appears no more.
    """
    degree = [1] * (d + 1)  # degree[0] is unused
    for v in seq:
        degree[v] += 1
    leaves = [u for u in range(1, d + 1) if degree[u] == 1]  # sorted, so a heap
    edges = []
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append(tuple(sorted(leaves)))
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


def panjer_exp_start(lam: float, q: np.ndarray, k_max: int) -> np.ndarray:
    """pmf on {0..k_max} of the compound Poisson with pgf exp(lam (Q(t) - Q(1))),
    Q's coefficients q, by the textbook Panjer recursion.

    It starts from p_0 = exp(-lam (Q(1) - q_0)) in floats and carries no
    scale, so it is only usable below rate 700, where that start does not
    underflow.
    """
    j_max = len(q) - 1
    p = np.zeros(k_max + 1)
    p[0] = math.exp(-lam * (math.fsum(q) - q[0]))
    jq = np.arange(1, j_max + 1) * q[1:]
    for k in range(1, k_max + 1):
        lo = max(0, k - j_max)
        p[k] = lam / k * float(jq[: k - lo] @ p[lo:k][::-1])
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


def _reference_trim(c: np.ndarray) -> np.ndarray:
    return c if c[-1] else c[: np.flatnonzero(c)[-1] + 1]


def _reference_thin(a: float, p: np.ndarray) -> np.ndarray:
    f = a * p
    f[0] += 1.0 - a
    return _reference_trim(f)


def _reference_alpha(alpha, a: int, b: int) -> float:
    return alpha[_norm_edge(a, b)] if isinstance(alpha, dict) else float(alpha)


def reference_eta(rooted: RootedTree, alpha):
    """(v, eta_v), children first, by the plain balanced product: each row
    starts with the factor t = [0, 1], every vertex has its own arrays, and
    each pair of a level is one convolution, trimmed of trailing zeros."""
    held: dict[int, np.ndarray] = {}
    for v in reversed(rooted.order):
        row = [np.array([0.0, 1.0])]
        for c in rooted.children[v]:
            row.append(_reference_thin(_reference_alpha(alpha, v, c), held.pop(c)))
        while len(row) > 1:
            row = [_reference_trim(np.convolve(row[k], row[k + 1])) if k + 1 < len(row) else row[k]
                   for k in range(0, len(row), 2)]
        held[v] = row[0]
        yield v, row[0]


def _reference_pairs(row: list[np.ndarray]) -> list[np.ndarray]:
    return [_reference_trim(np.convolve(row[k], row[k + 1])) if k + 1 < len(row) else row[k]
            for k in range(0, len(row), 2)]


def reference_h_all(tree: Tree, alpha) -> dict[int, np.ndarray]:
    """Every H_v by the plain down pass on reference_eta's laws, rooted at the
    smallest label: each neighbour's factor thinned on its own, one
    convolution per pair going up the balanced product tree and one per
    share going down, each law its own array."""
    rooted = root_at(tree, tree.vertices[0])
    eta = dict(reference_eta(rooted, alpha))
    up, h = {}, {}
    for v in rooted.order:
        parent, ns = rooted.parent.get(v), tree.neighbors[v]
        factors = [up.pop(v) if u == parent else _reference_thin(_reference_alpha(alpha, v, u), eta.pop(u))
                   for u in ns]
        levels = [factors]
        while len(levels[-1]) > 1:
            levels.append(_reference_pairs(levels[-1]))
        others = [None]  # None: the empty product
        for row in reversed(levels[:-1]):  # each node's share times its sibling
            shares = []
            for k in range(len(row)):
                mine, sib = others[k >> 1], row[k ^ 1] if k ^ 1 < len(row) else None
                shares.append(mine if sib is None else sib if mine is None
                              else _reference_trim(np.convolve(mine, sib)))
            others = shares
        h[v] = np.concatenate(([0.0], levels[-1][0] if factors else np.ones(1)))
        for u, rest in zip(ns, others):
            if u != parent:
                rest = np.ones(1) if rest is None else rest
                up[u] = _reference_thin(_reference_alpha(alpha, v, u), np.concatenate(([0.0], rest)))
    return h


def reference_contribution(pmf: np.ndarray, cdf: np.ndarray, q: int, h: np.ndarray,
                           lam: float, kappa: float) -> float:
    """The TVaR contribution at level kappa of the vertex with H law h, q = VaR_kappa(M),
    by the plain formula in floats: two O(|h|) sums, E[N_v 1{M=q}] = lam sum_j h_j p_M(q-j)
    and E[N_v 1{M<=q}] = lam sum_j h_j F_M(q-j)."""
    j = np.arange(min(len(h) - 1, q) + 1)
    at_q = lam * float(h[j] @ pmf[q - j])
    above = lam - lam * float(h[j] @ cdf[q - j])
    pq = float(pmf[q])
    atom = (float(cdf[q]) - kappa) / pq * at_q if pq > 0 else 0.0
    return (above + atom) / (1.0 - kappa)


def _decimal_eta(tree: Tree, root: int, alpha: dict) -> tuple[dict[int, list], dict[int, int]]:
    """Every eta_v of the rooting at root, lists of Decimals, by one factor at a
    time, and the parents of that rooting (root's is None)."""
    parent, order = {root: None}, [root]
    for x in order:
        for y in tree.neighbors[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
    eta = {}
    for v in reversed(order):
        law = [Decimal(0), Decimal(1)]
        for c in tree.neighbors[v]:
            if c != parent[v]:
                a = alpha[_norm_edge(v, c)]
                f = [a * x for x in eta[c]]
                f[0] += 1 - a
                law = [sum(law[i] * f[k - i] for i in range(max(0, k - len(f) + 1), min(k, len(law) - 1) + 1))
                       for k in range(len(law) + len(f) - 1)]
        eta[v] = law
    return eta, parent


def decimal_tvar_rows(model: MpmrfModel, kappas, prec: int = 60) -> tuple[list[int], dict[int, list]]:
    """(qs, rows): the quantiles VaR_kappa(M) and every vertex's TVaR contributions
    at each kappa, in prec-digit decimal arithmetic from the model's exact floats (d <= 60).

    Q = sum_v (1 - alpha_pa(v)) eta_v under the rooting at the smallest label;
    M's pmf by Panjer, p_0 = exp(-lambda Q(1)), p_k = lambda / k sum_j j Q_j p_{k-j},
    on until F passes the largest kappa; each H_v by rooting at v; each
    contribution (lambda - lambda <H_v, F(q - .)> + (F(q) - kappa) / p(q) *
    lambda <H_v, p(q - .)>) / (1 - kappa).
    """
    tree = model.tree
    if tree.d > 60:
        raise ValueError("the decimal oracle is for d <= 60")
    with localcontext() as ctx:
        ctx.prec = prec
        lam = Decimal(model.lam)
        alpha = {e: Decimal(a) for e, a in model.alpha.items()}
        eta, parent = _decimal_eta(tree, tree.vertices[0], alpha)
        expo = [Decimal(0)] * (tree.d + 1)
        for v, law in eta.items():
            w = 1 - alpha[_norm_edge(parent[v], v)] if parent[v] is not None else Decimal(1)
            for k, x in enumerate(law):
                expo[k] += w * x
        p0 = (-lam * sum(expo)).exp()
        pmf, cdf = [p0], [p0]
        top = Decimal(max(kappas))
        while cdf[-1] < top:
            k = len(pmf)
            pmf.append(lam / k * sum(j * expo[j] * pmf[k - j] for j in range(1, min(k, tree.d) + 1)))
            cdf.append(cdf[-1] + pmf[-1])
        qs = [next(k for k, f in enumerate(cdf) if f >= Decimal(kappa)) for kappa in kappas]
        rows = {}
        for v in tree.vertices:
            h = _decimal_eta(tree, v, alpha)[0][v]
            row = []
            for q, kappa in zip(qs, kappas):
                js = range(min(len(h) - 1, q) + 1)
                at_q = lam * sum(h[j] * pmf[q - j] for j in js)
                below = lam * sum(h[j] * cdf[q - j] for j in js)
                row.append((lam - below + (cdf[q] - Decimal(kappa)) / pmf[q] * at_q) / (1 - Decimal(kappa)))
            rows[v] = row
    return qs, rows


def reference_exponent(tree: Tree, alpha) -> np.ndarray:
    """The aggregate's exponent Q = sum_v (1 - alpha_pa(v)) * eta_v off
    reference_eta, each law added whole, rooted at the smallest label."""
    rooted = root_at(tree, tree.vertices[0])
    q = np.zeros(tree.d + 1)
    for v, eta in reference_eta(rooted, alpha):
        a = _reference_alpha(alpha, rooted.parent[v], v) if v in rooted.parent else 0.0
        q[: len(eta)] += (1.0 - a) * eta
    return _reference_trim(q)


def reference_panjer(lam: float, expo: np.ndarray, tol: float) -> DiscreteDist:
    """The blocked, rescaled Panjer pass of mpmrf.aggregate_dist on the exponent
    expo, each entry's forward substitution adding every weight w_a..w_1,
    zeros included.

    The same far/near split: subnormal weights set to 0, and per super-block
    of _PANJER_SUPER entries one matrix product of a window of q and the
    block weights' columns before j_max - near, over the span of the nonzero
    weights w_j, j > near, and from q[0] on."""
    terms = expo.tolist()
    hi = math.fsum(terms)
    rate = Decimal(lam) * (Decimal(hi) + Decimal(math.fsum([*terms, -hi])))
    k_end = mpmrf._tail_bound(lam, expo, tol)
    j_max = len(expo) - 1
    w = np.arange(j_max + 1) * expo
    w[w < np.finfo(float).tiny] = 0.0  # 2.0 ** -1022
    n_b, n_s = mpmrf._PANJER_BLOCK, mpmrf._PANJER_SUPER
    near = n_s - n_b
    past_w = np.zeros((n_b, j_max + n_b))
    for a in range(n_b):
        past_w[a, a : a + j_max] = w[:0:-1]
    own_w = [past_w[a, j_max : j_max + a].tolist() for a in range(n_b)]
    far_j = [j for j in range(near + 1, j_max + 1) if w[j]]
    scale = 2.0 ** -mpmrf._SHIFT
    q = np.zeros(int(k_end) + 1)
    q[0], shifts = 1.0, 0
    c = mpmrf._panjer_start(rate, shifts)
    k, total = 0, 0.0
    for s0 in range(1, len(q), n_s):
        starts = list(range(s0, min(s0 + n_s, len(q)), n_b))
        far = np.zeros((len(starts), n_b))
        if far_j:
            lo = max(0, j_max - far_j[-1], j_max - starts[-1])
            hi = min(j_max - near, j_max - far_j[0] + n_b)
            if lo < hi:
                win = np.zeros((len(starts), hi - lo))
                for b, k0 in enumerate(starts):
                    first = k0 - j_max + lo  # q's index of column lo; below 0 reads 0
                    skip = min(max(0, -first), hi - lo)
                    win[b, skip:] = q[first + skip : first + hi - lo]
                far = win @ past_w[:, lo:hi].T
        for b, k0 in enumerate(starts):
            n = min(n_b, len(q) - k0)
            lo = j_max - min(j_max, near, k0)
            past = (past_w[:n, lo : j_max + n] @ q[k0 + lo - j_max : k0 + n]).tolist()
            past = [pa + fa for pa, fa in zip(past, far[b, :n].tolist())]  # + 0.0: no bit
            xs = []
            for a in range(n):
                x = past[a]
                for wj, xl in zip(own_w[a], xs):
                    x += wj * xl
                x *= lam / (k0 + a)
                xs.append(x)
                if x > 1e250:
                    q[:k0] *= scale
                    xs = [xl * scale for xl in xs]
                    past[a + 1 :] = [pa * scale for pa in past[a + 1 :]]
                    far[b + 1 :] *= scale
                    shifts += 1
                    c = mpmrf._panjer_start(rate, shifts)
            q[k0 : k0 + n] = xs
            for x in q[k : k0 + n].tolist():
                total += c * x
                if 1.0 - total < tol:
                    pmf = q[: k + 1]
                    pmf *= c
                    return DiscreteDist(pmf, max(0.0, 1.0 - total))
                k += 1
    raise mpmrf.ToleranceError("reference pass ran out of support")


def reference_algebraic_connectivity(tree: Tree) -> float:
    """The second-smallest eigenvalue of diag(degrees) - a, both d x d
    matrices formed whole (0.0 for a single vertex)."""
    a = adjacency_matrix(tree)
    lmu = np.linalg.eigvalsh(np.diag(a.sum(axis=1)) - a)
    return float(lmu[1]) if tree.d > 1 else 0.0
