"""Tree-structured Markov random field with Poisson(lambda) marginals.

The model propagates events along edges by binomial thinning: rooted anywhere,
the root draws Poisson(lambda) and every other vertex v draws an innovation
Poisson(lambda*(1-alpha_e)) plus a Binomial(N_parent, alpha_e) carry-over,
where e is the edge to its parent. The joint law does not depend on the
rooting.

Key derived objects:
  * H_v: total events, anywhere on the tree, originating from vertex v when
    the tree is rooted at v. Its pgf, a plain float array whose entry k is
    the coefficient of t^k (h_poly returns one), is t times the product over
    children of (1 - alpha + alpha * child pgf). Every vertex's H law comes
    from one down-and-up pass of O(d) convolutions.
  * M = sum of all components: compound Poisson with rate
    lambda * (d - sum(alpha_e)) and severity a mixture of the H_v laws,
    evaluated by one rescaled Panjer pass at any rate into one array sized
    by a Chernoff tail bound, cut at the first K whose tail mass is below
    tol, in blocks of _PANJER_BLOCK entries: one matrix-vector product per
    block, then forward substitution within it.
  * Expected allocations E[N_v 1{M=k}] = lambda * (pmf_{H_v} conv pmf_M)(k),
    the basis of conditional mean risk sharing and Euler TVaR contributions.
  * Cov(N_v, M) = lambda * E[H_v] and the closeness indices: every vertex's
    value from one O(d) scalar pass over one rooting.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from functools import lru_cache

import numpy as np

from .tree_core import RootedTree, Tree, _norm_edge, root_at

PMF_SUM_TOL = 1e-9
DEFAULT_TOL = 1e-12
MAX_TOL = 1e-3
MAX_K = 10**8  # the largest pmf or sampler table built: 800 MB of floats
_SHIFT = 664  # a Panjer rescaling step, 2**-664 (about 1e-200)
_BLOCK = 1 << 16  # uniforms per sampler rng.random call, at most (one long draw aside)
_GUIDE = 1 << 12  # guide-table bins of the Poisson inversion, a power of 2
_PANJER_BLOCK = 16  # Panjer entries per matrix-vector product


class ToleranceError(ArithmeticError):
    """A requested numerical tolerance cannot be reached."""


@dataclass(frozen=True)
class DiscreteDist:
    """pmf on {0..K} with explicit bookkeeping of the mass beyond K."""

    pmf: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        p = np.asarray(self.pmf, dtype=float)
        if p.min(initial=0.0) < -1e-15:
            raise ValueError("pmf has a significantly negative entry")
        p = np.where(p < 0.0, 0.0, p)
        p.flags.writeable = False
        object.__setattr__(self, "pmf", p)
        total = float(p.sum()) + self.tail_mass
        if not abs(total - 1.0) <= PMF_SUM_TOL:  # a NaN entry or tail fails here too
            raise ValueError(f"pmf plus tail mass sums to {total}, not 1")

    @property
    def k_max(self) -> int:
        return len(self.pmf) - 1

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.pmf)

    def mean(self) -> float:
        """Mean of the retained pmf only: short by about K * tail_mass on a cut aggregate."""
        return float(np.arange(len(self.pmf)) @ self.pmf)

    def quantile(self, kappa: float) -> int:
        """Smallest k with F(k) >= kappa (the inf-style quantile).

        kappa above the retained mass resolves to the support bound K.
        """
        if not 0.0 <= kappa < 1.0:
            raise ValueError("kappa must be in [0, 1)")
        return min(int(np.searchsorted(self.cdf(), kappa)), self.k_max)


@dataclass(frozen=True)
class MpmrfModel:
    """Bundle of tree, marginal mean lambda and per-edge dependence alpha."""

    tree: Tree
    lam: float
    alpha: dict = field(repr=False)

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"lambda must be positive and finite, not {self.lam!r}")
        a = {_norm_edge(*e): float(v) for e, v in self.alpha.items()}
        if set(a) != set(self.tree.edges):
            raise ValueError("alpha must be given for exactly the tree's edges")
        for e, v in a.items():
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"alpha[{e}] = {v} outside [0, 1]")
        object.__setattr__(self, "alpha", a)

    @classmethod
    def homogeneous(cls, tree: Tree, lam: float, alpha: float) -> "MpmrfModel":
        return cls(tree, lam, {e: alpha for e in tree.edges})

    def edge_alpha(self, a: int, b: int) -> float:
        return self.alpha[_norm_edge(a, b)]

    def is_homogeneous(self) -> bool:
        vals = set(self.alpha.values())
        return len(vals) <= 1

    def to_json(self) -> dict:
        obj = self.tree.to_json()
        obj["lambda"] = self.lam
        if self.is_homogeneous():
            obj["alpha"] = next(iter(self.alpha.values()))
        else:
            obj["alpha"] = {f"{a}-{b}": v for (a, b), v in sorted(self.alpha.items())}
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "MpmrfModel":
        tree = Tree.from_json(obj)
        lam = _number(obj["lambda"])
        raw = obj["alpha"]
        if isinstance(raw, dict):
            alpha = {}
            for key, v in raw.items():
                a, b = key.split("-")
                alpha[_norm_edge(int(a), int(b))] = _number(v)
            return cls(tree, lam, alpha)
        return cls.homogeneous(tree, lam, _number(raw))


def _number(x) -> float:
    """x as a float when it is a JSON number: an int or a float, not a bool or a string."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"lambda and alpha must be numbers, not {x!r}")
    try:
        return float(x)
    except OverflowError:  # an int literal past the float range
        raise ValueError(f"lambda or alpha {x} is past the float range") from None


def _alpha_of(alpha, a: int, b: int) -> float:
    if isinstance(alpha, dict):
        return alpha[_norm_edge(a, b)]
    return float(alpha)


def _trim(c: np.ndarray) -> np.ndarray:
    """Drop trailing zero coefficients (c has a nonzero entry).

    Most products end in a nonzero entry and come back as they are, without
    the scan, which costs more than the small convolutions it follows.
    """
    return c if c[-1] else c[: np.flatnonzero(c)[-1] + 1]


def _thin(a: float, p: np.ndarray) -> np.ndarray:
    """1 - a + a * p(t), trimmed of the trailing zeros left where a * p underflows."""
    f = a * p
    f[0] += 1.0 - a
    return _trim(f)


def _pairs(row: list[np.ndarray]) -> list[np.ndarray]:
    """One level of a balanced product tree: neighbours multiplied pairwise, an odd last one kept."""
    return [_trim(np.convolve(row[k], row[k + 1])) if k + 1 < len(row) else row[k]
            for k in range(0, len(row), 2)]


def _eta(rooted: RootedTree, alpha) -> dict[int, np.ndarray]:
    """pgf coefficients of the events each vertex seeds in its own subtree.

    eta_v(t) = t * prod over children c of (1 - alpha_vc + alpha_vc * eta_c(t)),
    built leaves first; alpha is a scalar or an edge map. Products are trimmed
    like the factors (_thin), so every convolution runs over the support. The
    factor t and the children multiply level by level up the balanced product
    tree of _all_but_one (_pairs): a star centre of degree n makes few long
    convolutions instead of n passes over a growing product. Up to two
    children this is the one-by-one product t * f1 * f2.
    """
    eta: dict[int, np.ndarray] = {}
    for v in reversed(rooted.order):
        row = [np.array([0.0, 1.0])]
        for c in rooted.children[v]:
            row.append(_thin(_alpha_of(alpha, v, c), eta[c]))
        while len(row) > 1:
            row = _pairs(row)
        eta[v] = row[0]
    return eta


def _all_but_one(factors: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The product of all factors, and for each factor the product of the others.

    The factors multiply pairwise, level by level (_pairs), up a balanced
    product tree; going down, each node hands each child its own share times
    the child's sibling. That is fewer than 3n convolutions for n factors, none
    longer than the whole product, so a star centre of degree n costs
    O(n^2 log n) arithmetic where prefix times suffix products cost O(n^3).
    """
    if not factors:
        return np.ones(1), []
    levels = [factors]
    while len(levels[-1]) > 1:
        levels.append(_pairs(levels[-1]))
    others = [None]  # None: the empty product, which takes no convolution
    for row in reversed(levels[:-1]):
        shares = []
        for k in range(len(row)):
            mine, sib = others[k >> 1], row[k ^ 1] if k ^ 1 < len(row) else None
            shares.append(mine if sib is None else sib if mine is None else _trim(np.convolve(mine, sib)))
        others = shares
    return levels[-1][0], [np.ones(1) if o is None else o for o in others]


def _h_all(tree: Tree, alpha) -> dict[int, np.ndarray]:
    """pgf coefficients of every H_v: one rooted _eta pass, then one pass down.

    H_v is t times the thinned pgfs of its neighbours' sides. Going down,
    each child gets the thinned pgf of its parent's side: t times the
    parent's other factors, handed out by _all_but_one (no division).
    O(d) convolutions in all.
    """
    rooted = root_at(tree, tree.vertices[0])
    eta = _eta(rooted, alpha)
    up, h = {}, {}  # up: child -> thinned pgf of its parent's side; read once, like eta
    for v in rooted.order:
        parent, ns = rooted.parent.get(v), tree.neighbors[v]
        factors = [up.pop(v) if u == parent else _thin(_alpha_of(alpha, v, u), eta.pop(u)) for u in ns]
        total, others = _all_but_one(factors)
        h[v] = np.concatenate(([0.0], total))  # times t
        others.reverse()  # popped in neighbour order: each share is freed once used
        for u in ns:
            rest = others.pop()
            if u != parent:
                up[u] = _thin(_alpha_of(alpha, v, u), np.concatenate(([0.0], rest)))
    return h


def h_poly(tree: Tree, root: int, alpha) -> np.ndarray:
    """pgf coefficients of H_root; alpha is a scalar or an edge map in [0, 1]."""
    for a in alpha.values() if isinstance(alpha, dict) else (alpha,):
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"alpha {a} outside [0, 1]")
    return _eta(root_at(tree, root), alpha)[root]


def h_dist(model: MpmrfModel, root: int) -> DiscreteDist:
    """Exact law of H_root: support within {1..d}, no mass at 0."""
    return DiscreteDist(h_poly(model.tree, root, model.alpha))


def _severity_mixture(model: MpmrfModel) -> tuple[float, np.ndarray]:
    """Compound-Poisson rate and normalized severity pmf of M.

    The aggregate pgf is exp(lambda * sum_v (1-alpha_pa(v)) * (eta_v(t)-1))
    with alpha_pa(root)=0, i.e. compound Poisson with rate
    lambda*(d - sum alpha_e) and severity the weight-(1-alpha_pa(v)) mixture
    of the H_v laws under the rooting at the smallest label.
    """
    tree = model.tree
    rooted = root_at(tree, tree.vertices[0])
    eta = _eta(rooted, model.alpha)
    weights = {v: 1.0 if v == rooted.order[0] else 1.0 - model.edge_alpha(rooted.parent[v], v)
               for v in tree.vertices}
    total = sum(weights.values())  # = d - sum(alpha_e)
    rate = model.lam * total
    sev = np.zeros(tree.d + 1)
    for v in tree.vertices:
        sev[: len(eta[v])] += (weights[v] / total) * eta[v]
    # rounding can leave the mixture short of mass 1, and Panjer would lose
    # rate times that shortfall at every K
    return rate, _trim(sev) / sev.sum()


@lru_cache(maxsize=16)
def _panjer_start(rate: float, shifts: int) -> float:
    """exp(-rate) * 2**(_SHIFT * shifts), rounded once to a float.

    Formed in decimal as one exponential of _SHIFT * shifts * ln 2 - rate, an
    exponent that stays near the float range at any rate. A float exponent
    would carry an error of about rate * 2**-53, which at rates in the
    thousands leaves the pmf short of mass 1 by more than the default tol.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        x = (Decimal(_SHIFT * shifts) * Decimal(2).ln() - Decimal(rate)).exp()
    return float(x)


def _tail_bound(rate: float, sev: np.ndarray, tol: float) -> float:
    """A K* with P(M >= K*) <= tol / 2 for M compound Poisson(rate) with severity sev; inf past floats.

    Chernoff: P(M >= K) <= exp(g(theta) - theta K) at any theta > 0, with the
    log-mgf g(theta) = rate * sum_j s_j expm1(theta j). It is tightest where
    h(theta) = theta g'(theta) - g(theta), rising from 0, meets ln(2 / tol);
    bisection on log theta over [2**-64, 1] * 700 / j_max comes within 0.1%
    of that theta (a nan or inf h counting as too far).
    """
    js = np.arange(len(sev))
    need = math.log(2.0) - math.log(tol)  # tol / 2 underflows at the smallest tol
    hi = 700.0 / (len(sev) - 1)
    lo = hi * 2.0 ** -64
    for _ in range(16):
        theta = math.sqrt(lo * hi)
        e = np.expm1(theta * js)
        if rate * float(sev @ (theta * js * (e + 1.0) - e)) < need:
            lo = theta
        else:
            hi = theta
    return float(np.ceil((rate * float(sev @ np.expm1(lo * js)) + need) / lo))


def aggregate_dist(model: MpmrfModel, tol: float = DEFAULT_TOL) -> DiscreteDist:
    """Law of M = sum of all components, cut at the first K with tail below tol.

    The rooting only affects intermediate quantities: a relabelled model has
    the same law (tested to 1e-10 pointwise). One Panjer pass
    p_k = rate/k * sum_j w_j p_{k-j}, w_j = j s_j, runs on q = p / c from
    q_0 = 1; each time an entry passes 1e250, all of q so far is scaled by
    2**-664, an exact step, and c = exp(-rate) 2**(664 * shifts)
    (_panjer_start; every H_v >= 1, so s_0 = 0), so no rate underflows.
    q is allocated once, up to the K* of _tail_bound (P(M >= K*) <= tol / 2);
    ValueError comes first when K* passes MAX_K.

    The entries come in blocks of B = _PANJER_BLOCK. For the block from k0,
    one product of the B x (j_max + B) Toeplitz matrix of the w_j (row a
    holds w_{j_max}..w_1 from column a) with q[k0 - j_max:k0 + B] gives each
    entry's sum over the entries before k0, as q[k0:] is still 0. Its own
    entries follow in Python floats, x_a = rate/(k0 + a) * (past_a +
    sum_{l<a} w_{a-l} x_l); a rescaling inside a block also scales them and
    the pending sums. Every term is nonnegative, so each entry keeps its
    relative accuracy. Then the block's p_k join a running sum, which stops
    at the first K where 1 - sum(p_0..p_K) < tol. ToleranceError is raised
    only at K*, where the true tail is at most tol / 2: the rest is rounding.
    """
    if not 0.0 < tol <= MAX_TOL:
        raise ValueError(f"tol must be in (0, {MAX_TOL}]")
    rate, sev = _severity_mixture(model)
    if not math.isfinite(rate):
        raise ValueError(f"compound-Poisson rate {rate!r} is not finite")
    k_end = _tail_bound(rate, sev, tol)
    if not k_end <= MAX_K:
        raise ValueError(f"aggregate support K = {k_end:.4g} passes MAX_K = {MAX_K:,} "
                         f"(compound-Poisson rate {rate!r})")
    j_max = len(sev) - 1
    w = np.arange(j_max + 1) * sev  # w_j = j * s_j; w_0 = 0
    n_b = _PANJER_BLOCK
    past_w = np.zeros((n_b, j_max + n_b))  # row a: w_{j_max}..w_1 against q[k0 + a - j_max:k0 + a]
    for a in range(n_b):
        past_w[a, a : a + j_max] = w[:0:-1]
    # the block's own columns: w_a..w_1 (0 past j_max), against its x_0..x_{a-1}
    own_w = [past_w[a, j_max : j_max + a].tolist() for a in range(n_b)]
    q = np.zeros(int(k_end) + 1)
    q[0], shifts = 1.0, 0
    k, total = 0, 0.0  # p_0..p_{k-1} add up to total
    for k0 in range(1, len(q), n_b):
        n = min(n_b, len(q) - k0)
        lo = max(0, j_max - k0)  # the columns before q[0]
        past = (past_w[:n, lo : j_max + n] @ q[k0 + lo - j_max : k0 + n]).tolist()
        xs = []
        for a in range(n):
            x = past[a]
            for wj, xl in zip(own_w[a], xs):
                x += wj * xl
            x *= rate / (k0 + a)
            xs.append(x)
            if x > 1e250:
                q[:k0] *= 2.0 ** -_SHIFT
                xs = [xl * 2.0 ** -_SHIFT for xl in xs]
                past[a + 1 :] = [pa * 2.0 ** -_SHIFT for pa in past[a + 1 :]]
                shifts += 1
        q[k0 : k0 + n] = xs
        c = _panjer_start(rate, shifts)
        for x in q[k : k0 + n].tolist():
            total += c * x
            if 1.0 - total < tol:
                return DiscreteDist(c * q[: k + 1], max(0.0, 1.0 - total))
            k += 1
    raise ToleranceError(f"aggregate tail mass {1.0 - total!r} is not below tol {tol!r} by "
                         f"K = {k - 1}, where the true tail is at most tol / 2: the rest is "
                         f"float rounding (compound-Poisson rate {rate!r})")


def sample(model: MpmrfModel, root: int, rng_seed: int, n: int) -> np.ndarray:
    """n draws of the full vector, as an (n, d) column-major array in vertex-label order.

    Reproducible across platforms: PCG64 stream, all variates by inversion.
    Consumption order is pinned: one Poisson block per vertex in BFS order
    (children ascending), each non-root block followed by its thinning block.
    Each vertex's n draws are one contiguous column, filled in place;
    ValueError, before allocating, when the n * d draws would pass MAX_K.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    tree = model.tree
    if n * tree.d > MAX_K:
        raise ValueError(f"{n:,} draws of {tree.d} vertices pass MAX_K = {MAX_K:,} entries")
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    rooted = root_at(tree, root)
    col = {v: i for i, v in enumerate(tree.vertices)}
    out = np.empty((n, tree.d), dtype=np.int64, order="F")
    _poisson_inverse(rng, model.lam, out[:, col[root]])
    ends = np.empty(n, dtype=np.int64)
    for p in rooted.order:  # BFS order lists each vertex's children together, ascending
        if rooted.children[p]:
            np.cumsum(out[:, col[p]], out=ends)  # one cumsum serves all of p's children
        for v in rooted.children[p]:
            a = model.edge_alpha(p, v)
            _poisson_inverse(rng, model.lam * (1.0 - a), out[:, col[v]])
            _binomial_thinning(rng, ends, a, out[:, col[v]])
    return out


def _poisson_cdf(mu: float) -> np.ndarray:
    """The Poisson(mu > 0) cdf at k = 0 .. mu + 12 sqrt(mu) + 30; ValueError past MAX_K entries.

    The log-pmf k log(mu) - mu - lgamma(k + 1) rises up to the mode; exp gives 0.0
    below the first k where it reaches -746, so lgamma is called from that k on.
    """
    k_hi = mu + 12.0 * math.sqrt(mu) + 30.0
    if not k_hi <= MAX_K:
        raise ValueError(f"Poisson sampler table of {k_hi:.4g} entries passes "
                         f"MAX_K = {MAX_K:,} (rate mu = {mu!r})")
    size, log_mu = int(k_hi) + 1, math.log(mu)
    lo = bisect_left(range(int(mu)), -746.0, key=lambda k: k * log_mu + -mu - math.lgamma(k + 1))
    pmf = np.arange(lo, size, dtype=float) * log_mu  # the log-pmf from k = lo, then in place
    pmf += -mu
    pmf -= np.fromiter((math.lgamma(k + 1) for k in range(lo, size)), dtype=float, count=size - lo)
    np.exp(pmf, out=pmf)
    return np.concatenate((np.zeros(lo), np.cumsum(pmf)))


def _poisson_inverse(rng: np.random.Generator, mu: float, out: np.ndarray) -> None:
    """Fill out with Poisson(mu) draws by cdf inversion of one uniform each,
    drawn in blocks of _BLOCK; ValueError when the cdf table would pass MAX_K.

    A guide table (Chen & Asau 1974) of _GUIDE equal bins of [0, 1) holds, per
    bin, the count of cdf entries at or below its left edge: that is the draw
    of every uniform in a bin with no cdf entry strictly inside it. The other
    bins hold -1, and their uniforms are searched in the full cdf, so every
    draw equals searchsorted(cdf, u, "right").
    """
    n = len(out)
    if mu == 0.0:
        for lo in range(0, n, _BLOCK):  # keep the stream layout independent of mu
            rng.random(min(_BLOCK, n - lo))
        out[:] = 0
        return
    cdf = _poisson_cdf(mu)
    edges = np.arange(_GUIDE + 1) / _GUIDE
    guide = np.searchsorted(cdf, edges[:-1], side="right")
    guide[np.searchsorted(cdf, edges[1:], side="left") > guide] = -1
    for lo in range(0, n, _BLOCK):
        u = rng.random(min(_BLOCK, n - lo))
        k = out[lo: lo + len(u)]  # one gather; u * _GUIDE is exact, _GUIDE being a power of 2
        np.take(guide, (u * _GUIDE).astype(np.intp), out=k, mode="clip")
        m = np.flatnonzero(k < 0)
        k[m] = np.searchsorted(cdf, u[m], side="right")


def _binomial_thinning(rng: np.random.Generator, ends: np.ndarray, alpha: float,
                       out: np.ndarray) -> None:
    """Add to out[i] the successes of draw i's Bernoulli(alpha) trials, one uniform
    each, ends being the trials' cumulative counts; ValueError, before drawing, past MAX_K.

    The uniforms are drawn in blocks of whole draws carrying about _BLOCK
    events each (a draw carrying more is a block alone), so the temporaries
    are O(block), not O(total carried).
    """
    total = int(ends[-1]) if len(ends) else 0
    if total > MAX_K:
        raise ValueError(f"thinning {total:,} carried events passes MAX_K = {MAX_K:,} uniforms")
    hits = np.zeros(min(total, _BLOCK) + 1, dtype=np.int64)  # hits[i]: successes in a block's first i
    lo, base = 0, 0
    while base < total:
        hi = max(lo + 1, int(np.searchsorted(ends, base + _BLOCK, side="right")))
        k = int(ends[hi - 1]) - base
        if k >= len(hits):
            hits = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(rng.random(k) < alpha, out=hits[1: k + 1])
        upto = hits[ends[lo:hi] - base]  # successes up to each draw's end: differenced in place
        out[lo:hi] += upto
        out[lo + 1: hi] -= upto[:-1]
        lo, base = hi, base + k


def _path_sums(rooted: RootedTree, alpha) -> dict[int, float]:
    """Every vertex's sum_j prod_{e in path(v,j)} alpha_e in O(d): s_v = 1 + sum_c alpha_vc * s_c
    going up (children ascending), then t_c = s_c + alpha_pc * (t_p - alpha_pc * s_c) going down.
    """
    s: dict[int, float] = {}
    for v in reversed(rooted.order):
        s[v] = 1.0
        for c in rooted.children[v]:
            s[v] += _alpha_of(alpha, v, c) * s[c]
    t = dict(s)
    for c in rooted.order[1:]:
        a = _alpha_of(alpha, rooted.parent[c], c)
        t[c] = s[c] + a * (t[rooted.parent[c]] - a * s[c])
    return t


def cov_with_sum(model: MpmrfModel) -> dict[int, float]:
    """Cov(N_v, M) = lambda * sum_j prod_{e in path(v,j)} alpha_e for every v: one rooting, O(d)."""
    sums = _path_sums(root_at(model.tree, model.tree.vertices[0]), model.alpha)
    return {v: model.lam * sums[v] for v in model.tree.vertices}


def expected_allocation(model: MpmrfModel, v: int, tol: float = DEFAULT_TOL) -> np.ndarray:
    """E[N_v 1{M=k}] for k up to the aggregate support bound, as a read-only array.

    Generating identity: sum_k E[N_v 1{M=k}] t^k = lambda * eta_v(t) * P_M(t),
    read coefficientwise, i.e. lambda times the convolution of the H_v and M
    pmfs, both nonnegative. Entries total E[N_v] = lambda up to the truncation tail.
    """
    agg = aggregate_dist(model, tol)
    table = model.lam * np.convolve(h_dist(model, v).pmf, agg.pmf)
    table.flags.writeable = False
    return table


def tvar(dist: DiscreteDist, kappa: float, mean: float | None = None) -> float:
    """Tail value-at-risk of an integer-valued distribution.

    The part above q = VaR_kappa is mean - sum_{k<=q} k p_k. Given the exact
    mean (d * lambda for the aggregate), that counts the mass beyond K, as the
    Euler contributions do; by default the mean of the retained pmf is used.
    """
    q = dist.quantile(kappa)
    if mean is None:
        mean = dist.mean()
    above = mean - float(np.arange(q + 1) @ dist.pmf[: q + 1])
    atom = (float(dist.cdf()[q]) - kappa) * q
    return (above + atom) / (1.0 - kappa)


def _euler_contribution(pmf: np.ndarray, cdf: np.ndarray, q: int, h: np.ndarray,
                        lam: float, kappa: float) -> float:
    """The contribution at level kappa of the vertex with H law h, where q = VaR_kappa(M).

    Only two entries of the allocation table are read, each as one O(|h|) sum:
    E[N_v 1{M=q}] = lam * sum_j h_j p_M(q-j) and E[N_v 1{M<=q}] = lam * sum_j h_j F_M(q-j).
    """
    j = np.arange(min(len(h) - 1, q) + 1)
    at_q = lam * float(h[j] @ pmf[q - j])
    above = lam - lam * float(h[j] @ cdf[q - j])
    pq = float(pmf[q])
    atom = (float(cdf[q]) - kappa) / pq * at_q if pq > 0 else 0.0
    return (above + atom) / (1.0 - kappa)


def tvar_contribution_table(model: MpmrfModel, agg: DiscreteDist, kappas) -> dict[int, np.ndarray]:
    """Euler TVaR contributions of every vertex over a grid of levels, on agg = aggregate_dist(model).

    With q = VaR_kappa(M), vertex v's contribution at level kappa is
      (E[N_v 1{M>q}] + (F_M(q)-kappa)/p_M(q) * E[N_v 1{M=q}]) / (1-kappa),
    and the contributions over all vertices sum to TVaR_kappa(M). The
    quantiles come first, so a kappa outside [0, 1) raises ValueError before
    the one _h_all pass that gives every H law.
    """
    levels = [(agg.quantile(k), k) for k in kappas]
    h = _h_all(model.tree, model.alpha)
    cdf = agg.cdf()
    return {v: np.array([_euler_contribution(agg.pmf, cdf, q, h[v], model.lam, k) for q, k in levels])
            for v in model.tree.vertices}


def dist_to_csv(dist: DiscreteDist) -> str:
    """CSV rows k,p with a trailer recording the truncated tail mass."""
    lines = ["k,p"]
    lines += [f"{k},{repr(float(p))}" for k, p in enumerate(dist.pmf)]
    lines.append(f"# tail_mass,{repr(float(dist.tail_mass))}")
    return "\n".join(lines) + "\n"


def allocation_to_csv(table: np.ndarray) -> str:
    """CSV rows k,value for one vertex's expected allocations (expected_allocation)."""
    lines = ["k,value"]
    lines += [f"{k},{repr(float(x))}" for k, x in enumerate(table)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Closeness:
    freeman: int
    exp_transform: float


def closeness_indices(model: MpmrfModel) -> dict[int, Closeness]:
    """Freeman closeness and its exponential transform, per vertex.

    The exponential transform sum_j alpha^|path(v,j)| needs one common alpha;
    lambda times it is then Cov(N_v, M). One rooting gives both: the transform
    by _path_sums, Freeman sums by F(c) = F(parent) + d - 2 |subtree(c)|.
    """
    if not model.is_homogeneous():
        raise ValueError("exponential-transform closeness needs homogeneous alpha")
    tree = model.tree
    rooted = root_at(tree, tree.vertices[0])
    size = {}
    for v in reversed(rooted.order):
        size[v] = 1 + sum(size[c] for c in rooted.children[v])
    freeman = {rooted.order[0]: sum(size.values()) - tree.d}  # the sum of all depths
    for c in rooted.order[1:]:
        freeman[c] = freeman[rooted.parent[c]] + tree.d - 2 * size[c]
    exp = _path_sums(rooted, model.alpha)
    return {v: Closeness(freeman[v], exp[v]) for v in tree.vertices}
