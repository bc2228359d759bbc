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
    children of (1 - alpha + alpha * child pgf). The TVaR table reads every
    vertex's H law through dot products only, all of them from one reverse
    pass over the eta laws of the aggregate's pass (_h_rows).
  * M = sum of all components: pgf exp(lambda (Q(t) - Q(1))), Q a weighted
    sum of the H_v laws (_exponent), by one rescaled Panjer pass on (lambda,
    Q) from Q's exact float mass into one array sized by a Chernoff tail
    bound, cut at the first K whose tail mass is below tol, in blocks of
    _PANJER_BLOCK entries: one matrix product per _PANJER_SUPER entries for
    the far past, one matrix-vector product per block for the near past,
    then forward substitution within it.
  * Expected allocations E[N_v 1{M=k}] = lambda * (pmf_{H_v} conv pmf_M)(k),
    the basis of conditional mean risk sharing and Euler TVaR contributions.
  * Cov(N_v, M) = lambda * E[H_v] and the closeness indices: every vertex's
    value from one O(d) scalar pass over one rooting.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from decimal import Context, Decimal, localcontext
from itertools import accumulate

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
_PANJER_SUPER = 256  # Panjer entries per matrix product of their far past, 16 blocks


class ToleranceError(ArithmeticError):
    """A requested numerical tolerance cannot be reached."""


@dataclass(frozen=True)
class DiscreteDist:
    """pmf on {0..K} with explicit bookkeeping of the mass beyond K."""

    pmf: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        p = np.array(self.pmf, dtype=float)  # the one copy, clamped in place
        if p.min(initial=0.0) < -1e-15:
            raise ValueError("pmf has a significantly negative entry")
        p[p < 0.0] = 0.0
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
    _alpha: float | dict = field(init=False, repr=False, compare=False)  # alpha as the passes take it

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise ValueError(f"lambda must be positive and finite, not {self.lam!r}")
        a = {_norm_edge(*e): float(v) for e, v in self.alpha.items()}
        if a.keys() != set(self.tree.edges):
            raise ValueError("alpha must be given for exactly the tree's edges")
        values = set(a.values())
        if not all(0.0 <= v <= 1.0 for v in values):  # NaN too
            e, v = next((e, v) for e, v in a.items() if not 0.0 <= v <= 1.0)
            raise ValueError(f"alpha[{e}] = {v} outside [0, 1]")
        object.__setattr__(self, "alpha", a)
        # the one float every edge has (0.0 with no edge) when there is one, else the edge map
        object.__setattr__(self, "_alpha", a if len(values) > 1 else next(iter(a.values()), 0.0))

    @classmethod
    def homogeneous(cls, tree: Tree, lam: float, alpha: float) -> "MpmrfModel":
        return cls(tree, lam, dict.fromkeys(tree.edges, alpha))

    def edge_alpha(self, a: int, b: int) -> float:
        return self.alpha[_norm_edge(a, b)]

    def is_homogeneous(self) -> bool:
        return not isinstance(self._alpha, dict)

    def to_json(self) -> dict:
        obj = self.tree.to_json()
        obj["lambda"] = self.lam
        if self.is_homogeneous() and self.alpha:  # a 1-vertex tree writes "alpha": {}
            obj["alpha"] = self._alpha
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
                alpha[int(a), int(b)] = _number(v)  # normalised by the constructor
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
    """One level of a balanced product tree: neighbours multiplied pairwise, an odd last one kept.

    A pair of the same two arrays as the pair before reuses its product, so n
    copies of one factor (a star centre's leaves) take O(log n) convolutions.
    """
    out = []
    for k in range(0, len(row) - 1, 2):
        if not (k and row[k] is row[k - 2] and row[k + 1] is row[k - 1]):
            prod = _trim(np.convolve(row[k], row[k + 1]))
        out.append(prod)
    return out + row[-1:] if len(row) % 2 else out


_T = np.array([0.0, 1.0])  # t, every leaf's eta: one shared array, never written
_T.flags.writeable = False
_ONE = np.ones(1)  # the empty product, shared like _T
_ONE.flags.writeable = False


def _thin_once(a: float, p: np.ndarray, leaf: dict[float, np.ndarray]) -> np.ndarray:
    """_thin(a, p), formed once per alpha when p is the leaf law _T: leaf maps alpha
    to that factor for one pass, so equal leaf factors are one array."""
    if p is not _T:
        return _thin(a, p)
    if a not in leaf:
        leaf[a] = _thin(a, _T)
    return leaf[a]


def _eta(rooted: RootedTree, alpha) -> Iterator[tuple[int, np.ndarray]]:
    """(v, eta_v), children first, eta_v the pgf of the events v seeds in its subtree.

    eta_v(t) = t * prod over children c of (1 - alpha_vc + alpha_vc * eta_c(t));
    alpha is a scalar or an edge map in [0, 1] (ValueError outside). eta_c is
    dropped once its parent has used it. Products are trimmed like the factors
    (_thin), so every convolution runs over the support. The factor t and the
    children multiply level by level up the balanced product tree of
    _all_but_one (_pairs): a star centre of degree n makes few long
    convolutions instead of n passes over a growing product. The first pair,
    t times the first child's factor, is an exact shift; every leaf's eta is
    the one array _T, and the pass thins it once per alpha, so a star
    centre's equal leaf factors multiply in O(log n) convolutions (_pairs).
    Each float is the one the plain product tree gives.
    """
    per_edge = isinstance(alpha, dict)
    for a in alpha.values() if per_edge else (alpha,):
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"alpha {a} outside [0, 1]")
    a = None if per_edge else float(alpha)
    held: dict[int, np.ndarray] = {}
    leaf: dict[float, np.ndarray] = {}  # alpha -> 1 - alpha + alpha * t, this pass only
    for v in reversed(rooted.order):
        row = []
        for c in rooted.children[v]:
            if per_edge:
                a = alpha[_norm_edge(v, c)]
            row.append(_thin_once(a, held.pop(c), leaf))
        eta = np.concatenate(([0.0], row[0])) if row else _T  # t * f1, an exact shift
        if len(row) > 1:
            row = [eta, *_pairs(row[1:])]  # f2 * f3, ...: the rest of the first level
            while len(row) > 1:
                row = _pairs(row)
            eta = row[0]
        held[v] = eta
        yield v, eta


def _root_eta(rooted: RootedTree, alpha) -> np.ndarray:
    """eta at the root of `rooted`: the last law of the pass, the only one kept."""
    return deque(_eta(rooted, alpha), maxlen=1)[0][1]


def _all_but_one(factors: list[np.ndarray]) -> Iterator[np.ndarray]:
    """Each factor's share, the product of the other factors, in order.

    The factors multiply pairwise up a balanced product tree (_pairs); going
    down, a node's share is its parent's share times its sibling: fewer than
    3n convolutions for n factors, none longer than the product, where prefix
    times suffix products cost O(n^3) at a star centre. Shares are formed
    depth first, as they are read, so only the current one of each level is
    held. A share whose (parent's share, sibling) are the arrays the node
    before on its level was formed from is that node's array, as in _pairs:
    n copies of one factor take O(log n) convolutions. No share is written.
    """
    levels = [factors]
    while len(levels[-1]) > 1:
        levels.append(_pairs(levels[-1]))
    share = [None] * len(levels)  # of the current node per level; None: the empty product
    made = [(None, None, None)] * len(levels)  # (parent's share, sibling, product) last formed
    for k in range(len(factors)):
        # the nodes above factor k that are new since factor k - 1, top down
        for lv in range(len(levels) - 2 if k == 0 else (k & -k).bit_length() - 1, -1, -1):
            row, j = levels[lv], k >> lv
            mine, sib = share[lv + 1], row[j ^ 1] if j ^ 1 < len(row) else None
            if mine is None or sib is None:
                share[lv] = sib if mine is None else mine
                continue
            if mine is not made[lv][0] or sib is not made[lv][1]:
                made[lv] = mine, sib, _trim(np.convolve(mine, sib))
            share[lv] = made[lv][2]
        yield _ONE if share[0] is None else share[0]


def _h_rows(rooted: RootedTree, alpha, eta: dict[int, np.ndarray], g: np.ndarray
            ) -> dict[int, np.ndarray]:
    """g @ H_v for every vertex v, g of shape (rows, d + 1), from the eta laws
    _exponent keeps under rooted, each popped once read; no H law is formed.

    With v's events marked by s_v, eta_v = t s_v prod_c (1 - alpha_vc +
    alpha_vc eta_c) and H_v = dQ/ds_v at s = 1, so the rows are the gradient
    of <g, Q>, taken in reverse mode (Griewank & Walther 2008), root first:
    the adjoint of eta_v is A_v = (1 - alpha_pa(v)) g plus, for i < |eta_v|,
    alpha_pa(v) sum_j A_pa(v)[:, i + 1 + j] r_v[j], r_v the product of its
    siblings' factors (_all_but_one), and v's row is A_v @ eta_v. A child
    whose factor and share are the arrays of the child before reuses its
    adjoint and row: one factor array means one alpha and eta_c (_thin_once's
    leaves), so a star's leaves take O(log d) of each. The adjoints held, of
    two levels of the rooting, have < 2 (d + 1) entries per row.
    """
    root = rooted.order[0]
    adjoint = {root: g[:, : len(eta[root])]}
    rows, leaf = {root: adjoint[root] @ eta.pop(root)}, {}
    for v in rooted.order:
        a_v, children = adjoint.pop(v), rooted.children[v]
        if not children:
            continue
        alphas = [_alpha_of(alpha, v, c) for c in children]
        factors = [_thin_once(a, eta[c], leaf) for a, c in zip(alphas, children)]
        down, last = a_v[:, 1:], (None, None, None, None)
        for c, a, f, r in zip(children, alphas, factors, _all_but_one(factors)):
            law = eta.pop(c)
            if f is not last[0] or r is not last[1]:
                a_c, span = (1.0 - a) * g[:, : len(law)], len(law) + len(r) - 1
                for a_row, row in zip(a_c, down):
                    if len(row) < span:  # A_v reads 0 past its width, short where products underflow
                        row = np.concatenate((row, np.zeros(span - len(row))))
                    a_row += a * np.correlate(row[:span], r)  # the |eta_c| windows
                last = f, r, a_c, a_c @ law
            adjoint[c], rows[c] = last[2:]
    return rows


def h_poly(tree: Tree, root: int, alpha) -> np.ndarray:
    """pgf coefficients of H_root; alpha is a scalar or an edge map in [0, 1]."""
    h = _root_eta(root_at(tree, root), alpha)
    return h.copy() if h is _T else h


def h_dist(model: MpmrfModel, root: int) -> DiscreteDist:
    """Exact law of H_root: support within {1..d}, no mass at 0."""
    return DiscreteDist(h_poly(model.tree, root, model._alpha))


def _exponent(tree: Tree, alpha, laws: dict[int, np.ndarray] | None = None) -> np.ndarray:
    """The trimmed exponent Q of the aggregate's pgf exp(lambda * (Q(t) - Q(1))).

    Q = sum_v (1 - alpha_pa(v)) * eta_v, each added as the pass forms it, under
    tree.rooted, the rooting at the smallest label (alpha_pa(root) = 0), so
    Q(1) = d - sum(alpha_e). laws, when given, keeps every eta_v (for _h_rows;
    the caller bounds them); otherwise each law is dropped once its parent has used it.
    """
    rooted = tree.rooted
    ups = ([alpha[_norm_edge(rooted.parent[v], v)] for v in reversed(rooted.order[1:])]
           if isinstance(alpha, dict) else [float(alpha)] * (tree.d - 1))  # the pass's order
    q = np.zeros(tree.d + 1)
    for (v, eta), a in zip(_eta(rooted, alpha), ups + [0.0]):  # alpha_pa(v), the root's last
        if laws is not None:
            laws[v] = eta
        if eta is _T:  # a leaf: q[0] += 0.0 would change no bit
            q[1] += 1.0 - a
        else:
            q[: len(eta)] += (1.0 - a) * eta
    return _trim(q)


_LN2 = Decimal(2).ln(Context(prec=40))  # ln 2 to the 40 digits _panjer_start works in


def _panjer_start(rate: Decimal, shifts: int) -> float:
    """exp(-rate) * 2**(_SHIFT * shifts), rounded once to a float.

    Formed in decimal as one exponential of _SHIFT * shifts * ln 2 - rate, an
    exponent that stays near the float range at any rate. A float exponent
    would carry an error of about rate * 2**-53, which at rates in the
    thousands leaves the pmf short of mass 1 by more than the default tol.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        x = (Decimal(_SHIFT * shifts) * _LN2 - Decimal(rate)).exp()
    return float(x)


def _tail_bound(lam: float, q: np.ndarray, tol: float) -> float:
    """A K* with P(M >= K*) <= tol / 2 for M with pgf exp(lam (Q(t) - Q(1))); inf past floats.

    Chernoff: P(M >= K) <= exp(g(theta) - theta K) at any theta > 0, with the
    log-mgf g(theta) = lam * sum_j q_j expm1(theta j). It is tightest where
    h(theta) = theta g'(theta) - g(theta), rising from 0, meets ln(2 / tol);
    bisection on log theta over [2**-64, 1] * 700 / j_max comes within 0.1%
    of that theta (a nan or inf h counting as too far).
    """
    js = np.arange(len(q))
    need = math.log(2.0) - math.log(tol)  # tol / 2 underflows at the smallest tol
    hi = 700.0 / (len(q) - 1)
    lo = hi * 2.0 ** -64
    for _ in range(16):
        theta = math.sqrt(lo * hi)
        e = np.expm1(theta * js)
        if lam * float(q @ (theta * js * (e + 1.0) - e)) < need:
            lo = theta
        else:
            hi = theta
    return float(np.ceil((lam * float(q @ np.expm1(lo * js)) + need) / lo))


def aggregate_dist(model: MpmrfModel, tol: float = DEFAULT_TOL) -> DiscreteDist:
    """Law of M = sum of all components, cut at the first K with tail below tol.

    The rooting only affects intermediate quantities: a relabelled model has
    the same law (tested to 1e-10 pointwise). One Panjer pass on M's exponent
    Q, p_k = lambda/k * sum_j w_j p_{k-j}, w_j = j Q_j, runs on q = p / c from
    q_0 = 1; each time an entry passes 1e250, all of q so far is scaled by
    2**-664, an exact step, so no rate underflows. c = exp(-lambda sigma)
    2**(664 * shifts) (_panjer_start; every H_v >= 1, so Q_0 = 0), sigma the
    exact sum of Q's floats: the mass Panjer conserves, up to its own rounding.
    q is allocated once, up to the K* of _tail_bound (P(M >= K*) <= tol / 2);
    ValueError comes first when K* passes MAX_K.

    The entries come in blocks of B = _PANJER_BLOCK. For the block from k0,
    the B x (j_max + B) Toeplitz matrix of the w_j (row a holds
    w_{j_max}..w_1 from column a) times q[k0 - j_max:k0 + B] gives each
    entry's sum over the entries before k0, as q[k0:] is still 0: one gemv
    over its last 16 B columns (the near past), and the far columns before
    them from one gemm per super-block of S = _PANJER_SUPER = 16 B entries,
    all before its start: a strided window of q times the weights, over
    the span of the nonzero w_j. Weights below the smallest normal double
    are 0: the terms dropped at p_k sum to < lambda j_max 2**-1022 / k. Own
    entries follow in Python floats, x_a = lambda/(k0 + a) * (past_a +
    sum_{l<a} w_{a-l} x_l); a rescaling also scales them and the pending
    sums, near and far. Every term is nonnegative, so each entry keeps its
    relative accuracy. Then the block's p_k join a running sum, which stops
    at the first K where 1 - sum(p_0..p_K) < tol. ToleranceError is raised
    only at K*, where the true tail is at most tol / 2: the rest is rounding.
    """
    return _panjer(model.lam, _exponent(model.tree, model._alpha), tol)


def _panjer(lam: float, expo: np.ndarray, tol: float) -> DiscreteDist:
    """The pass of aggregate_dist on the exponent Q = expo, sized by _tail_bound;
    for j_max <= S - B the far past is empty, and the gemv covers it all."""
    if not 0.0 < tol <= MAX_TOL:
        raise ValueError(f"tol must be in (0, {MAX_TOL}]")
    terms = expo.tolist()
    hi = math.fsum(terms)
    rate = Decimal(lam) * (Decimal(hi) + Decimal(math.fsum([*terms, -hi])))  # lambda sigma
    if not math.isfinite(float(rate)):
        raise ValueError(f"compound-Poisson rate {float(rate)!r} is not finite")
    k_end = _tail_bound(lam, expo, tol)
    if not k_end <= MAX_K:
        raise ValueError(f"aggregate support K = {k_end:.4g} passes MAX_K = {MAX_K:,} "
                         f"(compound-Poisson rate {float(rate)!r})")
    j_max = len(expo) - 1
    w = np.arange(j_max + 1) * expo  # w_j = j * Q_j; w_0 = 0
    w[w < 2.0 ** -1022] = 0.0  # subnormal weights: slow to multiply, and next to nothing
    n_b, near = _PANJER_BLOCK, _PANJER_SUPER - _PANJER_BLOCK
    past_w = np.zeros((n_b, j_max + n_b))  # row a: w_{j_max}..w_1 against q[k0 + a - j_max:k0 + a]
    for a in range(n_b):
        past_w[a, a : a + j_max] = w[:0:-1]
    # the block's own columns: the nonzero w_{a-l} (0 past j_max), against its x_l, l < a
    own_w = [[(wj, l) for l, wj in enumerate(past_w[a, j_max : j_max + a].tolist()) if wj]
             for a in range(n_b)]
    # a far column (c < j_max - near) holds weights w_j, j > near: those not 0 lie in [c_lo, c_hi)
    far_j = w[near + 1 :].nonzero()[0] + near + 1
    c_lo, c_hi = ((j_max - int(far_j[-1]), min(j_max - near, j_max - int(far_j[0]) + n_b))
                  if len(far_j) else (0, 0))
    q = np.zeros(near + int(k_end) + 1)  # near zeros before q_0, read by the far windows
    qv = q[near:]
    qv[0], shifts = 1.0, 0
    c = _panjer_start(rate, shifts)
    k, total = 0, 0.0  # p_0..p_{k-1} add up to total
    for s0 in range(1, len(qv), _PANJER_SUPER):
        starts = range(s0, min(s0 + _PANJER_SUPER, len(qv)), n_b)
        # far[b]: block b's sums over its far columns, from q[0] on, all before s0
        far = []
        lo = max(c_lo, j_max - starts[-1])
        if lo < c_hi:
            f8 = q.itemsize  # q from row 0's column lo, rows n_b apart; bounds checked
            win = np.ndarray((len(starts), c_hi - lo), buffer=q, offset=f8 * (near + s0 - j_max + lo),
                             strides=(f8 * n_b, f8))
            far = (win.copy() @ past_w[:, lo:c_hi].T).tolist()
        for b, k0 in enumerate(starts):
            n = min(n_b, len(qv) - k0)
            span = min(j_max, near, k0)  # the near columns, from q[0] on
            past = (past_w[:n, j_max - span : j_max + n] @ qv[k0 - span : k0 + n]).tolist()
            if far:
                past = [pa + fa for pa, fa in zip(past, far[b])]
            xs = []
            for a in range(n):
                x = past[a]
                for wj, l in own_w[a]:  # a zero weight would add 0.0 and change no bit
                    x += wj * xs[l]
                x *= lam / (k0 + a)
                xs.append(x)
                if x > 1e250:
                    qv[:k0] *= 2.0 ** -_SHIFT
                    xs = [xl * 2.0 ** -_SHIFT for xl in xs]
                    past[a + 1 :] = [pa * 2.0 ** -_SHIFT for pa in past[a + 1 :]]
                    far[b + 1 :] = [[fa * 2.0 ** -_SHIFT for fa in row] for row in far[b + 1 :]]
                    shifts += 1
                    c = _panjer_start(rate, shifts)
            qv[k0 : k0 + n] = xs
            for x in qv[k : k0 + n].tolist():
                total += c * x
                if 1.0 - total < tol:
                    pmf = qv[: k + 1]
                    pmf *= c
                    return DiscreteDist(pmf, max(0.0, 1.0 - total))
                k += 1
    raise ToleranceError(f"aggregate tail mass {1.0 - total!r} is not below tol {tol!r} by "
                         f"K = {k - 1}, where the true tail is at most tol / 2: the rest is "
                         f"float rounding (compound-Poisson rate {float(rate)!r})")


def sample(model: MpmrfModel, rng_seed: int, n: int) -> np.ndarray:
    """n draws of the full vector, as an (n, d) column-major array in vertex-label order.

    Reproducible across platforms: PCG64 stream, all variates by inversion.
    Consumption order is pinned: one Poisson block per vertex in BFS order
    from the smallest label (children ascending), each non-root block
    followed by its thinning block.
    Each vertex's n draws are one contiguous column, filled in place;
    ValueError, before allocating, when the n * d draws would pass MAX_K.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    tree = model.tree
    if n * tree.d > MAX_K:
        raise ValueError(f"{n:,} draws of {tree.d} vertices pass MAX_K = {MAX_K:,} entries")
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    rooted = tree.rooted
    col = {v: i for i, v in enumerate(tree.vertices)}
    out = np.empty((n, tree.d), dtype=np.int64, order="F")
    _poisson_inverse(rng, model.lam, out[:, 0])  # the root, the smallest label
    ends = np.empty(n, dtype=np.int64)
    for p in rooted.order:  # BFS order lists each vertex's children together, ascending
        if rooted.children[p]:
            np.cumsum(out[:, col[p]], out=ends)  # one cumsum serves all of p's children
        for v in rooted.children[p]:
            a = _alpha_of(model._alpha, p, v)
            _poisson_inverse(rng, model.lam * (1.0 - a), out[:, col[v]])
            _binomial_thinning(rng, ends, a, out[:, col[v]])
    return out


def _poisson_cdf(mu: float) -> np.ndarray:
    """The Poisson(mu) cdf at k = 0 .. mu + 12 sqrt(mu) + 30, or [1.0] at mu = 0;
    ValueError past MAX_K entries.

    The log-pmf k log(mu) - mu - lgamma(k + 1) rises up to the mode; exp gives 0.0
    below the first k where it reaches -746, so lgamma is called from that k on.
    """
    if mu == 0.0:  # the point mass at 0
        return np.ones(1)
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
    sums = _path_sums(model.tree.rooted, model._alpha)
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


def _tvar_g(agg: DiscreteDist, qs: list[int], d: int) -> np.ndarray:
    """_h_rows' g: per q in qs, the rows p_M(q - j) and F_M(q - j) for j <= d, 0 past q."""
    g, cdf = np.zeros((2 * len(qs), d + 1)), agg.cdf()
    for i, q in enumerate(qs):
        n = min(q, d) + 1
        g[2 * i, :n] = agg.pmf[q::-1][:n]
        g[2 * i + 1, :n] = cdf[q::-1][:n]
    return g


def tvar_contribution_table(model: MpmrfModel, kappas, tol: float = DEFAULT_TOL
                            ) -> tuple[DiscreteDist, dict[int, np.ndarray]]:
    """(agg, table): agg = aggregate_dist(model, tol), and table[v] every vertex's
    Euler TVaR contributions over the grid of levels kappas.

    With q = VaR_kappa(M), vertex v's contribution at level kappa is
      (E[N_v 1{M>q}] + (F_M(q)-kappa)/p_M(q) * E[N_v 1{M=q}]) / (1-kappa),
    and the contributions over all vertices sum to TVaR_kappa(M). Of v's
    allocation table only E[N_v 1{M=q}] = lambda <H_v, p_M(q - .)> and
    E[N_v 1{M<=q}] = lambda <H_v, F_M(q - .)> are read. One rooting and one
    _eta pass serve all: its laws are kept as they are added into Q, Panjer
    runs on Q, and one reverse pass over the laws (_h_rows) gives every
    vertex's dots. ValueError comes before that pass when a kappa is outside
    [0, 1), and first when the rows would hold more than MAX_K entries: with
    n = d + 1, the kept laws (|subtree| + 1 entries each at most), 4 n per row
    of g (g, the adjoints, the rows) and one vertex's products (< 2 n per level
    of its product tree, as many for its shares, 2 n for one child's windows).
    Past MAX_K, a pass that keeps no law counts their entries, so a long path
    is refused before its laws are kept.
    """
    tree, lam, alpha, kappas, eta = model.tree, model.lam, model._alpha, list(kappas), {}
    rooted, n = tree.rooted, tree.d + 1
    budget = MAX_K - (8 * len(kappas) + 4 * (tree.d - 1).bit_length() + 4) * n
    size = dict.fromkeys(rooted.order, 1)
    for v in reversed(rooted.order[1:]):
        size[rooted.parent[v]] += size[v]
    kept = sum(size.values()) + tree.d
    if kept > budget:  # the laws' own entries, from a pass that keeps none
        laws = accumulate(len(e) for _, e in _eta(rooted, alpha))
        kept = next((k for k in laws if k > budget), 0)
    if kept > budget:
        raise ValueError(f"a {tree.d}-vertex tree's TVaR rows would pass MAX_K = {MAX_K:,} entries")
    agg = _panjer(lam, _exponent(tree, alpha, eta), tol)
    levels = [(agg.quantile(k), k) for k in kappas]
    pmf, cdf = agg.pmf, agg.cdf()
    rows = _h_rows(rooted, alpha, eta, _tvar_g(agg, [q for q, _ in levels], tree.d))
    dots = lam * np.array([rows[v] for v in tree.vertices])
    atom = [(float(cdf[q]) - k) / float(pmf[q]) if pmf[q] > 0 else 0.0 for q, k in levels]
    ks = np.array([k for _, k in levels])
    table = (lam - dots[:, 1::2] + np.array(atom) * dots[:, 0::2]) / (1.0 - ks)
    return agg, dict(zip(tree.vertices, table))


def dist_to_csv(dist: DiscreteDist) -> str:
    """CSV rows k,p with a trailer recording the truncated tail mass."""
    lines = ["k,p"]
    lines += [f"{k},{p!r}" for k, p in enumerate(dist.pmf.tolist())]
    lines.append(f"# tail_mass,{repr(float(dist.tail_mass))}")
    return "\n".join(lines) + "\n"


def allocation_to_csv(table: np.ndarray) -> str:
    """CSV rows k,value for one vertex's expected allocations (expected_allocation)."""
    lines = ["k,value"]
    lines += [f"{k},{x!r}" for k, x in enumerate(table.tolist())]
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
    rooted = tree.rooted
    size = {}
    for v in reversed(rooted.order):
        size[v] = 1 + sum(size[c] for c in rooted.children[v])
    freeman = {rooted.order[0]: sum(size.values()) - tree.d}  # the sum of all depths
    for c in rooted.order[1:]:
        freeman[c] = freeman[rooted.parent[c]] + tree.d - 2 * size[c]
    exp = _path_sums(rooted, model._alpha)
    return {v: Closeness(freeman[v], exp[v]) for v in tree.vertices}
