"""Stochastic-order criteria between vertices and between tree shapes.

All criteria here are sufficient conditions: INCOMPARABLE means the check is
inconclusive, never a proof that no ordering exists.

Each criterion asks whether one curve dominates another (cdfs of H laws,
or stop-loss curves of aggregates), and `_dominance` is where every one of
them, `poset.build_poset`'s move criterion included, compares two curves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .mpmrf import DiscreteDist, MpmrfModel, _eta, h_dist
from .tree_core import RootedTree, Tree, root_at

CDF_TOL = 1e-12
MEAN_TOL = 1e-8


class Relation(enum.Enum):
    LE = "LE"
    GE = "GE"
    EQ = "EQ"
    INCOMPARABLE = "INCOMPARABLE"


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of a dominance check between two laws a and b.

    not_le_at / not_ge_at are witness points: the first k at which the
    corresponding direction of dominance fails (None when it holds).
    """

    relation: Relation
    not_le_at: int | None = None
    not_ge_at: int | None = None

    def to_json(self) -> dict:
        witness = None
        if self.relation is Relation.INCOMPARABLE:
            witness = [self.not_le_at, self.not_ge_at]
        return {
            "relation": self.relation.value,
            "witness": witness,
            "not_le_at": self.not_le_at,
            "not_ge_at": self.not_ge_at,
        }


# the relation, keyed by whether a <= b fails and whether a >= b fails
_RELATION = {(False, False): Relation.EQ, (False, True): Relation.LE,
             (True, False): Relation.GE, (True, True): Relation.INCOMPARABLE}


def _first_index(bad: np.ndarray) -> list[int | None]:
    """Per row, the first column where `bad` holds, or None."""
    first = bad.argmax(axis=1)
    return [int(k) if hit else None for k, hit in zip(first, bad.any(axis=1))]


def _verdicts(not_le: np.ndarray, not_ge: np.ndarray) -> list[OrderVerdict]:
    """One verdict per row of two boolean (rows, k) arrays marking where
    each direction of dominance fails; the witnesses are the first such k."""
    return [OrderVerdict(_RELATION[le is not None, ge is not None], le, ge)
            for le, ge in zip(_first_index(not_le), _first_index(not_ge))]


def _dominance(fa: np.ndarray, fb: np.ndarray, tol: float = CDF_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Boolean arrays (not_le, not_ge), broadcast from two stacks of curves:
    where fa falls below fb by more than tol, and where fb falls below fa.
    `_verdicts` reads each row's relation and witnesses."""
    return fa < fb - tol, fb < fa - tol


def st_compare_rows(fa: np.ndarray, fb: np.ndarray) -> list[OrderVerdict]:
    """Usual stochastic order, one verdict per row of two stacked cdf arrays.

    fa and fb have the same shape (rows, k); row r of the result compares
    the laws with cdfs fa[r] and fb[r]. LE means F_a >= F_b pointwise up
    to CDF_TOL.
    """
    return _verdicts(*_dominance(fa, fb))  # a <=_st b needs F_a(k) >= F_b(k)


def st_compare(a: DiscreteDist, b: DiscreteDist) -> OrderVerdict:
    """Usual stochastic order: LE means a <=_st b, i.e. F_a >= F_b pointwise."""
    n = max(len(a.pmf), len(b.pmf))
    fa = np.cumsum(np.pad(a.pmf, (0, n - len(a.pmf))))
    fb = np.cumsum(np.pad(b.pmf, (0, n - len(b.pmf))))
    return st_compare_rows(fa[None], fb[None])[0]


def synecdochic_compare(model: MpmrfModel, v: int, w: int) -> OrderVerdict:
    """Compare how much components v and w contribute to the total.

    LE certifies that the pair (N_v, M) precedes (N_w, M) in the supermodular
    order, via stochastic dominance of H_v over H_w (self-rooted laws).
    """
    if v == w:
        raise ValueError("vertices must be distinct")
    return st_compare(h_dist(model, v), h_dist(model, w))


def _single_move(t1: Tree, t2: Tree) -> tuple[int, int, int]:
    """Identify the (u, v, w) of a one-edge re-anchoring between t1 and t2.

    t1 contains edge (u,v), t2 contains (u,w) instead, and all other edges
    coincide; u is the vertex of the detached subtree.
    """
    if t1.vertices != t2.vertices:
        raise ValueError("trees must share the same vertex set")
    e1 = set(t1.edges) - set(t2.edges)
    e2 = set(t2.edges) - set(t1.edges)
    if not e1 and not e2:
        raise ValueError("trees are identical")
    if len(e1) != 1 or len(e2) != 1:
        raise ValueError("trees differ by more than one edge")
    (a, b), (c, d) = next(iter(e1)), next(iter(e2))
    common = {a, b} & {c, d}
    if len(common) != 1:
        raise ValueError("differing edges do not share the moving vertex")
    u = common.pop()
    v = a if b == u else b
    w = c if d == u else d
    return u, v, w


def _h_cdf(rooted: RootedTree, alpha: float) -> np.ndarray:
    """cdf of H at the root of `rooted` over {0..d}."""
    pmf = np.zeros(len(rooted.order) + 1)  # H lives on {1..d}
    p = _eta(rooted, alpha)[rooted.order[0]]
    pmf[: len(p)] = p
    return pmf.cumsum()


def shape_compare(t1: Tree, t2: Tree, alpha: float) -> OrderVerdict:
    """Convex-order criterion between two trees one re-anchoring move apart.

    LE certifies M(t1) <=_cx M(t2) under a common edge parameter alpha: the
    anchoring vertices v (in t1) and w (in t2) are compared through their H
    laws on the shared residual subtree, v's side of t1 once edge u-v is
    cut: H_v <=_st H_w there gives LE. (w is always on that side: were it
    on u's, t2 would not be connected, and so not a Tree.)
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside [0, 1]")
    u, v, w = _single_move(t1, t2)
    # the residual, rooted at v and at w
    fv, fw = (_h_cdf(root_at(t1, x, away=u), alpha) for x in (v, w))
    return st_compare_rows(fv[None], fw[None])[0]


def cx_check_empirical(m1: DiscreteDist, m2: DiscreteDist, tol: float = MEAN_TOL) -> OrderVerdict:
    """Numerical convex-order check: equal means plus stop-loss dominance.

    LE means every stop-loss premium of m1 is below m2's; raises when the
    means differ beyond tol, since the convex order forces equal means.
    """
    if abs(m1.mean() - m2.mean()) >= tol:
        raise ValueError("means differ: convex order impossible")
    n = max(len(m1.pmf), len(m2.pmf)) + 1
    s1 = _stop_loss_curve(m1.pmf, n)
    s2 = _stop_loss_curve(m2.pmf, n)
    return _verdicts(*_dominance(s2[None], s1[None], tol))[0]  # m1 <=_cx m2 needs S_2 >= S_1


def _stop_loss_curve(pmf: np.ndarray, n: int) -> np.ndarray:
    """E[(X-c)+] for c = 0..n-1, via the survival-function tail sums over the whole support."""
    sf = 1.0 - np.cumsum(np.pad(pmf, (0, max(0, n - len(pmf)))))
    sf = np.maximum(sf, 0.0)
    return np.cumsum(sf[::-1])[::-1][:n]

