"""The tree-shape partial order: single re-anchoring moves certified by the
convex-order criterion, closed transitively, reduced to Hasse edges.

An arc between two shapes is admitted only when one single-move realization
gets the same directed verdict at every alpha of the evaluation grid; moves
whose verdict varies across the grid are recorded in `flags` instead, and
moves that are INCOMPARABLE at every grid point in `undecided`. Antisymmetry
of the resulting relation is a conjecture, asserted loudly at build time.

The move criterion is `orders.shape_compare`'s at every grid alpha: H_v
against H_w on the move's residual tree (`orders._dominance`). An H law
depends only on the rooted shape. So one all-roots AHU pass
(`tree_core._ahu_codes`) per residual keys every move off it: the codes of
the residual at v and at every w key their H laws, and w's residual sides
plus the detached subtree's code give the moved tree rooted at w, whose
shape index is a lookup among the rooted codes of all representatives. No
move builds, roots or canonicalises a tree. Each rooted code's H law is
computed once per build for the whole grid, as t times the product of its
subtrees' thinned laws (`_h_pmfs`, the subtrees read off the code's bytes),
and H_v is compared with every w's stacked cdfs in one array operation.

The twin check reads the aggregate M off the same laws: at one d and one
homogeneous alpha all shapes give M the same compound-Poisson rate, so its
exponent Q fixes its law (`_aggregate_exponent`). A build roots no tree.

`build_poset` is memoised per (d, grid): a process builds each poset once
and every later call returns the same read-only `ShapePoset`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .orders import _dominance, _verdicts
from .tree_core import (
    ShapeCode,
    Tree,
    _ahu_children,
    _ahu_codes,
    _ahu_node,
    canonical_code,
    enumerate_shapes,
)

POSET_D_RANGE = (4, 9)
DEFAULT_ALPHA_GRID = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)


class AntisymmetryError(RuntimeError):
    """Two distinct shapes turned out order-equivalent; the conjecture the
    relation relies on would be broken."""


@dataclass(frozen=True)
class MoveRecord:
    """One re-anchoring move between shape indices, with per-alpha verdicts."""

    source: int
    target: int
    u: int
    v: int
    w: int
    relations: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "source": self.source,
            "target": self.target,
            "move": [self.u, self.v, self.w],
            "relations": list(self.relations),
        }


@dataclass(frozen=True)
class ShapePoset:
    d: int
    shapes: tuple[ShapeCode, ...]
    reps: tuple[Tree, ...]
    relation: np.ndarray  # boolean, reflexive-transitive closure, read-only
    hasse: tuple[tuple[int, int], ...]
    alpha_grid: tuple[float, ...]
    flags: tuple[MoveRecord, ...]       # verdict varied across the grid
    undecided: tuple[MoveRecord, ...]   # INCOMPARABLE at every grid alpha

    def index_of(self, code: ShapeCode) -> int:
        return self.shapes.index(code)

    def leq(self, a: ShapeCode, b: ShapeCode) -> bool:
        return bool(self.relation[self.index_of(a), self.index_of(b)])

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "shapes": [c.hex for c in self.shapes],
            "hasse": [list(e) for e in self.hasse],
            "alpha_grid": list(self.alpha_grid),
            "flags": [f.to_json() for f in self.flags],
            "undecided": [u.to_json() for u in self.undecided],
        }


def _residual_moves(reps):
    """Every residual of every shape representative, with the moves off it.

    Yields (i, u, v, at, moves) per directed edge (u, v) of reps[i]: the
    residual is v's side once edge u-v is cut, `at` maps each of its
    vertices to the residual's AHU code rooted there, and `moves` lists
    (w, j) for every other residual vertex w in ascending order, j being the
    shape index of the tree with u's subtree re-anchored at w. That tree
    rooted at w has w's residual sides and u's subtree as its root's
    subtrees, so j is a lookup among the rooted codes of all
    representatives. One _ahu_codes pass per residual; no tree is built.
    """
    shape_of: dict[bytes, int] = {}
    sides = []
    for i, tree in enumerate(reps):
        at, side = _ahu_codes(tree.neighbors, tree.vertices[0])
        shape_of.update(dict.fromkeys(at.values(), i))
        sides.append(side)
    for i, tree in enumerate(reps):
        adj = tree.neighbors
        for (a, b) in tree.edges:
            for u, v in ((a, b), (b, a)):
                at, side = _ahu_codes(adj, v, away=u)
                detached = sides[i][v, u]
                moves = [(w, shape_of[_ahu_node([detached, *(side[w, y] for y in adj[w])])])
                         for w in sorted(at) if w != v]
                if moves:
                    yield i, u, v, at, moves


def build_poset(d: int, alpha_grid=DEFAULT_ALPHA_GRID) -> ShapePoset:
    """Construct the shape poset for all d-vertex trees.

    Every move of every shape representative is evaluated at every grid
    alpha; an arc needs a unanimous direction. The closure is checked for
    antisymmetry both structurally and empirically (no two distinct shapes
    may share an aggregate law at alpha = 0.5, read off its exponent Q).

    Memoised per (d, grid), the grid taken as a tuple of floats: later calls
    return the same ShapePoset, whose relation is read-only.
    """
    lo, hi = POSET_D_RANGE
    if not lo <= d <= hi:
        raise ValueError(f"d must be in [{lo}, {hi}]")
    grid = tuple(float(a) for a in alpha_grid)
    if not grid:
        raise ValueError("alpha grid must not be empty")
    if any(not 0.0 < a < 1.0 for a in grid):
        raise ValueError("grid alphas must lie strictly inside (0, 1)")
    return _build_poset(d, grid)


@lru_cache(maxsize=16)
def _build_poset(d: int, grid: tuple[float, ...]) -> ShapePoset:
    reps = tuple(enumerate_shapes(d))
    codes = tuple(canonical_code(t) for t in reps)
    n = len(reps)

    alphas = np.array(grid)[:, None]
    pmfs: dict[bytes, np.ndarray] = {}  # H pmfs over the grid, by rooted code
    cdfs: dict[bytes, np.ndarray] = {}  # and the cdfs of the residuals' ones
    arcs = np.eye(n, dtype=bool)
    flags: list[MoveRecord] = []
    undecided: list[MoveRecord] = []
    for i, u, v, at, moves in _residual_moves(reps):
        for x in (v, *(w for w, _j in moves)):
            if at[x] not in cdfs:
                cdfs[at[x]] = _h_pmfs(at[x], alphas, pmfs).cumsum(axis=1)
        # (W, G, k): H_v against each w's H, at every grid alpha
        not_le, not_ge = _dominance(cdfs[at[v]], np.stack([cdfs[at[w]] for w, _j in moves]))
        le_ok, ge_ok = ~not_le.any(axis=(1, 2)), ~not_ge.any(axis=(1, 2))
        for k, (w, j) in enumerate(moves):
            arcs[i, j] |= le_ok[k]
            arcs[j, i] |= ge_ok[k]
            if not le_ok[k] and not ge_ok[k]:
                rels = tuple(vd.relation.value for vd in _verdicts(not_le[k], not_ge[k]))
                rec = MoveRecord(i, j, u, v, w, rels)
                if all(r == "INCOMPARABLE" for r in rels):
                    undecided.append(rec)
                else:
                    flags.append(rec)

    relation = _transitive_closure(arcs)
    bad = relation & relation.T & ~np.eye(n, dtype=bool)
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        raise AntisymmetryError(f"shapes {codes[i].hex} and {codes[j].hex} compare both ways")
    _assert_distinct_aggregates(codes)

    strict = relation & ~np.eye(n, dtype=bool)
    # on booleans, strict @ strict marks the pairs two strict steps apart
    hasse = tuple((int(i), int(j)) for i, j in np.argwhere(strict & ~(strict @ strict)))
    relation.setflags(write=False)  # every caller shares this poset
    return ShapePoset(d, codes, reps, relation, hasse, grid, tuple(flags), tuple(undecided))


def _h_pmfs(code: bytes, alphas: np.ndarray, memo: dict[bytes, np.ndarray]) -> np.ndarray:
    """pmfs of H at the root of the rooted shape with AHU code `code`, over
    {0..n} for its n vertices, one row per alpha of the column `alphas`.

    H is t times the product over the root's subtrees of (1 - alpha + alpha
    * the subtree's H), as in mpmrf._eta; every subtree's law is computed
    once per memo. The recursion is as deep as the shape is high.
    """
    pmf = memo.get(code)
    if pmf is None:
        pmf = np.zeros((len(alphas), 2))
        pmf[:, 1] = 1.0  # t
        for sub in _ahu_children(code):
            f = alphas * _h_pmfs(sub, alphas, memo)
            f[:, 0] += 1.0 - alphas[:, 0]
            pmf = _mul_rows(pmf, f)
        memo[code] = pmf
    return pmf


def _mul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row by row, the product of the polynomials with coefficient rows a and b."""
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1))
    for k in range(b.shape[1]):
        out[:, k:k + a.shape[1]] += b[:, k:k + 1] * a
    return out


def _transitive_closure(arcs: np.ndarray) -> np.ndarray:
    """Warshall's pass over a boolean adjacency matrix, cycles included."""
    r = arcs.copy()
    for k in range(len(r)):
        r |= r[:, k:k + 1] & r[k]
    return r


def _assert_distinct_aggregates(codes) -> None:
    # at alpha = 1/2 every H coefficient is a dyadic rational (Q * 2**d is
    # integral), so each Q row is exact in floats and twins share its bytes
    memo: dict[bytes, np.ndarray] = {}  # H laws at alpha = 1/2 only
    seen: dict[bytes, int] = {}
    for j, c in enumerate(codes):
        i = seen.setdefault(_aggregate_exponent(c.code, memo).tobytes(), j)
        if i != j:
            raise AntisymmetryError(
                f"shapes {codes[i].hex} and {codes[j].hex} share an aggregate law")


def _aggregate_exponent(code: bytes, memo: dict[bytes, np.ndarray]) -> np.ndarray:
    """Q(t) = H_root + (1 - alpha) * the H laws of every proper subtree, at
    alpha = 1/2, for the rooted shape with AHU code `code`. M's pgf is
    exp(lambda (Q(t) - Q(1))) (mpmrf._severity_mixture) and Q(1) = (d + 1) / 2
    for every d-vertex shape, so d-vertex shapes share M's law iff they share Q."""
    half = np.array([[0.5]])
    q = _h_pmfs(code, half, memo)[0].copy()
    subs = _ahu_children(code)
    for sub in subs:  # the list grows while it is walked: every proper subtree once
        h = _h_pmfs(sub, half, memo)[0]
        q[:len(h)] += 0.5 * h
        subs.extend(_ahu_children(sub))
    return q


def minimal_elements(poset: ShapePoset) -> list[int]:
    strict = poset.relation & ~np.eye(len(poset.shapes), dtype=bool)
    return np.flatnonzero(~strict.any(axis=0)).tolist()


def maximal_elements(poset: ShapePoset) -> list[int]:
    strict = poset.relation & ~np.eye(len(poset.shapes), dtype=bool)
    return np.flatnonzero(~strict.any(axis=1)).tolist()


def _unique_bound(relation: np.ndarray, a: int, b: int, upper: bool) -> bool:
    r = relation if upper else relation.T
    bounds = np.nonzero(r[a] & r[b])[0]
    if bounds.size == 0:
        return False
    # the bound set must contain an element preceding all its other members
    return any(bool(r[u, bounds].all()) for u in bounds)


def is_lattice(poset: ShapePoset) -> bool:
    """True when every pair of shapes has a unique join and a unique meet."""
    n = len(poset.shapes)
    for a in range(n):
        for b in range(a + 1, n):
            if not _unique_bound(poset.relation, a, b, upper=True):
                return False
            if not _unique_bound(poset.relation, a, b, upper=False):
                return False
    return True


def hasse_dot(poset: ShapePoset) -> str:
    """DOT digraph of the Hasse diagram, drawn upward."""
    lines = [
        f'digraph shape_poset_d{poset.d} {{',
        "  rankdir=BT;",
        '  node [shape=box fontname="Courier"];',
    ]
    for i, (code, rep) in enumerate(zip(poset.shapes, poset.reps)):
        edges = " ".join(f"{a}-{b}" for a, b in rep.edges)
        lines.append(f'  n{i} [label="{code.hex}" tooltip="{edges}"];')
    for (i, j) in poset.hasse:
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _attach(edges: list, base: int, subtree: Tree, anchor: int) -> int:
    """Append a relabeled copy of `subtree` joined to `anchor` by its vertex 1.

    Returns the next free label. Subtree labels must be 1..m.
    """
    if subtree.vertices != tuple(range(1, subtree.d + 1)):
        raise ValueError("attached subtrees must be labeled 1..m")
    edges.append((anchor, base + 1))
    for (a, b) in subtree.edges:
        edges.append((base + a, base + b))
    return base + subtree.d


def corollary_chain(kind: str, **params) -> list[tuple[Tree, Tree]]:
    """Concrete (lower, upper) tree pairs asserted by the comparison tools.

    Kinds:
      star_to_series(d): one-edge-at-a-time deconstruction of the d-star
        into the d-path, from below.
      ray_tool(d_ray, subtrees=()): single vertices at a hub successively
        chained into a series limb; extra subtrees stay on the hub.
      series_slide(d_se, tau): a subtree anchored on a series tree slides
        from the end toward the middle.
      beam_balance(d_beam, d_ray, subtrees=()): d_ray single vertices split
        over the two ends of a symmetric beam; more balanced splits sit
        lower. `subtrees` entries (k, tree) are mirrored onto position
        d_beam + 1 - k.
    """
    builders = {
        "star_to_series": _star_to_series,
        "ray_tool": _ray_tool,
        "series_slide": _series_slide,
        "beam_balance": _beam_balance,
    }
    if kind not in builders:
        raise ValueError(f"unknown chain kind {kind!r}")
    return builders[kind](**params)


def _star_to_series(d: int) -> list[tuple[Tree, Tree]]:
    if d < 4:
        raise ValueError("star-to-series needs d >= 4")
    return _ray_tool(d - 1)  # the d-star is a hub with d - 1 rays


def _ray_tool(d_ray: int, subtrees=()) -> list[tuple[Tree, Tree]]:
    if d_ray < 3:
        raise ValueError("chaining rays needs d_ray >= 3")
    trees = []
    for k in range(1, d_ray):
        edges = [(i, i + 1) for i in range(1, k + 1)]         # chained rays
        edges += [(1, j) for j in range(k + 2, d_ray + 2)]    # remaining rays
        base = d_ray + 1
        for sub in subtrees:
            base = _attach(edges, base, sub, anchor=1)
        trees.append(Tree.of(base, edges))
    trees.reverse()
    return list(zip(trees, trees[1:]))


def _series_slide(d_se: int, tau: Tree) -> list[tuple[Tree, Tree]]:
    if d_se < 3:
        raise ValueError("the series part needs d_se >= 3")
    trees = []
    for k in range(1, d_se // 2 + 1):
        edges = [(i, i + 1) for i in range(1, d_se)]
        base = _attach(edges, d_se, tau, anchor=k)
        trees.append(Tree.of(base, edges))
    return list(zip(trees, trees[1:]))


def _beam_balance(d_beam: int, d_ray: int, subtrees=()) -> list[tuple[Tree, Tree]]:
    if d_beam < 2 or d_ray < 1:
        raise ValueError("need d_beam >= 2 and d_ray >= 1")
    for (k, _sub) in subtrees:
        if not 1 <= k <= d_beam:
            raise ValueError(f"subtree position {k} outside the beam")
    trees = []
    for m in range((d_ray + 1) // 2, d_ray + 1):
        edges = [(i, i + 1) for i in range(1, d_beam)]
        rays = list(range(d_beam + 1, d_beam + d_ray + 1))
        edges += [(1, r) for r in rays[:m]]
        edges += [(d_beam, r) for r in rays[m:]]
        base = d_beam + d_ray
        for (k, sub) in subtrees:
            base = _attach(edges, base, sub, anchor=k)
            mirror = d_beam + 1 - k
            if mirror != k:
                base = _attach(edges, base, sub, anchor=mirror)
        trees.append(Tree.of(base, edges))
    return list(zip(trees, trees[1:]))
