"""Vertex-labeled trees: rooted views, canonical shapes, enumeration.

Vertices are positive integer labels: {1..d} for Tree.of and JSON, any sorted
set for the direct constructor. root_at(tree, x, away=u) roots x's side of an
edge and keeps the tree's labels; the walk that checks a Tree connected is its
rooting at the smallest label (Tree.rooted). Shapes (isomorphism classes) are
identified by a canonical code computed from a center-rooted AHU encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain


Edge = tuple[int, int]


def _norm_edge(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


def _integer(x) -> int:
    """x itself when it is an int and not a bool (which JSON's true and false load as)."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"vertex counts and labels must be integers, not {x!r}")
    return x


def _walk(adj, root: int, away: int | None = None):
    """Breadth-first order and parents of root's component, never entering
    `away` (root's side of a tree, seen from its neighbour away).

    Neighbours are taken in the order adj lists them, ascending for
    Tree.neighbors; parent[root] is away (which is not root). Each vertex is
    entered once, so the walk also ends on a graph with a cycle.
    """
    parent = {away: None, root: away}  # away counts as entered until the end
    order = [root]
    for x in order:  # the list grows while it is walked
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
    del parent[away]
    return order, parent


@dataclass(frozen=True)
class Tree:
    """Undirected tree on an explicit, sorted vertex label set; its edges are
    stored as sorted (smaller, larger) pairs, however they are given."""

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        vs = set(self.vertices)
        if len(vs) != len(self.vertices) or not vs:
            raise ValueError("vertex labels must be a non-empty set")
        if any(v < 1 for v in vs):
            raise ValueError("vertex labels must be positive integers")
        if tuple(sorted(vs)) != self.vertices:
            raise ValueError("vertices must be sorted")
        seen: dict[Edge, None] = {}  # keeps the given order, often sorted already: cheap to sort
        for (a, b) in self.edges:
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if a not in vs or b not in vs:
                raise ValueError(f"edge ({a},{b}) uses unknown vertex")
            e = (a, b) if a < b else (b, a)  # _norm_edge, without a call per edge
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen[e] = None
        object.__setattr__(self, "edges", tuple(sorted(seen)))  # the class is frozen
        if len(self.edges) != len(self.vertices) - 1:
            raise ValueError("a tree on d vertices has exactly d-1 edges")
        walk = _walk(self.neighbors, self.vertices[0])
        if len(walk[0]) != len(vs):  # d - 1 edges and connected make a tree
            raise ValueError("edge set is not connected")
        self.__dict__["_root_walk"] = walk  # read by _walk_from until Tree.rooted is made

    @classmethod
    def of(cls, d: int, edges) -> "Tree":
        """Tree on vertices {1..d}."""
        if d < 1:
            raise ValueError("d must be >= 1")
        return cls(tuple(range(1, d + 1)), tuple(edges))

    @property
    def d(self) -> int:
        return len(self.vertices)

    @cached_property
    def neighbors(self) -> dict[int, tuple[int, ...]]:
        """Each vertex's neighbours, ascending as the sorted (smaller, larger) edges list them."""
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for (a, b) in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return {v: tuple(ns) for v, ns in adj.items()}

    @cached_property
    def rooted(self) -> "RootedTree":
        """The rooting at the smallest label, made once from the walk that checked the tree."""
        rooted = root_at(self, self.vertices[0])
        self.__dict__.pop("_root_walk", None)  # the rooting holds what the walk found
        return rooted

    def _walk_from(self, root: int, away: int | None = None):
        """_walk(self.neighbors, root, away): the walk that checked the tree,
        when it is that one and Tree.rooted is not made yet, is not walked again."""
        kept = self.__dict__.get("_root_walk")
        if kept is None or root != self.vertices[0] or away is not None:
            return _walk(self.neighbors, root, away)
        return kept[0], dict(kept[1])  # a copy: the caller may change its parent map

    def to_json(self) -> dict:
        if self.vertices != tuple(range(1, self.d + 1)):
            raise ValueError("JSON export requires contiguous labels 1..d")
        return {"d": self.d, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json(cls, obj: dict) -> "Tree":
        """d and the labels must be JSON integers: ValueError for 3.9, "3" or true."""
        d, edges = _integer(obj["d"]), obj["edges"]  # the labels in one pass, else one by one
        ints = (set(map(type, edges)) <= {list, tuple} and set(map(len, edges)) <= {2}
                and set(map(type, chain.from_iterable(edges))) <= {int})
        return cls.of(d, edges if ints else [(_integer(a), _integer(b)) for a, b in edges])


class RootedTree:
    """Read-only rooted view of a tree: parent/children maps and BFS order.

    children lists are sorted ascending so every downstream product over
    children is deterministic. `order` lists every vertex once, root first,
    each parent before its children, so one forward walk visits a vertex
    after its parent and one reversed walk visits it after its children.
    With `away`, it covers root's side only, never entering or listing away:
    for root on v's side of edge away-v, the part cutting it leaves on v's end.
    """

    def __init__(self, tree: Tree, root: int, away: int | None = None):
        if root not in tree.vertices or root == away:
            raise ValueError(f"invalid root {root}")
        order, parent = tree._walk_from(root, away)
        del parent[root]
        self.parent = parent
        children: dict[int, list[int]] = {v: [] for v in order}  # each found in ascending order
        for v in order[1:]:
            children[parent[v]].append(v)
        self.children = {v: tuple(cs) for v, cs in children.items()}
        self.order = tuple(order)


@dataclass(frozen=True, order=True)
class ShapeCode:
    """Canonical byte code of a tree's isomorphism class."""

    code: bytes

    @property
    def hex(self) -> str:
        return self.code.hex()

    def __str__(self) -> str:
        return self.hex


def root_at(tree: Tree, r: int, away: int | None = None) -> RootedTree:
    """Rooted view of `tree` at vertex r; with `away`, of r's side only (see RootedTree)."""
    return RootedTree(tree, r, away)


def _ahu_node(subtrees) -> bytes:
    """AHU code of a rooted tree whose root's subtrees have the given codes."""
    return b"(" + b"".join(sorted(subtrees)) + b")"


def _ahu_children(code: bytes) -> list[bytes]:
    """The codes of the root's subtrees, in order: _ahu_node's inverse."""
    parts, depth, start = [], 0, 1
    for k in range(1, len(code) - 1):
        depth += 1 if code[k] == 40 else -1  # 40 is b"("
        if depth == 0:
            parts.append(code[start:k + 1])
            start = k + 1
    return parts


def _ahu_up(adj, root: int, away: int | None = None):
    """_walk's order and parents of root's side of a tree, seen from its
    neighbour `away` (the whole tree when away is None), and the AHU code of
    every subtree below root: side[parent[x], x] for each x but root.
    """
    order, parent = _walk(adj, root, away)
    side: dict[tuple[int, int], bytes] = {}
    for x in reversed(order[1:]):
        side[parent[x], x] = _ahu_node(side[x, y] for y in adj[x] if y != parent[x])
    return order, parent, side


def _ahu_codes(adj, root: int, away: int | None = None):
    """AHU codes of root's side of a tree (as in _ahu_up) at every root at once.

    Returns (at, side): at[x] is the code of the side rooted at x, and
    side[x, y] the code of y's part of it once edge x-y is cut, rooted at y,
    for every ordered pair of neighbours. _ahu_up gives the sides pointing
    away from root; one pass down gives each vertex's code and, leaving one
    neighbour out at a time, the sides pointing back. A code has two bytes
    per vertex, so all of them take O(d^2) bytes.
    """
    order, parent, side = _ahu_up(adj, root, away)
    at: dict[int, bytes] = {}
    for x in order:
        parts = sorted(side[x, y] for y in adj[x] if y != away)
        at[x] = _ahu_node(parts)
        for y in adj[x]:
            if y != parent[x]:
                i = parts.index(side[x, y])
                side[y, x] = _ahu_node(parts[:i] + parts[i + 1:])
    return at, side


def _centers(tree: Tree) -> list[int]:
    """Center vertex (or the two of a bicenter), ascending: the middle of a
    longest path. A walk ends at a vertex farthest from its root, so a walk
    from the last vertex of a first walk ends at the far end of such a path.
    """
    a = tree._walk_from(tree.vertices[0])[0][-1]
    order, parent = _walk(tree.neighbors, a)
    path = [order[-1]]
    while path[-1] != a:
        path.append(parent[path[-1]])
    n = len(path)
    return sorted(path[(n - 1) // 2:n // 2 + 1])


def canonical_code(tree: Tree) -> ShapeCode:
    """Isomorphism-invariant code: minimal center-rooted AHU encoding."""
    adj = tree.neighbors
    codes = []
    for c in _centers(tree):
        _order, _parent, side = _ahu_up(adj, c)
        codes.append(_ahu_node(side[c, y] for y in adj[c]))
    return ShapeCode(min(codes))


def degree_vector(tree: Tree) -> tuple[int, ...]:
    """Vertex degrees in decreasing order."""
    return tuple(sorted((len(ns) for ns in tree.neighbors.values()), reverse=True))


MAX_ENUM_D = 12  # combinatorial growth; n_12 = 551 shapes


@lru_cache(maxsize=None)
def _enumerate_shapes_cached(d: int) -> tuple[Tree, ...]:
    if d == 1:
        return (Tree.of(1, []),)
    reps: dict[ShapeCode, Tree] = {}
    for smaller in _enumerate_shapes_cached(d - 1):
        # a leaf at the first vertex of each orbit (equal rooted codes) of every (d-1)-tree
        at = _ahu_codes(smaller.neighbors, smaller.vertices[0])[0]
        for v in sorted({at[v]: v for v in reversed(smaller.vertices)}.values()):
            cand = Tree.of(d, list(smaller.edges) + [(v, d)])
            reps.setdefault(canonical_code(cand), cand)
    return tuple(reps[c] for c in sorted(reps))


def enumerate_shapes(d: int) -> list[Tree]:
    """One representative per free-tree isomorphism class, ordered by ShapeCode."""
    if not 1 <= d <= MAX_ENUM_D:
        raise ValueError(f"d must be in [1, {MAX_ENUM_D}]")
    return list(_enumerate_shapes_cached(d))
