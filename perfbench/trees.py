"""Tree helpers of the benchmark's own, independent of treemrf.

The benchmark builds its inputs and checks the program's outputs with these,
so a defect in the library's tree code cannot hide itself by also corrupting
the check. Trees are edge lists on the labels 1..d.
"""

from __future__ import annotations

import random
from collections import deque


def path_edges(d: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, d)]


def star_edges(d: int) -> list[tuple[int, int]]:
    return [(1, i) for i in range(2, d + 1)]


def random_recursive_edges(d: int, rng: random.Random) -> list[tuple[int, int]]:
    """Vertex i joins a uniformly drawn earlier vertex."""
    return [(rng.randint(1, i - 1), i) for i in range(2, d + 1)]


def family_edges(family: str, d: int, rng: random.Random) -> list[tuple[int, int]]:
    if family == "path":
        return path_edges(d)
    if family == "star":
        return star_edges(d)
    return random_recursive_edges(d, rng)


def adjacency(d: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(d + 1)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def bfs_dist(adj: list[list[int]], source: int) -> list[int]:
    """Edge distances from `source`; index 0 is unused and left at -1."""
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def degrees(d: int, edges) -> list[int]:
    """Vertex degrees in decreasing order."""
    deg = [0] * (d + 1)
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    return sorted(deg[1:], reverse=True)


def relabel(edges, perm: dict[int, int]) -> list[tuple[int, int]]:
    return sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges)


def _centers(d: int, adj: list[list[int]]) -> list[int]:
    if d <= 2:
        return list(range(1, d + 1))
    deg = [len(a) for a in adj]
    layer = [v for v in range(1, d + 1) if deg[v] == 1]
    left = d
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for u in adj[v]:
                deg[u] -= 1
                if deg[u] == 1:
                    nxt.append(u)
        layer = nxt
    return layer


def _rooted_code(adj: list[list[int]], root: int) -> str:
    parent = {root: 0}
    order = [root]
    for v in order:
        for u in adj[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    code: dict[int, str] = {}
    for v in reversed(order):
        code[v] = "(" + "".join(sorted(code[u] for u in adj[v] if u != parent[v])) + ")"
    return code[root]


def shape_code(d: int, edges) -> str:
    """Isomorphism-invariant code: least center-rooted AHU string."""
    adj = adjacency(d, edges)
    return min(_rooted_code(adj, c) for c in _centers(d, adj))


def free_trees(d_max: int) -> dict[int, list[list[tuple[int, int]]]]:
    """One edge list per free-tree shape for every d in 1..d_max."""
    out = {1: [[]]}
    for d in range(2, d_max + 1):
        seen: dict[str, list[tuple[int, int]]] = {}
        for edges in out[d - 1]:
            for v in range(1, d):
                cand = edges + [(v, d)]
                seen.setdefault(shape_code(d, cand), cand)
        out[d] = [seen[c] for c in sorted(seen)]
    return out
