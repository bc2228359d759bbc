import numpy as np
import pytest

from treemrf import tree_core
from treemrf.tree_core import (
    Tree,
    _ahu_children,
    _ahu_codes,
    _centers,
    _enumerate_shapes_cached,
    _walk,
    canonical_code,
    degree_vector,
    enumerate_shapes,
    root_at,
)

from helpers import (
    ahu_encoding,
    brute_force_isomorphic,
    centers,
    path,
    prune,
    random_tree,
    reference_shapes,
    relabel,
    tree_on,
)

# free-tree counts, sequence A000055
FREE_TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106}


def path_tree(d):
    return Tree.of(d, [(i, i + 1) for i in range(1, d)])


def star_tree(d):
    return Tree.of(d, [(1, i) for i in range(2, d + 1)])


class TestTreeValidation:
    def test_wrong_edge_count(self):
        with pytest.raises(ValueError):
            Tree.of(3, [(1, 2)])

    def test_disconnected(self):
        with pytest.raises(ValueError):
            Tree.of(4, [(1, 2), (1, 2), (3, 4)])
        with pytest.raises(ValueError):
            Tree.of(4, [(1, 2), (3, 4), (3, 4)])
        # d - 1 distinct edges, but a triangle and an isolated vertex
        with pytest.raises(ValueError, match="not connected"):
            Tree.of(4, [(1, 2), (2, 3), (1, 3)])

    def test_self_loop(self):
        with pytest.raises(ValueError):
            Tree.of(2, [(1, 1)])

    def test_unknown_vertex(self):
        with pytest.raises(ValueError):
            Tree.of(2, [(1, 3)])

    def test_degenerate_sizes_are_legal(self):
        assert Tree.of(1, []).d == 1
        assert Tree.of(2, [(1, 2)]).d == 2

    def test_json_roundtrip(self):
        t = path_tree(4)
        assert Tree.from_json(t.to_json()) == t

    @pytest.mark.parametrize("obj", [
        {"d": 3.9, "edges": [[1, 2], [2, 3]]},
        {"d": 3.0, "edges": [[1, 2], [2, 3]]},
        {"d": "3", "edges": [[1, 2], [2, 3]]},
        {"d": True, "edges": []},
        {"d": 3, "edges": [[1, 2.7], [2, 3]]},
        {"d": 3, "edges": [[1, 2], [True, 3]]},
    ])
    def test_json_numbers_must_be_integers(self, obj):
        with pytest.raises(ValueError, match="must be integers"):
            Tree.from_json(obj)

    def test_direct_constructor_normalises_and_sorts_edges(self):
        t = Tree((1, 2, 3, 4), ((4, 2), (2, 1), (3, 2)))
        assert t.edges == ((1, 2), (2, 3), (2, 4))
        assert t == Tree.of(4, [(1, 2), (2, 3), (2, 4)])


class TestKeptRooting:
    """A Tree keeps the walk that checked it connected as its rooting at the
    smallest label: Tree.rooted builds its children from that walk, and the
    neighbours need no sort, the edges being sorted (smaller, larger) pairs."""

    @staticmethod
    def check(tree, monkeypatch):
        walks = []

        def counting_walk(adj, root, away=None):
            walks.append(root)
            return _walk(adj, root, away)

        monkeypatch.setattr(tree_core, "_walk", counting_walk)
        kept = tree.rooted  # first, so the kept walk is there to take
        assert walks == []
        fresh = root_at(tree, tree.vertices[0])  # the walk was taken: this one walks again
        assert walks == [tree.vertices[0]]
        assert kept.order == fresh.order
        assert kept.parent == fresh.parent
        assert kept.children == fresh.children
        adj = {v: [] for v in tree.vertices}
        for a, b in tree.edges:
            adj[a].append(b)
            adj[b].append(a)
        assert tree.neighbors == {v: tuple(sorted(ns)) for v, ns in adj.items()}

    def test_every_shape_up_to_d9(self, monkeypatch):
        for d in range(1, 10):
            for t in enumerate_shapes(d):
                # a fresh copy: the cached representatives may be rooted already
                self.check(Tree(t.vertices, t.edges), monkeypatch)

    @pytest.mark.parametrize("shape", ["path", "star", "random"])
    def test_d10000(self, shape, monkeypatch):
        d = 10_000
        if shape == "random":
            tree = random_tree(np.random.default_rng(41), d)
        else:
            tree = path_tree(d) if shape == "path" else star_tree(d)
        # the edges given shuffled, each larger label first
        edges = [(b, a) for a, b in tree.edges]
        np.random.default_rng(42).shuffle(edges)
        self.check(Tree.of(d, edges), monkeypatch)

    def test_non_contiguous_labels(self, monkeypatch):
        t = Tree((3, 8, 20, 41, 57, 90), ((41, 3), (8, 57), (20, 8), (3, 20), (90, 20)))
        self.check(t, monkeypatch)
        assert t.rooted.order == (3, 20, 41, 8, 90, 57)
        assert t.rooted.children == {3: (20, 41), 20: (8, 90), 41: (), 8: (57,), 90: (), 57: ()}

    def test_rooting_elsewhere_keeps_it(self, monkeypatch):
        t = random_tree(np.random.default_rng(43), 30)
        root_at(t, 7)
        root_at(t, t.vertices[0], away=t.neighbors[t.vertices[0]][0])
        root_at(t, t.vertices[0])  # only Tree.rooted takes the kept walk
        self.check(t, monkeypatch)

    def test_rooted_again_walks_again(self, monkeypatch):
        t = random_tree(np.random.default_rng(44), 30)
        first = t.rooted
        t.__dict__.pop("rooted")  # as the ladder drops it
        walks = []
        monkeypatch.setattr(tree_core, "_walk",
                            lambda adj, root, away=None: walks.append(root) or _walk(adj, root, away))
        again = t.rooted
        assert walks == [t.vertices[0]]
        assert (again.order, again.parent, again.children) == (first.order, first.parent, first.children)


class TestRootAt:
    def test_path3_rooted_at_middle(self):
        r = root_at(path_tree(3), 2)
        assert r.children[2] == (1, 3)
        assert r.order == (2, 1, 3)
        assert r.children[1] == () and r.children[3] == ()

    def test_star10_rooted_at_center(self, star10):
        r = root_at(star10, 1)
        assert r.children[1] == tuple(range(2, 11))
        assert all(r.children[v] == () for v in range(2, 11))
        assert r.order == tuple(range(1, 11))

    def test_single_vertex(self):
        r = root_at(Tree.of(1, []), 1)
        assert r.children[1] == ()
        assert r.order == (1,) and r.parent == {}

    def test_root_descendants_are_everything_else(self):
        t = random_tree(np.random.default_rng(5), 8)
        for v in t.vertices:
            r = root_at(t, v)
            assert r.order[0] == v
            assert sorted(r.order) == list(t.vertices)
            assert set(r.parent) == set(t.vertices) - {v}

    def test_invalid_root(self):
        with pytest.raises(ValueError):
            root_at(path_tree(3), 9)
        with pytest.raises(ValueError):
            root_at(path_tree(3), 2, away=2)

    def test_children_partition(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = random_tree(rng, int(rng.integers(2, 10)))
            r = root_at(t, int(rng.choice(t.vertices)))
            assert sum(len(r.children[v]) for v in t.vertices) == t.d - 1
            # every parent precedes its child in the BFS order
            pos = {v: i for i, v in enumerate(r.order)}
            for v, p in r.parent.items():
                assert pos[p] < pos[v]
                assert v in r.children[p]


    def test_children_are_the_sorted_neighbours_below(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = random_tree(rng, int(rng.integers(2, 12)))
            # a pruned part keeps its labels, so labels need not be 1..d;
            # the direct constructor stores the reversed edges normalised and sorted
            part = prune(t, *t.edges[0])[0] if t.d > 2 else t
            part = Tree(part.vertices, tuple((b, a) for a, b in reversed(part.edges)))
            nbrs = {v: sorted({b for e in part.edges for b in e if v in e} - {v})
                    for v in part.vertices}
            assert part.neighbors == {v: tuple(ns) for v, ns in nbrs.items()}
            for root in part.vertices:
                r = root_at(part, root)
                for v in part.vertices:
                    below = [u for u in nbrs[v] if u != r.parent.get(v)]
                    assert r.children[v] == tuple(below)


class TestRootAtAway:
    """root_at(t, x, away=u) against the residual of prune(t, u, v) rooted at
    x, for every directed edge (u, v) and every residual vertex x."""

    @staticmethod
    def _check(t: Tree):
        for a, b in t.edges:
            for u, v in ((a, b), (b, a)):
                residual = prune(t, u, v)[0]
                for x in residual.vertices:
                    side, want = root_at(t, x, away=u), root_at(residual, x)
                    assert side.order == want.order
                    assert side.parent == want.parent
                    assert side.children == want.children

    def test_every_shape_up_to_d8(self):
        for d in range(2, 9):
            for t in enumerate_shapes(d):
                self._check(t)

    def test_random_trees_with_gapped_labels(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            t = random_tree(rng, int(rng.integers(3, 16)))
            # a pruned part keeps its labels, so they need not be 1..m
            for part in prune(t, *t.edges[int(rng.integers(len(t.edges)))]):
                self._check(part)

    def test_path_side(self):
        r = root_at(path_tree(5), 4, away=2)
        assert r.order == (4, 3, 5)
        assert r.parent == {3: 4, 5: 4}
        assert r.children == {4: (3, 5), 3: (), 5: ()}


class TestWalk:
    def test_breadth_first_in_listed_order(self):
        t = Tree.of(6, [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6)])
        order, parent = _walk(t.neighbors, 1)
        assert order == [1, 2, 3, 4, 5, 6]
        assert parent == {1: None, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3}

    def test_never_enters_away(self):
        t = Tree.of(6, [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6)])
        order, parent = _walk(t.neighbors, 2, away=1)
        assert order == [2, 4, 5]
        assert parent == {2: 1, 4: 2, 5: 2}

    def test_ends_on_a_cycle(self):
        adj = {1: (2, 3), 2: (1, 3), 3: (1, 2), 4: ()}
        assert _walk(adj, 1) == ([1, 2, 3], {1: None, 2: 1, 3: 1})
        assert _walk(adj, 4) == ([4], {4: None})


class TestCenters:
    """_centers against the least-eccentricity vertices of helpers.centers."""

    def test_every_shape_up_to_d10(self):
        for d in range(1, 11):
            for t in enumerate_shapes(d):
                assert _centers(t) == centers(t)

    def test_random_trees(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            t = random_tree(rng, int(rng.integers(1, 30)))
            assert _centers(t) == centers(t)

    def test_pruned_parts_with_gapped_labels(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            t = random_tree(rng, int(rng.integers(3, 14)))
            for a, b in t.edges:
                for part in prune(t, a, b):
                    assert _centers(part) == centers(part)


class TestPath:
    """The path oracle in helpers, which the exact covariance and closeness
    tests rely on."""

    def test_path3(self):
        assert path(path_tree(3), 1, 3) == [(1, 2), (2, 3)]

    def test_star_leaf_to_leaf(self):
        t = star_tree(3)
        assert path(t, 2, 3) == [(1, 2), (1, 3)]

    def test_self_path_is_empty(self):
        assert path(path_tree(3), 2, 2) == []

    def test_invalid_vertex(self):
        with pytest.raises(ValueError):
            path(path_tree(3), 1, 7)


class TestPrune:
    """helpers.prune, the oracle of root_at(t, x, away=u)."""

    def test_detaches_four_vertex_subtree(self, anchoring14):
        residual, detached = prune(anchoring14, 10, 4)
        assert set(detached.vertices) == {10, 11, 12, 13}
        assert residual.d == 10
        assert set(residual.vertices) == set(range(1, 10)) | {14}

    def test_path3(self):
        residual, detached = prune(path_tree(3), 2, 3)
        assert set(detached.vertices) == {1, 2}
        assert set(residual.vertices) == {3}

    def test_star4_any_edge(self):
        t = star_tree(4)
        residual, detached = prune(t, 3, 1)
        assert detached.d == 1
        assert canonical_code(residual) == canonical_code(star_tree(3))

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError):
            prune(star_tree(4), 2, 3)

    def test_edges_given_larger_first(self):
        residual, detached = prune(Tree((1, 2, 3), ((2, 1), (3, 2))), 1, 2)
        assert residual == tree_on((2, 3), [(2, 3)])
        assert detached == tree_on((1,), [])

    def test_detached_side_is_what_the_walk_reaches(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            t = random_tree(rng, int(rng.integers(2, 16)))
            for a, b in t.edges:
                for u, v in ((a, b), (b, a)):
                    residual, detached = prune(t, u, v)
                    side = set(_walk(t.neighbors, u, away=v)[0])
                    assert set(detached.vertices) == side
                    # u's side: the vertices nearer to u than to v
                    assert side == {x for x in t.vertices
                                    if len(path(t, x, u)) < len(path(t, x, v))}
                    assert set(residual.vertices) == set(t.vertices) - side

    def test_reattach_restores_shape(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            t = random_tree(rng, 8)
            a, b = t.edges[int(rng.integers(len(t.edges)))]
            residual, detached = prune(t, a, b)
            back = tree_on(t.vertices, list(residual.edges) + list(detached.edges) + [(a, b)])
            assert back == t


class TestEnumerateShapes:
    @pytest.mark.parametrize("d,count", sorted(FREE_TREE_COUNTS.items()))
    def test_counts_match_free_tree_sequence(self, d, count):
        assert len(enumerate_shapes(d)) == count

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_shapes(0)
        with pytest.raises(ValueError):
            enumerate_shapes(13)

    def test_deterministic_order(self):
        a = [canonical_code(t) for t in enumerate_shapes(7)]
        assert a == sorted(a)

    def test_all_have_d_vertices(self):
        assert all(t.d == 6 for t in enumerate_shapes(6))

    def test_same_representatives_as_attaching_a_leaf_everywhere(self):
        # a leaf goes only to the first vertex of each automorphism orbit; the
        # shapes, their order and each shape's first representative stay
        _enumerate_shapes_cached.cache_clear()
        counts = []
        for d in range(1, 13):
            got = [t.edges for t in enumerate_shapes(d)]
            assert got == [t.edges for t in reference_shapes(d)]
            counts.append(len(got))
        assert counts == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]  # A000055


class TestCanonicalCode:
    def test_relabelled_path_same_code(self):
        a = path_tree(3)
        b = Tree.of(3, [(2, 1), (1, 3)])  # path 2-1-3
        assert canonical_code(a) == canonical_code(b)

    def test_path_vs_star_distinct(self):
        assert canonical_code(path_tree(4)) != canonical_code(star_tree(4))

    def test_d9_codes_all_distinct(self):
        codes = {canonical_code(t) for t in enumerate_shapes(9)}
        assert len(codes) == 47

    def test_invariant_under_random_relabelling(self):
        rng = np.random.default_rng(11)
        t = random_tree(rng, 9)
        ref = canonical_code(t)
        for _ in range(100):
            perm = rng.permutation(np.arange(1, 10))
            mapping = {v: int(perm[v - 1]) for v in t.vertices}
            assert canonical_code(relabel(t, mapping)) == ref

    @pytest.mark.parametrize("d", [4, 5, 6, 7])
    def test_agrees_with_brute_force_isomorphism(self, d):
        shapes = enumerate_shapes(d)
        for i in range(len(shapes)):
            for j in range(i + 1, len(shapes)):
                assert not brute_force_isomorphic(shapes[i], shapes[j])
        rng = np.random.default_rng(d)
        by_code = {canonical_code(t): t for t in shapes}
        for _ in range(10):
            t = random_tree(rng, d)
            assert brute_force_isomorphic(t, by_code[canonical_code(t)])

    def test_hex_serialization(self):
        code = canonical_code(path_tree(3))
        assert code.hex == code.code.hex()
        assert code.hex == code.hex.lower()


class TestAhuCodes:
    """The all-roots pass against one rooting per root (helpers.ahu_encoding)."""

    @staticmethod
    def _check(tree: Tree, root: int, away=None):
        at, side = _ahu_codes(tree.neighbors, root, away)
        part = tree if away is None else prune(tree, away, root)[0]
        assert sorted(at) == list(part.vertices)
        for x in part.vertices:
            assert at[x] == ahu_encoding(root_at(part, x))
            # and read back, the code gives its root's subtrees' codes
            assert _ahu_children(at[x]) == sorted(side[x, y] for y in part.neighbors[x])
        assert len(side) == 2 * len(part.edges)
        for a, b in part.edges:
            for x, y in ((a, b), (b, a)):  # y's side seen from x, rooted at y
                assert side[x, y] == ahu_encoding(root_at(prune(part, x, y)[0], y))

    def test_every_shape_up_to_d9(self):
        for d in range(1, 10):
            for t in enumerate_shapes(d):
                self._check(t, t.vertices[-1])

    def test_random_trees(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            t = random_tree(rng, int(rng.integers(1, 25)))
            self._check(t, int(rng.choice(t.vertices)))

    def test_residuals_with_gapped_labels(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            t = random_tree(rng, int(rng.integers(3, 16)))
            for a, b in t.edges:
                for u, v in ((a, b), (b, a)):
                    self._check(t, v, away=u)
                    # the same residual as a tree of its own, labels not 1..m
                    residual = prune(t, u, v)[0]
                    self._check(residual, residual.vertices[0])


class TestDegreeVector:
    def test_star6(self):
        assert degree_vector(star_tree(6)) == (5, 1, 1, 1, 1, 1)

    def test_path6(self):
        assert degree_vector(path_tree(6)) == (2, 2, 2, 2, 1, 1)

    def test_incomparable12_tree(self, incomparable12):
        # hand count from the edge list: vertex 5 carries five leaves plus
        # its parent, vertices 2 and 3 have three neighbours each
        t, _ = incomparable12
        assert degree_vector(t) == (6, 3, 3, 2, 1, 1, 1, 1, 1, 1, 1, 1)

    def test_sum_is_twice_edge_count(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            t = random_tree(rng, 9)
            assert sum(degree_vector(t)) == 2 * (t.d - 1)
