import numpy as np
import pytest

from treemrf.mpmrf import _exponent, _root_eta
from treemrf.orders import Relation, shape_compare
from treemrf.poset import (
    DEFAULT_ALPHA_GRID,
    AntisymmetryError,
    ShapePoset,
    _aggregate_exponent,
    _assert_distinct_aggregates,
    _h_pmfs,
    _residual_moves,
    _transitive_closure,
    build_poset,
    corollary_chain,
    hasse_dot,
    is_lattice,
    maximal_elements,
    minimal_elements,
)
from treemrf import poset
from treemrf.orders import _dominance
from treemrf.tree_core import Tree, _ahu_codes, canonical_code, enumerate_shapes, root_at

from helpers import ahu_encoding, all_moves, eta_by_hand, prune, reachable_by_bfs, tree_on

GRID = (0.1, 0.5, 0.9)


def star_tree(d):
    return Tree.of(d, [(1, i) for i in range(2, d + 1)])


def path_tree(d):
    return Tree.of(d, [(i, i + 1) for i in range(1, d)])


class TestBuildPoset:
    def test_domain_errors(self):
        with pytest.raises(ValueError):
            build_poset(3)
        with pytest.raises(ValueError):
            build_poset(10)
        with pytest.raises(ValueError):
            build_poset(5, alpha_grid=())
        with pytest.raises(ValueError):
            build_poset(5, alpha_grid=(0.0, 0.5))

    def test_d4_is_the_two_shape_chain(self):
        ps = build_poset(4, GRID)
        assert len(ps.shapes) == 2
        assert ps.hasse == ((ps.index_of(canonical_code(path_tree(4))),
                             ps.index_of(canonical_code(star_tree(4)))),)

    def test_d5_is_a_three_shape_chain(self):
        ps = build_poset(5, GRID)
        assert len(ps.shapes) == 3 and len(ps.hasse) == 2

    def test_relation_is_reflexive_transitive_antisymmetric(self):
        ps = build_poset(6)
        r = ps.relation
        n = len(ps.shapes)
        assert r.diagonal().all()
        closure = r | ((r.astype(int) @ r.astype(int)) > 0)
        assert (closure == r).all()
        assert not (r & r.T & ~np.eye(n, dtype=bool)).any()

    def test_hasse_has_no_shortcuts(self):
        ps = build_poset(7)
        strict = ps.relation & ~np.eye(len(ps.shapes), dtype=bool)
        for (i, j) in ps.hasse:
            assert strict[i, j]
            for k in range(len(ps.shapes)):
                if k not in (i, j):
                    assert not (strict[i, k] and strict[k, j])

    @pytest.mark.parametrize("d", [4, 5, 6, 7])
    def test_small_d_fully_decidable(self, d):
        ps = build_poset(d)
        assert ps.undecided == ()
        assert ps.flags == ()

    def test_star_max_series_min(self):
        for d in (5, 6, 7):
            ps = build_poset(d)
            assert minimal_elements(ps) == [ps.index_of(canonical_code(path_tree(d)))]
            assert maximal_elements(ps) == [ps.index_of(canonical_code(star_tree(d)))]

    def test_lattice_small(self):
        assert is_lattice(build_poset(6))
        assert is_lattice(build_poset(7))

    def test_duplicate_aggregate_detection(self):
        reps = [path_tree(5), Tree.of(5, [(2, 1), (1, 3), (3, 4), (4, 5)])]
        with pytest.raises(AntisymmetryError):
            _assert_distinct_aggregates([canonical_code(t) for t in reps])

    def test_composite_pair_in_closure(self, composite9):
        t, tp = composite9
        ps = build_poset(9)
        assert ps.leq(canonical_code(t), canonical_code(tp))
        assert not ps.leq(canonical_code(tp), canonical_code(t))

    def test_json_schema(self):
        obj = build_poset(4).to_json()
        assert set(obj) == {"d", "shapes", "hasse", "alpha_grid", "flags", "undecided"}
        assert obj["d"] == 4 and len(obj["shapes"]) == 2 and obj["hasse"] == [[0, 1]]
        assert obj["alpha_grid"] == list(DEFAULT_ALPHA_GRID)
        assert obj["flags"] == [] and obj["undecided"] == []


class TestTransitiveClosure:
    def test_matches_breadth_first_reachability(self):
        rng = np.random.default_rng(13)
        cases = [np.zeros((0, 0), dtype=bool), np.zeros((5, 5), dtype=bool)]
        for _ in range(40):
            n = int(rng.integers(1, 81))
            arcs = rng.random((n, n)) < rng.uniform(0.2, 3.0) / n
            if rng.random() < 0.5:  # a DAG under a random labelling
                perm = rng.permutation(n)
                arcs = np.triu(arcs, 1)[perm][:, perm]
            cases.append(arcs)
        cyclic = 0
        for arcs in cases:
            want = reachable_by_bfs(arcs)
            cyclic += bool(want.diagonal().any())
            got = _transitive_closure(arcs)
            assert got.dtype == bool and np.array_equal(got, want)
        assert 0 < cyclic < len(cases)


class TestResidualMoves:
    @pytest.mark.parametrize("d", [4, 5, 6, 7, 8])
    def test_targets_match_canonical_codes_of_the_moved_trees(self, d):
        reps = enumerate_shapes(d)
        index = {canonical_code(t): i for i, t in enumerate(reps)}
        seen = set()
        for i, u, v, residual, moves in _residual_moves(reps):
            part, _detached = prune(reps[i], u, v)
            at = {x: ahu_encoding(root_at(part, x)) for x in part.vertices}
            assert residual == at[v]
            targets = dict(moves)  # one move per distinct code at w
            assert len(targets) == len(moves) and set(targets) == {at[w] for w in at if w != v}
            for w in part.vertices:
                if w != v:
                    edges = [e for e in reps[i].edges if e != (min(u, v), max(u, v))]
                    moved = tree_on(reps[i].vertices, edges + [(u, w)])
                    assert targets[at[w]] == index[canonical_code(moved)]
                    seen.add((i, u, v, w))
        assert seen == {(i, u, v, w) for i, t in enumerate(reps) for _m, u, v, w in all_moves(t)}

    def test_d9_build_roots_one_tree_per_shape(self, root_calls):
        ps = build_poset(9)
        # neither the moves nor the twin check root a tree: both read codes
        assert len(ps.shapes) == 47 and root_calls == []

    def test_d9_compares_each_distinct_code_pair_once(self, monkeypatch):
        rows, parsed, labelled = [], [], []

        def counting_dominance(fa, fb, *args):
            rows.append(len(fb))
            return _dominance(fa, fb, *args)

        def counting_ahu_codes(adj, root, away=None):
            at, side = _ahu_codes(adj, root, away)
            if root == 0:  # a parsed residual code's tree; trees label from 1
                parsed.append(at[0])
            if away is not None:  # a labelled residual
                labelled.append(away)
            return at, side

        monkeypatch.setattr(poset, "_dominance", counting_dominance)
        monkeypatch.setattr(poset, "_ahu_codes", counting_ahu_codes)
        ps = build_poset(9)
        moves, pairs = 0, set()
        for tree in enumerate_shapes(9):
            for _moved, u, v, w in all_moves(tree):
                part = prune(tree, u, v)[0]
                pairs.add((ahu_encoding(root_at(part, v)), ahu_encoding(root_at(part, w))))
                moves += 1
        residuals = {cv for cv, _cw in pairs}
        assert (moves, len(pairs), len(residuals)) == (2632, 861, 199)
        # one _dominance row per distinct (code at v, code at w), one call per
        # distinct residual code, and one all-roots pass per distinct residual
        # code, a lone v's (a leaf's, with no move) included
        assert sum(rows) == 861 and len(rows) == 199
        assert len(parsed) == 200 and set(parsed) == residuals | {b"()"}
        # the labelled residual is walked only to name the w's of its records
        records = {(r.source, r.u, r.v) for r in ps.flags + ps.undecided}
        assert len(labelled) == len(records) == 51


class TestCodeKeyedLaws:
    def test_match_the_per_alpha_h_cdf_of_every_residual(self):
        grid = DEFAULT_ALPHA_GRID
        alphas = np.array(grid)[:, None]
        checked = 0
        for d in range(4, 10):
            memo = {}
            for tree in enumerate_shapes(d):
                for (a, b) in tree.edges:
                    for u, v in ((a, b), (b, a)):
                        at = _ahu_codes(tree.neighbors, v, away=u)[0]
                        if len(at) == 1:
                            continue  # a lone v has no move
                        for x, code in at.items():  # the residual rooted at each of its vertices
                            got = _h_pmfs(code, alphas, memo).cumsum(axis=1)
                            rooted = root_at(tree, x, away=u)
                            want = np.zeros((len(grid), len(rooted.order) + 1))  # H lives on {1..d}
                            for row, a in zip(want, grid):
                                p = _root_eta(rooted, a)
                                row[: len(p)] = p
                            want = want.cumsum(axis=1)
                            assert got.shape == want.shape
                            assert np.max(np.abs(got - want)) <= 1e-15
                            checked += 1
        assert checked == 4993


class TestAggregateTwins:
    """The twin check compares M's exponent Q at alpha = 1/2, read off the
    code-keyed H laws; mpmrf's exponent is the reference."""

    def test_d11_twin_pair_raises(self, twins11):
        codes = [canonical_code(t) for t in twins11]
        assert codes[0] != codes[1]
        with pytest.raises(AntisymmetryError, match="share an aggregate law"):
            _assert_distinct_aggregates(codes)

    def test_every_d10_shape_passes(self):
        codes = [canonical_code(t) for t in enumerate_shapes(10)]
        assert len(codes) == 106
        _assert_distinct_aggregates(codes)

    def test_exponent_is_rate_times_severity(self):
        # at alpha = 1/2 both sums are exact in floats, so Q's bytes agree
        checked = 0
        for d in range(1, 13):
            memo = {}
            for t in enumerate_shapes(d):
                q = _aggregate_exponent(canonical_code(t).code, memo)
                assert np.array_equal(q, _exponent(t, 0.5))
                checked += 1
        assert checked == 987

    @pytest.mark.parametrize("alpha, hasse", [(0.001, 77), (0.999, 79)])
    def test_d9_builds_on_a_grid_near_0_or_1(self, alpha, hasse):
        # at 0.001 distinct shapes' exponents differ by about 1e-12, so a
        # check at the grid's alpha would take them for twins
        assert len(build_poset(9, (alpha,)).hasse) == hasse


class TestMemo:
    def test_relation_is_read_only(self):
        ps = build_poset(5, GRID)
        with pytest.raises(ValueError):
            ps.relation[0, 1] = True

    def test_bad_arguments_raise_on_every_call(self):
        for _ in range(2):
            for d, grid in ((3, GRID), (10, GRID), (5, ()), (5, [0.0, 0.5]), (5, (0.5, 1.0))):
                with pytest.raises(ValueError):
                    build_poset(d, grid)


class TestPosetOracle:
    """build_poset's per-alpha verdicts against the single-move criterion
    evaluated per alpha by hand: cdfs of H_v and H_w on the labelled residual
    of every move, expanded by helpers.eta_by_hand and compared pointwise."""

    ORACLE_GRID = (0.15, 0.5, 0.85)
    TOL = 1e-12

    @classmethod
    def _relation(cls, residual: Tree, v: int, w: int, alpha: float) -> str:
        hv, hw = eta_by_hand(residual, v, alpha), eta_by_hand(residual, w, alpha)
        n = max(len(hv), len(hw))
        fv = np.cumsum(np.pad(hv, (0, n - len(hv))))
        fw = np.cumsum(np.pad(hw, (0, n - len(hw))))
        le = bool(np.all(fv >= fw - cls.TOL))  # H_v <=_st H_w
        ge = bool(np.all(fw >= fv - cls.TOL))
        return "EQ" if le and ge else "LE" if le else "GE" if ge else "INCOMPARABLE"

    @pytest.mark.parametrize("d", [4, 5, 6, 7, 8])
    def test_matches_per_alpha_shape_compare(self, d):
        ps = build_poset(d, self.ORACLE_GRID)
        index = {c: i for i, c in enumerate(ps.shapes)}
        n = len(ps.shapes)
        arcs = np.eye(n, dtype=bool)
        expected = {}
        for i, tree in enumerate(ps.reps):
            for moved, u, v, w in all_moves(tree):
                residual, _detached = prune(tree, u, v)
                rels = tuple(self._relation(residual, v, w, a) for a in self.ORACLE_GRID)
                j = index[canonical_code(moved)]
                expected[(i, u, v, w)] = (j, rels)
                if set(rels) <= {"LE", "EQ"}:
                    arcs[i, j] = True
                if set(rels) <= {"GE", "EQ"}:
                    arcs[j, i] = True
        for rec in ps.flags + ps.undecided:
            assert expected[(rec.source, rec.u, rec.v, rec.w)] == (rec.target, rec.relations)
        closure = arcs
        while True:
            nxt = closure | ((closure.astype(int) @ closure.astype(int)) > 0)
            if (nxt == closure).all():
                break
            closure = nxt
        assert (ps.relation == closure).all()
        undecided = sum(set(rels) == {"INCOMPARABLE"} for _j, rels in expected.values())
        assert len(ps.undecided) == undecided
        recorded = sum(not (set(rels) <= {"LE", "EQ"} or set(rels) <= {"GE", "EQ"})
                       for _j, rels in expected.values())
        assert len(ps.flags) + len(ps.undecided) == recorded


class TestHasseDot:
    def test_d4(self):
        dot = hasse_dot(build_poset(4))
        assert dot.count("[label=") == 2
        assert dot.count("->") == 1
        assert "rankdir=BT" in dot and "tooltip=" in dot

    def test_d5(self):
        dot = hasse_dot(build_poset(5))
        assert dot.count("[label=") == 3 and dot.count("->") == 2

    def test_degenerate_no_edges(self):
        shapes = tuple(canonical_code(t) for t in enumerate_shapes(4))
        ps = ShapePoset(4, shapes, tuple(enumerate_shapes(4)),
                        np.eye(2, dtype=bool), (), (0.5,), (), ())
        dot = hasse_dot(ps)
        assert dot.count("[label=") == 2 and "->" not in dot


class TestCorollaryChains:
    def test_star_to_series_d6(self):
        pairs = corollary_chain("star_to_series", d=6)
        assert len(pairs) == 3  # four trees, chained bottom up
        assert canonical_code(pairs[0][0]) == canonical_code(path_tree(6))
        assert canonical_code(pairs[-1][1]) == canonical_code(star_tree(6))
        for lo, hi in pairs:
            for alpha in GRID:
                assert shape_compare(lo, hi, alpha).relation is Relation.LE

    def test_series_slide_spec_case(self):
        tau = path_tree(3)
        pairs = corollary_chain("series_slide", d_se=5, tau=tau)
        assert len(pairs) == 1
        for alpha in GRID:
            assert shape_compare(*pairs[0], alpha=alpha).relation is Relation.LE

    def test_beam_balance_spec_case(self):
        pairs = corollary_chain("beam_balance", d_beam=5, d_ray=4)
        assert len(pairs) == 2
        for lo, hi in pairs:
            for alpha in GRID:
                assert shape_compare(lo, hi, alpha).relation is Relation.LE

    def test_ray_tool_with_attached_subtree(self):
        pairs = corollary_chain("ray_tool", d_ray=4, subtrees=(path_tree(2),))
        assert pairs and all(t.d == 7 for pair in pairs for t in pair)
        for lo, hi in pairs:
            for alpha in GRID:
                assert shape_compare(lo, hi, alpha).relation is Relation.LE

    def test_malformed_parameters(self):
        with pytest.raises(ValueError):
            corollary_chain("star_to_series", d=3)
        with pytest.raises(ValueError):
            corollary_chain("ray_tool", d_ray=2)
        with pytest.raises(ValueError):
            corollary_chain("series_slide", d_se=2, tau=path_tree(2))
        with pytest.raises(ValueError):
            corollary_chain("beam_balance", d_beam=1, d_ray=2)
        with pytest.raises(ValueError):
            corollary_chain("beam_balance", d_beam=3, d_ray=2, subtrees=((9, path_tree(2)),))
        with pytest.raises(ValueError):
            corollary_chain("unknown_kind")

    def test_chain_endpoints_isomorphic_across_routes(self):
        # the bare ray tool on d_ray rays is the star-to-series deconstruction
        a = corollary_chain("ray_tool", d_ray=5)
        b = corollary_chain("star_to_series", d=6)
        assert [tuple(map(canonical_code, p)) for p in a] == \
               [tuple(map(canonical_code, p)) for p in b]
