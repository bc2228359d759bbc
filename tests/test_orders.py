import numpy as np
import pytest

from treemrf.mpmrf import DiscreteDist, MpmrfModel, aggregate_dist
from treemrf.orders import (
    Relation,
    _stop_loss_curve,
    cx_check_empirical,
    shape_compare,
    st_compare,
    st_compare_rows,
    synecdochic_compare,
)
from treemrf.tree_core import Tree, canonical_code, enumerate_shapes

from helpers import all_moves, eta_by_hand, poisson_pmf, prune, random_tree, stop_loss_brute


def point_mass(k):
    pmf = np.zeros(k + 1)
    pmf[k] = 1.0
    return DiscreteDist(pmf)


def star_tree(d):
    return Tree.of(d, [(1, i) for i in range(2, d + 1)])


def path_tree(d):
    return Tree.of(d, [(i, i + 1) for i in range(1, d)])


class TestStCompare:
    def test_point_masses(self):
        assert st_compare(point_mass(1), point_mass(2)).relation is Relation.LE
        assert st_compare(point_mass(2), point_mass(1)).relation is Relation.GE

    def test_equal(self):
        d = DiscreteDist(np.array([0.25, 0.5, 0.25]))
        v = st_compare(d, d)
        assert v.relation is Relation.EQ
        assert v.not_le_at is None and v.not_ge_at is None

    def test_incomparable_with_witnesses(self, incomparable12):
        t, _tp = incomparable12
        residual, _ = prune(t, 4, 2)
        h2 = DiscreteDist(eta_by_hand(residual, 2, 0.9))
        h3 = DiscreteDist(eta_by_hand(residual, 3, 0.9))
        v = st_compare(h2, h3)
        assert v.relation is Relation.INCOMPARABLE
        # F_2 is larger at 1, smaller at 2: dominance of h2 breaks first at 2
        assert v.not_le_at == 2 and v.not_ge_at == 1

    def test_le_and_ge_witnesses_are_exclusive(self):
        a = DiscreteDist(np.array([0.5, 0.5]))
        b = DiscreteDist(np.array([0.2, 0.3, 0.5]))
        v = st_compare(a, b)
        assert v.relation is Relation.LE
        assert v.not_le_at is None and v.not_ge_at == 0

    def test_json(self):
        v = st_compare(point_mass(1), point_mass(2))
        obj = v.to_json()
        assert obj["relation"] == "LE" and obj["witness"] is None

    def test_rows_agree_with_pairwise_verdicts(self, incomparable12):
        t, _tp = incomparable12
        residual, _ = prune(t, 4, 2)
        pairs = [(point_mass(1), point_mass(2)), (point_mass(2), point_mass(1)),
                 (point_mass(2), point_mass(2))]
        pairs += [(DiscreteDist(eta_by_hand(residual, 2, a)),
                   DiscreteDist(eta_by_hand(residual, 3, a))) for a in (0.1, 0.5, 0.9)]
        n = max(len(x.pmf) for pair in pairs for x in pair)
        fa, fb = (np.array([np.cumsum(np.pad(x.pmf, (0, n - len(x.pmf)))) for x in col])
                  for col in zip(*pairs))
        rows = st_compare_rows(fa, fb)
        assert rows == [st_compare(a, b) for a, b in pairs]
        assert [v.relation for v in rows[:3]] == [Relation.LE, Relation.GE, Relation.EQ]

    def test_rows_tolerance(self):
        fa = np.array([[0.5, 1.0], [0.5, 1.0]])
        fb = np.array([[0.5 + 5e-13, 1.0], [0.5 + 5e-12, 1.0]])
        assert [v.relation for v in st_compare_rows(fa, fb)] == [Relation.EQ, Relation.GE]


class TestSynecdochicCompare:
    def test_hub6_2_below_3(self, hub6):
        for alpha in (0.2, 0.5, 0.8):
            m = MpmrfModel.homogeneous(hub6, 1.0, alpha)
            assert synecdochic_compare(m, 2, 3).relation is Relation.LE

    def test_hub6_symmetric_leaves(self, hub6):
        m = MpmrfModel.homogeneous(hub6, 1.0, 0.5)
        assert synecdochic_compare(m, 4, 5).relation is Relation.EQ

    def test_star_leaf_below_center(self, star10):
        m = MpmrfModel.homogeneous(star10, 1.0, 0.5)
        assert synecdochic_compare(m, 2, 1).relation is Relation.LE
        # cross-check the two cdfs by direct expansion
        fl = np.cumsum(eta_by_hand(star10, 2, 0.5))
        fc = np.cumsum(eta_by_hand(star10, 1, 0.5))
        n = min(len(fl), len(fc))
        assert np.all(fl[:n] >= fc[:n] - 1e-15)

    def test_same_vertex_rejected(self, star10):
        m = MpmrfModel.homogeneous(star10, 1.0, 0.5)
        with pytest.raises(ValueError):
            synecdochic_compare(m, 3, 3)


class TestShapeCompare:
    def test_star_to_first_broom_step(self):
        # moving one leaf of the 6-star one step out is a riskier-to-less move
        star = star_tree(6)
        broom = Tree.of(6, [(1, 2), (2, 3), (1, 4), (1, 5), (1, 6)])
        for alpha in (0.1, 0.5, 0.9):
            assert shape_compare(broom, star, alpha).relation is Relation.LE
            assert shape_compare(star, broom, alpha).relation is Relation.GE

    def test_incomparable12(self, incomparable12):
        t, tp = incomparable12
        assert shape_compare(t, tp, 0.9).relation is Relation.INCOMPARABLE

    def test_spectral_exception_pair_is_ordered(self, spectral_exception9):
        t, tp = spectral_exception9
        assert shape_compare(t, tp, 0.5).relation is Relation.LE

    def test_identical_trees_rejected(self):
        t = path_tree(4)
        with pytest.raises(ValueError):
            shape_compare(t, t, 0.5)

    def test_multi_move_rejected(self, composite9):
        t, tp = composite9
        with pytest.raises(ValueError):
            shape_compare(t, tp, 0.5)

    def test_vertex_set_mismatch_rejected(self):
        with pytest.raises(ValueError):
            shape_compare(path_tree(4), path_tree(5), 0.5)

    def test_alpha_domain(self):
        star, broom = star_tree(6), Tree.of(6, [(1, 2), (2, 3), (1, 4), (1, 5), (1, 6)])
        with pytest.raises(ValueError):
            shape_compare(broom, star, 1.5)

    def test_target_inside_the_detached_subtree_is_no_tree(self):
        # re-anchoring u = 3 of the path 1-2-3-4-5 from v = 2 to w = 5, on u's
        # own side, leaves d - 1 edges with a cycle 3-4-5 and 1-2 cut off:
        # no such t2 reaches shape_compare
        t1 = path_tree(5)
        with pytest.raises(ValueError, match="edge set is not connected"):
            Tree.of(5, [e for e in t1.edges if e != (2, 3)] + [(3, 5)])

    def test_symmetric_move_gives_eq(self):
        # moving a leaf between the two symmetric ends of a path
        t1 = Tree.of(5, [(1, 2), (2, 3), (3, 4), (2, 5)])
        t2 = Tree.of(5, [(1, 2), (2, 3), (3, 4), (3, 5)])
        assert shape_compare(t1, t2, 0.5).relation is Relation.EQ


class TestConnectionToSynecdochic:
    @staticmethod
    def _check_bridge(tree, alpha):
        # comparing v and w inside a tree is the same check as comparing the
        # two trees obtained by hanging an extra leaf on v or on w
        m = MpmrfModel.homogeneous(tree, 1.0, alpha)
        d = tree.d
        for v in tree.vertices:
            for w in tree.vertices:
                if v == w:
                    continue
                tv = Tree.of(d + 1, list(tree.edges) + [(v, d + 1)])
                tw = Tree.of(d + 1, list(tree.edges) + [(w, d + 1)])
                assert (shape_compare(tv, tw, alpha).relation
                        is synecdochic_compare(m, v, w).relation)

    def test_added_leaf_reproduces_vertex_comparison(self, hub6):
        self._check_bridge(hub6, 0.5)

    def test_bridge_on_random_trees(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            self._check_bridge(random_tree(rng, 6), float(rng.uniform(0.1, 0.9)))


class TestCxCheckEmpirical:
    def test_identical(self):
        d = DiscreteDist(poisson_pmf(2.0, 60))
        assert cx_check_empirical(d, d).relation is Relation.EQ

    def test_poisson_vs_scaled_poisson(self):
        # Poisson(2) against 2*Poisson(1): equal means, the scaled one riskier
        p2 = DiscreteDist(poisson_pmf(2.0, 80))
        scaled = np.zeros(81)
        scaled[0:81:2] = poisson_pmf(1.0, 40)
        twice = DiscreteDist(scaled)
        assert cx_check_empirical(p2, twice).relation is Relation.LE
        # brute-force stop-loss cross-check on a coarse grid
        for c in range(0, 12):
            assert stop_loss_brute(p2.pmf, c) <= stop_loss_brute(twice.pmf, c) + 1e-12

    def test_star_vs_series_aggregates(self):
        lam, alpha = 1.0, 0.5
        m_star = MpmrfModel.homogeneous(star_tree(5), lam, alpha)
        m_path = MpmrfModel.homogeneous(path_tree(5), lam, alpha)
        v = cx_check_empirical(aggregate_dist(m_path), aggregate_dist(m_star))
        assert v.relation is Relation.LE

    def test_mean_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cx_check_empirical(point_mass(1), point_mass(2))

    def test_crossing_stop_loss_witnesses(self):
        # equal means 1.8; the stop-loss premium of m1 is the larger at c=1
        # (0.9 against 0.8) and the smaller from c=2 on (0 against 0.6)
        m1 = DiscreteDist(np.array([0.1, 0.0, 0.9]))
        m2 = DiscreteDist(np.array([0.0, 0.8, 0.0, 0.0, 0.0, 0.2]))
        for a, b in ((m1, m2), (m2, m1)):
            v = cx_check_empirical(a, b)
            assert v.relation is Relation.INCOMPARABLE
            cs = range(max(len(a.pmf), len(b.pmf)) + 1)
            sa = [stop_loss_brute(a.pmf, c) for c in cs]
            sb = [stop_loss_brute(b.pmf, c) for c in cs]
            # a <=_cx b fails first where a's premium passes b's, and back
            assert v.not_le_at == next(c for c in cs if sa[c] > sb[c] + 1e-8)
            assert v.not_ge_at == next(c for c in cs if sb[c] > sa[c] + 1e-8)
        assert (v.not_le_at, v.not_ge_at) == (2, 1)


@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_shape_verdicts_imply_aggregate_convex_order(d):
    """Whenever the single-move criterion certifies a direction, the aggregate
    laws must be convex-ordered the same way."""
    lam = 1.0
    agg_cache = {}

    def agg(tree, alpha):
        key = (canonical_code(tree), alpha)
        if key not in agg_cache:
            agg_cache[key] = aggregate_dist(MpmrfModel.homogeneous(tree, lam, alpha))
        return agg_cache[key]

    for base in enumerate_shapes(d):
        for moved, *_ in all_moves(base):
            for alpha in (0.2, 0.5, 0.8):
                verdict = shape_compare(base, moved, alpha).relation
                if verdict is Relation.INCOMPARABLE:
                    continue
                cx = cx_check_empirical(agg(base, alpha), agg(moved, alpha), tol=1e-9)
                if verdict is Relation.LE:
                    assert cx.relation in (Relation.LE, Relation.EQ)
                elif verdict is Relation.GE:
                    assert cx.relation in (Relation.GE, Relation.EQ)
                else:
                    assert cx.relation is Relation.EQ


class TestStopLoss:
    """_stop_loss_curve, which cx_check_empirical compares, against the
    premiums summed from their definition (helpers.stop_loss_brute)."""

    @staticmethod
    def _check(pmf, n):
        curve = _stop_loss_curve(np.asarray(pmf, dtype=float), n)
        assert curve.shape == (n,)
        for c in range(n):
            assert abs(curve[c] - stop_loss_brute(pmf, c)) < 1e-12

    def test_point_mass(self):
        self._check([0.0, 0.0, 0.0, 1.0], 6)
        assert _stop_loss_curve(np.array([0.0, 0.0, 0.0, 1.0]), 4)[1] == 2.0

    def test_beyond_support_is_zero(self):
        curve = _stop_loss_curve(np.array([0.2, 0.3, 0.5]), 11)
        assert np.all(curve[2:] == 0.0)
        self._check([0.2, 0.3, 0.5], 11)

    def test_at_zero_recovers_mean(self):
        pmf = poisson_pmf(1.0, 40)  # tail far below 1e-12
        assert abs(_stop_loss_curve(pmf, 42)[0] - 1.0) < 1e-9
        self._check(pmf, 42)

    def test_aggregates_and_curves_shorter_than_the_pmf(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            m = MpmrfModel.homogeneous(random_tree(rng, int(rng.integers(2, 12))), 0.7,
                                       float(rng.uniform(0.1, 0.9)))
            pmf = aggregate_dist(m).pmf
            pmf = pmf / pmf.sum()  # the curve counts the cut tail's mass, the brute sum does not
            for n in (1, len(pmf) // 2, len(pmf) + 3):
                self._check(pmf, n)
