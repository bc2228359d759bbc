import hashlib
import math
import random
import re
import time
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from treemrf import mpmrf
from treemrf.mpmrf import (
    DiscreteDist,
    MpmrfModel,
    ToleranceError,
    aggregate_dist,
    closeness_indices,
    cov_with_sum,
    expected_allocation,
    h_dist,
    h_poly,
    sample,
    tvar,
    tvar_contribution_table,
)
from treemrf.tree_core import Tree, enumerate_shapes, root_at

from helpers import (
    agg_pmf_series_exp,
    decimal_tvar_rows,
    eta_by_hand,
    panjer_exp_start,
    path,
    path_star_moments,
    path_sums_by_hand,
    poisson_pmf,
    random_tree,
    reference_eta,
    reference_exponent,
    reference_contribution,
    reference_h_all,
    reference_panjer,
    reference_sample,
    reference_thinning,
    relabel,
    relabel_model,
    tv_distance,
    variance,
)


def path_tree(d):
    return Tree.of(d, [(i, i + 1) for i in range(1, d)])


def star_tree(d):
    return Tree.of(d, [(1, i) for i in range(2, d + 1)])


def broom_tree(d):
    """A path 1..h, h = max(1, d // 3), with every later vertex a leaf of h."""
    h = max(1, d // 3)
    return Tree.of(d, [(i, i + 1) for i in range(1, h)] + [(h, i) for i in range(h + 1, d + 1)])


def random_model(rng, d_max=8) -> MpmrfModel:
    t = random_tree(rng, int(rng.integers(2, d_max + 1)))
    alpha = {e: float(rng.uniform(0.05, 0.95)) for e in t.edges}
    return MpmrfModel(t, float(rng.uniform(0.5, 2.0)), alpha)


class TestModelValidation:
    def test_lambda_positive(self):
        with pytest.raises(ValueError):
            MpmrfModel.homogeneous(path_tree(2), 0.0, 0.5)

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_lambda_finite(self, lam):
        with pytest.raises(ValueError, match="finite"):
            MpmrfModel.homogeneous(path_tree(2), lam, 0.5)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            MpmrfModel.homogeneous(path_tree(2), 1.0, 1.5)

    def test_alpha_keys_must_cover_edges(self):
        with pytest.raises(ValueError):
            MpmrfModel(path_tree(3), 1.0, {(1, 2): 0.5})

    def test_json_roundtrip_scalar_and_per_edge(self):
        m = MpmrfModel.homogeneous(path_tree(3), 1.5, 0.25)
        assert MpmrfModel.from_json(m.to_json()).alpha == m.alpha
        m2 = MpmrfModel(path_tree(3), 1.0, {(1, 2): 0.2, (2, 3): 0.7})
        back = MpmrfModel.from_json(m2.to_json())
        assert back.alpha == m2.alpha and not back.is_homogeneous()

    def test_json_roundtrip_single_vertex(self):
        # no edge, so no alpha to write as a scalar
        m = MpmrfModel(Tree.of(1, []), 2.0, {})
        obj = m.to_json()
        assert obj["alpha"] == {}
        back = MpmrfModel.from_json(obj)
        assert (back.tree, back.lam, back.alpha) == (m.tree, m.lam, m.alpha)


def model_json(edges, alpha=0.5, d=None) -> dict:
    return {"d": len(edges) + 1 if d is None else d, "edges": edges, "lambda": 1.0, "alpha": alpha}


# every rejecting branch of a tree's and a model's checks, with its whole message
REJECTIONS = [
    ("self-loop", lambda: Tree.of(3, [(1, 2), (2, 2)]), "self-loop at vertex 2"),
    ("unknown vertex", lambda: Tree.of(3, [(1, 2), (2, 4)]), "edge (2,4) uses unknown vertex"),
    ("unknown vertex, direct", lambda: Tree((2, 5, 9), ((2, 5), (5, 7))), "edge (5,7) uses unknown vertex"),
    ("duplicate given reversed", lambda: Tree.of(3, [(1, 2), (2, 1)]), "duplicate edge (1, 2)"),
    ("first fault in the order given", lambda: Tree.of(4, [(1, 2), (3, 9), (4, 4), (2, 1)]),
     "edge (3,9) uses unknown vertex"),
    ("too few edges", lambda: Tree.of(4, [(1, 2), (2, 3)]), "a tree on d vertices has exactly d-1 edges"),
    ("too many edges", lambda: Tree.of(3, [(1, 2), (2, 3), (1, 3)]),
     "a tree on d vertices has exactly d-1 edges"),
    ("disconnected", lambda: Tree.of(4, [(1, 2), (2, 3), (1, 3)]), "edge set is not connected"),
    ("self-loop, JSON", lambda: MpmrfModel.from_json(model_json([[1, 2], [3, 3]])), "self-loop at vertex 3"),
    ("duplicate given reversed, JSON", lambda: MpmrfModel.from_json(model_json([[1, 2], [2, 1]], d=3)),
     "duplicate edge (1, 2)"),
    ("bool label", lambda: MpmrfModel.from_json(model_json([[1, 2], [True, 3]])),
     "vertex counts and labels must be integers, not True"),
    ("float label", lambda: MpmrfModel.from_json(model_json([[1, 2.0], [2, 3]])),
     "vertex counts and labels must be integers, not 2.0"),
    ("bool d", lambda: Tree.from_json({"d": True, "edges": []}),
     "vertex counts and labels must be integers, not True"),
    ("float d", lambda: Tree.from_json({"d": 3.0, "edges": [[1, 2], [2, 3]]}),
     "vertex counts and labels must be integers, not 3.0"),
    ("a pair of three", lambda: Tree.from_json({"d": 0, "edges": [[1, 2, 3]]}),
     "too many values to unpack (expected 2)"),
    ("d below 1", lambda: Tree.from_json({"d": 0, "edges": []}), "d must be >= 1"),
    ("alpha missing", lambda: MpmrfModel(path_tree(3), 1.0, {(1, 2): 0.5}),
     "alpha must be given for exactly the tree's edges"),
    ("alpha for an extra edge", lambda: MpmrfModel(path_tree(3), 1.0, {(1, 2): 0.5, (2, 3): 0.5, (1, 3): 0.5}),
     "alpha must be given for exactly the tree's edges"),
    ("alpha missing, JSON", lambda: MpmrfModel.from_json(model_json([[1, 2], [2, 3]], {"2-1": 0.5})),
     "alpha must be given for exactly the tree's edges"),
    ("alpha above 1", lambda: MpmrfModel.homogeneous(path_tree(3), 1.0, 1.5), "alpha[(1, 2)] = 1.5 outside [0, 1]"),
    ("alpha below 0", lambda: MpmrfModel(path_tree(3), 1.0, {(3, 2): -0.25, (1, 2): 0.5}),
     "alpha[(2, 3)] = -0.25 outside [0, 1]"),
    ("alpha NaN, JSON", lambda: MpmrfModel.from_json(model_json([[1, 2], [2, 3]], {"1-2": 0.5, "3-2": math.nan})),
     "alpha[(2, 3)] = nan outside [0, 1]"),
    ("alpha NaN everywhere", lambda: MpmrfModel.homogeneous(path_tree(3), 1.0, math.nan),
     "alpha[(1, 2)] = nan outside [0, 1]"),
    ("alpha a string, JSON", lambda: MpmrfModel.from_json(model_json([[1, 2]], "0.5")),
     "lambda and alpha must be numbers, not '0.5'"),
]


class TestRejections:
    @pytest.mark.parametrize("build, message", [case[1:] for case in REJECTIONS],
                             ids=[case[0] for case in REJECTIONS])
    def test_message(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()


class TestHDist:
    def test_single_vertex_is_point_mass_at_one(self):
        m = MpmrfModel(Tree.of(1, []), 2.0, {})
        d = h_dist(m, 1)
        assert np.allclose(d.pmf, [0.0, 1.0])

    def test_two_vertex_path(self):
        m = MpmrfModel.homogeneous(path_tree(2), 1.0, 0.3)
        d = h_dist(m, 1)
        assert np.allclose(d.pmf, [0.0, 0.7, 0.3])

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9])
    def test_hub6_roots_match_hand_expansion(self, hub6, alpha):
        # root 2: t(1-a+at)(1-a+at(1-a+at)^3); root 3: t(1-a+at)^3(1-a+at(1-a+at))
        m = MpmrfModel.homogeneous(hub6, 1.0, alpha)
        a = alpha
        lin = np.array([1 - a, a])
        lin3 = np.convolve(np.convolve(lin, lin), lin)
        inner2 = a * np.concatenate([[0.0], lin3])  # a*t*(1-a+at)^3
        inner2[0] += 1 - a
        want2 = np.convolve(np.convolve([0.0, 1.0], lin), inner2)
        inner3 = a * np.concatenate([[0.0], lin])
        inner3[0] += 1 - a
        want3 = np.convolve(np.convolve([0.0, 1.0], lin3), inner3)
        got2, got3 = h_dist(m, 2).pmf, h_dist(m, 3).pmf
        assert np.allclose(got2, want2[: len(got2)], atol=1e-15)
        assert np.allclose(got3, want3[: len(got3)], atol=1e-15)

    def test_support_and_no_mass_at_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            m = random_model(rng)
            for v in m.tree.vertices:
                d = h_dist(m, v)
                assert d.pmf[0] == 0.0
                assert d.k_max <= m.tree.d
                assert abs(d.pmf.sum() - 1.0) < 1e-12


class TestHArray:
    """The H pgf as a plain coefficient array."""

    def test_alpha_zero_is_t(self):
        # every thinned factor is the constant 1, so each product stays t
        rng = np.random.default_rng(21)
        for _ in range(10):
            t = random_tree(rng, int(rng.integers(1, 12)))
            for v in t.vertices:
                h = h_poly(t, v, 0.0)
                assert np.array_equal(h, [0.0, 1.0]) and h.dtype == float

    def test_alpha_one_path_is_t_power_d(self):
        for d in (1, 2, 5, 40):
            want = np.zeros(d + 1)
            want[d] = 1.0
            for v in (1, (d + 1) // 2, d):
                assert np.array_equal(h_poly(path_tree(d), v, 1.0), want)

    def test_mass_is_one(self):
        rng = np.random.default_rng(22)
        for _ in range(30):
            t = random_tree(rng, int(rng.integers(1, 60)))
            alphas = [float(rng.uniform()), {e: float(rng.uniform()) for e in t.edges}]
            for alpha in alphas:
                for v in t.vertices[:5]:
                    assert abs(h_poly(t, v, alpha).sum() - 1.0) < 1e-12

    def test_no_trailing_zero(self):
        # alpha * eta_c underflows at alpha = 1e-200, leaving zeros to trim
        rng = np.random.default_rng(23)
        for _ in range(10):
            t = random_tree(rng, int(rng.integers(1, 30)))
            per_edge = {e: float(rng.choice([1e-200, 1e-160, 0.5, 0.0, 1.0])) for e in t.edges}
            for alpha in (0.0, 1e-200, 1e-100, 0.3, 1.0, per_edge):
                for v in t.vertices:
                    assert h_poly(t, v, alpha)[-1] != 0.0

    def test_alpha_out_of_range_raises(self):
        for alpha in (-0.1, 1.1, float("nan")):
            for t in (Tree.of(1, []), path_tree(3)):
                with pytest.raises(ValueError):
                    h_poly(t, 1, alpha)

    def test_single_edge_half(self):
        assert np.array_equal(h_poly(path_tree(2), 1, 0.5), [0.0, 0.5, 0.5])

    def test_cherry_is_a_bernoulli_square(self):
        # root 1 of the 3-star: t * (1/2 + t/2)^2
        assert np.array_equal(h_poly(star_tree(3), 1, 0.5), [0.0, 0.25, 0.5, 0.25])

    def test_middle_of_a_3_path_is_a_binomial_square(self):
        # t * (1 - a + a t)^2, exact for dyadic a
        for a in (0.25, 0.5, 0.75):
            want = [0.0, (1 - a) ** 2, 2 * a * (1 - a), a * a]
            assert np.array_equal(h_poly(path_tree(3), 2, a), want)

    def test_single_vertex_is_t(self):
        # no children: the empty product of thinned factors is the constant 1
        for alpha in (0.0, 0.3, 1.0, {}):
            assert np.array_equal(h_poly(Tree.of(1, []), 1, alpha), [0.0, 1.0])

    def test_zero_edge_cuts_off_what_hangs_beyond(self):
        # 1 - 2 -0- 3 - (random subtree): the factor thinned at alpha 0 is 1
        rng = np.random.default_rng(27)
        for _ in range(10):
            d = int(rng.integers(3, 20))
            edges = [(1, 2), (2, 3)] + [(int(rng.integers(3, k)), k) for k in range(4, d + 1)]
            t = Tree.of(d, edges)
            alpha = {e: float(rng.uniform()) for e in t.edges}
            alpha[(1, 2)], alpha[(2, 3)] = 0.5, 0.0
            assert np.array_equal(h_poly(t, 1, alpha), [0.0, 0.5, 0.5])

    def test_degree_is_d(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            t = random_tree(rng, int(rng.integers(1, 40)))
            v = int(rng.choice(t.vertices))
            assert len(h_poly(t, v, float(rng.uniform(0.01, 0.99)))) == t.d + 1

    def test_relabelling_only_reorders_factors(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            t = random_tree(rng, int(rng.integers(2, 50)))
            perm = dict(zip(t.vertices, (int(x) for x in rng.permutation(t.vertices))))
            alpha = float(rng.uniform())
            for v in t.vertices[:4]:
                a, b = h_poly(t, v, alpha), h_poly(relabel(t, perm), perm[v], alpha)
                assert len(a) == len(b) and np.max(np.abs(a - b)) < 1e-12

    def test_matches_hand_expansion_and_pointwise_recursion(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            t = random_tree(rng, int(rng.integers(1, 25)))
            alpha = float(rng.uniform())
            for v in t.vertices[:3]:
                h = h_poly(t, v, alpha)
                hand = eta_by_hand(t, v, alpha)
                assert np.max(np.abs(h - hand[: len(h)])) < 1e-15
                for x in (0.0, 0.3, 0.9, 1.0, 1.7):
                    want = _eta_at(t, v, None, alpha, x)
                    assert abs(np.polyval(h[::-1], x) - want) < 1e-12 * max(1.0, want)

    @pytest.mark.parametrize("d,alpha", [(1000, 0.5), (3000, 0.9)] + [
        (d, 0.7) for d in (2, 3, 5, 9, 17, 33, 65)])
    def test_star_centre_matches_hand_expansion(self, d, alpha):
        # the centre's children multiply pairwise, the hand expansion one by one;
        # at d = 2**k + 1 an odd last factor is carried up at every level
        h = h_poly(star_tree(d), 1, alpha)
        hand = eta_by_hand(star_tree(d), 1, alpha)
        assert len(h) == len(hand) and np.max(np.abs(h - hand)) < 1e-14


class TestEtaMemory:
    """The eta pass holds each law only until its parent has used it: a path
    rooted at an end holds one law at a time, where keeping every eta_v of a
    3000-path at alpha = 0.9 peaked at 35.5 MB traced."""

    @pytest.mark.parametrize("run", [lambda t: mpmrf._exponent(t, 0.9), lambda t: h_poly(t, 1, 0.9)],
                             ids=["exponent", "h_poly"])
    def test_path_peak_is_a_frontier(self, run):
        t = path_tree(3000)
        tracemalloc.start()
        try:
            run(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestShortcutsAreBitIdentical:
    """The eta pass (one shared leaf law, the factor t as a shift, a pair equal
    to the one before reusing its product), the exponent's leaf adds and
    Panjer's skipped zero weights give the bytes of the plain passes in
    helpers: np.array_equal, no tolerance. The TVaR table's one pass gives
    aggregate_dist's bytes; its rows are held to the decimal truth
    (TestTvarOracle)."""

    @staticmethod
    def alphas(rng, t):
        yield from (0.0, 1.0, 0.3)
        yield {e: float(rng.uniform()) for e in t.edges}
        yield {e: float([0.0, 1.0, rng.uniform()][rng.integers(3)]) for e in t.edges}

    @staticmethod
    def check_pass(t, alpha, roots):
        for r in roots:
            rooted = root_at(t, r)
            got, want = list(mpmrf._eta(rooted, alpha)), list(reference_eta(rooted, alpha))
            assert [v for v, _ in got] == [v for v, _ in want]
            for (_, a), (_, b) in zip(got, want):
                assert np.array_equal(a, b)
            assert np.array_equal(h_poly(t, r, alpha), want[-1][1])

    @staticmethod
    def check_laws(t, alpha, lam):
        q = reference_exponent(t, alpha)
        assert np.array_equal(mpmrf._exponent(t, alpha), q)
        m = _model(t, lam, alpha)
        agg, ref = aggregate_dist(m), reference_panjer(lam, q, mpmrf.DEFAULT_TOL)
        assert agg.pmf.tobytes() == ref.pmf.tobytes() and repr(agg.tail_mass) == repr(ref.tail_mass)
        # the table's one pass: aggregate_dist's bytes, and rows within 1e-12 / (1 - kappa)
        # relative of those the plain formula forms from reference_h_all's laws
        kappas = [0.0, 0.5, 0.99]
        one, table = tvar_contribution_table(m, kappas)
        assert one.pmf.tobytes() == agg.pmf.tobytes() and repr(one.tail_mass) == repr(agg.tail_mass)
        assert sorted(table) == list(t.vertices)
        h, cdf, qs = reference_h_all(t, alpha), agg.cdf(), [agg.quantile(k) for k in kappas]
        for v in t.vertices:
            for i, (q, k) in enumerate(zip(qs, kappas)):
                want = reference_contribution(agg.pmf, cdf, q, h[v], lam, k)
                assert abs(table[v][i] - want) <= 1e-12 / (1.0 - k) * abs(want)

    def test_every_shape_to_d9_at_every_root(self):
        rng = np.random.default_rng(40)
        for d in range(1, 10):
            for t in enumerate_shapes(d):
                for alpha in self.alphas(rng, t):
                    self.check_pass(t, alpha, t.vertices)
                    self.check_laws(t, alpha, 1.3)

    def test_stars_and_brooms(self):
        # stars of odd and even degree, so the reused pairs end with and
        # without an odd factor carried up; the centre's leaf factors are one array
        rng = np.random.default_rng(41)
        for d in range(1, 71):
            for t in (star_tree(d), broom_tree(d)):
                for alpha in self.alphas(rng, t):
                    roots = sorted({1, d, max(1, d // 3)})
                    self.check_pass(t, alpha, roots)
                    self.check_laws(t, alpha, 0.7)

    def test_random_trees(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            t = random_tree(rng, int(rng.integers(2, 401)))
            alphas = [{e: float([0.0, 1.0, rng.uniform()][rng.integers(3)]) for e in t.edges},
                      {e: float(rng.uniform()) for e in t.edges}, 0.5]
            for alpha in alphas:
                roots = [1, *(int(x) for x in rng.integers(1, t.d + 1, size=2))]
                self.check_pass(t, alpha, roots)
                self.check_laws(t, alpha, 0.2)

    def test_zero_weights_in_a_block(self):
        # at alpha = .5 the centre's law of a 2000-star underflows below
        # t^100 or so, so w_2..w_15 are exact zeros; at alpha = 1 the path's
        # Q is t^d, and a block's own weights are all zero
        for t, alpha, lam in ((star_tree(2000), 0.5, 0.05), (path_tree(40), 1.0, 3.0),
                              (path_tree(300), 0.0, 2.0)):
            q = mpmrf._exponent(t, alpha)
            assert not q[2:16].any() or alpha == 1.0
            self.check_laws(t, alpha, lam)
        # at alpha = .9 the centre's law of a 3000-star has subnormal weights
        # at the edge of its band: the pass sets them to 0, as the reference does
        q = mpmrf._exponent(star_tree(3000), 0.9)
        w = np.arange(len(q)) * q
        assert np.any((w > 0.0) & (w < np.finfo(float).tiny))
        agg, ref = aggregate_dist(_model(star_tree(3000), 0.05, 0.9)), reference_panjer(0.05, q, 1e-12)
        assert agg.pmf.tobytes() == ref.pmf.tobytes() and repr(agg.tail_mass) == repr(ref.tail_mass)

    def test_single_vertex_law_is_a_fresh_writeable_array(self):
        t = Tree.of(1, [])
        h = h_poly(t, 1, 0.5)
        assert h.flags.writeable and h.tolist() == [0.0, 1.0]
        h[1] = 7.0
        assert h_poly(t, 1, 0.5).tolist() == [0.0, 1.0]
        assert h_dist(MpmrfModel.homogeneous(t, 1.0, 0.5), 1).pmf.tolist() == [0.0, 1.0]


class TestHAllSize:
    """The memory of every vertex's TVaR row: tvar_contribution_table raises
    ValueError before any step when the eta laws it keeps, plus the reserve
    for g, the adjoints and one vertex's products and shares, would pass
    MAX_K. The laws' bound is |subtree| + 1 entries each; past the budget, a
    pass that keeps no law counts their entries."""

    @staticmethod
    def kept(t, alpha):
        laws = {}
        mpmrf._exponent(t, alpha, laws)
        return sum(map(len, laws.values()))

    @staticmethod
    def reserve(t, levels):
        return (8 * levels + 4 * (t.d - 1).bit_length() + 4) * (t.d + 1)

    def test_star_past_max_k_raises_at_the_centre(self, monkeypatch):
        # 29 leaves keep 2 entries each, the centre its 31: the count passes 88 at the last law
        t = star_tree(30)
        m, reserve = _model(t, 0.05, 0.5), self.reserve(t, 1)
        assert self.kept(t, 0.5) == 89 and reserve == 992
        monkeypatch.setattr(mpmrf, "MAX_K", 89 + reserve - 1)
        with pytest.raises(ValueError, match=r"a 30-vertex tree's TVaR rows would pass MAX_K = 1,080 entries"):
            tvar_contribution_table(m, [0.9])
        monkeypatch.setattr(mpmrf, "MAX_K", 89 + reserve)
        assert len(tvar_contribution_table(m, [0.9])[1]) == 30

    def test_path_raises_once_the_laws_held_pass_max_k(self, monkeypatch):
        # no law of a 40-path passes 600 alone; the 860 entries kept do
        t = path_tree(40)
        m, reserve = _model(t, 0.05, 0.9), self.reserve(t, 1)
        assert self.kept(t, 0.9) == 860
        monkeypatch.setattr(mpmrf, "MAX_K", 600 + reserve)
        with pytest.raises(ValueError, match=r"a 40-vertex tree's TVaR rows would pass MAX_K = 2,076 entries"):
            tvar_contribution_table(m, [0.9])
        monkeypatch.setattr(mpmrf, "MAX_K", 860 + reserve)
        assert len(tvar_contribution_table(m, [0.9])[1]) == 40

    def test_counted_laws_below_their_bound_run(self, monkeypatch):
        # at alpha = .5 a 1500-path's laws stop at 1076 entries, where they
        # underflow: 1,036,300 in all, below their bound sum of |subtree| + 1,
        # 1,127,250, so at MAX_K = kept + reserve the counting pass lets it run
        t = path_tree(1500)
        m, reserve, kept = _model(t, 0.05, 0.5), self.reserve(t, 1), self.kept(t, 0.5)
        assert kept == 1_036_300 and 1500 * 1503 // 2 == 1_127_250
        want = tvar_contribution_table(m, [0.99])[1]
        monkeypatch.setattr(mpmrf, "MAX_K", kept + reserve)
        got = tvar_contribution_table(m, [0.99])[1]
        assert all(got[v].tobytes() == want[v].tobytes() for v in t.vertices)
        monkeypatch.setattr(mpmrf, "MAX_K", kept + reserve - 1)
        with pytest.raises(ValueError, match=r"a 1500-vertex tree's TVaR rows would pass"):
            tvar_contribution_table(m, [0.99])

    def test_past_max_k_raises_before_allocating(self, monkeypatch):
        # a 3000-path at alpha = .9 keeps 4.5 million entries (36 MB); the
        # counting pass stops it at 200,000 entries holding one law, as it stops a 10^5-path at MAX_K
        monkeypatch.setattr(mpmrf, "MAX_K", 200_000)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"a 3000-vertex tree's TVaR rows would pass MAX_K = 200,000"):
                tvar_contribution_table(_model(path_tree(3000), 0.05, 0.9), [0.99])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_table_counts_the_adjoints(self, monkeypatch):
        # 8 (d + 1) entries per level: g, the adjoints and the rows, two rows of g each
        m = _model(star_tree(30), 0.05, 0.5)
        monkeypatch.setattr(mpmrf, "MAX_K", 89 + self.reserve(m.tree, 2) - 1)
        with pytest.raises(ValueError, match=r"TVaR rows would pass MAX_K = 1,328 entries"):
            tvar_contribution_table(m, [0.5, 0.9])
        assert len(tvar_contribution_table(m, [0.9])[1]) == 30  # one level: 8 * 31 entries fewer
        monkeypatch.setattr(mpmrf, "MAX_K", 89 + self.reserve(m.tree, 2))
        assert len(tvar_contribution_table(m, [0.5, 0.9])[1]) == 30

    def test_shared_leaf_laws_count_once_each(self):
        # the 10^4-star at alpha = .99 keeps about 3 d entries; a count that
        # charged the centre's shared share once per leaf refused it
        m = _model(star_tree(10_000), 0.05, 0.99)
        agg, table = tvar_contribution_table(m, [0.99])
        total = math.fsum(float(r[0]) for r in table.values())
        assert abs(total - tvar(agg, 0.99, m.tree.d * m.lam)) < 1e-9 * total

    def test_spider_holds_one_share_per_level(self, monkeypatch):
        # a centre with 2000 legs of two vertices: its 2000 shares are distinct
        # and about 4000 entries each, 64 MB if held at once; depth first, the
        # pass holds one per level of the product tree, within the reserve
        legs = 2000
        t = Tree.of(2 * legs + 1, [(1, i) for i in range(2, legs + 2)]
                    + [(i, i + legs) for i in range(2, legs + 2)])
        m, reserve, kept = _model(t, 0.05, 0.99), self.reserve(t, 1), self.kept(t, 0.99)
        assert kept == (legs * 3 + legs * 2 + t.d + 1)
        monkeypatch.setattr(mpmrf, "MAX_K", kept + reserve - 1)
        with pytest.raises(ValueError, match=r"a 4001-vertex tree's TVaR rows would pass"):
            tvar_contribution_table(m, [0.99])
        monkeypatch.setattr(mpmrf, "MAX_K", kept + reserve)
        tracemalloc.start()
        try:
            agg, table = tvar_contribution_table(m, [0.99])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (kept + reserve) + 2 * 2**20  # the entries, and 4001 rows' array objects
        total = math.fsum(float(r[0]) for r in table.values())
        assert abs(total - tvar(agg, 0.99, m.tree.d * m.lam)) < 1e-9 * total


def _eta_at(tree, v, parent, alpha, x):
    """eta_v(x) = x * prod over children (1 - alpha + alpha * eta_c(x)), as a number."""
    out = x
    for c in tree.neighbors[v]:
        if c != parent:
            out *= 1.0 - alpha + alpha * _eta_at(tree, c, v, alpha, x)
    return out


class TestAggregateDist:
    def test_peak_memory_is_about_two_pmfs(self):
        # q up to the tail bound K* and the returned copy: about 2.2 pmfs,
        # where a scaled product and a clamped copy made 3.3. Poisson(10^6),
        # traced outside the suite (a minute under tracemalloc), peaks at
        # 17.1 MB for its 8.06 MB pmf, down from 25.2 MB
        m = MpmrfModel(Tree.of(1, []), 1e4, {})
        tracemalloc.start()
        try:
            agg = aggregate_dist(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * agg.pmf.nbytes

    def test_independence_gives_poisson(self):
        m = MpmrfModel.homogeneous(path_tree(3), 1.0, 0.0)
        agg = aggregate_dist(m)
        want = poisson_pmf(3.0, agg.k_max)
        assert np.max(np.abs(agg.pmf - want)) < 1e-12

    def test_single_vertex_gives_poisson(self):
        m = MpmrfModel(Tree.of(1, []), 1.7, {})
        agg = aggregate_dist(m)
        assert np.max(np.abs(agg.pmf - poisson_pmf(1.7, agg.k_max))) < 1e-12

    def test_mean_and_variance(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = random_model(rng, d_max=7)
            agg = aggregate_dist(m)
            d = m.tree.d
            assert abs(agg.mean() - d * m.lam) < 1e-8
            var = 0.0
            for v in m.tree.vertices:
                for j in m.tree.vertices:
                    prod = 1.0
                    for (a, b) in path(m.tree, v, j):
                        prod *= m.edge_alpha(a, b)
                    var += m.lam * prod
            assert abs(variance(agg.pmf) - var) < 1e-6

    def test_root_invariance(self):
        # the aggregate roots at the smallest label; swapping it with another
        # vertex's label roots the same model elsewhere
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = random_model(rng)
            r = int(rng.choice(m.tree.vertices[1:]))
            swap = {v: v for v in m.tree.vertices} | {1: r, r: 1}
            a = aggregate_dist(m)
            b = aggregate_dist(relabel_model(m, swap))
            n = max(len(a.pmf), len(b.pmf))
            diff = np.pad(a.pmf, (0, n - len(a.pmf))) - np.pad(b.pmf, (0, n - len(b.pmf)))
            assert np.max(np.abs(diff)) < 1e-10

    def test_panjer_matches_series_exponential(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            d = int(rng.integers(2, 7))
            t = random_tree(rng, d)
            alpha = float(rng.uniform(0.05, 0.95))
            lam = float(rng.uniform(0.5, 2.0))
            agg = aggregate_dist(MpmrfModel.homogeneous(t, lam, alpha))
            want = agg_pmf_series_exp(t, lam, alpha, agg.k_max)
            assert np.max(np.abs(agg.pmf - want)) < 1e-10

    def test_all_alpha_one_scales_a_poisson(self):
        m = MpmrfModel.homogeneous(path_tree(3), 1.0, 1.0)
        agg = aggregate_dist(m)
        assert agg.pmf[1] == 0.0 and agg.pmf[2] == 0.0
        assert abs(agg.pmf[3] - poisson_pmf(1.0, 1)[1]) < 1e-12

    def test_tolerance_domain(self):
        m = MpmrfModel.homogeneous(path_tree(2), 1.0, 0.5)
        for bad in (0.0, 1e-2, -1.0):
            with pytest.raises(ValueError):
                aggregate_dist(m, tol=bad)

    @pytest.mark.parametrize("d", [800, 5000])
    def test_high_rate_path_is_poisson(self, d):
        # exp(-d) underflows, which the scaled pass never forms as a float
        t0 = time.monotonic()
        agg = aggregate_dist(MpmrfModel.homogeneous(path_tree(d), 1.0, 0.0))
        assert time.monotonic() - t0 < 5.0
        assert agg.tail_mass < 1e-12
        want = scipy.stats.poisson.pmf(np.arange(agg.k_max + 1), d)
        assert np.max(np.abs(agg.pmf - want)) < 1e-12
        # the mass is right to rounding; a start constant formed from a
        # float exponent is off by about d * 2**-53 (3.5e-13 at d = 5000)
        assert abs(agg.pmf.sum() + scipy.stats.poisson.sf(agg.k_max, d) - 1.0) < 1e-13

    def test_high_rate_star_moments(self):
        d, lam, alpha = 2000, 1.0, 0.5  # rate 1000.5
        agg = aggregate_dist(MpmrfModel.homogeneous(star_tree(d), lam, alpha))
        assert agg.tail_mass < 1e-12
        mean, var = path_star_moments("star", d, lam, alpha)
        assert agg.mean() == pytest.approx(mean, rel=1e-9)
        assert variance(agg.pmf) == pytest.approx(var, rel=1e-9)

    def test_plateau_tail_returns(self):
        # the tail stays flat over about 2,700 steps between the leaves'
        # events and the centre's jump; the pass runs on to the first K
        # below tol, which the tail bound K* covers
        d, lam, alpha = 3000, 0.05, 0.9
        agg = aggregate_dist(MpmrfModel.homogeneous(star_tree(d), lam, alpha))
        assert agg.tail_mass < 1e-12
        mean, var = path_star_moments("star", d, lam, alpha)
        assert agg.mean() == pytest.approx(mean, rel=1e-9)
        assert variance(agg.pmf) == pytest.approx(var, rel=1e-9)

    def test_unreachable_tol_raises(self):
        # Poisson(4): each step is one scalar product, so the rounded sum is
        # the same everywhere and stops 3.3e-16 short of 1, above this tol
        m = MpmrfModel.homogeneous(path_tree(4), 1.0, 0.0)
        t0 = time.monotonic()
        with pytest.raises(ToleranceError, match=r"tail mass .* is not below tol .* by K = \d+, .* "
                                                 r"\(compound-Poisson rate 4\.0\)"):
            aggregate_dist(m, tol=1e-300)
        assert time.monotonic() - t0 < 5.0

    @pytest.mark.filterwarnings("error")  # the search meets inf at high rates, silently
    @pytest.mark.parametrize("tol", [1e-12, 1e-3, 1e-300])
    @pytest.mark.parametrize("d,lam", [(4, 1.0), (800, 1.0), (5000, 1.0), (3, 1e12)])
    def test_tail_bound_on_poisson(self, d, lam, tol):
        # at alpha = 0 every H_v is t, so Q = d t and M is Poisson(lambda * d)
        rate = lam * d
        k = mpmrf._tail_bound(lam, mpmrf._exponent(path_tree(d), 0.0), tol)
        assert scipy.stats.poisson.sf(k - 1, rate) <= tol / 2  # P(M >= K*)
        # not far out: half the way from the mean falls short
        assert scipy.stats.poisson.sf(math.ceil((rate + k) / 2) - 1, rate) > tol / 2

    def test_tail_bound_covers_the_textbook_tail(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            m = random_model(rng, d_max=40)
            q = mpmrf._exponent(m.tree, m.alpha)
            for tol in (1e-3, 1e-9, 1e-12):
                k = int(mpmrf._tail_bound(m.lam, q, tol))
                assert 1.0 - panjer_exp_start(m.lam, q, k - 1).sum() <= tol / 2

    def test_max_k_checked_on_the_whole_support(self, monkeypatch):
        # mean + 8 sd of this M is 39.4, and its K is 71: a check on a first
        # stretch of the pass to the mean + 8 sd would let it through
        m = MpmrfModel.homogeneous(star_tree(10), 0.5, 0.5)
        assert aggregate_dist(m).k_max == 71
        monkeypatch.setattr(mpmrf, "MAX_K", 60)
        with pytest.raises(ValueError, match=r"passes MAX_K = 60 \(compound-Poisson rate"):
            aggregate_dist(m)

    def test_rate_below_tol_keeps_only_k0(self):
        m = MpmrfModel.homogeneous(path_tree(2), 1e-14, 0.5)  # rate 1.5e-14
        agg = aggregate_dist(m)
        assert agg.k_max == 0
        assert agg.pmf[0] == pytest.approx(math.exp(-1.5e-14), rel=1e-15)
        assert agg.tail_mass == pytest.approx(1.5e-14, rel=1e-2)

    def test_start_constant_at_any_rate(self):
        # 2**(664 * 6519) is far above decimal's default Emax and exp(-3e6) far
        # below its Emin; the constant itself is about 1e160. No Panjer pass
        rate, shifts = 3e6, 6519
        c = mpmrf._panjer_start(rate, shifts)
        # the float exponent is good to about rate * 2**-53
        assert c == pytest.approx(math.exp(mpmrf._SHIFT * shifts * math.log(2.0) - rate), rel=1e-8)
        assert mpmrf._panjer_start(rate, shifts - 1) == pytest.approx(c * 2.0 ** -mpmrf._SHIFT, rel=1e-15)
        assert mpmrf._panjer_start(5.0, 0) == pytest.approx(math.exp(-5.0), rel=1e-15)

    def test_cut_at_the_first_k_below_tol(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            m = random_model(rng, d_max=20)
            agg = aggregate_dist(m, tol=1e-9)
            assert 0.0 <= agg.tail_mass < 1e-9
            assert 1.0 - agg.cdf()[-2] >= 1e-9

    def test_matches_unscaled_panjer(self):
        # below rate 700 the textbook recursion's start does not underflow;
        # the random 400-vertex tree and the 690-path reach rates where the
        # pass rescales q (the path first at k = 339, inside a block). The
        # 15-, 16- and 17-paths have severities one shorter than a block, as
        # long as one and one longer; the single vertex at lambda = 1e-3
        # stops inside its first block, and the 300-star at alpha = 1 has
        # the severity t^300, so every weight of a block's own entries is 0.
        # Past j_max = 240 a super-block's far past is one matrix product:
        # the 2000-star (j_max 1801) has subnormal weights at its band's
        # edges, the random 1000-tree K < j_max, and the 241- and 257-paths
        # one and 17 far columns, the 239- and 240-paths none
        rng = np.random.default_rng(11)
        models = [random_model(rng, d_max=40) for _ in range(10)]
        models += [MpmrfModel.homogeneous(random_tree(rng, 400), 2.0, 0.2),
                   MpmrfModel.homogeneous(path_tree(690), 1.0, 0.0)]
        models += [MpmrfModel.homogeneous(path_tree(d), 1.0, 0.5) for d in (15, 16, 17)]
        models += [MpmrfModel.homogeneous(Tree.of(1, []), 1e-3, 0.5),
                   MpmrfModel.homogeneous(star_tree(300), 1.0, 1.0)]
        models += [MpmrfModel.homogeneous(star_tree(2000), 0.05, 0.5),
                   MpmrfModel.homogeneous(random_tree(rng, 1000), 0.3, 0.5)]
        edges = [MpmrfModel.homogeneous(path_tree(d), 1.0, 0.5) for d in (239, 240, 241, 257)]
        w = np.arange(1802) * mpmrf._exponent(star_tree(2000), 0.5)
        assert np.any((w > 0.0) & (w < np.finfo(float).tiny))
        assert [len(mpmrf._exponent(m.tree, 0.5)) - 1 for m in edges] == [239, 240, 241, 257]
        for m in edges:
            ref = reference_panjer(m.lam, mpmrf._exponent(m.tree, m.alpha), mpmrf.DEFAULT_TOL)
            assert aggregate_dist(m).pmf.tobytes() == ref.pmf.tobytes()
        for m in models + edges:
            q = mpmrf._exponent(m.tree, m.alpha)
            assert m.lam * math.fsum(q) < 700
            agg = aggregate_dist(m)
            want = panjer_exp_start(m.lam, q, agg.k_max)
            assert np.max(np.abs(agg.pmf - want)) < 1e-12
            big = want > 1e-250
            assert np.all(np.abs(agg.pmf[big] - want[big]) <= 1e-13 * want[big])

    # on these models a severity Q / Q(1) rounds about 1.25e-14 short of mass
    # 1; a start blind to that would lose rate times it at every K, above tol
    @pytest.mark.parametrize("shape,d,lam,alpha", [
        ("path", 1000, 0.5, 0.5),
        ("star", 1000, 1.0, 0.5),
    ])
    def test_rounding_floor_models_return(self, shape, d, lam, alpha):
        tree = path_tree(d) if shape == "path" else star_tree(d)
        agg = aggregate_dist(MpmrfModel.homogeneous(tree, lam, alpha))
        assert agg.tail_mass < 1e-12
        mean, var = path_star_moments(shape, d, lam, alpha)
        assert agg.mean() == pytest.approx(mean, rel=1e-9)
        assert variance(agg.pmf) == pytest.approx(var, rel=1e-9)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_high_rate_random_trees_return(self, seed):
        # rate 15,000.5, where a start off Q's exact mass by rate * 1e-16
        # would leave the pmf short of the default tol: ToleranceError at K*
        d, rng = 30000, random.Random(seed)
        tree = Tree.of(d, [(rng.randint(1, i - 1), i) for i in range(2, d + 1)])
        m = MpmrfModel.homogeneous(tree, 1.0, 0.5)
        agg = aggregate_dist(m)
        assert agg.tail_mass < 1e-12
        assert agg.mean() == pytest.approx(d * m.lam, rel=1e-9)
        assert variance(agg.pmf) == pytest.approx(math.fsum(cov_with_sum(m).values()), rel=1e-9)

    def test_tail_mass_below_tolerance(self):
        m = MpmrfModel.homogeneous(path_tree(4), 2.0, 0.6)
        assert aggregate_dist(m, tol=1e-9).tail_mass < 1e-9


class TestSample:
    def test_full_dependence_copies_the_root(self, star10):
        m = MpmrfModel.homogeneous(star10, 1.0, 1.0)
        draws = sample(m, rng_seed=42, n=500)
        assert (draws == draws[:, [0]]).all()

    def test_deterministic_given_seed(self, hub6):
        m = MpmrfModel.homogeneous(hub6, 1.0, 0.5)
        a = sample(m, rng_seed=7, n=200)
        b = sample(m, rng_seed=7, n=200)
        assert (a == b).all()

    def test_independent_case_mean_bands(self):
        m = MpmrfModel.homogeneous(path_tree(4), 1.0, 0.0)
        n = 100_000
        draws = sample(m, rng_seed=3, n=n)
        band = 3.0 * np.sqrt(m.lam / n)
        assert np.all(np.abs(draws.mean(axis=0) - m.lam) < band)

    def test_marginals_pass_chi_square(self, hub6):
        m = MpmrfModel.homogeneous(hub6, 1.0, 0.5)
        n = 100_000
        draws = sample(m, rng_seed=12345, n=n)
        k_cut = 8  # pool the tail so every expected count is comfortably large
        expected = poisson_pmf(m.lam, k_cut - 1)
        expected = np.append(expected, 1.0 - expected.sum()) * n
        for i in range(m.tree.d):
            counts = np.bincount(np.minimum(draws[:, i], k_cut), minlength=k_cut + 1)
            stat = float(((counts - expected) ** 2 / expected).sum())
            assert stat < scipy.stats.chi2.ppf(0.99, k_cut)

    def test_bad_n(self, hub6):
        m = MpmrfModel.homogeneous(hub6, 1.0, 0.5)
        with pytest.raises(ValueError):
            sample(m, rng_seed=1, n=0)

    def test_thinning_past_max_k_raises_before_drawing(self):
        # 10^11 uniforms: without the check numpy fails to allocate them at
        # once instead of filling gigabytes
        rng = np.random.Generator(np.random.PCG64(5))
        counts = np.full(1000, mpmrf.MAX_K)
        with pytest.raises(ValueError, match="MAX_K"):
            mpmrf._binomial_thinning(rng, np.cumsum(counts), 0.5, np.zeros(1000, dtype=np.int64))
        assert rng.random() == np.random.Generator(np.random.PCG64(5)).random()


E8 = [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (5, 7), (5, 8)]
PER_EDGE8 = dict(zip(E8, (0.1, 0.9, 0.5, 1.0, 0.0, 0.3, 0.75)))


def _model(tree, lam, alpha):
    """alpha: one value for every edge, or a dict per edge."""
    return (MpmrfModel(tree, lam, alpha) if isinstance(alpha, dict)
            else MpmrfModel.homogeneous(tree, lam, alpha))


class TestBlockedSampler:
    """The blocked sampler against the whole-array oracle: the same stream, bit for bit."""

    @pytest.mark.parametrize("tree, lam, alpha, n", [
        (Tree.of(4, [(1, 2), (2, 3), (3, 4)]), 1.0, 0.5, 65535),
        (Tree.of(4, [(1, 2), (2, 3), (3, 4)]), 1.0, 0.5, 65536),
        (Tree.of(4, [(1, 2), (2, 3), (3, 4)]), 1.0, 0.5, 65537),
        (Tree.of(6, [(1, i) for i in range(2, 7)]), 2.0, 0.0, 70_000),
        (Tree.of(6, [(1, i) for i in range(2, 7)]), 2.0, 1.0, 70_000),  # innovations of rate 0
        (Tree.of(8, E8), 0.7, PER_EDGE8, 65537),
        (Tree.of(1, []), 3.0, 0.5, 65537),
        (Tree.of(3, [(1, 2), (2, 3)]), 0.05, 0.9, 1),
        # about 200,000 carried events per edge: blocks of many whole draws
        (Tree.of(3, [(1, 2), (1, 3)]), 40.0, 0.6, 5000),
        # draws carrying more than a block each, alone and next to small ones
        (Tree.of(2, [(1, 2)]), 1e5, 0.5, 3),
        (Tree.of(3, [(1, 2), (2, 3)]), 2e4, 0.4, 7),
    ])
    def test_equals_the_whole_array_sampler(self, tree, lam, alpha, n):
        m = _model(tree, lam, alpha)
        draws = sample(m, 20240901, n)
        expected = reference_sample(m, 1, 20240901, n)
        assert draws.dtype == expected.dtype and draws.shape == expected.shape
        assert np.array_equal(draws, expected)
        assert draws.flags.f_contiguous

    @pytest.mark.parametrize("tree, lam, alpha, seed, n, digest", [
        (Tree.of(6, [(1, 2), (2, 3), (3, 4), (3, 5), (3, 6)]), 1.0, 0.5, 7, 200,
         "40560ea7a19356306137ed3ca8655e785baa377674284657ef2ff5cd039abbbd"),
        (Tree.of(4, [(1, 2), (2, 3), (3, 4)]), 2.0, 0.3, 11, 65537,
         "c0cc5f3f3d557709163f6dafa5ba10b5bbb1ccfbebdbdf666688384280cd4d00"),
        (Tree.of(8, E8), 0.7, PER_EDGE8, 2024, 100_000,
         "c0a85b4fd637ec4837a9a7a69f15a103cb34ce27aa5cb638ac7eb930e3245d16"),
    ])
    def test_stream_is_pinned(self, tree, lam, alpha, seed, n, digest):
        # digests of the draws in row-major bytes, taken from the whole-array sampler
        m = _model(tree, lam, alpha)
        assert hashlib.sha256(sample(m, seed, n).tobytes()).hexdigest() == digest

    # at mu = ln 2 the first cdf entry, exp(-mu), is the bin edge 1/2 exactly
    @pytest.mark.parametrize("mu", [0.05, math.log(2), 3.0, 50.0, 1e4])
    def test_guide_table_matches_searchsorted_at_bin_and_cdf_edges(self, mu):
        ks = np.arange(int(mu + 12.0 * math.sqrt(mu) + 30.0) + 1)
        log_fact = np.array([math.lgamma(k + 1) for k in ks])
        cdf = np.cumsum(np.exp(-mu + ks * math.log(mu) - log_fact))
        assert mu != math.log(2) or cdf[0] == 0.5
        grid = np.arange(4096) / 4096
        points = np.concatenate([grid, cdf[cdf < 1.0]])
        u = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0),
                            [0.0, 1.0 - 2.0**-53]])
        u = np.clip(u, 0.0, 1.0 - 2.0**-53)

        class Stub:  # hands out u in order, as rng.random does its stream
            at = 0

            def random(self, size):
                self.at += size
                return u[self.at - size: self.at].copy()

        stub = Stub()
        draws = np.empty(len(u), dtype=np.int64)
        mpmrf._poisson_inverse(stub, mu, draws)
        assert stub.at == len(u)
        assert np.array_equal(draws, np.searchsorted(cdf, u, side="right"))

    @pytest.mark.parametrize("counts", [
        [0, 100_000, 0, 3, 70_000, 0, 0],  # an empty draw before each long one
        [0, 0, 0, 0, 0],
        [5, 0, 65536, 65535, 1, 0, 131072],
    ])
    def test_thinning_cut_at_empty_and_long_draws(self, counts):
        counts = np.array(counts, dtype=np.int64)
        rng, ref = (np.random.Generator(np.random.PCG64(9)) for _ in range(2))
        got = np.zeros(len(counts), dtype=np.int64)
        mpmrf._binomial_thinning(rng, np.cumsum(counts), 0.3, got)
        assert np.array_equal(got, reference_thinning(ref, counts, 0.3))
        assert rng.random() == ref.random()  # both stop at the same point of the stream

    # digests of the cdf's bytes, taken when lgamma was formed at every entry:
    # the entries below exp's underflow stay 0.0 exactly
    @pytest.mark.parametrize("mu, digest", [
        (1e-3, "05ea2082fb616fd1e23e902fea918bb5c05fffddf4b5d2514ded896c6f30d41a"),
        (0.05, "f09ecc7102095ea55a37f513743955408e356f385bea16dad0986ecb9511154b"),
        (1.0, "8896dca294b9bf7392cb00ad5dc698f1e3edece0096a2a5ea4b32d16eaa1e11a"),
        (7.3, "50c6fe2bb7f49aca58ae903a24bea771effe825ecffe9af8e97fde7d1bd09000"),
        (300.0, "be72ea12e7dabef882048c5aa58b7b9ec748498eb0134d79d44eebad4cb87f73"),
        (5e3, "e6913c5ed443db34c3fca4ffb6798643d7dbc6f3d3ab31fe8778b338ae1f05a4"),
        (1e5, "d80a0f47eff8e57d6e8efd7815d56550e17290881b36d62c3b05d8240fb69280"),
        (4e6, "a5abd07e6d2f32e997daad7376e1f6894f110e31e86dc3bfeaf44fa1b3b7cb13"),
    ])
    def test_poisson_cdf_is_pinned(self, mu, digest):
        cdf = mpmrf._poisson_cdf(mu)
        assert len(cdf) == int(mu + 12.0 * math.sqrt(mu) + 30.0) + 1
        assert hashlib.sha256(cdf.tobytes()).hexdigest() == digest

    def test_poisson_cdf_at_rate_zero_is_the_point_mass(self):
        # one table path at every mu: each uniform falls in guide bin 0, a draw of 0
        assert mpmrf._poisson_cdf(0.0).tolist() == [1.0]

    def test_past_max_k_draws_raise_before_allocating(self):
        m = MpmrfModel.homogeneous(Tree.of(2, [(1, 2)]), 1.0, 0.5)
        with pytest.raises(ValueError, match="MAX_K"):
            sample(m, rng_seed=1, n=10**12)


class TestCovWithSum:
    def test_star_center_and_leaf(self, star10):
        cov = cov_with_sum(MpmrfModel.homogeneous(star10, 1.0, 0.5))
        assert abs(cov[1] - 5.5) < 1e-12
        for leaf in range(2, 11):
            assert abs(cov[leaf] - 3.5) < 1e-12

    def test_independence_leaves_only_self_term(self):
        m = MpmrfModel.homogeneous(path_tree(5), 1.3, 0.0)
        assert abs(cov_with_sum(m)[3] - 1.3) < 1e-15

    def test_two_vertices(self):
        m = MpmrfModel.homogeneous(path_tree(2), 2.0, 0.7)
        assert abs(cov_with_sum(m)[1] - 2.0 * 1.7) < 1e-12

    def test_equals_product_over_each_path(self):
        # the reference sums every vertex in the pass's order: exact; the
        # products over each path, summed in label order, agree to rounding
        rng = np.random.default_rng(12)
        for _ in range(10):
            m = random_model(rng, d_max=20)
            cov = cov_with_sum(m)
            want = path_sums_by_hand(m.tree, m.edge_alpha)
            assert sorted(cov) == list(m.tree.vertices)
            for v in m.tree.vertices:
                assert cov[v] == m.lam * want[v]
                acc = 0.0
                for j in m.tree.vertices:
                    prod = 1.0
                    for (a, b) in path(m.tree, v, j):
                        prod *= m.edge_alpha(a, b)
                    acc += prod
                assert abs(cov[v] - m.lam * acc) <= 1e-12 * cov[v]

    def test_is_lambda_times_the_mean_of_h(self):
        # Cov(N_v, M) = lambda * E[H_v], with H_v expanded independently
        rng = np.random.default_rng(14)
        for _ in range(10):
            t = random_tree(rng, int(rng.integers(1, 21)))
            alpha, lam = float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.5, 2.0))
            cov = cov_with_sum(MpmrfModel.homogeneous(t, lam, alpha))
            for v in t.vertices:
                h = eta_by_hand(t, v, alpha)
                mean = lam * float(np.arange(len(h)) @ h)
                assert abs(cov[v] - mean) <= 1e-12 * mean

    def test_roots_the_tree_once(self, root_calls):
        cov = cov_with_sum(MpmrfModel.homogeneous(random_tree(np.random.default_rng(15), 200), 0.2, 0.5))
        assert len(cov) == 200 and len(root_calls) == 1

    def test_a_given_rooting_is_not_made_again(self, root_calls):
        # the tree keeps its rooting: the aggregate, the TVaR table and the
        # covariances of one model share it; another rooting gives the same values
        t = random_tree(np.random.default_rng(16), 200)
        m = MpmrfModel.homogeneous(t, 0.2, 0.5)
        aggregate_dist(m)
        root_calls.clear()
        tvar_contribution_table(m, [0.9])
        want = cov_with_sum(m)
        assert root_calls == [] and t.rooted is t.rooted
        other = mpmrf._path_sums(root_at(t, 117), m.alpha)
        assert all(abs(m.lam * other[v] - want[v]) <= 1e-13 * want[v] for v in t.vertices)

    def test_long_path_closed_form(self):
        # sum_j 0.5^|v-j| on a path: 2 - 0.5^(d-1) at an end, about 3 inside
        d = 2000
        cov = cov_with_sum(MpmrfModel.homogeneous(path_tree(d), 1.0, 0.5))
        assert abs(cov[1] - 2.0) < 1e-12
        assert abs(cov[d] - 2.0) < 1e-12
        assert abs(cov[d // 2] - 3.0) < 1e-12


class TestExpectedAllocation:
    def test_totals_to_lambda(self, hub6):
        m = MpmrfModel.homogeneous(hub6, 1.2, 0.6)
        for v in hub6.vertices:
            table = expected_allocation(m, v)
            assert not table.flags.writeable
            assert abs(table.sum() - m.lam) < 1e-6

    def test_conditional_means_sum_to_k(self, hub6):
        m = MpmrfModel.homogeneous(hub6, 1.0, 0.5)
        agg = aggregate_dist(m)
        tables = [expected_allocation(m, v) for v in hub6.vertices]
        for k in range(agg.k_max + 1):
            if agg.pmf[k] <= 0.0:
                continue
            total = sum(t[k] for t in tables)
            assert abs(total / agg.pmf[k] - k) < 1e-8

    def test_allocation_recovers_covariance(self, star10):
        m = MpmrfModel.homogeneous(star10, 1.0, 0.5)
        agg = aggregate_dist(m)
        table = expected_allocation(m, 1)
        ks = np.arange(len(table))
        cov = float(ks @ table) - m.lam * agg.mean()
        assert abs(cov - 5.5) < 1e-6


class TestTvarContribution:
    def test_contributions_sum_to_tvar(self, hub6):
        m = MpmrfModel.homogeneous(hub6, 1.0, 0.5)
        kappas = [0.1, 0.5, 0.9, 0.99]
        agg, table = tvar_contribution_table(m, kappas)
        for i, kappa in enumerate(kappas):
            total = sum(table[v][i] for v in hub6.vertices)
            assert abs(total - tvar(agg, kappa)) < 1e-6

    def test_kappa_zero_gives_means(self, hub6):
        m = MpmrfModel.homogeneous(hub6, 1.0, 0.5)
        _, table = tvar_contribution_table(m, [0.0])
        assert abs(sum(c[0] for c in table.values()) - 6.0) < 1e-8

    def test_kappa_domain(self, hub6, monkeypatch):
        # the quantiles are formed first: a bad level raises before the reverse pass
        m = MpmrfModel.homogeneous(hub6, 1.0, 0.5)

        def no_h_pass(*args):
            raise AssertionError("the rows were computed before the levels were checked")

        monkeypatch.setattr(mpmrf, "_h_rows", no_h_pass)
        for kappas in ([1.0], [0.5, -0.1], [math.nan]):
            with pytest.raises(ValueError, match=r"kappa must be in \[0, 1\)"):
                tvar_contribution_table(m, kappas)

    def test_direct_sums_match_full_convolution(self):
        # the table reads two entries of each allocation table; build the
        # whole table and its running sum here and read them the same way
        rng = np.random.default_rng(32)
        kappas = [0.0, 0.3, 0.9, 0.99]
        for _ in range(6):
            m = random_model(rng, d_max=30)
            agg, table = tvar_contribution_table(m, kappas)
            for v in m.tree.vertices:
                alloc = m.lam * np.convolve(h_poly(m.tree, v, m.alpha), agg.pmf)
                for i, kappa in enumerate(kappas):
                    q = agg.quantile(kappa)
                    pq = agg.pmf[q]
                    atom = (agg.cdf()[q] - kappa) / pq * alloc[q] if pq > 0 else 0.0
                    want = (m.lam - np.cumsum(alloc)[q] + atom) / (1.0 - kappa)
                    assert abs(table[v][i] - want) < 1e-12

    def test_table_roots_the_tree_at_most_twice(self, root_calls):
        # one rooting serves the aggregate and every H law; not one per vertex
        m = MpmrfModel.homogeneous(random_tree(np.random.default_rng(31), 100), 0.2, 0.5)
        _, table = tvar_contribution_table(m, [0.9, 0.99])
        assert len(table) == 100 and len(root_calls) == 1


class TestHRows:
    """_h_rows, the reverse pass: g @ H_v at every vertex from the eta laws
    _exponent keeps, against h_poly rooted at each vertex."""

    @staticmethod
    def rows(t, alpha, g):
        laws = {}
        mpmrf._exponent(t, alpha, laws)
        return mpmrf._h_rows(t.rooted, alpha, laws, g)

    @staticmethod
    def check(t, alpha, g, vertices, rtol):
        rows = TestHRows.rows(t, alpha, g)
        assert sorted(rows) == list(t.vertices)
        for v in vertices:
            h = h_poly(t, v, alpha)
            want = g[:, : len(h)] @ h
            assert np.all(np.abs(rows[v] - want) <= rtol * want)

    def test_matches_h_poly_at_every_vertex(self):
        # alpha = 0, 1 and 1e-200 (thinned laws of one entry) on every edge or mixed
        rng = np.random.default_rng(28)
        trees = [Tree.of(1, [])] + [f(d) for d in (2, 3, 17, 60) for f in (path_tree, star_tree, broom_tree)]
        trees += [random_tree(rng, int(rng.integers(2, 61))) for _ in range(12)]
        for t in trees:
            g = rng.uniform(size=(3, t.d + 1))
            mixed = {e: float(rng.choice([0.0, 1.0, 1e-200, rng.uniform()])) for e in t.edges}
            for alpha in (0.0, 1e-200, 0.3, 0.9, 1.0, mixed):
                self.check(t, alpha, g, t.vertices, 1e-13)

    def test_laws_cut_where_products_underflow(self):
        # at alpha = .5 these laws lose their tails to underflow, so a child's
        # windows reach past its parent's adjoint, which reads 0 there
        rng = np.random.default_rng(29)
        for t in (star_tree(2000), path_tree(1500), random_tree(rng, 2000)):
            g = rng.uniform(size=(2, t.d + 1))
            self.check(t, 0.5, g, [1, 2, t.d // 2, t.d], 1e-12)

    def test_star_leaves_share_their_rows(self):
        # the leaves' shares repeat, and so do their adjoints and rows: a few
        # arrays, from the odd factors _pairs carries up, not 2999
        t = star_tree(3000)
        rows = self.rows(t, 0.5, np.ones((2, t.d + 1)))
        assert len({id(rows[v]) for v in t.vertices}) <= 1 + math.ceil(math.log2(t.d))


class TestTvarOracle:
    """Every table entry against the 60-digit decimal truth (helpers'
    decimal_tvar_rows): within C eps / (1 - kappa) relative, as are the rows
    formed from reference_h_all's laws by the plain formula. On these models
    the worst ratios are 3.24 for the plain rows and 3.36 for the table; C
    is twice the former, rounded down."""

    C = 6.0
    KAPPAS = (0.0, 0.5, 0.9, 0.99)

    @staticmethod
    def models(rng):
        for t in (path_tree(60), star_tree(60), broom_tree(60), random_tree(rng, 60)):
            for lam in (0.2, 1.0, 3.0):
                yield _model(t, lam, 0.5)
                yield MpmrfModel(t, lam, {e: float(rng.uniform(0.05, 0.95)) for e in t.edges})

    def test_rows_within_c_eps_of_the_decimal_truth(self):
        rng = np.random.default_rng(50)
        eps = np.finfo(float).eps
        for m in self.models(rng):
            qs, truth = decimal_tvar_rows(m, self.KAPPAS)
            agg, table = tvar_contribution_table(m, self.KAPPAS)
            assert qs == [agg.quantile(k) for k in self.KAPPAS]
            h, cdf = reference_h_all(m.tree, m.alpha), agg.cdf()
            for v in m.tree.vertices:
                plain = [reference_contribution(agg.pmf, cdf, q, h[v], m.lam, k)
                         for q, k in zip(qs, self.KAPPAS)]
                for i, k in enumerate(self.KAPPAS):
                    want = float(truth[v][i])
                    bound = self.C * eps / (1.0 - k) * want
                    assert abs(table[v][i] - want) <= bound and abs(plain[i] - want) <= bound


class TestCloseness:
    def test_star_center(self, star10):
        m = MpmrfModel.homogeneous(star10, 1.0, 0.5)
        c = closeness_indices(m)
        assert c[1].freeman == 9
        assert abs(c[1].exp_transform - 5.5) < 1e-12

    def test_star_leaf(self, star10):
        m = MpmrfModel.homogeneous(star10, 1.0, 0.5)
        c = closeness_indices(m)
        assert c[2].freeman == 17
        assert abs(c[2].exp_transform - 3.5) < 1e-12

    def test_single_vertex(self):
        m = MpmrfModel(Tree.of(1, []), 1.0, {})
        c = closeness_indices(m)
        assert c[1].freeman == 0 and c[1].exp_transform == 1.0

    def test_scaled_exp_transform_is_covariance(self, hub6):
        m = MpmrfModel.homogeneous(hub6, 1.4, 0.3)
        c, cov = closeness_indices(m), cov_with_sum(m)
        for v in hub6.vertices:
            assert abs(m.lam * c[v].exp_transform - cov[v]) < 1e-12

    def test_equals_sums_over_path_lengths(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            t = random_tree(rng, int(rng.integers(2, 21)))
            alpha = float(rng.uniform(0.05, 0.95))
            c = closeness_indices(MpmrfModel.homogeneous(t, 1.0, alpha))
            want = path_sums_by_hand(t, lambda a, b: alpha)
            for v in t.vertices:
                lengths = [len(path(t, v, j)) for j in t.vertices]
                assert c[v].freeman == sum(lengths)
                assert c[v].exp_transform == want[v]
                assert abs(c[v].exp_transform - sum(alpha ** l for l in lengths)) <= 1e-12 * want[v]

    def test_roots_the_tree_once(self, root_calls):
        c = closeness_indices(MpmrfModel.homogeneous(path_tree(10_000), 1.0, 0.5))
        assert len(c) == 10_000 and len(root_calls) == 1

    def test_long_path_freeman_sums(self):
        d = 2000
        c = closeness_indices(MpmrfModel.homogeneous(path_tree(d), 1.0, 0.5))
        for v in range(1, d + 1):
            assert c[v].freeman == (v - 1) * v // 2 + (d - v) * (d - v + 1) // 2
            assert abs(c[v].exp_transform - (3.0 - 0.5 ** (v - 1) - 0.5 ** (d - v))) < 1e-12

    def test_heterogeneous_alpha_rejected(self):
        m = MpmrfModel(path_tree(3), 1.0, {(1, 2): 0.2, (2, 3): 0.7})
        with pytest.raises(ValueError):
            closeness_indices(m)


class TestHomogeneousAlpha:
    """A model records once whether one alpha covers every edge; the passes then
    take that float, and give the bytes that the edge map gives."""

    @staticmethod
    def outputs(m: MpmrfModel) -> tuple:
        agg, table = tvar_contribution_table(m, [0.0, 0.5, 0.99])
        return (aggregate_dist(m).pmf.tobytes(), agg.pmf.tobytes(),
                tuple(table[v].tobytes() for v in m.tree.vertices),
                tuple(x.hex() for x in cov_with_sum(m).values()),
                hashlib.sha256(sample(m, 5, 2000).tobytes()).hexdigest())

    @pytest.mark.parametrize("shape", ["random", "star", "path", "broom"])
    def test_a_per_edge_dict_of_one_value(self, shape):
        tree = {"random": lambda: random_tree(np.random.default_rng(51), 300), "star": lambda: star_tree(400),
                "path": lambda: path_tree(120), "broom": lambda: broom_tree(90)}[shape]()
        lam, alpha = 0.4, 0.45
        want = self.outputs(MpmrfModel.homogeneous(tree, lam, alpha))
        keys = list(tree.edges)
        random.Random(52).shuffle(keys)
        shuffled = {e: alpha for e in keys}
        half_reversed = {(b, a) if k % 2 else (a, b): alpha for k, (a, b) in enumerate(keys)}
        for given in (shuffled, half_reversed):
            m = MpmrfModel(tree, lam, given)
            assert m.is_homogeneous() and m._alpha == alpha and type(m._alpha) is float
            assert m.to_json()["alpha"] == alpha
            assert self.outputs(m) == want
            object.__setattr__(m, "_alpha", m.alpha)  # the passes' edge-map branches
            assert self.outputs(m) == want

    def test_one_ulp_apart_is_not_homogeneous(self):
        tree = random_tree(np.random.default_rng(53), 60)
        alpha = dict.fromkeys(tree.edges, 0.45)
        alpha[tree.edges[17]] = math.nextafter(0.45, 1.0)
        m = MpmrfModel(tree, 0.4, alpha)
        assert not m.is_homogeneous() and m._alpha is m.alpha
        assert m.to_json()["alpha"] == {f"{a}-{b}": x for (a, b), x in sorted(alpha.items())}
        with pytest.raises(ValueError, match="needs homogeneous alpha"):
            closeness_indices(m)
        assert mpmrf._exponent(tree, m._alpha).tobytes() == reference_exponent(tree, alpha).tobytes()

    def test_no_edge(self):
        m = MpmrfModel(Tree.of(1, []), 1.0, {})
        assert m.is_homogeneous() and m._alpha == 0.0 and m.to_json()["alpha"] == {}


class TestMonteCarloAgainstAnalytic:
    def test_total_distribution_close_in_tv(self, hub6):
        m = MpmrfModel.homogeneous(hub6, 1.0, 0.5)
        n = 200_000
        draws = sample(m, rng_seed=2024, n=n)
        total = draws.sum(axis=1)
        emp = np.bincount(total) / n
        agg = aggregate_dist(m)
        assert tv_distance(emp, agg.pmf) < 8e-3

    def test_star_cov_matches(self, star10):
        m = MpmrfModel.homogeneous(star10, 1.0, 0.5)
        draws = sample(m, rng_seed=99, n=200_000)
        total = draws.sum(axis=1)
        cov = float(np.cov(draws[:, 0], total)[0, 1])
        assert abs(cov - 5.5) < 0.15


class TestDiscreteDist:
    def test_sum_validation(self):
        with pytest.raises(ValueError):
            DiscreteDist(np.array([0.5, 0.4]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDist(np.array([1.1, -0.1]))

    @pytest.mark.parametrize("pmf,tail", [([math.nan, 1.0], 0.0), ([1.0], math.nan)])
    def test_nan_mass_rejected(self, pmf, tail):
        # NaN compares False with everything, so a bound written as a > test passes it
        with pytest.raises(ValueError, match="sums to nan"):
            DiscreteDist(np.array(pmf), tail)

    def test_tiny_negative_clamped(self):
        d = DiscreteDist(np.array([1.0, -1e-16]))
        assert d.pmf[0] == 1.0 and d.pmf[1] == 0.0

    def test_one_clamped_copy(self):
        # the bytes np.where(p < 0, 0, p) gives, -0.0 kept; the input is not written
        p = np.array([-0.0, 0.5, -1e-16, 0.5])
        d = DiscreteDist(p)
        assert d.pmf.tobytes() == np.where(p < 0.0, 0.0, p).tobytes()
        assert p[2] == -1e-16 and not d.pmf.flags.writeable

    def test_large_negative_rejected(self):
        with pytest.raises(ValueError):
            DiscreteDist(np.array([1.0, -1e-10]))

    def test_mean_counts_only_the_retained_pmf(self):
        # Poisson(50) cut at K = 73: the mean is short of 50 by sum_{k>73} k p_k,
        # which is 50 P(N >= 73); tvar's explicit mean counts the cut tail
        agg = aggregate_dist(MpmrfModel.homogeneous(path_tree(50), 1.0, 0.0), 1e-3)
        assert agg.k_max == 73 and agg.tail_mass == pytest.approx(8.864e-4, rel=1e-3)
        assert abs(agg.mean() - 50.0 * scipy.stats.poisson.cdf(72, 50)) < 1e-12
        assert round(agg.mean(), 4) == 49.9328
        assert tvar(agg, 0.0) == agg.mean()
        assert tvar(agg, 0.0, mean=50.0) == 50.0

    def test_quantile_inf_definition(self):
        d = DiscreteDist(np.array([0.25, 0.25, 0.5]))
        assert d.quantile(0.0) == 0
        assert d.quantile(0.25) == 0
        assert d.quantile(0.2500001) == 1
        assert d.quantile(0.99) == 2
