import hashlib
import math
import time

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
from treemrf.tree_core import Tree

from helpers import (
    agg_pmf_series_exp,
    eta_by_hand,
    panjer_exp_start,
    path,
    path_star_moments,
    path_sums_by_hand,
    poisson_pmf,
    random_tree,
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


class TestHAll:
    """Every vertex's H pgf from one rerooting pass, against h_poly per vertex."""

    @staticmethod
    def trees(rng):
        yield Tree.of(1, [])
        for d in (2, 3, 17, 60):
            yield path_tree(d)
            yield star_tree(d)
        for _ in range(12):
            yield random_tree(rng, int(rng.integers(2, 61)))

    @staticmethod
    def alphas(rng, t):
        per_edge = {e: float(rng.choice([0.0, 1.0, 1e-200])) for e in t.edges}
        return (0.0, 1e-200, 0.3, 0.9, 1.0, per_edge)

    def test_matches_h_poly_at_every_vertex(self):
        rng = np.random.default_rng(28)
        for t in self.trees(rng):
            for alpha in self.alphas(rng, t):
                h = mpmrf._h_all(t, alpha)
                assert sorted(h) == list(t.vertices)
                for v in t.vertices:
                    want = h_poly(t, v, alpha)
                    n = max(len(want), len(h[v]))
                    diff = np.pad(h[v], (0, n - len(h[v]))) - np.pad(want, (0, n - len(want)))
                    assert np.max(np.abs(diff)) < 1e-12

    def test_mass_one_and_no_trailing_zero(self):
        rng = np.random.default_rng(29)
        for t in self.trees(rng):
            for alpha in self.alphas(rng, t):
                for p in mpmrf._h_all(t, alpha).values():
                    assert abs(p.sum() - 1.0) < 1e-12 and p[-1] != 0.0


def _eta_at(tree, v, parent, alpha, x):
    """eta_v(x) = x * prod over children (1 - alpha + alpha * eta_c(x)), as a number."""
    out = x
    for c in tree.neighbors[v]:
        if c != parent:
            out *= 1.0 - alpha + alpha * _eta_at(tree, c, v, alpha, x)
    return out


class TestAggregateDist:
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
        # at alpha = 0 every H_v is t, so M is Poisson(lambda * d)
        rate, sev = mpmrf._severity_mixture(MpmrfModel.homogeneous(path_tree(d), lam, 0.0))
        k = mpmrf._tail_bound(rate, sev, tol)
        assert scipy.stats.poisson.sf(k - 1, rate) <= tol / 2  # P(M >= K*)
        # not far out: half the way from the mean falls short
        assert scipy.stats.poisson.sf(math.ceil((rate + k) / 2) - 1, rate) > tol / 2

    def test_tail_bound_covers_the_textbook_tail(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            rate, sev = mpmrf._severity_mixture(random_model(rng, d_max=40))
            for tol in (1e-3, 1e-9, 1e-12):
                k = int(mpmrf._tail_bound(rate, sev, tol))
                assert 1.0 - panjer_exp_start(rate, sev, k - 1).sum() <= tol / 2

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
        # the severity t^300, so every weight of a block's own entries is 0
        rng = np.random.default_rng(11)
        models = [random_model(rng, d_max=40) for _ in range(10)]
        models += [MpmrfModel.homogeneous(random_tree(rng, 400), 2.0, 0.2),
                   MpmrfModel.homogeneous(path_tree(690), 1.0, 0.0)]
        models += [MpmrfModel.homogeneous(path_tree(d), 1.0, 0.5) for d in (15, 16, 17)]
        models += [MpmrfModel.homogeneous(Tree.of(1, []), 1e-3, 0.5),
                   MpmrfModel.homogeneous(star_tree(300), 1.0, 1.0)]
        for m in models:
            rate, sev = mpmrf._severity_mixture(m)
            assert rate < 700
            agg = aggregate_dist(m)
            want = panjer_exp_start(rate, sev, agg.k_max)
            assert np.max(np.abs(agg.pmf - want)) < 1e-12
            big = want > 1e-250
            assert np.all(np.abs(agg.pmf[big] - want[big]) <= 1e-13 * want[big])

    # rounding leaves these severity mixtures about 1.25e-14 short of mass 1;
    # unnormalised, Panjer loses rate times that at every K, above tol
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

    def test_tail_mass_below_tolerance(self):
        m = MpmrfModel.homogeneous(path_tree(4), 2.0, 0.6)
        assert aggregate_dist(m, tol=1e-9).tail_mass < 1e-9


class TestSample:
    def test_full_dependence_copies_the_root(self, star10):
        m = MpmrfModel.homogeneous(star10, 1.0, 1.0)
        draws = sample(m, 1, rng_seed=42, n=500)
        assert (draws == draws[:, [0]]).all()

    def test_deterministic_given_seed(self, hub6):
        m = MpmrfModel.homogeneous(hub6, 1.0, 0.5)
        a = sample(m, 1, rng_seed=7, n=200)
        b = sample(m, 1, rng_seed=7, n=200)
        assert (a == b).all()

    def test_independent_case_mean_bands(self):
        m = MpmrfModel.homogeneous(path_tree(4), 1.0, 0.0)
        n = 100_000
        draws = sample(m, 1, rng_seed=3, n=n)
        band = 3.0 * np.sqrt(m.lam / n)
        assert np.all(np.abs(draws.mean(axis=0) - m.lam) < band)

    def test_marginals_pass_chi_square(self, hub6):
        m = MpmrfModel.homogeneous(hub6, 1.0, 0.5)
        n = 100_000
        draws = sample(m, 1, rng_seed=12345, n=n)
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
            sample(m, 1, rng_seed=1, n=0)

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
        draws = sample(m, 1, 20240901, n)
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
        assert hashlib.sha256(sample(m, 1, seed, n).tobytes()).hexdigest() == digest

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

    def test_past_max_k_draws_raise_before_allocating(self):
        m = MpmrfModel.homogeneous(Tree.of(2, [(1, 2)]), 1.0, 0.5)
        with pytest.raises(ValueError, match="MAX_K"):
            sample(m, 1, rng_seed=1, n=10**12)


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
        agg = aggregate_dist(m)
        kappas = [0.1, 0.5, 0.9, 0.99]
        table = tvar_contribution_table(m, agg, kappas)
        for i, kappa in enumerate(kappas):
            total = sum(table[v][i] for v in hub6.vertices)
            assert abs(total - tvar(agg, kappa)) < 1e-6

    def test_kappa_zero_gives_means(self, hub6):
        m = MpmrfModel.homogeneous(hub6, 1.0, 0.5)
        table = tvar_contribution_table(m, aggregate_dist(m), [0.0])
        assert abs(sum(c[0] for c in table.values()) - 6.0) < 1e-8

    def test_kappa_domain(self, hub6, monkeypatch):
        # the quantiles are formed first: a bad level raises before any H law
        m = MpmrfModel.homogeneous(hub6, 1.0, 0.5)
        agg = aggregate_dist(m)

        def no_h_pass(*args):
            raise AssertionError("the H laws were computed before the levels were checked")

        monkeypatch.setattr(mpmrf, "_h_all", no_h_pass)
        for kappas in ([1.0], [0.5, -0.1], [math.nan]):
            with pytest.raises(ValueError, match=r"kappa must be in \[0, 1\)"):
                tvar_contribution_table(m, agg, kappas)

    def test_direct_sums_match_full_convolution(self):
        # the table reads two entries of each allocation table; build the
        # whole table and its running sum here and read them the same way
        rng = np.random.default_rng(32)
        kappas = [0.0, 0.3, 0.9, 0.99]
        for _ in range(6):
            m = random_model(rng, d_max=30)
            agg = aggregate_dist(m)
            table = tvar_contribution_table(m, agg, kappas)
            for v in m.tree.vertices:
                alloc = m.lam * np.convolve(h_poly(m.tree, v, m.alpha), agg.pmf)
                for i, kappa in enumerate(kappas):
                    q = agg.quantile(kappa)
                    pq = agg.pmf[q]
                    atom = (agg.cdf()[q] - kappa) / pq * alloc[q] if pq > 0 else 0.0
                    want = (m.lam - np.cumsum(alloc)[q] + atom) / (1.0 - kappa)
                    assert abs(table[v][i] - want) < 1e-12

    def test_table_roots_the_tree_at_most_twice(self, root_calls):
        # once for the aggregate, once for every H law; not once per vertex
        m = MpmrfModel.homogeneous(random_tree(np.random.default_rng(31), 100), 0.2, 0.5)
        table = tvar_contribution_table(m, aggregate_dist(m), [0.9, 0.99])
        assert len(table) == 100 and len(root_calls) <= 2


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


class TestMonteCarloAgainstAnalytic:
    def test_total_distribution_close_in_tv(self, hub6):
        m = MpmrfModel.homogeneous(hub6, 1.0, 0.5)
        n = 200_000
        draws = sample(m, 1, rng_seed=2024, n=n)
        total = draws.sum(axis=1)
        emp = np.bincount(total) / n
        agg = aggregate_dist(m)
        assert tv_distance(emp, agg.pmf) < 8e-3

    def test_star_cov_matches(self, star10):
        m = MpmrfModel.homogeneous(star10, 1.0, 0.5)
        draws = sample(m, 1, rng_seed=99, n=200_000)
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
