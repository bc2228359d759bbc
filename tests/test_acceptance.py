"""Acceptance suite: one test per release criterion, each printing a PASS line
with its measured numbers (run pytest -s to see them on success)."""

import time

import numpy as np

from treemrf.mpmrf import (
    MpmrfModel,
    aggregate_dist,
    cov_with_sum,
    h_dist,
    sample,
    tvar,
    tvar_contribution_table,
)
from treemrf.orders import Relation, shape_compare, st_compare, synecdochic_compare
from treemrf.poset import (
    DEFAULT_ALPHA_GRID,
    build_poset,
    corollary_chain,
    is_lattice,
    maximal_elements,
    minimal_elements,
)
from treemrf.spectral import spectrum
from treemrf.tree_core import (
    Tree,
    _enumerate_shapes_cached,
    canonical_code,
    enumerate_shapes,
)
from treemrf.mpmrf import DiscreteDist, h_poly

from helpers import agg_pmf_series_exp, poisson_pmf, prune, random_tree, relabel_model, tv_distance


def path_tree(d):
    return Tree.of(d, [(i, i + 1) for i in range(1, d)])


def star_tree(d):
    return Tree.of(d, [(1, i) for i in range(2, d + 1)])


def test_criterion_1_tree_enumeration():
    _enumerate_shapes_cached.cache_clear()
    t0 = time.monotonic()
    counts = {d: len(enumerate_shapes(d)) for d in range(4, 10)}
    elapsed = time.monotonic() - t0
    assert counts == {4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS: shape counts {list(counts.values())} in {elapsed:.3f}s")


def test_criterion_2_star_covariances(star10):
    t0 = time.monotonic()
    m = MpmrfModel.homogeneous(star10, 1.0, 0.5)
    cov = cov_with_sum(m)
    center, leaves = cov[1], [cov[v] for v in range(2, 11)]
    assert abs(center - 5.5) < 1e-9
    assert all(abs(c - 3.5) < 1e-9 for c in leaves)
    verdict = synecdochic_compare(m, 2, 1)
    assert verdict.relation is Relation.LE
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2 PASS: Cov center {center}, leaf {leaves[0]}, "
          f"leaf-vs-center {verdict.relation.value} in {elapsed:.3f}s")


def test_criterion_3_incomparable_pair(incomparable12):
    t0 = time.monotonic()
    t, tp = incomparable12
    residual, _ = prune(t, 4, 2)
    h2 = DiscreteDist(h_poly(residual, 2, 0.9))
    h3 = DiscreteDist(h_poly(residual, 3, 0.9))
    verdict = st_compare(h2, h3)
    assert verdict.relation is Relation.INCOMPARABLE
    f2, f3 = h2.cdf(), h3.cdf()
    assert abs(f2[1] - 0.01) < 5e-5 and abs(f3[1] - 0.001) < 5e-5
    assert abs(f2[2] - 0.0190) < 5e-5 and abs(f3[2] - 0.0199) < 5e-5
    agg = aggregate_dist(MpmrfModel.homogeneous(t, 1.0, 0.9))
    aggp = aggregate_dist(MpmrfModel.homogeneous(tp, 1.0, 0.9))
    t23, tp23 = tvar(agg, 0.23), tvar(aggp, 0.23)
    t97, tp97 = tvar(agg, 0.97), tvar(aggp, 0.97)
    assert abs(t23 - 15.4342) < 5e-4 and abs(tp23 - 15.4355) < 5e-4
    assert abs(t97 - 42.3553) < 5e-4 and abs(tp97 - 42.2257) < 5e-4
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"ACCEPTANCE 3 PASS: cdf ({f2[1]:.4f}/{f3[1]:.4f}, {f2[2]:.4f}/{f3[2]:.4f}), "
          f"TVaR.23 {t23:.4f}/{tp23:.4f}, TVaR.97 {t97:.4f}/{tp97:.4f} in {elapsed:.2f}s")


def test_criterion_4_shape_order_beats_spectral(spectral_exception9):
    t0 = time.monotonic()
    t, tp = spectral_exception9
    verdict = shape_compare(t, tp, 0.5)
    assert verdict.relation is Relation.LE
    st, stp = spectrum(t), spectrum(tp)
    assert abs(st.rho - 2.0840) < 1e-3 and abs(stp.rho - 2.0743) < 1e-3
    assert abs(st.estrada - 19.4594) < 1e-3 and abs(stp.estrada - 19.4591) < 1e-3
    assert st.rho > stp.rho and st.estrada > stp.estrada  # the reversal
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"ACCEPTANCE 4 PASS: LE with rho {st.rho:.4f}>{stp.rho:.4f}, "
          f"EE {st.estrada:.4f}>{stp.estrada:.4f} in {elapsed:.2f}s")


def test_criterion_5_poset_structure():
    t0 = time.monotonic()
    lines = []
    for d in range(4, 10):
        ps = build_poset(d)
        series = ps.index_of(canonical_code(path_tree(d)))
        star = ps.index_of(canonical_code(star_tree(d)))
        assert minimal_elements(ps) == [series]
        assert maximal_elements(ps) == [star]
        lattice = is_lattice(ps)
        assert lattice == (d <= 8)
        assert (len(ps.undecided) > 0) == (d >= 8)
        lines.append(f"d={d}:{len(ps.shapes)} shapes, lattice={lattice}, "
                     f"undecided_moves={len(ps.undecided)}")
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    print(f"ACCEPTANCE 5 PASS: {'; '.join(lines)} in {elapsed:.1f}s")


def test_criterion_6_corollary_suites():
    t0 = time.monotonic()
    cherry = Tree.of(3, [(1, 2), (1, 3)])
    suites = [("star_to_series", dict(d=d)) for d in range(4, 10)]
    suites += [
        ("ray_tool", dict(d_ray=3)),
        ("ray_tool", dict(d_ray=4, subtrees=(Tree.of(2, [(1, 2)]),))),
        ("ray_tool", dict(d_ray=5, subtrees=(cherry,))),
        ("ray_tool", dict(d_ray=8)),
        ("series_slide", dict(d_se=4, tau=Tree.of(1, []))),
        ("series_slide", dict(d_se=5, tau=path_tree(3))),
        ("series_slide", dict(d_se=6, tau=cherry)),
        ("series_slide", dict(d_se=7, tau=Tree.of(2, [(1, 2)]))),
        ("beam_balance", dict(d_beam=5, d_ray=4)),
        ("beam_balance", dict(d_beam=4, d_ray=5)),
        ("beam_balance", dict(d_beam=3, d_ray=4, subtrees=((2, Tree.of(1, [])),))),
        ("beam_balance", dict(d_beam=2, d_ray=5, subtrees=((1, Tree.of(1, [])),))),
    ]
    checked = 0
    for kind, params in suites:
        for lo, hi in corollary_chain(kind, **params):
            assert lo.d <= 9 and hi.d <= 9
            for alpha in DEFAULT_ALPHA_GRID:
                assert shape_compare(lo, hi, alpha).relation is Relation.LE, \
                    (kind, params, alpha)
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"ACCEPTANCE 6 PASS: {checked} ordered-pair checks all LE in {elapsed:.1f}s")


class TestCriterion7Properties:
    def test_root_invariance(self):
        rng = np.random.default_rng(2025)
        for _ in range(50):
            d = int(rng.integers(2, 9))
            t = random_tree(rng, d)
            alpha = {e: float(rng.uniform(0.05, 0.95)) for e in t.edges}
            m = MpmrfModel(t, float(rng.uniform(0.5, 2.0)), alpha)
            # the aggregate roots at label 1: give that label to another vertex
            r = int(rng.choice(t.vertices[1:]))
            a = aggregate_dist(m)
            b = aggregate_dist(relabel_model(m, {v: v for v in t.vertices} | {1: r, r: 1}))
            n = max(len(a.pmf), len(b.pmf))
            diff = np.abs(np.pad(a.pmf, (0, n - len(a.pmf)))
                          - np.pad(b.pmf, (0, n - len(b.pmf))))
            assert diff.max() < 1e-10
        print("ACCEPTANCE 7a PASS: root invariance <= 1e-10 on 50 random models")

    def test_panjer_vs_series_exponential(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(20):
            d = int(rng.integers(2, 7))
            t = random_tree(rng, d)
            lam = float(rng.uniform(0.5, 2.0))
            alpha = float(rng.uniform(0.05, 0.95))
            agg = aggregate_dist(MpmrfModel.homogeneous(t, lam, alpha))
            oracle = agg_pmf_series_exp(t, lam, alpha, agg.k_max)
            worst = max(worst, float(np.max(np.abs(agg.pmf - oracle))))
        assert worst < 1e-10
        print(f"ACCEPTANCE 7b PASS: Panjer vs series-exp, worst gap {worst:.2e}")

    def test_independence_is_poisson(self):
        for d, lam in ((1, 1.0), (4, 0.7), (7, 1.5)):
            t = path_tree(d) if d > 1 else Tree.of(1, [])
            agg = aggregate_dist(MpmrfModel.homogeneous(t, lam, 0.0))
            gap = np.max(np.abs(agg.pmf - poisson_pmf(d * lam, agg.k_max)))
            assert gap < 1e-12
        print("ACCEPTANCE 7c PASS: alpha=0 aggregate is Poisson(d*lambda) <= 1e-12")

    def test_monte_carlo_total_variation(self, star10):
        m = MpmrfModel.homogeneous(star10, 1.0, 0.5)
        n = 1_000_000
        draws = sample(m, rng_seed=20240901, n=n)
        emp = np.bincount(draws.sum(axis=1)) / n
        agg = aggregate_dist(m)
        tv = tv_distance(emp, agg.pmf)
        assert tv < 5e-3
        print(f"ACCEPTANCE 7d PASS: TV(empirical, analytic) = {tv:.2e} at n=1e6")

    def test_conditional_means_full_allocation(self, hub6, star10):
        for tree, alpha in ((hub6, 0.5), (star10, 0.8)):
            m = MpmrfModel.homogeneous(tree, 1.0, alpha)
            agg = aggregate_dist(m)
            convs = [np.convolve(h_dist(m, v).pmf, agg.pmf) for v in tree.vertices]
            for k in range(agg.k_max + 1):
                if agg.pmf[k] <= 0.0:
                    continue
                total = m.lam * sum(c[k] for c in convs)
                assert abs(total / agg.pmf[k] - k) < 1e-8
        print("ACCEPTANCE 7e PASS: conditional mean shares sum to k (<= 1e-8)")

    def test_contributions_sum_to_tvar_on_grid(self, hub6):
        m = MpmrfModel.homogeneous(hub6, 1.0, 0.5)
        kappas = np.arange(0.01, 1.0, 0.01)
        agg, table = tvar_contribution_table(m, kappas)
        totals = sum(table[v] for v in hub6.vertices)
        gaps = [abs(totals[i] - tvar(agg, k)) for i, k in enumerate(kappas)]
        assert max(gaps) < 1e-6
        print(f"ACCEPTANCE 7f PASS: Euler contributions sum to TVaR on the "
              f"kappa grid, worst gap {max(gaps):.2e}")

    def test_ordering_consequences_for_all_small_shapes(self):
        kappas = np.arange(0.01, 1.0, 0.01)
        pairs_checked = 0
        for d in range(2, 8):
            for tree in enumerate_shapes(d):
                for alpha in (0.2, 0.5, 0.8):
                    m = MpmrfModel.homogeneous(tree, 1.0, alpha)
                    agg, contrib = tvar_contribution_table(m, kappas)
                    h = {v: h_dist(m, v) for v in tree.vertices}
                    cov = cov_with_sum(m)
                    cum = {v: np.cumsum(m.lam * np.convolve(h[v].pmf, agg.pmf))
                           for v in tree.vertices}
                    for v in tree.vertices:
                        for w in tree.vertices:
                            if v == w:
                                continue
                            rel = st_compare(h[v], h[w]).relation
                            if rel not in (Relation.LE, Relation.EQ):
                                continue
                            pairs_checked += 1
                            assert cov[v] <= cov[w] + 1e-9
                            n = min(len(cum[v]), len(cum[w]))
                            assert np.all(cum[v][:n] >= cum[w][:n] - 1e-9)
                            assert np.all(contrib[v] <= contrib[w] + 1e-6)
        assert pairs_checked > 100
        print(f"ACCEPTANCE 7g PASS: covariance/allocation/TVaR orderings follow "
              f"the criterion on {pairs_checked} certified pairs")


def test_criterion_8_spectral_crosscheck(spectral_exception9):
    t0 = time.monotonic()
    checked = 0
    for d in range(4, 9):
        ps = build_poset(d)
        reports = [spectrum(t) for t in ps.reps]
        strict = ps.relation & ~np.eye(len(ps.shapes), dtype=bool)
        for i, j in np.argwhere(strict):
            assert reports[i].rho <= reports[j].rho + 1e-9
            assert reports[i].estrada <= reports[j].estrada + 1e-9
            checked += 1
    # at d=9 the agreement is no longer guaranteed: the known exception
    t, tp = spectral_exception9
    assert shape_compare(t, tp, 0.5).relation is Relation.LE
    assert spectrum(t).rho > spectrum(tp).rho
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"ACCEPTANCE 8 PASS: rho/Estrada agree with the order on {checked} "
          f"related pairs (d<=8), d=9 exception reproduced, in {elapsed:.1f}s")
