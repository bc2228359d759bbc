import json
import math
import tracemalloc

import numpy as np
import pytest

from treemrf import spectral
from treemrf.poset import build_poset, corollary_chain
from treemrf.spectral import cospectral_pair_check, majorizes, spectrum
from treemrf.orders import Relation, shape_compare
from treemrf.tree_core import Tree, canonical_code, degree_vector, enumerate_shapes

from helpers import random_tree, reference_algebraic_connectivity


def path_tree(d):
    return Tree.of(d, [(i, i + 1) for i in range(1, d)])


def star_tree(d):
    return Tree.of(d, [(1, i) for i in range(2, d + 1)])


class TestSpectrum:
    def test_path3_adjacency(self):
        rep = spectrum(path_tree(3))
        assert np.allclose(rep.eigenvalues, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-9)
        assert abs(rep.rho - math.sqrt(2)) < 1e-9

    def test_path3_laplacian(self):
        rep = spectrum(path_tree(3))
        assert abs(rep.algebraic_connectivity - 1.0) < 1e-9

    def test_star_radius_is_sqrt_of_leaf_count(self):
        assert abs(spectrum(star_tree(4)).rho - math.sqrt(3)) < 1e-9
        assert abs(spectrum(star_tree(9)).rho - math.sqrt(8)) < 1e-9

    def test_star_connectivity_is_one(self):
        for d in (4, 6, 9):
            assert abs(spectrum(star_tree(d)).algebraic_connectivity - 1.0) < 1e-9

    def test_path_connectivity(self):
        for d in (3, 5, 8):
            want = 2.0 * (1.0 - math.cos(math.pi / d))
            assert abs(spectrum(path_tree(d)).algebraic_connectivity - want) < 1e-9

    def test_trace_is_zero(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            rep = spectrum(random_tree(rng, int(rng.integers(2, 13))))
            assert abs(sum(rep.eigenvalues)) < 1e-9

    def test_spectral_exception_values(self, spectral_exception9):
        t, tp = spectral_exception9
        st, stp = spectrum(t), spectrum(tp)
        assert abs(st.rho - 2.0840) < 1e-3
        assert abs(stp.rho - 2.0743) < 1e-3
        assert abs(st.estrada - 19.4594) < 1e-3
        assert abs(stp.estrada - 19.4591) < 1e-3

    def test_degrees_included(self):
        assert spectrum(star_tree(6)).degrees == (5, 1, 1, 1, 1, 1)

    def test_single_vertex(self):
        rep = spectrum(Tree.of(1, []))
        assert rep.eigenvalues == (0.0,) and rep.rho == 0.0


class TestSpectrumInPlace:
    """spectrum turns its one adjacency matrix into the Laplacian in place."""

    @staticmethod
    def trees():
        for d in range(1, 10):
            yield from enumerate_shapes(d)
        rng = np.random.default_rng(25)
        for d in (25, 50, 100):
            yield from (path_tree(d), star_tree(d), random_tree(rng, d))

    def test_report_bytes_match_the_whole_matrix_laplacian(self):
        for t in self.trees():
            rep = spectrum(t)
            want = dict(rep.to_json(), algebraic_connectivity=reference_algebraic_connectivity(t))
            assert json.dumps(rep.to_json()) == json.dumps(want)

    def test_peak_is_one_matrix(self):
        # a 2,000-star's matrix is 32 MB; an adjacency matrix and a Laplacian
        # formed whole held two at once, a 64 MB peak
        t = star_tree(2000)
        tracemalloc.start()
        try:
            spectrum(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 2000 * 2000 * 8


class TestMajorizes:
    def test_star_dominates_path(self):
        a = degree_vector(path_tree(6))
        b = degree_vector(star_tree(6))
        assert majorizes(a, b)
        assert not majorizes(b, a)

    def test_equal_sequences(self):
        a = degree_vector(path_tree(6))
        assert majorizes(a, a)

    def test_equal_degree_vectors_yet_shape_ordered(self):
        # sliding a cherry along a 6-chain keeps the degree vector fixed
        pairs = corollary_chain("series_slide", d_se=6, tau=Tree.of(3, [(1, 2), (1, 3)]))
        lo, hi = pairs[-1]
        assert degree_vector(lo) == degree_vector(hi)
        assert majorizes(degree_vector(lo), degree_vector(hi))
        assert majorizes(degree_vector(hi), degree_vector(lo))
        assert shape_compare(lo, hi, 0.5).relation is Relation.LE

    def test_prefix_sums_cross_at_the_last_entry(self):
        # prefix sums 3, 5, 5 against 2, 4, 6: b leads until the last entry
        a, b = (2, 2, 2), (3, 2, 0)
        assert not majorizes(a, b)
        assert not majorizes(b, a)
        assert majorizes((2, 2, 1), b)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            majorizes((2, 1, 1), (1, 1))

    def test_not_decreasing(self):
        with pytest.raises(ValueError):
            majorizes((1, 2, 1), (2, 1, 1))


class TestMatrixSize:
    def test_past_max_k_raises_before_allocating(self):
        # a 10,001-vertex star's dense matrix would hold 100,020,001 > MAX_K entries
        tree = star_tree(10_001)
        tracemalloc.start()
        try:
            for check in (spectral.adjacency_matrix, spectrum):
                with pytest.raises(ValueError, match=r"d = 10001: .* passes MAX_K = 100,000,000"):
                    check(tree)
            with pytest.raises(ValueError, match="MAX_K"):
                cospectral_pair_check(tree, tree)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    def test_d_squared_up_to_max_k_is_allowed(self, monkeypatch):
        monkeypatch.setattr(spectral, "MAX_K", 100)
        assert spectrum(star_tree(10)).degrees[0] == 9
        with pytest.raises(ValueError, match="MAX_K = 100"):
            spectrum(star_tree(11))


class TestCospectral:
    def test_twin_pair(self, cospectral9):
        t, tp = cospectral9
        assert cospectral_pair_check(t, tp)
        assert canonical_code(t) != canonical_code(tp)
        # and yet the shape order ranks them
        ps = build_poset(9)
        assert ps.leq(canonical_code(t), canonical_code(tp))

    def test_path_vs_star(self):
        assert not cospectral_pair_check(path_tree(4), star_tree(4))

    def test_same_tree(self):
        t = path_tree(5)
        assert cospectral_pair_check(t, t)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cospectral_pair_check(path_tree(4), path_tree(5))
