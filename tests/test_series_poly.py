import numpy as np
import pytest

from treemrf.series_poly import ONE, T, Poly, affine_thin, mul, stop_loss
from treemrf.mpmrf import DiscreteDist

from helpers import poisson_pmf


class TestPoly:
    def test_trailing_zeros_trimmed(self):
        assert Poly([1.0, 2.0, 0.0, 0.0]).degree == 1

    def test_tiny_negative_clamped(self):
        p = Poly([1.0, -1e-16])
        assert p.coeffs[0] == 1.0 and p.degree == 0

    def test_large_negative_rejected(self):
        with pytest.raises(ValueError):
            Poly([1.0, -1e-10])

    def test_eval(self):
        assert Poly([1.0, 2.0, 3.0])(2.0) == 17.0

    def test_coeff_out_of_range_is_zero(self):
        assert Poly([1.0]).coeff(5) == 0.0


class TestMul:
    def test_square_of_one_plus_t(self):
        p = Poly([1.0, 1.0])
        assert mul(p, p) == Poly([1.0, 2.0, 1.0])

    def test_identity(self):
        p = Poly([0.5, 0.25, 0.25])
        assert mul(p, ONE) == p

    def test_bernoulli_square(self):
        b = affine_thin(T, 0.5)
        assert mul(b, b).isclose(Poly([0.25, 0.5, 0.25]), 1e-15)

    def test_degree_adds(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = Poly(rng.random(int(rng.integers(1, 10))) + 0.01)
            b = Poly(rng.random(int(rng.integers(1, 10))) + 0.01)
            assert mul(a, b).degree == a.degree + b.degree

    def test_commutative_associative(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            a = Poly(rng.random(int(rng.integers(1, 65))))
            b = Poly(rng.random(int(rng.integers(1, 65))))
            c = Poly(rng.random(int(rng.integers(1, 65))))
            ab, ba = mul(a, b), mul(b, a)
            assert np.allclose(ab.coeffs, ba.coeffs, rtol=1e-12, atol=0)
            left = mul(mul(a, b), c)
            right = mul(a, mul(b, c))
            assert np.allclose(left.coeffs, right.coeffs, rtol=1e-12, atol=1e-12)


class TestAffineThin:
    def test_half(self):
        assert affine_thin(T, 0.5) == Poly([0.5, 0.5])

    def test_zero_gives_constant_one(self):
        assert affine_thin(Poly([0.0, 0.2, 0.8]), 0.0) == ONE

    def test_one_is_identity(self):
        p = Poly([0.0, 0.2, 0.8])
        assert affine_thin(p, 1.0) == p

    def test_alpha_out_of_range(self):
        for a in (-0.1, 1.1):
            with pytest.raises(ValueError):
                affine_thin(T, a)

    def test_preserves_pgf_normalization(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = rng.random(6)
            p = Poly(w / w.sum())
            assert abs(sum(affine_thin(p, float(rng.random())).coeffs) - 1.0) < 1e-12


class TestStopLoss:
    def test_point_mass(self):
        d = DiscreteDist(np.array([0.0, 0.0, 0.0, 1.0]))
        assert stop_loss(d, 1) == 2.0

    def test_beyond_support_is_zero(self):
        d = DiscreteDist(np.array([0.2, 0.3, 0.5]))
        assert stop_loss(d, 2) == 0.0
        assert stop_loss(d, 10) == 0.0

    def test_at_zero_recovers_mean(self):
        pmf = poisson_pmf(1.0, 40)  # tail far below 1e-12
        assert abs(stop_loss(pmf, 0) - 1.0) < 1e-9

    def test_accepts_plain_sequences(self):
        assert stop_loss([0.5, 0.0, 0.5], 0) == 1.0
