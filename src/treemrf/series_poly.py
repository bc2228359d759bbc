"""Exact univariate polynomials with nonnegative coefficients, the pgf carrier.

Coefficients are double precision; degrees stay tiny (at most the vertex
count), so convolution error is negligible. A coefficient below -1e-15
signals an upstream bug and raises; tiny negatives are clamped to zero.
"""

from __future__ import annotations

import numpy as np

NEG_EPS = 1e-15


def _clean(coeffs) -> np.ndarray:
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1:
        raise ValueError("coefficients must be one-dimensional")
    if c.size == 0:
        c = np.zeros(1)
    if c.min(initial=0.0) < -NEG_EPS:
        raise ValueError(f"negative coefficient {c.min()} below -{NEG_EPS}")
    c = np.where(c < 0.0, 0.0, c)
    nz = np.nonzero(c)[0]
    c = c[: nz[-1] + 1] if nz.size else np.zeros(1)
    c.flags.writeable = False
    return c


class Poly:
    """Polynomial sum_k coeffs[k] * t^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = _clean(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t: float) -> float:
        acc = 0.0
        for c in self.coeffs[::-1]:
            acc = acc * t + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and np.array_equal(self.coeffs, other.coeffs)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)})"

    def coeff(self, k: int) -> float:
        return float(self.coeffs[k]) if 0 <= k <= self.degree else 0.0

    def isclose(self, other: "Poly", tol: float = 1e-12) -> bool:
        n = max(len(self.coeffs), len(other.coeffs))
        a = np.pad(self.coeffs, (0, n - len(self.coeffs)))
        b = np.pad(other.coeffs, (0, n - len(other.coeffs)))
        return bool(np.max(np.abs(a - b)) <= tol)


ONE = Poly([1.0])
T = Poly([0.0, 1.0])  # the monomial t


def mul(a: Poly, b: Poly) -> Poly:
    """Product (coefficient convolution)."""
    return Poly(np.convolve(a.coeffs, b.coeffs))


def affine_thin(p: Poly, alpha: float) -> Poly:
    """(1 - alpha) + alpha * p, the edge-thinning transform of a pgf."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha {alpha} outside [0, 1]")
    c = alpha * np.asarray(p.coeffs).copy()
    c[0] += 1.0 - alpha
    return Poly(c)


def stop_loss(p, c: int) -> float:
    """Stop-loss premium E[(X - c)+] of a pmf on {0,1,...}.

    Accepts a DiscreteDist or any sequence of probabilities.
    """
    pmf = np.asarray(getattr(p, "pmf", p), dtype=float)
    ks = np.arange(len(pmf))
    over = ks > c
    return float(np.sum((ks[over] - c) * pmf[over]))
