"""Graph-spectrum diagnostics used to contrast the shape order with classical
tree comparisons: adjacency spectrum, spectral radius, Estrada index,
Laplacian algebraic connectivity, and degree majorization.

Eigenvalues come from numpy's symmetric eigenvalue solver
(`np.linalg.eigvalsh`, ascending order); no eigenvectors are used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mpmrf import MAX_K
from .tree_core import Tree, degree_vector

SPECTRUM_TOL = 1e-9


@dataclass(frozen=True)
class SpectrumReport:
    eigenvalues: tuple[float, ...]          # adjacency, ascending
    rho: float                              # spectral radius
    estrada: float                          # sum of exp(eigenvalue)
    algebraic_connectivity: float           # second-smallest Laplacian eigenvalue
    degrees: tuple[int, ...]                # decreasing

    def to_json(self) -> dict:
        return {
            "eigenvalues": list(self.eigenvalues),
            "rho": self.rho,
            "estrada": self.estrada,
            "algebraic_connectivity": self.algebraic_connectivity,
            "degrees": list(self.degrees),
        }


def adjacency_matrix(tree: Tree) -> np.ndarray:
    """The dense d x d adjacency matrix; ValueError, before allocating, when d * d passes MAX_K."""
    d = tree.d
    if d * d > MAX_K:
        raise ValueError(f"d = {d}: a d x d matrix of {d * d:,} entries passes MAX_K = {MAX_K:,}")
    idx = {v: i for i, v in enumerate(tree.vertices)}
    a = np.zeros((d, d))
    for (u, w) in tree.edges:
        a[idx[u], idx[w]] = a[idx[w], idx[u]] = 1.0
    return a


def spectrum(tree: Tree) -> SpectrumReport:
    """Adjacency eigenvalues plus the Fiedler value, from one d x d matrix.

    Once its eigenvalues are taken, the adjacency matrix a becomes the
    Laplacian diag(degrees) - a in place: 0 - a off the diagonal (+0.0 where
    a is 0), the degrees on it.
    """
    a = adjacency_matrix(tree)
    mu = np.linalg.eigvalsh(a)
    degrees = a.sum(axis=1)
    np.subtract(0.0, a, out=a)
    np.fill_diagonal(a, degrees)
    fiedler = float(np.linalg.eigvalsh(a)[1]) if tree.d > 1 else 0.0
    return SpectrumReport(
        eigenvalues=tuple(float(x) for x in mu),
        rho=float(mu[-1]),
        estrada=float(np.exp(mu).sum()),
        algebraic_connectivity=fiedler,
        degrees=degree_vector(tree),
    )


def majorizes(a, b) -> bool:
    """True when the prefix sums of b dominate those of a (b majorizes a)."""
    a = list(a)
    b = list(b)
    if len(a) != len(b):
        raise ValueError("degree sequences must have equal length")
    if sorted(a, reverse=True) != a or sorted(b, reverse=True) != b:
        raise ValueError("degree sequences must be decreasing")
    return bool(np.all(np.cumsum(b) >= np.cumsum(a)))


def cospectral_pair_check(t1: Tree, t2: Tree) -> bool:
    """True when the sorted adjacency spectra coincide within SPECTRUM_TOL."""
    if t1.d != t2.d:
        raise ValueError("trees must have the same vertex count")
    mu1 = np.linalg.eigvalsh(adjacency_matrix(t1))
    mu2 = np.linalg.eigvalsh(adjacency_matrix(t2))
    return bool(np.max(np.abs(mu1 - mu2)) <= SPECTRUM_TOL)
