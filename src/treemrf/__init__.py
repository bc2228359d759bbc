"""Tree-structured Markov random fields with Poisson marginals: exact
aggregate laws, risk allocations, stochastic-order comparisons between
vertices and between tree shapes, and the tree-shape partial order."""

from .mpmrf import (
    DiscreteDist,
    MpmrfModel,
    ToleranceError,
    aggregate_dist,
    allocation_to_csv,
    closeness_indices,
    cov_with_sum,
    dist_to_csv,
    expected_allocation,
    h_dist,
    sample,
    tvar,
    tvar_contribution_table,
)
from .orders import (
    OrderVerdict,
    Relation,
    cx_check_empirical,
    shape_compare,
    st_compare,
    synecdochic_compare,
)
from .poset import (
    ShapePoset,
    build_poset,
    corollary_chain,
    hasse_dot,
    is_lattice,
    maximal_elements,
    minimal_elements,
)
from .spectral import SpectrumReport, cospectral_pair_check, majorizes, spectrum
from .tree_core import (
    RootedTree,
    ShapeCode,
    Tree,
    canonical_code,
    degree_vector,
    enumerate_shapes,
    root_at,
)

__version__ = "0.1.0"

__all__ = [
    "DiscreteDist", "MpmrfModel", "OrderVerdict", "Relation",
    "RootedTree", "ShapeCode", "ShapePoset", "SpectrumReport",
    "ToleranceError", "Tree", "aggregate_dist", "allocation_to_csv",
    "build_poset", "canonical_code", "closeness_indices", "corollary_chain",
    "cospectral_pair_check", "cov_with_sum", "cx_check_empirical",
    "degree_vector", "dist_to_csv", "enumerate_shapes", "expected_allocation",
    "h_dist", "hasse_dot", "is_lattice", "majorizes", "maximal_elements",
    "minimal_elements", "root_at", "sample", "shape_compare", "spectrum",
    "st_compare", "synecdochic_compare", "tvar", "tvar_contribution_table",
]
