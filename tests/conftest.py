"""Shared fixtures: the worked example trees and a count of the tree
rootings a test makes."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from treemrf import mpmrf, orders, tree_core
from treemrf.tree_core import Tree, root_at


@pytest.fixture(scope="session")
def star10() -> Tree:
    """10-vertex star: center 1, every other vertex a leaf (worked example 1)."""
    return Tree.of(10, [(1, i) for i in range(2, 11)])


@pytest.fixture(scope="session")
def hub6() -> Tree:
    """Path 1-2-3 with leaves 4,5,6 on vertex 3 (worked example 2)."""
    return Tree.of(6, [(1, 2), (2, 3), (3, 4), (3, 5), (3, 6)])


@pytest.fixture(scope="session")
def incomparable12() -> tuple[Tree, Tree]:
    """The d=12 pair differing by the anchoring of vertex 4 (2 vs 3)."""
    t = Tree.of(12, [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (3, 7),
                     (5, 8), (5, 9), (5, 10), (5, 11), (5, 12)])
    tp = Tree.of(12, [(1, 2), (1, 3), (3, 4), (2, 5), (3, 6), (3, 7),
                      (5, 8), (5, 9), (5, 10), (5, 11), (5, 12)])
    return t, tp


@pytest.fixture(scope="session")
def spectral_exception9() -> tuple[Tree, Tree]:
    """The d=9 pair ordered by shape but with reversed spectral diagnostics
    (vertex 9 anchored at 7 vs at 3)."""
    t = Tree.of(9, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (7, 8), (7, 9)])
    tp = Tree.of(9, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (7, 8), (3, 9)])
    return t, tp


@pytest.fixture(scope="session")
def composite9() -> tuple[Tree, Tree]:
    """The d=9 pair ordered through a three-tool chain: a long spider below a
    double caterpillar."""
    t = Tree.of(9, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (6, 8), (7, 9)])
    tp = Tree.of(9, [(1, 2), (2, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 8), (3, 9)])
    return t, tp


@pytest.fixture(scope="session")
def cospectral9() -> tuple[Tree, Tree]:
    """The classical cospectral d=9 twin pair; shape-comparable nonetheless."""
    t = Tree.of(9, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (6, 8), (5, 9)])
    tp = Tree.of(9, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6), (6, 7), (1, 8), (1, 9)])
    return t, tp


@pytest.fixture(scope="session")
def twins11() -> tuple[Tree, Tree]:
    """The d=11 pair of non-isomorphic trees whose aggregates agree at every
    alpha and lambda (ROADMAP item 1)."""
    t = Tree.of(11, [(1, 2), (1, 3), (1, 8), (1, 9), (2, 4), (3, 5), (3, 7),
                     (4, 6), (4, 11), (6, 10)])
    tp = Tree.of(11, [(1, 2), (1, 3), (1, 9), (2, 4), (3, 5), (3, 7), (3, 8),
                      (4, 6), (4, 10), (5, 11)])
    return t, tp


@pytest.fixture(scope="session")
def anchoring14() -> Tree:
    """14-vertex tree whose edge (10,4) detaches a 4-vertex subtree."""
    return Tree.of(14, [(1, 2), (1, 3), (1, 4), (4, 5), (5, 6), (6, 7), (6, 8),
                        (6, 9), (6, 14), (4, 10), (10, 11), (10, 12), (12, 13)])


@pytest.fixture
def root_calls(monkeypatch) -> list:
    """The root of every root_at call the test makes through mpmrf, orders or
    tree_core (the modules that root trees, and the CLI's way in), in call order."""
    calls = []

    def counting_root_at(tree, r, away=None):
        calls.append(r)
        return root_at(tree, r, away)

    for module in (mpmrf, orders, tree_core):
        monkeypatch.setattr(module, "root_at", counting_root_at)
    return calls
