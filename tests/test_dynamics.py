import math

import numpy as np
import pytest

from coloring_reference import block_assignments
from treecolor import oracle, spectral
from treecolor.colorings import uniform_lists
from treecolor.dynamics import (HEATBATH_GLAUBER, NEIGHBOR_PAIR,
                                UNIFORM_GLAUBER, BlockSpec, pair_blocks)
from treecolor.errors import ParameterError
from treecolor.trees import build_complete_regular, tree_from_parents


def path_tree(n):
    return tree_from_parents([None] + list(range(n)), 0)


def count_adjacent_pairs_bruteforce(tree):
    pairs = set()
    for e in range(tree.n_edges):
        for f in range(e + 1, tree.n_edges):
            endpoints_e = {tree.edge_parent_vertex[e], tree.edge_child_vertex[e]}
            endpoints_f = {tree.edge_parent_vertex[f], tree.edge_child_vertex[f]}
            if endpoints_e & endpoints_f:
                pairs.add((e, f))
    return len(pairs)


def test_pair_blocks_counts():
    p2 = path_tree(2)
    assert len(pair_blocks(p2)) == 2 + 1

    star = build_complete_regular(3, 1)
    assert len(pair_blocks(star)) == 3 + 3

    t2 = build_complete_regular(3, 2)
    blocks = pair_blocks(t2)
    n_pairs = sum(1 for b in blocks if len(b) == 2)
    # one C(3,2) at the root vertex plus one per internal vertex
    assert n_pairs == 3 + 3 * 3
    assert n_pairs == count_adjacent_pairs_bruteforce(t2)
    assert len(blocks) == t2.n_edges + n_pairs


def test_block_assignments_consistency_filter():
    p3 = path_tree(3)
    l3 = uniform_lists(p3, 3)
    opts = block_assignments(p3, l3, (1, 2, 1), (0, 1))
    assert set(opts) == {(1, 2), (1, 3), (2, 3), (3, 2)}


def test_long_run_marginals_match_oracle():
    p3 = path_tree(3)
    l4 = uniform_lists(p3, 4)
    tm = spectral.transition_matrix(p3, l4, HEATBATH_GLAUBER)
    finals = tm.dist.array[tm.sample(np.zeros(400, dtype=int), 60, 1234)]
    for e in range(3):
        marg = tm.dist.marginal([e])
        for c in (1, 2, 3, 4):
            expect = marg.get((c,), 0.0)
            assert abs(np.mean(finals[:, e] == c) - expect) < 0.1


def test_check_ergodicity():
    def components(tree, q, kind):
        return spectral.transition_matrix(tree, uniform_lists(tree, q), kind).components()

    p4 = path_tree(4)
    assert components(p4, 3, UNIFORM_GLAUBER) == 1

    star = build_complete_regular(3, 1)
    assert components(star, 4, HEATBATH_GLAUBER) == 1

    # q = delta freezes every state: one component per coloring
    ncomp = components(star, 3, UNIFORM_GLAUBER)
    assert ncomp == oracle.count_colorings(star, uniform_lists(star, 3)) == 6

    # the pair dynamics reconnects the frozen single-edge state space
    assert components(star, 3, NEIGHBOR_PAIR) == 1


def test_block_spec_validation():
    with pytest.raises(ParameterError):
        BlockSpec(((0,),), (-1.0,))
    with pytest.raises(ParameterError):
        BlockSpec(((0,), (1,)), (0.0, 0.0))
    for bad in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="finite"):
            BlockSpec(((0,), (1,)), (1.0, bad))
