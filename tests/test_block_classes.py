"""The block-class primitive against per-state loop references.

``DistributionTable.classes`` groups the support into classes of states that
agree off a block; transition matrices, projectors and congestion rates are
derived from it.  The references below build the same objects the direct
way: tuple-keyed class dicts and a per-state loop over available colors and
consistent block assignments.
"""

import hashlib
import json
import os
from array import array

import numpy as np
import pytest
import scipy.sparse as sp

from coloring_reference import (available_colors, block_assignments, index_of,
                                states_of)
from path_reference import exact_congestion
from treecolor import dynamics, oracle, spectral
from treecolor import tensorization as tz
from treecolor.canonical import EDGE_PATHS, GLAUBER_PATHS, compute_congestion
from treecolor.colorings import (ListSpec, pinned_root_lists, star_root_lists,
                                 uniform_lists)
from treecolor.dynamics import pair_blocks
from treecolor.errors import ParameterError
from treecolor.trees import (build_complete_regular, build_hanging_root,
                             hanging_root_edge, tree_from_parents)


def path_tree(n):
    return tree_from_parents([None] + list(range(n)), 0)


ZOO = [
    (path_tree(4), 3), (path_tree(3), 4),
    (build_complete_regular(3, 1), 4),
    (build_complete_regular(2, 2), 4),
    (build_hanging_root(3, 1), 4),
    (tree_from_parents([None, 0, 0, 0, 1, 1], 0), 4),
]


def reference_classes(dist, B):
    """Tuple-keyed grouping of state rows by their colors off ``B``."""
    rest = [e for e in range(dist.tree.n_edges) if e not in set(B)]
    classes = {}
    for i, s in enumerate(states_of(dist)):
        classes.setdefault(tuple(s[e] for e in rest), []).append(i)
    return list(classes.values())


def assert_classes_match(dist, B):
    labels, sizes = dist.classes(B)
    ref = reference_classes(dist, B)
    groups = {}
    for i, k in enumerate(labels.tolist()):
        groups.setdefault(k, []).append(i)
    assert sorted(groups.values()) == sorted(ref), B
    assert sizes.tolist() == [len(groups[k]) for k in range(len(sizes))], B


def reference_single_edge(tree, lists, kind, dist):
    m, q = tree.n_edges, lists.q
    rows, cols, vals = array("q"), array("q"), array("d")
    index = index_of(dist)
    for i, state in enumerate(states_of(dist)):
        diag = 0.0
        for e in range(m):
            avail = available_colors(tree, lists, state, e)
            p = (1.0 / (m * len(avail)) if kind == dynamics.HEATBATH_GLAUBER
                 else 1.0 / (m * q))
            for c in avail:
                if c == state[e]:
                    continue
                t = list(state)
                t[e] = c
                rows.append(i)
                cols.append(index[tuple(t)])
                vals.append(p)
            if kind == dynamics.HEATBATH_GLAUBER:
                diag += p
            else:  # rejected proposals plus the current color
                diag += (q - len(avail) + 1) * p
        rows.append(i)
        cols.append(i)
        vals.append(diag)
    return rows, cols, vals


def reference_blocks(dist, blocks, weights):
    total_w = float(sum(weights))
    rows, cols, vals = array("q"), array("q"), array("d")
    for block, w in zip(blocks, weights):
        if w <= 0:
            continue
        for members in reference_classes(dist, block):
            p = (w / total_w) / len(members)
            for i in members:
                for j in members:
                    rows.append(i)
                    cols.append(j)
                    vals.append(p)
    return rows, cols, vals


def reference_matrix(tree, lists, kind, block_spec=None):
    dist = oracle.enumerate_colorings(tree, lists)
    if kind in dynamics.SINGLE_EDGE_KINDS:
        trip = reference_single_edge(tree, lists, kind, dist)
    elif kind == dynamics.NEIGHBOR_PAIR:
        blocks = dynamics.pair_blocks(tree)
        trip = reference_blocks(dist, blocks, [1.0] * len(blocks))
    else:
        trip = reference_blocks(dist, block_spec.blocks, block_spec.weights)
    rows, cols, vals = (np.array(x) for x in trip)
    return sp.coo_matrix((vals, (rows, cols)), shape=(dist.size, dist.size)).tocsr()


def assert_canonical(csr):
    """Sorted column indices, no duplicates and no explicit zeros, as built."""
    rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    key = rows * csr.shape[1] + csr.indices
    assert np.all(key[1:] > key[:-1])
    assert np.all(csr.data != 0)


def test_transition_matrix_matches_loop_reference():
    for tree, q in ZOO:
        lists = uniform_lists(tree, q)
        blocks = tuple(dynamics.pair_blocks(tree))
        spec = dynamics.BlockSpec(blocks, tuple(range(len(blocks))))
        for kind in (dynamics.UNIFORM_GLAUBER, dynamics.HEATBATH_GLAUBER,
                     dynamics.NEIGHBOR_PAIR, dynamics.BLOCK):
            kw = {"block_spec": spec} if kind == dynamics.BLOCK else {}
            got = spectral.transition_matrix(tree, lists, kind, **kw).matrix
            want = reference_matrix(tree, lists, kind, **kw)
            assert got.format == "csr"
            assert_canonical(got)
            got.sort_indices()
            want.sort_indices()
            assert np.array_equal(got.indptr, want.indptr), (tree.n_edges, q, kind)
            assert np.array_equal(got.indices, want.indices), (tree.n_edges, q, kind)
            assert np.max(np.abs(got.data - want.data)) <= 1e-15, (tree.n_edges, q, kind)
            assert np.max(np.abs(got.toarray() - want.toarray())) <= 1e-15


def test_projector_equals_tuple_dict_reference():
    for tree, q in ZOO:
        dist = oracle.enumerate_colorings(tree, uniform_lists(tree, q))
        m = tree.n_edges
        for S in dynamics.pair_blocks(tree) + [(), tuple(range(m))]:
            want = np.zeros((dist.size, dist.size))
            for members in reference_classes(dist, S):
                for i in members:
                    want[i, members] = 1.0 / len(members)
            got = spectral.block_average(dist, [S], [1.0])
            assert sp.issparse(got), S
            assert np.array_equal(got.toarray(), want), S
            assert_canonical(got)


def test_classes_without_key_overflow():
    # (q+1)^69 > 2^63: a mixed-radix key over the 69 edges off a singleton
    # would wrap.
    long_path = path_tree(70)
    dist = oracle.enumerate_colorings(long_path, uniform_lists(long_path, 2))
    assert dist.array.shape == (2, 70)
    for B in ((0,), (35,), (69,), (), (10, 11)):
        assert_classes_match(dist, B)


def test_classes_from_grouped_keys_match_reference(monkeypatch):
    # 6^6 is below KEY_LIMIT, so the 6-edge path at q=4 keys its rows in one
    # group; 5^39 is not, so the 41-edge path at q=3 (its first 37 edges
    # alternate 1 and 2, the last 4 take any color) needs more than one
    fits = oracle.enumerate_colorings(path_tree(6), uniform_lists(path_tree(6), 4))
    lists = [{1 + e % 2} for e in range(37)] + [{1, 2, 3}] * 4
    overflows = oracle.enumerate_colorings(path_tree(41), ListSpec(3, lists))
    assert overflows.size == 16
    blocks = [(e,) for e in range(6)] + pair_blocks(path_tree(6)) + [(0, 5)]
    keyed = [fits.classes(B) for B in blocks]
    for B in blocks:
        assert_classes_match(fits, B)
    for B in ((0,), (38,), (40,), (37, 38), (0, 40), ()):
        assert_classes_match(overflows, B)
    # one column per group numbers the classes alike; a new table cuts its
    # cached row keys anew
    monkeypatch.setattr(oracle, "KEY_LIMIT", 1)
    fits = oracle.DistributionTable(fits.tree, fits.lists, fits.array)
    for B, want in zip(blocks, keyed):
        for got, w in zip(fits.classes(B), want):
            assert np.array_equal(got, w) and got.dtype == w.dtype, B


def reference_labels(dist, B):
    """The dense rank of each row's colors off ``B``, compared from the first
    edge to the last."""
    rest = [e for e in range(dist.tree.n_edges) if e not in set(B)]
    rows = [tuple(s[e] for e in rest) for s in states_of(dist)]
    rank = {key: k for k, key in enumerate(sorted(set(rows)))}
    return [rank[key] for key in rows]


def test_classes_are_numbered_by_the_rows_off_the_block(monkeypatch):
    star = build_complete_regular(2, 1)
    cases = [(tree, uniform_lists(tree, q)) for tree, q in ZOO] + [
        # two key groups, as in the grouped-key test above
        (path_tree(41), ListSpec(3, [{1 + e % 2} for e in range(37)] + [{1, 2, 3}] * 4)),
        (star, uniform_lists(star, 300))]  # uint16 colors
    for tree, lists in cases:
        dist = oracle.enumerate_colorings(tree, lists)
        m = tree.n_edges
        blocks = [(e,) for e in range(m)] + pair_blocks(tree) + [(), tuple(range(m))]
        keyed = [dist.classes(B) for B in blocks]
        for B, (labels, sizes) in zip(blocks, keyed):
            want = reference_labels(dist, B)
            assert labels.dtype == np.int64, B
            assert labels.tolist() == want, (m, B)
            assert sizes.tolist() == np.bincount(want).tolist(), (m, B)
        # one column per key group numbers the classes alike
        with monkeypatch.context() as mp:
            mp.setattr(oracle, "KEY_LIMIT", 1)
            cut = oracle.DistributionTable(tree, lists, dist.array)
            assert len(cut._keys[0]) == m
            for B, want in zip(blocks, keyed):
                for got, w in zip(cut.classes(B), want):
                    assert np.array_equal(got, w) and got.dtype == w.dtype, B


def test_classes_with_more_than_255_colors():
    star = build_complete_regular(2, 1)
    dist = oracle.enumerate_colorings(star, uniform_lists(star, 300))
    assert dist.array.dtype == np.uint16
    assert int(dist.array.max()) == 300
    for B in ((0,), (1,), (0, 1), ()):
        assert_classes_match(dist, B)
    assert set(dist.classes((0,))[1].tolist()) == {299}


def test_classes_refuses_edges_out_of_range():
    tree = path_tree(3)
    dist = oracle.enumerate_colorings(tree, uniform_lists(tree, 3))
    for B, e in (((7,), 7), ((-1,), -1), ((0, 7), 7)):
        with pytest.raises(ParameterError, match=rf"block edge {e} out of range 0\.\.2"):
            dist.classes(B)
    labels, sizes = dist.classes(())
    assert len(sizes) == dist.size == 12 and np.array_equal(labels, np.arange(12))


def test_choices_are_the_singleton_class_sizes():
    hanging, deep = build_hanging_root(2, 3), build_complete_regular(3, 2)
    star = build_complete_regular(2, 1)
    r = hanging_root_edge(hanging)
    # odd edges miss color 4 and even ones color 1, which their neighbours carry
    custom = ListSpec(4, [{1, 2} if e == r else {1, 2, 3} if e % 2 else {2, 3, 4}
                          for e in range(hanging.n_edges)])
    cases = [(tree, uniform_lists(tree, q)) for tree, q in ZOO] + [
        (hanging, star_root_lists(hanging, 4)), (hanging, pinned_root_lists(hanging, 4, 2)),
        (hanging, custom), (deep, uniform_lists(deep, 4)),
        (build_hanging_root(3, 2), star_root_lists(build_hanging_root(3, 2), 5)),
        (star, uniform_lists(star, 300))]
    for tree, lists in cases:
        dist = oracle.enumerate_colorings(tree, lists)
        for e in range(tree.n_edges):
            labels, sizes = dist.classes((e,))
            assert np.array_equal(dist.choices(e), sizes[labels]), (lists, e)
    # at Delta = 3, q = 4 the two edges above and the two below edge 0 take
    # the three colors it leaves, so one color sits at both of its endpoints
    dist = oracle.enumerate_colorings(deep, uniform_lists(deep, 4))
    assert deep.edge_levels[0] == 1 and len(deep.neighbors[0]) == 4
    assert all(len(set(row)) < 4 for row in dist.array[:, deep.neighbors[0]].tolist())


def test_congestion_rates_match_block_assignments():
    cases = [((2, 1, 4), GLAUBER_PATHS), ((2, 3, 4), GLAUBER_PATHS),
             ((3, 1, 5), GLAUBER_PATHS), ((2, 3, 3), EDGE_PATHS),
             ((3, 1, 4), EDGE_PATHS)]
    for (delta, ell, q), kind in cases:
        tree = build_hanging_root(delta, ell)
        lists = star_root_lists(tree, q)
        rep = compute_congestion(tree, lists, kind)
        states = states_of(rep.dist)

        def assignments(x, block):  # s, whose 1/s is the rate of moving block out of x
            return len(block_assignments(tree, lists, states[x], block))

        for pc in rep.per_pair.values():
            want = exact_congestion(rep.dist, pc.usage, pc.fiber_a, assignments)
            assert repr((pc.xi_levels, pc.xi_pairs, pc.r_leaf)) == repr(want)


def one_step_targets(tree, lists, kind, state, block_spec=None):
    """States reachable from ``state`` in one step with positive probability
    (excluding the state itself), by trying every edge color or consistent
    block assignment."""
    if kind in dynamics.SINGLE_EDGE_KINDS:
        blocks = [(e,) for e in range(tree.n_edges)]
    elif kind == dynamics.NEIGHBOR_PAIR:
        blocks = pair_blocks(tree)
    else:
        blocks = [b for b, w in zip(block_spec.blocks, block_spec.weights) if w > 0]
    out = set()
    for b in blocks:
        for pick in block_assignments(tree, lists, state, b):
            t = list(state)
            for e, c in zip(b, pick):
                t[e] = c
            if tuple(t) != state:
                out.add(tuple(t))
    return out


def reference_ergodicity(tree, lists, kind, **kw):
    """Component count of the move graph by a per-state walk over
    ``one_step_targets``."""
    dist = oracle.enumerate_colorings(tree, lists)
    states, index = states_of(dist), index_of(dist)
    comp = [-1] * dist.size
    ncomp = 0
    for s0 in range(dist.size):
        if comp[s0] != -1:
            continue
        comp[s0] = ncomp
        stack = [s0]
        while stack:
            i = stack.pop()
            for t in one_step_targets(tree, lists, kind, states[i], **kw):
                j = index[t]
                if comp[j] == -1:
                    comp[j] = ncomp
                    stack.append(j)
        ncomp += 1
    return ncomp


def test_check_ergodicity_matches_move_graph_walk():
    """The component count of the class-built matrix pattern
    (``TransitionMatrix.components``) is that of the move graph."""
    frozen_star = (build_complete_regular(3, 1), 3)  # q = delta: 6 components
    for tree, q in ZOO + [frozen_star]:
        lists = uniform_lists(tree, q)
        blocks = tuple(dynamics.pair_blocks(tree))
        spec = dynamics.BlockSpec(blocks, tuple(range(len(blocks))))
        for kind in (dynamics.UNIFORM_GLAUBER, dynamics.HEATBATH_GLAUBER,
                     dynamics.NEIGHBOR_PAIR, dynamics.BLOCK):
            kw = {"block_spec": spec} if kind == dynamics.BLOCK else {}
            want = reference_ergodicity(tree, lists, kind, **kw)
            tm = spectral.transition_matrix(tree, lists, kind, **kw)
            assert tm.components() == want, (tree.n_edges, q, kind)
    tree, q = frozen_star
    tm = spectral.transition_matrix(tree, uniform_lists(tree, q),
                                    dynamics.HEATBATH_GLAUBER)
    assert tm.components() == 6


# sha256 digests of the CSR arrays of four chains and one projected constant;
# a change to the class assembly that keeps every matrix leaves this file as
# it is
PINNED_MATRICES = os.path.join(os.path.dirname(__file__), "matrix_pinned.json")


def pinned_matrices():
    """The pinned chains by name: heat-bath Glauber on a path, the BLOCK
    chain that ``verify_induction`` builds with the dense-certify benchmark's
    alpha and gamma, and the neighbouring-pair chain, whose pair blocks
    overlap; plus a projected root-tensorization constant."""
    build, built = spectral.transition_matrix, []

    def keep(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    path = path_tree(8)
    induction = build_complete_regular(2, 5)
    pair = build_complete_regular(3, 2)
    hanging = build_hanging_root(3, 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "transition_matrix", keep)
        tz.verify_induction(induction, uniform_lists(induction, 3), 1, [8.0, 4.0], 2.0)
    (block,) = built
    return {
        "heat-bath path(8) q=4": build(path, uniform_lists(path, 4),
                                       dynamics.HEATBATH_GLAUBER).matrix,
        "induction complete_regular(2,5) q=3": block.matrix,
        "neighbour-pair complete_regular(3,2) q=4": build(
            pair, uniform_lists(pair, 4), dynamics.NEIGHBOR_PAIR).matrix,
        "root constant hanging_root(3,2) q=5": tz.check_root_tensorization(
            hanging, star_root_lists(hanging, 5), [1, 2, 3]).constant,
    }


def matrix_digest(value):
    if isinstance(value, float):
        return value
    return {name: [str(arr.dtype), len(arr), hashlib.sha256(arr.tobytes()).hexdigest()]
            for name, arr in (("data", value.data), ("indices", value.indices),
                              ("indptr", value.indptr))}


def test_assembled_matrices_are_pinned():
    got = {name: matrix_digest(value) for name, value in pinned_matrices().items()}
    with open(PINNED_MATRICES) as fh:
        # through JSON, so any changed digit of the constant counts
        assert json.dumps(got, sort_keys=True) == json.dumps(json.load(fh), sort_keys=True)
