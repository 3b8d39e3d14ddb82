import math

import pytest

from treecolor import oracle
from coloring_reference import is_proper, states_of
from treecolor.colorings import star_root_lists, uniform_lists
from treecolor.errors import (CapacityError, InfeasiblePinningError,
                              ParameterError)
from treecolor.trees import (build_complete_regular, build_hanging_root,
                             hanging_root_edge, tree_from_parents)


def path_tree(n):
    return tree_from_parents([None] + list(range(n)), 0)


def test_enumerate_star_and_path():
    star = build_complete_regular(3, 1)
    d = oracle.enumerate_colorings(star, uniform_lists(star, 4))
    assert d.size == 4 * 3 * 2

    p3 = path_tree(3)
    d3 = oracle.enumerate_colorings(p3, uniform_lists(p3, 3))
    assert d3.size == 3 * 2 * 2


def test_enumerate_star_root_cross_check():
    tree = build_hanging_root(3, 1)
    lists = star_root_lists(tree, 5)
    d = oracle.enumerate_colorings(tree, lists)
    assert d.size == 36
    assert d.size == oracle.count_colorings(tree, lists)


def test_enumeration_canonical_order_and_support():
    p2 = path_tree(2)
    lists = uniform_lists(p2, 3)
    d = oracle.enumerate_colorings(p2, lists)
    states = states_of(d)
    assert states == sorted(states)  # lexicographic over BFS edge ids
    assert all(is_proper(p2, lists, s) for s in states)
    assert d.weight * d.size == 1


def test_count_closed_forms():
    p10 = path_tree(10)
    assert oracle.count_colorings(p10, uniform_lists(p10, 3)) == 3 * 2 ** 9
    for delta in (2, 3, 4, 5):
        star = build_complete_regular(delta, 1)
        for q in (delta + 1, delta + 2, delta + 3):
            expect = math.factorial(q) // math.factorial(q - delta)
            assert oracle.count_colorings(star, uniform_lists(star, q)) == expect


def test_count_matches_enumeration():
    t2 = build_complete_regular(3, 2)
    lists = uniform_lists(t2, 5)
    n = oracle.count_colorings(t2, lists)
    assert n == 103680
    d = oracle.enumerate_colorings(t2, lists)
    assert d.size == n


def test_capacity_error_names_count():
    t2 = build_complete_regular(3, 2)
    lists = uniform_lists(t2, 5)
    with pytest.raises(CapacityError) as err:
        oracle.enumerate_colorings(t2, lists, cap=1000)
    assert err.value.estimated == 103680


def test_conditional():
    tree = build_hanging_root(3, 1)
    lists = star_root_lists(tree, 5)
    d = oracle.enumerate_colorings(tree, lists)
    r = hanging_root_edge(tree)
    cond = d.conditional({r: 1})
    marg = d.marginal([r])
    assert cond.size == round(d.size * marg[(1,)])

    all_pinned = d.conditional({e: c for e, c in enumerate(states_of(d)[0])})
    assert all_pinned.size == 1

    siblings = sorted(tree.level_edges(1))
    with pytest.raises(InfeasiblePinningError):
        d.conditional({siblings[0]: 5, siblings[1]: 5})


def test_marginals():
    tree = build_hanging_root(3, 2)
    lists = star_root_lists(tree, 5)
    d = oracle.enumerate_colorings(tree, lists)
    r = hanging_root_edge(tree)
    marg = d.marginal([r])
    assert set(marg) == {(1,), (2,), (3,)}
    for p in marg.values():
        assert abs(p - 1.0 / 3.0) < 1e-12

    full = d.marginal(list(range(tree.n_edges)))
    assert len(full) == d.size
    assert all(abs(p - d.weight) < 1e-15 for p in full.values())

    star = build_complete_regular(3, 1)
    ds = oracle.enumerate_colorings(star, uniform_lists(star, 4))
    leaf = ds.marginal([2])
    assert all(abs(p - 0.25) < 1e-12 for p in leaf.values())
    with pytest.raises(ParameterError):
        ds.marginal([])


def test_conditional_independence():
    # C separates A and B in the line graph; the conditional joint factorizes
    p3 = path_tree(3)
    d = oracle.enumerate_colorings(p3, uniform_lists(p3, 3))
    for c in (1, 2, 3):
        cond = d.conditional({1: c})
        joint = cond.marginal([0, 2])
        ma = cond.marginal([0])
        mb = cond.marginal([2])
        for (x, y), p in joint.items():
            assert abs(p - ma[(x,)] * mb[(y,)]) < 1e-12

    t2 = build_complete_regular(3, 2)
    d2 = oracle.enumerate_colorings(t2, uniform_lists(t2, 4))
    # pinning a level-1 edge separates its subtree from the rest
    sub = sorted(t2.child_edges[0])
    other = sorted(t2.child_edges[1])
    for c in (1, 4):
        cond = d2.conditional({0: c, 1: c + 1 if c == 1 else 1})
        joint = cond.marginal([sub[0], other[0]])
        ma = cond.marginal([sub[0]])
        mb = cond.marginal([other[0]])
        for (x, y), p in joint.items():
            assert abs(p - ma[(x,)] * mb[(y,)]) < 1e-12


def test_irregular_tree_count_matches_enumeration():
    import random

    rng = random.Random(2024)
    for trial in range(5):
        n = rng.randint(5, 9)
        parent = [None] + [rng.randrange(v) for v in range(1, n)]
        tree = tree_from_parents(parent, 0)
        q = tree.max_degree + 1 + rng.randint(0, 1)
        lists = uniform_lists(tree, q)
        d = oracle.enumerate_colorings(tree, lists)
        assert d.size == oracle.count_colorings(tree, lists)
        total = sum(len(tree.level_edges(i))
                    for i in range(tree.min_level, tree.max_level + 1))
        assert total == tree.n_edges


def test_export():
    p2 = path_tree(2)
    d = oracle.enumerate_colorings(p2, uniform_lists(p2, 3))
    doc = d.export()
    assert doc["size"] == 6
    assert "tree_hash" in doc and "states" not in doc
    assert len(d.export(include_states=True)["states"]) == 6
