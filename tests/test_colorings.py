import pytest

from coloring_reference import (alternating_path, available_colors, flip,
                                is_proper, states_of)
from path_reference import toggle_edge
from treecolor import oracle
from treecolor.colorings import star_root_lists, uniform_lists
from treecolor.errors import ParameterError
from treecolor.trees import (build_complete_regular, build_hanging_root,
                             hanging_root_edge, tree_from_parents)


def path_tree(n):
    return tree_from_parents([None] + list(range(n)), 0)


def test_is_proper_basic():
    p2 = path_tree(2)
    l3 = uniform_lists(p2, 3)
    assert is_proper(p2, l3, (1, 2))
    assert not is_proper(p2, l3, (1, 1))


def test_is_proper_list_violation():
    t = build_hanging_root(3, 1)
    lists = star_root_lists(t, 5)  # root list is {1,2,3}
    r = hanging_root_edge(t)
    coloring = [1, 2, 3]
    coloring[r] = 4
    assert not is_proper(t, lists, tuple(coloring))


def test_is_proper_rejects_partial():
    p2 = path_tree(2)
    with pytest.raises(ParameterError):
        is_proper(p2, uniform_lists(p2, 3), (1,))


def test_available_colors():
    p3 = path_tree(3)
    l3 = uniform_lists(p3, 3)
    assert available_colors(p3, l3, (1, 3, 2), 1) == {3}

    star = build_complete_regular(3, 1)
    l5 = uniform_lists(star, 5)
    assert available_colors(star, l5, (1, 2, 3), 2) == {3, 4, 5}


def test_available_colors_fully_surrounded():
    # both endpoints of the middle edge have degree delta = 3 and all other
    # colors appear around it, so only its own color remains
    dstar = tree_from_parents([None, 0, 0, 0, 1, 1], 0)
    l4 = uniform_lists(dstar, 4)
    coloring = (1, 2, 3, 2, 4)  # edge 0 = (u,v); u leaves 2,3; v leaves 2,4
    assert is_proper(dstar, l4, coloring)
    assert available_colors(dstar, l4, coloring, 0) == {1}


def test_alternating_path_examples():
    t = build_hanging_root(2, 3)  # path r, e1, e2, e3
    r = hanging_root_edge(t)
    # no continuation: child of r not colored 2
    assert alternating_path(t, (1, 3, 1, 3), r, 2) == [r]
    # stops at the first color break
    assert alternating_path(t, (1, 2, 1, 3), r, 2) == [0, 1, 2]
    with pytest.raises(ParameterError):
        alternating_path(t, (1, 2, 1, 3), r, 1)


def test_alternating_path_is_maximal_two_colored():
    tree = build_hanging_root(3, 2)
    lists = star_root_lists(tree, 5)
    r = hanging_root_edge(tree)
    for sigma in states_of(oracle.enumerate_colorings(tree, lists)):
        a = sigma[r]
        b = 1 if a != 1 else 2
        path = alternating_path(tree, sigma, r, b)
        colors = [sigma[e] for e in path]
        assert all(c == (a if i % 2 == 0 else b) for i, c in enumerate(colors))
        # maximality: no downward extension carries the wanted color
        last = path[-1]
        want = b if len(path) % 2 == 1 else a
        assert all(sigma[f] != want for f in tree.child_edges[last])


def test_flip_examples():
    t = build_hanging_root(2, 3)
    r = hanging_root_edge(t)
    lists = uniform_lists(t, 4)
    sigma = (1, 3, 4, 3)
    assert flip(t, sigma, r, 2) == (2, 3, 4, 3)

    p3 = path_tree(3)
    assert flip(p3, (1, 2, 1), 0, 2) == (2, 1, 2)


def test_flip_involution_and_properness():
    tree = build_hanging_root(2, 3)
    lists = star_root_lists(tree, 4)
    r = hanging_root_edge(tree)
    dist = oracle.enumerate_colorings(tree, lists)
    for sigma in states_of(dist):
        for b in sorted(lists[r] - {sigma[r]}):
            tau = flip(tree, sigma, r, b)
            assert is_proper(tree, lists, tau)
            assert flip(tree, tau, r, sigma[r]) == sigma
            diff = {e for e in range(tree.n_edges) if sigma[e] != tau[e]}
            assert diff == set(alternating_path(tree, sigma, r, b))


def test_flip_bijection_between_fibers():
    tree = build_hanging_root(3, 2)
    lists = star_root_lists(tree, 5)
    r = hanging_root_edge(tree)
    dist = oracle.enumerate_colorings(tree, lists)
    states = states_of(dist)
    fiber1 = [s for s in states if s[r] == 1]
    fiber2 = {s for s in states if s[r] == 2}
    image = {flip(tree, s, r, 2) for s in fiber1}
    assert image == fiber2


def test_toggle_edge():
    # the move of the depth-one reference routing
    p2 = path_tree(2)
    l3 = uniform_lists(p2, 3)
    # edge 1 has two available colors {2,3}; toggling switches between them
    assert toggle_edge(p2, l3, (1, 2), 1) == (1, 3)
    assert toggle_edge(p2, l3, toggle_edge(p2, l3, (1, 2), 1), 1) == (1, 2)
    # edge 0 of a frozen star cannot move
    star = build_complete_regular(3, 1)
    assert toggle_edge(star, uniform_lists(star, 3), (1, 2, 3), 0) == (1, 2, 3)


def test_list_preset_validation():
    from treecolor.colorings import pinned_root_lists
    t = build_hanging_root(3, 1)
    with pytest.raises(ParameterError):
        pinned_root_lists(t, 5, 6)
    with pytest.raises(ParameterError):
        star_root_lists(t, 2)  # root list 1..q-d would be empty
    star = build_complete_regular(3, 1)
    with pytest.raises(ParameterError):
        star_root_lists(star, 5)  # no hanging root edge

