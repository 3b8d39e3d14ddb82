import pytest

from treecolor import trees
from treecolor.errors import ParameterError
from treecolor.trees import (Tree, build_complete_regular, build_hanging_root,
                             hanging_root_edge, load_tree, save_tree,
                             tree_from_parents)


def test_complete_regular_shapes():
    t = build_complete_regular(3, 2)
    assert t.n_edges == 9
    assert len(t.level_edges(1)) == 3
    assert len(t.level_edges(2)) == 6

    path = build_complete_regular(2, 3)
    assert path.n_edges == 6
    assert path.degree[path.root] == 2  # root in the middle

    t4 = build_complete_regular(4, 2)
    assert t4.n_edges == 16


def test_complete_regular_edge_count_formula():
    for delta in (3, 4, 5):
        for k in (1, 2):
            t = build_complete_regular(delta, k)
            expect = delta * ((delta - 1) ** k - 1) // (delta - 2)
            assert t.n_edges == expect


def test_hanging_root_shapes():
    t = build_hanging_root(3, 1)
    assert t.n_edges == 3
    assert t.level_edges(0) == {hanging_root_edge(t)}

    path = build_hanging_root(2, 3)
    assert path.n_edges == 4
    assert path.max_degree == 2

    t2 = build_hanging_root(3, 2)
    assert t2.n_edges == 7
    assert [len(t2.level_edges(i)) for i in range(3)] == [1, 2, 4]


def test_hanging_root_builds_one_tree(monkeypatch):
    # the levels come from the vertex depths: those of a second build of the
    # same parent array, less one
    builds = []

    class Counted(Tree):
        def __init__(self, *args, **kwargs):
            builds.append(args)
            super().__init__(*args, **kwargs)

    for delta in (2, 3, 4):
        for ell in (1, 2, 3, 4):
            builds.clear()
            with monkeypatch.context() as mp:
                mp.setattr(trees, "Tree", Counted)
                tree = build_hanging_root(delta, ell)
            assert len(builds) == 1
            levels = tuple(lv - 1 for lv in Tree(list(tree.parent), 0).edge_levels)
            assert tree.edge_levels == levels and tree.max_level == ell


def test_bad_parameters():
    with pytest.raises(ParameterError):
        build_complete_regular(1, 2)
    with pytest.raises(ParameterError):
        build_complete_regular(3, 0)
    with pytest.raises(ParameterError):
        build_hanging_root(3, 0)


def test_level_partition_and_range_error():
    t = build_hanging_root(3, 2)
    total = sum(len(t.level_edges(i)) for i in range(t.max_level + 1))
    assert total == t.n_edges
    with pytest.raises(ParameterError):
        t.level_edges(t.max_level + 1)


def edge_neighbors(tree, e):
    """The edges adjacent to ``e`` (its line-graph neighborhood) as a set."""
    return frozenset(tree.neighbors[e])


def test_edge_neighbors():
    path = tree_from_parents([None, 0, 1, 2], 0)
    assert edge_neighbors(path, 1) == {0, 2}

    star = build_complete_regular(3, 1)
    assert edge_neighbors(star, 0) == {1, 2}

    t = build_complete_regular(3, 2)
    leaf = max(t.level_edges(2))
    nbrs = edge_neighbors(t, leaf)
    assert len(nbrs) == 2  # parent edge plus one sibling
    assert any(t.edge_levels[f] == 1 for f in nbrs)


def test_neighbor_symmetry_and_degree_bound():
    t = build_complete_regular(4, 2)
    for e in range(t.n_edges):
        for f in edge_neighbors(t, e):
            assert e in edge_neighbors(t, f)
        assert len(edge_neighbors(t, e)) <= 2 * (t.max_degree - 1)


def test_bfs_indexing_deterministic():
    a = build_complete_regular(3, 2)
    b = build_complete_regular(3, 2)
    assert a.edge_child_vertex == b.edge_child_vertex
    assert a.edge_parent_vertex == b.edge_parent_vertex
    assert a.edge_levels == b.edge_levels


def test_parent_array_validation():
    with pytest.raises(ParameterError):
        Tree([None, 2, 1], 0)  # disconnected cycle-ish
    with pytest.raises(ParameterError):
        Tree([None], 0)


def test_file_round_trip(tmp_path):
    t = build_complete_regular(3, 2)
    path = tmp_path / "tree.txt"
    save_tree(t, path)
    back = load_tree(path)
    assert back.parent == t.parent
    assert back.root == t.root
    assert back.content_hash() == t.content_hash()
    # generic levels on load start at 1
    star = build_hanging_root(3, 1)
    save_tree(star, path)
    loaded = load_tree(path)
    assert loaded.min_level == 1


def test_content_hash_distinguishes_shapes():
    assert (build_complete_regular(3, 2).content_hash()
            != build_complete_regular(3, 1).content_hash())
