"""The array-built support against the recursive enumerator it replaced.

``enumerate_colorings`` builds the (N x m) color array one edge at a time;
the reference below assigns colors depth first and appends one tuple per
coloring.  Both must give the same rows in the same order, and every view
of the support (its tuples and index as the tests read them, conditionals,
marginals, export) must agree.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from coloring_reference import index_of, states_of
from enumeration_reference import reference_rows
from treecolor import oracle
from treecolor.colorings import (ListSpec, pinned_root_lists, star_root_lists,
                                 uniform_lists)
from treecolor.errors import (CapacityError, InfeasiblePinningError,
                              VerificationError)
from treecolor.trees import (build_complete_regular, build_hanging_root,
                             load_tree, save_tree, tree_from_parents)


def path_tree(n):
    return tree_from_parents([None] + list(range(n)), 0)


ZOO = [
    (path_tree(4), 3), (path_tree(3), 4),
    (build_complete_regular(3, 1), 4),
    (build_complete_regular(2, 2), 4),
    (build_hanging_root(3, 1), 4),
    (tree_from_parents([None, 0, 0, 0, 1, 1], 0), 4),
]

HANGING = [(build_hanging_root(3, 1), 4), (build_hanging_root(2, 3), 4),
           (build_hanging_root(3, 2), 5)]


def reference_states(tree, lists):
    """Depth-first assignment along BFS edge ids, colors ascending."""
    m = tree.n_edges
    earlier = oracle._earlier_neighbors(tree)
    options = [sorted(lists[e]) for e in range(m)]
    states = []
    current = [0] * m

    def assign(e):
        if e == m:
            states.append(tuple(current))
            return
        blocked = {current[f] for f in earlier[e]}
        for c in options[e]:
            if c not in blocked:
                current[e] = c
                assign(e + 1)
        current[e] = 0

    assign(0)
    return states


def reference_marginal(states, S):
    out = {}
    for s in states:
        key = tuple(s[e] for e in S)
        out[key] = out.get(key, 0) + 1
    return {k: v / len(states) for k, v in out.items()}


def assert_matches_reference(tree, lists):
    dist = oracle.enumerate_colorings(tree, lists)
    states = reference_states(tree, lists)
    rows = [list(s) for s in states]
    assert dist.array.dtype == np.min_scalar_type(lists.q)
    assert dist.array.tolist() == rows
    assert states_of(dist) == states
    assert index_of(dist) == {s: i for i, s in enumerate(states)}
    assert dist.export(include_states=True)["states"] == rows
    m = tree.n_edges
    for e in range(m):
        for c in sorted(lists[e]):
            sub = [s for s in states if s[e] == c]
            if not sub:
                with pytest.raises(InfeasiblePinningError):
                    dist.conditional({e: c})
                continue
            cond = dist.conditional({e: c})
            assert states_of(cond) == sub
            if m > 1:
                f = tree.neighbors[e][0]
                pair = {e: c, f: sub[-1][f]}
                pinned = [s for s in sub if s[f] == sub[-1][f]]
                assert dist.conditional(pair).array.tolist() == [list(s) for s in pinned]
    for S in [[e] for e in range(m)] + [list(tree.neighbors[0]) + [0], list(range(m))]:
        got = dist.marginal(S)
        assert list(got.items()) == list(reference_marginal(states, sorted(S)).items())
        assert all(type(k[0]) is int and type(p) is float for k, p in got.items())


@pytest.mark.parametrize("tree,q", HANGING)
def test_marginal_makes_no_unique_call(tree, q, monkeypatch):
    dist = oracle.enumerate_colorings(tree, star_root_lists(tree, q))
    states, m = states_of(dist), tree.n_edges
    blocks = [[0], [m - 1], [1, m - 2], [0, m // 2, m - 1], list(range(m))]
    want = [list(reference_marginal(states, S).items()) for S in blocks]

    def unique(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(np, "unique", unique)
    assert [list(dist.marginal(S).items()) for S in blocks] == want


@pytest.mark.parametrize("tree,q", ZOO)
def test_uniform_support_matches_recursive_enumerator(tree, q):
    assert_matches_reference(tree, uniform_lists(tree, q))


@pytest.mark.parametrize("tree,q", HANGING)
def test_root_list_supports_match_recursive_enumerator(tree, q):
    assert_matches_reference(tree, star_root_lists(tree, q))
    assert_matches_reference(tree, pinned_root_lists(tree, q, 2))


# Three mutually adjacent edges; the last may only take color 1, so four of
# the six colorings of the first two edges have no extension.
STAR = build_complete_regular(3, 1)
FULL = frozenset({1, 2, 3})
DYING_LISTS = ListSpec(3, [FULL, FULL, frozenset({1})])


def test_prefixes_that_die_before_the_last_edge():
    assert_matches_reference(STAR, DYING_LISTS)
    dist = oracle.enumerate_colorings(STAR, DYING_LISTS)
    assert states_of(dist) == [(2, 3, 1), (3, 2, 1)]


def test_prefix_cap_guard():
    assert oracle.count_colorings(STAR, DYING_LISTS) == 2
    with pytest.raises(CapacityError) as err:
        oracle.enumerate_colorings(STAR, DYING_LISTS, cap=3)
    assert err.value.estimated == 6


# Each list leaves out a color an earlier neighbor may carry, so a row has
# more or fewer choices on an edge by whether that neighbor's color is in it.
SPARSE_LISTS = ListSpec(4, [{1, 2, 3}, {1, 2, 4}, {3, 4}, {1, 4}, {2, 3, 4}])
SPARSE_TREE = tree_from_parents([None, 0, 0, 1, 1, 2], 0)


def test_lists_that_miss_an_earlier_neighbor_color():
    earlier = oracle._earlier_neighbors(SPARSE_TREE)
    assert any(SPARSE_LISTS[f] - SPARSE_LISTS[e] for e in range(5) for f in earlier[e])
    assert_matches_reference(SPARSE_TREE, SPARSE_LISTS)
    dist = oracle.enumerate_colorings(SPARSE_TREE, SPARSE_LISTS)
    assert np.array_equal(dist.array, reference_rows(SPARSE_TREE, SPARSE_LISTS))


# Edges with three earlier neighbors: the last leaf of a star and the last
# child edge below a degree-4 vertex.
HANGING_FOUR = build_hanging_root(4, 1)
DEGREE_FOUR = [(build_complete_regular(4, 1), 4), (build_complete_regular(4, 1), 5),
               (tree_from_parents([None, 0, 0, 1, 1, 1], 0), 4)]


@pytest.mark.parametrize("tree,lists", [(t, uniform_lists(t, q)) for t, q in DEGREE_FOUR]
                         + [(HANGING_FOUR, star_root_lists(HANGING_FOUR, 5))])
def test_three_earlier_neighbors(tree, lists):
    assert max(map(len, oracle._earlier_neighbors(tree))) == 3
    assert_matches_reference(tree, lists)


def test_relabeled_file_tree(tmp_path):
    tree = build_complete_regular(3, 2)
    label = [0] + (1 + np.random.default_rng(3).permutation(tree.n_vertices - 1)).tolist()
    parent = [None] * tree.n_vertices
    for v, p in enumerate(tree.parent):
        if p is not None:
            parent[label[v]] = label[p]
    save_tree(tree_from_parents(parent, 0), tmp_path / "tree.txt")
    relabeled = load_tree(tmp_path / "tree.txt")
    assert relabeled.edge_child_vertex != tree.edge_child_vertex
    assert_matches_reference(relabeled, uniform_lists(relabeled, 4))
    assert (oracle.enumerate_colorings(relabeled, uniform_lists(relabeled, 4)).size
            == oracle.count_colorings(tree, uniform_lists(tree, 4)))


@pytest.mark.parametrize("tree,lists", [
    (path_tree(18), uniform_lists(path_tree(18), 3)),
    (build_complete_regular(3, 2), uniform_lists(build_complete_regular(3, 2), 4)),
    (build_hanging_root(3, 2), star_root_lists(build_hanging_root(3, 2), 5)),
    (build_hanging_root(3, 2), pinned_root_lists(build_hanging_root(3, 2), 5, 2)),
])
def test_support_bit_identical_to_mask_builder(tree, lists):
    got = oracle.enumerate_colorings(tree, lists).array
    want = reference_rows(tree, lists)
    assert np.array_equal(got, want)
    assert got.dtype == want.dtype == np.min_scalar_type(lists.q)
    assert got.flags.c_contiguous


def test_wide_lists_build_no_quadratic_table():
    # a pinned root edge leaves one prefix and q choices below it, so the
    # step may hold O(q + rows x |L_e|) but no table of q x |L_e| entries
    tree, q = build_hanging_root(2, 1), 4000
    tracemalloc.start()
    try:
        dist = oracle.enumerate_colorings(tree, pinned_root_lists(tree, q, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist.size == q - 1
    assert peak < q * q // 4  # 4 MB; a (q+1) x q boolean table alone is 16 MB


def record_joins(monkeypatch):
    """Record (split edge, suffix rows per boundary tuple) of every join."""
    joins, join = [], oracle._join

    def recording(prefix, inv, suffix, ids, h):
        joins.append((h, np.bincount(ids, minlength=inv.max() + 1).tolist()))
        return join(prefix, inv, suffix, ids, h)

    monkeypatch.setattr(oracle, "_join", recording)
    return joins


@pytest.mark.parametrize("tree,lists,split", [
    (path_tree(18), uniform_lists(path_tree(18), 3), (10, [256] * 3)),
    # below SPLIT_STATES: the spectral and congestion instances of the benchmark
    (path_tree(8), uniform_lists(path_tree(8), 4), None),
    (build_complete_regular(2, 5), uniform_lists(build_complete_regular(2, 5), 3), None),
    (build_hanging_root(2, 7), star_root_lists(build_hanging_root(2, 7), 4), None),
    # above it (89,700 states), but its one split has 300 boundary tuples,
    # and 300 x 89,700 is more than the square of its 300 prefixes
    (build_complete_regular(2, 1), uniform_lists(build_complete_regular(2, 1), 300), None),
])
def test_which_supports_split(monkeypatch, tree, lists, split):
    joins = record_joins(monkeypatch)
    oracle.enumerate_colorings(tree, lists)
    assert joins == ([] if split is None else [split])


# A caterpillar: the spine 0-1-...-8 with a leaf below each of 1..8.  The
# lists after the split edge tie the completions to the boundary colors: one
# boundary tuple has none, the others have 40 or 80.
CATERPILLAR = tree_from_parents([None] + list(range(8)) + list(range(1, 9)), 0)
FULL4 = frozenset({1, 2, 3, 4})
CATERPILLAR_LISTS = ListSpec(4, [FULL4] * 8 + [{4}, {2, 3}, {2, 4}, {2, 3, 4}]
                             + [FULL4] * 3 + [{4}])


def test_split_support_where_prefixes_die_in_the_suffix(monkeypatch):
    joins = record_joins(monkeypatch)
    dist = oracle.enumerate_colorings(CATERPILLAR, CATERPILLAR_LISTS)
    assert joins == [(7, [40, 80, 80, 0])]
    want = reference_rows(CATERPILLAR, CATERPILLAR_LISTS)
    assert np.array_equal(dist.array, want) and dist.array.dtype == want.dtype
    assert dist.array.flags.c_contiguous


def test_cap_trips_in_the_suffix_pass(monkeypatch):
    # the last edge takes only color 1, so a third of the 3 * 2^16 colorings
    # of edges 0..16 die there: the support is 2^17 states
    tree = path_tree(18)
    lists = ListSpec(3, [frozenset({1, 2, 3})] * 17 + [frozenset({1})])
    joins = record_joins(monkeypatch)
    assert oracle.enumerate_colorings(tree, lists).size == 2 ** 17
    assert [h for h, _ in joins] == [9]
    errors = []
    for split_states in (oracle.SPLIT_STATES, 2 ** 18):  # split, then one pass
        monkeypatch.setattr(oracle, "SPLIT_STATES", split_states)
        with pytest.raises(CapacityError, match="of edges 0..16, above the cap") as err:
            oracle.enumerate_colorings(tree, lists, cap=150_000)
        errors.append(err.value.estimated)
    assert errors == [3 * 2 ** 16] * 2


def test_split_on_a_pinned_root_at_q_4000(monkeypatch):
    # colors near 4,000 on a boundary of four edges, ranked in one key and
    # then in groups of columns
    tree, q = build_hanging_root(3, 4), 4000
    lists = ListSpec(q, [s if len(s) == 1 else frozenset({q - 2, q - 1, q})
                         for s in pinned_root_lists(tree, q, q).lists])
    want = reference_rows(tree, lists)
    joins = record_joins(monkeypatch)
    for key_limit in (oracle.KEY_LIMIT, (q + 2) ** 2 + 1):
        monkeypatch.setattr(oracle, "KEY_LIMIT", key_limit)
        got = oracle.enumerate_colorings(tree, lists).array
        assert got.dtype == want.dtype == np.uint16 and np.array_equal(got, want)
    assert joins == [(23, [16] * 16)] * 2
    assert len({f for g in oracle._earlier_neighbors(tree)[23:] for f in g if f < 23}) == 4


def test_support_memory_stays_near_its_size():
    # the join writes the support once, in chunks: no step holds two copies
    tree = path_tree(18)
    tracemalloc.start()
    try:
        dist = oracle.enumerate_colorings(tree, uniform_lists(tree, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * dist.array.nbytes


def test_row_count_checked_against_count(monkeypatch):
    count = oracle.count_colorings
    monkeypatch.setattr(oracle, "count_colorings", lambda tree, lists: count(tree, lists) + 1)
    with pytest.raises(VerificationError, match="enumerated 2 colorings, counted 3"):
        oracle.enumerate_colorings(STAR, DYING_LISTS)


def assert_rows_of_matches_index(dist, rng):
    index = index_of(dist)
    assert dist.rows_of(dist.array).tolist() == list(range(dist.size))
    assert dist.rows_of(dist.array[::-1]).tolist() == list(range(dist.size))[::-1]
    # one edge recolored at random: a member exactly when the index has it
    probe = dist.array.astype(np.int64)
    cols = rng.integers(0, probe.shape[1], len(probe))
    probe[np.arange(len(probe)), cols] = rng.integers(0, dist.lists.q + 2, len(probe))
    want = [index.get(tuple(s), -1) for s in probe.tolist()]
    assert dist.rows_of(probe).tolist() == want
    assert -1 in want


@pytest.mark.parametrize("tree,q", ZOO + HANGING)
def test_rows_of_matches_index(tree, q):
    rng = np.random.default_rng(7)
    assert_rows_of_matches_index(oracle.enumerate_colorings(tree, uniform_lists(tree, q)), rng)
    if (tree, q) in HANGING:
        assert_rows_of_matches_index(
            oracle.enumerate_colorings(tree, star_root_lists(tree, q)), rng)


def test_rows_of_without_key_overflow():
    rng = np.random.default_rng(8)
    # 70 edges, two colors: 4^70 (radix q+2) exceeds any int64 key, so the
    # columns split into groups of 30, 30 and 10
    long = oracle.enumerate_colorings(path_tree(70), uniform_lists(path_tree(70), 2))
    assert long.size == 2
    assert [len(place) for place in long._keys[1]] == [30, 30, 10]
    assert_rows_of_matches_index(long, rng)
    # 300 colors are stored as uint16
    star = build_complete_regular(2, 1)
    wide = oracle.enumerate_colorings(star, uniform_lists(star, 300))
    assert wide.array.dtype == np.uint16 and wide.size == 300 * 299
    assert_rows_of_matches_index(wide, rng)
    assert wide.rows_of([[300, 299], [299, 299], [301, 1]]).tolist() == [wide.size - 1, -1, -1]
    assert wide.rows_of(np.array([[1, 301], [0, 1]], dtype=np.uint16)).tolist() == [-1, -1]


def test_rows_of_searches_bytes_in_color_order(monkeypatch):
    # the 300-color star with its key in two groups: its uint16 rows are
    # searched by their bytes, which follow the colors only big-endian (1
    # and 257 share their low byte, as 0 and 256 do)
    star, q = build_complete_regular(2, 1), 300
    monkeypatch.setattr(oracle, "KEY_LIMIT", (q + 2) ** 2)
    wide = oracle.enumerate_colorings(star, uniform_lists(star, q))
    assert wide.array.dtype == np.uint16 and len(wide._keys[0]) == 2
    index = index_of(wide)
    probe = list(itertools.product([1, 255, 256, 257, 299, 300, 0, 301], repeat=2))
    want = [index.get(s, -1) for s in probe]
    assert wide.rows_of(probe).tolist() == want
    assert wide.rows_of(np.array(probe, dtype=np.uint16)).tolist() == want
    assert want.count(-1) == 8 * 8 - 6 * 5  # the members: two distinct colors of 1..q


def test_one_group_rows_of_keys_queries_with_the_cached_place_values(monkeypatch):
    # the table keys its rows once; a lookup in one key group reuses those
    # place values and makes no key of its own
    tree = build_hanging_root(3, 2)
    dist = oracle.enumerate_colorings(tree, star_root_lists(tree, 5))
    assert len(dist._keys[0]) == 1
    calls, digit_keys = [], oracle._digit_keys
    monkeypatch.setattr(oracle, "_digit_keys", lambda *args: calls.append(args) or digit_keys(*args))
    assert dist.rows_of(dist.array).tolist() == list(range(dist.size))
    improper = dist.array[:3].copy()
    improper[:, 1] = improper[:, 0]  # the root edge's color on its child edge
    assert dist.rows_of(improper).tolist() == [-1] * 3
    assert calls == []


@pytest.mark.parametrize("tree,q", [(path_tree(10), 3), (build_complete_regular(3, 2), 4),
                                    (build_hanging_root(3, 2), 5)])
def test_rows_of_in_key_groups_matches_index(tree, q, monkeypatch):
    # one column per key group, then two: the key spans several groups, so
    # the rows are searched by their bytes
    rng = np.random.default_rng(30)
    for width, key_limit in ((1, 1), (2, (q + 2) ** 2 + 1)):
        monkeypatch.setattr(oracle, "KEY_LIMIT", key_limit)
        dist = oracle.enumerate_colorings(tree, uniform_lists(tree, q))
        m = tree.n_edges
        assert dist.size >= 1000
        cut = [len(place) for place in dist._keys[1]]
        assert cut == [width] * (m // width) + [1] * (m % width)
        assert_rows_of_matches_index(dist, rng)
        # colors outside 1..q in one random cell of each row
        probe = dist.array.astype(np.int64)
        probe[np.arange(len(probe)), rng.integers(0, m, len(probe))] = rng.choice(
            [-1, 0, q + 1, q + 2, 255, 2 ** 40], len(probe))
        assert dist.rows_of(probe).tolist() == [-1] * len(probe)


def test_rows_of_refuses_rows_out_of_order():
    dist = oracle.enumerate_colorings(path_tree(4), uniform_lists(path_tree(4), 3))
    for array in (dist.array[::-1], np.repeat(dist.array, 2, axis=0)):
        table = oracle.DistributionTable(dist.tree, dist.lists, array)
        with pytest.raises(VerificationError, match="do not ascend strictly"):
            table.rows_of(dist.array[:1])


@pytest.mark.parametrize("tree,q", HANGING)
def test_rows_of_colors_outside_the_lists(tree, q):
    # every color outside 1..q is written as 0, which no row carries,
    # whatever the input dtype and in every column
    dist = oracle.enumerate_colorings(tree, uniform_lists(tree, q))
    assert dist.array.dtype == np.uint8
    row = dist.size // 2
    for bad, dtype in ((0, np.uint8), (q + 1, np.uint8), (255, np.uint8),
                       (-1, np.int64), (q + 1, np.int64)):
        probe = np.repeat(dist.array[row, None].astype(dtype), tree.n_edges, axis=0)
        probe[np.arange(tree.n_edges), np.arange(tree.n_edges)] = bad
        assert dist.rows_of(probe).tolist() == [-1] * tree.n_edges
        if dtype is np.int64:
            assert dist.rows_of(probe.tolist()).tolist() == [-1] * tree.n_edges
    assert dist.rows_of(dist.array[row, None]).tolist() == [row]
    # colors that, read as raw digits, would carry into the next column and
    # spell the key of the row itself
    e, radix = np.arange(1, tree.n_edges), q + 2
    for dtype, carry in ((np.uint8, 1), (np.int64, -1)):
        probe = np.repeat(dist.array[row, None].astype(dtype), len(e), axis=0)
        probe[e - 1, e - 1] -= carry
        probe[e - 1, e] += carry * radix
        assert dist.rows_of(probe).tolist() == [-1] * len(e)
