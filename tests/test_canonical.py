import hashlib
import json
import math
import os

import pytest

import numpy as np

from coloring_reference import alternating_path, flip, index_of, states_of
from path_reference import (CanonicalPath, batch_of_paths,
                            leaf_multiplicity_sums, reference_gamma_stats,
                            reference_leaf_count_check, reference_path,
                            reference_routing_bound_ell1,
                            reference_stage_one_moves, reference_step_blocks,
                            reference_tail_probability_check, toggle_routes,
                            unpack, verify_path)
from treecolor import canonical, colorings, oracle
from treecolor.canonical import (EDGE_PATHS, GLAUBER_PATHS, build_paths,
                                 color_order, compute_congestion,
                                 flip_coupling, flip_rows, path_family,
                                 routing_bound_ell1, verify_paths)
from treecolor.colorings import star_root_lists, uniform_lists
from treecolor.errors import (ParameterError, UnsupportedRegimeError,
                              VerificationError)
from treecolor.trees import build_hanging_root, hanging_root_edge


def star_instance(delta, ell, q):
    tree = build_hanging_root(delta, ell)
    lists = star_root_lists(tree, q)
    dist = oracle.enumerate_colorings(tree, lists)
    return tree, lists, dist


def families(lists, r):
    """Every ordered pair of distinct root colors."""
    return [(a, b) for a in sorted(lists[r]) for b in sorted(lists[r]) if a != b]


def fiber(dist, r, a):
    return np.flatnonzero(dist.array[:, r] == a)


def flip_ends(dist, a, b):
    """The end rows of the (a, b) family, in path order: the flip of fiber a."""
    return flip_coupling(dist.tree, dist.lists, a, b, dist).pairs[:, 1]


def family_steps(dist, a, b, kind, ends=None):
    """The (a, b) family's paths from all of fiber a, built and verified, as
    ``compute_congestion`` keeps the family it builds."""
    family = path_family(dist.tree, dist.lists, a, b, kind)
    batch = build_paths(family, dist, fiber(dist, hanging_root_edge(dist.tree), a))
    src, dst, block_of, blocks = verify_paths(dist, batch, ends)
    return canonical.FamilySteps(family, batch.lengths, src, dst, block_of, blocks,
                                 canonical._runs(src * dist.size + dst))


def fiber_paths(dist, a, b, kind):
    """The (a, b) family's paths from every root-color-a row, read out of one
    ``build_paths`` batch."""
    tree = dist.tree
    family = path_family(tree, dist.lists, a, b, kind)
    starts = fiber(dist, hanging_root_edge(tree), a)
    return unpack(dist, build_paths(family, dist, starts))


# (delta, ell, q, kind): the instances of the tests below plus the two
# hanging-root trees of the congestion benchmark
PATH_INSTANCES = [
    (2, 1, 4, GLAUBER_PATHS), (2, 2, 4, GLAUBER_PATHS), (2, 3, 4, GLAUBER_PATHS),
    (3, 1, 5, GLAUBER_PATHS), (2, 7, 4, GLAUBER_PATHS), (3, 2, 5, GLAUBER_PATHS),
    (2, 3, 3, EDGE_PATHS), (3, 1, 4, EDGE_PATHS), (2, 5, 3, EDGE_PATHS),
    (4, 1, 5, EDGE_PATHS),
]


def test_color_order():
    assert color_order(5, 2, 1) == (3, 4, 5, 2, 1)
    assert color_order(4, 1, 2) == (3, 4, 1, 2)
    with pytest.raises(ParameterError):
        color_order(4, 2, 2)


def test_flip_coupling_counts_and_symmetry():
    tree, lists, dist = star_instance(3, 1, 5)
    r = hanging_root_edge(tree)
    c12 = flip_coupling(tree, lists, 1, 2, dist)
    assert c12.pairs.shape == (12, 2)
    assert abs(c12.weight - 1.0 / 12.0) < 1e-15
    # support rows, the root-color-1 fiber in support order
    assert c12.pairs[:, 0].tolist() == np.flatnonzero(dist.array[:, r] == 1).tolist()
    c21 = flip_coupling(tree, lists, 2, 1, dist)
    assert ({frozenset(p) for p in c12.pairs.tolist()}
            == {frozenset(p) for p in c21.pairs.tolist()})
    states = states_of(dist)
    for x, y in c12.pairs.tolist():
        sigma, tau = states[x], states[y]
        assert tau == flip(tree, sigma, r, 2)
        diff = {e for e in range(tree.n_edges) if sigma[e] != tau[e]}
        assert diff == set(alternating_path(tree, sigma, r, 2))


def test_trivial_path_single_move():
    tree, lists, dist = star_instance(3, 1, 5)
    r = hanging_root_edge(tree)
    sigma = next(s for s in states_of(dist)
                 if s[r] == 1 and all(s[e] != 2 for e in tree.child_edges[r]))
    path = next(p for p in fiber_paths(dist, 1, 2, GLAUBER_PATHS) if p.sigma == sigma)
    assert len(path) == 1
    assert path.stages == ["II"]
    assert path.tau == flip(tree, sigma, r, 2)


def test_glauber_paths_verify_exhaustively():
    for delta, ell in ((2, 1), (2, 3), (3, 1)):
        tree, lists, dist = star_instance(delta, ell, delta + 2)
        r = hanging_root_edge(tree)
        for a in sorted(lists[r]):
            for b in sorted(lists[r]):
                if a == b:
                    continue
                family = path_family(tree, lists, a, b, GLAUBER_PATHS)
                verify_paths(dist, build_paths(family, dist, fiber(dist, r, a)))


def test_glauber_stage_two_avoids_leaves_when_depth_odd():
    tree, lists, dist = star_instance(2, 3, 4)
    ell = tree.max_level
    for path in fiber_paths(dist, 1, 2, GLAUBER_PATHS):
        for block, stage in zip(path.blocks, path.stages):
            if stage == "II":
                assert tree.edge_levels[block[0]] < ell


def test_glauber_regime_guard():
    tree, lists, dist = star_instance(2, 1, 3)  # q = delta + 1
    with pytest.raises(UnsupportedRegimeError):
        fiber_paths(dist, 1, 2, GLAUBER_PATHS)


def test_stage_three_is_reverse_stage_one_with_roles_swapped():
    tree, lists, dist = star_instance(2, 3, 4)
    order = color_order(lists.q, 1, 2)
    for path in fiber_paths(dist, 1, 2, GLAUBER_PATHS):
        tau = path.tau
        # moves of stage III as (edge, old, new) triples
        stage3 = [(path.blocks[i][0], path.states[i][path.blocks[i][0]],
                   path.states[i + 1][path.blocks[i][0]])
                  for i in range(len(path)) if path.stages[i] == "III"]
        forward = reference_stage_one_moves(tree, lists, tau, 2, 1, order)
        replay = []
        cur = list(tau)
        for e, c in forward:
            replay.append((e, cur[e], c))
            cur[e] = c
        # reversing the replayed moves must give stage III exactly
        assert [(e, new, old) for e, old, new in reversed(replay)] == stage3


def test_edge_paths_verify_exhaustively():
    for delta, ell in ((2, 3), (3, 1)):
        tree, lists, dist = star_instance(delta, ell, delta + 1)
        r = hanging_root_edge(tree)
        for a in sorted(lists[r]):
            for b in sorted(lists[r]):
                if a == b:
                    continue
                family = path_family(tree, lists, a, b, EDGE_PATHS)
                verify_paths(dist, build_paths(family, dist, fiber(dist, r, a)))


def test_edge_path_pair_exchange_cases():
    tree, lists, dist = star_instance(2, 3, 3)
    r = hanging_root_edge(tree)
    for path in fiber_paths(dist, 1, 2, EDGE_PATHS):
        estar = alternating_path(tree, path.sigma, r, 2)
        pair_moves = [b for b in path.blocks if len(b) == 2]
        if len(estar) % 2 == 1 or len(estar) == tree.max_level + 1:
            assert not pair_moves
        else:
            assert len(pair_moves) == 1
            assert set(pair_moves[0]) == {r, estar[1]}
        if len(estar) == 1:
            assert len(path) == 1


def test_edge_path_regime_guards():
    tree, lists, dist = star_instance(2, 2, 3)  # even depth
    with pytest.raises(UnsupportedRegimeError):
        fiber_paths(dist, 1, 2, EDGE_PATHS)
    tree2, lists2, dist2 = star_instance(2, 1, 4)  # q = delta + 2
    with pytest.raises(UnsupportedRegimeError):
        fiber_paths(dist2, 1, 2, EDGE_PATHS)


def test_verify_path_catches_corruption():
    tree, lists, dist = star_instance(2, 1, 4)
    r = hanging_root_edge(tree)
    path = fiber_paths(dist, 1, 2, GLAUBER_PATHS)[0]
    broken = CanonicalPath(path.states + [path.states[0]],
                           path.blocks + [(r,)],
                           path.stages + ["III"], a=1, b=2)
    with pytest.raises(VerificationError):
        verify_paths(dist, batch_of_paths(dist, [broken]))


def test_batch_verdict_matches_reference_verifier():
    families_ = [((2, 1), GLAUBER_PATHS), ((2, 3), GLAUBER_PATHS),
                 ((3, 1), GLAUBER_PATHS), ((2, 3), EDGE_PATHS),
                 ((3, 1), EDGE_PATHS)]
    for (delta, ell), kind in families_:
        spare = 2 if kind == GLAUBER_PATHS else 1
        tree, lists, dist = star_instance(delta, ell, delta + spare)
        r = hanging_root_edge(tree)
        for a, b in families(lists, r):
            batch = build_paths(path_family(tree, lists, a, b, kind), dist,
                                fiber(dist, r, a))
            verify_paths(dist, batch)  # raises unless every path passes
            assert all(verify_path(tree, lists, p, kind)[0]
                       for p in unpack(dist, batch))


def test_step_blocks_match_the_change_masks():
    # the blocks read off the recorded edits against those read off the
    # change masks of the rows: the same steps and the same block per step
    for delta, ell, q, kind in PATH_INSTANCES:
        tree, lists, dist = star_instance(delta, ell, q)
        r = hanging_root_edge(tree)
        for a, b in families(lists, r):
            batch = build_paths(path_family(tree, lists, a, b, kind), dist,
                                fiber(dist, r, a))
            src, dst, block_of, blocks = verify_paths(dist, batch)
            ref_src, ref_dst, ref_block_of, ref_blocks = reference_step_blocks(dist, batch)
            assert np.array_equal(src, ref_src) and np.array_equal(dst, ref_dst)
            assert sorted(blocks) == sorted(ref_blocks)
            pairs = np.unique(np.column_stack([block_of, ref_block_of]), axis=0)
            assert len(pairs) == len(blocks)  # one block number for the other
            assert all(blocks[i] == ref_blocks[j] for i, j in pairs.tolist())


def test_batch_builder_matches_per_start_reference():
    for delta, ell, q, kind in PATH_INSTANCES:
        tree, lists, dist = star_instance(delta, ell, q)
        r = hanging_root_edge(tree)
        states = states_of(dist)
        for a, b in families(lists, r):
            family = path_family(tree, lists, a, b, kind)
            starts = fiber(dist, r, a)
            got = unpack(dist, build_paths(family, dist, starts))
            assert len(got) == len(starts)
            for row, built in zip(starts.tolist(), got):
                sigma = states[row]
                assert built == reference_path(family, sigma)


def test_flip_rows_match_flip():
    instances = [(build_hanging_root(3, 1), 4), (build_hanging_root(2, 3), 4),
                 (build_hanging_root(3, 2), 5), (build_hanging_root(2, 3), 3)]
    for tree, q in instances:
        for lists in (uniform_lists(tree, q), star_root_lists(tree, q)):
            dist = oracle.enumerate_colorings(tree, lists)
            r, states = hanging_root_edge(tree), states_of(dist)
            for a, b in families(lists, r):
                starts = fiber(dist, r, a)
                got = flip_rows(tree, dist.array[starts], r, b)
                assert got.dtype == dist.array.dtype
                assert [tuple(t) for t in got.tolist()] == [
                    flip(tree, states[i], r, b) for i in starts.tolist()]
    with pytest.raises(ParameterError):
        flip_rows(tree, dist.array[:1], r, int(dist.array[0, r]))


def _corruptions(tree, path):
    """(name, corrupted path, batch message pattern, reference diagnostic)."""
    s, blk = path.states, path.blocks
    e0, e1 = blk[0][0], blk[1][0]
    improper = list(s[1])
    improper[e1] = s[1][e0]  # e0 and e1 meet at a vertex in this path
    other = next(e for e in range(tree.n_edges) if e != e0)
    far = max(set(range(tree.n_edges)) - {e0, e1})
    both = rf"changed \({min(e0, e1)}, {max(e0, e1)}\)"

    def make(states, blocks):
        return CanonicalPath(states, blocks, ["I"] * len(blocks), a=path.a, b=path.b)

    return [
        ("improper", make([s[0], tuple(improper)] + s[2:], blk),
         r"state 1: not a proper list coloring", "state 1 is not a proper"),
        ("no change", make([s[0]] + s, [(e0,)] + blk),
         r"step 0: changes nothing", "step 0 does not change"),
        ("unrecorded", make(s, [(other,)] + blk[1:]),
         rf"step 0: changed \({e0},\), recorded \({other},\)", "step 0 changed"),
        ("recorded twice", make([s[0]] + s[2:], [(e0, e0)] + blk[2:]),
         rf"step 0: {both}, recorded \({e0}, {e0}\)", "step 0 changed"),
        ("half recorded", make([s[0]] + s[2:], [(min(e0, e1), far)] + blk[2:]),
         rf"step 0: {both}, recorded \({min(e0, e1)}, {far}\)", "step 0 changed"),
        ("under-recorded", make([s[0]] + s[2:], [(e0,)] + blk[2:]),
         rf"step 0: {both}, recorded \({e0},\)", "step 0 changed"),
        ("disallowed", make([s[0]] + s[2:], [tuple(sorted((e0, e1)))] + blk[2:]),
         rf"step 0: changed a disallowed block \({min(e0, e1)}, {max(e0, e1)}\)",
         "step 0 changed a disallowed block"),
        ("revisit", make(s + [s[-2]], blk + [blk[-1]]),
         rf"state {len(s)}: revisits an earlier state", "path revisits a state"),
        ("endpoint", make(s[:-1], blk[:-1]),
         rf"state {len(s) - 2}: ends at row \d+, not at row \d+",
         "endpoints are not a flip-coupled"),
    ]


def test_each_corruption_has_its_own_diagnostic():
    tree, lists, dist = star_instance(2, 3, 4)
    # a path whose first two moves recolor adjacent edges
    path = next(p for p in fiber_paths(dist, 1, 2, GLAUBER_PATHS)
                if len(p) >= 3 and set(tree.neighbors[p.blocks[0][0]])
                & {p.blocks[1][0]})
    verify_paths(dist, batch_of_paths(dist, [path]))
    for name, broken, pattern, reference in _corruptions(tree, path):
        with pytest.raises(VerificationError, match=pattern):
            verify_paths(dist, batch_of_paths(dist, [path, broken]))
        ok, diags = verify_path(tree, lists, broken, GLAUBER_PATHS)
        assert not ok and any(d.startswith(reference) for d in diags), (name, diags)


def test_congestion_checks_paths_on_support_rows(monkeypatch):
    # properness is support membership and endpoints come from the batched
    # flip; the depth-one routing enumerates its support once
    supports = []
    for (delta, ell, q), kind in (((2, 3, 4), GLAUBER_PATHS),
                                  ((3, 1, 4), EDGE_PATHS)):
        tree, lists, _ = star_instance(delta, ell, q)
        compute_congestion(tree, lists, kind)

    enumerate_colorings = oracle.enumerate_colorings

    def capturing(*args, **kwargs):
        supports.append(enumerate_colorings(*args, **kwargs))
        return supports[-1]

    monkeypatch.setattr(oracle, "enumerate_colorings", capturing)
    for delta in (2, 3):
        routing_bound_ell1(delta)
        (dist,) = supports
        supports.clear()


def reference_congestion(tree, lists, kind):
    """Usage and loads from the per-start reference paths, counted per
    transition of state tuples in first-use order and summed in that order."""
    dist = oracle.enumerate_colorings(tree, lists)
    r, n, ell = hanging_root_edge(tree), dist.size, tree.max_level
    states, index = states_of(dist), index_of(dist)
    out = {}
    for a, b in families(lists, r):
        family = path_family(tree, lists, a, b, kind)
        starts = [s for s in states if s[r] == a]
        usage, moved = {}, {}
        for sigma in starts:
            path = reference_path(family, sigma)
            for move, block in zip(path.transitions(), path.blocks):
                usage[move] = usage.get(move, 0) + 1
                moved[move] = tuple(sorted(block))
        p_ra = 1.0 / len(starts)
        class_size = {block: dist.classes(block) for block in set(moved.values())}
        xi_levels = {t: 0.0 for t in range(ell + 1)}
        xi_pairs = r_leaf = 0.0
        leaf_sums = {}
        for (x, y), count in usage.items():
            block = moved[(x, y)]
            labels, sizes = class_size[block]
            rate = 1.0 / int(sizes[labels[index[x]]])
            load = (count * p_ra) ** 2 * n / rate
            if len(block) == 1:
                xi_levels[tree.edge_levels[block[0]]] += load
                if tree.edge_levels[block[0]] == ell:
                    r_leaf += count ** 2 / n
                    leaf_sums[index[x]] = leaf_sums.get(index[x], 0) + count ** 2
            else:
                xi_pairs += load
        out[(a, b)] = ([((index[x], index[y]), c) for (x, y), c in usage.items()],
                       xi_levels, xi_pairs, r_leaf, list(leaf_sums.items()))
    return out


def test_congestion_is_bit_identical_to_per_transition_loop():
    for delta, ell, q, kind in PATH_INSTANCES:
        tree, lists, _ = star_instance(delta, ell, q)
        rep = compute_congestion(tree, lists, kind)
        for ab, (usage, xi_levels, xi_pairs, r_leaf, leaf_sums) in (
                reference_congestion(tree, lists, kind).items()):
            pc = rep.per_pair[ab]
            assert list(pc.usage.items()) == usage
            assert repr((pc.xi_levels, pc.xi_pairs, pc.r_leaf)) == repr(
                (xi_levels, xi_pairs, r_leaf))
            assert list(leaf_multiplicity_sums(rep, *ab).items()) == leaf_sums


def counting(monkeypatch, name):
    """Replace ``canonical.<name>`` by a wrapper that records its families."""
    calls, inner = [], getattr(canonical, name)

    def counted(*args):
        family = args[1].family if name == "verify_paths" else args[0]
        calls.append((family.a, family.b))
        return inner(*args)

    monkeypatch.setattr(canonical, name, counted)
    return calls


def test_congestion_builds_one_family_per_orbit(monkeypatch):
    # star-root lists: every (a, b) family is the image of the (1, 2) one,
    # whose verified steps the others take through the exact row map
    tree, lists, _ = star_instance(2, 3, 4)
    built = counting(monkeypatch, "build_paths")
    verified = counting(monkeypatch, "verify_paths")
    compute_congestion(tree, lists, GLAUBER_PATHS)
    assert built == [(1, 2)]
    assert verified == [(1, 2)]


# (delta, ell, q, kind): the instances on which every family is built and
# every family but one per orbit is mapped
ORBIT_INSTANCES = [(2, 3, 4, GLAUBER_PATHS), (2, 7, 4, GLAUBER_PATHS),
                   (3, 2, 5, GLAUBER_PATHS), (2, 3, 3, EDGE_PATHS)]


@pytest.mark.parametrize("delta, ell, q, kind", ORBIT_INSTANCES)
def test_congestion_of_mapped_families_equals_every_family_built(monkeypatch, delta, ell, q,
                                                                 kind):
    tree, lists, _ = star_instance(delta, ell, q)
    r = hanging_root_edge(tree)
    with monkeypatch.context() as m:
        built = counting(m, "build_paths")
        mapped = compute_congestion(tree, lists, kind).per_pair
    assert built == [families(lists, r)[0]]
    monkeypatch.setattr(lists, "color_classes", np.arange(lists.q + 1))
    built = counting(monkeypatch, "build_paths")
    every = compute_congestion(tree, lists, kind).per_pair
    assert built == families(lists, r) == list(mapped)
    for ab, pc in every.items():
        got = mapped[ab]
        for name in ("x", "y", "counts"):
            assert np.array_equal(getattr(got, name), getattr(pc, name)), (ab, name)
        assert repr((got.xi_levels, got.xi_pairs, got.r_leaf)) == repr(
            (pc.xi_levels, pc.xi_pairs, pc.r_leaf)), ab


@pytest.mark.parametrize("delta, ell, q, kind", ORBIT_INSTANCES)
def test_mapped_steps_match_the_verified_built_family(delta, ell, q, kind):
    tree, lists, dist = star_instance(delta, ell, q)
    (a0, b0), *rest = families(lists, hanging_root_edge(tree))
    source = family_steps(dist, a0, b0, kind, flip_ends(dist, a0, b0))
    for a, b in rest:
        ends = flip_ends(dist, a, b)
        got = canonical.map_steps(source, path_family(tree, lists, a, b, kind), dist, ends)
        want = family_steps(dist, a, b, kind, ends)
        assert (got.family.a, got.family.b) == (a, b)
        for name in ("lengths", "src", "dst"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (a, b, name)
        assert ([got.blocks[i] for i in got.block_of.tolist()]
                == [want.blocks[i] for i in want.block_of.tolist()]), (a, b)
        for g, w in zip(canonical._first_uses(*got.runs), canonical._first_uses(*want.runs)):
            assert np.array_equal(g, w), (a, b)


def test_mapped_family_with_a_corrupted_end_raises():
    # the mapped ends are checked against the flip couplings, with the
    # message verify_paths gives for the same family built
    tree, lists, dist = star_instance(2, 3, 4)
    source = family_steps(dist, 1, 2, GLAUBER_PATHS)
    for a, b in ((1, 3), (2, 1), (3, 2)):
        family = path_family(tree, lists, a, b, GLAUBER_PATHS)
        ends = flip_ends(dist, a, b)
        bad = ends.copy()
        bad[5] = ends[6]
        with pytest.raises(VerificationError) as built:
            verify_paths(dist, build_paths(family, dist, fiber(dist, family.r, a)), bad)
        with pytest.raises(VerificationError, match=rf"state \d+: ends at row {ends[5]}, "
                                                    rf"not at row {ends[6]}, the flip") as mapped:
            canonical.map_steps(source, family, dist, bad)
        assert str(mapped.value) == str(built.value)


def test_congestion_flips_every_family_on_one_table(monkeypatch):
    # one flip per tree, so one index table, whose rows stack the
    # fiber of a toward b once for every root-color pair a < b: the (b, a)
    # family's ends are the inverse of the (a, b) flip; singleton rates come
    # from choices, and classes serves the pair blocks alone
    flips, blocks = [], []
    inner, classes = canonical.flip_rows, oracle.DistributionTable.classes

    def recording(tree, colors, e, b):
        flips.append((colors.copy(), np.broadcast_to(b, len(colors)).copy()))
        return inner(tree, colors, e, b)

    def counted(dist, B):
        blocks.append(tuple(B))
        return classes(dist, B)

    monkeypatch.setattr(canonical, "flip_rows", recording)
    monkeypatch.setattr(oracle.DistributionTable, "classes", counted)
    for (delta, ell, q), kind in (((2, 7, 4), GLAUBER_PATHS), ((2, 3, 3), EDGE_PATHS)):
        tree, lists, dist = star_instance(delta, ell, q)
        r = hanging_root_edge(tree)
        flips.clear()
        blocks.clear()
        compute_congestion(tree, lists, kind)
        ((colors, to),) = flips
        rows, pairs = dist.rows_of(colors), [(a, b) for a, b in families(lists, r) if a < b]
        assert len(rows) == sum(len(fiber(dist, r, a)) for a, _ in pairs)
        for a, b in pairs:
            assert np.array_equal(np.sort(rows[(colors[:, r] == a) & (to == b)]),
                                  fiber(dist, r, a)), (a, b)
        assert all(len(B) == 2 for B in blocks)
        assert len(blocks) == (0 if kind == GLAUBER_PATHS else len(tree.level_edges(1)))


def test_flip_rows_takes_one_color_per_row():
    rng = np.random.default_rng(29)
    for delta, ell, q in ((2, 3, 4), (3, 2, 5), (2, 5, 3)):
        tree, lists, dist = star_instance(delta, ell, q)
        r = hanging_root_edge(tree)
        starts = dist.array[rng.permutation(dist.size)]
        # per row, a root-list color other than its own
        others = [[b for b in sorted(lists[r]) if b != a] for a in starts[:, r].tolist()]
        to = np.array([rng.choice(bs) for bs in others])
        got = flip_rows(tree, starts, r, to)
        assert got.dtype == dist.array.dtype
        for b in np.unique(to).tolist():
            assert np.array_equal(got[to == b], flip_rows(tree, starts[to == b], r, b))


def test_flip_couplings_in_one_pass_match_one_pair_calls():
    for delta, ell, q, _ in PATH_INSTANCES:
        tree, lists, dist = star_instance(delta, ell, q)
        pairs = families(lists, hanging_root_edge(tree))
        got = canonical._flip_couplings(tree, lists, pairs, dist)
        assert len(got) == len(pairs)
        for (a, b), c in zip(pairs, got):
            want = flip_coupling(tree, lists, a, b, dist)
            assert (c.a, c.b, c.weight) == (want.a, want.b, want.weight)
            assert np.array_equal(c.pairs, want.pairs) and c.pairs.dtype == want.pairs.dtype
    with pytest.raises(ParameterError, match="distinct colors from the root list"):
        canonical._flip_couplings(tree, lists, [(1, 2), (2, 2)], dist)


def test_first_uses_match_unique_in_order_of_first_use():
    rng = np.random.default_rng(29)
    values = rng.integers(0, 2 ** 40, 60)
    shuffled = rng.permutation(np.repeat(values, rng.integers(1, 90, len(values))))
    for key in (shuffled, np.array([7]), np.zeros(0, dtype=np.int64)):
        _, first, counts = np.unique(key, return_index=True, return_counts=True)
        used = np.argsort(first)
        got_first, got_counts = canonical._first_uses(*canonical._runs(key))
        for got, want in ((got_first, first[used]), (got_counts, counts[used])):
            assert np.array_equal(got, want) and got.dtype == want.dtype


def test_congestion_calls_no_unique_and_no_stable_argsort(monkeypatch):
    # transitions are counted on the default SIMD argsort, and the revisit
    # check takes the stable one only when some path repeats a state
    argsort = np.argsort

    def unique(*args, **kwargs):
        raise AssertionError("np.unique called")

    def unstable(a, *args, **kwargs):
        if "stable" in args or kwargs.get("kind") == "stable" or kwargs.get("stable"):
            raise AssertionError("stable argsort called")
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "unique", unique)
    monkeypatch.setattr(np, "argsort", unstable)
    for delta, ell, q in ((2, 7, 4), (3, 2, 5)):
        tree = build_hanging_root(delta, ell)
        rep = compute_congestion(tree, star_root_lists(tree, q), GLAUBER_PATHS)
        assert len(rep.per_pair) == 6


def test_flip_is_an_involution():
    for delta, ell, q, _ in PATH_INSTANCES:
        tree, lists, dist = star_instance(delta, ell, q)
        r = hanging_root_edge(tree)
        for a, b in families(lists, r):
            starts = dist.array[fiber(dist, r, a)]
            flipped = flip_rows(tree, starts, r, b)
            assert (flipped[:, r] == b).all()
            assert np.array_equal(flip_rows(tree, flipped, r, a), starts)


def test_verify_paths_checks_the_given_ends():
    tree, lists, dist = star_instance(2, 3, 4)
    r = hanging_root_edge(tree)
    flip = flip_coupling(tree, lists, 1, 2, dist).pairs[:, 1]
    for a, b, ends in ((1, 2, flip), (2, 1, fiber(dist, r, 1)[np.argsort(flip)])):
        batch = build_paths(path_family(tree, lists, a, b, GLAUBER_PATHS), dist,
                            fiber(dist, r, a))
        verify_paths(dist, batch, ends)
        bad = ends.copy()
        bad[5] = ends[6]
        with pytest.raises(VerificationError, match=rf"state \d+: ends at row {ends[5]}, "
                                                    rf"not at row {ends[6]}, the flip of the start"):
            verify_paths(dist, batch, bad)


def test_verify_paths_refuses_a_recorded_edge_out_of_range():
    # edge e - m reads as edge e in the change mask, but names no block
    tree, lists, dist = star_instance(2, 3, 4)
    r, m = hanging_root_edge(tree), tree.n_edges
    batch = build_paths(path_family(tree, lists, 1, 2, GLAUBER_PATHS), dist, fiber(dist, r, 1))
    verify_paths(dist, batch)
    i = int(np.flatnonzero(batch.edges[:, 1] == m)[0])
    e = int(batch.edges[i, 0])
    batch.edges[i, 0] = e - m
    with pytest.raises(VerificationError, match=rf"step \d+: changed \({e},\), "
                                                rf"recorded \({e - m},\)"):
        verify_paths(dist, batch)


def test_composed_row_maps_match_rows_of(monkeypatch):
    # with three root colors, the maps of two transpositions compose into
    # the other three, and each is still checked
    for delta, ell, q in ((2, 3, 4), (2, 7, 4), (3, 2, 5)):
        tree, lists, dist = star_instance(delta, ell, q)
        r = hanging_root_edge(tree)
        (a0, b0), *rest = families(lists, r)
        source = family_steps(dist, a0, b0, GLAUBER_PATHS)
        ends = {(a, b): flip_ends(dist, a, b) for a, b in rest}
        looked_up, rows_of = [], dist.rows_of

        def counted(colors):
            looked_up.append(len(colors))
            return rows_of(colors)

        with monkeypatch.context() as m:
            m.setattr(dist, "rows_of", counted)
            for a, b in rest:
                canonical.map_steps(source, path_family(tree, lists, a, b, GLAUBER_PATHS),
                                    dist, ends[a, b])
        maps = dist._maps
        assert len(maps) == len(rest) == 5 and looked_up == [dist.size] * 2
        for pi, perm in maps.values():
            assert np.array_equal(perm, dist.rows_of(pi[dist.array]))
        # a kept map that is no bijection spoils the maps composed from it
        (one, perm), two = list(maps.values())[:2]
        broken = perm.copy()
        broken[0] = perm[1]
        dist._maps = {one.tobytes(): (one, broken), two[0].tobytes(): two}
        with pytest.raises(VerificationError, match="not a bijection"):
            canonical.map_steps(source, path_family(tree, lists, *rest[2], GLAUBER_PATHS),
                                dist, ends[rest[2]])


def test_congestion_with_families_no_color_map_relates(monkeypatch):
    # root list {1, 2, 4}: color 3 is in a class of its own, so the orders of
    # (1, 2) and (1, 4) run through different color classes and no
    # list-keeping permutation relates them; both are built, the other four
    # are mapped
    tree = build_hanging_root(2, 3)
    r = hanging_root_edge(tree)
    full = frozenset(range(1, 5))
    lists = colorings.ListSpec(4, [{1, 2, 4} if e == r else full
                                   for e in range(tree.n_edges)])
    one_two, one_four = (path_family(tree, lists, 1, b, GLAUBER_PATHS) for b in (2, 4))
    assert (lists.color_classes[list(one_two.order)].tolist()
            != lists.color_classes[list(one_four.order)].tolist())
    # the permutation between their orders breaks the root list, and mapping
    # one family onto the other says so
    dist = oracle.enumerate_colorings(tree, lists)
    source = family_steps(dist, 1, 2, GLAUBER_PATHS)
    with pytest.raises(VerificationError, match="not a bijection"):
        canonical.map_steps(source, one_four, dist, flip_ends(dist, 1, 4))
    with monkeypatch.context() as m:
        built = counting(m, "build_paths")
        rep = compute_congestion(tree, lists, GLAUBER_PATHS)
    assert built == [(1, 2), (1, 4)]
    for ab, (usage, xi_levels, xi_pairs, r_leaf, leaf_sums) in (
            reference_congestion(tree, lists, GLAUBER_PATHS).items()):
        pc = rep.per_pair[ab]
        assert list(pc.usage.items()) == usage
        assert repr((pc.xi_levels, pc.xi_pairs, pc.r_leaf)) == repr(
            (xi_levels, xi_pairs, r_leaf))
        assert list(leaf_multiplicity_sums(rep, *ab).items()) == leaf_sums
    # and equal to building every family, each color in a class of its own
    monkeypatch.setattr(lists, "color_classes", np.arange(lists.q + 1))
    built = counting(monkeypatch, "build_paths")
    every = compute_congestion(tree, lists, GLAUBER_PATHS).per_pair
    assert built == families(lists, r)
    for ab, pc in every.items():
        got = rep.per_pair[ab]
        for name in ("x", "y", "counts"):
            assert np.array_equal(getattr(got, name), getattr(pc, name)), (ab, name)
        assert repr((got.xi_levels, got.xi_pairs, got.r_leaf)) == repr(
            (pc.xi_levels, pc.xi_pairs, pc.r_leaf)), ab


def test_mapped_family_with_a_corrupted_row_map_raises(monkeypatch):
    tree, lists, dist = star_instance(2, 3, 4)
    r = hanging_root_edge(tree)
    source = family_steps(dist, 1, 2, GLAUBER_PATHS)
    family = path_family(tree, lists, 1, 3, GLAUBER_PATHS)
    ends = flip_ends(dist, 1, 3)
    canonical.map_steps(source, family, dist, ends)
    rows_of = dist.rows_of
    i, j = fiber(dist, r, 1)[:2]
    # the map of (1, 2)'s order (3, 4, 1, 2) onto (1, 3)'s (2, 4, 1, 3)
    # sends root color 3 to 2, outside fiber 1
    k = fiber(dist, r, 3)[0]

    def swapped(u, v):
        return lambda rows: rows[np.r_[:u, v, u + 1:v, u, v + 1:len(rows)]]

    for corrupt in (lambda rows: np.where(np.arange(len(rows)) == i, rows[j], rows),
                    swapped(i, k)):
        with monkeypatch.context() as m:
            m.setattr(dist, "rows_of", lambda colors: corrupt(rows_of(colors)))
            with pytest.raises(VerificationError, match="not a bijection"):
                canonical.map_steps(source, family, dist, ends)
    # a bijection of the fibers that is not pi's row map is refused by the
    # mapping itself, which no verify_paths call follows
    with monkeypatch.context() as m:
        m.setattr(dist, "rows_of", lambda colors: swapped(i, j)(rows_of(colors)))
        with pytest.raises(VerificationError, match=r"is not a bijection x -> pi\(x\)"):
            canonical.map_steps(source, family, dist, ends)


def test_congestion_values_depth_one():
    tree, lists, _ = star_instance(2, 1, 4)
    rep = compute_congestion(tree, lists, GLAUBER_PATHS)
    assert abs(rep.xi(0) - 11.0) < 1e-12
    assert abs(rep.xi(1) - 6.0) < 1e-12
    assert all(math.isfinite(rep.xi(t)) for t in (0, 1))


def test_congestion_identity_full_and_restricted():
    # with two extra colors the leaf-level congestion is an exact multiple of
    # the expected squared start-multiplicity: factor (q-d)^3 on the full
    # measure, factor 12 after conditioning on the two coupled root colors
    for delta, ell in ((2, 1), (2, 3), (3, 1)):
        q = delta + 2
        tree, lists, _ = star_instance(delta, ell, q)
        rep = compute_congestion(tree, lists, GLAUBER_PATHS)
        factor = (q - (delta - 1)) ** 3
        for (a, b) in rep.per_pair:
            xi_full = rep.xi_ab(a, b, ell)
            assert abs(xi_full - factor * rep.r_ab(a, b)) < 1e-12 * max(1, xi_full)
            xi_res = rep.xi_ab(a, b, ell, root_restricted=True)
            r_res = rep.r_ab(a, b, root_restricted=True)
            assert abs(xi_res - 12.0 * r_res) < 1e-12 * max(1.0, xi_res)


def test_congestion_edge_dynamics_values():
    tree, lists, _ = star_instance(2, 3, 3)
    rep = compute_congestion(tree, lists, EDGE_PATHS)
    assert [round(rep.xi(t), 10) for t in range(4)] == [6.0, 4.0, 2.0, 1.0]
    assert abs(rep.xi_pair_blocks() - 1.0) < 1e-12


def test_congestion_identity_one_spare_color():
    # with one spare color both normalizations coincide (the root list has
    # exactly the two coupled colors) and the leaf factor is (q-d)^3 = 8
    for delta, ell in ((2, 3), (3, 1)):
        tree, lists, _ = star_instance(delta, ell, delta + 1)
        rep = compute_congestion(tree, lists, EDGE_PATHS)
        for ab, pc in rep.per_pair.items():
            assert pc.restricted_scale(rep.n_states) == 1.0
            xi = rep.xi_ab(*ab, ell)
            assert abs(xi - 8.0 * rep.r_ab(*ab)) < 1e-12 * max(1.0, xi)


def test_unused_transitions_do_not_appear():
    tree, lists, dist = star_instance(2, 1, 4)
    rep = compute_congestion(tree, lists, GLAUBER_PATHS)
    usage = rep.per_pair[(1, 2)].usage
    states = states_of(rep.dist)
    used_sources = {states[x] for (x, _y) in usage}
    assert used_sources < set(states_of(dist))  # strictly fewer than all states


def test_gamma_stats_basics():
    tree, lists, dist = star_instance(2, 3, 4)
    r = hanging_root_edge(tree)
    ell = tree.max_level
    for gamma in states_of(dist):
        if gamma[r] not in (1, 2):
            continue
        st = reference_gamma_stats(tree, lists, gamma, 1, 2)
        assert 0 <= st.S <= ell
        assert st.P <= math.ceil(st.S / 2)
        assert st.Z == int(st.S >= ell - 1)
        if st.S == 0:
            assert st.P == 0
    with pytest.raises(ParameterError):
        bad = next(g for g in states_of(dist) if g[r] == 3)
        reference_gamma_stats(tree, lists, bad, 1, 2)


def test_leaf_count_bound_exhaustive():
    # every coloring of every pair: (2, 2, 4) breaks the bound at one
    # coloring per pair, every other instance keeps it
    cases = [((2, 3, 4), GLAUBER_PATHS), ((3, 1, 5), GLAUBER_PATHS),
             ((2, 1, 4), GLAUBER_PATHS), ((2, 2, 4), GLAUBER_PATHS),
             ((3, 1, 4), EDGE_PATHS)]
    for (delta, ell, q), kind in cases:
        tree, lists, _ = star_instance(delta, ell, q)
        rep = compute_congestion(tree, lists, kind)
        for a, b in rep.per_pair:
            ok, bad = reference_leaf_count_check(tree, lists, rep, a, b)
            assert ok == ((delta, ell) != (2, 2)), bad[:3]
            assert len(bad) == (0 if ok else 1)


def test_stage_one_walks_that_fail_raise():
    # on custom lists a Stage-I walk can fail in either of its two ways, and
    # build_paths raises as the per-start reference does: the freed color
    # sits on no sibling of e_1, or a detour edge's list lacks the color
    # missing above it
    full = {1, 2, 3, 4}
    for (delta, ell), kind, lists, sigma, what in (
            ((2, 3), GLAUBER_PATHS, [{1, 2}, {1, 2}, full, full], (1, 2, 1, 2),
             "freed color should block e_i"),
            ((3, 1), EDGE_PATHS, [{1, 2}, {1, 2, 3}, {1, 2}], (1, 3, 2),
             "detour construction lost its continuation")):
        tree = build_hanging_root(delta, ell)
        lists = colorings.ListSpec(4, lists)
        dist = oracle.enumerate_colorings(tree, lists)
        family = path_family(tree, lists, 1, 2, kind)
        with pytest.raises(VerificationError, match=what):
            build_paths(family, dist, dist.rows_of([sigma]))
        with pytest.raises(VerificationError, match=what):
            reference_path(family, sigma)
    # the single-move detours of the statistics at q = delta + 1, full lists
    tree = build_hanging_root(3, 3)
    gamma = (1, 2, 4, 3, 4, 1, 2, 1, 2, 1, 2, 2, 3, 3, 1)
    with pytest.raises(VerificationError, match="lost its continuation"):
        reference_gamma_stats(tree, star_root_lists(tree, 4), gamma, 1, 2)


def test_leaf_multiplicity_zero_off_the_coupling():
    tree, lists, dist = star_instance(2, 3, 4)
    rep = compute_congestion(tree, lists, GLAUBER_PATHS)
    r = hanging_root_edge(tree)
    # short alternating path and no detours: no leaf transitions at all
    quiet = next(row for row, g in enumerate(states_of(dist)) if g[r] == 1
                 and reference_gamma_stats(tree, lists, g, 1, 2).S == 0)
    assert quiet not in leaf_multiplicity_sums(rep, 1, 2)


def test_tail_probability_bounds():
    for delta, ell in ((2, 3), (3, 1)):
        tree, lists, dist = star_instance(delta, ell, delta + 2)
        for s in range(ell + 1):
            for x in range(math.ceil(s / 2) + 1):
                rec = reference_tail_probability_check(tree, lists, 1, 2, s, x, dist)
                assert rec["ok"], (delta, ell, s, x, rec)
    # s = 0, x = 0: the bound degenerates to 1
    tree, lists, dist = star_instance(2, 3, 4)
    rec = reference_tail_probability_check(tree, lists, 1, 2, 0, 0, dist)
    assert rec["bound"] == 1.0 and rec["checked"]
    # x beyond its cap has empirical probability zero
    rec = reference_tail_probability_check(tree, lists, 1, 2, 1, 1, dist)
    assert rec["empirical"] == 0.0 or rec["ok"]


def test_routing_bound_depth_one():
    for delta in (2, 3):
        rec = routing_bound_ell1(delta)
        assert rec["alpha0"] <= 4 * delta + 1e-12
        assert rec["alpha1"] <= 8 + 1e-12
        assert rec["max_multiplicity"][1] == 1
        assert rec["max_multiplicity"][0] <= delta


def test_first_missing_color_avoids_the_coupled_pair():
    # with two spare colors, any vertex carrying both coupled colors has its
    # first missing color outside the pair, since the pair sits at the back
    # of the order
    tree, lists, dist = star_instance(3, 1, 5)
    order = color_order(5, 1, 2)
    hit = 0
    for gamma in states_of(dist):
        for v in range(tree.n_vertices):
            present = {gamma[f] for f in tree.edges_at_vertex[v]}
            if {1, 2} <= present and len(present) < 5:
                first = next(c for c in order if c not in present)
                assert first not in (1, 2)
                hit += 1
    assert hit > 0


def test_congestion_export_schema():
    tree, lists, _ = star_instance(2, 3, 3)
    rep = compute_congestion(tree, lists, EDGE_PATHS)
    doc = rep.export()
    assert set(doc) == {"tree_hash", "q", "delta", "ell", "kind", "xi",
                        "xi_pair_blocks", "r_ab"}
    assert doc["ell"] == 3 and len(doc["xi"]) == 4
    assert doc["kind"] == EDGE_PATHS
    assert set(doc["r_ab"]) == {"1->2", "2->1"}


def test_routing_matches_edge_dynamics_paths():
    # the depth-one toggle routing visits, state by state, the states of the
    # pair-move batch (which never needs its pair move there), and counting
    # it on tuples gives the same record
    for delta in range(2, 6):
        assert routing_bound_ell1(delta) == reference_routing_bound_ell1(delta)
        tree, lists, dist = star_instance(delta, 1, delta + 1)
        built = fiber_paths(dist, 1, 2, EDGE_PATHS)
        assert [p.states for p in built] == toggle_routes(tree, lists, dist)
        assert all(len(b) == 1 for p in built for b in p.blocks)


@pytest.mark.parametrize("shape", [(200, 6), (50, 1), (0, 4), (0, 1), (30, 0)])
def test_short_axis_scans_match_argmax_and_sum(shape):
    rng = np.random.default_rng(sum(shape))
    hit = rng.random(shape) < 0.3
    hit[::7] = False  # all-False rows
    first = np.full(shape[0], -1)  # argmax refuses zero columns
    if shape[1]:
        first = np.where(hit.any(axis=1), hit.argmax(axis=1), -1)
    assert np.array_equal(canonical._first_column(hit), first)
    counts = canonical._count(hit)
    assert np.array_equal(counts, hit.sum(axis=1)) and counts.dtype == hit.sum(axis=1).dtype
    ok = np.column_stack([rng.random(shape[0]) < 0.5, hit])  # column 0 is color 0
    for order in (np.arange(shape[1], 0, -1), np.arange(1, shape[1] + 1)):
        sub = ok[:, order]
        expect = np.zeros(shape[0], dtype=order.dtype)
        if len(order):
            expect = np.where(sub.any(axis=1), order[sub.argmax(axis=1)], 0)
        got = canonical._first(ok, order)
        assert np.array_equal(got, expect) and got.dtype == expect.dtype


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def congestion_digest(report):
    """Every field of every ``PairCongestion`` of ``report``, and the leaf
    multiplicity sums derived from its usage: arrays by dtype, length and the
    SHA-256 of their bytes, floats as they are."""
    pairs = {}
    for (a, b), pc in report.per_pair.items():
        pairs[f"{a}->{b}"] = dict(
            a=pc.a, b=pc.b, fiber_a=pc.fiber_a, fiber_b=pc.fiber_b,
            **{name: [str(arr.dtype), len(arr), _sha256(np.ascontiguousarray(arr).tobytes())]
               for name, arr in (("x", pc.x), ("y", pc.y), ("counts", pc.counts))},
            xi_levels=[[t, v] for t, v in pc.xi_levels.items()],
            xi_pairs=pc.xi_pairs, r_leaf=pc.r_leaf,
            leaf_sums=_sha256(repr(list(leaf_multiplicity_sums(report, a, b).items())).encode()))
    return {"n_states": report.n_states, "pairs": pairs}


# ``congestion_digest`` of the congestion benchmark's two trees; a change to
# the path passes that keeps every output leaves this file as it is
PINNED_DIGESTS = os.path.join(os.path.dirname(__file__), "congestion_pinned.json")


@pytest.mark.parametrize("delta, ell, q", [(2, 7, 4), (3, 2, 5)])
def test_congestion_of_the_benchmark_trees_is_pinned(delta, ell, q):
    tree = build_hanging_root(delta, ell)
    rep = compute_congestion(tree, star_root_lists(tree, q), GLAUBER_PATHS)
    with open(PINNED_DIGESTS) as fh:
        pinned = json.load(fh)[f"hanging_root({delta},{ell}) q={q}"]
    # through JSON, so a list for a tuple does not count, but an int for a
    # float or any changed digit does
    assert json.dumps(congestion_digest(rep)) == json.dumps(pinned)


def mask_sums(rep):
    """Each family's (level sums, pair-block sum, leaf sum) the way one
    boolean mask per level makes them: each used transition's block and
    class size re-read from the support, its load made as
    ``compute_congestion`` makes it, and the loads at each level summed in
    order of first use."""
    dist, tree = rep.dist, rep.tree
    n, ell = dist.size, tree.max_level
    singles = np.column_stack([dist.choices(e) for e in range(tree.n_edges)])
    sums = {}
    for ab, pc in rep.per_pair.items():
        changed = dist.array[pc.x] != dist.array[pc.y]
        single = changed.sum(axis=1) == 1
        lo = changed.argmax(axis=1)
        hi = tree.n_edges - 1 - changed[:, ::-1].argmax(axis=1)
        level = np.where(single, np.array(tree.edge_levels)[lo], -1)
        size = singles[pc.x, lo]
        for i in np.flatnonzero(~single).tolist():
            labels, sizes = dist.classes((lo[i], hi[i]))
            size[i] = sizes[labels[pc.x[i]]]
        load = np.float_power(pc.counts * (1.0 / pc.fiber_a), 2) * n / (1.0 / size)
        sums[ab] = ({t: canonical._running_sum(load[level == t]) for t in range(ell + 1)},
                    canonical._running_sum(load[level < 0]),
                    canonical._running_sum(pc.counts[level == ell] ** 2 / n))
    return sums


@pytest.mark.parametrize("delta, ell, q, kind, pair_moves", [
    (2, 7, 4, GLAUBER_PATHS, False), (3, 2, 5, GLAUBER_PATHS, False),
    (2, 7, 3, EDGE_PATHS, True), (3, 1, 4, EDGE_PATHS, False)])
def test_level_runs_sum_as_the_level_masks(delta, ell, q, kind, pair_moves):
    # the benchmark's two trees with single moves; pair-move paths need q =
    # delta + 1 and odd depth, so hanging_root(2,7) at q=3 (which makes pair
    # moves) and, for delta = 3, depth one (which makes none)
    tree = build_hanging_root(delta, ell)
    rep = compute_congestion(tree, star_root_lists(tree, q), kind)
    sums = mask_sums(rep)
    for ab, pc in rep.per_pair.items():
        assert repr((pc.xi_levels, pc.xi_pairs, pc.r_leaf)) == repr(sums[ab]), ab
    assert any(pc.xi_pairs for pc in rep.per_pair.values()) == pair_moves
