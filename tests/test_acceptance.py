"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
in the terminal summary.

Criterion 4a asserts the closed-form frozen-edge probability against exact
enumeration.  The closed form is off by a unit shift in its hypergeometric
count (the pinned color occupies one slot at each endpoint), so the equality
fails on every instance; the test states the criterion as given and is
expected to stay red.  The relaxation-time lower bound it feeds (4b) holds.
"""

import math
import time

import numpy as np
import pytest

import dense_forms as df
from conftest import record_criterion
from lemma_checks import check_monotonicity
from path_reference import (reference_leaf_count_check, reference_stage_one_moves,
                            reference_tail_probability_check, unpack)
from treecolor import canonical, dynamics, oracle, spectral
from treecolor import tensorization as tz
from treecolor.canonical import (EDGE_PATHS, GLAUBER_PATHS, build_paths,
                                 compute_congestion, path_family, verify_paths)
from treecolor.colorings import star_root_lists, uniform_lists
from treecolor.errors import VerificationError
from treecolor.trees import (build_complete_regular, build_hanging_root,
                             hanging_root_edge, tree_from_parents)


def path_tree(n):
    return tree_from_parents([None] + list(range(n)), 0)


def double_star():
    return tree_from_parents([None, 0, 0, 0, 1, 1], 0)


def _record(number, description, passed):
    record_criterion(number, description, passed)
    return passed


def test_criterion_1_enumeration_counts():
    start = time.time()
    ok = True
    for delta in (2, 3, 4, 5):
        star = build_complete_regular(delta, 1)
        for q in (delta + 1, delta + 2, delta + 3):
            lists = uniform_lists(star, q)
            count = oracle.count_colorings(star, lists)
            ok &= count == math.factorial(q) // math.factorial(q - delta)
            ok &= oracle.enumerate_colorings(star, lists).size == count
    for n in range(1, 13):
        p = path_tree(n)
        lists = uniform_lists(p, 3)
        count = oracle.count_colorings(p, lists)
        ok &= count == 3 * 2 ** (n - 1)
        ok &= oracle.enumerate_colorings(p, lists).size == count
    elapsed = time.time() - start
    ok &= elapsed < 10.0
    assert _record(1, f"enumeration counts match closed forms ({elapsed:.1f}s)", ok)


SPECTRUM_ZOO = [
    (path_tree(4), 3), (path_tree(6), 3), (path_tree(8), 3),
    (path_tree(3), 4), (path_tree(4), 4),
    (build_complete_regular(2, 2), 4),
    (build_complete_regular(3, 1), 4), (build_complete_regular(3, 1), 5),
    (build_complete_regular(4, 1), 5), (build_complete_regular(5, 1), 6),
    (build_complete_regular(3, 2), 4),
    (build_hanging_root(2, 3), 4), (build_hanging_root(3, 1), 5),
    (double_star(), 4), (double_star(), 5), (double_star(), 6),
]


def test_criterion_2_reversibility_and_spectrum():
    start = time.time()
    ok = True
    for tree, q in SPECTRUM_ZOO:
        lists = uniform_lists(tree, q)
        if oracle.count_colorings(tree, lists) > 6000:
            continue
        tm = spectral.transition_matrix(tree, lists, dynamics.HEATBATH_GLAUBER)
        ok &= tm.row_sum_error() <= 1e-12
        ok &= df.detailed_balance_error(tm) <= 1e-12
        rep = spectral.spectral_report(tm)
        ok &= rep.lambda_min >= -1e-9
    elapsed = time.time() - start
    ok &= elapsed < 120.0
    assert _record(2, f"heat-bath detailed balance and nonnegative spectra ({elapsed:.0f}s)", ok)


def test_criterion_3_mixing_bound():
    ok = True
    instances = [
        (path_tree(1), 3), (path_tree(2), 3), (path_tree(3), 3),
        (path_tree(4), 3), (path_tree(3), 4),
        (build_complete_regular(3, 1), 4), (build_complete_regular(3, 1), 5),
        (double_star(), 4),
    ]
    for tree, q in instances:
        lists = uniform_lists(tree, q)
        tm = spectral.transition_matrix(tree, lists, dynamics.HEATBATH_GLAUBER)
        rep = spectral.spectral_report(tm)
        t_mix = spectral.mixing_time(tm, 0.25)
        bound = rep.t_rel * (1.0 + tree.n_edges * math.log(q))
        ok &= t_mix <= bound
    # the hanging-root list instances as well
    for delta, ell, q in ((2, 3, 4), (3, 1, 5)):
        tree = build_hanging_root(delta, ell)
        lists = star_root_lists(tree, q)
        tm = spectral.transition_matrix(tree, lists, dynamics.HEATBATH_GLAUBER)
        rep = spectral.spectral_report(tm)
        t_mix = spectral.mixing_time(tm, 0.25)
        ok &= t_mix <= rep.t_rel * (1.0 + tree.n_edges * math.log(q))
    assert _record(3, "exact mixing times below the relaxation-time bound", ok)


LOWER_BOUND_CASES = [
    (double_star(), 3, 4), (double_star(), 3, 5), (double_star(), 3, 6),
    (build_complete_regular(2, 2), 2, 3),
]


def test_criterion_4a_frozen_probability_formula():
    mismatches = []
    for tree, delta, q in LOWER_BOUND_CASES:
        rec = spectral.lower_bound_check(tree, 0, q)
        if abs(rec["p_frozen_exact"] - rec["p_frozen_formula"]) > 1e-12:
            mismatches.append((delta, q, rec["p_frozen_exact"],
                               rec["p_frozen_formula"]))
    ok = not mismatches
    _record("4a", "frozen-edge probability equals the closed form", ok)
    assert ok, (
        "closed form disagrees with exact enumeration on every instance "
        f"(delta, q, exact, formula): {mismatches}")


def test_criterion_4b_relaxation_lower_bound_and_cheeger():
    start = time.time()
    ok = True
    for tree, delta, q in LOWER_BOUND_CASES:
        rec = spectral.lower_bound_check(tree, 0, q)
        ok &= rec["t_rel"] >= rec["trel_bound"]
        lists = uniform_lists(tree, q)
        tm = spectral.transition_matrix(tree, lists, dynamics.HEATBATH_GLAUBER)
        rep = spectral.spectral_report(tm)
        phi, _cut = spectral.conductance_star(tm)
        ok &= phi * phi / 2.0 <= 1.0 / rep.t_rel + 1e-12
        ok &= 1.0 / rep.t_rel <= 2.0 * phi + 1e-12
    elapsed = time.time() - start
    ok &= elapsed < 120.0
    assert _record("4b", f"relaxation lower bound and Cheeger sandwich ({elapsed:.0f}s)", ok)


def test_criterion_5_star_analysis():
    start = time.time()
    ok = True
    for delta in range(2, 7):
        psi = spectral.star_correlation_matrix(delta)
        ok &= float(np.max(np.abs(psi - spectral.star_correlation_closed_form(delta)))) <= 1e-12
        walk = spectral.star_local_walk(delta)
        q = delta + 1
        n = delta * q
        ident = (delta - 1) * walk - np.ones((n, n)) / q + np.eye(n)
        ok &= float(np.max(np.abs(psi - ident))) <= 1e-12
        ok &= float(np.linalg.eigvalsh(psi)[-1]) <= 1.0 + 1.0 / delta + 1e-9
        star = build_complete_regular(delta, 1)
        dist = oracle.enumerate_colorings(star, uniform_lists(star, q))
        C = tz.optimal_at_constant(dist, tz.singleton_blocks(star))
        ok &= C <= math.exp(math.pi ** 2 / 6)
    ok &= abs(spectral.local_to_global_constant(2) - 2.0) <= 1e-9
    elapsed = time.time() - start
    ok &= elapsed < 60.0
    assert _record(5, f"star correlation, local walk and tensorization bounds ({elapsed:.0f}s)", ok)


GLAUBER_INSTANCES = []
for _delta, _ell in ((2, 1), (2, 3), (3, 1)):
    _tree = build_hanging_root(_delta, _ell)
    _lists = star_root_lists(_tree, _delta + 2)
    GLAUBER_INSTANCES.append((_delta, _ell, _tree, _lists))


def _reversal_matches(tree, lists, path, a, b):
    """Stage III must replay, reversed, the Stage-I moves computed from the
    far endpoint with the color roles swapped."""
    order = canonical.color_order(lists.q, a, b)
    stage3 = [(path.blocks[i][0], path.states[i][path.blocks[i][0]],
               path.states[i + 1][path.blocks[i][0]])
              for i in range(len(path)) if path.stages[i] == "III"]
    cur = list(path.tau)
    replay = []
    for e, c in reference_stage_one_moves(tree, lists, path.tau, b, a, order):
        replay.append((e, cur[e], c))
        cur[e] = c
    return [(e, new, old) for e, old, new in reversed(replay)] == stage3


def _batch_verifies(dist, batch):
    try:
        verify_paths(dist, batch)
    except VerificationError:
        return False
    return True


def test_criterion_6_coupling_paths():
    start = time.time()
    ok = True
    for delta, ell, tree, lists in GLAUBER_INSTANCES:
        dist = oracle.enumerate_colorings(tree, lists)
        r = hanging_root_edge(tree)
        for a in sorted(lists[r]):
            for b in sorted(lists[r]):
                if a == b:
                    continue
                family = path_family(tree, lists, a, b, GLAUBER_PATHS)
                batch = build_paths(family, dist, np.flatnonzero(dist.array[:, r] == a))
                ok &= _batch_verifies(dist, batch)
                for path in unpack(dist, batch):
                    ok &= len(set(path.transitions())) == len(path)
                    ok &= _reversal_matches(tree, lists, path, a, b)
    elapsed = time.time() - start
    ok &= elapsed < 300.0
    assert _record(6, f"flip-coupling canonical paths verify, with reversal ({elapsed:.0f}s)", ok)


def test_criterion_7_congestion_identities():
    ok = True
    for delta, ell, tree, lists in GLAUBER_INSTANCES:
        rep = compute_congestion(tree, lists, GLAUBER_PATHS)
        for (a, b) in rep.per_pair:
            xi = rep.xi_ab(a, b, ell, root_restricted=True)
            r_ab = rep.r_ab(a, b, root_restricted=True)
            ok &= abs(xi - 12.0 * r_ab) <= 1e-12 * max(1.0, abs(xi))
    for delta, ell in ((2, 3), (3, 1)):
        tree = build_hanging_root(delta, ell)
        lists = star_root_lists(tree, delta + 2)
        rep = compute_congestion(tree, lists, GLAUBER_PATHS)
        good, _bad = reference_leaf_count_check(tree, lists, rep, 1, 2)
        ok &= good
        dist = oracle.enumerate_colorings(tree, lists)
        for s in range(ell + 1):
            for x in range(math.ceil(s / 2) + 1):
                ok &= reference_tail_probability_check(tree, lists, 1, 2, s, x, dist)["ok"]
    assert _record(7, "leaf congestion identity and per-coloring bounds", ok)


def test_criterion_8_tensorization_certificates():
    ok = True
    # exact law of total variance
    p4 = path_tree(4)
    d = oracle.enumerate_colorings(p4, uniform_lists(p4, 3))
    for S in ({0}, {1, 2}):
        gap = np.max(np.abs(df.var_form(d)
                            - df.cond_var_form(d, S) - df.projected_var_form(d, S)))
        ok &= float(gap) <= 1e-12
    # congestion-weighted root tensorization on the coupling instances
    for delta, ell, tree, lists in GLAUBER_INSTANCES:
        rep = compute_congestion(tree, lists, GLAUBER_PATHS)
        ok &= tz.check_root_tensorization(tree, lists, rep.alpha_vector()).ok
    # the induction pipeline on the depth-2 binary-branching tree
    star = build_hanging_root(2, 1)
    star_l = star_root_lists(star, 4)
    alpha = compute_congestion(star, star_l, GLAUBER_PATHS).alpha_vector()
    gamma = tz.gamma_constant(2, 4, 1)
    t2 = build_complete_regular(2, 2)
    ok &= tz.verify_induction(t2, uniform_lists(t2, 4), 1, alpha, gamma)["ok"]
    # Dirichlet-form and eigenvalue routes agree
    cases = [(path_tree(4), 3), (path_tree(3), 4),
             (build_complete_regular(3, 1), 4),
             (build_complete_regular(2, 2), 4),
             (build_hanging_root(3, 1), 5)]
    for tree, q in cases:
        lists = uniform_lists(tree, q)
        dist = oracle.enumerate_colorings(tree, lists)
        C = tz.optimal_at_constant(dist, tz.singleton_blocks(tree))
        tm = spectral.transition_matrix(tree, lists, dynamics.HEATBATH_GLAUBER)
        t_rel = spectral.spectral_report(tm).t_rel
        ok &= abs(C * tree.n_edges - t_rel) <= 1e-6 * t_rel
    assert _record(8, "variance factorization certificates", ok)


def test_criterion_9_edge_dynamics():
    start = time.time()
    ok = True
    for delta, ell in ((2, 3), (3, 1)):
        tree = build_hanging_root(delta, ell)
        lists = star_root_lists(tree, delta + 1)
        dist = oracle.enumerate_colorings(tree, lists)
        r = hanging_root_edge(tree)
        for a in sorted(lists[r]):
            for b in sorted(lists[r]):
                if a == b:
                    continue
                family = path_family(tree, lists, a, b, EDGE_PATHS)
                ok &= _batch_verifies(dist, build_paths(
                    family, dist, np.flatnonzero(dist.array[:, r] == a)))
    # block factorization with a finite constant on the 4-edge path
    p4 = path_tree(4)
    d4 = oracle.enumerate_colorings(p4, uniform_lists(p4, 3))
    blocks = dynamics.pair_blocks(p4)
    C = tz.optimal_at_constant(d4, blocks)
    ok &= math.isfinite(C) and C > 0
    ok &= tz.check_block_factorization(d4, {b: C * (1 + 1e-9) for b in blocks}).ok
    # monotonicity on three nested instances
    p3 = path_tree(3)
    ok &= check_monotonicity(p3, {0, 1, 2}, 3)["ok"]
    ok &= check_monotonicity(path_tree(5), {0, 1, 2}, 3)["ok"]
    t2d3 = build_complete_regular(3, 2)
    two_star = set(sorted(t2d3.level_edges(1))[:2])
    ok &= check_monotonicity(t2d3, two_star, 4)["ok"]
    elapsed = time.time() - start
    assert _record(9, f"pair-move paths, block factorization, monotonicity ({elapsed:.0f}s)", ok)


def test_criterion_10_trends():
    start = time.time()
    ratios = []
    for n in (4, 6, 8, 10):
        p = path_tree(n)
        tm = spectral.transition_matrix(p, uniform_lists(p, 3),
                                        dynamics.HEATBATH_GLAUBER)
        ratios.append(spectral.spectral_report(tm).t_rel / n)
    ok = all(ratios[i] < ratios[i + 1] for i in range(len(ratios) - 1))

    per_edge = []
    for k in (1, 2):
        t = build_complete_regular(3, k)
        lists = uniform_lists(t, 5)
        tm = spectral.transition_matrix(t, lists, dynamics.HEATBATH_GLAUBER)
        rep = spectral.spectral_report(tm, compute_lambda_min=False)
        per_edge.append(rep.t_rel / t.n_edges)
    ok &= max(per_edge) / min(per_edge) < 3.0
    elapsed = time.time() - start
    ok &= elapsed < 600.0
    assert _record(10, f"relaxation-time trends ({elapsed:.0f}s)", ok)
