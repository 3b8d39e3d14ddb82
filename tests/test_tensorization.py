import json
import math
import time
from collections import deque

import numpy as np
import pytest
import scipy.linalg

import dense_forms as df
from lemma_checks import check_monotonicity, restrict_tree
from treecolor import canonical, dynamics, oracle, spectral
from treecolor import tensorization as tz
from treecolor.colorings import star_root_lists, uniform_lists
from treecolor.errors import NonErgodicError, ParameterError, VerificationError
from treecolor.trees import (build_complete_regular, build_hanging_root,
                             tree_from_parents)


def path_tree(n):
    return tree_from_parents([None] + list(range(n)), 0)


def uniform_pair_block_constant(alpha, beta, gamma, k, ell):
    """Uniform weight for the singleton-plus-adjacent-pair factorization
    implied by the pair-block seed."""
    geom = sum(alpha[ell] ** i for i in range(k // ell + 1))
    return beta * gamma * (max(alpha) * geom + max(1.0, alpha[0]))


def line_distance(tree, S, T):
    """The fewest line-graph steps from an edge of ``S`` to one of ``T``."""
    dist = {e: 0 for e in S}
    dq = deque(S)
    while dq:
        e = dq.popleft()
        for f in tree.neighbors[e]:
            if f not in dist:
                dist[f] = dist[e] + 1
                dq.append(f)
    return min(dist.get(e, math.inf) for e in T)


def commutation_holds(dist, S, T, tol=1e-12):
    """mu_S mu_T = mu_T mu_S as matrices, for sets separated by line-graph
    distance >= 2."""
    if line_distance(dist.tree, S, T) < 2:
        raise ParameterError("sets must be at line-graph distance >= 2")
    P1 = spectral.block_average(dist, [S], [1.0])
    P2 = spectral.block_average(dist, [T], [1.0])
    return bool(abs(P1 @ P2 - P2 @ P1).max() <= tol)


def path_dist(n, q):
    t = path_tree(n)
    return t, oracle.enumerate_colorings(t, uniform_lists(t, q))


def test_law_of_total_variance_matrix_identity():
    t, d = path_dist(4, 3)
    for S in ({0}, {1, 2}, {0, 3}):
        lhs = df.var_form(d)
        rhs = df.cond_var_form(d, S) + df.projected_var_form(d, S)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_cond_var_full_set_equals_var():
    t, d = path_dist(3, 3)
    assert np.max(np.abs(df.cond_var_form(d, {0, 1, 2}) - df.var_form(d))) < 1e-12


def test_forms_annihilate_constants():
    t, d = path_dist(3, 4)
    ones = np.ones(d.size)
    for M in (df.var_form(d), df.cond_var_form(d, {1}),
              df.projected_var_form(d, {0, 1})):
        assert np.max(np.abs(M @ ones)) < 1e-12
        assert np.max(np.abs(M - M.T)) < 1e-12


def test_cond_var_form_matches_generic_assembly():
    # the shortcut weight*(I - projector) equals diag(w) - P^T diag(w) P
    t, d = path_dist(3, 3)
    w = np.full(d.size, d.weight)
    for S in ({0}, {1}, {0, 2}):
        P = df.projector(d, S)
        generic = np.diag(w) - P.T @ (w[:, None] * P)
        assert np.max(np.abs(generic - df.cond_var_form(d, S))) < 1e-14
        assert np.max(np.abs(P @ P - P)) < 1e-14  # idempotent
        assert np.max(np.abs(P - P.T)) < 1e-14    # symmetric


def test_product_distribution_tensorizes_with_constant_one():
    # pinning the middle edge of a 3-edge path makes the outer two edges
    # independent, so their conditional variances control the variance
    t = path_tree(3)
    d = oracle.enumerate_colorings(t, uniform_lists(t, 3)).conditional({1: 1})
    lhs = df.var_form(d)
    rhs = df.cond_var_form(d, {0}) + df.cond_var_form(d, {2})
    assert df.certify_inequality(lhs, rhs).ok
    cert = tz.check_block_factorization(d, {(0,): 1.0, (2,): 1.0})
    assert cert.ok and abs(cert.constant - 1.0) < 1e-9
    rng = np.random.default_rng(0)
    for _ in range(100):
        f = rng.standard_normal(d.size)
        assert f @ lhs @ f <= f @ rhs @ f + 1e-9


def test_certify_inequality_edges():
    t, d = path_dist(3, 3)
    A = df.var_form(d)
    assert df.certify_inequality(A, A).ok
    assert not df.certify_inequality(A, 0.99 * A).ok
    with pytest.raises(ParameterError):
        df.certify_inequality(A, np.eye(3))


def test_certification_monotone_in_weights():
    tree = build_hanging_root(2, 1)
    lists = star_root_lists(tree, 4)
    rep = canonical.compute_congestion(tree, lists, canonical.GLAUBER_PATHS)
    alpha = rep.alpha_vector()
    assert tz.check_root_tensorization(tree, lists, alpha).ok
    bigger = tuple(a * 1.5 for a in alpha)
    assert tz.check_root_tensorization(tree, lists, bigger).ok
    assert not tz.check_root_tensorization(tree, lists, (0.0, 0.0)).ok


def test_optimal_at_constant_basics():
    t1 = path_tree(1)
    d1 = oracle.enumerate_colorings(t1, uniform_lists(t1, 3))
    assert abs(tz.optimal_at_constant(d1, [(0,)]) - 1.0) < 1e-9

    star = build_complete_regular(3, 1)
    d = oracle.enumerate_colorings(star, uniform_lists(star, 3))
    with pytest.raises(NonErgodicError):
        tz.optimal_at_constant(d, tz.singleton_blocks(star))
    with pytest.raises(ParameterError):
        tz.optimal_at_constant(d, [(0,), (1,)])


def test_at_constant_times_n_equals_relaxation_time():
    cases = [(path_tree(4), 3), (path_tree(3), 4),
             (build_complete_regular(3, 1), 4),
             (build_complete_regular(2, 2), 4),
             (build_hanging_root(3, 1), 5)]
    for tree, q in cases:
        lists = uniform_lists(tree, q)
        d = oracle.enumerate_colorings(tree, lists)
        C = tz.optimal_at_constant(d, tz.singleton_blocks(tree))
        tm = spectral.transition_matrix(tree, lists, dynamics.HEATBATH_GLAUBER)
        t_rel = spectral.spectral_report(tm).t_rel
        assert abs(C * tree.n_edges - t_rel) <= 1e-6 * t_rel


def constant_via_forms(d, weights, given=None):
    """Top generalized eigenvalue of the lhs form (the variance, or the
    variance of the conditional expectation given the edges ``given``)
    against the weighted conditional-variance forms, on the complement of
    constants."""
    n = d.size
    v = np.full(n, 1.0 / np.sqrt(n))
    v[0] -= 1.0
    v /= np.linalg.norm(v)
    Q = (np.eye(n) - 2.0 * np.outer(v, v))[:, 1:]  # Householder: Q.T 1 = 0
    if given is None:
        lhs = df.var_form(d)
    else:
        lhs = df.projected_var_form(
            d, [e for e in range(d.tree.n_edges) if e not in set(given)])
    A = Q.T @ lhs @ Q
    B = Q.T @ sum(c * df.cond_var_form(d, b) for b, c in weights.items()) @ Q
    eigs = scipy.linalg.eigh(0.5 * (A + A.T), 0.5 * (B + B.T), eigvals_only=True)
    return float(eigs[-1])


def test_forms_route_matches_chain_route():
    t, d = path_dist(4, 3)
    for blocks in (dynamics.pair_blocks(t), tz.singleton_blocks(t)):
        via_forms = constant_via_forms(d, {b: 1.0 for b in blocks})
        via_chain = tz.optimal_at_constant(d, blocks)
        assert abs(via_forms - via_chain) < 1e-8 * via_forms


FACTORIZATION_CASES = [
    (tree, preset(tree, q)) for tree, preset, q in (
        (path_tree(4), uniform_lists, 3),
        (build_complete_regular(3, 1), uniform_lists, 4),
        (build_complete_regular(2, 2), uniform_lists, 4),
        (build_hanging_root(2, 2), star_root_lists, 4))]


def case_weights(tree, beta, seed=3):
    """Seeded random singleton weights in [1, 3), plus ``beta`` on every
    pair of adjacent edges."""
    rng = np.random.default_rng(seed)
    weights = {(e,): float(rng.uniform(1.0, 3.0)) for e in range(tree.n_edges)}
    weights.update({b: beta for b in dynamics.pair_blocks(tree) if len(b) == 2})
    return weights


def test_factorization_constant_matches_dense_generalized_eigenvalue():
    for tree, lists in FACTORIZATION_CASES:
        d = oracle.enumerate_colorings(tree, lists)
        for beta in (0.0, 0.5):
            weights = case_weights(tree, beta)
            for given in (None, (0,)):
                want = constant_via_forms(d, weights, given)
                got = tz.factorization_constant(d, weights, given)
                assert abs(got - want) <= 1e-8 * want, (tree.n_edges, beta, given)


def test_root_tensorization_constant_matches_dense_forms():
    # the merged check puts alpha on levels and beta on {root, level-1} pairs;
    # hanging_root(2, 5) with its congestion weights has N = 729
    deep = build_hanging_root(2, 5)
    deep_alpha = canonical.compute_congestion(
        deep, star_root_lists(deep, 4), canonical.GLAUBER_PATHS).alpha_vector()
    for tree, alpha, betas in ((build_hanging_root(2, 2), (3.0, 2.0, 1.5), (0.0, 0.7)),
                               (deep, deep_alpha, (0.0,))):
        lists = star_root_lists(tree, 4)
        d = oracle.enumerate_colorings(tree, lists)
        (r,) = tree.level_edges(0)
        for beta in betas:
            weights = {(e,): alpha[tree.edge_levels[e]] for e in range(tree.n_edges)}
            weights.update({tuple(sorted((r, e))): beta for e in tree.level_edges(1)})
            want = constant_via_forms(d, weights, given=(r,))
            cert = tz.check_root_tensorization(tree, lists, alpha, beta)
            assert abs(cert.constant - want) <= 1e-8 * want
            assert abs(cert.slack - (1.0 / want - 1.0)) <= 1e-8 / want


def test_uniform_root_constant_at_one_spare_color():
    # q = delta + 1 is the slowest chain, the hardest for conjugate gradients;
    # C(1, ..., 1) on hanging_root(2, ell) is 2 ell + 1
    for ell in range(1, 9):
        tree = build_hanging_root(2, ell)
        C = tz.check_root_tensorization(
            tree, star_root_lists(tree, 3), [1.0] * (ell + 1)).constant
        assert abs(C - (2 * ell + 1)) <= 1e-9 * (2 * ell + 1), ell


def test_projected_solve_that_misses_the_residual_raises(monkeypatch):
    import scipy.sparse.linalg

    monkeypatch.setattr(scipy.sparse.linalg, "cg",
                        lambda A, b, **kwargs: (np.zeros_like(b), 0))
    tree = build_hanging_root(2, 2)
    with pytest.raises(VerificationError, match="residual"):
        tz.check_root_tensorization(tree, star_root_lists(tree, 4), (1.0, 1.0, 1.0))


def test_projected_solve_factors_no_matrix(monkeypatch):
    import scipy.sparse.linalg

    def splu(*args, **kwargs):
        raise AssertionError("splu called")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", splu)
    tree = build_hanging_root(2, 3)
    cert = tz.check_root_tensorization(tree, star_root_lists(tree, 4), (1.0,) * 4)
    assert math.isfinite(cert.constant) and cert.constant > 0


def test_certificate_threshold_sits_at_the_constant():
    for tree, lists in FACTORIZATION_CASES:
        d = oracle.enumerate_colorings(tree, lists)
        weights = case_weights(tree, 0.5)
        for given in (None, (0,)):
            C = tz.factorization_constant(d, weights, given)
            for scale, verdict in ((0.999, False), (1.001, True)):
                scaled = {b: scale * C * c for b, c in weights.items()}
                got = tz.factorization_constant(d, scaled, given)
                assert tz.Certificate(got).ok == verdict, (tree.n_edges, given, scale)
    tree, lists = FACTORIZATION_CASES[-1]
    cert = tz.check_root_tensorization(tree, lists, (1.0, 1.0, 1.0), 1.0)
    for scale, verdict in ((0.999, False), (1.001, True)):
        w = scale * cert.constant
        assert tz.check_root_tensorization(tree, lists, (w, w, w), w).ok == verdict


def test_slack_grows_with_the_weights():
    tree = build_hanging_root(2, 1)
    lists = star_root_lists(tree, 4)
    t, d = path_dist(4, 3)
    root_slacks, block_slacks = [], []
    for scale in (0.5, 1.0, 2.0, 4.0):
        root_slacks.append(tz.check_root_tensorization(
            tree, lists, (scale, scale)).slack)
        block_slacks.append(tz.check_block_factorization(
            d, {(e,): 3.0 * scale for e in range(t.n_edges)}).slack)
    for slacks in (root_slacks, block_slacks):
        assert all(a < b for a, b in zip(slacks, slacks[1:]))
        assert slacks[0] < 0 < slacks[-1]


def test_one_component_count_per_certificate(monkeypatch):
    # factorization_constant and spectral_report both ask the block chain
    # whether it is irreducible; the matrix pattern is searched once
    import scipy.sparse.csgraph as csgraph

    calls = []
    connected_components = csgraph.connected_components

    def counted(*args, **kwargs):
        calls.append(1)
        return connected_components(*args, **kwargs)

    monkeypatch.setattr(csgraph, "connected_components", counted)
    t, d = path_dist(4, 3)
    cert = tz.check_block_factorization(d, {(e,): 3.0 for e in range(t.n_edges)})
    assert math.isfinite(cert.constant) and len(calls) == 1


def test_unbounded_inequalities_fail_without_raising():
    tree = build_hanging_root(2, 1)
    cert = tz.check_root_tensorization(tree, star_root_lists(tree, 4), (0.0, 0.0))
    assert not cert.ok and cert.constant == math.inf and cert.slack == -1.0
    doc = cert.export()
    assert doc["constant"] is None and doc["verdict"] == "fail"
    json.dumps(doc, allow_nan=False)
    frozen = build_complete_regular(3, 1)  # q = delta: every state is frozen
    d = oracle.enumerate_colorings(frozen, uniform_lists(frozen, 3))
    cert = tz.check_block_factorization(d, {(e,): 1.0 for e in range(3)})
    assert not cert.ok and cert.constant == math.inf
    assert not tz.check_block_factorization(d, {(0,): 0.0}).ok


def test_star_at_constant_bound():
    import math
    for delta in (2, 3):
        star = build_complete_regular(delta, 1)
        d = oracle.enumerate_colorings(star, uniform_lists(star, delta + 1))
        C = tz.optimal_at_constant(d, tz.singleton_blocks(star))
        assert C <= math.exp(math.pi ** 2 / 6)


def test_certificate_export_schema():
    t, d = path_dist(3, 3)
    cert = tz.check_block_factorization(d, {(e,): 10.0 for e in range(3)})
    doc = cert.export(instance="abc", inequality="demo")
    assert list(doc) == ["instance", "inequality", "constant", "slack",
                         "verdict", "marginal"]
    assert doc["instance"] == "abc" and doc["inequality"] == "demo"
    assert doc["verdict"] == "pass" and doc["marginal"] is False
    assert doc["slack"] == 1.0 / doc["constant"] - 1.0 > 0


def test_gamma_constant_one_spare_color():
    # the depth-1 base constants at q = delta + 1 stay below 6
    for delta in (2, 3):
        assert tz.gamma_constant(delta, delta + 1, 1) <= 6.0


def test_root_tensorization_pipeline_and_routing_constants():
    # congestion-derived weights certify; so do the depth-one routing bounds
    tree = build_hanging_root(2, 1)
    lists = star_root_lists(tree, 4)
    rep = canonical.compute_congestion(tree, lists, canonical.GLAUBER_PATHS)
    assert tz.check_root_tensorization(tree, lists, rep.alpha_vector()).ok
    for delta in (2, 3):
        t = build_hanging_root(delta, 1)
        lists_star = star_root_lists(t, delta + 1)
        cert = tz.check_root_tensorization(t, lists_star, (4.0 * delta, 8.0))
        assert cert.ok


def test_block_factorization_checks():
    t, d = path_dist(4, 3)
    C = tz.optimal_at_constant(d, tz.singleton_blocks(t))
    singles = {(e,): C * (1 + 1e-9) for e in range(t.n_edges)}
    assert tz.check_block_factorization(d, singles).ok

    blocks = dynamics.pair_blocks(t)
    Cp = tz.optimal_at_constant(d, blocks)
    assert tz.check_block_factorization(d, {b: Cp * (1 + 1e-9) for b in blocks}).ok
    assert not tz.check_block_factorization(d, {b: 0.1 for b in blocks}).ok

    whole = {tuple(range(t.n_edges)): 1.0}
    assert tz.check_block_factorization(d, whole).ok


def test_f_recursion_cases():
    alpha = (2.0, 0.4)
    gamma = 5.0
    assert tz.f_recursion(1, 1, 1, alpha, gamma) == gamma
    assert tz.f_recursion(2, 1, 1, alpha, gamma) == alpha[0] * gamma
    # depth 2*ell at the bottom level
    assert tz.f_recursion(2, 2, 1, alpha, gamma) == alpha[1] * gamma + gamma
    with pytest.raises(ParameterError):
        tz.f_recursion(2, 3, 1, alpha, gamma)
    with pytest.raises(ParameterError):
        tz.f_recursion(2, 1, 1, (1.0,), gamma)


def test_f_recursion_below_hat():
    for ell, alpha in ((1, (2.0, 0.4)), (2, (3.0, 1.5, 0.25)),
                       (3, (2.0, 1.0, 0.7, 0.45))):
        gamma = 4.2
        for k in range(1, 6 * ell + 1):
            for t in range(1, k + 1):
                F = tz.f_recursion(k, t, ell, alpha, gamma)
                assert F <= tz.f_hat(k, t, ell, alpha, gamma) + 1e-9


def test_verify_induction_small_pipeline():
    delta, q, ell = 2, 4, 1
    star = build_hanging_root(delta, ell)
    lists = star_root_lists(star, q)
    alpha = canonical.compute_congestion(star, lists,
                                         canonical.GLAUBER_PATHS).alpha_vector()
    gamma = tz.gamma_constant(delta, q, ell)
    tree = build_complete_regular(delta, 2)
    res = tz.verify_induction(tree, uniform_lists(tree, q), ell, alpha, gamma)
    assert res["ok"]
    # base case k <= ell reduces to the uniform constant
    t1 = build_complete_regular(delta, 1)
    res1 = tz.verify_induction(t1, uniform_lists(t1, q), ell, alpha, gamma)
    assert res1["ok"]
    assert set(res1["constants"].values()) == {gamma}


def test_pair_block_seed_and_uniform_constant():
    delta, q, ell = 2, 3, 3
    star = build_hanging_root(delta, ell)
    lists = star_root_lists(star, q)
    rep = canonical.compute_congestion(star, lists, canonical.EDGE_PATHS)
    alpha = tuple(2 * (ell + 1) * rep.xi(t) for t in range(ell + 1))
    beta = 2 * rep.xi_pair_blocks()
    assert tz.check_root_tensorization(star, lists, alpha, beta).ok

    # depth one needs no pair moves at all, so the pair weight vanishes
    star1 = build_hanging_root(3, 1)
    lists1 = star_root_lists(star1, 4)
    rep1 = canonical.compute_congestion(star1, lists1, canonical.EDGE_PATHS)
    assert rep1.xi_pair_blocks() == 0.0
    alpha1 = tuple(2 * 2 * rep1.xi(t) for t in range(2))
    assert tz.check_root_tensorization(star1, lists1, alpha1, 0.0).ok

    gamma = tz.gamma_constant(delta, q, ell)
    k = 2
    tree = build_complete_regular(delta, k)
    d = oracle.enumerate_colorings(tree, uniform_lists(tree, q))
    Cp = uniform_pair_block_constant(alpha, beta, gamma, k, ell)
    weights = {b: Cp for b in dynamics.pair_blocks(tree)}
    assert tz.check_block_factorization(d, weights).ok


def test_verify_induction_one_spare_color_published_constants():
    # the depth-one seed (4*delta, 8) with base 6 carries the induction at
    # q = delta + 1 as well
    for delta in (2, 3):
        t2 = build_complete_regular(delta, 2)
        start = time.perf_counter()
        res = tz.verify_induction(t2, uniform_lists(t2, delta + 1), 1,
                                  (4.0 * delta, 8.0), 6.0)
        assert time.perf_counter() - start < 1.0
        assert res["ok"]
    # N = 5184: lambda_min of the weighted block Laplacian off constants is 7.97
    assert abs(res["certificate"].slack - 6.97) <= 0.01


def test_restrict_tree_and_monotonicity():
    p5 = path_tree(5)
    sub = restrict_tree(p5, {0, 1, 2})
    assert sub.n_edges == 3
    with pytest.raises(ParameterError):
        restrict_tree(p5, {2, 3})  # does not touch the root

    rec_same = check_monotonicity(path_tree(3), {0, 1, 2}, 3)
    assert rec_same["ok"]
    rec = check_monotonicity(p5, {0, 1, 2}, 3)
    assert rec["ok_singleton"] and rec["ok_pairs"]


def test_variance_exchange_checks():
    t, d = path_dist(4, 3)
    # S2 inside S1: containment identity case
    assert df.variance_exchange_checks(d, {0, 1}, {1})
    # far apart: commutation as matrices
    assert commutation_holds(d, {0}, {3})
    assert df.variance_exchange_checks(d, {0}, {2, 3})
    with pytest.raises(ParameterError):
        df.variance_exchange_checks(d, {0}, {1})  # boundary meets S2
    with pytest.raises(ParameterError):
        commutation_holds(d, {0}, {1})
