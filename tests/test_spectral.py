import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from treecolor import dynamics, oracle, spectral
from treecolor.colorings import uniform_lists
from treecolor.errors import (CapacityError, NonErgodicError, ParameterError,
                              VerificationError)
from treecolor.trees import (build_complete_regular, build_hanging_root,
                             tree_from_parents)


def path_tree(n):
    return tree_from_parents([None] + list(range(n)), 0)


def double_star():
    # two adjacent degree-3 vertices, each with two extra leaves
    return tree_from_parents([None, 0, 0, 0, 1, 1], 0)


def test_single_edge_heatbath():
    t1 = path_tree(1)
    tm = spectral.transition_matrix(t1, uniform_lists(t1, 3), dynamics.HEATBATH_GLAUBER)
    assert np.allclose(tm.matrix.toarray(), np.full((3, 3), 1.0 / 3.0))
    rep = spectral.spectral_report(tm)
    assert abs(rep.lambda2) < 1e-12
    assert abs(rep.t_rel - 1.0) < 1e-9
    assert spectral.mixing_time(tm, 0.25) == 1


def test_path2_uniform_glauber_structure():
    # each state has exactly two proper single-edge recolorings, each proposed
    # with probability 1/(n q) = 1/6
    p2 = path_tree(2)
    tm = spectral.transition_matrix(p2, uniform_lists(p2, 3), dynamics.UNIFORM_GLAUBER)
    P = tm.matrix.toarray()
    assert tm.row_sum_error() < 1e-12
    assert tm.detailed_balance_error() < 1e-12
    for i in range(tm.n):
        off = [P[i, j] for j in range(tm.n) if j != i and P[i, j] > 0]
        assert len(off) == 2
        assert all(abs(v - 1.0 / 6.0) < 1e-12 for v in off)
        assert abs(P[i, i] - 2.0 / 3.0) < 1e-12


def test_neighbor_pair_beats_glauber_on_path2():
    p2 = path_tree(2)
    l3 = uniform_lists(p2, 3)
    g = spectral.spectral_report(
        spectral.transition_matrix(p2, l3, dynamics.HEATBATH_GLAUBER))
    np_rep = spectral.spectral_report(
        spectral.transition_matrix(p2, l3, dynamics.NEIGHBOR_PAIR))
    assert np_rep.lambda2 < g.lambda2 - 1e-9


ZOO = [
    (path_tree(4), 3), (path_tree(3), 4),
    (build_complete_regular(3, 1), 4),
    (build_complete_regular(2, 2), 4),
    (build_hanging_root(3, 1), 4),
    (double_star(), 4),
]


def assert_matches_dense_oracle(tm, tol=1e-10):
    """Lanczos lambda_2 and lambda_min against LAPACK's full spectrum."""
    eigs = np.linalg.eigvalsh(tm.matrix.toarray())
    rep = spectral.spectral_report(tm)
    assert rep.method == "lanczos"
    assert rep.residual <= spectral.RESIDUAL_TOL and rep.matvecs > 0
    assert abs(rep.lambda2 - eigs[-2]) < tol, (tm.kind, tm.n)
    assert abs(rep.lambda_min - eigs[0]) < tol, (tm.kind, tm.n)
    lam2_only = spectral.spectral_report(tm, compute_lambda_min=False)
    assert abs(lam2_only.lambda2 - eigs[-2]) < tol, (tm.kind, tm.n)


def test_lanczos_matches_dense_oracle_zoo():
    # complete_regular(2, 2) with q=4 has a threefold lambda_2 under heat-bath
    for tree, q in ZOO:
        lists = uniform_lists(tree, q)
        blocks = tuple(dynamics.pair_blocks(tree))
        spec = dynamics.BlockSpec(blocks, tuple(range(1, len(blocks) + 1)))
        for kind in (dynamics.UNIFORM_GLAUBER, dynamics.HEATBATH_GLAUBER,
                     dynamics.NEIGHBOR_PAIR, dynamics.BLOCK):
            kw = {"block_spec": spec} if kind == dynamics.BLOCK else {}
            assert_matches_dense_oracle(
                spectral.transition_matrix(tree, lists, kind, **kw))


def test_lanczos_matches_dense_oracle_at_scale():
    t2 = build_complete_regular(3, 2)
    tm = spectral.transition_matrix(t2, uniform_lists(t2, 4),
                                    dynamics.HEATBATH_GLAUBER)
    assert tm.n == 5184
    assert_matches_dense_oracle(tm)


def test_tiny_chain_takes_dense_branch():
    t1 = path_tree(1)
    tm = spectral.transition_matrix(t1, uniform_lists(t1, 3),
                                    dynamics.HEATBATH_GLAUBER)
    rep = spectral.spectral_report(tm)
    assert rep.method == "dense-eigh" and rep.matvecs == 0
    assert set(rep.export()) >= {"method", "residual", "matvecs"}


def test_nonconvergence_raises(monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.array([]), np.array([]))

    monkeypatch.setattr("scipy.sparse.linalg.eigsh", no_convergence)
    p4 = path_tree(4)
    tm = spectral.transition_matrix(p4, uniform_lists(p4, 3),
                                    dynamics.HEATBATH_GLAUBER)
    for lam_min in (True, False):
        with pytest.raises(VerificationError, match="did not converge"):
            spectral.spectral_report(tm, compute_lambda_min=lam_min)


def test_large_residual_raises(monkeypatch):
    def perturbed(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        return vals + 1e-6, vecs

    monkeypatch.setattr("scipy.sparse.linalg.eigsh", perturbed)
    p4 = path_tree(4)
    tm = spectral.transition_matrix(p4, uniform_lists(p4, 3),
                                    dynamics.HEATBATH_GLAUBER)
    with pytest.raises(VerificationError, match="residual"):
        spectral.spectral_report(tm)


def hand_built(q, P):
    """A TransitionMatrix with matrix ``P`` on the q colorings of one edge.
    Uniform Glauber is the kind not held to the heat-bath floor."""
    t1 = path_tree(1)
    dist = oracle.enumerate_colorings(t1, uniform_lists(t1, q))
    return spectral.TransitionMatrix(dynamics.UNIFORM_GLAUBER, dist, sp.csr_matrix(P))


def test_negative_lambda2():
    # the walk on K5: lambda_2 = lambda_min = -1/4, which projecting the
    # constant vector out instead of shifting it to -1 would report as 0
    tm = hand_built(5, (np.ones((5, 5)) - np.eye(5)) / 4)
    rep = spectral.spectral_report(tm)
    assert rep.method == "lanczos"
    assert abs(rep.lambda2 + 0.25) < 1e-10 and abs(rep.lambda_min + 0.25) < 1e-10
    lam2_only = spectral.spectral_report(tm, compute_lambda_min=False)
    assert abs(lam2_only.lambda2 + 0.25) < 1e-10


def test_not_stochastic_raises():
    p4 = path_tree(4)
    tm = spectral.transition_matrix(p4, uniform_lists(p4, 3),
                                    dynamics.HEATBATH_GLAUBER)
    short_rows = spectral.TransitionMatrix(tm.kind, tm.dist, 0.9 * tm.matrix)
    # I + (D - A)/2 of a 4-cycle: symmetric, unit row sums, eigenvalues 1, 2, 2, 3
    cycle = np.roll(np.eye(4), 1, axis=1) + np.roll(np.eye(4), -1, axis=1)
    above_one = hand_built(4, np.eye(4) + (2 * np.eye(4) - cycle) / 2)
    for bad in (short_rows, above_one):
        for lam_min in (True, False):
            with pytest.raises(VerificationError, match="not stochastic"):
                spectral.spectral_report(bad, compute_lambda_min=lam_min)


def test_seeded_start_vector():
    p6 = path_tree(6)
    tm = spectral.transition_matrix(p6, uniform_lists(p6, 3),
                                    dynamics.HEATBATH_GLAUBER)
    a = spectral.spectral_report(tm, seed=3)
    b = spectral.spectral_report(tm, seed=3)
    c = spectral.spectral_report(tm, seed=4)
    assert a.lambda2 == b.lambda2 and a.matvecs == b.matvecs
    assert abs(a.lambda2 - c.lambda2) < 1e-12


def test_heatbath_spectrum_nonnegative_zoo():
    for tree, q in ZOO:
        tm = spectral.transition_matrix(tree, uniform_lists(tree, q),
                                        dynamics.HEATBATH_GLAUBER)
        assert tm.detailed_balance_error() < 1e-12
        rep = spectral.spectral_report(tm)
        assert rep.lambda_min >= -1e-9


def test_detailed_balance_block_kinds():
    p3 = path_tree(3)
    l3 = uniform_lists(p3, 3)
    for kind, kw in ((dynamics.NEIGHBOR_PAIR, {}),
                     (dynamics.BLOCK,
                      {"block_spec": dynamics.BlockSpec(
                          tuple(dynamics.pair_blocks(p3)),
                          tuple(range(1, len(dynamics.pair_blocks(p3)) + 1)))})):
        tm = spectral.transition_matrix(p3, l3, kind, **kw)
        assert tm.detailed_balance_error() < 1e-12
        assert tm.row_sum_error() < 1e-12


def test_uniform_and_heatbath_share_stationary_law():
    p3 = path_tree(3)
    l3 = uniform_lists(p3, 3)
    for kind in (dynamics.UNIFORM_GLAUBER, dynamics.HEATBATH_GLAUBER):
        tm = spectral.transition_matrix(p3, l3, kind)
        mu = tm.stationary()
        assert np.max(np.abs(mu @ tm.matrix.toarray() - mu)) < 1e-12


def test_trel_over_n_increasing_paths():
    ratios = []
    for n in (4, 6, 8):
        p = path_tree(n)
        tm = spectral.transition_matrix(p, uniform_lists(p, 3),
                                        dynamics.HEATBATH_GLAUBER)
        ratios.append(spectral.spectral_report(tm).t_rel / n)
    assert ratios[0] < ratios[1] < ratios[2]


def test_mixing_time_contracts():
    p3 = path_tree(3)
    l3 = uniform_lists(p3, 3)
    tm = spectral.transition_matrix(p3, l3, dynamics.HEATBATH_GLAUBER)
    rep = spectral.spectral_report(tm)
    t_quarter = spectral.mixing_time(tm, 0.25)
    t_half = spectral.mixing_time(tm, 0.5)
    assert t_half <= t_quarter
    assert spectral.mixing_time(tm, 1.5) == 0
    bound = rep.t_rel * (1.0 + p3.n_edges * math.log(3))
    assert t_quarter <= bound
    with pytest.raises(CapacityError):
        spectral.mixing_time(tm, 0.25, cap=3)


def test_non_ergodic_raises():
    star = build_complete_regular(3, 1)
    for q, ncomp in ((4, 1), (3, 6)):  # q = delta freezes all 6 colorings
        tm = spectral.transition_matrix(star, uniform_lists(star, q),
                                        dynamics.HEATBATH_GLAUBER)
        assert tm.components() == ncomp
    with pytest.raises(NonErgodicError, match="6 components"):
        spectral.spectral_report(tm)


def test_conductance_color_cut():
    p3 = path_tree(3)
    l3 = uniform_lists(p3, 3)
    tm = spectral.transition_matrix(p3, l3, dynamics.HEATBATH_GLAUBER)
    S = spectral.color_cut(tm.dist, 0, 1)
    assert abs(len(S) / tm.n - 1.0 / 3.0) < 1e-12  # mu(S) = 1/q

    # direct double-sum oracle for Phi(S)
    mu = tm.stationary()
    P = tm.matrix.toarray()
    flow = sum(mu[i] * P[i, j] for i in S for j in range(tm.n)
               if j not in set(S))
    assert abs(spectral.conductance(tm, S) - flow / (len(S) / tm.n)) < 1e-12
    with pytest.raises(ParameterError):
        spectral.conductance(tm, [])


def test_conductance_star_user_cuts():
    p3 = path_tree(3)
    tm = spectral.transition_matrix(p3, uniform_lists(p3, 3),
                                    dynamics.HEATBATH_GLAUBER)
    base, _ = spectral.conductance_star(tm)
    # a strictly better custom cut must win
    best_cut = min(
        ([i] for i in range(tm.n)),
        key=lambda S: spectral.conductance(tm, S))
    phi_single = spectral.conductance(tm, best_cut)
    got, name = spectral.conductance_star(tm, extra_cuts=[best_cut])
    assert got <= min(base, phi_single) + 1e-15
    if phi_single < base:
        assert name.startswith("user")


def test_cheeger_sandwich():
    for tree, q in ((path_tree(4), 3), (double_star(), 4)):
        tm = spectral.transition_matrix(tree, uniform_lists(tree, q),
                                        dynamics.HEATBATH_GLAUBER)
        rep = spectral.spectral_report(tm)
        phi, _ = spectral.conductance_star(tm)
        assert phi * phi / 2.0 <= 1.0 / rep.t_rel + 1e-12
        assert 1.0 / rep.t_rel <= 2.0 * phi + 1e-12


def test_frozen_probability_enumeration_values():
    # oracle values computed by exhaustive enumeration; the closed form
    # asserted alongside the conductance argument disagrees with them on
    # every instance, so the strict check must flag the mismatch
    cases = [(double_star(), 4, 2.0 / 3.0), (double_star(), 5, 1.0 / 6.0),
             (double_star(), 6, 0.0), (build_complete_regular(2, 2), 3, 0.5)]
    for tree, q, expect in cases:
        got = spectral.frozen_probability_exact(tree, uniform_lists(tree, q), 0)
        assert abs(got - expect) < 1e-12


def test_lower_bound_record_and_strictness():
    rec = spectral.lower_bound_check(double_star(), 0, 5, strict=False)
    assert abs(rec["p_frozen_formula"] - 0.5) < 1e-12
    assert abs(rec["p_frozen_exact"] - 1.0 / 6.0) < 1e-12
    assert rec["t_rel"] >= rec["trel_bound"]
    with pytest.raises(VerificationError):
        spectral.lower_bound_check(double_star(), 0, 5, strict=True)
    with pytest.raises(ParameterError):
        spectral.lower_bound_check(double_star(), 1, 5)  # leaf endpoint
    with pytest.raises(ParameterError):
        spectral.lower_bound_check(double_star(), 0, 7)  # q > 2 delta


def test_trel_lower_bound_all_instances():
    cases = [(double_star(), 4), (double_star(), 5), (double_star(), 6),
             (build_complete_regular(2, 2), 3)]
    for tree, q in cases:
        rec = spectral.lower_bound_check(tree, 0, q, strict=False)
        assert rec["t_rel"] >= rec["trel_bound"]


def test_star_matrices_delta2_entries():
    psi = spectral.star_correlation_matrix(2)
    q = 3
    # same edge, same color
    assert abs(psi[0, 0] - 2.0 / 3.0) < 1e-12
    # same edge, different color
    assert abs(psi[0, 1] + 1.0 / 3.0) < 1e-12
    # different edge, different color
    assert abs(psi[0, q + 1] - 1.0 / 6.0) < 1e-12


def test_star_closed_form_and_identity():
    for delta in range(2, 7):
        psi = spectral.star_correlation_matrix(delta)
        closed = spectral.star_correlation_closed_form(delta)
        assert np.max(np.abs(psi - closed)) < 1e-12
        walk = spectral.star_local_walk(delta)
        q = delta + 1
        n = delta * q
        ident = (delta - 1) * walk - np.ones((n, n)) / q + np.eye(n)
        assert np.max(np.abs(psi - ident)) < 1e-12
        lmax = float(np.linalg.eigvalsh(psi)[-1])
        assert lmax <= 1.0 + 1.0 / delta + 1e-9
        # eigenvalue transfer between the two matrices
        lam2 = np.linalg.eigvalsh(0.5 * (walk + walk.T))[-2]
        assert abs((lmax - 1.0) - (delta - 1) * lam2) < 1e-9


def test_local_to_global_constants():
    assert spectral.local_to_global_constant(1) == 1.0
    assert abs(spectral.local_to_global_constant(2) - 2.0) < 1e-9
    val = spectral.local_to_global_constant(4)
    assert val <= math.exp(math.pi ** 2 / 6)
    walk = spectral.star_local_walk(2)
    assert abs(np.linalg.eigvalsh(0.5 * (walk + walk.T))[-2] - 0.5) < 1e-12


def test_transition_matrix_is_symmetric():
    p3 = path_tree(3)
    tm = spectral.transition_matrix(p3, uniform_lists(p3, 4),
                                    dynamics.NEIGHBOR_PAIR)
    diff = tm.matrix - tm.matrix.T
    assert diff.nnz == 0 or np.max(np.abs(diff.data)) < 1e-12
