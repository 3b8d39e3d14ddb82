import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

import dense_forms as df
import lanczos_reference
from lemma_checks import frozen_probability_exact
from treecolor import dynamics, oracle, spectral
from treecolor.colorings import (ListSpec, pinned_root_lists, star_root_lists,
                                 uniform_lists)
from treecolor.errors import (CapacityError, NonErgodicError, ParameterError,
                              VerificationError)
from treecolor.trees import (build_complete_regular, build_hanging_root,
                             hanging_root_edge, tree_from_parents)


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
    assert df.detailed_balance_error(tm) < 1e-12
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


def test_tiny_chain_takes_lanczos():
    # P = J/3 is zero off the constants: an invariant subspace at the first step
    t1 = path_tree(1)
    tm = spectral.transition_matrix(t1, uniform_lists(t1, 3),
                                    dynamics.HEATBATH_GLAUBER)
    assert tm.n == 3
    assert_matches_dense_oracle(tm)
    assert set(spectral.spectral_report(tm).export()) >= {"method", "residual", "matvecs"}


def test_single_state_has_no_gap():
    t1 = path_tree(1)
    tm = spectral.transition_matrix(t1, ListSpec(3, [{2}]), dynamics.HEATBATH_GLAUBER)
    assert tm.n == 1
    for lam_min in (True, False):
        with pytest.raises(NonErgodicError, match="gap is zero"):
            spectral.spectral_report(tm, compute_lambda_min=lam_min)


def test_nonconvergence_raises(monkeypatch):
    monkeypatch.setattr(spectral, "LANCZOS_STEPS", 2)
    p4 = path_tree(4)
    tm = spectral.transition_matrix(p4, uniform_lists(p4, 3),
                                    dynamics.HEATBATH_GLAUBER)
    for lam_min in (True, False):
        with pytest.raises(VerificationError, match="did not converge"):
            spectral.spectral_report(tm, compute_lambda_min=lam_min)


def test_large_residual_raises(monkeypatch):
    solve = spectral._lanczos_ends

    def perturbed(*args, **kwargs):
        vals, vecs, matvecs = solve(*args, **kwargs)
        return vals + 1e-6, vecs, matvecs

    monkeypatch.setattr(spectral, "_lanczos_ends", perturbed)
    p4 = path_tree(4)
    tm = spectral.transition_matrix(p4, uniform_lists(p4, 3),
                                    dynamics.HEATBATH_GLAUBER)
    for lam_min in (True, False):
        with pytest.raises(VerificationError, match="residual"):
            spectral.spectral_report(tm, compute_lambda_min=lam_min)


def test_tail_replay_matches_unbudgeted_solve(monkeypatch):
    # Both solves run past 8 steps.  With room for 2 or 3 Krylov vectors the
    # Ritz vectors come mostly from the replay, which must give the same
    # arrays as the kept basis; the replay runs steps h-1 .. k-2 again.
    p6, t2 = path_tree(6), build_complete_regular(3, 2)
    chains = [spectral.transition_matrix(p6, uniform_lists(p6, 3),
                                         dynamics.HEATBATH_GLAUBER),
              spectral.transition_matrix(t2, uniform_lists(t2, 4),
                                         dynamics.HEATBATH_GLAUBER)]
    for tm in chains:
        for want_min in (True, False):
            vals, vecs, k = spectral._lanczos_ends(tm.matrix, 7, want_min)
            rep = spectral.spectral_report(tm, compute_lambda_min=want_min)
            assert k == rep.matvecs > spectral.LANCZOS_CHECK
            for h in (2, 3):
                with monkeypatch.context() as m:
                    m.setattr(spectral, "LANCZOS_BASIS_BYTES", h * 8 * tm.n)
                    tail_vals, tail_vecs, matvecs = spectral._lanczos_ends(
                        tm.matrix, 7, want_min)
                    tail = spectral.spectral_report(tm, compute_lambda_min=want_min)
                assert np.array_equal(tail_vals, vals)
                assert np.array_equal(tail_vecs, vecs)
                assert matvecs == k + (k - h), (tm.n, want_min, h)
                assert tail.residual == rep.residual
                assert tail.lambda2 == rep.lambda2
                assert np.array_equal(tail.lambda_min, rep.lambda_min, equal_nan=True)


def test_matvecs_count_the_products_that_ran(monkeypatch):
    kernel, calls = spectral._csr_matvec(), []

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(spectral, "_csr_matvec", lambda: counted)
    p6 = path_tree(6)
    tm = spectral.transition_matrix(p6, uniform_lists(p6, 3),
                                    dynamics.HEATBATH_GLAUBER)

    def counted_solves():
        for want_min in (True, False):
            calls.clear()
            matvecs = spectral._lanczos_ends(tm.matrix, 7, want_min)[2]
            assert len(calls) == matvecs, want_min
            yield matvecs

    below = list(counted_solves())
    monkeypatch.setattr(spectral, "LANCZOS_BASIS_BYTES", 2 * 8 * tm.n)
    above = list(counted_solves())
    assert all(a > b for a, b in zip(above, below))


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_direct_product_is_matmul_bit_for_bit(index_dtype):
    # ``_csr_matvec`` is a private scipy kernel: into a zeroed array it must
    # give exactly ``P @ v``, on every chain of the zoo and both index widths
    draw = np.random.default_rng(3).standard_normal
    for tree, q in ZOO:
        for kind in (dynamics.HEATBATH_GLAUBER, dynamics.UNIFORM_GLAUBER,
                     dynamics.NEIGHBOR_PAIR):
            P = spectral.transition_matrix(tree, uniform_lists(tree, q), kind).matrix
            assert P.indices.dtype == P.indptr.dtype == np.int32
            indptr, indices = P.indptr.astype(index_dtype), P.indices.astype(index_dtype)
            x, w = draw(P.shape[0]), np.zeros(P.shape[0])
            spectral._csr_matvec()(P.shape[0], P.shape[1], indptr, indices, P.data, x, w)
            assert np.array_equal(w, P @ x), (kind, P.shape)


def test_lanczos_makes_no_matmul_call(monkeypatch):
    # the Lanczos steps, replayed ones too, call the kernel; only the
    # residual check in spectral_report multiplies by P
    calls = []
    matmul = sp.csr_matrix.__matmul__

    def counted(self, other):
        calls.append(other.shape)
        return matmul(self, other)

    p6 = path_tree(6)
    tm = spectral.transition_matrix(p6, uniform_lists(p6, 3), dynamics.HEATBATH_GLAUBER)
    for h in (None, 2):
        with monkeypatch.context() as m:
            if h is not None:
                m.setattr(spectral, "LANCZOS_BASIS_BYTES", h * 8 * tm.n)
            ref_vals, ref_vecs, ref_matvecs = lanczos_reference.lanczos_ends(tm.matrix, 7, True)
            m.setattr(sp.csr_matrix, "__matmul__", counted)
            vals, vecs, matvecs = spectral._lanczos_ends(tm.matrix, 7, True)
        assert calls == [], h
        assert matvecs == ref_matvecs > spectral.LANCZOS_CHECK
        assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)


def reference_chains():
    # all four kinds, solves past LANCZOS_CHECK steps, the uniform Glauber
    # breakdown at step 13 and the K5 walk's at step 1 (a 1 x 1 T_k)
    p4, p5, ds = path_tree(4), path_tree(5), double_star()
    blocks = tuple(dynamics.pair_blocks(p4))
    spec = dynamics.BlockSpec(blocks, tuple(range(1, len(blocks) + 1)))
    return [spectral.transition_matrix(p5, uniform_lists(p5, 3), dynamics.HEATBATH_GLAUBER),
            spectral.transition_matrix(p4, uniform_lists(p4, 3), dynamics.UNIFORM_GLAUBER),
            spectral.transition_matrix(ds, uniform_lists(ds, 4), dynamics.NEIGHBOR_PAIR),
            spectral.transition_matrix(p4, uniform_lists(p4, 4), dynamics.BLOCK,
                                       block_spec=spec),
            hand_built(5, (np.ones((5, 5)) - np.eye(5)) / 4)]


def test_solver_matches_reference_bit_for_bit(monkeypatch):
    for tm in reference_chains():
        for want_min in (True, False):
            for h in (None, 2, 3):
                with monkeypatch.context() as m:
                    if h is not None:
                        m.setattr(spectral, "LANCZOS_BASIS_BYTES", h * 8 * tm.n)
                    vals, vecs, matvecs = spectral._lanczos_ends(tm.matrix, 7, want_min)
                    ref_vals, ref_vecs, ref_matvecs = lanczos_reference.lanczos_ends(
                        tm.matrix, 7, want_min)
                    rep = spectral.spectral_report(tm, compute_lambda_min=want_min)
                    m.setattr(spectral, "_lanczos_ends", lanczos_reference.lanczos_ends)
                    ref = spectral.spectral_report(tm, compute_lambda_min=want_min)
                case = (tm.kind, tm.n, want_min, h)
                assert np.array_equal(vals, ref_vals), case
                assert np.array_equal(vecs, ref_vecs), case
                assert matvecs == ref_matvecs, case
                assert rep.export() == ref.export(), case


def recorded_solve(monkeypatch, P, want_min):
    """``_lanczos_ends(P, 7, want_min)`` and its Ritz checks, as (k, i,
    whether |beta_k s_k| <= LANCZOS_TOL) per ``_ritz_pair`` call."""
    calls, betas = [], []
    ritz_pair, recurrence = spectral._ritz_pair, spectral._recurrence

    def recorded_pair(d, e, i):
        theta, s = ritz_pair(d, e, i)
        k = len(d)
        calls.append((k, i, betas[k - 1] * abs(s[-1, 0]) <= spectral.LANCZOS_TOL))
        return theta, s

    def recorded_recurrence(*args):
        for step in recurrence(*args):
            betas.append(step[2])
            yield step

    with monkeypatch.context() as m:
        m.setattr(spectral, "_ritz_pair", recorded_pair)
        m.setattr(spectral, "_recurrence", recorded_recurrence)
        return spectral._lanczos_ends(P, 7, want_min), calls


def test_ritz_checks_take_the_bottom_pair_only_after_the_top_converged(monkeypatch):
    for tm in reference_chains():
        for want_min in (True, False):
            result, calls = recorded_solve(monkeypatch, tm.matrix, want_min)
            checks = {}
            for k, i, ok in calls:
                checks.setdefault(k, []).append((i, ok))
            case = (tm.kind, tm.n, want_min)
            for k, ((i, top_ok), *bottom) in checks.items():
                # the top pair first; the bottom one only if the top passed
                assert i == k - 1, case
                assert [i for i, _ in bottom] == ([0] if want_min and top_ok else []), case
            # only the last check stops, and it holds both wanted pairs
            oks = [all(ok for _, ok in pairs) for pairs in checks.values()]
            assert oks == [False] * (len(oks) - 1) + [True], case
            assert len(checks[max(checks)]) == 1 + want_min, case
            ref = lanczos_reference.lanczos_ends(tm.matrix, 7, want_min)
            assert all(np.array_equal(a, b) for a, b in zip(result, ref)), case


def test_sparse_gap_chain_makes_eleven_ritz_checks(monkeypatch):
    # heat-bath Glauber on the 8-edge path at q=4 (N = 8748) stops at step
    # 72; taking both pairs at every check made 18 calls
    p8 = path_tree(8)
    tm = spectral.transition_matrix(p8, uniform_lists(p8, 4), dynamics.HEATBATH_GLAUBER)
    (vals, vecs, matvecs), calls = recorded_solve(monkeypatch, tm.matrix, True)
    assert len(calls) == 11
    ref_vals, ref_vecs, ref_matvecs = lanczos_reference.lanczos_ends(tm.matrix, 7, True)
    assert np.array_equal(vals, ref_vals) and matvecs == ref_matvecs == 72


def test_recurrence_divides_each_product_in_place():
    # v_{j+1} is the array w_j, holding w_j / beta_j: one new vector per step
    p5 = path_tree(5)
    tm = spectral.transition_matrix(p5, uniform_lists(p5, 3), dynamics.HEATBATH_GLAUBER)
    v0 = np.random.default_rng(7).standard_normal(tm.n)
    v0 -= v0.mean()
    v0 /= np.linalg.norm(v0)
    w_prev = None
    for v, _, beta, w in itertools.islice(spectral._recurrence(tm.matrix, v0), 12):
        if w_prev is not None:
            assert v is w_prev and np.array_equal(v, w_next)
        assert w is not v
        w_prev, w_next = w, w / beta


@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_failed_tridiagonal_eigensolve_raises(monkeypatch, routine):
    import scipy.linalg.lapack as lapack

    real = getattr(lapack, routine)
    monkeypatch.setattr(lapack, routine, lambda *args: (*real(*args)[:-1], 1))
    p4 = path_tree(4)
    tm = spectral.transition_matrix(p4, uniform_lists(p4, 3),
                                    dynamics.HEATBATH_GLAUBER)
    for lam_min in (True, False):
        with pytest.raises(VerificationError, match="LAPACK info 1"):
            spectral.spectral_report(tm, compute_lambda_min=lam_min)


def test_spectral_report_calls_no_eigh_tridiagonal(monkeypatch):
    import scipy.linalg

    def eigh_tridiagonal(*args, **kwargs):
        raise AssertionError("eigh_tridiagonal called")

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", eigh_tridiagonal)
    for tm in reference_chains():
        rep = spectral.spectral_report(tm)
        assert rep.residual <= spectral.RESIDUAL_TOL


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
    # a NaN entry makes its row sum NaN, which compares False against any bound
    non_finite = []
    for entry in (math.nan, math.inf):
        P = np.full((4, 4), 0.25)
        P[1, 2] = P[2, 1] = entry
        non_finite.append(hand_built(4, P))
    for bad in (short_rows, above_one, *non_finite):
        for lam_min in (True, False):
            with pytest.raises(VerificationError, match="not stochastic"):
                spectral.spectral_report(bad, compute_lambda_min=lam_min)
    for bad in (short_rows, *non_finite):
        with pytest.raises(VerificationError, match="not stochastic"):
            bad.sample([0], 1, 0)


def test_near_breakdown_keeps_constant_out():
    # Both Krylov spaces end well before N - 1 steps: uniform Glauber on the
    # 4-edge path, q=3 (N=24), at step 13, and the K5 walk at step 1.  Taking
    # the mean out of w before alpha v and beta v_prev leaves their rounding
    # on the constant, which the small beta of a breakdown then scales up.
    p4 = path_tree(4)
    chains = [spectral.transition_matrix(p4, uniform_lists(p4, 3),
                                         dynamics.UNIFORM_GLAUBER),
              hand_built(5, (np.ones((5, 5)) - np.eye(5)) / 4)]
    for tm in chains:
        eigs = np.linalg.eigvalsh(tm.matrix.toarray())
        for seed in range(6):
            rep = spectral.spectral_report(tm, seed=seed)
            assert abs(rep.lambda2 - eigs[-2]) < 1e-10, (tm.n, seed)
            assert abs(rep.lambda_min - eigs[0]) < 1e-10, (tm.n, seed)
            lam2_only = spectral.spectral_report(tm, seed=seed,
                                                 compute_lambda_min=False)
            assert abs(lam2_only.lambda2 - eigs[-2]) < 1e-10, (tm.n, seed)


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
        assert df.detailed_balance_error(tm) < 1e-12
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
        assert df.detailed_balance_error(tm) < 1e-12
        assert tm.row_sum_error() < 1e-12


def test_uniform_and_heatbath_share_stationary_law():
    p3 = path_tree(3)
    l3 = uniform_lists(p3, 3)
    for kind in (dynamics.UNIFORM_GLAUBER, dynamics.HEATBATH_GLAUBER):
        tm = spectral.transition_matrix(p3, l3, kind)
        mu = np.full(tm.n, tm.dist.weight)
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
    for eps in (0.0, 1e-10, math.nan):
        with pytest.raises(ParameterError):
            spectral.mixing_time(tm, eps)


MIXING_CASES = [
    (tree, preset(tree, q)) for tree, q in ((build_hanging_root(2, 2), 4),
                                            (build_hanging_root(3, 1), 5))
    for preset in (uniform_lists, star_root_lists,
                   lambda t, q: pinned_root_lists(t, q, 2))]


def test_orbit_mixing_time_matches_dense_oracle(monkeypatch):
    # a chunk of 2 starts makes later chunks resume at the running worst t
    for tree, lists in MIXING_CASES:
        for kind in (dynamics.HEATBATH_GLAUBER, dynamics.UNIFORM_GLAUBER,
                     dynamics.NEIGHBOR_PAIR):
            tm = spectral.transition_matrix(tree, lists, kind)
            for eps in (0.25, 0.1):
                want = df.mixing_time(tm, eps)
                for chunk in (256, 2):
                    monkeypatch.setattr(spectral, "MIXING_CHUNK", chunk)
                    assert spectral.mixing_time(tm, eps) == want, (
                        tree.n_edges, lists.preset, kind, eps, chunk)


def brute_force_orbits(dist):
    """The orbit of each support row under every color permutation that
    keeps each list, named by its smallest row."""
    q, lists = dist.lists.q, dist.lists.lists
    least = np.arange(dist.size)
    for perm in itertools.permutations(range(1, q + 1)):
        if all({perm[c - 1] for c in s} == s for s in lists):
            rows = dist.rows_of(np.array((0,) + perm)[dist.array])
            assert rows.min() >= 0
            least = np.minimum(least, rows)
    return least


def orbit_cases():
    p4, star, hang = path_tree(4), build_complete_regular(3, 1), build_hanging_root(2, 3)
    custom = ListSpec(4, [{1, 2, 3}, {1, 2, 3}, {2, 3, 4}, {1, 2, 3, 4}])
    # the root list {1, 2, 4}: the class {1, 2, 4} is no run of consecutive colors
    r = hanging_root_edge(hang)
    skip = ListSpec(4, [{1, 2, 4} if e == r else {1, 2, 3, 4} for e in range(hang.n_edges)])
    return MIXING_CASES + [(p4, uniform_lists(p4, 3)), (p4, custom),
                           (star, uniform_lists(star, 5)), (hang, skip)]


def test_color_classes_match_brute_force_permutations():
    # a permutation of 1..q keeps every list iff it keeps every color class
    for _, lists in orbit_cases():
        q, classes = lists.q, lists.color_classes
        assert len(classes) == q + 1
        member = [[c in s for s in lists.lists] for c in range(q + 1)]
        want = np.unique(member, axis=0, return_inverse=True)[1].ravel()
        assert np.array_equal(classes, want) and classes.dtype == want.dtype
        for perm in itertools.permutations(range(1, q + 1)):
            keeps_lists = all({perm[c - 1] for c in s} == s for s in lists.lists)
            keeps_classes = all(classes[perm[c - 1]] == classes[c] for c in range(1, q + 1))
            assert keeps_lists == keeps_classes, (lists.lists, perm)


def test_orbit_starts_match_brute_force_orbits():
    for tree, lists in orbit_cases():
        dist = oracle.enumerate_colorings(tree, lists)
        least = brute_force_orbits(dist)
        assert np.array_equal(spectral.orbit_starts(dist), np.unique(least)), (
            tree.n_edges, lists.lists)


def test_row_maps_of_class_swaps_match_rows_of():
    for tree, lists in orbit_cases():
        dist, classes = oracle.enumerate_colorings(tree, lists), lists.color_classes
        for c, d in itertools.combinations(range(1, lists.q + 1), 2):
            pi = np.arange(lists.q + 1)
            pi[[c, d]] = d, c
            if classes[c] == classes[d]:
                assert np.array_equal(dist.row_map(pi), dist.rows_of(pi[dist.array])), (
                    tree.n_edges, lists.lists, c, d)
            else:  # the swap breaks a list: some permuted row leaves the support
                with pytest.raises(VerificationError, match="not a bijection"):
                    dist.row_map(pi)


def test_orbit_starts_refuse_a_row_map_that_is_not_pi(monkeypatch):
    # a lookup that swaps two rows still gives a bijection of the support,
    # but not x -> pi(x): the row map refuses it before any label moves
    star = build_complete_regular(3, 1)
    dist = oracle.enumerate_colorings(star, uniform_lists(star, 4))
    rows_of = dist.rows_of
    monkeypatch.setattr(dist, "rows_of",
                        lambda colors: rows_of(colors)[np.r_[1, 0, 2:len(colors)]])
    with pytest.raises(VerificationError, match=r"is not a bijection x -> pi\(x\)"):
        spectral.orbit_starts(dist)
    assert not dist._maps


def test_orbit_starts_invert_each_kept_map_once(monkeypatch):
    # a kept map is kept with its inverse permutation, so trying the kept
    # maps as factors of a new one inverts none of them again
    star = build_complete_regular(3, 1)
    dist = oracle.enumerate_colorings(star, uniform_lists(star, 9))
    argsort, calls = np.argsort, []

    def counted(a, *args, **kwargs):
        calls.append(len(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    starts = spectral.orbit_starts(dist)
    assert len(dist._maps) == math.comb(9, 2) and 0 < len(calls) <= len(dist._maps)
    assert starts.tolist() == [0]


def test_mixing_time_raises_on_reducible_chain():
    star = build_complete_regular(3, 1)
    tm = spectral.transition_matrix(star, uniform_lists(star, 3),
                                    dynamics.UNIFORM_GLAUBER)
    with pytest.raises(NonErgodicError, match="6 components"):
        spectral.mixing_time(tm)


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
    mu = np.full(tm.n, tm.dist.weight)
    P = tm.matrix.toarray()
    flow = sum(mu[i] * P[i, j] for i in S for j in range(tm.n)
               if j not in set(S))
    assert abs(spectral.conductance(tm, S) - flow / (len(S) / tm.n)) < 1e-12
    with pytest.raises(ParameterError):
        spectral.conductance(tm, [])


def test_out_of_range_indices_raise():
    # a negative index must not wrap to the last state or edge, and one past
    # the end must not surface as a bare IndexError
    p3 = path_tree(3)
    tm = spectral.transition_matrix(p3, uniform_lists(p3, 3), dynamics.HEATBATH_GLAUBER)
    for bad in (-1, tm.n):
        with pytest.raises(ParameterError, match="states in 0"):
            spectral.conductance(tm, [0, bad])
    for bad in (-1, p3.n_edges):
        with pytest.raises(ParameterError, match="edges in 0"):
            tm.dist.marginal([0, bad])


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
    # every instance, so lower_bound_failures must flag the mismatch
    cases = [(double_star(), 4, 2.0 / 3.0), (double_star(), 5, 1.0 / 6.0),
             (double_star(), 6, 0.0), (build_complete_regular(2, 2), 3, 0.5)]
    for tree, q, expect in cases:
        got = frozen_probability_exact(tree, uniform_lists(tree, q), 0)
        assert abs(got - expect) < 1e-12


def test_lower_bound_check_enumerates_the_support_once(monkeypatch):
    calls = []
    enumerate_colorings = oracle.enumerate_colorings
    monkeypatch.setattr(oracle, "enumerate_colorings",
                        lambda *args, **kw: calls.append(args) or enumerate_colorings(*args, **kw))
    for q, expect in ((4, 2.0 / 3.0), (5, 1.0 / 6.0), (6, 0.0)):
        calls.clear()
        rec = spectral.lower_bound_check(double_star(), 0, q)
        assert len(calls) == 1
        assert rec["p_frozen_exact"] == expect
    monkeypatch.setattr(spectral, "SPARSE_CAP", 10)
    with pytest.raises(CapacityError, match="above the cap 10$"):
        spectral.lower_bound_check(double_star(), 0, 5)


def test_lower_bound_record_and_strictness():
    rec = spectral.lower_bound_check(double_star(), 0, 5)
    assert abs(rec["p_frozen_formula"] - 0.5) < 1e-12
    assert abs(rec["p_frozen_exact"] - 1.0 / 6.0) < 1e-12
    assert rec["t_rel"] >= rec["trel_bound"]
    failures = spectral.lower_bound_failures(rec)
    assert failures[0].startswith("frozen probability mismatch")
    with pytest.raises(ParameterError):
        spectral.lower_bound_check(double_star(), 1, 5)  # leaf endpoint
    with pytest.raises(ParameterError):
        spectral.lower_bound_check(double_star(), 0, 7)  # q > 2 delta


def test_trel_lower_bound_all_instances():
    cases = [(double_star(), 4), (double_star(), 5), (double_star(), 6),
             (build_complete_regular(2, 2), 3)]
    for tree, q in cases:
        rec = spectral.lower_bound_check(tree, 0, q)
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


def star_correlation_reference(delta):
    """mu^{u<-a}_v(b) - mu_v(b) entry by entry, from the conditioned and
    the full enumeration of the star with ``delta + 1`` colors."""
    star = build_complete_regular(delta, 1)
    q = delta + 1
    dist = oracle.enumerate_colorings(star, uniform_lists(star, q))
    psi = np.zeros((delta * q, delta * q))
    for u, a in itertools.product(range(delta), range(1, q + 1)):
        cond = dist.conditional({u: a})
        for v in range(delta):
            marg, base = cond.marginal([v]), dist.marginal([v])
            for b in range(1, q + 1):
                psi[u * q + a - 1, v * q + b - 1] = (marg.get((b,), 0.0)
                                                     - base.get((b,), 0.0))
    return psi


def test_star_closed_form_and_identity():
    for delta in range(2, 7):
        psi = spectral.star_correlation_matrix(delta)
        assert np.array_equal(psi, star_correlation_reference(delta))
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


def test_sample_one_step_matches_rows():
    # each row's one-step frequencies lie within five standard errors of
    # its entries, so a zero entry is never drawn
    p3 = path_tree(3)
    l3 = uniform_lists(p3, 3)
    blocks = tuple(dynamics.pair_blocks(p3))
    spec = dynamics.BlockSpec(blocks, tuple(range(1, len(blocks) + 1)))
    reps = 20000
    for kind in (dynamics.UNIFORM_GLAUBER, dynamics.HEATBATH_GLAUBER,
                 dynamics.NEIGHBOR_PAIR, dynamics.BLOCK):
        kw = {"block_spec": spec} if kind == dynamics.BLOCK else {}
        tm = spectral.transition_matrix(p3, l3, kind, **kw)
        starts = np.repeat(np.arange(tm.n), reps)
        ends = tm.sample(starts, 1, 11)
        freq = np.bincount(starts * tm.n + ends, minlength=tm.n ** 2) / reps
        P = tm.matrix.toarray().ravel()
        assert np.all(np.abs(freq - P) <= 5 * np.sqrt(P * (1 - P) / reps)), kind


def test_sample_contracts():
    p3 = path_tree(3)
    tm = spectral.transition_matrix(p3, uniform_lists(p3, 4), dynamics.NEIGHBOR_PAIR)
    starts = np.arange(tm.n)
    assert np.array_equal(tm.sample(starts, 0, 9), starts)
    a = tm.sample(starts, 250, 9)
    assert np.array_equal(a, tm.sample(starts, 250, 9))
    assert not np.array_equal(a, tm.sample(starts, 250, 10))
    # -1 is how rows_of marks a coloring off the support
    for bad in ([0, -1], [tm.n]):
        with pytest.raises(ParameterError, match="start rows"):
            tm.sample(bad, 1, 9)
