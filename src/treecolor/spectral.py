"""Exact transition matrices, spectra, mixing times and conductance.

Transition matrices are sparse (CSR), one product over the block classes,
and chains are simulated on their rows (``TransitionMatrix.sample``).
The top of their spectrum off the constants, and its bottom where it is
asked for, come from one plain Lanczos recurrence on one scratch vector,
each product a direct call of scipy's CSR kernel (``_csr_matvec``) into a
fresh zeroed array, bit for bit ``P @ v`` without its dispatch, and each
Krylov vector divided in place into the product array it came from, with
Ritz checks by LAPACK ``dstebz`` and ``dstein`` that take the bottom pair
only once the top one has converged; its Ritz vectors are summed, both ends
at once, from the Krylov vectors it keeps up to ``LANCZOS_BASIS_BYTES`` and
from a replay of the steps past them: the report carries the residual and
the operator applications, and a solve that does not converge, or whose
residual is too large, raises.
Irreducibility is one strongly connected component of the matrix.  Mixing
times evolve the distributions from one start per color orbit on the same
matrix, up to ``MIXING_CAP`` states; the orbits come from the row maps of
color swaps (``DistributionTable.row_map``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, islice
from typing import TYPE_CHECKING

import numpy as np

from . import dynamics, oracle
from .colorings import uniform_lists
from .errors import CapacityError, NonErgodicError, ParameterError, VerificationError

if TYPE_CHECKING:
    import scipy.sparse as sp

SPARSE_CAP = 300000
MIXING_CAP = 30000
MIXING_CHUNK = 256
RESIDUAL_TOL = 1e-8
# Lanczos stopping tolerance on |beta_k s_k|, well inside the residual check.
LANCZOS_TOL = RESIDUAL_TOL / 100
# Recurrence steps between Ritz checks, and before a solve has not converged.
LANCZOS_CHECK = 8
LANCZOS_STEPS = 10000
# Bytes of Krylov vectors a solve keeps; the steps past them are replayed.
LANCZOS_BASIS_BYTES = 2 ** 25
# Heat-bath kinds are averages of projections, so lambda_min >= 0 up to this.
HEATBATH_FLOOR = -1e-9


@dataclass
class TransitionMatrix:
    kind: str
    dist: oracle.DistributionTable
    matrix: sp.csr_matrix

    @property
    def n(self):
        return self.dist.size

    def components(self):
        """Strongly connected components of the matrix pattern; 1 iff the
        chain is irreducible.  P is symmetric, so they are its connected
        components, counted without building P^T.  Counted once, on first
        use."""
        return self._components

    @cached_property
    def _components(self):
        from scipy.sparse.csgraph import connected_components

        return connected_components(self.matrix, directed=True, connection="strong")[0]

    def row_sum_error(self):
        s = np.asarray(self.matrix.sum(axis=1)).ravel()
        return float(np.max(np.abs(s - 1.0)))

    @cached_property
    def starts(self):
        """``orbit_starts`` of the support (one row per orbit of the
        permutations that keep every color class), computed on first use."""
        return orbit_starts(self.dist)

    def _require_stochastic(self):
        err = self.row_sum_error()
        if not err <= 1e-9:  # a NaN entry makes err NaN
            raise VerificationError(f"row sums miss 1 by {err:.3g}: not stochastic")

    def sample(self, starts, t_steps, seed):
        """Rows reached after ``t_steps`` steps from each support row of
        ``starts``, one independent replica each: per step the inverse CDF of
        every replica's CSR row, drawn with ``np.random.default_rng(seed)``.
        Rows that do not sum to 1 raise, as in ``spectral_report``."""
        self._require_stochastic()
        rows = np.array(starts, dtype=np.intp)
        if rows.size and not (rows.min() >= 0 and rows.max() < self.n):
            raise ParameterError(f"start rows must lie in 0..{self.n - 1}")
        P, rng = self.matrix, np.random.default_rng(seed)
        cdf = np.concatenate(([0.0], np.cumsum(P.data)))
        for _ in range(t_steps):
            u = cdf[P.indptr[rows]] + rng.random(rows.shape)
            k = np.searchsorted(cdf, u, side="right") - 1
            # rounding can put u past the row's end
            rows = P.indices[np.minimum(k, P.indptr[rows + 1] - 1)]
        return rows


def block_average(dist, blocks, weights):
    """sum_B w_B Pi_B as one product (M D) M^T with sorted indices: M stacks
    the class membership of the blocks (``DistributionTable.classes``), one
    unit entry per state and block, and D is w_B / s on a class of size s.
    Every P is built here, and a weight that is negative or not finite is
    refused, so every heat-bath P is PSD: its absolute gap is 1 - lambda_2."""
    import scipy.sparse as sp

    dynamics.check_block_weights(weights)
    n, nb, k = dist.size, len(blocks), 0
    cols = np.empty((n, nb), dtype=np.int32 if n * nb < 2 ** 31 else np.int64)
    vals = np.empty((n, nb))
    for b, (B, w) in enumerate(zip(blocks, weights)):
        labels, sizes = dist.classes(B)
        cols[:, b], vals[:, b] = labels + k, (w * (1.0 / sizes))[labels]
        k += len(sizes)
    cols, indptr = cols.ravel(), np.arange(n + 1, dtype=cols.dtype) * nb
    MD = sp.csr_matrix((vals.ravel(), cols, indptr), shape=(n, k))
    P = (MD @ sp.csr_matrix((np.ones(n * nb), cols, indptr), shape=(n, k)).T).tocsc()
    # P is symmetric: its CSC arrays, unlike the product's, are sorted and nnz long.
    return sp.csr_matrix((P.data, P.indices, P.indptr), shape=P.shape)


def transition_matrix(tree, lists, kind, block_spec=None, sparse_cap=SPARSE_CAP,
                      dist=None):
    """Exact one-step matrix of the chosen chain over the enumerated support.

    Heat-bath kinds are sum_B (w_B / sum w) Pi_B (``block_average``), with
    the singleton blocks for heat-bath Glauber.  Uniform Glauber makes the
    moves of heat-bath Glauber, each with probability 1/(q m): a proposed
    color is accepted iff it is available.  Its rejections stay put.
    """
    if dist is None:
        dist = oracle.enumerate_colorings(tree, lists, cap=sparse_cap)
    if dist.size > sparse_cap:
        raise CapacityError(
            f"state space has {dist.size} states, above the sparse cap {sparse_cap}",
            estimated=dist.size)

    m = tree.n_edges
    if kind in dynamics.SINGLE_EDGE_KINDS:
        blocks, weights = [(e,) for e in range(m)], [1.0] * m
    elif kind == dynamics.NEIGHBOR_PAIR:
        blocks = dynamics.pair_blocks(tree)
        weights = [1.0] * len(blocks)
    elif kind == dynamics.BLOCK:
        if block_spec is None:
            raise ParameterError("BLOCK kind needs a BlockSpec")
        blocks, weights = block_spec.blocks, block_spec.weights
    else:
        raise ParameterError(f"unknown chain kind {kind!r}")

    total_w = float(sum(weights))
    csr = block_average(dist, blocks, [w / total_w for w in weights])
    if kind == dynamics.UNIFORM_GLAUBER:
        rate = 1.0 / (lists.q * m)
        csr.data[:] = rate  # every row holds its diagonal, which is reset below
        csr.setdiag(1.0 - (np.diff(csr.indptr) - 1) * rate)
    return TransitionMatrix(kind, dist, csr)


@dataclass
class SpectralReport:
    n_states: int
    lambda2: float
    lambda_min: float
    gap: float
    t_rel: float
    method: str
    residual: float
    matvecs: int

    def export(self):
        """JSON fields; a lambda_min not computed (NaN) exports as null."""
        lam_min = None if math.isnan(self.lambda_min) else self.lambda_min
        return {"N": self.n_states, "lambda2": self.lambda2,
                "lambda_min": lam_min, "gap": self.gap,
                "t_rel": self.t_rel, "method": self.method,
                "residual": self.residual, "matvecs": self.matvecs}


def _csr_matvec():
    """scipy's CSR matrix-vector kernel, the one ``P @ v`` runs for a float
    CSR ``P`` and vector ``v`` after its Python dispatch, a fixed cost per
    call that a Lanczos step need not pay.  It lives in the private
    ``scipy.sparse._sparsetools``, so the tests check it against ``P @ v``
    bit for bit."""
    from scipy.sparse._sparsetools import csr_matvec

    return csr_matvec


def _recurrence(P, v, v_prev=None, beta=0.0):
    """The Lanczos recurrence of the CSR matrix P on the mean-zero vectors,
    from a unit mean-zero ``v``: yields (v_j, alpha_j, beta_j, w_j), where
    v_{j+1} = w_j / beta_j, divided in place on resuming, so v_{j+1} is the
    array w_j (the product P v_j) and a step allocates one vector; a caller
    that needs w_j itself reads it before the next step.  Given v_{j-1} and
    beta_{j-1} it resumes at v_j.  P v_j is ``_csr_matvec`` summed into a
    fresh zeroed array, as ``P @ v`` computes it.
    The mean leaves w_j = P v_j - alpha_j v_j - beta_{j-1} v_{j-1} last, so
    the rounding these subtractions put back on the constant is gone before
    a small beta_j scales w_j up.  alpha_j v_j and beta_{j-1} v_{j-1} go
    through one reused scratch vector; w.sum() / n and sqrt(w @ w) are the
    float operations of ``w.mean()`` and ``np.linalg.norm(w)``."""
    if v_prev is None:
        v_prev = np.zeros_like(v)
    n, scratch, matvec = len(v), np.empty_like(v), _csr_matvec()
    while True:
        w = np.zeros(n)
        matvec(n, n, P.indptr, P.indices, P.data, v, w)
        alpha = float(v @ w)
        w -= np.multiply(alpha, v, out=scratch)
        w -= np.multiply(beta, v_prev, out=scratch)
        w -= w.sum() / n
        beta = math.sqrt(w @ w)
        yield v, alpha, beta, w
        v_prev, v = v, np.divide(w, beta, out=w)


def _ritz_pair(d, e, i):
    """Eigenpair i (0 = lowest) of the tridiagonal (d, e) by LAPACK ``dstebz``
    (bisection by index, block order) and ``dstein`` (inverse iteration)."""
    from scipy.linalg.lapack import dstebz, dstein

    if len(d) == 1:
        return d.copy(), np.ones((1, 1))
    m, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, i + 1, i + 1, 0.0, "B")
    s, info = dstein(d, e, w[:m], iblock, isplit) if info == 0 else (None, info)
    if info != 0:
        raise VerificationError(f"tridiagonal eigensolve failed (LAPACK info {info})")
    return w[:m], s


def _lanczos_ends(P, seed, want_min):
    """Top eigenpair of symmetric P off the constants and, with
    ``want_min``, the bottom one, from one recurrence (``_recurrence``) on a
    start drawn with ``seed``; returns (values ascending, vectors as columns,
    matvecs).

    Every ``LANCZOS_CHECK`` steps the extreme Ritz pairs (theta, s) of T_k
    are taken (``_ritz_pair``), the top one first and the bottom one only if
    the top one passes; the recurrence stops once every wanted pair has
    |beta_k s_k| <= ``LANCZOS_TOL``, or once beta_k <= ``LANCZOS_TOL`` (an
    invariant subspace).  The Krylov vectors are kept while they fit in
    ``LANCZOS_BASIS_BYTES`` (at least two); the Ritz vectors are summed over
    them, both at once through one scratch array.  A solve past a budget
    of h vectors replays steps h..k-1 from the last two kept vectors, so
    memory stays O(N) and ``matvecs`` counts k plus the k - h replayed ones.
    """
    v0 = np.random.default_rng(seed).standard_normal(P.shape[0])
    v0 -= v0.mean()
    v0 /= np.linalg.norm(v0)
    keep = max(2, LANCZOS_BASIS_BYTES // v0.nbytes)
    basis, alphas, betas = [], [], []
    for v, alpha, beta, w in _recurrence(P, v0):
        if len(basis) < keep:
            basis.append(v)
        alphas.append(alpha)
        betas.append(beta)
        k = len(alphas)
        if beta <= LANCZOS_TOL or k % LANCZOS_CHECK == 0:
            d, e = np.array(alphas), np.array(betas[:-1])
            # the top pair first, the bottom one only if the top converged;
            # |s_k| <= 1, so beta_k <= LANCZOS_TOL also stops here
            ends = []  # [bottom, top] at the stop
            for i in ([k - 1, 0] if want_min else [k - 1]):
                theta, s = _ritz_pair(d, e, i)
                if not beta * abs(s[-1, 0]) <= LANCZOS_TOL:  # a NaN fails too
                    break
                ends.insert(0, (theta, s))
            else:  # every wanted pair converged
                break
        if k >= LANCZOS_STEPS:
            raise VerificationError(f"Lanczos did not converge in {k} steps")
    del w  # only the replay needs w_j; holding the last one adds a vector to the peak
    h, matvecs, vectors = len(basis), k, basis
    if k > h:
        # v_h .. v_{k-1} again, from the products P v_{h-1} .. P v_{k-2};
        # each w_j / beta_j is taken before the recurrence divides w_j in place
        tail = islice(_recurrence(P, basis[-1], basis[-2], betas[h - 2]), k - h)
        vectors, matvecs = chain(basis, (w / beta for _, _, beta, w in tail)), 2 * k - h
    vecs = np.zeros((len(ends), len(v0)))
    scratch = np.empty_like(vecs)
    for c, v in zip(np.hstack([s for _, s in ends]), vectors):
        vecs += np.multiply(c[:, None], v, out=scratch)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return np.concatenate([theta for theta, _ in ends]), vecs.T, matvecs


def spectral_report(tm, compute_lambda_min=True, seed=7):
    """Second eigenvalue, minimal eigenvalue and relaxation time.

    P must have unit row sums and is symmetric (mu is uniform), so its top
    pair (1, 1/sqrt(N)) is known.  One Lanczos recurrence off the constants
    (``_lanczos_ends``, from a start drawn with ``seed``) gives lambda_2 as
    its top Ritz value and lambda_min as its bottom one.  Without
    ``compute_lambda_min`` the recurrence stops at lambda_2, lambda_min is
    NaN and the gap is 1 - lambda_2: the absolute gap of a PSD P, as every
    heat-bath P is (``block_average``).  Row sums off 1 (or not finite),
    lambda_2 above 1, non-convergence, a residual max ||Px - lambda x|| over
    the reported pairs above ``RESIDUAL_TOL`` and a heat-bath lambda_min
    below the floor raise; a single state has no gap.
    """
    ncomp = tm.components()
    if ncomp != 1:
        raise NonErgodicError(f"chain splits into {ncomp} components")
    tm._require_stochastic()
    if tm.n == 1:
        raise NonErgodicError("absolute spectral gap is zero")
    P = tm.matrix
    vals, vecs, matvecs = _lanczos_ends(P, seed, compute_lambda_min)
    vals = np.append(vals, 1.0)
    vecs = np.hstack([vecs, np.full((tm.n, 1), tm.n ** -0.5)])
    residual = float(np.max(np.linalg.norm(P @ vecs - vecs * vals, axis=0)))
    if residual > RESIDUAL_TOL:
        raise VerificationError(
            f"eigenpair residual {residual:.3g} is above {RESIDUAL_TOL:g}")
    if np.max(vals) > 1.0 + 1e-9:
        raise VerificationError(f"eigenvalue {np.max(vals)} is above 1: not stochastic")
    lam2 = float(vals[-2])
    lam_min = float(vals[0]) if compute_lambda_min else math.nan
    if tm.kind != dynamics.UNIFORM_GLAUBER and lam_min < HEATBATH_FLOOR:
        raise VerificationError(
            f"heat-bath spectrum should be nonnegative, found {lam_min}")
    lam_star = max(abs(lam2), abs(lam_min)) if compute_lambda_min else lam2
    gap = 1.0 - lam_star
    if gap <= 0:
        raise NonErgodicError("absolute spectral gap is zero")
    return SpectralReport(tm.n, lam2, lam_min, gap, 1.0 / gap, "lanczos",
                          residual, matvecs)


def orbit_starts(dist):
    """The least support row of each orbit of the color permutations that
    keep every list, that is every class of ``ListSpec.color_classes``,
    ascending.  Every kind commutes with them and mu is uniform, so
    TV(delta_x P^t, mu) is constant on an orbit.  The swaps of two colors
    of one class generate the group: each row's label falls to the least
    label of its images under their row maps (``DistributionTable.row_map``)
    until no label changes."""
    group, q = dist.lists.color_classes, dist.lists.q
    maps = [dist.row_map(np.r_[:c, d, c + 1:d, c, d + 1:q + 1].astype(dist.array.dtype))
            for c, d in combinations(range(1, q + 1), 2) if group[c] == group[d]]
    label, last = np.arange(dist.size), None
    while not np.array_equal(label, last):
        last = label.copy()
        for perm in maps:
            np.minimum(label, label[perm], out=label)
    return np.flatnonzero(label == np.arange(dist.size))


def mixing_time(tm, eps=0.25, cap=MIXING_CAP):
    """Smallest t with max_x TV(delta_x P^t, mu) <= eps, by evolving X <- P X
    (P is symmetric) from the orbit starts ``tm.starts``, ``MIXING_CHUNK``
    at a time: TV never grows with t, so each chunk starts at the worst t so
    far.  Every kind has a positive diagonal, so only a reducible chain (it
    raises) never gets below eps."""
    if eps >= 1.0:
        return 0
    if not eps >= 1e-9:  # rounding keeps a computed TV near N * 1e-16
        raise ParameterError("eps must be at least 1e-9")
    if tm.n > cap:
        raise CapacityError(f"{tm.n} states is above the mixing cap {cap}",
                            estimated=tm.n)
    ncomp = tm.components()
    if ncomp != 1:
        raise NonErgodicError(f"chain splits into {ncomp} components")
    tm._require_stochastic()
    P, w, starts, t = tm.matrix, tm.dist.weight, tm.starts, 0
    for lo in range(0, len(starts), MIXING_CHUNK):
        rows = starts[lo:lo + MIXING_CHUNK]
        X = (np.arange(tm.n)[:, None] == rows).astype(float)
        for _ in range(t):
            X = P @ X
        dev = np.empty_like(X)  # reused: fresh temporaries cost more than P X
        while np.abs(np.subtract(X, w, out=dev), out=dev).sum(axis=0).max() > 2 * eps:
            X = P @ X
            t += 1
    return t


def conductance(tm, S):
    """Stationary flow out of S over mu(S); mu is uniform, so this is the
    transition mass out of S over |S|."""
    S = sorted(set(S))
    if not S or S[0] < 0 or S[-1] >= tm.n:
        raise ParameterError(f"conductance needs a nonempty set of states in 0..{tm.n - 1}")
    mask = np.zeros(tm.n, dtype=bool)
    mask[S] = True
    return float(tm.matrix[mask][:, ~mask].sum()) / len(S)


def color_cut(dist, e, c):
    return np.flatnonzero(dist.array[:, e] == c).tolist()


def conductance_star(tm):
    """Upper bound on the chain conductance from structured cuts.

    Minimizes Phi over all color-pinning cuts {sigma : sigma_e = c} with
    0 < mu(S) <= 1/2.  Exact global minimization is not attempted.
    """
    dist = tm.dist
    tree = dist.tree
    best = None
    best_cut = None
    cuts = []
    for e in range(tree.n_edges):
        for c in sorted(dist.lists[e]):
            cuts.append((f"edge{e}=color{c}", color_cut(dist, e, c)))
    for name, S in cuts:
        if not S or len(S) * 2 > tm.n:
            continue
        phi = conductance(tm, S)
        if best is None or phi < best:
            best, best_cut = phi, name
    if best is None:
        raise ParameterError("no admissible cut with mu(S) <= 1/2")
    return best, best_cut


def frozen_probability_formula(delta, q):
    """Closed form asserted for Pr[at most one available color] at an edge
    with both endpoints of degree delta, given its color is pinned."""
    return (math.factorial(delta) * math.factorial(delta - 1)
            / (math.factorial(2 * delta - q) * math.factorial(q - 1)))


def _frozen_probability(dist, e):
    """Pr[|available(e)| <= 1] on the support ``dist`` pinned to color 1 at
    ``e``: the colors available to ``e`` are its class under the block (e,)
    (``choices``)."""
    available = dist.conditional({e: 1}).choices(e)
    return int(np.count_nonzero(available <= 1)) / len(available)


def lower_bound_check(tree, e, q):
    """Frozen-edge probability and the conductance lower bound on heat-bath T_rel.

    Returns a record with the enumerated probability, the closed-form value,
    the bound n*delta/(2(q-delta)^2) (n = edge count) and the exact
    relaxation time; ``lower_bound_failures`` says which of them disagree.
    """
    if not 0 <= e < tree.n_edges:
        raise ParameterError(f"edge {e} out of range 0..{tree.n_edges - 1}")
    delta = tree.max_degree
    u = tree.edge_parent_vertex[e]
    v = tree.edge_child_vertex[e]
    if tree.degree[u] != delta or tree.degree[v] != delta:
        raise ParameterError("both endpoints of e must have degree delta")
    if not (delta + 1 <= q <= 2 * delta):
        raise ParameterError("q must lie in [delta+1, 2*delta]")
    lists = uniform_lists(tree, q)
    # the chain's cap, so a support too large for it is refused unenumerated
    dist = oracle.enumerate_colorings(tree, lists, cap=SPARSE_CAP)
    p_exact = _frozen_probability(dist, e)
    p_formula = frozen_probability_formula(delta, q)
    n_edges = tree.n_edges
    trel_bound = n_edges * delta / (2.0 * (q - delta) ** 2)
    tm = transition_matrix(tree, lists, dynamics.HEATBATH_GLAUBER, dist=dist)
    rep = spectral_report(tm, compute_lambda_min=False)  # heat-bath: the gap reads lambda_2
    return {
        "delta": delta, "q": q, "n_edges": n_edges,
        "p_frozen_exact": p_exact,
        "p_frozen_formula": p_formula,
        "trel_bound": trel_bound,
        "t_rel": rep.t_rel,
    }


def lower_bound_failures(record):
    """The asserted agreements a ``lower_bound_check`` record breaks, as
    messages: the frozen probability first, then the T_rel bound."""
    failures = []
    p_exact, p_formula = record["p_frozen_exact"], record["p_frozen_formula"]
    if abs(p_exact - p_formula) > 1e-12:
        failures.append(f"frozen probability mismatch: enumerated {p_exact} vs "
                        f"closed form {p_formula}")
    if record["t_rel"] < record["trel_bound"] - 1e-9:
        failures.append(f"T_rel {record['t_rel']} below the bound {record['trel_bound']}")
    return failures


# ---------------------------------------------------------------------------
# Star analysis (q = delta + 1)

def _star_joint(delta):
    """Conditionals mu^{u<-a}_v(b) and marginals mu_v(b) of the uniform
    coloring of the star with ``delta`` edges and ``delta + 1`` colors, on
    (edge, color) pairs: with X the (state, pair) one-hot matrix of the
    support and J = X^T X the joint counts, J / diag(J) and diag(J) / N."""
    from .trees import build_complete_regular

    star = build_complete_regular(delta, 1)
    q = delta + 1
    dist = oracle.enumerate_colorings(star, uniform_lists(star, q))
    X = np.zeros((dist.size, delta * q), dtype=np.int64)
    X[np.arange(dist.size)[:, None], np.arange(delta) * q + dist.array - 1] = 1
    joint = X.T @ X
    counts = np.diag(joint)
    return joint / counts[:, None], counts / dist.size


def star_correlation_matrix(delta):
    """Pairwise influence matrix of the uniform coloring of the star with
    ``delta`` edges and ``delta + 1`` colors: entry ((u,a),(v,b)) is
    mu^{u<-a}_v(b) - mu_v(b)."""
    if delta < 1:
        raise ParameterError("delta must be >= 1")
    cond, marg = _star_joint(delta)
    return cond - marg


def star_local_walk(delta):
    """Non-lazy local walk on (edge, color) pairs of the same star: move to a
    uniformly random other edge and a color drawn from its conditional."""
    if delta < 2:
        raise ParameterError("local walk needs delta >= 2")
    q = delta + 1
    cond, _ = _star_joint(delta)
    cond[np.kron(np.eye(delta, dtype=bool), np.ones((q, q), dtype=bool))] = 0.0
    return cond / (delta - 1)


def star_correlation_closed_form(delta):
    """The explicit entries: -1/(delta+1) + [u!=v and a!=b]/delta
    + [u=v and a=b]."""
    q = delta + 1
    return (-1.0 / (delta + 1) + np.kron(1 - np.eye(delta), 1 - np.eye(q)) / delta
            + np.eye(delta * q))


def local_to_global_constant(delta):
    """prod_{j=2..delta} 1/(1 - lambda_2(local walk of the j-star)); the empty
    product for delta = 1.  The paper bounds it by exp(pi^2/6)."""
    if delta < 1:
        raise ParameterError("delta must be >= 1")
    value = 1.0
    for j in range(delta, 1, -1):
        walk = star_local_walk(j)
        lam = float(np.linalg.eigvalsh(0.5 * (walk + walk.T))[-2])
        value /= (1.0 - lam)
    return value
