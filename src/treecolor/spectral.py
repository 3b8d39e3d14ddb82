"""Exact transition matrices, spectra, mixing times and conductance.

Transition matrices are sparse (CSR), one product over the block classes.
Their extreme eigenvalues come from one-vector implicitly restarted Lanczos
solves (ARPACK through ``scipy.sparse.linalg.eigsh``): the report carries the
residual and the operator applications, and a solve that does not converge,
or whose residual is too large, raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import dynamics, oracle
from .colorings import uniform_lists
from .errors import CapacityError, NonErgodicError, ParameterError, VerificationError

if TYPE_CHECKING:
    import scipy.sparse as sp

SPARSE_CAP = 300000
MIXING_CAP = 4000
RESIDUAL_TOL = 1e-8
# ARPACK's relative stopping tolerance, well inside the residual check.
LANCZOS_TOL = RESIDUAL_TOL / 100
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

    def stationary(self):
        return np.full(self.n, self.dist.weight)

    def components(self):
        """Connected components of the matrix pattern; 1 iff the chain is
        irreducible."""
        from scipy.sparse.csgraph import connected_components

        return connected_components(self.matrix, directed=False)[0]

    def row_sum_error(self):
        s = np.asarray(self.matrix.sum(axis=1)).ravel()
        return float(np.max(np.abs(s - 1.0)))

    def detailed_balance_error(self):
        """max |mu(x)P(x,y) - mu(y)P(y,x)|; mu is uniform so this is matrix
        asymmetry times the state weight."""
        diff = self.matrix - self.matrix.T
        gap = np.max(np.abs(diff.data)) if diff.nnz else 0.0
        return float(gap) * self.dist.weight


def block_average(dist, blocks, weights):
    """sum_B w_B Pi_B as one product (M D) M^T with sorted indices: M stacks
    the class membership of the blocks (``DistributionTable.classes``), one
    unit entry per state and block, and D is w_B / s on a class of size s."""
    import scipy.sparse as sp

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


def block_projector(dist, B):
    """Pi_B as a sparse matrix: the average over each class of states that
    agree off ``B`` (``DistributionTable.classes``), 1/s on every pair of
    states in one class of size s."""
    return block_average(dist, [B], [1.0])


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
        return {"N": self.n_states, "lambda2": self.lambda2,
                "lambda_min": self.lambda_min, "gap": self.gap,
                "t_rel": self.t_rel, "method": self.method,
                "residual": self.residual, "matvecs": self.matvecs}


def _lanczos(matvec, n, seed):
    """Top eigenpair of a symmetric operator on R^n by ARPACK, from a start
    vector drawn with ``seed``; returns (value, vector, matvecs)."""
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    matvecs = 0

    def counted(x):
        nonlocal matvecs
        matvecs += 1
        return matvec(x)

    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        vals, vecs = eigsh(LinearOperator((n, n), matvec=counted, dtype=float),
                           k=1, which="LA", v0=v0, tol=LANCZOS_TOL)
    except ArpackNoConvergence as exc:
        raise VerificationError(f"Lanczos did not converge: {exc}") from exc
    return float(vals[0]), vecs, matvecs


def spectral_report(tm, check_ergodic=True, compute_lambda_min=True, seed=7):
    """Second eigenvalue, minimal eigenvalue and relaxation time.

    P must have unit row sums and is symmetric (mu is uniform), so its top
    pair (1, 1/sqrt(N)) is known.  Lanczos, stopped at ``LANCZOS_TOL``, gives
    lambda_2 as the top eigenvalue of P - 2J/N, which sends the constant
    vector to -1, and 1 - lambda_min as that of I - P (lambda_min is NaN
    without ``compute_lambda_min``).  Row sums off 1 or lambda_2 above 1,
    non-convergence, a residual max ||Px - lambda x|| over the reported pairs
    above ``RESIDUAL_TOL`` and a heat-bath lambda_min below the floor raise.
    """
    ncomp = tm.components() if check_ergodic else 1
    if ncomp != 1:
        raise NonErgodicError(f"chain splits into {ncomp} components")
    if tm.row_sum_error() > 1e-9:
        raise VerificationError(f"row sums miss 1 by {tm.row_sum_error():.3g}: not stochastic")
    P = tm.matrix
    if tm.n <= 3:  # tiny chains take LAPACK
        vals, vecs = np.linalg.eigh(P.toarray())
        matvecs, method = 0, "dense-eigh"
    else:
        lam2, vec, matvecs = _lanczos(lambda x: P @ x - 2.0 * x.mean(), tm.n, seed)
        vals, vecs = [lam2, 1.0], [vec, np.full((tm.n, 1), tm.n ** -0.5)]
        if compute_lambda_min:
            top, vec, count = _lanczos(lambda x: x - P @ x, tm.n, seed)
            vals, vecs, matvecs = [1.0 - top] + vals, [vec] + vecs, matvecs + count
        vals, vecs, method = np.array(vals), np.hstack(vecs), "lanczos"
    residual = float(np.max(np.linalg.norm(P @ vecs - vecs * vals, axis=0)))
    if residual > RESIDUAL_TOL:
        raise VerificationError(
            f"eigenpair residual {residual:.3g} is above {RESIDUAL_TOL:g}")
    if np.max(vals) > 1.0 + 1e-9:
        raise VerificationError(f"eigenvalue {np.max(vals)} is above 1: not stochastic")
    lam2 = float(vals[-2]) if tm.n > 1 else 1.0
    lam_min = float(vals[0]) if compute_lambda_min else math.nan
    if tm.kind != dynamics.UNIFORM_GLAUBER and lam_min < HEATBATH_FLOOR:
        raise VerificationError(
            f"heat-bath spectrum should be nonnegative, found {lam_min}")
    lam_star = max(abs(lam2), abs(lam_min)) if compute_lambda_min else lam2
    gap = 1.0 - lam_star
    if gap <= 0:
        raise NonErgodicError("absolute spectral gap is zero")
    return SpectralReport(tm.n, lam2, lam_min, gap, 1.0 / gap, method,
                          residual, matvecs)


def _tv_from_uniform(mat, weight):
    """max over rows of TV(row, uniform)."""
    return float(0.5 * np.max(np.abs(mat - weight).sum(axis=1)))


def mixing_time(tm, eps=0.25, cap=MIXING_CAP):
    """Smallest t with max_x TV(delta_x P^t, mu) <= eps, by exact distribution
    evolution with doubling plus binary search."""
    if eps >= 1.0:
        return 0
    if eps <= 0.0:
        raise ParameterError("eps must be positive")
    if tm.n > cap:
        raise CapacityError(f"{tm.n} states is above the mixing cap {cap}",
                            estimated=tm.n)
    w = tm.dist.weight
    P = tm.matrix.toarray()
    if _tv_from_uniform(np.eye(tm.n), w) <= eps:
        return 0
    powers = [P]  # powers[j] = P^(2^j)
    t = 1
    while _tv_from_uniform(powers[-1], w) > eps:
        powers.append(powers[-1] @ powers[-1])
        t *= 2
        if t > 10 ** 9:
            raise CapacityError("mixing time beyond doubling horizon")
    lo, hi = t // 2, t  # d(lo) > eps >= d(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        mat = None
        bits = mid
        j = 0
        while bits:
            if bits & 1:
                mat = powers[j] if mat is None else mat @ powers[j]
            bits >>= 1
            j += 1
        if _tv_from_uniform(mat, w) <= eps:
            hi = mid
        else:
            lo = mid
    return hi


def conductance(tm, S):
    """Stationary flow out of S over mu(S)."""
    S = sorted(set(S))
    if not S:
        raise ParameterError("conductance needs a nonempty state set")
    mask = np.zeros(tm.n, dtype=bool)
    mask[S] = True
    mu = tm.stationary()
    out_rows = np.asarray(tm.matrix[mask][:, ~mask].sum(axis=1)).ravel()
    flow = float(mu[mask] @ out_rows)
    return flow / float(mu[mask].sum())


def color_cut(dist, e, c):
    return np.flatnonzero(dist.array[:, e] == c).tolist()


def conductance_star(tm, extra_cuts=()):
    """Upper bound on the chain conductance from structured cuts.

    Minimizes Phi over all color-pinning cuts {sigma : sigma_e = c} with
    0 < mu(S) <= 1/2, plus any user-supplied cuts.  Exact global minimization
    is not attempted.
    """
    dist = tm.dist
    tree = dist.tree
    best = None
    best_cut = None
    cuts = []
    for e in range(tree.n_edges):
        for c in sorted(dist.lists[e]):
            cuts.append((f"edge{e}=color{c}", color_cut(dist, e, c)))
    for i, S in enumerate(extra_cuts):
        cuts.append((f"user{i}", list(S)))
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


def frozen_probability_exact(tree, lists, e, cap=oracle.ENUMERATION_CAP):
    """Enumerated Pr[|available(e)| <= 1] under the root-color-1 pinning."""
    dist = oracle.enumerate_colorings(tree, lists, cap=cap)
    fiber = dist.conditional({e: 1}).array
    around = fiber[:, list(tree.neighbors[e])]
    available = sum(~np.any(around == c, axis=1) for c in lists[e])
    return int(np.count_nonzero(available <= 1)) / len(fiber)


def lower_bound_check(tree, e, q, kind=dynamics.HEATBATH_GLAUBER, strict=True,
                      tol=1e-12):
    """Frozen-edge probability and the conductance lower bound on T_rel.

    Returns a record with the enumerated probability, the closed-form value,
    the bound n*delta/(2(q-delta)^2) (n = edge count) and the exact
    relaxation time.  With ``strict`` the first of ``lower_bound_failures``
    is raised.
    """
    delta = tree.max_degree
    u = tree.edge_parent_vertex[e]
    v = tree.edge_child_vertex[e]
    if tree.degree[u] != delta or tree.degree[v] != delta:
        raise ParameterError("both endpoints of e must have degree delta")
    if not (delta + 1 <= q <= 2 * delta):
        raise ParameterError("q must lie in [delta+1, 2*delta]")
    lists = uniform_lists(tree, q)
    p_exact = frozen_probability_exact(tree, lists, e)
    p_formula = frozen_probability_formula(delta, q)
    n_edges = tree.n_edges
    trel_bound = n_edges * delta / (2.0 * (q - delta) ** 2)
    tm = transition_matrix(tree, lists, kind)
    rep = spectral_report(tm)
    record = {
        "delta": delta, "q": q, "n_edges": n_edges,
        "p_frozen_exact": p_exact,
        "p_frozen_formula": p_formula,
        "trel_bound": trel_bound,
        "t_rel": rep.t_rel,
    }
    if strict:
        failures = lower_bound_failures(record, tol)
        if failures:
            raise VerificationError(failures[0])
    return record


def lower_bound_failures(record, tol=1e-12):
    """The asserted agreements a ``lower_bound_check`` record breaks, as
    messages, in the order strict mode checks them."""
    failures = []
    p_exact, p_formula = record["p_frozen_exact"], record["p_frozen_formula"]
    if abs(p_exact - p_formula) > tol:
        failures.append(f"frozen probability mismatch: enumerated {p_exact} vs "
                        f"closed form {p_formula}")
    if record["t_rel"] < record["trel_bound"] - 1e-9:
        failures.append(f"T_rel {record['t_rel']} below the bound {record['trel_bound']}")
    return failures


# ---------------------------------------------------------------------------
# Star analysis (q = delta + 1)

def _star_distribution(delta):
    from .trees import build_complete_regular

    star = build_complete_regular(delta, 1)
    lists = uniform_lists(star, delta + 1)
    return star, lists, oracle.enumerate_colorings(star, lists)


def star_correlation_matrix(delta):
    """Pairwise influence matrix of the uniform coloring of the star with
    ``delta`` edges and ``delta + 1`` colors: entry ((u,a),(v,b)) is
    mu^{u<-a}_v(b) - mu_v(b)."""
    if delta < 1:
        raise ParameterError("delta must be >= 1")
    star, lists, dist = _star_distribution(delta)
    q = delta + 1
    n = delta * q
    psi = np.zeros((n, n))
    base = [dist.marginal([v]) for v in range(delta)]
    for u in range(delta):
        for a in range(1, q + 1):
            cond = dist.conditional({u: a})
            row = u * q + (a - 1)
            for v in range(delta):
                marg = cond.marginal([v])
                for b in range(1, q + 1):
                    psi[row, v * q + (b - 1)] = (
                        marg.get((b,), 0.0) - base[v].get((b,), 0.0))
    return psi


def star_local_walk(delta):
    """Non-lazy local walk on (edge, color) pairs of the same star: move to a
    uniformly random other edge and a color drawn from its conditional."""
    if delta < 2:
        raise ParameterError("local walk needs delta >= 2")
    star, lists, dist = _star_distribution(delta)
    q = delta + 1
    n = delta * q
    walk = np.zeros((n, n))
    for u in range(delta):
        for a in range(1, q + 1):
            cond = dist.conditional({u: a})
            row = u * q + (a - 1)
            for v in range(delta):
                if v == u:
                    continue
                marg = cond.marginal([v])
                for b in range(1, q + 1):
                    walk[row, v * q + (b - 1)] = marg.get((b,), 0.0) / (delta - 1)
    return walk


def star_correlation_closed_form(delta):
    """The explicit entries: -1/(delta+1) + [u!=v and a!=b]/delta
    + [u=v and a=b]."""
    q = delta + 1
    n = delta * q
    psi = np.zeros((n, n))
    for u in range(delta):
        for a in range(1, q + 1):
            for v in range(delta):
                for b in range(1, q + 1):
                    val = -1.0 / (delta + 1)
                    if u != v and a != b:
                        val += 1.0 / delta
                    if u == v and a == b:
                        val += 1.0
                    psi[u * q + (a - 1), v * q + (b - 1)] = val
    return psi


def local_to_global_constant(delta, strict=True):
    """prod_{j=2..delta} 1/(1 - lambda_2(local walk of the j-star)); the empty
    product for delta = 1."""
    if delta < 1:
        raise ParameterError("delta must be >= 1")
    value = 1.0
    for j in range(delta, 1, -1):
        walk = star_local_walk(j)
        lam = float(np.linalg.eigvalsh(0.5 * (walk + walk.T))[-2])
        value /= (1.0 - lam)
    if strict and value > math.exp(math.pi ** 2 / 6) + 1e-9:
        raise VerificationError(
            f"local-to-global constant {value} exceeds exp(pi^2/6)")
    return value
