"""Dense N x N variance forms and a PSD eigensolve: the test oracle for the
sparse certificates of ``treecolor.tensorization``; and dense matrix powers:
the test oracle for ``treecolor.spectral.mixing_time``; the detailed
balance check of a sparse transition matrix; and the projection-exchange
facts of conditional expectations, on sparse projectors.

Every functional (global variance, conditional variance on a block, variance
of a conditional expectation) is a symmetric matrix over the enumerated
support, so a "for all f" inequality is positive-semidefiniteness of a matrix
difference, decided by a dense eigensolve with tolerance ``PSD_TOL`` on the
minimum eigenvalue.  Meant for small N only.
"""

from dataclasses import dataclass

import numpy as np

from treecolor import spectral
from treecolor.errors import CapacityError, ParameterError

PSD_TOL = -1e-9


def projector(dist, S):
    """Matrix of the conditional expectation given the coloring outside S:
    1/s on every pair of states in one class of size s, 0 elsewhere."""
    labels, sizes = dist.classes(S)
    return np.equal.outer(labels, labels) / sizes[labels][:, None]


def var_form(dist):
    w = np.full(dist.size, dist.weight)
    return np.diag(w) - np.outer(w, w)


def cond_var_form(dist, S):
    """Form of f -> mu[Var_S f].

    The support carries uniform weights, so the conditional expectation is a
    symmetric idempotent block-averaging matrix and the form is
    weight * (I - projector) with no matrix product needed.
    """
    form = projector(dist, S)
    form *= -dist.weight
    form.flat[::dist.size + 1] += dist.weight
    return form


def projected_var_form(dist, S):
    """Form of f -> Var_mu(mu_S[f])."""
    w = np.full(dist.size, dist.weight)
    return dist.weight * projector(dist, S) - np.outer(w, w)


@dataclass
class DenseCertificate:
    ok: bool
    min_eigenvalue: float
    marginal: bool


def certify_inequality(lhs, rhs, tol=PSD_TOL):
    """True iff rhs - lhs is PSD orthogonally to constants.

    Both sides annihilate constants by construction, so a plain eigensolve of
    the difference decides it; eigenvalues in [tol, 0) mark the certificate
    as marginal.
    """
    if lhs.shape != rhs.shape:
        raise ParameterError("forms must share a dimension")
    diff = rhs - lhs
    lam = float(np.linalg.eigvalsh(0.5 * (diff + diff.T))[0])
    return DenseCertificate(ok=lam >= tol, min_eigenvalue=lam,
                            marginal=tol <= lam < 0)


def _tv_from_uniform(mat, weight):
    """max over rows of TV(row, uniform)."""
    return float(0.5 * np.max(np.abs(mat - weight).sum(axis=1)))


def mixing_time(tm, eps=0.25):
    """Smallest t with max_x TV(delta_x P^t, mu) <= eps, by exact distribution
    evolution with doubling plus binary search."""
    if eps >= 1.0:
        return 0
    if eps <= 0.0:
        raise ParameterError("eps must be positive")
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


def detailed_balance_error(tm):
    """max |mu(x)P(x,y) - mu(y)P(y,x)|; mu is uniform so this is matrix
    asymmetry times the state weight."""
    diff = tm.matrix - tm.matrix.T
    gap = np.max(np.abs(diff.data)) if diff.nnz else 0.0
    return float(gap) * tm.dist.weight


def exterior_boundary(tree, S):
    out = set()
    for e in S:
        out.update(f for f in tree.neighbors[e] if f not in S)
    return out


def variance_exchange_checks(dist, S1, S2, n_random=100, seed=11, tol=1e-12):
    """Projection-exchange facts on an enumerated distribution.

    Requires the exterior boundary of S1 to avoid S2; checks the variance
    comparison mu[Var_S1(mu_S2 f)] <= mu[Var_S1(mu_{S1 & S2} f)] on random
    functions, and operator commutation as sparse matrices (plus the
    containment identity when one set contains the other).
    """
    tree = dist.tree
    S1, S2 = set(S1), set(S2)
    if exterior_boundary(tree, S1) & S2:
        raise ParameterError("exterior boundary of S1 must avoid S2")
    P1 = spectral.block_average(dist, [S1], [1.0])
    P2 = spectral.block_average(dist, [S2], [1.0])
    if abs(P1 @ P2 - P2 @ P1).max() > tol:
        return False
    if S2 <= S1 and abs(P1 @ P2 - P1).max() > tol:
        return False
    inner = spectral.block_average(dist, [S1 & S2], [1.0])  # the identity if empty
    F = np.random.default_rng(seed).standard_normal((n_random, dist.size)).T

    def cond_var_s1(G):  # mu[Var_S1 g] for every column g of G
        return dist.weight * np.sum((G - P1 @ G) ** 2, axis=0)

    lhs = cond_var_s1(P2 @ F)
    rhs = cond_var_s1(inner @ F)
    return bool(np.all(lhs <= rhs + 1e-9 * np.maximum(1.0, np.abs(rhs))))
