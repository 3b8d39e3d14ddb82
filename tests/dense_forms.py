"""Dense N x N variance forms and a PSD eigensolve: the test oracle for the
sparse certificates of ``treecolor.tensorization``.

Every functional (global variance, conditional variance on a block, variance
of a conditional expectation) is a symmetric matrix over the enumerated
support, so a "for all f" inequality is positive-semidefiniteness of a matrix
difference, decided by a dense eigensolve with tolerance ``PSD_TOL`` on the
minimum eigenvalue.  Meant for small N only.
"""

from dataclasses import dataclass

import numpy as np

from treecolor.errors import ParameterError

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
