"""The Lanczos solve as ``treecolor.spectral._lanczos_ends`` ran it before
its scratch-vector recurrence and direct LAPACK Ritz checks: fresh numpy
temporaries per step, ``w.mean()``, ``np.linalg.norm`` and
``scipy.linalg.eigh_tridiagonal``.  The test oracle that the current solver
returns the same bits.
"""

from itertools import chain, islice

import numpy as np
from scipy.linalg import eigh_tridiagonal

from treecolor import spectral
from treecolor.errors import VerificationError


def recurrence(P, v, v_prev=None, beta=0.0):
    if v_prev is None:
        v_prev = np.zeros_like(v)
    while True:
        w = P @ v
        alpha = float(v @ w)
        w -= alpha * v
        w -= beta * v_prev
        w -= w.mean()
        beta = float(np.linalg.norm(w))
        yield v, alpha, beta, w
        v_prev, v = v, w / beta


def lanczos_ends(P, seed, want_min):
    """(values ascending, vectors as columns, matvecs), with the module's
    ``LANCZOS_*`` settings read at call time."""
    v0 = np.random.default_rng(seed).standard_normal(P.shape[0])
    v0 -= v0.mean()
    v0 /= np.linalg.norm(v0)
    keep = max(2, spectral.LANCZOS_BASIS_BYTES // v0.nbytes)
    basis, alphas, betas = [], [], []
    for v, alpha, beta, w in recurrence(P, v0):
        if len(basis) < keep:
            basis.append(v)
        alphas.append(alpha)
        betas.append(beta)
        k = len(alphas)
        if beta <= spectral.LANCZOS_TOL or k % spectral.LANCZOS_CHECK == 0:
            ends = [eigh_tridiagonal(np.array(alphas), np.array(betas[:-1]),
                                     select="i", select_range=(i, i))
                    for i in ([0, k - 1] if want_min else [k - 1])]
            if all(beta * abs(s[-1, 0]) <= spectral.LANCZOS_TOL for _, s in ends):
                break
        if k >= spectral.LANCZOS_STEPS:
            raise VerificationError(f"Lanczos did not converge in {k} steps")
    h, matvecs, vectors = len(basis), k, basis
    if k > h:
        tail = islice(recurrence(P, basis[-1], basis[-2], betas[h - 2]), k - h)
        vectors, matvecs = chain(basis, (w / beta for _, _, beta, w in tail)), 2 * k - h
    vecs = np.zeros((len(ends), len(v0)))
    for c, v in zip(np.hstack([s for _, s in ends]), vectors):
        vecs += c[:, None] * v
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return np.concatenate([theta for theta, _ in ends]), vecs.T, matvecs
