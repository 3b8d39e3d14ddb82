"""Variance functionals as quadratic forms, and PSD certification of the
factorization inequalities.

Every functional of interest (global variance, summed conditional variances
over blocks, variance of a conditional expectation) is assembled as a
symmetric matrix over the enumerated support, so "for all f" inequalities
become positive-semidefiniteness of a matrix difference, decided by an exact
eigensolve with tolerance -1e-9 on the minimum eigenvalue.  Optimal
tensorization constants come from the spectral gap of the matching block
dynamics, through the Lanczos solver of ``spectral.spectral_report``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, oracle, spectral
from .colorings import pinned_root_lists, uniform_lists
from .errors import NonErgodicError, ParameterError
from .trees import Tree, build_complete_regular, build_hanging_root

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
class Certificate:
    ok: bool
    min_eigenvalue: float
    marginal: bool

    def export(self, instance="", inequality=""):
        return {"instance": instance, "inequality": inequality,
                "min_eigenvalue": self.min_eigenvalue,
                "verdict": "pass" if self.ok else "fail",
                "marginal": self.marginal}


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
    return Certificate(ok=lam >= tol, min_eigenvalue=lam, marginal=tol <= lam < 0)


def optimal_at_constant(dist, blocks, chain_tol=1e-12):
    """Smallest uniform C with Var(f) <= C * sum_B mu[Var_B f] for all f.

    The right side is #blocks times the Dirichlet form of the block dynamics
    that heat-bath updates a uniformly random block, so with uniform weights
    the optimum is 1 / (#blocks * (1 - lambda_2)) of that chain.
    """
    blocks = [tuple(b) for b in blocks]
    covered = set()
    for b in blocks:
        covered.update(b)
    if covered != set(range(dist.tree.n_edges)):
        raise ParameterError("blocks must cover all edges")
    spec = dynamics.BlockSpec(tuple(blocks), tuple([1.0] * len(blocks)))
    tm = spectral.transition_matrix(dist.tree, dist.lists, dynamics.BLOCK,
                                    block_spec=spec, dist=dist)
    rep = spectral.spectral_report(tm, compute_lambda_min=False)
    gap2 = 1.0 - rep.lambda2
    if gap2 <= chain_tol:
        raise NonErgodicError("block dynamics has no spectral gap")
    return 1.0 / (len(blocks) * gap2)


def singleton_blocks(tree):
    return [(e,) for e in range(tree.n_edges)]


def check_root_tensorization(tree, lists, alpha):
    """Certify Var(mu_{everything below}[f]) against per-level conditional
    variances with weights ``alpha[level]``."""
    dist = oracle.enumerate_colorings(tree, lists)
    r_level = tree.min_level
    if r_level != 0:
        raise ParameterError("root tensorization needs a hanging-root tree")
    (r,) = tree.level_edges(0)
    rest = [e for e in range(tree.n_edges) if e != r]
    lhs = projected_var_form(dist, rest)
    rhs = np.zeros_like(lhs)
    for t in range(tree.max_level + 1):
        for e in tree.level_edges(t):
            rhs += alpha[t] * cond_var_form(dist, (e,))
    return certify_inequality(lhs, rhs)


def check_root_factorization(tree, lists, alpha, beta):
    """Pair-block variant: singleton weights per level plus weight ``beta``
    on every {root edge, level-1 edge} block."""
    dist = oracle.enumerate_colorings(tree, lists)
    (r,) = tree.level_edges(0)
    rest = [e for e in range(tree.n_edges) if e != r]
    lhs = projected_var_form(dist, rest)
    rhs = np.zeros_like(lhs)
    for t in range(tree.max_level + 1):
        for e in tree.level_edges(t):
            rhs += alpha[t] * cond_var_form(dist, (e,))
    for e in tree.level_edges(1):
        rhs += beta * cond_var_form(dist, tuple(sorted((r, e))))
    return certify_inequality(lhs, rhs)


def check_block_factorization(dist, weights):
    """Certify Var(f) <= sum_B C(B) mu[Var_B f] for a block->weight map."""
    lhs = var_form(dist)
    rhs = np.zeros_like(lhs)
    for block, c in weights.items():
        if c < 0:
            raise ParameterError("block weights must be nonnegative")
        if c:
            rhs += c * cond_var_form(dist, tuple(block))
    return certify_inequality(lhs, rhs)


# ---------------------------------------------------------------------------
# The level-weight recursion


def f_recursion(k, t, ell, alpha, gamma):
    """Per-level constants built from the depth-ell seed: gamma at the base,
    stitched down the tree in slabs of depth ell."""
    if not (1 <= t <= k):
        raise ParameterError("need 1 <= t <= k")
    if len(alpha) != ell + 1:
        raise ParameterError("alpha must have ell + 1 entries")
    if k <= ell:
        return gamma
    if t <= k - ell - 1:
        return f_recursion(k - ell, t, ell, alpha, gamma)
    base = f_recursion(k - ell, k - ell, ell, alpha, gamma)
    if t == k - ell:
        return alpha[0] * base
    return alpha[t - k + ell] * base + gamma


def f_hat(k, t, ell, alpha, gamma):
    """Closed-form upper bound for the recursion."""
    if not (1 <= t <= k):
        raise ParameterError("need 1 <= t <= k")
    residues = [j for j in range(1, t) if (j - k) % ell == 0]
    count = len(residues)
    top = max(residues) if residues else 0
    geom = sum(alpha[ell] ** i for i in range(count + 1))
    in_class = (t - k) % ell == 0 and t != k
    return gamma * (geom * alpha[t - top] + 1.0) * (alpha[0] if in_class else 1.0)


def gamma_constant(delta, q, ell):
    """Largest optimal tensorization constant over the depth <= ell pieces:
    the uniform complete trees and the root-pinned hanging trees."""
    best = 0.0
    for j in range(1, ell + 1):
        t = build_complete_regular(delta, j)
        d = oracle.enumerate_colorings(t, uniform_lists(t, q))
        best = max(best, optimal_at_constant(d, singleton_blocks(t)))
        ts = build_hanging_root(delta, j)
        d2 = oracle.enumerate_colorings(ts, pinned_root_lists(ts, q, 1))
        best = max(best, optimal_at_constant(d2, singleton_blocks(ts)))
    return best


def verify_induction(tree, lists, ell, alpha, gamma):
    """Certify the full-variance inequality with per-level constants from the
    recursion, given root-tensorization weights ``alpha`` and base ``gamma``."""
    k = tree.max_level
    dist = oracle.enumerate_colorings(tree, lists)
    consts = {t: f_recursion(k, t, ell, alpha, gamma) for t in range(1, k + 1)}
    lhs = var_form(dist)
    rhs = np.zeros_like(lhs)
    for t, c in consts.items():
        for e in tree.level_edges(t):
            rhs += c * cond_var_form(dist, (e,))
    cert = certify_inequality(lhs, rhs)
    return {"constants": consts, "certificate": cert, "ok": cert.ok}


def uniform_pair_block_constant(alpha, beta, gamma, k, ell):
    """Uniform weight for the singleton-plus-adjacent-pair factorization
    implied by the pair-block seed."""
    geom = sum(alpha[ell] ** i for i in range(k // ell + 1))
    return beta * gamma * (max(alpha) * geom + max(1.0, alpha[0]))


# ---------------------------------------------------------------------------
# Monotonicity under passing to a rooted subtree


def restrict_tree(tree, sub_edges):
    """Subtree of ``tree`` spanned by the given edges; must be connected and
    contain the root."""
    sub_edges = set(sub_edges)
    keep = {tree.root}
    for e in sorted(sub_edges, key=lambda e: tree.edge_levels[e]):
        p = tree.edge_parent_vertex[e]
        c = tree.edge_child_vertex[e]
        if p not in keep:
            raise ParameterError("sub-edges must form a rooted connected subtree")
        keep.add(c)
    relabel = {v: i for i, v in enumerate(sorted(keep, key=lambda v: tree.vertex_depth[v]))}
    parent = [None] * len(keep)
    for v in keep:
        if v == tree.root:
            continue
        parent[relabel[v]] = relabel[tree.parent[v]]
    return Tree(parent, root=relabel[tree.root])


def check_monotonicity(super_tree, sub_edges, q):
    """Optimal constants of a rooted subtree against the full tree.

    Asserts the factor-q bound for singleton blocks and the factor-(q+1)^2
    bound for the singleton-plus-adjacent-pair blocks.
    """
    sub_tree = restrict_tree(super_tree, sub_edges)
    recs = {}
    for name, tr in (("super", super_tree), ("sub", sub_tree)):
        d = oracle.enumerate_colorings(tr, uniform_lists(tr, q))
        recs[name] = {
            "singleton": optimal_at_constant(d, singleton_blocks(tr)),
            "pairs": optimal_at_constant(d, dynamics.pair_blocks(tr)),
        }
    ok_single = recs["sub"]["singleton"] <= q * recs["super"]["singleton"] + 1e-9
    ok_pairs = recs["sub"]["pairs"] <= (q + 1) ** 2 * recs["super"]["pairs"] + 1e-9
    return {"super": recs["super"], "sub": recs["sub"],
            "ok_singleton": ok_single, "ok_pairs": ok_pairs,
            "ok": ok_single and ok_pairs}


# ---------------------------------------------------------------------------
# Conditional-expectation exchange facts


def _line_distance(tree, S, T):
    from collections import deque

    dist = {e: 0 for e in S}
    dq = deque(S)
    while dq:
        e = dq.popleft()
        for f in tree.neighbors[e]:
            if f not in dist:
                dist[f] = dist[e] + 1
                dq.append(f)
    return min(dist.get(e, math.inf) for e in T)


def exterior_boundary(tree, S):
    out = set()
    for e in S:
        out.update(f for f in tree.neighbors[e] if f not in S)
    return out


def variance_exchange_checks(dist, S1, S2, n_random=100, seed=11, tol=1e-12):
    """Projection-exchange facts on an enumerated distribution.

    Requires the exterior boundary of S1 to avoid S2; checks the variance
    comparison on random functions, and operator commutation as matrices
    (plus the containment identity when one set contains the other).
    """
    tree = dist.tree
    S1, S2 = set(S1), set(S2)
    if exterior_boundary(tree, S1) & S2:
        raise ParameterError("exterior boundary of S1 must avoid S2")
    P1 = projector(dist, S1)
    P2 = projector(dist, S2)
    if np.max(np.abs(P1 @ P2 - P2 @ P1)) > tol:
        return False
    if S2 <= S1:
        if np.max(np.abs(P1 @ P2 - P1)) > tol:
            return False
    inner = projector(dist, S1 & S2) if S1 & S2 else np.eye(dist.size)
    w = np.full(dist.size, dist.weight)
    form_s1 = np.diag(w) - P1.T @ (w[:, None] * P1)
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        f = rng.standard_normal(dist.size)
        lhs = float((P2 @ f) @ form_s1 @ (P2 @ f))
        rhs = float((inner @ f) @ form_s1 @ (inner @ f))
        if lhs > rhs + 1e-9 * max(1.0, abs(rhs)):
            return False
    return True


def commutation_holds(dist, S, T, tol=1e-12):
    """mu_S mu_T = mu_T mu_S as matrices, for sets separated by line-graph
    distance >= 2."""
    if _line_distance(dist.tree, S, T) < 2:
        raise ParameterError("sets must be at line-graph distance >= 2")
    P1 = projector(dist, S)
    P2 = projector(dist, T)
    return bool(np.max(np.abs(P1 @ P2 - P2 @ P1)) <= tol)
