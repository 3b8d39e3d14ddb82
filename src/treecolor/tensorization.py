"""Approximate tensorization of variance, decided on the block chain.

Every inequality certified here reads lhs <= sum_B c_B mu[Var_B f] for all
f, where lhs is Var f or, for root tensorization, Var(mu[f | sigma_given]).
With mu[Var_B f] = w f^T (I - Pi_B) f and w = 1/N, the right side is
w f^T L f for the sparse Laplacian L = sum_B c_B (I - Pi_B) = sum c (I - P)
of the weighted heat-bath block chain P.  ``factorization_constant`` returns
the smallest C with lhs <= C * rhs:

* full variance: C = 1 / (sum c (1 - lambda_2(P))), by the Lanczos solver of
  ``spectral.spectral_report``;
* projected variance, of rank below the number k of classes of ``given``:
  C is the top eigenvalue of the k x k matrix V^T L^+ V, for the normalized
  class indicators V, from k grounded sparse LU solves, each residual-checked;
* a reducible block chain, or all-zero weights: C = infinity.

A ``Certificate`` holds C.  The weights carry the inequality iff its slack
1/C - 1 is at least -SLACK_TOL; for full variance the slack is
lambda_min(L) - 1 on the functions orthogonal to constants.  No N x N dense
matrix is built.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import dynamics, oracle, spectral
from .colorings import pinned_root_lists, uniform_lists
from .errors import NonErgodicError, ParameterError, VerificationError
from .trees import Tree, build_complete_regular, build_hanging_root

SLACK_TOL = 1e-9


def factorization_constant(dist, weights, given=None):
    """Smallest C with lhs <= C * sum_B c_B mu[Var_B f] for all f, for a
    block -> c_B map ``weights``; lhs is Var f, or Var(mu[f | sigma_given])
    when the edge set ``given`` is named.

    0 when lhs vanishes (one state, or one class of ``given``).  Infinity
    when every weight is zero or the block chain is reducible; for the
    projected lhs that is a safe bound rather than always the optimum.
    """
    import scipy.sparse as sp

    if any(c < 0 for c in weights.values()):
        raise ParameterError("block weights must be nonnegative")
    weights = {tuple(b): float(c) for b, c in weights.items() if c > 0}
    if given is None:
        k = dist.size
    else:
        given = set(given)
        labels, sizes = dist.classes(
            [e for e in range(dist.tree.n_edges) if e not in given])
        k = len(sizes)
    if k == 1:
        return 0.0
    if not weights:
        return math.inf
    spec = dynamics.BlockSpec(tuple(weights), tuple(weights.values()))
    tm = spectral.transition_matrix(dist.tree, dist.lists, dynamics.BLOCK,
                                    block_spec=spec, dist=dist)
    if tm.components() > 1:
        return math.inf
    total = sum(weights.values())
    if given is None:
        rep = spectral.spectral_report(tm, check_ergodic=False,
                                       compute_lambda_min=False)
        return 1.0 / (total * (1.0 - rep.lambda2))
    laplacian = total * (sp.identity(dist.size, format="csr") - tm.matrix)
    return _projected_constant(laplacian, labels, sizes)


def _projected_constant(laplacian, labels, sizes):
    """Top eigenvalue of V^T L^+ V for the normalized class indicators V.

    L^+ annihilates constants, so the columns of V are centered first.  A
    centered right side b sums to zero, so the solve with state 0 grounded
    (its row and column dropped, which leaves L nonsingular on a connected
    chain) meets L x = b in every row, and b^T x = b^T L^+ b.
    """
    from scipy.sparse.linalg import splu

    n = len(labels)
    V = np.zeros((n, len(sizes)))
    V[np.arange(n), labels] = 1.0 / np.sqrt(sizes[labels])
    b = V - V.mean(axis=0)
    x = np.zeros_like(b)
    x[1:] = splu(laplacian[1:, 1:].tocsc()).solve(b[1:])
    residual = float(np.max(np.linalg.norm(laplacian @ x - b, axis=0)))
    if residual > spectral.RESIDUAL_TOL:
        raise VerificationError(f"grounded solve residual {residual:.3g} is "
                                f"above {spectral.RESIDUAL_TOL:g}")
    gram = b.T @ x
    return float(np.linalg.eigvalsh(0.5 * (gram + gram.T))[-1])


@dataclass(frozen=True)
class Certificate:
    """Verdict on lhs <= sum_B c_B mu[Var_B f] from its smallest constant."""

    constant: float

    @property
    def slack(self):
        return 1.0 / self.constant - 1.0 if self.constant else math.inf

    @property
    def ok(self):
        return self.slack >= -SLACK_TOL

    @property
    def marginal(self):
        """A pass only within the tolerance."""
        return self.ok and self.slack < 0

    def export(self, instance="", inequality=""):
        """JSON fields; strict JSON has no infinity, so it exports as null."""
        return {"instance": instance, "inequality": inequality,
                "constant": _finite_or_none(self.constant),
                "slack": _finite_or_none(self.slack),
                "verdict": "pass" if self.ok else "fail",
                "marginal": self.marginal}


def _finite_or_none(x):
    return x if math.isfinite(x) else None


def optimal_at_constant(dist, blocks):
    """Smallest uniform C with Var(f) <= C * sum_B mu[Var_B f] for all f:
    1 / (#blocks * (1 - lambda_2)) of the block dynamics that heat-bath
    updates a uniformly random block."""
    blocks = [tuple(b) for b in blocks]
    if set().union(*blocks) != set(range(dist.tree.n_edges)):
        raise ParameterError("blocks must cover all edges")
    C = factorization_constant(dist, Counter(blocks))
    if math.isinf(C):
        raise NonErgodicError("block dynamics has no spectral gap")
    return C


def singleton_blocks(tree):
    return [(e,) for e in range(tree.n_edges)]


def check_root_tensorization(tree, lists, alpha, beta=0.0):
    """Certify Var(mu[f | root edge color]) against per-level conditional
    variances with weights ``alpha[level]``, plus weight ``beta`` on every
    {root edge, level-1 edge} block."""
    if tree.min_level != 0:
        raise ParameterError("root tensorization needs a hanging-root tree")
    (r,) = tree.level_edges(0)
    weights = {(e,): alpha[tree.edge_levels[e]] for e in range(tree.n_edges)}
    for e in tree.level_edges(1):
        weights[tuple(sorted((r, e)))] = beta
    dist = oracle.enumerate_colorings(tree, lists)
    return Certificate(factorization_constant(dist, weights, given=(r,)))


def check_block_factorization(dist, weights):
    """Certify Var(f) <= sum_B C(B) mu[Var_B f] for a block->weight map."""
    return Certificate(factorization_constant(dist, weights))


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
    weights = {(e,): c for t, c in consts.items() for e in tree.level_edges(t)}
    cert = check_block_factorization(dist, weights)
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
    comparison mu[Var_S1(mu_S2 f)] <= mu[Var_S1(mu_{S1 & S2} f)] on random
    functions, and operator commutation as sparse matrices (plus the
    containment identity when one set contains the other).
    """
    tree = dist.tree
    S1, S2 = set(S1), set(S2)
    if exterior_boundary(tree, S1) & S2:
        raise ParameterError("exterior boundary of S1 must avoid S2")
    P1 = spectral.block_projector(dist, S1)
    P2 = spectral.block_projector(dist, S2)
    if abs(P1 @ P2 - P2 @ P1).max() > tol:
        return False
    if S2 <= S1 and abs(P1 @ P2 - P1).max() > tol:
        return False
    inner = spectral.block_projector(dist, S1 & S2)  # the identity if empty
    F = np.random.default_rng(seed).standard_normal((n_random, dist.size)).T

    def cond_var_s1(G):  # mu[Var_S1 g] for every column g of G
        return dist.weight * np.sum((G - P1 @ G) ** 2, axis=0)

    lhs = cond_var_s1(P2 @ F)
    rhs = cond_var_s1(inner @ F)
    return bool(np.all(lhs <= rhs + 1e-9 * np.maximum(1.0, np.abs(rhs))))


def commutation_holds(dist, S, T, tol=1e-12):
    """mu_S mu_T = mu_T mu_S as matrices, for sets separated by line-graph
    distance >= 2."""
    if _line_distance(dist.tree, S, T) < 2:
        raise ParameterError("sets must be at line-graph distance >= 2")
    P1 = spectral.block_projector(dist, S)
    P2 = spectral.block_projector(dist, T)
    return bool(abs(P1 @ P2 - P2 @ P1).max() <= tol)
