"""Flip couplings, staged canonical paths, and exact congestion.

For two root colors a != b on a hanging-root tree, the flip coupling pairs
each coloring with root color a to the one obtained by interchanging a and b
along the maximal alternating path below the root edge.  Canonical paths
realize that flip as a sequence of legal chain moves in three stages:

* Stage I frees the odd alternating-path edges by recoloring them (and, when
  necessary, a detour path hanging off each one) to colors outside {a, b},
  working from the leaves upward; inside a level, detour edges come before
  alternating-path edges and ties break left to right by edge id.
* Stage II recolors the even alternating-path edges from a to b (the
  pair-move variant instead exchanges the root edge with its successor).
* Stage III undoes Stage I in exact reverse order, landing on the target.

The expected congestion these paths place on each tree level, and the
per-coloring statistics controlling it, are computed exactly by enumeration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .colorings import (alternating_path, available_colors, flip,
                        star_root_lists, toggle_edge)
from .errors import ParameterError, UnsupportedRegimeError, VerificationError
from .trees import build_hanging_root, hanging_root_edge

GLAUBER_PATHS = "glauber"
EDGE_PATHS = "edge"


def color_order(q, a, b):
    """All colors with a and b moved to the back: ascending others, a, b."""
    if a == b:
        raise ParameterError("the two special colors must differ")
    rest = [c for c in range(1, q + 1) if c not in (a, b)]
    return tuple(rest) + (a, b)


@dataclass
class Coupling:
    a: int
    b: int
    pairs: list          # [(sigma, tau)] with tau = flip(sigma, r, b)
    weight: float        # uniform pair probability 1/|pairs|


def flip_coupling(tree, lists, a, b, dist=None):
    """Pair the root-color-a fiber with the root-color-b fiber by flipping."""
    r = hanging_root_edge(tree)
    if a == b or a not in lists[r] or b not in lists[r]:
        raise ParameterError("a, b must be distinct colors from the root list")
    if dist is None:
        dist = oracle.enumerate_colorings(tree, lists)
    fiber_a = [s for s in dist.states if s[r] == a]
    fiber_b = {s for s in dist.states if s[r] == b}
    pairs = [(s, flip(tree, s, r, b)) for s in fiber_a]
    if {t for _, t in pairs} != fiber_b or len(pairs) != len(fiber_b):
        raise VerificationError("flip is not a bijection between the fibers")
    return Coupling(a, b, pairs, 1.0 / len(pairs))


@dataclass
class CanonicalPath:
    states: list         # colorings gamma_0 .. gamma_m
    blocks: list         # per step, the tuple of changed edges
    stages: list         # per step, "I", "II" or "III"
    a: int = 0
    b: int = 0

    @property
    def sigma(self):
        return self.states[0]

    @property
    def tau(self):
        return self.states[-1]

    def transitions(self):
        return list(zip(self.states[:-1], self.states[1:]))

    def __len__(self):
        return len(self.blocks)


class _StageOnePlan:
    """Detour paths and recoloring targets computed from a reference coloring.

    ``side`` selects which alternating-path edges are recolored in Stage I:
    "odd" for the single-move construction, "even" for the pair-move one.
    """

    def __init__(self, tree, lists, rho, r, x, y, order, side="odd"):
        self.estar = alternating_path(tree, rho, r, y)
        self.newcolor = {}
        s = len(self.estar) - 1
        start = 1 if side == "odd" else 2
        for i in range(start, s + 1, 2):
            _, colors = _branch_path(tree, lists, rho, self.estar[i], {x, y}, order)
            self.newcolor.update(colors)
        members = set(self.newcolor)
        estar_set = set(self.estar)
        self.order = sorted(
            members,
            key=lambda e: (-tree.edge_levels[e], e in estar_set, e))


def _first_missing_at_vertex(tree, rho, v, order):
    present = {rho[f] for f in tree.edges_at_vertex[v]}
    for c in order:
        if c not in present:
            return c
    raise ParameterError("vertex has no missing color; q too small")


def _edge_at_vertex_colored(tree, rho, v, color, skip):
    for f in tree.edges_at_vertex[v]:
        if f != skip and rho[f] == color:
            return f
    return None


def _branch_path(tree, lists, rho, e_i, excluded, order):
    """Detour path below the upper endpoint of ``e_i`` that frees a color
    outside ``excluded`` for it, together with the recoloring targets.

    Returns (detour_edges, {edge: new color}); the map always contains e_i.
    """
    avail = available_colors(tree, lists, rho, e_i)
    for c in order:
        if c in avail and c not in excluded:
            return [], {e_i: c}
    v_up = tree.edge_parent_vertex[e_i]
    v_dn = tree.edge_child_vertex[e_i]
    target = _first_missing_at_vertex(tree, rho, v_dn, order)
    first = _edge_at_vertex_colored(tree, rho, v_up, target, skip=e_i)
    if first is None:
        raise VerificationError("freed color should block e_i at its upper vertex")
    colors = {e_i: target}
    detour = [first]
    cur = first
    while True:
        avail_cur = available_colors(tree, lists, rho, cur)
        if len(avail_cur) >= 2:
            for c in order:
                if c in avail_cur and c != rho[cur]:
                    colors[cur] = c
                    break
            return detour, colors
        c2 = _first_missing_at_vertex(tree, rho, tree.edge_parent_vertex[cur], order)
        nxt = _edge_at_vertex_colored(tree, rho, tree.edge_child_vertex[cur], c2, skip=cur)
        if nxt is None:
            raise VerificationError("detour construction lost its continuation")
        colors[cur] = c2
        detour.append(nxt)
        cur = nxt


def _apply_move(states, blocks, stages, state, edits, stage):
    out = list(state)
    for e, c in edits:
        out[e] = c
    out = tuple(out)
    states.append(out)
    blocks.append(tuple(e for e, _ in edits))
    stages.append(stage)
    return out


def _tau_color(plan, sigma, a, b, e):
    if e in set(plan.estar):
        return a if sigma[e] == b else b
    return sigma[e]


def _staged_path(family, sigma, pair):
    """Shared three-stage skeleton.  Stage II recolors the even
    alternating-path edges a -> b, or with ``pair`` exchanges a and b on the
    root edge and its successor and recolors the later odd edges b -> a."""
    tree, a, b = family.tree, family.a, family.b
    plan = _StageOnePlan(tree, family.lists, sigma, family.r, a, b,
                         family.order, "even" if pair else "odd")
    states, blocks, stages = [sigma], [], []
    cur = sigma
    for e in plan.order:
        cur = _apply_move(states, blocks, stages, cur, [(e, plan.newcolor[e])], "I")
    if pair:
        cur = _apply_move(states, blocks, stages, cur,
                          [(plan.estar[0], b), (plan.estar[1], a)], "II")
    for e in plan.estar[3::2] if pair else plan.estar[::2]:
        cur = _apply_move(states, blocks, stages, cur, [(e, a if pair else b)], "II")
    for e in reversed(plan.order):
        cur = _apply_move(states, blocks, stages, cur,
                          [(e, _tau_color(plan, sigma, a, b, e))], "III")
    return CanonicalPath(states, blocks, stages, a=a, b=b)


@dataclass(frozen=True)
class PathFamily:
    """What the canonical paths from root color ``a`` to ``b`` share."""
    tree: object
    lists: object
    kind: str
    a: int
    b: int
    r: int               # the hanging root edge
    order: tuple         # color_order(q, a, b)


def path_family(tree, lists, a, b, path_kind):
    """The (a, b) family of ``path_kind`` paths, once its regime is checked:
    single moves need q = delta + 2, pair moves q = delta + 1 and odd depth."""
    r = hanging_root_edge(tree)
    if path_kind not in (GLAUBER_PATHS, EDGE_PATHS):
        raise ParameterError(f"unknown path kind {path_kind!r}")
    name, spare = ("single", 2) if path_kind == GLAUBER_PATHS else ("pair", 1)
    if lists.q != tree.max_degree + spare:
        raise UnsupportedRegimeError(f"the {name}-move construction needs q = delta + {spare}")
    if path_kind == EDGE_PATHS and tree.max_level % 2 == 0:
        raise UnsupportedRegimeError("the construction assumes odd depth")
    if b == a or b not in lists[r]:
        raise ParameterError("b must be another color from the root list")
    return PathFamily(tree, lists, path_kind, a, b, r, color_order(lists.q, a, b))


def build_path(family, sigma):
    """The path of ``family`` from ``sigma`` (root color ``family.a``) to its
    flip.  Pair-move paths use the pair move exactly when the alternating
    path has even length and stops above the leaves."""
    pair = False
    if family.kind == EDGE_PATHS:
        m = len(alternating_path(family.tree, sigma, family.r, family.b))
        pair = m % 2 == 0 and m != family.tree.max_level + 1
    return _staged_path(family, sigma, pair)


def glauber_canonical_path(tree, lists, sigma, b):
    """Single-edge-move path from ``sigma`` to its flip, two colors free."""
    a = sigma[hanging_root_edge(tree)]
    return build_path(path_family(tree, lists, a, b, GLAUBER_PATHS), sigma)


def edge_dynamics_canonical_path(tree, lists, sigma, b):
    """Path of singleton moves plus (possibly) one root-pair exchange, for the
    one-extra-color regime q = delta + 1.  Depth must be odd."""
    a = sigma[hanging_root_edge(tree)]
    return build_path(path_family(tree, lists, a, b, EDGE_PATHS), sigma)


def stage_one_moves(tree, lists, rho, x, y, order, side="odd"):
    """The Stage-I move list started from ``rho`` with root color ``x``
    heading to ``y``; used by the reversal check."""
    plan = _StageOnePlan(tree, lists, rho, hanging_root_edge(tree), x, y,
                         order, side)
    return [(e, plan.newcolor[e]) for e in plan.order]


def path_blocks_for_kind(tree, path_kind):
    """Blocks a canonical path of the given kind may legally change."""
    singles = {(e,) for e in range(tree.n_edges)}
    if path_kind == GLAUBER_PATHS:
        return singles
    r = hanging_root_edge(tree)
    pairs = {tuple(sorted((r, e))) for e in tree.level_edges(1)}
    return singles | pairs


def verify_paths(dist, paths, path_kind=GLAUBER_PATHS):
    """Check canonical paths (any iterable) against the support ``dist``, the
    set of proper list colorings: every state must be a row of ``dist``; every
    step must change a nonempty block, equal to the recorded one and legal for
    ``path_kind``; no path may revisit a state (so none reuses a transition);
    each must end at the flip of its start.  The first failure raises
    ``VerificationError`` naming the start row and the state or step.

    Returns ``(src, dst, moved)``: per step, in path order, the support rows
    it moves between and the sorted edge tuple of its changed block.
    """
    tree, index = dist.tree, dist.index
    r = hanging_root_edge(tree)
    rows, lengths, recorded, target = [], [], [], []
    for p in paths:  # keep rows and blocks only, so paths may come one by one
        rows += [index.get(s, -1) for s in p.states]
        lengths.append(len(p.states))
        recorded += p.blocks
        target.append(index.get(flip(tree, p.sigma, r, p.b), -1))
    rows, lengths = np.array(rows, dtype=np.intp), np.array(lengths, dtype=np.intp)
    path_of = np.repeat(np.arange(len(lengths)), lengths)
    first = np.cumsum(lengths) - lengths
    at = np.flatnonzero(path_of[:-1] == path_of[1:])  # the state each step leaves
    if len(recorded) != len(at):
        raise VerificationError("paths must record one block per step")

    def check(bad, noun, what):  # raise at the first flagged state (or step)
        if bad.any():
            i = int(np.argmax(bad))
            pos = at[i] if noun == "step" else i
            p = path_of[pos]
            raise VerificationError(f"canonical path from row {rows[first[p]]}, "
                                    f"{noun} {pos - first[p]}: {what(i)}")

    check(rows < 0, "state", lambda i: "not a proper list coloring")
    src, dst = rows[at], rows[at + 1]
    changed = dist.array[src] != dist.array[dst]
    check(~changed.any(axis=1), "step", lambda i: "changes nothing")
    sizes = np.array([len(blk) for blk in recorded], dtype=np.intp)
    mask = np.zeros_like(changed)
    mask[np.repeat(np.arange(len(at)), sizes),
         [e for blk in recorded for e in blk]] = True
    check((changed != mask).any(axis=1) | (changed.sum(axis=1) != sizes), "step",
          lambda i: f"changed {tuple(np.flatnonzero(changed[i]).tolist())}, "
                    f"recorded {recorded[i]}")
    packed = np.packbits(changed, axis=1)  # each step's mask as a byte string
    _, one, block_of = np.unique(packed.view(f"V{packed.shape[1]}").ravel(),
                                 return_index=True, return_inverse=True)
    blocks = [tuple(np.flatnonzero(changed[i]).tolist()) for i in one]
    allowed = path_blocks_for_kind(tree, path_kind)
    legal = np.array([blk in allowed for blk in blocks], dtype=bool)
    check(~legal[block_of], "step",
          lambda i: f"changed a disallowed block {blocks[block_of[i]]}")
    _, seen = np.unique(path_of * dist.size + rows, return_index=True)
    flat = np.arange(len(rows))
    check(~np.isin(flat, seen), "state", lambda i: "revisits an earlier state")
    last = first + lengths - 1
    check(np.isin(flat, last[rows[last] != target]), "state",
          lambda i: f"ends at row {rows[i]}, not at row {target[path_of[i]]}, "
                    f"the flip of the start")
    return src, dst, [blocks[k] for k in block_of.tolist()]


# ---------------------------------------------------------------------------
# Congestion


@dataclass
class PairCongestion:
    a: int
    b: int
    fiber_a: int
    fiber_b: int
    usage: dict                # (row, row) of the support -> paths using it
    xi_levels: dict            # level -> full-measure congestion sum
    xi_pairs: float            # same for the root-pair blocks
    r_leaf: float              # full-measure expected squared leaf multiplicity
    leaf_sums: dict            # row -> sum of count**2 over its leaf transitions

    def restricted_scale(self, n_states):
        """Reweighting factor when the ambient law is conditioned on the two
        coupled root colors."""
        return (self.fiber_a + self.fiber_b) / n_states


@dataclass
class CongestionReport:
    tree: object
    lists: object
    path_kind: str
    n_states: int
    per_pair: dict             # (a, b) -> PairCongestion
    dist: object               # the support whose rows key ``usage``

    def _scale(self, pc, root_restricted):
        return pc.restricted_scale(self.n_states) if root_restricted else 1.0

    def xi(self, level, root_restricted=False):
        return max(self.xi_ab(a, b, level, root_restricted) for a, b in self.per_pair)

    def xi_pair_blocks(self, root_restricted=False):
        return max(pc.xi_pairs * self._scale(pc, root_restricted)
                   for pc in self.per_pair.values())

    def r_ab(self, a, b, root_restricted=False):
        pc = self.per_pair[(a, b)]
        return pc.r_leaf / self._scale(pc, root_restricted)

    def xi_ab(self, a, b, level, root_restricted=False):
        pc = self.per_pair[(a, b)]
        return pc.xi_levels.get(level, 0.0) * self._scale(pc, root_restricted)

    def alpha_vector(self, root_restricted=False):
        """Per-level root-tensorization constants (depth+1) * xi."""
        ell = self.tree.max_level
        return tuple((ell + 1) * self.xi(t, root_restricted) for t in range(ell + 1))

    def export(self):
        ell = self.tree.max_level
        return {
            "tree_hash": self.tree.content_hash(),
            "q": self.lists.q,
            "delta": self.tree.max_degree,
            "ell": ell,
            "kind": self.path_kind,
            "xi": [self.xi(t) for t in range(ell + 1)],
            "xi_pair_blocks": self.xi_pair_blocks() if self.path_kind == EDGE_PATHS else 0.0,
            "r_ab": {f"{a}->{b}": self.r_ab(a, b) for (a, b) in self.per_pair},
        }


def compute_congestion(tree, lists, path_kind):
    """Exact expected congestion of the canonical-path family, per ordered
    root-color pair and per tree level (plus the root-pair block class).

    Paths are checked by ``verify_paths`` and counted on support rows.  A move
    that changes block B out of state x has heat-bath rate 1/s, with s the
    size of the class of x under ``DistributionTable.classes(B)``.
    """
    r = hanging_root_edge(tree)
    dist = oracle.enumerate_colorings(tree, lists)
    n = dist.size
    ell = tree.max_level
    root_colors = sorted(lists[r])
    fibers = {a: np.flatnonzero(dist.array[:, r] == a) for a in root_colors}
    class_size = {}  # block -> class size of every state
    for block in path_blocks_for_kind(tree, path_kind):
        labels, sizes = dist.classes(block)
        class_size[block] = sizes[labels]
    per_pair = {}
    for a in root_colors:
        for b in root_colors:
            if a == b:
                continue
            family = path_family(tree, lists, a, b, path_kind)
            src, dst, blocks = verify_paths(
                dist, (build_path(family, dist.states[i]) for i in fibers[a].tolist()),
                path_kind)
            usage, moved = {}, {}  # (row, row) -> count, and -> its block
            for move, block in zip(zip(src.tolist(), dst.tolist()), blocks):
                usage[move] = usage.get(move, 0) + 1
                moved[move] = block
            p_ra = 1.0 / len(fibers[a])
            xi_levels = {t: 0.0 for t in range(ell + 1)}
            xi_pairs = r_leaf = 0.0
            leaf_sums = {}
            for (x, y), count in usage.items():
                block = moved[(x, y)]
                rate = 1.0 / int(class_size[block][x])
                load = (count * p_ra) ** 2 * n / rate
                if len(block) == 1:
                    lvl = tree.edge_levels[block[0]]
                    xi_levels[lvl] += load
                    if lvl == ell:
                        r_leaf += count ** 2 / n
                        leaf_sums[x] = leaf_sums.get(x, 0) + count ** 2
                else:
                    xi_pairs += load
            per_pair[(a, b)] = PairCongestion(
                a, b, len(fibers[a]), len(fibers[b]), usage,
                xi_levels, xi_pairs, r_leaf, leaf_sums)
    return CongestionReport(tree, lists, path_kind, n, per_pair, dist)


# ---------------------------------------------------------------------------
# Per-coloring path statistics


@dataclass
class GammaStats:
    S: int                    # alternating-path length below the root edge
    P: int                    # detour paths reaching the next-to-last level
    Z: int                    # alternating path itself reaching that level
    P_i: dict = field(default_factory=dict)


def gamma_stats(tree, lists, gamma, a, b):
    """Recompute the Stage-I geometry from an intermediate coloring.

    The root color must be a or b; for root color b the roles swap while the
    tie-break order stays the one fixed for the (a, b) family.
    """
    r = hanging_root_edge(tree)
    ell = tree.max_level
    if gamma[r] == a:
        x, y = a, b
    elif gamma[r] == b:
        x, y = b, a
    else:
        raise ParameterError("root color must be one of the coupled colors")
    order = color_order(lists.q, a, b)
    estar = alternating_path(tree, gamma, r, y)
    S = len(estar) - 1
    P_i = {}
    for i in range(1, ell + 1, 2):
        if i > S:
            P_i[i] = 0
            continue
        detour, _ = _branch_path(tree, lists, gamma, estar[i], {x, y}, order)
        P_i[i] = int(any(tree.edge_levels[e] >= ell - 1 for e in detour))
    Z = int(S >= ell - 1)
    stats = GammaStats(S=S, P=sum(P_i.values()), Z=Z, P_i=P_i)
    if not (0 <= stats.S <= ell and stats.P <= math.ceil(stats.S / 2) and stats.Z in (0, 1)):
        raise VerificationError("path statistics out of range")
    return stats


def leaf_multiplicity_sum(report, a, b, gamma):
    """Sum over leaf transitions out of ``gamma`` (single-edge moves at level
    ell) of the squared number of start colorings whose path uses them."""
    return report.per_pair[(a, b)].leaf_sums.get(report.dist.index[gamma], 0)


def leaf_count_bound(stats, delta):
    """2 (P+Z) (2 delta)^{2(P+Z)}."""
    pz = stats.P + stats.Z
    return 2 * pz * (2 * delta) ** (2 * pz)


def leaf_count_check(tree, lists, report, a, b):
    """Check the per-coloring squared-multiplicity bound exhaustively.

    Returns (ok, worst examples) over all colorings whose root carries one of
    the coupled colors; other colorings must carry no leaf transitions.
    """
    r = hanging_root_edge(tree)
    sums = report.per_pair[(a, b)].leaf_sums
    bad = []
    for row, gamma in enumerate(report.dist.states):
        lhs = sums.get(row, 0)
        if gamma[r] not in (a, b):
            if lhs:
                bad.append((gamma, lhs, 0))
            continue
        stats = gamma_stats(tree, lists, gamma, a, b)
        rhs = leaf_count_bound(stats, tree.max_degree)
        if lhs > rhs:
            bad.append((gamma, lhs, rhs))
    return not bad, bad


def tail_probability_bound(delta, ell, s, x):
    """(1-1/delta)^s C(ceil(s/2), x) prod_i (1-2/delta)^{ell+2i-s-3}.

    Only defined when every exponent is nonnegative as written (x = 0 has an
    empty product and is always fine).
    """
    exponents = [ell + 2 * i - s - 3 for i in range(1, x + 1)]
    if any(e < 0 for e in exponents):
        raise ParameterError("bound undefined: negative exponent as written")
    val = (1.0 - 1.0 / delta) ** s * math.comb(math.ceil(s / 2), x)
    for e in exponents:
        val *= (1.0 - 2.0 / delta) ** e
    return val


def tail_probability_check(tree, lists, a, b, s, x, dist=None):
    """Empirical Pr[S = s and P = x] among root-coupled colorings against the
    closed-form bound.  The bound is only asserted when its exponents are
    nonnegative as written; the record reports whether it was checked."""
    if dist is None:
        dist = oracle.enumerate_colorings(tree, lists)
    tree_ell = tree.max_level
    delta = tree.max_degree
    r = hanging_root_edge(tree)
    coupled = [g for g in dist.states if g[r] in (a, b)]
    hits = 0
    for gamma in coupled:
        st = gamma_stats(tree, lists, gamma, a, b)
        if st.S == s and st.P == x:
            hits += 1
    empirical = hits / len(coupled)
    checkable = (x == 0) or (tree_ell + 2 - s - 3 >= 0)
    if checkable:
        bound = tail_probability_bound(delta, tree_ell, s, x)
        ok = empirical <= bound + 1e-12
    else:
        bound = None
        ok = True
    return {"empirical": empirical, "bound": bound,
            "checked": checkable, "ok": ok}


# ---------------------------------------------------------------------------
# Depth-one routing bounds (one extra color)


def routing_bound_ell1(delta):
    """Exact step counts and transition multiplicities of the depth-one
    toggle routing, certifying the per-level constants 4*delta and 8."""
    q = delta + 1
    tree = build_hanging_root(delta, 1)
    lists = star_root_lists(tree, q)
    r = hanging_root_edge(tree)
    dist = oracle.enumerate_colorings(tree, lists)
    fiber = [s for s in dist.states if s[r] == 1]
    usage = {}
    steps_at = {0: 0, 1: 0}
    for sigma in fiber:
        ap = alternating_path(tree, sigma, r, 2)
        cur = sigma
        moves = [r] if len(ap) == 1 else [ap[1], r, ap[1]]
        for e in moves:
            nxt = toggle_edge(tree, lists, cur, e)
            if nxt == cur:
                raise VerificationError("toggle routing hit a frozen edge")
            usage[(cur, nxt)] = usage.get((cur, nxt), 0) + 1
            steps_at[tree.edge_levels[e]] += 1
            cur = nxt
        if cur != flip(tree, sigma, r, 2):
            raise VerificationError("toggle routing missed the flipped coloring")
    n_fiber = len(fiber)
    expected = {t: steps_at[t] / n_fiber for t in (0, 1)}
    maxmult = {0: 0, 1: 0}
    for (x, y), count in usage.items():
        diff = [e for e in range(tree.n_edges) if x[e] != y[e]]
        maxmult[tree.edge_levels[diff[0]]] = max(
            maxmult[tree.edge_levels[diff[0]]], count)
    alpha0 = 4.0 * expected[0] * maxmult[0]
    alpha1 = 4.0 * expected[1] * maxmult[1]
    if alpha0 > 4 * delta + 1e-12 or alpha1 > 8 + 1e-12:
        raise VerificationError("routing constants exceed the certified bounds")
    return {"alpha0": alpha0, "alpha1": alpha1,
            "expected_steps": expected, "max_multiplicity": maxmult}
