"""The per-path canonical-path builder and verifier: the test oracles for
the batched ``treecolor.canonical.build_paths`` and ``verify_paths``.

The builder walks one start coloring at a time on color tuples
(``_StageOnePlan``, ``_branch_path``, ``_staged_path``); the verifier checks
one path state by state with ``is_proper`` and diffs every edge of every
step.  Both are slow, but they need nothing from the enumerated support.
``reference_step_blocks`` numbers the changed blocks by their change
masks.  The depth-one toggle routing (``toggle_routes``) is the oracle for
``routing_bound_ell1``.

The per-coloring lemmas behind the congestion bound are checked here too:
``reference_gamma_stats`` walks the Stage-I detours of one coloring, and
``reference_leaf_count_check`` and ``reference_tail_probability_check`` set
them against the closed forms ``leaf_count_bound`` and
``tail_probability_bound``.  ``exact_congestion`` is the per-transition
oracle for the congestion sums, in Python ints.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from coloring_reference import (alternating_path, available_colors, flip,
                                is_proper, states_of)
from treecolor import oracle
from treecolor.canonical import (EDGE_PATHS, GLAUBER_PATHS, PathBatch,
                                 color_order, path_blocks_for_kind, path_family)
from treecolor.colorings import star_root_lists
from treecolor.errors import ParameterError, VerificationError
from treecolor.trees import build_hanging_root, hanging_root_edge

STAGE_NAMES = {1: "I", 2: "II", 3: "III"}  # the stage codes of a PathBatch


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


def reference_path(family, sigma):
    """The per-start path; pair-move paths use the pair move exactly when
    the alternating path has even length and stops above the leaves."""
    pair = False
    if family.kind == EDGE_PATHS:
        m = len(alternating_path(family.tree, sigma, family.r, family.b))
        pair = m % 2 == 0 and m != family.tree.max_level + 1
    return _staged_path(family, sigma, pair)


def reference_stage_one_moves(tree, lists, rho, x, y, order, side="odd"):
    plan = _StageOnePlan(tree, lists, rho, hanging_root_edge(tree), x, y,
                         order, side)
    return [(e, plan.newcolor[e]) for e in plan.order]


@dataclass
class GammaStats:
    S: int                    # alternating-path length below the root edge
    P: int                    # detour paths reaching the next-to-last level
    Z: int                    # alternating path itself reaching that level
    P_i: dict = field(default_factory=dict)


def reference_gamma_stats(tree, lists, gamma, a, b):
    """Stage-I geometry of one coloring, by one detour walk per odd edge."""
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
    return GammaStats(S=S, P=sum(P_i.values()), Z=int(S >= ell - 1), P_i=P_i)


def leaf_count_bound(stats, delta):
    """2 (P+Z) (2 delta)^{2(P+Z)}."""
    pz = stats.P + stats.Z
    return 2 * pz * (2 * delta) ** (2 * pz)


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


def exact_congestion(dist, usage, fiber_a, class_size=None):
    """The congestion of one family from its ``usage`` {(x, y): paths}, one
    transition at a time in Python ints: a move x -> y used by k of the F =
    ``fiber_a`` paths, changing block B at level t (-1 for a pair block),
    adds k^2 s to S_t, with s the size of the class of x under B re-read
    from the support by ``dist.classes`` (or ``class_size(x, B)``); each
    level reports N S_t / F^2 and the leaf term sum k^2 / N, each an int/int
    division, so rounded once.  Returns (xi_levels, xi_pairs, r_leaf)."""
    tree, n, classes = dist.tree, dist.size, {}
    if class_size is None:
        def class_size(x, block):
            if block not in classes:
                classes[block] = dist.classes(block)
            labels, sizes = classes[block]
            return int(sizes[labels[x]])
    ell = tree.max_level
    sums, leaf = dict.fromkeys(range(-1, ell + 1), 0), 0
    for (x, y), k in usage.items():
        x, k = int(x), int(k)
        block = tuple(np.flatnonzero(dist.array[x] != dist.array[y]).tolist())
        s = class_size(x, block)
        level = tree.edge_levels[block[0]] if len(block) == 1 else -1
        sums[level] += k * k * s
        leaf += k * k if level == ell else 0
    f2 = fiber_a * fiber_a
    return {t: n * sums[t] / f2 for t in range(ell + 1)}, n * sums[-1] / f2, leaf / n


def leaf_multiplicity_sums(report, a, b):
    """Per source row of the (a, b) usage, in the order of its transitions,
    the sum of count**2 over its leaf transitions: single-edge moves at the deepest
    level, found by diffing the two rows of each used transition."""
    pc, array, tree = report.per_pair[(a, b)], report.dist.array, report.tree
    changed = array[pc.x] != array[pc.y]
    leaf = ((changed.sum(axis=1) == 1)
            & changed[:, sorted(tree.level_edges(tree.max_level))].any(axis=1))
    sums = {}
    for row, count in zip(pc.x[leaf].tolist(), pc.counts[leaf].tolist()):
        sums[row] = sums.get(row, 0) + count ** 2
    return sums


def reference_leaf_count_check(tree, lists, report, a, b):
    """The per-coloring squared-multiplicity bound, checked state by state.

    Returns (ok, worst examples): a coloring whose root carries one of the
    coupled colors must keep its leaf multiplicity sum within
    ``leaf_count_bound`` of its statistics; any other must carry no leaf
    transitions.
    """
    r, sums, bad = hanging_root_edge(tree), leaf_multiplicity_sums(report, a, b), []
    for row, gamma in enumerate(states_of(report.dist)):
        lhs = sums.get(row, 0)
        if gamma[r] not in (a, b):
            if lhs:
                bad.append((gamma, lhs, 0))
            continue
        rhs = leaf_count_bound(reference_gamma_stats(tree, lists, gamma, a, b),
                               tree.max_degree)
        if lhs > rhs:
            bad.append((gamma, lhs, rhs))
    return not bad, bad


def reference_tail_probability_check(tree, lists, a, b, s, x, dist):
    """Empirical Pr[S = s and P = x] among root-coupled colorings against
    ``tail_probability_bound``, asserted only where its exponents are
    nonnegative as written; the record says whether it was checked."""
    r, ell = hanging_root_edge(tree), tree.max_level
    stats = [reference_gamma_stats(tree, lists, g, a, b)
             for g in states_of(dist) if g[r] in (a, b)]
    empirical = sum(st.S == s and st.P == x for st in stats) / len(stats)
    checked = x == 0 or ell - s - 1 >= 0
    bound = tail_probability_bound(tree.max_degree, ell, s, x) if checked else None
    return {"empirical": empirical, "bound": bound, "checked": checked,
            "ok": not checked or empirical <= bound + 1e-12}


def batch_of_paths(dist, paths, path_kind=GLAUBER_PATHS):
    """``CanonicalPath`` objects of one family as a ``PathBatch`` whose
    states are looked up among the rows of ``dist``."""
    tree, m = dist.tree, dist.tree.n_edges
    family = path_family(tree, dist.lists, paths[0].a, paths[0].b, path_kind)
    edits = [[(e, p.states[k + 1][e]) for e in blk] + [(m, 0)] * (2 - len(blk))
             for p in paths for k, blk in enumerate(p.blocks)]
    codes = {name: code for code, name in STAGE_NAMES.items()}
    return PathBatch(
        family, np.array([len(p.blocks) for p in paths], dtype=np.intp),
        np.array([[e for e, _ in step] for step in edits], dtype=np.intp).reshape(-1, 2),
        np.array([[c for _, c in step] for step in edits]).reshape(-1, 2),
        np.array([codes[s] for p in paths for s in p.stages], dtype=np.uint8),
        dist.rows_of([s for p in paths for s in p.states]))


def unpack(dist, batch):
    """The paths of a built batch as ``CanonicalPath`` objects, states as
    tuples (None for a path with a state outside the support)."""
    m, family = dist.tree.n_edges, batch.family
    out, state, step = [], 0, 0
    for n in batch.lengths.tolist():
        rows = batch.rows[state:state + n + 1]
        states = [tuple(s) for s in dist.array[rows].tolist()] if (rows >= 0).all() else None
        blocks = [tuple(e for e in pair if e < m)
                  for pair in batch.edges[step:step + n].tolist()]
        stages = [STAGE_NAMES[s] for s in batch.stages[step:step + n].tolist()]
        out.append(CanonicalPath(states, blocks, stages, a=family.a, b=family.b))
        state, step = state + n + 1, step + n
    return out


def verify_path(tree, lists, path, path_kind=GLAUBER_PATHS):
    """Properness, legal-single-block moves, simplicity and endpoint checks.

    Returns (ok, diagnostics).
    """
    diags = []
    allowed = path_blocks_for_kind(tree, path_kind)
    for i, state in enumerate(path.states):
        if not is_proper(tree, lists, state):
            diags.append(f"state {i} is not a proper list coloring")
    for i, (x, y) in enumerate(path.transitions()):
        diff = tuple(sorted(e for e in range(tree.n_edges) if x[e] != y[e]))
        if not diff:
            diags.append(f"step {i} does not change the coloring")
            continue
        if diff != tuple(sorted(path.blocks[i])):
            diags.append(f"step {i} changed {diff}, recorded {path.blocks[i]}")
        if diff not in allowed:
            diags.append(f"step {i} changed a disallowed block {diff}")
    if len(set(path.states)) != len(path.states):
        diags.append("path revisits a state")
    if len(set(path.transitions())) != len(path.transitions()):
        diags.append("path reuses a transition")
    r = hanging_root_edge(tree)
    if path.tau != flip(tree, path.sigma, r, path.b):
        diags.append("endpoints are not a flip-coupled pair")
    return not diags, diags


def reference_step_blocks(dist, batch):
    """Per step of a ``PathBatch``, the rows it moves between and its changed
    block, read off the (steps x m) change mask of the two rows: the blocks
    are numbered by one ``np.unique`` of the masks packed into byte strings.
    The oracle for the blocks ``verify_paths`` reads off the recorded edits."""
    lengths = batch.lengths + 1
    path_of = np.repeat(np.arange(len(lengths)), lengths)
    at = np.flatnonzero(path_of[:-1] == path_of[1:])
    src, dst = batch.rows[at], batch.rows[at + 1]
    changed = dist.array[src] != dist.array[dst]
    packed = np.packbits(changed, axis=1)  # each step's mask as a byte string
    _, one, block_of = np.unique(packed.view(f"V{packed.shape[1]}").ravel(),
                                 return_index=True, return_inverse=True)
    blocks = [tuple(np.flatnonzero(changed[i]).tolist()) for i in one]
    return src, dst, block_of, blocks


def toggle_edge(tree, lists, coloring, e):
    """Recolor ``e`` to its unique other available color, if it has exactly
    one; otherwise return the coloring unchanged.

    Only meaningful when every edge has at most two available colors, as in
    the two-colors-free regime where single-edge moves are forced.
    """
    others = sorted(available_colors(tree, lists, coloring, e) - {coloring[e]})
    if len(others) != 1:
        return coloring
    out = list(coloring)
    out[e] = others[0]
    return tuple(out)


def toggle_routes(tree, lists, dist):
    """The depth-one toggle routing from every root-color-1 state to its flip
    toward color 2: toggle the root edge, or, when the alternating path has
    a second edge, toggle it, the root edge and it again.  One state list per
    start, in support order."""
    r = hanging_root_edge(tree)
    routes = []
    for sigma in (s for s in states_of(dist) if s[r] == 1):
        ap = alternating_path(tree, sigma, r, 2)
        route = [sigma]
        for e in [r] if len(ap) == 1 else [ap[1], r, ap[1]]:
            nxt = toggle_edge(tree, lists, route[-1], e)
            if nxt == route[-1]:
                raise VerificationError("toggle routing hit a frozen edge")
            route.append(nxt)
        if route[-1] != flip(tree, sigma, r, 2):
            raise VerificationError("toggle routing missed the flipped coloring")
        routes.append(route)
    return routes


def reference_routing_bound_ell1(delta):
    """``routing_bound_ell1`` counted on tuples over the toggle routes."""
    tree = build_hanging_root(delta, 1)
    lists = star_root_lists(tree, delta + 1)
    routes = toggle_routes(tree, lists, oracle.enumerate_colorings(tree, lists))
    usage, level = {}, {}
    steps_at = {0: 0, 1: 0}
    for route in routes:
        for move in zip(route[:-1], route[1:]):
            (e,) = [e for e in range(tree.n_edges) if move[0][e] != move[1][e]]
            usage[move] = usage.get(move, 0) + 1
            level[move] = tree.edge_levels[e]
            steps_at[level[move]] += 1
    expected = {t: steps_at[t] / len(routes) for t in (0, 1)}
    maxmult = {0: 0, 1: 0}
    for move, count in usage.items():
        maxmult[level[move]] = max(maxmult[level[move]], count)
    alpha0 = 4.0 * expected[0] * maxmult[0]
    alpha1 = 4.0 * expected[1] * maxmult[1]
    if alpha0 > 4 * delta + 1e-12 or alpha1 > 8 + 1e-12:
        raise VerificationError("routing constants exceed the certified bounds")
    return {"alpha0": alpha0, "alpha1": alpha1,
            "expected_steps": expected, "max_multiplicity": maxmult}
