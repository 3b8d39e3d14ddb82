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

Each (a, b) family of paths is built in one batch on rows of the enumerated
support (``build_paths``): numpy walks over all start colorings at once give
the alternating paths, the Stage-I detours and every step's edits, and each
state is looked up as a support row, so no coloring becomes a tuple.  A
family whose order runs through the color classes of one already built is
that one's image under a color permutation: the built family's verified
steps sent through the table's exact ``row_map`` (``map_steps``), neither
built, verified nor sorted again.  The expected congestion these paths
place on each tree level is computed exactly by enumeration.

At these sizes the passes pay mostly for numpy's per-call costs, so they read
rows of narrow 2-D arrays with ``np.take(..., axis=0)`` and scattered cells as
one flat ``take``, and scan a short axis (at most q+1, delta or m columns) one
column at a time (``_first``, ``_first_column``, ``_count``): on a 2-core x86
host, 4,100 rows of a 6,561 x 8 uint8 array took 51 us by fancy indexing
against 4 us by ``take``, and a ``sum`` along 8 columns of 4,100 booleans took
98 us against 37 us as a column loop.  They sort shuffled int64 keys with the
default ``np.sort``/``np.argsort`` (numpy's SIMD quicksort), and take the
stable kind (timsort) only on keys in long sorted runs or where its order names
a failure: on that host (AVX-512, numpy 2.4), 4,100 shuffled keys took 275-316
us by a stable ``argsort``, 62-80 us by the default one and 25-30 us by
``np.sort``.  So ``_runs`` groups a built family's transitions and
``compute_congestion`` splits their loads by level, each by one default
``argsort``, and ``verify_paths`` finds a revisit by a stable ``np.sort`` of
its path-major keys, sorting stably by index only to name the first one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle
from .colorings import star_root_lists
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


class _Tables:
    """A tree's index tables, padded for row-wise numpy walks.  Edge id m is
    the sentinel that pads them; ``widen`` gives a color array the sentinel
    column m, all zeros, so the sentinel edge never carries a color."""

    def __init__(self, tree, lists=None):
        m = self.m = tree.n_edges
        self.kids = _padded(tree.child_edges + ((),), m)
        self.nbrs = _padded(tree.neighbors + ((),), m)
        self.at_vertex = _padded(tree.edges_at_vertex, m)
        self.up = np.array(tree.edge_parent_vertex)
        self.down = np.array(tree.edge_child_vertex)
        self.level = np.array(tree.edge_levels)
        if lists is not None:
            self.q = lists.q
            self.allowed = np.zeros((m, lists.q + 1), dtype=bool)
            for e in range(m):
                self.allowed[e, sorted(lists[e])] = True

    def widen(self, colors):
        colors = np.asarray(colors)
        out = np.zeros((len(colors), self.m + 1), dtype=colors.dtype)
        out[:, :self.m] = colors
        return out


def _padded(seqs, fill):
    out = np.full((len(seqs), max(1, max(map(len, seqs)))), fill, dtype=np.intp)
    for i, s in enumerate(seqs):
        out[i, :len(s)] = s
    return out


def _present(tab, C, rows, edges):
    """present[j, c]: one of the edges ``edges[j]`` has color c in row
    ``rows[j]`` of ``C`` (column 0 collects the sentinel)."""
    present = np.zeros((len(rows), tab.q + 1), dtype=bool)
    at = np.arange(0, present.size, tab.q + 1)[:, None] + _cells(C, rows, edges)
    present.ravel()[at] = True
    return present


def _cells(C, rows, cols):
    """``C[rows[:, None], cols]``, read as one flat ``take``."""
    return np.take(C, rows[:, None] * C.shape[1] + cols)


def _first(ok, order):
    """Per row, the first color of ``order`` with ``ok`` set, 0 if none:
    the colors are written from the last, so the first one set is kept."""
    out = np.zeros(len(ok), dtype=order.dtype)
    for c in order[::-1].tolist():
        out[ok[:, c]] = c
    return out


def _first_column(hit):
    """Per row of ``hit``, its first True column, -1 if none."""
    out = np.full(len(hit), -1, dtype=np.intp)
    for c in range(hit.shape[1] - 1, -1, -1):
        out[hit[:, c]] = c
    return out


def _count(hit):
    """Per row of ``hit``, its number of True columns."""
    out = np.zeros(len(hit), dtype=np.intp)
    for c in range(hit.shape[1]):
        out += hit[:, c]
    return out


def _alternating(tab, C, e, b):
    """The maximal alternating path from ``e`` of every row of ``C`` (b may
    differ per row), one numpy step per tree level: an (n x depth) array
    whose column k is the path's edge k levels below ``e``, padded with the
    sentinel."""
    n = len(C)
    a, b = C[:, e], np.broadcast_to(b, (n,))
    if (a == b).any():
        raise ParameterError("alternating color must differ from the edge color")
    path = np.full((n, tab.level.max() - tab.level[e] + 1), tab.m, dtype=np.intp)
    path[:, 0] = e
    live, cur = np.arange(n), np.full(n, e)
    for k in range(1, path.shape[1]):
        kids = np.take(tab.kids, cur, axis=0)
        j = _first_column(_cells(C, live, kids) == (b if k % 2 else a)[live, None])
        go = j >= 0
        live, cur = live[go], kids[go, j[go]]
        path[live, k] = cur
    return path


def flip_rows(tree, colors, e, b):
    """The flip of every coloring in ``colors`` (n x m) at once: its color on
    ``e`` and ``b`` (one color, or one per row) swap along its maximal
    alternating path (``_alternating``)."""
    tab = _Tables(tree)
    C = tab.widen(colors)
    path = _alternating(tab, C, e, b)
    rows, k = np.nonzero(path < tab.m)
    at = rows * C.shape[1] + path[rows, k]
    a, b = C[rows, e], np.broadcast_to(b, (len(C),))[rows]
    C.ravel()[at] = np.where(np.take(C, at) == a, b, a)
    return C[:, :tab.m]


@dataclass
class Coupling:
    a: int
    b: int
    pairs: np.ndarray    # (n x 2) support rows (sigma, tau) in fiber-a order,
                         # tau the flip of sigma at r toward b
    weight: float        # uniform pair probability 1/|pairs|


def flip_coupling(tree, lists, a, b, dist=None):
    """Pair the root-color-a fiber with the root-color-b fiber by flipping,
    as support rows."""
    if dist is None:
        dist = oracle.enumerate_colorings(tree, lists)
    return _flip_couplings(tree, lists, [(a, b)], dist)[0]


def _flip_couplings(tree, lists, pairs, dist):
    """The ``flip_coupling`` of each root-color pair (a, b) of ``pairs``, from
    one ``flip_rows`` and one ``rows_of`` over their stacked fibers."""
    r = hanging_root_edge(tree)
    for a, b in pairs:
        if a == b or a not in lists[r] or b not in lists[r]:
            raise ParameterError("a, b must be distinct colors from the root list")
    root = dist.array[:, r]
    fibers = [np.flatnonzero(root == a) for a, _ in pairs]
    sizes = [len(fiber) for fiber in fibers]
    rows = np.concatenate(fibers)
    to = np.repeat(np.array([b for _, b in pairs], dtype=dist.array.dtype), sizes)
    flipped = dist.rows_of(flip_rows(tree, np.take(dist.array, rows, axis=0), r, to))
    couplings = []
    for (a, b), fiber_a, ends in zip(pairs, fibers, np.split(flipped, np.cumsum(sizes)[:-1])):
        if not np.array_equal(np.sort(ends), np.flatnonzero(root == b)):
            raise VerificationError("flip is not a bijection between the fibers")
        couplings.append(Coupling(a, b, np.column_stack([fiber_a, ends]), 1.0 / len(fiber_a)))
    return couplings


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


def _walks(tab, C, estar, start, pair, order):
    """The Stage-I walks of every row of ``C``: one per alternating-path edge
    e_i (``estar``) with i >= start and i - start even, all run at once.

    A walk recolors e_i to the first color of ``order`` it may take outside
    ``pair``.  If there is none, e_i takes the first color missing at its
    lower vertex, and a detour frees that color at the upper vertex: from
    the sibling carrying it, each detour edge takes the first color of
    ``order`` other than its own if it has two available, or else the first
    color missing at its upper vertex, and the detour goes on through the
    child edge that carries that color.  The detours run as a masked loop
    over the walks still going.  Colors are read from ``C`` throughout.

    Returns the recolorings as arrays (row, edge, color, walk, step), in no
    particular order; each walk writes in increasing step.
    """
    i = np.arange(estar.shape[1])
    rows, idx = np.nonzero((estar < tab.m) & (i >= start[:, None])
                           & ((i - start[:, None]) % 2 == 0))
    edge, walk = estar[rows, idx], np.arange(len(rows))
    out = []

    def emit(sel, color, step):
        out.append((rows[sel], edge[sel], color[sel], walk[sel], np.full(sel.sum(), step)))

    allowed = _allowed(tab, C, rows, edge)
    allowed[:, list(pair)] = False
    color = _first(allowed, order)
    emit(color > 0, color, 0)
    rows, edge, walk = rows[color == 0], edge[color == 0], walk[color == 0]
    color = _missing(tab, C, rows, tab.down[edge], order)
    if (color == 0).any():
        raise ParameterError("vertex has no missing color; q too small")
    nxt = np.take(tab.at_vertex, tab.up[edge], axis=0)
    j = _first_column((_cells(C, rows, nxt) == color[:, None]) & (nxt != edge[:, None]))
    if (j < 0).any():
        raise VerificationError("freed color should block e_i at its upper vertex")
    emit(np.ones(len(rows), dtype=bool), color, 0)
    edge, step = nxt[np.arange(len(rows)), j], 1
    while len(rows):
        allowed = _allowed(tab, C, rows, edge)
        done = _count(allowed) >= 2
        allowed[np.arange(len(rows)), C[rows, edge]] = False
        emit(done, _first(allowed, order), step)
        rows, edge, walk = rows[~done], edge[~done], walk[~done]
        color = _missing(tab, C, rows, tab.up[edge], order)
        if (color == 0).any():
            raise ParameterError("vertex has no missing color; q too small")
        nxt = np.take(tab.kids, edge, axis=0)
        j = _first_column(_cells(C, rows, nxt) == color[:, None])
        if (j < 0).any():
            raise VerificationError("detour construction lost its continuation")
        emit(np.ones(len(rows), dtype=bool), color, step)
        edge, step = nxt[np.arange(len(rows)), j], step + 1
    return tuple(map(np.concatenate, zip(*out)))


def _allowed(tab, C, rows, edge):
    """allowed[j, c]: c is in the list of ``edge[j]`` and on none of its
    neighbours in row ``rows[j]`` of ``C``."""
    nbrs = np.take(tab.nbrs, edge, axis=0)
    return np.take(tab.allowed, edge, axis=0) & ~_present(tab, C, rows, nbrs)


def _missing(tab, C, rows, vertex, order):
    """Per row, the first color of ``order`` that no edge at ``vertex[j]``
    carries in row ``rows[j]`` of ``C``, 0 if none."""
    at = np.take(tab.at_vertex, vertex, axis=0)
    return _first(~_present(tab, C, rows, at), order)


def _stage_one(tab, C, estar, start, pair, order):
    """The Stage-I moves of every row: (row, edge, new color, on the
    alternating path) sorted by row and then by the key (-level, on the
    alternating path, edge).  An edge two walks write keeps the last color."""
    rows, edge, color, walk, step = _walks(tab, C, estar, start, pair, order)
    last = np.lexsort((step, walk, edge, rows))
    keep = np.ones(len(last), dtype=bool)
    keep[:-1] = (rows[last[1:]] != rows[last[:-1]]) | (edge[last[1:]] != edge[last[:-1]])
    last = last[keep]
    rows, edge, color = rows[last], edge[last], color[last]
    on_path = estar[rows, tab.level[edge]] == edge
    key = np.lexsort((edge, on_path, -tab.level[edge], rows))
    return rows[key], edge[key], color[key], on_path[key]


def _rank(rows, counts):
    """Position of each entry among those of its row; ``rows`` is sorted."""
    return np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]


@dataclass
class PathBatch:
    """The paths of one family, stored flat: every step of every path, in
    path order, as up to two edits (edge, new color)."""
    family: PathFamily
    lengths: np.ndarray        # steps per path
    edges: np.ndarray          # (steps, 2) edges a step recolors, sentinel m pads
    colors: np.ndarray         # (steps, 2) their new colors
    stages: np.ndarray         # (steps,) 1, 2 or 3 for Stage I, II, III
    rows: np.ndarray = None    # per state, its support row, -1 if none


def _path_edits(family, colors):
    """The family's paths from the start colorings ``colors`` (n x m, root
    color ``family.a``), without rows.  Pair-move paths use the pair move
    exactly when the alternating path has even length and stops above the
    leaves."""
    a, b, r = family.a, family.b, family.r
    tab = _Tables(family.tree, family.lists)
    C = tab.widen(colors)
    estar = _alternating(tab, C, r, b)
    s = _count(estar < tab.m) - 1
    pair = np.zeros(len(C), dtype=bool)
    if family.kind == EDGE_PATHS:
        pair = (s % 2 == 1) & (s != family.tree.max_level)
    rows1, edge1, color1, on_path = _stage_one(
        tab, C, estar, np.where(pair, 2, 1), (a, b), np.array(family.order))
    i = np.arange(estar.shape[1])
    rows2, idx2 = np.nonzero((estar < tab.m) & np.where(
        pair[:, None], (i >= 3) & (i % 2 == 1), i % 2 == 0))
    n1 = np.bincount(rows1, minlength=len(C))
    n2 = np.bincount(rows2, minlength=len(C))
    lengths = 2 * n1 + n2 + pair
    first = np.cumsum(lengths) - lengths
    edges = np.full((int(lengths.sum()), 2), tab.m, dtype=np.intp)
    new = np.zeros(edges.shape, dtype=C.dtype)
    stages = np.empty(len(edges), dtype=np.uint8)
    rank1 = _rank(rows1, n1)
    edges[first[rows1] + rank1, 0] = edge1
    new[first[rows1] + rank1, 0] = color1
    stages[first[rows1] + rank1] = 1
    at = first[pair] + n1[pair]  # the pair move: r -> b and e_1 -> a
    edges[at, 0], edges[at, 1] = r, estar[pair, 1]
    new[at, 0], new[at, 1] = b, a
    stages[at] = 2
    at = first[rows2] + n1[rows2] + pair[rows2] + _rank(rows2, n2)
    edges[at, 0] = estar[rows2, idx2]
    new[at, 0] = np.where(pair[rows2], a, b)
    stages[at] = 2
    at = first[rows1] + lengths[rows1] - 1 - rank1
    sigma = C[rows1, edge1]
    edges[at, 0] = edge1
    new[at, 0] = np.where(on_path, np.where(sigma == b, a, b), sigma)
    stages[at] = 3
    return PathBatch(family, lengths, edges, new, stages)


def build_paths(family, dist, starts):
    """The paths of ``family`` from the support rows ``starts`` to their
    flips, with every state mapped to its support row (-1 if it is none).
    States are built one step index at a time for all paths still going."""
    starts = np.asarray(starts, dtype=np.intp)
    colors = np.take(dist.array, starts, axis=0)
    batch = _path_edits(family, colors)
    state0 = np.cumsum(batch.lengths) - batch.lengths + np.arange(len(starts))
    rows = np.empty(len(batch.edges) + len(starts), dtype=np.intp)
    rows[state0] = starts
    m = dist.tree.n_edges
    C = np.zeros((len(starts), m + 1), dtype=dist.array.dtype)
    C[:, :m] = colors
    for k in range(int(batch.lengths.max(initial=0))):
        live = np.flatnonzero(batch.lengths > k)
        step = state0[live] - live + k
        edges, new = np.take(batch.edges, step, axis=0), np.take(batch.colors, step, axis=0)
        for j in (0, 1):
            C[live, edges[:, j]] = new[:, j]
        rows[state0[live] + k + 1] = dist.rows_of(np.take(C, live, axis=0)[:, :m])
    batch.rows = rows
    return batch


def path_blocks_for_kind(tree, path_kind):
    """Blocks a canonical path of the given kind may legally change."""
    singles = {(e,) for e in range(tree.n_edges)}
    if path_kind == GLAUBER_PATHS:
        return singles
    r = hanging_root_edge(tree)
    pairs = {tuple(sorted((r, e))) for e in tree.level_edges(1)}
    return singles | pairs


def verify_paths(dist, batch, ends=None):
    """Check a ``PathBatch`` against the support ``dist``, the set of proper
    list colorings: every state must be a row of ``dist``; every step must
    change a nonempty block, equal to the recorded one and legal for the
    family's kind; no path may revisit a state (so none reuses a
    transition); each must end at the flip of its start, given as ``ends``
    (support rows, in path order) or else computed here by ``flip_rows``.
    The first failure raises ``VerificationError`` naming the start row and
    the state or step.

    A step changes exactly its recorded edges if it changes as many, each of
    them, with none recorded twice; its block is then their sorted pair.

    Returns ``(src, dst, block_of, blocks)``: per step, in path order, the
    support rows it moves between and the index in ``blocks`` (sorted edge
    tuples) of its changed block.
    """
    tree, m, rows = dist.tree, dist.tree.n_edges, batch.rows
    lengths = batch.lengths + 1
    path_of = np.repeat(np.arange(len(lengths)), lengths)
    first = np.cumsum(lengths) - lengths
    last = first + lengths - 1
    at = np.flatnonzero(path_of[:-1] == path_of[1:])  # the state each step leaves
    if len(rows) != len(path_of) or len(batch.edges) != len(at):
        raise VerificationError("paths must record one block per step")

    def check(bad, noun, what):  # raise at the first flagged state (or step)
        if len(bad):
            i = int(bad.min())
            pos = at[i] if noun == "step" else i
            p = path_of[pos]
            raise VerificationError(f"canonical path from row {rows[first[p]]}, "
                                    f"{noun} {pos - first[p]}: {what(i)}")

    check(np.flatnonzero(rows < 0), "state", lambda i: "not a proper list coloring")
    src, dst = rows[at], rows[at + 1]
    changed = np.take(dist.array, src, axis=0) != np.take(dist.array, dst, axis=0)
    n_changed = _count(changed)
    check(np.flatnonzero(n_changed == 0), "step", lambda i: "changes nothing")
    lo, hi = np.minimum(*batch.edges.T), np.maximum(*batch.edges.T)
    cell = np.arange(0, changed.size, m)  # each step's first cell of ``changed``
    check(np.flatnonzero((n_changed != np.add(lo < m, hi < m, dtype=np.intp))
                         | (lo == hi) | (lo < 0) | (hi > m)
                         | ~np.take(changed, cell + np.minimum(lo, m - 1))
                         | ~(np.take(changed, cell + np.minimum(hi, m - 1)) | (hi == m))), "step",
          lambda i: f"changed {tuple(np.flatnonzero(changed[i]).tolist())}, "
                    f"recorded {tuple(e for e in batch.edges[i].tolist() if e < m)}")
    key = lo * (m + 1) + hi
    present = np.zeros((m + 1) ** 2, dtype=bool)
    present[key] = True
    keys, block_of = np.flatnonzero(present), (np.cumsum(present) - 1)[key]
    blocks = [tuple(e for e in divmod(k, m + 1) if e < m) for k in keys.tolist()]
    allowed = path_blocks_for_kind(tree, batch.family.kind)
    legal = np.array([blk in allowed for blk in blocks], dtype=bool)
    check(np.flatnonzero(~legal[block_of]), "step",
          lambda i: f"changed a disallowed block {blocks[block_of[i]]}")
    visit = path_of * dist.size + rows
    ranked = np.sort(visit, kind="stable")  # timsort: path-major sorted runs
    if (ranked[1:] == ranked[:-1]).any():
        order = np.argsort(visit, kind="stable")  # a revisit sorts after the visit
        check(order[1:][visit[order[1:]] == visit[order[:-1]]], "state",
              lambda i: "revisits an earlier state")
    if ends is None:
        ends = dist.rows_of(flip_rows(tree, dist.array[rows[first]], batch.family.r,
                                      batch.family.b))
    _check_ends(rows[first], rows[last], ends, batch.lengths)
    return src, dst, block_of, blocks


def _check_ends(starts, got, ends, lengths):
    """Raise ``VerificationError`` at the first path, in path order, whose
    end row ``got`` is not its row of ``ends``, the flip of its start."""
    bad = np.flatnonzero(got != ends)
    if len(bad):
        i = bad[0]
        raise VerificationError(f"canonical path from row {starts[i]}, state {lengths[i]}: "
                                f"ends at row {got[i]}, not at row {ends[i]}, "
                                f"the flip of the start")


@dataclass
class FamilySteps:
    """The verified steps of one family's paths from every row of fiber a,
    in path order (ascending start rows): what ``verify_paths`` returns, and
    the steps grouped by transition (``_runs`` of src * N + dst)."""
    family: PathFamily
    lengths: np.ndarray        # steps per path
    src: np.ndarray            # per step, the support rows it moves between
    dst: np.ndarray
    block_of: np.ndarray       # per step, the index in ``blocks`` of its block
    blocks: list
    runs: tuple                # (order, bounds) of ``_runs``


def map_steps(steps, family, dist, ends):
    """The steps of ``family``, the image of the verified ``steps`` under the
    color permutation pi sending ``steps.family.order`` onto ``family.order``
    (the construction takes the first color of an order that passes a test
    pi carries over).  pi's row map is exact (``DistributionTable.row_map``),
    so every check of ``verify_paths`` carries over; the fibers and ``ends``
    are checked (else ``VerificationError``), and paths put in ascending
    order of their start rows, as ``build_paths`` puts them."""
    pi = np.zeros(dist.lists.q + 1, dtype=dist.array.dtype)
    pi[list(steps.family.order)] = family.order
    perm = dist.row_map(pi)
    root = dist.array[:, family.r]
    starts = np.take(perm, np.flatnonzero(root == steps.family.a))  # per path, its image's start
    order = np.argsort(starts)
    starts = np.take(starts, order)
    if not np.array_equal(starts, np.flatnonzero(root == family.a)):
        raise VerificationError(f"the color map {steps.family.order} -> "
                                f"{family.order} is not a bijection of the fibers")
    lengths = np.take(steps.lengths, order)
    first = np.cumsum(lengths) - lengths
    step = np.repeat(np.take(np.cumsum(steps.lengths) - steps.lengths, order) - first, lengths)
    step += np.arange(len(step))  # per mapped step, its step of ``steps``
    src, dst = np.take(perm, np.take(steps.src, step)), np.take(perm, np.take(steps.dst, step))
    _check_ends(starts, np.take(dst, first + lengths - 1), ends, lengths)
    at = np.empty_like(step)  # per step of ``steps``, its mapped step
    at[step] = np.arange(len(step))
    runs, bounds = steps.runs
    return FamilySteps(family, lengths, src, dst, np.take(steps.block_of, step), steps.blocks,
                       (np.take(at, runs), bounds))


# ---------------------------------------------------------------------------
# Congestion


@dataclass
class PairCongestion:
    a: int
    b: int
    fiber_a: int
    fiber_b: int
    x: np.ndarray              # the used transitions x -> y as support rows,
    y: np.ndarray              # in order of first use
    counts: np.ndarray         # paths using each of them
    xi_levels: dict            # level -> full-measure congestion sum
    xi_pairs: float            # same for the root-pair blocks
    r_leaf: float              # full-measure expected squared leaf multiplicity

    @property
    def usage(self):
        """(row, row) of the support -> paths using it, in order of first use."""
        return dict(zip(zip(self.x.tolist(), self.y.tolist()), self.counts.tolist()))

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
    dist: object               # the support whose rows the transitions are

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

    Paths are built, checked by ``verify_paths`` and grouped by transition
    once per orbit of families under the list-keeping color permutations: a
    family whose order runs through the ``color_classes`` of a built one is
    that one's image (``map_steps``, through the row maps the table keeps
    and composes), whose order of first use alone is found anew.  End rows
    come from the flip couplings of every pair a < b, made in one
    ``flip_rows`` pass, whose inverses give the (b, a) ends, since the flip
    is an involution.  A move that changes block B out of state x
    has heat-bath rate 1/s, with s the size of the class of x under B:
    ``DistributionTable.choices(e)`` for a singleton (e,), and
    ``DistributionTable.classes(B)`` for a pair.
    """
    r = hanging_root_edge(tree)
    root_colors = sorted(lists[r])
    if len(root_colors) < 2:
        raise ParameterError(f"congestion couples two root colors, but the root "
                             f"list is {root_colors}")
    dist = oracle.enumerate_colorings(tree, lists)
    n, ell = dist.size, tree.max_level
    fibers = {a: np.flatnonzero(dist.array[:, r] == a) for a in root_colors}
    allowed = sorted(path_blocks_for_kind(tree, path_kind))
    slot = {block: k for k, block in enumerate(allowed)}
    block_level = np.array([tree.edge_levels[blk[0]] if len(blk) == 1 else -1
                            for blk in allowed], dtype=np.intp)
    class_size = np.empty((len(allowed), n), dtype=np.int32)  # [block, state]
    for k, block in enumerate(allowed):
        if len(block) == 1:
            class_size[k] = dist.choices(block[0])
        else:
            labels, sizes = dist.classes(block)
            class_size[k] = sizes[labels]
    pairs = [(a, b) for a in root_colors for b in root_colors if a < b]
    ends = {}  # the flip of fiber a, and its inverse for (b, a)
    for c in _flip_couplings(tree, lists, pairs, dist):
        ends[c.a, c.b] = c.pairs[:, 1]
        ends[c.b, c.a] = fibers[c.a][np.argsort(c.pairs[:, 1])]
    per_pair, built = {}, {}  # built: the verified steps of one family per orbit
    for a in root_colors:
        for b in root_colors:
            if a == b:
                continue
            family = path_family(tree, lists, a, b, path_kind)
            key = tuple(lists.color_classes[list(family.order)].tolist())
            if key in built:
                steps = map_steps(built[key], family, dist, ends.pop((a, b)))
            else:
                batch = build_paths(family, dist, fibers[a])
                src, dst, block_of, blocks = verify_paths(dist, batch, ends.pop((a, b)))
                steps = built[key] = FamilySteps(family, batch.lengths, src, dst, block_of,
                                                 blocks, _runs(src * n + dst))
            first, counts = _first_uses(*steps.runs)
            x, y = steps.src[first], steps.dst[first]
            block = np.array([slot[blk] for blk in steps.blocks],
                             dtype=np.intp)[steps.block_of[first]]
            size, level = np.take(class_size, block * n + x), block_level[block]
            # float_power is libm pow, as Python's ** is, so the loads and
            # their running sums are the floats of a per-transition loop
            p_ra = 1.0 / len(fibers[a])
            load = np.float_power(counts * p_ra, 2) * n / (1.0 / size)
            # one default argsort of unique keys puts the loads in runs by
            # level (the pair blocks, -1, first), each in order of first use
            order = np.argsort((level + 1) * len(level) + np.arange(len(level)))
            cuts = np.cumsum(np.bincount(level + 1, minlength=ell + 2)).tolist()
            load, leaf = np.take(load, order), np.take(counts, order[cuts[-2]:])
            sums = [_running_sum(load[i:j]) for i, j in zip([0] + cuts, cuts)]
            per_pair[(a, b)] = PairCongestion(
                a, b, len(fibers[a]), len(fibers[b]), x, y, counts,
                dict(enumerate(sums[1:])), sums[0], _running_sum(leaf ** 2 / n))
    return CongestionReport(tree, lists, path_kind, n, per_pair, dist)


def _runs(key):
    """The indices of ``key`` grouped by value, from one default (SIMD,
    unstable) ``argsort``: those of one value are ``order[bounds[i]:bounds[i +
    1]]``, in no particular order."""
    order = np.argsort(key)
    ranked = np.take(key, order)
    bounds = np.ones(len(key) + 1, dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=bounds[1:-1])
    return order, np.flatnonzero(bounds)  # the run heads, then len(key)


def _first_uses(order, bounds):
    """The runs of ``_runs`` in order of first use, as the index of each
    one's first use and its number of uses: the least index in each run is
    its first use, and a table indexed by first use puts the runs in that
    order with no second sort."""
    first = np.minimum.reduceat(order, bounds[:-1])
    at = np.full(len(order), -1, dtype=np.intp)
    at[first] = np.arange(len(first))
    used = at[at >= 0]
    return first[used], np.diff(bounds)[used]


def _running_sum(values):
    """The float sum of ``values`` added left to right from 0.0."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


# ---------------------------------------------------------------------------
# Depth-one routing bounds (one extra color)


def routing_bound_ell1(delta):
    """Exact step counts and transition multiplicities of the depth-one
    routing, certifying the per-level constants 4*delta and 8.

    The routes are the verified ``EDGE_PATHS`` batch of the (1, 2) family
    at q = delta + 1 from every root-color-1 row.  At depth one that family
    recolors single edges only: the root edge alone, or the level-1 edge
    carrying color 2, then the root edge, then that edge again.
    """
    tree = build_hanging_root(delta, 1)
    lists = star_root_lists(tree, delta + 1)
    dist = oracle.enumerate_colorings(tree, lists)
    family = path_family(tree, lists, 1, 2, EDGE_PATHS)
    starts = np.flatnonzero(dist.array[:, family.r] == 1)
    src, dst, block_of, blocks = verify_paths(dist, build_paths(family, dist, starts))
    if any(len(blk) != 1 for blk in blocks):
        raise VerificationError("depth-one routing made a pair move")
    level = np.array([tree.edge_levels[blk[0]] for blk in blocks])[block_of]
    first, counts = _first_uses(*_runs(src * dist.size + dst))
    expected = {t: int(np.count_nonzero(level == t)) / len(starts) for t in (0, 1)}
    maxmult = {t: int(counts[level[first] == t].max(initial=0)) for t in (0, 1)}
    alpha0 = 4.0 * expected[0] * maxmult[0]
    alpha1 = 4.0 * expected[1] * maxmult[1]
    if alpha0 > 4 * delta + 1e-12 or alpha1 > 8 + 1e-12:
        raise VerificationError("routing constants exceed the certified bounds")
    return {"alpha0": alpha0, "alpha1": alpha1,
            "expected_steps": expected, "max_multiplicity": maxmult}
