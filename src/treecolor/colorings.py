"""Per-edge color lists, proper colorings, alternating paths and flips.

A coloring is a plain tuple of colors in ``1..q`` indexed by edge id, so it
is hashable and cheap to copy.  All operations are pure.
"""

from __future__ import annotations

from .errors import ParameterError
from .trees import hanging_root_edge

UNIFORM = "UNIFORM"
STAR_ROOT = "STAR_ROOT"
PINNED_ROOT = "PINNED_ROOT"


class ListSpec:
    """Palette size ``q`` plus an allowed color set per edge."""

    def __init__(self, q, lists, preset=None):
        if q < 1:
            raise ParameterError("q must be positive")
        lists = tuple(frozenset(s) for s in lists)
        for s in lists:
            if not s:
                raise ParameterError("every edge needs a nonempty color list")
            if any(c < 1 or c > q for c in s):
                raise ParameterError("colors must lie in 1..q")
        self.q = q
        self.lists = lists
        self.preset = preset

    def __getitem__(self, e):
        return self.lists[e]

    def __len__(self):
        return len(self.lists)

    def describe(self):
        return {"q": self.q, "preset": self.preset or "custom"}

    def __repr__(self):
        return f"ListSpec(q={self.q}, preset={self.preset})"


def uniform_lists(tree, q):
    full = frozenset(range(1, q + 1))
    return ListSpec(q, [full] * tree.n_edges, preset=UNIFORM)


def star_root_lists(tree, q):
    """Hanging-root lists: the level-0 edge is restricted to ``1..q-d`` where
    ``d + 1`` is the internal-vertex degree; all other edges get ``1..q``."""
    r = hanging_root_edge(tree)
    d = tree.max_degree - 1
    if q - d < 1:
        raise ParameterError("q too small for the root list 1..q-d")
    full = frozenset(range(1, q + 1))
    lists = [full] * tree.n_edges
    lists[r] = frozenset(range(1, q - d + 1))
    return ListSpec(q, lists, preset=STAR_ROOT)


def pinned_root_lists(tree, q, c):
    r = hanging_root_edge(tree)
    if not (1 <= c <= q):
        raise ParameterError("pinned color out of range")
    full = frozenset(range(1, q + 1))
    lists = [full] * tree.n_edges
    lists[r] = frozenset([c])
    return ListSpec(q, lists, preset=PINNED_ROOT)


def is_proper(tree, lists, coloring):
    """True iff every edge color is in its list and differs from all
    line-graph neighbors."""
    if len(coloring) != tree.n_edges or any(c is None for c in coloring):
        raise ParameterError("coloring must assign every edge")
    for e in range(tree.n_edges):
        if coloring[e] not in lists[e]:
            return False
        for f in tree.neighbors[e]:
            if f > e and coloring[f] == coloring[e]:
                return False
    return True


def available_colors(tree, lists, coloring, e):
    """Colors of ``lists[e]`` not used by any neighbor of ``e``.

    The edge's own current color is not excluded, so for a proper coloring it
    is always a member.
    """
    used = {coloring[f] for f in tree.neighbors[e]}
    return frozenset(lists[e] - used)


def alternating_path(tree, coloring, e, b):
    """Maximal path from ``e`` away from the root whose colors alternate
    ``coloring[e], b, coloring[e], b, ...``.

    Each step continues through the child vertex of the previous edge; the
    continuation is unique because colors at a vertex are distinct.
    """
    a = coloring[e]
    if b == a:
        raise ParameterError("alternating color must differ from the edge color")
    path = [e]
    want = b
    cur = e
    while True:
        v = tree.edge_child_vertex[cur]
        nxt = None
        for f in tree.child_edges[cur]:
            if coloring[f] == want:
                nxt = f
                break
        if nxt is None:
            return path
        path.append(nxt)
        cur = nxt
        want = a if want == b else b


def flip(tree, coloring, e, b):
    """Interchange ``coloring[e]`` and ``b`` along the maximal alternating
    path below ``e``.  An involution: flipping back with the old color
    restores the input."""
    a = coloring[e]
    path = alternating_path(tree, coloring, e, b)
    out = list(coloring)
    for f in path:
        out[f] = b if out[f] == a else a
    return tuple(out)


def greedy_coloring(tree, lists):
    """A proper list coloring by first-fit along BFS edge ids; exists whenever
    every list keeps a color after removing the neighbor colors (always true
    for full lists with q >= max degree + 1 on a tree)."""
    out = [None] * tree.n_edges
    for e in range(tree.n_edges):
        used = {out[f] for f in tree.neighbors[e] if f < e}
        pick = next((c for c in sorted(lists[e]) if c not in used), None)
        if pick is None:
            raise ParameterError("greedy coloring failed; lists too tight")
        out[e] = pick
    return tuple(out)


def coloring_to_csv(coloring):
    return "\n".join(f"{e},{c}" for e, c in enumerate(coloring)) + "\n"


def coloring_from_csv(text, n_edges):
    seen = {}
    for line in text.strip().splitlines():
        e_str, c_str = line.split(",")
        seen[int(e_str)] = int(c_str)
    if sorted(seen) != list(range(n_edges)):
        raise ParameterError("coloring CSV must cover edge ids 0..n_edges-1")
    return tuple(seen[e] for e in range(n_edges))
