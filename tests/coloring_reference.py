"""Per-coloring helpers on color tuples: the test oracles for the array code.

A coloring is a plain tuple of colors in ``1..q`` indexed by edge id.
``is_proper`` and ``available_colors`` check it edge by edge, ``flip`` and
``alternating_path`` are the references for ``canonical.flip_rows``, and
``block_assignments`` lists a block's proper reassignments, the reference
for the block classes behind every transition matrix and congestion rate.
``states_of`` and ``index_of`` read an enumerated support's rows as tuples.
"""

from treecolor.errors import ParameterError


def states_of(dist):
    """The support of ``dist`` as a list of color tuples, one per row of
    ``dist.array``, in row order."""
    return list(map(tuple, dist.array.tolist()))


def index_of(dist):
    """Color tuple -> its row of the support of ``dist``."""
    return {s: i for i, s in enumerate(states_of(dist))}


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


def block_assignments(tree, lists, state, block):
    """All proper assignments of ``block`` consistent with the rest of the
    coloring, in ascending order."""
    block = tuple(block)
    outside = {}
    for e in block:
        used = {state[f] for f in tree.neighbors[e] if f not in block}
        outside[e] = sorted(lists[e] - used)
    inner = {e: [f for f in tree.neighbors[e] if f in block] for e in block}
    outs = []

    def fill(i, chosen):
        if i == len(block):
            outs.append(tuple(chosen[e] for e in block))
            return
        e = block[i]
        for c in outside[e]:
            if any(chosen.get(f) == c for f in inner[e]):
                continue
            chosen[e] = c
            fill(i + 1, chosen)
            del chosen[e]

    fill(0, {})
    if not outs:
        raise ParameterError("no consistent block assignment (improper state?)")
    return outs
