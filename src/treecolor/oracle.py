"""Exact enumeration and counting of proper list edge colorings.

``enumerate_colorings`` materializes the whole support in a canonical order
(depth-first assignment along BFS edge ids, colors ascending inside each
list), which makes state indices reproducible across runs.
``count_colorings`` gets the same number by dynamic programming and works on
trees far too large to enumerate.
``DistributionTable.classes`` groups the support into the classes of states
that agree off a block of edges, from which every block-averaging matrix of
the package is built.
"""

from __future__ import annotations

import json
from functools import cached_property

import numpy as np

from .errors import CapacityError, InfeasiblePinningError, ParameterError

ENUMERATION_CAP = 2_000_000


class DistributionTable:
    """Uniform distribution over an enumerated support of colorings."""

    def __init__(self, tree, lists, states):
        self.tree = tree
        self.lists = lists
        self.states = states
        self.size = len(states)
        if self.size == 0:
            raise InfeasiblePinningError("empty support")
        self.weight = 1.0 / self.size

    @cached_property
    def index(self):
        """State tuple -> row of the support, built on first lookup."""
        return {s: i for i, s in enumerate(self.states)}

    @cached_property
    def array(self):
        """The support as an (N x m) array of colors, in the narrowest
        unsigned dtype that holds ``q``; built on first use."""
        dtype = np.min_scalar_type(self.lists.q)
        return np.array(self.states, dtype=dtype).reshape(self.size, self.tree.n_edges)

    def classes(self, B):
        """Partition of the support into classes of states that agree on every
        edge outside ``B``.

        Returns ``(labels, sizes)``: ``labels[i]`` numbers the class of state
        ``i`` and ``sizes[k]`` counts the states of class ``k``.  Rows are
        compared column by column (``np.lexsort``), so no combined key can
        overflow however many edges lie outside ``B``.
        """
        B = set(B)
        rest = [e for e in range(self.tree.n_edges) if e not in B]
        if not rest:
            return np.zeros(self.size, dtype=np.intp), np.array([self.size])
        keys = self.array[:, rest]
        order = np.lexsort(keys.T)
        ranked = keys[order]
        starts = np.ones(self.size, dtype=bool)
        np.any(ranked[1:] != ranked[:-1], axis=1, out=starts[1:])
        labels = np.empty(self.size, dtype=np.intp)
        labels[order] = np.cumsum(starts) - 1
        return labels, np.bincount(labels)

    def weights_sum(self):
        return self.weight * self.size

    def conditional(self, pinned):
        """Restrict to states matching a partial coloring {edge: color}."""
        for e in pinned:
            if not (0 <= e < self.tree.n_edges):
                raise ParameterError(f"pinned edge {e} out of range")
        items = tuple(pinned.items())
        sub = [s for s in self.states if all(s[e] == c for e, c in items)]
        if not sub:
            raise InfeasiblePinningError(f"pinning {pinned} has no extension")
        return DistributionTable(self.tree, self.lists, sub)

    def marginal(self, S):
        """Map color-tuple on the sorted edge set ``S`` -> probability."""
        S = sorted(S)
        if not S:
            raise ParameterError("marginal needs a nonempty edge set")
        out = {}
        for s in self.states:
            key = tuple(s[e] for e in S)
            out[key] = out.get(key, 0) + 1
        return {k: v / self.size for k, v in out.items()}

    def export(self, include_states=False):
        doc = {
            "tree_hash": self.tree.content_hash(),
            "lists": self.lists.describe(),
            "size": self.size,
        }
        if include_states:
            doc["states"] = [list(s) for s in self.states]
        return doc

    def export_json(self, include_states=False):
        return json.dumps(self.export(include_states), indent=2)

    def __repr__(self):
        return f"DistributionTable(size={self.size})"


def _earlier_neighbors(tree):
    """For each edge, the adjacent edges with a smaller BFS index."""
    return [tuple(f for f in tree.neighbors[e] if f < e) for e in range(tree.n_edges)]


def enumerate_colorings(tree, lists, cap=ENUMERATION_CAP):
    total = count_colorings(tree, lists)
    if total > cap:
        raise CapacityError(
            f"support has {total} states, above the cap {cap}", estimated=total
        )
    m = tree.n_edges
    earlier = _earlier_neighbors(tree)
    options = [sorted(lists[e]) for e in range(m)]
    states = []
    current = [0] * m

    def assign(e):
        if e == m:
            states.append(tuple(current))
            return
        blocked = {current[f] for f in earlier[e]}
        for c in options[e]:
            if c not in blocked:
                current[e] = c
                assign(e + 1)
        current[e] = 0

    assign(0)
    return DistributionTable(tree, lists, states)


def count_colorings(tree, lists):
    """Exact count by a bottom-up dynamic program.

    For each vertex the table maps the color of its parent edge to the number
    of proper extensions strictly below that edge.  Children at a vertex are
    combined with a color-subset DP so sibling colors stay distinct.  Counts
    are Python integers, so there is no overflow on deep trees.
    """
    below = {}  # edge -> {color: extension count below the edge}

    for e in range(tree.n_edges - 1, -1, -1):
        kids = tree.child_edges[e]
        table = {}
        for c in lists[e]:
            table[c] = _combine_children(kids, below, lists, frozenset([c]))
        below[e] = table

    top = [tree.edge_of_child[v] for v in tree.children[tree.root]]
    return _combine_children(tuple(top), below, lists, frozenset())


def _combine_children(kid_edges, below, lists, forbidden):
    """Sum over distinct-color assignments to sibling edges of the product of
    their subtree counts, avoiding the ``forbidden`` colors."""
    if not kid_edges:
        return 1
    palette = sorted(set().union(*(lists[k] for k in kid_edges)) - forbidden)
    pos = {c: i for i, c in enumerate(palette)}
    acc = {0: 1}
    for k in kid_edges:
        nxt = {}
        tab = below[k]
        for mask, ways in acc.items():
            for c in lists[k]:
                if c in forbidden:
                    continue
                bit = 1 << pos[c]
                if mask & bit:
                    continue
                cnt = tab[c]
                if cnt:
                    key = mask | bit
                    nxt[key] = nxt.get(key, 0) + ways * cnt
        acc = nxt
        if not acc:
            return 0
    return sum(acc.values())


def conditional(dist, pinned):
    return dist.conditional(pinned)


def marginal(dist, S):
    return dist.marginal(S)
