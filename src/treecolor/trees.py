"""Rooted trees with level-indexed edges.

Edges are identified with their child vertex and indexed in breadth-first
order (parents before children, siblings left to right), which makes edge
ids stable across runs for a fixed construction call.

Two regular shapes are built directly:

* ``build_complete_regular(delta, k)`` -- the root has ``delta`` children and
  every other internal vertex has ``delta - 1`` children, down to depth ``k``.
  Root-incident edges sit at level 1.
* ``build_hanging_root(delta, ell)`` -- a ``(delta-1)``-ary tree of depth
  ``ell`` with one extra edge hanging above its top vertex.  The hanging edge
  sits at level 0, so that its children are the level-1 edges.

Arbitrary trees are ingested from a parent array (or the one-line-per-edge
text format) and get generic levels starting at 1.
"""

from __future__ import annotations

import hashlib

from .errors import ParameterError


class Tree:
    """Immutable rooted tree with BFS-ordered edges.

    The edge with index ``i`` joins ``edge_parent_vertex[i]`` to
    ``edge_child_vertex[i]``; every non-root vertex is the child endpoint of
    exactly one edge.
    """

    def __init__(self, parent, root, edge_levels=None):
        n = len(parent)
        if n < 2:
            raise ParameterError("a tree needs at least one edge")
        if parent[root] is not None:
            raise ParameterError("root must have parent None")
        self.n_vertices = n
        self.root = root
        self.parent = tuple(parent)

        children = [[] for _ in range(n)]
        for v in range(n):
            p = parent[v]
            if p is None:
                continue
            if not (0 <= p < n):
                raise ParameterError(f"parent of {v} out of range: {p}")
            children[p].append(v)
        self.children = tuple(tuple(c) for c in children)

        # BFS over vertices; an edge is recorded when its child is reached.
        order = []
        queue = [root]
        seen = {root}
        while queue:
            nxt = []
            for v in queue:
                for c in self.children[v]:
                    if c in seen:
                        raise ParameterError("parent array contains a cycle")
                    seen.add(c)
                    order.append(c)
                    nxt.append(c)
            queue = nxt
        if len(seen) != n:
            raise ParameterError("parent array is not connected")

        self.n_edges = n - 1
        self.edge_child_vertex = tuple(order)
        self.edge_parent_vertex = tuple(parent[v] for v in order)
        self.edge_of_child = {v: i for i, v in enumerate(order)}

        depth = {root: 0}
        for v in order:
            depth[v] = depth[parent[v]] + 1
        self.vertex_depth = depth

        if edge_levels is None:
            edge_levels = tuple(depth[v] for v in order)
        else:
            edge_levels = tuple(edge_levels)
            if len(edge_levels) != self.n_edges:
                raise ParameterError("edge_levels length mismatch")
        self.edge_levels = edge_levels
        self.max_level = max(edge_levels)
        self.min_level = min(edge_levels)
        by_level = {}
        for e, lv in enumerate(edge_levels):
            by_level.setdefault(lv, []).append(e)
        self._level_edges = {lv: frozenset(es) for lv, es in by_level.items()}

        deg = [0] * n
        for v in order:
            deg[v] += 1
            deg[parent[v]] += 1
        self.degree = tuple(deg)
        self.max_degree = max(deg)

        # Edges incident to each vertex, child edges of each edge, and the
        # line-graph adjacency N(e).
        edges_at = [[] for _ in range(n)]
        for i, v in enumerate(order):
            edges_at[parent[v]].append(i)
            edges_at[v].append(i)
        self.edges_at_vertex = tuple(tuple(e) for e in edges_at)

        child_edges = []
        for i, v in enumerate(order):
            child_edges.append(tuple(self.edge_of_child[c] for c in self.children[v]))
        self.child_edges = tuple(child_edges)

        nbrs = []
        for i in range(self.n_edges):
            u = self.edge_parent_vertex[i]
            v = self.edge_child_vertex[i]
            ns = [j for j in edges_at[u] if j != i] + [j for j in edges_at[v] if j != i]
            nbrs.append(tuple(ns))
        self.neighbors = tuple(nbrs)

        self._hash = None

    def level_edges(self, i):
        if not (self.min_level <= i <= self.max_level):
            raise ParameterError(f"level {i} out of range "
                                 f"[{self.min_level}, {self.max_level}]")
        return self._level_edges.get(i, frozenset())

    def content_hash(self):
        """Stable hash of the rooted shape, used in result artifacts."""
        if self._hash is None:
            text = f"{self.n_vertices} {self.root} " + " ".join(
                f"{v}:{p}" for v, p in enumerate(self.parent) if p is not None
            )
            self._hash = hashlib.sha256(text.encode()).hexdigest()[:16]
        return self._hash

    def __repr__(self):
        return (f"Tree(n_vertices={self.n_vertices}, edges={self.n_edges}, "
                f"levels {self.min_level}..{self.max_level})")


def build_complete_regular(delta, k):
    """Complete regular tree: root with ``delta`` children, branching
    ``delta - 1`` below, leaf edges at level ``k``."""
    if delta < 2:
        raise ParameterError("delta must be >= 2")
    if k < 1:
        raise ParameterError("depth k must be >= 1")
    d = delta - 1
    parent = [None]
    frontier = [0]
    for lvl in range(1, k + 1):
        width = delta if lvl == 1 else d
        nxt = []
        for v in frontier:
            for _ in range(width):
                parent.append(v)
                nxt.append(len(parent) - 1)
        frontier = nxt
    return Tree(parent, root=0)


def build_hanging_root(delta, ell):
    """(delta-1)-ary tree of depth ``ell`` with one extra level-0 edge on top.

    The extra leaf is the traversal root, so descending from the hanging edge
    walks into the branching part of the tree.
    """
    if delta < 2:
        raise ParameterError("delta must be >= 2")
    if ell < 1:
        raise ParameterError("depth ell must be >= 1")
    d = delta - 1
    parent = [None, 0]  # vertex 1 carries the d-ary tree
    levels = [0]  # per edge in BFS order: its child vertex's depth less one
    frontier = [1]
    for level in range(1, ell + 1):
        nxt = []
        for v in frontier:
            for _ in range(d):
                parent.append(v)
                nxt.append(len(parent) - 1)
        frontier = nxt
        levels += [level] * len(nxt)
    return Tree(parent, root=0, edge_levels=levels)


def tree_from_parents(parent, root):
    """Tree from an explicit parent array; levels start at 1."""
    return Tree(parent, root)


def hanging_root_edge(tree):
    """The unique level-0 edge, if the tree has one."""
    if tree.min_level != 0:
        raise ParameterError("tree has no hanging root edge")
    (r,) = tree.level_edges(0)
    return r


def save_tree(tree, path):
    with open(path, "w") as fh:
        fh.write(f"{tree.n_vertices} {tree.root}\n")
        for v, p in enumerate(tree.parent):
            if p is not None:
                fh.write(f"{v} {p}\n")


def load_tree(path):
    """Read the ``n_v root`` / ``child parent`` text format.

    Levels are recomputed generically (root-incident edges at level 1), so a
    hanging-root tree round-trips its shape but not its level-0 convention.
    """
    try:  # a NUL byte in the path, bytes that are no UTF-8, text that is no integers, one token
        with open(path, encoding="utf-8") as fh:
            n, root, *body = [int(token) for token in fh.read().split()]
    except ValueError as exc:
        raise ParameterError(f"malformed tree file: {exc}") from None
    if len(body) != 2 * (n - 1):
        raise ParameterError("tree file has wrong number of edge lines")
    if not 0 <= root < n:
        raise ParameterError(f"malformed tree file: root {root} of {n} vertices")
    parent = [None] * n
    for i in range(n - 1):
        child, par = body[2 * i], body[2 * i + 1]
        if not 0 <= child < n or child == root or parent[child] is not None:
            raise ParameterError(f"malformed edge list: child {child} of {n} vertices")
        parent[child] = par
    return Tree(parent, root)
