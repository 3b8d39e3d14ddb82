"""Exact enumeration and counting of proper list edge colorings.

``enumerate_colorings`` materializes the whole support as an (N x m) array of
colors in a canonical order (lexicographic over BFS edge ids, colors ascending
inside each list), which makes state indices reproducible across runs; it
counts choices by list membership and reads each new column off the tiled list
by a flat mask.  On large supports it extends, past a split edge h, only the
distinct colorings of the boundary edges that later edges read, and joins
each prefix row to the suffix rows of its boundary tuple (``_join``), so no
step copies the whole support.  A coloring is a row, and the support is kept
only as the array: ``DistributionTable.rows_of`` maps colorings back to rows,
and ``DistributionTable.row_map`` gives the checked, exact row action of a
color permutation, which orbit starts and mapped path families share.
``count_colorings`` gets the same number by dynamic programming and works on
trees far too large to enumerate.  ``DistributionTable.classes`` groups the
support into the classes of states that agree off a block of edges, from
which every block-averaging matrix of the package is built.

There is one exact row key (``_digit_keys``): the colors as digits of radix
q+2, the first column most significant, in groups of columns whose keys stay
below ``KEY_LIMIT``.  The table caches it for its rows, which must ascend
strictly, so ``rows_of`` searches it, or past one group the rows' bytes
(``_row_bytes``); ``classes`` ranks it less a block's digits, and the
builder its boundary tuples, by one ranking (``_labels``).
``DistributionTable.choices`` counts a singleton block's class sizes by list
membership instead, with no sort.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import CapacityError, InfeasiblePinningError, ParameterError, VerificationError

ENUMERATION_CAP = 2_000_000
KEY_LIMIT = 2 ** 62      # bound on every mixed-radix row key
SPLIT_STATES = 2 ** 15  # smallest support built from prefixes and suffixes (measured crossover)
JOIN_ROWS = 2 ** 15      # output rows written per chunk of ``_join``


def _digit_keys(colors, radix):
    """Each row of ``colors`` (k x m) read as a number of base ``radix``, the
    first column most significant, cut into groups of the most columns (at
    least one) whose keys stay below ``KEY_LIMIT``, so they are exact for
    every q and m: the (groups x k) int64 keys, one matmul per group, and
    per group its columns' place values."""
    width, m = 1, colors.shape[1]
    while radix ** (width + 1) < KEY_LIMIT:
        width += 1
    starts = range(0, m, width)
    places = [radix ** np.arange(min(width, m - lo) - 1, -1, -1, dtype=np.int64) for lo in starts]
    keys = np.array([colors[:, lo:lo + width] @ place for lo, place in zip(starts, places)])
    return keys, places


def _labels(keys):
    """The dense rank of each column of ``keys`` (one row per group, the
    first most significant): one stable ``lexsort``, which finds long sorted
    runs in keys of the lexicographic support, then the run starts and an
    in-place ``cumsum`` (faster than one from the booleans)."""
    order = np.lexsort(keys[::-1])
    starts = np.zeros(len(order), dtype=bool)
    starts[0] = True
    for key in keys:
        ranked = key[order]
        starts[1:] |= ranked[1:] != ranked[:-1]
    rank = starts.astype(np.int64)
    np.cumsum(rank, out=rank)
    labels = np.empty_like(rank)
    labels[order] = rank - 1
    return labels


def _row_bytes(colors):
    """Each row of ``colors`` as one void item, big-endian so that the items'
    byte order is the rows' lexicographic order."""
    big = np.ascontiguousarray(colors, dtype=colors.dtype.newbyteorder(">"))
    return big.view(f"V{big.shape[1] * big.itemsize}").ravel()


class DistributionTable:
    """Uniform distribution over an enumerated support of colorings.

    ``array`` holds the support, one coloring per row, in the narrowest
    unsigned dtype that holds ``q``.
    """

    def __init__(self, tree, lists, array):
        self.tree = tree
        self.lists = lists
        self.array = array
        self.size = len(array)
        if self.size == 0:
            raise InfeasiblePinningError("empty support")
        self.weight = 1.0 / self.size
        self._maps = {}  # the checked row maps of ``row_map``: pi^-1's bytes -> (pi, map)

    @cached_property
    def _keys(self):
        """``_digit_keys`` of the rows, which must ascend strictly (the first
        group that differs grows), else ``VerificationError``: ``rows_of``
        searches in that order."""
        keys, places = _digit_keys(self.array, self.lists.q + 2)
        steps = np.diff(keys)
        ascend = steps[-1] > 0
        for step in steps[-2::-1]:
            ascend = (step > 0) | (step == 0) & ascend
        if not ascend.all():
            raise VerificationError("support rows do not ascend strictly")
        return keys, places

    @cached_property
    def _bytes(self):  # ``rows_of`` searches these past one key group
        return _row_bytes(self.array)

    def rows_of(self, colors):
        """The support row of each coloring in ``colors`` (k x m), or -1 for
        a coloring outside the support, any color outside 1..q (no row has
        one) written as 0: one ``searchsorted`` of the row key, made with the
        table's place values, when it is one group, else of the rows' bytes
        (``_bytes``), both in the rows' lexicographic order, which ``_keys``
        checks."""
        (keys, places), q = self._keys, self.lists.q
        colors = np.asarray(colors)
        colors = np.where((colors >= 1) & (colors <= q), colors, 0).astype(self.array.dtype)
        if len(keys) == 1:
            table, want = keys[0], colors @ places[0]
        else:
            table, want = self._bytes, _row_bytes(colors)
        row = np.minimum(np.searchsorted(table, want), self.size - 1)
        return np.where(table[row] == want, row, -1)

    def row_map(self, pi):
        """The row of pi(x) for every row x, for a permutation ``pi`` of the
        colors 0..q (an array, pi[0] = 0, of the table's dtype so that maps
        compose): one ``rows_of`` lookup of the permuted support or, when
        pi = s o t for two maps kept on the table, the composition
        perm_s[perm_t].  The map must be exact, row perm[x] being pi(x) for
        every row x, so a bijection of the support (else
        ``VerificationError``, as for a pi breaking a list), checked in
        O(N m) in both branches; only then is it kept, with pi, keyed by
        pi^-1."""
        inv, image = np.argsort(pi).astype(pi.dtype), np.take(pi, self.array)
        for s, perm_s in self._maps.values():  # pi = s o t with t^-1 = pi^-1 o s
            if (t := self._maps.get(inv[s].tobytes())) is not None:
                perm = perm_s[t[1]]
                break
        else:
            perm = self.rows_of(image)
        if not (perm.min() >= 0 and np.array_equal(np.take(self.array, perm, axis=0), image)):
            raise VerificationError(f"color map {pi.tolist()} is not a bijection "
                                    f"x -> pi(x) of the support")
        self._maps[inv.tobytes()] = (pi, perm)
        return perm

    def classes(self, B):
        """Partition of the support into classes of states that agree on every
        edge outside ``B``.

        Returns ``(labels, sizes)``: ``labels[i]`` numbers the class of state
        ``i`` and ``sizes[k]`` counts the states of class ``k``, in the order
        of the rows off ``B`` compared from the first edge to the last: the
        row keys (``_keys``) less B's digits, ranked by ``_labels``.  An edge
        of ``B`` outside 0..m-1 raises ``ParameterError``.
        """
        m = self.array.shape[1]
        for e in B:
            if not 0 <= e < m:
                raise ParameterError(f"block edge {e} out of range 0..{m - 1}")
        keys, places = self._keys
        keys, width = list(keys), len(places[0])
        for e in set(B):
            g, i = divmod(e, width)
            keys[g] = keys[g] - places[g][i] * self.array[:, e]
        labels = _labels(keys)
        return labels, np.bincount(labels)

    def choices(self, e):
        """Per row, the number of colors of L_e that no neighbour of ``e``
        carries: the size of the row's class under the block (e,), since the
        support is every proper list coloring.  The neighbours at one endpoint
        carry distinct colors, so with U and W those at the upper and lower
        vertex it is |L_e| - sum_{f in U+W} [x_f in L_e]
        + sum_{f in U, g in W} [x_f = x_g in L_e], in O(N deg^2) for every q."""
        tree = self.tree
        upper, lower = ([f for f in tree.edges_at_vertex[v] if f != e] for v in
                        (tree.edge_parent_vertex[e], tree.edge_child_vertex[e]))
        member = np.zeros(self.lists.q + 1, dtype=bool)
        member[sorted(self.lists[e])] = True
        col = {f: self.array[:, f] for f in upper + lower}
        held = {f: np.take(member, c) for f, c in col.items()}
        s = np.full(self.size, len(self.lists[e]), dtype=np.int64)
        for f in upper + lower:
            s -= held[f]
        for f in upper:
            for g in lower:
                s += held[f] & (col[f] == col[g])
        return s

    def conditional(self, pinned):
        """Restrict to states matching a partial coloring {edge: color}."""
        for e in pinned:
            if not (0 <= e < self.tree.n_edges):
                raise ParameterError(f"pinned edge {e} out of range")
        mask = np.ones(self.size, dtype=bool)
        for e, c in pinned.items():
            mask &= self.array[:, e] == c
        if not mask.any():
            raise InfeasiblePinningError(f"pinning {pinned} has no extension")
        return DistributionTable(self.tree, self.lists, self.array[mask])

    def marginal(self, S):
        """Map color-tuple on the sorted edge set ``S`` -> probability, keyed
        in order of first appearance in the support."""
        S = sorted(S)
        n = self.tree.n_edges
        if not S or S[0] < 0 or S[-1] >= n:
            raise ParameterError(f"marginal needs a nonempty set of edges in 0..{n - 1}")
        keys, first, counts = np.unique(self.array[:, S], axis=0,
                                        return_index=True, return_counts=True)
        order = np.argsort(first)
        return {tuple(k): v / self.size
                for k, v in zip(keys[order].tolist(), counts[order].tolist())}

    def export(self, include_states=False):
        doc = {
            "tree_hash": self.tree.content_hash(),
            "lists": self.lists.describe(),
            "size": self.size,
        }
        if include_states:
            doc["states"] = self.array.tolist()
        return doc

    def __repr__(self):
        return f"DistributionTable(size={self.size})"


def _earlier_neighbors(tree):
    """For each edge, the adjacent edges with a smaller BFS index."""
    return [tuple(f for f in tree.neighbors[e] if f < e) for e in range(tree.n_edges)]


def enumerate_colorings(tree, lists, cap=ENUMERATION_CAP):
    """The support of the uniform distribution, one edge at a time in BFS
    order: each partial coloring is extended by every color of the edge's
    sorted list that no earlier neighbor carries, which keeps the support
    lexicographic.  The earlier neighbors of e meet it at its upper vertex,
    so their colors differ in a proper prefix and each in L_e removes one
    choice.  The rows must number ``count_colorings``, else
    ``VerificationError``.

    The completions of a prefix (a coloring of edges 0..h-1) depend only on
    its colors on the boundary B_h, the edges below h that some edge from h
    on reads.  On a support of at least ``SPLIT_STATES`` states, at the
    first h where the predicted suffix, prod_{f in B_h} |L_f| tuples times
    N / N_h completions each, is smaller than the N_h prefixes, the steps
    from h on extend only the distinct boundary tuples of the prefixes, and
    ``_join`` writes each prefix followed by its tuple's suffix rows.  Every
    step checks the partial colorings of edges 0..e against ``cap``; in the
    suffix pass a row counts once per prefix that shares its tuple."""
    total = count_colorings(tree, lists)
    if total > cap:
        raise CapacityError(
            f"support has {total} states, above the cap {cap}", estimated=total
        )
    m, earlier = tree.n_edges, _earlier_neighbors(tree)
    dtype = np.min_scalar_type(lists.q)
    rows = np.zeros((1, m), dtype=dtype)
    ids = None  # in the suffix pass, the boundary tuple of each row
    for e in range(m):
        colors = np.array(sorted(lists[e]), dtype=dtype)
        member = np.zeros(lists.q + 1, dtype=dtype)
        member[colors] = 1
        allowed = np.ones((len(colors), len(rows)), dtype=bool)  # [j, i]: row i may take colors[j]
        counts = np.full(len(rows), len(colors), dtype=dtype)
        for f in earlier[e]:
            col = rows[:, f]
            allowed &= colors[:, None] != col
            counts -= member.take(col)
        partial = int(counts.sum(dtype=np.int64) if ids is None else shared[ids] @ counts)
        # Partial colorings can outnumber the support when custom lists kill them late.
        if partial > cap:
            raise CapacityError(
                f"{partial} partial colorings of edges 0..{e}, above the "
                f"cap {cap}", estimated=partial)
        new = np.tile(colors, len(rows))[allowed.T.ravel()]
        del allowed
        rows = np.repeat(rows, counts, axis=0)
        rows[:, e] = new
        if ids is not None:
            ids = np.repeat(ids, counts)
        elif total >= SPLIT_STATES and e + 1 < m and len(rows) ** 2 > total:
            boundary = sorted({f for g in earlier[e + 1:] for f in g if f <= e})
            if math.prod(len(lists[f]) for f in boundary) * total < len(rows) ** 2:
                prefix, inv = rows, _labels(_digit_keys(rows[:, boundary], lists.q + 2)[0])
                shared = np.bincount(inv)  # prefixes per boundary tuple
                rows = np.zeros((len(shared), m), dtype=dtype)
                rows[inv[:, None], boundary] = prefix[:, boundary]
                ids, h = np.arange(len(shared)), e + 1
    if ids is not None:
        rows = _join(prefix, inv, rows, ids, h)
    if len(rows) != total:
        raise VerificationError(f"enumerated {len(rows)} colorings, counted {total}")
    return DistributionTable(tree, lists, rows)


def _join(prefix, inv, suffix, ids, h):
    """The support from its prefixes (rows whose edges 0..h-1 are colored,
    ``inv`` their boundary tuples) and the suffix rows (edges h..m-1 colored,
    ``ids`` their tuples, grouped in tuple order): each prefix in order,
    followed by every suffix row of its tuple.  The prefixes are repeated
    whole, and then the suffix edges are written ``JOIN_ROWS`` rows at a
    time: one field of a structured view of the output takes the suffix
    rows as void rows, gathered by ``take``, so the temporaries stay near
    the size of a chunk."""
    sizes = np.bincount(ids, minlength=inv.max() + 1)  # suffix rows per tuple
    runs = sizes[inv]  # output rows per prefix
    bounds = np.concatenate(([0], np.cumsum(runs)))
    shift = (np.cumsum(sizes) - sizes)[inv] - bounds[:-1]  # suffix row - output row
    m, width = prefix.shape[1], prefix.dtype.itemsize
    tails = np.ascontiguousarray(suffix[:, h:]).view(f"V{(m - h) * width}").ravel()
    out = np.repeat(prefix, runs, axis=0)
    out_tails = out.view([("head", f"V{h * width}"), ("tail", tails.dtype)]).ravel()["tail"]
    cuts = np.searchsorted(bounds, np.arange(0, len(out), JOIN_ROWS), "right") - 1
    for i, j in zip(cuts, [*cuts[1:], len(runs)]):
        src = shift[i:j].repeat(runs[i:j])
        src += np.arange(bounds[i], bounds[j])
        out_tails[bounds[i]:bounds[j]] = tails.take(src)
    return out


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
