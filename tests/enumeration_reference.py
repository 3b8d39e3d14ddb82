"""The support builder that counted choices with a boolean mask, kept as an
oracle for ``oracle.enumerate_colorings``.

Each edge's extensions are the colors of its sorted list that no earlier
neighbor carries: an (rows x |L_e|) mask, summed per row for the counts and
read by a boolean gather for the new column.  It is fast enough to compare
with the array builder on supports of hundreds of thousands of rows, where
the recursive enumerator of ``test_enumeration`` is not.
"""

import numpy as np

from treecolor.oracle import _earlier_neighbors


def reference_rows(tree, lists):
    """The (N x m) support array, lexicographic over BFS edge ids."""
    dtype = np.min_scalar_type(lists.q)
    rows = np.zeros((1, tree.n_edges), dtype=dtype)
    for e, earlier in enumerate(_earlier_neighbors(tree)):
        colors = np.array(sorted(lists[e]), dtype=dtype)
        allowed = np.ones((len(rows), len(colors)), dtype=bool)
        for f in earlier:
            allowed &= rows[:, f, None] != colors
        rows = np.repeat(rows, allowed.sum(axis=1), axis=0)
        rows[:, e] = np.broadcast_to(colors, allowed.shape)[allowed]
    return rows
