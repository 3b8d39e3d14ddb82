"""Run the coloring chains on their exact matrices and check ergodicity by
exhaustive move graphs."""

import numpy as np

from treecolor import oracle, spectral
from treecolor.colorings import uniform_lists
from treecolor.dynamics import (HEATBATH_GLAUBER, NEIGHBOR_PAIR,
                                UNIFORM_GLAUBER, pair_blocks)
from treecolor.trees import build_complete_regular, tree_from_parents

tree = build_complete_regular(3, 2)
lists = uniform_lists(tree, 5)

dist = oracle.enumerate_colorings(tree, lists)
print(f"{dist.size} proper colorings; start: {tuple(dist.array[0].tolist())}")

for kind in (UNIFORM_GLAUBER, HEATBATH_GLAUBER, NEIGHBOR_PAIR):
    tm = spectral.transition_matrix(tree, lists, kind, dist=dist)
    (row,) = tm.sample([0], 2000, 42)
    print(f"{kind:18s} after 2000 steps: {tuple(dist.array[row].tolist())}")

print("pair blocks on this tree:", len(pair_blocks(tree)),
      "(9 singletons + 12 adjacent pairs)")

# empirical edge marginal from independent replicas vs the oracle
path = tree_from_parents([None, 0, 1], 0)
tm = spectral.transition_matrix(path, uniform_lists(path, 4), HEATBATH_GLAUBER)
finals = tm.dist.array[tm.sample(np.zeros(500, dtype=int), 80, 7), 1]
marg = tm.dist.marginal([1])
print("middle-edge empirical vs exact marginal:")
for c in sorted(marg):
    print(f"  color {c[0]}: {np.mean(finals == c[0]):.3f} vs {marg[c]:.3f}")

# connectivity of the move graph, and how it breaks with too few colors
star = build_complete_regular(3, 1)
for q, kind, label in ((4, HEATBATH_GLAUBER, "star, 4 colors, heat-bath ergodic:"),
                       (3, UNIFORM_GLAUBER, "star, 3 colors (frozen):")):
    ncomp = spectral.transition_matrix(star, uniform_lists(star, q), kind).components()
    print(label, (ncomp == 1, ncomp))
