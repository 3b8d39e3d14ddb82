"""Flip couplings and the staged canonical paths between coupled colorings."""

import numpy as np

from treecolor import oracle
from treecolor.canonical import (GLAUBER_PATHS, build_paths, flip_coupling,
                                 path_family, verify_paths)
from treecolor.colorings import star_root_lists
from treecolor.errors import VerificationError
from treecolor.trees import build_hanging_root, hanging_root_edge

tree = build_hanging_root(2, 3)      # path below a restricted root edge
lists = star_root_lists(tree, 4)
r = hanging_root_edge(tree)
dist = oracle.enumerate_colorings(tree, lists)

coupling = flip_coupling(tree, lists, 1, 2, dist)
print(f"flip coupling 1<->2: {len(coupling.pairs)} pairs, "
      f"each with weight {coupling.weight:.4f}")

# every path from root color 1 to 2, in one batch on the rows of the support
# (the coupling pairs come in the same order as the paths)
family = path_family(tree, lists, 1, 2, GLAUBER_PATHS)
batch = build_paths(family, dist, np.flatnonzero(dist.array[:, r] == 1))

# pick the pair with the longest alternating path and walk through its stages
sigma, tau = dist.array[coupling.pairs.T]
j = int(np.argmax((sigma != tau).sum(axis=1)))
print("sigma =", tuple(sigma[j].tolist()))
print("tau   =", tuple(tau[j].tolist()))
step = int(batch.lengths[:j].sum())  # the path's first step; j states precede it
for k in range(step, step + batch.lengths[j]):
    state = tuple(dist.array[batch.rows[k + j + 1]].tolist())
    stage = ("", "I", "II", "III")[batch.stages[k]]
    print(f"  stage {stage}: recolor edge {batch.edges[k, 0]} -> {state}")

try:  # every path of the batch, checked on support rows
    verify_paths(dist, batch)
    ok = True
except VerificationError:
    ok = False
print("path verifies (proper, simple, legal single moves):", ok)

lengths, counts = np.unique(batch.lengths, return_counts=True)
print("path length distribution over the coupling:",
      dict(zip(lengths.tolist(), counts.tolist())))
