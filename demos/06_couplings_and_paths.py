"""Flip couplings and the staged canonical paths between coupled colorings."""

from treecolor import oracle
from treecolor.canonical import (GLAUBER_PATHS, build_paths, flip_coupling,
                                 glauber_canonical_path, path_family,
                                 verify_paths)
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

# pick the pair with the longest alternating path and walk through its stages
sigma, tau = max(coupling.pairs,
                 key=lambda p: sum(x != y for x, y in zip(*p)))
path = glauber_canonical_path(tree, lists, sigma, 2)
print("sigma =", sigma)
print("tau   =", tau)
for state, block, stage in zip(path.states[1:], path.blocks, path.stages):
    print(f"  stage {stage}: recolor edge {block[0]} -> {state}")

try:  # the batch of the one path from sigma, checked on support rows
    family = path_family(tree, lists, 1, 2, GLAUBER_PATHS)
    verify_paths(dist, build_paths(family, dist, dist.rows_of([sigma])))
    ok = True
except VerificationError:
    ok = False
print("path verifies (proper, simple, legal single moves):", ok)

lengths = {}
for sigma, _tau in coupling.pairs:
    lengths.setdefault(len(glauber_canonical_path(tree, lists, sigma, 2)), 0)
    lengths[len(glauber_canonical_path(tree, lists, sigma, 2))] += 1
print("path length distribution over the coupling:", dict(sorted(lengths.items())))
