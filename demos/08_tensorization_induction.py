"""From congestion to variance factorization to per-level constants.

Pipeline: exact congestion of the canonical paths gives root-tensorization
weights; the optimal constants of the shallow pieces give the base weight;
the recursion stitches them into per-level constants for a deeper tree, and
every inequality is certified by its best constant C on the weighted block
chain, with slack 1/C - 1.
"""

from treecolor import oracle
from treecolor import tensorization as tz
from treecolor.canonical import GLAUBER_PATHS, compute_congestion
from treecolor.colorings import star_root_lists, uniform_lists
from treecolor.dynamics import pair_blocks
from treecolor.trees import build_complete_regular, build_hanging_root

delta, q, ell = 2, 4, 1

seed_tree = build_hanging_root(delta, ell)
seed_lists = star_root_lists(seed_tree, q)
rep = compute_congestion(seed_tree, seed_lists, GLAUBER_PATHS)
alpha = rep.alpha_vector()
gamma = tz.gamma_constant(delta, q, ell)
print(f"seed weights alpha = {alpha}, base constant gamma = {gamma:.4f}")

cert = tz.check_root_tensorization(seed_tree, seed_lists, alpha)
print(f"root tensorization certificate: ok={cert.ok} "
      f"(constant {cert.constant:.4f}, slack {cert.slack:.4f})")

tree = build_complete_regular(delta, 2)
res = tz.verify_induction(tree, uniform_lists(tree, q), ell, alpha, gamma)
print("per-level constants on the depth-2 tree:", res["constants"])
print(f"full-variance certificate: {res['ok']} "
      f"(slack {res['certificate'].slack:.4f})")

# block factorization with singleton-plus-pair blocks at the tight constant
d = oracle.enumerate_colorings(tree, uniform_lists(tree, 3))
blocks = pair_blocks(tree)
C = tz.optimal_at_constant(d, blocks)
print(f"\nq=3 pair-block factorization: optimal constant {C:.4f}; "
      f"certificate at that constant: "
      f"{tz.check_block_factorization(d, {b: C * (1 + 1e-9) for b in blocks}).ok}")
