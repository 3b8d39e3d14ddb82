"""Paper-lemma checks that only tests call: monotonicity of the optimal
block-factorization constants under passing to a rooted subtree
(``check_monotonicity``, on the subtree of ``restrict_tree``), and the
enumerated frozen-edge probability (``frozen_probability_exact``) that
acceptance criterion 4a sets against its closed form.
"""

from treecolor import dynamics, oracle, spectral
from treecolor.colorings import uniform_lists
from treecolor.errors import ParameterError
from treecolor.tensorization import optimal_at_constant, singleton_blocks
from treecolor.trees import Tree


def restrict_tree(tree, sub_edges):
    """Subtree of ``tree`` spanned by the given edges; must be connected and
    contain the root."""
    sub_edges = set(sub_edges)
    keep = {tree.root}
    for e in sorted(sub_edges, key=lambda e: tree.edge_levels[e]):
        p = tree.edge_parent_vertex[e]
        c = tree.edge_child_vertex[e]
        if p not in keep:
            raise ParameterError("sub-edges must form a rooted connected subtree")
        keep.add(c)
    relabel = {v: i for i, v in enumerate(sorted(keep, key=lambda v: tree.vertex_depth[v]))}
    parent = [None] * len(keep)
    for v in keep:
        if v == tree.root:
            continue
        parent[relabel[v]] = relabel[tree.parent[v]]
    return Tree(parent, root=relabel[tree.root])


def check_monotonicity(super_tree, sub_edges, q):
    """Optimal constants of a rooted subtree against the full tree.

    Asserts the factor-q bound for singleton blocks and the factor-(q+1)^2
    bound for the singleton-plus-adjacent-pair blocks.
    """
    sub_tree = restrict_tree(super_tree, sub_edges)
    recs = {}
    for name, tr in (("super", super_tree), ("sub", sub_tree)):
        d = oracle.enumerate_colorings(tr, uniform_lists(tr, q))
        recs[name] = {
            "singleton": optimal_at_constant(d, singleton_blocks(tr)),
            "pairs": optimal_at_constant(d, dynamics.pair_blocks(tr)),
        }
    ok_single = recs["sub"]["singleton"] <= q * recs["super"]["singleton"] + 1e-9
    ok_pairs = recs["sub"]["pairs"] <= (q + 1) ** 2 * recs["super"]["pairs"] + 1e-9
    return {"super": recs["super"], "sub": recs["sub"],
            "ok_singleton": ok_single, "ok_pairs": ok_pairs,
            "ok": ok_single and ok_pairs}


def frozen_probability_exact(tree, lists, e, cap=oracle.ENUMERATION_CAP):
    """Enumerated Pr[|available(e)| <= 1] under the root-color-1 pinning."""
    return spectral._frozen_probability(oracle.enumerate_colorings(tree, lists, cap=cap), e)
