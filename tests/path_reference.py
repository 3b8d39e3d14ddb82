"""The per-path canonical-path verifier: the test oracle for the batched
``treecolor.canonical.verify_paths``.

It checks one path state by state with ``is_proper`` and diffs every edge of
every step, so it is slow, but it needs nothing from the enumerated support.
"""

from treecolor.canonical import GLAUBER_PATHS, path_blocks_for_kind
from treecolor.colorings import flip, is_proper
from treecolor.trees import hanging_root_edge


def verify_path(tree, lists, path, path_kind=GLAUBER_PATHS):
    """Properness, legal-single-block moves, simplicity and endpoint checks.

    Returns (ok, diagnostics).
    """
    diags = []
    allowed = path_blocks_for_kind(tree, path_kind)
    for i, state in enumerate(path.states):
        if not is_proper(tree, lists, state):
            diags.append(f"state {i} is not a proper list coloring")
    for i, (x, y) in enumerate(path.transitions()):
        diff = tuple(sorted(e for e in range(tree.n_edges) if x[e] != y[e]))
        if not diff:
            diags.append(f"step {i} does not change the coloring")
            continue
        if diff != tuple(sorted(path.blocks[i])):
            diags.append(f"step {i} changed {diff}, recorded {path.blocks[i]}")
        if diff not in allowed:
            diags.append(f"step {i} changed a disallowed block {diff}")
    if len(set(path.states)) != len(path.states):
        diags.append("path revisits a state")
    if len(set(path.transitions())) != len(path.transitions()):
        diags.append("path reuses a transition")
    r = hanging_root_edge(tree)
    if path.tau != flip(tree, path.sigma, r, path.b):
        diags.append("endpoints are not a flip-coupled pair")
    return not diags, diags
