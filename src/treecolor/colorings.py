"""Per-edge color lists: the palette ``1..q`` and the colors allowed on each
edge, with the uniform, star-root and pinned-root presets.

Colorings themselves live as rows of the enumerated support
(``oracle.DistributionTable``).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import ParameterError
from .trees import hanging_root_edge

UNIFORM = "UNIFORM"
STAR_ROOT = "STAR_ROOT"
PINNED_ROOT = "PINNED_ROOT"


class ListSpec:
    """Palette size ``q`` plus an allowed color set per edge."""

    def __init__(self, q, lists, preset=None):
        if q < 1:
            raise ParameterError("q must be positive")
        lists = tuple(frozenset(s) for s in lists)
        for s in lists:
            if not s:
                raise ParameterError("every edge needs a nonempty color list")
            if any(c < 1 or c > q for c in s):
                raise ParameterError("colors must lie in 1..q")
        self.q = q
        self.lists = lists
        self.preset = preset

    @cached_property
    def color_classes(self):
        """The class of each color 0..q (0, no color, lies on no list):
        colors that lie on exactly the same lists share a class.  So a
        permutation of 1..q keeps every list iff it keeps every class."""
        member = [tuple(c in s for s in self.lists) for c in range(self.q + 1)]
        label = {row: k for k, row in enumerate(sorted(set(member)))}
        return np.array([label[row] for row in member], dtype=np.intp)

    def __getitem__(self, e):
        return self.lists[e]

    def __len__(self):
        return len(self.lists)

    def describe(self):
        return {"q": self.q, "preset": self.preset or "custom"}

    def __repr__(self):
        return f"ListSpec(q={self.q}, preset={self.preset})"


def uniform_lists(tree, q):
    full = frozenset(range(1, q + 1))
    return ListSpec(q, [full] * tree.n_edges, preset=UNIFORM)


def star_root_lists(tree, q):
    """Hanging-root lists: the level-0 edge is restricted to ``1..q-d`` where
    ``d + 1`` is the internal-vertex degree; all other edges get ``1..q``."""
    r = hanging_root_edge(tree)
    d = tree.max_degree - 1
    if q - d < 1:
        raise ParameterError("q too small for the root list 1..q-d")
    full = frozenset(range(1, q + 1))
    lists = [full] * tree.n_edges
    lists[r] = frozenset(range(1, q - d + 1))
    return ListSpec(q, lists, preset=STAR_ROOT)


def pinned_root_lists(tree, q, c):
    r = hanging_root_edge(tree)
    if not (1 <= c <= q):
        raise ParameterError("pinned color out of range")
    full = frozenset(range(1, q + 1))
    lists = [full] * tree.n_edges
    lists[r] = frozenset([c])
    return ListSpec(q, lists, preset=PINNED_ROOT)
