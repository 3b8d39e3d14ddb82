"""The edge-coloring chains: kind names and block collections.

Four kinds are supported:

* ``UNIFORM_GLAUBER`` -- propose an edge and a color uniformly, accept iff no
  neighbor carries the color.
* ``HEATBATH_GLAUBER`` -- pick an edge uniformly and resample its color
  uniformly from the available set.
* ``NEIGHBOR_PAIR``    -- heat-bath update of a uniformly random block from
  the singletons-plus-adjacent-pairs collection.
* ``BLOCK``            -- heat-bath block dynamics with arbitrary nonnegative
  block weights.

Every kind leaves the uniform distribution over proper list colorings
invariant; the heat-bath kinds are reversible.  Each chain is defined once,
as its exact matrix ``spectral.transition_matrix``, and simulated on its
rows (``spectral.TransitionMatrix.sample``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

UNIFORM_GLAUBER = "UNIFORM_GLAUBER"
HEATBATH_GLAUBER = "HEATBATH_GLAUBER"
NEIGHBOR_PAIR = "NEIGHBOR_PAIR"
BLOCK = "BLOCK"

SINGLE_EDGE_KINDS = (UNIFORM_GLAUBER, HEATBATH_GLAUBER)


def check_block_weights(weights):
    """Refuse a block weight that is negative or not finite.  A heat-bath
    matrix sum_B w_B Pi_B is PSD because every w_B >= 0."""
    if not all(math.isfinite(w) and w >= 0 for w in weights):
        raise ParameterError("block weights must be finite and nonnegative")


@dataclass(frozen=True)
class BlockSpec:
    """Weighted block collection for the BLOCK kind."""

    blocks: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.blocks) != len(self.weights):
            raise ParameterError("blocks and weights must align")
        check_block_weights(self.weights)
        if not any(w > 0 for w in self.weights):
            raise ParameterError("at least one block weight must be positive")


def pair_blocks(tree):
    """All singleton edges plus all adjacent edge pairs, as sorted tuples."""
    blocks = [(e,) for e in range(tree.n_edges)]
    seen = set()
    for e in range(tree.n_edges):
        for f in tree.neighbors[e]:
            key = (min(e, f), max(e, f))
            if key not in seen:
                seen.add(key)
                blocks.append(key)
    return blocks

