"""Step rules and trajectory simulation for the edge-coloring chains.

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
invariant; the heat-bath kinds are reversible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components

from .colorings import available_colors, is_proper
from .errors import ParameterError
from . import oracle

UNIFORM_GLAUBER = "UNIFORM_GLAUBER"
HEATBATH_GLAUBER = "HEATBATH_GLAUBER"
NEIGHBOR_PAIR = "NEIGHBOR_PAIR"
BLOCK = "BLOCK"

SINGLE_EDGE_KINDS = (UNIFORM_GLAUBER, HEATBATH_GLAUBER)


@dataclass(frozen=True)
class RngSpec:
    """Seed plus stream id; equal specs give equal trajectories."""

    seed: int
    stream: int = 0

    def generator(self):
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(self.stream,)))


@dataclass(frozen=True)
class BlockSpec:
    """Weighted block collection for the BLOCK kind."""

    blocks: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.blocks) != len(self.weights):
            raise ParameterError("blocks and weights must align")
        if any(w < 0 for w in self.weights):
            raise ParameterError("block weights must be nonnegative")
        if not any(w > 0 for w in self.weights):
            raise ParameterError("at least one block weight must be positive")


def pair_blocks(tree, include_singletons=True):
    """All singleton edges plus all adjacent edge pairs, as sorted tuples."""
    blocks = []
    if include_singletons:
        blocks.extend((e,) for e in range(tree.n_edges))
    seen = set()
    for e in range(tree.n_edges):
        for f in tree.neighbors[e]:
            key = (min(e, f), max(e, f))
            if key not in seen:
                seen.add(key)
                blocks.append(key)
    return blocks


def block_assignments(tree, lists, state, block):
    """All proper assignments of ``block`` consistent with the rest of the
    coloring, in ascending order."""
    block = tuple(block)
    outside = {}
    for e in block:
        used = {state[f] for f in tree.neighbors[e] if f not in block}
        outside[e] = sorted(lists[e] - used)
    inner = {e: [f for f in tree.neighbors[e] if f in block] for e in block}
    outs = []

    def fill(i, chosen):
        if i == len(block):
            outs.append(tuple(chosen[e] for e in block))
            return
        e = block[i]
        for c in outside[e]:
            if any(chosen.get(f) == c for f in inner[e]):
                continue
            chosen[e] = c
            fill(i + 1, chosen)
            del chosen[e]

    fill(0, {})
    if not outs:
        raise ParameterError("no consistent block assignment (improper state?)")
    return outs


def _apply_block(state, block, assignment):
    out = list(state)
    for e, c in zip(block, assignment):
        out[e] = c
    return tuple(out)


def step(tree, lists, kind, state, rng, block_spec=None, include_singletons=True):
    """One transition; returns (new_state, changed_block, old, new)."""
    if kind == UNIFORM_GLAUBER:
        e = int(rng.integers(tree.n_edges))
        c = int(rng.integers(1, lists.q + 1))
        old = state[e]
        if c in available_colors(tree, lists, state, e):
            new_state = _apply_block(state, (e,), (c,))
            return new_state, (e,), (old,), (c,)
        return state, (e,), (old,), (old,)

    if kind == HEATBATH_GLAUBER:
        e = int(rng.integers(tree.n_edges))
        avail = sorted(available_colors(tree, lists, state, e))
        c = avail[int(rng.integers(len(avail)))]
        return _apply_block(state, (e,), (c,)), (e,), (state[e],), (c,)

    if kind == NEIGHBOR_PAIR:
        blocks = pair_blocks(tree, include_singletons=include_singletons)
        b = blocks[int(rng.integers(len(blocks)))]
    elif kind == BLOCK:
        if block_spec is None:
            raise ParameterError("BLOCK kind needs a BlockSpec")
        w = np.asarray(block_spec.weights, dtype=float)
        b = block_spec.blocks[int(rng.choice(len(w), p=w / w.sum()))]
    else:
        raise ParameterError(f"unknown chain kind {kind!r}")

    opts = block_assignments(tree, lists, state, b)
    pick = opts[int(rng.integers(len(opts)))]
    old = tuple(state[e] for e in b)
    return _apply_block(state, b, pick), tuple(b), old, pick


def run_chain(tree, lists, kind, t_steps, rng_spec, start, trace=False, **kw):
    """Apply ``step`` ``t_steps`` times; deterministic given the RngSpec."""
    if not is_proper(tree, lists, start):
        raise ParameterError("start coloring must be proper")
    rng = rng_spec.generator()
    state = start
    rows = [] if trace else None
    for t in range(t_steps):
        state, block, old, new = step(tree, lists, kind, state, rng, **kw)
        if trace:
            rows.append((t, block, old, new))
    return (state, rows) if trace else state


def trace_to_csv(rows):
    lines = ["step,edge_or_block,old_colors,new_colors"]
    for t, block, old, new in rows:
        b = "+".join(str(e) for e in block)
        lines.append(f"{t},{b},{'|'.join(map(str, old))},{'|'.join(map(str, new))}")
    return "\n".join(lines) + "\n"


def check_ergodicity(tree, lists, kind, cap=oracle.ENUMERATION_CAP, **kw):
    """Connectivity of the one-step move graph over the enumerated support,
    read off the pattern of the class-built transition matrix.

    Returns (connected, component_count).
    """
    from . import spectral  # spectral imports this module

    dist = oracle.enumerate_colorings(tree, lists, cap=cap)
    tm = spectral.transition_matrix(tree, lists, kind, sparse_cap=cap, dist=dist, **kw)
    ncomp, _ = connected_components(tm.matrix, directed=False)
    return ncomp == 1, ncomp
