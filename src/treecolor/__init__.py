"""Exact verification toolkit for Markov chains on proper edge colorings of
trees: enumeration oracles, exact transition matrices with spectral
computations and chain sampling on their rows, flip couplings with canonical
paths, and variance-factorization certificates."""

from . import (canonical, colorings, dynamics, oracle, spectral,
               tensorization, trees)

__all__ = ["canonical", "colorings", "dynamics", "oracle", "spectral",
           "tensorization", "trees"]

__version__ = "0.1.0"
