"""Exact combinatorics of increasing-map-invariant chains of edge ideals.

The package computes, classifies and certifies the eventual regularity of
such chains: window expansion, exact graph algorithms (chordality, induced
matchings, holes of the complement), a homology-based regularity oracle,
greedy anticycle constructions, and the limit-regularity classifier with
explicit stabilization thresholds.
"""

from . import errors
from .anticycle import AnticycleTrace, PivotTrace, construct_anticycle
from .chain import (
    ChainIndices,
    ChainSpec,
    chain_indices,
    derived_chain,
    expand,
    is_quasi_saturated,
    normalize_spec,
    q_invariant,
    reduce_index,
)
from .classify import (
    ClassifierVerdict,
    limit_indmatch,
    limit_regularity,
    stabilization_threshold,
    sweep_verify,
)
from .graphs import (
    AnticycleWitness,
    SimpleGraph,
    first_hole,
    induced_matching,
    is_cochordal,
    verify_anticycle,
)
from .oracle import RegularityReport, regularity
from .randspec import generate_random_spec, spec_pool

__version__ = "0.1.0"
