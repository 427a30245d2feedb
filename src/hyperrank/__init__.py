"""Directed-hypergraph random-walk ranking and Laplacian toolkit."""

from .core import (DegreeTables, DirectedHypergraph, PruneEvent,
                   ValidationReport, Violation, build_incidence,
                   compute_degrees, ensure_valid, prune_to_core, validate)
from .ingest import (IngestReport, ReactionColumns, load_canonical,
                     parse_reaction_line, parse_reactions_text,
                     reactions_to_hypergraph, save_canonical)
from .laplacian import (LaplacianPair, SpectralReport, build_laplacians,
                        spectral_report)
from .sparse import SparseRealMatrix
from .walk import (PowerOptions, RankVector, TransitionMatrix,
                   build_transition, pagerank_power, simulate_walk,
                   stationary_dense_oracle, top_k, tv_distance)

__version__ = "0.1.0"

# the walk stepper and the multiply are Python and NumPy; nothing is compiled
KERNEL_BACKEND = "python"

__all__ = [
    "KERNEL_BACKEND",
    "DegreeTables", "DirectedHypergraph", "PruneEvent",
    "ValidationReport", "Violation", "build_incidence", "compute_degrees",
    "ensure_valid", "prune_to_core", "validate",
    "IngestReport", "ReactionColumns", "load_canonical", "parse_reaction_line",
    "parse_reactions_text", "reactions_to_hypergraph", "save_canonical",
    "LaplacianPair", "SpectralReport", "build_laplacians", "spectral_report",
    "SparseRealMatrix",
    "PowerOptions", "RankVector", "TransitionMatrix", "build_transition",
    "pagerank_power", "simulate_walk", "stationary_dense_oracle", "top_k",
    "tv_distance",
]
