"""Toolkit for existentially closed uniform hypergraphs.

Construction from combinatorial designs, exhaustive certification of the
n-e.c. property with witness reporting, and the seeded random model with its
closure-failure bound.
"""

from .builders import BuildResult, build_from_design, build_from_mols
from .checker import (
    CheckResult,
    CheckStats,
    CheckerUsageError,
    correctly_joined,
    find_witness,
    is_nec,
    max_ec,
    min_edges_bound,
    min_vertices_bound,
)
from .designs import (
    Design,
    DesignError,
    LatinSquare,
    MolsSet,
    are_orthogonal,
    complete_mols,
    count_blocks_containing_avoiding,
    design_params,
    fano,
    inversive_plane,
    is_latin,
    lambda_ij,
    projective_plane,
    validate_design,
)
from .galois import GaloisError, GfField, make_field
from .hypergraph import (
    Hypergraph,
    HypergraphError,
    complete_hypergraph,
    empty_hypergraph,
    new_hypergraph,
    read_hypergraph,
    write_hypergraph,
)
from .randomhg import (
    EcFractionResult,
    RandomModel,
    derive_seed,
    estimate_ec_fraction,
    sample,
    sample_trial,
    union_bound,
    union_bound_log,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
