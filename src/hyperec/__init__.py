"""Toolkit for existentially closed uniform hypergraphs.

Construction from combinatorial designs, exhaustive certification of the
n-e.c. property with witness reporting, and the seeded random model with its
closure-failure bound.

The core (``hypergraph``, ``checker``, ``randomhg``) is imported with the
package.  The design layer (``designs``, ``galois``, ``builders``) is
imported on first use of one of its names here, or of the module itself, so
a process that only checks or samples hypergraphs never loads it.
"""

from importlib import import_module as _import_module

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
from .errors import DesignError, GaloisError
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

# Each name of the design layer, and each of its modules, mapped to its module.
_LAZY = {
    name: module
    for module, names in {
        "builders": ("BuildResult", "build_from_design", "build_from_mols"),
        "designs": ("Design", "LatinSquare", "MolsSet", "are_orthogonal", "complete_mols",
                    "count_blocks_containing_avoiding", "design_params", "fano",
                    "inversive_plane", "is_latin", "lambda_ij", "projective_plane",
                    "validate_design"),
        "galois": ("GfField", "make_field"),
    }.items()
    for name in (module, *names)
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    return value if name == module else getattr(value, name)


__all__ = sorted({name for name in dir() if not name.startswith("_")} - {"errors"} | set(_LAZY))
__version__ = "0.1.0"
