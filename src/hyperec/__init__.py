"""Toolkit for existentially closed uniform hypergraphs.

Construction from combinatorial designs, exhaustive certification of the
n-e.c. property with witness reporting, and the seeded random model with its
closure-failure bound.

``import hyperec`` loads no module of the package.  Each public name, and
each module, is imported on its first use here and kept, so a process loads
only the modules it reads: the core (``hypergraph``, ``checker``,
``randomhg``) for checking and sampling, the design layer (``designs``,
``galois``, ``builders``) for constructions, and ``errors`` alone to catch an
error.
"""

from importlib import import_module as _import_module

# Each public name, and each module, mapped to the module it is read from.
_LAZY = {
    name: module
    for module, names in {
        "builders": ("BuildResult", "build_from_design", "build_from_mols"),
        "checker": ("CheckResult", "CheckStats", "correctly_joined", "find_witness", "is_nec",
                    "max_ec", "min_edges_bound", "min_vertices_bound"),
        "designs": ("Design", "LatinSquare", "MolsSet", "are_orthogonal", "complete_mols",
                    "count_blocks_containing_avoiding", "design_params", "fano",
                    "inversive_plane", "is_latin", "lambda_ij", "projective_plane",
                    "validate_design"),
        "errors": ("CheckerUsageError", "DesignError", "GaloisError", "HypergraphError"),
        "galois": ("GfField", "make_field"),
        "hypergraph": ("Hypergraph", "complete_hypergraph", "empty_hypergraph", "new_hypergraph",
                       "read_hypergraph", "write_hypergraph"),
        "randomhg": ("EcFractionResult", "RandomModel", "derive_seed", "estimate_ec_fraction",
                     "sample", "sample_trial", "union_bound", "union_bound_log"),
    }.items()
    for name in (module, *names)
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = globals()[name] = getattr(value, name)  # later reads skip this function
    return value


__all__ = sorted(set(_LAZY) - {"errors"})
__version__ = "0.1.0"
