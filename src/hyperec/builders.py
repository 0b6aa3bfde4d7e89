"""Hypergraph constructions from MOLS families and block designs.

Both builders report raw versus deduplicated edge counts and attach the
closure level the construction is known to guarantee, if any.  The
guarantees are advisory metadata: the constructions are well defined outside
the guaranteed regimes and such instances make useful negative controls, so
the guarantee conditions are not enforced as preconditions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Optional

from . import hypergraph
from .designs import Design, DesignError, MolsSet, _validated
from .designs import validate_design  # noqa: F401  (perfbench/tracing.py wraps this name)
from .errors import check_int
from .hypergraph import Hypergraph, new_hypergraph


@dataclass(frozen=True)
class BuildResult:
    """A constructed hypergraph plus its provenance and edge accounting."""

    hypergraph: Hypergraph
    raw_edges: int
    unique_edges: int
    guaranteed_ec: Optional[int]
    provenance: str


def build_from_mols(mols: MolsSet) -> BuildResult:
    """Edges: all h-subsets of every row, column, and symbol class of the array.

    The vertex set is a q x q array stored row-major (vertex = row*q + col)
    with q = order and h = q - 1.  Each of the q rows, q columns, and q*ell
    symbol-position classes is a q-set, a block of the net the family
    defines, contributing its q subsets of size h; they may hold at most
    ``hypergraph.MAX_SETS`` points in all, (2q + q*ell) * q * h, so a
    complete family is built up to q = 43.  A complete family of order
    h+1 >= 4 guarantees the result is 2-e.c.
    """
    q = mols.order
    check_int(q, "array order", DesignError, 4)  # h = q - 1 >= 3
    cells = range(q * q)
    groups = [cells[r * q:(r + 1) * q] for r in range(q)] + [cells[c::q] for c in range(q)]
    for sq in mols.squares:
        classes: list[list[int]] = [[] for _ in range(q)]
        for cell, s in enumerate(itertools.chain.from_iterable(sq.grid)):
            classes[s].append(cell)
        groups += classes
    return _build(groups, q, q - 1, q * q, lambda: 2 if mols.is_complete() else None,
                  f"built-from: mols q={q} squares={mols.count}")


def build_from_design(design: Design, h: int) -> BuildResult:
    """Edges: all h-subsets of every block; vertices are the design's points.

    The blocks' h-subsets may hold at most ``hypergraph.MAX_SETS`` points in
    all, b * C(k, h) * h, which is counted before the design is validated.
    A t-(v,k,1) design yields a t-e.c. hypergraph when k >= 2t, v >= k+t
    and t+1 <= h <= k-t+1; at h = k the result is the design itself, 1-e.c.
    whenever v > k and the blocks are not all k-subsets.
    """
    check_int(h, "h", DesignError)
    if not 3 <= h <= design.k:
        raise DesignError(f"need 3 <= h <= k={design.k}, got h={h}")
    return _build(design.blocks, design.k, h, design.v,
                  lambda: _design_guarantee(_validated(design, "design"), h),
                  f"built-from: design t={design.t} v={design.v} k={design.k} "
                  f"lambda={design.lam} h={h}")


def _build(groups, k: int, h: int, m: int, guarantee, provenance: str) -> BuildResult:
    """The h-subsets of each k-point group in turn, repeats kept, as edges on m vertices.

    Their points are bounded by :func:`hypergraph.check_subsets` before
    ``guarantee()``, which may validate, and before the first is listed; the
    number listed is the raw edge count.
    """
    hypergraph.check_subsets(len(groups), k, h, DesignError, "the blocks")
    guaranteed = guarantee()
    edges = list(itertools.chain.from_iterable(itertools.combinations(g, h) for g in groups))
    hg = new_hypergraph(h, m, edges)
    return BuildResult(hg, len(edges), hg.edge_count, guaranteed, provenance)


def _design_guarantee(design: Design, h: int) -> Optional[int]:
    t, v, k, lam = design.t, design.v, design.k, design.lam
    if lam == 1 and k >= 2 * t and v >= k + t and t + 1 <= h <= k - t + 1:
        return t
    if h == k and v > k and len(set(design.blocks)) < comb(v, k):
        return 1
    return None
