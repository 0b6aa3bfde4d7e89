#!/usr/bin/env python3
"""Certify every bundled construction and its structural closures.

Builds each design-based instance, checks it at its guaranteed closure
level, then sweeps the derived structures (vertex deletions, co-occurrence
inductions, complement) one level down.  Prints a key:value block per
instance; exits nonzero if anything fails.
"""

import argparse
import sys
import time

from hyperec.builders import build_from_design, build_from_mols
from hyperec.checker import is_nec, max_ec, min_edges_bound, min_vertices_bound
from hyperec.designs import complete_mols, fano, inversive_plane, projective_plane


def instances():
    yield "mols-4", build_from_mols(complete_mols(4))
    yield "mols-5", build_from_mols(complete_mols(5))
    yield "pg3-h3", build_from_design(projective_plane(3), 3)
    yield "pg4-h3", build_from_design(projective_plane(4), 3)
    yield "pg4-h4", build_from_design(projective_plane(4), 4)
    yield "inversive5-h4", build_from_design(inversive_plane(5), 4)
    yield "fano-h3", build_from_design(fano(), 3)


def certify(name, built, threads, full_sweep):
    hg = built.hypergraph
    level = built.guaranteed_ec
    started = time.perf_counter()
    ok = True
    print(f"instance: {name}")
    print(f"h: {hg.h}")
    print(f"m: {hg.m}")
    print(f"edges: {hg.edge_count} (raw {built.raw_edges})")
    print(f"guaranteed_ec: {level if level is not None else '-'}")
    if level is not None:
        for n in range(1, level + 1):
            holds = is_nec(hg, n, threads=threads).holds
            ok &= holds
            print(f"nec_{n}: {'true' if holds else 'false'}")
        ok &= hg.edge_count >= min_edges_bound(level)
        ok &= hg.m >= min_vertices_bound(level, hg.h)
        print(f"edge_bound: {min_edges_bound(level)}")
        print(f"vertex_bound: {min_vertices_bound(level, hg.h)}")
        comp_holds = is_nec(hg.complement(), level, threads=threads).holds
        ok &= comp_holds
        print(f"complement_nec_{level}: {'true' if comp_holds else 'false'}")
        if level >= 2 and full_sweep:
            closure_ok = True
            for v in range(hg.m):
                deleted, _ = hg.delete_vertex(v)
                closure_ok &= is_nec(deleted, level - 1, threads=threads).holds
                for subset in (hg.neighbourhood(v), hg.anti_neighbourhood(v)):
                    if len(subset) >= hg.h:
                        induced, _ = hg.induced(subset)
                        closure_ok &= is_nec(induced, level - 1, threads=threads).holds
            ok &= closure_ok
            print(f"closures_one_level_down: {'true' if closure_ok else 'false'}")
    top = max_ec(hg, threads=threads)
    print(f"max_ec: {top}")
    if level is not None:
        ok &= top >= level
    print(f"elapsed_s: {time.perf_counter() - started:.2f}")
    print(f"status: {'ok' if ok else 'FAILED'}")
    print()
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--skip-sweep", action="store_true",
                        help="skip the per-vertex closure sweeps")
    args = parser.parse_args()
    all_ok = True
    for name, built in instances():
        all_ok &= certify(name, built, args.threads, not args.skip_sweep)
    print(f"overall: {'ok' if all_ok else 'FAILED'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
