#!/usr/bin/env python3
"""Empirical closure fraction of random hypergraphs against the union bound.

Sweeps the vertex count at fixed h, p, n and prints one row per size:
the failure bound, its log, the observed n-e.c. fraction over the
requested trials, and the log of the expected number of failing (S, T)
pairs, which lies between the failure probability and the bound.
Deterministic for a fixed seed.  Every size, the trial count and the
model's arguments are checked before the first line is printed; bad input
is refused with a usage error (exit 2).
"""

import argparse
import sys

from hyperec.errors import RandomModelError, check_int
from hyperec.hypergraph import check_listing
from hyperec.randomhg import (RandomModel, estimate_ec_fraction, expected_failures_log,
                              union_bound, union_bound_log)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--h", type=int, default=3, dest="h")
    parser.add_argument("--p", type=float, default=0.5, dest="p")
    parser.add_argument("-n", type=int, default=2)
    parser.add_argument("--sizes", default="10,14,18,22,26,30",
                        help="comma-separated vertex counts")
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()

    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError:
        parser.error(f"--sizes must be comma-separated integers, got {args.sizes!r}")
    try:
        check_int(args.trials, "--trials", RandomModelError, 1)
        check_listing(args.trials, f"{args.trials} trials", RandomModelError)
        check_int(args.threads, "--threads", RandomModelError, 1)
        # The model refuses a bad h, p or size; the bound, an n of 0 or of m or more.
        models = [(RandomModel(args.h, m, args.p, args.seed), union_bound_log(
            args.n, args.h, m, args.p)) for m in sizes]
    except RandomModelError as exc:
        parser.error(str(exc))
    print(f"h: {args.h}")
    print(f"p: {args.p!r}")
    print(f"n: {args.n}")
    print(f"trials: {args.trials}")
    print(f"seed: {args.seed}")
    print(f"{'m':>4}  {'union_bound':>13}  {'log_bound':>10}  {'fraction':>8}"
          f"  {'log_expected':>12}")
    for model, log_bound in models:
        m = model.m
        bound = union_bound(args.n, args.h, m, args.p)
        log_expected = expected_failures_log(args.n, args.h, m, args.p)
        outcome = estimate_ec_fraction(model, args.n, args.trials, threads=args.threads)
        print(f"{m:>4}  {bound:>13.3e}  {log_bound:>10.2f}  {outcome.fraction:>8.2f}"
              f"  {log_expected:>12.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
