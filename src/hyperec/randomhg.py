"""Seeded random h-uniform hypergraphs and the closure-failure union bound.

Each h-subset of the m vertices becomes an edge independently with
probability p.  Randomness is pinned for reproducibility:

* generator: ``random.Random`` (CPython's MT19937 Mersenne Twister), one
  fresh instance per sample, consuming one ``random()`` draw per h-subset in
  lexicographic order;
* per-trial seeds: trial i uses ``derive_seed(seed, i)``, the SplitMix64
  finalizer applied to ``seed + (i+1) * 0x9E3779B97F4A7C15`` (all mod 2**64).

Changing either scheme is a breaking change for recorded outputs.

A pair (S, T) with |T| = j fails when none of the C(m-n, h-1) sets X outside
S is correctly joined, and a fixed X is, independently of the others, with
probability p**j * (1-p)**(n-j).  Summed over the pairs, that gives the
expected number of failing pairs, which caps the probability that a sample
is not n-e.c.  Each X's probability is at least q**n with q = min(p, 1-p),
so the union bound C(m,n) * 2**n * (1 - q**n)**C(m-n, h-1) caps it too, and
equals it at p = 1/2.  Both are evaluated in the log domain because the
exponent overflows naive floating point well below interesting sizes.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from . import hypergraph
from .checker import _check_args, _kept_workers, is_nec
from .errors import RandomModelError, check_int
from .hypergraph import Hypergraph

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class RandomModel:
    """The model's parameters: ``int`` h, m and seed, and p an ``int`` or
    ``float``.  A sample draws once for each of the C(m, h) h-sets, so a
    model whose h-sets hold more than ``hypergraph.MAX_SETS`` points,
    C(m, h) * h, as :func:`hypergraph.check_subsets` counts them, is
    refused."""

    h: int
    m: int
    p: float
    seed: int

    def __post_init__(self):
        check_int(self.h, "h", RandomModelError, 2)
        check_int(self.m, "m", RandomModelError, self.h)
        check_int(self.seed, "seed", RandomModelError)
        _check_p(self.p)
        hypergraph.check_subsets(1, self.m, self.h, RandomModelError, "the vertices")


def _check_p(p) -> None:
    if not isinstance(p, (int, float)):
        raise RandomModelError(f"p must be a number, got {p!r}")
    if not 0.0 < p < 1.0:
        raise RandomModelError(f"p must lie in (0,1), got {p}")


def derive_seed(base: int, index: int) -> int:
    """SplitMix64 mix of the ``int`` base seed and a trial counter >= 0 (64-bit)."""
    check_int(base, "seed", RandomModelError)
    check_int(index, "trial index", RandomModelError, 0)
    z = (base + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def sample(model: RandomModel) -> Hypergraph:
    """One draw from the model; identical seeds give identical edge sets."""
    return _sample_seeded(model, model.seed)


def sample_trial(model: RandomModel, trial: int) -> Hypergraph:
    """The trial-th draw, seeded by ``derive_seed(model.seed, trial)``, which checks ``trial``."""
    return _sample_seeded(model, derive_seed(model.seed, trial))


def _sample_seeded(model: RandomModel, seed: int) -> Hypergraph:
    rng = random.Random(seed)
    sets = itertools.combinations(range(model.m), model.h)
    return Hypergraph(model.h, model.m, tuple(e for e in sets if rng.random() < model.p))


def _check_bound_args(n: int, h: int, m: int, p: float) -> int:
    """C(m-n, h-1), the candidate sets X outside each S, once the arguments are valid."""
    for value, name in ((n, "n"), (h, "h"), (m, "m")):
        check_int(value, name, RandomModelError)
    if n < 1 or h < 2 or m <= n:
        raise RandomModelError(f"need n >= 1, h >= 2, m > n; got n={n} h={h} m={m}")
    _check_p(p)
    return math.comb(m - n, h - 1)


def union_bound_log(n: int, h: int, m: int, p: float) -> float:
    """Natural log of the bound on P(sample is not n-e.c.), with q = min(p, 1-p)."""
    exponent = _check_bound_args(n, h, m, p)
    q = min(p, 1.0 - p)
    return math.log(math.comb(m, n)) + n * math.log(2.0) + exponent * math.log1p(-(q**n))


def expected_failures_log(n: int, h: int, m: int, p: float) -> float:
    """Natural log of the expected number of failing (S, T) pairs, never above the bound.

    That is C(m,n) * sum over j of C(n,j) * (1 - p**j * (1-p)**(n-j))**C(m-n, h-1).
    """
    exponent = _check_bound_args(n, h, m, p)
    terms = [math.log(math.comb(n, j)) + exponent * math.log1p(-(p**j) * (1.0 - p) ** (n - j))
             for j in range(n + 1)]
    top = max(terms)
    return math.log(math.comb(m, n)) + top + math.log(sum(math.exp(t - top) for t in terms))


def union_bound(n: int, h: int, m: int, p: float) -> float:
    """The bound itself; underflows to 0.0 once the log drops below ~-745 and
    is ``math.inf`` once it rises above ~709.78, the log of the largest float."""
    try:
        return math.exp(union_bound_log(n, h, m, p))
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class EcFractionResult:
    fraction: float
    verdicts: tuple[bool, ...]


def estimate_ec_fraction(
    model: RandomModel, n: int, trials: int, engine: str = "optimized", threads: int = 1
) -> EcFractionResult:
    """Fraction of independent samples that are n-e.c.

    Trials are seeded individually, so the verdict list is reproducible and
    order-insensitive to how the work is scheduled.  More than
    ``hypergraph.MAX_SETS`` trials, and an n, engine or threads that
    :func:`is_nec` refuses, are refused before the first sample.  The
    trials' pooled checks share the workers that the first one forks.
    """
    check_int(trials, "trials", RandomModelError, 1)
    hypergraph.check_listing(trials, f"recording the verdicts of {trials} trials", RandomModelError)
    _check_args(n, engine, threads)
    with _kept_workers:
        verdicts = tuple(
            is_nec(sample_trial(model, i), n, engine=engine, threads=threads).holds
            for i in range(trials)
        )
    return EcFractionResult(sum(verdicts) / trials, verdicts)
