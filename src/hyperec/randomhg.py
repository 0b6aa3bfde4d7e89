"""Seeded random h-uniform hypergraphs and the closure-failure union bound.

Each h-subset of the m vertices becomes an edge independently with
probability p.  Randomness is pinned for reproducibility:

* generator: ``random.Random`` (CPython's MT19937 Mersenne Twister), one
  fresh instance per sample, consuming one ``random()`` draw per h-subset in
  lexicographic order;
* per-trial seeds: trial i uses ``derive_seed(seed, i)``, the SplitMix64
  finalizer applied to ``seed + (i+1) * 0x9E3779B97F4A7C15`` (all mod 2**64).

Changing either scheme is a breaking change for recorded outputs.  The union
bound C(m,n) * 2**n * (1 - p**n)**C(m-n, h-1) caps the probability that a
sample is not n-e.c.; it is evaluated in the log domain because the exponent
overflows naive floating point well below interesting sizes.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from . import hypergraph
from .checker import is_nec
from .errors import RandomModelError
from .hypergraph import Hypergraph

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class RandomModel:
    """The model's parameters.  A sample draws once for each of the C(m, h)
    h-sets, so more than ``hypergraph.MAX_SETS`` of them are refused."""

    h: int
    m: int
    p: float
    seed: int

    def __post_init__(self):
        if self.h < 2:
            raise RandomModelError(f"h must be >= 2, got {self.h}")
        if self.m < self.h:
            raise RandomModelError(f"m={self.m} below h={self.h}")
        if not 0.0 < self.p < 1.0:
            raise RandomModelError(f"p must lie in (0,1), got {self.p}")
        total = math.comb(self.m, self.h)
        hypergraph.check_listing(total, f"sampling the C({self.m}, {self.h}) = {total} "
                                 f"{self.h}-sets", RandomModelError)


def derive_seed(base: int, index: int) -> int:
    """SplitMix64 mix of the base seed and a trial counter (64-bit)."""
    z = (base + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def sample(model: RandomModel) -> Hypergraph:
    """One draw from the model; identical seeds give identical edge sets."""
    return _sample_seeded(model, model.seed)


def sample_trial(model: RandomModel, trial: int) -> Hypergraph:
    """The trial-th draw, seeded by ``derive_seed(model.seed, trial)``."""
    if trial < 0:
        raise RandomModelError(f"trial index must be >= 0, got {trial}")
    return _sample_seeded(model, derive_seed(model.seed, trial))


def _sample_seeded(model: RandomModel, seed: int) -> Hypergraph:
    rng = random.Random(seed)
    sets = itertools.combinations(range(model.m), model.h)
    return Hypergraph(model.h, model.m, tuple(e for e in sets if rng.random() < model.p))


def union_bound_log(n: int, h: int, m: int, p: float) -> float:
    """Natural log of the bound on P(sample is not n-e.c.)."""
    if n < 1 or h < 2 or m <= n:
        raise RandomModelError(f"need n >= 1, h >= 2, m > n; got n={n} h={h} m={m}")
    if not 0.0 < p < 1.0:
        raise RandomModelError(f"p must lie in (0,1), got {p}")
    choices = math.comb(m, n)
    exponent = math.comb(m - n, h - 1)
    return math.log(choices) + n * math.log(2.0) + exponent * math.log1p(-(p**n))


def union_bound(n: int, h: int, m: int, p: float) -> float:
    """The bound itself; underflows to 0.0 once the log drops below ~-745."""
    return math.exp(union_bound_log(n, h, m, p))


@dataclass(frozen=True)
class EcFractionResult:
    fraction: float
    verdicts: tuple[bool, ...]


def estimate_ec_fraction(
    model: RandomModel, n: int, trials: int, engine: str = "optimized", threads: int = 1
) -> EcFractionResult:
    """Fraction of independent samples that are n-e.c.

    Trials are seeded individually, so the verdict list is reproducible and
    order-insensitive to how the work is scheduled.
    """
    if trials < 1:
        raise RandomModelError(f"trials must be >= 1, got {trials}")
    verdicts = tuple(
        is_nec(sample_trial(model, i), n, engine=engine, threads=threads).holds
        for i in range(trials)
    )
    return EcFractionResult(sum(verdicts) / trials, verdicts)
