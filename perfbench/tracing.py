"""Spans and counts for the traced run, recorded at hyperec's layer boundaries.

Each hook wraps a public name at the module attribute through which another
module (or the benchmark) looks it up, e.g. ``hyperec.checker.is_nec`` for
the CLI and ``hyperec.randomhg.is_nec`` for the random model.  The source
under ``src/`` is untouched; ``installed`` puts the wrappers in place and
always restores the original attributes.  The untraced run never calls it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import resource
import time
from collections import Counter
from dataclasses import dataclass
from math import comb

# (module path, attribute, span name).  The layer is the span name's prefix.
# Several lookups of one function share a span name.
HOOKS = [
    ("hyperec.cli", "main", "cli.main"),
    ("hyperec.checker", "is_nec", "checker.is_nec"),
    ("hyperec.randomhg", "is_nec", "checker.is_nec"),
    ("hyperec.checker", "max_ec", "checker.max_ec"),
    ("hyperec.designs", "complete_mols", "designs.construct"),
    ("hyperec.designs", "projective_plane", "designs.construct"),
    ("hyperec.designs", "inversive_plane", "designs.construct"),
    ("hyperec.designs", "fano", "designs.construct"),
    ("hyperec.designs", "validate_design", "designs.validate"),
    ("hyperec.builders", "validate_design", "designs.validate"),
    ("hyperec.designs", "design_params", "designs.validate"),
    ("hyperec.designs", "lambda_ij", "designs.validate"),
    ("hyperec.designs", "read_design", "designs.io"),
    ("hyperec.designs", "read_mols", "designs.io"),
    ("hyperec.designs", "format_design", "designs.io"),
    ("hyperec.designs", "format_mols", "designs.io"),
    ("hyperec.designs", "field_of_order", "galois.field"),
    ("hyperec.galois.GfField", "mul_table", "galois.tables"),
    ("hyperec.galois.GfField", "add_table", "galois.tables"),
    ("hyperec.galois.GfField", "neg_table", "galois.tables"),
    ("hyperec.galois.GfField", "inv_table", "galois.tables"),
    ("hyperec.galois.GfField", "add", "galois.arith"),
    ("hyperec.galois.GfField", "neg", "galois.arith"),
    ("hyperec.galois.GfField", "mul", "galois.arith"),
    ("hyperec.galois.GfField", "pow", "galois.arith"),
    ("hyperec.galois.GfField", "inv", "galois.arith"),
    ("hyperec.builders", "build_from_mols", "builders.build"),
    ("hyperec.builders", "build_from_design", "builders.build"),
    ("hyperec.hypergraph", "read_hypergraph", "hypergraph.io"),
    ("hyperec.hypergraph", "write_hypergraph", "hypergraph.io"),
    ("hyperec.hypergraph", "format_hypergraph", "hypergraph.io"),
    ("hyperec.hypergraph.Hypergraph", "complement", "hypergraph.derive"),
    ("hyperec.hypergraph.Hypergraph", "delete_vertex", "hypergraph.derive"),
    ("hyperec.hypergraph.Hypergraph", "induced", "hypergraph.derive"),
    ("hyperec.hypergraph.Hypergraph", "neighbourhood", "hypergraph.derive"),
    ("hyperec.hypergraph.Hypergraph", "anti_neighbourhood", "hypergraph.derive"),
    ("hyperec.randomhg", "estimate_ec_fraction", "randomhg.estimate"),
    ("hyperec.randomhg", "sample_trial", "randomhg.sample"),
    ("hyperec.randomhg", "union_bound", "randomhg.bound"),
    ("hyperec.randomhg", "union_bound_log", "randomhg.bound"),
]
POOL_HOOK = ("hyperec.checker", "ProcessPoolExecutor", "checker.pool")
LAYERS = ("cli", "checker", "designs", "galois", "builders", "hypergraph", "randomhg")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Spans kept in memory in opening order, plus counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        # (hypergraph, n, index builds) per is_nec call; counted after the
        # pass so that the counting costs no span any time.
        self.checks: list = []
        self._open: list[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.remove(index)


# ---------------------------------------------------------------------------
# Span arithmetic


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _outermost(spans: list[Span], i: int, same) -> bool:
    """True if no ancestor of span i satisfies ``same``."""
    p = spans[i].parent
    while p is not None:
        if same(spans[p]):
            return False
        p = spans[p].parent
    return True


def summarise(spans: list[Span]) -> dict:
    """Per span name and per layer: count, total (outermost spans) and self time."""
    selfs = self_times(spans)
    names: dict[str, dict] = {}
    layers: dict[str, dict] = {layer: {"count": 0, "total_s": 0.0, "self_s": 0.0} for layer in LAYERS}
    for i, span in enumerate(spans):
        dur = span.end - span.start
        entry = names.setdefault(span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["self_s"] += selfs[i]
        if _outermost(spans, i, lambda s, n=span.name: s.name == n):
            entry["total_s"] += dur
        layer = layers.setdefault(span.layer, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        layer["count"] += 1
        layer["self_s"] += selfs[i]
        if _outermost(spans, i, lambda s, lay=span.layer: s.layer == lay):
            layer["total_s"] += dur
    return {"names": names, "layers": layers}


def check_counts(checks) -> Counter:
    """Index, shadow and S-set sizes summed over (hypergraph, n, builds) checks.

    The index and shadow are computed once per build of the dense index:
    once per S-range chunk, each worker building its own.
    """
    counts: Counter = Counter()
    for hg, n, builds in checks:
        counts["index_sets"] += builds * comb(hg.m, hg.h - 1)
        shadow = {e[:j] + e[j + 1:] for e in hg.edges for j in range(hg.h)}
        counts["shadow_sets"] += builds * len(shadow)
        counts["s_sets"] += comb(hg.m, n)
    return counts


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics listed in BENCHMARK.json, from one traced pass."""
    spans, counts = tracer.spans, tracer.counts + check_counts(tracer.checks)
    summary = summarise(spans)
    names, layers = summary["names"], summary["layers"]
    empty = {"count": 0, "total_s": 0.0, "self_s": 0.0}

    def total(name):
        return names.get(name, empty)["total_s"]

    def selft(name):
        return names.get(name, empty)["self_s"]

    def count(name):
        return names.get(name, empty)["count"]

    index, shadow = counts["index_sets"], counts["shadow_sets"]
    raw, unique = counts["raw_edges"], counts["unique_edges"]
    out = {
        "checker.is_nec_s": total("checker.is_nec"),
        "checker.is_nec_calls": count("checker.is_nec"),
        "checker.max_ec_s": total("checker.max_ec"),
        "checker.index_sets_computed": index,
        "checker.shadow_sets_computed": shadow,
        "checker.shadow_fraction": shadow / index if index else 0.0,
        "checker.candidates_examined": counts["candidates_examined"],
        "checker.s_sets_computed": counts["s_sets"],
        "checker.pools_started": count("checker.pool"),
        "checker.pool_s": total("checker.pool"),
        "checker.worker_cpu_s": counts["worker_cpu_s"],
        "designs.construct_s": selft("designs.construct"),
        "designs.blocks_built": counts["blocks_built"],
        "designs.validate_s": total("designs.validate"),
        "designs.io_s": total("designs.io"),
        "galois.field_s": total("galois.field"),
        "galois.fields_built": count("galois.field"),
        "builders.build_s": selft("builders.build"),
        "builders.raw_edges": raw,
        "builders.unique_edges": unique,
        "builders.unique_ratio": unique / raw if raw else 0.0,
        "hypergraph.io_s": total("hypergraph.io"),
        "hypergraph.edges_parsed": counts["edges_parsed"],
        "hypergraph.derive_s": total("hypergraph.derive"),
        "hypergraph.derive_calls": count("hypergraph.derive"),
        "randomhg.sample_s": total("randomhg.sample"),
        "randomhg.h_sets_drawn": counts["h_sets_drawn"],
        "randomhg.trials": count("randomhg.sample"),
        "randomhg.bound_s": total("randomhg.bound"),
        "cli.commands": count("cli.main"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layers[layer]["self_s"]
    return out


# Units of the per-layer metrics: seconds unless named here.
COUNT_METRICS = {
    "checker.is_nec_calls", "checker.index_sets_computed", "checker.shadow_sets_computed",
    "checker.candidates_examined", "checker.s_sets_computed", "checker.pools_started",
    "designs.blocks_built", "galois.fields_built", "builders.raw_edges",
    "builders.unique_edges", "hypergraph.edges_parsed", "hypergraph.derive_calls",
    "randomhg.h_sets_drawn", "randomhg.trials", "cli.commands",
}
RATIO_METRICS = {"checker.shadow_fraction", "builders.unique_ratio"}
# Exact work counts, printed on every traced run; they repeat run to run.
WORK_COUNTS = ("checker.index_sets_computed", "checker.shadow_sets_computed",
               "checker.s_sets_computed", "checker.candidates_examined",
               "randomhg.h_sets_drawn")


def unit_of(metric: str) -> str:
    if metric in COUNT_METRICS:
        return "count"
    return "ratio" if metric in RATIO_METRICS else "s"


# ---------------------------------------------------------------------------
# Counters observed at the hooks, outside the spans they belong to


def _index_builds(hg, n: int, engine: str, threads: int) -> int:
    """How many dense indexes ``checker.is_nec`` builds for one call.

    The optimized engine builds one per S-range chunk: min(threads, C(m, n))
    chunks when it uses the pool, else one.  The naive engine builds none,
    and neither does a call with n > m, which scans nothing.
    """
    if engine != "optimized" or n > hg.m:
        return 0
    total = comb(hg.m, n)
    return min(threads, total) if threads > 1 and total > 1 else 1


def _observe_is_nec(tracer, args, kwargs, result):
    from hyperec import checker

    call = inspect.signature(checker.is_nec).bind(*args, **kwargs)
    call.apply_defaults()
    hg, n = call.arguments["hg"], call.arguments["n"]
    builds = _index_builds(hg, n, call.arguments["engine"], call.arguments["threads"])
    tracer.checks.append((hg, n, builds))
    tracer.counts["candidates_examined"] += result.stats.candidates_examined


def _observe_construct(tracer, args, kwargs, result):
    # A design counts its blocks; a MOLS family its symbol classes.
    blocks = getattr(result, "blocks", None)
    tracer.counts["blocks_built"] += len(blocks) if blocks is not None else result.count * result.order


def _observe_build(tracer, args, kwargs, result):
    tracer.counts["raw_edges"] += result.raw_edges
    tracer.counts["unique_edges"] += result.unique_edges


def _observe_read(tracer, args, kwargs, result):
    tracer.counts["edges_parsed"] += result.edge_count


def _observe_sample(tracer, args, kwargs, result):
    tracer.counts["h_sets_drawn"] += comb(result.m, result.h)


OBSERVERS = {
    ("hyperec.checker", "is_nec"): _observe_is_nec,
    ("hyperec.randomhg", "is_nec"): _observe_is_nec,
    ("hyperec.builders", "build_from_mols"): _observe_build,
    ("hyperec.builders", "build_from_design"): _observe_build,
    ("hyperec.hypergraph", "read_hypergraph"): _observe_read,
    ("hyperec.randomhg", "sample_trial"): _observe_sample,
}
for _attr in ("complete_mols", "projective_plane", "inversive_plane", "fano"):
    OBSERVERS[("hyperec.designs", _attr)] = _observe_construct


def _wrap(fn, tracer: Tracer, name: str, observe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if observe is not None:
            observe(tracer, args, kwargs, result)
        return result

    return traced


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _traced_pool(base, tracer: Tracer, name: str):
    """A pool class whose lifetime, start-up to joined shutdown, is one span.

    Worker CPU is the growth of RUSAGE_CHILDREN over that span: shutdown
    joins the workers, so their usage has been collected when it returns.
    """

    class TracedPool(base):
        def __init__(self, *args, **kwargs):
            self._span = tracer.open(name)
            self._cpu0 = _children_cpu()
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            if self._span is not None:
                tracer.close(self._span)
                tracer.counts["worker_cpu_s"] += _children_cpu() - self._cpu0
                self._span = None

    return TracedPool


def _resolve(path: str):
    """Module or class object for a dotted hook path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, attr = path.rsplit(".", 1)
        return getattr(importlib.import_module(module), attr)


def hook_targets():
    """(owner object, attribute) for every hook, the pool included."""
    return [(_resolve(path), attr) for path, attr, _ in HOOKS + [POOL_HOOK]]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every hook for the duration of the block, then restore originals."""
    saved = []
    try:
        for path, attr, name in HOOKS:
            owner = _resolve(path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            if isinstance(original, functools.cached_property):
                # A lazily built table: the span covers the one computation.
                traced = functools.cached_property(_wrap(original.func, tracer, name, None))
                traced.__set_name__(owner, attr)
            else:
                traced = _wrap(original, tracer, name, OBSERVERS.get((path, attr)))
            setattr(owner, attr, traced)
        path, attr, name = POOL_HOOK
        owner = _resolve(path)
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, _traced_pool(owner.__dict__[attr], tracer, name))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
