"""Command-line surface: check, maxec, construct, build, random, validate,
complement, induce and delete-vertex.

Exit codes: 0 when the command succeeds and any checked property holds,
1 when a checked property fails or a design is invalid, 2 on usage or
parse errors.  Each reporting command builds one report dict.  ``--json``
prints it as one JSON document; otherwise each entry becomes a ``key: value``
line, with booleans as ``true``/``false``, ``None`` as ``-`` and vertex
lists as ``{a,b}``.  Every library error (bad input, an unreadable or
unwritable file, a violated precondition) is a ``HyperecError`` and reaches
:func:`main`, which prints it once as ``error: <message>`` on stderr and
exits 2.  Only ``construct``, ``build`` and ``validate`` import the design
layer (``designs``, ``galois``, ``builders``), and only ``random`` imports
``randomhg``, each inside its own functions.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import checker, hypergraph
from .errors import DesignError, HyperecError, HypergraphError

USAGE_ERROR = 2
PROPERTY_FAILED = 1


def _read(reader, kind: str, path: str):
    try:
        return reader(path)
    except (OSError, UnicodeDecodeError, HypergraphError, DesignError) as exc:
        raise HyperecError(f"cannot read {kind} {path}: {exc}") from exc


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise HyperecError(f"cannot write {out}: {exc}") from exc


def _emit(doc: dict, as_json: bool) -> None:
    """Print a report dict as one JSON document or as ``key: value`` lines."""
    if as_json:
        print(json.dumps(doc))
        return
    for key, value in doc.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif value is None:
            value = "-"
        elif isinstance(value, list):
            value = _format_set(value)
        print(f"{key}: {value}")


def _format_set(vertices) -> str:
    return "{" + ",".join(str(v) for v in vertices) + "}"


def _counterexample(ce) -> dict:
    return {
        "counterexample_S": list(ce[0]) if ce else None,
        "counterexample_T": list(ce[1]) if ce else None,
    }


def _parse_vertices(text: str) -> list[int]:
    try:
        return [int(f) for f in text.replace(",", " ").split()]
    except ValueError:
        raise HyperecError(f"expected integers, got {text!r}") from None


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_check(args) -> int:
    hg = _read(hypergraph.read_hypergraph, "hypergraph", args.input)
    result = checker.is_nec(
        hg, args.n, engine=args.engine, threads=args.threads,
        record_witnesses=args.witnesses,
    )
    stats = result.stats
    doc = {
        "holds": result.holds,
        "n": result.n,
        "h": hg.h,
        "m": hg.m,
        "edges": hg.edge_count,
        **_counterexample(result.counterexample),
        "candidates_examined": stats.candidates_examined,
        "elapsed_ms": stats.elapsed_ms if args.json else f"{stats.elapsed_ms:.1f}",
    }
    if args.json or stats.note:
        doc["note"] = stats.note
    witnesses = sorted(result.witness_log.items()) if args.witnesses else []
    if args.json and args.witnesses:
        doc["witnesses"] = [{"S": list(s), "T": list(t), "X": list(x)} for (s, t), x in witnesses]
    _emit(doc, args.json)
    if not args.json:
        for (s, t), x in witnesses:
            print(f"witness: S={_format_set(s)} T={_format_set(t)} X={_format_set(x)}")
    return 0 if result.holds else PROPERTY_FAILED


def _cmd_maxec(args) -> int:
    hg = _read(hypergraph.read_hypergraph, "hypergraph", args.input)
    with checker._kept_workers:  # level best + 1 reuses max_ec's workers
        best = checker.max_ec(hg, engine=args.engine, threads=args.threads)
        failing = checker.is_nec(hg, best + 1, engine=args.engine, threads=args.threads)
    _emit({
        "max_ec": best,
        "h": hg.h,
        "m": hg.m,
        "edges": hg.edge_count,
        "failed_at_n": best + 1,
        **_counterexample(failing.counterexample),
    }, args.json)
    return 0


def _cmd_construct(args) -> int:
    from . import designs

    kind, q = args.kind, args.q
    if kind != "fano" and q is None:
        raise HyperecError(f"construct {kind} requires -q")
    if kind == "mols":
        mols = designs.complete_mols(q)
        text = designs.format_mols(mols, [f"constructed: complete mols q={q}"])
        summary = f"{mols.count} squares of order {q}"
    else:
        if kind == "fano":
            design, label = designs.fano(), "fano"
        elif kind == "pg":
            design, label = designs.projective_plane(q), f"pg q={q}"
        else:
            design, label = designs.inversive_plane(q), f"inversive q={q}"
        text = designs.format_design(design, [f"constructed: {label}"])
        summary = f"{design.t}-({design.v},{design.k},{design.lam}), {design.b} blocks"
    _write_output(text, args.out)
    print(f"written: {args.out} ({summary})")
    return 0


def _cmd_build(args) -> int:
    from . import builders, designs

    if args.kind == "from-mols":
        mols = _read(designs.read_mols, "mols", args.input)
        if args.h is not None and args.h != mols.order - 1:
            raise HyperecError(f"from-mols fixes h = order-1 = {mols.order - 1}, got --h {args.h}")
        built = builders.build_from_mols(mols)
    else:
        if args.h is None:
            raise HyperecError("build from-design requires --h")
        design = _read(designs.read_design, "design", args.input)
        built = builders.build_from_design(design, args.h)
    _write_output(hypergraph.format_hypergraph(built.hypergraph, [built.provenance]), args.out)
    _emit({
        "written": args.out,
        "raw_edges": built.raw_edges,
        "unique_edges": built.unique_edges,
        "guaranteed_ec": built.guaranteed_ec,
    }, args.json)
    return 0


def _cmd_random(args) -> int:
    from . import randomhg

    model = randomhg.RandomModel(args.h, args.m, args.p, args.seed)
    bound = randomhg.union_bound(args.n, args.h, args.m, args.p)
    outcome = randomhg.estimate_ec_fraction(model, args.n, args.trials, threads=args.threads)
    doc = {
        "h": args.h,
        "m": args.m,
        "p": args.p,
        "n": args.n,
        "trials": args.trials,
        "seed": args.seed,
        "union_bound": bound if math.isfinite(bound) else None,
        "union_bound_log": randomhg.union_bound_log(args.n, args.h, args.m, args.p),
        "fraction": outcome.fraction,
    }
    if args.json:
        doc["verdicts"] = list(outcome.verdicts)
    else:
        doc.update((f"trial_{i}", verdict) for i, verdict in enumerate(outcome.verdicts))
    _emit(doc, args.json)
    return 0


def _cmd_validate(args) -> int:
    from . import designs

    design = _read(designs.read_design, "design", args.input)
    entries = (design.t + 1) * (design.t + 2) // 2
    hypergraph.check_listing(entries, f"listing the {entries} entries lambda_i_j with "
                             f"i + j <= {design.t}", DesignError)
    # An entry's numerator is at most lambda * v^t, its denominator at most k^t.
    digits = len(str(design.lam)) + design.t * (len(str(design.v)) + len(str(design.k))) + 1
    hypergraph.check_listing(entries * digits, f"listing the {entries} entries lambda_i_j of up "
                             f"to {digits} digits each, {entries * digits} digits,", DesignError)
    report = designs.validate_design(design)
    doc: dict = {
        "valid": report.valid,
        "t": design.t,
        "v": design.v,
        "k": design.k,
        "lambda": design.lam,
        "b": design.b,
        "min_coverage": report.min_coverage,
        "max_coverage": report.max_coverage,
    }
    if design.t == 2:
        params = designs.design_params(design)
        doc.update(b_formula=str(params.b_formula), r_formula=str(params.r_formula),
                   replication_min=params.replication_min, replication_max=params.replication_max)
    for i in range(design.t + 1):
        for j in range(design.t + 1 - i):
            doc[f"lambda_{i}_{j}"] = str(designs.lambda_ij(design, i, j))
    _emit(doc, args.json)
    return 0 if report.valid else PROPERTY_FAILED


def _cmd_complement(args) -> int:
    hg = _read(hypergraph.read_hypergraph, "hypergraph", args.input)
    return _write_derived(hg.complement(), {}, "complement", args.out)


def _cmd_induce(args) -> int:
    hg = _read(hypergraph.read_hypergraph, "hypergraph", args.input)
    return _write_derived(*hg.induced(_parse_vertices(args.vertices)), "induced", args.out)


def _cmd_delete_vertex(args) -> int:
    hg = _read(hypergraph.read_hypergraph, "hypergraph", args.input)
    return _write_derived(*hg.delete_vertex(args.vertex), f"deleted vertex {args.vertex}", args.out)


def _write_derived(result, relabel: dict, note: str, out: str | None) -> int:
    """Write a derived hypergraph under its note and one comment per relabelled vertex."""
    comments = [note] + [f"relabel {old} -> {new}" for old, new in sorted(relabel.items())]
    _write_output(hypergraph.format_hypergraph(result, comments), out)
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``hyperec`` parser, built on the first call and shared by every later one.

    Reuse is safe: ``parse_args`` returns a fresh namespace each time, and
    ``--help`` and usage errors raise ``SystemExit`` without changing the parser.
    """
    parser = argparse.ArgumentParser(
        prog="hyperec",
        description="Construct, validate, and certify existentially closed uniform hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_check_flags(p):
        p.add_argument("--engine", choices=checker.ENGINES, default="optimized")
        p.add_argument("--threads", type=int, default=1, metavar="N",
                       help="split the scan across up to N processes, at most the CPUs; "
                            "results are identical for any N (default 1)")
        p.add_argument("--json", action="store_true", help="emit one JSON document")

    p = sub.add_parser("check", help="decide whether a hypergraph is n-e.c.")
    p.add_argument("input", help="hypergraph file")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--witnesses", action="store_true", help="record and print all witnesses")
    common_check_flags(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("maxec", help="largest n for which the hypergraph is n-e.c.")
    p.add_argument("input", help="hypergraph file")
    common_check_flags(p)
    p.set_defaults(func=_cmd_maxec)

    p = sub.add_parser("construct", help="generate a design or MOLS family")
    p.add_argument("kind", choices=["mols", "pg", "inversive", "fano"])
    p.add_argument("-q", type=int, default=None, help="order (prime power)")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("build", help="build a hypergraph from a MOLS or design file")
    p.add_argument("kind", choices=["from-mols", "from-design"])
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--h", type=int, default=None, dest="h", help="edge size")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("random", help="sample the random model and report the e.c. fraction")
    p.add_argument("--h", type=int, required=True, dest="h")
    p.add_argument("--m", type=int, required=True, dest="m")
    p.add_argument("--p", type=float, required=True, dest="p")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True,
                   help="base seed; all randomness flows from it")
    p.add_argument("--threads", type=int, default=1, metavar="N",
                   help="split each trial's check as check --threads N does, on workers "
                        "forked at the first trial and kept for the rest; at n = 1 every "
                        "trial scans in this process (default 1)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_random)

    p = sub.add_parser("validate", help="validate a design file and print its parameters")
    p.add_argument("input", help="design file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("complement", help="complement of a hypergraph file")
    p.add_argument("input")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_complement)

    p = sub.add_parser("induce", help="subgraph induced on a vertex set")
    p.add_argument("input")
    p.add_argument("--vertices", required=True, help="comma- or space-separated vertex list")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_induce)

    p = sub.add_parser("delete-vertex", help="delete a vertex and relabel")
    p.add_argument("input")
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_delete_vertex)

    return parser


def main(argv=None) -> int:
    """Run one ``hyperec`` command and return its exit code.

    May be called any number of times in one process; the parser is built once.
    """
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise HyperecError(f"--threads must be >= 1, got {args.threads}")
        return args.func(args)
    except (HyperecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
