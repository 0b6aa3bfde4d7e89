#!/usr/bin/env python3
"""Run one hyperec benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mols-maxec --seed 7 --seconds 60 --trace 0

Run from the root of a source checkout; hyperec is imported from ``src/``.
The untraced run (``--trace 0``) repeats the workload's timed section for
``--seconds`` and reports the end-to-end metrics as medians over those
passes; a pass starts only if the longest pass so far would still end within
``--seconds``.  The traced run (``--trace 1``) alternates untraced and traced
passes and reports the per-layer metrics of the traced ones, plus the
tracing overhead (traced minus untraced wall time).  Every outcome is
checked against ``expected.json``; the last stdout line is one JSON object.
Exit code 0 when every operation matched, 1 when any failed, 2 on a usage
error or a checkout without ``src/hyperec``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_PER_PASS = 3  # set-up probes after each untraced-run pass
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}


def _cpu_s() -> float:
    """User+system CPU of this process and of its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mib() -> float:
    """Larger of this process's and its largest child's peak RSS (Linux: KiB)."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def timed_pass(steps, work: Path, tracer=None):
    """One run of the workload's steps: (wall_s, cpu_s, outcomes)."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    if tracer is None:
        outcomes = workloads.run_steps(steps)
    else:
        with tracing.installed(tracer):
            outcomes = workloads.run_steps(steps)
    wall = time.perf_counter() - t0
    return wall, _cpu_s() - cpu0, outcomes


def measure_setup(workload: str, seed: int, work: Path, repeats: int) -> list[float]:
    """Set-up times of fresh interpreters: import hyperec and prepare the steps.

    Each probe is its own process, so every import is a cold one; the
    interpreter's own start-up is outside the measured interval.
    """
    code = (
        "import sys, time\n"
        f"sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]\n"
        "from pathlib import Path\n"
        "import workloads\n"
        "t0 = time.perf_counter()\n"
        f"workloads.prepare({workload!r}, {seed}, Path({str(work)!r}))\n"
        "print(repr(time.perf_counter() - t0))\n"
    )
    times = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, cwd=ROOT, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def metadata(seed: int, seconds: int, measured_s: float, overhead) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_head": git_head(),
        "seed": seed,
        "run_seconds": seconds,
        "measured_s": round(measured_s, 3),
        "trace_overhead_s": overhead,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_head() -> str:
    """HEAD of the checkout, or "unknown" when the checkout is not a git tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _fmt(values) -> str:
    return " ".join(f"{v:.4f}" for v in values)


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    expected = workloads.load_expected()
    work = WORK_ROOT / f"{workload}-{os.getpid()}"
    try:
        steps = workloads.prepare(workload, seed, work)
        plain, traced = [], []  # (wall, cpu) per pass; traced also keeps its tracer
        setup: list[float] = []
        attempted, failed, note, peak = 0, [], "", None
        longest = 0.0  # longest pass so far, with its check and probes
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            tracer = tracing.Tracer() if trace and len(plain) > len(traced) else None
            wall, cpu, outcomes = timed_pass(steps, work, tracer)
            verdict = workloads.verify(workload, seed, outcomes, expected)
            for label, outcome in outcomes:
                if "error" in outcome:
                    print(f"{label}:\n{outcome['error']}", file=sys.stderr)
            attempted += verdict.attempted
            failed += verdict.failed
            note = verdict.note
            if peak is None:
                peak = _peak_rss_mib()  # the first pass's peak: later passes add no new peak
            if tracer is None:
                plain.append((wall, cpu))
            else:
                traced.append((wall, cpu, tracer))
            if not trace:
                # Spread over the run, the probes see the same machine as the passes.
                setup += measure_setup(workload, seed, work, SETUP_PER_PASS)
            now = time.perf_counter()
            longest = max(longest, now - began)
            if now - start + longest > seconds and (traced or not trace):
                break
        measured = time.perf_counter() - start
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it

    walls = [w for w, _ in plain]
    print(f"workload: {workload}")
    print(f"why: {workloads.WORKLOADS[workload]}")
    print(f"passes: {len(plain)} untraced, {len(traced)} traced in {measured:.1f} s "
          f"(--seconds {seconds})")
    print(f"check: {note}")
    for label in dict.fromkeys(failed):
        print(f"FAILED: {label}", file=sys.stderr)
    error_rate = len(failed) / attempted
    if trace:
        overhead = statistics.median(w for w, _, _ in traced) - statistics.median(walls)
        metrics = _traced_metrics(traced)
        _print_trace(workload, seed, traced[-1][2], metrics, overhead)
    else:
        overhead = None
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median(c for _, c in plain),
            "peak_rss_mib": peak,
        }
        for name, value in metrics.items():
            print(f"{name}: {value:.4f} {END_TO_END_UNITS[name]}")
        print(f"  wall_s per pass: {_fmt(walls)}")
        print(f"  setup_s per probe: {_fmt(setup)}")
        print("work counts: computed only by the traced run (--trace 1), "
              "which wraps the layers to count")
    print(f"error_rate: {error_rate:.4f} ratio ({len(failed)} of {attempted} operations failed)")
    print("meta: " + json.dumps(metadata(seed, seconds, measured, overhead)))
    units = tracing.unit_of if trace else END_TO_END_UNITS.get
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


def _traced_metrics(traced) -> dict:
    """Median over the traced passes of each per-layer metric."""
    per_pass = [tracing.per_layer_metrics(t) for _, _, t in traced]
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}


def _print_trace(workload: str, seed: int, tracer, metrics: dict, overhead: float) -> None:
    layers = tracing.summarise(tracer.spans)["layers"]
    print(f"{'layer':<11} {'spans':>8} {'total_s':>10} {'self_s':>10}")
    for layer, row in layers.items():
        print(f"{layer:<11} {row['count']:>8} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {tracing.unit_of(name)}")
    print("work counts (computed, not timed): " + " ".join(
        f"{name}={metrics[name]:.0f}" for name in tracing.WORK_COUNTS))
    print(f"trace overhead: {overhead:.4f} s "
          "(median traced wall_s minus median untraced wall_s)")
    OUT_ROOT.mkdir(exist_ok=True)
    spans = [[s.name, s.start, s.end, s.parent] for s in tracer.spans]
    doc = {"workload": workload, "seed": seed, "spans": spans, "counts": dict(tracer.counts)}
    path = OUT_ROOT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    print(f"spans: {len(spans)} written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help="random-threshold seed; the constructions have no randomness")
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "hyperec" / "__init__.py").is_file():
        print(f"error: no hyperec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
