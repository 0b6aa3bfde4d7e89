#!/usr/bin/env python3
"""Record the outcomes that the benchmark checks into expected.json.

    python3 perfbench/pin.py

Runs every workload once, random-threshold at the default and the held-out
seed, and writes each operation's outcome.  Re-pin only when a change is
meant to alter outputs, and say so in its description: the pins are what
make ``error_rate`` mean anything.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    doc = {"recorded_at": run.git_head(), "workloads": {}}
    for workload in workloads.WORKLOADS:
        seeds = ((workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED)
                 if workload == "random-threshold" else (workloads.DEFAULT_SEED,))
        pinned = {}
        for seed in seeds:
            work = run.WORK_ROOT / f"pin-{workload}"
            try:
                steps = workloads.prepare(workload, seed, work)
                _, _, outcomes = run.timed_pass(steps, work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            errors = [label for label, o in outcomes if "error" in o]
            if errors:
                print(f"error: {workload} raised in {errors}", file=sys.stderr)
                return 1
            pinned[str(seed)] = dict(outcomes)
            print(f"{workload} seed {seed}: {len(outcomes)} operations")
        if workload == "random-threshold":
            doc["workloads"][workload] = {"seeds": pinned}
        else:
            doc["workloads"][workload] = {"ops": pinned[str(workloads.DEFAULT_SEED)]}
    text = json.dumps(doc, indent=1, sort_keys=False) + "\n"
    workloads.EXPECTED_PATH.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
