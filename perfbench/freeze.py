"""Freeze the default-seed outcomes the benchmark checks its runs against.

    python3 perfbench/freeze.py [workload ...]

Writes ``perfbench/reference.json``: for each workload, its config and the
outcome of each of its first calls on the default seed (statistic and
p-value for a test call, the rejection count per (method, delta) for a
power-study chunk).  Run it only when a workload's definition changes,
on a commit whose outputs are trusted.
"""

from __future__ import annotations

import json
import sys

import run

# Enough calls to cover a run several times faster than the code they were
# frozen from; later calls are still checked independently.
FROZEN_CALLS = {"call_n1000": 150, "power_small_vdw": 200, "power_n400": 250}


def main(names):
    workloads, _ = run.import_library(names[0] if names else "call_n1000")
    path = workloads.REFERENCE_PATH
    frozen = json.loads(path.read_text()) if path.is_file() else {}
    for name in names or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        loop = run.run_loop(workload, run.DEFAULT_SEED, count=FROZEN_CALLS[name])
        if loop.errors:
            raise SystemExit("\n".join(loop.errors))
        frozen[name] = {"config": workloads.config(workload), "seed": run.DEFAULT_SEED,
                        "outcomes": loop.outcomes}
        print(f"{name}: {len(loop.outcomes)} calls in {loop.wall:.1f} s", file=sys.stderr)
    path.write_text(_dump(frozen))


def _dump(frozen):
    # one outcome per line, so a re-freeze diffs call by call
    parts = []
    for name, entry in frozen.items():
        head = json.dumps({k: v for k, v in entry.items() if k != "outcomes"})
        rows = ",\n  ".join(json.dumps(o) for o in entry["outcomes"])
        parts.append(f'{json.dumps(name)}: {head[:-1]}, "outcomes": [\n  {rows}\n]}}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    main(sys.argv[1:])
