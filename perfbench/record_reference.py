"""Record reference outputs for the first requests of seeds 0..SEEDS-1.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json.  Every recorded request must first
pass its reference-free checks.  Run it only when the program's
outputs are meant to change; the benchmark compares later commits
against what it writes.
"""

from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

from dwdebench import checks  # noqa: E402
from dwdebench.runner import reference_key  # noqa: E402
from dwdebench.workloads import ORACLE_FAMILIES, ORACLE_MIX, WORKLOADS, Workload  # noqa: E402

SEEDS = 21
# scans: the warm-up and the first two timed requests; oracle-mix: two
# full rounds, so every family is pinned twice per seed
REQUESTS = {ORACLE_MIX: 2 * len(ORACLE_FAMILIES)}
SCAN_REQUESTS = 3


def main() -> int:
    entries = {}
    for name in WORKLOADS:
        for seed in range(SEEDS):
            workload = Workload(name, seed)
            for k in range(REQUESTS.get(name, SCAN_REQUESTS)):
                req = workload.request(k)
                out = workload.execute(req)
                problems = checks.problems(req, out, workload.models, None)
                if problems:
                    sys.exit(f"{name} seed {seed} request {k}: {problems}")
                entries[reference_key(name, seed, k)] = checks.fingerprint(req, out)
            print(f"{name} seed {seed}: recorded", flush=True)
    write_reference(os.path.join(BENCH_DIR, "reference.json"), entries)
    return 0


def write_reference(path: str, entries: dict) -> None:
    """One entry per line, so a re-recording diffs request by request."""
    lines = [f"{json.dumps(k)}: {json.dumps(entries[k], sort_keys=True)}" for k in sorted(entries)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"dp_abs_tol": %r, "entries": {\n' % checks.DP_ABS_TOL)
        fh.write(",\n".join(lines))
        fh.write("\n}}\n")


if __name__ == "__main__":
    sys.exit(main())
