"""Benchmark entry point for dwde.

    python3 perfbench/run.py --workload mc-scan --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports dwde from its
`src/` directory.  Prints the metrics by name with units and sample
counts, then, as the last line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Exits non-zero without
a result when dwde cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")


def _import_checkout_dwde() -> None:
    """Put the checkout's dwde first on the path, and refuse any other."""
    sys.path.insert(0, SRC_DIR)
    sys.path.insert(0, BENCH_DIR)
    try:
        import dwde
    except ImportError as err:
        sys.exit(f"cannot import dwde from {SRC_DIR}: {err}")
    if os.path.dirname(os.path.dirname(os.path.abspath(dwde.__file__))) != SRC_DIR:
        sys.exit(f"dwde was imported from {dwde.__file__}, not from {SRC_DIR}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # the default DP pool is what users get; never inherit a cap
    os.environ.pop("DWDE_THREADS", None)
    _import_checkout_dwde()

    from dwdebench.workloads import Workload

    if args.setup_probe:
        Workload(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    from dwdebench.runner import run

    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 os.path.abspath(__file__), BENCH_DIR)
    print(json.dumps(result, separators=(",", ":")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
