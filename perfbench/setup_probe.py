"""One set-up measurement: a fresh interpreter imports roamsim and makes one
workload's inputs ready (for endpoint-http, until the stub has answered its
first request), then prints "ready". run.py times it from process start.

    python3 perfbench/setup_probe.py --workload compare-dense --seed 1 --work DIR
"""

from __future__ import annotations

import argparse
import sys

import workloads  # imports roamsim from the checkout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)
    wl = workloads.make(args.workload, args.seed, args.work)
    try:
        print("ready", flush=True)
    finally:
        wl.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
