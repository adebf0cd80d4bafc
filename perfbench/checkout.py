"""Locations inside the checkout the benchmark runs from, and the roamsim import.

The benchmark measures the roamsim sources next to it (`src/roamsim`), never
an installed copy, and writes only under `.perfbench/` at the checkout root.
"""

from __future__ import annotations

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")


def require_roamsim() -> None:
    """Put the checkout's `src` first on sys.path and import roamsim from it.

    Exits with code 2, printing nothing to stdout, when the checkout holds
    no roamsim sources or the import resolves elsewhere.
    """
    if not os.path.isfile(os.path.join(SRC, "roamsim", "__init__.py")):
        sys.stderr.write(f"perfbench: no roamsim sources under {SRC}\n")
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import roamsim

    if os.path.dirname(os.path.dirname(os.path.abspath(roamsim.__file__))) != SRC:
        sys.stderr.write(f"perfbench: roamsim imported from {roamsim.__file__}, not {SRC}\n")
        raise SystemExit(2)


def work_dir(tag: str) -> str:
    """A fresh private directory under the benchmark's output directory."""
    path = os.path.join(OUT, f"{tag}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path
