"""One-line mutants of roamsim's numeric core, each run against tier-1.

    python3 tools/mutants.py              # every mutant, after a clean run
    python3 tools/mutants.py --only M4,M7 # some of them

Each mutant changes one operator, bound or guard on one line of the replay,
the metrics, the oracle, the latency statistics, the holdout split or the
report writer. For each, the repository (without .git and caches) is copied
to a temporary directory, the mutant is applied there, and tier-1
(`python -m pytest -x` over `tests/`) runs on the copy. A mutant is killed
when a test fails or the run passes its time limit, and survives when every
test passes.

First the unmutated copy runs the same way; when a test fails there, no
mutant can be read, and the script exits 2. It also exits 2 when a
mutant's original text is not on exactly one line of its function, which
means the source moved on and the list below needs updating. Otherwise it
exits 1 when a mutant survives that is not listed as equivalent (a
mutant that no input can tell from the original, listed with the reason),
and 0 when every other mutant was killed. A tier-1 run takes about 30 s
for a killed mutant and 50 s for a survivor on 2 vCPUs. Standard library
only; it reads the repository and writes nothing in it.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_LIMIT_S = 600  # a run past this is a hang the mutant caused: killed
COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench", ".benchmarks"
)


class Mutant(NamedTuple):
    id: str
    path: str  # relative to the repository root
    function: str  # the module-level function whose body holds the line
    old: str  # the text it replaces, on exactly one line of the function
    new: str
    equivalent: str | None = None  # why no input can tell it from the original


MUTANTS = (
    Mutant("M1", "src/roamsim/roaming.py", "should_scan",
           "current_rssi < threshold", "current_rssi <= threshold"),
    Mutant("M2", "src/roamsim/roaming.py", "passes_hysteresis",
           "candidate_rssi - current_rssi >= margin", "candidate_rssi - current_rssi > margin"),
    Mutant("M3", "src/roamsim/roaming.py", "is_valid_target",
           "rssi_of(sample, bssid) >= validity_floor", "rssi_of(sample, bssid) > validity_floor"),
    Mutant("M4", "src/roamsim/policies.py", "_step_choices",
           "if r >= bar}", "if r > bar or r == max(sample.rssis)}"),
    Mutant("M5", "src/roamsim/runner.py", "recompute_metrics",
           'if e["action"] == "roam" or (e["valid"] is False and e["action"] == "stay")',
           'if e["action"] == "roam"'),
    Mutant("M6", "src/roamsim/gateway.py", "latency_stats",
           "ok[max(1, -(-(pct * n) // 100)) - 1]", "ok[max(1, (pct * n) // 100) - 1]"),
    Mutant("M7", "src/roamsim/export.py", "split_trace",
           "round(T * TRAIN_FRAC)", "int(T * TRAIN_FRAC)"),
    Mutant("M8", "src/roamsim/roaming.py", "run_policy",
           "samples[max(0, t - k + 1): t + 1]", "samples[max(0, t - k): t + 1]"),
    Mutant("M9", "src/roamsim/policies.py", "solve_plan",
           "cand = (key(ho + 1, total), b, ho + 1, total)",
           "cand = (key(ho, total), b, ho, total)"),
    Mutant("M10", "src/roamsim/roaming.py", "handover_count",
           "zip(bssids, bssids[1:])", "zip(bssids, bssids[2:])"),
    Mutant("M11", "src/roamsim/export.py", "split_trace",
           "min(T - 1, max(1,", "min(T, max(1,"),
    Mutant("M12", "src/roamsim/policies.py", "solve_plan",
           "elif total != top:", "elif total < top:",
           equivalent="the suffixes are ranked best first, so a later total above the "
                      "first one has more handovers and a worse key; the scan may run "
                      "on past it but never picks it"),
    Mutant("M13", "src/roamsim/runner.py", "_float_json",
           "if not math.isfinite(x):", "if False:"),
)


def _function_lines(source: str, name: str) -> range:
    """The 0-based line numbers of module-level function `name` in `source`."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return range(node.lineno - 1, node.end_lineno)
    raise LookupError(f"no function {name}")


def _source(root: str, m: Mutant) -> str:
    with open(os.path.join(root, m.path), encoding="utf-8") as fh:
        return fh.read()


def mutated(source: str, m: Mutant) -> str:
    """`source` with `m` applied; LookupError when its text is not on one line."""
    lines = source.splitlines(keepends=True)
    hits = [i for i in _function_lines(source, m.function) if m.old in lines[i]]
    if len(hits) != 1 or lines[hits[0]].count(m.old) != 1:
        raise LookupError(f"{m.id}: {m.old!r} is not on exactly one line of {m.function}")
    lines[hits[0]] = lines[hits[0]].replace(m.old, m.new)
    return "".join(lines)


def run_tier1(root: str) -> tuple[bool, float, str]:
    """(passed, seconds, what ended it) of `pytest -x` over the copy at `root`: the
    failed test's summary line, else pytest's last line."""
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
            cwd=root, env=env, capture_output=True, text=True, timeout=RUN_LIMIT_S,
        )
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start, f"no result within {RUN_LIMIT_S} s"
    lines = proc.stdout.strip().splitlines() or [""]
    failed = [ln for ln in lines if ln.startswith("FAILED ")]  # pytest's summary line
    return proc.returncode == 0, time.perf_counter() - start, (failed or lines)[-1]


def run_one(m: Mutant | None) -> tuple[bool, float, str]:
    """Tier-1 on a fresh copy of the repository with `m` applied (None: unmutated)."""
    with tempfile.TemporaryDirectory(prefix="roamsim-mutant-") as tmp:
        root = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, root, ignore=COPY_IGNORE)
        if m is not None:
            text = mutated(_source(root, m), m)
            with open(os.path.join(root, m.path), "w", encoding="utf-8") as fh:
                fh.write(text)
        return run_tier1(root)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", help="comma-separated mutant ids, such as M4,M7")
    args = parser.parse_args(argv)
    chosen = MUTANTS
    if args.only:
        wanted = args.only.split(",")
        unknown = sorted(set(wanted) - {m.id for m in MUTANTS})
        if unknown:
            parser.error(f"unknown mutant ids: {', '.join(unknown)}")
        chosen = tuple(m for m in MUTANTS if m.id in wanted)

    # Every mutant must apply before any run, so a stale list costs no time.
    for m in chosen:
        try:
            mutated(_source(ROOT, m), m)
        except LookupError as exc:
            print(f"stale mutant {exc}", file=sys.stderr)
            return 2

    passed, seconds, tail = run_one(None)
    print(f"{'none':<4} unmutated  {'passed' if passed else 'FAILED'}  {seconds:5.1f} s  {tail}",
          flush=True)
    if not passed:
        print("tier-1 fails without a mutant, so no mutant can be read", file=sys.stderr)
        return 2

    unexplained = []
    for m in chosen:
        passed, seconds, tail = run_one(m)
        if passed:
            verdict = "survived (equivalent)" if m.equivalent else "SURVIVED"
            if not m.equivalent:
                unexplained.append(m.id)
        else:
            verdict = "killed, though listed as equivalent" if m.equivalent else "killed"
        print(f"{m.id:<4} {m.path}:{m.function}  {verdict}  {seconds:5.1f} s  {tail}", flush=True)

    equivalent = [m for m in chosen if m.equivalent]
    print(f"\n{len(chosen)} mutants; {len(unexplained)} survived unexplained"
          + (f": {', '.join(unexplained)}" if unexplained else ""))
    for m in equivalent:
        print(f"{m.id} is listed as equivalent: {m.equivalent}")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
