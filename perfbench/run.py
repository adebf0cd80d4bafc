"""roamsim benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload compare-dense --seed 1 --seconds 20 --trace 0

With --trace 0 it reports the end-to-end metrics, measured with tracing off:
steps_per_s and setup_s, medians of figures adjusted to a nominal host speed
(see Host), and peak_rss_mb. With --trace 1 it alternates untraced and
traced iterations and reports the per-layer metrics from the traced ones,
plus the tracing overhead. Every iteration's outputs are checked; a failed
check or a raised error counts the run_experiment call as failed and makes
the exit code 1. The last line of stdout is the JSON result.

Host: the machine's cores are shared, and other tenants slow this process by
up to half, changing within seconds. So each run_experiment call and each
set-up probe is bracketed by a reference pass (reference.py: fixed work in
the benchmark's own code, run in a process of its own), and its time is
scaled by the host slowdown those two passes show: their mean time over the
pass time of an unloaded host. The raw figures are printed too, and the
traced run reports the raw rate's quartiles next to the adjusted one.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import checkout
import workloads  # imports roamsim from the checkout; exits 2 when it is absent
from roamsim import runner
from tracer import Tracer, self_seconds

SETUP_PROBES = 9
# About one reference pass on an unloaded host (x86-64 at 2.1 GHz, Python 3.11);
# it only sets the scale of the adjusted figures.
REFERENCE_NOMINAL_S = 0.05

# Metric names and units are those BENCHMARK.json declares.
with open(os.path.join(checkout.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _DECLARED = json.load(_fh)
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}

CALL_SPANS = ("gateway.MockClient.complete", "gateway.HttpClient.complete")
SOLVE_SPANS = ("policies.oracle_opt_ho", "policies.oracle_opt_rssi")
PARSE_SPANS = ("agent.parse_ap_response", "agent.parse_threshold_response")
EXTERNAL_SPAN = "policies.ExternalPolicy.decide"

# The trace points each per-layer metric is computed from; when one of them is
# missing the metric reads "missing". Metrics not named here need none.
LAYER_NEEDS = {
    "trace.parse_s": ["trace.parse_trace"],
    "trace.input_mb": ["trace.parse_trace"],
    "trace.generate_s": ["trace.generate_synthetic"],
    "runner.hash_s": ["runner.trace_content_hash"],
    "runner.write_s": ["runner.write_report"],
    "runner.report_mb": ["runner.write_report"],
    "runner.self_s": ["runner.run_experiment"],
    "roaming.replay_s": ["roaming.run_policy"],
    "roaming.steps": ["roaming.run_policy"],
    "policies.solve_s": SOLVE_SPANS,
    "policies.solve_calls": SOLVE_SPANS,
    "policies.external_s": [EXTERNAL_SPAN],
    "policies.external_calls": [EXTERNAL_SPAN],
    "policies.external_faults": [EXTERNAL_SPAN],
    "agent.prompt_s": ["agent.build_prompt"],
    "agent.prompts": ["agent.build_prompt"],
    "agent.prompt_kchars": ["agent.build_prompt"],
    "agent.reply_parse_s": PARSE_SPANS,
    "agent.valid_pick_ratio": CALL_SPANS,
    "gateway.call_s": CALL_SPANS,
    "gateway.calls": CALL_SPANS,
    "gateway.attempts": CALL_SPANS,
    "gateway.failures": CALL_SPANS,
    "gateway.call_ms_p50": CALL_SPANS,
    "gateway.call_ms_p99": CALL_SPANS,
    "gateway.transport_s": ["gateway.HttpClient.complete"],
}


class ReferenceProcess:
    """The reference.py process; `pass_seconds` times one pass in it."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(checkout.BENCH_DIR, "reference.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def pass_seconds(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process ended with exit code {self.proc.wait()}")
        return float(line)

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class HostClock:
    """Reference passes around measurements, and each measurement's slowdown."""

    def __init__(self, reference_pass):
        self.reference_pass = reference_pass
        self.passes = [reference_pass()]
        self.slowdowns: list[float] = []

    def after(self) -> float:
        """Call after each measurement: how much slower than an unloaded host it ran."""
        self.passes.append(self.reference_pass())
        slowdown = (self.passes[-2] + self.passes[-1]) / 2 / REFERENCE_NOMINAL_S
        self.slowdowns.append(slowdown)
        return slowdown


@dataclass
class Executed:
    seconds: float  # the calls' wall time, reference passes excluded
    adjusted: float  # the same, each call's time divided by its host slowdown
    reports: dict
    extra: object = None
    problems: dict = field(default_factory=lambda: defaultdict(list))

    @property
    def steps(self) -> int:
        return sum(len(r.decision_log) for r in self.reports.values())


def execute(wl, clock: HostClock) -> Executed:
    """One timed iteration: every experiment of the workload, then its finish step.

    Each call is timed on its own, followed by a reference pass, so a change of
    host load within an iteration is scaled out call by call.
    """
    reports, problems, extra = {}, defaultdict(list), None
    seconds = adjusted = 0.0
    last = list(wl.experiments)[-1]
    for label, cfg in wl.experiments.items():
        start = time.perf_counter()
        try:
            reports[label] = runner.run_experiment(cfg)
        except Exception:
            problems[label].append("raised " + traceback.format_exc())
        if label == last:  # the finish step shares the last call's passes
            try:
                extra = wl.finish(reports)
            except Exception:
                for each in wl.experiments:
                    problems[each].append("finish raised " + traceback.format_exc())
        elapsed = time.perf_counter() - start
        seconds += elapsed
        adjusted += elapsed / clock.after()
    return Executed(seconds, adjusted, reports, extra, problems)


class Tally:
    """run_experiment calls attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, wl, ex: Executed) -> dict:
        dicts = {label: r.to_dict() for label, r in ex.reports.items()}
        for label, msgs in wl.check(dicts, ex.extra).items():
            ex.problems[label].extend(msgs)
        self.attempted += len(wl.experiments)
        for label in wl.experiments:
            if ex.problems.get(label):
                self.failed += 1
                if len(self.reasons) < 10:
                    self.reasons.append(f"{label}: {'; '.join(ex.problems[label])}")
        return dicts


def probe_setup(name: str, seed: int, work: str) -> float:
    """Seconds from starting a fresh interpreter to the workload's inputs being ready."""
    probe = os.path.join(checkout.BENCH_DIR, "setup_probe.py")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, probe, "--workload", name, "--seed", str(seed), "--work", work],
        stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait(timeout=120) != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def nearest_rank(sorted_values, pct: float) -> float:
    if not sorted_values:
        return 0.0
    rank = max(1, -(-int(pct * len(sorted_values)) // 100))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def _describe(name: str, values, unit: str) -> str:
    q1, q3 = quartiles(values)
    return (f"  {name} [{unit}]: q1 {q1:.6g}, median {statistics.median(values):.6g},"
            f" q3 {q3:.6g}, n={len(values)}")


def _stub_busy(wl) -> float:
    stub = getattr(wl, "stub", None)
    return stub.stats()["chat_s"] if stub is not None else 0.0


def timed_run(args, work: str, tally: Tally, clock: HostClock) -> dict:
    setup = []
    for i in range(SETUP_PROBES):
        seconds = probe_setup(args.workload, args.seed, os.path.join(work, f"probe{i}"))
        setup.append(seconds / clock.after())
    wl = workloads.make(args.workload, args.seed, os.path.join(work, "run"))
    raw, rates = [], []
    try:
        tally.check(wl, execute(wl, clock))  # warm-up: lazy imports, connection set-up
        deadline = time.perf_counter() + args.seconds
        while True:
            ex = execute(wl, clock)
            raw.append(ex.steps / ex.seconds)
            rates.append(ex.steps / ex.adjusted)
            tally.check(wl, ex)
            if time.perf_counter() >= deadline:
                break
    finally:
        wl.close()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(_describe("host slowdown per call", clock.slowdowns, "ratio"))
    print(_describe("raw steps/s per iteration", raw, "steps/s"))
    print(_describe("steps_per_s per iteration (median reported)", rates, "steps/s"))
    print(_describe("setup_s per fresh interpreter (median reported)", setup, "s"))
    print(f"  peak_rss_mb: {peak_mb:.6g} MB")
    values = {
        "steps_per_s": statistics.median(rates),
        "peak_rss_mb": peak_mb,
        "setup_s": statistics.median(setup),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def layer_values(spans, first: int, ex: Executed, dicts: dict, endpoint_s: float) -> dict:
    """Per-layer numbers of one traced iteration whose spans start at `first`."""
    by = defaultdict(list)
    for s in spans[first:]:
        by[s.name].append(s)

    def total(*names):
        return sum(s.seconds for n in names for s in by[n])

    calls = [s for n in CALL_SPANS for s in by[n]]
    fallbacks = 0
    for d in dicts.values():
        if d["policy"] == "llm":
            fallbacks += sum(1 for e in d["decision_log"] if e["valid"] is False)
            fallbacks += sum(1 for e in d["threshold_log"] if not e["valid"])
    http_s = total("gateway.HttpClient.complete")
    return {
        "trace.parse_s": total("trace.parse_trace"),
        "trace.input_mb": sum(s.data or 0.0 for s in by["trace.parse_trace"]),
        "trace.generate_s": total("trace.generate_synthetic"),
        "runner.hash_s": total("runner.trace_content_hash"),
        "runner.write_s": total("runner.write_report"),
        "runner.report_mb": sum(s.data for s in by["runner.write_report"]),
        "runner.self_s": self_seconds(spans, first, "runner.run_experiment"),
        "roaming.replay_s": self_seconds(spans, first, "roaming.run_policy"),
        "roaming.steps": sum(s.data for s in by["roaming.run_policy"]),
        "policies.solve_s": total(*SOLVE_SPANS),
        "policies.solve_calls": sum(len(by[n]) for n in SOLVE_SPANS),
        "policies.external_s": total(EXTERNAL_SPAN),
        "policies.external_calls": len(by[EXTERNAL_SPAN]),
        "policies.external_faults": sum(1 for s in by[EXTERNAL_SPAN] if s.data),
        "agent.prompt_s": total("agent.build_prompt"),
        "agent.prompts": len(by["agent.build_prompt"]),
        "agent.prompt_kchars": sum(s.data for s in by["agent.build_prompt"]) / 1000,
        "agent.reply_parse_s": total(*PARSE_SPANS),
        "agent.fallbacks": fallbacks,
        "agent.valid_pick_ratio": 1 - fallbacks / len(calls) if calls else 0.0,
        "gateway.call_s": total(*CALL_SPANS),
        "gateway.calls": len(calls),
        "gateway.attempts": sum(s.data["attempts"] for s in calls),
        "gateway.failures": sum(1 for s in calls if not s.data["ok"]),
        "gateway.endpoint_s": endpoint_s,
        "gateway.transport_s": http_s - endpoint_s if http_s else 0.0,
        "bench.traced_wall_s": ex.seconds,
    }


def traced_run(args, work: str, tally: Tally, clock: HostClock) -> dict:
    wl = workloads.make(args.workload, args.seed, os.path.join(work, "run"))
    tracer = Tracer()
    rows, raw, untraced, traced, call_ms = [], [], [], [], []
    try:
        tally.check(wl, execute(wl, clock))  # warm-up, untraced
        deadline = time.perf_counter() + args.seconds
        while True:
            ex = execute(wl, clock)
            raw.append(ex.steps / ex.seconds)
            untraced.append(ex.steps / ex.adjusted)
            tally.check(wl, ex)

            first = len(tracer.spans)
            busy_before = _stub_busy(wl)
            tracer.install()
            try:
                ex = execute(wl, clock)
            finally:
                tracer.uninstall()
            endpoint_s = _stub_busy(wl) - busy_before
            traced.append(ex.steps / ex.adjusted)
            dicts = tally.check(wl, ex)
            rows.append(layer_values(tracer.spans, first, ex, dicts, endpoint_s))
            call_ms.extend(s.seconds * 1000 for s in tracer.spans[first:] if s.name in CALL_SPANS)
            if time.perf_counter() >= deadline:
                break
    finally:
        wl.close()
    os.makedirs(checkout.OUT, exist_ok=True)
    tracer.write(os.path.join(checkout.OUT, f"spans-{args.workload}-{args.seed}.jsonl"))

    values = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    call_ms.sort()
    values["gateway.call_ms_p50"] = nearest_rank(call_ms, 50)
    values["gateway.call_ms_p99"] = nearest_rank(call_ms, 99)
    values["bench.host_slowdown"] = statistics.median(clock.slowdowns)
    values["bench.steps_per_s_traced"] = statistics.median(traced)
    values["bench.steps_per_s_untraced"] = statistics.median(untraced)
    values["bench.steps_per_s_raw_q1"], values["bench.steps_per_s_raw_q3"] = quartiles(raw)
    values["bench.tracing_overhead_pct"] = 100 * (
        values["bench.steps_per_s_untraced"] / values["bench.steps_per_s_traced"] - 1
    )
    wall = values["bench.traced_wall_s"]
    print(f"  {len(rows)} traced iterations, {len(call_ms)} model calls;"
          f" share of traced wall time:")
    for name in ("trace.parse_s", "trace.generate_s", "runner.hash_s", "runner.write_s",
                 "runner.self_s", "roaming.replay_s", "policies.solve_s",
                 "policies.external_s", "agent.prompt_s", "agent.reply_parse_s",
                 "gateway.call_s"):
        print(f"    {name:24s} {values[name]:10.4f} s  {100 * values[name] / wall:5.1f} %")
    metrics = {}
    for name, unit in PER_LAYER.items():
        gone = sorted(set(LAYER_NEEDS.get(name, ())) & tracer.missing)
        if gone:
            print(f"  {name}: missing ({', '.join(gone)} not found)")
        metrics[name] = {"value": "missing" if gone else values[name], "unit": unit}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    work = checkout.work_dir(args.workload)
    tally = Tally()
    try:
        with ReferenceProcess() as reference:
            clock = HostClock(reference.pass_seconds)
            metrics = (traced_run if args.trace else timed_run)(args, work, tally, clock)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for reason in tally.reasons:
        print(f"check failed: {reason}", file=sys.stderr)
    print(f"  run_experiment calls: {tally.attempted} attempted, {tally.failed} failed")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
