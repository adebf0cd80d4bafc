"""Tests of the benchmark itself: tracing changes no output, every output
check fires on a corrupted report, the stub answers like roamsim's own
argmax, and the layer map and workloads agree with BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import checkout
import run
import stub
import workloads
from roamsim.agent import PromptConfig, build_prompt
from roamsim.gateway import prompt_argmax_bssid
from roamsim.roaming import AssociationState
from roamsim.runner import strip_volatile
from roamsim.trace import generate_synthetic, window
from tracer import TRACE_POINTS, Span, Tracer, self_seconds


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """workload name -> one untraced and one traced iteration at the default seed."""
    done, opened = {}, []

    def get(name):
        if name not in done:
            wl = workloads.make(name, workloads.DEFAULT_SEED, str(tmp_path_factory.mktemp(name)))
            opened.append(wl)
            tracer = Tracer()
            clock = run.HostClock(lambda: run.REFERENCE_NOMINAL_S)
            plain = run.execute(wl, clock)
            tracer.install()
            try:
                traced = run.execute(wl, clock)
            finally:
                tracer.uninstall()
            tally = run.Tally()
            dicts = tally.check(wl, plain)
            done[name] = (wl, plain, traced, dicts, tally, tracer)
        return done[name]

    yield get
    for wl in opened:
        wl.close()


@pytest.fixture(params=sorted(workloads.WORKLOADS))
def ran(request, runs):
    return runs(request.param)


def test_clean_iteration_passes_every_check(ran):
    wl, plain, _traced, _dicts, tally, _tracer = ran
    assert tally.failed == 0, tally.reasons
    assert tally.attempted == len(wl.experiments)
    assert plain.steps > 0


def test_tracing_changes_no_output(ran):
    _wl, plain, traced, _dicts, _tally, tracer = ran
    assert not tracer.missing
    assert tracer.spans
    assert plain.reports.keys() == traced.reports.keys()
    for label in plain.reports:
        a = strip_volatile(plain.reports[label].to_dict())
        b = strip_volatile(traced.reports[label].to_dict())
        assert a == b, label


def test_tracer_restores_originals(ran):
    _wl, _plain, _traced, _dicts, _tally, tracer = ran
    for owner, attr, original, _wrapped in tracer._wrappers:
        assert getattr(owner, attr) is original


def _problems(wl, dicts, extra=None):
    return {label: msgs for label, msgs in wl.check(dicts, extra).items() if msgs}


def _flagged(wl, dicts, label, fragment, extra=None):
    problems = _problems(wl, dicts, extra)
    return any(fragment in msg for msg in problems.get(label, []))


def test_handovers_plus_one_is_caught(ran):
    wl, _plain, _traced, dicts, _tally, _tracer = ran
    for label in dicts:
        bad = copy.deepcopy(dicts)
        bad[label]["metrics"]["handovers"] += 1
        assert _flagged(wl, bad, label, "do not match the decision log")
        assert _flagged(wl, bad, label, "!= recorded")


def _swap_bssid(log, i):
    """Give step i another AP seen in the same log, or a made-up one."""
    others = sorted({e["bssid"] for e in log} - {log[i]["bssid"]}) or ["02:00:00:00:FF:FF"]
    log[i]["bssid"] = others[0]


def test_swapped_bssid_is_caught(ran):
    wl, _plain, _traced, dicts, _tally, _tracer = ran
    for label in dicts:
        bad = copy.deepcopy(dicts)
        log = bad[label]["decision_log"]
        _swap_bssid(log, len(log) // 2)
        assert label in _problems(wl, bad)


def test_golden_values_are_checked(ran, monkeypatch):
    wl, _plain, _traced, dicts, _tally, _tracer = ran
    label = next(iter(dicts))
    golden = copy.deepcopy(workloads.GOLDEN)
    golden[wl.name][label]["avg_rssi_dbm"] += 1e-9
    monkeypatch.setattr(workloads, "GOLDEN", golden)
    assert _flagged(wl, dicts, label, "!= recorded")


def test_dense_checks_fire(runs):
    wl, plain, _traced, dicts, _tally, _tracer = runs("compare-dense")
    bad = copy.deepcopy(dicts)
    bad["legacy"]["trace_hash"] = "0" * 64
    assert _flagged(wl, bad, "legacy", "sha256 of the trace file")

    bad = copy.deepcopy(dicts)
    bad["heuristic"]["metrics"]["handovers"] = bad["opt-ho"]["metrics"]["handovers"] - 1
    assert _flagged(wl, bad, "opt-ho", "more handovers")

    bad = copy.deepcopy(dicts)
    bad["legacy"]["metrics"]["avg_rssi_dbm"] = bad["opt-rssi"]["metrics"]["avg_rssi_dbm"] + 0.5
    assert _flagged(wl, bad, "opt-rssi", "lower avg RSSI")

    bad = copy.deepcopy(dicts)
    bad["heuristic"]["decision_log"][0]["rssi"] -= 1.0
    assert _flagged(wl, bad, "heuristic", "written report differs")

    table = plain.extra
    short = type(table)(table.trace_hash, table.scenario, table.rows[:-1])
    assert _flagged(wl, dicts, "legacy", "lost a row", extra=short)


def test_agent_checks_fire(runs):
    wl, _plain, _traced, dicts, _tally, _tracer = runs("agent-mock")
    bad = copy.deepcopy(dicts)
    bad["llm-argmax"]["metrics"]["error_rate"] = 0.0
    assert _flagged(wl, bad, "llm-argmax", "error_rate differs from legacy")

    bad = copy.deepcopy(dicts)
    bad["llm-argmax"]["latency"]["count"] -= 1
    assert _flagged(wl, bad, "llm-argmax", "model calls")

    bad = copy.deepcopy(dicts)
    bad["llm-threshold"]["latency"]["count"] += 1
    assert _flagged(wl, bad, "llm-threshold", "threshold calls")

    bad = copy.deepcopy(dicts)
    _swap_bssid(bad["llm-argmax"]["decision_log"], 5)
    assert _flagged(wl, bad, "llm-argmax", "association sequence differs")


def test_endpoint_checks_fire(runs):
    wl, _plain, _traced, dicts, _tally, _tracer = runs("endpoint-http")
    bad = copy.deepcopy(dicts)
    bad["llm-http"]["latency"]["failures"] = 1
    assert _flagged(wl, bad, "llm-http", "failed calls")

    bad = copy.deepcopy(dicts)
    bad["external"]["decision_log"][3]["fault"] = True
    assert _flagged(wl, bad, "external", "external calls failed")

    bad = copy.deepcopy(dicts)
    _swap_bssid(bad["external"]["decision_log"], 7)
    assert _flagged(wl, bad, "external", "association sequence differs")


def test_stub_argmax_matches_roamsim():
    trace = generate_synthetic(workloads.agent_synth(seed=3, steps=60))
    rng = random.Random(0)
    prompts = []
    for t in range(0, 60, 3):
        fields = frozenset(rng.sample(["location", "time", "battery"], rng.randint(0, 3)))
        cfg = PromptConfig(style=rng.choice(["cot", "plain"]), context_fields=fields,
                           window_k=rng.randint(1, 10), task=rng.choice(["ap_select", "threshold"]))
        state = AssociationState(associated=trace.samples[0].candidates[0].bssid)
        prompts.append(build_prompt(window(trace, t, cfg.window_k), state, cfg))
    # a tie on the last row, and a value in scientific notation
    prompts.append("t=0 | aps: AA:00:00:00:00:02=-50.0 aa:00:00:00:00:01=-50.0\n")
    prompts.append("t=0 | aps: AA:00:00:00:00:03=-1e-05 AA:00:00:00:00:04=-0.5\n")
    for prompt in prompts:
        assert stub.last_row_argmax(prompt) == prompt_argmax_bssid(prompt)


def test_stub_decide_matches_argmax():
    request = {"window": [{"scan": [{"bssid": "AA:00:00:00:00:01", "rssi_dbm": -40.0}]},
                          {"scan": [{"bssid": "AA:00:00:00:00:02", "rssi_dbm": -61.0},
                                    {"bssid": "aa:00:00:00:00:01", "rssi_dbm": -61.0}]}],
               "state": {"associated": "AA:00:00:00:00:02", "threshold": -70.0}}
    assert stub.decide(request) == {"action": "roam", "bssid": "AA:00:00:00:00:01"}
    request["state"]["associated"] = "AA:00:00:00:00:01"
    assert stub.decide(request) == {"action": "stay"}


def test_missing_trace_point_is_reported():
    points = TRACE_POINTS + (
        ("roamsim.runner", None, "no_such_function", "runner.no_such_function", None),
        ("roamsim.gateway", "NoSuchClient", "complete", "gateway.NoSuchClient.complete", None),
    )
    tracer = Tracer(points)
    assert tracer.missing == {"runner.no_such_function", "gateway.NoSuchClient.complete"}


def test_traced_run_reports_a_missing_layer(monkeypatch, tmp_path):
    points = tuple(p for p in TRACE_POINTS if p[3] != "agent.build_prompt") + (
        ("roamsim.agent", None, "renamed_build_prompt", "agent.build_prompt", None),
    )
    monkeypatch.setattr(run, "Tracer", lambda: Tracer(points))
    args = argparse.Namespace(workload="agent-mock", seed=workloads.DEFAULT_SEED, seconds=0.0)
    tally = run.Tally()
    metrics = run.traced_run(args, str(tmp_path), tally, run.HostClock(lambda: run.REFERENCE_NOMINAL_S))
    assert tally.failed == 0
    assert set(metrics) == set(run.PER_LAYER)
    for name in ("agent.prompt_s", "agent.prompts", "agent.prompt_kchars"):
        assert metrics[name]["value"] == "missing"
    assert metrics["gateway.calls"]["value"] == workloads.AGENT_STEPS * 6 // 5
    assert metrics["policies.solve_s"]["value"] == 0


def test_host_slowdown_is_the_mean_of_the_neighbouring_passes(monkeypatch):
    passes = iter([0.10, 0.05, 0.20, 0.30, 0.08])
    monkeypatch.setattr(run, "REFERENCE_NOMINAL_S", 0.05)
    clock = run.HostClock(lambda: next(passes))
    assert clock.after() == pytest.approx(1.5)
    assert clock.after() == pytest.approx(2.5)
    assert clock.after() == pytest.approx(5.0)
    assert clock.after() == pytest.approx(3.8)
    assert clock.slowdowns == pytest.approx([1.5, 2.5, 5.0, 3.8])


def test_reference_runs_in_its_own_process():
    with run.ReferenceProcess() as reference:
        seconds = [reference.pass_seconds() for _ in range(2)]
        assert reference.proc.pid != os.getpid()
    assert all(s > 0 for s in seconds)
    assert reference.proc.returncode == 0


def test_self_seconds_subtracts_direct_children():
    spans = [
        Span("outer", 0.0, 10.0, None),
        Span("inner", 1.0, 4.0, 0),
        Span("leaf", 2.0, 3.0, 1),
        Span("inner", 5.0, 6.0, 0),
    ]
    assert self_seconds(spans, 0, "outer") == pytest.approx(6.0)
    assert self_seconds(spans, 0, "inner") == pytest.approx(3.0)


def test_layer_map_and_workloads_match_benchmark_json():
    with open(os.path.join(checkout.BENCH_DIR, "layers.json"), encoding="utf-8") as fh:
        layers = json.load(fh)
    assert set(layers["per_layer"]) == set(run.PER_LAYER)
    assert set(run.LAYER_NEEDS) <= set(run.PER_LAYER)
    assert {w["name"] for w in run._DECLARED["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_to_run_without_roamsim_sources(tmp_path):
    shutil.copytree(checkout.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(checkout.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "agent-mock", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
