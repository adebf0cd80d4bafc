"""Acceptance suite: one test per release criterion, offline via the mock
model. Each test prints a PASS/FAIL line (run with -s to see them all).

Criteria:
  C1 metric exactness on hand-computed fixture timelines
  C2 plan solver equals exhaustive search on small random traces
  C3 optimal plans dominate every baseline on random traces
  C4 agent pipeline equivalences (argmax mock == legacy; constant mock == fixed)
  C5 error-rate accounting under injected invalid picks
  C6 scheduler invocation-count closed form
  C7 determinism of reports and generated traces
  C8 export integrity (record counts, feasibility, accuracy identity)
  C9 latency metering against a delayed loopback mock
"""

from __future__ import annotations

import random
import time
from functools import partial

from conftest import MAC_A, MAC_B, band_synth, make_trace, metrics_of, timeline_of
from roamsim.agent import PromptConfig, ap_select_decide
from roamsim.export import export_preferences, export_sft, label_accuracy
from roamsim.gateway import MockClient, MockRule, latency_stats
from roamsim.policies import (
    OBJECTIVE_MAX_RSSI,
    OBJECTIVE_MIN_HO,
    OracleConstraints,
    PlanPolicy,
    brute_force_plan,
    heuristic_decide,
    legacy_decide,
    solve_plan,
)
from roamsim.roaming import AssociationState, RunTimeline, run_policy
from roamsim.runner import ExperimentConfig, PolicySpec, run_experiment, strip_volatile
from roamsim.trace import generate_synthetic, trace_to_jsonl
from roamsim.trace import window as trace_window

MAC_X = "AA:00:00:00:00:99"  # never present in any fixture


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _fixture_timeline(series) -> RunTimeline:
    return timeline_of(series, source="fixture")


def test_c1_metric_exactness():
    """Hand-computed #HO and AvgRSSI on fixture timelines, exact to 1e-9."""
    start = time.perf_counter()
    A, B = MAC_A, MAC_B
    fixtures = [
        # (series, expected handovers, expected average)
        ([(A, -60.0), (A, -60.0), (A, -60.0)], 0, -60.0),
        ([(A, -50.0), (B, -70.0), (A, -50.0), (B, -70.0), (A, -50.0), (B, -70.0)],
         5, -60.0),
        ([(A, -74.5)], 0, -74.5),
        ([(A, -50.0), (B, -70.0)], 1, -60.0),
        ([(A, -60.0), (A, -61.0), (A, -62.0), (A, -63.0)], 0, -61.5),
        ([(A, -55.0), (A, -65.0), (B, -45.0), (B, -75.0), (A, -55.0)], 2, -59.0),
    ]
    ok = True
    for series, want_ho, want_avg in fixtures:
        tl = _fixture_timeline(series)
        ok = ok and metrics_of(tl)["handovers"] == want_ho
        ok = ok and abs(metrics_of(tl)["avg_rssi_dbm"] - want_avg) < 1e-9
    elapsed = time.perf_counter() - start
    _verdict("C1 metric exactness", ok and elapsed < 1.0,
             f"{len(fixtures)} fixtures, {elapsed:.3f}s")


def test_c2_solver_equals_brute_force():
    """200 random traces, T<=8 A<=3: identical plans and objective values."""
    start = time.perf_counter()
    constraints = OracleConstraints(validity_floor=-70.0)
    mismatches = 0
    for seed in range(200):
        rng = random.Random(seed)
        cfg = band_synth(seed=seed, duration=rng.randint(1, 8),
                         num_aps=rng.randint(1, 3))
        trace = generate_synthetic(cfg)
        for objective in (OBJECTIVE_MIN_HO, OBJECTIVE_MAX_RSSI):
            fast = solve_plan(trace, objective, constraints)
            slow = brute_force_plan(trace, objective, constraints)
            if fast != slow:
                mismatches += 1
    elapsed = time.perf_counter() - start
    _verdict("C2 solver vs brute force", mismatches == 0 and elapsed < 30.0,
             f"400 solves, {mismatches} mismatches, {elapsed:.1f}s")


def test_c3_oracle_dominance():
    """Optimal plans bound every policy on 100 random traces (T=200, A=4).

    Policies and plans share the presence-only feasibility (floor -100);
    the synthetic generator keeps every AP in every scan, so each policy
    timeline is itself a feasible plan. The 1e-9 slack covers float
    summation order, nothing else.
    """
    start = time.perf_counter()
    floor = -100.0
    constraints = OracleConstraints(validity_floor=floor)
    prompt_cfg = PromptConfig()
    ho_violations = 0
    rssi_violations = 0
    for seed in range(100):
        trace = generate_synthetic(band_synth(seed=seed, duration=200, num_aps=4))
        opt_ho = solve_plan(trace, OBJECTIVE_MIN_HO, constraints)
        opt_rssi = solve_plan(trace, OBJECTIVE_MAX_RSSI, constraints)
        rssi_plan_tl = run_policy(
            trace, PlanPolicy(trace, opt_rssi, "opt-rssi").decide,
            validity_floor=floor, initial=opt_rssi.plan[0],
        )
        client = MockClient(MockRule.argmax_rssi())
        policies = [  # (decide, scan threshold)
            (partial(heuristic_decide, seed=seed), -70.0),
            (legacy_decide, -70.0),
            *((partial(legacy_decide, source=f"fixed({thr:g})"), thr)
              for thr in (-50.0, -60.0, -70.0, -80.0)),
            (lambda w, s: ap_select_decide(w, s, prompt_cfg, client, validity_floor=floor),
             -70.0),
        ]
        for decide, scan_rssi in policies:
            tl = run_policy(trace, decide, scan_rssi=scan_rssi, validity_floor=floor)
            if opt_ho.handovers > metrics_of(tl)["handovers"]:
                ho_violations += 1
            roam_targets_feasible = all(
                e["valid"] for e in tl.steps if e["action"] == "roam"
            )
            plan_avg = metrics_of(rssi_plan_tl)["avg_rssi_dbm"]
            if roam_targets_feasible and plan_avg < metrics_of(tl)["avg_rssi_dbm"] - 1e-9:
                rssi_violations += 1
    elapsed = time.perf_counter() - start
    _verdict(
        "C3 oracle dominance",
        ho_violations == 0 and rssi_violations == 0 and elapsed < 60.0,
        f"100 traces x 7 policies, {ho_violations}+{rssi_violations} violations, "
        f"{elapsed:.1f}s",
    )


def test_c4_pipeline_equivalence():
    """Agent with argmax mock == legacy, bit-identical timelines; constant
    threshold mock == fixed threshold, identical metrics."""
    mismatches = 0
    for seed in range(50):
        synth = band_synth(seed=seed, duration=120)
        legacy = run_experiment(
            ExperimentConfig(policy=PolicySpec(kind="legacy"), synth=synth)
        )
        llm = run_experiment(
            ExperimentConfig(
                policy=PolicySpec(kind="llm", mock=MockRule.argmax_rssi()), synth=synth
            )
        )
        strip = lambda log: [
            (e["t"], e["bssid"], e["rssi"], e["action"], e["target"], e["value"],
             e["valid"], e["handover"])
            for e in log
        ]
        if strip(legacy.decision_log) != strip(llm.decision_log):
            mismatches += 1
        if legacy.metrics != llm.metrics:
            mismatches += 1

    metric_mismatches = 0
    for seed in (7, 17, 27):
        synth = band_synth(seed=seed, duration=150)
        fixed = run_experiment(
            ExperimentConfig(
                policy=PolicySpec(kind="fixed", fixed_dbm=-70.0), task="threshold",
                synth=synth,
            )
        )
        mock_run = run_experiment(
            ExperimentConfig(
                policy=PolicySpec(kind="llm", mock=MockRule.fixed_threshold(-70.0)),
                task="threshold", synth=synth, interval=30,
            )
        )
        if fixed.metrics != mock_run.metrics:
            metric_mismatches += 1
    _verdict(
        "C4 pipeline equivalence",
        mismatches == 0 and metric_mismatches == 0,
        f"50 argmax runs + 3 threshold runs, {mismatches + metric_mismatches} mismatches",
    )


def test_c5_error_rate_accounting():
    """Scripted mock injecting m invalid picks among n roam decisions."""
    T = 12
    invalid_steps = {2, 5, 7}
    # both APs sit below the -70 trigger at every step, so every step
    # consults the mock; valid replies always name the other AP
    rows = []
    for t in range(T):
        rows.append({MAC_A: -75.0 if t % 2 == 0 else -72.0,
                     MAC_B: -72.0 if t % 2 == 0 else -75.0})
    trace = make_trace(rows, assoc0=MAC_A)
    assoc = MAC_A
    replies = []
    for t in range(T):
        argmax_t = MAC_B if t % 2 == 0 else MAC_A
        if t in invalid_steps:
            replies.append(f"ANSWER: {MAC_X}")
            assoc = argmax_t  # legacy fallback roams to the strongest AP
        else:
            target = MAC_B if assoc == MAC_A else MAC_A
            replies.append(f"ANSWER: {target}")
            assoc = target
    client = MockClient(MockRule.scripted(replies))
    cfg = PromptConfig()
    tl = run_policy(
        trace,
        lambda w, s: ap_select_decide(w, s, cfg, client, validity_floor=-100.0),
        validity_floor=-100.0,
    )
    n = sum(
        1 for e in tl.steps
        if e["action"] == "roam" or (e["valid"] is False and e["action"] == "stay")
    )
    m = sum(1 for e in tl.steps if e["valid"] is False)
    rate = metrics_of(tl)["error_rate"]
    ok = n == T and m == len(invalid_steps) and rate == m / n
    # every invalid pick fell back to the legacy choice, never the bad BSSID
    for t in sorted(invalid_steps):
        step = tl.steps[t]
        prev = tl.steps[t - 1]["bssid"] if t else MAC_A
        fallback = legacy_decide(
            trace_window(trace, t, 10),
            AssociationState(associated=prev, threshold=-70.0),
        )
        ok = ok and step["bssid"] != MAC_X
        if fallback.target is not None:
            ok = ok and step["bssid"] == fallback.target
        else:
            ok = ok and step["bssid"] == prev
    _verdict("C5 error-rate accounting", ok,
             f"error_rate={rate} expected {len(invalid_steps)}/{T}")


def test_c6_scheduler_count():
    """Invocation count = 1 + floor((D-1)/interval) for all 12 combos."""
    failures = []
    for duration in (60, 300, 1944):
        for interval in (10, 30, 60, 300):
            synth = band_synth(seed=13, duration=duration)
            report = run_experiment(
                ExperimentConfig(
                    policy=PolicySpec(kind="llm", mock=MockRule.fixed_threshold(-70.0)),
                    task="threshold", synth=synth, interval=interval,
                )
            )
            want = 1 + (duration - 1) // interval
            if report.latency["count"] != want:
                failures.append((duration, interval, report.latency["count"], want))
    _verdict("C6 scheduler count", not failures, f"12 combos, failures={failures}")


def test_c7_determinism():
    """Identical configs reproduce reports (minus wall clock) and trace bytes."""
    cfg = ExperimentConfig(
        policy=PolicySpec(kind="llm", mock=MockRule.argmax_rssi()),
        synth=band_synth(seed=23, duration=100),
    )
    a = strip_volatile(run_experiment(cfg).to_dict())
    b = strip_volatile(run_experiment(cfg).to_dict())
    synth = band_synth(seed=31, duration=200)
    bytes_a = trace_to_jsonl(generate_synthetic(synth)).encode()
    bytes_b = trace_to_jsonl(generate_synthetic(synth)).encode()
    _verdict("C7 determinism", a == b and bytes_a == bytes_b)


def test_c8_export_integrity(crossover_trace, tmp_path):
    """SFT counts and feasibility; hand-diffed preference pairs; accuracy."""
    constraints = OracleConstraints(validity_floor=-70.0)
    trace = generate_synthetic(band_synth(seed=37, duration=30))
    plan = solve_plan(trace, OBJECTIVE_MIN_HO, constraints)
    sft_path = tmp_path / "sft.jsonl"
    with open(sft_path, "w", encoding="utf-8") as fh:
        count = export_sft(trace, plan, PromptConfig(), fh)
    lines = sft_path.read_text().splitlines()
    ok = count == 30 and len(lines) == 30
    import json as _json

    for t, line in enumerate(lines):
        bssid = _json.loads(line)["completion"].removeprefix("ANSWER: ")
        sample = trace.samples[t]
        feasible = [c.bssid for c in sample.candidates if c.rssi >= -70.0]
        if not feasible:  # relaxed step: strongest candidates only
            top = max(c.rssi for c in sample.candidates)
            feasible = [c.bssid for c in sample.candidates if c.rssi == top]
        ok = ok and bssid in feasible

    # hand-derived crossover fixture: signals cross at t=6, legacy follows
    # the crossover while the fewest-handover plan keeps the t0 winner, so
    # the two disagree on exactly the last 6 steps
    cross_constraints = OracleConstraints(validity_floor=-100.0)
    cross_plan = solve_plan(crossover_trace, OBJECTIVE_MIN_HO, cross_constraints)
    pref_path = tmp_path / "prefs.jsonl"
    with open(pref_path, "w", encoding="utf-8") as fh:
        pairs = export_preferences(crossover_trace, cross_plan, "legacy", PromptConfig(), fh)
    legacy_tl = run_policy(crossover_trace, legacy_decide, validity_floor=-100.0)
    hand_diff = sum(
        1 for t, e in enumerate(legacy_tl.steps) if e["bssid"] != cross_plan.plan[t]
    )
    ok = ok and pairs == 6 and hand_diff == 6

    ok = ok and label_accuracy(plan.plan, plan) == 100.0
    _verdict("C8 export integrity", ok, f"sft={count}, pairs={pairs}")


def test_c9_latency_metering():
    """Loopback mock with 25 ms delay: mean in [25, 40] ms over 200 calls."""
    start = time.perf_counter()
    client = MockClient(MockRule.constant_text("ANSWER: -70", delay_ms=25.0))
    for _ in range(200):
        client.complete("probe")
    summary = latency_stats(client.records)
    ok = (
        summary["count"] == 200
        and summary["failures"] == 0
        and 25.0 <= summary["mean_ms"] <= 40.0
    )
    failing = MockClient(MockRule.fail_after(2))
    for _ in range(200):
        failing.complete("probe")
    fail_summary = latency_stats(failing.records)
    ok = ok and fail_summary["failures"] == 198 and fail_summary["count"] == 2
    elapsed = time.perf_counter() - start
    _verdict(
        "C9 latency metering",
        ok and elapsed < 10.0,
        f"mean={summary['mean_ms']:.1f}ms failures={fail_summary['failures']} {elapsed:.1f}s",
    )
