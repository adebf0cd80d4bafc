"""Run orchestration: reports, self-verification, comparison, sweeps."""

from __future__ import annotations

import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import sys
import tempfile
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MAC_A, MAC_B, band_synth, mac, make_sample, make_trace, trace_to_csv
from roamsim.agent import (
    CONTEXT_FIELDS,
    STYLE_COT,
    STYLE_PLAIN,
    TASK_AP_SELECT,
    TASK_THRESHOLD,
    PromptConfig,
    build_shot_pool,
)
from roamsim.errors import ConfigError, DataError, EndpointError, RoamsimError
from roamsim.export import (
    REJECTED_HEURISTIC,
    REJECTED_LEGACY,
    REJECTED_SECOND_BEST,
    export_preferences,
    export_sft,
)
from roamsim.gateway import (
    EndpointConfig,
    JsonConnection,
    MockClient,
    MockRule,
)
from roamsim.policies import (
    OBJECTIVE_MAX_RSSI,
    OBJECTIVE_MIN_HO,
    AssociationPlan,
    legacy_decide,
    solve_plan,
)
from roamsim.roaming import (
    HYSTERESIS_PRESETS,
    initial_association,
    rssi_of,
    run_policy,
    should_scan,
)
from roamsim.runner import (
    POLICIES,
    SWEEP_AXES,
    ExperimentConfig,
    PolicySpec,
    _report_chunks,
    compare,
    emit_plot_data,
    read_json,
    read_report,
    recompute_metrics,
    run_experiment,
    strip_volatile,
    sweep,
    trace_content_hash,
    verify_report,
    write_report,
)
from roamsim.trace import SynthConfig, Trace, generate_synthetic, parse_trace, trace_to_jsonl


def cfg_for(policy: PolicySpec, seed=71, duration=150, **kw) -> ExperimentConfig:
    return ExperimentConfig(policy=policy, synth=band_synth(seed=seed, duration=duration), **kw)


class TestValidateConfig:
    def test_requires_exactly_one_trace_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            run_experiment(ExperimentConfig(policy=PolicySpec(kind="legacy")))

    def test_interval_conflicts_with_ap_select(self):
        cfg = cfg_for(PolicySpec(kind="legacy"), interval=30)
        with pytest.raises(ConfigError, match="interval only applies"):
            run_experiment(cfg)

    def test_threshold_task_restricts_policies(self):
        cfg = cfg_for(PolicySpec(kind="legacy"), task="threshold")
        with pytest.raises(ConfigError, match="threshold task supports"):
            run_experiment(cfg)

    def test_llm_needs_exactly_one_client(self):
        cfg = cfg_for(PolicySpec(kind="llm"))
        with pytest.raises(ConfigError, match="mock or endpoint"):
            run_experiment(cfg)

    def test_fixed_needs_value(self):
        cfg = cfg_for(PolicySpec(kind="fixed"))
        with pytest.raises(ConfigError, match="fixed_dbm"):
            run_experiment(cfg)

    def test_threshold_task_rejects_shots(self):
        cfg = cfg_for(
            PolicySpec(kind="llm", mock=MockRule.fixed_threshold(-70.0),
                       prompt=PromptConfig(task="threshold", shots=1)),
            task="threshold",
        )
        with pytest.raises(ConfigError, match="ap_select"):
            run_experiment(cfg)

    @pytest.mark.parametrize("spec, kw, message", [
        (PolicySpec(kind="legacy"), dict(task="bogus"), "unknown task 'bogus'"),
        (PolicySpec(kind="bogus"), {}, "unknown policy 'bogus'"),
        (PolicySpec(kind="legacy"), dict(hysteresis="bogus"), "unknown hysteresis preset"),
        (PolicySpec(kind="legacy"), dict(window_k=0), "window_k must be >= 1"),
        (PolicySpec(kind="fixed", fixed_dbm=-70.0), dict(task="threshold", interval=0),
         "interval must be >= 1"),
        (PolicySpec(kind="external"), {}, "external policy needs external_url"),
        (PolicySpec(kind="legacy"), dict(score_against="opt-ho"), "bad score_against"),
    ], ids=["task", "policy", "hysteresis", "window_k", "interval", "external-url",
            "score_against"])
    def test_refused_settings_name_themselves(self, spec, kw, message):
        with pytest.raises(ConfigError, match=message):
            run_experiment(cfg_for(spec, **kw))

    def test_shots_without_holdout_are_refused_before_the_trace_is_read(self, tmp_path):
        spec = PolicySpec(kind="llm", mock=MockRule.argmax_rssi(), prompt=PromptConfig(shots=1))
        cfg = ExperimentConfig(spec, trace_path=str(tmp_path / "missing.jsonl"), holdout=False)
        with pytest.raises(ConfigError, match="requires holdout"):
            run_experiment(cfg)

    @pytest.mark.parametrize("prompt, kw", [
        (PromptConfig(window_k=3), {}),
        (PromptConfig(task="threshold"), {}),
        (PromptConfig(), dict(task="threshold")),
        (PromptConfig(window_k=3, task="threshold"), dict(window_k=10)),
    ], ids=["window_k", "task", "run-task", "both"])
    def test_prompt_settings_the_run_overrides_are_refused(self, prompt, kw):
        spec = PolicySpec(kind="llm", mock=MockRule.argmax_rssi(), prompt=prompt)
        with pytest.raises(ConfigError, match="must equal the run's"):
            run_experiment(cfg_for(spec, **kw))

    @pytest.mark.parametrize("refuse, message", [
        (lambda: PromptConfig(style="verbose"), "bad style 'verbose'"),
        (lambda: build_shot_pool(make_trace([{MAC_A: -60.0}]), solve_plan(
            make_trace([{MAC_A: -60.0}]), OBJECTIVE_MIN_HO), PromptConfig(shots=2), 0),
         "cannot draw 2 shots from a 1-step trace"),
        (lambda: EndpointConfig(base_url="http://h", model="m", temperature=-1.0),
         "temperature must be finite and >= 0"),
        (lambda: MockRule(kind="echo"), "unknown mock rule: 'echo'"),
        (lambda: generate_synthetic(SynthConfig(duration=0)), "duration must be >= 1"),
        (lambda: parse_trace(b"", "xml"), "unknown trace format: 'xml'"),
        (lambda: solve_plan(make_trace([{MAC_A: -60.0}]), "min_rssi"),
         "unknown objective: 'min_rssi'"),
    ], ids=["prompt", "shot-pool", "endpoint", "mock", "synthetic", "trace-format",
            "objective"])
    def test_each_settings_check_raises_config_error(self, refuse, message):
        with pytest.raises(ConfigError) as refused:
            refuse()
        assert str(refused.value) == message

    def test_a_config_error_is_a_value_error(self):
        # so a caller catching the ValueError these checks once raised still catches them
        assert issubclass(ConfigError, ValueError)

    def test_prompt_that_repeats_the_run_settings_runs(self):
        prompt = PromptConfig(window_k=3, task="threshold")
        spec = PolicySpec(kind="llm", mock=MockRule.fixed_threshold(-70.0), prompt=prompt)
        report = run_experiment(cfg_for(spec, duration=40, task="threshold", window_k=3))
        assert report.config["policy"]["prompt"]["window_k"] == report.config["window_k"] == 3
        assert len(report.decision_log) == 40


@pytest.mark.parametrize("name, call", [
    ("trace_path", lambda d, report: run_experiment(
        ExperimentConfig(PolicySpec(kind="legacy"), trace_path=f"{d}/t\0.jsonl"))),
    ("template_path", lambda d, report: run_experiment(
        cfg_for(PolicySpec(kind="legacy"), template_path=f"{d}/t\0.ini"))),
    ("out_dir", lambda d, report: run_experiment(
        cfg_for(PolicySpec(kind="legacy"), out_dir=f"{d}/runs\0"))),
    ("path", lambda d, report: read_report(f"{d}/r\0.json")),
    ("path", lambda d, report: read_json(f"{d}/plan\0.json", "plan")),
    ("out_dir", lambda d, report: write_report(report, f"{d}/runs\0")),
    ("out_dir", lambda d, report: emit_plot_data(report, f"{d}/plots\0")),
], ids=["trace_path", "template_path", "out_dir", "read_report", "read_json", "write_report",
        "emit_plot_data"])
def test_a_path_holding_a_nul_byte_is_a_config_error_naming_it(tmp_path, name, call):
    report = run_experiment(cfg_for(PolicySpec(kind="legacy"), duration=5))
    with pytest.raises(ConfigError, match=rf"^{name} '.*\\x00.*' holds a NUL byte$"):
        call(tmp_path, report)
    assert not os.listdir(tmp_path)


class TestRunExperiment:
    def test_single_ap_legacy_baseline(self):
        synth = SynthConfig(num_aps=1, duration=50, base_dbm=-63.0, step_stddev=0.0)
        report = run_experiment(ExperimentConfig(policy=PolicySpec(kind="legacy"), synth=synth))
        assert report.metrics["handovers"] == 0
        assert report.metrics["avg_rssi_dbm"] == -63.0
        assert report.metrics["error_rate"] is None

    def test_reports_are_self_verifying(self):
        for kind in ("legacy", "heuristic", "opt_ho", "opt_rssi"):
            report = run_experiment(cfg_for(PolicySpec(kind=kind)))
            assert verify_report(report), kind

    def test_llm_report_is_self_verifying(self):
        cfg = cfg_for(PolicySpec(kind="llm", mock=MockRule.argmax_rssi()))
        report = run_experiment(cfg)
        assert verify_report(report)
        # the model is called on each step whose association before the
        # decision sits below the -70 dBm scan trigger
        trace = generate_synthetic(cfg.synth)
        before = [initial_association(trace)] + [e["bssid"] for e in report.decision_log[:-1]]
        triggers = sum(
            1 for s, bssid in zip(trace.samples, before) if should_scan(rssi_of(s, bssid), -70.0)
        )
        assert report.latency["count"] + report.latency["failures"] == triggers

    def test_opt_ho_dominates_legacy_over_seeds(self):
        for seed in range(0, 100, 10):
            base = dict(validity_floor=-100.0)
            opt = run_experiment(cfg_for(PolicySpec(kind="opt_ho"), seed=seed, **base))
            leg = run_experiment(cfg_for(PolicySpec(kind="legacy"), seed=seed, **base))
            assert opt.metrics["handovers"] <= leg.metrics["handovers"]

    def test_oracle_accuracy_metric(self):
        report = run_experiment(
            cfg_for(PolicySpec(kind="opt_ho"), score_against="opt_ho")
        )
        assert report.metrics["oracle_accuracy_pct"] == 100.0

    def test_deterministic_reports_modulo_wall_clock(self):
        cfg = cfg_for(PolicySpec(kind="llm", mock=MockRule.argmax_rssi()))
        a = run_experiment(cfg).to_dict()
        b = run_experiment(cfg).to_dict()
        assert strip_volatile(a) == strip_volatile(b)

    def test_threshold_run_records_adjustments(self):
        cfg = cfg_for(
            PolicySpec(kind="llm", mock=MockRule.fixed_threshold(-70.0)),
            task="threshold",
            interval=30,
            duration=120,
        )
        report = run_experiment(cfg)
        assert len(report.threshold_log) == 1 + (120 - 1) // 30
        assert all(e["value"] == -70.0 for e in report.threshold_log)

    def test_shots_require_holdout_split(self):
        cfg = cfg_for(
            PolicySpec(
                kind="llm",
                mock=MockRule.argmax_rssi(),
                prompt=PromptConfig(shots=1),
            ),
            duration=100,
        )
        report = run_experiment(cfg)
        assert report.scenario.endswith(":test")
        assert len(report.decision_log) == 20  # evaluated on the 20% block

    def test_more_shots_than_training_steps_is_a_config_error(self):
        spec = PolicySpec(kind="llm", mock=MockRule.argmax_rssi(), prompt=PromptConfig(shots=5))
        with pytest.raises(ConfigError, match="cannot draw 5 shots from a 3-step trace"):
            run_experiment(ExperimentConfig(policy=spec, synth=SynthConfig(num_aps=3, duration=4)))

    def test_worked_examples_take_the_run_window(self, monkeypatch):
        # the run's window_k, which the prompt repeats, sizes the worked
        # example as well as the live window
        prompts = []
        complete = MockClient.complete
        monkeypatch.setattr(MockClient, "complete",
                            lambda self, prompt: prompts.append(prompt) or complete(self, prompt))
        spec = PolicySpec(kind="llm", mock=MockRule.argmax_rssi(),
                          prompt=PromptConfig(shots=1, window_k=3))
        run_experiment(cfg_for(spec, duration=100, window_k=3, scan_rssi=-30.0))  # scan each step
        runs, rows = [], 0  # lengths of the runs of scan rows in the last prompt
        for line in prompts[-1].splitlines() + [""]:
            if line.startswith("t="):
                rows += 1
            elif rows:
                runs, rows = runs + [rows], 0
        assert runs == [3, 3]

    @pytest.mark.parametrize("dbm", [-50.0, -70.0, -90.0])
    def test_fixed_policy_is_legacy_at_its_threshold(self, dbm):
        synth = band_synth(seed=5, duration=150, num_aps=3)
        fixed = run_experiment(ExperimentConfig(
            policy=PolicySpec(kind="fixed", fixed_dbm=dbm), synth=synth))
        legacy = run_experiment(ExperimentConfig(
            policy=PolicySpec(kind="legacy"), synth=synth, scan_rssi=dbm))
        assert {e["source"] for e in fixed.decision_log} == {f"fixed({dbm:g})"}
        without_source = [
            [{k: v for k, v in e.items() if k != "source"} for e in r.decision_log]
            for r in (fixed, legacy)
        ]
        assert without_source[0] == without_source[1]

    def test_a_failed_write_leaves_no_file(self, tmp_path):
        report = run_experiment(cfg_for(PolicySpec(kind="legacy"), duration=20))
        report.metrics["x"] = object()  # JSON cannot encode it
        with pytest.raises(TypeError):
            write_report(report, str(tmp_path))
        assert os.listdir(tmp_path) == []

    def test_report_write_and_read_roundtrip(self, tmp_path):
        cfg = cfg_for(PolicySpec(kind="legacy"), out_dir=str(tmp_path))
        report = run_experiment(cfg)
        path = tmp_path / "report_legacy.json"
        assert path.exists()
        loaded = read_report(str(path))
        assert loaded == report.to_dict()
        assert verify_report(loaded)


class TestLiveEndpointIntegration:
    def test_llm_policy_over_real_http(self, loopback):
        endpoint = EndpointConfig(
            base_url=loopback(reply_text="ANSWER: AA:00:00:00:00:99").url,
            model="m", timeout_ms=2000.0, backoff_ms=5.0,
        )
        report = run_experiment(cfg_for(PolicySpec(kind="llm", endpoint=endpoint), duration=60))
        # every consulted step named an absent AP: all invalid, legacy fallback
        assert report.metrics["error_rate"] in (None, 1.0)
        assert report.latency["failures"] == 0
        assert verify_report(report)

    def test_dead_endpoint_raises_endpoint_error(self):
        endpoint = EndpointConfig(
            base_url="http://127.0.0.1:1", model="m",
            timeout_ms=200.0, max_retries=0, backoff_ms=1.0,
        )
        cfg = cfg_for(PolicySpec(kind="llm", endpoint=endpoint), duration=40)
        with pytest.raises(EndpointError):
            run_experiment(cfg)

    def test_external_policy_degrades_without_endpoint(self, tmp_path):
        # the scan trigger (-70 dBm on the associated AP) fires on steps 0, 2 and 3
        rows = [{MAC_A: -80.0, MAC_B: -60.0}, {MAC_A: -60.0, MAC_B: -80.0},
                {MAC_A: -75.0, MAC_B: -65.0}, {MAC_A: -71.0, MAC_B: -50.0}]
        path = tmp_path / "trigger.jsonl"
        path.write_text(trace_to_jsonl(make_trace(rows, assoc0=MAC_A)))
        cfg = ExperimentConfig(
            policy=PolicySpec(kind="external", external_url="http://127.0.0.1:1/decide"),
            trace_path=str(path),
        )
        report = run_experiment(cfg)
        assert report.metrics["handovers"] == 0
        assert verify_report(report)
        # the association never changes, so each step's rssi is the trigger input
        assert sum(1 for e in report.decision_log if e["rssi"] < -70.0) >= 1
        assert sum(1 for e in report.decision_log if e["fault"]) >= 1


class TestRecomputeMetrics:
    def test_matches_report_metrics(self):
        report = run_experiment(cfg_for(PolicySpec(kind="heuristic", seed=4)))
        rec = recompute_metrics(report.decision_log)
        assert rec["handovers"] == report.metrics["handovers"]
        assert rec["avg_rssi_dbm"] == report.metrics["avg_rssi_dbm"]
        assert rec["error_rate"] == report.metrics["error_rate"]

    def test_detects_tampering(self):
        report = run_experiment(cfg_for(PolicySpec(kind="legacy")))
        d = report.to_dict()
        d["metrics"] = dict(d["metrics"], handovers=d["metrics"]["handovers"] + 1)
        assert not verify_report(d)


class TestCompare:
    def test_three_policies_align(self):
        reports = [
            run_experiment(cfg_for(PolicySpec(kind=k), validity_floor=-100.0))
            for k in ("legacy", "opt_ho", "opt_rssi")
        ]
        table = compare(reports)
        assert len(table.rows) == 3
        by_policy = {r["policy"]: r for r in table.rows}
        assert by_policy["opt-ho"]["handovers"] == min(r["handovers"] for r in table.rows)
        assert by_policy["opt-rssi"]["avg_rssi_dbm"] == max(
            r["avg_rssi_dbm"] for r in table.rows
        )

    def test_single_report_rejected(self):
        report = run_experiment(cfg_for(PolicySpec(kind="legacy")))
        with pytest.raises(DataError, match="need >= 2"):
            compare([report])

    def test_cross_trace_comparison_rejected(self):
        a = run_experiment(cfg_for(PolicySpec(kind="legacy"), seed=1))
        b = run_experiment(cfg_for(PolicySpec(kind="legacy"), seed=2))
        with pytest.raises(DataError, match="trace hash mismatch"):
            compare([a, b])

    def test_metric_values_preserved_bit_exactly(self):
        a = run_experiment(cfg_for(PolicySpec(kind="legacy")))
        b = run_experiment(cfg_for(PolicySpec(kind="opt_rssi")))
        table = compare([a, b])
        assert table.rows[0]["avg_rssi_dbm"] == a.metrics["avg_rssi_dbm"]
        assert table.rows[1]["avg_rssi_dbm"] == b.metrics["avg_rssi_dbm"]
        csv_text = table.to_csv()
        cell = csv_text.splitlines()[1].split(",")[2]
        assert float(cell) == a.metrics["avg_rssi_dbm"]


class TestPlotData:
    def test_two_metric_csvs_plus_error_rate(self, tmp_path):
        reports = [
            run_experiment(cfg_for(PolicySpec(kind=k), validity_floor=-100.0))
            for k in ("legacy", "heuristic")
        ]
        table = compare(reports)
        paths = emit_plot_data(table, str(tmp_path))
        names = sorted(os.path.basename(p) for p in paths)
        assert "ho.csv" in names and "avg_rssi.csv" in names
        body = (tmp_path / "ho.csv").read_text()
        assert body.splitlines()[0] == "policy,scenario,value"

    def test_error_rate_csv_only_when_present(self, tmp_path):
        synth = SynthConfig(num_aps=1, duration=30, base_dbm=-60.0, step_stddev=0.0)
        report = run_experiment(ExperimentConfig(policy=PolicySpec(kind="legacy"), synth=synth))
        paths = emit_plot_data(report, str(tmp_path))
        names = {os.path.basename(p) for p in paths}
        assert names == {"ho.csv", "avg_rssi.csv"}  # no roams -> no error rate

    def test_reemit_is_byte_identical(self, tmp_path):
        report = run_experiment(cfg_for(PolicySpec(kind="legacy")))
        emit_plot_data(report, str(tmp_path / "a"))
        emit_plot_data(report, str(tmp_path / "b"))
        assert (tmp_path / "a" / "ho.csv").read_bytes() == (
            tmp_path / "b" / "ho.csv"
        ).read_bytes()


def sweep_template(axis: str, **kw) -> ExperimentConfig:
    """An 80-step run that sweeps the axis: an llm run, on the threshold task for interval."""
    if axis == "interval":
        spec = PolicySpec(kind="llm", mock=MockRule.fixed_threshold(-70.0))
        return cfg_for(spec, duration=80, task="threshold", **kw)
    return cfg_for(PolicySpec(kind="llm", mock=MockRule.argmax_rssi()), duration=80, **kw)


class TestSweep:
    def test_threshold_axis_runs_four_fixed_policies(self):
        template = cfg_for(PolicySpec(kind="legacy"))
        reports = sweep(template, "threshold")
        assert len(reports) == 4
        assert [r.axis["value"] for r in reports] == [-50.0, -60.0, -70.0, -80.0]
        assert all(r.policy.startswith("fixed(") for r in reports)
        hashes = {r.trace_hash for r in reports}
        assert len(hashes) == 1

    def test_interval_axis_invocation_counts(self):
        template = cfg_for(
            PolicySpec(kind="llm", mock=MockRule.fixed_threshold(-70.0)),
            task="threshold",
            duration=300,
        )
        reports = sweep(template, "interval")
        for report in reports:
            interval = report.axis["value"]
            assert report.latency["count"] == 1 + (300 - 1) // interval

    def test_context_axis_covers_all_rows(self):
        template = cfg_for(
            PolicySpec(kind="llm", mock=MockRule.argmax_rssi()), duration=60
        )
        reports = sweep(template, "context_fields")
        assert len(reports) == 5
        values = [tuple(sorted(r.axis["value"])) for r in reports]
        assert values[0] == ()
        assert values[-1] == ("battery", "location", "time")

    def test_shots_axis_shares_the_holdout_span(self):
        template = cfg_for(
            PolicySpec(kind="llm", mock=MockRule.argmax_rssi()), duration=100
        )
        reports = sweep(template, "shots")
        assert [r.axis["value"] for r in reports] == [0, 1, 5]
        assert len({r.trace_hash for r in reports}) == 1
        assert all(r.scenario.endswith(":test") for r in reports)

    @pytest.mark.parametrize("axis, given, ran, name", [
        ("threshold", -60, -60.0, "report_fixed_-60__threshold_-60.0.json"),
        ("interval", "30", 30, "report_llm_interval_30.json"),
        ("shots", "1", 1, "report_llm_shots_1.json"),
        ("context_fields", "location", ["location"], "report_llm_context_fields___location__.json"),
        ("context_fields", ("time", "location"), ["location", "time"],
         "report_llm_context_fields___location____time__.json"),
    ], ids=["threshold-int", "interval-text", "shots-text", "context-text", "context-tuple"])
    def test_report_records_the_value_that_ran(self, tmp_path, axis, given, ran, name):
        (report,) = sweep(sweep_template(axis, out_dir=str(tmp_path)), axis, [given])
        policy = report.config["policy"]
        setting = (policy["fixed_dbm"] if axis == "threshold" else
                   report.config["interval"] if axis == "interval" else policy["prompt"][axis])
        # json.dumps tells -60 from -60.0 and 30 from "30", as a report file does
        assert json.dumps(report.axis["value"]) == json.dumps(setting) == json.dumps(ran)
        assert os.listdir(tmp_path) == [name]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match="unknown sweep axis"):
            sweep(cfg_for(PolicySpec(kind="legacy")), "nonsense")

    def test_axis_policy_conflicts_rejected(self):
        with pytest.raises(ConfigError, match="needs an llm policy"):
            sweep(cfg_for(PolicySpec(kind="legacy")), "shots")
        with pytest.raises(ConfigError, match="interval sweep needs task=threshold"):
            sweep(sweep_template("shots"), "interval")

    def test_no_values_refused(self):
        with pytest.raises(ConfigError, match="at least one axis value"):
            sweep(cfg_for(PolicySpec(kind="legacy")), "threshold", [])

    @pytest.mark.parametrize("axis", ["interval", "shots"])
    @pytest.mark.parametrize("value", [1.5, True, "1.5"], ids=["float", "bool", "text"])
    def test_whole_number_axes_refuse_other_values(self, axis, value):
        with pytest.raises(ConfigError, match=f"bad {axis} value {value!r}$"):
            sweep(sweep_template(axis), axis, [value])

    @pytest.mark.parametrize("axis, values", [
        ("threshold", [-60, -60.0]),
        ("threshold", ["-70", "-60", "-60.0"]),
        ("shots", [1, "1"]),
        ("context_fields", ["location+time", "time+location"]),
        ("context_fields", [(), "none"]),
    ], ids=["threshold", "threshold-text", "shots", "context_fields", "context-none"])
    def test_a_value_given_twice_is_refused_before_any_run(self, tmp_path, axis, values):
        with pytest.raises(ConfigError, match=f"{axis} value .* repeats an earlier value"):
            sweep(sweep_template(axis, out_dir=str(tmp_path)), axis, values)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("axis, values, message", [
        ("threshold", [-60, 5], "fixed_dbm out of range"),
        ("interval", [30, 0], "interval must be >= 1"),
        ("shots", [1, -1], "shots must be >= 0"),  # PromptConfig's own refusals
        ("context_fields", [{"location"}, {"bogus"}], "unknown context fields"),
    ], ids=["threshold", "interval", "shots", "context_fields"])
    def test_every_value_is_checked_before_the_first_run(self, tmp_path, axis, values, message):
        with pytest.raises(ConfigError, match=message):
            sweep(sweep_template(axis, out_dir=str(tmp_path)), axis, values)
        assert os.listdir(tmp_path) == []


class TestTraceHash:
    def test_hash_tracks_content(self):
        a = generate_synthetic(band_synth(seed=1, duration=20))
        b = generate_synthetic(band_synth(seed=2, duration=20))
        assert trace_content_hash(a) == trace_content_hash(a)
        assert trace_content_hash(a) != trace_content_hash(b)

    def test_gen_trace_bytes_are_stable(self):
        cfg = band_synth(seed=9, duration=30)
        assert trace_to_jsonl(generate_synthetic(cfg)) == trace_to_jsonl(
            generate_synthetic(cfg)
        )


@st.composite
def unassociated_traces(draw) -> Trace:
    """Traces with every field but `assoc`, which long CSV has no column for."""
    rssi = st.sampled_from([-60.0, -69.5, -70.0, -72.25, -0.0]) | st.floats(-100.0, 0.0)
    opt = lambda lo, hi: st.none() | st.floats(lo, hi)  # noqa: E731
    num_aps, t, samples = draw(st.integers(1, 5)), draw(st.integers(0, 10**9)), []
    for _ in range(draw(st.integers(1, 10))):
        present = draw(st.sets(st.integers(0, num_aps - 1), min_size=1))
        samples.append(make_sample(
            t, {mac(i): draw(rssi) for i in present},
            activity=draw(st.sampled_from(["active", "idle"])),
            lat=draw(opt(-90.0, 90.0)), lon=draw(opt(-180.0, 180.0)),
            battery=draw(opt(0.0, 100.0)),
        ))
        t += draw(st.integers(1, 10**6))
    return Trace(samples=tuple(samples))


def respelled_jsonl(trace: Trace, rnd: random.Random) -> bytes:
    """The trace as JSONL a person or another tool might write: shuffled scan
    entries, lowercase `-`-separated MACs, keys in reverse order, compact
    separators, blank lines and CRLF line breaks."""
    lines = []
    for s in trace.samples:
        scan = [{"rssi_dbm": r, "bssid": b.lower().replace(":", "-")}
                for b, r in zip(s.bssids, s.rssis)]
        rnd.shuffle(scan)
        rec = {"activity": s.activity}
        for name, value in (("battery_pct", s.battery_pct), ("lon", s.longitude),
                            ("lat", s.latitude)):
            if value is not None:
                rec[name] = value
        rec.update(scan=scan, t=s.timestamp)
        lines += [json.dumps(rec, separators=(",", ":"))] + [""] * rnd.randint(0, 2)
    return "\r\n".join(lines).encode()


INVARIANT_POLICIES = [
    PolicySpec(kind="legacy"),
    PolicySpec(kind="heuristic", seed=3),
    PolicySpec(kind="opt_ho"),
    PolicySpec(kind="opt_rssi"),
    PolicySpec(kind="llm", mock=MockRule.argmax_rssi()),
]


class TestSpellingInvariance:
    @settings(max_examples=50, deadline=None)
    @given(trace=unassociated_traces(), rnd=st.randoms(use_true_random=False))
    def test_spellings_of_a_trace_give_one_report(self, trace, rnd):
        files = {
            "canonical.jsonl": trace_to_jsonl(trace).encode(),
            "respelled.jsonl": respelled_jsonl(trace, rnd),
            "long.csv": trace_to_csv(trace).encode(),
        }
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in files.items():
                with open(os.path.join(tmp, name), "wb") as fh:
                    fh.write(data)
            for spec in INVARIANT_POLICIES:
                views = []
                for name in files:
                    report = run_experiment(ExperimentConfig(
                        policy=spec, trace_path=os.path.join(tmp, name), score_against="opt_ho"))
                    views.append((report.trace_hash, report.decision_log, report.metrics))
                canonical, respelled, long_csv = views
                assert respelled == canonical == long_csv, spec.kind
        assert canonical[0] == hashlib.sha256(files["canonical.jsonl"]).hexdigest()


@st.composite
def parsed_traces(draw) -> Trace:
    """Traces of 1-6 steps that parse, each sample's `assoc` unset, scanned or not."""
    trace = draw(unassociated_traces())
    foreign = mac(40)  # a BSSID no drawn scan holds
    return Trace(samples=tuple(
        replace(s, associated=draw(st.sampled_from((None, foreign, *s.bssids))))
        for s in trace.samples[:6]
    ))


# One run of each kind over the drawn trace, by name: its ExperimentConfig settings.
TOTALITY_RUNS = {
    "legacy": {"policy": PolicySpec(kind="legacy")},
    "heuristic": {"policy": PolicySpec(kind="heuristic", seed=3)},
    "fixed": {"policy": PolicySpec(kind="fixed", fixed_dbm=-65.0)},
    "fixed-threshold": {"policy": PolicySpec(kind="fixed", fixed_dbm=-65.0), "task": "threshold"},
    "opt-ho": {"policy": PolicySpec(kind="opt_ho"), "score_against": "opt_ho"},
    "opt-rssi": {"policy": PolicySpec(kind="opt_rssi"), "score_against": "opt_ho"},
    "holdout": {"policy": PolicySpec(kind="legacy"), "holdout": True,
                "score_against": "opt_rssi"},
    "llm-argmax": {"policy": PolicySpec(kind="llm", mock=MockRule.argmax_rssi())},
    "llm-shots": {"policy": PolicySpec(kind="llm", mock=MockRule.argmax_rssi(),
                                       prompt=PromptConfig(shots=1)), "window_k": 10},
    "llm-constant": {"policy": PolicySpec(kind="llm", mock=MockRule.constant_text(
        f"ANSWER: {MAC_A}"))},
    "llm-scripted": {"policy": PolicySpec(kind="llm", mock=MockRule.scripted(
        ["ANSWER: -60", f"ANSWER: {MAC_B}", "no answer"])), "task": "threshold", "interval": 1},
    "llm-fixed": {"policy": PolicySpec(kind="llm", mock=MockRule.fixed_threshold(-75.0)),
                  "task": "threshold", "interval": 2},
    "external": {"policy": PolicySpec(kind="external",
                                      external_url="http://127.0.0.1:1/decide")},
}


class TestTotality:
    @settings(max_examples=60, deadline=None)
    @given(trace=parsed_traces(), k=st.integers(1, 4), scan=st.floats(-100.0, 0.0),
           floor=st.floats(-100.0, 0.0), hysteresis=st.sampled_from(["off", "standard-80211"]))
    def test_a_trace_that_parses_completes_or_raises_a_roamsim_error(
        self, trace, k, scan, floor, hysteresis
    ):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(trace_to_jsonl(trace))
            for name, run in TOTALITY_RUNS.items():
                cfg = ExperimentConfig(trace_path=path, **{
                    "window_k": k, "scan_rssi": scan, "validity_floor": floor,
                    "hysteresis": hysteresis, **run})
                try:
                    report = run_experiment(cfg)
                except RoamsimError:
                    continue
                assert verify_report(report), name


# Settings of each field's declared type: valid values, NaN and the
# infinities, and names no setting takes. Mock delays and endpoint backoffs
# are drawn from values that sleep for at most a millisecond, or are refused.
FLOATS = st.floats(-100.0, 0.0) | st.floats()
INTS = st.integers(-1, 12)
WAITS_MS = st.sampled_from([1.0, -1.0, math.nan, math.inf, 1e300])
DEEP_JSON = "[" * 100_000 + "]" * 100_000  # past the decoder's recursion limit


def names(*valid: str):
    return st.sampled_from([*valid, "", "bogus"])


def rarely(default, strategy):
    """`default`, or now and then a value of `strategy`: most draws of a
    many-field setting are valid, so the call gets past its checks."""
    return st.integers(0, 5).flatmap(lambda i: strategy if i == 0 else st.just(default))


def drawn_prompt(data, task: str = TASK_AP_SELECT, window_k: int = 10) -> PromptConfig:
    return PromptConfig(
        style=data.draw(rarely(STYLE_COT, names(STYLE_COT, STYLE_PLAIN))),
        shots=data.draw(rarely(0, INTS)),
        context_fields=data.draw(rarely(frozenset({"location", "time"}),
                                        st.frozensets(names(*CONTEXT_FIELDS), max_size=3))),
        window_k=data.draw(rarely(window_k, INTS)),
        task=data.draw(rarely(task, names(TASK_AP_SELECT, TASK_THRESHOLD))))


def drawn_template(data, axis: str, trace_path: str, out_dir: str) -> ExperimentConfig:
    """A sweep template for `axis` over the drawn trace's file or a small synthetic trace."""
    maybe = lambda s: st.none() | s  # noqa: E731
    task = data.draw(rarely(TASK_THRESHOLD if axis == "interval" else TASK_AP_SELECT,
                            names(TASK_AP_SELECT, TASK_THRESHOLD)))
    window_k = data.draw(rarely(10, INTS))
    mocks = st.builds(
        MockRule, kind=names("argmax_rssi", "constant_text", "fixed_threshold", "scripted",
                             "fail_after"),
        text=maybe(st.text(max_size=20)), value=maybe(FLOATS),
        replies=maybe(st.lists(st.text(max_size=20), max_size=3)), fail_after_n=maybe(INTS),
        delay_ms=rarely(0.0, WAITS_MS))
    endpoints = st.builds(  # a port that refuses at once: every call fails fast
        EndpointConfig, base_url=st.just("http://127.0.0.1:1"), model=st.just("m"),
        temperature=rarely(0.0, FLOATS), max_tokens=rarely(8, INTS),
        max_retries=rarely(0, st.integers(-1, 1)),
        timeout_ms=rarely(100.0, WAITS_MS | FLOATS), backoff_ms=rarely(0.0, WAITS_MS))
    # an llm run's model: a mock, an endpoint, or both or neither (refused)
    mock, endpoint = data.draw(
        st.just((MockRule.argmax_rssi(), None)) | st.tuples(mocks, st.none())
        | st.tuples(st.none(), endpoints) | st.tuples(maybe(mocks), maybe(endpoints)))
    spec = PolicySpec(
        kind=data.draw(rarely("llm", names(*POLICIES))), seed=data.draw(rarely(0, INTS)),
        fixed_dbm=data.draw(rarely(-65.0, maybe(FLOATS))),
        prompt=drawn_prompt(data, task, window_k) if data.draw(st.booleans()) else None,
        mock=mock, endpoint=endpoint,
        external_url=data.draw(rarely("http://127.0.0.1:1/decide",
                                      maybe(names("http://127.0.0.1:1/decide")))))
    synth = None
    if data.draw(st.booleans()):
        synth = SynthConfig(
            num_aps=data.draw(rarely(3, st.integers(0, 4))),
            duration=data.draw(rarely(12, INTS)),
            base_dbm=data.draw(rarely(-60.0, FLOATS | st.tuples(FLOATS, FLOATS))),
            step_stddev=data.draw(rarely(2.0, FLOATS)),
            floor_dbm=data.draw(rarely(-95.0, FLOATS)), ceil_dbm=data.draw(rarely(-30.0, FLOATS)),
            sample_interval=data.draw(rarely(1, INTS)),
            battery_drain_pct_per_step=data.draw(rarely(None, maybe(FLOATS))))
    return ExperimentConfig(
        spec, trace_path=None if synth else trace_path, synth=synth, task=task,
        scan_rssi=data.draw(rarely(-70.0, FLOATS)),
        hysteresis=data.draw(rarely("off", names(*HYSTERESIS_PRESETS))),
        validity_floor=data.draw(rarely(-70.0, FLOATS)), window_k=window_k,
        interval=data.draw(rarely(None, maybe(INTS))),
        score_against=data.draw(rarely(None, maybe(names("opt_ho", "opt_rssi")))),
        holdout=data.draw(rarely(None, st.booleans())), out_dir=out_dir)


def drawn_plan(data, trace: Trace) -> AssociationPlan:
    """The trace's optimal plan, or a plan of drawn BSSIDs and length."""
    if data.draw(st.booleans()):
        return solve_plan(trace, OBJECTIVE_MIN_HO)
    bssids = st.sampled_from(sorted({b for s in trace.samples for b in s.bssids}) + [mac(40)])
    size = data.draw(rarely(len(trace), st.sampled_from([len(trace) - 1, len(trace) + 1])))
    return AssociationPlan(tuple(data.draw(bssids) for _ in range(size)),
                           data.draw(names(OBJECTIVE_MIN_HO, OBJECTIVE_MAX_RSSI)),
                           data.draw(FLOATS), data.draw(INTS))


REPORT_KEYS = [("policy",), ("scenario",), ("trace_hash",), ("metrics",),
               ("metrics", "handovers"), ("metrics", "error_rate"), ("metrics", "avg_rssi_dbm"),
               ("latency",), ("latency", "mean_ms"), ("decision_log",), ("decision_log", 0),
               ("decision_log", 0, "rssi"), ("decision_log", 0, "valid")]


def drawn_reports(data, trace_path: str, tmp: str) -> list:
    """Reports as runs return them, and as read_report reads them back from
    report files with a drawn value at some key, or from drawn text; now and
    then a report of another trace."""
    runs = [run_experiment(ExperimentConfig(spec, trace_path=trace_path))
            for spec in (PolicySpec(kind="legacy"), PolicySpec(kind="opt_ho"))]
    other = run_experiment(cfg_for(PolicySpec(kind="legacy"), duration=5))
    reports = []
    for i in range(data.draw(rarely(2, st.integers(0, 4)))):
        report = data.draw(rarely(runs[i % 2], st.just(other)))
        if data.draw(st.booleans()):
            reports.append(report)
            continue
        d = json.loads(json.dumps(report.to_dict()))
        key = data.draw(rarely(None, st.sampled_from([(), *REPORT_KEYS])))
        if key:
            *parents, name = key
            node = d
            for parent in parents:
                node = node[parent]
            node[name] = data.draw(st.none() | st.booleans() | INTS | FLOATS
                                   | st.text(max_size=5) | st.lists(INTS, max_size=2)
                                   | st.just({}))
        text = json.dumps(d)
        if key == ():
            text = data.draw(st.sampled_from(["", "{", "null", "[]", DEEP_JSON]) | st.text())
        path = os.path.join(tmp, f"report_{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        reports.append(read_report(path))
    return reports


def _call(entry: str, data, trace: Trace, trace_path: str, tmp: str):
    out = io.StringIO()
    if entry == "sweep":
        axis = data.draw(st.sampled_from(sorted(SWEEP_AXES)).flatmap(
            lambda a: rarely(a, names(a))))
        value = (FLOATS | INTS | st.text(max_size=12)
                 | st.frozensets(names(*CONTEXT_FIELDS), max_size=3))
        template = drawn_template(data, axis, trace_path, os.path.join(tmp, "sweep"))
        return sweep(template, axis, data.draw(st.none() | st.lists(value, max_size=3)))
    if entry == "export_sft":
        return export_sft(trace, drawn_plan(data, trace), drawn_prompt(data), out,
                          scan_rssi=data.draw(FLOATS))
    if entry == "export_preferences":
        return export_preferences(
            trace, drawn_plan(data, trace),
            data.draw(names(REJECTED_LEGACY, REJECTED_HEURISTIC, REJECTED_SECOND_BEST)),
            drawn_prompt(data), out, seed=data.draw(INTS), scan_rssi=data.draw(FLOATS))
    if entry == "solve_plan":
        return solve_plan(trace, data.draw(names(OBJECTIVE_MIN_HO, OBJECTIVE_MAX_RSSI)),
                          data.draw(FLOATS))
    reports = drawn_reports(data, trace_path, tmp)
    if entry == "compare":
        return compare(reports).render()
    if entry == "emit_plot_data" and reports:
        obj = compare(reports) if data.draw(st.booleans()) else data.draw(st.sampled_from(reports))
        return emit_plot_data(obj, os.path.join(tmp, "plots"))
    return reports  # read_report: drawn_reports read each report file


class TestEntryPointTotality:
    """The other public entry points, like run_experiment: on drawn settings and
    small traces, each returns or raises RoamsimError. Every file they read exists;
    refusing a path is the OS's OSError, as for run_experiment."""

    @pytest.mark.parametrize("entry", ["sweep", "export_sft", "export_preferences",
                                       "solve_plan", "compare", "read_report",
                                       "emit_plot_data"])
    @settings(max_examples=60, deadline=None)
    @given(trace=parsed_traces(), data=st.data())
    def test_returns_or_raises_a_roamsim_error(self, entry, trace, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(trace_to_jsonl(trace))
            try:
                _call(entry, data, trace, path, tmp)
            except RoamsimError:
                pass


# ---------------------------------------------------------------------------
# Golden reports: every report field except the config echo (and the
# seedprint hashed from it) is pinned to a digest, so a refactor of the run
# pipeline cannot move a number, a log entry or a label unnoticed.

def _golden_config(name: str, url: str, tmp_path) -> ExperimentConfig:
    llm = dict(kind="llm", mock=MockRule.argmax_rssi())
    threshold = dict(task="threshold", interval=20)
    if name == "trace-file":
        path = tmp_path / "golden.jsonl"
        path.write_text(trace_to_jsonl(generate_synthetic(band_synth(seed=72, duration=120))))
        return ExperimentConfig(policy=PolicySpec(kind="opt_ho"), trace_path=str(path))
    spec, kw = {
        "heuristic": (dict(kind="heuristic", seed=3), {}),
        "legacy": (dict(kind="legacy"), {}),
        "fixed-ap-select": (dict(kind="fixed", fixed_dbm=-65.0), {}),
        "fixed-threshold": (dict(kind="fixed", fixed_dbm=-72.0), threshold),
        "opt-ho": (dict(kind="opt_ho"), {}),
        "opt-rssi": (dict(kind="opt_rssi"), {}),
        "llm-ap-select": (llm, {}),
        "llm-threshold": (dict(kind="llm", mock=MockRule.fixed_threshold(-66.0)), threshold),
        "llm-shots-holdout": (dict(llm, prompt=PromptConfig(shots=2)), {}),
        "llm-faults": (dict(kind="llm", mock=MockRule.fail_after(10)), {}),
        "legacy-holdout": (dict(kind="legacy"), dict(holdout=True)),
        "score-against": (dict(kind="legacy"), dict(score_against="opt_rssi")),
        "llm-score-against": (llm, dict(score_against="opt_ho")),
        "hysteresis": (dict(kind="legacy"), dict(hysteresis="standard-80211")),
        "llm-http": (
            dict(kind="llm", endpoint=EndpointConfig(base_url=url, model="m",
                                                     timeout_ms=10_000.0, backoff_ms=5.0)),
            {},
        ),
        "external-http": (dict(kind="external", external_url=url + "/decide"), {}),
    }[name]
    return cfg_for(PolicySpec(**spec), duration=120, **kw)


GOLDEN_REPORT_SHA256 = {
    "heuristic": "32152ee3ee79a7f7abe51f93d5ff42a2b63647c76c178dc18540ed5a63c1d7f1",
    "legacy": "e35ae61b9e86656dec97524dfa9be602b571448711cde59664652364a69ec702",
    "fixed-ap-select": "a251bc8ebfdcc10812be2eab37592d547aa5ae0c088974568c88ec7a2e8a4a9b",
    "fixed-threshold": "d825ac596109a27ea9dc53d2fa8edefb94eb283e7a9aa7854090f1aad7656fa4",
    "opt-ho": "35050e909cd9e6e8220a16d92723098f193d6d11bb3e66fac81923f0c3f8b1b9",
    "opt-rssi": "ac0761084619762c96a2bf9987282a62459c37abb946d7647b8b3351097cbb94",
    "llm-ap-select": "b99dedec79d13124deaf6244aa37e66f1ca303da32e3ba14126ebfaf784d1059",
    "llm-threshold": "ac6cb6716ab0402e0587c88417c875a1af53d6c359fc24e0fd0f8a105f545f7a",
    "llm-shots-holdout": "cff6ed0d8c2d04f263e8f16ce754182709099bd1568bf19caa233f7069db803b",
    "llm-faults": "6ce1c9daf60e5a0316d3c8cfc707d2f4a415971fdbde1db76ab8169c9d92a882",
    "legacy-holdout": "00d6728dfbad57ba09f7a744cf023e96f26a9b0c6dbea32708e6c9d24e2cbff7",
    "score-against": "470c571575a9ce6934dcfd66a4022537b272d931bbb3bbf602076373ac59c0da",
    "llm-score-against": "28e9860f16e5d7b5051b54a435805d1cb49726fec323c4841ba7ee0161a0ddae",
    "hysteresis": "d3d0ff2622d9e0cbc74539216c744c079d5687a8e9f1a8537119a5fa2be33b90",
    "llm-http": "b99dedec79d13124deaf6244aa37e66f1ca303da32e3ba14126ebfaf784d1059",
    "external-http": "d5490c34391a3737b29bb9e1035294a08be0c47c666a6ae86bb85f4c2186c13d",
    "trace-file": "f1e287f0bce603ad5a936023b2ed8997ec01239aa13a107e36dece60b9e1433a",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORT_SHA256))
def test_golden_report(name, loopback, tmp_path):
    report = run_experiment(_golden_config(name, loopback(roam=True).url, tmp_path))
    kept = {
        k: v for k, v in strip_volatile(report.to_dict()).items()
        if k not in ("config", "seedprint")
    }
    digest = hashlib.sha256(json.dumps(kept, sort_keys=True).encode("utf-8")).hexdigest()
    assert digest == GOLDEN_REPORT_SHA256[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORT_SHA256))
def test_golden_log_roams_exactly_where_it_names_a_target(name, loopback, tmp_path):
    report = run_experiment(_golden_config(name, loopback(roam=True).url, tmp_path))
    actions = [(e["action"], e["target"] is not None) for e in report.decision_log]
    assert actions and set(actions) <= {("roam", True), ("stay", False)}


# Written report files, in their own key order with the config echo and
# seedprint kept. Only fixtures whose config holds no path or port qualify.
GOLDEN_REPORT_FILE_SHA256 = {
    "fixed-ap-select": "6fd37e3f46875983c0c3258a85de58e171ac52e4773fd63b51f3e930a172e8e2",
    "fixed-threshold": "640279c6198bea67a1397af09e01275585aa7ed9a455cf9f07abc20b36cc4b84",
    "heuristic": "c24d4a5a682dcffc5c13f7da5418db7e3d12a11b17c3be48e8ecf35cda188d82",
    "hysteresis": "f3d314a34c484e0d65750697245756f4b04dfea9aa659c2e0a918055056afc4d",
    "legacy": "cb2e37cca4527ed81ba7ebeeaf8e927a6e1de04b12bd26863b874b955c16ebc7",
    "legacy-holdout": "cf5e438ca7b45c641a00befd43ba28cfb9d0bdb536f10276e6cc200f8c3c76ff",
    "llm-ap-select": "3a1dbdf1a49c258fe4bc00dded2cf02f6c6f2bf7d92be690d83b9ad36f507b9d",
    "llm-faults": "e970944129358c2e27d64400ecb97f3d8b0c70779124fbe1cfbc13a222e621e3",
    "llm-score-against": "8a37c9aa59cfa88e46ed4f0aba067b3e1046a1dfff7158b56dfbf3d9da412924",
    "llm-shots-holdout": "d010f929edf987a78d85106e3bb2db81c61f54b6e6d23b0e7479adeab43a8464",
    "llm-threshold": "42aba715e332a9a81796a3ba19f39b44f11533622776262a311d596874ef1167",
    "opt-ho": "11858ab015b486898377829d41653e76d50f3253aa45169fd37102929a3dd463",
    "opt-rssi": "82856be78985f4af280c63e8f5a83559691df653edcda6f0a58385a61cf0cf3e",
    "score-against": "bacec634b1fc0175e362d39a1f2e6c54e6c0ac195e58cdd5540b340f46eee639",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORT_FILE_SHA256))
def test_golden_report_file(name, tmp_path):
    report = run_experiment(_golden_config(name, "", tmp_path))
    with open(write_report(report, str(tmp_path)), "rb") as fh:
        raw = fh.read()
    # The file's own bytes, which the digest below, taken after a reload, cannot see.
    assert raw == (json.dumps(report.to_dict(), indent=2) + "\n").encode("ascii")
    d = json.loads(raw)
    d["wall_clock_ms"] = 0
    d["latency"] = strip_volatile(d)["latency"]
    digest = hashlib.sha256(json.dumps(d, indent=2).encode("utf-8")).hexdigest()
    assert digest == GOLDEN_REPORT_FILE_SHA256[name]


# The report files sweep writes, one per axis value, hashed as above.
GOLDEN_SWEEP_FILE_SHA256 = {
    "threshold": {
        "report_fixed_-50__threshold_-50.0.json":
            "32f24f529d4d9e3ebe3beb420759a57630439b1f35f442cd76ef81b9c2ee9145",
        "report_fixed_-60__threshold_-60.0.json":
            "273c3db056c83d43a05a0b194e1b001edbccf31ce5178da4ae1fdf49e123d593",
        "report_fixed_-70__threshold_-70.0.json":
            "018ea16ebf9aee6bdba8b6ccd23433b8cc61ad90007e5e23fb6cf13e56d7d2de",
        "report_fixed_-80__threshold_-80.0.json":
            "e25a70a15e5bf8ebc0097fffd32d4234bc71f752ccd23f64effd0aca6acfc75f",
    },
    "context_fields": {
        "report_llm_context_fields___.json":
            "492693bba3821009c6925d33ddb392d11f99a961bbae8b7111c792cab50830bd",
        "report_llm_context_fields___battery____location__.json":
            "7651704cc2e61202e6c91b1817a19a17d5a51d1d36754ecfe13cdfe33d543641",
        "report_llm_context_fields___battery____location____time__.json":
            "65d80b0b86fcdac6f037baec22a1cd26bd1d8e797d91ae4790c35e5169cafd2a",
        "report_llm_context_fields___battery____time__.json":
            "48ece9e4d0dd34cc900f466402ca639254364fe1a529ff366ecbb3c17e52612b",
        "report_llm_context_fields___location____time__.json":
            "650fd64ac78e71a6f4c3d72e91a8ac4632c7dc4989757b1a7b50c2581c7ccfb3",
    },
    "shots": {
        "report_llm_shots_0.json":
            "68a9f93edd8fc4f8efedf549f95b2fd3edbb7237ac74135a56fe4cffbc707bc5",
        "report_llm_shots_1.json":
            "ade2a0f719139159c1d4108b80ca209978e3b743cad8a7538c077cc4c09fadf4",
        "report_llm_shots_5.json":
            "7a61c6c6681951e49434be45ef2217500147eadcf202a81c73d9cba61e12034a",
    },
}


@pytest.mark.parametrize("axis", sorted(GOLDEN_SWEEP_FILE_SHA256))
def test_golden_sweep_files(axis, tmp_path):
    template = cfg_for(PolicySpec(kind="llm", mock=MockRule.argmax_rssi()), duration=80,
                       out_dir=str(tmp_path))
    reports = sweep(template, axis)
    digests, raws = {}, []
    for name in sorted(os.listdir(tmp_path)):
        with open(tmp_path / name, "rb") as fh:
            raws.append(fh.read())
        d = json.loads(raws[-1])
        d["wall_clock_ms"] = 0
        d["latency"] = strip_volatile(d)["latency"]
        digests[name] = hashlib.sha256(json.dumps(d, indent=2).encode("utf-8")).hexdigest()
    assert digests == GOLDEN_SWEEP_FILE_SHA256[axis]
    assert sorted(raws) == sorted(
        (json.dumps(r.to_dict(), indent=2) + "\n").encode("ascii") for r in reports)


class _Int(int):
    pass


class _Float(float):
    pass


# Values of exactly the types json writes, NaN, the infinities and -0.0 among
# the floats, and strings that need escapes; then values of other types.
_PLAIN = st.one_of(
    st.none(), st.booleans(), st.integers(-2**200, 2**200),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.text(), st.text(st.characters(max_codepoint=0x1f)), st.just("\u00e9\u2028\U0001f4f6"),
)
_ODD = st.one_of(
    st.builds(_Int, st.integers()), st.builds(_Float, st.floats()),
    st.lists(_PLAIN, max_size=3), st.dictionaries(st.text(), _PLAIN, max_size=3),
)
_FLAT_ENTRIES = st.dictionaries(st.text(), _PLAIN)  # as a report's log entries are
_ENTRIES = st.one_of(
    _FLAT_ENTRIES, _PLAIN, _ODD,
    st.dictionaries(st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none()),
                    st.one_of(_PLAIN, _ODD)),
)
_REPORT_SHAPED = st.dictionaries(st.text(), st.one_of(
    _PLAIN, _ODD, st.lists(_FLAT_ENTRIES), st.lists(_ENTRIES),
    st.dictionaries(st.text(), _ENTRIES)))


@settings(max_examples=300, deadline=None)
@example({"decision_log": [{"t": 0, "rssi": -60.5}, {"rssi": math.nan}, {"rssi": -math.inf}]})
@given(d=_REPORT_SHAPED)
def test_report_chunks_join_to_json_dumps(d):
    """The writer's pieces make json.dumps's text, whether an entry takes the
    writer's own rendering or falls back to json.dumps."""
    assert "".join(_report_chunks(d)) == json.dumps(d, indent=2)


# ---------------------------------------------------------------------------
# HTTP transport: one kept-alive connection per run, released when the run ends.

@pytest.fixture
def keepalive(loopback):
    return loopback(roam=True, protocol="HTTP/1.1")


def _http_spec(kind: str, url: str) -> PolicySpec:
    if kind == "external":
        return PolicySpec(kind="external", external_url=url + "/decide")
    return PolicySpec(kind="llm", endpoint=EndpointConfig(base_url=url, model="m"))


def test_external_run_reuses_one_connection(keepalive):
    run_experiment(cfg_for(_http_spec("external", keepalive.url), duration=120))
    ports = [client for _, client in keepalive.posts]
    assert len(ports) > 1
    assert len(set(ports)) == 1


@pytest.mark.parametrize("kind", ["external", "llm"])
def test_run_leaves_no_session_alive(keepalive, kind):
    def connections():
        return sum(isinstance(o, JsonConnection) for o in gc.get_objects())

    gc.collect()
    gc.disable()  # a connection kept alive by a reference cycle would outlive the run
    try:
        before = connections()
        run_experiment(cfg_for(_http_spec(kind, keepalive.url), duration=120))
        after = connections()
    finally:
        gc.enable()
    assert keepalive.posts
    assert after == before


@pytest.mark.parametrize("kind", ["external", "llm"])
def test_run_closes_its_connection(keepalive, kind, monkeypatch):
    opened_at_close = []
    real = JsonConnection.close

    def recording(self):
        opened_at_close.append(self._sock is not None)
        real(self)

    monkeypatch.setattr(JsonConnection, "close", recording)
    run_experiment(cfg_for(_http_spec(kind, keepalive.url), duration=120))
    assert opened_at_close[-1]  # the run's last act on it closed an open connection


@pytest.mark.parametrize("synth, policy", [
    # timestamps past year 9999, which the llm prompt clock cannot render
    (SynthConfig(num_aps=2, duration=3, base_dbm=(-60.0, -80.0), sample_interval=10**12),
     PolicySpec(kind="llm", mock=MockRule.argmax_rssi())),
    (SynthConfig(num_aps=0), PolicySpec(kind="legacy")),
], ids=["far-timestamps", "no-aps"])
def test_bad_synth_config_is_a_config_error(synth, policy):
    cfg = ExperimentConfig(policy=policy, synth=synth, scan_rssi=-50.0)
    with pytest.raises(ConfigError):
        run_experiment(cfg)


# perfbench/tests cannot run in the same pytest session as this suite (their
# conftest modules clash), so this is where renaming a traced function fails.
def test_benchmark_trace_points_resolve(monkeypatch):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer_module)  # dataclasses looks it up
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    assert tracer.missing == set()
    cfg = cfg_for(PolicySpec(kind="legacy"), duration=40)
    tracer.install()
    try:
        report = run_experiment(cfg)
    finally:
        tracer.uninstall()
    trace = generate_synthetic(cfg.synth)
    assert len(run_policy(trace, legacy_decide).steps) == len(trace.samples)
    spans = [s for s in tracer.spans if s.name == "roaming.run_policy"]
    assert [s.data for s in spans] == [len(trace.samples)] == [len(report.decision_log)]
