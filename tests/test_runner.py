"""Run orchestration: reports, self-verification, comparison, sweeps."""

from __future__ import annotations

import gc
import hashlib
import importlib.util
import json
import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from conftest import MAC_A, MAC_B, band_synth, make_trace
from roamsim.agent import PromptConfig
from roamsim.errors import ConfigError, DataError, EndpointError
from roamsim.gateway import EndpointConfig, JsonConnection, MockRule, prompt_argmax_bssid
from roamsim.policies import legacy_decide
from roamsim.roaming import initial_association, rssi_of, run_policy, should_scan
from roamsim.runner import (
    ExperimentConfig,
    PolicySpec,
    compare,
    emit_plot_data,
    read_report,
    recompute_metrics,
    run_experiment,
    strip_volatile,
    sweep,
    trace_content_hash,
    verify_report,
    write_report,
)
from roamsim.trace import SynthConfig, generate_synthetic, trace_to_jsonl


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

    def test_report_write_and_read_roundtrip(self, tmp_path):
        cfg = cfg_for(PolicySpec(kind="legacy"), out_dir=str(tmp_path))
        report = run_experiment(cfg)
        path = tmp_path / "report_legacy.json"
        assert path.exists()
        loaded = read_report(str(path))
        assert loaded == report.to_dict()
        assert verify_report(loaded)


class _ConstantReplyHandler(BaseHTTPRequestHandler):
    reply_text = "ANSWER: AA:00:00:00:00:99"

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        data = json.dumps({"choices": [{"message": {"content": self.reply_text}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class TestLiveEndpointIntegration:
    def test_llm_policy_over_real_http(self):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _ConstantReplyHandler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            endpoint = EndpointConfig(
                base_url=f"http://127.0.0.1:{server.server_address[1]}",
                model="m", timeout_ms=2000.0, backoff_ms=5.0,
            )
            report = run_experiment(
                cfg_for(PolicySpec(kind="llm", endpoint=endpoint), duration=60)
            )
            # every consulted step named an absent AP: all invalid, legacy fallback
            assert report.metrics["error_rate"] in (None, 1.0)
            assert report.latency["failures"] == 0
            assert verify_report(report)
        finally:
            server.shutdown()
            server.server_close()

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

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match="unknown sweep axis"):
            sweep(cfg_for(PolicySpec(kind="legacy")), "nonsense")

    def test_axis_policy_conflicts_rejected(self):
        with pytest.raises(ConfigError, match="needs an llm policy"):
            sweep(cfg_for(PolicySpec(kind="legacy")), "shots")


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


# ---------------------------------------------------------------------------
# Golden reports: every report field except the config echo (and the
# seedprint hashed from it) is pinned to a digest, so a refactor of the run
# pipeline cannot move a number, a log entry or a label unnoticed.

class _LoopbackHandler(BaseHTTPRequestHandler):
    """Chat completions name the prompt's strongest AP; /decide roams to the
    strongest AP of the newest sample."""

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if self.path == "/decide":
            scan = body["window"][-1]["scan"]
            best = min(scan, key=lambda e: (-e["rssi_dbm"], e["bssid"]))
            payload = {"action": "roam", "bssid": best["bssid"]}
        else:
            pick = prompt_argmax_bssid(body["messages"][0]["content"])
            payload = {"choices": [{"message": {"content": f"ANSWER: {pick}"}}]}
        data = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def loopback_url():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _LoopbackHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


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
def test_golden_report(name, loopback_url, tmp_path):
    report = run_experiment(_golden_config(name, loopback_url, tmp_path))
    kept = {
        k: v for k, v in strip_volatile(report.to_dict()).items()
        if k not in ("config", "seedprint")
    }
    digest = hashlib.sha256(json.dumps(kept, sort_keys=True).encode("utf-8")).hexdigest()
    assert digest == GOLDEN_REPORT_SHA256[name]


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
    with open(write_report(report, str(tmp_path)), encoding="utf-8") as fh:
        d = json.load(fh)
    d["wall_clock_ms"] = 0
    d["latency"] = strip_volatile(d)["latency"]
    digest = hashlib.sha256(json.dumps(d, indent=2).encode("utf-8")).hexdigest()
    assert digest == GOLDEN_REPORT_FILE_SHA256[name]


# ---------------------------------------------------------------------------
# HTTP transport: one kept-alive connection per run, released when the run ends.

class _KeepAliveHandler(_LoopbackHandler):
    protocol_version = "HTTP/1.1"
    client_ports: list[int] = []

    def do_POST(self):
        self.client_ports.append(self.client_address[1])
        super().do_POST()


@pytest.fixture
def keepalive_url():
    _KeepAliveHandler.client_ports.clear()
    server = ThreadingHTTPServer(("127.0.0.1", 0), _KeepAliveHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def _http_spec(kind: str, url: str) -> PolicySpec:
    if kind == "external":
        return PolicySpec(kind="external", external_url=url + "/decide")
    return PolicySpec(kind="llm", endpoint=EndpointConfig(base_url=url, model="m"))


def test_external_run_reuses_one_connection(keepalive_url):
    run_experiment(cfg_for(_http_spec("external", keepalive_url), duration=120))
    ports = _KeepAliveHandler.client_ports
    assert len(ports) > 1
    assert len(set(ports)) == 1


@pytest.mark.parametrize("kind", ["external", "llm"])
def test_run_leaves_no_session_alive(keepalive_url, kind):
    def connections():
        return sum(isinstance(o, JsonConnection) for o in gc.get_objects())

    gc.collect()
    gc.disable()  # a connection kept alive by a reference cycle would outlive the run
    try:
        before = connections()
        run_experiment(cfg_for(_http_spec(kind, keepalive_url), duration=120))
        after = connections()
    finally:
        gc.enable()
    assert _KeepAliveHandler.client_ports
    assert after == before


@pytest.mark.parametrize("kind", ["external", "llm"])
def test_run_closes_its_connection(keepalive_url, kind, monkeypatch):
    opened_at_close = []
    real = JsonConnection.close

    def recording(self):
        opened_at_close.append(self._conn is not None)
        real(self)

    monkeypatch.setattr(JsonConnection, "close", recording)
    run_experiment(cfg_for(_http_spec(kind, keepalive_url), duration=120))
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
