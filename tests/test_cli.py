"""CLI subcommands and exit codes (0 ok, 1 config, 2 data, 3 endpoint)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

import roamsim
from roamsim.cli import main


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.jsonl"
    rc = main([
        "gen-trace", "--num-aps", "3", "--duration", "80", "--seed", "5",
        "--base=-58,-68,-76", "--stddev", "4", "-o", str(path),
    ])
    assert rc == 0
    return path


class TestGenTrace:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert main(["gen-trace", "--seed", "3", "--duration", "40", "-o", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_config_exits_1(self, tmp_path):
        rc = main(["gen-trace", "--num-aps", "0", "-o", str(tmp_path / "x.jsonl")])
        assert rc == 1

    def test_timestamps_past_year_9999_exit_1_without_a_file(self, tmp_path, capsys):
        out = tmp_path / "far.jsonl"
        rc = main(["gen-trace", "--duration", "3", "--sample-interval", str(10**12),
                   "-o", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()


class _EmptyListHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", "2")
        self.end_headers()
        self.wfile.write(b"[]")

    def log_message(self, *args):
        pass


class TestSimulate:
    def test_legacy_run_writes_report(self, trace_file, tmp_path, capsys):
        out = tmp_path / "runs"
        rc = main(["simulate", "--trace", str(trace_file), "--policy", "legacy",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "report_legacy.json").exists()
        assert "#HO=" in capsys.readouterr().out

    def test_llm_mock_run(self, trace_file, tmp_path):
        rc = main(["simulate", "--trace", str(trace_file), "--policy", "llm",
                   "--mock", "argmax", "--out", str(tmp_path / "runs")])
        assert rc == 0

    def test_threshold_task_with_interval(self, trace_file, tmp_path):
        rc = main(["simulate", "--trace", str(trace_file), "--task", "threshold",
                   "--policy", "llm", "--mock", "fixed:-70", "--interval", "30",
                   "--out", str(tmp_path / "runs")])
        assert rc == 0

    def test_missing_policy_exits_1(self, trace_file):
        assert main(["simulate", "--trace", str(trace_file)]) == 1

    def test_interval_on_ap_select_exits_1(self, trace_file):
        rc = main(["simulate", "--trace", str(trace_file), "--policy", "legacy",
                   "--interval", "30"])
        assert rc == 1

    def test_malformed_trace_exits_2(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"t":5,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}]}\n'
                       '{"t":3,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}]}\n')
        assert main(["simulate", "--trace", str(bad), "--policy", "legacy"]) == 2

    @pytest.mark.parametrize("data", [
        b'{"t":0,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}]}\n'
        b'{"t":Infinity,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}]}\n',
        b'{"t":1e400,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}]}\n',
        b'{"t":0,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}],"activity":"\xc3"}\n',
        b'{"t":0,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":false}]}\n',
        b'{"t":0,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}],"battery_pct":true}\n',
    ], ids=["infinity", "1e400", "not-utf8", "bool-rssi", "bool-battery"])
    def test_unreadable_trace_is_a_data_error(self, tmp_path, capsys, data):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(data)
        assert main(["simulate", "--trace", str(bad), "--policy", "legacy"]) == 2
        assert capsys.readouterr().err.startswith("data error:")

    def test_timestamp_beyond_year_9999_is_a_data_error(self, tmp_path, capsys):
        # assoc on the weaker AP, so the threshold prompt renders both rows
        scan = '"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60},' \
               '{"bssid":"aa:00:00:00:00:02","rssi_dbm":-75}]'
        bad = tmp_path / "far.jsonl"
        bad.write_text(f'{{"t":0,{scan},"assoc":"aa:00:00:00:00:02"}}\n{{"t":1e20,{scan}}}\n')
        rc = main(["simulate", "--trace", str(bad), "--task", "threshold", "--policy", "llm",
                   "--mock", "argmax", "--window-k", "2"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("data error:")

    def test_external_non_object_replies_exit_0(self, trace_file, tmp_path, capsys):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _EmptyListHandler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}/decide"
            rc = main(["simulate", "--trace", str(trace_file), "--policy", "external",
                       "--external-url", url, "--out", str(tmp_path / "runs")])
        finally:
            server.shutdown()
        assert rc == 0
        assert "policy=external" in capsys.readouterr().out

    def test_missing_file_exits_2(self):
        assert main(["simulate", "--trace", "/nonexistent.jsonl", "--policy", "legacy"]) == 2

    def test_template_override_flows_to_prompts(self, trace_file, tmp_path):
        tpl = tmp_path / "tpl.txt"
        tpl.write_text(
            "[preamble.ap_select]\nCUSTOM PREAMBLE {associated} {threshold}\n",
            encoding="utf-8",
        )
        sft = tmp_path / "sft.jsonl"
        rc = main(["export", "--trace", str(trace_file), "--kind", "sft",
                   "--template", str(tpl), "-o", str(sft)])
        assert rc == 0
        first = json.loads(sft.read_text().splitlines()[0])
        assert first["prompt"].startswith("CUSTOM PREAMBLE")
        # simulate accepts the same override
        rc = main(["simulate", "--trace", str(trace_file), "--policy", "llm",
                   "--mock", "argmax", "--template", str(tpl)])
        assert rc == 0

    def test_config_file_with_flag_override(self, trace_file, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text(
            f"[trace]\nfile = {trace_file}\n"
            "[task]\ntask = ap_select\nscan_rssi = -70\n"
            "[policy]\npolicy = heuristic\nseed = 9\n",
            encoding="utf-8",
        )
        assert main(["simulate", "--config", str(ini)]) == 0
        assert "heuristic" in capsys.readouterr().out
        # flag overrides the config's policy
        assert main(["simulate", "--config", str(ini), "--policy", "legacy"]) == 0
        assert "legacy" in capsys.readouterr().out


class TestOracleExport:
    def test_oracle_plan_json(self, trace_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        rc = main(["oracle", "--trace", str(trace_file), "--objective", "min-ho",
                   "-o", str(plan_path)])
        assert rc == 0
        plan = json.loads(plan_path.read_text())
        assert plan["objective"] == "min_ho"
        assert len(plan["plan"]) == 80

    def test_oracle_brute_force_small(self, tmp_path, capsys):
        small = tmp_path / "small.jsonl"
        main(["gen-trace", "--num-aps", "2", "--duration", "6", "--seed", "1",
              "-o", str(small)])
        rc = main(["oracle", "--trace", str(small), "--objective", "max-rssi",
                   "--brute-force"])
        assert rc == 0
        assert '"objective_value"' in capsys.readouterr().out

    def test_export_sft_and_preferences(self, trace_file, tmp_path, capsys):
        sft = tmp_path / "sft.jsonl"
        rc = main(["export", "--trace", str(trace_file), "--kind", "sft",
                   "-o", str(sft)])
        assert rc == 0
        assert len(sft.read_text().splitlines()) == 80
        dpo = tmp_path / "dpo.jsonl"
        rc = main(["export", "--trace", str(trace_file), "--kind", "preferences",
                   "--rejected", "second_best", "-o", str(dpo)])
        assert rc == 0

    def test_export_with_precomputed_plan(self, trace_file, tmp_path):
        plan_path = tmp_path / "plan.json"
        main(["oracle", "--trace", str(trace_file), "--objective", "min-ho",
              "-o", str(plan_path)])
        out = tmp_path / "sft.jsonl"
        rc = main(["export", "--trace", str(trace_file), "--kind", "sft",
                   "--plan", str(plan_path), "-o", str(out)])
        assert rc == 0


# A well-typed hand-written report, and one-field edits of it that compare and
# plot-data must reject as data errors.
HAND_REPORT = {"policy": "p", "scenario": "s", "trace_hash": "ab", "latency": None,
               "metrics": {"handovers": 3, "avg_rssi_dbm": -61, "error_rate": 0}}


def _edited(key: str, value) -> str:
    d = json.loads(json.dumps(HAND_REPORT))
    owner = d["metrics"] if key in d["metrics"] else d
    owner[key] = value
    return json.dumps(d)


MALFORMED_REPORTS = {
    "empty-object": "{}",
    "list": "[]",
    "not-json": "{not",
    "latency-list": _edited("latency", [1]),
    "latency-mean-string": _edited("latency", {"mean_ms": "1.5"}),
    "trace-hash-list": _edited("trace_hash", ["ab"]),
    "handovers-string": _edited("handovers", "3"),
    "handovers-bool": _edited("handovers", True),
    "handovers-float": _edited("handovers", 3.0),
    "avg-rssi-string": _edited("avg_rssi_dbm", "-61.5"),
    "avg-rssi-null": _edited("avg_rssi_dbm", None),
    "avg-rssi-bool": _edited("avg_rssi_dbm", False),
    "error-rate-string": _edited("error_rate", "0.1"),
    "error-rate-bool": _edited("error_rate", True),
}


class TestCompareAndPlot:
    def _two_reports(self, trace_file, tmp_path):
        out = tmp_path / "runs"
        main(["simulate", "--trace", str(trace_file), "--policy", "legacy",
              "--out", str(out)])
        main(["simulate", "--trace", str(trace_file), "--policy", "opt-ho",
              "--out", str(out)])
        return out / "report_legacy.json", out / "report_opt-ho.json"

    def test_compare_renders_table(self, trace_file, tmp_path, capsys):
        a, b = self._two_reports(trace_file, tmp_path)
        csv_out = tmp_path / "cmp.csv"
        rc = main(["compare", str(a), str(b), "-o", str(csv_out)])
        assert rc == 0
        assert "AvgRSSI" in capsys.readouterr().out
        assert csv_out.read_text().startswith("policy,")

    def test_compare_single_report_exits_2(self, trace_file, tmp_path):
        a, _ = self._two_reports(trace_file, tmp_path)
        assert main(["compare", str(a)]) == 2

    def test_plot_data_emits_csvs(self, trace_file, tmp_path):
        a, b = self._two_reports(trace_file, tmp_path)
        plots = tmp_path / "plots"
        rc = main(["plot-data", str(a), str(b), "--out", str(plots)])
        assert rc == 0
        assert (plots / "ho.csv").exists()
        assert (plots / "avg_rssi.csv").exists()

    @pytest.mark.parametrize("command", ["compare", "plot-data"])
    @pytest.mark.parametrize("text", list(MALFORMED_REPORTS.values()), ids=list(MALFORMED_REPORTS))
    def test_malformed_report_is_a_data_error(self, tmp_path, capsys, command, text):
        bad = tmp_path / "x.json"
        bad.write_text(text)
        argv = [command, str(bad), str(bad)]
        if command == "plot-data":
            argv += ["--out", str(tmp_path / "plots")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert str(bad) in err

    @pytest.mark.parametrize("latency", [None, {"mean_ms": None}, {"mean_ms": 2.5}])
    @pytest.mark.parametrize("error_rate", [None, 0, 0.25])
    def test_well_typed_report_compares(self, tmp_path, capsys, latency, error_rate):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({**HAND_REPORT, "latency": latency,
                                    "metrics": {**HAND_REPORT["metrics"],
                                                "error_rate": error_rate}}))
        assert main(["compare", str(path), str(path)]) == 0
        assert "-61.00" in capsys.readouterr().out


class TestSweepCommand:
    def test_interval_sweep(self, trace_file, tmp_path, capsys):
        rc = main(["sweep", "--trace", str(trace_file), "--task", "threshold",
                   "--policy", "llm", "--mock", "fixed:-70", "--axis", "interval",
                   "--values", "10,40", "--out", str(tmp_path / "sweeps")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "interval=10" in out and "interval=40" in out
        assert (tmp_path / "sweeps" / "comparison.csv").exists()

    def test_threshold_sweep_default_values(self, trace_file, capsys):
        rc = main(["sweep", "--trace", str(trace_file), "--policy", "legacy",
                   "--axis", "threshold"])
        assert rc == 0
        assert "threshold=-80.0" in capsys.readouterr().out


class TestBenchLatency:
    def test_mock_bench(self, capsys):
        rc = main(["bench-latency", "--mock", "fixed:-70", "--n", "10"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["count"] == 10
        assert summary["failures"] == 0

    def test_unreachable_endpoint_exits_3(self):
        rc = main(["bench-latency", "--endpoint-url", "http://127.0.0.1:1",
                   "--n", "1"])
        assert rc == 3

    def test_missing_target_exits_1(self):
        assert main(["bench-latency", "--n", "1"]) == 1


def test_import_loads_no_http_library():
    # a fresh interpreter, so modules the test run imported do not count
    src = os.path.dirname(os.path.dirname(roamsim.__file__))
    code = (
        "import sys, roamsim, roamsim.cli\n"
        "print(sorted(m for m in ('requests', 'urllib3') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "[]"
