"""CLI subcommands and exit codes (0 ok, 1 config, 2 data, 3 endpoint)."""

from __future__ import annotations

import json

import pytest

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
    ], ids=["infinity", "1e400", "not-utf8"])
    def test_unreadable_trace_is_a_data_error(self, tmp_path, capsys, data):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(data)
        assert main(["simulate", "--trace", str(bad), "--policy", "legacy"]) == 2
        assert capsys.readouterr().err.startswith("data error:")

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
