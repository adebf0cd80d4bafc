"""CLI subcommands and exit codes (0 ok, 1 config, 2 data, 3 endpoint)."""

from __future__ import annotations

import argparse
import ast
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import roamsim
from conftest import trace_to_csv
from roamsim.cli import _EXPERIMENT_SETTINGS, _experiment_config, build_parser, main
from roamsim.runner import _jsonable, run_experiment, strip_volatile, sweep
from roamsim.trace import SYNTH_MAX_APS, parse_trace


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

    @pytest.mark.parametrize("flags", [["--stddev", "nan"], ["--stddev", "inf"],
                                       ["--base", "nan"], ["--base=-60,nan"],
                                       ["--battery-drain", "nan"], ["--battery-drain", "inf"]])
    def test_non_finite_settings_exit_1_without_a_file(self, tmp_path, capsys, flags):
        out = tmp_path / "walk.jsonl"
        rc = main(["gen-trace", "--num-aps", "2", *flags, "-o", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()


@pytest.mark.parametrize("num_aps", [SYNTH_MAX_APS + 1, 10**20])
@pytest.mark.parametrize("argv", [
    ["gen-trace", "--duration", "1", "-o", "walk.jsonl", "--num-aps"],
    ["simulate", "--policy", "legacy", "--synth-duration", "1", "--out", "out", "--synth-aps"],
], ids=["gen-trace", "simulate"])
def test_too_many_synthetic_aps_exit_1_without_output(tmp_path, monkeypatch, capsys, argv,
                                                      num_aps):
    # past SYNTH_MAX_APS two APs would share a BSSID
    monkeypatch.chdir(tmp_path)
    assert main([*argv, str(num_aps)]) == 1
    out, err = capsys.readouterr()
    assert err == f"config error: num_aps must be between 1 and {SYNTH_MAX_APS}\n"
    assert out == ""
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["gen-trace", "--num-aps", "2", "--duration", "20", "--floor=-150", "--ceil", "20",
     "--base=-5", "--stddev", "15", "-o", "bad.jsonl"],
    ["simulate", "--policy", "legacy", "--synth-aps", "2", "--synth-duration", "20",
     "--synth-ceil", "20", "--out", "out"],
], ids=["gen-trace", "simulate"])
def test_synthetic_range_past_0_dbm_exits_1_without_output(tmp_path, monkeypatch, capsys, argv):
    # these once wrote RSSIs above 0 dBm, which parse_trace refuses
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == ("config error: floor_dbm and ceil_dbm must satisfy "
                   "-100 <= floor_dbm < ceil_dbm <= 0\n")
    assert out == ""
    assert os.listdir(tmp_path) == []


class TestSimulate:
    def test_legacy_run_writes_report(self, trace_file, tmp_path, capsys):
        out = tmp_path / "runs"
        rc = main(["simulate", "--trace", str(trace_file), "--policy", "legacy",
                   "--out", str(out)])
        assert rc == 0
        assert (out / "report_legacy.json").exists()
        assert "#HO=" in capsys.readouterr().out

    def test_score_against_prints_the_reports_oracle_accuracy(self, tmp_path, capsys):
        out = tmp_path / "runs"
        rc = main(["simulate", "--synth-aps", "3", "--synth-duration", "40", "--policy",
                   "legacy", "--score-against", "opt_ho", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report_legacy.json").read_text(encoding="utf-8"))
        pct = report["metrics"]["oracle_accuracy_pct"]
        assert f"oracle accuracy={pct:.2f}%\n" in capsys.readouterr().out

    def test_per_ap_synthetic_bases_echo_as_a_list(self, tmp_path):
        out = tmp_path / "d"
        argv = ["simulate", "--policy", "legacy", "--synth-aps", "3",
                "--synth-base=-60,-70,-80", "--out", str(out)]
        assert main(argv) == 0
        report = json.loads((out / "report_legacy.json").read_text(encoding="utf-8"))
        assert report["config"]["synth"]["base_dbm"] == [-60.0, -70.0, -80.0]
        # the report in memory holds the list too, not the tuple the config holds
        echo = run_experiment(_experiment_config(build_parser().parse_args(argv[:-2]))).config
        assert echo["synth"]["base_dbm"] == [-60.0, -70.0, -80.0]

    @pytest.mark.parametrize("mock, line", [
        ("fail-after:0", r"llm calls=0 failures=\d+"),
        ("fail-after:3", r"llm calls=3 failures=\d+ mean=\d+\.\d ms"),
    ], ids=["no-call-answered", "some-answered"])
    def test_llm_run_prints_its_calls(self, trace_file, capsys, mock, line):
        rc = main(["simulate", "--trace", str(trace_file), "--policy", "llm", "--mock", mock,
                   "--scan-rssi", "0"])  # a model call at every step
        assert rc == 0
        assert re.fullmatch(line, capsys.readouterr().out.splitlines()[-1])

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

    @pytest.mark.parametrize("name, data", [
        ("long.csv", b"t,bssid,rssi_dbm\n0,aa:00:00:00:00:01," + b"1" * 131073 + b"\n"),
        ("deep.jsonl", b"\n" + b"[" * 100_000 + b"\n"),
        ("long-int.jsonl", b'\n{"t": ' + b"1" * 5000 + b', "scan": []}\n'),
    ], ids=["csv-field", "deep", "long-int"])
    def test_input_past_a_reader_limit_is_a_data_error(self, tmp_path, capsys, name, data):
        bad = tmp_path / name
        bad.write_bytes(data)
        assert main(["simulate", "--trace", str(bad), "--policy", "legacy"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert err.endswith(" at line 2\n")

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

    @pytest.mark.parametrize("env, argv, base_url", [
        ("http://127.0.0.1:9", ["--policy", "llm"], "http://127.0.0.1:9"),
        ("http://127.0.0.1:9", ["--policy", "llm", "--endpoint-url", "http://127.0.0.1:7"],
         "http://127.0.0.1:7"),
        ("http://127.0.0.1:9", ["--policy", "llm", "--mock", "argmax"], None),
        ("http://127.0.0.1:9", ["--policy", "legacy"], None),
        (None, ["--policy", "llm"], None),
        # env as {variable: value}, base_url as (URL, model)
        ({"ROAMSIM_LLM_BASE_URL": "http://127.0.0.1:9", "ROAMSIM_LLM_MODEL": "other"},
         ["--policy", "llm", "--model", "mine"], ("http://127.0.0.1:9", "mine")),
        ({"ROAMSIM_LLM_MODEL": "other"},
         ["--policy", "llm", "--endpoint-url", "http://127.0.0.1:7"],
         ("http://127.0.0.1:7", "other")),
        ({"ROAMSIM_LLM_BASE_URL": "http://127.0.0.1:9"}, ["--policy", "llm"],
         ("http://127.0.0.1:9", "local")),
    ], ids=["llm", "flag-wins", "mock", "legacy", "unset", "model-flag-wins", "model-from-env",
            "model-default"])
    def test_env_base_url_configures_an_llm_run_given_no_url(self, monkeypatch, env, argv,
                                                              base_url):
        env = env if isinstance(env, dict) else {"ROAMSIM_LLM_BASE_URL": env}
        for name in ("ROAMSIM_LLM_BASE_URL", "ROAMSIM_LLM_MODEL"):
            monkeypatch.delenv(name, raising=False)
            if env.get(name) is not None:
                monkeypatch.setenv(name, env[name])
        args = build_parser().parse_args(["simulate", "--trace", "t.jsonl", *argv])
        endpoint = _experiment_config(args).policy.endpoint
        if isinstance(base_url, tuple):
            assert (endpoint.base_url, endpoint.model) == base_url
        else:
            assert (endpoint and endpoint.base_url) == base_url

    def test_external_non_object_replies_exit_0(self, loopback, trace_file, tmp_path, capsys):
        url = loopback(raw_reply=b"[]").url + "/decide"
        rc = main(["simulate", "--trace", str(trace_file), "--policy", "external",
                   "--external-url", url, "--out", str(tmp_path / "runs")])
        assert rc == 0
        assert "policy=external" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "1e400"])
    def test_non_finite_fixed_mock_exits_1(self, trace_file, capsys, value):
        # both once ran to exit 0
        rc = main(["simulate", "--trace", str(trace_file), "--task", "threshold",
                   "--policy", "llm", "--mock", f"fixed:{value}"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "config error: mock rule fixed_threshold: value must be a finite number")

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

    def test_template_with_unknown_field_exits_1(self, trace_file, tmp_path, capsys):
        tpl = tmp_path / "tpl.txt"
        tpl.write_text("[row]\nROW {bogus}\n", encoding="utf-8")
        rc = main(["export", "--trace", str(trace_file), "--kind", "sft",
                   "--template", str(tpl), "-o", str(tmp_path / "sft.jsonl")])
        assert rc == 1
        rc = main(["simulate", "--trace", str(trace_file), "--policy", "llm",
                   "--mock", "argmax", "--template", str(tpl)])
        assert rc == 1
        assert capsys.readouterr().err.count("config error: template") == 2

    @pytest.mark.parametrize("text, named", [
        ("[row]\nROW {bogus}\n", "{bogus}"),
        ("[preambel.ap_select]\nPICK {associated}\n", "unknown block [preambel.ap_select]"),
    ], ids=["field", "block"])
    @pytest.mark.parametrize("command", ["simulate", "export"])
    def test_refused_template_exits_1_before_the_trace_is_read(self, tmp_path, capsys, text,
                                                               named, command):
        tpl = tmp_path / "bad.tpl"
        tpl.write_text(text, encoding="utf-8")
        argv = {"simulate": ["--policy", "llm", "--mock", "argmax"],
                "export": ["--kind", "sft", "-o", str(tmp_path / "sft.jsonl")]}[command]
        rc = main([command, "--trace", str(tmp_path / "missing.jsonl"), "--template", str(tpl),
                   *argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: template {tpl}: ") and named in err

    @pytest.mark.parametrize("command", ["simulate", "export"])
    def test_template_format_spec_its_field_refuses_exits_1(self, trace_file, tmp_path,
                                                            capsys, command):
        tpl = tmp_path / "tpl.txt"
        tpl.write_text("[row]\nROW {t:>4} {aps:d}\n", encoding="utf-8")
        argv = {"simulate": ["--policy", "llm", "--mock", "argmax"],
                "export": ["--kind", "sft", "-o", str(tmp_path / "sft.jsonl")]}[command]
        rc = main([command, "--trace", str(trace_file), "--template", str(tpl), *argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: template {tpl}: [row] {{aps:d}}: ")

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


def _no_header_ini(tmp_path, trace_file):
    path = tmp_path / "run.ini"
    path.write_text(f"file = {trace_file}\n", encoding="utf-8")
    return ["simulate", "--config", str(path), "--policy", "legacy"]


def _duplicate_section_ini(tmp_path, trace_file):
    path = tmp_path / "run.ini"
    path.write_text(f"[trace]\nfile = {trace_file}\n[trace]\nsynth_aps = 2\n",
                    encoding="utf-8")
    return ["simulate", "--config", str(path), "--policy", "legacy"]


def _bad_interpolation_ini(tmp_path, trace_file):
    path = tmp_path / "run.ini"
    path.write_text(f"[trace]\nfile = {trace_file}\n[output]\ndir = runs%\n",
                    encoding="utf-8")
    return ["simulate", "--config", str(path), "--policy", "legacy"]


def _out_is_a_file(tmp_path, trace_file):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    return ["simulate", "--trace", str(trace_file), "--policy", "legacy", "--out", str(taken)]


def _deep_json_report(tmp_path, trace_file):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")  # past json's recursion
    return ["compare", str(path), str(path)]


# Each of these ended in a traceback: the OS refusing a path is a data error,
# an INI file configparser refuses is a config error.
@pytest.mark.parametrize("argv, code", [
    (lambda tmp, tf: ["simulate", "--trace", str(tmp), "--policy", "legacy"], 2),
    (lambda tmp, tf: ["oracle", "--trace", str(tmp), "--objective", "min-ho"], 2),
    (lambda tmp, tf: ["compare", str(tmp), str(tmp)], 2),
    (_out_is_a_file, 2),
    (_deep_json_report, 2),
    (_no_header_ini, 1),
    (_duplicate_section_ini, 1),
    (_bad_interpolation_ini, 1),
], ids=["trace-directory", "oracle-trace-directory", "compare-directory", "out-is-a-file",
        "compare-deep-json", "ini-no-section-header", "ini-duplicate-section",
        "ini-bad-interpolation"])
def test_refused_path_or_ini_exits_with_its_code(tmp_path, trace_file, capsys, argv, code):
    assert main(argv(tmp_path, trace_file)) == code
    err = capsys.readouterr().err
    assert err.startswith("data error:" if code == 2 else "config error: config file")


@pytest.mark.parametrize("flags, message", [
    (["--config", "missing.ini"], "cannot read config file 'missing.ini'"),
    (["--mock", "bogus"], "unknown mock spec 'bogus'"),
], ids=["config", "mock"])
def test_unreadable_config_or_unknown_mock_exits_1(tmp_path, trace_file, monkeypatch, capsys,
                                                   flags, message):
    monkeypatch.chdir(tmp_path)
    rc = main(["simulate", "--trace", str(trace_file), "--policy", "llm", *flags])
    assert rc == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("text, named", [
    ("[task]\nscan_rsi = -50\n", "unknown key 'scan_rsi' in [task]"),
    ("[trace]\nseed = 1\n", "unknown key 'seed' in [trace]"),
    ("[tasks]\n", "unknown section [tasks]"),
    ("[DEFAULT]\nbogus = 1\n[policy]\nseed = 1\n", "unknown key 'bogus' in [DEFAULT]"),
], ids=["key-typo", "key-of-another-section", "section", "default-key"])
def test_unknown_ini_name_exits_1(tmp_path, trace_file, capsys, text, named):
    ini = tmp_path / "run.ini"
    ini.write_text(text, encoding="utf-8")
    rc = main(["simulate", "--config", str(ini), "--trace", str(trace_file), "--policy", "legacy"])
    assert rc == 1
    assert capsys.readouterr().err == f"config error: config file {str(ini)!r}: {named}\n"


@pytest.mark.parametrize("flags, ini, message", [
    (["--mock", "fixed:"], None, "--mock 'fixed:': could not convert string to float: ''"),
    (["--mock", "fail-after:x"], None,
     "--mock 'fail-after:x': invalid literal for int() with base 10: 'x'"),
    ([], "[trace]\nsynth_aps = x\n", "bad value 'x' for 'synth_aps' in [trace]"),
    ([], "[output]\ndir = a\0b\n", "bad value 'a\\x00b' for 'dir' in [output]"),
], ids=["mock-fixed", "mock-fail-after", "ini-int", "ini-nul"])
def test_a_value_the_cli_casts_exits_1_naming_its_flag_or_key(tmp_path, trace_file, capsys,
                                                              flags, ini, message):
    if ini is not None:
        path = tmp_path / "run.ini"
        path.write_text(ini, encoding="utf-8")
        flags = ["--mock", "argmax", "--config", str(path)]
        message = f"config file {str(path)!r}: {message}"
    rc = main(["simulate", "--trace", str(trace_file), "--policy", "llm", *flags])
    assert rc == 1
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("flag", ["--template", "--mock", "--config"])
def test_a_settings_file_that_is_not_utf8_exits_1_naming_it(tmp_path, trace_file, capsys, flag):
    path = tmp_path / "settings.txt"
    path.write_bytes(b"[row]\n\xff\n")
    named = {"--template": f"template {path}: ", "--mock": f"--mock 'scripted:{path}': ",
             "--config": f"config file {str(path)!r}: "}[flag]
    given = [flag, f"scripted:{path}" if flag == "--mock" else str(path)]
    mock = [] if flag == "--mock" else ["--mock", "argmax"]
    rc = main(["simulate", "--trace", str(trace_file), "--policy", "llm", *mock, *given])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"config error: {named}")


def test_default_key_reaches_a_section_the_file_leaves_out(tmp_path, trace_file):
    # the file has no [policy] section for [DEFAULT] policy to be inherited by
    ini = tmp_path / "run.ini"
    ini.write_text(f"[DEFAULT]\npolicy = heuristic\n[trace]\nfile = {trace_file}\n",
                   encoding="utf-8")
    out, reports = tmp_path / "runs", []
    for argv in (["--config", str(ini)], ["--trace", str(trace_file), "--policy", "heuristic"]):
        assert main(["simulate", *argv, "--out", str(out)]) == 0
        [path] = out.glob("report_*.json")
        reports.append((path.name, strip_volatile(json.loads(path.read_text()))))
    assert reports[0] == reports[1]


class TestOracleExport:
    def test_oracle_plan_json(self, trace_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        rc = main(["oracle", "--trace", str(trace_file), "--objective", "min-ho",
                   "-o", str(plan_path)])
        assert rc == 0
        plan = json.loads(plan_path.read_text())
        assert plan["objective"] == "min_ho"
        assert len(plan["plan"]) == 80

    @pytest.mark.parametrize("argv, message", [
        (["oracle", "--objective", "min-ho", "--floor", "nan"], "validity_floor out of range"),
        (["oracle", "--objective", "min-ho", "--floor", "5"], "validity_floor out of range"),
        (["export", "--kind", "sft", "--floor", "nan"], "validity_floor out of range"),
        (["export", "--kind", "sft", "--scan-rssi", "nan"], "scan_rssi out of range"),
        (["export", "--kind", "preferences", "--scan-rssi", "5"], "scan_rssi out of range"),
    ], ids=["oracle-nan", "oracle-above", "export-floor", "sft-nan", "preferences-above"])
    def test_out_of_range_dbm_exits_1_without_a_file(self, trace_file, tmp_path, capsys,
                                                     argv, message):
        out = tmp_path / "out.json"
        rc = main([*argv, "--trace", str(trace_file), "-o", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["oracle", "--objective", "min-ho", "--floor", "nan"], "validity_floor out of range"),
        (["export", "--kind", "sft", "--floor", "nan"], "validity_floor out of range"),
        (["export", "--kind", "sft", "--scan-rssi", "nan"], "scan_rssi out of range"),
    ], ids=["oracle-floor", "export-floor", "export-scan-rssi"])
    def test_refused_setting_exits_1_before_the_trace_is_read(self, tmp_path, capsys, argv,
                                                              message):
        out = tmp_path / "x.jsonl"
        rc = main([*argv, "--trace", str(tmp_path / "missing.jsonl"), "-o", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--brute-force"], ["--empty-rule", "error"]],
                             ids=["brute-force", "empty-rule"])
    def test_removed_oracle_flags_exit_1(self, trace_file, tmp_path, capsys, flags):
        out = tmp_path / "plan.json"
        rc = main(["oracle", "--trace", str(trace_file), "--objective", "min-ho", *flags,
                   "-o", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

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

    @pytest.mark.parametrize("text", [
        "{}",
        "[]",
        '{"plan": 5, "objective": "min_ho", "objective_value": 0, "handovers": 0}',
        '{"plan": [1], "objective": "min_ho", "objective_value": 0, "handovers": 0}',
        "{not json",
    ], ids=["empty-object", "list", "plan-number", "plan-of-numbers", "not-json"])
    def test_malformed_plan_is_a_data_error(self, trace_file, tmp_path, capsys, text):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(text, encoding="utf-8")
        rc = main(["export", "--trace", str(trace_file), "--kind", "sft",
                   "--plan", str(plan_path), "-o", str(tmp_path / "sft.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"data error: plan {plan_path}: ")

    def test_export_with_precomputed_plan(self, trace_file, tmp_path):
        plan_path = tmp_path / "plan.json"
        main(["oracle", "--trace", str(trace_file), "--objective", "min-ho",
              "-o", str(plan_path)])
        out = tmp_path / "sft.jsonl"
        rc = main(["export", "--trace", str(trace_file), "--kind", "sft",
                   "--plan", str(plan_path), "-o", str(out)])
        assert rc == 0

    @pytest.mark.parametrize("floor", ["nan", "-70"])
    def test_floor_with_a_plan_exits_1_without_a_file(self, trace_file, tmp_path, capsys,
                                                      floor):
        # a given plan was solved already, so a floor could not change it
        plan_path, out = tmp_path / "plan.json", tmp_path / "sft.jsonl"
        assert main(["oracle", "--trace", str(trace_file), "--objective", "min-ho",
                     "-o", str(plan_path)]) == 0
        capsys.readouterr()
        rc = main(["export", "--trace", str(trace_file), "--kind", "sft",
                   "--plan", str(plan_path), "--floor", floor, "-o", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error: --floor")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["sft", "preferences"])
    def test_plan_for_another_trace_exits_2_without_a_file(self, trace_file, tmp_path,
                                                           capsys, kind):
        short, plan_path = tmp_path / "short.jsonl", tmp_path / "plan.json"
        assert main(["gen-trace", "--duration", "5", "-o", str(short)]) == 0
        assert main(["oracle", "--trace", str(short), "--objective", "min-ho",
                     "-o", str(plan_path)]) == 0
        out = tmp_path / "corpus.jsonl"
        rc = main(["export", "--trace", str(trace_file), "--kind", kind,
                   "--plan", str(plan_path), "-o", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"data error: plan {plan_path}: 5 steps, trace has 80\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["sft", "preferences"])
    def test_plan_naming_an_ap_outside_the_scan_exits_2_without_a_file(self, tmp_path, capsys,
                                                                       kind):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        plan_path, out = tmp_path / "pa.json", tmp_path / "sft.jsonl"
        assert main(["gen-trace", "--num-aps", "4", "--duration", "20", "--seed", "1",
                     "--base=-80,-80,-80,-50", "-o", str(a)]) == 0
        assert main(["gen-trace", "--num-aps", "2", "--duration", "20", "--seed", "1",
                     "-o", str(b)]) == 0
        assert main(["oracle", "--trace", str(a), "--objective", "max-rssi",
                     "-o", str(plan_path)]) == 0
        capsys.readouterr()
        rc = main(["export", "--trace", str(b), "--kind", kind, "--plan", str(plan_path),
                   "-o", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "data error: plan step 0: AA:00:00:00:00:04 is not in the step's scan\n")
        assert not out.exists()


def _hand_log(error_rate) -> list[dict]:
    """Four steps at -61 dBm that change AP three times, with the roam attempts
    that give `error_rate`: None (no attempt), 0 or 0.25 (one of four invalid)."""
    actions = {None: "ssss", 0: "srrr", 0.25: "rrrr"}[error_rate]
    return [{"t": t, "bssid": "AB"[t % 2], "rssi": -61, "action": {"s": "stay", "r": "roam"}[a],
             "valid": not (error_rate and t == 0)} for t, a in enumerate(actions)]


# A well-typed hand-written report whose metrics are its log's, and one-field
# edits of it that compare and plot-data must reject as data errors.
HAND_REPORT = {"policy": "p", "scenario": "s", "trace_hash": "ab", "latency": None,
               "metrics": {"handovers": 3, "avg_rssi_dbm": -61, "error_rate": 0},
               "decision_log": _hand_log(0)}


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
    "policy-int": _edited("policy", 5),
    "policy-null": _edited("policy", None),
    "scenario-list": _edited("scenario", ["s"]),
    "decision-log-missing": json.dumps({k: v for k, v in HAND_REPORT.items()
                                        if k != "decision_log"}),
    "decision-log-empty": _edited("decision_log", []),
    "decision-log-object": _edited("decision_log", {"0": _hand_log(0)[0]}),
    "decision-log-rssi-string": _edited("decision_log", [{**_hand_log(0)[0], "rssi": "-61"}]),
    "decision-log-rssi-huge": _edited("decision_log", [{**_hand_log(0)[0], "rssi": 10 ** 400}]),
    "decision-log-valid-null": _edited("decision_log", [{**_hand_log(0)[0], "valid": None}]),
    "decision-log-action-jump": _edited("decision_log", [{**_hand_log(0)[0], "action": "jump"}]),
    "handovers-not-the-logs": _edited("handovers", 2),
    "avg-rssi-not-the-logs": _edited("avg_rssi_dbm", -61.5),
    "error-rate-not-the-logs": _edited("error_rate", None),
    "log-rssi-not-the-metrics": _edited("decision_log",
                                        [{**e, "rssi": -60} for e in _hand_log(0)]),
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

    def test_plot_data_quotes_a_scenario_with_a_comma(self, tmp_path):
        trace, runs, plots = tmp_path / "walk,1.jsonl", tmp_path / "runs", tmp_path / "plots"
        assert main(["gen-trace", "--duration", "20", "-o", str(trace)]) == 0
        assert main(["simulate", "--trace", str(trace), "--policy", "legacy",
                     "--out", str(runs)]) == 0
        assert main(["plot-data", str(runs / "report_legacy.json"), "--out", str(plots)]) == 0
        lines = (plots / "ho.csv").read_text(encoding="utf-8").splitlines()
        assert lines[1].startswith('legacy,"walk,1",')
        with open(plots / "ho.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [row[:2] for row in rows] == [["policy", "scenario"], ["legacy", "walk,1"]]

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

    def test_compare_csv_quotes_a_policy_with_a_comma(self, tmp_path):
        path, csv_out = tmp_path / "x.json", tmp_path / "cmp.csv"
        path.write_text(json.dumps({**HAND_REPORT, "policy": "x,y"}))
        assert main(["compare", str(path), str(path), "-o", str(csv_out)]) == 0
        with open(csv_out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [5, 5, 5]
        assert [row[0] for row in rows] == ["policy", "x,y", "x,y"]

    @pytest.mark.parametrize("latency", [None, {"mean_ms": None}, {"mean_ms": 2.5}])
    @pytest.mark.parametrize("error_rate", [None, 0, 0.25])
    def test_well_typed_report_compares(self, tmp_path, capsys, latency, error_rate):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({**HAND_REPORT, "latency": latency,
                                    "metrics": {**HAND_REPORT["metrics"],
                                                "error_rate": error_rate},
                                    "decision_log": _hand_log(error_rate)}))
        assert main(["compare", str(path), str(path)]) == 0
        assert "-61.00" in capsys.readouterr().out


def _report_files(out_dir: Path) -> dict:
    """Each report file in out_dir by name, with its volatile timing zeroed."""
    files = {}
    for path in out_dir.glob("report_*.json"):
        d = json.loads(path.read_text(encoding="utf-8"))
        files[path.name] = {**d, "wall_clock_ms": 0, "latency": strip_volatile(d)["latency"]}
    return files


class TestSweepCommand:
    @pytest.mark.parametrize("flags, axis, text, values", [
        (["--policy", "legacy"], "threshold", "-60, -72.5", [-60.0, -72.5]),
        (["--task", "threshold", "--policy", "llm", "--mock", "fixed:-70"], "interval",
         "10,40", [10, 40]),
        (["--policy", "llm", "--mock", "argmax"], "shots", "0,1", [0, 1]),
        (["--policy", "llm", "--mock", "argmax"], "context_fields", "none,location+time,battery",
         [frozenset(), frozenset({"location", "time"}), frozenset({"battery"})]),
    ], ids=["threshold", "interval", "shots", "context_fields"])
    def test_values_text_writes_the_files_the_api_writes(self, trace_file, tmp_path, capsys,
                                                         flags, axis, text, values):
        argv = ["sweep", "--trace", str(trace_file), *flags, "--axis", axis, f"--values={text}"]
        assert main([*argv, "--out", str(tmp_path / "cli")]) == 0
        template = _experiment_config(build_parser().parse_args(argv))
        sweep(replace(template, out_dir=str(tmp_path / "api")), axis, values)
        cli_files = _report_files(tmp_path / "cli")
        assert len(cli_files) == len(values)
        assert cli_files == _report_files(tmp_path / "api")

    def test_interval_sweep(self, trace_file, tmp_path, capsys):
        rc = main(["sweep", "--trace", str(trace_file), "--task", "threshold",
                   "--policy", "llm", "--mock", "fixed:-70", "--axis", "interval",
                   "--values", "10,40", "--out", str(tmp_path / "sweeps")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "interval=10" in out and "interval=40" in out
        for value, line in zip((10, 40), out.splitlines()):
            assert re.fullmatch(rf"interval={value}: #HO=\d+ AvgRSSI=-\d+\.\d\d "
                                r"ErrorRate=(-|\d\.\d{4}) calls=\d+", line), line
        assert (tmp_path / "sweeps" / "comparison.csv").exists()

    @pytest.mark.parametrize("flags", [
        ["--policy", "legacy", "--axis", "threshold", "--values=-60,5"],
        ["--policy", "llm", "--mock", "argmax", "--axis", "context_fields",
         "--values", "location+time,bogus"],
        ["--policy", "legacy", "--axis", "threshold", "--values=-60,-60.0"],
        ["--policy", "llm", "--mock", "argmax", "--axis", "context_fields",
         "--values", "location+time,time+location"],
    ], ids=["threshold-out-of-range", "context-unknown", "threshold-twice", "context-twice"])
    def test_a_refused_value_exits_1_before_any_report(self, trace_file, tmp_path, capsys,
                                                       flags):
        out = tmp_path / "sweeps"
        assert main(["sweep", "--trace", str(trace_file), *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    def test_more_shots_than_training_steps_fail_in_their_own_run(self, trace_file, tmp_path,
                                                                   capsys):
        # the one check that needs the trace: the runs before it write their reports
        out = tmp_path / "sweeps"
        assert main(["sweep", "--trace", str(trace_file), "--policy", "llm", "--mock", "argmax",
                     "--axis", "shots", "--values", "1,100", "--out", str(out)]) == 1
        assert "cannot draw 100 shots" in capsys.readouterr().err
        assert os.listdir(out) == ["report_llm_shots_1.json"]

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

    def test_endpoint_url_from_the_environment(self, loopback, monkeypatch, capsys):
        # as simulate does, with neither --endpoint-url nor --mock given
        monkeypatch.setenv("ROAMSIM_LLM_BASE_URL", loopback(protocol="HTTP/1.1").url)
        assert main(["bench-latency", "--n", "3"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["count"], summary["failures"]) == (3, 0)

    @pytest.mark.parametrize("env", [False, True], ids=["flag", "environment"])
    def test_url_it_can_never_send_to_exits_1(self, monkeypatch, capsys, env):
        argv = ["bench-latency", "--n", "1"]
        if env:
            monkeypatch.setenv("ROAMSIM_LLM_BASE_URL", "notaurl")
        else:
            argv += ["--endpoint-url", "notaurl"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "config error: not an http(s) URL: 'notaurl'\n"

    @pytest.mark.parametrize("delay", ["inf", "1e300", "nan", "-1"])
    def test_bad_mock_delay_exits_1(self, trace_file, capsys, delay):
        for argv in (["bench-latency", "--mock", "argmax", "--n", "1"],
                     ["simulate", "--trace", str(trace_file), "--policy", "llm",
                      "--mock", "argmax"]):
            assert main([*argv, f"--mock-delay-ms={delay}"]) == 1
            assert capsys.readouterr().err.startswith("config error: delay_ms must be")

    @pytest.mark.parametrize("argv", [
        ["--endpoint-url", "http://127.0.0.1:1", "--n", "0"],
        ["--mock", "argmax", "--n", "-3"],
    ], ids=["endpoint-zero", "mock-negative"])
    def test_fewer_than_one_probe_exits_1(self, capsys, argv):
        assert main(["bench-latency", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: --n must be at least 1")
        assert captured.out == ""


def test_import_loads_no_http_library():
    # a fresh interpreter, so modules the test run imported do not count
    src = os.path.dirname(os.path.dirname(roamsim.__file__))
    code = (
        "import sys, roamsim, roamsim.cli\n"
        "print(sorted(m for m in ('requests', 'urllib3', 'http.client', 'email.parser',\n"
        "                         'ssl') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "[]"


def test_import_loads_no_datetime():
    # the prompt rows render their clock without it; a fresh interpreter, as above
    src = os.path.dirname(os.path.dirname(roamsim.__file__))
    code = "import sys, roamsim, roamsim.cli\nprint('datetime' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.strip() == "False"


def test_only_the_cli_reads_the_environment():
    root = Path(__file__).resolve().parent.parent / "src" / "roamsim"
    readers = set()
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name) else None)
            if name in ("environ", "getenv"):
                readers.add(path.name)
    assert readers == {"cli.py"}


def test_sources_parse_as_the_oldest_python_the_package_allows():
    # syntax only: a library call newer than 3.10 still passes this check
    root = Path(__file__).resolve().parent.parent
    assert 'requires-python = ">=3.10"' in (root / "pyproject.toml").read_text(encoding="utf-8")
    sources = sorted((root / "src" / "roamsim").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_readme_ini_example_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.ini").write_text(example, encoding="utf-8")
    assert main(["gen-trace", "-o", "walk.jsonl"]) == 0
    assert main(["simulate", "--config", "run.ini"]) == 0
    assert "policy=llm" in capsys.readouterr().out
    assert (tmp_path / "runs" / "report_llm.json").exists()


def test_every_flag_is_named_in_the_readme():
    # a simulate/sweep setting may be named by its key in the Configuration file table
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = "".join(line for line in readme.splitlines() if line.startswith("| `["))
    ini_keys = {flag: key for flags, _, key, _ in _EXPERIMENT_SETTINGS for flag in flags}
    [commands] = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    unnamed = [
        f"{command} {flag}"
        for command, parser in commands.choices.items()
        for action in parser._actions if not isinstance(action, argparse._HelpAction)
        for flag in action.option_strings
        if flag.startswith("--")
        and not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", readme)
        and f"`{ini_keys.get(flag)}`" not in table
    ]
    assert unnamed == []


# Argv and INI cases that between them give every simulate/sweep setting at
# least once by flag and once by INI key, plus flags over INI keys. Paths are
# relative to a temporary working directory, so the digests hold anywhere.
CONFIG_INI = {
    "synth.ini": (
        "[trace]\nsynth_aps = 3\nsynth_duration = 60\nsynth_seed = 8\n"
        "synth_base = -57,-66,-79\nsynth_stddev = 1.5\nsynth_floor = -92\nsynth_ceil = -33\n"
        "[task]\ntask = threshold\nscan_rssi = -68\nhysteresis = standard-80211\n"
        "validity_floor = -74\nwindow_k = 6\ninterval = 25\nscore_against = opt_ho\n"
        "[policy]\npolicy = llm\nseed = 11\nfixed_dbm = -64\nexternal_url = http://127.0.0.1:9/x\n"
        "[llm]\nmock = scripted:replies.txt\nmock_delay_ms = 0.5\nstyle = plain\nshots = 2\n"
        "context = battery\ntemplate = tpl.txt\n"
        "[output]\ndir = ini-runs\n"
    ),
    "endpoint.ini": (
        "[trace]\nfile = walk.jsonl\nsynth_base = -61\n"
        "[policy]\npolicy = llm\n"
        "[llm]\nbase_url = http://127.0.0.1:9/v1\nmodel = tiny\ncontext = none\n"
    ),
    "default.ini": "[DEFAULT]\nseed = 3\n[policy]\npolicy = heuristic\n[trace]\nfile = walk.jsonl\n",
}

CONFIG_CASES = {
    "flags-synth-mock": [
        "simulate", "--synth-aps", "3", "--synth-duration", "50", "--synth-seed", "4",
        "--synth-base=-58,-68,-76", "--synth-stddev", "2.5", "--synth-floor", "-90",
        "--synth-ceil", "-35", "--task", "threshold", "--policy", "llm", "--seed", "7",
        "--mock", "fixed:-65", "--mock-delay-ms", "1.5", "--scan-rssi", "-72",
        "--hysteresis", "standard-80211", "--validity-floor", "-75", "--window-k", "4",
        "--interval", "20", "--style", "plain", "--shots", "1", "--context", "battery,time",
        "--template", "tpl.txt", "--score-against", "opt_rssi", "--out", "runs",
    ],
    "flags-trace-endpoint": [
        "simulate", "--trace", "walk.jsonl", "--policy", "llm", "--endpoint-url",
        "http://127.0.0.1:9/v1", "--model", "tiny", "--fixed-dbm", "-66",
        "--external-url", "http://127.0.0.1:9/decide", "-k", "5", "--context", "none",
    ],
    "flags-fixed": ["simulate", "--trace", "walk.jsonl", "--policy", "fixed",
                    "--fixed-dbm", "-67", "--synth-base", "-62"],
    "flags-mock-constant": ["simulate", "--trace", "walk.jsonl", "--policy", "llm",
                            "--mock", "constant:ANSWER: x; y"],
    "flags-minimal": ["simulate", "--trace", "walk.jsonl", "--policy", "legacy"],
    "flags-sweep": ["sweep", "--trace", "walk.jsonl", "--policy", "opt-ho",
                    "--axis", "threshold", "--values", "-60"],
    "ini-synth-mock": ["simulate", "--config", "synth.ini"],
    "ini-endpoint": ["sweep", "--config", "endpoint.ini", "--axis", "shots"],
    "ini-default-section": ["simulate", "--config", "default.ini"],
    "flags-over-ini": [
        "simulate", "--config", "synth.ini", "--task", "ap_select", "--policy", "llm",
        "--mock", "fail-after:3", "--synth-aps", "2", "--synth-base", "-59", "--window-k",
        "3", "--scan-rssi", "-75", "--style", "cot", "--context", "location,time",
        "--seed", "2", "--out", "flag-runs", "--interval", "40",
    ],
}

CONFIG_GOLDEN = {
    "flags-synth-mock": "fe15bc3da0e3dfb09d8dca62f2d153d2addb223e55e854f8373a46ca50f9d321",
    "flags-trace-endpoint": "aef6bb5ce94c24ca47a4d65f2787ebfeb4eddef75989174705ff28ba8841d0b9",
    "flags-fixed": "1112e1dd3ce081b55c09c7509715ed8ac4ccc007614ac287ed3cf72bd502c991",
    "flags-mock-constant": "7f889961c1eff73f5ef517a09deb0985ae58ecd11ba12281bab280e9f73cb8c2",
    "flags-minimal": "a95f13df5d39f2671493902f8a60235b6d58bd4cc6c16ce40ae89050ab90dd4e",
    "flags-sweep": "f01b8f04aa6b082c4e14fd8fb6c45c3b193765dba65f6f2acf26d6119fd7329d",
    "ini-synth-mock": "d00ac544ee3e5ef1b53562f3e3ff8250e67b4a757df2db6b9e4a5ad17207f186",
    "ini-endpoint": "7843a7224b2bb82d4959400ba3ad2c187e992d92af464116305f19d7355ea888",
    "ini-default-section": "26010e732e64a39afc9bb191bf33ede2df82c477a92d644972a853cbf8aef20b",
    "flags-over-ini": "0f67a57830c003a2c91b89013e36166db49e74944304397ddcb27e7a6f012535",
}


@pytest.fixture
def config_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ROAMSIM_LLM_BASE_URL", raising=False)
    monkeypatch.delenv("ROAMSIM_LLM_MODEL", raising=False)
    for name, text in CONFIG_INI.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / "replies.txt").write_text("ANSWER: -70\nANSWER: -60\n", encoding="utf-8")
    return tmp_path


@pytest.mark.parametrize("case", list(CONFIG_CASES))
def test_golden_experiment_config(config_cwd, case):
    args = build_parser().parse_args(CONFIG_CASES[case])
    echo = json.dumps(_jsonable(asdict(_experiment_config(args))), sort_keys=True)
    assert hashlib.sha256(echo.encode("utf-8")).hexdigest() == CONFIG_GOLDEN[case]


# What gen-trace, oracle and export write when every optional flag is left out.
DEFAULT_OUTPUT_GOLDEN = {
    "walk.jsonl": "459045fdf769a2a6c922b3f4b7c39b9bf9de880682f25841c917d939ae8b8f49",
    "plan.json": "8678a59a262948c469bd548c35656945718437de517c43cf7a095a35c4b66b14",
    "sft.jsonl": "fe2d302769211a96ed07a9495b3b632d4399e0d48f198099286e7c5df688ea98",
    "prefs.jsonl": "cfe5f6a02c139a305da97771d141d37f057833bc8e131baa8c8cc44ec8d497ee",
}


def test_golden_default_flag_outputs(config_cwd):
    argvs = [
        ["gen-trace", "-o", "walk.jsonl"],
        ["oracle", "--trace", "walk.jsonl", "--objective", "min-ho", "-o", "plan.json"],
        ["export", "--trace", "walk.jsonl", "--kind", "sft", "-o", "sft.jsonl"],
        ["export", "--trace", "walk.jsonl", "--kind", "preferences", "-o", "prefs.jsonl"],
    ]
    for argv in argvs:
        assert main(argv) == 0
    digests = {name: hashlib.sha256((config_cwd / name).read_bytes()).hexdigest()
               for name in DEFAULT_OUTPUT_GOLDEN}
    assert digests == DEFAULT_OUTPUT_GOLDEN


# ---------------------------------------------------------------------------
# Totality: main() on any argv of its subcommands and flags returns an exit
# code and raises nothing. Values mix good and bad ones; sizes are bounded,
# no endpoint URL is drawn and every llm run gets a mock, so each example is
# cheap and stays on this host.

@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    f = {name: str(d / name) for name in (
        "trace.jsonl", "trace.csv", "bad.jsonl", "plan.json", "reports", "tpl.txt",
        "bad_tpl.txt", "replies.txt", "good.ini", "bad.ini", "missing", "out")}
    assert main(["gen-trace", "--num-aps", "3", "--duration", "8", "--seed", "5",
                 "--base=-58,-68,-76", "--stddev", "6", "-o", f["trace.jsonl"]]) == 0
    Path(f["trace.csv"]).write_text(
        trace_to_csv(parse_trace(Path(f["trace.jsonl"]).read_bytes())), encoding="utf-8")
    Path(f["bad.jsonl"]).write_text("{not json\n", encoding="utf-8")
    assert main(["oracle", "--trace", f["trace.jsonl"], "--objective", "min-ho",
                 "-o", f["plan.json"]]) == 0
    for policy in ("legacy", "heuristic"):
        assert main(["simulate", "--trace", f["trace.jsonl"], "--policy", policy,
                     "--out", f["reports"]]) == 0
    Path(f["tpl.txt"]).write_text("[row]\n{t} {aps}\n", encoding="utf-8")
    Path(f["bad_tpl.txt"]).write_text("[row]\n{nope}\n", encoding="utf-8")
    Path(f["replies.txt"]).write_text("ANSWER: -60\nno answer\n", encoding="utf-8")
    Path(f["good.ini"]).write_text(
        f"[policy]\npolicy = legacy\n[trace]\nfile = {f['trace.jsonl']}\n", encoding="utf-8")
    Path(f["bad.ini"]).write_text("[nope]\nx = 1\n", encoding="utf-8")
    os.mkdir(f["out"])
    f["report_a"] = os.path.join(f["reports"], "report_legacy.json")
    f["report_b"] = os.path.join(f["reports"], "report_heuristic_seed_0_.json")
    assert os.path.exists(f["report_a"]) and os.path.exists(f["report_b"])
    return f


def _argv_strategies(f):
    """Per subcommand: ({flag: value strategy, or None for a switch}, required
    flags, positional strategy or None)."""
    pick = st.sampled_from
    dbm = pick(["-70", "-100", "0", "-60.5", "5", "-150", "nan", "inf", "-inf", "x", ""])
    ints, floats = pick(["0", "1", "3", "-1", "x", "1.5", "7"]), pick(
        ["0", "1.5", "-1", "nan", "inf", "x", "1e400"])
    trace = pick([f["trace.jsonl"], f["trace.csv"], f["bad.jsonl"], f["missing"], f["out"]])
    out_file = pick([os.path.join(f["out"], "o.txt"), f["out"],
                     os.path.join(f["missing"], "o.txt")])
    out_dir = pick([os.path.join(f["out"], "runs"), f["trace.jsonl"]])
    template = pick([f["tpl.txt"], f["bad_tpl.txt"], f["missing"]])
    context = pick(["none", "time", "location,battery", "x", ""])
    mock = pick(["argmax", "fixed:-70", "fixed:nan", "fixed:5", "fixed:", "constant:hi",
                 "constant:", "fail-after:1", "fail-after:x", f"scripted:{f['replies.txt']}",
                 f"scripted:{f['missing']}", "bogus"])
    experiment = {
        "--config": pick([f["good.ini"], f["bad.ini"], f["missing"]]),
        "--trace": trace, "--synth-aps": pick(["1", "2", "3", "0", "-2", "x"]),
        "--synth-duration": pick(["1", "4", "12", "0", "x"]), "--synth-seed": ints,
        "--synth-base": dbm | pick(["-60,-70", "-60,-70,-80,-90"]), "--synth-stddev": floats,
        "--synth-floor": dbm, "--synth-ceil": dbm,
        "--task": pick(["ap_select", "threshold", "x"]),
        "--policy": pick(["legacy", "heuristic", "fixed", "opt-ho", "opt-rssi", "llm",
                          "external", "x"]),
        "--seed": ints, "--fixed-dbm": dbm, "--mock": mock,
        "--mock-delay-ms": pick(["0", "1", "-1", "nan", "x"]), "--model": st.just("m"),
        "--external-url": pick(["http://127.0.0.1:1/decide", "x", "ftp://h/", "http://a b/"]),
        "--scan-rssi": dbm, "--hysteresis": pick(["off", "standard-80211", "x"]),
        "--validity-floor": dbm, "--window-k": pick(["1", "3", "10", "0", "x"]),
        "--interval": pick(["1", "5", "0", "x"]), "--style": pick(["plain", "cot", "x"]),
        "--shots": pick(["0", "1", "2", "-1", "x"]), "--context": context,
        "--template": template, "--score-against": pick(["opt_ho", "opt_rssi", "x"]),
        "--out": out_dir,
    }
    objective = pick(["min-ho", "max-rssi", "x"])
    reports = st.lists(pick([f["report_a"], f["report_b"], f["bad.jsonl"], f["missing"],
                             f["trace.jsonl"]]), max_size=3)
    return {
        "gen-trace": ({
            "--num-aps": pick(["1", "3", "0", "x"]), "--duration": pick(["1", "5", "0", "x"]),
            "--seed": ints, "--base": dbm | pick(["-60,-70", "-60,-70,-80"]),
            "--stddev": floats, "--floor": dbm, "--ceil": dbm, "--location": None,
            "--battery-drain": floats,
            "--sample-interval": pick(["1", "5", "0", "x", "1000000000000"]),
            "-o": out_file,
        }, (), None),
        "simulate": (experiment, ("--trace", "--policy"), None),
        "sweep": ({**experiment, "--axis": pick(
            ["threshold", "interval", "shots", "context_fields", "x"]),
            "--values": pick(["-60", "-60,-70", "1,2", "0", "x", "", "time+battery,none",
                              "nan"])}, ("--trace", "--policy", "--axis"), None),
        "oracle": ({"--trace": trace, "--objective": objective, "--floor": dbm,
                    "--empty-rule": pick(["relax", "error", "x"]), "--brute-force": None,
                    "-o": out_file}, ("--trace", "--objective"), None),
        "export": ({"--trace": trace, "--kind": pick(["sft", "preferences", "x"]),
                    "--objective": objective,
                    "--plan": pick([f["plan.json"], f["report_a"], f["missing"],
                                    f["trace.jsonl"]]),
                    "--rejected": pick(["legacy", "heuristic", "second_best", "x"]),
                    "--seed": ints, "--floor": dbm, "--style": pick(["plain", "cot", "x"]),
                    "--context": context, "--window-k": pick(["1", "3", "0", "x"]),
                    "--scan-rssi": dbm, "--template": template, "-o": out_file},
                   ("--trace", "--kind", "-o"), None),
        "compare": ({"-o": out_file}, (), reports),
        "plot-data": ({"--out": out_dir}, ("--out",), reports),
        "bench-latency": ({"--mock": mock, "--mock-delay-ms": pick(["0", "1", "-1", "x"]),
                           "--model": st.just("m"), "--n": pick(["1", "3", "0", "-1", "x"]),
                           "--prompt": pick(["", "t=0 | aps: AA:00:00:00:00:01=-60.0"])},
                          (), None),
    }


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_argv_exits_with_a_mapped_code(fuzz_files, data):
    strategies = _argv_strategies(fuzz_files)
    command = data.draw(st.sampled_from(sorted(strategies)))
    flags, required, positional = strategies[command]
    chosen = [flag for flag in required if data.draw(st.integers(0, 3))]  # mostly present
    chosen += data.draw(st.lists(st.sampled_from(sorted(flags)), max_size=8, unique=True))
    argv = [command]
    for flag in dict.fromkeys(chosen):
        if flags[flag] is None:
            argv.append(flag)
        else:
            argv += [flag, data.draw(flags[flag])] if flag == "-o" else [
                f"{flag}={data.draw(flags[flag])}"]
    if "--policy=llm" in argv and not any(a.startswith("--mock=") for a in argv):
        argv.append("--mock=argmax")
    if positional is not None:
        argv += data.draw(positional)
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("ROAMSIM_LLM_BASE_URL", raising=False)
        assert main(argv) in (0, 1, 2, 3), argv
