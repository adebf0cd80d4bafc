"""The benchmark's workloads: their inputs, the experiments one iteration runs,
and the checks every iteration's outputs must pass.

Each workload drives roamsim only through its public API (`run_experiment`,
`compare`, and `write_report` via `out_dir`), always looked up on the
`roamsim.runner` module so a traced run can wrap them. Inputs are a pure
function of the seed. Step counts are scaled so that one iteration takes a
couple of seconds on a small host; AP counts and the rate at which the scan
trigger fires are the ones the workloads were designed around.
"""

from __future__ import annotations

import glob
import hashlib
import http.client
import json
import math
import os
import subprocess
import sys
from dataclasses import replace

from checkout import BENCH_DIR, require_roamsim
from walk import dense_trace_lines

require_roamsim()

from roamsim import runner  # noqa: E402
from roamsim.agent import PromptConfig  # noqa: E402
from roamsim.gateway import EndpointConfig, MockRule  # noqa: E402
from roamsim.runner import ExperimentConfig, PolicySpec  # noqa: E402
from roamsim.trace import SynthConfig  # noqa: E402

DEFAULT_SEED = 1

DENSE_APS = 32
DENSE_STEPS = 2000
AGENT_APS = 8
AGENT_STEPS = 1500
ENDPOINT_STEPS = 300

# Agent traces sit below scan_rssi everywhere (ceiling -62 < -60), so the
# scan trigger fires on every step; the validity floor of -72 is above the
# weaker APs' levels, so some picks are invalid and fall back.
AGENT_SCAN_RSSI = -60.0
AGENT_FLOOR = -72.0
AGENT_PROMPT = PromptConfig(
    style="cot", shots=0, context_fields=frozenset({"location", "time", "battery"}),
    window_k=10,
)
THRESHOLD_INTERVAL = 5

with open(os.path.join(BENCH_DIR, "golden.json"), encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


def headline(report: dict) -> dict:
    """The numbers a user reads off a report, plus the trace it came from."""
    m = report["metrics"]
    return {
        "handovers": m["handovers"],
        "avg_rssi_dbm": m["avg_rssi_dbm"],
        "error_rate": m["error_rate"],
        "trace_hash": report["trace_hash"],
    }


def _common_checks(name: str, seed: int, reports: dict[str, dict]) -> dict[str, list[str]]:
    problems: dict[str, list[str]] = {label: [] for label in reports}
    for label, d in reports.items():
        if not runner.verify_report(d):
            problems[label].append("metrics do not match the decision log")
        golden = GOLDEN[name].get(label) if seed == DEFAULT_SEED else None
        if golden is not None and headline(d) != golden:
            problems[label].append(f"headline {headline(d)} != recorded {golden}")
    return problems


def _bssids(report: dict) -> list[str]:
    return [e["bssid"] for e in report["decision_log"]]


def _model_calls(report: dict) -> int:
    return report["latency"]["count"] + report["latency"]["failures"]


class Workload:
    """Set up from a seed; `experiments` maps a label to one run's config.

    One iteration runs every experiment, then `finish` on the reports; `check`
    returns the problems found per label.
    """

    name: str
    experiments: dict[str, ExperimentConfig]

    def finish(self, reports):
        return None

    def close(self):
        pass


# ---------------------------------------------------------------------------
# compare-dense

class CompareDense(Workload):
    """`simulate` x4 on a recorded trace file, then `compare` on the four reports."""

    name = "compare-dense"
    kinds = {"legacy": "legacy", "heuristic": "heuristic", "opt-ho": "opt_ho",
             "opt-rssi": "opt_rssi"}

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.trace_path = os.path.join(work, "dense.jsonl")
        self.out_dir = os.path.join(work, "reports")
        digest = hashlib.sha256()
        with open(self.trace_path, "w", encoding="utf-8") as fh:
            for line in dense_trace_lines(seed, DENSE_STEPS, DENSE_APS):
                fh.write(line)
                digest.update(line.encode("utf-8"))
        self.file_hash = digest.hexdigest()
        self.experiments = {
            label: ExperimentConfig(
                policy=PolicySpec(kind=kind, seed=seed), trace_path=self.trace_path,
                out_dir=self.out_dir,
            )
            for label, kind in self.kinds.items()
        }

    def finish(self, reports):
        return runner.compare(list(reports.values()))

    def check(self, reports: dict[str, dict], table) -> dict[str, list[str]]:
        problems = _common_checks(self.name, self.seed, reports)
        for label, d in reports.items():
            if d["trace_hash"] != self.file_hash:
                problems[label].append("trace_hash differs from sha256 of the trace file")
        if "opt-ho" in reports:
            least = min(d["metrics"]["handovers"] for d in reports.values())
            if reports["opt-ho"]["metrics"]["handovers"] > least:
                problems["opt-ho"].append("opt-ho has more handovers than another policy")
        if "opt-rssi" in reports:
            most = max(d["metrics"]["avg_rssi_dbm"] for d in reports.values())
            if reports["opt-rssi"]["metrics"]["avg_rssi_dbm"] < most:
                problems["opt-rssi"].append("opt-rssi has lower avg RSSI than another policy")
        if table is not None and len(table.rows) != len(reports):
            for label in reports:
                problems[label].append("comparison table lost a row")
        written = {}
        for path in glob.glob(os.path.join(self.out_dir, "report_*.json")):
            d = runner.read_report(path)
            written[d["policy"]] = d
        for label, d in reports.items():
            on_disk = written.get(d["policy"])
            if on_disk is None or runner.strip_volatile(on_disk) != runner.strip_volatile(d):
                problems[label].append("written report differs from the returned one")
        return problems


# ---------------------------------------------------------------------------
# agent-mock and endpoint-http

def agent_synth(seed: int, steps: int) -> SynthConfig:
    bases = tuple(-66.0 - 16.0 * i / (AGENT_APS - 1) for i in range(AGENT_APS))
    return SynthConfig(
        num_aps=AGENT_APS, duration=steps, base_dbm=bases, step_stddev=2.0,
        ceil_dbm=-62.0, emit_location=True, battery_drain_pct_per_step=0.01, seed=seed,
    )


def agent_config(synth: SynthConfig, policy: PolicySpec, **kw) -> ExperimentConfig:
    return ExperimentConfig(
        policy=policy, synth=synth, scan_rssi=AGENT_SCAN_RSSI, validity_floor=AGENT_FLOOR,
        window_k=AGENT_PROMPT.window_k, **kw,
    )


def _same_path_as(problems, reports, label, reference) -> None:
    if _bssids(reports[label]) != _bssids(reference):
        problems[label].append(f"{label} association sequence differs from legacy")


class AgentMock(Workload):
    """The LLM-agent evaluation path with the in-process mock model."""

    name = "agent-mock"

    def __init__(self, seed: int, work: str):
        self.seed = seed
        synth = agent_synth(seed, AGENT_STEPS)
        self.experiments = {
            "llm-argmax": agent_config(
                synth, PolicySpec(kind="llm", prompt=AGENT_PROMPT, mock=MockRule.argmax_rssi())
            ),
            "llm-threshold": agent_config(
                synth,
                PolicySpec(kind="llm", prompt=replace(AGENT_PROMPT, task="threshold"),
                           mock=MockRule.fixed_threshold(-68.0)),
                task="threshold", interval=THRESHOLD_INTERVAL,
            ),
            "legacy": agent_config(synth, PolicySpec(kind="legacy")),
        }

    def check(self, reports: dict[str, dict], _extra) -> dict[str, list[str]]:
        problems = _common_checks(self.name, self.seed, reports)
        legacy = reports.get("legacy")
        if "llm-argmax" in reports:
            llm = reports["llm-argmax"]
            if legacy is not None:
                _same_path_as(problems, reports, "llm-argmax", legacy)
                for key in ("handovers", "avg_rssi_dbm", "error_rate"):
                    if llm["metrics"][key] != legacy["metrics"][key]:
                        problems["llm-argmax"].append(f"{key} differs from legacy")
            if _model_calls(llm) != AGENT_STEPS:
                problems["llm-argmax"].append(
                    f"{_model_calls(llm)} model calls, expected one per step ({AGENT_STEPS})"
                )
        if "llm-threshold" in reports:
            expected = math.ceil(AGENT_STEPS / THRESHOLD_INTERVAL)
            got = _model_calls(reports["llm-threshold"])
            if got != expected:
                problems["llm-threshold"].append(f"{got} threshold calls, expected {expected}")
        return problems


class Stub:
    """The loopback stub process (stub.py), stopped by close()."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "stub.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.port = int(self.proc.stdout.readline())
            self.url = f"http://127.0.0.1:{self.port}"
            self.stats()  # the stub has answered its first request
        except BaseException:
            self.close()
            raise

    def stats(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class EndpointHttp(Workload):
    """llm over the HTTP gateway and the external policy, against the stub."""

    name = "endpoint-http"

    def __init__(self, seed: int, work: str):
        self.seed = seed
        # the stub is on loopback; never route it through a configured proxy
        os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
        synth = agent_synth(seed, ENDPOINT_STEPS)
        self.stub = Stub()
        endpoint = EndpointConfig(base_url=self.stub.url, model="perfbench-stub")
        self.experiments = {
            "llm-http": agent_config(
                synth, PolicySpec(kind="llm", prompt=AGENT_PROMPT, endpoint=endpoint)
            ),
            "external": agent_config(
                synth, PolicySpec(kind="external", external_url=self.stub.url + "/decide")
            ),
        }
        # the reference the checks compare against; run once, on first check
        self._legacy_config = agent_config(synth, PolicySpec(kind="legacy"))
        self._legacy = None

    def check(self, reports: dict[str, dict], _extra) -> dict[str, list[str]]:
        problems = _common_checks(self.name, self.seed, reports)
        if self._legacy is None:
            self._legacy = runner.run_experiment(self._legacy_config).to_dict()
        for label in reports:
            _same_path_as(problems, reports, label, self._legacy)
        if "llm-http" in reports:
            llm = reports["llm-http"]
            if llm["latency"]["failures"]:
                problems["llm-http"].append(f"{llm['latency']['failures']} failed calls")
            if _model_calls(llm) != ENDPOINT_STEPS:
                problems["llm-http"].append(
                    f"{_model_calls(llm)} model calls, expected {ENDPOINT_STEPS}"
                )
        if "external" in reports:
            faults = sum(1 for e in reports["external"]["decision_log"] if e["fault"])
            if faults:
                problems["external"].append(f"{faults} external calls failed")
        return problems

    def close(self):
        self.stub.close()


WORKLOADS = {w.name: w for w in (CompareDense, AgentMock, EndpointHttp)}


def make(name: str, seed: int, work: str):
    """Set up workload `name` for `seed`, writing its inputs under `work`."""
    os.makedirs(work, exist_ok=True)
    return WORKLOADS[name](seed, work)
