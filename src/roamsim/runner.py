"""Run orchestration: configuration, trace replay, reports, comparisons,
sweeps, and plot-data emission.

A run report embeds the full decision log, not just aggregates, so its
headline metrics can be recomputed from the log (reports are
self-verifying). Reports carry a content hash of the evaluated trace;
comparisons across different traces are refused. Everything except
wall-clock timing is deterministic for a fixed config with a mock client.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re
import tempfile
import time
from collections.abc import Callable
from contextlib import closing
from dataclasses import asdict, dataclass, field, replace
from functools import partial

from .agent import (
    TASK_AP_SELECT,
    TASK_THRESHOLD,
    FewShotExample,
    PromptConfig,
    ap_select_decide,
    build_shot_pool,
    load_template,
    threshold_schedule_step,
)
from .errors import ConfigError, DataError
from .export import label_accuracy, split_trace
from .gateway import (
    EndpointConfig, HttpClient, JsonConnection, MockClient, MockRule, check_url, client_latency,
)
from .policies import (
    AssociationPlan,
    ExternalPolicy,
    PlanPolicy,
    heuristic_decide,
    legacy_decide,
    oracle_opt_ho,
    oracle_opt_rssi,
)
from .roaming import DEFAULT_SCAN_RSSI_DBM, HYSTERESIS_PRESETS, check_dbm, run_policy
from .trace import (
    RSSI_MAX_DBM,
    RSSI_MIN_DBM,
    ScanSample,
    SynthConfig,
    Trace,
    generate_synthetic,
    jsonl_line,
    parse_trace,
)


def parse_context(spec: str) -> frozenset[str]:
    """Context field names from text: `none` (or nothing), else comma-joined names."""
    if spec in ("none", ""):
        return frozenset()
    return frozenset(part.strip() for part in spec.split(",") if part.strip())


def _whole(value) -> int:
    """An int, or text that int() reads; a bool, a float or anything else is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(value)
    return int(value)


# axis -> (default values, reader). The reader turns a value as given, by the
# API or as `--values` text, into the value its run uses and its report records.
SWEEP_AXES: dict[str, tuple[list, Callable]] = {
    "threshold": ([-50.0, -60.0, -70.0, -80.0], float),
    "interval": ([10, 30, 60, 120, 300], _whole),
    "shots": ([0, 1, 5], _whole),
    "context_fields": ([
        frozenset(),
        frozenset({"time", "battery"}),
        frozenset({"location", "battery"}),
        frozenset({"location", "time"}),
        frozenset({"location", "time", "battery"}),
    ], lambda v: parse_context(v.replace("+", ",")) if isinstance(v, str) else frozenset(v)),
}

VOLATILE_REPORT_FIELDS = ("wall_clock_ms",)


@dataclass(frozen=True)
class PolicySpec:
    """Which policy to evaluate and how to reach it."""

    kind: str
    seed: int = 0
    fixed_dbm: float | None = None
    prompt: PromptConfig | None = None
    mock: MockRule | None = None
    endpoint: EndpointConfig | None = None
    external_url: str | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs; exactly one trace source must be set."""

    policy: PolicySpec
    trace_path: str | None = None
    synth: SynthConfig | None = None
    task: str = TASK_AP_SELECT
    scan_rssi: float = DEFAULT_SCAN_RSSI_DBM
    hysteresis: str = "off"
    validity_floor: float = DEFAULT_SCAN_RSSI_DBM
    window_k: int = 10
    interval: int | None = None
    score_against: str | None = None
    holdout: bool | None = None
    template_path: str | None = None
    out_dir: str | None = None


@dataclass
class RunReport:
    """One run's config echo, metrics, latency summary, and decision log.

    The fields are declared in the order a report lists its keys.
    """

    config: dict
    scenario: str
    task: str
    policy: str
    trace_hash: str
    seedprint: str
    axis: dict | None = field(default=None, kw_only=True)  # set by sweep
    metrics: dict
    latency: dict
    decision_log: list
    threshold_log: list
    wall_clock_ms: float

    def to_dict(self) -> dict:
        return dict(vars(self))


def _prompt(cfg: ExperimentConfig) -> PromptConfig:
    """The run's prompt settings: its spec's, else the defaults for its task and window."""
    return cfg.policy.prompt or PromptConfig(task=cfg.task, window_k=cfg.window_k)


def _check_path(name: str, path) -> None:
    """ConfigError naming `name` when `path` holds a NUL byte; open() raises ValueError."""
    if "\0" in os.fsdecode(path):
        raise ConfigError(f"{name} {path!r} holds a NUL byte")


def validate_config(cfg: ExperimentConfig) -> None:
    if (cfg.trace_path is None) == (cfg.synth is None):
        raise ConfigError("exactly one of trace_path or synth must be set")
    for name in ("trace_path", "template_path", "out_dir"):
        path = getattr(cfg, name)
        if path is not None:
            _check_path(name, path)
    if cfg.task not in (TASK_AP_SELECT, TASK_THRESHOLD):
        raise ConfigError(f"unknown task {cfg.task!r}")
    if cfg.policy.kind not in POLICIES:
        raise ConfigError(f"unknown policy {cfg.policy.kind!r}")
    if cfg.hysteresis not in HYSTERESIS_PRESETS:
        raise ConfigError(f"unknown hysteresis preset {cfg.hysteresis!r}")
    check_dbm("scan_rssi", cfg.scan_rssi)
    check_dbm("validity_floor", cfg.validity_floor)
    if cfg.window_k < 1:
        raise ConfigError("window_k must be >= 1")
    prompt = cfg.policy.prompt
    if prompt is not None and (prompt.task, prompt.window_k) != (cfg.task, cfg.window_k):
        raise ConfigError("the prompt's task and window_k must equal the run's")
    if cfg.task == TASK_AP_SELECT and cfg.interval is not None:
        raise ConfigError("interval only applies to the threshold task")
    if cfg.task == TASK_THRESHOLD:
        if cfg.policy.kind not in ("fixed", "llm"):
            raise ConfigError("threshold task supports only fixed and llm policies")
        if cfg.interval is not None and cfg.interval < 1:
            raise ConfigError("interval must be >= 1")
        if prompt is not None and prompt.shots > 0:
            raise ConfigError("worked examples are only available for the ap_select task")
    if cfg.policy.kind == "fixed":
        if cfg.policy.fixed_dbm is None:
            raise ConfigError("fixed policy needs fixed_dbm")
        check_dbm("fixed_dbm", cfg.policy.fixed_dbm)
    if cfg.policy.kind == "llm":
        if (cfg.policy.mock is None) == (cfg.policy.endpoint is None):
            raise ConfigError("llm policy needs exactly one of mock or endpoint")
        if prompt is not None and prompt.shots > 0 and cfg.holdout is False:
            raise ConfigError("shots > 0 requires holdout evaluation")
        if cfg.policy.endpoint is not None:
            check_url(cfg.policy.endpoint.base_url)
    if cfg.policy.kind == "external":
        if not cfg.policy.external_url:
            raise ConfigError("external policy needs external_url")
        check_url(cfg.policy.external_url)
    if cfg.score_against not in (None, "opt_ho", "opt_rssi"):
        raise ConfigError(f"bad score_against {cfg.score_against!r}")


def read_trace_file(path) -> Trace:
    """Parse a trace file; a `.csv` name means CSV, anything else JSONL.

    The open file goes to the parser, which reads JSONL a line at a time.
    """
    fmt = "csv" if str(path).endswith(".csv") else "jsonl"
    with open(path, "rb") as fh:
        return parse_trace(fh, fmt)


def load_trace_source(cfg: ExperimentConfig) -> tuple[Trace, str]:
    if cfg.synth is not None:
        return generate_synthetic(cfg.synth), f"synthetic-{cfg.synth.seed}"
    stem = os.path.splitext(os.path.basename(str(cfg.trace_path)))[0]
    return read_trace_file(cfg.trace_path), stem


def trace_content_hash(trace: Trace) -> str:
    """sha256 of the trace's canonical JSONL, fed one line at a time."""
    digest = hashlib.sha256()
    for sample in trace.samples:
        digest.update(jsonl_line(sample).encode("utf-8"))
    return digest.hexdigest()


def _jsonable(value):
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def recompute_metrics(decision_log: list[dict]) -> dict:
    """Headline metrics of a decision log: what reports store and verify_report rechecks.

    A roam attempt, for the error rate, is a roam or a stay marked invalid
    (an invalid pick whose fallback stayed put).
    """
    if not decision_log:
        raise DataError("empty decision log")
    bssids = [e["bssid"] for e in decision_log]
    ho = sum(1 for a, b in zip(bssids, bssids[1:]) if a != b)
    avg = sum(e["rssi"] for e in decision_log) / len(decision_log)
    attempts = [
        e
        for e in decision_log
        if e["action"] == "roam" or (e["valid"] is False and e["action"] == "stay")
    ]
    err = None
    if attempts:
        err = sum(1 for e in attempts if e["valid"] is False) / len(attempts)
    return {"handovers": ho, "avg_rssi_dbm": avg, "error_rate": err}


def _metric_mismatches(d: dict) -> list[str]:
    """The headline metrics that report dict `d` states and its decision log does not give."""
    return [k for k, v in recompute_metrics(d["decision_log"]).items() if d["metrics"][k] != v]


def verify_report(report: dict | RunReport) -> bool:
    """True when the report's metrics match a recomputation from its log."""
    return not _metric_mismatches(report.to_dict() if isinstance(report, RunReport) else report)


def strip_volatile(report_dict: dict) -> dict:
    """Report view with wall-clock-derived data removed, for determinism checks."""
    out = {k: v for k, v in report_dict.items() if k not in VOLATILE_REPORT_FIELDS}
    lat = out.get("latency") or {}
    out["latency"] = {"count": lat.get("count"), "failures": lat.get("failures")}
    return out


def _oracle_plan(trace: Trace, objective: str, floor: float) -> AssociationPlan:
    if objective == "opt_ho":
        return oracle_opt_ho(trace, floor)
    return oracle_opt_rssi(trace, floor)


@dataclass
class _Run:
    """What a policy factory needs for one run, and what it leaves behind."""

    cfg: ExperimentConfig
    label: str  # the report's policy label
    trace: Trace  # the evaluated trace
    prompt: PromptConfig
    template: dict[str, str] | None
    shots: tuple[FewShotExample, ...]
    client: object = None
    threshold_log: list[dict] = field(default_factory=list)
    rows: dict[ScanSample, str] = field(default_factory=dict)  # rendered prompt rows
    conn: JsonConnection = field(default_factory=JsonConnection)  # opened on first post


def _plan_policy(run: _Run) -> dict:
    plan = _oracle_plan(run.trace, run.cfg.policy.kind, run.cfg.validity_floor)
    # plan entries may sit below the floor on relaxed steps; replay
    # must still follow the plan
    return {
        "decide": PlanPolicy(run.trace, plan, run.label).decide,
        "validity_floor": -100.0,
        "initial": plan.plan[0],
    }


def _llm_policy(run: _Run) -> dict:
    spec, cfg = run.cfg.policy, run.cfg
    run.client = (
        MockClient(spec.mock) if spec.mock is not None else HttpClient(spec.endpoint, run.conn)
    )
    if cfg.task == TASK_AP_SELECT:
        return {
            "decide": lambda win, state: ap_select_decide(
                win, state, run.prompt, run.client, cfg.validity_floor, run.shots,
                template=run.template, rows=run.rows,
            )
        }
    interval = cfg.interval if cfg.interval is not None else 30
    return {
        "decide": legacy_decide,
        "pre_decide": lambda win, state: threshold_schedule_step(
            run.threshold_log, interval, win, state, run.prompt, run.client,
            template=run.template, rows=run.rows,
        ),
    }


# kind -> (report label for the spec, run -> run_policy keyword arguments)
POLICIES = {
    "heuristic": (
        lambda spec: f"heuristic(seed={spec.seed})",
        lambda run: {"decide": partial(heuristic_decide, seed=run.cfg.policy.seed)},
    ),
    "legacy": (lambda spec: "legacy", lambda run: {"decide": legacy_decide}),
    "fixed": (
        lambda spec: f"fixed({spec.fixed_dbm:g})",
        lambda run: {
            "decide": partial(legacy_decide, source=run.label),
            "scan_rssi": run.cfg.policy.fixed_dbm,
        },
    ),
    "opt_ho": (lambda spec: "opt-ho", _plan_policy),
    "opt_rssi": (lambda spec: "opt-rssi", _plan_policy),
    "llm": (lambda spec: "llm", _llm_policy),
    "external": (
        lambda spec: "external",
        lambda run: {"decide": ExternalPolicy(run.cfg.policy.external_url, run.conn).decide},
    ),
}


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Replay the configured trace through the configured policy."""
    validate_config(cfg)
    start = time.perf_counter()
    spec = cfg.policy
    prompt_cfg = _prompt(cfg)
    template = load_template(cfg.template_path) if cfg.template_path else None
    full_trace, scenario = load_trace_source(cfg)

    wants_shots = spec.kind == "llm" and prompt_cfg.shots > 0
    eval_trace, shots = full_trace, ()
    if wants_shots or cfg.holdout:  # validate_config refused shots with holdout=False
        train, eval_trace = split_trace(full_trace)
        if wants_shots:
            train_plan = _oracle_plan(train, "opt_ho", cfg.validity_floor)
            shots = build_shot_pool(train, train_plan, prompt_cfg, spec.seed, template)
        scenario = f"{scenario}:test"

    label, build = POLICIES[spec.kind]
    run = _Run(cfg, label(spec), eval_trace, prompt_cfg, template, shots)
    replay = {
        "k": cfg.window_k,
        "scan_rssi": cfg.scan_rssi,
        "hysteresis": HYSTERESIS_PRESETS[cfg.hysteresis],
        "validity_floor": cfg.validity_floor,
        **build(run),
    }
    with closing(run.conn):
        timeline = run_policy(eval_trace, **replay)

    latency = client_latency(run.client)

    metrics = recompute_metrics(timeline.steps)
    if cfg.score_against is not None:
        ref = _oracle_plan(eval_trace, cfg.score_against, cfg.validity_floor)
        metrics["oracle_accuracy_pct"] = label_accuracy(
            [e["bssid"] for e in timeline.steps], ref
        )

    config_dict = _jsonable(asdict(cfg))
    trace_hash = trace_content_hash(eval_trace)
    seed_blob = json.dumps(config_dict, sort_keys=True) + trace_hash
    report = RunReport(
        config=config_dict,
        scenario=scenario,
        task=cfg.task,
        policy=run.label,
        trace_hash=trace_hash,
        seedprint=hashlib.sha256(seed_blob.encode("utf-8")).hexdigest()[:16],
        metrics=metrics,
        latency=latency,
        decision_log=timeline.steps,
        threshold_log=run.threshold_log,
        wall_clock_ms=(time.perf_counter() - start) * 1000.0,
    )
    if cfg.out_dir:
        write_report(report, cfg.out_dir)
    return report


def _safe_name(label: str) -> str:
    return re.sub(r"[^\w.+-]", "_", label)


def write_report(report: RunReport, out_dir: str) -> str:
    """Atomic JSON write (temp file + rename); returns the path."""
    _check_path("out_dir", out_dir)
    os.makedirs(out_dir, exist_ok=True)
    suffix = ""
    if report.axis:
        suffix = f"_{_safe_name(str(report.axis['name']))}_{_safe_name(str(report.axis['value']))}"
    path = os.path.join(out_dir, f"report_{_safe_name(report.policy)}{suffix}.json")
    fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_log_entry(e) -> bool:
    """A decision-log entry as recompute_metrics reads it: a string `bssid`, an
    `rssi` level in dBm, a stay or roam `action` and a boolean `valid`."""
    return (isinstance(e, dict) and isinstance(e.get("bssid"), str)
            and _is_real(e.get("rssi")) and RSSI_MIN_DBM <= e["rssi"] <= RSSI_MAX_DBM
            and e.get("action") in ("stay", "roam") and isinstance(e.get("valid"), bool))


def read_json(path: str, name: str | None = None):
    """The JSON value in the file at `path`; DataError, naming the file, when it holds none.

    `name` stands for the path in the message, as in "plan <path>".
    """
    _check_path("path", path)
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
            raise DataError(f"{name or path}: not JSON ({exc})") from None


def read_report(path: str) -> dict:
    """Load a report file; DataError, naming the file, when it holds no report.

    Beyond the keys, the fields that compare and plot-data format or hash
    must have their report types, so a bad file is a data error there too.
    The headline metrics must be the ones recompute_metrics gives for the
    file's decision log, so a report whose numbers were edited is refused.
    """
    d = read_json(path)
    m = d.get("metrics") if isinstance(d, dict) else None
    if not (isinstance(m, dict) and all(k in d for k in ("policy", "scenario", "trace_hash"))
            and all(k in m for k in ("handovers", "avg_rssi_dbm", "error_rate"))):
        raise DataError(f"{path}: not a report (needs policy, scenario, trace_hash, metrics)")
    lat = d.get("latency")
    mean_ms = lat.get("mean_ms") if isinstance(lat, dict) else None
    wrong = [name for name, ok in (
        ("policy", isinstance(d["policy"], str)),
        ("scenario", isinstance(d["scenario"], str)),
        ("trace_hash", isinstance(d["trace_hash"], str)),
        ("metrics.handovers", _is_real(m["handovers"]) and isinstance(m["handovers"], int)),
        ("metrics.avg_rssi_dbm", _is_real(m["avg_rssi_dbm"])),
        ("metrics.error_rate", m["error_rate"] is None or _is_real(m["error_rate"])),
        ("latency", lat is None or isinstance(lat, dict)),
        ("latency.mean_ms", mean_ms is None or _is_real(mean_ms)),
    ) if not ok]
    if wrong:
        raise DataError(f"{path}: wrong type for {', '.join(wrong)}")
    log = d.get("decision_log")
    if not (isinstance(log, list) and log and all(map(_is_log_entry, log))):
        raise DataError(f"{path}: decision_log is not a list of steps with a bssid, "
                        "an rssi in [-100, 0], a stay or roam action and a valid flag")
    wrong = _metric_mismatches(d)
    if wrong:
        raise DataError(f"{path}: the decision_log gives other values for "
                        f"{', '.join(f'metrics.{k}' for k in wrong)}")
    return d


# ---------------------------------------------------------------------------
# Comparison and plot data

@dataclass(frozen=True)
class ComparisonTable:
    """Aligned per-policy metrics over one shared trace."""

    trace_hash: str
    scenario: str
    rows: tuple[dict, ...]

    def to_csv(self) -> str:
        columns = ("policy", "handovers", "avg_rssi_dbm", "error_rate", "mean_latency_ms")
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([r[c] for c in columns] for r in self.rows)  # None writes as ""
        return out.getvalue()

    def render(self) -> str:
        headers = ("policy", "#HO", "AvgRSSI (dBm)", "ErrorRate", "mean latency (ms)")
        body = []
        for r in self.rows:
            body.append(
                (
                    r["policy"],
                    str(r["handovers"]),
                    f"{r['avg_rssi_dbm']:.2f}",
                    "-" if r["error_rate"] is None else f"{r['error_rate']:.4f}",
                    "-" if r["mean_latency_ms"] is None else f"{r['mean_latency_ms']:.1f}",
                )
            )
        widths = [max(len(h), *(len(row[i]) for row in body)) for i, h in enumerate(headers)]
        fmt = "  ".join(f"{{:<{w}}}" for w in widths)
        lines = [fmt.format(*headers), fmt.format(*("-" * w for w in widths))]
        lines += [fmt.format(*row) for row in body]
        return "\n".join(lines)


def _table_rows(dicts) -> tuple[dict, ...]:
    return tuple(
        {
            "policy": d["policy"],
            "scenario": d["scenario"],
            "handovers": d["metrics"]["handovers"],
            "avg_rssi_dbm": d["metrics"]["avg_rssi_dbm"],
            "error_rate": d["metrics"]["error_rate"],
            "mean_latency_ms": (d.get("latency") or {}).get("mean_ms"),
        }
        for d in dicts
    )


def compare(reports) -> ComparisonTable:
    """Align reports over one trace; refuses mixed traces or fewer than 2."""
    dicts = [r.to_dict() if isinstance(r, RunReport) else r for r in reports]
    if len(dicts) < 2:
        raise DataError("need >= 2 reports to compare")
    hashes = {d["trace_hash"] for d in dicts}
    if len(hashes) > 1:
        raise DataError("trace hash mismatch: reports come from different traces")
    return ComparisonTable(
        trace_hash=dicts[0]["trace_hash"],
        scenario=dicts[0]["scenario"],
        rows=_table_rows(dicts),
    )


def emit_plot_data(obj, out_dir: str) -> list[str]:
    """Write tidy per-metric CSVs (policy,scenario,value); returns the paths."""
    if isinstance(obj, (RunReport, dict)):
        d = obj.to_dict() if isinstance(obj, RunReport) else obj
        obj = ComparisonTable(
            trace_hash=d["trace_hash"], scenario=d["scenario"], rows=_table_rows([d])
        )
    _check_path("out_dir", out_dir)
    os.makedirs(out_dir, exist_ok=True)
    metric_files = [("handovers", "ho.csv"), ("avg_rssi_dbm", "avg_rssi.csv")]
    if any(r["error_rate"] is not None for r in obj.rows):
        metric_files.append(("error_rate", "error_rate.csv"))
    paths = []
    for metric, fname in metric_files:
        path = os.path.join(out_dir, fname)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(("policy", "scenario", "value"))
            out.writerows(
                (r["policy"], r["scenario"], repr(r[metric]))
                for r in obj.rows if r[metric] is not None
            )
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Sweeps

def sweep(template: ExperimentConfig, axis: str, values=None) -> list[RunReport]:
    """One run per axis value, each loading and hashing the template's trace anew.

    Every value is read, and every run's settings checked, before the
    first run; a value its reader refuses, or one given twice, is a
    ConfigError. Each report records the value as read, which its run used.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; known: {sorted(SWEEP_AXES)}")
    defaults, read = SWEEP_AXES[axis]
    read_values = []
    for value in defaults if values is None else values:
        try:
            read_values.append(read(value))
        except (TypeError, ValueError):
            raise ConfigError(f"bad {axis} value {value!r}") from None
        if read_values[-1] in read_values[:-1]:
            raise ConfigError(f"{axis} value {value!r} repeats an earlier value")
    if not read_values:
        raise ConfigError("sweep needs at least one axis value")
    cfgs = [_apply_axis(template, axis, value) for value in read_values]
    for cfg in cfgs:
        validate_config(cfg)
    reports = []
    for value, cfg in zip(read_values, cfgs):
        report = run_experiment(replace(cfg, out_dir=None))
        report.axis = {"name": axis, "value": _jsonable(value)}
        if cfg.out_dir:
            write_report(report, cfg.out_dir)
        reports.append(report)
    return reports


def _apply_axis(template: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    spec = template.policy
    if axis == "threshold":
        return replace(template, policy=replace(spec, kind="fixed", fixed_dbm=value))
    if axis == "interval":
        if template.task != TASK_THRESHOLD or spec.kind != "llm":
            raise ConfigError("interval sweep needs task=threshold and an llm policy")
        return replace(template, interval=value)
    prompt = _prompt(template)
    if spec.kind != "llm":
        raise ConfigError(f"{axis} sweep needs an llm policy")
    if axis == "shots":
        cfg = replace(template, policy=replace(spec, prompt=replace(prompt, shots=value)))
        # all runs share the held-out evaluation span so they stay comparable
        return replace(cfg, holdout=True)
    # context_fields, the last axis: sweep refuses any other
    return replace(template, policy=replace(spec, prompt=replace(prompt, context_fields=value)))
