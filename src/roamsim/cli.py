"""Command-line interface.

Subcommands: gen-trace, simulate, oracle, export, sweep, compare,
plot-data, bench-latency. Exit codes: 0 ok, 1 configuration error,
2 data error, 3 endpoint error.

simulate and sweep optionally read an INI config whose sections mirror
the parameter grouping ([trace], [task], [policy], [llm], [output]);
every command-line flag overrides its config key, and a section or key
the CLI does not know is refused.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from contextlib import closing
from functools import partial

from .agent import (
    STYLE_COT,
    STYLE_PLAIN,
    TASK_AP_SELECT,
    TASK_THRESHOLD,
    PromptConfig,
    load_template,
)
from .errors import ConfigError, DataError, EndpointError
from .export import (
    REJECTED_HEURISTIC,
    REJECTED_LEGACY,
    REJECTED_SECOND_BEST,
    check_plan_aps,
    export_preferences,
    export_sft,
)
from .gateway import (
    EndpointConfig,
    HttpClient,
    JsonConnection,
    MockClient,
    MockRule,
    check_url,
    client_latency,
)
from .policies import (
    OBJECTIVE_MAX_RSSI,
    OBJECTIVE_MIN_HO,
    AssociationPlan,
    solve_plan,
)
from .roaming import DEFAULT_SCAN_RSSI_DBM, HYSTERESIS_PRESETS, check_dbm
from .runner import (
    ExperimentConfig,
    POLICIES,
    SWEEP_AXES,
    PolicySpec,
    compare,
    emit_plot_data,
    parse_context,
    read_json,
    read_report,
    read_trace_file,
    run_experiment,
    sweep,
)
from .trace import SynthConfig, generate_synthetic, trace_to_jsonl

# The live endpoint's URL and model where no flag or INI key gives them.
ENV_BASE_URL = "ROAMSIM_LLM_BASE_URL"
ENV_MODEL = "ROAMSIM_LLM_MODEL"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are configuration errors
        raise ConfigError(message)


_OBJECTIVES = {"min-ho": OBJECTIVE_MIN_HO, "max-rssi": OBJECTIVE_MAX_RSSI}


def _parse_dbm(spec: str) -> float | tuple[float, ...]:
    base = tuple(float(b) for b in spec.split(","))
    return base[0] if len(base) == 1 else base


def _parse_mock(spec: str, delay_ms: float | None = None) -> MockRule:
    kw = {} if delay_ms is None else {"delay_ms": delay_ms}
    if spec == "argmax":
        return MockRule.argmax_rssi(**kw)
    kind, _, arg = spec.partition(":")
    try:
        if kind == "fixed":
            return MockRule.fixed_threshold(float(arg), **kw)
        if kind == "constant":
            return MockRule.constant_text(arg, **kw)
        if kind == "fail-after":
            return MockRule.fail_after(int(arg), **kw)
        if kind == "scripted":
            with open(arg, encoding="utf-8") as fh:
                return MockRule.scripted([ln.rstrip("\n") for ln in fh], **kw)
    except ConfigError:  # the rule's own refusal
        raise
    except ValueError as exc:  # an argument float or int refuses; replies that are not UTF-8
        raise ConfigError(f"--mock {spec!r}: {exc}") from None
    raise ConfigError(f"unknown mock spec {spec!r}")


# Each simulate/sweep setting: its flags, its INI section and key, and its
# add_argument keywords. An unset flag takes its INI key's value, cast by the
# flag's type; a setting given nowhere keeps its config class default.
_EXPERIMENT_SETTINGS = (
    (("--trace",), "trace", "file", {"help": "trace file (.jsonl or .csv)"}),
    (("--synth-aps",), "trace", "synth_aps",
     {"type": int, "help": "generate a synthetic trace with N APs"}),
    (("--synth-duration",), "trace", "synth_duration", {"type": int}),
    (("--synth-seed",), "trace", "synth_seed", {"type": int}),
    (("--synth-base",), "trace", "synth_base",
     {"type": _parse_dbm, "help": "base dBm, single value or comma list per AP"}),
    (("--synth-stddev",), "trace", "synth_stddev", {"type": float}),
    (("--synth-floor",), "trace", "synth_floor", {"type": float}),
    (("--synth-ceil",), "trace", "synth_ceil", {"type": float}),
    (("--task",), "task", "task", {"choices": [TASK_AP_SELECT, TASK_THRESHOLD]}),
    (("--policy",), "policy", "policy", {"choices": [k.replace("_", "-") for k in POLICIES]}),
    (("--seed",), "policy", "seed", {"type": int}),
    (("--fixed-dbm",), "policy", "fixed_dbm", {"type": float}),
    (("--mock",), "llm", "mock",
     {"help": "argmax | fixed:V | constant:TEXT | fail-after:N | scripted:FILE"}),
    (("--mock-delay-ms",), "llm", "mock_delay_ms", {"type": float}),
    (("--endpoint-url",), "llm", "base_url", {}),
    (("--model",), "llm", "model", {}),
    (("--external-url",), "policy", "external_url", {}),
    (("--scan-rssi",), "task", "scan_rssi", {"type": float}),
    (("--hysteresis",), "task", "hysteresis", {"choices": list(HYSTERESIS_PRESETS)}),
    (("--validity-floor",), "task", "validity_floor", {"type": float}),
    (("--window-k", "-k"), "task", "window_k", {"type": int}),
    (("--interval",), "task", "interval", {"type": int}),
    (("--style",), "llm", "style", {"choices": [STYLE_PLAIN, STYLE_COT]}),
    (("--shots",), "llm", "shots", {"type": int}),
    (("--context",), "llm", "context",
     {"type": parse_context, "help": "comma list of location,time,battery or 'none'"}),
    (("--template",), "llm", "template", {"help": "prompt template override file"}),
    (("--score-against",), "task", "score_against", {"choices": ["opt_ho", "opt_rssi"]}),
    (("--out",), "output", "dir", {"help": "output directory for the report"}),
)


def _load_ini(path: str | None) -> dict[str, dict[str, str]]:
    if not path:
        return {}
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
        ini = {section: dict(cp.items(section)) for section in cp.sections()}
        defaults = dict(cp.items(cp.default_section))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path!r}: {exc}") from None
    known: dict[str, set[str]] = {}
    for _, section, key, _ in _EXPERIMENT_SETTINGS:
        known.setdefault(section, set()).add(key)
    known[cp.default_section] = set().union(*known.values())  # a key some section knows
    inherited = cp.defaults().keys()
    for section, keys in {cp.default_section: inherited,
                          **{sec: ini[sec].keys() - inherited for sec in ini}}.items():
        if section not in known:
            raise ConfigError(f"config file {path!r}: unknown section [{section}]")
        if keys - known[section]:
            key = min(keys - known[section])
            raise ConfigError(f"config file {path!r}: unknown key {key!r} in [{section}]")
    # A [DEFAULT] key reaches the section that owns it, listed in the file or not.
    return {section: ini.get(section, defaults) for section in known}


def _fields(given: dict, *names: str, **renamed: str) -> dict:
    """Keyword arguments for the given (not None) settings: each by its name, or renamed."""
    pairs = {**{name: name for name in names}, **renamed}
    return {f: given[name] for f, name in pairs.items() if given.get(name) is not None}


def _endpoint(url: str | None, model: str | None, mock, env: bool = True):
    """The live endpoint a command calls: at `url`, else (where `env`) at the
    environment's URL; None with a mock or with neither URL. The model is
    `model`, else the environment's, else "local"."""
    if mock or not (url or env and os.environ.get(ENV_BASE_URL)):
        return None
    return EndpointConfig(base_url=os.environ[ENV_BASE_URL] if url is None else url,
                          model=os.environ.get(ENV_MODEL, "local") if model is None else model)


def _experiment_config(args) -> ExperimentConfig:
    ini = _load_ini(args.config)
    s = {}  # each setting given by flag or INI key, under its flag's dest
    for flags, section, key, kw in _EXPERIMENT_SETTINGS:
        dest = flags[0][2:].replace("-", "_")
        value = getattr(args, dest)
        if value is None and key in ini.get(section, {}):
            text = ini[section][key]
            try:
                if "\0" in text:  # no setting takes one; a path with one makes open() raise
                    raise ValueError
                value = kw.get("type", str)(text)
            except ValueError:
                raise ConfigError(f"config file {args.config!r}: bad value {text!r} "
                                  f"for {key!r} in [{section}]") from None
        s[dest] = value
    if s["policy"] is None:
        raise ConfigError("a policy is required (--policy or [policy] policy=...)")
    kind = s["policy"].replace("-", "_")
    mock = _parse_mock(s["mock"], s["mock_delay_ms"]) if s["mock"] else None
    endpoint = _endpoint(s["endpoint_url"], s["model"], mock, env=kind == "llm")
    prompt = (PromptConfig(**_fields(s, "style", "shots", "window_k", "task",
                                     context_fields="context")) if kind == "llm" else None)
    synth = None if s["synth_aps"] is None else SynthConfig(**_fields(
        s, num_aps="synth_aps", duration="synth_duration", base_dbm="synth_base",
        step_stddev="synth_stddev", floor_dbm="synth_floor", ceil_dbm="synth_ceil",
        seed="synth_seed",
    ))
    spec = PolicySpec(kind, prompt=prompt, mock=mock, endpoint=endpoint,
                      **_fields(s, "seed", "fixed_dbm", "external_url"))
    return ExperimentConfig(spec, synth=synth, **_fields(
        s, "task", "scan_rssi", "hysteresis", "validity_floor", "window_k", "interval",
        "score_against", trace_path="trace", template_path="template", out_dir="out",
    ))


def _add_experiment_flags(p: argparse.ArgumentParser, *only: str) -> None:
    """Add --config and every setting's flags, or just the named long flags."""
    if not only:
        p.add_argument("--config", help="INI config file; flags override its keys")
    for flags, _, _, kw in _EXPERIMENT_SETTINGS:
        if not only or flags[0] in only:
            p.add_argument(*(flags[:1] if only else flags), **kw)


def build_parser() -> _Parser:
    parser = _Parser(prog="roamsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-trace", help="generate a synthetic trace as JSONL")
    p.add_argument("--num-aps", type=int)
    p.add_argument("--duration", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--base", type=_parse_dbm, help="base dBm, single value or comma list")
    p.add_argument("--stddev", type=float)
    p.add_argument("--floor", type=float)
    p.add_argument("--ceil", type=float)
    p.add_argument("--location", action="store_true", help="emit a location path")
    p.add_argument("--battery-drain", type=float, help="battery %% drained per step")
    p.add_argument("--sample-interval", type=int)
    p.add_argument("-o", "--out", help="output file (default: stdout)")

    p = sub.add_parser("simulate", help="run one policy over one trace")
    _add_experiment_flags(p)

    p = sub.add_parser("oracle", help="solve an optimal association plan")
    p.add_argument("--trace", required=True)
    p.add_argument("--objective", choices=list(_OBJECTIVES), required=True)
    p.add_argument("--floor", type=float)
    p.add_argument("-o", "--out", help="plan JSON output (default: stdout)")

    p = sub.add_parser("export", help="export a fine-tuning corpus from a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--kind", choices=["sft", "preferences"], required=True)
    p.add_argument("--objective", choices=list(_OBJECTIVES), default="min-ho")
    p.add_argument("--plan", help="precomputed plan JSON (otherwise solved here)")
    p.add_argument("--rejected", choices=[REJECTED_LEGACY, REJECTED_HEURISTIC,
                                          REJECTED_SECOND_BEST], default=REJECTED_LEGACY)
    p.add_argument("--seed", type=int)
    p.add_argument("--floor", type=float)
    _add_experiment_flags(p, "--style", "--context", "--window-k", "--scan-rssi", "--template")
    p.add_argument("-o", "--out", required=True)

    p = sub.add_parser("sweep", help="run one policy across an axis of settings")
    _add_experiment_flags(p)
    p.add_argument("--axis", required=True, choices=list(SWEEP_AXES))
    p.add_argument("--values", help="comma list overriding the default axis values")

    p = sub.add_parser("compare", help="align reports from one trace into a table")
    p.add_argument("reports", nargs="+", help="report JSON files")
    p.add_argument("-o", "--out", help="also write the table as CSV")

    p = sub.add_parser("plot-data", help="emit tidy per-metric CSVs from reports")
    p.add_argument("reports", nargs="+", help="report JSON files")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("bench-latency", help="probe an endpoint or mock N times")
    _add_experiment_flags(p, "--endpoint-url", "--model", "--mock", "--mock-delay-ms")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--prompt", default="t=0 | aps: AA:00:00:00:00:01=-60.0")
    return parser


def _write_out(path: str | None, text: str, message: str) -> None:
    """Write `text` to the file at `path` and print `message`; no path means stdout."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(message)
    else:
        sys.stdout.write(text)


def _cmd_gen_trace(args) -> int:
    cfg = SynthConfig(**_fields(
        vars(args), "num_aps", "duration", "sample_interval", "seed", base_dbm="base",
        step_stddev="stddev", floor_dbm="floor", ceil_dbm="ceil", emit_location="location",
        battery_drain_pct_per_step="battery_drain",
    ))
    _write_out(args.out, trace_to_jsonl(generate_synthetic(cfg)),
               f"wrote {cfg.duration} samples to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    report = run_experiment(_experiment_config(args))
    m = report.metrics
    err = "-" if m["error_rate"] is None else f"{m['error_rate']:.4f}"
    print(f"policy={report.policy} scenario={report.scenario} task={report.task}")
    print(f"#HO={m['handovers']} AvgRSSI={m['avg_rssi_dbm']:.2f} dBm ErrorRate={err}")
    if "oracle_accuracy_pct" in m:
        print(f"oracle accuracy={m['oracle_accuracy_pct']:.2f}%")
    lat = report.latency
    if lat["count"] or lat["failures"]:
        mean = "" if lat["mean_ms"] is None else f" mean={lat['mean_ms']:.1f} ms"
        print(f"llm calls={lat['count']} failures={lat['failures']}{mean}")
    return 0


_PLAN_KEYS = ("objective", "objective_value", "handovers", "plan")  # a plan file's, in order


def plan_to_dict(plan: AssociationPlan) -> dict:
    d = {key: getattr(plan, key) for key in _PLAN_KEYS}
    d["plan"] = list(plan.plan)
    return d


def plan_from_dict(d: dict, path: str) -> AssociationPlan:
    """The plan that plan_to_dict wrote to `path`; anything else is a DataError."""
    if not (isinstance(d, dict) and d.keys() >= set(_PLAN_KEYS) and isinstance(d["plan"], list)
            and all(isinstance(b, str) for b in d["plan"])):
        raise DataError(f"plan {path}: not an object with objective, objective_value, "
                        "handovers and a plan list of BSSIDs")
    fields = {key: d[key] for key in _PLAN_KEYS}
    fields["plan"] = tuple(d["plan"])
    return AssociationPlan(**fields)


def _plan_solver(args):
    """solve_plan for --objective under --floor, as a function of the trace.

    The floor is checked here, so a command calls this before it reads its trace.
    """
    floor = DEFAULT_SCAN_RSSI_DBM if args.floor is None else args.floor
    check_dbm("validity_floor", floor)
    return partial(solve_plan, objective=_OBJECTIVES[args.objective], floor=floor)


def _cmd_oracle(args) -> int:
    solve = _plan_solver(args)
    plan = solve(read_trace_file(args.trace))
    _write_out(args.out, json.dumps(plan_to_dict(plan), indent=2) + "\n",
               f"wrote plan ({plan.handovers} handovers) to {args.out}")
    return 0


def _cmd_export(args) -> int:
    if args.plan and args.floor is not None:
        raise ConfigError("--floor applies to a plan export solves; it cannot change a --plan")
    if args.scan_rssi is not None:
        check_dbm("scan_rssi", args.scan_rssi)
    solve = _plan_solver(args)
    cfg = PromptConfig(**_fields(vars(args), "style", "window_k", context_fields="context"))
    template = load_template(args.template) if args.template else None
    trace = read_trace_file(args.trace)
    if args.plan:
        plan = plan_from_dict(read_json(args.plan, f"plan {args.plan}"), args.plan)
        if len(plan.plan) != len(trace):  # checked before the output file opens
            raise DataError(f"plan {args.plan}: {len(plan.plan)} steps, trace has {len(trace)}")
        check_plan_aps(trace, plan)
    else:
        plan = solve(trace)
    with open(args.out, "w", encoding="utf-8") as fh:
        if args.kind == "sft":
            count = export_sft(trace, plan, cfg, fh, template=template,
                               **_fields(vars(args), "scan_rssi"))
        else:
            count = export_preferences(trace, plan, args.rejected, cfg, fh, template=template,
                                       **_fields(vars(args), "seed", "scan_rssi"))
    print(f"wrote {count} records to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    template = _experiment_config(args)
    values = [v.strip() for v in args.values.split(",") if v.strip()] if args.values else None
    reports = sweep(template, args.axis, values)
    table = compare(reports) if len(reports) > 1 else None
    for r in reports:
        m = r.metrics
        err = "-" if m["error_rate"] is None else f"{m['error_rate']:.4f}"
        print(f"{args.axis}={r.axis['value']}: #HO={m['handovers']} "
              f"AvgRSSI={m['avg_rssi_dbm']:.2f} ErrorRate={err} calls={r.latency['count']}")
    if table and template.out_dir:
        path = os.path.join(template.out_dir, "comparison.csv")
        _write_out(path, table.to_csv(), f"wrote {path}")
    return 0


def _cmd_compare(args) -> int:
    table = compare([read_report(p) for p in args.reports])
    print(table.render())
    if args.out:
        _write_out(args.out, table.to_csv(), f"wrote {args.out}")
    return 0


def _cmd_plot_data(args) -> int:
    reports = [read_report(p) for p in args.reports]
    table = compare(reports) if len(reports) > 1 else None
    paths = emit_plot_data(table if table else reports[0], args.out)
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_bench_latency(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be at least 1, not {args.n}")
    conn = JsonConnection()
    mock = _parse_mock(args.mock, args.mock_delay_ms) if args.mock else None
    endpoint = _endpoint(args.endpoint_url, args.model, mock)
    if mock:
        client = MockClient(mock)
    elif endpoint:
        check_url(endpoint.base_url)  # refused before the first call, as a run refuses it
        client = HttpClient(endpoint, conn)
    else:
        raise ConfigError(f"bench-latency needs --endpoint-url, {ENV_BASE_URL} or --mock")
    with closing(conn):
        for _ in range(args.n):
            client.complete(args.prompt)
    print(json.dumps(client_latency(client), indent=2))
    return 0


_COMMANDS = {
    "gen-trace": _cmd_gen_trace,
    "simulate": _cmd_simulate,
    "oracle": _cmd_oracle,
    "export": _cmd_export,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "plot-data": _cmd_plot_data,
    "bench-latency": _cmd_bench_latency,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except EndpointError as exc:
        print(f"endpoint error: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:  # OSError: a missing file, a directory for a file, ...
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
