"""Command-line interface.

Subcommands: gen-trace, simulate, oracle, export, sweep, compare,
plot-data, bench-latency. Exit codes: 0 ok, 1 configuration error,
2 data error, 3 endpoint error.

simulate and sweep optionally read an INI config whose sections mirror
the parameter grouping ([trace], [task], [policy], [llm], [output]);
every command-line flag overrides its config key.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from contextlib import closing

from .agent import PromptConfig, load_template
from .errors import ConfigError, DataError, EndpointError
from .export import export_preferences, export_sft
from .gateway import (
    EndpointConfig,
    HttpClient,
    JsonConnection,
    MockClient,
    MockRule,
    latency_stats,
)
from .policies import (
    OBJECTIVE_MAX_RSSI,
    OBJECTIVE_MIN_HO,
    AssociationPlan,
    OracleConstraints,
    brute_force_plan,
    solve_plan,
)
from .runner import (
    ExperimentConfig,
    POLICIES,
    SWEEP_AXES,
    PolicySpec,
    compare,
    emit_plot_data,
    read_report,
    read_trace_file,
    run_experiment,
    sweep,
)
from .trace import SynthConfig, generate_synthetic, trace_to_jsonl


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are configuration errors
        raise ConfigError(message)


def _parse_objective(name: str) -> str:
    return {"min-ho": OBJECTIVE_MIN_HO, "max-rssi": OBJECTIVE_MAX_RSSI}[name]


def _parse_mock(spec: str, delay_ms: float) -> MockRule:
    if spec == "argmax":
        return MockRule.argmax_rssi(delay_ms=delay_ms)
    kind, _, arg = spec.partition(":")
    if kind == "fixed":
        return MockRule.fixed_threshold(float(arg), delay_ms=delay_ms)
    if kind == "constant":
        return MockRule.constant_text(arg, delay_ms=delay_ms)
    if kind == "fail-after":
        return MockRule.fail_after(int(arg), delay_ms=delay_ms)
    if kind == "scripted":
        with open(arg, encoding="utf-8") as fh:
            return MockRule.scripted([ln.rstrip("\n") for ln in fh], delay_ms=delay_ms)
    raise ConfigError(f"unknown mock spec {spec!r}")


def _parse_context(spec: str) -> frozenset[str]:
    if spec in ("none", ""):
        return frozenset()
    return frozenset(part.strip() for part in spec.split(",") if part.strip())


def _load_ini(path: str | None) -> dict[str, dict[str, str]]:
    if not path:
        return {}
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
        return {section: dict(cp.items(section)) for section in cp.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"config file {path!r}: {exc}") from None


def _pick(flag, ini: dict, section: str, key: str, default=None, cast=None):
    if flag is not None:
        return flag
    raw = ini.get(section, {}).get(key)
    if raw is None:
        return default
    return cast(raw) if cast else raw


def _synth_from(args, ini) -> SynthConfig | None:
    num_aps = _pick(args.synth_aps, ini, "trace", "synth_aps", cast=int)
    if num_aps is None:
        return None
    bases = _pick(args.synth_base, ini, "trace", "synth_base", default="-60")
    base = tuple(float(b) for b in str(bases).split(","))
    return SynthConfig(
        num_aps=num_aps,
        duration=_pick(args.synth_duration, ini, "trace", "synth_duration", 300, int),
        base_dbm=base[0] if len(base) == 1 else base,
        step_stddev=_pick(args.synth_stddev, ini, "trace", "synth_stddev", 1.0, float),
        floor_dbm=_pick(args.synth_floor, ini, "trace", "synth_floor", -95.0, float),
        ceil_dbm=_pick(args.synth_ceil, ini, "trace", "synth_ceil", -30.0, float),
        seed=_pick(args.synth_seed, ini, "trace", "synth_seed", 0, int),
    )


def _experiment_config(args) -> ExperimentConfig:
    ini = _load_ini(getattr(args, "config", None))
    mock_spec = _pick(args.mock, ini, "llm", "mock")
    delay = _pick(args.mock_delay_ms, ini, "llm", "mock_delay_ms", 0.0, float)
    base_url = _pick(args.endpoint_url, ini, "llm", "base_url")
    policy_kind = _pick(args.policy, ini, "policy", "policy")
    if policy_kind is None:
        raise ConfigError("a policy is required (--policy or [policy] policy=...)")
    policy_kind = policy_kind.replace("-", "_")

    mock = _parse_mock(mock_spec, delay) if mock_spec else None
    endpoint = None
    if base_url and not mock:
        endpoint = EndpointConfig.from_env(
            base_url=base_url, model=_pick(args.model, ini, "llm", "model") or "local"
        )

    prompt = None
    if policy_kind == "llm":
        task = _pick(args.task, ini, "task", "task", "ap_select")
        prompt = PromptConfig(
            style=_pick(args.style, ini, "llm", "style", "cot"),
            shots=_pick(args.shots, ini, "llm", "shots", 0, int),
            context_fields=_parse_context(
                _pick(args.context, ini, "llm", "context", "location,time")
            ),
            window_k=_pick(args.window_k, ini, "task", "window_k", 10, int),
            task=task,
        )

    spec = PolicySpec(
        kind=policy_kind,
        seed=_pick(args.seed, ini, "policy", "seed", 0, int),
        fixed_dbm=_pick(args.fixed_dbm, ini, "policy", "fixed_dbm", cast=float),
        prompt=prompt,
        mock=mock,
        endpoint=endpoint,
        external_url=_pick(args.external_url, ini, "policy", "external_url"),
    )
    return ExperimentConfig(
        policy=spec,
        trace_path=_pick(args.trace, ini, "trace", "file"),
        synth=_synth_from(args, ini),
        task=_pick(args.task, ini, "task", "task", "ap_select"),
        scan_rssi=_pick(args.scan_rssi, ini, "task", "scan_rssi", -70.0, float),
        hysteresis=_pick(args.hysteresis, ini, "task", "hysteresis", "off"),
        validity_floor=_pick(args.validity_floor, ini, "task", "validity_floor", -70.0, float),
        window_k=_pick(args.window_k, ini, "task", "window_k", 10, int),
        interval=_pick(args.interval, ini, "task", "interval", cast=int),
        score_against=_pick(args.score_against, ini, "task", "score_against"),
        template_path=_pick(args.template, ini, "llm", "template"),
        out_dir=_pick(args.out, ini, "output", "dir"),
    )


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI config file; flags override its keys")
    p.add_argument("--trace", help="trace file (.jsonl or .csv)")
    p.add_argument("--synth-aps", type=int, help="generate a synthetic trace with N APs")
    p.add_argument("--synth-duration", type=int)
    p.add_argument("--synth-seed", type=int)
    p.add_argument("--synth-base", help="base dBm, single value or comma list per AP")
    p.add_argument("--synth-stddev", type=float)
    p.add_argument("--synth-floor", type=float)
    p.add_argument("--synth-ceil", type=float)
    p.add_argument("--task", choices=["ap_select", "threshold"])
    p.add_argument("--policy", choices=[k.replace("_", "-") for k in POLICIES])
    p.add_argument("--seed", type=int)
    p.add_argument("--fixed-dbm", type=float)
    p.add_argument("--mock", help="argmax | fixed:V | constant:TEXT | fail-after:N | scripted:FILE")
    p.add_argument("--mock-delay-ms", type=float)
    p.add_argument("--endpoint-url")
    p.add_argument("--model")
    p.add_argument("--external-url")
    p.add_argument("--scan-rssi", type=float)
    p.add_argument("--hysteresis", choices=["off", "standard-80211"])
    p.add_argument("--validity-floor", type=float)
    p.add_argument("--window-k", "-k", type=int, dest="window_k")
    p.add_argument("--interval", type=int)
    p.add_argument("--style", choices=["plain", "cot"])
    p.add_argument("--shots", type=int)
    p.add_argument("--context", help="comma list of location,time,battery or 'none'")
    p.add_argument("--template", help="prompt template override file")
    p.add_argument("--score-against", choices=["opt_ho", "opt_rssi"])
    p.add_argument("--out", help="output directory for the report")


def build_parser() -> _Parser:
    parser = _Parser(prog="roamsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-trace", help="generate a synthetic trace as JSONL")
    p.add_argument("--num-aps", type=int, default=4)
    p.add_argument("--duration", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--base", default="-60", help="base dBm, single value or comma list")
    p.add_argument("--stddev", type=float, default=1.0)
    p.add_argument("--floor", type=float, default=-95.0)
    p.add_argument("--ceil", type=float, default=-30.0)
    p.add_argument("--location", action="store_true", help="emit a location path")
    p.add_argument("--battery-drain", type=float, help="battery %% drained per step")
    p.add_argument("--sample-interval", type=int, default=1)
    p.add_argument("-o", "--out", help="output file (default: stdout)")

    p = sub.add_parser("simulate", help="run one policy over one trace")
    _add_experiment_flags(p)

    p = sub.add_parser("oracle", help="solve an optimal association plan")
    p.add_argument("--trace", required=True)
    p.add_argument("--objective", choices=["min-ho", "max-rssi"], required=True)
    p.add_argument("--floor", type=float, default=-70.0)
    p.add_argument("--empty-rule", choices=["relax", "error"], default="relax")
    p.add_argument("--brute-force", action="store_true", help="use the exhaustive solver")
    p.add_argument("-o", "--out", help="plan JSON output (default: stdout)")

    p = sub.add_parser("export", help="export a fine-tuning corpus from a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--kind", choices=["sft", "preferences"], required=True)
    p.add_argument("--objective", choices=["min-ho", "max-rssi"], default="min-ho")
    p.add_argument("--plan", help="precomputed plan JSON (otherwise solved here)")
    p.add_argument("--rejected", choices=["legacy", "heuristic", "second_best"],
                   default="legacy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--style", choices=["plain", "cot"], default="cot")
    p.add_argument("--context", default="location,time")
    p.add_argument("--window-k", type=int, default=10)
    p.add_argument("--scan-rssi", type=float, default=-70.0)
    p.add_argument("--floor", type=float, default=-70.0)
    p.add_argument("--template", help="prompt template override file")
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
    p.add_argument("--endpoint-url")
    p.add_argument("--model", default="local")
    p.add_argument("--mock", help="mock spec instead of a live endpoint")
    p.add_argument("--mock-delay-ms", type=float, default=0.0)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--prompt", default="t=0 | aps: AA:00:00:00:00:01=-60.0")
    return parser


def _cmd_gen_trace(args) -> int:
    base = tuple(float(b) for b in str(args.base).split(","))
    cfg = SynthConfig(
        num_aps=args.num_aps,
        duration=args.duration,
        base_dbm=base[0] if len(base) == 1 else base,
        step_stddev=args.stddev,
        floor_dbm=args.floor,
        ceil_dbm=args.ceil,
        emit_location=args.location,
        battery_drain_pct_per_step=args.battery_drain,
        sample_interval=args.sample_interval,
        seed=args.seed,
    )
    try:
        text = trace_to_jsonl(generate_synthetic(cfg))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {cfg.duration} samples to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_simulate(args) -> int:
    report = run_experiment(_experiment_config(args))
    m = report.metrics
    err = "-" if m["error_rate"] is None else f"{m['error_rate']:.4f}"
    print(f"policy={report.policy} scenario={report.scenario} task={report.task}")
    print(f"#HO={m['handovers']} AvgRSSI={m['avg_rssi_dbm']:.2f} dBm ErrorRate={err}")
    if "oracle_accuracy_pct" in m:
        print(f"oracle accuracy={m['oracle_accuracy_pct']:.2f}%")
    if report.latency["count"] or report.latency["failures"]:
        print(
            f"llm calls={report.latency['count']} failures={report.latency['failures']}"
            + (
                f" mean={report.latency['mean_ms']:.1f} ms"
                if report.latency["mean_ms"] is not None
                else ""
            )
        )
    return 0


def plan_to_dict(plan: AssociationPlan) -> dict:
    return {
        "objective": plan.objective,
        "objective_value": plan.objective_value,
        "handovers": plan.handovers,
        "plan": list(plan.plan),
    }


def plan_from_dict(d: dict) -> AssociationPlan:
    return AssociationPlan(
        plan=tuple(d["plan"]),
        objective=d["objective"],
        objective_value=d["objective_value"],
        handovers=d["handovers"],
    )


def _cmd_oracle(args) -> int:
    trace = read_trace_file(args.trace)
    constraints = OracleConstraints(
        validity_floor=args.floor,
        empty_feasible_set_rule="relax_to_argmax" if args.empty_rule == "relax" else "error",
    )
    objective = _parse_objective(args.objective)
    solver = brute_force_plan if args.brute_force else solve_plan
    plan = solver(trace, objective, constraints)
    text = json.dumps(plan_to_dict(plan), indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote plan ({plan.handovers} handovers) to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_export(args) -> int:
    trace = read_trace_file(args.trace)
    if args.plan:
        with open(args.plan, encoding="utf-8") as fh:
            plan = plan_from_dict(json.load(fh))
    else:
        plan = solve_plan(
            trace, _parse_objective(args.objective), OracleConstraints(validity_floor=args.floor)
        )
    cfg = PromptConfig(
        style=args.style,
        shots=0,
        context_fields=_parse_context(args.context),
        window_k=args.window_k,
        task="ap_select",
    )
    template = load_template(args.template) if args.template else None
    if args.kind == "sft":
        count = export_sft(trace, plan, cfg, args.out, scan_rssi=args.scan_rssi,
                           template=template)
    else:
        count = export_preferences(
            trace, plan, args.rejected, cfg, args.out, seed=args.seed,
            scan_rssi=args.scan_rssi, template=template,
        )
    print(f"wrote {count} records to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    template = _experiment_config(args)
    values = None
    if args.values:
        raw = [v.strip() for v in args.values.split(",") if v.strip()]
        if args.axis == "threshold":
            values = [float(v) for v in raw]
        elif args.axis in ("interval", "shots"):
            values = [int(v) for v in raw]
        else:
            values = [_parse_context(v.replace("+", ",")) for v in raw]
    reports = sweep(template, args.axis, values)
    table = compare([r.to_dict() for r in reports]) if len(reports) > 1 else None
    for r in reports:
        m = r.metrics
        err = "-" if m["error_rate"] is None else f"{m['error_rate']:.4f}"
        print(
            f"{args.axis}={r.axis['value']}: #HO={m['handovers']} "
            f"AvgRSSI={m['avg_rssi_dbm']:.2f} ErrorRate={err} "
            f"calls={r.latency['count']}"
        )
    if table and template.out_dir:
        path = os.path.join(template.out_dir, "comparison.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(table.to_csv())
        print(f"wrote {path}")
    return 0


def _cmd_compare(args) -> int:
    table = compare([read_report(p) for p in args.reports])
    print(table.render())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table.to_csv())
        print(f"wrote {args.out}")
    return 0


def _cmd_plot_data(args) -> int:
    reports = [read_report(p) for p in args.reports]
    table = compare(reports) if len(reports) > 1 else None
    paths = emit_plot_data(table if table else reports[0], args.out)
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_bench_latency(args) -> int:
    conn = JsonConnection()
    if args.mock:
        client = MockClient(_parse_mock(args.mock, args.mock_delay_ms))
    elif args.endpoint_url:
        cfg = EndpointConfig.from_env(base_url=args.endpoint_url, model=args.model)
        client = HttpClient(cfg, conn)
    else:
        raise ConfigError("bench-latency needs --endpoint-url or --mock")
    with closing(conn):
        for _ in range(args.n):
            client.complete(args.prompt)
    summary = latency_stats(client.records)
    if isinstance(client, HttpClient) and summary["count"] == 0:
        raise EndpointError("endpoint never answered")
    print(json.dumps(summary, indent=2))
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except EndpointError as exc:
        print(f"endpoint error: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing file, a directory where a file goes, ...
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
