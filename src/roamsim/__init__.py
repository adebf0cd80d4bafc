"""Trace-driven Wi-Fi roaming simulator and policy evaluation harness."""

from .agent import (
    FewShotExample,
    PromptConfig,
    ap_select_decide,
    build_prompt,
    build_shot_pool,
    parse_ap_response,
    parse_threshold_response,
    threshold_schedule_step,
)
from .errors import (
    ConfigError,
    DataError,
    EndpointError,
    RoamsimError,
    SearchSpaceError,
    TraceFormatError,
)
from .export import export_preferences, export_sft, label_accuracy, split_trace
from .gateway import (
    CompletionRecord,
    EndpointConfig,
    HttpClient,
    MockRule,
    latency_stats,
)
from .policies import (
    AssociationPlan,
    brute_force_plan,
    heuristic_decide,
    legacy_decide,
    oracle_opt_ho,
    oracle_opt_rssi,
    solve_plan,
)
from .roaming import (
    AssociationState,
    PolicyDecision,
    RunTimeline,
    apply_decision,
    passes_hysteresis,
    run_policy,
    should_scan,
)
from .runner import (
    ComparisonTable,
    ExperimentConfig,
    PolicySpec,
    RunReport,
    compare,
    emit_plot_data,
    run_experiment,
    sweep,
    verify_report,
)
from .trace import (
    ApObservation,
    ScanSample,
    SynthConfig,
    Trace,
    canonical_mac,
    generate_synthetic,
    parse_trace,
    trace_to_jsonl,
    window,
)

__version__ = "0.1.0"
