"""Fine-tuning corpus exporters and the label-accuracy metric.

Two JSONL shapes, the ones mainstream tuning stacks consume directly:

* supervised pairs: {"prompt": ..., "completion": "ANSWER: <BSSID>"}
* preference pairs: {"prompt": ..., "chosen": ..., "rejected": ...}

Prompts come from the same builder the agent uses at decision time, so
training and serving text cannot drift apart. Each export call passes one
dict of rendered scan rows through the builder, as a run does, so a row is
rendered once per window it enters. Completions are the plan's
label at each step; preference pairs are emitted only where the rejected
source disagrees with the plan.
"""

from __future__ import annotations

import json
from dataclasses import replace
from functools import partial

from .agent import PromptConfig, build_prompt
from .errors import DataError
from .policies import AssociationPlan, heuristic_decide, legacy_decide
from .roaming import DEFAULT_SCAN_RSSI_DBM, AssociationState, run_policy
from .trace import ScanSample, Trace, window

REJECTED_LEGACY = "legacy"
REJECTED_HEURISTIC = "heuristic"
REJECTED_SECOND_BEST = "second_best"


def split_trace(trace: Trace, train_frac: float = 0.8) -> tuple[Trace, Trace]:
    """Contiguous time split, training block first, to avoid temporal leakage."""
    T = len(trace.samples)
    if T < 2:
        raise DataError("cannot split a trace with fewer than 2 samples")
    cut = min(T - 1, max(1, round(T * train_frac)))
    return (
        Trace(samples=trace.samples[:cut], sample_interval=trace.sample_interval),
        Trace(samples=trace.samples[cut:], sample_interval=trace.sample_interval),
    )


def _step_prompt(
    trace: Trace, t: int, plan: AssociationPlan, cfg: PromptConfig, scan_rssi: float, template,
    rows: dict[ScanSample, str],
) -> str:
    # Training prompts are bare prompt->completion pairs: no shots.
    bare = replace(cfg, shots=0)
    state = AssociationState(
        associated=plan.plan[t - 1] if t > 0 else plan.plan[0], threshold=scan_rssi
    )
    return build_prompt(window(trace, t, cfg.window_k), state, bare, (), template, rows)


def _open_out(out):
    if hasattr(out, "write"):
        return out, False
    return open(out, "w", encoding="utf-8"), True


def export_sft(
    trace: Trace,
    plan: AssociationPlan,
    cfg: PromptConfig,
    out,
    scan_rssi: float = DEFAULT_SCAN_RSSI_DBM,
    template: dict[str, str] | None = None,
) -> int:
    """Write one supervised record per step; returns the record count."""
    T = len(trace.samples)
    if len(plan.plan) != T:
        raise DataError(f"plan length {len(plan.plan)} != trace length {T}")
    rows: dict[ScanSample, str] = {}
    fh, owned = _open_out(out)
    try:
        for t in range(T):
            rec = {
                "prompt": _step_prompt(trace, t, plan, cfg, scan_rssi, template, rows),
                "completion": f"ANSWER: {plan.plan[t]}",
            }
            fh.write(json.dumps(rec) + "\n")
    finally:
        if owned:
            fh.close()
    return T


def _rejected_sequence(trace: Trace, source: str, seed: int, scan_rssi: float) -> list[str | None]:
    """Per-step rejected label: the named policy's association, or the runner-up AP."""
    if source == REJECTED_SECOND_BEST:
        return [s.bssids[1] if len(s.bssids) > 1 else None for s in trace.samples]
    if source == REJECTED_LEGACY:
        decide = legacy_decide
    elif source == REJECTED_HEURISTIC:
        decide = partial(heuristic_decide, seed=seed)
    else:
        raise DataError(f"unknown rejected source: {source!r}")
    timeline = run_policy(trace, decide, scan_rssi=scan_rssi, validity_floor=-100.0)
    return [e["bssid"] for e in timeline.steps]


def export_preferences(
    trace: Trace,
    preferred: AssociationPlan,
    rejected_source: str,
    cfg: PromptConfig,
    out,
    seed: int = 0,
    scan_rssi: float = DEFAULT_SCAN_RSSI_DBM,
    template: dict[str, str] | None = None,
) -> int:
    """Write preference pairs at steps where the rejected source disagrees."""
    T = len(trace.samples)
    if len(preferred.plan) != T:
        raise DataError(f"plan length {len(preferred.plan)} != trace length {T}")
    rejected = _rejected_sequence(trace, rejected_source, seed, scan_rssi)
    count = 0
    rows: dict[ScanSample, str] = {}
    fh, owned = _open_out(out)
    try:
        for t in range(T):
            chosen = preferred.plan[t]
            reject = rejected[t]
            if reject is None or reject == chosen:
                continue
            rec = {
                "prompt": _step_prompt(trace, t, preferred, cfg, scan_rssi, template, rows),
                "chosen": f"ANSWER: {chosen}",
                "rejected": f"ANSWER: {reject}",
            }
            fh.write(json.dumps(rec) + "\n")
            count += 1
    finally:
        if owned:
            fh.close()
    return count


def label_accuracy(predictions, plan: AssociationPlan | tuple[str, ...]) -> float:
    """Percentage of predictions matching the plan's labels exactly."""
    labels = plan.plan if isinstance(plan, AssociationPlan) else tuple(plan)
    preds = tuple(predictions)
    if len(preds) != len(labels):
        raise DataError(f"length mismatch: {len(preds)} predictions vs {len(labels)} labels")
    if not labels:
        raise DataError("empty label sequence")
    matches = sum(1 for p, g in zip(preds, labels) if p == g)
    return 100.0 * matches / len(labels)
