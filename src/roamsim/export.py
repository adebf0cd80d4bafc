"""Fine-tuning corpus exporters and the label-accuracy metric.

Two JSONL shapes, the ones mainstream tuning stacks consume directly:

* supervised pairs: {"prompt": ..., "completion": "ANSWER: <BSSID>"}
* preference pairs: {"prompt": ..., "chosen": ..., "rejected": ...}

Prompts come from the same builder the agent uses at decision time, so
training and serving text cannot drift apart. The exporters write to a
text file their caller opens and closes. Each export call passes one
dict of rendered scan rows through the builder, as a run does, so a row is
rendered once per window it enters. Completions are the plan's
label at each step; preference pairs are emitted only where the rejected
source disagrees with the plan.
"""

from __future__ import annotations

import json
from dataclasses import replace
from functools import partial
from typing import TextIO

from .agent import PromptConfig, build_prompt
from .errors import DataError
from .policies import AssociationPlan, heuristic_decide, legacy_decide
from .roaming import DEFAULT_SCAN_RSSI_DBM, AssociationState, check_dbm, run_policy
from .trace import ScanSample, Trace, ranked, window

REJECTED_LEGACY = "legacy"
REJECTED_HEURISTIC = "heuristic"
REJECTED_SECOND_BEST = "second_best"

TRAIN_FRAC = 0.8


def split_trace(trace: Trace) -> tuple[Trace, Trace]:
    """Contiguous time split, the first TRAIN_FRAC for training, to avoid
    temporal leakage."""
    T = len(trace.samples)
    if T < 2:
        raise DataError("cannot split a trace with fewer than 2 samples")
    cut = min(T - 1, max(1, round(T * TRAIN_FRAC)))
    return Trace(trace.samples[:cut]), Trace(trace.samples[cut:])


def check_plan_aps(trace: Trace, plan: AssociationPlan) -> None:
    """DataError naming the first step whose plan BSSID is not in that step's scan."""
    for t, (sample, bssid) in enumerate(zip(trace.samples, plan.plan)):
        if bssid not in sample.bssids:
            raise DataError(f"plan step {t}: {bssid} is not in the step's scan")


def _write_records(
    trace: Trace, plan: AssociationPlan, cfg: PromptConfig, out: TextIO, scan_rssi: float,
    template, records,
) -> int:
    """Write {"prompt": ..., **fields} for each (t, fields) of `records`; returns the count.

    `scan_rssi`, the plan's length and its BSSIDs are checked before the first
    record is drawn. Training prompts are bare prompt->completion pairs: no shots."""
    check_dbm("scan_rssi", scan_rssi)
    T = len(trace.samples)
    if len(plan.plan) != T:
        raise DataError(f"plan length {len(plan.plan)} != trace length {T}")
    check_plan_aps(trace, plan)
    bare = replace(cfg, shots=0)
    rows: dict[ScanSample, str] = {}
    count = 0
    for t, fields in records:
        state = AssociationState(
            associated=plan.plan[t - 1] if t > 0 else plan.plan[0], threshold=scan_rssi
        )
        prompt = build_prompt(window(trace, t, cfg.window_k), state, bare, (), template, rows)
        out.write(json.dumps({"prompt": prompt, **fields}) + "\n")
        count += 1
    return count


def export_sft(
    trace: Trace,
    plan: AssociationPlan,
    cfg: PromptConfig,
    out: TextIO,
    scan_rssi: float = DEFAULT_SCAN_RSSI_DBM,
    template: dict[str, str] | None = None,
) -> int:
    """Write one supervised record per step to `out`; returns the record count."""
    return _write_records(trace, plan, cfg, out, scan_rssi, template,
                          ((t, {"completion": f"ANSWER: {b}"}) for t, b in enumerate(plan.plan)))


def _rejected_sequence(trace: Trace, source: str, seed: int, scan_rssi: float) -> list[str | None]:
    """Per-step rejected label: the named policy's association, or the runner-up AP."""
    if source == REJECTED_SECOND_BEST:
        return [aps[1].bssid if len(aps) > 1 else None for aps in map(ranked, trace.samples)]
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
    out: TextIO,
    seed: int = 0,
    scan_rssi: float = DEFAULT_SCAN_RSSI_DBM,
    template: dict[str, str] | None = None,
) -> int:
    """Write preference pairs to `out` at steps where the rejected source disagrees."""

    def records():
        rejected = _rejected_sequence(trace, rejected_source, seed, scan_rssi)
        for t, (chosen, reject) in enumerate(zip(preferred.plan, rejected)):
            if reject is not None and reject != chosen:
                yield t, {"chosen": f"ANSWER: {chosen}", "rejected": f"ANSWER: {reject}"}

    return _write_records(trace, preferred, cfg, out, scan_rssi, template, records())


def label_accuracy(predictions, plan: AssociationPlan) -> float:
    """Percentage of predictions matching the plan's labels exactly."""
    labels = plan.plan
    preds = tuple(predictions)
    if len(preds) != len(labels):
        raise DataError(f"length mismatch: {len(preds)} predictions vs {len(labels)} labels")
    if not labels:
        raise DataError("empty label sequence")
    matches = sum(1 for p, g in zip(preds, labels) if p == g)
    return 100.0 * matches / len(labels)
