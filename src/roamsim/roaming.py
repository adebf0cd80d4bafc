"""Association state machine, decision application, and the replay loop.

A run replays a trace step by step: the policy looks at a context window
and the current association state, emits a decision (stay or roam to a
BSSID), and the state machine applies it, yielding the step's entry in
the report's decision log; `runner.recompute_metrics` computes the
headline metrics (handover count, average RSSI, error rate) from those
entries. The threshold task retunes the scan threshold through
run_policy's `pre_decide` hook.

Validity rule: a roam target must be present in the current scan with
RSSI at or above the validity floor. Invalid roams never change the
association (the device stays put) and are recorded so they feed the
error-rate metric. A decision arriving pre-marked invalid (an upstream
fallback) keeps its invalid flag even when the fallback action itself is
applied.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable

from .trace import (
    ACTIVITY_ACTIVE,
    ContextWindow,
    ScanSample,
    Trace,
    strongest,
    window,
)

# RSSI charged to a step whose associated AP is missing from the scan.
ABSENT_RSSI_DBM = -100.0

DEFAULT_SCAN_RSSI_DBM = -70.0

# (active, idle) dB margins a candidate must beat the current link by.
HYSTERESIS_PRESETS: dict[str, tuple[float, float]] = {
    "off": (0.0, 0.0),
    "standard-80211": (8.0, 12.0),
}


class Action(str, enum.Enum):
    STAY = "stay"
    ROAM = "roam"


@dataclass(frozen=True)
class AssociationState:
    """Current association plus the knobs that drive the trigger rules."""

    associated: str
    threshold: float = DEFAULT_SCAN_RSSI_DBM
    activity: str = ACTIVITY_ACTIVE
    hysteresis_active: float = 0.0
    hysteresis_idle: float = 0.0


@dataclass(frozen=True)
class PolicyDecision:
    """One policy output: what to do, who said so, and whether it held up.

    `valid` is None until apply_decision resolves it into the log entry; a
    policy that already knows its pick failed (and substituted a fallback
    action) sets it to False up front. `fault` marks transport failures.
    """

    action: Action
    target: str | None = None
    source: str = ""
    valid: bool | None = None
    fault: bool = False

    @staticmethod
    def stay(source: str, **kw) -> "PolicyDecision":
        return PolicyDecision(action=Action.STAY, source=source, **kw)

    @staticmethod
    def roam(bssid: str, source: str, **kw) -> "PolicyDecision":
        return PolicyDecision(action=Action.ROAM, target=bssid, source=source, **kw)


@dataclass(frozen=True)
class RunTimeline:
    """A run's decision-log entries, one dict per step (see apply_decision);
    a class because perfbench's tracer counts `len(run_policy(...).steps)`."""

    steps: list[dict]


def should_scan(current_rssi: float, threshold: float) -> bool:
    """Scan trigger: strictly below the threshold."""
    return current_rssi < threshold


def passes_hysteresis(candidate_rssi: float, current_rssi: float, state: AssociationState) -> bool:
    """True when the candidate beats the current link by the activity margin."""
    active = state.activity == ACTIVITY_ACTIVE
    margin = state.hysteresis_active if active else state.hysteresis_idle
    return candidate_rssi - current_rssi >= margin


def rssi_of(sample: ScanSample, bssid: str | None) -> float:
    """RSSI of `bssid` in this sample, or the absent floor when missing."""
    try:
        return sample.rssis[sample.bssids.index(bssid)]
    except ValueError:
        return ABSENT_RSSI_DBM


def apply_decision(
    state: AssociationState,
    sample: ScanSample,
    decision: PolicyDecision,
    validity_floor: float = DEFAULT_SCAN_RSSI_DBM,
) -> tuple[AssociationState, dict]:
    """Apply one decision, returning the new state and the step's log entry.

    Invalidity is recorded, never raised: a roam to an absent or
    below-floor AP leaves the association unchanged and marks the step
    invalid.
    """
    new_state = state
    valid = decision.valid is not False
    if decision.action is Action.ROAM:
        target_ok = (
            decision.target in sample.bssids
            and rssi_of(sample, decision.target) >= validity_floor
        )
        if target_ok:
            new_state = replace(state, associated=decision.target)
        valid = valid and target_ok
    entry = {
        "t": sample.context.timestamp,
        "bssid": new_state.associated,
        "rssi": rssi_of(sample, new_state.associated),
        "action": decision.action.value,
        "target": decision.target,
        "value": None,  # no decision sets one; the report format keeps the key
        "source": decision.source,
        "valid": valid,
        "handover": new_state.associated != state.associated,
        "fault": decision.fault,
    }
    return new_state, entry


# ---------------------------------------------------------------------------
# Replay loop

def initial_association(trace: Trace) -> str:
    """Starting BSSID: the recorded association if present, else the strongest AP."""
    first = trace.samples[0]
    if first.associated is not None:
        return first.associated
    return strongest(first).bssid


def run_policy(
    trace: Trace,
    decide: Callable[[ContextWindow, AssociationState], PolicyDecision],
    *,
    k: int = 10,
    scan_rssi: float = DEFAULT_SCAN_RSSI_DBM,
    hysteresis: tuple[float, float] = (0.0, 0.0),
    validity_floor: float = DEFAULT_SCAN_RSSI_DBM,
    initial: str | None = None,
    pre_decide: Callable[[int, ContextWindow, AssociationState], AssociationState] | None = None,
) -> RunTimeline:
    """Replay a trace through the state machine with one decision per step.

    `pre_decide`, when given, may adjust the state before each decision
    (the threshold scheduler hooks in here). The first step never counts
    as a handover: the handover metric starts at the second sample.
    """
    state = AssociationState(
        associated=initial if initial is not None else initial_association(trace),
        threshold=scan_rssi,
        hysteresis_active=hysteresis[0],
        hysteresis_idle=hysteresis[1],
    )
    steps: list[dict] = []
    for t, sample in enumerate(trace.samples):
        state = replace(state, activity=sample.context.activity)
        win = window(trace, t, k)
        if pre_decide is not None:
            state = pre_decide(t, win, state)
        state, entry = apply_decision(state, sample, decide(win, state), validity_floor)
        steps.append(entry)
    if steps:
        steps[0]["handover"] = False
    return RunTimeline(steps=steps)
