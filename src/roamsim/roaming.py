"""Association state machine, decision application, and the replay loop.

A run replays a trace step by step: the policy looks at a context window
(the tuple of the last k samples, see `trace.window`) and the current
association state, emits a decision (a BSSID to roam to, or none to
stay), and the state machine applies it, yielding the step's entry in
the report's decision log; `runner.recompute_metrics` computes the
headline metrics (handover count, average RSSI, error rate) from those
entries. The threshold task retunes the scan threshold through
run_policy's `pre_decide(window, state)` hook.

Policies read the latest sample of the window, `window[-1]`, one flat
record (see `trace.ScanSample`). The state holds the association, the
scan threshold and both hysteresis margins; the sample's `activity` picks
the margin. The state, the decision and the timeline are named tuples, so
a roam's new state is `state._replace(associated=target)`.

Validity rule (is_valid_target): a roam target must be present in the
current scan with RSSI at or above the validity floor. Invalid roams never
change the association (the device stays put) and are recorded so they
feed the error-rate metric. A decision arriving pre-marked invalid (an
upstream fallback) keeps its invalid flag even when the fallback decision
itself is applied.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .errors import ConfigError
from .trace import (
    ACTIVITY_ACTIVE, RSSI_MAX_DBM, RSSI_MIN_DBM, ScanSample, Trace, strongest,
)

# RSSI charged to a step whose associated AP is missing from the scan.
ABSENT_RSSI_DBM = -100.0

DEFAULT_SCAN_RSSI_DBM = -70.0

# (active, idle) dB margins a candidate must beat the current link by.
HYSTERESIS_PRESETS: dict[str, tuple[float, float]] = {
    "off": (0.0, 0.0),
    "standard-80211": (8.0, 12.0),
}


def check_dbm(name: str, value: float) -> None:
    """ConfigError unless the `name` setting is a level in [-100, 0] dBm; NaN never is."""
    if not RSSI_MIN_DBM <= value <= RSSI_MAX_DBM:
        raise ConfigError(f"{name} out of range: {value}")


class AssociationState(NamedTuple):
    """Current association plus the knobs that drive the trigger rules."""

    associated: str
    threshold: float = DEFAULT_SCAN_RSSI_DBM
    hysteresis_active: float = 0.0
    hysteresis_idle: float = 0.0


class PolicyDecision(NamedTuple):
    """One policy output: where to go, who said so, and whether it held up.

    A decision with a `target` is a roam to it; one without stays put, so
    the two cannot disagree. A policy that already knows its pick failed
    (and substituted a fallback decision) sets `valid` to False;
    apply_decision also logs a roam to an absent or below-floor AP as
    invalid. `fault` marks transport failures. A named tuple, as
    `trace.ApObservation` is: a run builds one per step.
    """

    target: str | None = None
    source: str = ""
    valid: bool = True
    fault: bool = False

    @staticmethod
    def stay(source: str, **kw) -> "PolicyDecision":
        return PolicyDecision(source=source, **kw)

    @staticmethod
    def roam(bssid: str, source: str, **kw) -> "PolicyDecision":
        return PolicyDecision(target=bssid, source=source, **kw)


class RunTimeline(NamedTuple):
    """A run's decision-log entries, one dict per step (see apply_decision);
    a record, not a bare list, because perfbench's tracer counts
    `len(run_policy(...).steps)`."""

    steps: list[dict]


def should_scan(current_rssi: float, threshold: float) -> bool:
    """Scan trigger: strictly below the threshold."""
    return current_rssi < threshold


def passes_hysteresis(
    candidate_rssi: float, current_rssi: float, state: AssociationState, activity: str
) -> bool:
    """True when the candidate beats the current link by the margin for `activity`."""
    active = activity == ACTIVITY_ACTIVE
    margin = state.hysteresis_active if active else state.hysteresis_idle
    return candidate_rssi - current_rssi >= margin


def rssi_of(sample: ScanSample, bssid: str | None) -> float:
    """RSSI of `bssid` in this sample, or the absent floor when missing."""
    try:
        return sample.rssis[sample.bssids.index(bssid)]
    except ValueError:
        return ABSENT_RSSI_DBM


def is_valid_target(sample: ScanSample, bssid: str | None, validity_floor: float) -> bool:
    """The validity rule: `bssid` is in the scan with RSSI at or above the floor."""
    return bssid in sample.bssids and rssi_of(sample, bssid) >= validity_floor


def handover_count(bssids) -> int:
    """Handovers along a sequence of BSSIDs: the steps whose BSSID differs from the last."""
    return sum(1 for a, b in zip(bssids, bssids[1:]) if a != b)


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
    valid = decision.valid
    target = decision.target
    if target is not None:
        target_ok = is_valid_target(sample, target, validity_floor)
        if target_ok:
            new_state = state._replace(associated=target)
        valid = valid and target_ok
    entry = {
        "t": sample.timestamp,
        "bssid": new_state.associated,
        "rssi": rssi_of(sample, new_state.associated),
        "action": "stay" if target is None else "roam",
        "target": target,
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
    decide: Callable[[tuple[ScanSample, ...], AssociationState], PolicyDecision],
    *,
    k: int = 10,
    scan_rssi: float = DEFAULT_SCAN_RSSI_DBM,
    hysteresis: tuple[float, float] = (0.0, 0.0),
    validity_floor: float = DEFAULT_SCAN_RSSI_DBM,
    initial: str | None = None,
    pre_decide: Callable[[tuple[ScanSample, ...], AssociationState], AssociationState] | None = None,
) -> RunTimeline:
    """Replay a trace through the state machine with one decision per step.

    `pre_decide`, when given, may adjust the state before each decision
    (the threshold scheduler hooks in here). The first step never counts
    as a handover: the handover metric starts at the second sample. Each
    step's window is what `trace.window(trace, t, k)` returns, sliced from
    `trace.samples` directly; `k` is checked once, with window's ValueError.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    state = AssociationState(
        associated=initial if initial is not None else initial_association(trace),
        threshold=scan_rssi,
        hysteresis_active=hysteresis[0],
        hysteresis_idle=hysteresis[1],
    )
    steps: list[dict] = []
    samples = trace.samples
    for t, sample in enumerate(samples):
        win = samples[max(0, t - k + 1): t + 1]
        if pre_decide is not None:
            state = pre_decide(win, state)
        state, entry = apply_decision(state, sample, decide(win, state), validity_floor)
        steps.append(entry)
    if steps:
        steps[0]["handover"] = False
    return RunTimeline(steps=steps)
