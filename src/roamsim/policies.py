"""Comparison policies: random-pick heuristic, highest-RSSI legacy, fixed
thresholds, globally optimal association plans, and an adapter for an
external decision service.

The two plan solvers optimize over whole association sequences:

* min_ho  - fewest handovers, then highest total RSSI;
* max_rssi - highest total RSSI, then fewest handovers.

Both run as a dynamic program over (step, BSSID) with switch-cost edges.
Every switch costs one handover, so each step ranks the next step's
suffixes once, O(A log A) for A APs, and then does O(1) work per AP plus
one look at each suffix whose sum rounds equal to the best one (see
solve_plan), rather than trying all A successors of every AP. Both share
their feasibility rule and tie-breaks with `brute_force_plan`, the
exhaustive reference used to verify them. Final ties are broken toward
the lexicographically smallest plan, so solver output is unique and
reproducible. Suffix RSSI sums are accumulated back-to-front in both
solvers so their float objectives match exactly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import prod

import requests

from .errors import OracleInfeasibleError, SearchSpaceError
from .roaming import (
    DEFAULT_SCAN_RSSI_DBM,
    AssociationState,
    PolicyDecision,
    passes_hysteresis,
    rssi_of,
    should_scan,
)
from .trace import (
    ApObservation,
    ContextWindow,
    ScanSample,
    Trace,
    canonical_mac,
    sample_to_dict,
    strongest,
)

BRUTE_FORCE_GUARD = 10_000_000

RELAX_TO_ARGMAX = "relax_to_argmax"
EMPTY_SET_ERROR = "error"

OBJECTIVE_MIN_HO = "min_ho"
OBJECTIVE_MAX_RSSI = "max_rssi"


@dataclass(frozen=True)
class OracleConstraints:
    """Feasibility rule for plan solvers.

    An AP is feasible at a step when it appears in that step's scan with
    RSSI at or above the floor. On a step with no feasible AP,
    relax_to_argmax admits the strongest candidates present; the error
    rule raises instead.
    """

    validity_floor: float = DEFAULT_SCAN_RSSI_DBM
    empty_feasible_set_rule: str = RELAX_TO_ARGMAX


@dataclass(frozen=True)
class AssociationPlan:
    """A full association sequence with its objective value."""

    plan: tuple[str, ...]
    objective: str
    objective_value: float
    handovers: int


# ---------------------------------------------------------------------------
# Per-step decision policies

def heuristic_decide(window: ContextWindow, state: AssociationState, seed: int) -> PolicyDecision:
    """Roam to a uniformly random candidate when the scan trigger fires.

    The pick is deterministic in (seed, decision-step timestamp), so
    replays and parallel evaluation order cannot change results.
    """
    latest = window.latest
    current = rssi_of(latest, state.associated)
    if not should_scan(current, state.threshold):
        return PolicyDecision.stay("heuristic")
    rng = random.Random(f"{seed}:{latest.context.timestamp}")
    pick = latest.candidates[rng.randrange(len(latest.candidates))]
    return PolicyDecision.roam(pick.bssid, "heuristic")


def legacy_decide(
    window: ContextWindow,
    state: AssociationState,
    threshold: float | None = None,
    source: str = "legacy",
) -> PolicyDecision:
    """Roam to the strongest candidate when the scan trigger fires.

    Stays when the strongest candidate is the current AP or fails the
    hysteresis margin (margins of zero disable hysteresis).
    """
    latest = window.latest
    current = rssi_of(latest, state.associated)
    thr = state.threshold if threshold is None else threshold
    if not should_scan(current, thr):
        return PolicyDecision.stay(source)
    best = strongest(latest.candidates)
    if best.bssid == state.associated:
        return PolicyDecision.stay(source)
    if not passes_hysteresis(best.rssi, current, state):
        return PolicyDecision.stay(source)
    return PolicyDecision.roam(best.bssid, source)


class HeuristicPolicy:
    """Random-pick baseline."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.name = "heuristic"

    def decide(self, window: ContextWindow, state: AssociationState) -> PolicyDecision:
        return heuristic_decide(window, state, self.seed)


class LegacyPolicy:
    """Highest-RSSI baseline."""

    def __init__(self, threshold: float | None = None, name: str = "legacy"):
        self.threshold = threshold
        self.name = name

    def decide(self, window: ContextWindow, state: AssociationState) -> PolicyDecision:
        return legacy_decide(window, state, threshold=self.threshold, source=self.name)


def fixed_threshold_policy(threshold: float) -> LegacyPolicy:
    """Legacy decision rule pinned to a constant scan threshold."""
    if not -100.0 <= threshold <= 0.0:
        raise ValueError(f"threshold out of range: {threshold}")
    return LegacyPolicy(threshold=threshold, name=f"fixed({threshold:g})")


class PlanPolicy:
    """Replays a precomputed association plan over its trace."""

    def __init__(self, trace: Trace, plan: AssociationPlan, name: str):
        self.plan = plan
        self.name = name
        self._index = {s.context.timestamp: i for i, s in enumerate(trace.samples)}

    def decide(self, window: ContextWindow, state: AssociationState) -> PolicyDecision:
        target = self.plan.plan[self._index[window.latest.context.timestamp]]
        if target == state.associated:
            return PolicyDecision.stay(self.name)
        return PolicyDecision.roam(target, self.name)


# ---------------------------------------------------------------------------
# Optimal plans

def _step_choices(sample: ScanSample, constraints: OracleConstraints, t: int) -> list[ApObservation]:
    feasible = [c for c in sample.candidates if c.rssi >= constraints.validity_floor]
    if not feasible:
        if constraints.empty_feasible_set_rule == EMPTY_SET_ERROR:
            raise OracleInfeasibleError(f"no feasible AP at step {t}")
        top = max(c.rssi for c in sample.candidates)
        feasible = [c for c in sample.candidates if c.rssi == top]
    return sorted(feasible, key=lambda c: c.bssid)


def _objective_key(objective: str):
    # Both solvers minimize a (primary, secondary) tuple.
    if objective == OBJECTIVE_MIN_HO:
        return lambda ho, srssi: (ho, -srssi)
    if objective == OBJECTIVE_MAX_RSSI:
        return lambda ho, srssi: (-srssi, ho)
    raise ValueError(f"unknown objective: {objective!r}")


def _finish_plan(plan: list[str], srssi: float, objective: str) -> AssociationPlan:
    ho = sum(1 for a, b in zip(plan, plan[1:]) if a != b)
    value = float(ho) if objective == OBJECTIVE_MIN_HO else srssi
    return AssociationPlan(
        plan=tuple(plan), objective=objective, objective_value=value, handovers=ho
    )


def solve_plan(
    trace: Trace, objective: str, constraints: OracleConstraints = OracleConstraints()
) -> AssociationPlan:
    """Optimal association plan by dynamic programming over (step, BSSID)."""
    key = _objective_key(objective)
    choices = [_step_choices(s, constraints, t) for t, s in enumerate(trace.samples)]
    T = len(choices)

    # value[t][a] = (handovers, rssi sum) of the best suffix t..T-1 with a_t = a.
    # Every switch costs one handover, so the best successor of `a` is either
    # `a` itself or the best suffix among the other APs. Each step ranks the
    # step-(t+1) suffixes once, best first. For `a`, the switch candidates are
    # the first ranked suffix of another AP and the run of later ones whose
    # sum with a's RSSI rounds equal to its sum. Float addition is monotone,
    # so every suffix past that run has a strictly worse key: max_rssi ranks
    # by sum first, min_ho by handovers and then by sum. Equal keys go to the
    # smallest BSSID, the one the all-pairs recurrence would meet first.
    value: list[dict[str, tuple[int, float]]] = [dict() for _ in range(T)]
    value[T - 1] = {c.bssid: (0, c.rssi) for c in choices[T - 1]}
    for t in range(T - 2, -1, -1):
        nxt = value[t + 1]
        ranked = sorted(nxt.items(), key=lambda kv: key(*kv[1]))
        here = value[t]
        for c in choices[t]:
            a, rssi = c.bssid, c.rssi
            best = None  # (key, bssid, (handovers, rssi sum))
            stay = nxt.get(a)
            if stay is not None:
                cand = (stay[0], rssi + stay[1])
                best = (key(*cand), a, cand)
            top = None
            for b, (ho, srssi) in ranked:
                if b == a:
                    continue
                total = rssi + srssi
                if top is None:
                    top = total
                elif total != top:
                    break
                cand = (ho + 1, total)
                ranked_cand = (key(*cand), b, cand)
                if best is None or ranked_cand < best:
                    best = ranked_cand
            here[a] = best[2]

    first = min(choices[0], key=lambda c: (key(*value[0][c.bssid]), c.bssid))
    plan = [first.bssid]
    rssi_at = [{c.bssid: c.rssi for c in ch} for ch in choices]
    for t in range(T - 1):
        target = value[t][plan[-1]]
        here = rssi_at[t][plan[-1]]
        for c in choices[t + 1]:
            ho, srssi = value[t + 1][c.bssid]
            if (ho + (1 if c.bssid != plan[-1] else 0), here + srssi) == target:
                plan.append(c.bssid)
                break
        else:  # pragma: no cover - would mean the table and plan disagree
            raise AssertionError("plan reconstruction failed")
    return _finish_plan(plan, value[0][first.bssid][1], objective)


def oracle_opt_ho(
    trace: Trace, constraints: OracleConstraints = OracleConstraints()
) -> AssociationPlan:
    """Plan with the fewest handovers; ties favor total RSSI."""
    return solve_plan(trace, OBJECTIVE_MIN_HO, constraints)


def oracle_opt_rssi(
    trace: Trace, constraints: OracleConstraints = OracleConstraints()
) -> AssociationPlan:
    """Plan with the highest total RSSI; ties favor fewer handovers."""
    return solve_plan(trace, OBJECTIVE_MAX_RSSI, constraints)


def brute_force_plan(
    trace: Trace, objective: str, constraints: OracleConstraints = OracleConstraints()
) -> AssociationPlan:
    """Exhaustive plan search; the reference the dynamic program is checked against.

    Shares _step_choices and the lexicographic tie-breaks with solve_plan,
    so on any in-guard trace the two return identical plans.
    """
    key = _objective_key(objective)
    choices = [_step_choices(s, constraints, t) for t, s in enumerate(trace.samples)]
    space = prod(len(ch) for ch in choices)
    if space > BRUTE_FORCE_GUARD:
        raise SearchSpaceError(f"search space {space} exceeds guard {BRUTE_FORCE_GUARD}")

    best_plan = None
    best_srssi = 0.0
    best_key = None
    for combo in itertools.product(*choices):
        ho = sum(1 for a, b in zip(combo, combo[1:]) if a.bssid != b.bssid)
        srssi = 0.0
        for c in reversed(combo):  # back-to-front, matching the DP suffix sums
            srssi = c.rssi + srssi
        cand_key = key(ho, srssi)
        if best_key is None or cand_key < best_key:
            best_plan = [c.bssid for c in combo]
            best_srssi = srssi
            best_key = cand_key
    return _finish_plan(best_plan, best_srssi, objective)


# ---------------------------------------------------------------------------
# External decision service

class ExternalPolicy:
    """Forwards trigger-step windows to an external service over HTTP.

    Request: {"window": [<sample>...], "state": {"associated", "threshold"}}.
    Reply:   {"action": "stay"|"roam", "bssid": "<MAC>"?}.
    Any transport or protocol failure degrades to a stay decision flagged
    as a fault, so a run always completes.
    """

    def __init__(self, url: str, timeout_ms: float = 5000.0):
        self.url = url
        self.timeout_ms = timeout_ms
        self.name = "external"
        self.fault_count = 0

    def decide(self, window: ContextWindow, state: AssociationState) -> PolicyDecision:
        latest = window.latest
        if not should_scan(rssi_of(latest, state.associated), state.threshold):
            return PolicyDecision.stay(self.name)
        payload = {
            "window": [sample_to_dict(s) for s in window.samples],
            "state": {"associated": state.associated, "threshold": state.threshold},
        }
        try:
            resp = requests.post(self.url, json=payload, timeout=self.timeout_ms / 1000.0)
            resp.raise_for_status()
            reply = resp.json()
            action = reply.get("action")
            if action == "stay":
                return PolicyDecision.stay(self.name)
            if action == "roam":
                return PolicyDecision.roam(canonical_mac(reply.get("bssid") or ""), self.name)
            raise ValueError(f"bad action {action!r}")
        except (requests.RequestException, ValueError):
            self.fault_count += 1
            return PolicyDecision.stay("external-unavailable", fault=True)


def external_policy_adapter(url: str, timeout_ms: float = 5000.0) -> ExternalPolicy:
    return ExternalPolicy(url, timeout_ms=timeout_ms)
