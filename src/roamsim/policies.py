"""Comparison policies: random-pick heuristic, highest-RSSI legacy (which,
given a constant threshold, is the fixed policy), globally optimal
association plans, and an adapter for an external decision service, which
posts through the gateway's HTTP transport (gateway.post_json on a
kept-alive gateway.JsonConnection). The two decision rules are functions;
only the plan replay and the external adapter, which hold state, are classes.

The two plan solvers optimize over whole association sequences:

* min_ho  - fewest handovers, then highest total RSSI;
* max_rssi - highest total RSSI, then fewest handovers.

Both run as a dynamic program over (step, BSSID) with switch-cost edges.
Every switch costs one handover, so each step ranks the next step's
suffixes once, O(A log A) for A APs, and then does O(1) work per AP plus
one look at each suffix whose sum rounds equal to the best one (see
solve_plan), rather than trying all A successors of every AP. Each suffix
value carries its ranking key, so the ranking is a sort on the values
themselves, and a step's choices come in the scan's column order: ties are
settled by comparing (key, BSSID), not by the order APs are met. The
backward pass holds one step of suffix values and records the successor
each AP's best suffix takes, so the plan is read forward from those. Both
solvers share their feasibility rule and tie-breaks with `brute_force_plan`,
the exhaustive reference used to verify them. The rule takes the validity
floor as a number, in dBm: an AP is feasible at a step when its RSSI is at
or above the floor, and on a step where none is, the strongest present are.
Final ties are broken toward the lexicographically smallest plan, so
solver output is unique and reproducible. Suffix RSSI sums are
accumulated back-to-front in both solvers so their float objectives
match exactly.
"""

from __future__ import annotations

import itertools
import json
import random
from math import prod
from operator import itemgetter
from typing import NamedTuple

from .errors import ConfigError, SearchSpaceError
from .gateway import OUTCOME_OK, JsonConnection, post_json
from .roaming import (
    DEFAULT_SCAN_RSSI_DBM,
    AssociationState,
    PolicyDecision,
    check_dbm,
    handover_count,
    passes_hysteresis,
    rssi_of,
    should_scan,
)
from .trace import ScanSample, Trace, canonical_mac, jsonl_line, render_window, strongest

BRUTE_FORCE_GUARD = 10_000_000

OBJECTIVE_MIN_HO = "min_ho"
OBJECTIVE_MAX_RSSI = "max_rssi"

EXTERNAL_TIMEOUT_MS = 5000.0


class AssociationPlan(NamedTuple):
    """A full association sequence with its objective value."""

    plan: tuple[str, ...]
    objective: str
    objective_value: float
    handovers: int


# ---------------------------------------------------------------------------
# Per-step decision policies

def heuristic_decide(
    window: tuple[ScanSample, ...], state: AssociationState, seed: int
) -> PolicyDecision:
    """Roam to a uniformly random candidate when the scan trigger fires.

    The pick is deterministic in (seed, decision-step timestamp), so
    replays and parallel evaluation order cannot change results.
    """
    latest = window[-1]
    current = rssi_of(latest, state.associated)
    if not should_scan(current, state.threshold):
        return PolicyDecision.stay("heuristic")
    rng = random.Random(f"{seed}:{latest.timestamp}")
    pick = latest.bssids[rng.randrange(len(latest.bssids))]
    return PolicyDecision.roam(pick, "heuristic")


def legacy_decide(
    window: tuple[ScanSample, ...], state: AssociationState, source: str = "legacy"
) -> PolicyDecision:
    """Roam to the strongest candidate when the scan trigger fires.

    Stays when the strongest candidate is the current AP or fails the
    hysteresis margin (margins of zero disable hysteresis).
    """
    latest = window[-1]
    current = rssi_of(latest, state.associated)
    if not should_scan(current, state.threshold):
        return PolicyDecision.stay(source)
    best = strongest(latest)
    if best.bssid == state.associated:
        return PolicyDecision.stay(source)
    if not passes_hysteresis(best.rssi, current, state, latest.activity):
        return PolicyDecision.stay(source)
    return PolicyDecision.roam(best.bssid, source)


class PlanPolicy:
    """Replays a precomputed association plan over its trace."""

    def __init__(self, trace: Trace, plan: AssociationPlan, name: str):
        self.plan = plan
        self.name = name
        self._index = {s.timestamp: i for i, s in enumerate(trace.samples)}

    def decide(self, window: tuple[ScanSample, ...], state: AssociationState) -> PolicyDecision:
        target = self.plan.plan[self._index[window[-1].timestamp]]
        if target == state.associated:
            return PolicyDecision.stay(self.name)
        return PolicyDecision.roam(target, self.name)


# ---------------------------------------------------------------------------
# Optimal plans

def _step_choices(sample: ScanSample, floor: float) -> dict[str, float]:
    """The step's feasible APs, BSSID -> RSSI, in the scan's column order.

    Every AP at or above min(floor, strongest RSSI) is feasible: those at or
    above the floor, else the strongest present.
    """
    bar = min(floor, max(sample.rssis))
    return {b: r for b, r in zip(sample.bssids, sample.rssis) if r >= bar}


def _objective_key(objective: str):
    # Both solvers minimize a (primary, secondary) tuple.
    if objective == OBJECTIVE_MIN_HO:
        return lambda ho, srssi: (ho, -srssi)
    if objective == OBJECTIVE_MAX_RSSI:
        return lambda ho, srssi: (-srssi, ho)
    raise ConfigError(f"unknown objective: {objective!r}")


def _finish_plan(plan: list[str], srssi: float, objective: str) -> AssociationPlan:
    ho = handover_count(plan)
    value = float(ho) if objective == OBJECTIVE_MIN_HO else srssi
    return AssociationPlan(
        plan=tuple(plan), objective=objective, objective_value=value, handovers=ho
    )


def solve_plan(
    trace: Trace, objective: str, floor: float = DEFAULT_SCAN_RSSI_DBM
) -> AssociationPlan:
    """Optimal association plan by dynamic programming over (step, BSSID).

    `floor` is the validity floor of the feasibility rule (see _step_choices);
    ConfigError when it is not a level in [-100, 0] dBm.
    """
    check_dbm("validity_floor", floor)
    key = _objective_key(objective)
    choices = [_step_choices(s, floor) for s in trace.samples]
    T = len(choices)

    # nxt[a] = (key, handovers, rssi sum) of the best suffix t+1..T-1 with
    # a_{t+1} = a, the only step of values held; succ[t][a] = a_{t+1} on the best
    # suffix from a_t = a. Every switch costs one handover, so the best successor
    # of `a` is either `a` itself or the best suffix among the other APs. Each
    # step ranks the step-(t+1) suffixes once, best first, by the key each value
    # carries. For `a`, the switch candidates are the first ranked suffix of
    # another AP and the run of later ones whose sum with a's RSSI rounds equal
    # to its sum. Float addition is monotone, so every suffix past that run has
    # a strictly worse key: max_rssi ranks by sum first, min_ho by handovers and
    # then by sum. Equal keys go to the smallest BSSID, the one the all-pairs
    # recurrence over BSSID-ordered choices would meet first; every suffix of
    # that key lies in the run, so the order the choices come in does not matter.
    nxt = {a: (key(0, rssi), 0, rssi) for a, rssi in choices[T - 1].items()}
    succ: list[dict[str, str]] = [{} for _ in range(T - 1)]
    for t in range(T - 2, -1, -1):
        ranked = sorted(nxt.items(), key=itemgetter(1))
        here, step_succ = {}, succ[t]
        for a, rssi in choices[t].items():
            best = None  # (key, bssid, handovers, rssi sum)
            stay = nxt.get(a)
            if stay is not None:
                total = rssi + stay[2]
                best = (key(stay[1], total), a, stay[1], total)
            top = None
            for b, (_, ho, srssi) in ranked:
                if b == a:
                    continue
                total = rssi + srssi
                if top is None:
                    top = total
                elif total != top:
                    break
                cand = (key(ho + 1, total), b, ho + 1, total)
                if best is None or cand < best:
                    best = cand
            rank, step_succ[a], ho, total = best
            here[a] = (rank, ho, total)
        nxt = here

    first = min(choices[0], key=lambda a: (nxt[a][0], a))
    plan = [first]
    for step_succ in succ:
        plan.append(step_succ[plan[-1]])
    return _finish_plan(plan, nxt[first][2], objective)


def oracle_opt_ho(trace: Trace, floor: float) -> AssociationPlan:
    """Plan with the fewest handovers; ties favor total RSSI."""
    return solve_plan(trace, OBJECTIVE_MIN_HO, floor)


def oracle_opt_rssi(trace: Trace, floor: float) -> AssociationPlan:
    """Plan with the highest total RSSI; ties favor fewer handovers."""
    return solve_plan(trace, OBJECTIVE_MAX_RSSI, floor)


def brute_force_plan(trace: Trace, objective: str, floor: float) -> AssociationPlan:
    """Exhaustive plan search; the reference the dynamic program is checked against.

    Shares _step_choices and the lexicographic tie-breaks with solve_plan,
    so on any in-guard trace the two return identical plans. It keeps the
    first plan of the best key, so it sorts each step's choices by BSSID:
    the product then meets the lexicographically smallest plan first.
    """
    check_dbm("validity_floor", floor)
    key = _objective_key(objective)
    choices = [_step_choices(s, floor) for s in trace.samples]
    space = prod(len(ch) for ch in choices)
    if space > BRUTE_FORCE_GUARD:
        raise SearchSpaceError(f"search space {space} exceeds guard {BRUTE_FORCE_GUARD}")

    best_plan = None
    best_srssi = 0.0
    best_key = None
    for combo in itertools.product(*map(sorted, choices)):
        ho = sum(1 for a, b in zip(combo, combo[1:]) if a != b)
        srssi = 0.0
        for t in range(len(combo) - 1, -1, -1):  # back-to-front, matching the DP suffix sums
            srssi = choices[t][combo[t]] + srssi
        cand_key = key(ho, srssi)
        if best_key is None or cand_key < best_key:
            best_plan = list(combo)
            best_srssi = srssi
            best_key = cand_key
    return _finish_plan(best_plan, best_srssi, objective)


# ---------------------------------------------------------------------------
# External decision service

class ExternalPolicy:
    """Forwards trigger-step windows to an external service over HTTP.

    Request: {"window": [<sample>...], "state": {"associated", "threshold"}},
    each sample the object its trace.jsonl_line writes, and the whole body
    what json.dumps(..., allow_nan=False) would write.
    Reply:   {"action": "stay"|"roam", "bssid": "<MAC>"?}.
    Each sample is rendered once per run: `_lines` holds the current
    window's lines, keyed by sample, for the next call to reuse.
    Posts through gateway.post_json on `conn`, the kept-alive connection
    its owner closes, one attempt of up to EXTERNAL_TIMEOUT_MS each. A
    failed call or a malformed reply degrades to a stay decision flagged as
    a fault, so a run always completes.
    """

    def __init__(self, url: str, conn: JsonConnection):
        self.url = url
        self.name = "external"
        self._conn = conn
        self._lines: dict[ScanSample, str] = {}

    def decide(self, window: tuple[ScanSample, ...], state: AssociationState) -> PolicyDecision:
        if not should_scan(rssi_of(window[-1], state.associated), state.threshold):
            return PolicyDecision.stay(self.name)
        # Each line without its "\n"; `_lines` is render_window's memo.
        samples = ", ".join(render_window(window, lambda s: jsonl_line(s)[:-1], self._lines))
        state_json = json.dumps(
            {"associated": state.associated, "threshold": state.threshold}, allow_nan=False
        )
        body = f'{{"window": [{samples}], "state": {state_json}}}'.encode()
        outcome, _, decision, _, _ = post_json(
            self._conn, self.url, body, self._read_action, EXTERNAL_TIMEOUT_MS
        )
        if outcome != OUTCOME_OK:
            return PolicyDecision.stay("external-unavailable", fault=True)
        return decision

    def _read_action(self, reply) -> PolicyDecision:
        action = reply.get("action") if isinstance(reply, dict) else None
        if action == "stay":
            return PolicyDecision.stay(self.name)
        if action == "roam":
            return PolicyDecision.roam(canonical_mac(reply.get("bssid") or ""), self.name)
        raise ValueError(f"bad action {action!r}")
