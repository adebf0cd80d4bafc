"""Shared builders for hand-crafted traces used across the suite."""

from __future__ import annotations

import csv
import io
import json

import pytest
from hypothesis import strategies as st

from roamsim.gateway import JsonConnection
from roamsim.roaming import PolicyDecision, RunTimeline
from roamsim.runner import recompute_metrics
from roamsim.trace import (
    ScanSample,
    SynthConfig,
    Trace,
    parse_trace,
    trace_to_jsonl,
)


def mac(i: int) -> str:
    n = i + 1
    return f"AA:00:00:00:{(n >> 8) & 0xFF:02X}:{n & 0xFF:02X}"


MAC_A, MAC_B, MAC_C, MAC_D = mac(0), mac(1), mac(2), mac(3)


def make_sample(t: int, levels: dict[str, float], assoc: str | None = None,
                activity: str = "active", lat: float | None = None,
                lon: float | None = None, battery: float | None = None) -> ScanSample:
    ordered = sorted(levels.items(), key=lambda kv: (-kv[1], kv[0]))  # canonical order
    return ScanSample(timestamp=t, bssids=tuple(b for b, _ in ordered),
                      rssis=tuple(r for _, r in ordered), associated=assoc, latitude=lat,
                      longitude=lon, battery_pct=battery, activity=activity)


def make_trace(rows: list[dict[str, float]], assoc0: str | None = None) -> Trace:
    return Trace(samples=tuple(
        make_sample(t, levels, assoc=assoc0 if t == 0 else None) for t, levels in enumerate(rows)
    ))


def timeline_of(series, decisions=None, source: str = "test") -> RunTimeline:
    """Timeline of decision-log entries from (bssid, rssi) pairs.

    Each step takes its decision from `decisions`, or a valid stay by
    default, and is a handover when its BSSID differs from the step before.
    """
    steps = []
    prev = None
    for t, (bssid, rssi) in enumerate(series):
        d = decisions[t] if decisions else PolicyDecision.stay(source, valid=True)
        steps.append({
            "t": t, "bssid": bssid, "rssi": rssi, "action": d.action.value,
            "target": d.target, "value": None, "source": d.source, "valid": d.valid,
            "handover": prev is not None and bssid != prev, "fault": d.fault,
        })
        prev = bssid
    return RunTimeline(steps=steps)


def metrics_of(timeline: RunTimeline) -> dict:
    """Headline metrics of a replayed timeline, as a run report computes them."""
    return recompute_metrics(timeline.steps)


def timeline_signature(timeline: RunTimeline) -> tuple:
    """Association-relevant view of a timeline, for run-equivalence checks.

    Leaves out the decision source, which legitimately differs between
    policies producing the same behavior.
    """
    return tuple(
        (e["t"], e["bssid"], e["rssi"], e["action"], e["target"], e["value"], e["valid"],
         e["handover"])
        for e in timeline.steps
    )


def round_trips(trace: Trace) -> bool:
    """True when the parser gives the trace back from its canonical JSONL.

    The parser is the one statement of the trace rules, so this is how a
    test shows a trace is valid; a rule the parser enforces raises its
    TraceFormatError here.
    """
    return parse_trace(trace_to_jsonl(trace)) == trace


def trace_to_csv(trace: Trace) -> str:
    """The trace in the long CSV format parse_trace(..., "csv") reads."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["t", "bssid", "rssi_dbm", "lat", "lon", "battery_pct", "activity"])
    for s in trace.samples:
        for bssid, rssi in zip(s.bssids, s.rssis):
            writer.writerow(
                [
                    s.timestamp,
                    bssid,
                    rssi,
                    "" if s.latitude is None else s.latitude,
                    "" if s.longitude is None else s.longitude,
                    "" if s.battery_pct is None else s.battery_pct,
                    s.activity,
                ]
            )
    return out.getvalue()


class FakeJsonConnection:
    """Stands in for gateway.JsonConnection: every POST answers 200 with
    `body` as JSON, and the request bodies are kept in `bodies`."""

    def __init__(self, body):
        self.reply = json.dumps(body).encode()
        self.bodies: list[bytes] = []

    def post(self, url, body, timeout):
        self.bodies.append(body)
        return 200, self.reply


# Any JSON value, with the keys both HTTP readers look for drawn often.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(
        st.sampled_from(["choices", "message", "content", "text", "action", "bssid"])
        | st.text(max_size=3),
        children | st.sampled_from(["stay", "roam", "AA:00:00:00:00:01"]),
        max_size=3,
    ),
    max_leaves=12,
)


def band_synth(seed: int, duration: int = 200, num_aps: int = 4) -> SynthConfig:
    """Synthetic config whose walks straddle the -70 dBm trigger band."""
    bases = (-58.0, -66.0, -72.0, -80.0, -63.0, -75.0)[:num_aps]
    return SynthConfig(
        num_aps=num_aps,
        duration=duration,
        base_dbm=bases if num_aps > 1 else bases[0],
        step_stddev=4.0,
        floor_dbm=-95.0,
        ceil_dbm=-45.0,
        seed=seed,
    )


@pytest.fixture
def conn():
    """A kept-alive connection for a client or policy under test, closed after it."""
    connection = JsonConnection()
    yield connection
    connection.close()


@pytest.fixture
def crossover_trace() -> Trace:
    """Two APs whose strengths cross mid-trace: A strong early, B strong late."""
    rows = []
    for t in range(12):
        a = -55.0 - 3.0 * t          # -55 .. -88
        b = -88.0 + 3.0 * t          # -88 .. -55
        rows.append({MAC_A: a, MAC_B: b})
    return make_trace(rows)
