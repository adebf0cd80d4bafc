"""Shared builders for hand-crafted traces, and the suite's loopback HTTP peer."""

from __future__ import annotations

import csv
import io
import json
import random
import ssl
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import strategies as st

from roamsim.gateway import JsonConnection, prompt_argmax_bssid
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
            "t": t, "bssid": bssid, "rssi": rssi,
            "action": "stay" if d.target is None else "roam", "target": d.target,
            "value": None, "source": d.source, "valid": d.valid,
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


class LoopbackPeer(ThreadingHTTPServer):
    """An HTTP server on loopback for the two routes roamsim calls.

    POST /decide answers a stay or, with `roam` set, a roam to the newest
    sample's strongest AP. Any other path is a chat completion: `reply_text`,
    or else `ANSWER: <the prompt's strongest AP>`, in the chat shape or, with
    shape="raw", the raw-completion one. A `status` other than 200 (a 3xx
    one with a Location back to the route), `delay_s` and `raw_reply` (bytes
    sent as they are) override the reply. With `protocol` HTTP/1.1 a
    connection is kept until `idle_timeout` seconds pass without a request;
    HTTP/1.0 closes it after each reply. `posts` records (server port,
    client port) for each request.
    """

    def __init__(self, reply_text: str | None = None, shape: str = "chat", roam: bool = False,
                 status: int = 200, delay_s: float = 0.0, raw_reply: bytes | None = None,
                 protocol: str = "HTTP/1.0", idle_timeout: float | None = None,
                 tls: ssl.SSLContext | None = None):
        super().__init__(("127.0.0.1", 0), _PeerHandler)
        self.reply_text, self.shape, self.roam = reply_text, shape, roam
        self.status, self.delay_s, self.raw_reply = status, delay_s, raw_reply
        self.protocol, self.idle_timeout = protocol, idle_timeout
        self.posts: list[tuple[int, int]] = []
        if tls is not None:
            self.socket = tls.wrap_socket(self.socket, server_side=True)
        scheme = "http" if tls is None else "https"
        self.url = f"{scheme}://127.0.0.1:{self.server_address[1]}"
        threading.Thread(target=self.serve_forever, args=(0.05,), daemon=True).start()

    def handle_error(self, request, client_address):
        pass  # clients that give up on a reply (the timeout tests) are expected

    def reply(self, path: str, body: dict) -> dict:
        if path == "/decide":
            if not self.roam:
                return {"action": "stay"}
            scan = body["window"][-1]["scan"]
            best = min(scan, key=lambda e: (-e["rssi_dbm"], e["bssid"]))
            return {"action": "roam", "bssid": best["bssid"]}
        message = body["messages"][0]
        assert message["role"] == "user"
        text = self.reply_text
        if text is None:
            text = f"ANSWER: {prompt_argmax_bssid(message['content'])}"
        return {"choices": [{"message": {"content": text}} if self.shape == "chat"
                            else {"text": text}]}


class _PeerHandler(BaseHTTPRequestHandler):
    def setup(self):
        self.protocol_version = self.server.protocol
        self.timeout = self.server.idle_timeout
        super().setup()

    def do_POST(self):
        peer = self.server
        peer.posts.append((peer.server_address[1], self.client_address[1]))
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        payload = peer.reply(self.path, body)
        time.sleep(peer.delay_s)
        if peer.status != 200:
            self.send_response(peer.status)
            if 300 <= peer.status < 400:  # a redirect back to this route
                self.send_header("Location", self.path)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        data = peer.raw_reply if peer.raw_reply is not None else json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def loopback():
    """Starts a LoopbackPeer per call, with the call's settings; stops them all after."""
    peers: list[LoopbackPeer] = []

    def start(**settings) -> LoopbackPeer:
        peers.append(LoopbackPeer(**settings))
        return peers[-1]

    yield start
    for peer in peers:
        peer.shutdown()
        peer.server_close()


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


def reference_synthetic(config: SynthConfig) -> Trace:
    """`generate_synthetic` for a config it accepts, written with one
    `random.Random(seed).gauss` call per AP per step."""
    n = config.num_aps
    base = config.base_dbm
    bases = [float(base)] * n if isinstance(base, (int, float)) else [float(b) for b in base]
    floor, ceil = config.floor_dbm, config.ceil_dbm
    levels = [max(floor, min(ceil, b)) for b in bases]
    gauss = random.Random(config.seed).gauss
    drain = config.battery_drain_pct_per_step
    samples = []
    for step in range(config.duration):
        if step > 0:
            levels = [max(floor, min(ceil, v + gauss(0.0, config.step_stddev))) for v in levels]
        samples.append(make_sample(
            step * config.sample_interval, dict(zip(map(mac, range(n)), levels)),
            activity=config.activity,
            lat=37.0 + step * 1e-5 if config.emit_location else None,
            lon=-122.0 + step * 1e-5 if config.emit_location else None,
            battery=None if drain is None else max(0.0, min(100.0, 100.0 - drain * step)),
        ))
    return Trace(samples=tuple(samples))


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
