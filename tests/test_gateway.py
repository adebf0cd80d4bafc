"""Transport client, mock model rules, and latency metering."""

from __future__ import annotations

import json
import math
import os
import ssl
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FakeJsonConnection, band_synth, json_values
from roamsim.agent import (
    CONTEXT_FIELDS,
    DEFAULT_TEMPLATE,
    FewShotExample,
    PromptConfig,
    build_prompt,
    parse_ap_response,
    render_window_block,
)
from roamsim.gateway import (
    _PAIR_RE,
    CompletionRecord,
    EndpointConfig,
    HttpClient,
    JsonConnection,
    MockClient,
    MockRule,
    _extract_reply,
    latency_stats,
    post_json,
    prompt_argmax_bssid,
)
from roamsim.policies import ExternalPolicy
from roamsim.roaming import Action, AssociationState
from roamsim.trace import generate_synthetic, strongest, window


def forward_argmax_bssid(prompt: str) -> str | None:
    """Reference for prompt_argmax_bssid: parse every line, keep the last with pairs."""
    last_pairs: list[tuple[str, float]] = []
    for line in prompt.splitlines():
        pairs = [(m.group(1).upper(), float(m.group(2))) for m in _PAIR_RE.finditer(line)]
        if pairs:
            last_pairs = pairs
    if not last_pairs:
        return None
    return min(last_pairs, key=lambda p: (-p[1], p[0]))[0]


ROW_TEMPLATE = {**DEFAULT_TEMPLATE, "row": "{aps} @{t}{context}\n",
                "window.header": "scan 00:11:22:33:44:55=-1 header\n"}


@st.composite
def built_prompts(draw):
    """Prompts build_prompt makes: either style and task, shots, context, templates."""
    trace = generate_synthetic(replace(
        band_synth(seed=draw(st.integers(0, 500)), duration=30, num_aps=draw(st.integers(1, 6))),
        emit_location=True, battery_drain_pct_per_step=0.5,
        step_stddev=draw(st.sampled_from([0.0, 4.0])),
    ))
    style = draw(st.sampled_from(["plain", "cot"]))
    task = draw(st.sampled_from(["ap_select", "threshold"]))
    cfg = PromptConfig(
        style=style, task=task, shots=draw(st.integers(0, 2)),
        context_fields=draw(st.frozensets(st.sampled_from(CONTEXT_FIELDS))),
    )
    template = draw(st.sampled_from([None, ROW_TEMPLATE]))
    shots = tuple(
        FewShotExample(
            window_text=render_window_block(window(trace, draw(st.integers(0, 29)), 5), cfg,
                                            template),
            answer=trace.samples[0].candidates[0].bssid,
            reasoning="AA:BB:CC:DD:EE:FF=-40 looked best" if style == "cot" else None,
        )
        for _ in range(cfg.shots)
    )
    win = window(trace, draw(st.integers(0, 29)), draw(st.integers(1, 12)))
    state = AssociationState(associated=trace.samples[0].candidates[0].bssid)
    return build_prompt(win, state, cfg, shots, template)


_MACS = st.builds(
    lambda octets, lower: (str.lower if lower else str.upper)(
        ":".join(f"{o:02x}" for o in octets)),
    st.lists(st.sampled_from([0x0, 0x0A, 0xAB, 0xFF]), min_size=6, max_size=6), st.booleans(),
)
_NUMBERS = st.one_of(
    st.sampled_from(["1e-05", "-1e-05", "-1E-5", "-0.0", "0", "-60", "-60.0", "-7.5e-3"]),
    st.floats(-100.0, 0.0).map(repr),
)


@st.composite
def pair_text(draw):
    """Arbitrary lines with pair-like tokens: ties, odd numbers, and no pairs at all."""
    token = st.one_of(
        st.builds(lambda m, n: f"{m}={n}", _MACS, _NUMBERS),
        _MACS, _NUMBERS, st.sampled_from(["=", "aps:", "t=3", "|", "ANSWER:", "x=-1"]),
        st.text(max_size=6),
    )
    lines = draw(st.lists(st.lists(token, max_size=5).map(" ".join), max_size=8))
    return draw(st.sampled_from(["\n", "\r\n", "\u2028"])).join(lines)


class _ChatHandler(BaseHTTPRequestHandler):
    reply_text = "ANSWER: -70"
    status = 200
    delay_s = 0.0
    shape = "chat"
    raw_reply = None  # reply bytes, sent as they are when set

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        assert body["messages"][0]["role"] == "user"
        if self.delay_s:
            time.sleep(self.delay_s)
        if self.status != 200:
            self.send_response(self.status)
            if 300 <= self.status < 400:  # a redirect back to this route
                self.send_header("Location", self.path)
            self.end_headers()
            return
        if self.shape == "chat":
            payload = {"choices": [{"message": {"content": self.reply_text}}]}
        else:
            payload = {"choices": [{"text": self.reply_text}]}
        data = self.raw_reply if self.raw_reply is not None else json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class _QuietServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        pass  # client-side disconnects (timeout test) are expected


@pytest.fixture
def chat_server():
    _ChatHandler.reply_text = "ANSWER: -70"
    _ChatHandler.status = 200
    _ChatHandler.delay_s = 0.0
    _ChatHandler.shape = "chat"
    _ChatHandler.raw_reply = None
    server = _QuietServer(("127.0.0.1", 0), _ChatHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield server
    server.shutdown()
    server.server_close()


def endpoint(server, **kw) -> EndpointConfig:
    defaults = dict(timeout_ms=2000.0, max_retries=2, backoff_ms=10.0)
    defaults.update(kw)
    return EndpointConfig(
        base_url=f"http://127.0.0.1:{server.server_address[1]}", model="m", **defaults
    )


class TestHttpClient:
    def test_ok_roundtrip(self, chat_server):
        record = HttpClient(endpoint(chat_server)).complete("hello")
        assert record.ok
        assert record.reply == "ANSWER: -70"
        assert record.attempts == 1
        assert record.latency_ms >= 0

    def test_raw_completion_fallback_shape(self, chat_server):
        _ChatHandler.shape = "raw"
        record = HttpClient(endpoint(chat_server)).complete("hello")
        assert record.ok
        assert record.reply == "ANSWER: -70"

    def test_http_error_after_retries(self, chat_server):
        _ChatHandler.status = 500
        record = HttpClient(endpoint(chat_server)).complete("hello")
        assert record.outcome == "http_error"
        assert record.status == 500
        assert record.attempts == 3
        assert record.reply == ""

    @pytest.mark.parametrize("status, attempts", [(400, 1), (429, 3)])
    def test_only_retryable_client_errors_are_retried(self, chat_server, status, attempts):
        _ChatHandler.status = status
        record = HttpClient(endpoint(chat_server)).complete("hello")
        assert record.outcome == "http_error"
        assert record.status == status
        assert record.attempts == attempts
        assert record.reply == ""

    @pytest.mark.parametrize(
        "body", [b"[]", b'"x"', b'{"choices": "abc"}', b'{"choices": [1]}', b"{not json"],
        ids=["list", "string", "choices-string", "choices-int", "not-json"],
    )
    def test_malformed_reply_is_a_retried_transport_error(self, chat_server, body):
        _ChatHandler.raw_reply = body
        record = HttpClient(endpoint(chat_server)).complete("hello")
        assert record.outcome == "transport_error"
        assert record.attempts == 3
        assert record.reply == ""

    @settings(max_examples=200, deadline=None)
    @given(body=json_values)
    def test_any_json_reply_ends_in_an_outcome(self, body):
        cfg = EndpointConfig(base_url="http://127.0.0.1:1", model="m", backoff_ms=0.0)
        record = HttpClient(cfg, FakeJsonConnection(body)).complete("hello")
        assert record.outcome in ("ok", "transport_error")
        assert isinstance(record.reply, str)
        assert record.attempts == (1 if record.ok else 3)

    def test_server_down_transport_error(self):
        cfg = EndpointConfig(base_url="http://127.0.0.1:1", model="m",
                             timeout_ms=500.0, max_retries=2, backoff_ms=5.0)
        record = HttpClient(cfg).complete("hello")
        assert record.outcome == "transport_error"
        assert record.attempts == 3

    def test_timeout_outcome(self, chat_server):
        _ChatHandler.delay_s = 0.5
        cfg = endpoint(chat_server, timeout_ms=100.0, max_retries=0)
        record = HttpClient(cfg).complete("hello")
        assert record.outcome == "timeout"

    def test_latency_reflects_artificial_delay(self, chat_server):
        _ChatHandler.delay_s = 0.05
        record = HttpClient(endpoint(chat_server)).complete("hello")
        assert record.ok
        assert record.latency_ms >= 50.0

    def test_records_are_retained(self, chat_server):
        client = HttpClient(endpoint(chat_server))
        for _ in range(4):
            client.complete("p")
        assert len(client.records) == 4

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            EndpointConfig(base_url="x", model="m", timeout_ms=0)
        with pytest.raises(ValueError):
            EndpointConfig(base_url="x", model="m", temperature=-1)

    # Each of these once reached the transport: a NaN or infinite temperature
    # failed every attempt with nothing sent, max_retries=-1 made no attempt,
    # and a negative backoff or an infinite timeout raised out of complete().
    # A NaN max_tokens also failed every attempt; zero, negative and boolean
    # ones were sent.
    @pytest.mark.parametrize("field, value", [
        ("temperature", math.nan), ("temperature", math.inf), ("temperature", -0.5),
        ("max_tokens", math.nan), ("max_tokens", math.inf), ("max_tokens", 0),
        ("max_tokens", -5), ("max_tokens", True),
        ("timeout_ms", math.nan), ("timeout_ms", math.inf), ("timeout_ms", -1.0),
        ("max_retries", -1),
        ("backoff_ms", -1.0), ("backoff_ms", math.nan), ("backoff_ms", math.inf),
    ])
    def test_out_of_range_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            EndpointConfig(base_url="x", model="m", **{field: value})

    def test_edge_values_accepted(self):
        cfg = EndpointConfig(base_url="x", model="m", temperature=0.0, timeout_ms=1e-3,
                             max_retries=0, backoff_ms=0.0)
        assert (cfg.max_retries, cfg.backoff_ms) == (0, 0.0)

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("ROAMSIM_LLM_BASE_URL", "http://example:9999")
        monkeypatch.setenv("ROAMSIM_LLM_MODEL", "other")
        cfg = EndpointConfig.from_env(base_url="http://ignored", model="ignored")
        assert cfg.base_url == "http://example:9999"
        assert cfg.model == "other"

    def test_total_time_bounded_by_retry_budget(self, chat_server):
        _ChatHandler.delay_s = 2.0
        cfg = endpoint(chat_server, timeout_ms=100.0, max_retries=2, backoff_ms=10.0)
        start = time.perf_counter()
        record = HttpClient(cfg).complete("hello")
        elapsed = time.perf_counter() - start
        assert record.outcome == "timeout"
        # timeout * (retries + 1) + backoff budget, with scheduling slack
        assert elapsed < (0.1 * 3 + 0.01 * 2) + 0.5


class _KeepAliveHandler(_ChatHandler):
    """Keeps connections alive (HTTP/1.1) and records (server port, client port)
    for each POST."""

    protocol_version = "HTTP/1.1"
    posts: list[tuple[int, int]] = []

    def do_POST(self):
        self.posts.append((self.server.server_address[1], self.client_address[1]))
        super().do_POST()


class _IdleCloseHandler(_KeepAliveHandler):
    """Closes a kept-alive connection after 0.2 s without a request."""

    timeout = 0.2


@pytest.fixture
def serve(chat_server):
    """Start loopback servers for handler classes (chat_server resets _ChatHandler)."""
    _KeepAliveHandler.posts.clear()
    servers = []

    def start(handler, tls: ssl.SSLContext | None = None) -> str:
        server = _QuietServer(("127.0.0.1", 0), handler)
        servers.append(server)
        if tls is not None:
            server.socket = tls.wrap_socket(server.socket, server_side=True)
        threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
        scheme = "http" if tls is None else "https"
        return f"{scheme}://127.0.0.1:{server.server_address[1]}"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture
def conn():
    connection = JsonConnection()
    yield connection
    connection.close()


BAD_URLS = ["ftp://x", "http://", "not-a-url", "http://127.0.0.1:abc"]

# A self-signed certificate for 127.0.0.1 and its key, made for these tests only.
LOOPBACK_PEM = os.path.join(os.path.dirname(__file__), "loopback.pem")


class TestJsonConnection:
    """The transport's edges: kept-alive reuse, closes, bad URLs and bodies, redirects."""

    def test_idle_connection_closed_by_server_is_reopened(self, serve, conn):
        url = serve(_IdleCloseHandler)
        client = HttpClient(EndpointConfig(base_url=url, model="m", max_retries=0), conn)
        assert client.complete("hello").ok
        time.sleep(0.5)  # the server has closed the idle connection by now
        record = client.complete("hello")
        assert record.ok
        assert record.attempts == 1
        assert len({port for _, port in _KeepAliveHandler.posts}) == 2

    def test_kept_alive_connection_is_reused(self, serve, conn):
        client = HttpClient(EndpointConfig(base_url=serve(_KeepAliveHandler), model="m"), conn)
        assert all(client.complete("hello").ok for _ in range(3))
        assert len({port for _, port in _KeepAliveHandler.posts}) == 1

    def test_http10_server_closing_each_reply(self, chat_server):
        client = HttpClient(endpoint(chat_server, max_retries=0))
        records = [client.complete("hello") for _ in range(3)]
        assert [(r.outcome, r.attempts) for r in records] == [("ok", 1)] * 3

    def test_new_origin_opens_a_new_connection(self, serve, conn):
        urls = [serve(_KeepAliveHandler), serve(_KeepAliveHandler)]
        for url in urls + urls:
            outcome, status, reply, _, _ = post_json(
                conn, url + "/v1/chat/completions", {"messages": [{"role": "user"}]},
                _extract_reply, 2000.0,
            )
            assert (outcome, status, reply) == ("ok", 200, "ANSWER: -70")
        ports = [int(url.rsplit(":", 1)[1]) for url in urls]
        assert [server for server, _ in _KeepAliveHandler.posts] == ports + ports

    @pytest.mark.parametrize("url", BAD_URLS)
    def test_bad_url_is_a_retried_transport_error(self, url):
        cfg = EndpointConfig(base_url=url, model="m", max_retries=2, backoff_ms=0.0)
        record = HttpClient(cfg).complete("hello")
        assert record.outcome == "transport_error"
        assert record.attempts == cfg.max_retries + 1

    @pytest.mark.parametrize("url", BAD_URLS)
    def test_bad_url_is_an_external_fault(self, url):
        trace = generate_synthetic(band_synth(seed=5, duration=3, num_aps=2))
        # a -20 dBm trigger makes the step consult the service
        state = AssociationState(associated=trace.samples[0].candidates[1].bssid,
                                 threshold=-20.0)
        decision = ExternalPolicy(url + "/decide").decide(window(trace, 2, 3), state)
        assert decision.fault
        assert decision.action is Action.STAY

    @pytest.mark.parametrize("max_retries, attempts", [(0, 1), (2, 3)])
    def test_nan_payload_is_a_transport_error(self, chat_server, conn, max_retries, attempts):
        # json cannot encode NaN, so nothing is sent; retries fail the same way.
        # EndpointConfig refuses a NaN temperature, so the payload goes to
        # post_json directly.
        url = f"http://127.0.0.1:{chat_server.server_address[1]}/v1/chat/completions"
        payload = {"model": "m", "temperature": float("nan"), "messages": []}
        outcome, status, _, _, got = post_json(conn, url, payload, _extract_reply, 2000.0,
                                               max_retries, 0.0)
        assert outcome == "transport_error"
        assert status is None
        assert got == attempts

    @pytest.mark.parametrize("trusted", [True, False], ids=["trusted", "untrusted"])
    def test_https_verifies_against_the_default_trust_store(self, serve, conn, monkeypatch,
                                                              trusted):
        tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        tls.load_cert_chain(LOOPBACK_PEM)
        url = serve(_KeepAliveHandler, tls)
        if trusted:  # OpenSSL's default verify paths read this variable
            monkeypatch.setenv("SSL_CERT_FILE", LOOPBACK_PEM)
        else:
            monkeypatch.delenv("SSL_CERT_FILE", raising=False)
        cfg = EndpointConfig(base_url=url, model="m", max_retries=0)
        record = HttpClient(cfg, conn).complete("x")
        assert (record.outcome, record.attempts) == (
            ("ok", 1) if trusted else ("transport_error", 1)
        )

    def test_redirect_is_an_http_error(self, chat_server):
        _ChatHandler.status = 307
        record = HttpClient(endpoint(chat_server)).complete("hello")
        assert (record.outcome, record.status, record.attempts) == ("http_error", 307, 1)


class TestMockRules:
    def test_argmax_picks_strongest_pair(self):
        prompt = "t=0 | aps: AA:00:00:00:00:01=-60.0 AA:00:00:00:00:02=-50.0\n"
        record = MockClient(MockRule.argmax_rssi()).complete(prompt)
        assert record.reply == "ANSWER: AA:00:00:00:00:02"

    def test_argmax_uses_last_row_only(self):
        prompt = (
            "t=0 | aps: AA:00:00:00:00:09=-10.0\n"
            "t=1 | aps: AA:00:00:00:00:01=-60.0 AA:00:00:00:00:02=-70.0\n"
        )
        record = MockClient(MockRule.argmax_rssi()).complete(prompt)
        assert record.reply == "ANSWER: AA:00:00:00:00:01"

    def test_fixed_threshold_reply(self):
        record = MockClient(MockRule.fixed_threshold(-70.0)).complete("anything")
        assert record.reply == "ANSWER: -70"

    def test_scripted_consumed_in_order_then_fails(self):
        client = MockClient(MockRule.scripted(["a", "b"]))
        assert client.complete("p").reply == "a"
        assert client.complete("p").reply == "b"
        assert client.complete("p").outcome == "transport_error"

    def test_fail_after_two(self):
        client = MockClient(MockRule.fail_after(2))
        outcomes = [client.complete("p").outcome for _ in range(4)]
        assert outcomes == ["ok", "ok", "transport_error", "transport_error"]

    def test_delay_raises_measured_latency(self):
        client = MockClient(MockRule.constant_text("x", delay_ms=30.0))
        assert client.complete("p").latency_ms >= 30.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 5000), t=st.integers(0, 39))
    def test_argmax_composes_with_prompt_and_parser(self, seed, t):
        # mock(argmax) o build_prompt o parse == strongest candidate
        trace = generate_synthetic(band_synth(seed=seed, duration=40))
        win = window(trace, t, 10)
        state = AssociationState(associated=trace.samples[0].candidates[0].bssid)
        prompt = build_prompt(win, state, PromptConfig())
        reply = MockClient(MockRule.argmax_rssi()).complete(prompt)
        assert parse_ap_response(reply.reply) == strongest(win.latest).bssid

    def test_prompt_argmax_tie_breaks_lexicographically(self):
        prompt = "aps: AA:00:00:00:00:02=-60.0 AA:00:00:00:00:01=-60.0\n"
        assert prompt_argmax_bssid(prompt) == "AA:00:00:00:00:01"

    @settings(max_examples=150, deadline=None)
    @given(prompt=st.one_of(built_prompts(), pair_text()))
    def test_argmax_matches_forward_scan(self, prompt):
        assert prompt_argmax_bssid(prompt) == forward_argmax_bssid(prompt)

    def test_mock_is_safe_under_concurrent_use(self):
        client = MockClient(MockRule.scripted([str(i) for i in range(64)]))
        workers = []
        for _ in range(8):
            worker = threading.Thread(
                target=lambda: [client.complete("p") for _ in range(8)]
            )
            workers.append(worker)
            worker.start()
        for worker in workers:
            worker.join()
        assert len(client.records) == 64
        # every scripted reply consumed exactly once
        assert sorted(int(r.reply) for r in client.records) == list(range(64))


class TestLatencyStats:
    def _record(self, ms, outcome="ok"):
        return CompletionRecord(reply="r", latency_ms=ms, attempts=1, outcome=outcome)

    def test_three_point_summary(self):
        summary = latency_stats([self._record(v) for v in (10.0, 20.0, 30.0)])
        assert summary["count"] == 3
        assert summary["mean_ms"] == 20.0
        assert summary["p50_ms"] == 20.0
        assert summary["max_ms"] == 30.0
        assert summary["failures"] == 0

    def test_empty(self):
        summary = latency_stats([])
        assert summary["count"] == 0
        assert summary["mean_ms"] is None

    def test_failures_counted_separately(self):
        records = [self._record(10.0), self._record(0.0, "transport_error")]
        summary = latency_stats(records)
        assert summary["count"] == 1
        assert summary["failures"] == 1

    def test_nearest_rank_p95(self):
        records = [self._record(float(v)) for v in range(1, 101)]
        assert latency_stats(records)["p95_ms"] == 95.0

    def test_single_sample(self):
        summary = latency_stats([self._record(7.0)])
        assert summary["p50_ms"] == 7.0
        assert summary["p95_ms"] == 7.0
