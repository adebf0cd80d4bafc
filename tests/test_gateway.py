"""Transport client, mock model rules, and latency metering."""

from __future__ import annotations

import http.client
import io
import json
import math
import os
import re
import select
import socket
import ssl
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
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
from roamsim.cli import main
from roamsim.errors import ConfigError
from roamsim.gateway import (
    _PAIR_RE,
    CompletionRecord,
    EndpointConfig,
    HttpClient,
    JsonConnection,
    MockClient,
    MockRule,
    _extract_reply,
    check_url,
    latency_stats,
    post_json,
    prompt_argmax_bssid,
)
from roamsim.policies import ExternalPolicy
from roamsim.roaming import AssociationState
from roamsim.trace import generate_synthetic, strongest, trace_to_jsonl, window


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


REPLY = "ANSWER: -70"


def endpoint(peer, **kw) -> EndpointConfig:
    defaults = dict(timeout_ms=2000.0, max_retries=2, backoff_ms=10.0)
    defaults.update(kw)
    return EndpointConfig(base_url=peer.url, model="m", **defaults)


class TestHttpClient:
    def test_ok_roundtrip(self, loopback, conn):
        record = HttpClient(endpoint(loopback(reply_text=REPLY)), conn).complete("hello")
        assert record.ok
        assert record.reply == "ANSWER: -70"
        assert record.attempts == 1
        assert record.latency_ms >= 0

    def test_raw_completion_fallback_shape(self, loopback, conn):
        peer = loopback(reply_text=REPLY, shape="raw")
        record = HttpClient(endpoint(peer), conn).complete("hello")
        assert record.ok
        assert record.reply == "ANSWER: -70"

    def test_http_error_after_retries(self, loopback, conn):
        record = HttpClient(endpoint(loopback(status=500)), conn).complete("hello")
        assert record.outcome == "http_error"
        assert record.status == 500
        assert record.attempts == 3
        assert record.reply == ""

    @pytest.mark.parametrize("status, attempts", [(400, 1), (429, 3)])
    def test_only_retryable_client_errors_are_retried(self, loopback, status, attempts, conn):
        record = HttpClient(endpoint(loopback(status=status)), conn).complete("hello")
        assert record.outcome == "http_error"
        assert record.status == status
        assert record.attempts == attempts
        assert record.reply == ""

    @pytest.mark.parametrize(
        "body", [b"[]", b'"x"', b'{"choices": "abc"}', b'{"choices": [1]}', b"{not json",
                 b'{"choices": [{}]}', b'{"choices": [{"message": {"content": 5}}]}'],
        ids=["list", "string", "choices-string", "choices-int", "not-json", "no-text",
             "content-int"],
    )
    def test_malformed_reply_is_a_retried_transport_error(self, loopback, body, conn):
        record = HttpClient(endpoint(loopback(raw_reply=body)), conn).complete("hello")
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

    def test_server_down_transport_error(self, conn):
        cfg = EndpointConfig(base_url="http://127.0.0.1:1", model="m",
                             timeout_ms=500.0, max_retries=2, backoff_ms=5.0)
        record = HttpClient(cfg, conn).complete("hello")
        assert record.outcome == "transport_error"
        assert record.attempts == 3

    def test_timeout_outcome(self, loopback, conn):
        cfg = endpoint(loopback(delay_s=0.5), timeout_ms=100.0, max_retries=0)
        record = HttpClient(cfg, conn).complete("hello")
        assert record.outcome == "timeout"

    def test_latency_reflects_artificial_delay(self, loopback, conn):
        record = HttpClient(endpoint(loopback(delay_s=0.05)), conn).complete("hello")
        assert record.ok
        assert record.latency_ms >= 50.0

    def test_records_are_retained(self, loopback, conn):
        client = HttpClient(endpoint(loopback()), conn)
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
    # ones were sent. A fractional, infinite or boolean max_retries raised a
    # bare TypeError out of the first complete(). A timeout or backoff far past
    # one day raised OverflowError out of the clock.
    @pytest.mark.parametrize("field, value", [
        ("temperature", math.nan), ("temperature", math.inf), ("temperature", -0.5),
        ("max_tokens", math.nan), ("max_tokens", math.inf), ("max_tokens", 0),
        ("max_tokens", -5), ("max_tokens", True),
        ("timeout_ms", math.nan), ("timeout_ms", math.inf), ("timeout_ms", -1.0),
        ("timeout_ms", 1e300),
        ("max_retries", -1), ("max_retries", 1.5), ("max_retries", math.inf),
        ("max_retries", True),
        ("backoff_ms", -1.0), ("backoff_ms", math.nan), ("backoff_ms", math.inf),
        ("backoff_ms", 1e300),
    ])
    def test_out_of_range_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            EndpointConfig(base_url="x", model="m", **{field: value})

    def test_edge_values_accepted(self):
        cfg = EndpointConfig(base_url="x", model="m", temperature=0.0, timeout_ms=1e-3,
                             max_retries=0, backoff_ms=0.0)
        assert (cfg.max_retries, cfg.backoff_ms) == (0, 0.0)

    def test_total_time_bounded_by_retry_budget(self, loopback, conn):
        cfg = endpoint(loopback(delay_s=2.0), timeout_ms=100.0, max_retries=2, backoff_ms=10.0)
        start = time.perf_counter()
        record = HttpClient(cfg, conn).complete("hello")
        elapsed = time.perf_counter() - start
        assert record.outcome == "timeout"
        # timeout * (retries + 1) + backoff budget, with scheduling slack
        assert elapsed < (0.1 * 3 + 0.01 * 2) + 0.5


BAD_URLS = ["ftp://x", "http://", "not-a-url", "http://127.0.0.1:abc"]

# A self-signed certificate for 127.0.0.1 and its key, made for these tests only.
LOOPBACK_PEM = os.path.join(os.path.dirname(__file__), "loopback.pem")


@pytest.mark.parametrize("url", [*BAD_URLS, "http://[::1", "http://x:65536", "http://x y", 5,
                                 b"http://x"])
def test_check_url_refuses_with_a_config_error(url):
    with pytest.raises(ConfigError):
        check_url(url)


def test_check_url_splits_a_url_it_accepts():
    parts = check_url("https://[::1]:8443/v1?q=1")
    assert (parts.scheme, parts.hostname, parts.port, parts.path) == ("https", "::1", 8443, "/v1")


@pytest.mark.parametrize("policy", ["llm", "external"])
@pytest.mark.parametrize("url", BAD_URLS)
def test_a_run_refuses_a_url_it_can_never_send_to(tmp_path, capsys, policy, url):
    trace = tmp_path / "walk.jsonl"
    trace.write_text(trace_to_jsonl(generate_synthetic(band_synth(seed=5, duration=3,
                                                                  num_aps=2))))
    out = tmp_path / "runs"
    flags = (["--endpoint-url", url] if policy == "llm"
             else ["--external-url", url + "/decide"])
    rc = main(["simulate", "--trace", str(trace), "--policy", policy, *flags,
               "--scan-rssi=-20", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


class TestJsonConnection:
    """The transport's edges: kept-alive reuse, closes, bad URLs and bodies, redirects."""

    def test_idle_connection_closed_by_server_is_reopened(self, loopback, conn):
        peer = loopback(protocol="HTTP/1.1", idle_timeout=0.2)
        client = HttpClient(EndpointConfig(base_url=peer.url, model="m", max_retries=0), conn)
        assert client.complete("hello").ok
        time.sleep(0.5)  # the server has closed the idle connection by now
        record = client.complete("hello")
        assert record.ok
        assert record.attempts == 1
        assert len({port for _, port in peer.posts}) == 2

    def test_kept_alive_connection_is_reused(self, loopback, conn):
        peer = loopback(protocol="HTTP/1.1")
        client = HttpClient(EndpointConfig(base_url=peer.url, model="m"), conn)
        assert all(client.complete("hello").ok for _ in range(3))
        assert len({port for _, port in peer.posts}) == 1

    def test_a_new_timeout_applies_to_the_kept_alive_socket(self, loopback, conn):
        peer = loopback(protocol="HTTP/1.1")
        outcome, *_ = post_json(conn, peer.url + "/decide", b"{}", dict, 3000.0)
        assert outcome == "ok"
        peer.delay_s = 1.0  # longer than the second request's budget
        outcome, _, _, latency_ms, _ = post_json(conn, peer.url + "/decide", b"{}", dict, 200.0)
        assert outcome == "timeout"
        assert latency_ms < 800.0
        assert len({port for _, port in peer.posts}) == 1  # both on the kept-alive socket

    def test_http10_server_closing_each_reply(self, loopback, conn):
        client = HttpClient(endpoint(loopback(), max_retries=0), conn)
        records = [client.complete("hello") for _ in range(3)]
        assert [(r.outcome, r.attempts) for r in records] == [("ok", 1)] * 3

    def test_new_origin_opens_a_new_connection(self, loopback, conn):
        peers = [loopback(reply_text=REPLY, protocol="HTTP/1.1") for _ in range(2)]
        peers[1].posts = peers[0].posts  # one record of both, in request order
        urls = [peer.url for peer in peers]
        for url in urls + urls:
            outcome, status, reply, _, _ = post_json(
                conn, url + "/v1/chat/completions", b'{"messages": [{"role": "user"}]}',
                _extract_reply, 2000.0,
            )
            assert (outcome, status, reply) == ("ok", 200, "ANSWER: -70")
        ports = [int(url.rsplit(":", 1)[1]) for url in urls]
        assert [server for server, _ in peers[0].posts] == ports + ports

    @pytest.mark.parametrize("url", BAD_URLS)
    def test_bad_url_is_a_retried_transport_error(self, url, conn):
        cfg = EndpointConfig(base_url=url, model="m", max_retries=2, backoff_ms=0.0)
        record = HttpClient(cfg, conn).complete("hello")
        assert record.outcome == "transport_error"
        assert record.attempts == cfg.max_retries + 1

    @pytest.mark.parametrize("url", BAD_URLS)
    def test_bad_url_is_an_external_fault(self, url, conn):
        trace = generate_synthetic(band_synth(seed=5, duration=3, num_aps=2))
        # a -20 dBm trigger makes the step consult the service
        state = AssociationState(associated=trace.samples[0].candidates[1].bssid,
                                 threshold=-20.0)
        decision = ExternalPolicy(url + "/decide", conn).decide(window(trace, 2, 3), state)
        assert decision.fault
        assert decision.target is None

    @pytest.mark.parametrize("trusted", [True, False], ids=["trusted", "untrusted"])
    def test_https_verifies_against_the_default_trust_store(self, loopback, conn, monkeypatch,
                                                              trusted):
        tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        tls.load_cert_chain(LOOPBACK_PEM)
        url = loopback(protocol="HTTP/1.1", tls=tls).url
        if trusted:  # OpenSSL's default verify paths read this variable
            monkeypatch.setenv("SSL_CERT_FILE", LOOPBACK_PEM)
        else:
            monkeypatch.delenv("SSL_CERT_FILE", raising=False)
        cfg = EndpointConfig(base_url=url, model="m", max_retries=0)
        record = HttpClient(cfg, conn).complete("x")
        assert (record.outcome, record.attempts) == (
            ("ok", 1) if trusted else ("transport_error", 1)
        )

    def test_redirect_is_an_http_error(self, loopback, conn):
        record = HttpClient(endpoint(loopback(status=307)), conn).complete("hello")
        assert (record.outcome, record.status, record.attempts) == ("http_error", 307, 1)


def _read_request(fh) -> bytes | None:
    """One request's head and body from a server-side file, or None at the end."""
    head, length = b"", 0
    while True:
        line = fh.readline()
        if not line:
            return None
        head += line
        if line == b"\r\n":
            return head + fh.read(length)
        name, _, value = line.partition(b":")
        if name.lower() == b"content-length":
            length = int(value)


class RawServer:
    """A loopback server that answers each request with the next queued bytes.

    `replies` holds (bytes, close) pairs: the bytes go out as they are, and
    the connection closes after them when `close` is set. A tuple of bytes
    goes out one piece at a time, with a pause before each later piece, so
    the client reads the pieces in separate `recv` calls. `requests` holds
    (connection number, request bytes) for each request read, so a test can
    see which requests shared a socket.
    """

    def __init__(self, host: str = "127.0.0.1"):
        self.replies: list[tuple[bytes, bool]] = []
        self.requests: list[tuple[int, bytes]] = []
        self.connections = 0
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._listener = socket.create_server((host, 0), family=family)
        self._listener.settimeout(0.05)
        self.port = self._listener.getsockname()[1]
        netloc = f"[{host}]" if ":" in host else host
        self.url = f"http://{netloc}:{self.port}/decide"
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                sock, _ = self._listener.accept()
            except TimeoutError:
                continue
            number = self.connections
            self.connections += 1
            sock.settimeout(5.0)
            with sock, sock.makefile("rb") as fh:
                try:
                    while (request := _read_request(fh)) is not None:
                        self.requests.append((number, request))
                        reply, close = self.replies.pop(0)
                        pieces = reply if isinstance(reply, tuple) else (reply,)
                        sock.sendall(pieces[0])
                        for piece in pieces[1:]:
                            time.sleep(0.1)
                            sock.sendall(piece)
                        if close:
                            break
                except OSError:
                    pass  # the client gave up on the connection

    def stop(self):
        self._stop.set()
        self._thread.join(timeout=5)
        self._listener.close()


@pytest.fixture
def raw_server():
    server = RawServer()
    yield server
    server.stop()


def _ok(body: bytes = b'{"action": "stay"}', extra: bytes = b"") -> bytes:
    """An HTTP/1.1 200 reply framed by Content-Length, with `extra` header lines."""
    return b"HTTP/1.1 200 OK\r\n%sContent-Length: %d\r\n\r\n%s" % (extra, len(body), body)


def _post(conn, server, timeout_ms=2000.0):
    """post_json to the raw server: (outcome, status, reply JSON)."""
    outcome, status, value, _, _ = post_json(conn, server.url, b'{"x": 1}', lambda v: v,
                                             timeout_ms)
    return outcome, status, value


STAY = {"action": "stay"}

# A chunked reply whose trailer has 151 lines, one of them no header field;
# http.client discards a trailer whatever its lines.
_LONG_TRAILER = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                 b'12\r\n{"action": "stay"}\r\n0\r\n'
                 + b"".join(b"X-T%d: t\r\n" % i for i in range(150)) + b"not a field\r\n\r\n")

# Replies the transport refuses; each is a transport error on a connection
# that is not kept.
MALFORMED_REPLIES = {
    "no-status-code": b"HTTP/1.1 OK\r\nContent-Length: 0\r\n\r\n",
    "not-http": b"ICY 200 OK\r\nContent-Length: 0\r\n\r\n",
    "http-2": b"HTTP/2 200\r\nContent-Length: 0\r\n\r\n",
    "four-digit-status": b"HTTP/1.1 2000 OK\r\nContent-Length: 0\r\n\r\n",
    "status-below-100": b"HTTP/1.1 099 OK\r\nContent-Length: 0\r\n\r\n",
    "empty-line": b"\r\n",
    "long-header": _ok(extra=b"X-Pad: " + b"a" * (65536 - 8) + b"\r\n"),
    "101-headers": _ok(extra=b"".join(b"X-H%d: v\r\n" % i for i in range(100))),
    "header-without-colon": _ok(extra=b"no colon here\r\n"),
    "length-not-digits": b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n{}",
    "length-negative": b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n{}",
    "length-plus": b"HTTP/1.1 200 OK\r\nContent-Length: +2\r\n\r\n{}",
    "length-empty": b"HTTP/1.1 200 OK\r\nContent-Length:\r\n\r\n{}",
    # either length alone would frame a JSON body: 1 or 12
    "two-lengths": b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n12",
    "length-list": b"HTTP/1.1 200 OK\r\nContent-Length: 1, 2\r\n\r\n12",
    "gzip": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n{}",
    "gzip-chunked": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip, chunked\r\n\r\n"
                     b"2\r\n{}\r\n0\r\n\r\n"),
    "both-framings": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 2\r\n"
                      b"\r\n2\r\n{}\r\n0\r\n\r\n"),
    "bad-chunk-size": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n{}\r\n0\r\n\r\n",
    "chunk-overrun": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1\r\n{}\r\n0\r\n\r\n",
    "short-body": b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n{}",
    "short-chunk": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n9\r\n{}",
    "head-cut-off": b"HTTP/1.1 200 OK\r\nContent-Len",
}


class TestWireFormat:
    """The transport's reply parsing, against raw-socket servers on loopback."""

    def test_content_length_reply_keeps_the_connection(self, raw_server, conn):
        raw_server.replies += [(_ok(), False), (_ok(b'{"action": "roam"}'), False)]
        assert _post(conn, raw_server) == ("ok", 200, STAY)
        assert _post(conn, raw_server) == ("ok", 200, {"action": "roam"})
        assert [n for n, _ in raw_server.requests] == [0, 0]

    def test_request_bytes(self, raw_server, conn):
        raw_server.replies.append((_ok(), False))
        _post(conn, raw_server)
        port = raw_server.url.split(":")[2].split("/")[0]
        assert raw_server.requests[0][1] == (
            b"POST /decide HTTP/1.1\r\nHost: 127.0.0.1:%s\r\nAccept-Encoding: identity\r\n"
            b"Content-Type: application/json\r\nContent-Length: 8\r\n\r\n"
            b'{"x": 1}' % port.encode()
        )

    def test_ipv6_host_is_bracketed(self, conn):
        try:
            server = RawServer("::1")
        except OSError:
            pytest.skip("no IPv6 loopback")
        server.replies.append((_ok(), False))
        try:
            assert _post(conn, server) == ("ok", 200, STAY)
            assert b"\r\nHost: [::1]:%d\r\n" % server.port in server.requests[0][1]
        finally:
            conn.close()  # ends the server's side of the connection, so it stops at once
            server.stop()

    def test_idna_host_header(self, raw_server, conn):
        # fullwidth letters are not ASCII, so the Host header carries the name's IDNA form
        raw_server.replies.append((_ok(), False))
        url = "http://\uff4c\uff4f\uff43\uff41\uff4c\uff48\uff4f\uff53\uff54:%d/decide"
        outcome, status, value, _, _ = post_json(conn, url % raw_server.port, b"{}",
                                                 lambda v: v, 2000.0)
        assert (outcome, status, value) == ("ok", 200, STAY)
        assert b"\r\nHost: localhost:%d\r\n" % raw_server.port in raw_server.requests[0][1]

    def test_select_serves_where_poll_is_missing(self, raw_server, conn, monkeypatch):
        monkeypatch.delattr(select, "poll")
        # the second reply keeps the connection, then the server closes it
        raw_server.replies += [(_ok(), False), (_ok(), True), (_ok(), False)]
        assert _post(conn, raw_server) == ("ok", 200, STAY)
        assert conn._poll is None
        assert _post(conn, raw_server) == ("ok", 200, STAY)
        time.sleep(0.1)  # the close has reached the client by now
        outcome, status, value, _, attempts = post_json(conn, raw_server.url, b"{}",
                                                        lambda v: v, 2000.0)
        assert (outcome, status, value, attempts) == ("ok", 200, STAY, 1)
        assert [n for n, _ in raw_server.requests] == [0, 0, 1]

    @pytest.mark.parametrize("eol", [b"\r\n", b"\n"], ids=["crlf", "lf"])
    def test_chunked_body(self, raw_server, conn, eol):
        body = b'{"action": "stay", "pad": "' + b"p" * 40 + b'"}'
        chunked = b"".join(b"%x;ext=1%s%s%s" % (len(part), eol, part, eol)
                           for part in (body[:5], body[5:30], body[30:]))
        reply = (b"HTTP/1.1 200 OK" + eol + b"Transfer-Encoding: Chunked" + eol + eol
                 + chunked + b"0" + eol + b"X-Trailer: t" + eol + eol)
        raw_server.replies += [(reply, False), (_ok(), False)]
        assert _post(conn, raw_server) == ("ok", 200, json.loads(body))
        assert _post(conn, raw_server) == ("ok", 200, STAY)
        assert [n for n, _ in raw_server.requests] == [0, 0]  # the chunked reply kept it

    def test_a_trailer_of_any_length_and_form_is_discarded(self, raw_server, conn):
        raw_server.replies += [(_LONG_TRAILER, False), (_ok(), False)]
        assert _post(conn, raw_server) == ("ok", 200, STAY)
        assert _post(conn, raw_server) == ("ok", 200, STAY)
        assert [n for n, _ in raw_server.requests] == [0, 0]

    def test_http10_close_delimited_body(self, raw_server, conn):
        reply = b'HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n{"action": "stay"}'
        raw_server.replies += [(reply, True), (_ok(), False)]
        assert _post(conn, raw_server) == ("ok", 200, STAY)
        assert _post(conn, raw_server) == ("ok", 200, STAY)
        assert [n for n, _ in raw_server.requests] == [0, 1]

    def test_close_delimited_body_after_its_headers(self, raw_server, conn):
        # the body comes in a later recv than the headers, so the read loop reads it
        head = b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n"
        raw_server.replies.append(((head, b'{"action": "stay"}'), True))
        assert _post(conn, raw_server) == ("ok", 200, STAY)

    def test_a_dripped_reply_times_out_within_the_budget(self, raw_server, conn):
        # one byte every 0.1 s: each recv makes progress, but the whole reply takes 5.6 s
        reply = _ok()
        raw_server.replies.append((tuple(reply[i:i + 1] for i in range(len(reply))), True))
        start = time.perf_counter()
        outcome, status, value, _, attempts = post_json(conn, raw_server.url, b"{}",
                                                        lambda v: v, 300.0)
        assert (outcome, status, value, attempts) == ("timeout", None, None, 1)
        assert time.perf_counter() - start < 0.3 + 0.5
        assert conn._sock is None  # the timeout closed the connection

    def test_http10_keep_alive_is_kept(self, raw_server, conn):
        raw_server.replies += [(b"HTTP/1.0 200 OK\r\nConnection: Keep-Alive\r\n"
                                b"Content-Length: 18\r\n\r\n" b'{"action": "stay"}', False),
                               (_ok(), False)]
        assert _post(conn, raw_server) == ("ok", 200, STAY)
        assert _post(conn, raw_server) == ("ok", 200, STAY)
        assert [n for n, _ in raw_server.requests] == [0, 0]

    def test_informational_replies_are_skipped(self, raw_server, conn):
        reply = (b"HTTP/1.1 100 Continue\r\n\r\n"
                 b"HTTP/1.1 103 Early Hints\r\nLink: </x>\r\n\r\n" + _ok())
        raw_server.replies += [(reply, False), (_ok(), False)]
        assert _post(conn, raw_server) == ("ok", 200, STAY)
        assert _post(conn, raw_server) == ("ok", 200, STAY)
        assert [n for n, _ in raw_server.requests] == [0, 0]

    @pytest.mark.parametrize("status", [204, 304])
    def test_bodiless_status_keeps_the_connection(self, raw_server, conn, status):
        # whatever length such a reply claims, it has no body
        raw_server.replies += [(b"HTTP/1.1 %d X\r\nContent-Length: 7\r\n\r\n" % status, False),
                               (_ok(), False)]
        assert conn.post(raw_server.url, b"{}", 2.0) == (status, b"")
        assert _post(conn, raw_server) == ("ok", 200, STAY)
        assert [n for n, _ in raw_server.requests] == [0, 0]

    def test_no_content_is_a_transport_error(self, raw_server, conn):
        raw_server.replies.append((b"HTTP/1.1 204 No Content\r\n\r\n", False))
        assert _post(conn, raw_server) == ("transport_error", None, None)

    @pytest.mark.parametrize("value", [b"close", b"Keep-Alive, Close", b"upgrade,close"])
    def test_connection_close_opens_a_new_socket(self, raw_server, conn, value):
        raw_server.replies += [(_ok(extra=b"Connection: " + value + b"\r\n"), False),
                               (_ok(), False)]
        assert _post(conn, raw_server) == ("ok", 200, STAY)
        assert _post(conn, raw_server) == ("ok", 200, STAY)
        assert [n for n, _ in raw_server.requests] == [0, 1]

    def test_bytes_after_a_reply_drop_the_connection(self, raw_server, conn):
        raw_server.replies += [(_ok() + _ok(b'{"action": "roam"}'), False), (_ok(), False)]
        assert _post(conn, raw_server) == ("ok", 200, STAY)
        assert _post(conn, raw_server) == ("ok", 200, STAY)  # not the stray reply
        assert [n for n, _ in raw_server.requests] == [0, 1]

    def test_limits_are_inclusive(self, raw_server, conn):
        # a 65536-byte header line and 99 header lines (100 with the blank
        # line, as http.client counts them) are the most allowed
        line = b"X-Pad: " + b"a" * (65536 - 9) + b"\r\n"
        assert len(line) == 65536
        many = b"".join(b"X-H%d: v\r\n" % i for i in range(98))  # and Content-Length
        raw_server.replies += [(_ok(extra=line), False), (_ok(extra=many), False),
                               (_ok(extra=many + b"X-H98: v\r\n"), True), (_ok(), False)]
        assert _post(conn, raw_server) == ("ok", 200, STAY)
        assert _post(conn, raw_server) == ("ok", 200, STAY)
        assert _post(conn, raw_server) == ("transport_error", None, None)
        assert _post(conn, raw_server) == ("ok", 200, STAY)

    def test_equal_lengths_are_one_length(self, raw_server, conn):
        raw_server.replies.append((b"HTTP/1.1 200 OK\r\nContent-Length: 18\r\n"
                                   b"Content-Length: 18, 18\r\n\r\n" b'{"action": "stay"}', False))
        assert _post(conn, raw_server) == ("ok", 200, STAY)

    @pytest.mark.parametrize("reply", list(MALFORMED_REPLIES.values()),
                             ids=list(MALFORMED_REPLIES))
    def test_malformed_reply_is_a_transport_error(self, raw_server, conn, reply):
        raw_server.replies += [(reply, True), (_ok(), False)]
        assert _post(conn, raw_server) == ("transport_error", None, None)
        assert _post(conn, raw_server) == ("ok", 200, STAY)
        assert [n for n, _ in raw_server.requests] == [0, 1]

    @pytest.mark.parametrize("url", [
        "{base}/de cide", "{base}/de\r\nX-Injected: 1", "{base}/de\ncide", "{base}/de\tcide",
        "{base}/de\x00cide", "{base}/de\x7fcide", "{base}/decide?q=a b",
        "http://127.0.0.1\r\nX-Injected: 1:{port}/decide", "http://127.0.0.1 :{port}/decide",
        "http://127.0.0.1\x0b:{port}/decide",
    ])
    def test_control_characters_in_the_url_are_refused_unsent(self, raw_server, conn, url):
        base = raw_server.url.rsplit("/", 1)[0]
        port = base.rsplit(":", 1)[1]
        url = url.format(base=base, port=port)
        outcome, status, value, _, attempts = post_json(conn, url, b"{}", lambda v: v, 2000.0)
        assert (outcome, status, value, attempts) == ("transport_error", None, None, 1)
        time.sleep(0.1)  # a connection, had one been made, would be accepted by now
        assert raw_server.connections == 0

    def test_url_refusal_keeps_an_open_connection(self, raw_server, conn):
        raw_server.replies += [(_ok(), False), (_ok(), False)]
        assert _post(conn, raw_server) == ("ok", 200, STAY)
        with pytest.raises(ValueError, match="control characters"):
            conn.post(raw_server.url + " x", b"{}", 2.0)
        assert _post(conn, raw_server) == ("ok", 200, STAY)
        assert [n for n, _ in raw_server.requests] == [0, 0]


_STATUS_LINES = st.sampled_from([
    b"HTTP/1.1 200 OK", b"HTTP/1.0 200 OK", b"HTTP/1.1 100 Continue", b"HTTP/1.1 204 No Content",
    b"HTTP/1.1 500 Oops", b"HTTP/1.1 200", b"HTTP/2 200", b"HTTP/1.1 2x0 OK", b"HTTP/1.1",
])
_HEADER_LINES = st.builds(
    lambda name, value: name + b": " + value,
    st.sampled_from([b"Content-Length", b"Transfer-Encoding", b"Connection", b"X-Other"]),
    st.sampled_from([b"0", b"2", b"18", b"-1", b"1e3", b"2, 2", b"chunked", b"gzip", b"close",
                     b"keep-alive", b""]),
)
_BODY_LINES = st.sampled_from([b"0", b"2", b"12;x=y", b"zz", b"{}", b'{"action": "stay"}', b""])
_REPLIES = st.one_of(
    st.binary(max_size=300),
    st.tuples(
        st.lists(st.one_of(_STATUS_LINES, _HEADER_LINES, _BODY_LINES, st.binary(max_size=12)),
                 max_size=14),
        st.sampled_from([b"\r\n", b"\n"]),
    ).map(lambda parts: parts[1].join(parts[0])),
)


# Replies with their status line and blank line in place, so that most reach a body.
_HEADED_REPLIES = st.builds(
    lambda status, headers, body, eol: eol.join([status, *headers, b"", *body]),
    _STATUS_LINES, st.lists(_HEADER_LINES, max_size=4), st.lists(_BODY_LINES, max_size=6),
    st.sampled_from([b"\r\n", b"\n"]),
)


@pytest.fixture(scope="module")
def shared_raw_server():
    server = RawServer()
    yield server
    server.stop()


@settings(max_examples=150, deadline=None)
@given(reply=_REPLIES | _HEADED_REPLIES)
def test_any_reply_bytes_end_in_an_outcome(shared_raw_server, reply):
    # the server closes after its bytes, so no reply waits out the timeout
    shared_raw_server.replies.append((reply, True))
    conn = JsonConnection()
    try:
        outcome, status, value, _, attempts = post_json(
            conn, shared_raw_server.url, b"{}", lambda v: v, 2000.0)
    finally:
        conn.close()
    assert outcome in ("ok", "http_error", "transport_error")
    assert attempts == 1
    assert (status is None) == (outcome == "transport_error")
    if outcome != "ok":
        assert value is None


class _ReplyBytes:
    """A socket stand-in over one reply's bytes, for both readers: `recv` hands
    them out `piece` bytes at a time (JsonConnection), and `makefile` gives them
    all (http.client). Its bytes are all there, so a timeout has nothing to bound."""

    def __init__(self, data: bytes, piece: int):
        self._data, self._file, self._piece = data, io.BytesIO(data), piece

    def settimeout(self, timeout: float) -> None:
        pass

    def recv(self, size: int) -> bytes:
        return self._file.read(min(size, self._piece))

    def makefile(self, mode: str):
        return io.BytesIO(self._data)


def _stdlib_reply(reply: bytes):
    """(status, body, whether to keep the connection) as http.client reads `reply`."""
    response = http.client.HTTPResponse(_ReplyBytes(reply, len(reply)))
    response.begin()
    return response.status, response.read(), not response.will_close


def _own_reply(reply: bytes, piece: int = 1 << 16):
    """(status, body, whether to keep the connection) as JsonConnection reads `reply`."""
    conn = JsonConnection()
    conn._sock = _ReplyBytes(reply, piece)
    conn._deadline = time.monotonic() + 60.0  # as _exchange sets it before the read
    return conn._read_reply()


def _lf_chunked(reply: bytes) -> bool:
    """A chunked reply with a line that ends in a bare LF, which JsonConnection
    reads and http.client does not (see test_where_http_client_reads_otherwise)."""
    return b"chunked" in reply.lower() and re.search(rb"(?<!\r)\n", reply) is not None


@settings(max_examples=600, deadline=None)
@given(reply=_REPLIES | _HEADED_REPLIES, piece=st.integers(1, 64))
# replies on which the two readers once disagreed
@example(reply=b"HTTP/1.1 200 OK\r\nContent-Length: 2, 2\r\n\r\n{}xy", piece=64)
@example(reply=b"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nConnection: close\r\n"
         b"Content-Length: 2\r\n\r\n{}", piece=64)
@example(reply=b"HTTP/1.1 200 OK\r\nConnection: closed\r\nContent-Length: 2\r\n\r\n{}",
         piece=64)
@example(reply=b"HTTP/1.1 204 No Content\r\nTransfer-Encoding: chunked\r\n\r\n"
         b"2\r\n{}\r\n0\r\n\r\n", piece=64)
@example(reply=b"HTTP/1.1 200 OK\r\n\x00: x\r\nContent-Length: 2\r\n\r\n{}xy", piece=64)
@example(reply=b"HTTP/1.1 200 OK\r\nX-A: a\rContent-Length: 2\r\n\r\n{}xy", piece=64)
@example(reply=b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n x: 5\r\n\r\n{}xy", piece=64)
@example(reply=b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked \r\n\r\n"
         b"2\r\n{}\r\n0\r\n\r\n", piece=64)
@example(reply=b"HTTP/1.0\x85 200 OK\r\nContent-Length: 2\r\n\r\n{}", piece=64)
@example(reply=_ok(b"{}", b"".join(b"X-H%d: v\r\n" % i for i in range(99))), piece=64)
@example(reply=_LONG_TRAILER, piece=64)
def test_a_reply_read_is_read_as_http_client_reads_it(reply, piece):
    try:
        own = _own_reply(reply, piece)
    except (OSError, ValueError):
        return  # refused; test_stricter_than_http_client pins each class
    if _lf_chunked(reply):
        return
    try:
        stdlib = _stdlib_reply(reply)
    except http.client.HTTPException as exc:
        stdlib = exc
    assert stdlib == own


# One reply of each class JsonConnection refuses and http.client reads, in the
# order of JsonConnection's docstring.
STRICTER_REPLIES = {
    "http-0.9": b"HTTP/0.9 200 OK\r\nContent-Length: 2\r\n\r\n{}",
    "head-cut-off": b"HTTP/1.1 200 OK\r\nX-A: a\r\n",
    "trailer-cut-off": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n",
    "second-status-line": b"HTTP/1.1 200 OK\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
    "folded-line": b"HTTP/1.1 200 OK\r\nX-A: a\r\n b\r\nContent-Length: 0\r\n\r\n",
    "space-before-colon": b"HTTP/1.1 200 OK\r\nContent-Length : 2\r\n\r\n{}",
    "length-list": b"HTTP/1.1 200 OK\r\nContent-Length: 2, 2\r\n\r\n{}",
    "length-plus": b"HTTP/1.1 200 OK\r\nContent-Length: +2\r\n\r\n{}",
    "gzip": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n{}",
    "both-framings": (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n"
                      b"\r\n2\r\n{}\r\n0\r\n\r\n"),
    "coded-204": b"HTTP/1.1 204 No Content\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
    "hex-prefix-chunk-size": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                              b"0x2\r\n{}\r\n0\r\n\r\n"),
    "chunk-overrun": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                      b"2\r\n{}XY0\r\n\r\n"),
}


@pytest.mark.parametrize("reply", list(STRICTER_REPLIES.values()), ids=list(STRICTER_REPLIES))
def test_stricter_than_http_client(reply):
    with pytest.raises((OSError, ValueError)):
        _own_reply(reply)
    _stdlib_reply(reply)  # returns


def test_http10_kept_by_another_header_is_closed():
    for header in (b"Keep-Alive: timeout=5", b"Proxy-Connection: keep-alive"):
        reply = b"HTTP/1.0 200 OK\r\n" + header + b"\r\nContent-Length: 2\r\n\r\n{}"
        assert _own_reply(reply) == (200, b"{}", False)
        assert _stdlib_reply(reply) == (200, b"{}", True)


def test_where_http_client_reads_otherwise():
    # every 1xx is interim to JsonConnection; http.client skips only 100 Continue
    early = b"HTTP/1.1 103 Early Hints\r\n\r\n" + _ok()
    assert _own_reply(early) == (200, json.dumps(STAY).encode(), True)
    assert _stdlib_reply(early) == (103, b"", True)
    # after chunk data http.client reads two bytes, here the LF and the next size's digit
    lf = b"HTTP/1.1 200 OK\nTransfer-Encoding: chunked\n\n2\n{}\n0\n\n"
    assert _lf_chunked(lf)
    assert _own_reply(lf) == (200, b"{}", True)
    with pytest.raises(http.client.IncompleteRead):
        _stdlib_reply(lf)


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

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), 1e300, -1.0, 86_400_001])
    def test_bad_delay_rejected(self, delay):
        with pytest.raises(ValueError, match="delay_ms must be between 0 and 86400000"):
            MockRule.argmax_rssi(delay)

    # Each of these once constructed and then raised a bare ValueError or
    # TypeError from the first complete() of a run.
    @pytest.mark.parametrize("kind, message", [
        ("nope", "unknown mock rule"), ("scripted", "needs replies"),
        ("fail_after", "needs fail_after_n"), ("fixed_threshold", "needs value"),
    ])
    def test_rule_it_cannot_run_is_refused(self, kind, message):
        with pytest.raises(ValueError, match=message):
            MockRule(kind=kind)

    # Each of these once constructed, and all but the last two then raised a
    # bare ValueError, TypeError or AttributeError inside a run.
    @pytest.mark.parametrize("make, message", [
        (lambda: MockRule.fixed_threshold("x"), "value must be a finite number"),
        (lambda: MockRule(kind="scripted", replies=5), "replies must be a list of strings"),
        (lambda: MockRule.constant_text(5), "text must be a string"),
        (lambda: MockRule.fail_after(1.5), "fail_after_n must be an int"),
        (lambda: MockRule.fail_after(True), "fail_after_n must be an int"),
        (lambda: MockRule.scripted(["a", 5]), "replies must be a list of strings"),
        (lambda: MockRule.fixed_threshold(True), "value must be a finite number"),
        (lambda: MockRule.fixed_threshold(10**400), "value must be a finite number"),
        (lambda: MockRule.fixed_threshold(float("nan")), "value must be a finite number"),
        (lambda: MockRule.fixed_threshold(float("inf")), "value must be a finite number"),
    ], ids=["value-str", "replies-int", "text-int", "fail-after-float", "fail-after-bool",
            "replies-item-int", "value-bool", "value-huge-int", "value-nan", "value-inf"])
    def test_argument_of_the_wrong_type_is_refused(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 5000), t=st.integers(0, 39))
    def test_argmax_composes_with_prompt_and_parser(self, seed, t):
        # mock(argmax) o build_prompt o parse == strongest candidate
        trace = generate_synthetic(band_synth(seed=seed, duration=40))
        win = window(trace, t, 10)
        state = AssociationState(associated=trace.samples[0].candidates[0].bssid)
        prompt = build_prompt(win, state, PromptConfig())
        reply = MockClient(MockRule.argmax_rssi()).complete(prompt)
        assert parse_ap_response(reply.reply) == strongest(win[-1]).bssid

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
