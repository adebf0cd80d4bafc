"""The HTTP transport, a completion client over it, an in-process mock
model, and latency metering.

`post_json` is the one routine that speaks HTTP, for the completion client
and the external decision policy (policies.ExternalPolicy) alike: a POST of
a JSON body the caller has encoded once, on the caller's JsonConnection,
with the retry rule and the outcomes ok, timeout, transport_error and
http_error. JsonConnection is one kept-alive http.client connection,
standard library only. Three edges differ from a general-purpose HTTP
client, and nothing here relies on them:

* a 3xx reply is an http_error; redirects are not followed;
* HTTP_PROXY, HTTPS_PROXY and the other proxy variables are ignored;
* https verifies against the system trust store (ssl's default context).

Nor is any credential sent, from user:password@ in the URL or from ~/.netrc.

The completion client speaks the common chat-completions JSON shape
(POST {base}/v1/chat/completions with a single user message; reply text
taken from choices[0].message.content, with choices[0].text accepted as a
raw-completion fallback). The mock implements the same `complete`
contract so agent code and tests run hermetically.

Every completion call produces a CompletionRecord: the reply text, the
latency, the attempt count, the outcome and the HTTP status, but not the
prompt. Clients keep their records so `latency_stats` can summarise a run
against its call count.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import re
import selectors
import threading
import time
from dataclasses import dataclass
from urllib.parse import urlsplit

ENV_BASE_URL = "ROAMSIM_LLM_BASE_URL"
ENV_MODEL = "ROAMSIM_LLM_MODEL"

OUTCOME_OK = "ok"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_TRANSPORT = "transport_error"
OUTCOME_HTTP = "http_error"

MOCK_DELAY_MAX_MS = 86_400_000

# MAC=rssi pairs as rendered in prompt window rows (rssi kept at full
# precision, so scientific notation near zero must parse too).
_PAIR_RE = re.compile(
    r"([0-9A-Fa-f]{2}(?::[0-9A-Fa-f]{2}){5})=(-?\d+(?:\.\d+)?(?:[eE]-?\d+)?)"
)


@dataclass(frozen=True)
class EndpointConfig:
    """Connection settings for a live completion endpoint."""

    base_url: str
    model: str
    temperature: float = 0.0
    max_tokens: int = 256
    timeout_ms: float = 30_000.0
    max_retries: int = 2
    backoff_ms: float = 250.0

    def __post_init__(self):
        # Each check states the allowed range, which NaN is never in; a
        # check such as `x < 0` would let NaN through.
        if not 0 < self.timeout_ms < math.inf:
            raise ValueError("timeout_ms must be positive and finite")
        if not 0 <= self.temperature < math.inf:
            raise ValueError("temperature must be finite and >= 0")
        if isinstance(self.max_tokens, bool) or not 0 < self.max_tokens < math.inf:
            raise ValueError("max_tokens must be positive and finite")
        if type(self.max_retries) is not int or self.max_retries < 0:
            raise ValueError("max_retries must be an int >= 0")
        if not 0 <= self.backoff_ms < math.inf:
            raise ValueError("backoff_ms must be finite and >= 0")

    @staticmethod
    def from_env(base_url: str | None = None, model: str | None = None) -> "EndpointConfig":
        """Build a config. An explicit argument wins; one left None is taken
        from the environment, or else from the default."""
        if base_url is None:
            base_url = os.environ.get(ENV_BASE_URL, "http://127.0.0.1:8080")
        if model is None:
            model = os.environ.get(ENV_MODEL, "local")
        return EndpointConfig(base_url=base_url, model=model)


@dataclass(frozen=True)
class CompletionRecord:
    """Outcome of one completion call."""

    reply: str
    latency_ms: float
    attempts: int
    outcome: str
    status: int | None = None

    @property
    def ok(self) -> bool:
        return self.outcome == OUTCOME_OK


@dataclass(frozen=True)
class MockRule:
    """Behavior of the in-process mock model."""

    kind: str
    text: str | None = None
    value: float | None = None
    replies: tuple[str, ...] | None = None
    fail_after_n: int | None = None
    delay_ms: float = 0.0

    def __post_init__(self):
        # NaN is never in range; past about 292 years time.sleep overflows
        if not 0 <= self.delay_ms <= MOCK_DELAY_MAX_MS:
            raise ValueError(f"delay_ms must be between 0 and {MOCK_DELAY_MAX_MS} (one day)")

    @staticmethod
    def argmax_rssi(delay_ms: float = 0.0) -> "MockRule":
        return MockRule(kind="argmax_rssi", delay_ms=delay_ms)

    @staticmethod
    def constant_text(text: str, delay_ms: float = 0.0) -> "MockRule":
        return MockRule(kind="constant_text", text=text, delay_ms=delay_ms)

    @staticmethod
    def fixed_threshold(value: float, delay_ms: float = 0.0) -> "MockRule":
        return MockRule(kind="fixed_threshold", value=value, delay_ms=delay_ms)

    @staticmethod
    def scripted(replies, delay_ms: float = 0.0) -> "MockRule":
        return MockRule(kind="scripted", replies=tuple(replies), delay_ms=delay_ms)

    @staticmethod
    def fail_after(n: int, delay_ms: float = 0.0) -> "MockRule":
        return MockRule(kind="fail_after", fail_after_n=n, delay_ms=delay_ms)


def prompt_argmax_bssid(prompt: str) -> str | None:
    """Strongest BSSID listed in the last scan row of a prompt.

    Ties break toward the lexicographically smallest BSSID, matching the
    candidate order the prompt renderer uses. Lines are read from the end,
    so only the last line that has pairs is parsed.
    """
    for line in reversed(prompt.splitlines()):
        pairs = [(m.group(1).upper(), float(m.group(2))) for m in _PAIR_RE.finditer(line)]
        if pairs:
            return min(pairs, key=lambda p: (-p[1], p[0]))[0]
    return None


class MockClient:
    """Deterministic in-process stand-in for a completion endpoint."""

    def __init__(self, rule: MockRule):
        self.rule = rule
        self.records: list[CompletionRecord] = []
        self._calls = 0
        self._lock = threading.Lock()

    def _reply_for(self, prompt: str, call_index: int) -> tuple[str, str]:
        rule = self.rule
        if rule.kind == "argmax_rssi":
            best = prompt_argmax_bssid(prompt)
            return (OUTCOME_OK, f"ANSWER: {best}") if best else (OUTCOME_TRANSPORT, "")
        if rule.kind == "constant_text":
            return OUTCOME_OK, rule.text or ""
        if rule.kind == "fixed_threshold":
            return OUTCOME_OK, f"ANSWER: {rule.value:g}"
        if rule.kind == "scripted":
            if call_index < len(rule.replies):
                return OUTCOME_OK, rule.replies[call_index]
            return OUTCOME_TRANSPORT, ""
        if rule.kind == "fail_after":
            if call_index < rule.fail_after_n:
                return OUTCOME_OK, "OK"
            return OUTCOME_TRANSPORT, ""
        raise ValueError(f"unknown mock rule: {rule.kind!r}")

    def complete(self, prompt: str) -> CompletionRecord:
        with self._lock:
            call_index = self._calls
            self._calls += 1
        start = time.perf_counter()
        if self.rule.delay_ms > 0:
            time.sleep(self.rule.delay_ms / 1000.0)
        outcome, reply = self._reply_for(prompt, call_index)
        latency = (time.perf_counter() - start) * 1000.0
        record = CompletionRecord(reply=reply, latency_ms=latency, attempts=1, outcome=outcome)
        with self._lock:
            self.records.append(record)
        return record


class HttpClient:
    """Chat-completions client; retries timeouts, transport errors, 5xx, 408 and 429.

    Posts on `conn`, the kept-alive connection its owner closes.
    """

    def __init__(self, cfg: EndpointConfig, conn: JsonConnection):
        self.cfg = cfg
        self.records: list[CompletionRecord] = []
        self._conn = conn
        self._lock = threading.Lock()

    def complete(self, prompt: str) -> CompletionRecord:
        cfg = self.cfg
        body = json.dumps({
            "model": cfg.model,
            "temperature": cfg.temperature,
            "max_tokens": cfg.max_tokens,
            "messages": [{"role": "user", "content": prompt}],
        }, allow_nan=False).encode()
        url = cfg.base_url.rstrip("/") + "/v1/chat/completions"
        outcome, status, reply, latency, attempts = post_json(
            self._conn, url, body, _extract_reply, cfg.timeout_ms, cfg.max_retries,
            cfg.backoff_ms,
        )
        record = CompletionRecord(
            reply=reply if outcome == OUTCOME_OK else "",
            latency_ms=latency,
            attempts=attempts,
            outcome=outcome,
            status=status,
        )
        with self._lock:
            self.records.append(record)
        return record


def _extract_reply(body) -> str:
    choices = body.get("choices") if isinstance(body, dict) else None
    if not isinstance(choices, list) or not choices or not isinstance(choices[0], dict):
        raise ValueError("no choices in reply")
    first = choices[0]
    message = first.get("message")
    if isinstance(message, dict) and isinstance(message.get("content"), str):
        return message["content"]
    if isinstance(first.get("text"), str):  # raw-completion fallback shape
        return first["text"]
    raise ValueError("no reply text in choices[0]")


# An idle socket the peer has closed reads as ready. poll, where the
# platform has it, has no limit on descriptor numbers, unlike select.
_Selector = getattr(selectors, "PollSelector", selectors.SelectSelector)
_JSON_HEADERS = {"Content-Type": "application/json"}


def _peer_closed(sock) -> bool:
    """True when an idle connection's socket is readable without blocking.

    A kept-alive connection has no reply pending, so a readable socket
    holds the peer's close (or bytes no request asked for): either way the
    connection cannot carry another request.
    """
    with _Selector() as sel:
        sel.register(sock, selectors.EVENT_READ)
        return bool(sel.select(0))


class JsonConnection:
    """One kept-alive HTTP/1.1 connection for JSON POSTs.

    The connection opens on first use and is replaced when a request goes
    to another scheme, host or port. Before an idle connection is reused,
    a zero-timeout readability check finds one the peer has closed, and
    the request goes out on a fresh connection instead. A request already
    sent is never sent again. Any error closes the connection, and so does
    a reply that ends it (http.client hands that socket to the reply,
    which closes it once read). One request at a time: concurrent callers
    wait their turn.
    """

    def __init__(self):
        self._conn: http.client.HTTPConnection | None = None
        self._origin: tuple[str, str, int] | None = None
        self._lock = threading.Lock()

    def post(self, url: str, body: bytes, timeout: float) -> tuple[int, bytes]:
        """POST `body` as JSON to `url`; return (status, reply body).

        Raises ValueError for a URL that is not http(s)://host[:port]...,
        TimeoutError when `timeout` seconds pass with no progress, and
        OSError or http.client.HTTPException for other failures.
        """
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"not an http(s) URL: {url!r}")
        https = parts.scheme == "https"
        origin = (parts.scheme, parts.hostname, parts.port or (443 if https else 80))
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        with self._lock:
            if origin != self._origin:
                self.close()
                cls = http.client.HTTPSConnection if https else http.client.HTTPConnection
                self._conn = cls(origin[1], origin[2], timeout=timeout)
                self._origin = origin
            conn = self._conn
            if conn.sock is not None and _peer_closed(conn.sock):
                conn.close()  # the request below opens a fresh one
            if conn.timeout != timeout:
                conn.timeout = timeout
                if conn.sock is not None:
                    conn.sock.settimeout(timeout)
            try:
                conn.request("POST", target, body, _JSON_HEADERS)
                resp = conn.getresponse()
                return resp.status, resp.read()
            except BaseException:
                conn.close()
                raise

    def close(self) -> None:
        """Close the connection; the next post opens a new one."""
        if self._conn is not None:
            self._conn.close()
        self._conn = self._origin = None


def post_json(
    conn: JsonConnection, url: str, body: bytes, read, timeout_ms: float,
    max_retries: int = 0, backoff_ms: float = 0.0,
) -> tuple[str, int | None, object, float, int]:
    """POST `body`, encoded JSON; return (outcome, status, read(reply), latency_ms, attempts).

    The same bytes go out on every attempt. Retries timeouts, transport
    errors (a bad URL, a dropped connection), replies `read` rejects with
    ValueError, 5xx, 408 and 429, up to `max_retries` times. The read value
    is None unless the outcome is ok.
    """
    outcome, status, value, latency = OUTCOME_TRANSPORT, None, None, 0.0
    attempts = 0
    for attempt in range(max_retries + 1):
        if attempt > 0:
            time.sleep(backoff_ms / 1000.0)
        attempts = attempt + 1
        start = time.perf_counter()
        try:
            code, data = conn.post(url, body, timeout_ms / 1000.0)
            latency = (time.perf_counter() - start) * 1000.0
            if not 200 <= code < 300:
                outcome, status = OUTCOME_HTTP, code
                if status < 500 and status not in (408, 429):
                    break  # any other client error fails the same way again
                continue
            value = read(json.loads(data))
            outcome, status = OUTCOME_OK, code
            break
        except TimeoutError:
            latency = (time.perf_counter() - start) * 1000.0
            outcome = OUTCOME_TIMEOUT
        except (OSError, http.client.HTTPException, ValueError):
            latency = (time.perf_counter() - start) * 1000.0
            outcome = OUTCOME_TRANSPORT
    return outcome, status, value, latency, attempts


# ---------------------------------------------------------------------------
# Latency metering

def latency_stats(records) -> dict:
    """A run's `latency` report block: nearest-rank statistics over the
    successful calls, with failures counted apart (statistics None when no
    call succeeded)."""
    ok = sorted(r.latency_ms for r in records if r.ok)
    n = len(ok)

    def rank(pct: int) -> float | None:
        return ok[max(1, -(-(pct * n) // 100)) - 1] if ok else None

    return {
        "count": n,
        "failures": sum(1 for r in records if not r.ok),
        "mean_ms": sum(ok) / n if ok else None,
        "p50_ms": rank(50),
        "p95_ms": rank(95),
        "max_ms": ok[-1] if ok else None,
    }
