"""The HTTP transport, a completion client over it, an in-process mock
model, and latency metering.

`post_json` is the one routine that speaks HTTP, for the completion client
and the external decision policy (policies.ExternalPolicy) alike: a POST of
a JSON body the caller has encoded once, on the caller's JsonConnection,
with the retry rule and the outcomes ok, timeout, transport_error and
http_error. Each attempt's `timeout_ms` bounds its whole exchange, from the
connect to the reply's last byte, so a peer that drips its reply still
times out. JsonConnection is one kept-alive HTTP/1.1 connection on its
own socket, standard library only: it writes each request in one send and
parses the reply itself, within http.client's limits, refusing what would
make the reply's end uncertain (see its docstring). `ssl` is imported only
for an https URL. Three edges differ from a general-purpose HTTP client,
and nothing here relies on them:

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

import json
import math
import re
import select
import socket
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple
from urllib.parse import urlsplit

from .errors import ConfigError, EndpointError

OUTCOME_OK = "ok"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_TRANSPORT = "transport_error"
OUTCOME_HTTP = "http_error"

WAIT_MAX_MS = 86_400_000  # one day: the longest wait a setting may ask for

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
        if not 0 < self.timeout_ms <= WAIT_MAX_MS:
            raise ConfigError(f"timeout_ms must be positive and at most {WAIT_MAX_MS} (one day)")
        if not 0 <= self.temperature < math.inf:
            raise ConfigError("temperature must be finite and >= 0")
        if isinstance(self.max_tokens, bool) or not 0 < self.max_tokens < math.inf:
            raise ConfigError("max_tokens must be positive and finite")
        if type(self.max_retries) is not int or self.max_retries < 0:
            raise ConfigError("max_retries must be an int >= 0")
        if not 0 <= self.backoff_ms <= WAIT_MAX_MS:
            raise ConfigError(f"backoff_ms must be between 0 and {WAIT_MAX_MS} (one day)")


class CompletionRecord(NamedTuple):
    """Outcome of one completion call."""

    reply: str
    latency_ms: float
    attempts: int
    outcome: str
    status: int | None = None

    @property
    def ok(self) -> bool:
        return self.outcome == OUTCOME_OK


def _finite_real(x) -> bool:
    """A number a float holds, not a bool; NaN and the infinities are not."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an int past the floats
        return False


# Each mock rule kind, and the field it cannot run without.
_MOCK_ARGUMENT = {"argmax_rssi": None, "constant_text": None, "fixed_threshold": "value",
                  "scripted": "replies", "fail_after": "fail_after_n"}


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
        if not 0 <= self.delay_ms <= WAIT_MAX_MS:
            raise ConfigError(f"delay_ms must be between 0 and {WAIT_MAX_MS} (one day)")
        if self.kind not in _MOCK_ARGUMENT:
            raise ConfigError(f"unknown mock rule: {self.kind!r}")
        argument = _MOCK_ARGUMENT[self.kind]
        if argument is not None and getattr(self, argument) is None:
            raise ConfigError(f"mock rule {self.kind} needs {argument}")
        replies = self.replies
        for name, ok, what in (
            ("text", self.text is None or isinstance(self.text, str), "a string"),
            ("value", self.value is None or _finite_real(self.value), "a finite number"),
            ("replies", replies is None or isinstance(replies, (tuple, list))
             and all(isinstance(r, str) for r in replies), "a list of strings"),
            ("fail_after_n", self.fail_after_n is None or type(self.fail_after_n) is int,
             "an int"),
        ):
            if not ok:
                raise ConfigError(f"mock rule {self.kind}: {name} must be {what}, "
                                  f"not {getattr(self, name)!r}")

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
    so only the last line that has pairs is parsed; a line without `=`
    holds no pair and is skipped unscanned.
    """
    for line in reversed(prompt.splitlines()):
        if "=" in line and (pairs := _PAIR_RE.findall(line)):
            return min([(-float(r), b.upper()) for b, r in pairs])[1]
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
        # fail_after, the last kind MockRule accepts
        if call_index < rule.fail_after_n:
            return OUTCOME_OK, "OK"
        return OUTCOME_TRANSPORT, ""

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


# http.client's limits on a reply head: the longest line, in bytes with its
# line break, and the most lines of a header section, its blank line included
# (so at most 99 header lines).
_MAX_LINE = 65536
_MAX_HEADERS = 100
_RECV_SIZE = 65536
# A URL with any of these could split the request line; http.client refuses
# them too (in the host and the path).
_URL_REFUSED = re.compile(r"[\x00-\x20\x7f]")
_CHUNK_SIZE = re.compile(rb"[0-9A-Fa-f]{1,16}")
_VERSION = re.compile(rb"HTTP/1\.[0-9]")
# A header line: a token, a colon, and a value holding no CR but its line break's.
_FIELD_LINE = re.compile(rb"([!#$%&'*+.^_`|~0-9A-Za-z-]+):[ \t]*([^\r\n]*)\r?\n")
_KEPT_FIELDS = (b"content-length", b"transfer-encoding", b"connection")  # all the reader uses


def check_url(url: str):
    """`url`'s urlsplit parts; ConfigError unless JsonConnection can send to it.

    A URL that can be sent to has no space or control character, an http or
    https scheme, a host, and a port that urlsplit can read.
    """
    if not isinstance(url, str):
        raise ConfigError(f"a URL must be a string, not {url!r}")
    bad = _URL_REFUSED.search(url)
    if bad:
        raise ConfigError(f"URL can't contain control characters: {url!r} "
                          f"(found {bad.group()!r})")
    try:
        parts = urlsplit(url)
        parts.port  # raises for a port that is not a number from 0 to 65535
    except ValueError as exc:
        raise ConfigError(f"bad URL {url!r}: {exc}") from None
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ConfigError(f"not an http(s) URL: {url!r}")
    return parts


class JsonConnection:
    """One kept-alive HTTP/1.1 connection for JSON POSTs, on its own socket.

    A request goes out in one write, head and body together. The reply is
    read through the connection's one buffer: a status line (1xx replies are
    skipped), at most _MAX_HEADERS header lines of at most _MAX_LINE bytes
    each, and a body framed by Content-Length, by chunked encoding (its
    trailer lines, of any number, discarded), or by the close of the
    connection. Where this reader returns, http.client reads the same status
    and body from the same bytes and makes the same keep-alive decision, but
    for an interim 1xx reply other than 100 Continue (http.client takes it
    for the final reply) and chunk data ended by a bare LF (http.client reads
    two bytes there). It is stricter than http.client on these replies,
    which raise ValueError (ConnectionError when cut off):

    * a status line whose version is not HTTP/1.x or whose status is not
      three digits from 100;
    * a head, or a chunked body's trailer, cut off before its blank line;
    * a header line that is not a token, a colon and a value holding no CR
      (a second status line, a folded line, a space before the colon);
    * a Content-Length whose first field is not digits alone, or a later
      field or list item that differs from it;
    * a Transfer-Encoding other than one chunked field, one beside a
      Content-Length, or one on a 204 or 304 reply;
    * a chunk size that is not 1 to 16 hex digits, or chunk data not
      followed by a line break.

    It also closes an HTTP/1.0 connection that only a Keep-Alive or
    Proxy-Connection header asks to keep. A URL `check_url` refuses is
    refused before anything is sent.

    The connection opens on first use and is replaced when a request goes
    to another scheme, host or port. It is kept after a reply when the
    reply's version and Connection header allow it, its body did not end
    with the connection, and no bytes follow it. Before an idle connection is reused, a
    zero-timeout poll (one poll object per socket) finds one the peer has
    closed, and the request goes out on a fresh connection instead. A
    request already sent is never sent again, and any error closes the
    connection. One request at a time: concurrent callers wait their turn.
    """

    def __init__(self):
        self._url: str | None = None
        self._origin: tuple[str, str, int] | None = None
        self._head = b""  # the request head up to the Content-Length value
        self._sock = None
        self._poll = None
        self._tls = None  # the ssl context, made on the first https connect
        self._buf = bytearray()  # the reply's bytes received so far
        self._pos = 0  # where the part of _buf not yet parsed starts
        self._deadline = 0.0  # time.monotonic() at which the current exchange times out
        self._lock = threading.Lock()

    def post(self, url: str, body: bytes, timeout: float) -> tuple[int, bytes]:
        """POST `body` as JSON to `url`; return (status, reply body).

        Raises ConfigError (a ValueError) for a URL `check_url` refuses,
        ValueError for a reply that breaks HTTP/1.1's framing, TimeoutError
        when the whole exchange (connect, send and reply) takes longer than
        `timeout` seconds, and OSError for other failures.
        """
        with self._lock:
            if url != self._url:
                self._target(url)
            try:
                return self._exchange(body, timeout)
            except BaseException:
                self.close()
                raise

    def _target(self, url: str) -> None:
        """Point the connection at `url`, closing one open to another origin."""
        parts = check_url(url)
        https = parts.scheme == "https"
        host = parts.hostname
        port = parts.port or (443 if https else 80)
        target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        try:
            host_header = host.encode("ascii")
        except UnicodeEncodeError:
            host_header = host.encode("idna")
        if ":" in host:  # an IPv6 address
            host_header = b"[" + host_header + b"]"
        if port != (443 if https else 80):
            host_header += b":%d" % port
        head = (b"POST " + target.encode("ascii") + b" HTTP/1.1\r\nHost: " + host_header
                + b"\r\nAccept-Encoding: identity\r\nContent-Type: application/json"
                b"\r\nContent-Length: ")
        origin = (parts.scheme, host, port)
        if origin != self._origin:
            self.close()
            self._origin = origin
        self._url, self._head = url, head

    def _exchange(self, body: bytes, timeout: float) -> tuple[int, bytes]:
        self._deadline = time.monotonic() + timeout
        sock = self._sock
        if sock is not None and self._peer_closed():
            self.close()  # the request below opens a fresh one
            sock = None
        if sock is None:
            sock = self._connect()
        sock.settimeout(self._time_left())
        sock.sendall(b"%s%d\r\n\r\n%s" % (self._head, len(body), body))
        status, data, keep = self._read_reply()
        if keep and self._pos == len(self._buf):
            del self._buf[:]
            self._pos = 0
        else:
            self.close()  # bytes after a reply leave the connection's state unknown
        return status, data

    def _peer_closed(self) -> bool:
        """True when the idle socket is readable without blocking.

        A kept-alive connection has no reply pending, so a readable socket
        holds the peer's close (or bytes no request asked for): either way
        the connection cannot carry another request.
        """
        if self._poll is not None:
            return bool(self._poll.poll(0))
        return bool(select.select([self._sock], [], [], 0)[0])

    def _time_left(self) -> float:
        """Seconds until the exchange's deadline; TimeoutError once it has passed."""
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("the exchange took longer than its timeout")
        return left

    def _connect(self):
        scheme, host, port = self._origin
        sock = socket.create_connection((host, port), self._time_left())
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if scheme == "https":
                if self._tls is None:
                    import ssl  # only https needs it, and it is slow to import

                    self._tls = ssl.create_default_context()
                sock.settimeout(self._time_left())  # the handshake's budget
                sock = self._tls.wrap_socket(sock, server_hostname=host)
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        if hasattr(select, "poll"):  # no limit on descriptor numbers, unlike select
            self._poll = select.poll()
            self._poll.register(sock, select.POLLIN)
        return sock

    def _read_reply(self) -> tuple[int, bytes, bool]:
        """Read one reply: (status, body, whether the connection may be kept)."""
        while True:
            line = self._readline()
            version, status = _status_line(line)
            fields = self._read_headers()
            if status >= 200:
                break
        # http.client's rule, on the first Connection field: HTTP/1.1 and later
        # 1.x keep the connection unless it says close; HTTP/1.0 closes it
        # unless it says keep-alive.
        said = fields.get(b"connection", [b""])[0].lower()
        keep = b"close" not in said if version != b"HTTP/1.0" else b"keep-alive" in said
        lengths = fields.get(b"content-length")
        codings = fields.get(b"transfer-encoding")
        if status in (204, 304):
            if codings is not None:
                raise ValueError(f"a {status} reply has Transfer-Encoding but no body")
            return status, b"", keep
        if codings is not None:
            if lengths is not None:
                raise ValueError("reply has both Content-Length and Transfer-Encoding")
            if [c.lower() for c in codings] != [b"chunked"]:
                raise ValueError(f"unsupported Transfer-Encoding {b', '.join(codings)!r}")
            return status, self._read_chunked(), keep
        if lengths is not None:
            n = lengths[0]  # what http.client reads; any other field or list item must agree
            if not n.isdigit() or {v.strip() for f in lengths for v in f.split(b",")} != {n}:
                raise ValueError(f"bad Content-Length {b', '.join(lengths)!r}")
            return status, self._read_exact(int(n)), keep
        while self._recv():  # delimited by the close of the connection
            pass
        return status, bytes(self._buf[self._pos:]), False

    def _read_headers(self) -> dict[bytes, list[bytes]]:
        """Read header lines to the blank line; keep the values of _KEPT_FIELDS."""
        fields: dict[bytes, list[bytes]] = {}
        for _ in range(_MAX_HEADERS):
            line = self._readline()
            if line in (b"\r\n", b"\n"):
                return fields
            field = _FIELD_LINE.fullmatch(line)
            if field is None:
                raise ValueError(f"malformed header line {line[:80]!r}")
            name = field[1].lower()
            if name in _KEPT_FIELDS:
                fields.setdefault(name, []).append(field[2])
        raise ValueError(f"got more than {_MAX_HEADERS} headers")

    def _read_chunked(self) -> bytes:
        parts = []
        while True:
            size = self._readline().split(b";", 1)[0].strip()
            if not _CHUNK_SIZE.fullmatch(size):
                raise ValueError(f"bad chunk size {size[:80]!r}")
            n = int(size, 16)
            if n == 0:  # then the trailer, discarded line by line as http.client does
                while self._readline() not in (b"\r\n", b"\n"):
                    pass
                return b"".join(parts)
            parts.append(self._read_exact(n))
            if self._readline() not in (b"\r\n", b"\n"):
                raise ValueError("chunk data longer than its size")

    def _readline(self) -> bytes:
        """The next line of the reply, with its line break."""
        buf, start = self._buf, self._pos
        while True:
            end = buf.find(b"\n", start, start + _MAX_LINE)
            if end >= 0:
                self._pos = end + 1
                return bytes(buf[start:end + 1])
            if len(buf) - start >= _MAX_LINE:
                raise ValueError(f"reply line longer than {_MAX_LINE} bytes")
            if not self._recv():
                raise ConnectionError("connection closed before the reply ended")

    def _read_exact(self, n: int) -> bytes:
        while len(self._buf) - self._pos < n:
            if not self._recv():
                raise ConnectionError("connection closed before the reply body ended")
        start = self._pos
        self._pos += n
        return bytes(self._buf[start:self._pos])

    def _recv(self) -> bool:
        """Append what the socket has to the buffer; False at its end."""
        self._sock.settimeout(self._time_left())
        data = self._sock.recv(_RECV_SIZE)
        self._buf += data
        return bool(data)

    def close(self) -> None:
        """Close the connection; the next post opens a new one."""
        if self._sock is not None:
            self._sock.close()
        self._sock = self._poll = None
        del self._buf[:]
        self._pos = 0


def _status_line(line: bytes) -> tuple[bytes, int]:
    """(version, status) of an HTTP/1.x status line; ValueError if it is not one."""
    parts = line.split(None, 2)
    if len(parts) < 2 or not _VERSION.fullmatch(parts[0]) or not (
        len(parts[1]) == 3 and parts[1].isdigit() and parts[1] >= b"100"
    ):
        raise ValueError(f"bad status line {line[:80]!r}")
    return parts[0], int(parts[1])


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
        except (OSError, ValueError):
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


def client_latency(client) -> dict:
    """`latency_stats` over a client's calls (none without a client); EndpointError when
    an HttpClient's calls all failed. A mock's failures are its rule: its run completes."""
    stats = latency_stats(client.records if client is not None else [])
    if isinstance(client, HttpClient) and stats["count"] == 0 and stats["failures"]:
        raise EndpointError("completion endpoint never answered")
    return stats
