"""Loopback stand-in for a completion endpoint and an external decision service.

Run as a script, it listens on 127.0.0.1 on a free port, prints the port on
one line of stdout and serves until its stdin closes. Routes:

* POST /v1/chat/completions - answers "ANSWER: <BSSID>" for the strongest
  AP of the last scan row in the prompt (ties to the smallest BSSID);
* POST /decide - the external-policy protocol: roam to the strongest AP of
  the last sample in the window, or stay when that AP is already associated;
* GET /stats - busy seconds and request counts per route.

It is one process that holds at most one connection per CPU it may run on
(`nproc`) at once, and closes a kept-alive connection after one idle second so a client that is
never closed cannot hold a slot. Each reply leaves in a single write with
Nagle's algorithm off: with Nagle on, the client's delayed ACK adds tens of
milliseconds per call on a kept-alive connection, which would time a kernel
timer rather than roamsim.
"""

from __future__ import annotations

import json
import os
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_PAIR_RE = re.compile(r"([0-9A-Fa-f]{2}(?::[0-9A-Fa-f]{2}){5})=(\S+)")


def _best(pairs) -> str:
    return min(pairs, key=lambda p: (-p[1], p[0]))[0]


def last_row_argmax(prompt: str) -> str | None:
    """Strongest BSSID among the MAC=rssi pairs on the last line that has any."""
    last: list[tuple[str, float]] = []
    for line in prompt.splitlines():
        pairs = [(mac.upper(), float(rssi)) for mac, rssi in _PAIR_RE.findall(line)]
        if pairs:
            last = pairs
    return _best(last) if last else None


def decide(request: dict) -> dict:
    """External-policy reply for one request body."""
    scan = request["window"][-1]["scan"]
    best = _best([(c["bssid"].upper(), float(c["rssi_dbm"])) for c in scan])
    if best == request["state"]["associated"]:
        return {"action": "stay"}
    return {"action": "roam", "bssid": best}


def chat_reply(request: dict) -> dict:
    best = last_row_argmax(request["messages"][-1]["content"])
    return {"choices": [{"message": {"role": "assistant", "content": f"ANSWER: {best}"}}]}


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _Handler)
        self._slots = threading.BoundedSemaphore(len(os.sched_getaffinity(0)))
        self._lock = threading.Lock()
        self.stats = {"chat_s": 0.0, "chat_calls": 0, "decide_s": 0.0, "decide_calls": 0}

    def process_request(self, request, client_address):
        self._slots.acquire()
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._slots.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()

    def add_busy(self, route: str, seconds: float) -> None:
        with self._lock:
            self.stats[f"{route}_s"] += seconds
            self.stats[f"{route}_calls"] += 1


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = 1.0

    def _send(self, status: int, obj) -> None:
        body = json.dumps(obj).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)

    def do_GET(self):
        if self.path != "/stats":
            self._send(404, {"error": "no such route"})
            return
        with self.server._lock:
            stats = dict(self.server.stats)
        self._send(200, stats)

    def do_POST(self):
        start = time.perf_counter()
        routes = {"/v1/chat/completions": ("chat", chat_reply), "/decide": ("decide", decide)}
        if self.path not in routes:
            self._send(404, {"error": "no such route"})
            return
        route, answer = routes[self.path]
        length = int(self.headers.get("Content-Length", 0))
        try:
            reply = answer(json.loads(self.rfile.read(length)))
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            self._send(400, {"error": repr(exc)})
            return
        self._send(200, reply)
        self.server.add_busy(route, time.perf_counter() - start)

    def log_message(self, format, *args):
        pass


def main() -> int:
    server = StubServer()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(server.server_address[1], flush=True)
    sys.stdin.read()  # returns when the parent closes our stdin
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    return 0


if __name__ == "__main__":
    sys.exit(main())
