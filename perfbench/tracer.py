"""Spans around the calls into each roamsim layer, taken from outside the package.

Each trace point wraps one public function at the call site its caller
uses (for example `roamsim.runner.parse_trace`, which is what
`run_experiment` calls, not `roamsim.trace.parse_trace`). A span records
its name, start, end and parent span; spans stay in memory until the
benchmark writes them out. A trace point whose function no longer exists is
reported as missing, so renaming a function cannot silently zero a layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import dataclass


def _text_mb(args, _result):
    data = args[0]
    return len(data) / 1e6 if isinstance(data, (bytes, str)) else None


def _file_mb(_args, path):
    return os.path.getsize(path) / 1e6


def _chars(_args, prompt):
    return len(prompt)


def _steps(_args, timeline):
    return len(timeline.steps)


def _record(_args, record):
    return {"attempts": record.attempts, "ok": record.ok}


def _fault(_args, decision):
    return decision.fault


# (module, class or None, attribute, span name, what to keep from the call)
TRACE_POINTS = (
    ("roamsim.runner", None, "run_experiment", "runner.run_experiment", None),
    ("roamsim.runner", None, "compare", "runner.compare", None),
    ("roamsim.runner", None, "parse_trace", "trace.parse_trace", _text_mb),
    ("roamsim.runner", None, "generate_synthetic", "trace.generate_synthetic", None),
    ("roamsim.runner", None, "trace_content_hash", "runner.trace_content_hash", None),
    ("roamsim.runner", None, "write_report", "runner.write_report", _file_mb),
    ("roamsim.runner", None, "run_policy", "roaming.run_policy", _steps),
    ("roamsim.runner", None, "oracle_opt_ho", "policies.oracle_opt_ho", None),
    ("roamsim.runner", None, "oracle_opt_rssi", "policies.oracle_opt_rssi", None),
    ("roamsim.agent", None, "build_prompt", "agent.build_prompt", _chars),
    ("roamsim.agent", None, "parse_ap_response", "agent.parse_ap_response", None),
    ("roamsim.agent", None, "parse_threshold_response", "agent.parse_threshold_response", None),
    ("roamsim.gateway", "MockClient", "complete", "gateway.MockClient.complete", _record),
    ("roamsim.gateway", "HttpClient", "complete", "gateway.HttpClient.complete", _record),
    ("roamsim.policies", "ExternalPolicy", "decide", "policies.ExternalPolicy.decide", _fault),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    data: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the trace points, records spans, and restores the originals."""

    def __init__(self, points=TRACE_POINTS):
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._wrappers = []
        for module_name, cls, attr, name, keep in points:
            owner = importlib.import_module(module_name)
            if cls is not None:
                owner = getattr(owner, cls, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.add(name)
                continue
            self._wrappers.append((owner, attr, original, self._wrap(original, name, keep)))

    def _wrap(self, original, name, keep):
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if keep is not None:
                span.data = keep(args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, _original, traced in self._wrappers:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _traced in self._wrappers:
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "data": s.data}) + "\n")


def self_seconds(spans: list[Span], first: int, name: str) -> float:
    """Summed duration of `name` spans minus the time their direct children cover.

    `first` is the index the iteration's spans start at in the tracer's list.
    """
    child_time = [0.0] * len(spans)
    for s in spans[first:]:
        if s.parent is not None and s.parent >= first:
            child_time[s.parent] += s.seconds
    return sum(s.seconds - child_time[first + i]
               for i, s in enumerate(spans[first:]) if s.name == name)
