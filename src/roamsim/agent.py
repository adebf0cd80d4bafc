"""Prompt construction, reply parsing, and the two agent decision paths.

Prompts are built from a context window: a task preamble (current
association and scan threshold), optional worked examples, the window
rendered one scan per line, and a closing instruction demanding exactly
one final line of the form "ANSWER: <BSSID>" (AP selection) or
"ANSWER: <dBm>" (threshold adjustment). Building is a pure function:
identical inputs yield byte-identical text.

Consecutive windows share all but one of their rows, so a run renders each
scan row once per window it enters: the caller passes one dict of rendered
rows, keyed by sample, through every call, and each call reuses the rows
already in it and leaves only its own window's rows behind.

Reply parsing is deliberately forgiving: the final ANSWER line wins, any
trailing match in free-form text is the fallback, and anything else is
unparseable. An unparseable, absent, or below-floor AP pick is recorded
as invalid and replaced by the legacy decision, so the agent always
yields a usable decision and every bad pick is attributable in the
error-rate metric.

The threshold task's scheduler returns the run's threshold-log entry
({"t", "value", "valid", "fault"}) when an adjustment is due; the runner
appends it and sets the scan threshold to its value.

Templates are override-able: a template file is plain text with
[section] headers for preamble.ap_select, preamble.threshold, shot, row,
and instruction.<task>.<style> blocks, each using the same named
placeholders as the defaults. Loading checks the placeholders of the
formatted blocks, so a bad one is a ConfigError, not a failed prompt.
"""

from __future__ import annotations

import logging
import random
import re
import string
from dataclasses import dataclass, replace
from datetime import datetime, timezone

from .errors import ConfigError
from .policies import legacy_decide
from .roaming import (
    AssociationState,
    PolicyDecision,
    rssi_of,
    should_scan,
)
from .trace import (
    RSSI_MAX_DBM,
    RSSI_MIN_DBM,
    ContextWindow,
    ScanSample,
    Trace,
    canonical_mac,
    window,
)

logger = logging.getLogger(__name__)

TASK_AP_SELECT = "ap_select"
TASK_THRESHOLD = "threshold"

STYLE_PLAIN = "plain"
STYLE_COT = "cot"

CONTEXT_FIELDS = ("location", "time", "battery")

_MAC_IN_TEXT_RE = re.compile(r"\b[0-9A-Fa-f]{2}(?::[0-9A-Fa-f]{2}){5}\b")
_ANSWER_LINE_RE = re.compile(r"^\s*answer\s*:\s*(.*)$", re.IGNORECASE)
_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?")


@dataclass(frozen=True)
class PromptConfig:
    """Knobs for prompt construction."""

    style: str = STYLE_COT
    shots: int = 0
    context_fields: frozenset[str] = frozenset({"location", "time"})
    window_k: int = 10
    task: str = TASK_AP_SELECT

    def __post_init__(self):
        if self.style not in (STYLE_PLAIN, STYLE_COT):
            raise ValueError(f"bad style {self.style!r}")
        if self.task not in (TASK_AP_SELECT, TASK_THRESHOLD):
            raise ValueError(f"bad task {self.task!r}")
        if self.shots < 0:
            raise ValueError("shots must be >= 0")
        if self.window_k < 1:
            raise ValueError("window_k must be >= 1")
        unknown = set(self.context_fields) - set(CONTEXT_FIELDS)
        if unknown:
            raise ValueError(f"unknown context fields: {sorted(unknown)}")


@dataclass(frozen=True)
class FewShotExample:
    """One worked example: a rendered window, optional reasoning, the answer."""

    window_text: str
    answer: str
    reasoning: str | None = None


DEFAULT_TEMPLATE: dict[str, str] = {
    "preamble.ap_select": (
        "You are a Wi-Fi roaming controller. From the scan log below, pick the\n"
        "best access point (BSSID) for the client to use next.\n"
        "Currently associated BSSID: {associated}\n"
        "Scan trigger threshold: {threshold} dBm\n"
    ),
    "preamble.threshold": (
        "You are a Wi-Fi roaming controller. From the scan log below, pick the\n"
        "RSSI threshold (in dBm, between -100 and 0) below which the client\n"
        "should start scanning for a better access point.\n"
        "Currently associated BSSID: {associated}\n"
        "Current threshold: {threshold} dBm\n"
    ),
    "shot": "Example {index}:\n{window}{reasoning}ANSWER: {answer}\n\n",
    "window.header": "Scan log, oldest first (signal levels in dBm):\n",
    "row": "t={t}{context} | aps: {aps}\n",
    "instruction.ap_select.plain": (
        "\nReply with exactly one line in this format:\nANSWER: <BSSID>\n"
    ),
    "instruction.ap_select.cot": (
        "\nThink step by step about signal trends, then end your reply with\n"
        "exactly one line in this format:\nANSWER: <BSSID>\n"
    ),
    "instruction.threshold.plain": (
        "\nReply with exactly one line in this format:\nANSWER: <threshold in dBm>\n"
    ),
    "instruction.threshold.cot": (
        "\nThink step by step about signal trends, then end your reply with\n"
        "exactly one line in this format:\nANSWER: <threshold in dBm>\n"
    ),
}


# The template blocks that are str.format()ted, with the fields each gets;
# window.header and instruction.* are emitted as they are.
_TEMPLATE_FIELDS = {
    "preamble.ap_select": {"associated", "threshold"},
    "preamble.threshold": {"associated", "threshold"},
    "shot": {"index", "window", "reasoning", "answer"},
    "row": {"t", "context", "aps"},
}


def _format_fields(text: str):
    """(field, conversion) of each replacement field, nested ones included."""
    for _, field, spec, conversion in string.Formatter().parse(text):
        if field is not None:
            yield field, conversion
            yield from _format_fields(spec or "")


def load_template(path) -> dict[str, str]:
    """Read a template override file: [section] headers, literal bodies."""
    sections = dict(DEFAULT_TEMPLATE)
    name = None
    body: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            stripped = line.strip()
            if stripped.startswith("[") and stripped.endswith("]"):
                if name is not None:
                    sections[name] = "".join(body)
                name, body = stripped[1:-1], []
            elif name is not None:
                body.append(line)
    if name is not None:
        sections[name] = "".join(body)
    for name, allowed in _TEMPLATE_FIELDS.items():
        try:
            bad = [f + (f"!{c}" if c else "") for f, c in _format_fields(sections[name])
                   if f not in allowed or c not in (None, "r", "s", "a")]
        except ValueError as exc:  # a lone brace
            raise ConfigError(f"template {path}: [{name}]: {exc}") from None
        if bad:
            raise ConfigError(f"template {path}: [{name}] names {{{bad[0]}}}, "
                              f"but its fields are {', '.join(sorted(allowed))}")
    return sections


def _render_row(sample: ScanSample, fields: frozenset[str], template: dict[str, str]) -> str:
    ctx = sample.context
    parts = []
    if "time" in fields:
        clock = datetime.fromtimestamp(ctx.timestamp, tz=timezone.utc).strftime("%H:%M:%S")
        parts.append(f" time={clock}")
    if "location" in fields and ctx.latitude is not None and ctx.longitude is not None:
        parts.append(f" lat={ctx.latitude!r} lon={ctx.longitude!r}")
    if "battery" in fields and ctx.battery_pct is not None:
        parts.append(f" battery={ctx.battery_pct:g}%")
    aps = " ".join([f"{b}={r!r}" for b, r in zip(sample.bssids, sample.rssis)])
    return template["row"].format(t=ctx.timestamp, context="".join(parts), aps=aps)


def render_window_block(
    window: ContextWindow,
    cfg: PromptConfig,
    template: dict[str, str] | None = None,
    rows: dict[ScanSample, str] | None = None,
) -> str:
    """The scan-log block of a prompt: header plus one row per sample.

    `rows` carries rendered rows from one call to the next, keyed by sample:
    a row already in it is reused, and afterwards it holds exactly this
    window's rows, so it never grows past the window. One dict serves one
    (cfg, template) pair, since the rows it holds were rendered under them.
    """
    tpl = template or DEFAULT_TEMPLATE
    fields = cfg.context_fields
    known = {} if rows is None else rows
    kept: dict[ScanSample, str] = {}
    text = []
    for s in window.samples:
        row = known.get(s)
        if row is None:
            row = _render_row(s, fields, tpl)
        kept[s] = row
        text.append(row)
    known.clear()
    known.update(kept)
    return tpl["window.header"] + "".join(text)


def build_prompt(
    window: ContextWindow,
    state: AssociationState,
    cfg: PromptConfig,
    shots: tuple[FewShotExample, ...] = (),
    template: dict[str, str] | None = None,
    rows: dict[ScanSample, str] | None = None,
) -> str:
    """Deterministic prompt text for one decision.

    The shot list length must equal cfg.shots; reasoning text is required
    on every shot in the cot style and forbidden in the plain style.
    `rows` is render_window_block's row dict; the text is the same with
    or without it.
    """
    if len(shots) != cfg.shots:
        raise ValueError(f"shot count mismatch: got {len(shots)}, config says {cfg.shots}")
    tpl = template or DEFAULT_TEMPLATE
    parts = [
        tpl[f"preamble.{cfg.task}"].format(
            associated=state.associated, threshold=f"{state.threshold:g}"
        )
    ]
    for i, shot in enumerate(shots, start=1):
        if cfg.style == STYLE_COT and not shot.reasoning:
            raise ValueError(f"cot shot {i} is missing its reasoning trace")
        if cfg.style == STYLE_PLAIN and shot.reasoning:
            raise ValueError(f"plain shot {i} must not carry reasoning")
        reasoning = f"Reasoning: {shot.reasoning}\n" if shot.reasoning else ""
        parts.append(
            tpl["shot"].format(index=i, window=shot.window_text, reasoning=reasoning,
                               answer=shot.answer)
        )
    parts.append(render_window_block(window, cfg, tpl, rows))
    parts.append(tpl[f"instruction.{cfg.task}.{cfg.style}"])
    return "".join(parts)


# ---------------------------------------------------------------------------
# Reply parsing

def parse_ap_response(raw: str) -> str | None:
    """BSSID named by the reply, canonicalized, or None when unparseable.

    The final ANSWER line wins; otherwise the last MAC mentioned anywhere.
    """
    if not raw:
        return None
    answer_lines = [m.group(1) for ln in raw.splitlines() if (m := _ANSWER_LINE_RE.match(ln))]
    if answer_lines:
        macs = _MAC_IN_TEXT_RE.findall(answer_lines[-1])
        if macs:
            return canonical_mac(macs[-1])
    macs = _MAC_IN_TEXT_RE.findall(raw)
    if macs:
        return canonical_mac(macs[-1])
    return None


def parse_threshold_response(raw: str) -> float | None:
    """Threshold named by the reply, clamped into [-100, 0] dBm.

    The final ANSWER line wins; otherwise the trailing number anywhere in
    the text. Returns None when no number can be found.
    """
    if not raw:
        return None
    answer_lines = [m.group(1) for ln in raw.splitlines() if (m := _ANSWER_LINE_RE.match(ln))]
    nums: list[str] = []
    if answer_lines:
        nums = _NUMBER_RE.findall(answer_lines[-1])
    if not nums:
        nums = _NUMBER_RE.findall(raw)
    if not nums:
        return None
    value = float(nums[-1])
    if not RSSI_MIN_DBM <= value <= RSSI_MAX_DBM:
        clamped = max(RSSI_MIN_DBM, min(RSSI_MAX_DBM, value))
        logger.warning("threshold reply %s clamped to %s", value, clamped)
        return clamped
    return value


# ---------------------------------------------------------------------------
# Decisions

def ap_select_decide(
    window: ContextWindow,
    state: AssociationState,
    cfg: PromptConfig,
    client,
    shots: tuple[FewShotExample, ...] = (),
    validity_floor: float | None = None,
    template: dict[str, str] | None = None,
    rows: dict[ScanSample, str] | None = None,
) -> PolicyDecision:
    """AP selection via the model, with legacy fallback on any bad pick.

    The model is consulted only when the scan trigger fires; other steps
    stay put without an inference call. Total by construction: transport
    failures, unparseable replies, and invalid picks all terminate in the
    legacy decision, marked invalid so they feed the error rate.
    """
    latest = window.latest
    if not should_scan(rssi_of(latest, state.associated), state.threshold):
        return PolicyDecision.stay("llm")
    prompt = build_prompt(window, state, cfg, shots, template, rows)
    record = client.complete(prompt)
    floor = state.threshold if validity_floor is None else validity_floor
    pick = parse_ap_response(record.reply) if record.ok else None
    if pick == state.associated and pick is not None:
        # remaining associated is not a roam attempt; no floor check applies
        return PolicyDecision.stay("llm")
    if pick in latest.bssids and rssi_of(latest, pick) >= floor:
        return PolicyDecision.roam(pick, "llm")
    fallback = legacy_decide(window, state)
    return replace(fallback, source="llm", valid=False, fault=not record.ok)


def threshold_schedule_step(
    now: int,
    last_adjust: int | None,
    interval: int,
    window: ContextWindow,
    state: AssociationState,
    cfg: PromptConfig,
    client,
    template: dict[str, str] | None = None,
    rows: dict[ScanSample, str] | None = None,
) -> dict | None:
    """One scheduler tick: the threshold-log entry when an adjustment is due.

    Fires on the first call and whenever `now - last_adjust >= interval`;
    between adjustments the run proceeds under the legacy rule at the
    current threshold. The entry is {"t", "value", "valid", "fault"},
    `value` being the threshold from then on. A failed or unparseable call
    keeps the current threshold and is flagged, so the run never stalls.
    """
    if interval < 1:
        raise ValueError("interval must be >= 1")
    if last_adjust is not None and now - last_adjust < interval:
        return None
    prompt = build_prompt(window, state, cfg, (), template, rows)
    record = client.complete(prompt)
    value = parse_threshold_response(record.reply) if record.ok else None
    return {
        "t": now,
        "value": state.threshold if value is None else value,
        "valid": value is not None,
        "fault": not record.ok,
    }


# ---------------------------------------------------------------------------
# Few-shot pool

def synthesize_reasoning(win: ContextWindow, current: str, gold: str) -> str:
    """Concise deterministic reasoning trace for a worked example."""
    latest = win.latest
    best, best_rssi = latest.bssids[0], latest.rssis[0]
    cur_rssi = rssi_of(latest, current)
    if gold == current:
        return (
            f"The current AP {current} is at {cur_rssi:g} dBm and no candidate "
            f"offers a clearly better link, so staying is best."
        )
    return (
        f"The current AP {current} is at {cur_rssi:g} dBm while {best} is "
        f"strongest at {best_rssi:g} dBm; {gold} offers the best link going forward."
    )


def build_shot_pool(
    trace: Trace,
    plan,
    cfg: PromptConfig,
    count: int,
    seed: int,
    template: dict[str, str] | None = None,
) -> tuple[FewShotExample, ...]:
    """Worked examples drawn from a labeled trace at seed-fixed steps.

    Gold actions come from the supplied plan; the caller is responsible
    for drawing `trace` from training data, never from the evaluated
    trace.
    """
    if cfg.task != TASK_AP_SELECT:
        raise ValueError("shot pools are built for the ap_select task")
    T = len(trace.samples)
    if count > T:
        raise ValueError(f"cannot draw {count} shots from a {T}-step trace")
    rng = random.Random(f"shots:{seed}")
    steps = sorted(rng.sample(range(T), count))
    shots = []
    for t in steps:
        win = window(trace, t, cfg.window_k)
        current = plan.plan[t - 1] if t > 0 else plan.plan[0]
        gold = plan.plan[t]
        reasoning = (
            synthesize_reasoning(win, current, gold) if cfg.style == STYLE_COT else None
        )
        shots.append(
            FewShotExample(
                window_text=render_window_block(win, cfg, template),
                answer=gold,
                reasoning=reasoning,
            )
        )
    return tuple(shots)
