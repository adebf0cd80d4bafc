"""Prompt construction, reply parsing, and the two agent decision paths.

Prompts are built from a context window, the tuple of the last k samples
that `trace.window` returns: a task preamble (current association and scan
threshold), optional worked examples, the window rendered one scan per
line, and a closing instruction demanding exactly one final line of the
form "ANSWER: <BSSID>" (AP selection) or "ANSWER: <dBm>" (threshold
adjustment). Building is a pure function: identical inputs yield
byte-identical text.

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

The threshold task's scheduler appends the run's threshold-log entry
({"t", "value", "valid", "fault"}) when an adjustment is due, and returns
the state to decide in, its scan threshold set to the entry's value.

Templates are override-able: a template file is plain text with
[section] headers for preamble.ap_select, preamble.threshold, shot, row,
and instruction.<task>.<style> blocks, each using the same named
placeholders as the defaults. Loading checks each field of the
formatted blocks in one pass: its name, its conversion, a format spec
that holds no field and no width or precision above TEMPLATE_WIDTH_MAX,
and the spec against a sample of the field's rendered type, so a bad one
is a ConfigError, not a failed (or huge) prompt.
"""

from __future__ import annotations

import logging
import random
import re
import string
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigError
from .policies import legacy_decide
from .roaming import (
    AssociationState,
    PolicyDecision,
    rssi_of,
    should_scan,
)
from .trace import (
    RSSI_MAX_DBM, RSSI_MIN_DBM, T_MAX, ScanSample, Trace, canonical_mac, render_window, strongest,
    window,
)

logger = logging.getLogger(__name__)

TASK_AP_SELECT = "ap_select"
TASK_THRESHOLD = "threshold"

STYLE_PLAIN = "plain"
STYLE_COT = "cot"

CONTEXT_FIELDS = ("location", "time", "battery")

# MACs in the forms canonical_mac accepts; numbers in the forms repr and :g write
_MAC_IN_TEXT_RE = re.compile(r"\b[0-9A-Fa-f]{2}(?:[:-][0-9A-Fa-f]{2}){5}\b")
_ANSWER_LINE_RE = re.compile(r"^\s*answer\s*:\s*(.*)$", re.IGNORECASE)
_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")

# The largest width or precision a template's format spec may give a field.
TEMPLATE_WIDTH_MAX = 1000


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
            raise ConfigError(f"bad style {self.style!r}")
        if self.task not in (TASK_AP_SELECT, TASK_THRESHOLD):
            raise ConfigError(f"bad task {self.task!r}")
        if self.shots < 0:
            raise ConfigError("shots must be >= 0")
        if self.window_k < 1:
            raise ConfigError("window_k must be >= 1")
        unknown = set(self.context_fields) - set(CONTEXT_FIELDS)
        if unknown:
            raise ConfigError(f"unknown context fields: {sorted(unknown)}")


class FewShotExample(NamedTuple):
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


def load_template(path) -> dict[str, str]:
    """Read a template override file: [section] headers, literal bodies."""
    sections = dict(DEFAULT_TEMPLATE)
    name = None
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"template {path}: {exc}") from None
    for line in lines:
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1]
            if name not in DEFAULT_TEMPLATE:
                raise ConfigError(f"template {path}: unknown block [{name}]")
            sections[name] = ""
        elif name is not None:
            sections[name] += line
    for name, allowed in _TEMPLATE_FIELDS.items():
        try:
            fields = [(f, c, spec) for _, f, spec, c in string.Formatter().parse(sections[name])
                      if f is not None]
        except ValueError as exc:  # a lone brace
            raise ConfigError(f"template {path}: [{name}]: {exc}") from None
        # typed as rendered, the ints at the largest timestamp a trace holds
        samples = {f: T_MAX if f in ("t", "index") else "" for f in allowed}
        for f, c, spec in fields:
            named = f + (f"!{c}" if c else "")
            if f not in allowed or c not in (None, "r", "s", "a"):
                raise ConfigError(f"template {path}: [{name}] names {{{named}}}, "
                                  f"but its fields are {', '.join(sorted(allowed))}")
            field = f"{{{named}:{spec}}}"
            try:
                if "{" in spec:  # a nested field, whose value only a run would give
                    raise ValueError("a format spec cannot hold a field")
                # Each digit run in a spec is its width, its precision or a
                # one-digit fill, so this bounds both before any is allocated.
                if any(int(n) > TEMPLATE_WIDTH_MAX for n in re.findall(r"\d+", spec)):
                    raise ValueError(f"a width or precision above {TEMPLATE_WIDTH_MAX}")
                field.format(**samples)
            except (ValueError, OverflowError) as exc:  # such as {aps:d}, or {t:c} past U+10FFFF
                raise ConfigError(f"template {path}: [{name}] {field}: {exc}") from None
    return sections


def _render_row(sample: ScanSample, fields: frozenset[str], template: dict[str, str]) -> str:
    parts = []
    if "time" in fields:  # the UTC clock, HH:MM:SS
        minutes, s = divmod(sample.timestamp % 86400, 60)
        h, m = divmod(minutes, 60)
        parts.append(f" time={h:02d}:{m:02d}:{s:02d}")
    if "location" in fields and sample.latitude is not None and sample.longitude is not None:
        parts.append(f" lat={sample.latitude!r} lon={sample.longitude!r}")
    if "battery" in fields and sample.battery_pct is not None:
        parts.append(f" battery={sample.battery_pct:g}%")
    aps = " ".join([f"{b}={r!r}" for b, r in zip(sample.bssids, sample.rssis)])
    return template["row"].format(t=sample.timestamp, context="".join(parts), aps=aps)


def render_window_block(
    window: tuple[ScanSample, ...],
    cfg: PromptConfig,
    template: dict[str, str] | None = None,
    rows: dict[ScanSample, str] | None = None,
) -> str:
    """The scan-log block of a prompt: header plus one row per sample.

    `rows` is `trace.render_window`'s memo, carrying rendered rows from one
    call to the next. One dict serves one (cfg, template) pair, since the
    rows it holds were rendered under them.
    """
    tpl = template or DEFAULT_TEMPLATE
    fields = cfg.context_fields
    text = render_window(
        window, lambda s: _render_row(s, fields, tpl), {} if rows is None else rows
    )
    return tpl["window.header"] + "".join(text)


def build_prompt(
    window: tuple[ScanSample, ...],
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

def _final_answer(raw: str, pattern: re.Pattern) -> str | None:
    """Last `pattern` match in the final ANSWER line, else the last anywhere, else None."""
    if not raw:
        return None
    answers = [m.group(1) for ln in raw.splitlines() if (m := _ANSWER_LINE_RE.match(ln))]
    found = (answers and pattern.findall(answers[-1])) or pattern.findall(raw)
    return found[-1] if found else None


def parse_ap_response(raw: str) -> str | None:
    """BSSID named by the reply, canonicalized, or None when unparseable.

    The final ANSWER line wins; otherwise the last MAC mentioned anywhere.
    """
    mac = _final_answer(raw, _MAC_IN_TEXT_RE)
    return None if mac is None else canonical_mac(mac)


def parse_threshold_response(raw: str) -> float | None:
    """Threshold named by the reply, clamped into [-100, 0] dBm.

    The final ANSWER line wins; otherwise the trailing number anywhere in
    the text. Digits inside a MAC address are not a number. Returns None
    when no number can be found.
    """
    num = _final_answer(_MAC_IN_TEXT_RE.sub(" ", raw or ""), _NUMBER_RE)
    if num is None:
        return None
    value = float(num)
    if not RSSI_MIN_DBM <= value <= RSSI_MAX_DBM:
        clamped = max(RSSI_MIN_DBM, min(RSSI_MAX_DBM, value))
        logger.warning("threshold reply %s clamped to %s", value, clamped)
        return clamped
    return value


# ---------------------------------------------------------------------------
# Decisions

def ap_select_decide(
    window: tuple[ScanSample, ...],
    state: AssociationState,
    cfg: PromptConfig,
    client,
    validity_floor: float,
    shots: tuple[FewShotExample, ...] = (),
    template: dict[str, str] | None = None,
    rows: dict[ScanSample, str] | None = None,
) -> PolicyDecision:
    """AP selection via the model, with legacy fallback on any bad pick.

    The model is consulted only when the scan trigger fires; other steps
    stay put without an inference call. Total by construction: transport
    failures, unparseable replies, and invalid picks all terminate in the
    legacy decision, marked invalid so they feed the error rate.
    """
    latest = window[-1]
    if not should_scan(rssi_of(latest, state.associated), state.threshold):
        return PolicyDecision.stay("llm")
    prompt = build_prompt(window, state, cfg, shots, template, rows)
    record = client.complete(prompt)
    pick = parse_ap_response(record.reply) if record.ok else None
    if pick == state.associated and pick is not None:
        # remaining associated is not a roam attempt; no floor check applies
        return PolicyDecision.stay("llm")
    if pick in latest.bssids and rssi_of(latest, pick) >= validity_floor:
        return PolicyDecision.roam(pick, "llm")
    fallback = legacy_decide(window, state)
    return fallback._replace(source="llm", valid=False, fault=not record.ok)


def threshold_schedule_step(
    log: list[dict],
    interval: int,
    window: tuple[ScanSample, ...],
    state: AssociationState,
    cfg: PromptConfig,
    client,
    template: dict[str, str] | None = None,
    rows: dict[ScanSample, str] | None = None,
) -> AssociationState:
    """One scheduler tick: the state to decide in, adjusted when an adjustment is due.

    Fires when `log` is empty and whenever `now - log[-1]["t"] >= interval`,
    `now` being the timestamp of `window[-1]`; between adjustments the run
    proceeds under the legacy rule at the current threshold. Firing appends
    {"t", "value", "valid", "fault"} to `log`, `value` being the threshold
    from then on. A failed or unparseable call keeps the current threshold
    and is flagged, so the run never stalls.
    """
    if interval < 1:
        raise ValueError("interval must be >= 1")
    now = window[-1].timestamp
    if log and now - log[-1]["t"] < interval:
        return state
    prompt = build_prompt(window, state, cfg, (), template, rows)
    record = client.complete(prompt)
    value = parse_threshold_response(record.reply) if record.ok else None
    log.append({"t": now, "value": state.threshold if value is None else value,
                "valid": value is not None, "fault": not record.ok})
    return state._replace(threshold=log[-1]["value"])


# ---------------------------------------------------------------------------
# Few-shot pool

def synthesize_reasoning(win: tuple[ScanSample, ...], current: str, gold: str) -> str:
    """Concise deterministic reasoning trace for a worked example."""
    latest = win[-1]
    best, best_rssi = strongest(latest)
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
    seed: int,
    template: dict[str, str] | None = None,
) -> tuple[FewShotExample, ...]:
    """The cfg.shots worked examples, drawn from a labeled trace at seed-fixed steps.

    Gold actions come from the supplied plan; the caller is responsible
    for drawing `trace` from training data, never from the evaluated
    trace.
    """
    if cfg.task != TASK_AP_SELECT:
        raise ConfigError("shot pools are built for the ap_select task")
    T, count = len(trace.samples), cfg.shots
    if count > T:
        raise ConfigError(f"cannot draw {count} shots from a {T}-step trace")
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
