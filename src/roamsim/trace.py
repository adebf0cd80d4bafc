"""Trace data model: scan samples, parsing, windowing, synthesis.

A trace is an ordered sequence of scan samples. Each sample is one flat
record: its timestamp, the observed APs as two parallel columns, `bssids`
and `rssis`, the recorded association if any, and the device context the
prompts can show (optional latitude, longitude and battery, and the
activity mode that picks the hysteresis margin). Scans are
normalized on ingest: MAC addresses canonicalized to uppercase colon-hex
and the columns sorted by descending RSSI (ties by BSSID), so downstream
argmax/tie-break logic is order-independent. The hot paths read the
columns; `ScanSample.candidates` is the cold-path view, one `ApObservation`
per AP, built on each read. A decision's context window is a plain slice of
`Trace.samples`, oldest first (see `window`).

Two on-disk formats are supported:

* JSONL, one sample per line:
  {"t": <int>, "scan": [{"bssid": "<MAC>", "rssi_dbm": <num>}, ...],
   "assoc": "<MAC>"?, "lat": <num>?, "lon": <num>?,
   "battery_pct": <num>?, "activity": "active"|"idle"?}
* CSV, long format with one row per (t, AP):
  t,bssid,rssi_dbm,lat,lon,battery_pct,activity

Numbers are JSON numbers in both: a JSONL value must be an int or float
(null is absent), and a CSV number cell is read as json.loads reads it
(empty is absent). Every row of a CSV step gives the step's one context.

Bytes and binary files are read a line at a time (see `_text_lines`); a
text stream is read whole. A line ends at any break str.splitlines knows:
`\n`, `\r`, `\r\n`, `\u2028`, `\x85`, a form feed and the rest. A decode
error in bytes names the line after the `\n`s that come before it.

`parse_trace` is the one statement of the trace rules: a trace in memory
is valid exactly when `parse_trace(trace_to_jsonl(trace))` gives it back.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from math import cos, log, sin, sqrt, tau
from typing import NamedTuple

from .errors import ConfigError, TraceFormatError

RSSI_MIN_DBM = -100.0
RSSI_MAX_DBM = 0.0

# The timestamps a trace may hold, in Unix seconds: the years 1 to 9999, UTC.
T_MIN = -62135596800
T_MAX = 253402300799

_MAC_RE = re.compile(r"[0-9A-Fa-f]{2}([:-][0-9A-Fa-f]{2}){5}")

ACTIVITY_ACTIVE = "active"
ACTIVITY_IDLE = "idle"
_ACTIVITIES = (ACTIVITY_ACTIVE, ACTIVITY_IDLE)
SYNTH_MAX_APS = 1 << 16  # synth_bssid names an AP from the low 16 bits of index + 1


def canonical_mac(raw: str) -> str:
    """Canonicalize a MAC address to uppercase colon-separated hex.

    Accepts ':' or '-' separators; raises ValueError on anything else.
    """
    if not isinstance(raw, str) or not _MAC_RE.fullmatch(raw):
        raise ValueError(f"not a MAC address: {raw!r}")
    return raw.replace("-", ":").upper()


class ApObservation(NamedTuple):
    """One (BSSID, RSSI) pair from a scan, as `ScanSample.candidates` gives it."""

    bssid: str
    rssi: float


@dataclass(frozen=True)
class ScanSample:
    """One timestamped scan with its device context, in one record.

    `bssids[i]` was seen at `rssis[i]` dBm. Samples from `parse_trace` and
    `generate_synthetic` hold them in canonical order: descending RSSI,
    ties by BSSID. A trace holds one entry per AP per step, and two tuples
    per step cost less to build and keep than one record per entry.

    A sample hashes by its timestamp alone. Equal samples have equal
    timestamps, so the hash agrees with equality, which still compares
    every field; the row memos keyed by sample (see `render_window`) hash
    one integer per lookup, not both columns.
    """

    timestamp: int
    bssids: tuple[str, ...]
    rssis: tuple[float, ...]
    associated: str | None = None
    latitude: float | None = None
    longitude: float | None = None
    battery_pct: float | None = None
    activity: str = ACTIVITY_ACTIVE

    def __hash__(self) -> int:
        return hash(self.timestamp)

    @property
    def candidates(self) -> tuple[ApObservation, ...]:
        """The scan as records, in column order; built anew on each read."""
        return tuple(map(ApObservation, self.bssids, self.rssis))


@dataclass(frozen=True)
class Trace:
    """An ordered sequence of scan samples."""

    samples: tuple[ScanSample, ...]

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class SynthConfig:
    """Parameters for the synthetic trace generator.

    Each AP gets an independent Gaussian random walk clipped to
    [floor_dbm, ceil_dbm], which must lie in [-100, 0] dBm. base_dbm is
    broadcast when a single number is given, or taken per AP when a
    sequence is given.
    """

    num_aps: int = 4
    duration: int = 300
    base_dbm: float | tuple[float, ...] = -60.0
    step_stddev: float = 1.0
    floor_dbm: float = -95.0
    ceil_dbm: float = -30.0
    emit_location: bool = False
    battery_drain_pct_per_step: float | None = None
    activity: str = ACTIVITY_ACTIVE
    sample_interval: int = 1
    seed: int = 0


def ranked(sample: ScanSample) -> list[ApObservation]:
    """The sample's APs under the canonical order (descending RSSI, ties by
    BSSID), whatever its column order."""
    return [ApObservation(*ap) for ap in
            sorted(zip(sample.bssids, sample.rssis), key=lambda ap: (-ap[1], ap[0]))]


def strongest(sample: ScanSample) -> ApObservation:
    """`ranked(sample)[0]`, found without sorting."""
    rssis = sample.rssis
    top = max(rssis)
    if rssis.count(top) == 1:
        i = rssis.index(top)
    else:  # a tie on RSSI goes to the smallest BSSID
        i = min((b, i) for i, (b, r) in enumerate(zip(sample.bssids, rssis)) if r == top)[1]
    return ApObservation(sample.bssids[i], rssis[i])


# ---------------------------------------------------------------------------
# Parsing

def parse_trace(data, fmt: str = "jsonl") -> Trace:
    """Parse a trace from bytes, text, or an open binary or text file.

    Both formats are read one line at a time, through `_text_lines`.
    Raises TraceFormatError (with a 1-based line number where possible) on
    malformed lines, duplicate BSSIDs within a sample, non-monotone
    timestamps, out-of-range RSSI, a CSV step whose rows give two device
    contexts, or empty input.
    """
    parse = {"jsonl": _parse_jsonl, "csv": _parse_csv}.get(fmt)
    if parse is None:
        raise ConfigError(f"unknown trace format: {fmt!r}")
    samples = parse(_text_lines(data))
    if not samples:
        raise TraceFormatError("empty trace")
    return Trace(samples=tuple(samples))


def _not_utf8(exc: UnicodeDecodeError, line: int | None = None) -> TraceFormatError:
    return TraceFormatError(f"malformed line: not UTF-8 ({exc.reason})", line)


def _text_lines(data):
    """(line number, line) for each line of the input.

    Bytes and binary files are cut after each `\n`, and each piece is decoded
    and split by str.splitlines on its own. Every piece but the last ends in
    `\n`, which ends a line and is part of no multi-byte UTF-8 character, so
    the lines and their numbers are those of splitlines over the whole
    decoded text, and a decode error names the line after the `\n`s before
    it. A text stream is read whole, so its decode errors name no line.
    """
    if isinstance(data, bytes):
        data = io.BytesIO(data)
    elif isinstance(data, io.TextIOBase):
        try:
            data = data.read()
        except UnicodeDecodeError as exc:
            raise _not_utf8(exc) from None
    if isinstance(data, str):  # already text: one piece
        data = (data,)
    line_no = 0
    for n, piece in enumerate(data, start=1):
        if isinstance(piece, bytes):
            try:
                piece = piece.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise _not_utf8(exc, n) from None
        for line in piece.splitlines():
            line_no += 1
            yield line_no, line


def _check_float(
    value, line: int, name: str = "rssi", lo: float = RSSI_MIN_DBM, hi: float = RSSI_MAX_DBM
) -> float:
    try:
        if type(value) not in (int, float):  # a JSON number: not true/false, not a string
            raise TypeError
        out = float(value)
    except (TypeError, OverflowError):
        raise TraceFormatError(f"malformed line: bad {name} {value!r}", line) from None
    if not lo <= out <= hi:
        raise TraceFormatError(f"{name} out of range: {out}", line)
    return out


def _check_timestamp(value, line: int) -> int:
    try:
        if type(value) not in (int, float) or float(value) != int(float(value)):
            raise ValueError
        t = int(float(value))
    except (ValueError, OverflowError):  # OverflowError: inf, or an int beyond floats
        raise TraceFormatError(f"malformed line: bad timestamp {value!r}", line) from None
    if not T_MIN <= t <= T_MAX:
        raise TraceFormatError(f"timestamp out of range: {t}", line)
    return t


def _check_mac(value, line: int) -> str:
    try:
        return canonical_mac(value)
    except ValueError as exc:
        raise TraceFormatError(f"malformed line: {exc}", line) from None


def _opt_float(value, line: int, name: str, lo: float, hi: float) -> float | None:
    return None if value is None else _check_float(value, line, name, lo, hi)


def _check_activity(value, line: int) -> str:
    if value is None:
        return ACTIVITY_ACTIVE
    if value not in _ACTIVITIES:
        raise TraceFormatError(f"malformed line: bad activity {value!r}", line)
    return value


def _context(lat, lon, battery_pct, activity, line: int) -> tuple:
    """The checked device context (latitude, longitude, battery_pct, activity)."""
    return (
        _opt_float(lat, line, "latitude", -90.0, 90.0),
        _opt_float(lon, line, "longitude", -180.0, 180.0),
        _opt_float(battery_pct, line, "battery_pct", 0.0, 100.0),
        _check_activity(activity, line),
    )


def _csv_cell(row: dict, key: str):
    """A CSV number cell as json.loads reads it: None when empty or missing,
    the text itself when it is no JSON value, which the number checks refuse."""
    text = row.get(key)
    if not text:
        return None
    try:
        return json.loads(text)
    except (ValueError, RecursionError):
        return text


def _csv_context(row: dict, line: int) -> tuple:
    """`_context` of a CSV row; an empty activity cell is absent, like an empty number."""
    return _context(_csv_cell(row, "lat"), _csv_cell(row, "lon"),
                    _csv_cell(row, "battery_pct"), row.get("activity") or None, line)


def _scan_columns(entries: list[tuple[float, str, float]], line: int):
    """(bssids, rssis) of one scan from its `entries`, each (-rssi, bssid, rssi), in file order."""
    if not entries:
        raise TraceFormatError("malformed line: empty scan", line)
    # Sorted, the entries are in canonical order; with distinct BSSIDs the
    # stored rssi never breaks a tie.
    _, bssids, rssis = zip(*sorted(entries))
    if len(set(bssids)) < len(bssids):
        seen: set[str] = set()
        for _, mac, _ in entries:  # in file order, so the first repeat is named
            if mac in seen:
                raise TraceFormatError(f"duplicate bssid {mac}", line)
            seen.add(mac)
    return bssids, rssis


def _parse_jsonl(lines) -> list[ScanSample]:
    samples: list[ScanSample] = []
    macs: dict[str, str] = {}  # raw BSSID string -> canonical form, for this parse
    for line_no, line in lines:
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"malformed line: {exc.msg}", line_no) from None
        except (ValueError, RecursionError) as exc:  # an int past the digit limit; deep nesting
            raise TraceFormatError(f"malformed line: {exc}", line_no) from None
        if not isinstance(rec, dict) or "t" not in rec or "scan" not in rec:
            raise TraceFormatError("malformed line: expected object with t and scan", line_no)
        t = _check_timestamp(rec["t"], line_no)
        if samples and t <= samples[-1].timestamp:
            raise TraceFormatError("non-monotone timestamps", line_no)
        scan = rec["scan"]
        if not isinstance(scan, list):
            raise TraceFormatError("malformed line: scan must be a list", line_no)
        entries = []
        for entry in scan:
            try:
                raw, rssi = entry["bssid"], entry["rssi_dbm"]
            except (KeyError, TypeError):  # not an object, or a key missing
                raise TraceFormatError(
                    "malformed line: scan entry needs bssid and rssi_dbm", line_no
                ) from None
            mac = macs.get(raw) if isinstance(raw, str) else None
            if mac is None:
                mac = macs[raw] = _check_mac(raw, line_no)
            if type(rssi) is not float or not RSSI_MIN_DBM <= rssi <= RSSI_MAX_DBM:
                rssi = _check_float(rssi, line_no)
            entries.append((-rssi, mac, rssi))
        assoc = rec.get("assoc")
        if assoc is not None:
            assoc = _check_mac(assoc, line_no)
        bssids, rssis = _scan_columns(entries, line_no)
        context = _context(rec.get("lat"), rec.get("lon"), rec.get("battery_pct"),
                           rec.get("activity"), line_no)
        samples.append(ScanSample(t, bssids, rssis, assoc, *context))
    return samples


def _parse_csv(lines) -> list[ScanSample]:
    last = 1  # the line csv read last, which is the one a csv.Error is about

    def fed():
        nonlocal last
        for last, line in lines:
            yield line + "\n"  # so a quoted field keeps its line break

    reader = csv.DictReader(fed())

    def checked():  # (t, line, row, scan entry) for each row
        for row in reader:
            t = _check_timestamp(_csv_cell(row, "t"), last)
            mac = _check_mac(row.get("bssid") or "", last)
            rssi = _check_float(_csv_cell(row, "rssi_dbm"), last)
            yield t, last, row, (-rssi, mac, rssi)

    samples: list[ScanSample] = []
    try:
        if reader.fieldnames is None:
            return []
        missing = {"t", "bssid", "rssi_dbm"} - set(reader.fieldnames)
        if missing:
            raise TraceFormatError(f"missing csv columns: {sorted(missing)}", 1)
        # groupby checks the next step's first row before this step is built
        for t, group in itertools.groupby(checked(), key=lambda r: r[0]):
            rows = list(group)
            line = rows[0][1]
            if samples and t <= samples[-1].timestamp:
                raise TraceFormatError("non-monotone timestamps", line)
            bssids, rssis = _scan_columns([r[3] for r in rows], line)
            context = _csv_context(rows[0][2], line)
            for _, row_line, row, _ in rows[1:]:  # one context per step
                if _csv_context(row, row_line) != context:
                    raise TraceFormatError("device context differs from the step's first row",
                                           row_line)
            samples.append(ScanSample(t, bssids, rssis, None, *context))
    except csv.Error as exc:
        raise TraceFormatError(f"malformed line: {exc}", last) from None
    return samples


# ---------------------------------------------------------------------------
# Serialization

def trace_to_jsonl(trace: Trace) -> str:
    """Canonical JSONL: one `jsonl_line` per sample."""
    return "".join(map(jsonl_line, trace.samples))


def jsonl_line(sample: ScanSample) -> str:
    """One sample's line of canonical JSONL, with its newline.

    The line is byte for byte what json.dumps writes for the object with
    keys t, scan (bssid and rssi_dbm per entry), then assoc, lat, lon and
    battery_pct where set, then activity, so the external policy's request
    body embeds it as is. It is written directly rather than through a
    dict and json.dumps, because the content hash serializes every trace on
    every run. json.dumps writes ints and finite floats with repr, strings
    with encode_basestring_ascii, and ", " / ": " separators; this does the
    same. Every trace parse_trace or generate_synthetic returns holds only
    finite floats, which is what makes the two agree (json.dumps would
    write NaN where repr writes nan).
    """
    scan = ", ".join(
        [
            f'{{"bssid": {_json_str(b)}, "rssi_dbm": {r!r}}}'
            for b, r in zip(sample.bssids, sample.rssis)
        ]
    )
    fields = [f'{{"t": {sample.timestamp!r}, "scan": [{scan}]']
    if sample.associated is not None:
        fields.append(f'"assoc": {_json_str(sample.associated)}')
    if sample.latitude is not None:
        fields.append(f'"lat": {sample.latitude!r}')
    if sample.longitude is not None:
        fields.append(f'"lon": {sample.longitude!r}')
    if sample.battery_pct is not None:
        fields.append(f'"battery_pct": {sample.battery_pct!r}')
    fields.append(f'"activity": {_json_str(sample.activity)}}}\n')
    return ", ".join(fields)


# ---------------------------------------------------------------------------
# Windowing and synthesis

def window(trace: Trace, t: int, k: int) -> tuple[ScanSample, ...]:
    """The context window at step t: samples max(0, t-k+1)..t inclusive, a
    slice of the trace's own tuple, so `window[-1]` is the decision step."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 <= t < len(trace.samples):
        raise ValueError(f"step {t} out of range for trace of length {len(trace.samples)}")
    return trace.samples[max(0, t - k + 1): t + 1]


def render_window(window: tuple[ScanSample, ...], render, memo: dict) -> list[str]:
    """Each sample's text, in window order: the one `memo` holds, else `render(sample)`.

    Consecutive windows share all but one sample, so one `memo` passed
    through every call renders each sample once per window it enters. After
    the call it holds exactly this window's texts, keyed by sample. A list,
    not the memo's values: a window can hold equal samples.
    """
    texts = [render(s) if (text := memo.get(s)) is None else text for s in window]
    memo.clear()
    memo.update(zip(window, texts))
    return texts


def synth_bssid(index: int) -> str:
    """Deterministic BSSID for synthetic AP number `index` (0-based, below SYNTH_MAX_APS)."""
    n = index + 1
    return f"AA:00:00:00:{(n >> 8) & 0xFF:02X}:{n & 0xFF:02X}"


def generate_synthetic(config: SynthConfig) -> Trace:
    """Generate a trace from per-AP clipped Gaussian random walks.

    Pure function of the config (including seed): re-runs are bit-identical.
    Each step draws one normal deviate per AP, in AP order. The deviates are
    the ones `random.Random(seed).gauss` gives, drawn here by the same
    Box–Muller expressions straight from `.random()`: each pair of uniforms
    gives a cosine deviate and then a sine one, and an odd one out carries
    over to the next step, as `gauss` keeps its spare.
    """
    if not 1 <= config.num_aps <= SYNTH_MAX_APS:
        raise ConfigError(f"num_aps must be between 1 and {SYNTH_MAX_APS}")
    if config.duration < 1:
        raise ConfigError("duration must be >= 1")
    if not 0 <= config.step_stddev < math.inf:  # NaN is never in range
        raise ConfigError("step_stddev must be finite and >= 0")
    if not RSSI_MIN_DBM <= config.floor_dbm < config.ceil_dbm <= RSSI_MAX_DBM:
        raise ConfigError("floor_dbm and ceil_dbm must satisfy "
                          f"{RSSI_MIN_DBM:g} <= floor_dbm < ceil_dbm <= {RSSI_MAX_DBM:g}")
    if config.sample_interval < 1:
        raise ConfigError("sample_interval must be >= 1")
    if (config.duration - 1) * config.sample_interval > T_MAX:
        raise ConfigError(f"timestamps would pass {T_MAX} (year 9999)")
    if config.activity not in _ACTIVITIES:
        raise ConfigError(f"bad activity {config.activity!r}")

    if isinstance(config.base_dbm, (int, float)):
        bases = [float(config.base_dbm)] * config.num_aps
    else:
        bases = [float(b) for b in config.base_dbm]
        if len(bases) != config.num_aps:
            raise ConfigError("base_dbm sequence length must equal num_aps")
    # A finite base outside [floor_dbm, ceil_dbm] is clipped into it; a NaN
    # one would clip to the ceiling unnoticed, and a NaN drain would pin the
    # battery.
    if not all(math.isfinite(b) for b in bases):
        raise ConfigError("base_dbm must be finite")
    drain = config.battery_drain_pct_per_step
    if drain is not None and not math.isfinite(drain):
        raise ConfigError("battery_drain_pct_per_step must be finite")
    floor, ceil = config.floor_dbm, config.ceil_dbm
    levels = [max(floor, min(ceil, b)) for b in bases]
    macs = [synth_bssid(i) for i in range(config.num_aps)]

    rand, stddev, n = random.Random(config.seed).random, config.step_stddev, config.num_aps
    draws: list[float] = []  # standard normal deviates not yet used, at most one between steps
    samples = []
    for step in range(config.duration):
        if step > 0:
            while len(draws) < n:
                x2pi = rand() * tau
                g2rad = sqrt(-2.0 * log(1.0 - rand()))
                draws += (cos(x2pi) * g2rad, sin(x2pi) * g2rad)
            # v + gauss(0.0, stddev), whose value is 0.0 + z * stddev
            stepped = [v + (0.0 + z * stddev) for v, z in zip(levels, draws)]
            del draws[:n]
            # max(floor, min(ceil, x)), spelled without the two calls
            levels = [(x if x > floor else floor) if x < ceil else ceil for x in stepped]
        # Built as _scan_columns builds them: the entries sort into the
        # canonical order, the BSSIDs being distinct.
        _, bssids, rssis = zip(*sorted([(-v, m, v) for m, v in zip(macs, levels)]))
        lat = lon = None
        if config.emit_location:
            lat = 37.0 + step * 1e-5
            lon = -122.0 + step * 1e-5
        battery = None
        if drain is not None:
            battery = max(0.0, min(100.0, 100.0 - drain * step))
        samples.append(ScanSample(
            step * config.sample_interval, bssids, rssis,
            latitude=lat, longitude=lon, battery_pct=battery, activity=config.activity,
        ))
    return Trace(samples=tuple(samples))
