"""Trace data model: scan samples, parsing, windowing, synthesis.

A trace is an ordered sequence of scan samples. Each sample carries the
device context (timestamp, optional location/battery, activity mode) and
the observed APs as two parallel columns, `bssids` and `rssis`. Scans are
normalized on ingest: MAC addresses canonicalized to uppercase colon-hex
and the columns sorted by descending RSSI (ties by BSSID), so downstream
argmax/tie-break logic is order-independent. The hot paths read the
columns; `ScanSample.candidates` is the cold-path view, one `ApObservation`
per AP, built on each read.

Two on-disk formats are supported:

* JSONL, one sample per line:
  {"t": <int>, "scan": [{"bssid": "<MAC>", "rssi_dbm": <num>}, ...],
   "assoc": "<MAC>"?, "lat": <num>?, "lon": <num>?,
   "battery_pct": <num>?, "activity": "active"|"idle"?}
* CSV, long format with one row per (t, AP):
  t,bssid,rssi_dbm,lat,lon,battery_pct,activity

JSONL is read as a stream: one `\n`-terminated chunk at a time, each
decoded and split on its own, so a file is never held in memory whole.
CSV is read whole.

`parse_trace` is the one statement of the trace rules: a trace in memory
is valid exactly when `parse_trace(trace_to_jsonl(trace))` gives it back.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str
from typing import NamedTuple

from .errors import TraceFormatError

RSSI_MIN_DBM = -100.0
RSSI_MAX_DBM = 0.0

# Unix seconds that datetime renders in UTC: 0001-01-01 to 9999-12-31 23:59:59.
T_MIN = -62135596800
T_MAX = 253402300799

_MAC_RE = re.compile(r"[0-9A-Fa-f]{2}([:-][0-9A-Fa-f]{2}){5}")

ACTIVITY_ACTIVE = "active"
ACTIVITY_IDLE = "idle"
_ACTIVITIES = (ACTIVITY_ACTIVE, ACTIVITY_IDLE)


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
class DeviceContext:
    """Device-side context recorded alongside a scan."""

    timestamp: int
    latitude: float | None = None
    longitude: float | None = None
    battery_pct: float | None = None
    activity: str = ACTIVITY_ACTIVE


@dataclass(frozen=True)
class ScanSample:
    """One timestamped scan: context plus the observed APs as two columns.

    `bssids[i]` was seen at `rssis[i]` dBm. Samples from `parse_trace` and
    `generate_synthetic` hold them in canonical order: descending RSSI,
    ties by BSSID. A trace holds one entry per AP per step, and two tuples
    per step cost less to build and keep than one record per entry.
    """

    context: DeviceContext
    bssids: tuple[str, ...]
    rssis: tuple[float, ...]
    associated: str | None = None

    @property
    def candidates(self) -> tuple[ApObservation, ...]:
        """The scan as records, in column order; built anew on each read."""
        return tuple(map(ApObservation, self.bssids, self.rssis))


@dataclass(frozen=True)
class Trace:
    """An ordered sequence of scan samples with a nominal sample spacing."""

    samples: tuple[ScanSample, ...]
    sample_interval: int = 1

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class ContextWindow:
    """The last up-to-k samples ending at a decision step."""

    samples: tuple[ScanSample, ...]
    k: int

    @property
    def latest(self) -> ScanSample:
        return self.samples[-1]


@dataclass(frozen=True)
class SynthConfig:
    """Parameters for the synthetic trace generator.

    Each AP gets an independent Gaussian random walk clipped to
    [floor_dbm, ceil_dbm]. base_dbm is broadcast when a single number is
    given, or taken per AP when a sequence is given.
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


def strongest(sample: ScanSample) -> ApObservation:
    """The sample's top AP under the canonical order, whatever its column order."""
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

    JSONL is read one line at a time; CSV is read whole. Raises
    TraceFormatError (with a 1-based line number where possible) on
    malformed lines, duplicate BSSIDs within a sample, non-monotone
    timestamps, out-of-range RSSI, or empty input.
    """
    if fmt == "jsonl":
        samples = _parse_jsonl(data)
    elif fmt == "csv":
        samples = _parse_csv(_as_text(data))
    else:
        raise ValueError(f"unknown trace format: {fmt!r}")
    if not samples:
        raise TraceFormatError("empty trace")
    return Trace(samples=tuple(samples), sample_interval=_infer_interval(samples))


def _not_utf8(exc: UnicodeDecodeError, line: int | None = None) -> TraceFormatError:
    return TraceFormatError(f"malformed line: not UTF-8 ({exc.reason})", line)


def _as_text(data) -> str:
    if not isinstance(data, (bytes, str)):
        try:
            data = data.read()
        except UnicodeDecodeError as exc:  # a text stream decodes as it reads
            raise _not_utf8(exc) from None
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(exc, data.count(b"\n", 0, exc.start) + 1) from None


def _text_lines(data):
    """(line number, line) for each line of the input, read as a stream.

    Bytes and files are cut after each `\n` and each piece is decoded and
    split by str.splitlines on its own. Every piece but the last ends in
    `\n`, which ends a line and is part of no multi-byte UTF-8 character, so
    the lines and their numbers are those of splitlines over the whole
    decoded text. A decode error names the line after the `\n`s before it; a
    text stream decodes ahead of its lines, so its decode errors name none.
    """
    if isinstance(data, bytes):
        data = io.BytesIO(data)
    elif isinstance(data, str):  # already text: its own lines are the pieces
        data = data.splitlines(keepends=True)
    line_no = 0
    try:
        for n, piece in enumerate(data, start=1):
            if isinstance(piece, bytes):
                try:
                    piece = piece.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise _not_utf8(exc, n) from None
            for line in piece.splitlines():
                line_no += 1
                yield line_no, line
    except UnicodeDecodeError as exc:  # from a text stream, while it reads ahead
        raise _not_utf8(exc) from None


def _infer_interval(samples) -> int:
    if len(samples) < 2:
        return 1
    diffs = Counter(
        b.context.timestamp - a.context.timestamp for a, b in zip(samples, samples[1:])
    )
    # most common spacing; ties resolved toward the smaller gap
    best = max(diffs.items(), key=lambda kv: (kv[1], -kv[0]))
    return best[0]


def _check_float(
    value, line: int, name: str = "rssi", lo: float = RSSI_MIN_DBM, hi: float = RSSI_MAX_DBM
) -> float:
    try:
        if isinstance(value, bool):  # JSON true/false are not numbers
            raise TypeError
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        raise TraceFormatError(f"malformed line: bad {name} {value!r}", line) from None
    if not lo <= out <= hi:
        raise TraceFormatError(f"{name} out of range: {out}", line)
    return out


def _check_timestamp(value, line: int) -> int:
    try:
        if isinstance(value, bool) or float(value) != int(float(value)):
            raise ValueError
        t = int(float(value))
    except (TypeError, ValueError, OverflowError):  # OverflowError: inf, or an int beyond floats
        raise TraceFormatError(f"malformed line: bad timestamp {value!r}", line) from None
    if not T_MIN <= t <= T_MAX:
        raise TraceFormatError(f"timestamp out of range: {t}", line)
    return t


def _opt_float(value, line: int, name: str, lo: float, hi: float) -> float | None:
    if value is None or value == "":
        return None
    return _check_float(value, line, name, lo, hi)


def _check_activity(value, line: int) -> str:
    if value is None or value == "":
        return ACTIVITY_ACTIVE
    if value not in _ACTIVITIES:
        raise TraceFormatError(f"malformed line: bad activity {value!r}", line)
    return value


def _build_sample(
    t: int,
    entries: list[tuple[float, str, float]],
    line: int,
    *,
    assoc=None,
    lat=None,
    lon=None,
    battery=None,
    activity: str = ACTIVITY_ACTIVE,
) -> ScanSample:
    """One sample from its scan `entries`, each (-rssi, bssid, rssi), in file order."""
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
    ctx = DeviceContext(
        timestamp=t, latitude=lat, longitude=lon, battery_pct=battery, activity=activity
    )
    return ScanSample(context=ctx, bssids=bssids, rssis=rssis, associated=assoc)


def _parse_jsonl(data) -> list[ScanSample]:
    samples: list[ScanSample] = []
    prev_t: int | None = None
    macs: dict[str, str] = {}  # raw BSSID string -> canonical form, for this parse
    for line_no, line in _text_lines(data):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"malformed line: {exc.msg}", line_no) from None
        if not isinstance(rec, dict) or "t" not in rec or "scan" not in rec:
            raise TraceFormatError("malformed line: expected object with t and scan", line_no)
        t = _check_timestamp(rec["t"], line_no)
        if prev_t is not None and t <= prev_t:
            raise TraceFormatError("non-monotone timestamps", line_no)
        prev_t = t
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
                try:
                    mac = macs[raw] = canonical_mac(raw)
                except ValueError as exc:
                    raise TraceFormatError(f"malformed line: {exc}", line_no) from None
            if type(rssi) is not float or not RSSI_MIN_DBM <= rssi <= RSSI_MAX_DBM:
                rssi = _check_float(rssi, line_no)
            entries.append((-rssi, mac, rssi))
        assoc = None
        if rec.get("assoc") is not None:
            try:
                assoc = canonical_mac(rec["assoc"])
            except ValueError as exc:
                raise TraceFormatError(f"malformed line: {exc}", line_no) from None
        samples.append(
            _build_sample(
                t,
                entries,
                line_no,
                assoc=assoc,
                lat=_opt_float(rec.get("lat"), line_no, "latitude", -90.0, 90.0),
                lon=_opt_float(rec.get("lon"), line_no, "longitude", -180.0, 180.0),
                battery=_opt_float(rec.get("battery_pct"), line_no, "battery_pct", 0.0, 100.0),
                activity=_check_activity(rec.get("activity"), line_no),
            )
        )
    return samples


def _parse_csv(text: str) -> list[ScanSample]:
    reader = csv.DictReader(io.StringIO(text))
    required = {"t", "bssid", "rssi_dbm"}
    if reader.fieldnames is None:
        return []
    missing = required - set(reader.fieldnames)
    if missing:
        raise TraceFormatError(f"missing csv columns: {sorted(missing)}", 1)

    samples: list[ScanSample] = []
    group_t: int | None = None
    group_entries: list[tuple[float, str, float]] = []
    group_row: dict = {}
    group_line = 2
    prev_t: int | None = None

    def flush(line_no: int) -> None:
        nonlocal prev_t
        if group_t is None:
            return
        if prev_t is not None and group_t <= prev_t:
            raise TraceFormatError("non-monotone timestamps", line_no)
        prev_t = group_t
        samples.append(
            _build_sample(
                group_t,
                group_entries,
                line_no,
                lat=_opt_float(group_row.get("lat"), line_no, "latitude", -90.0, 90.0),
                lon=_opt_float(group_row.get("lon"), line_no, "longitude", -180.0, 180.0),
                battery=_opt_float(group_row.get("battery_pct"), line_no, "battery_pct", 0.0, 100.0),
                activity=_check_activity(group_row.get("activity"), line_no),
            )
        )

    for row in reader:
        line_no = reader.line_num
        t = _check_timestamp(row.get("t"), line_no)
        try:
            mac = canonical_mac(row.get("bssid") or "")
        except ValueError as exc:
            raise TraceFormatError(f"malformed line: {exc}", line_no) from None
        rssi = _check_float(row.get("rssi_dbm"), line_no)
        if t != group_t:
            flush(group_line)
            group_t, group_entries, group_row, group_line = t, [], row, line_no
        group_entries.append((-rssi, mac, rssi))
    flush(group_line)
    return samples


# ---------------------------------------------------------------------------
# Serialization

def sample_to_dict(sample: ScanSample) -> dict:
    """JSON-ready dict for one sample, with a stable key order."""
    rec: dict = {
        "t": sample.context.timestamp,
        "scan": [{"bssid": b, "rssi_dbm": r} for b, r in zip(sample.bssids, sample.rssis)],
    }
    if sample.associated is not None:
        rec["assoc"] = sample.associated
    ctx = sample.context
    if ctx.latitude is not None:
        rec["lat"] = ctx.latitude
    if ctx.longitude is not None:
        rec["lon"] = ctx.longitude
    if ctx.battery_pct is not None:
        rec["battery_pct"] = ctx.battery_pct
    rec["activity"] = ctx.activity
    return rec


def trace_to_jsonl(trace: Trace) -> str:
    """Canonical JSONL: each line is byte for byte json.dumps(sample_to_dict(s)).

    Written directly rather than through dicts and json.dumps, because the
    content hash serializes every trace on every run. json.dumps writes ints
    and finite floats with repr, strings with encode_basestring_ascii, and
    ", " / ": " separators; this does the same. Every trace parse_trace or
    generate_synthetic returns holds only finite floats, which is what makes
    the two agree (json.dumps would write NaN where repr writes nan).
    """
    return "".join(map(jsonl_line, trace.samples))


def jsonl_line(sample: ScanSample) -> str:
    """One sample's line of canonical JSONL, with its newline."""
    ctx = sample.context
    scan = ", ".join(
        [
            f'{{"bssid": {_json_str(b)}, "rssi_dbm": {r!r}}}'
            for b, r in zip(sample.bssids, sample.rssis)
        ]
    )
    fields = [f'{{"t": {ctx.timestamp!r}, "scan": [{scan}]']
    if sample.associated is not None:
        fields.append(f'"assoc": {_json_str(sample.associated)}')
    if ctx.latitude is not None:
        fields.append(f'"lat": {ctx.latitude!r}')
    if ctx.longitude is not None:
        fields.append(f'"lon": {ctx.longitude!r}')
    if ctx.battery_pct is not None:
        fields.append(f'"battery_pct": {ctx.battery_pct!r}')
    fields.append(f'"activity": {_json_str(ctx.activity)}}}\n')
    return ", ".join(fields)


# ---------------------------------------------------------------------------
# Windowing and synthesis

def window(trace: Trace, t: int, k: int) -> ContextWindow:
    """Samples max(0, t-k+1)..t inclusive, order preserved."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 <= t < len(trace.samples):
        raise ValueError(f"step {t} out of range for trace of length {len(trace.samples)}")
    return ContextWindow(samples=trace.samples[max(0, t - k + 1): t + 1], k=k)


def synth_bssid(index: int) -> str:
    """Deterministic BSSID for synthetic AP number `index` (0-based)."""
    n = index + 1
    return f"AA:00:00:00:{(n >> 8) & 0xFF:02X}:{n & 0xFF:02X}"


def generate_synthetic(config: SynthConfig) -> Trace:
    """Generate a trace from per-AP clipped Gaussian random walks.

    Pure function of the config (including seed): re-runs are bit-identical.
    """
    if config.num_aps < 1:
        raise ValueError("num_aps must be >= 1")
    if config.duration < 1:
        raise ValueError("duration must be >= 1")
    if config.step_stddev < 0:
        raise ValueError("step_stddev must be >= 0")
    if not config.floor_dbm < config.ceil_dbm:
        raise ValueError("floor_dbm must be below ceil_dbm")
    if config.sample_interval < 1:
        raise ValueError("sample_interval must be >= 1")
    if (config.duration - 1) * config.sample_interval > T_MAX:
        raise ValueError(f"timestamps would pass {T_MAX} (year 9999)")
    if config.activity not in _ACTIVITIES:
        raise ValueError(f"bad activity {config.activity!r}")

    if isinstance(config.base_dbm, (int, float)):
        bases = [float(config.base_dbm)] * config.num_aps
    else:
        bases = [float(b) for b in config.base_dbm]
        if len(bases) != config.num_aps:
            raise ValueError("base_dbm sequence length must equal num_aps")
    floor, ceil = config.floor_dbm, config.ceil_dbm
    levels = [max(floor, min(ceil, max(RSSI_MIN_DBM, min(RSSI_MAX_DBM, b)))) for b in bases]
    macs = [synth_bssid(i) for i in range(config.num_aps)]

    gauss, stddev = random.Random(config.seed).gauss, config.step_stddev
    samples = []
    for step in range(config.duration):
        if step > 0:
            levels = [max(floor, min(ceil, v + gauss(0.0, stddev))) for v in levels]
        # Built as _build_sample builds them: the entries sort into the
        # canonical order, the BSSIDs being distinct.
        _, bssids, rssis = zip(*sorted([(-v, m, v) for m, v in zip(macs, levels)]))
        lat = lon = None
        if config.emit_location:
            lat = 37.0 + step * 1e-5
            lon = -122.0 + step * 1e-5
        battery = None
        if config.battery_drain_pct_per_step is not None:
            battery = max(0.0, min(100.0, 100.0 - config.battery_drain_pct_per_step * step))
        ctx = DeviceContext(
            timestamp=step * config.sample_interval,
            latitude=lat,
            longitude=lon,
            battery_pct=battery,
            activity=config.activity,
        )
        samples.append(ScanSample(context=ctx, bssids=bssids, rssis=rssis))
    return Trace(samples=tuple(samples), sample_interval=config.sample_interval)
