"""Trace data model: scan samples, parsing/validation, windowing, synthesis.

A trace is an ordered sequence of scan samples. Each sample carries the
device context (timestamp, optional location/battery, activity mode) and
the list of observed APs with their RSSI. Candidate lists are normalized
on ingest: MAC addresses canonicalized to uppercase colon-hex and
candidates sorted by descending RSSI (ties by BSSID) so downstream
argmax/tie-break logic is order-independent.

Two on-disk formats are supported:

* JSONL, one sample per line:
  {"t": <int>, "scan": [{"bssid": "<MAC>", "rssi_dbm": <num>}, ...],
   "assoc": "<MAC>"?, "lat": <num>?, "lon": <num>?,
   "battery_pct": <num>?, "activity": "active"|"idle"?}
* CSV, long format with one row per (t, AP):
  t,bssid,rssi_dbm,lat,lon,battery_pct,activity
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
    """One (BSSID, RSSI) pair from a scan.

    A named tuple rather than a frozen dataclass: traces hold one per AP per
    step, and a tuple is the cheapest immutable record to build.
    """

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
    """One timestamped scan: context plus the observed candidate APs."""

    context: DeviceContext
    candidates: tuple[ApObservation, ...]
    associated: str | None = None


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
class Violation:
    """One invariant violation found by validate_trace."""

    index: int | None
    rule: str
    message: str


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


def sort_candidates(candidates) -> tuple[ApObservation, ...]:
    """Canonical candidate order: descending RSSI, ties by BSSID."""
    return tuple(sorted(candidates, key=lambda c: (-c.rssi, c.bssid)))


def strongest(candidates) -> ApObservation:
    """The top candidate under the canonical order."""
    return min(candidates, key=lambda c: (-c.rssi, c.bssid))


# ---------------------------------------------------------------------------
# Parsing

def parse_trace(data, fmt: str = "jsonl") -> Trace:
    """Parse a trace from bytes, text, or a file-like object.

    Raises TraceFormatError (with a 1-based line number where possible) on
    malformed lines, duplicate BSSIDs within a sample, non-monotone
    timestamps, out-of-range RSSI, or empty input.
    """
    text = _as_text(data)
    if fmt == "jsonl":
        samples = _parse_jsonl(text)
    elif fmt == "csv":
        samples = _parse_csv(text)
    else:
        raise ValueError(f"unknown trace format: {fmt!r}")
    if not samples:
        raise TraceFormatError("empty trace")
    return Trace(samples=tuple(samples), sample_interval=_infer_interval(samples))


def _as_text(data) -> str:
    if not isinstance(data, (bytes, str)):
        try:
            data = data.read()
        except UnicodeDecodeError as exc:  # a text stream decodes as it reads
            raise TraceFormatError(f"malformed line: not UTF-8 ({exc.reason})") from None
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise TraceFormatError(f"malformed line: not UTF-8 ({exc.reason})", line) from None


def _infer_interval(samples) -> int:
    if len(samples) < 2:
        return 1
    diffs = Counter(
        b.context.timestamp - a.context.timestamp for a, b in zip(samples, samples[1:])
    )
    # most common spacing; ties resolved toward the smaller gap
    best = max(diffs.items(), key=lambda kv: (kv[1], -kv[0]))
    return best[0]


def _check_rssi(value, line: int) -> float:
    try:
        rssi = float(value)
    except (TypeError, ValueError, OverflowError):
        raise TraceFormatError(f"malformed line: bad rssi {value!r}", line) from None
    if not RSSI_MIN_DBM <= rssi <= RSSI_MAX_DBM:
        raise TraceFormatError(f"rssi out of range: {rssi}", line)
    return rssi


def _check_timestamp(value, line: int) -> int:
    try:
        if isinstance(value, bool) or float(value) != int(float(value)):
            raise ValueError
        return int(float(value))
    except (TypeError, ValueError, OverflowError):  # OverflowError: inf, or an int beyond floats
        raise TraceFormatError(f"malformed line: bad timestamp {value!r}", line) from None


def _opt_float(value, line: int, name: str, lo: float, hi: float) -> float | None:
    if value is None or value == "":
        return None
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        raise TraceFormatError(f"malformed line: bad {name} {value!r}", line) from None
    if not lo <= out <= hi:
        raise TraceFormatError(f"{name} out of range: {out}", line)
    return out


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
    seen: set[str] = set()
    for _, mac, _ in entries:
        if mac in seen:
            raise TraceFormatError(f"duplicate bssid {mac}", line)
        seen.add(mac)
    # Sorting the entries gives sort_candidates' order; the BSSIDs are
    # distinct, so the stored rssi never breaks a tie. tuple.__new__ is the
    # named tuple's own constructor without its Python-level wrapper.
    entries.sort()
    candidates = tuple([tuple.__new__(ApObservation, (mac, rssi)) for _, mac, rssi in entries])
    ctx = DeviceContext(
        timestamp=t, latitude=lat, longitude=lon, battery_pct=battery, activity=activity
    )
    return ScanSample(context=ctx, candidates=candidates, associated=assoc)


def _parse_jsonl(text: str) -> list[ScanSample]:
    samples: list[ScanSample] = []
    prev_t: int | None = None
    macs: dict[str, str] = {}  # raw BSSID string -> canonical form, for this parse
    for line_no, line in enumerate(text.splitlines(), start=1):
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
                rssi = _check_rssi(rssi, line_no)
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
        rssi = _check_rssi(row.get("rssi_dbm"), line_no)
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
        "scan": [{"bssid": c.bssid, "rssi_dbm": c.rssi} for c in sample.candidates],
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
    return "".join([_jsonl_line(s) for s in trace.samples])


def _jsonl_line(sample: ScanSample) -> str:
    ctx = sample.context
    scan = ", ".join(
        [f'{{"bssid": {_json_str(b)}, "rssi_dbm": {r!r}}}' for b, r in sample.candidates]
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


def trace_to_csv(trace: Trace) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["t", "bssid", "rssi_dbm", "lat", "lon", "battery_pct", "activity"])
    for s in trace.samples:
        ctx = s.context
        for c in s.candidates:
            writer.writerow(
                [
                    ctx.timestamp,
                    c.bssid,
                    c.rssi,
                    "" if ctx.latitude is None else ctx.latitude,
                    "" if ctx.longitude is None else ctx.longitude,
                    "" if ctx.battery_pct is None else ctx.battery_pct,
                    ctx.activity,
                ]
            )
    return out.getvalue()


# ---------------------------------------------------------------------------
# Validation

def validate_trace(trace: Trace) -> list[Violation]:
    """Check every invariant; returns violations instead of raising."""
    out: list[Violation] = []

    def bad(index, rule, message):
        out.append(Violation(index=index, rule=rule, message=message))

    if not trace.samples:
        bad(None, "empty trace", "trace has no samples")
        return out
    if trace.sample_interval < 1:
        bad(None, "bad sample interval", f"sample_interval={trace.sample_interval}")

    prev_t: int | None = None
    for i, s in enumerate(trace.samples):
        ctx = s.context
        if prev_t is not None:
            if ctx.timestamp <= prev_t:
                bad(i, "non-monotone timestamps", f"t={ctx.timestamp} after t={prev_t}")
            elif ctx.timestamp - prev_t != trace.sample_interval:
                bad(i, "irregular sample spacing",
                    f"gap {ctx.timestamp - prev_t} != {trace.sample_interval}")
        prev_t = ctx.timestamp

        if not s.candidates:
            bad(i, "empty candidates", f"no candidates at index {i}")
            continue
        seen: set[str] = set()
        for c in s.candidates:
            if not _MAC_RE.fullmatch(c.bssid) or c.bssid != c.bssid.upper() or "-" in c.bssid:
                bad(i, "bad bssid", f"non-canonical bssid {c.bssid!r} at index {i}")
            if c.bssid in seen:
                bad(i, "duplicate bssid", f"duplicate bssid {c.bssid} at index {i}")
            seen.add(c.bssid)
            if not RSSI_MIN_DBM <= c.rssi <= RSSI_MAX_DBM:
                bad(i, "rssi out of range", f"rssi out of range at index {i}: {c.rssi}")
        if s.candidates != sort_candidates(s.candidates):
            bad(i, "unsorted candidates", f"candidates not in canonical order at index {i}")
        if ctx.latitude is not None and not -90.0 <= ctx.latitude <= 90.0:
            bad(i, "latitude out of range", f"latitude {ctx.latitude} at index {i}")
        if ctx.longitude is not None and not -180.0 <= ctx.longitude <= 180.0:
            bad(i, "longitude out of range", f"longitude {ctx.longitude} at index {i}")
        if ctx.battery_pct is not None and not 0.0 <= ctx.battery_pct <= 100.0:
            bad(i, "battery out of range", f"battery_pct {ctx.battery_pct} at index {i}")
        if ctx.activity not in _ACTIVITIES:
            bad(i, "bad activity", f"activity {ctx.activity!r} at index {i}")
    return out


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
    if config.activity not in _ACTIVITIES:
        raise ValueError(f"bad activity {config.activity!r}")

    if isinstance(config.base_dbm, (int, float)):
        bases = [float(config.base_dbm)] * config.num_aps
    else:
        bases = [float(b) for b in config.base_dbm]
        if len(bases) != config.num_aps:
            raise ValueError("base_dbm sequence length must equal num_aps")
    clip = lambda v: max(config.floor_dbm, min(config.ceil_dbm, v))
    levels = [clip(max(RSSI_MIN_DBM, min(RSSI_MAX_DBM, b))) for b in bases]
    macs = [synth_bssid(i) for i in range(config.num_aps)]

    rng = random.Random(config.seed)
    samples = []
    for step in range(config.duration):
        if step > 0:
            levels = [clip(v + rng.gauss(0.0, config.step_stddev)) for v in levels]
        obs = [ApObservation(bssid=m, rssi=v) for m, v in zip(macs, levels)]
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
        samples.append(ScanSample(context=ctx, candidates=sort_candidates(obs)))
    return Trace(samples=tuple(samples), sample_interval=config.sample_interval)
