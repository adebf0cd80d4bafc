"""Trace model: parsing, validation, windowing, synthesis, round-trips."""

from __future__ import annotations

import hashlib
import io
import json
import math
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MAC_A, MAC_B, mac, make_sample, make_trace, round_trips, trace_to_csv
from roamsim.errors import TraceFormatError
from roamsim.policies import legacy_decide
from roamsim.roaming import AssociationState
from roamsim.runner import read_trace_file, trace_content_hash
from roamsim.trace import (
    T_MAX,
    ApObservation,
    ContextWindow,
    DeviceContext,
    ScanSample,
    SynthConfig,
    Trace,
    _check_activity,
    _check_float,
    _check_timestamp,
    _infer_interval,
    _opt_float,
    canonical_mac,
    generate_synthetic,
    parse_trace,
    sample_to_dict,
    strongest,
    trace_to_jsonl,
    window,
)


class TestCanonicalMac:
    def test_lowercase_and_dashes(self):
        assert canonical_mac("aa:bb:cc:dd:ee:ff") == "AA:BB:CC:DD:EE:FF"
        assert canonical_mac("aa-bb-cc-dd-ee-ff") == "AA:BB:CC:DD:EE:FF"

    @pytest.mark.parametrize("bad", ["", "aa:bb:cc:dd:ee", "zz:bb:cc:dd:ee:ff", "aabbccddeeff",
                                     "aa:bb:cc:dd:ee:ff\n", "AA:BB:CC:DD:EE:FF\n"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            canonical_mac(bad)

    def test_validate_flags_trailing_newline(self):
        trace = make_trace([{"AA:00:00:00:00:01\n": -60.0}])
        with pytest.raises(TraceFormatError, match="not a MAC address"):
            round_trips(trace)


class TestParseJsonl:
    def test_single_line_canonicalizes(self):
        line = '{"t":0,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}]}'
        trace = parse_trace(line, "jsonl")
        assert len(trace) == 1
        cand = trace.samples[0].candidates[0]
        assert cand.bssid == "AA:00:00:00:00:01"
        assert cand.rssi == -60.0

    def test_empty_input(self):
        with pytest.raises(TraceFormatError, match="empty trace"):
            parse_trace("", "jsonl")

    def test_non_monotone_timestamps_name_the_line(self):
        text = (
            '{"t":5,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}]}\n'
            '{"t":3,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}]}\n'
        )
        with pytest.raises(TraceFormatError, match="non-monotone timestamps at line 2"):
            parse_trace(text, "jsonl")

    def test_duplicate_bssid(self):
        line = (
            '{"t":0,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60},'
            '{"bssid":"AA:00:00:00:00:01","rssi_dbm":-70}]}'
        )
        with pytest.raises(TraceFormatError, match="duplicate bssid"):
            parse_trace(line, "jsonl")

    def test_rssi_out_of_range(self):
        line = '{"t":0,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":5}]}'
        with pytest.raises(TraceFormatError, match="rssi out of range"):
            parse_trace(line, "jsonl")

    def test_malformed_json_names_the_line(self):
        with pytest.raises(TraceFormatError, match="line 1"):
            parse_trace("{nope", "jsonl")

    @pytest.mark.parametrize("t", ["Infinity", "-Infinity", "1e400", "1" + "0" * 400])
    def test_timestamp_past_float_range_names_the_line(self, t):
        text = (
            '{"t":0,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}]}\n'
            f'{{"t":{t},"scan":[{{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}}]}}\n'
        )
        with pytest.raises(TraceFormatError, match="bad timestamp .* at line 2"):
            parse_trace(text, "jsonl")

    @pytest.mark.parametrize("t", ["-62135596801", "253402300800", "1e20"])
    def test_timestamp_outside_datetime_range_names_the_line(self, t):
        text = (
            '{"t":-62135596802,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}]}\n'
            f'{{"t":{t},"scan":[{{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}}]}}\n'
        )
        with pytest.raises(TraceFormatError, match="timestamp out of range: .* at line 1"):
            parse_trace(text, "jsonl")
        text = text.replace("-62135596802", "0")
        with pytest.raises(TraceFormatError, match="timestamp out of range: .* at line 2"):
            parse_trace(text, "jsonl")
        csv_text = f"t,bssid,rssi_dbm\n0,aa:00:00:00:00:01,-60\n{t},aa:00:00:00:00:01,-60\n"
        with pytest.raises(TraceFormatError, match="timestamp out of range: .* at line 3"):
            parse_trace(csv_text, "csv")

    def test_timestamp_range_edges_accepted(self):
        text = (
            '{"t":-62135596800,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}]}\n'
            '{"t":253402300799,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}]}\n'
        )
        csv_text = (
            "t,bssid,rssi_dbm\n"
            "-62135596800,aa:00:00:00:00:01,-60\n253402300799,aa:00:00:00:00:01,-60\n"
        )
        for trace in (parse_trace(text, "jsonl"), parse_trace(csv_text, "csv")):
            assert [s.context.timestamp for s in trace.samples] == [-62135596800, 253402300799]

    @pytest.mark.parametrize("extra, message", [
        ('"rssi_dbm":false}]', "bad rssi False"),
        ('"rssi_dbm":true}]', "bad rssi True"),
        ('"rssi_dbm":-60}],"lat":true', "bad latitude True"),
        ('"rssi_dbm":-60}],"lon":false', "bad longitude False"),
        ('"rssi_dbm":-60}],"battery_pct":true', "bad battery_pct True"),
    ], ids=["rssi-false", "rssi-true", "lat", "lon", "battery"])
    def test_json_booleans_are_not_numbers(self, extra, message):
        text = (
            '{"t":0,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}]}\n'
            f'{{"t":1,"scan":[{{"bssid":"aa:00:00:00:00:01",{extra}}}\n'
        )
        with pytest.raises(TraceFormatError, match=f"{message} at line 2"):
            parse_trace(text, "jsonl")

    def test_rssi_past_float_range_rejected(self):
        line = '{"t":0,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-1%s}]}' % ("0" * 400)
        with pytest.raises(TraceFormatError, match="bad rssi"):
            parse_trace(line, "jsonl")

    def test_non_utf8_bytes_name_the_line(self):
        data = (
            b'{"t":0,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}]}\n'
            b'{"t":1,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}],"activity":"\xff"}\n'
        )
        with pytest.raises(TraceFormatError, match="not UTF-8 .* at line 2"):
            parse_trace(data, "jsonl")
        with pytest.raises(TraceFormatError, match="not UTF-8"):
            parse_trace(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), "jsonl")

    def test_candidates_sorted_on_ingest(self):
        line = (
            '{"t":0,"scan":[{"bssid":"aa:00:00:00:00:02","rssi_dbm":-70},'
            '{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}]}'
        )
        trace = parse_trace(line, "jsonl")
        assert [c.bssid for c in trace.samples[0].candidates] == [MAC_A, MAC_B]

    def test_optional_context_fields(self):
        line = (
            '{"t":0,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}],'
            '"assoc":"aa:00:00:00:00:01","lat":37.4,"lon":-122.1,'
            '"battery_pct":81.5,"activity":"idle"}'
        )
        s = parse_trace(line, "jsonl").samples[0]
        assert s.associated == MAC_A
        assert s.context.latitude == 37.4
        assert s.context.battery_pct == 81.5
        assert s.context.activity == "idle"

    def test_bad_latitude_rejected(self):
        line = '{"t":0,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}],"lat":94.0}'
        with pytest.raises(TraceFormatError, match="latitude out of range"):
            parse_trace(line, "jsonl")


class TestParseCsv:
    def test_long_format_groups_rows(self):
        text = (
            "t,bssid,rssi_dbm,lat,lon,battery_pct,activity\n"
            "0,aa:00:00:00:00:01,-60,,,,active\n"
            "0,aa:00:00:00:00:02,-70,,,,active\n"
            "1,aa:00:00:00:00:01,-61,,,,active\n"
        )
        trace = parse_trace(text, "csv")
        assert len(trace) == 2
        assert len(trace.samples[0].candidates) == 2
        assert trace.samples[1].candidates[0].rssi == -61.0

    def test_non_monotone_rejected(self):
        text = (
            "t,bssid,rssi_dbm\n"
            "4,aa:00:00:00:00:01,-60\n"
            "2,aa:00:00:00:00:01,-61\n"
        )
        with pytest.raises(TraceFormatError, match="non-monotone"):
            parse_trace(text, "csv")

    def test_missing_columns(self):
        with pytest.raises(TraceFormatError, match="missing csv columns"):
            parse_trace("t,bssid\n0,aa:00:00:00:00:01\n", "csv")


class TestRoundTrip:
    def test_jsonl_round_trip_field_equality(self):
        trace = parse_trace(
            '{"t":0,"scan":[{"bssid":"aa:00:00:00:00:02","rssi_dbm":-70.25},'
            '{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}],"assoc":"aa:00:00:00:00:01",'
            '"lat":37.4,"lon":-122.1,"battery_pct":50,"activity":"idle"}\n'
            '{"t":1,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-62}]}\n',
            "jsonl",
        )
        again = parse_trace(trace_to_jsonl(trace), "jsonl")
        assert again == trace

    def test_csv_round_trip_field_equality(self):
        trace = make_trace([{MAC_A: -60.0, MAC_B: -70.5}, {MAC_A: -62.0}])
        again = parse_trace(trace_to_csv(trace), "csv")
        assert again == trace

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), aps=st.integers(1, 5), dur=st.integers(1, 30))
    def test_jsonl_round_trip_on_generated(self, seed, aps, dur):
        trace = generate_synthetic(
            SynthConfig(num_aps=aps, duration=dur, step_stddev=3.0, seed=seed,
                        emit_location=True, battery_drain_pct_per_step=0.05)
        )
        assert parse_trace(trace_to_jsonl(trace), "jsonl") == trace


# Every optional field, an idle step, and RSSI values whose text is easy to get
# wrong: the sign of -0.0, an exponent, and a 16-digit mantissa.
GOLDEN_FIXTURE = (
    '{"t": 0, "scan": [{"bssid": "aa-00-00-00-00-02", "rssi_dbm": -0.0},'
    ' {"bssid": "AA:00:00:00:00:01", "rssi_dbm": -1e-05},'
    ' {"bssid": "aa:00:00:00:00:03", "rssi_dbm": -59.99999999999999}],'
    ' "assoc": "aa:00:00:00:00:01", "lat": 37.4, "lon": -122.1, "battery_pct": 88,'
    ' "activity": "idle"}\n'
    '{"t": 2, "scan": [{"bssid": "AA:00:00:00:00:03", "rssi_dbm": -60}]}\n'
)


@st.composite
def valid_samples(draw):
    """Samples the parser accepts, with every optional field drawn."""
    rssi = st.one_of(st.floats(-100.0, 0.0), st.sampled_from([-0.0, 0.0, -1e-05, -100.0]))
    num_aps = draw(st.integers(1, 6))
    levels = {mac(i): draw(rssi) for i in draw(st.sets(st.integers(0, 300), min_size=1,
                                                       max_size=num_aps))}
    opt = lambda lo, hi: st.one_of(st.none(), st.floats(lo, hi))  # noqa: E731
    return make_sample(
        draw(st.integers(0, T_MAX)), levels,
        assoc=draw(st.one_of(st.none(), st.sampled_from(sorted(levels)))),
        activity=draw(st.sampled_from(["active", "idle"])),
        lat=draw(opt(-90.0, 90.0)), lon=draw(opt(-180.0, 180.0)),
        battery=draw(opt(0.0, 100.0)),
    )


class TestCanonicalJsonl:
    def test_golden_content_hash(self):
        # sha256 of the lines json.dumps(sample_to_dict(s)) writes; stored
        # reports carry hashes made that way, so compare needs them unchanged
        trace = parse_trace(GOLDEN_FIXTURE, "jsonl")
        assert trace_content_hash(trace) == (
            "f62e7f868faff4712e024ca00e53ce95947621842c8a537df12da81ad3139e16"
        )

    @settings(max_examples=200, deadline=None)
    @given(samples=st.lists(valid_samples(), min_size=1, max_size=4))
    def test_lines_equal_json_dumps(self, samples):
        trace = Trace(samples=tuple(samples))
        assert all(round_trips(Trace(samples=(s,))) for s in samples)
        lines = trace_to_jsonl(trace).splitlines(keepends=True)
        assert lines == [json.dumps(sample_to_dict(s)) + "\n" for s in samples]

    def test_observations_are_immutable_named_records(self):
        obs = ApObservation(bssid=MAC_A, rssi=-60.0)
        assert repr(obs) == "ApObservation(bssid='AA:00:00:00:00:01', rssi=-60.0)"
        with pytest.raises(AttributeError):
            obs.rssi = -50.0  # type: ignore[misc]


class TestValidate:
    def test_valid_trace_has_no_violations(self):
        trace = make_trace([{MAC_A: -60.0}, {MAC_A: -61.0}, {MAC_A: -62.0}])
        assert round_trips(trace)

    def test_rssi_out_of_range_flagged(self):
        trace = make_trace([{MAC_A: 5.0}])
        with pytest.raises(TraceFormatError, match="rssi out of range") as exc:
            round_trips(trace)
        assert exc.value.line == 1  # the first sample

    def test_duplicate_bssid_flagged(self):
        from roamsim.trace import DeviceContext, ScanSample, Trace

        sample = ScanSample(
            context=DeviceContext(timestamp=0), bssids=(MAC_A, MAC_A), rssis=(-60.0, -61.0)
        )
        with pytest.raises(TraceFormatError, match="duplicate bssid"):
            round_trips(Trace(samples=(sample,)))

    def test_irregular_spacing_flagged(self):
        from dataclasses import replace

        trace = make_trace([{MAC_A: -60.0}, {MAC_A: -61.0}])
        bumped = replace(
            trace,
            samples=(
                trace.samples[0],
                replace(
                    trace.samples[1],
                    context=replace(trace.samples[1].context, timestamp=5),
                ),
            ),
        )
        # the parser infers interval 5 from the one gap; the trace says 1
        assert not round_trips(bumped)


class TestWindow:
    def test_full_window_at_t9_k10(self):
        trace = make_trace([{MAC_A: -60.0}] * 20)
        win = window(trace, 9, 10)
        assert [s.context.timestamp for s in win.samples] == list(range(10))

    def test_trace_start_truncates(self):
        trace = make_trace([{MAC_A: -60.0}] * 20)
        assert len(window(trace, 0, 10).samples) == 1

    def test_k1_returns_single(self):
        trace = make_trace([{MAC_A: -60.0}] * 20)
        win = window(trace, 19, 1)
        assert [s.context.timestamp for s in win.samples] == [19]

    def test_out_of_range(self):
        trace = make_trace([{MAC_A: -60.0}] * 3)
        with pytest.raises(ValueError):
            window(trace, 3, 2)
        with pytest.raises(ValueError):
            window(trace, 0, 0)

    @settings(max_examples=100, deadline=None)
    @given(t=st.integers(0, 19), k=st.integers(1, 30))
    def test_length_formula(self, t, k):
        trace = make_trace([{MAC_A: -60.0}] * 20)
        assert len(window(trace, t, k).samples) == min(t + 1, k)


class TestSynthetic:
    def test_zero_variance_walk_is_flat(self):
        trace = generate_synthetic(
            SynthConfig(num_aps=1, duration=5, base_dbm=-60.0, step_stddev=0.0)
        )
        assert len(trace) == 5
        assert all(s.candidates[0].rssi == -60.0 for s in trace.samples)

    def test_deterministic_for_seed(self):
        cfg = SynthConfig(num_aps=3, duration=50, step_stddev=2.5, seed=42)
        assert generate_synthetic(cfg) == generate_synthetic(cfg)
        assert trace_to_jsonl(generate_synthetic(cfg)) == trace_to_jsonl(generate_synthetic(cfg))

    def test_walk_respects_clip_bounds(self):
        cfg = SynthConfig(
            num_aps=4, duration=1000, base_dbm=-60.0, step_stddev=6.0,
            floor_dbm=-90.0, ceil_dbm=-40.0, seed=7,
        )
        trace = generate_synthetic(cfg)
        values = [c.rssi for s in trace.samples for c in s.candidates]
        assert min(values) >= -90.0
        assert max(values) <= -40.0

    def test_generated_traces_are_valid(self):
        trace = generate_synthetic(
            SynthConfig(num_aps=3, duration=100, step_stddev=4.0, seed=5,
                        emit_location=True, battery_drain_pct_per_step=0.2)
        )
        assert round_trips(trace)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(SynthConfig(num_aps=0))
        with pytest.raises(ValueError):
            generate_synthetic(SynthConfig(step_stddev=-1.0))
        with pytest.raises(ValueError):
            generate_synthetic(SynthConfig(floor_dbm=-40.0, ceil_dbm=-90.0))

    def test_timestamps_stay_inside_the_ingest_range(self):
        with pytest.raises(ValueError, match="9999"):
            generate_synthetic(SynthConfig(duration=3, sample_interval=10**12))
        edge = generate_synthetic(SynthConfig(duration=2, sample_interval=T_MAX))
        assert edge.samples[-1].context.timestamp == T_MAX
        assert parse_trace(trace_to_jsonl(edge)) == edge


# Generator golden: the sha256 of the canonical JSONL of each trace, so any
# change to how generate_synthetic draws, clips or orders levels shows here.
GOLDEN_SYNTH = {
    "clip-floor-ceil": SynthConfig(num_aps=4, duration=300, base_dbm=-60.0, step_stddev=8.0,
                                   floor_dbm=-80.0, ceil_dbm=-45.0, seed=3),
    "flat-ties": SynthConfig(num_aps=5, duration=20, base_dbm=-70.0, step_stddev=0.0),
    "per-ap-base": SynthConfig(num_aps=3, duration=80, base_dbm=(-130.0, 12.5, -64.25),
                               step_stddev=3.0, floor_dbm=-100.0, ceil_dbm=0.0, seed=11),
    "location-battery": SynthConfig(num_aps=3, duration=200, emit_location=True,
                                    battery_drain_pct_per_step=0.7, activity="idle", seed=5),
    "interval": SynthConfig(num_aps=3, duration=100, step_stddev=2.0, sample_interval=5,
                            seed=9),
    "dense": SynthConfig(num_aps=32, duration=50, base_dbm=-65.0, step_stddev=2.0, seed=1),
}

GOLDEN_SYNTH_SHA256 = {
    "clip-floor-ceil": "5f1973efe903fdb418ff09ec6f398a8b6f968b66c154e819ac5eea9359a0ff17",
    "dense": "33b02290d5a696e66e688d0e19ddeaa465da8aa997b72667226415cb1cfc8b64",
    "flat-ties": "58e10614ed64fc50e1e9f01dca2b67ef70ef1542642e8b47bc0cc40b798547e4",
    "interval": "ec0c9b6a2188d8c9178a28f5dadc33f3bb28b54f12f0e7efc42cc4b681f402c3",
    "location-battery": "bacb0620af979db7bde002a580431f225e0efb212ba534a23d251ff732a1cf4c",
    "per-ap-base": "1238878d9e352fb70efa31bd47adcd13871ff94a343aacf7ee72ebe627c3f542",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SYNTH))
def test_golden_synthetic(name):
    text = trace_to_jsonl(generate_synthetic(GOLDEN_SYNTH[name]))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_SYNTH_SHA256[name]


# ---------------------------------------------------------------------------
# Streaming ingest against the whole-text parser it replaced

def whole_text_parse_jsonl(data) -> Trace:
    """Reference for parse_trace(data, "jsonl"): the whole-text parser.

    It decodes the whole input, splits it with str.splitlines and parses line
    by line, as the package did before JSONL ingest streamed. The per-field
    checks are the package's own.
    """
    if not isinstance(data, (bytes, str)):
        try:
            data = data.read()
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"malformed line: not UTF-8 ({exc.reason})") from None
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise TraceFormatError(f"malformed line: not UTF-8 ({exc.reason})", line) from None
    samples = []
    prev_t = None
    for line_no, line in enumerate(data.splitlines(), start=1):
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
        if not isinstance(rec["scan"], list):
            raise TraceFormatError("malformed line: scan must be a list", line_no)
        entries = []
        for entry in rec["scan"]:
            try:
                raw, rssi = entry["bssid"], entry["rssi_dbm"]
            except (KeyError, TypeError):
                raise TraceFormatError(
                    "malformed line: scan entry needs bssid and rssi_dbm", line_no
                ) from None
            try:
                bssid = canonical_mac(raw)
            except ValueError as exc:
                raise TraceFormatError(f"malformed line: {exc}", line_no) from None
            entries.append((-_check_float(rssi, line_no), bssid))
        assoc = None
        if rec.get("assoc") is not None:
            try:
                assoc = canonical_mac(rec["assoc"])
            except ValueError as exc:
                raise TraceFormatError(f"malformed line: {exc}", line_no) from None
        if not entries:
            raise TraceFormatError("malformed line: empty scan", line_no)
        seen = set()
        for _, bssid in entries:
            if bssid in seen:
                raise TraceFormatError(f"duplicate bssid {bssid}", line_no)
            seen.add(bssid)
        entries.sort()
        ctx = DeviceContext(
            timestamp=t,
            latitude=_opt_float(rec.get("lat"), line_no, "latitude", -90.0, 90.0),
            longitude=_opt_float(rec.get("lon"), line_no, "longitude", -180.0, 180.0),
            battery_pct=_opt_float(rec.get("battery_pct"), line_no, "battery_pct", 0.0, 100.0),
            activity=_check_activity(rec.get("activity"), line_no),
        )
        samples.append(ScanSample(context=ctx, bssids=tuple(b for _, b in entries),
                                  rssis=tuple(-r for r, _ in entries), associated=assoc))
    if not samples:
        raise TraceFormatError("empty trace")
    return Trace(samples=tuple(samples), sample_interval=_infer_interval(samples))


def _ingest_line(t: int, extra: str = "") -> str:
    return ('{"t": %d, "scan": [{"bssid": "aa-00-00-00-00-02", "rssi_dbm": -61},'
            ' {"bssid": "AA:00:00:00:00:01", "rssi_dbm": -0.0}]%s}' % (t, extra))


# Pieces of a JSONL file: valid lines (t filled in as drawn), blank lines,
# lines each rule rejects, non-ASCII text (U+2028 inside a JSON string splits
# its line), and bytes that are not UTF-8. A drawn file is clean (valid and
# blank lines only), text (clean or bad UTF-8 pieces), bytes (clean pieces or
# bytes that are not UTF-8) or anything.
CLEAN_PIECES = ["valid", "valid", "valid-extra", b"", b"   ", b"\t"]
BAD_PIECES = [
    "early-t", b"{nope", b'{"t": 1}', b'{"t": 0, "scan": []}', b"[1, 2]",
    '{"t": 0, "scan": [{"bssid": "aa:00:00:00:00:01", "rssi_dbm": -60},'
    ' {"bssid": "AA:00:00:00:00:01", "rssi_dbm": -70}]}'.encode(),
    '{"t": 0, "scan": [], "x": "caf\u00e9 \u2028 \u20ac\U0001f600"}'.encode(),
    '{"t": 0, "activity": "\u00fcber", "scan": [1]}'.encode(),
]
NOT_UTF8_PIECES = [b"\xff", b"\xe2\x82", b"\xc3", b"\xed\xa0\x80", b"\xf4\x90\x80\x80",
                   b"\x80abc", "any bytes"]
INGEST_BREAKS = [b"\n", b"\n", b"\r\n", b"\r", "\u2028".encode(), "\x85".encode(),
                 b"\x0c", b"\x1e", b"\n\n", b""]


@st.composite
def jsonl_bytes(draw) -> bytes:
    mode = draw(st.sampled_from(["clean", "text", "bytes", "any"]))
    pieces = CLEAN_PIECES + (BAD_PIECES if mode in ("text", "any") else [])
    pieces += NOT_UTF8_PIECES if mode in ("bytes", "any") else []
    breaks = INGEST_BREAKS[:-1] if mode == "clean" else INGEST_BREAKS  # b"" joins two lines
    out, t = [], 0
    for _ in range(draw(st.integers(0, 10))):
        piece = draw(st.sampled_from(pieces))
        if piece in ("valid", "valid-extra"):
            t += draw(st.integers(1, 3))
            extra = ', "activity": "idle", "lat": 1.5' if piece == "valid-extra" else ""
            piece = _ingest_line(t, extra).encode()
        elif piece == "early-t":
            piece = _ingest_line(t - 1).encode()
        elif piece == "any bytes":
            piece = draw(st.binary(max_size=4))
        out.append(piece + draw(st.sampled_from(breaks)))
    return b"".join(out)


def _outcome(parse, data):
    try:
        return parse(data)
    except TraceFormatError as exc:
        return str(exc), exc.line


def _input_forms(data: bytes) -> dict:
    forms = {
        "bytes": data,
        "binary file": io.BytesIO(data),
        "text stream": io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"),
    }
    try:
        forms["str"] = data.decode("utf-8")
    except UnicodeDecodeError:
        pass
    return forms


class TestStreamingIngest:
    @settings(max_examples=400, deadline=None)
    @given(data=jsonl_bytes())
    def test_equals_the_whole_text_parser(self, data):
        want = _outcome(whole_text_parse_jsonl, data)
        # The one difference: the stream parses the lines before an invalid
        # UTF-8 piece first, so a bad line there is raised in its place.
        earlier = None
        if isinstance(want, tuple) and "not UTF-8" in want[0]:
            # the pieces before the one that fails to decode, each with its "\n"
            head = b"".join(p + b"\n" for p in data.split(b"\n")[: want[1] - 1])
            prefix = _outcome(whole_text_parse_jsonl, head)
            if isinstance(prefix, tuple) and prefix[0] != "empty trace":
                earlier = prefix
        for name, form in _input_forms(data).items():
            got = _outcome(lambda d: parse_trace(d, "jsonl"), form)
            if name == "text stream" and isinstance(want, tuple) and "not UTF-8" in want[0]:
                # a text stream decodes ahead of its lines: no line number,
                # and how far ahead depends on its buffer
                assert got in ((want[0].split(" at line ")[0], None), earlier), name
            elif earlier is not None:
                assert got == earlier, name
            else:
                assert got == want, name

    def test_a_bad_line_before_invalid_utf8_is_raised_first(self):
        data = b"{nope\n" + _ingest_line(1).encode() + b"\n\xff\n"
        with pytest.raises(TraceFormatError, match="not UTF-8 .* at line 3"):
            whole_text_parse_jsonl(data)
        for form in (data, io.BytesIO(data)):
            with pytest.raises(TraceFormatError, match="Expecting .* at line 1"):
                parse_trace(form, "jsonl")

    @pytest.mark.parametrize("brk", ["\r", "\r\n", "\u2028", "\x85", "\x0c"],
                             ids=["cr", "crlf", "u2028", "nel", "ff"])
    def test_line_numbers_count_every_line_break(self, brk):
        text = _ingest_line(1) + brk + " \n{nope\n"  # line 2 is blank
        for form in (text, text.encode(), io.BytesIO(text.encode())):
            with pytest.raises(TraceFormatError, match="at line 3"):
                parse_trace(form, "jsonl")

    def test_decode_error_counts_newlines_only(self):
        data = _ingest_line(1).encode() + b"\r" + _ingest_line(2).encode() + b"\n\xe2\x82\n"
        with pytest.raises(TraceFormatError, match="not UTF-8 .* at line 2"):
            parse_trace(io.BytesIO(data), "jsonl")

    def test_reads_the_file_a_line_at_a_time(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(trace_to_jsonl(make_trace([{MAC_A: -60.0}] * 3)))

        class Lines(io.BytesIO):
            def read(self, *args):
                raise AssertionError("the JSONL parser read the whole file")

        assert len(parse_trace(Lines(path.read_bytes()), "jsonl")) == 3
        assert read_trace_file(path) == parse_trace(path.read_bytes(), "jsonl")


class TestIngestMemory:
    """tracemalloc counts Python allocations exactly, so these bounds are not
    timing-dependent: the whole file text, or a second rendering of the trace
    for the hash, would each break them."""

    def test_read_and_hash_stay_small(self, tmp_path):
        trace = generate_synthetic(SynthConfig(num_aps=32, duration=2000, base_dbm=-65.0,
                                               step_stddev=2.0, seed=1))
        path = tmp_path / "dense.jsonl"
        path.write_text(trace_to_jsonl(trace))
        size = path.stat().st_size
        del trace
        tracemalloc.start()
        try:
            loaded = read_trace_file(path)
            _, read_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            digest = trace_content_hash(loaded)
            _, hash_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert size > 4_000_000
        assert read_peak < size
        assert hash_peak - before < 1_000_000
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


class TestColumns:
    @settings(max_examples=200, deadline=None)
    @given(levels=st.dictionaries(st.integers(0, 40).map(mac),
                                  st.sampled_from([-60.0, -60.5, -75.0, -0.0, 0.0])
                                  | st.floats(-100.0, 0.0), min_size=1, max_size=8),
           rnd=st.randoms(use_true_random=False), threshold=st.sampled_from([-100.0, -70.0, 0.0]))
    def test_column_order_changes_no_answer(self, levels, rnd, threshold):
        canonical = make_sample(0, levels)
        pairs = list(zip(canonical.bssids, canonical.rssis))
        rnd.shuffle(pairs)
        shuffled = replace(canonical, bssids=tuple(b for b, _ in pairs),
                           rssis=tuple(r for _, r in pairs))
        top = canonical.candidates[0]
        for sample in (canonical, shuffled):
            best = strongest(sample)
            assert best == top
            assert math.copysign(1.0, best.rssi) == math.copysign(1.0, top.rssi)
        for assoc in (*canonical.bssids, "AA:00:00:00:FF:FF"):
            state = AssociationState(associated=assoc, threshold=threshold)
            assert legacy_decide(ContextWindow((shuffled,), 1), state) == legacy_decide(
                ContextWindow((canonical,), 1), state
            )

    def test_candidates_is_a_view_of_the_columns(self):
        sample = make_sample(0, {MAC_A: -70.0, MAC_B: -60.0})
        assert sample.bssids == (MAC_B, MAC_A)
        assert sample.rssis == (-60.0, -70.0)
        assert sample.candidates == (ApObservation(MAC_B, -60.0), ApObservation(MAC_A, -70.0))
        assert sample.candidates is not sample.candidates  # built on each read, not cached
