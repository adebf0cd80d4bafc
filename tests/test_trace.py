"""Trace model: parsing, validation, windowing, synthesis, round-trips."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    MAC_A,
    MAC_B,
    FakeJsonConnection,
    mac,
    make_sample,
    make_trace,
    reference_synthetic,
    round_trips,
    trace_to_csv,
)
from roamsim.agent import PromptConfig, synthesize_reasoning
from roamsim.errors import TraceFormatError
from roamsim.export import REJECTED_SECOND_BEST, export_preferences
from roamsim.policies import AssociationPlan, ExternalPolicy, legacy_decide
from roamsim.roaming import AssociationState, rssi_of, should_scan
from roamsim.runner import read_trace_file, trace_content_hash
from roamsim.trace import (
    SYNTH_MAX_APS,
    T_MAX,
    ApObservation,
    ScanSample,
    SynthConfig,
    Trace,
    _check_activity,
    _check_float,
    _check_timestamp,
    _csv_cell,
    _csv_context,
    _opt_float,
    canonical_mac,
    generate_synthetic,
    parse_trace,
    ranked,
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
            assert [s.timestamp for s in trace.samples] == [-62135596800, 253402300799]

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

    @pytest.mark.parametrize("extra, message", [
        ('"rssi_dbm":"-6_1.5"}]', "bad rssi '-6_1.5'"),
        ('"rssi_dbm":"-60"}]', "bad rssi '-60'"),
        ('"rssi_dbm":-60}],"lat":"1.5"', "bad latitude '1.5'"),
        ('"rssi_dbm":-60}],"lon":""', "bad longitude ''"),
        ('"rssi_dbm":-60}],"battery_pct":" 88 "', "bad battery_pct ' 88 '"),
        ('"rssi_dbm":-60}],"activity":""', "bad activity ''"),
    ], ids=["rssi-underscore", "rssi-string", "lat-string", "lon-empty", "battery-spaces",
            "activity-empty"])
    def test_json_strings_are_not_numbers(self, extra, message):
        text = (
            '{"t":0,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}]}\n'
            f'{{"t":1,"scan":[{{"bssid":"aa:00:00:00:00:01",{extra}}}\n'
        )
        with pytest.raises(TraceFormatError, match=f"malformed line: {message} at line 2$"):
            parse_trace(text, "jsonl")

    def test_string_timestamp_is_refused(self):
        text = '{"t":"12","scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}]}\n'
        with pytest.raises(TraceFormatError, match="bad timestamp '12' at line 1$"):
            parse_trace(text, "jsonl")

    def test_null_context_is_absent(self):
        line = ('{"t":0,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}],'
                '"lat":null,"lon":null,"battery_pct":null,"activity":null}')
        s = parse_trace(line, "jsonl").samples[0]
        assert (s.latitude, s.longitude, s.battery_pct, s.activity) == (None, None, None, "active")

    @pytest.mark.parametrize("line, message", [
        ('{"t":1.5,"scan":[]}', "bad timestamp 1.5"),
        ('{"t":1,"scan":{}}', "scan must be a list"),
    ], ids=["fractional-t", "scan-object"])
    def test_malformed_record_names_the_line(self, line, message):
        text = '{"t":0,"scan":[{"bssid":"aa:00:00:00:00:01","rssi_dbm":-60}]}\n' + line + "\n"
        with pytest.raises(TraceFormatError, match=f"malformed line: {message} at line 2"):
            parse_trace(text, "jsonl")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown trace format: 'xml'"):
            parse_trace("", "xml")

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
        assert s.latitude == 37.4
        assert s.battery_pct == 81.5
        assert s.activity == "idle"

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

    # Each cell is one json.loads refuses; float() reads all but the last.
    @pytest.mark.parametrize("column, cell, name", [
        ("t", "1_0", "timestamp"), ("t", "+5", "timestamp"), ("rssi_dbm", "-6_1.5", "rssi"),
        ("rssi_dbm", "-.5", "rssi"), ("lat", "012", "latitude"), ("lon", ".5", "longitude"),
        ("battery_pct", "+5", "battery_pct"), ("battery_pct", " 1_0", "battery_pct"),
        ("lat", "0x10", "latitude"),  # float() refuses it too
    ])
    def test_a_number_cell_is_read_as_json(self, column, cell, name):
        cells = {"t": "1", "rssi_dbm": "-60", "lat": "", "lon": "", "battery_pct": "", column: cell}
        text = ("t,bssid,rssi_dbm,lat,lon,battery_pct\n0,aa:00:00:00:00:01,-60,,,\n"
                "{t},aa:00:00:00:00:01,{rssi_dbm},{lat},{lon},{battery_pct}\n".format(**cells))
        with pytest.raises(TraceFormatError, match=f"bad {name} '{re.escape(cell)}' at line 3$"):
            parse_trace(text, "csv")

    @pytest.mark.parametrize("second, message", [
        ("bogus,2.0,50,idle", "malformed line: bad latitude 'bogus'"),
        ("9.0,2.0,50,idle", "device context differs from the step's first row"),
        ("1.0,2.0,50,active", "device context differs from the step's first row"),
        (",2.0,50,idle", "device context differs from the step's first row"),
        ("1.0,2.0,51,idle", "device context differs from the step's first row"),
    ], ids=["bad-lat", "other-lat", "other-activity", "absent-lat", "other-battery"])
    def test_every_row_of_a_step_holds_its_context(self, second, message):
        text = ("t,bssid,rssi_dbm,lat,lon,battery_pct,activity\n"
                "0,aa:00:00:00:00:01,-60,1.0,2.0,50,idle\n"
                f"0,aa:00:00:00:00:02,-70,{second}\n")
        with pytest.raises(TraceFormatError, match=f"{re.escape(message)} at line 3$"):
            parse_trace(text, "csv")

    def test_rows_agree_on_a_context_however_it_is_spelled(self):
        text = ("t,bssid,rssi_dbm,lat,lon,battery_pct,activity\n"
                "0,aa:00:00:00:00:01,-60,1.0,2,50,\n"
                "0,aa:00:00:00:00:02,-70,1,2.0,5e1,active\n")
        s = parse_trace(text, "csv").samples[0]
        assert (s.latitude, s.longitude, s.battery_pct, s.activity) == (1.0, 2.0, 50.0, "active")


class TestReadmeFormats:
    """README's data-format section states what the parser reads."""

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

    def test_jsonl_example_parses(self):
        block = self.readme.split("```json\n", 1)[1].split("```", 1)[0]
        [sample] = parse_trace(" ".join(block.splitlines()), "jsonl").samples
        assert sample == ScanSample(12, (MAC_A,), (-61.5,), MAC_A, 37.4, -122.1, 88.0, "active")

    def test_csv_header_is_the_columns_the_parser_reads(self, monkeypatch):
        header = re.search(r"`(t,bssid,[\w,]*)`", self.readme).group(1)
        read = []

        class Row(dict):
            def get(self, key, default=None):
                read.append(key)
                return super().get(key, default)

            def __getitem__(self, key):
                read.append(key)
                return super().__getitem__(key)

        class Reader(csv.DictReader):
            def __next__(self):
                return Row(super().__next__())

        monkeypatch.setattr(csv, "DictReader", Reader)
        parse_trace(f"{header}\n0,aa:00:00:00:00:01,-60,1.5,2.5,50,idle\n", "csv")
        assert list(dict.fromkeys(read)) == header.split(",")


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


def sample_to_dict(sample: ScanSample) -> dict:
    """Reference for jsonl_line: the sample as the dict json.dumps writes."""
    rec: dict = {
        "t": sample.timestamp,
        "scan": [{"bssid": b, "rssi_dbm": r} for b, r in zip(sample.bssids, sample.rssis)],
    }
    if sample.associated is not None:
        rec["assoc"] = sample.associated
    if sample.latitude is not None:
        rec["lat"] = sample.latitude
    if sample.longitude is not None:
        rec["lon"] = sample.longitude
    if sample.battery_pct is not None:
        rec["battery_pct"] = sample.battery_pct
    rec["activity"] = sample.activity
    return rec


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

    @settings(max_examples=200, deadline=None)
    @given(samples=st.lists(valid_samples(), min_size=1, max_size=4), data=st.data())
    def test_external_body_equals_json_dumps(self, samples, data):
        window = tuple(samples)
        state = AssociationState(
            associated=data.draw(st.sampled_from((None, *window[-1].bssids))),
            threshold=data.draw(st.floats(-100.0, 0.0)),
        )
        conn = FakeJsonConnection({"action": "stay"})
        ExternalPolicy("http://127.0.0.1:1/decide", conn).decide(window, state)
        want = json.dumps({
            "window": [sample_to_dict(s) for s in window],
            "state": {"associated": state.associated, "threshold": state.threshold},
        }, allow_nan=False).encode()
        posted = should_scan(rssi_of(window[-1], state.associated), state.threshold)
        assert conn.bodies == ([want] if posted else [])

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 500), k=st.integers(1, 12))
    def test_external_bodies_over_a_run_equal_json_dumps(self, seed, k):
        # one policy over every window of a run, so lines are reused across calls
        trace = generate_synthetic(SynthConfig(num_aps=4, duration=30, step_stddev=4.0,
                                               emit_location=True,
                                               battery_drain_pct_per_step=0.7, seed=seed))
        conn = FakeJsonConnection({"action": "stay"})
        policy = ExternalPolicy("http://127.0.0.1:1/decide", conn)
        state = AssociationState(associated=None, threshold=0.0)  # every step posts
        for t in range(len(trace)):
            win = window(trace, t, k)
            policy.decide(win, state)
            assert conn.bodies[-1] == json.dumps({
                "window": [sample_to_dict(s) for s in win],
                "state": {"associated": None, "threshold": 0.0},
            }, allow_nan=False).encode()
            assert set(policy._lines) == set(win)  # only the current window is held
        assert len(conn.bodies) == len(trace)

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
        sample = ScanSample(timestamp=0, bssids=(MAC_A, MAC_A), rssis=(-60.0, -61.0))
        with pytest.raises(TraceFormatError, match="duplicate bssid"):
            round_trips(Trace(samples=(sample,)))


class TestSampleHash:
    def test_equal_samples_hash_equal(self):
        a = make_sample(5, {MAC_A: -60.0, MAC_B: -70.0}, lat=1.0, lon=2.0, battery=50.0)
        b = make_sample(5, {MAC_B: -70.0, MAC_A: -60.0}, lat=1.0, lon=2.0, battery=50.0)
        assert a == b and a is not b
        assert hash(a) == hash(b)

    def test_unequal_samples_at_one_time_stay_two_keys(self):
        first = make_trace([{MAC_A: -60.0}, {MAC_A: -61.0}]).samples[1]
        second = make_trace([{MAC_A: -60.0}, {MAC_B: -61.0}]).samples[1]
        assert first.timestamp == second.timestamp and first != second
        memo = {first: "first", second: "second"}
        assert len(memo) == 2
        assert (memo[first], memo[second]) == ("first", "second")


class TestWindow:
    def test_full_window_at_t9_k10(self):
        trace = make_trace([{MAC_A: -60.0}] * 20)
        win = window(trace, 9, 10)
        assert win == trace.samples[:10]  # the trace's own tuple, sliced
        assert [s.timestamp for s in win] == list(range(10))

    def test_trace_start_truncates(self):
        trace = make_trace([{MAC_A: -60.0}] * 20)
        assert len(window(trace, 0, 10)) == 1

    def test_k1_returns_single(self):
        trace = make_trace([{MAC_A: -60.0}] * 20)
        win = window(trace, 19, 1)
        assert [s.timestamp for s in win] == [19]

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
        assert len(window(trace, t, k)) == min(t + 1, k)


class TestSynthetic:
    def test_every_synthetic_ap_gets_its_own_bssid(self):
        trace = generate_synthetic(SynthConfig(num_aps=SYNTH_MAX_APS, duration=1))
        assert len(set(trace.samples[0].bssids)) == SYNTH_MAX_APS
        assert round_trips(trace)

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

    @pytest.mark.parametrize("field, value, message", [
        ("step_stddev", math.nan, "step_stddev"), ("step_stddev", math.inf, "step_stddev"),
        ("base_dbm", math.nan, "base_dbm"), ("base_dbm", -math.inf, "base_dbm"),
        ("base_dbm", (-60.0, math.nan, -70.0, -80.0), "base_dbm"),
        ("battery_drain_pct_per_step", math.nan, "battery_drain"),
        ("battery_drain_pct_per_step", math.inf, "battery_drain"),
    ])
    def test_non_finite_settings_rejected(self, field, value, message):
        # each once gave a trace: NaN bases at the -30 dBm ceiling, NaN drain
        # at 100 % battery on every step
        with pytest.raises(ValueError, match=message):
            generate_synthetic(replace(SynthConfig(), **{field: value}))

    @pytest.mark.parametrize("field, value, message", [
        ("duration", 0, "duration must be >= 1"),
        ("sample_interval", 0, "sample_interval must be >= 1"),
        ("activity", "running", "bad activity 'running'"),
    ], ids=["duration", "sample_interval", "activity"])
    def test_out_of_range_settings_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            generate_synthetic(replace(SynthConfig(), **{field: value}))

    @settings(max_examples=200, deadline=None)
    @given(num_aps=st.integers(1, 4), duration=st.integers(1, 12),
           base=st.floats(-200.0, 100.0) | st.lists(st.floats(-200.0, 100.0), min_size=1,
                                                    max_size=4).map(tuple),
           stddev=st.floats(0.0, 30.0),
           floor=st.floats(-200.0, 50.0) | st.sampled_from([-100.0, 0.0, math.nan]),
           ceil=st.floats(-200.0, 50.0) | st.sampled_from([-100.0, 0.0, math.nan]),
           location=st.booleans(), drain=st.none() | st.floats(-20.0, 20.0),
           seed=st.integers(0, 1000))
    @example(num_aps=2, duration=20, base=-5.0, stddev=15.0, floor=-150.0, ceil=20.0,
             location=False, drain=None, seed=0)
    def test_any_config_is_refused_or_gives_a_trace_that_parses(
        self, num_aps, duration, base, stddev, floor, ceil, location, drain, seed
    ):
        # a level past [-100, 0] dBm once gave a trace parse_trace refuses
        cfg = SynthConfig(num_aps=num_aps, duration=duration, base_dbm=base, step_stddev=stddev,
                          floor_dbm=floor, ceil_dbm=ceil, emit_location=location,
                          battery_drain_pct_per_step=drain, seed=seed)
        try:
            trace = generate_synthetic(cfg)
        except ValueError:
            return
        assert round_trips(trace)

    @settings(max_examples=150, deadline=None)
    @given(num_aps=st.integers(1, 9), duration=st.integers(1, 30),
           base=st.floats(-100.0, 0.0) | st.lists(st.floats(-100.0, 0.0), min_size=9,
                                                  max_size=9).map(tuple),
           stddev=st.just(0.0) | st.floats(0.0, 30.0), floor=st.floats(-100.0, -50.0),
           ceil=st.floats(-49.0, 0.0), location=st.booleans(),
           drain=st.none() | st.floats(0.0, 5.0), seed=st.integers(0, 2**64))
    def test_draws_are_those_of_random_gauss(
        self, num_aps, duration, base, stddev, floor, ceil, location, drain, seed
    ):
        cfg = SynthConfig(num_aps=num_aps, duration=duration,
                          base_dbm=base[:num_aps] if isinstance(base, tuple) else base,
                          step_stddev=stddev, floor_dbm=floor, ceil_dbm=ceil,
                          emit_location=location, battery_drain_pct_per_step=drain, seed=seed)
        trace, reference = generate_synthetic(cfg), reference_synthetic(cfg)
        assert trace == reference
        assert trace_to_jsonl(trace) == trace_to_jsonl(reference)  # signed zeros too

    def test_timestamps_stay_inside_the_ingest_range(self):
        with pytest.raises(ValueError, match="9999"):
            generate_synthetic(SynthConfig(duration=3, sample_interval=10**12))
        edge = generate_synthetic(SynthConfig(duration=2, sample_interval=T_MAX))
        assert edge.samples[-1].timestamp == T_MAX
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
# Streaming ingest against the whole-text parsers it replaced

def _decode_whole(data) -> str:
    """The whole input as text; a decode error names the line after the `\n`s
    before it, or none for a text stream."""
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
    return data


def whole_text_parse_jsonl(data) -> Trace:
    """Reference for parse_trace(data, "jsonl"): the whole-text parser.

    It decodes the whole input, splits it with str.splitlines and parses line
    by line, as the package did before JSONL ingest streamed. The per-field
    checks are the package's own.
    """
    data = _decode_whole(data)
    samples = []
    prev_t = None
    for line_no, line in enumerate(data.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"malformed line: {exc.msg}", line_no) from None
        except (ValueError, RecursionError) as exc:
            raise TraceFormatError(f"malformed line: {exc}", line_no) from None
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
        samples.append(ScanSample(
            timestamp=t,
            bssids=tuple(b for _, b in entries),
            rssis=tuple(-r for r, _ in entries),
            associated=assoc,
            latitude=_opt_float(rec.get("lat"), line_no, "latitude", -90.0, 90.0),
            longitude=_opt_float(rec.get("lon"), line_no, "longitude", -180.0, 180.0),
            battery_pct=_opt_float(rec.get("battery_pct"), line_no, "battery_pct", 0.0, 100.0),
            activity=_check_activity(rec.get("activity"), line_no),
        ))
    if not samples:
        raise TraceFormatError("empty trace")
    return Trace(samples=tuple(samples))


def whole_text_parse_csv(data) -> Trace:
    """Reference for parse_trace(data, "csv"): the whole-text parser.

    It decodes the whole input and runs csv.DictReader over io.StringIO, as
    the package did before CSV ingest streamed, with the package's own
    per-field checks and cell reading. A step's rows share its t and its
    device context; the step is checked when the next one starts, or at the
    end. StringIO reads `\r` and `\r\n` as `\n`,
    which is what the stream does with them, but no other line break. The
    stream ends every line with `\n`, the last one too, which only a quoted
    field left open at the end can hold; so the text gets a final `\n` here
    when it has no final line break.
    """
    text = _decode_whole(data)
    if text and text[-1] not in "\r\n":
        text += "\n"
    reader = csv.DictReader(io.StringIO(text, newline=None))
    rows = reader.reader  # its line_num counts the line it read last
    samples = []
    step = None  # (t, line, [(line, row)], [(-rssi, bssid)]) of the step being read

    def close(t, line, rows, entries):
        if samples and t <= samples[-1].timestamp:
            raise TraceFormatError("non-monotone timestamps", line)
        seen = set()
        for _, bssid in entries:
            if bssid in seen:
                raise TraceFormatError(f"duplicate bssid {bssid}", line)
            seen.add(bssid)
        entries.sort()
        contexts = [(row_line, _csv_context(row, row_line)) for row_line, row in rows]
        for row_line, context in contexts:
            if context != contexts[0][1]:
                raise TraceFormatError("device context differs from the step's first row",
                                       row_line)
        lat, lon, battery, activity = contexts[0][1]
        samples.append(ScanSample(
            timestamp=t,
            bssids=tuple(b for _, b in entries),
            rssis=tuple(-r for r, _ in entries),
            latitude=lat, longitude=lon, battery_pct=battery, activity=activity,
        ))

    try:
        if reader.fieldnames is None:
            raise TraceFormatError("empty trace")
        missing = {"t", "bssid", "rssi_dbm"} - set(reader.fieldnames)
        if missing:
            raise TraceFormatError(f"missing csv columns: {sorted(missing)}", 1)
        for row in reader:
            line = rows.line_num
            t = _check_timestamp(_csv_cell(row, "t"), line)
            try:
                bssid = canonical_mac(row.get("bssid") or "")
            except ValueError as exc:
                raise TraceFormatError(f"malformed line: {exc}", line) from None
            rssi = _check_float(_csv_cell(row, "rssi_dbm"), line)
            if step is None or step[0] != t:
                if step is not None:
                    close(*step)
                step = (t, line, [], [])
            step[2].append((line, row))
            step[3].append((-rssi, bssid))
    except csv.Error as exc:
        raise TraceFormatError(f"malformed line: {exc}", rows.line_num) from None
    if step is not None:
        close(*step)
    if not samples:
        raise TraceFormatError("empty trace")
    return Trace(samples=tuple(samples))


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


CSV_HEADERS = [b"t,bssid,rssi_dbm,lat,lon,battery_pct,activity"] * 3 + [
    b"t,bssid,rssi_dbm", b"t,bssid,rssi_dbm", b"rssi_dbm,t,bssid,activity", b"t,bssid", b""]
CSV_MACS = ["aa-00-00-00-00-01", "AA:00:00:00:00:02", "aa:00:00:00:00:03"]
CSV_RSSIS = ["-60", "-61.5", "-0.0", "-1e-05", "-100"]
CSV_CONTEXTS = ["", ",37.4,-122.1,88,idle", ",,,,active", ',"1.5",,,"idle"']
# Rows each rule rejects, quoted fields that hold a line break or never end,
# and non-ASCII text.
CSV_BAD_PIECES = [
    "early-t", b"   ", b"0,zz,-60", b"x,aa:00:00:00:00:01,-60", b"1e400,aa:00:00:00:00:01,-60",
    b"1,aa:00:00:00:00:01,5", b"1,aa:00:00:00:00:01,-60,95,,,",
    b"1,aa:00:00:00:00:01,-60,,,,walk", b'1,aa:00:00:00:00:01,-60,,,,"id\nle"', b'1,"aa',
    b'"9\n",aa:00:00:00:00:01,-60', "caf\u00e9,\u20ac".encode(), b"1,aa:00:00:00:00:01,-60\x00",
]
# Line breaks StringIO reads as the stream does; no piece holds any other.
CSV_BREAKS = [b"\n", b"\n", b"\r\n", b"\r", b"\n\n", b""]
_OTHER_BREAK_BYTES = b"\x0b\x0c\x1c\x1d\x1e\x85\xa8\xa9"  # with \xc2 or \xe2\x80, a break


@st.composite
def csv_bytes(draw) -> bytes:
    """A CSV file, drawn as jsonl_bytes draws a JSONL one."""
    mode = draw(st.sampled_from(["clean", "text", "bytes", "any"]))
    pieces = ["row", "row", "next", b""] + (CSV_BAD_PIECES if mode in ("text", "any") else [])
    pieces += NOT_UTF8_PIECES if mode in ("bytes", "any") else []
    breaks = CSV_BREAKS[:-1] if mode == "clean" else CSV_BREAKS  # b"" joins two lines
    out = [draw(st.sampled_from(CSV_HEADERS)) + draw(st.sampled_from(breaks[:-1]))]
    t, used = 0, set()
    for _ in range(draw(st.integers(0, 10))):
        piece = draw(st.sampled_from(pieces))
        if piece in ("row", "next", "early-t"):
            fresh = [m for m in CSV_MACS if m not in used]
            if piece == "next" or not fresh:
                t, used, fresh = t + draw(st.integers(1, 3)), set(), CSV_MACS
            bssid = draw(st.sampled_from(fresh))
            used.add(bssid)
            piece = (f"{t - 1 if piece == 'early-t' else t},{bssid},"
                     f"{draw(st.sampled_from(CSV_RSSIS))}"
                     f"{draw(st.sampled_from(CSV_CONTEXTS))}").encode()
        elif piece == "any bytes":
            piece = draw(st.binary(max_size=4)).translate(None, _OTHER_BREAK_BYTES)
        out.append(piece + draw(st.sampled_from(breaks)))
    return b"".join(out)


def _csv_text(breaks: str = "\n") -> str:
    text = trace_to_csv(make_trace([{MAC_A: -60.0, MAC_B: -70.5}, {MAC_A: -62.0}]))
    return text.replace("\n", breaks)


class TestStreamingCsv:
    @settings(max_examples=400, deadline=None)
    @given(data=csv_bytes())
    def test_equals_the_whole_text_parser(self, data):
        want = _outcome(whole_text_parse_csv, data)
        if not (isinstance(want, tuple) and "not UTF-8" in want[0]):
            for name, form in _input_forms(data).items():
                assert _outcome(lambda d: parse_trace(d, "csv"), form) == want, name
            return
        # The stream reads the rows before the piece that fails to decode
        # first, so their error may come in its place; one the whole-text
        # parser finds only when those rows end (a step checked at the end,
        # a quoted field cut off) may not.
        head = b"".join(p + b"\n" for p in data.split(b"\n")[: want[1] - 1])
        earlier = _outcome(whole_text_parse_csv, head)
        for name, form in _input_forms(data).items():
            got = _outcome(lambda d: parse_trace(d, "csv"), form)
            # a text stream decodes ahead of its lines, as for JSONL
            decode = (want[0].split(" at line ")[0], None) if name == "text stream" else want
            assert got in (decode, earlier), name

    def test_a_text_stream_cut_off_at_the_end_fails_before_its_lines(self):
        data = b"t,bssid\r\r\xe2\x82"  # the header alone would lack rssi_dbm
        with pytest.raises(TraceFormatError) as exc:
            parse_trace(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), "csv")
        assert (str(exc.value), exc.value.line) == (
            "malformed line: not UTF-8 (unexpected end of data)", None)

    @pytest.mark.parametrize("brk", ["\r", "\r\n", "\u2028", "\x85", "\x0c"],
                             ids=["cr", "crlf", "u2028", "nel", "ff"])
    def test_every_line_break_ends_a_row(self, brk):
        text = _csv_text(brk)
        for form in (text, text.encode(), io.BytesIO(text.encode())):
            assert parse_trace(form, "csv") == parse_trace(_csv_text(), "csv")
        bad = "t,bssid,rssi_dbm" + brk + brk + "0,zz,-60\n"  # line 2 is blank
        for form in (bad, bad.encode(), io.BytesIO(bad.encode())):
            with pytest.raises(TraceFormatError, match="not a MAC address: 'zz' at line 3"):
                parse_trace(form, "csv")

    def test_a_quoted_field_keeps_its_line_break(self):
        text = 't,bssid,rssi_dbm,activity\r0,aa:00:00:00:00:01,-60,"id\rle"\r'
        with pytest.raises(TraceFormatError, match="bad activity 'id\\\\nle' at line 3"):
            parse_trace(text, "csv")

    def test_a_quoted_field_open_at_the_end_ends_in_a_line_break(self):
        text = "t,bssid,rssi_dbm\n0,aa:00:00:00:00:01,-60\n1,\"aa"
        for end in ("", "\n", "\r"):
            with pytest.raises(TraceFormatError, match="address: 'aa\\\\n' at line 3$"):
                parse_trace(text + end, "csv")

    @pytest.mark.parametrize("line", [1, 2])
    def test_over_long_field_names_its_line(self, line):
        rows = ["t,bssid,rssi_dbm", "0,aa:00:00:00:00:01,-60", "1,aa:00:00:00:00:01,-60"]
        rows[line - 1] += "," + "x" * 131073
        with pytest.raises(TraceFormatError, match=f"field larger than .* at line {line}$"):
            parse_trace("\n".join(rows), "csv")

    def test_decode_error_counts_newlines_only(self):
        data = b"t,bssid,rssi_dbm\r0,aa:00:00:00:00:01,-60\n\xe2\x82\n"
        with pytest.raises(TraceFormatError, match="not UTF-8 .* at line 2"):
            parse_trace(io.BytesIO(data), "csv")

    def test_reads_the_file_a_line_at_a_time(self):
        class Lines(io.BytesIO):
            def read(self, *args):
                raise AssertionError("the CSV parser read the whole file")

        text = _csv_text()
        assert parse_trace(Lines(text.encode()), "csv") == parse_trace(text, "csv")


DEEP_JSONL = b"[" * 100_000
LONG_INT_JSONL = b'{"t": ' + b"1" * 5000 + b', "scan": []}'


class TestTotality:
    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(), fmt=st.sampled_from(["jsonl", "csv"]))
    @example(data=_csv_text("\r").encode(), fmt="csv")
    @example(data=b"t,bssid,rssi_dbm\n0," + b"x" * 131073 + b",-60\n", fmt="csv")
    @example(data=DEEP_JSONL, fmt="jsonl")
    @example(data=LONG_INT_JSONL, fmt="jsonl")
    def test_any_bytes_parse_or_raise_trace_format_error(self, data, fmt):
        try:
            parse_trace(data, fmt)
        except TraceFormatError:
            pass

    @pytest.mark.parametrize("line, message", [
        (DEEP_JSONL, "maximum recursion depth exceeded"),
        (LONG_INT_JSONL, "Exceeds the limit \\(4300 digits\\)"),
    ], ids=["deep", "long-int"])
    def test_json_past_the_decoder_limits_names_its_line(self, line, message):
        data = _ingest_line(1).encode() + b"\n" + line + b"\n"
        with pytest.raises(TraceFormatError, match=f"malformed line: {message}.* at line 2$"):
            parse_trace(data, "jsonl")


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
            assert ranked(sample) == list(canonical.candidates)
            best = strongest(sample)
            assert best == top
            assert math.copysign(1.0, best.rssi) == math.copysign(1.0, top.rssi)
        for assoc in (*canonical.bssids, "AA:00:00:00:FF:FF"):
            state = AssociationState(associated=assoc, threshold=threshold)
            assert legacy_decide((shuffled,), state) == legacy_decide((canonical,), state)
            for gold in (assoc, top.bssid):  # the shot reasoning names the strongest AP
                assert (synthesize_reasoning((shuffled,), assoc, gold)
                        == synthesize_reasoning((canonical,), assoc, gold))
        plan = AssociationPlan((top.bssid,), "min_ho", 0.0, 0)

        def rejected(sample):  # the second_best export rejects the runner-up AP
            out = io.StringIO()
            export_preferences(Trace((sample,)), plan, REJECTED_SECOND_BEST, PromptConfig(), out)
            return [json.loads(line)["rejected"] for line in out.getvalue().splitlines()]

        assert rejected(shuffled) == rejected(canonical)

    def test_candidates_is_a_view_of_the_columns(self):
        sample = make_sample(0, {MAC_A: -70.0, MAC_B: -60.0})
        assert sample.bssids == (MAC_B, MAC_A)
        assert sample.rssis == (-60.0, -70.0)
        assert sample.candidates == (ApObservation(MAC_B, -60.0), ApObservation(MAC_A, -70.0))
        assert sample.candidates is not sample.candidates  # built on each read, not cached
