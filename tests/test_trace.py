"""Trace model: parsing, validation, windowing, synthesis, round-trips."""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MAC_A, MAC_B, mac, make_sample, make_trace
from roamsim.errors import TraceFormatError
from roamsim.runner import trace_content_hash
from roamsim.trace import (
    ApObservation,
    SynthConfig,
    Trace,
    canonical_mac,
    generate_synthetic,
    parse_trace,
    sample_to_dict,
    trace_to_csv,
    trace_to_jsonl,
    validate_trace,
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
        assert [v.rule for v in validate_trace(trace)] == ["bad bssid"]


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
    """Samples validate_trace accepts, with every optional field drawn."""
    rssi = st.one_of(st.floats(-100.0, 0.0), st.sampled_from([-0.0, 0.0, -1e-05, -100.0]))
    num_aps = draw(st.integers(1, 6))
    levels = {mac(i): draw(rssi) for i in draw(st.sets(st.integers(0, 300), min_size=1,
                                                       max_size=num_aps))}
    opt = lambda lo, hi: st.one_of(st.none(), st.floats(lo, hi))  # noqa: E731
    return make_sample(
        draw(st.integers(0, 10**12)), levels,
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
        assert all(validate_trace(Trace(samples=(s,))) == [] for s in samples)
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
        assert validate_trace(trace) == []

    def test_rssi_out_of_range_flagged(self):
        trace = make_trace([{MAC_A: 5.0}])
        violations = validate_trace(trace)
        assert any(v.rule == "rssi out of range" and v.index == 0 for v in violations)

    def test_duplicate_bssid_flagged(self):
        from roamsim.trace import ApObservation, DeviceContext, ScanSample, Trace

        sample = ScanSample(
            context=DeviceContext(timestamp=0),
            candidates=(
                ApObservation(bssid=MAC_A, rssi=-60.0),
                ApObservation(bssid=MAC_A, rssi=-61.0),
            ),
        )
        violations = validate_trace(Trace(samples=(sample,)))
        assert any(v.rule == "duplicate bssid" for v in violations)

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
        assert any(v.rule == "irregular sample spacing" for v in validate_trace(bumped))


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
        assert validate_trace(trace) == []

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(SynthConfig(num_aps=0))
        with pytest.raises(ValueError):
            generate_synthetic(SynthConfig(step_stddev=-1.0))
        with pytest.raises(ValueError):
            generate_synthetic(SynthConfig(floor_dbm=-40.0, ceil_dbm=-90.0))
