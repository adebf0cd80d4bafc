"""Prompt construction, reply parsing, agent decisions, and the scheduler."""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import MAC_A, MAC_B, MAC_C, band_synth, make_sample, make_trace
from roamsim import agent
from roamsim.agent import (
    CONTEXT_FIELDS,
    FewShotExample,
    PromptConfig,
    ap_select_decide,
    build_prompt,
    build_shot_pool,
    load_template,
    parse_ap_response,
    parse_threshold_response,
    render_window_block,
    threshold_schedule_step,
)
from roamsim.errors import ConfigError
from roamsim.gateway import MockClient, MockRule
from roamsim.policies import OracleConstraints, legacy_decide, oracle_opt_ho
from roamsim.roaming import AssociationState
from roamsim.runner import ExperimentConfig, PolicySpec, run_experiment
from roamsim.trace import T_MAX, T_MIN, generate_synthetic, window


def state_at(threshold=-70.0, associated=MAC_A, **kw):
    return AssociationState(associated=associated, threshold=threshold, **kw)


def simple_window(levels=None, t=0, **ctx):
    trace = make_trace([levels or {MAC_A: -75.0, MAC_B: -60.0}])
    return window(trace, 0, 10)


class TestBuildPrompt:
    def test_byte_identical_across_calls(self):
        win = simple_window()
        cfg = PromptConfig()
        a = build_prompt(win, state_at(), cfg)
        b = build_prompt(win, state_at(), cfg)
        assert a == b

    def test_battery_excluded_unless_selected(self):
        trace = make_trace([{MAC_A: -75.0}])
        from dataclasses import replace

        sample = trace.samples[0]
        sample = replace(sample, battery_pct=87.0)
        trace = replace(trace, samples=(sample,))
        win = window(trace, 0, 10)
        no_battery = build_prompt(win, state_at(), PromptConfig(
            context_fields=frozenset({"location", "time"})))
        assert "battery" not in no_battery
        with_battery = build_prompt(win, state_at(), PromptConfig(
            context_fields=frozenset({"battery"})))
        assert "battery=87%" in with_battery

    def test_five_shot_contains_zero_shot_blocks(self):
        win = simple_window()
        zero = build_prompt(win, state_at(), PromptConfig(shots=0))
        shots = tuple(
            FewShotExample(window_text=f"t={i} | aps: {MAC_A}=-60.0\n",
                           answer=MAC_A, reasoning=f"trace {i} looks stable")
            for i in range(5)
        )
        five = build_prompt(win, state_at(), PromptConfig(shots=5), shots)
        # the preamble and the live window block of the 0-shot prompt both
        # appear verbatim inside the 5-shot prompt
        preamble, _, tail = zero.partition("Scan log")
        assert preamble in five
        assert ("Scan log" + tail) in five

    @pytest.mark.parametrize("kw, message", [
        (dict(style="verbose"), "bad style 'verbose'"),
        (dict(task="roam"), "bad task 'roam'"),
        (dict(shots=-1), "shots must be >= 0"),
        (dict(window_k=0), "window_k must be >= 1"),
        (dict(context_fields=frozenset({"time", "weather"})),
         "unknown context fields: \\['weather'\\]"),
    ], ids=["style", "task", "shots", "window_k", "context_fields"])
    def test_bad_prompt_settings_rejected(self, kw, message):
        with pytest.raises(ValueError, match=message):
            PromptConfig(**kw)

    def test_shot_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shot count mismatch"):
            build_prompt(simple_window(), state_at(), PromptConfig(shots=2), ())

    def test_cot_shots_require_reasoning(self):
        shot = FewShotExample(window_text="w\n", answer=MAC_A)
        with pytest.raises(ValueError, match="reasoning"):
            build_prompt(simple_window(), state_at(),
                         PromptConfig(shots=1, style="cot"), (shot,))

    def test_plain_shots_forbid_reasoning(self):
        shot = FewShotExample(window_text="w\n", answer=MAC_A, reasoning="because")
        with pytest.raises(ValueError, match="must not carry reasoning"):
            build_prompt(simple_window(), state_at(),
                         PromptConfig(shots=1, style="plain"), (shot,))

    def test_tasks_get_their_own_instruction(self):
        win = simple_window()
        ap = build_prompt(win, state_at(), PromptConfig(task="ap_select"))
        thr = build_prompt(win, state_at(), PromptConfig(task="threshold"))
        assert "ANSWER: <BSSID>" in ap
        assert "ANSWER: <threshold in dBm>" in thr

    def test_rows_render_time_and_location(self):
        trace = make_trace([{MAC_A: -75.0}])
        from dataclasses import replace

        sample = trace.samples[0]
        sample = replace(sample, timestamp=3723, latitude=37.4, longitude=-122.1)
        win = window(replace(trace, samples=(sample,)), 0, 10)
        text = build_prompt(win, state_at(), PromptConfig())
        assert "t=3723" in text
        assert "time=01:02:03" in text
        assert "lat=37.4 lon=-122.1" in text

    def test_template_override(self, tmp_path):
        path = tmp_path / "tpl.txt"
        path.write_text(
            "[preamble.ap_select]\n"
            "PICK AN AP (current {associated}, threshold {threshold})\n"
            "[row]\n"
            "ROW {t}: {aps}{context}\n",
            encoding="utf-8",
        )
        tpl = load_template(path)
        text = build_prompt(simple_window(), state_at(), PromptConfig(), template=tpl)
        assert text.startswith("PICK AN AP")
        assert "ROW 0:" in text

    # Each of these once raised out of build_prompt when the block was formatted.
    @pytest.mark.parametrize("section, body, shown", [
        ("row", "ROW {t} {bogus}", "{bogus}"),
        ("row", "ROW {0}", "{0}"),
        ("row", "ROW {}", "{}"),
        ("preamble.ap_select", "AT {associated.x}", "{associated.x}"),
        ("preamble.threshold", "AT {threshold[0]}", "{threshold[0]}"),
        ("shot", "{index:{width}}", "{width}"),
        ("shot", "{answer!z}", "{answer!z}"),
        ("row", "ROW } {t}", "Single '}'"),
    ], ids=["unknown", "positional", "empty", "attribute", "index", "nested", "conversion",
            "lone-brace"])
    def test_template_field_errors_name_file_section_and_field(
        self, tmp_path, section, body, shown
    ):
        path = tmp_path / "tpl.txt"
        path.write_text(f"[{section}]\n{body}\n", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_template(path)
        message = str(exc.value)
        assert str(path) in message and f"[{section}]" in message and shown in message

    @pytest.mark.parametrize("section, body, shown", [
        ("row", "ROW {t} {aps:d}", "{aps:d}"),
        ("row", "ROW {t:s}", "{t:s}"),
        ("row", "ROW {t!r:d}", "{t!r:d}"),
        ("preamble.threshold", "AT {threshold:.1f}", "{threshold:.1f}"),
        ("shot", "{index:,}{answer:=5}", "{answer:=5}"),
    ], ids=["str-as-int", "int-as-str", "repr-as-int", "str-as-float", "str-alignment"])
    def test_template_format_spec_errors_name_file_section_and_spec(
        self, tmp_path, section, body, shown
    ):
        path = tmp_path / "tpl.txt"
        path.write_text(f"[{section}]\n{body}\n", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_template(path)
        assert str(exc.value).startswith(f"template {path}: [{section}] {shown}: ")

    # Each of these loaded at the parent and then failed at the run's first
    # prompt: a nested field has no value at load time, and {t:c} held for t=0.
    @pytest.mark.parametrize("body, shown", [
        ("t={t:{aps}}", "{t:{aps}}: a format spec cannot hold a field"),
        ("t={t:>{context}}", "{t:>{context}}: a format spec cannot hold a field"),
        ("{aps:>{t}}", "{aps:>{t}}: a format spec cannot hold a field"),
        ("t={t:c}", "{t:c}: %c arg not in range(0x110000)"),
    ], ids=["nested-in-spec", "nested-width", "width-from-t", "char-of-t"])
    def test_specs_only_a_run_could_fill_are_refused(self, tmp_path, body, shown):
        path = tmp_path / "tpl.txt"
        path.write_text(f"[row]\n{body}\n", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_template(path)
        assert str(exc.value) == f"template {path}: [row] {shown}"

    def test_unknown_block_is_refused(self, tmp_path):
        path = tmp_path / "tpl.txt"
        path.write_text("[row]\nROW {t}\n[preambel.ap_select]\nPICK {associated}\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError, match=r"unknown block \[preambel\.ap_select\]") as exc:
            load_template(path)
        assert str(path) in str(exc.value)

    def test_format_specs_the_fields_take_load(self, tmp_path):
        path = tmp_path / "tpl.txt"
        path.write_text("[row]\nt={t:05d}{context:<2} | {aps!r:>8}\n"
                        "[shot]\n{index}: {answer:.3}\n", encoding="utf-8")
        text = build_prompt(simple_window(), state_at(), PromptConfig(),
                            template=load_template(path))
        assert "t=00000" in text

    def test_literal_braces_still_load(self, tmp_path):
        path = tmp_path / "tpl.txt"
        path.write_text(
            "[preamble.ap_select]\nPICK {{one}} ({associated})\n"
            "[row]\n{{ {t!r}: {aps:>4}{context} }}\n"
            "[window.header]\nlog {raw\n"
            "[instruction.ap_select.cot]\nReply as {\"bssid\": ...} }\n",
            encoding="utf-8",
        )
        text = build_prompt(simple_window(), state_at(), PromptConfig(),
                            template=load_template(path))
        assert text.startswith("PICK {one} (")
        assert "{ 0: " in text and "log {raw\n" in text
        assert text.endswith('Reply as {"bssid": ...} }\n')


_TEMPLATE_SPECS = ["", "d", "c", "s", "x", "#b", "e", ".3", ".2f", ",", "%", "+", "=", "g",
                   "{aps}", ">{t}"]


@st.composite
def template_blocks(draw) -> dict[str, str]:
    """Formatted blocks whose fields come from fixed names, conversions and
    specs, with widths of 0-20 only."""
    blocks = {}
    for block in draw(st.sets(st.sampled_from(sorted(agent._TEMPLATE_FIELDS)))):
        names = sorted(agent._TEMPLATE_FIELDS[block]) + ["bogus"]
        field = st.builds("{{{}{}:{}{}{}}}".format, st.sampled_from(names),
                          st.sampled_from(["", "!r", "!s", "!a"]),
                          st.sampled_from(["", "<", ">", "^", "0"]),
                          st.sampled_from(["", *map(str, range(21))]),
                          st.sampled_from(_TEMPLATE_SPECS))
        pieces = st.lists(field | st.sampled_from(["x", " ", "{{", "}}"]), max_size=4)
        blocks[block] = "".join(draw(pieces))
    return blocks


@settings(max_examples=300, deadline=None)
@given(blocks=template_blocks())
@example(blocks={"row": "t={t:{aps}}"})
@example(blocks={"row": "t={t:c}"})
def test_a_template_that_loads_renders(tmp_path_factory, blocks):
    path = tmp_path_factory.getbasetemp() / "loads-renders.txt"
    path.write_text("".join(f"[{name}]\n{body}\n" for name, body in blocks.items()),
                    encoding="utf-8")
    try:
        template = load_template(path)
    except ConfigError:
        return
    shot = FewShotExample(window_text="w\n", answer=MAC_B, reasoning="because")
    for t in (T_MIN, 0, T_MAX):
        sample = make_sample(t, {MAC_A: -75.0, MAC_B: -60.0}, activity="idle",
                             lat=37.4, lon=-122.1, battery=88.0)
        for task in ("ap_select", "threshold"):
            cfg = PromptConfig(shots=1, context_fields=frozenset(CONTEXT_FIELDS), task=task)
            build_prompt((sample,), state_at(), cfg, (shot,), template)


def _window_steps(kind: str, T: int) -> list[int]:
    if kind == "sliding":
        return list(range(T))
    if kind == "jumping":  # strides that overlap the last window, then strides that miss it
        return list(range(0, T, 7)) + list(range(2, T, 13))
    if kind == "backward":
        return list(range(T - 1, -1, -1)) + list(range(0, T, 3))
    rng = random.Random(kind)
    return [rng.randrange(T) for _ in range(3 * T)]


@settings(max_examples=300, deadline=None)
@given(t=st.integers(T_MIN, T_MAX) | st.sampled_from([T_MIN, T_MAX, -1, 0, 86399, 86400]))
def test_row_clock_is_the_utc_time_of_day(t):
    clock = datetime.fromtimestamp(t, tz=timezone.utc).strftime("%H:%M:%S")
    block = render_window_block((make_sample(t, {MAC_A: -60.0}),),
                                PromptConfig(context_fields=frozenset({"time"})))
    assert block.endswith(f"t={t} time={clock} | aps: {MAC_A}=-60.0\n")


class TestRowDict:
    """build_prompt with one row dict shared across calls, as a run passes it."""

    @pytest.mark.parametrize("kind", ["sliding", "jumping", "backward", "random"])
    @pytest.mark.parametrize("task", ["ap_select", "threshold"])
    @pytest.mark.parametrize("template_file", [False, True], ids=["default", "file"])
    def test_shared_dict_changes_no_prompt(self, tmp_path, kind, task, template_file):
        synth = replace(band_synth(seed=23, duration=60), emit_location=True,
                        battery_drain_pct_per_step=0.5)
        trace = generate_synthetic(synth)
        template = None
        if template_file:
            path = tmp_path / "prompt.tpl"
            path.write_text(PROMPT_TEMPLATE, encoding="utf-8")
            template = load_template(path)
        k = 10
        cfg = PromptConfig(task=task, window_k=k, context_fields=frozenset(CONTEXT_FIELDS))
        state = state_at(associated=trace.samples[0].candidates[0].bssid)
        rows: dict = {}
        for t in _window_steps(kind, len(trace.samples)):
            win = window(trace, t, k)
            shared = build_prompt(win, state, cfg, template=template, rows=rows)
            assert shared == build_prompt(win, state, cfg, template=template)
            assert len(rows) <= k
            assert set(rows) == set(win)

    def test_sliding_windows_render_each_row_once(self, monkeypatch):
        rendered = []
        real = agent._render_row

        def counting(sample, *args):
            rendered.append(sample)
            return real(sample, *args)

        monkeypatch.setattr(agent, "_render_row", counting)
        trace = generate_synthetic(band_synth(seed=4, duration=40))
        rows: dict = {}
        for t in range(40):
            build_prompt(window(trace, t, 10), state_at(), PromptConfig(), rows=rows)
        assert rendered == list(trace.samples)


class TestParseApResponse:
    def test_answer_line_wins_and_canonicalizes(self):
        raw = "I looked at trends.\nANSWER: 34:3a:20:79:c8:b2"
        assert parse_ap_response(raw) == "34:3A:20:79:C8:B2"

    def test_no_mac_is_unparseable(self):
        assert parse_ap_response("I cannot decide.") is None
        assert parse_ap_response("") is None

    def test_answer_line_beats_other_mentions(self):
        raw = f"maybe {MAC_B} is fine\nANSWER: {MAC_A}\n"
        assert parse_ap_response(raw) == MAC_A

    def test_fallback_to_last_mac_anywhere(self):
        raw = f"candidates {MAC_A} then {MAC_B} look good"
        assert parse_ap_response(raw) == MAC_B

    def test_dash_separated_mac_is_read(self):
        assert parse_ap_response("ANSWER: aa-00-00-00-00-01") == "AA:00:00:00:00:01"

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=200))
    def test_never_raises_on_noise(self, noise):
        result = parse_ap_response(noise)
        assert result is None or len(result) == 17


class TestParseThresholdResponse:
    def test_plain_answer(self, caplog):
        assert parse_threshold_response("ANSWER: -68") == -68.0
        assert "clamped" not in caplog.text

    def test_clamps_extremes(self, caplog):
        assert parse_threshold_response("ANSWER: -150") == -100.0
        assert "threshold reply -150.0 clamped to -100.0" in caplog.text
        assert parse_threshold_response("ANSWER: 10") == 0.0

    def test_fallback_scans_trailing_number(self):
        assert parse_threshold_response("threshold should be around -65 dBm") == -65.0

    def test_unparseable(self):
        assert parse_threshold_response("no idea") is None
        assert parse_threshold_response("") is None

    @pytest.mark.parametrize("raw, value", [
        ("ANSWER: AA:00:00:00:00:02", None),
        ("ANSWER: aa-00-00-00-00-02", None),
        ("ANSWER: -6.5e1", -65.0),
        ("ANSWER: -1e-05", -1e-05),
        ("ANSWER: -5E+1 dBm", -50.0),
        (f"-60 is too low for {MAC_A}", -60.0),
    ], ids=["mac", "dash-mac", "exponent", "negative-exponent", "signed-exponent",
            "mac-after-number"])
    def test_reads_exponents_and_not_mac_digits(self, raw, value):
        assert parse_threshold_response(raw) == value

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-100.0, 0.0))
    def test_reads_back_what_the_writers_write(self, v):
        assert parse_threshold_response(f"ANSWER: {v:g}") == float(f"{v:g}")
        assert parse_threshold_response(f"ANSWER: {v!r}") == v

    @settings(max_examples=100, deadline=None)
    @given(octets=st.lists(st.integers(0, 255), min_size=6, max_size=6),
           sep=st.sampled_from([":", "-"]), upper=st.booleans())
    def test_a_mac_is_never_a_threshold(self, octets, sep, upper):
        text = sep.join(f"{o:02x}" for o in octets)
        assert parse_threshold_response(f"ANSWER: {text.upper() if upper else text}") is None

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=200))
    def test_never_raises_and_always_in_range(self, noise):
        value = parse_threshold_response(noise)
        assert value is None or -100.0 <= value <= 0.0


class TestApSelectDecide:
    def test_argmax_mock_matches_legacy(self):
        trace = generate_synthetic(band_synth(seed=31, duration=60))
        cfg = PromptConfig()
        client = MockClient(MockRule.argmax_rssi())
        for t in range(len(trace.samples)):
            win = window(trace, t, 10)
            state = state_at(associated=trace.samples[0].candidates[0].bssid)
            mine = ap_select_decide(win, state, cfg, client, validity_floor=-100.0)
            ref = legacy_decide(win, state)
            assert mine.target == ref.target

    def test_absent_pick_marked_invalid_with_legacy_fallback(self):
        win = simple_window({MAC_A: -75.0, MAC_B: -72.0})
        client = MockClient(MockRule.constant_text(f"ANSWER: {MAC_C}"))
        decision = ap_select_decide(win, state_at(), PromptConfig(), client,
                                    validity_floor=-100.0)
        assert decision.valid is False
        ref = legacy_decide(win, state_at())
        assert decision.target == ref.target

    def test_below_floor_pick_marked_invalid(self):
        win = simple_window({MAC_A: -75.0, MAC_B: -72.0})
        client = MockClient(MockRule.constant_text(f"ANSWER: {MAC_B}"))
        decision = ap_select_decide(win, state_at(), PromptConfig(), client,
                                    validity_floor=-70.0)
        assert decision.valid is False

    def test_current_ap_pick_stays(self):
        win = simple_window({MAC_A: -75.0, MAC_B: -80.0})
        client = MockClient(MockRule.constant_text(f"ANSWER: {MAC_A}"))
        decision = ap_select_decide(win, state_at(), PromptConfig(), client,
                                    validity_floor=-100.0)
        assert decision.target is None
        assert decision.valid is not False

    def test_no_call_above_threshold(self):
        win = simple_window({MAC_A: -60.0, MAC_B: -50.0})
        client = MockClient(MockRule.argmax_rssi())
        decision = ap_select_decide(win, state_at(), PromptConfig(), client,
                                    validity_floor=-100.0)
        assert decision.target is None
        assert client.records == []

    def test_transport_failure_flags_fault(self):
        win = simple_window({MAC_A: -75.0, MAC_B: -60.0})
        client = MockClient(MockRule.fail_after(0))
        decision = ap_select_decide(win, state_at(), PromptConfig(), client,
                                    validity_floor=-100.0)
        assert decision.valid is False
        assert decision.fault is True
        ref = legacy_decide(win, state_at())
        assert decision.target == ref.target

    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=120))
    def test_fallback_totality_on_arbitrary_replies(self, text):
        win = simple_window({MAC_A: -75.0, MAC_B: -60.0})
        client = MockClient(MockRule.constant_text(text))
        decision = ap_select_decide(win, state_at(), PromptConfig(), client,
                                    validity_floor=-100.0)
        assert decision.target in (None, *win[-1].bssids)


class TestThresholdScheduler:
    def test_invocation_count_formula(self):
        for duration, interval in [(60, 10), (300, 30), (300, 60), (120, 7)]:
            trace = generate_synthetic(band_synth(seed=41, duration=duration))
            client = MockClient(MockRule.fixed_threshold(-70.0))
            log = []
            for t in range(duration):
                win = window(trace, t, 10)
                threshold_schedule_step(
                    log, interval, win, state_at(),
                    PromptConfig(task="threshold"), client,
                )
            fired = len(log)
            assert fired == 1 + (duration - 1) // interval
            assert len(client.records) == fired

    def test_huge_interval_fires_once(self):
        trace = generate_synthetic(band_synth(seed=42, duration=50))
        client = MockClient(MockRule.fixed_threshold(-70.0))
        log = []
        for t in range(50):
            win = window(trace, t, 10)
            threshold_schedule_step(log, 10**9, win, state_at(),
                                    PromptConfig(task="threshold"), client)
        fired = len(log)
        assert fired == 1

    def test_decision_carries_parsed_value(self):
        trace = generate_synthetic(band_synth(seed=43, duration=5))
        client = MockClient(MockRule.fixed_threshold(-64.0))
        log = []
        state = threshold_schedule_step(
            log, 30, window(trace, 0, 10), state_at(), PromptConfig(task="threshold"), client,
        )
        [entry] = log
        assert entry == {"t": 0, "value": -64.0, "valid": True, "fault": False}
        assert state.threshold == -64.0

    @pytest.mark.parametrize("rule, logged", [
        (MockRule.fixed_threshold(-1e-05), (-1e-05, True)),
        (MockRule.constant_text("ANSWER: AA:00:00:00:00:02"), (-70.0, False)),
    ], ids=["exponent", "bssid"])
    def test_run_logs_what_the_reply_says(self, rule, logged):
        cfg = ExperimentConfig(PolicySpec(kind="llm", mock=rule),
                               synth=band_synth(seed=45, duration=40), task="threshold")
        log = run_experiment(cfg).threshold_log
        assert len(log) == 2 and {(e["value"], e["valid"]) for e in log} == {logged}

    def test_failure_keeps_current_threshold(self):
        trace = generate_synthetic(band_synth(seed=44, duration=5))
        client = MockClient(MockRule.fail_after(0))
        log = []
        state = threshold_schedule_step(
            log, 30, window(trace, 0, 10), state_at(threshold=-72.0),
            PromptConfig(task="threshold"), client,
        )
        [entry] = log
        assert entry["value"] == -72.0
        assert entry["fault"] is True
        assert state.threshold == -72.0

    def test_quiet_tick_returns_its_state_and_calls_nothing(self):
        trace = generate_synthetic(band_synth(seed=44, duration=5))
        log = [{"t": 0, "value": -64.0, "valid": True, "fault": False}]
        state = state_at(threshold=-64.0)
        # no client: a tick before the interval is up must not call one
        assert threshold_schedule_step(log, 30, window(trace, 4, 10), state,
                                       PromptConfig(task="threshold"), None) is state
        assert len(log) == 1

    def test_bad_interval_rejected(self):
        trace = generate_synthetic(band_synth(seed=44, duration=5))
        with pytest.raises(ValueError):
            threshold_schedule_step(None, 0, window(trace, 0, 10), state_at(),
                                    PromptConfig(task="threshold"), None)


class TestShotPool:
    def test_pool_is_deterministic_and_labeled_by_plan(self):
        trace = generate_synthetic(band_synth(seed=51, duration=40))
        plan = oracle_opt_ho(trace, OracleConstraints(validity_floor=-100.0))
        cfg = PromptConfig(shots=5)
        a = build_shot_pool(trace, plan, cfg, seed=3)
        b = build_shot_pool(trace, plan, cfg, seed=3)
        assert a == b
        assert all(s.answer in plan.plan for s in a)
        assert all(s.reasoning for s in a)  # cot style carries reasoning

    def test_plain_pool_has_no_reasoning(self):
        trace = generate_synthetic(band_synth(seed=52, duration=40))
        plan = oracle_opt_ho(trace, OracleConstraints(validity_floor=-100.0))
        pool = build_shot_pool(trace, plan, PromptConfig(style="plain", shots=1), seed=0)
        assert pool[0].reasoning is None

    def test_pool_rejects_oversampling(self):
        trace = generate_synthetic(band_synth(seed=53, duration=3))
        plan = oracle_opt_ho(trace, OracleConstraints(validity_floor=-100.0))
        with pytest.raises(ValueError):
            build_shot_pool(trace, plan, PromptConfig(shots=9), seed=0)
        with pytest.raises(ValueError, match="built for the ap_select task"):
            build_shot_pool(trace, plan, PromptConfig(shots=1, task="threshold"), seed=0)


# ---------------------------------------------------------------------------
# Prompt golden: reports hold no prompts, so these digests pin the text the
# model receives across the prompt knobs.

PROMPT_TEMPLATE = (
    "[preamble.ap_select]\n"
    "PICK AN AP (current {associated}, threshold {threshold})\n"
    "[shot]\n"
    "EX {index}\n{window}{reasoning}-> {answer}\n"
    "[window.header]\n"
    "LOG\n"
    "[row]\n"
    "ROW {t}{context}: {aps}\n"
    "[instruction.ap_select.cot]\n"
    "END WITH ANSWER: <BSSID>\n"
)


def _prompt_config(name: str, tmp_path) -> ExperimentConfig:
    synth = replace(band_synth(seed=81, duration=120), emit_location=True,
                    battery_drain_pct_per_step=0.3)
    argmax = MockRule.argmax_rssi()
    prompt, mock, kw = {
        "plain": (PromptConfig(style="plain"), argmax, {}),
        "cot": (PromptConfig(style="cot"), argmax, {}),
        "shots-cot-holdout": (PromptConfig(style="cot", shots=2), argmax, {}),
        "shots-plain-holdout": (PromptConfig(style="plain", shots=3), argmax, {}),
        "context-location": (PromptConfig(context_fields=frozenset({"location"})), argmax, {}),
        "context-time": (PromptConfig(context_fields=frozenset({"time"})), argmax, {}),
        "context-battery": (PromptConfig(context_fields=frozenset({"battery"})), argmax, {}),
        "context-none": (PromptConfig(context_fields=frozenset()), argmax, {}),
        "template-file": (PromptConfig(shots=1), argmax, {}),
        "threshold-plain": (
            PromptConfig(style="plain", task="threshold"), MockRule.fixed_threshold(-68.0),
            {"task": "threshold", "interval": 15},
        ),
        "threshold-cot": (
            PromptConfig(task="threshold", context_fields=frozenset(CONTEXT_FIELDS)),
            MockRule.fixed_threshold(-74.0), {"task": "threshold", "interval": 15},
        ),
    }[name]
    if name == "template-file":
        path = tmp_path / "prompt.tpl"
        path.write_text(PROMPT_TEMPLATE, encoding="utf-8")
        kw["template_path"] = str(path)
    spec = PolicySpec(kind="llm", prompt=prompt, mock=mock)
    # a high scan trigger makes most ap_select steps consult the model
    return ExperimentConfig(policy=spec, synth=synth, scan_rssi=-55.0, **kw)


GOLDEN_PROMPT_SHA256 = {
    "plain": "af4db19e1d5475a92ac259592b3c490789bc0ca7adaaf996d90c86f493f8828f",
    "cot": "c6603acc7b7e78cffa06f4825405f1849dbd488c13c38462c1c29801126c29b1",
    "shots-cot-holdout": "f69e3539147423c2ae9c17af9de16608e2200ec873d13a10d5da1d87dca80dfc",
    "shots-plain-holdout": "7b576de46ee4d5890eb153637bc4f6a8c29a46a15d4fe99f15bf3e568e621fd5",
    "context-location": "fad9c3a513b95021bce3607a71dc5757939dd1cfa3d8b94a03c8148c9038d0d7",
    "context-time": "a76fb2d543a7e5525e290b067c14af597975e465a3135aef0d69b66ddffe892c",
    "context-battery": "5eac213b864a95a4e9e3333c0d2133b5bf1dff230483011b7a460b7ecfbe877d",
    "context-none": "03239458f8cebae4580b845ffa36251cac9bc262af8aa0a2809d4f88e2cb67b3",
    "template-file": "5957528010671a26cfab81a84a640eee2dd390200ed10b2404fb4ee97dba34a4",
    "threshold-plain": "6b3b05e7dc959cb975f5eb1927352eba0197d3c1b44408e9b68c14bd10bf2dda",
    "threshold-cot": "4cd80cdeb3570b25cfd33f83716a6fd392cb72ee726b5db62f4773f7df73ee01",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PROMPT_SHA256))
def test_golden_prompts(name, tmp_path, monkeypatch):
    prompts = []
    real = agent.build_prompt

    def recording(*args, **kwargs):
        prompts.append(real(*args, **kwargs))
        return prompts[-1]

    monkeypatch.setattr(agent, "build_prompt", recording)
    run_experiment(_prompt_config(name, tmp_path))
    assert prompts
    digest = hashlib.sha256(json.dumps(prompts).encode("utf-8")).hexdigest()
    assert digest == GOLDEN_PROMPT_SHA256[name]
