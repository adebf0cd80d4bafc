"""Prompt construction, reply parsing, agent decisions, and the scheduler."""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MAC_A, MAC_B, MAC_C, band_synth, make_trace
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
from roamsim.roaming import Action, AssociationState
from roamsim.runner import ExperimentConfig, PolicySpec, run_experiment
from roamsim.trace import generate_synthetic, window


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
        sample = replace(sample, context=replace(sample.context, battery_pct=87.0))
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
        sample = replace(
            sample,
            context=replace(sample.context, timestamp=3723, latitude=37.4, longitude=-122.1),
        )
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


def _window_steps(kind: str, T: int) -> list[int]:
    if kind == "sliding":
        return list(range(T))
    if kind == "jumping":  # strides that overlap the last window, then strides that miss it
        return list(range(0, T, 7)) + list(range(2, T, 13))
    if kind == "backward":
        return list(range(T - 1, -1, -1)) + list(range(0, T, 3))
    rng = random.Random(kind)
    return [rng.randrange(T) for _ in range(3 * T)]


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
            assert set(rows) == set(win.samples)

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
            assert mine.action == ref.action
            assert mine.target == ref.target

    def test_absent_pick_marked_invalid_with_legacy_fallback(self):
        win = simple_window({MAC_A: -75.0, MAC_B: -72.0})
        client = MockClient(MockRule.constant_text(f"ANSWER: {MAC_C}"))
        decision = ap_select_decide(win, state_at(), PromptConfig(), client,
                                    validity_floor=-100.0)
        assert decision.valid is False
        ref = legacy_decide(win, state_at())
        assert decision.action == ref.action
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
        assert decision.action is Action.STAY
        assert decision.valid is not False

    def test_no_call_above_threshold(self):
        win = simple_window({MAC_A: -60.0, MAC_B: -50.0})
        client = MockClient(MockRule.argmax_rssi())
        decision = ap_select_decide(win, state_at(), PromptConfig(), client)
        assert decision.action is Action.STAY
        assert client.records == []

    def test_transport_failure_flags_fault(self):
        win = simple_window({MAC_A: -75.0, MAC_B: -60.0})
        client = MockClient(MockRule.fail_after(0))
        decision = ap_select_decide(win, state_at(), PromptConfig(), client,
                                    validity_floor=-100.0)
        assert decision.valid is False
        assert decision.fault is True
        ref = legacy_decide(win, state_at())
        assert decision.action == ref.action

    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=120))
    def test_fallback_totality_on_arbitrary_replies(self, text):
        win = simple_window({MAC_A: -75.0, MAC_B: -60.0})
        client = MockClient(MockRule.constant_text(text))
        decision = ap_select_decide(win, state_at(), PromptConfig(), client,
                                    validity_floor=-100.0)
        assert decision.action in (Action.STAY, Action.ROAM)


class TestThresholdScheduler:
    def test_invocation_count_formula(self):
        for duration, interval in [(60, 10), (300, 30), (300, 60), (120, 7)]:
            trace = generate_synthetic(band_synth(seed=41, duration=duration))
            client = MockClient(MockRule.fixed_threshold(-70.0))
            last = {"t": None}
            fired = 0
            for t in range(duration):
                win = window(trace, t, 10)
                decision = threshold_schedule_step(
                    t, last["t"], interval, win, state_at(),
                    PromptConfig(task="threshold"), client,
                )
                if decision is not None:
                    fired += 1
                    last["t"] = t
            assert fired == 1 + (duration - 1) // interval
            assert len(client.records) == fired

    def test_huge_interval_fires_once(self):
        trace = generate_synthetic(band_synth(seed=42, duration=50))
        client = MockClient(MockRule.fixed_threshold(-70.0))
        last = None
        fired = 0
        for t in range(50):
            win = window(trace, t, 10)
            if threshold_schedule_step(t, last, 10**9, win, state_at(),
                                       PromptConfig(task="threshold"), client) is not None:
                fired += 1
                last = t
        assert fired == 1

    def test_decision_carries_parsed_value(self):
        trace = generate_synthetic(band_synth(seed=43, duration=5))
        client = MockClient(MockRule.fixed_threshold(-64.0))
        entry = threshold_schedule_step(
            0, None, 30, window(trace, 0, 10), state_at(),
            PromptConfig(task="threshold"), client,
        )
        assert entry == {"t": 0, "value": -64.0, "valid": True, "fault": False}

    def test_failure_keeps_current_threshold(self):
        trace = generate_synthetic(band_synth(seed=44, duration=5))
        client = MockClient(MockRule.fail_after(0))
        entry = threshold_schedule_step(
            0, None, 30, window(trace, 0, 10), state_at(threshold=-72.0),
            PromptConfig(task="threshold"), client,
        )
        assert entry["value"] == -72.0
        assert entry["fault"] is True

    def test_bad_interval_rejected(self):
        trace = generate_synthetic(band_synth(seed=44, duration=5))
        with pytest.raises(ValueError):
            threshold_schedule_step(0, None, 0, window(trace, 0, 10), state_at(),
                                    PromptConfig(task="threshold"), None)


class TestShotPool:
    def test_pool_is_deterministic_and_labeled_by_plan(self):
        trace = generate_synthetic(band_synth(seed=51, duration=40))
        plan = oracle_opt_ho(trace, OracleConstraints(validity_floor=-100.0))
        cfg = PromptConfig(shots=5)
        a = build_shot_pool(trace, plan, cfg, 5, seed=3)
        b = build_shot_pool(trace, plan, cfg, 5, seed=3)
        assert a == b
        assert all(s.answer in plan.plan for s in a)
        assert all(s.reasoning for s in a)  # cot style carries reasoning

    def test_plain_pool_has_no_reasoning(self):
        trace = generate_synthetic(band_synth(seed=52, duration=40))
        plan = oracle_opt_ho(trace, OracleConstraints(validity_floor=-100.0))
        pool = build_shot_pool(trace, plan, PromptConfig(style="plain", shots=1), 1, seed=0)
        assert pool[0].reasoning is None

    def test_pool_rejects_oversampling(self):
        trace = generate_synthetic(band_synth(seed=53, duration=3))
        plan = oracle_opt_ho(trace, OracleConstraints(validity_floor=-100.0))
        with pytest.raises(ValueError):
            build_shot_pool(trace, plan, PromptConfig(shots=9), 9, seed=0)


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
