"""Corpus exporters, label accuracy, and the train/test split."""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import replace
from functools import partial

import pytest

from conftest import MAC_A, MAC_B, band_synth, make_trace
from roamsim import agent
from roamsim.agent import CONTEXT_FIELDS, PromptConfig, load_template
from roamsim.errors import ConfigError, DataError
from roamsim.export import (
    export_preferences,
    export_sft,
    label_accuracy,
    split_trace,
)
from roamsim.policies import (
    AssociationPlan,
    OracleConstraints,
    legacy_decide,
    oracle_opt_ho,
)
from roamsim.roaming import run_policy
from roamsim.trace import generate_synthetic


def plan_of(labels) -> AssociationPlan:
    return AssociationPlan(plan=tuple(labels), objective="min_ho", objective_value=0.0,
                           handovers=0)


def sft_lines(trace, plan, cfg=None):
    buf = io.StringIO()
    count = export_sft(trace, plan, cfg or PromptConfig(), buf)
    return count, [json.loads(ln) for ln in buf.getvalue().splitlines()]


class TestExportSft:
    def test_one_record_per_step(self):
        trace = generate_synthetic(band_synth(seed=61, duration=20))
        plan = oracle_opt_ho(trace, OracleConstraints(validity_floor=-100.0))
        count, records = sft_lines(trace, plan)
        assert count == 20
        assert len(records) == 20
        assert all(set(r) == {"prompt", "completion"} for r in records)

    def test_single_ap_completions_all_match(self):
        trace = make_trace([{MAC_A: -60.0 - t} for t in range(8)])
        plan = oracle_opt_ho(trace, OracleConstraints(validity_floor=-100.0))
        _, records = sft_lines(trace, plan)
        assert all(r["completion"] == f"ANSWER: {MAC_A}" for r in records)

    def test_reexport_is_byte_identical(self, tmp_path):
        trace = generate_synthetic(band_synth(seed=62, duration=15))
        plan = oracle_opt_ho(trace, OracleConstraints(validity_floor=-100.0))
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path in (p1, p2):
            with open(path, "w", encoding="utf-8") as fh:
                export_sft(trace, plan, PromptConfig(), fh)
        assert p1.read_bytes() == p2.read_bytes()

    def test_completions_are_feasible_under_constraints(self):
        trace = generate_synthetic(band_synth(seed=63, duration=60))
        constraints = OracleConstraints(validity_floor=-70.0)
        plan = oracle_opt_ho(trace, constraints)
        _, records = sft_lines(trace, plan)
        for t, rec in enumerate(records):
            bssid = rec["completion"].split("ANSWER: ")[1]
            sample = trace.samples[t]
            assert any(c.bssid == bssid for c in sample.candidates)

    def test_renders_each_row_once(self, monkeypatch):
        rendered = []
        real = agent._render_row

        def counting(sample, *args):
            rendered.append(sample)
            return real(sample, *args)

        monkeypatch.setattr(agent, "_render_row", counting)
        trace = generate_synthetic(band_synth(seed=69, duration=40))
        plan = oracle_opt_ho(trace, OracleConstraints(validity_floor=-100.0))
        sft_lines(trace, plan)
        assert rendered == list(trace.samples)

    def test_length_mismatch_rejected(self):
        trace = generate_synthetic(band_synth(seed=64, duration=10))
        plan = oracle_opt_ho(trace, OracleConstraints(validity_floor=-100.0))
        short = make_trace([{MAC_A: -60.0}] * 5)
        with pytest.raises(DataError, match="plan length"):
            export_sft(short, plan, PromptConfig(), io.StringIO())

    @pytest.mark.parametrize("export", [
        export_sft, partial(export_preferences, rejected_source="second_best"),
    ], ids=["sft", "preferences"])
    def test_plan_naming_an_ap_outside_the_scan_raises_before_writing(self, export):
        # MAC_B leaves the scan after step 0, so at step 1 the plan names an AP no prompt shows
        trace = make_trace([{MAC_A: -60.0, MAC_B: -70.0}, {MAC_A: -61.0}, {MAC_A: -62.0}])
        out = io.StringIO()
        with pytest.raises(DataError, match=f"^plan step 1: {MAC_B} is not in the step's scan$"):
            export(trace, plan_of([MAC_A, MAC_B, MAC_A]), cfg=PromptConfig(), out=out)
        assert out.getvalue() == ""


class TestExportPreferences:
    def test_degenerate_same_policy_yields_zero_pairs(self):
        trace = generate_synthetic(band_synth(seed=65, duration=30))
        legacy_tl = run_policy(trace, legacy_decide, validity_floor=-100.0)
        legacy_plan = plan_of(e["bssid"] for e in legacy_tl.steps)
        count = export_preferences(trace, legacy_plan, "legacy", PromptConfig(), io.StringIO())
        assert count == 0

    def test_single_ap_second_best_yields_zero_pairs(self):
        trace = make_trace([{MAC_A: -60.0}] * 6)
        plan = oracle_opt_ho(trace, OracleConstraints(validity_floor=-100.0))
        count = export_preferences(trace, plan, "second_best", PromptConfig(), io.StringIO())
        assert count == 0

    def test_crossover_pair_count_matches_hand_diff(self, crossover_trace):
        constraints = OracleConstraints(validity_floor=-100.0)
        plan = oracle_opt_ho(crossover_trace, constraints)
        legacy_tl = run_policy(crossover_trace, legacy_decide, validity_floor=-100.0)
        expected = sum(
            1 for t, e in enumerate(legacy_tl.steps) if e["bssid"] != plan.plan[t]
        )
        buf = io.StringIO()
        count = export_preferences(crossover_trace, plan, "legacy", PromptConfig(), buf)
        assert count == expected
        records = [json.loads(ln) for ln in buf.getvalue().splitlines()]
        assert len(records) == expected
        assert all(r["chosen"] != r["rejected"] for r in records)

    def test_heuristic_source_is_seed_deterministic(self):
        trace = generate_synthetic(band_synth(seed=66, duration=40))
        plan = oracle_opt_ho(trace, OracleConstraints(validity_floor=-100.0))
        a, b = io.StringIO(), io.StringIO()
        export_preferences(trace, plan, "heuristic", PromptConfig(), a, seed=5)
        export_preferences(trace, plan, "heuristic", PromptConfig(), b, seed=5)
        assert a.getvalue() == b.getvalue()

    def test_unknown_source_rejected(self):
        trace = make_trace([{MAC_A: -60.0}] * 3)
        plan = oracle_opt_ho(trace, OracleConstraints(validity_floor=-100.0))
        with pytest.raises(DataError, match="unknown rejected source"):
            export_preferences(trace, plan, "nope", PromptConfig(), io.StringIO())


@pytest.mark.parametrize("export", [
    export_sft,
    partial(export_preferences, rejected_source="second_best"),
], ids=["sft", "preferences"])
@pytest.mark.parametrize("scan_rssi", [float("nan"), 5.0, -100.5])
def test_out_of_range_scan_rssi_is_refused_before_any_record(export, scan_rssi):
    # every step has a runner-up, so either export would write a record per step
    trace = make_trace([{MAC_A: -60.0, MAC_B: -65.0}] * 5)
    out = io.StringIO()
    with pytest.raises(ConfigError, match="scan_rssi out of range"):
        export(trace, plan_of([MAC_A] * 5), cfg=PromptConfig(), out=out, scan_rssi=scan_rssi)
    assert out.getvalue() == ""


class TestLabelAccuracy:
    def test_self_accuracy_is_100(self):
        trace = generate_synthetic(band_synth(seed=67, duration=25))
        plan = oracle_opt_ho(trace, OracleConstraints(validity_floor=-100.0))
        assert label_accuracy(plan.plan, plan) == 100.0

    def test_half_match(self):
        plan_seq = (MAC_A,) * 10
        preds = [MAC_A] * 5 + [MAC_B] * 5
        assert label_accuracy(preds, plan_of(plan_seq)) == 50.0

    def test_relabel_symmetry(self):
        preds = [MAC_A, MAC_B, MAC_A, MAC_A]
        labels = (MAC_A, MAC_A, MAC_A, MAC_B)
        swap = {MAC_A: MAC_B, MAC_B: MAC_A}
        assert label_accuracy(preds, plan_of(labels)) == label_accuracy(
            [swap[p] for p in preds], plan_of(swap[g] for g in labels)
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="length mismatch"):
            label_accuracy([MAC_A], plan_of((MAC_A, MAC_B)))

    def test_empty_plan_rejected(self):
        with pytest.raises(DataError, match="empty label sequence"):
            label_accuracy([], plan_of(()))


class TestSplitTrace:
    def test_contiguous_80_20(self):
        trace = generate_synthetic(band_synth(seed=68, duration=100))
        train, test = split_trace(trace)
        assert len(train) == 80
        assert len(test) == 20
        assert train.samples + test.samples == trace.samples

    def test_tiny_trace_still_splits(self):
        trace = make_trace([{MAC_A: -60.0}] * 2)
        train, test = split_trace(trace)
        assert len(train) == 1 and len(test) == 1

    def test_single_sample_rejected(self):
        with pytest.raises(DataError):
            split_trace(make_trace([{MAC_A: -60.0}]))


# ---------------------------------------------------------------------------
# Golden corpora: every byte export_sft and export_preferences write for two
# fixtures, pinned by sha256.

EXPORT_TEMPLATE = (
    "[preamble.ap_select]\n"
    "PICK (current {associated}, threshold {threshold})\n"
    "[window.header]\n"
    "LOG\n"
    "[row]\n"
    "ROW {t}{context}: {aps}\n"
)


def _export_fixture(name: str, tmp_path):
    if name == "default":
        trace = generate_synthetic(band_synth(seed=91, duration=80))
        return trace, PromptConfig(), {}
    synth = replace(band_synth(seed=92, duration=70, num_aps=5), emit_location=True,
                    battery_drain_pct_per_step=0.4)
    path = tmp_path / "export.tpl"
    path.write_text(EXPORT_TEMPLATE, encoding="utf-8")
    cfg = PromptConfig(style="plain", shots=2, window_k=4,
                       context_fields=frozenset(CONTEXT_FIELDS))
    return generate_synthetic(synth), cfg, {"scan_rssi": -62.0,
                                            "template": load_template(path)}


GOLDEN_EXPORT_SHA256 = {
    "default": "74b651f238fddbd2b4f92b566faf02c0de151d2974397bdc365f13de16d187f2",
    "template-context": "39d04c2ab7415d9757f4341a0c99a4366962ce3f49fcfcf5a218d437fe1cd8fe",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_EXPORT_SHA256))
def test_golden_export(name, tmp_path):
    trace, cfg, kw = _export_fixture(name, tmp_path)
    plan = oracle_opt_ho(trace, OracleConstraints(validity_floor=-100.0))
    outputs = {}
    buf = io.StringIO()
    export_sft(trace, plan, cfg, buf, **kw)
    outputs["sft"] = buf.getvalue()
    for source in ("legacy", "heuristic", "second_best"):
        buf = io.StringIO()
        export_preferences(trace, plan, source, cfg, buf, seed=3, **kw)
        outputs[source] = buf.getvalue()
    assert all(outputs.values())
    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode("utf-8")).hexdigest()
    assert digest == GOLDEN_EXPORT_SHA256[name]
