"""State machine: triggers, hysteresis, decision application, metrics."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MAC_A, MAC_B, MAC_C, band_synth, make_sample, make_trace, metrics_of
from roamsim.errors import DataError
from roamsim.policies import LegacyPolicy
from roamsim.roaming import (
    ABSENT_RSSI_DBM,
    Action,
    AssociationState,
    PolicyDecision,
    RunTimeline,
    StepRecord,
    apply_decision,
    passes_hysteresis,
    run_policy,
    should_scan,
)
from roamsim.trace import generate_synthetic


def timeline_from(series, decisions=None) -> RunTimeline:
    """Build a timeline from (bssid, rssi) pairs, stay decisions by default."""
    steps = []
    prev = None
    for t, (bssid, rssi) in enumerate(series):
        decision = decisions[t] if decisions else PolicyDecision.stay("test", valid=True)
        steps.append(
            StepRecord(t=t, bssid=bssid, rssi=rssi, decision=decision,
                       handover=prev is not None and bssid != prev)
        )
        prev = bssid
    return RunTimeline(steps=tuple(steps))


class TestShouldScan:
    def test_below_threshold_triggers(self):
        assert should_scan(-72.0, -70.0) is True

    def test_boundary_is_strict(self):
        assert should_scan(-70.0, -70.0) is False

    def test_strong_signal_never_triggers(self):
        assert should_scan(-50.0, -80.0) is False

    @settings(max_examples=100, deadline=None)
    @given(
        rssi=st.floats(-100, 0, allow_nan=False),
        lo=st.floats(-100, 0, allow_nan=False),
        hi=st.floats(-100, 0, allow_nan=False),
    )
    def test_monotone_in_threshold(self, rssi, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        if should_scan(rssi, lo):
            assert should_scan(rssi, hi)


class TestHysteresis:
    def test_active_margin(self):
        state = AssociationState(associated=MAC_A, hysteresis_active=8.0, hysteresis_idle=12.0)
        assert passes_hysteresis(-60.0, -70.0, state) is True

    def test_idle_margin(self):
        state = AssociationState(
            associated=MAC_A, activity="idle", hysteresis_active=8.0, hysteresis_idle=12.0
        )
        assert passes_hysteresis(-60.0, -70.0, state) is False

    def test_zero_margin_disables(self):
        state = AssociationState(associated=MAC_A)
        assert passes_hysteresis(-70.0, -70.0, state) is True
        assert passes_hysteresis(-69.9, -70.0, state) is True


class TestApplyDecision:
    def setup_method(self):
        self.state = AssociationState(associated=MAC_A, threshold=-70.0)
        self.sample = make_sample(3, {MAC_A: -75.0, MAC_B: -55.0})

    def test_valid_roam_changes_association(self):
        decision = PolicyDecision.roam(MAC_B, "test")
        new_state, rec = apply_decision(self.state, self.sample, decision, -70.0)
        assert new_state.associated == MAC_B
        assert rec.decision.valid is True
        assert rec.handover is True
        assert rec.rssi == -55.0

    def test_roam_to_absent_falls_back_to_stay(self):
        decision = PolicyDecision.roam(MAC_C, "test")
        new_state, rec = apply_decision(self.state, self.sample, decision, -70.0)
        assert new_state.associated == MAC_A
        assert rec.decision.valid is False
        assert rec.handover is False

    def test_roam_below_floor_is_invalid(self):
        sample = make_sample(0, {MAC_A: -60.0, MAC_B: -70.5})
        decision = PolicyDecision.roam(MAC_B, "test")
        new_state, rec = apply_decision(self.state, sample, decision, -70.0)
        assert new_state.associated == MAC_A
        assert rec.decision.valid is False

    def test_set_threshold_only_updates_threshold(self):
        decision = PolicyDecision.set_threshold(-65.0, "test")
        new_state, rec = apply_decision(self.state, self.sample, decision, -70.0)
        assert new_state.threshold == -65.0
        assert new_state.associated == MAC_A
        assert rec.handover is False
        assert rec.decision.valid is True

    def test_absent_association_pins_rssi_to_floor(self):
        sample = make_sample(0, {MAC_B: -55.0})
        _, rec = apply_decision(self.state, sample, PolicyDecision.stay("test"), -70.0)
        assert rec.rssi == ABSENT_RSSI_DBM

    def test_premarked_invalid_survives_a_valid_fallback_target(self):
        # an upstream fallback roam to a perfectly valid AP still counts invalid
        decision = PolicyDecision.roam(MAC_B, "test", valid=False)
        new_state, rec = apply_decision(self.state, self.sample, decision, -70.0)
        assert new_state.associated == MAC_B
        assert rec.decision.valid is False

    def test_never_associates_to_an_invalid_target(self):
        for floor in (-70.0, -60.0, -50.0):
            sample = make_sample(0, {MAC_A: -40.0, MAC_B: floor - 0.1})
            new_state, rec = apply_decision(
                self.state, sample, PolicyDecision.roam(MAC_B, "test"), floor
            )
            assert new_state.associated != MAC_B
            assert rec.decision.valid is False


class TestMetrics:
    def test_avg_constant(self):
        assert metrics_of(timeline_from([(MAC_A, -60.0)] * 3))["avg_rssi_dbm"] == -60.0

    def test_avg_mean(self):
        tl = timeline_from([(MAC_A, -50.0), (MAC_A, -70.0)])
        assert metrics_of(tl)["avg_rssi_dbm"] == -60.0

    def test_avg_empty_rejected(self):
        with pytest.raises(DataError):
            metrics_of(RunTimeline(steps=()))["avg_rssi_dbm"]

    def test_handover_constant_run(self):
        assert metrics_of(timeline_from([(MAC_A, -60.0)] * 10))["handovers"] == 0

    def test_handover_aba(self):
        tl = timeline_from([(MAC_A, -60.0), (MAC_B, -60.0), (MAC_A, -60.0)])
        assert metrics_of(tl)["handovers"] == 2

    def test_reference_recomputation_on_long_run(self):
        trace = generate_synthetic(band_synth(seed=9, duration=1000))
        tl = run_policy(trace, LegacyPolicy().decide, validity_floor=-100.0)
        # independent one-liner oracles
        assert metrics_of(tl)["avg_rssi_dbm"] == sum(s.rssi for s in tl.steps) / len(tl.steps)
        bssids = [s.bssid for s in tl.steps]
        assert metrics_of(tl)["handovers"] == sum(
            a != b for a, b in zip(bssids, bssids[1:])
        )

    def test_error_rate_quarter(self):
        decisions = [
            PolicyDecision.roam(MAC_B, "p", valid=True),
            PolicyDecision.roam(MAC_B, "p", valid=True),
            PolicyDecision.roam(MAC_B, "p", valid=False),
            PolicyDecision.roam(MAC_B, "p", valid=True),
        ]
        tl = timeline_from([(MAC_A, -60.0)] * 4, decisions)
        assert metrics_of(tl)["error_rate"] == 0.25

    def test_error_rate_all_valid(self):
        decisions = [PolicyDecision.roam(MAC_B, "p", valid=True)] * 3
        tl = timeline_from([(MAC_A, -60.0)] * 3, decisions)
        assert metrics_of(tl)["error_rate"] == 0.0

    def test_error_rate_absent_without_roams(self):
        assert metrics_of(timeline_from([(MAC_A, -60.0)] * 3))["error_rate"] is None

    def test_set_threshold_excluded_from_denominator(self):
        decisions = [
            PolicyDecision.set_threshold(-65.0, "p", valid=True),
            PolicyDecision.roam(MAC_B, "p", valid=False),
            PolicyDecision.roam(MAC_B, "p", valid=True),
        ]
        tl = timeline_from([(MAC_A, -60.0)] * 3, decisions)
        assert metrics_of(tl)["error_rate"] == 0.5

    def test_invalid_stay_counts_as_failed_attempt(self):
        decisions = [
            PolicyDecision.stay("p", valid=False),  # invalid pick, fallback stayed
            PolicyDecision.roam(MAC_B, "p", valid=True),
        ]
        tl = timeline_from([(MAC_A, -60.0)] * 2, decisions)
        assert metrics_of(tl)["error_rate"] == 0.5


class TestMetricProperties:
    @settings(max_examples=50, deadline=None)
    @given(shift=st.floats(-20, 20, allow_nan=False), seed=st.integers(0, 1000))
    def test_avg_translation_equivariance(self, shift, seed):
        trace = generate_synthetic(band_synth(seed=seed, duration=40))
        tl = run_policy(trace, LegacyPolicy().decide, validity_floor=-100.0)
        shifted = RunTimeline(
            steps=tuple(replace(s, rssi=s.rssi + shift) for s in tl.steps)
        )
        shifted_avg = metrics_of(shifted)["avg_rssi_dbm"]
        assert abs(shifted_avg - (metrics_of(tl)["avg_rssi_dbm"] + shift)) < 1e-9

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_handover_relabel_invariance(self, seed):
        trace = generate_synthetic(band_synth(seed=seed, duration=40))
        tl = run_policy(trace, LegacyPolicy().decide, validity_floor=-100.0)
        mapping = {}
        relabeled = []
        for s in tl.steps:
            mapping.setdefault(s.bssid, f"BB:00:00:00:00:{len(mapping) + 1:02X}")
            relabeled.append(replace(s, bssid=mapping[s.bssid]))
        relabeled_tl = RunTimeline(steps=tuple(relabeled))
        assert metrics_of(relabeled_tl)["handovers"] == metrics_of(tl)["handovers"]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_handovers_bounded_by_valid_roams(self, seed):
        trace = generate_synthetic(band_synth(seed=seed, duration=80))
        tl = run_policy(trace, LegacyPolicy().decide)
        valid_roams = sum(
            1
            for s in tl.steps
            if s.decision.action is Action.ROAM and s.decision.valid
        )
        assert metrics_of(tl)["handovers"] <= valid_roams <= len(tl.steps)


class TestRunPolicy:
    def test_initial_association_prefers_ground_truth(self):
        trace = make_trace([{MAC_A: -60.0, MAC_B: -50.0}] * 3, assoc0=MAC_A)
        tl = run_policy(trace, lambda w, s: PolicyDecision.stay("t"))
        assert tl.steps[0].bssid == MAC_A

    def test_initial_association_falls_back_to_strongest(self):
        trace = make_trace([{MAC_A: -60.0, MAC_B: -50.0}] * 3)
        tl = run_policy(trace, lambda w, s: PolicyDecision.stay("t"))
        assert tl.steps[0].bssid == MAC_B

    def test_first_step_never_counts_as_handover(self):
        trace = make_trace([{MAC_A: -80.0, MAC_B: -50.0}] * 3, assoc0=MAC_A)
        tl = run_policy(trace, LegacyPolicy().decide, validity_floor=-100.0)
        assert tl.steps[0].bssid == MAC_B  # roamed at step 0
        assert tl.steps[0].handover is False
        assert metrics_of(tl)["handovers"] == 0

    def test_activity_follows_the_samples(self):
        trace = make_trace([{MAC_A: -75.0, MAC_B: -69.0}] * 2, activity="idle")
        seen = []
        tl = run_policy(
            trace,
            lambda w, s: (seen.append(s.activity), PolicyDecision.stay("t"))[1],
        )
        assert seen == ["idle", "idle"]
        assert len(tl.steps) == 2
