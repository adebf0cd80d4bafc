"""State machine: triggers, hysteresis, decision application, metrics."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    MAC_A,
    MAC_B,
    MAC_C,
    band_synth,
    make_sample,
    make_trace,
    metrics_of,
    timeline_of,
)
from roamsim.errors import DataError
from roamsim.policies import legacy_decide
from roamsim.roaming import (
    ABSENT_RSSI_DBM,
    AssociationState,
    PolicyDecision,
    RunTimeline,
    apply_decision,
    passes_hysteresis,
    run_policy,
    should_scan,
)
from roamsim.trace import Trace, generate_synthetic, window


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
        assert passes_hysteresis(-60.0, -70.0, state, "active") is True

    def test_idle_margin(self):
        state = AssociationState(associated=MAC_A, hysteresis_active=8.0, hysteresis_idle=12.0)
        assert passes_hysteresis(-60.0, -70.0, state, "idle") is False

    def test_zero_margin_disables(self):
        state = AssociationState(associated=MAC_A)
        assert passes_hysteresis(-70.0, -70.0, state, "active") is True
        assert passes_hysteresis(-69.9, -70.0, state, "idle") is True


class TestApplyDecision:
    def setup_method(self):
        self.state = AssociationState(associated=MAC_A, threshold=-70.0)
        self.sample = make_sample(3, {MAC_A: -75.0, MAC_B: -55.0})

    def test_valid_roam_changes_association(self):
        decision = PolicyDecision.roam(MAC_B, "test")
        new_state, rec = apply_decision(self.state, self.sample, decision, -70.0)
        assert new_state.associated == MAC_B
        assert rec["valid"] is True
        assert rec["handover"] is True
        assert rec["rssi"] == -55.0

    def test_roam_to_absent_falls_back_to_stay(self):
        decision = PolicyDecision.roam(MAC_C, "test")
        new_state, rec = apply_decision(self.state, self.sample, decision, -70.0)
        assert new_state.associated == MAC_A
        assert rec["valid"] is False
        assert rec["handover"] is False

    def test_roam_below_floor_is_invalid(self):
        sample = make_sample(0, {MAC_A: -60.0, MAC_B: -70.5})
        decision = PolicyDecision.roam(MAC_B, "test")
        new_state, rec = apply_decision(self.state, sample, decision, -70.0)
        assert new_state.associated == MAC_A
        assert rec["valid"] is False

    def test_absent_association_pins_rssi_to_floor(self):
        sample = make_sample(0, {MAC_B: -55.0})
        _, rec = apply_decision(self.state, sample, PolicyDecision.stay("test"), -70.0)
        assert rec["rssi"] == ABSENT_RSSI_DBM

    def test_premarked_invalid_survives_a_valid_fallback_target(self):
        # an upstream fallback roam to a perfectly valid AP still counts invalid
        decision = PolicyDecision.roam(MAC_B, "test", valid=False)
        new_state, rec = apply_decision(self.state, self.sample, decision, -70.0)
        assert new_state.associated == MAC_B
        assert rec["valid"] is False

    def test_never_associates_to_an_invalid_target(self):
        for floor in (-70.0, -60.0, -50.0):
            sample = make_sample(0, {MAC_A: -40.0, MAC_B: floor - 0.1})
            new_state, rec = apply_decision(
                self.state, sample, PolicyDecision.roam(MAC_B, "test"), floor
            )
            assert new_state.associated != MAC_B
            assert rec["valid"] is False


class TestMetrics:
    def test_avg_constant(self):
        assert metrics_of(timeline_of([(MAC_A, -60.0)] * 3))["avg_rssi_dbm"] == -60.0

    def test_avg_mean(self):
        tl = timeline_of([(MAC_A, -50.0), (MAC_A, -70.0)])
        assert metrics_of(tl)["avg_rssi_dbm"] == -60.0

    def test_avg_empty_rejected(self):
        with pytest.raises(DataError):
            metrics_of(RunTimeline(steps=[]))["avg_rssi_dbm"]

    def test_handover_constant_run(self):
        assert metrics_of(timeline_of([(MAC_A, -60.0)] * 10))["handovers"] == 0

    def test_handover_aba(self):
        tl = timeline_of([(MAC_A, -60.0), (MAC_B, -60.0), (MAC_A, -60.0)])
        assert metrics_of(tl)["handovers"] == 2

    def test_reference_recomputation_on_long_run(self):
        trace = generate_synthetic(band_synth(seed=9, duration=1000))
        tl = run_policy(trace, legacy_decide, validity_floor=-100.0)
        # independent one-liner oracles
        assert metrics_of(tl)["avg_rssi_dbm"] == sum(e["rssi"] for e in tl.steps) / len(tl.steps)
        bssids = [e["bssid"] for e in tl.steps]
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
        tl = timeline_of([(MAC_A, -60.0)] * 4, decisions)
        assert metrics_of(tl)["error_rate"] == 0.25

    def test_error_rate_all_valid(self):
        decisions = [PolicyDecision.roam(MAC_B, "p", valid=True)] * 3
        tl = timeline_of([(MAC_A, -60.0)] * 3, decisions)
        assert metrics_of(tl)["error_rate"] == 0.0

    def test_error_rate_absent_without_roams(self):
        assert metrics_of(timeline_of([(MAC_A, -60.0)] * 3))["error_rate"] is None

    def test_set_threshold_excluded_from_denominator(self):
        decisions = [
            PolicyDecision.stay("p", valid=True),  # a valid stay is no roam attempt
            PolicyDecision.roam(MAC_B, "p", valid=False),
            PolicyDecision.roam(MAC_B, "p", valid=True),
        ]
        tl = timeline_of([(MAC_A, -60.0)] * 3, decisions)
        assert metrics_of(tl)["error_rate"] == 0.5

    def test_invalid_stay_counts_as_failed_attempt(self):
        decisions = [
            PolicyDecision.stay("p", valid=False),  # invalid pick, fallback stayed
            PolicyDecision.roam(MAC_B, "p", valid=True),
        ]
        tl = timeline_of([(MAC_A, -60.0)] * 2, decisions)
        assert metrics_of(tl)["error_rate"] == 0.5


class TestMetricProperties:
    @settings(max_examples=50, deadline=None)
    @given(shift=st.floats(-20, 20, allow_nan=False), seed=st.integers(0, 1000))
    def test_avg_translation_equivariance(self, shift, seed):
        trace = generate_synthetic(band_synth(seed=seed, duration=40))
        tl = run_policy(trace, legacy_decide, validity_floor=-100.0)
        shifted = RunTimeline(steps=[{**e, "rssi": e["rssi"] + shift} for e in tl.steps])
        shifted_avg = metrics_of(shifted)["avg_rssi_dbm"]
        assert abs(shifted_avg - (metrics_of(tl)["avg_rssi_dbm"] + shift)) < 1e-9

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_handover_relabel_invariance(self, seed):
        trace = generate_synthetic(band_synth(seed=seed, duration=40))
        tl = run_policy(trace, legacy_decide, validity_floor=-100.0)
        mapping = {}
        relabeled = []
        for e in tl.steps:
            mapping.setdefault(e["bssid"], f"BB:00:00:00:00:{len(mapping) + 1:02X}")
            relabeled.append({**e, "bssid": mapping[e["bssid"]]})
        relabeled_tl = RunTimeline(steps=relabeled)
        assert metrics_of(relabeled_tl)["handovers"] == metrics_of(tl)["handovers"]

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1000))
    def test_handovers_bounded_by_valid_roams(self, seed):
        trace = generate_synthetic(band_synth(seed=seed, duration=80))
        tl = run_policy(trace, legacy_decide)
        valid_roams = sum(1 for e in tl.steps if e["action"] == "roam" and e["valid"])
        assert metrics_of(tl)["handovers"] <= valid_roams <= len(tl.steps)


class TestRunPolicy:
    def test_window_below_one_is_refused(self):
        trace = make_trace([{MAC_A: -60.0}] * 3)
        with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
            run_policy(trace, lambda w, s: PolicyDecision.stay("t"), k=0)

    @pytest.mark.parametrize("k", [1, 2, 5, 12, 40])
    def test_each_step_decides_on_the_trace_window(self, k):
        trace = make_trace([{MAC_A: -60.0 - t} for t in range(15)])
        seen, pre = [], []
        run_policy(trace, lambda w, s: seen.append(w) or PolicyDecision.stay("t"), k=k,
                   pre_decide=lambda w, s: pre.append(w) or s)
        expected = [window(trace, t, k) for t in range(len(trace))]
        assert seen == expected and pre == expected

    def test_initial_association_prefers_ground_truth(self):
        trace = make_trace([{MAC_A: -60.0, MAC_B: -50.0}] * 3, assoc0=MAC_A)
        tl = run_policy(trace, lambda w, s: PolicyDecision.stay("t"))
        assert tl.steps[0]["bssid"] == MAC_A

    def test_initial_association_falls_back_to_strongest(self):
        trace = make_trace([{MAC_A: -60.0, MAC_B: -50.0}] * 3)
        tl = run_policy(trace, lambda w, s: PolicyDecision.stay("t"))
        assert tl.steps[0]["bssid"] == MAC_B

    def test_first_step_never_counts_as_handover(self):
        trace = make_trace([{MAC_A: -80.0, MAC_B: -50.0}] * 3, assoc0=MAC_A)
        tl = run_policy(trace, legacy_decide, validity_floor=-100.0)
        assert tl.steps[0]["bssid"] == MAC_B  # roamed at step 0
        assert tl.steps[0]["handover"] is False
        assert metrics_of(tl)["handovers"] == 0

    def test_hysteresis_margin_follows_each_steps_activity(self):
        # a candidate 10 dB stronger clears the active margin (8) but not the idle one (12)
        trace = Trace(samples=(
            make_sample(0, {MAC_A: -80.0, MAC_B: -70.0}, assoc=MAC_A, activity="active"),
            make_sample(1, {MAC_B: -80.0, MAC_C: -70.0}, activity="idle"),
        ))
        tl = run_policy(trace, legacy_decide, hysteresis=(8.0, 12.0))
        assert [(e["action"], e["bssid"]) for e in tl.steps] == [("roam", MAC_B), ("stay", MAC_B)]
