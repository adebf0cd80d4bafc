"""Baseline policies, optimal-plan solvers, and the external adapter."""

from __future__ import annotations

import random
import tracemalloc
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    MAC_A,
    MAC_B,
    MAC_C,
    FakeJsonConnection,
    band_synth,
    json_values,
    mac,
    make_trace,
    metrics_of,
    timeline_signature,
)
from roamsim import policies
from roamsim.errors import ConfigError, SearchSpaceError
from roamsim.policies import (
    OBJECTIVE_MAX_RSSI,
    OBJECTIVE_MIN_HO,
    AssociationPlan,
    ExternalPolicy,
    _finish_plan,
    _objective_key,
    _step_choices,
    brute_force_plan,
    heuristic_decide,
    legacy_decide,
    oracle_opt_ho,
    oracle_opt_rssi,
    solve_plan,
)
from roamsim.roaming import AssociationState, run_policy, should_scan
from roamsim.trace import ScanSample, SynthConfig, Trace, generate_synthetic, window


def win_of(trace, t, k=10):
    return window(trace, t, k)


class TestHeuristic:
    def test_triggers_roam_and_is_deterministic(self):
        trace = make_trace([{MAC_A: -75.0, MAC_B: -72.0, MAC_C: -74.0}])
        state = AssociationState(associated=MAC_A, threshold=-70.0)
        first = heuristic_decide(win_of(trace, 0), state, seed=4)
        assert first.target is not None
        assert first.target in (MAC_A, MAC_B, MAC_C)
        for _ in range(5):
            again = heuristic_decide(win_of(trace, 0), state, seed=4)
            assert again == first

    def test_stays_above_threshold(self):
        trace = make_trace([{MAC_A: -60.0, MAC_B: -50.0}])
        state = AssociationState(associated=MAC_A, threshold=-70.0)
        assert heuristic_decide(win_of(trace, 0), state, seed=1).target is None

    def test_uniform_pick_frequencies(self):
        # 10^4 trigger steps over 4 candidates: each frequency within
        # 4 sigma of 0.25, sigma = sqrt(0.25 * 0.75 / n)
        n = 10_000
        levels = {MAC_A: -80.0, MAC_B: -80.0, MAC_C: -80.0, "AA:00:00:00:00:04": -80.0}
        trace = make_trace([dict(levels) for _ in range(n)])
        state = AssociationState(associated=MAC_A, threshold=-70.0)
        counts: dict[str, int] = {}
        for t in range(n):
            decision = heuristic_decide(win_of(trace, t, 1), state, seed=99)
            assert decision.target is not None
            counts[decision.target] = counts.get(decision.target, 0) + 1
        bound = 4 * (0.25 * 0.75 / n) ** 0.5
        assert set(counts) == set(levels)
        for picks in counts.values():
            assert abs(picks / n - 0.25) < bound

    def test_emits_roam_only_on_trigger(self):
        trace = generate_synthetic(band_synth(seed=3, duration=100))
        state_thr = -70.0
        for t in range(len(trace.samples)):
            win = win_of(trace, t)
            state = AssociationState(associated=MAC_A, threshold=state_thr)
            decision = heuristic_decide(win, state, seed=0)
            from roamsim.roaming import rssi_of

            triggered = should_scan(rssi_of(win[-1], MAC_A), state_thr)
            assert (decision.target is not None) == triggered


class TestLegacy:
    def test_roams_to_strongest(self):
        trace = make_trace([{MAC_A: -68.0, MAC_B: -60.0, MAC_C: -75.0}])
        state = AssociationState(associated=MAC_C, threshold=-70.0)
        decision = legacy_decide(win_of(trace, 0), state)
        assert decision.target is not None
        assert decision.target == MAC_B

    def test_stays_when_best_is_current(self):
        trace = make_trace([{MAC_A: -75.0, MAC_B: -80.0}])
        state = AssociationState(associated=MAC_A, threshold=-70.0)
        assert legacy_decide(win_of(trace, 0), state).target is None

    def test_hysteresis_blocks_small_gains(self):
        trace = make_trace([{MAC_A: -75.0, MAC_B: -70.0}])
        state = AssociationState(
            associated=MAC_A, threshold=-70.0, hysteresis_active=8.0, hysteresis_idle=12.0
        )
        assert legacy_decide(win_of(trace, 0), state).target is None

    def test_tie_breaks_lexicographically(self):
        trace = make_trace([{MAC_C: -60.0, MAC_B: -60.0, MAC_A: -80.0}])
        state = AssociationState(associated=MAC_A, threshold=-70.0)
        assert legacy_decide(win_of(trace, 0), state).target == MAC_B


class TestFixedThreshold:
    def test_triggers_where_rssi_below_constant(self):
        rows = [{MAC_A: -55.0, MAC_B: -58.0}, {MAC_A: -62.0, MAC_B: -58.0}]
        trace = make_trace(rows, assoc0=MAC_A)
        decide = partial(legacy_decide, source="fixed(-60)")
        state = AssociationState(associated=MAC_A, threshold=-60.0)
        assert decide(win_of(trace, 0), state).target is None
        assert decide(win_of(trace, 1), state).target is not None

    def test_minus_100_never_triggers(self):
        trace = generate_synthetic(band_synth(seed=8, duration=120))
        tl = run_policy(trace, legacy_decide, scan_rssi=-100.0, validity_floor=-100.0)
        assert metrics_of(tl)["handovers"] == 0
        assert all(e["action"] == "stay" for e in tl.steps)

    def test_lower_threshold_triggers_less(self):
        trace = generate_synthetic(band_synth(seed=12, duration=300))
        assoc = [trace.samples[0].candidates[0].bssid] * len(trace.samples)

        def trigger_count(threshold):
            from roamsim.roaming import rssi_of

            return sum(
                1
                for t, s in enumerate(trace.samples)
                if should_scan(rssi_of(s, assoc[t]), threshold)
            )

        assert trigger_count(-80.0) <= trigger_count(-50.0)


class TestOracles:
    def test_single_ap_plan(self):
        trace = make_trace([{MAC_A: -60.0 - t} for t in range(6)])
        plan = oracle_opt_ho(trace, -100.0)
        assert plan.plan == (MAC_A,) * 6
        assert plan.handovers == 0

    def test_staggered_feasibility_forces_one_switch(self):
        # A usable early only, B usable late only, overlap in the middle;
        # B is the stronger AP, so the single switch lands at the start of
        # the overlap
        rows = []
        for t in range(10):
            a = -60.0 if t <= 4 else -80.0
            b = -58.0 if t >= 3 else -85.0
            rows.append({MAC_A: a, MAC_B: b})
        trace = make_trace(rows)
        floor = -70.0
        plan = oracle_opt_ho(trace, floor)
        assert plan.handovers == 1
        switch = next(t for t in range(1, 10) if plan.plan[t] != plan.plan[t - 1])
        assert switch == 3
        assert plan.plan == (MAC_A,) * 3 + (MAC_B,) * 7
        ref = brute_force_plan(trace, OBJECTIVE_MIN_HO, floor)
        assert plan == ref

    def test_opt_rssi_follows_unique_argmax(self):
        rows = [
            {MAC_A: -50.0, MAC_B: -60.0},
            {MAC_A: -65.0, MAC_B: -55.0},
            {MAC_A: -52.0, MAC_B: -58.0},
        ]
        trace = make_trace(rows)
        plan = oracle_opt_rssi(trace, -100.0)
        assert plan.plan == (MAC_A, MAC_B, MAC_A)

    def test_opt_rssi_tie_prefers_staying(self):
        trace = make_trace([{MAC_A: -60.0, MAC_B: -60.0}] * 5)
        plan = oracle_opt_rssi(trace, -100.0)
        assert plan.handovers == 0
        assert plan.plan == (MAC_A,) * 5  # lexicographic final tie-break

    def test_an_ap_exactly_on_the_floor_is_feasible(self):
        # B is on the floor at t0 but not the strongest; A is below it at t1,
        # so staying on B from the start is the one plan with no handover.
        trace = make_trace([{MAC_A: -50.0, MAC_B: -70.0}, {MAC_A: -90.0, MAC_B: -60.0}])
        assert _step_choices(trace.samples[0], -70.0) == {MAC_A: -50.0, MAC_B: -70.0}
        assert oracle_opt_ho(trace, -70.0) == AssociationPlan(
            (MAC_B, MAC_B), OBJECTIVE_MIN_HO, 0.0, 0)

    def test_empty_feasible_set_relaxes_to_argmax(self):
        rows = [{MAC_A: -60.0, MAC_B: -65.0}, {MAC_A: -90.0, MAC_B: -85.0}]
        trace = make_trace(rows)
        plan = oracle_opt_rssi(trace, -70.0)
        assert plan.plan[1] == MAC_B  # strongest available despite being below floor

    @pytest.mark.parametrize("floor, message", [
        (float("nan"), "validity_floor out of range: nan"),
        (5.0, "validity_floor out of range: 5.0"),
        (-100.5, "validity_floor out of range: -100.5"),
    ], ids=["nan", "above", "below"])
    def test_bad_constraints_rejected(self, floor, message):
        trace = make_trace([{MAC_A: -60.0}])
        for solve in (solve_plan, brute_force_plan):
            with pytest.raises(ConfigError, match=message):
                solve(trace, OBJECTIVE_MIN_HO, floor)

    def test_unknown_objective_rejected(self):
        trace = make_trace([{MAC_A: -60.0}])
        with pytest.raises(ValueError, match="unknown objective: 'min_rssi'"):
            solve_plan(trace, "min_rssi")


class TestBruteForce:
    def test_t1_picks_best_single_choice(self):
        trace = make_trace([{MAC_A: -60.0, MAC_B: -50.0}])
        plan = brute_force_plan(trace, OBJECTIVE_MAX_RSSI, -100.0)
        assert plan.plan == (MAC_B,)

    def test_hand_enumerated_t3_a2(self):
        # feasible sets at floor -70: {A,B}, {B}, {A}; the two plans are
        # (A,B,A) ho=2 sum=-178 and (B,B,A) ho=1 sum=-180
        rows = [
            {MAC_A: -60.0, MAC_B: -62.0},
            {MAC_A: -75.0, MAC_B: -58.0},
            {MAC_A: -60.0, MAC_B: -72.0},
        ]
        trace = make_trace(rows)
        floor = -70.0
        ho_plan = brute_force_plan(trace, OBJECTIVE_MIN_HO, floor)
        assert ho_plan.plan == (MAC_B, MAC_B, MAC_A)
        assert ho_plan.handovers == 1
        rssi_plan = brute_force_plan(trace, OBJECTIVE_MAX_RSSI, floor)
        assert rssi_plan.plan == (MAC_A, MAC_B, MAC_A)
        assert rssi_plan.objective_value == -178.0

    def test_guard_rejects_huge_spaces(self):
        trace = generate_synthetic(band_synth(seed=1, duration=40, num_aps=4))
        with pytest.raises(SearchSpaceError):
            brute_force_plan(trace, OBJECTIVE_MIN_HO, -100.0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), T=st.integers(1, 8), A=st.integers(1, 3),
           objective=st.sampled_from([OBJECTIVE_MIN_HO, OBJECTIVE_MAX_RSSI]))
    def test_dp_equals_brute_force(self, seed, T, A, objective):
        trace = generate_synthetic(band_synth(seed=seed, duration=T, num_aps=A))
        floor = -70.0
        assert solve_plan(trace, objective, floor) == brute_force_plan(
            trace, objective, floor
        )

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000),
           objective=st.sampled_from([OBJECTIVE_MIN_HO, OBJECTIVE_MAX_RSSI]))
    def test_dp_equals_brute_force_with_varying_presence(self, seed, objective):
        # candidate sets differ per step: APs drop in and out of the scans
        import random as _random

        from conftest import mac

        rng = _random.Random(seed)
        T, A = rng.randint(1, 8), rng.randint(2, 3)
        rows = []
        for _ in range(T):
            present = rng.sample(range(A), rng.randint(1, A))
            rows.append({mac(i): rng.uniform(-90.0, -50.0) for i in present})
        trace = make_trace(rows)
        floor = -70.0
        assert solve_plan(trace, objective, floor) == brute_force_plan(
            trace, objective, floor
        )

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_dp_equals_brute_force_when_scans_are_not_in_bssid_order(self, seed):
        # integer-dBm levels, so RSSI ties are common; each scan lists its APs in
        # a drawn order, so the order the solvers meet them in is not BSSID order
        rng = random.Random(seed)
        samples = []
        for t in range(rng.randint(1, 6)):
            present = rng.sample(range(4), rng.randint(1, 4))
            samples.append(ScanSample(timestamp=t, bssids=tuple(mac(i) for i in present),
                                      rssis=tuple(float(rng.randint(-72, -62)) for _ in present)))
        trace = Trace(samples=tuple(samples))
        for objective in (OBJECTIVE_MIN_HO, OBJECTIVE_MAX_RSSI):
            for floor in (-100.0, -70.0, -65.0):
                assert solve_plan(trace, objective, floor) == brute_force_plan(
                    trace, objective, floor)


def reference_solve_plan(trace, objective, floor):
    """The all-pairs O(T*A^2) recurrence: every AP at every step tries every
    successor and keeps the first strictly better key. The choices go in BSSID
    order, so the first of equal keys is the smallest BSSID."""
    key = _objective_key(objective)
    choices = [dict(sorted(_step_choices(s, floor).items())) for s in trace.samples]
    T = len(choices)
    value = [dict() for _ in range(T)]
    value[T - 1] = {a: (0, rssi) for a, rssi in choices[T - 1].items()}
    for t in range(T - 2, -1, -1):
        nxt = value[t + 1]
        for a, rssi in choices[t].items():
            best = None
            best_key = None
            for b, (ho, srssi) in nxt.items():
                cand = (ho + (1 if b != a else 0), rssi + srssi)
                cand_key = key(*cand)
                if best_key is None or cand_key < best_key:
                    best, best_key = cand, cand_key
            value[t][a] = best

    first = min(choices[0], key=lambda a: (key(*value[0][a]), a))
    plan = [first]
    for t in range(T - 1):
        target = value[t][plan[-1]]
        here = choices[t][plan[-1]]
        for b in choices[t + 1]:
            ho, srssi = value[t + 1][b]
            if (ho + (1 if b != plan[-1] else 0), here + srssi) == target:
                plan.append(b)
                break
    return _finish_plan(plan, value[0][first][1], objective)


# Values whose sums round together: -60.0 + -59.99999999999999 and
# -60.00000000000001 + -60.0 both round to -120.0, so suffixes with different
# sums tie once an RSSI is added; -0.0 and 0.0 compare equal but differ in sign.
# Random draws seldom reach a rounding tie between suffixes with different
# handover counts, so test_rounding_tie_goes_to_fewer_handovers pins that case.
TIE_RSSI = (-60.0, -59.99999999999999, -60.00000000000001, -1e-9, -0.0, 0.0, -45.5, -75.0)


@st.composite
def tie_heavy_rows(draw):
    num_aps = draw(st.one_of(st.integers(1, 4), st.integers(1, 64)))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        levels = draw(st.lists(st.sampled_from(TIE_RSSI + (None,)),
                               min_size=num_aps, max_size=num_aps))
        row = {mac(i): r for i, r in enumerate(levels) if r is not None}
        rows.append(row or {mac(0): -60.0})  # every AP absent: keep the step non-empty
    return rows


class TestSolverAgainstReference:
    def test_rounding_tie_goes_to_fewer_handovers(self):
        # At step 1, A's suffix (1 handover, -60.0) outranks B's (0 handovers,
        # -60.00000000000001), but both round to -120.0 once C's -60.0 is
        # added at step 0, so opt-rssi must take B's suffix for C
        rows = [{MAC_C: -60.0}, {MAC_A: -60.0, MAC_B: -60.00000000000001},
                {MAC_B: -0.0, MAC_C: -0.0}]
        trace = make_trace(rows)
        floor = -100.0
        plan = solve_plan(trace, OBJECTIVE_MAX_RSSI, floor)
        assert plan.plan == (MAC_C, MAC_B, MAC_B)
        assert plan.handovers == 1
        assert plan == reference_solve_plan(trace, OBJECTIVE_MAX_RSSI, floor)

    @settings(max_examples=150, deadline=None)
    @given(rows=tie_heavy_rows(),
           objective=st.sampled_from([OBJECTIVE_MIN_HO, OBJECTIVE_MAX_RSSI]),
           floor=st.sampled_from([-100.0, -70.0, -60.0, -59.99999999999999, -1e-9]))
    def test_equals_quadratic_dp_on_tie_heavy_traces(self, rows, objective, floor):
        trace = make_trace(rows)
        expected = reference_solve_plan(trace, objective, floor)
        got = solve_plan(trace, objective, floor)
        assert got == expected
        # AssociationPlan equality treats -0.0 and 0.0 alike; the sign must match too
        assert repr(got.objective_value) == repr(expected.objective_value)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), num_aps=st.integers(1, 6),
           objective=st.sampled_from([OBJECTIVE_MIN_HO, OBJECTIVE_MAX_RSSI]))
    def test_equals_quadratic_dp_on_synthetic_walks(self, seed, num_aps, objective):
        trace = generate_synthetic(band_synth(seed=seed, duration=120, num_aps=num_aps))
        floor = -70.0
        assert solve_plan(trace, objective, floor) == reference_solve_plan(
            trace, objective, floor
        )


class TestSolverMemory:
    """tracemalloc counts Python allocations exactly, so the bound does not
    depend on timing. Holding one step of suffix values, a solve here peaks
    near 2.1 MB; a value table kept for every step took it past 5.1 MB."""

    @pytest.mark.parametrize("objective", [OBJECTIVE_MIN_HO, OBJECTIVE_MAX_RSSI])
    def test_solve_keeps_one_step_of_values(self, objective):
        trace = generate_synthetic(SynthConfig(num_aps=32, duration=2000, base_dbm=-65.0,
                                               step_stddev=2.0, seed=1))
        tracemalloc.start()
        try:
            plan = solve_plan(trace, objective)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(plan.plan) == 2000
        assert peak < 3_500_000


class TestPolicyPurity:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_replays_are_bit_identical(self, seed):
        trace = generate_synthetic(band_synth(seed=seed, duration=60))
        a = run_policy(trace, partial(heuristic_decide, seed=seed))
        b = run_policy(trace, partial(heuristic_decide, seed=seed))
        assert a == b
        la = run_policy(trace, legacy_decide)
        lb = run_policy(trace, legacy_decide)
        assert la == lb


class TestExternalAdapter:
    def test_always_stay_stub_means_zero_handovers(self, loopback, conn):
        url = loopback().url + "/decide"
        trace = generate_synthetic(band_synth(seed=21, duration=60))
        tl = run_policy(trace, ExternalPolicy(url, conn).decide, validity_floor=-100.0)
        assert metrics_of(tl)["handovers"] == 0

    def test_argmax_stub_matches_legacy(self, loopback, conn):
        url = loopback(roam=True).url + "/decide"
        trace = generate_synthetic(band_synth(seed=22, duration=80))
        ext = run_policy(trace, ExternalPolicy(url, conn).decide, validity_floor=-100.0)
        leg = run_policy(trace, legacy_decide, validity_floor=-100.0)
        assert timeline_signature(ext) == timeline_signature(leg)

    def test_unreachable_endpoint_degrades_to_stay(self, conn):
        policy = ExternalPolicy("http://127.0.0.1:1/decide", conn)
        # the scan trigger (-70 dBm on the associated AP) fires on steps 0, 2 and 3
        rows = [{MAC_A: -80.0, MAC_B: -60.0}, {MAC_A: -60.0, MAC_B: -80.0},
                {MAC_A: -75.0, MAC_B: -65.0}, {MAC_A: -71.0, MAC_C: -50.0}]
        trace = make_trace(rows, assoc0=MAC_A)
        tl = run_policy(trace, policy.decide, validity_floor=-100.0)
        assert all(e["action"] == "stay" for e in tl.steps)
        faults = sum(1 for e in tl.steps if e["fault"])
        from roamsim.roaming import rssi_of

        expected_triggers = 0
        assoc = tl.steps[0]["bssid"]
        for s in trace.samples:  # association never changes in this run
            if should_scan(rssi_of(s, assoc), -70.0):
                expected_triggers += 1
        assert expected_triggers >= 1
        assert faults >= 1
        assert faults == expected_triggers

    @pytest.mark.parametrize(
        "raw",
        [b"[]", b'"x"', b"null", b"1", b'{"action": "roam", "bssid": 5}',
         b'{"action": "roam"}', b'{"action": "jump"}', b"{not json"],
        ids=["list", "string", "null", "number", "bssid-int", "no-bssid", "bad-action",
             "not-json"],
    )
    def test_malformed_reply_is_a_fault_stay(self, loopback, raw, conn):
        url = loopback(raw_reply=raw).url + "/decide"
        # the scan trigger (-70 dBm on the associated AP) fires on steps 0 and 2
        rows = [{MAC_A: -80.0, MAC_B: -60.0}, {MAC_A: -60.0, MAC_B: -80.0},
                {MAC_A: -75.0, MAC_B: -65.0}]
        trace = make_trace(rows, assoc0=MAC_A)
        tl = run_policy(trace, ExternalPolicy(url, conn).decide, validity_floor=-100.0)
        assert all(e["action"] == "stay" for e in tl.steps)
        assert [e["fault"] for e in tl.steps] == [True, False, True]

    def test_sliding_windows_render_each_sample_once(self, monkeypatch):
        rendered = []
        real = policies.jsonl_line

        def counting(sample):
            rendered.append(sample)
            return real(sample)

        monkeypatch.setattr(policies, "jsonl_line", counting)
        trace = generate_synthetic(band_synth(seed=23, duration=40))
        conn = FakeJsonConnection({"action": "stay"})
        policy = ExternalPolicy("http://127.0.0.1:1/decide", conn)
        state = AssociationState(associated=None, threshold=0.0)  # every step posts
        for t in range(40):
            policy.decide(win_of(trace, t, k=10), state)
        assert len(conn.bodies) == 40
        assert rendered == list(trace.samples)

    @settings(max_examples=200, deadline=None)
    @given(body=json_values)
    def test_any_json_reply_ends_in_a_decision(self, body):
        trace = make_trace([{MAC_A: -80.0, MAC_B: -60.0}])
        policy = ExternalPolicy("http://127.0.0.1:1/decide", FakeJsonConnection(body))
        decision = policy.decide(win_of(trace, 0), AssociationState(associated=MAC_A))
        if decision.fault:
            assert decision.target is None
        else:
            assert decision.source == "external"
