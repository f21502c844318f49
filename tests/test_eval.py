import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecofollower.env import DEFAULT_ENV, SimulatedTrace, rollout_batch
from ecofollower.evaluate import (EvalConfig, GROUND_TRUTH, NonFiniteFuelError, compare,
                                  evaluate_controller, evaluate_ground_truth,
                                  export_distributions, pooled_steps, render_text,
                                  summarize_traces, trace_from_event)
from ecofollower.events import CarFollowingEvent
from ecofollower.idm import IdmParams, idm_controller
from ecofollower.indicators import SPEED_FLOOR
from ecofollower.vtmicro import VtMicroModel, reference_model

import reference_pooling
from reference_scalar import rollout
from synthetic import constant_controller, constant_event, make_fleet, positions_from_speeds

FUEL = reference_model()
UNIT_FUEL = VtMicroModel(accel=np.zeros((4, 4)), decel=np.zeros((4, 4)))


def summary_stub(name, fuel):
    from ecofollower.evaluate import IndicatorSummary
    return IndicatorSummary(name=name, mean_ttc=10.0, mean_abs_jerk=0.3,
                            mean_headway=1.4, mean_fuel_rate=fuel,
                            events_evaluated=5, collisions=0)


class TestGroundTruthReplayIdentity:
    def test_indicators_match_direct_computation(self):
        events = make_fleet(3, seed=31)
        cfg = EvalConfig()
        result = evaluate_ground_truth(events, UNIT_FUEL, cfg)
        # independent recomputation straight from the recorded arrays
        ttc_vals, jerk_vals, headway_vals, steps = [], [], [], 0
        for ev in events:
            dv = ev.v_lead - ev.v_follow
            gap = ev.gap
            accel = np.diff(ev.v_follow) / ev.dt
            for k in range(len(ev) - 1):
                steps += 1
                if dv[k] < 0:
                    ttc_vals.append(min(-gap[k] / dv[k], cfg.ttc_cap))
                prev = accel[k - 1] if k > 0 else 0.0
                jerk_vals.append((accel[k] - prev) / ev.dt)
                if ev.v_follow[k] >= SPEED_FLOOR:
                    headway_vals.append(gap[k] / ev.v_follow[k])
        s = result.summary
        assert s.mean_ttc == pytest.approx(np.mean(ttc_vals), abs=1e-9)
        assert s.mean_abs_jerk == pytest.approx(np.mean(np.abs(jerk_vals)), abs=1e-9)
        assert s.mean_headway == pytest.approx(np.mean(headway_vals), abs=1e-9)
        assert s.mean_fuel_rate == pytest.approx(1.0, abs=1e-12)  # unit fuel table
        assert s.events_evaluated == len(events)
        assert s.metadata["total_steps"] == steps

    def test_constant_speed_event_zero_jerk(self):
        result = evaluate_ground_truth([constant_event()], UNIT_FUEL)
        assert result.summary.mean_abs_jerk == pytest.approx(0.0, abs=1e-9)

    def test_recorded_accel_rollout_agrees_with_direct_trace(self):
        # env-integrated replay matches the direct read-off on consistent fixtures
        from synthetic import UNBOUNDED_ENV, recorded_accel_controller
        ev = make_fleet(1, seed=37)[0]
        sim = rollout(ev, recorded_accel_controller(ev), UNBOUNDED_ENV)
        direct = trace_from_event(ev)
        np.testing.assert_allclose(sim.v_follow, direct.v_follow, atol=1e-9)
        np.testing.assert_allclose(sim.spacing, direct.spacing, atol=1e-6)


class TestHandRolledIdmOracle:
    def test_five_step_rollout_matches_hand_computation(self):
        dt = 0.1
        n = 6
        v_lead = np.array([8.0, 7.8, 7.6, 7.6, 7.9, 8.1])
        x_lead = positions_from_speeds(v_lead, dt, x0=10.0)
        v_f0 = 8.0
        params = IdmParams()
        # hand rollout, reimplementing the formulas independently
        v, s, x = v_f0, 10.0, 0.0
        hv, hs = [], []
        for k in range(n - 1):
            dv_closing = v - v_lead[k]
            s_star = params.s_jam + max(
                0.0, v * params.T_headway
                + v * dv_closing / (2 * math.sqrt(params.a_max * params.a_comf)))
            a = params.a_max * (1 - (v / params.v_desired) ** params.beta - (s_star / s) ** 2)
            a = max(-3.0, min(3.0, a))
            hv.append(v)
            hs.append(s)
            v_next = max(0.0, v + a * dt)
            s = s + ((v_lead[k] - v) + (v_lead[k + 1] - v_next)) / 2 * dt
            v = v_next
        x_follow = positions_from_speeds(np.full(n, v_f0), dt)  # recorded follower: any valid arrays
        ev = CarFollowingEvent.from_arrays("hand", np.arange(n) * dt, x_lead, v_lead,
                                           x_follow, np.full(n, v_f0))
        trace = rollout(ev, idm_controller(params), DEFAULT_ENV)
        np.testing.assert_allclose(trace.v_follow, hv, atol=1e-12)
        np.testing.assert_allclose(trace.spacing, hs, atol=1e-12)

    def test_evaluate_controller_summary_fields(self):
        events = make_fleet(3, seed=41)
        res = evaluate_controller(lambda ev: idm_controller(IdmParams()), "idm",
                                  events, UNIT_FUEL)
        s = res.summary
        assert s.name == "idm"
        assert s.events_evaluated == 3
        assert s.errors == 0
        assert len(res.traces) == 3
        assert math.isfinite(s.mean_headway)


class TestErrorIsolation:
    def test_one_failing_event_does_not_abort(self):
        events = make_fleet(3, seed=43)
        bad_id = events[1].event_id

        def factory(ev):
            if ev.event_id == bad_id:
                def broken(state, k):
                    raise RuntimeError("sensor fault")
                return broken
            return idm_controller(IdmParams())

        res = evaluate_controller(factory, "flaky", events, UNIT_FUEL)
        assert res.summary.events_evaluated == 2
        assert res.summary.errors == 1
        assert res.errors[0][0] == bad_id


class TestCompare:
    def test_paper_arithmetic(self):
        # controller at 0.86 mL/s vs ground truth 0.96 -> ~10.42% saving
        report = compare([summary_stub("policy", 0.86), summary_stub(GROUND_TRUTH, 0.96)])
        assert report["fuel_saving_pct"]["policy"] == pytest.approx(10.4167, abs=5e-3)

    def test_identical_summaries_zero_saving(self):
        report = compare([summary_stub("idm", 0.96), summary_stub(GROUND_TRUTH, 0.96)])
        assert report["fuel_saving_pct"]["idm"] == pytest.approx(0.0, abs=1e-12)

    def test_negative_saving_reported_not_error(self):
        report = compare([summary_stub("idm", 1.2), summary_stub(GROUND_TRUTH, 0.96)])
        assert report["fuel_saving_pct"]["idm"] == pytest.approx(-25.0, abs=1e-9)

    def test_scale_consistency(self):
        a = compare([summary_stub("x", 0.5), summary_stub(GROUND_TRUTH, 0.8)])
        b = compare([summary_stub("x", 0.5 * 3.7), summary_stub(GROUND_TRUTH, 0.8 * 3.7)])
        assert a["fuel_saving_pct"]["x"] == pytest.approx(b["fuel_saving_pct"]["x"], rel=1e-12)

    def test_missing_baseline_rejected(self):
        with pytest.raises(ValueError, match="baseline"):
            compare([summary_stub("policy", 0.86)])

    def test_text_table_column_order(self):
        report = compare([summary_stub("policy", 0.86), summary_stub(GROUND_TRUTH, 0.96)])
        header = render_text(report).splitlines()[0]
        cols = [c.strip() for c in header.split("  ") if c.strip()]
        assert cols[:5] == ["Model", "TTC (s)", "Jerk (m/s^3)", "Time Headway (s)",
                            "Fuel Consumption (mL/s)"]

    def test_undefined_means_are_null_and_dash(self):
        undefined = summary_stub("policy", 0.86)
        undefined.mean_ttc = undefined.mean_abs_jerk = math.nan
        undefined.metadata = {"rms_jerk_m_s3": math.nan, "ttc_steps": 0}
        report = compare([undefined, summary_stub(GROUND_TRUTH, 0.96)])
        obj = json.loads(json.dumps(report, allow_nan=False))
        policy = obj["controllers"][0]
        assert policy["indicators"]["mean_ttc_s"] is None
        assert policy["indicators"]["mean_abs_jerk_m_s3"] is None
        assert policy["indicators"]["mean_headway_s"] == 1.4
        assert policy["metadata"] == {"rms_jerk_m_s3": None, "ttc_steps": 0}
        row = render_text(report).splitlines()[2].split()
        assert row[:5] == ["policy", "-", "-", "1.400", "0.860"]

    @pytest.mark.parametrize("base_fuel", [0.0, 5e-324])
    def test_undefined_saving_is_null_and_dash(self, base_fuel):
        # every VT-Micro rate can underflow to 0; a saving against 0 mL/s, or
        # one that overflows, is undefined rather than an error
        report = compare([summary_stub("policy", 0.0), summary_stub("idm", 0.86),
                          summary_stub(GROUND_TRUTH, base_fuel)])
        obj = json.loads(json.dumps(report, allow_nan=False))
        assert obj["fuel_saving_pct"] == {"policy": None if base_fuel == 0 else 100.0,
                                          "idm": None}
        rows = [row.split() for row in render_text(report).splitlines()[2:]]
        assert [row[5] for row in rows] == ["-" if base_fuel == 0 else "100.00", "-", "-"]


def read_dist_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(x) for x in r] for r in rows[1:]]


class TestExportDistributions:
    def test_single_value_occupies_one_bin(self, tmp_path):
        ev = constant_event(v=8.0, gap=12.0)
        export_distributions({"gt": pooled_steps([trace_from_event(ev)], UNIT_FUEL)},
                             tmp_path, EvalConfig(bins=20))
        header, rows = read_dist_csv(tmp_path / "headway.csv")
        counts = [int(r[2]) for r in rows]
        assert sum(1 for c in counts if c > 0) == 1
        assert sum(counts) == len(ev) - 1

    def test_mass_conservation_and_shared_edges(self, tmp_path):
        events = make_fleet(3, seed=53)
        gt = [trace_from_event(ev) for ev in events]
        idm = [rollout(ev, idm_controller(IdmParams()), DEFAULT_ENV) for ev in events]
        export_distributions({"gt": pooled_steps(gt, UNIT_FUEL),
                              "idm": pooled_steps(idm, UNIT_FUEL)},
                             tmp_path, EvalConfig(bins=30))
        header, rows = read_dist_csv(tmp_path / "jerk.csv")
        assert header == ["bin_left", "bin_right", "gt", "idm"]
        total_steps_gt = sum(len(tr) for tr in gt)
        total_steps_idm = sum(len(tr) for tr in idm)
        assert sum(int(r[2]) for r in rows) == total_steps_gt
        assert sum(int(r[3]) for r in rows) == total_steps_idm

    def test_occupied_bins_confined_to_data_range(self, tmp_path):
        events = make_fleet(2, seed=57)
        gt = [trace_from_event(ev) for ev in events]
        jerks = np.concatenate([np.diff(np.concatenate([[0.0], tr.accel])) / tr.dt for tr in gt])
        export_distributions({"gt": pooled_steps(gt, UNIT_FUEL)},
                             tmp_path, EvalConfig(bins=25))
        _, rows = read_dist_csv(tmp_path / "jerk.csv")
        occupied = [r for r in rows if r[2] > 0]
        assert min(r[0] for r in occupied) >= jerks.min() - 1e-9
        assert max(r[1] for r in occupied) <= jerks.max() + 1e-9


class TestAggregationModes:
    def test_means_pool_steps_across_events(self):
        # one long event and one short event with different headways
        long_ev = constant_event("long", v=8.0, gap=8.0, duration=40.0)
        short_ev = constant_event("short", v=8.0, gap=16.0, duration=16.0)
        pooled = evaluate_ground_truth([long_ev, short_ev], UNIT_FUEL).summary
        n_long, n_short = 400, 160
        want_pooled = (1.0 * n_long + 2.0 * n_short) / (n_long + n_short)
        assert pooled.mean_headway == pytest.approx(want_pooled, abs=1e-9)


def still_trace(event_id, v_follow, dt=0.1):
    n = len(v_follow)
    return SimulatedTrace(event_id=event_id, dt=dt, t=np.arange(n) * dt, accel=np.zeros(n),
                          v_follow=np.asarray(v_follow, dtype=float), spacing=np.full(n, 12.0),
                          rel_speed=np.zeros(n), x_follow=np.zeros(n))


# 1-5 events of 2-16 s at one of three dts: a test that draws two fleets has
# ragged traces and takes jerk at more than one dt
fleets = st.builds(
    lambda seed, count, shortest, dt: make_fleet(count, seed=seed, dt=dt,
                                                 duration_range=(shortest, shortest + 6.0)),
    seed=st.integers(0, 2**32 - 1), count=st.integers(1, 5), shortest=st.floats(2.0, 10.0),
    dt=st.sampled_from([0.05, 0.1, 0.5]))


class TestPooledSteps:
    @given(rolled=fleets, recorded=fleets, accel=st.sampled_from([-2.5, 0.0, 2.5]),
           ttc_cap=st.floats(0.5, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_the_per_trace_form_gives_the_same_bits(self, rolled, recorded, accel, ttc_cap):
        # +2.5 m/s^2 drives followers into their leaders and -2.5 brakes them
        # to a standstill, below the headway speed floor; the "crash" event
        # collides after 13 steps whatever the draw
        crash = constant_event("crash", gap=2.0, duration=5.0)
        traces = [*rollout_batch(rolled, constant_controller(accel), DEFAULT_ENV),
                  *rollout_batch([crash], constant_controller(2.5), DEFAULT_ENV),
                  *map(trace_from_event, recorded)]
        assert traces[-len(recorded) - 1].collided
        cfg = EvalConfig(ttc_cap=ttc_cap)
        steps = pooled_steps(traces, FUEL, cfg)
        values = reference_pooling.trace_values(traces, FUEL, cfg)
        assert list(steps) == list(reference_pooling.FIELDS)
        for key, attr in reference_pooling.FIELDS.items():
            want = np.concatenate([getattr(v, attr) for v in values])
            assert steps[key].dtype == want.dtype and steps[key].tobytes() == want.tobytes(), key
        got = summarize_traces("c", traces, steps, cfg, errors=2).to_json_dict()
        want = reference_pooling.summarize_traces("c", values, cfg, errors=2).to_json_dict()
        assert json.dumps(got) == json.dumps(want)

    @pytest.mark.parametrize("lengths", [[0, 3, 0, 1, 5, 0], [4], [0], [1, 1], [2, 0, 0, 7]])
    def test_jerk_of_ragged_and_empty_traces(self, lengths):
        # each trace's first step differences against 0, at its own dt
        rng = np.random.default_rng(len(lengths))
        traces = []
        for i, n in enumerate(lengths):
            tr = still_trace(f"e{i}", np.full(n, 5.0), dt=(0.1, 0.05, 0.5, 0.04)[i % 4])
            tr.accel[:] = rng.normal(size=n)
            tr.accel[1::3] = -0.0
            traces.append(tr)
        want = np.concatenate([v.jerk for v in reference_pooling.trace_values(traces, FUEL)])
        got = pooled_steps(traces, FUEL)["jerk"]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("i, k", [(0, 0), (0, 2), (1, 0), (2, 0), (2, 3)])
    def test_non_finite_rate_names_its_event_and_step(self, i, k):
        # exp(1000 v) overflows on the one step whose follower moves
        k_v = np.zeros((4, 4))
        k_v[1, 0] = 1000.0
        model = VtMicroModel(accel=k_v, decel=UNIT_FUEL.decel)
        speeds = [np.zeros(3), np.zeros(5), np.zeros(4)]
        speeds[i][k] = 1.0
        traces = [still_trace(eid, v) for eid, v in zip(("a", "b", "c"), speeds)]
        with pytest.raises(NonFiniteFuelError, match=rf"rate inf at step {k} of event {'abc'[i]}$"):
            summarize_traces("c", traces, pooled_steps(traces, model))
        with pytest.raises(NonFiniteFuelError) as want:
            reference_pooling.check_fuel("c", reference_pooling.trace_values(traces, model))
        assert want.match(rf"at step {k} of event {'abc'[i]}$")
