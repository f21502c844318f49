import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecofollower import env
from ecofollower.env import EnvConfig, EnvState, RolloutError, advance, reset, step_limits
from ecofollower.events import CarFollowingEvent

from reference_scalar import rollout, step
from synthetic import (UNBOUNDED_ENV, constant_controller, constant_event, make_fleet,
                       positions_from_speeds, recorded_accel_controller)


def linear_leader_event(event_id="lin", v0=8.0, accel=0.5, gap=30.0, n=1001, dt=0.1):
    """Leader at constant acceleration; recorded follower cruises at v0."""
    t = np.arange(n) * dt
    v_lead = v0 + accel * t
    assert v_lead.min() >= 0
    x_lead = positions_from_speeds(v_lead, dt, x0=gap)
    v_follow = np.full(n, v0)
    x_follow = positions_from_speeds(v_follow, dt)
    assert np.all(x_lead - x_follow > 0)
    return CarFollowingEvent.from_arrays(event_id, t, x_lead, v_lead, x_follow, v_follow)


class TestEnvState:
    def test_named_tuple_fields_and_keywords(self):
        assert EnvState._fields == ("follow_speed", "spacing", "rel_speed")
        state = EnvState(follow_speed=8.0, spacing=12.0, rel_speed=-1.0)
        assert state == EnvState(8.0, 12.0, -1.0)
        assert (state.follow_speed, state.spacing, state.rel_speed) == (8.0, 12.0, -1.0)


class TestReset:
    def test_reads_first_sample(self):
        ev = constant_event(v=8.0, gap=12.0)
        state = reset(ev)
        assert state == EnvState(8.0, 12.0, 0.0)

    def test_rel_speed_is_lead_minus_follow(self):
        t = np.arange(2) * 0.1
        ev = CarFollowingEvent.from_arrays("e", t, [12.0, 13.0], [10.0, 10.0],
                                           [0.0, 0.8], [8.0, 8.0])
        assert reset(ev).rel_speed == pytest.approx(2.0)

    def test_spacing_is_position_difference(self):
        t = np.arange(2) * 0.1
        ev = CarFollowingEvent.from_arrays("e", t, [112.0, 112.8], [8.0, 8.0],
                                           [100.0, 100.8], [8.0, 8.0])
        assert reset(ev).spacing == pytest.approx(12.0)


class TestStep:
    def test_trapezoidal_spacing_update(self):
        # state (8, 10, 2), accel 0, leader keeps dv at +2: S' = 10 + (2+2)/2*0.1
        out = step(EnvState(8.0, 10.0, 2.0), 0.0, lead_speed_next=10.0, dt=0.1)
        assert out.next_state.spacing == pytest.approx(10.2, abs=1e-12)
        assert out.next_state.rel_speed == pytest.approx(2.0)

    def test_equilibrium_unchanged(self):
        out = step(EnvState(8.0, 12.0, 0.0), 0.0, lead_speed_next=8.0, dt=0.1)
        assert out.next_state == EnvState(8.0, 12.0, 0.0)
        assert not out.collided

    def test_collision_threshold(self):
        out = step(EnvState(10.0, 0.05, -5.0), -3.0, lead_speed_next=5.0, dt=0.1)
        assert out.next_state.spacing <= 0.0
        assert out.collided

    def test_speed_clamped_at_zero(self):
        out = step(EnvState(0.1, 20.0, 0.0), -3.0, lead_speed_next=8.0, dt=0.1)
        assert out.next_state.follow_speed == 0.0

    def test_action_clamped_to_bounds(self):
        out = step(EnvState(5.0, 20.0, 0.0), 99.0, lead_speed_next=5.0, dt=0.1)
        assert out.next_state.follow_speed == pytest.approx(5.0 + 3.0 * 0.1)

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            step(EnvState(8.0, math.nan, 0.0), 0.0, 8.0, 0.1)
        with pytest.raises(ValueError):
            step(EnvState(8.0, 10.0, 0.0), 0.0, 8.0, 0.0)

    @given(st.floats(0.0, 30.0), st.floats(0.5, 80.0), st.floats(-10.0, 10.0),
           st.floats(-3.0, 3.0), st.floats(0.0, 30.0))
    @settings(max_examples=200, deadline=None)
    def test_speed_never_negative(self, v, s, dv, a, v_lead_next):
        out = step(EnvState(v, s, dv), a, v_lead_next, 0.1)
        assert out.next_state.follow_speed >= 0.0

    def test_sign_convention_gap_opening(self):
        # positive rel_speed sustained -> spacing grows
        state = EnvState(8.0, 12.0, 2.0)
        out = step(state, 0.0, lead_speed_next=10.0, dt=0.1)
        assert out.next_state.spacing >= state.spacing
        # negative rel_speed sustained -> spacing shrinks
        out = step(EnvState(8.0, 12.0, -2.0), 0.0, lead_speed_next=6.0, dt=0.1)
        assert out.next_state.spacing <= 12.0


class TestRollout:
    def test_replay_matches_recorded_speeds_and_positions(self):
        for ev in make_fleet(4, seed=21):
            trace = rollout(ev, recorded_accel_controller(ev), UNBOUNDED_ENV)
            n = len(trace)
            assert n == len(ev) - 1
            np.testing.assert_allclose(trace.v_follow, ev.v_follow[:n], atol=1e-6)
            np.testing.assert_allclose(trace.x_follow, ev.x_follow[:n], atol=1e-4)
            np.testing.assert_allclose(trace.spacing, ev.gap[:n], atol=1e-4)

    def test_single_sample_event_gives_empty_trace(self):
        # bypass from_arrays: a 1-sample event means no leader data to step into
        one = np.array([0.0])
        ev = CarFollowingEvent("stub", 0.1, one, one + 12.0, one + 8.0, one, one + 8.0)
        trace = rollout(ev, constant_controller(0.0))
        assert len(trace) == 0
        assert not trace.collided

    def test_full_braking_clamps_at_zero_by_step_11(self):
        # from 3 m/s at -3 m/s^2: v hits 0 after 10 steps of 0.1 s and stays 0
        ev = constant_event(v=3.0, gap=500.0, duration=5.0)
        trace = rollout(ev, constant_controller(-3.0))
        assert trace.v_follow[10] == pytest.approx(0.0, abs=1e-12)
        assert np.all(trace.v_follow[10:] == 0.0)
        # closed-form kinematics before the clamp
        for k in range(10):
            assert trace.v_follow[k] == pytest.approx(3.0 - 3.0 * 0.1 * k, abs=1e-12)

    def test_constant_accel_matches_closed_form_spacing(self):
        # both vehicles at constant acceleration: trapezoid is exact for the
        # quadratic gap S(t) = S0 + dv0*t + (a_lead - a_follow)/2 * t^2
        a_lead, a_follow = 0.5, 0.2
        ev = linear_leader_event(accel=a_lead, gap=30.0, n=1001)
        trace = rollout(ev, constant_controller(a_follow))
        t = trace.t
        expected = 30.0 + 0.0 * t + 0.5 * (a_lead - a_follow) * t ** 2
        np.testing.assert_allclose(trace.spacing, expected, atol=1e-9)

    def test_early_termination_on_collision(self):
        ev = constant_event(v=8.0, gap=3.0, duration=20.0)
        trace = rollout(ev, constant_controller(3.0))
        assert trace.collided
        assert len(trace) < len(ev) - 1

    def test_controller_error_carries_step_index(self):
        ev = constant_event()

        def bad(state, k):
            if k == 5:
                raise RuntimeError("boom")
            return 0.0

        with pytest.raises(RolloutError, match="step 5"):
            rollout(ev, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_command_rejected_before_the_clamp(self, bad):
        # clamping first would turn NaN into full braking and +-inf into a bound
        ev = constant_event()
        with pytest.raises(RolloutError, match="step 3 .*non-finite command"):
            rollout(ev, lambda state, k: bad if k == 3 else 0.0)

    def test_deterministic_for_deterministic_controller(self):
        ev = make_fleet(1, seed=3)[0]
        ctrl = constant_controller(0.1)
        a = rollout(ev, ctrl)
        b = rollout(ev, ctrl)
        np.testing.assert_array_equal(a.spacing, b.spacing)

    def test_trace_csv(self, tmp_path):
        ev = constant_event(duration=2.0)
        trace = rollout(ev, constant_controller(0.0))
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,accel,v_follow,spacing,rel_speed,x_follow"
        assert len(lines) == len(trace) + 1


_FINITE = dict(allow_nan=False, allow_infinity=False)


class TestAdvance:
    """The array step against the scalar oracle ``step``, bit for bit."""

    @given(columns=st.lists(st.tuples(
               st.floats(0.0, 40.0) | st.sampled_from([0.0, 1e-300]),   # v
               st.floats(-5.0, 200.0),                                  # spacing
               st.floats(-20.0, 20.0),                                  # rel_speed
               st.floats(-10.0, 10.0, **_FINITE) | st.sampled_from([1e300, -1e300]),  # accel
               st.floats(0.0, 40.0),                                    # lead speed after
               st.floats(-1e4, 1e4),                                    # position
               st.sampled_from([0.1, 0.04, 1.0, 0.1 + 1e-15])),          # dt
               min_size=1, max_size=12),
           bounds=st.sampled_from([(-3.0, 3.0), (-1.0, 6.0), (-0.3, 0.1), (-np.inf, np.inf)]),
           gap=st.sampled_from([0.0, 2.5, -1.0]))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_scalar_step_bit_for_bit(self, columns, bounds, gap):
        config = EnvConfig(a_min=bounds[0], a_max=bounds[1], collision_gap=gap)
        v, s, dv, a, lead, x, dt = map(np.array, zip(*columns))
        row = np.array([a, v, dv, x, s])
        nxt, collided = np.empty_like(row), np.empty(len(v), dtype=bool)
        advance(row, nxt, np.array([dt, dt]), lead, step_limits(config), collided)
        for j, col in enumerate(columns):
            vj, sj, dvj, aj, leadj, xj, dtj = col
            want = step(EnvState(vj, sj, dvj), aj, leadj, dtj, follow_position=xj, config=config)
            assert row[0, j].tobytes() == np.float64(min(bounds[1], max(bounds[0], aj))).tobytes()
            got = (nxt[1, j], nxt[4, j], nxt[2, j], nxt[3, j])
            assert np.array(got).tobytes() == np.array(
                [*want.next_state, want.follow_position]).tobytes(), j
            assert collided[j] == want.collided
            one = env.step(EnvState(vj, sj, dvj), aj, leadj, dtj, follow_position=xj, config=config)
            assert np.array([*one[0], one[2]]).tobytes() == np.array(
                [*want.next_state, want.follow_position]).tobytes()
            assert one[1] == want.collided
