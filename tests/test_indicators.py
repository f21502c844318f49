"""The array indicators agree step by step with the scalar reward formulas."""

import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from ecofollower import indicators
from ecofollower.env import DEFAULT_ENV, rollout
from ecofollower.evaluate import trace_from_event
from ecofollower.idm import IdmParams, idm_controller
from ecofollower.objectives import jerk, time_headway, ttc

from reference_scalar import ttc_signed
from synthetic import make_fleet


def scalar_indicators(trace, cap):
    """The four per-step series built one step at a time from the scalar forms."""
    closing, signed, headway, jerks = [], [], [], []
    accel_prev = 0.0
    for k in range(len(trace)):
        s, dv = float(trace.spacing[k]), float(trace.rel_speed[k])
        v, a = float(trace.v_follow[k]), float(trace.accel[k])
        if (t := ttc(s, dv)) is not None:
            closing.append(min(t, cap))
        if (t := ttc_signed(s, dv)) is not None:
            signed.append(min(cap, max(-cap, t)))
        if (h := time_headway(s, v)) is not None:
            headway.append(h)
        jerks.append(jerk(a, accel_prev, trace.dt))
        accel_prev = a
    return closing, signed, headway, jerks


def assert_match(trace, cap):
    closing, signed, headway, jerks = scalar_indicators(trace, cap)
    np.testing.assert_array_equal(
        indicators.ttc_closing(trace.spacing, trace.rel_speed, cap), np.array(closing))
    np.testing.assert_array_equal(
        indicators.ttc_signed(trace.spacing, trace.rel_speed, cap), np.array(signed))
    np.testing.assert_array_equal(
        indicators.headway(trace.spacing, trace.v_follow), np.array(headway))
    np.testing.assert_array_equal(indicators.jerk(trace.accel, trace.dt), np.array(jerks))


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 3),
       t_headway=st.floats(0.3, 2.5), cap=st.sampled_from([indicators.TTC_CAP, 5.0]))
@settings(max_examples=20, deadline=None)
def test_array_indicators_equal_scalar_forms_on_fleets(seed, count, t_headway, cap):
    events = make_fleet(count, seed=seed, duration_range=(15.0, 20.0))
    rng = np.random.default_rng(seed)
    for ev in events:
        # biased random commands stop the follower below the speed floor or drive it
        # into the leader
        accels = rng.uniform(-3.0, 3.0, size=len(ev)) + rng.choice([-1.5, 1.5])
        for trace in (trace_from_event(ev),
                      rollout(ev, idm_controller(IdmParams(T_headway=t_headway)), DEFAULT_ENV),
                      rollout(ev, lambda state, k: accels[k], DEFAULT_ENV)):
            assert_match(trace, cap)


def test_subnormal_speed_difference_gives_the_cap_without_warning():
    # -10 / -5e-324 overflows to inf; the cap takes it
    spacing, closing = np.array([10.0, 10.0]), np.array([-5e-324, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert indicators.ttc_closing(spacing, closing).tolist() == [indicators.TTC_CAP, 10.0]
        assert indicators.ttc_signed(spacing, closing).tolist() == [indicators.TTC_CAP, 10.0]
        assert indicators.ttc_signed(spacing, -closing).tolist() == [-indicators.TTC_CAP, -10.0]
