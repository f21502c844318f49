"""The lockstep engine (rollout_batch) against the scalar reference (rollout)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecofollower.ddpg import TrainConfig, policy_controller
from ecofollower.env import DEFAULT_ENV, EnvConfig, RolloutError, rollout, rollout_batch
from ecofollower.evaluate import evaluate_controller
from ecofollower.events import CarFollowingEvent
from ecofollower.idm import IdmParams, idm_controller
from ecofollower.nets import Mlp
from ecofollower.vtmicro import (VtMicroCoefficients, VtMicroModel, fuel_rate,
                                 reference_model)

from synthetic import (UNBOUNDED_ENV, constant_controller, constant_event, make_fleet,
                       recorded_accel_controller)

FIELDS = ("t", "accel", "v_follow", "spacing", "rel_speed", "x_follow")


def hashed_controller(bias):
    """Commands in [-3, 3) + bias drawn from the state's spacing, elementwise.

    The same bits come out for a float state and for each element of an array
    state, so one controller serves the whole batch and every single rollout.
    """
    def control(state, k):
        u = state.spacing * 7919.0
        return 6.0 * (u - np.floor(u)) - 3.0 + bias

    return control


def assert_same(got, want):
    assert got.event_id == want.event_id
    assert len(got) == len(want) and got.collided == want.collided
    for name in FIELDS:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


def assert_close(got, want, rel):
    """Each field to ``rel`` of its largest magnitude, or of 1 (SI units) if that is smaller.

    The floor keeps a trace whose commands all sit near 0 m/s^2 from turning
    a one-ulp difference of the policy output into a relative failure.
    """
    assert len(got) == len(want) and got.collided == want.collided
    for name in FIELDS:
        want_arr = getattr(want, name)
        scale = np.max(np.abs(want_arr), initial=1.0)
        np.testing.assert_allclose(getattr(got, name), want_arr, rtol=0, atol=rel * scale,
                                   err_msg=name)


fleets = st.builds(
    lambda seed, count, shortest: make_fleet(count, seed=seed,
                                             duration_range=(shortest, shortest + 6.0)),
    seed=st.integers(0, 2**32 - 1), count=st.integers(1, 5), shortest=st.floats(2.0, 10.0))
# +-2.5 m/s^2 of bias drives followers into their leaders or brakes them to standstill
biases = st.sampled_from([-2.5, 0.0, 2.5])


@given(events=fleets, bias=biases)
@settings(max_examples=25, deadline=None)
def test_exact_controllers_give_the_scalar_traces_bit_for_bit(events, bias):
    for ctrl, env in ((constant_controller(bias), DEFAULT_ENV),
                      (hashed_controller(bias), DEFAULT_ENV),
                      (hashed_controller(bias), EnvConfig(a_min=-6.0, a_max=6.0,
                                                          collision_gap=1.0))):
        for got, ev in zip(rollout_batch(events, ctrl, env), events):
            assert_same(got, rollout(ev, ctrl, env))
    for ev in events:
        replay = recorded_accel_controller(ev)
        [got] = rollout_batch([ev], replay, UNBOUNDED_ENV)
        assert_same(got, rollout(ev, replay, UNBOUNDED_ENV))


@given(events=fleets, seed=st.integers(0, 2**32 - 1), bias=biases)
@settings(max_examples=15, deadline=None)
def test_per_event_random_commands_through_evaluate_controller(events, seed, bias):
    rng = np.random.default_rng(seed)
    tables = {ev.event_id: rng.uniform(-3.0, 3.0, len(ev)) + bias for ev in events}

    def factory(ev):
        return lambda state, k, table=tables[ev.event_id]: table[k]

    res = evaluate_controller(factory, "random", events, reference_model())
    assert res.errors == []
    for ev in events:
        assert_same(res.traces[ev.event_id], rollout(ev, factory(ev)))


@given(events=fleets, t_headway=st.floats(0.3, 2.5), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_idm_and_policy_agree_with_the_scalar_traces(events, t_headway, seed):
    idm = idm_controller(IdmParams(T_headway=t_headway))
    net = Mlp.init([3, 8, 8, 1], np.random.default_rng(seed), output_activation="tanh")
    policy = policy_controller(net, TrainConfig())
    for ctrl in (idm, policy):
        for got, ev in zip(rollout_batch(events, ctrl), events):
            assert_close(got, rollout(ev, ctrl), 1e-12)


@given(events=fleets, victim=st.integers(0, 4), at=st.floats(0.0, 1.0))
@settings(max_examples=20, deadline=None)
def test_a_raising_shared_controller_fails_only_its_own_event(events, victim, at):
    victim %= len(events)
    base = constant_controller(0.5)
    reference = [rollout(ev, base) for ev in events]
    k_fail = int(at * (len(reference[victim]) - 1))
    bad_spacing = reference[victim].spacing[k_fail]

    def control(state, k):
        if k == k_fail and np.any(state.spacing == bad_spacing):
            raise RuntimeError("radar dropout")
        return base(state, k)

    for i, got in enumerate(rollout_batch(events, control)):
        if i == victim:
            assert isinstance(got, RolloutError)
            assert f"step {k_fail} of event {events[i].event_id}" in str(got)
            assert "radar dropout" in str(got)
        else:
            assert_same(got, reference[i])


def test_non_finite_command_fails_only_its_own_event():
    events = [constant_event("near", gap=10.0), constant_event("far", gap=30.0)]

    def control(state, k):
        return np.where(state.spacing > 20.0, np.nan, 0.0) if k == 4 else 0.0

    near, far = rollout_batch(events, control)
    assert_same(near, rollout(events[0], constant_controller(0.0)))
    assert isinstance(far, RolloutError)
    assert "step 4 of event far" in str(far) and "non-finite command nan" in str(far)


def test_empty_and_single_sample_events():
    one = np.array([0.0])
    stub = CarFollowingEvent("stub", 0.1, one, one + 12.0, one + 8.0, one, one + 8.0)
    assert rollout_batch([], constant_controller(0.0)) == []
    got, full = rollout_batch([stub, constant_event()], constant_controller(0.0))
    assert_same(got, rollout(stub, constant_controller(0.0)))
    assert_same(full, rollout(constant_event(), constant_controller(0.0)))


class TestEvaluateGrouping:
    def test_shared_controller_is_asked_once_per_lockstep_step(self):
        events = make_fleet(4, seed=7, duration_range=(15.0, 25.0))
        calls = []
        base = idm_controller(IdmParams())

        def control(state, k):
            calls.append(len(state.spacing))
            return base(state, k)

        res = evaluate_controller(lambda ev: control, "idm", events, reference_model())
        assert len(calls) == max(len(ev) for ev in events) - 1
        assert calls[0] == 4 and calls[-1] == 1
        assert res.summary.metadata["total_steps"] == sum(len(ev) - 1 for ev in events)

    def test_interleaved_groups_keep_event_id_order(self):
        events = make_fleet(5, seed=9)
        shared = [constant_controller(0.1), constant_controller(-0.1)]
        res = evaluate_controller(lambda ev: shared[int(ev.event_id[-1]) % 2], "two",
                                  list(reversed(events)), reference_model())
        assert list(res.traces) == sorted(ev.event_id for ev in events)
        for ev in events:
            assert_same(res.traces[ev.event_id],
                        rollout(ev, shared[int(ev.event_id[-1]) % 2]))


class TestArrayFuelRates:
    @given(v=st.lists(st.floats(0.0, 40.0), min_size=1, max_size=40),
           a=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_equal_scalar_fuel_rate(self, v, a):
        n = min(len(v), len(a))
        v, a = np.array(v[:n] + [0.0, 12.0]), np.array(a[:n] + [0.0, -0.0])
        model = reference_model()
        want = np.array([fuel_rate(model.accel, model.decel, float(vk), float(ak))
                         for vk, ak in zip(v, a)])
        np.testing.assert_allclose(model.rates(v, a), want, rtol=1e-14, atol=0)

    def test_both_regimes_and_zero_accel(self):
        accel = np.zeros((4, 4))
        decel = np.zeros((4, 4))
        accel[0, 0], decel[0, 0] = math.log(2.0), math.log(3.0)
        model = VtMicroModel(VtMicroCoefficients(accel, "acceleration"),
                             VtMicroCoefficients(decel, "deceleration"))
        got = model.rates(np.full(3, 5.0), np.array([0.5, 0.0, -0.5]))
        np.testing.assert_allclose(got, [2.0, 2.0, 3.0], rtol=1e-15)

    def test_overflow_gives_inf(self):
        k = np.zeros((4, 4))
        k[1, 0] = 100.0   # exponent 100 v
        table = VtMicroCoefficients(k, "acceleration")
        model = VtMicroModel(table, VtMicroCoefficients(k, "deceleration"))
        got = model.rates(np.array([1.0, 10.0]), np.array([0.0, -1.0]))
        assert got[0] == pytest.approx(math.exp(100.0)) and got[1] == math.inf
        assert fuel_rate(model.accel, model.decel, 10.0, -1.0) == math.inf
