"""The lockstep engine (rollout_batch) against the scalar reference (rollout)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecofollower.ddpg import TrainConfig, policy_controller
from ecofollower.env import DEFAULT_ENV, EnvConfig, RolloutError, rollout_batch
from ecofollower.evaluate import evaluate_controller
from ecofollower.events import CarFollowingEvent
from ecofollower.idm import IdmParams, idm_controller
from ecofollower.nets import Mlp
from ecofollower.vtmicro import VtMicroModel, reference_model

import reference_lockstep
from reference_scalar import rollout
from reference_vtmicro import fuel_rate
from synthetic import (UNBOUNDED_ENV, constant_controller, constant_event, make_fleet,
                       recorded_accel_controller)

FIELDS = ("t", "accel", "v_follow", "spacing", "rel_speed", "x_follow")


def fraction(x):
    """A hash of ``x`` in [0, 1), elementwise, with the same bits for an element
    of any array and for a float."""
    u = x * 7919.0
    return u - np.floor(u)


def hashed_controller(bias):
    """Commands in [-3, 3) + bias drawn from the state's spacing, elementwise.

    The same bits come out for each element of an array state whatever its
    length, so one controller serves the whole batch and every single rollout.
    """
    def control(state, k):
        return 6.0 * fraction(state.spacing) - 3.0 + bias

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


def raising_controller(base, k_fail):
    """``base``, except that the lockstep call at step ``k_fail`` raises, and
    so does the one-event call of each event whose spacing hashes low.

    The calls are told apart by their order: the lockstep call of n events is
    followed by the n one-event calls of the retry, before the next step.
    """
    retries = 0   # one-event calls still to come at step k_fail

    def control(state, k):
        nonlocal retries
        if k == k_fail:
            if not retries:
                retries = len(state.spacing)
                raise RuntimeError("radar dropout")
            retries -= 1
            if fraction(state.spacing[0]) < 0.4:
                raise RuntimeError("radar dropout")
        return base(state, k)

    return control


def non_finite_controller(base, k_bad):
    """``base``, with nan or +-inf for the events whose spacing hashes low at step ``k_bad``."""
    def control(state, k):
        a = base(state, k)
        if k != k_bad:
            return a
        u = fraction(state.spacing)
        return np.where(u < 0.1, np.nan, np.where(u < 0.2, np.inf, np.where(u < 0.3, -np.inf, a)))

    return control


def recording(controller, calls):
    """``controller``, appending to ``calls`` each call's step, the state's
    arrays as handed over, and a copy of them taken at the call."""
    def control(state, k):
        fields = (state.follow_speed, state.spacing, state.rel_speed)
        calls.append((k, fields, tuple(np.array(f, copy=True) for f in fields)))
        return controller(state, k)

    return control


def assert_same_outcome(got, want):
    if isinstance(want, RolloutError):
        assert isinstance(got, RolloutError) and str(got) == str(want)
    else:
        assert_same(got, want)


@given(events=fleets, seed=st.integers(0, 2**32 - 1), bias=biases,
       t_headway=st.floats(0.05, 0.5), at=st.floats(0.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_the_reference_loop_gives_the_same_bits_and_calls(events, seed, bias, t_headway, at):
    k_at = int(at * (max(len(ev) for ev in events) - 2))
    net = Mlp.init([3, 8, 8, 1], np.random.default_rng(seed), output_activation="tanh")
    hashed = hashed_controller(bias)
    # a weak actuator floor lets an eager short-headway IDM run into its leaders
    for ctrl, env in ((idm_controller(IdmParams(a_max=3.0, s_jam=0.0, T_headway=t_headway)),
                       EnvConfig(a_min=-0.3, a_max=3.0)),
                      (policy_controller(net, TrainConfig()), DEFAULT_ENV),
                      (hashed, EnvConfig(a_min=-6.0, a_max=6.0, collision_gap=1.0)),
                      (raising_controller(hashed, k_at), DEFAULT_ENV),
                      (non_finite_controller(hashed, k_at), DEFAULT_ENV)):
        calls, want_calls = [], []
        got = rollout_batch(events, recording(ctrl, calls), env)
        want = reference_lockstep.rollout_batch(events, recording(ctrl, want_calls), env)
        for g, w in zip(got, want, strict=True):
            assert_same_outcome(g, w)
        assert len(calls) == len(want_calls)
        for (k, fields, copies), (want_k, _, want_fields) in zip(calls, want_calls):
            assert k == want_k
            for f, copy, want_f in zip(fields, copies, want_fields):
                # the same values in the same order, never written after the call
                assert np.shape(f) == np.shape(want_f)
                np.testing.assert_array_equal(copy, want_f)
                np.testing.assert_array_equal(f, copy)


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
        model = VtMicroModel(accel, decel)
        got = model.rates(np.full(3, 5.0), np.array([0.5, 0.0, -0.5]))
        np.testing.assert_allclose(got, [2.0, 2.0, 3.0], rtol=1e-15)

    def test_overflow_gives_inf(self):
        k = np.zeros((4, 4))
        k[1, 0] = 100.0   # exponent 100 v
        model = VtMicroModel(k, k)
        got = model.rates(np.array([1.0, 10.0]), np.array([0.0, -1.0]))
        assert got[0] == pytest.approx(math.exp(100.0)) and got[1] == math.inf
        assert fuel_rate(model.accel, model.decel, 10.0, -1.0) == math.inf
