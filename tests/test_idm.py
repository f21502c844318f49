import itertools
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecofollower.cli import read_config
from ecofollower.env import DEFAULT_ENV, EnvConfig, EnvState, RolloutError, rollout_batch
from ecofollower.events import CarFollowingEvent
from ecofollower.idm import (CalibrationError, IdmParams, _spacing_mse, calibrate_idm,
                             desired_spacing, idm_accel, idm_controller)

from reference_scalar import rollout
from synthetic import idm_follower_event, leader_profile, make_fleet, positions_from_speeds

sys.path.append(str(Path(__file__).resolve().parents[1] / "benchmarks"))
import bench_inputs  # noqa: E402


HAND_PARAMS = IdmParams(a_max=1.0, v_desired=15.0, beta=4.0, s_jam=2.0,
                        T_headway=1.2, a_comf=2.0)

# no headway or jam terms, sky-high desired speed and a weak braking term:
# collides on every event of every synthetic fleet, by a wide margin
RAMMER = {"v_desired": 500.0, "s_jam": 0.0, "T_headway": 0.0, "a_max": 3.0, "a_comf": 100.0}


def scalar_spacing_mse(params, events, config=DEFAULT_ENV):
    """Oracle: the score event by event on the scalar engine, stopping at the first collision."""
    controller = idm_controller(params)
    total, count = 0.0, 0
    for ev in events:
        trace = rollout(ev, controller, config)
        if trace.collided:
            return math.inf
        err = trace.spacing - ev.gap[: len(trace)]
        total += float(err @ err)
        count += len(err)
    return total / count


class TestDesiredSpacing:
    def test_standstill_term_vanishes(self):
        assert desired_spacing(HAND_PARAMS, 0.0, 5.0) == HAND_PARAMS.s_jam
        assert desired_spacing(HAND_PARAMS, 0.0, -5.0) == HAND_PARAMS.s_jam

    def test_direct_evaluation(self):
        # v=10, dv=0, T=1.2, s_jam=2 -> 2 + 12 = 14
        assert desired_spacing(HAND_PARAMS, 10.0, 0.0) == pytest.approx(14.0, abs=1e-12)

    def test_max_branch_clips_negative_inner_term(self):
        assert desired_spacing(HAND_PARAMS, 10.0, -100.0) == HAND_PARAMS.s_jam


class TestIdmAccel:
    def test_standstill_equilibrium_exact(self):
        a = idm_accel(HAND_PARAMS, 0.0, HAND_PARAMS.s_jam, 0.0)
        assert abs(a) < 1e-12

    def test_free_flow_limit_from_below(self):
        a = idm_accel(HAND_PARAMS, HAND_PARAMS.v_desired, 1e9, 0.0)
        assert -1e-12 < a < 0.0

    def test_hand_computed_value(self):
        # v=5, v~=15, beta=4, s_jam=2, T=1.2, a_max=1, a_comf=2, dv=0, spacing=8:
        # s~ = 2 + 6 = 8, a = 1 * (1 - (1/3)^4 - 1) = -1/81
        a = idm_accel(HAND_PARAMS, 5.0, 8.0, 0.0)
        assert a == pytest.approx(-1.0 / 81.0, abs=1e-12)

    def test_non_positive_spacing_rejected(self):
        with pytest.raises(ValueError):
            idm_accel(HAND_PARAMS, 5.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            idm_accel(HAND_PARAMS, 5.0, -1.0, 0.0)

    def test_monotone_nonincreasing_in_speed(self):
        spacing = 20.0
        grid = np.linspace(0.0, HAND_PARAMS.v_desired, 200)
        accels = [idm_accel(HAND_PARAMS, v, spacing, 0.0) for v in grid]
        assert all(a1 >= a2 - 1e-12 for a1, a2 in zip(accels, accels[1:]))

    def test_monotone_nondecreasing_in_spacing(self):
        grid = np.linspace(0.5, 200.0, 400)
        accels = [idm_accel(HAND_PARAMS, 8.0, s, 0.0) for s in grid]
        assert all(a2 >= a1 - 1e-12 for a1, a2 in zip(accels, accels[1:]))

    def test_finite_before_clamp_on_positive_spacing(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            v = rng.uniform(0, 40)
            s = rng.uniform(1e-6, 1e6)
            dv = rng.uniform(-20, 20)
            assert math.isfinite(idm_accel(HAND_PARAMS, v, s, dv))

    def test_clamped_to_bounds(self):
        # idm_accel is unbounded; a rollout clamps its command to the env's bounds
        assert idm_accel(HAND_PARAMS, 30.0, 0.5, 10.0) < -3.0
        t = np.arange(5) * 0.1
        ev = CarFollowingEvent.from_arrays("clamp", t, 0.5 + 20.0 * t, np.full(5, 20.0),
                                           np.zeros(5), np.full(5, 30.0))
        trace = rollout(ev, idm_controller(HAND_PARAMS), EnvConfig(a_min=-3.0, a_max=3.0))
        assert trace.accel[0] == -3.0

    def test_braking_when_closing(self):
        # closing on the leader must brake harder than cruising at the same gap
        cruising = idm_accel(HAND_PARAMS, 8.0, 12.0, 0.0)
        closing = idm_accel(HAND_PARAMS, 8.0, 12.0, 3.0)  # dv_closing > 0
        assert closing < cruising


class TestControllerAdapter:
    def test_flips_rel_speed_sign(self):
        ctrl = idm_controller(HAND_PARAMS)
        # rel_speed = -3 (gap closing) must equal dv_closing = +3
        got = ctrl(EnvState(np.array([8.0]), np.array([12.0]), np.array([-3.0])), 0)
        want = idm_accel(HAND_PARAMS, np.array([8.0]), np.array([12.0]), np.array([3.0]))
        assert got.tobytes() == want.tobytes()


def _states(n):
    """n follower speeds, spacings and relative speeds; spacings reach down to
    where the interaction term overflows."""
    return st.tuples(*(st.lists(elems, min_size=n, max_size=n) for elems in (
        st.floats(0.0, 60.0), st.floats(1e-300, 300.0), st.floats(-30.0, 30.0))))


IDM_PARAMS = st.builds(
    IdmParams, a_max=st.floats(0.1, 5.0), v_desired=st.floats(1.0, 60.0),
    beta=st.sampled_from([0.5, 1.0, 2.0, 4.0]) | st.floats(0.5, 8.0), s_jam=st.floats(0.0, 10.0),
    T_headway=st.floats(0.0, 3.0), a_comf=st.floats(0.1, 5.0))


class TestControllerBytePin:
    """The controller's 0-d parameter operands give idm_accel's bytes with the
    float parameters, and each state alone, as a one-element array, gets the
    bits it has in the longer array."""

    @given(params=IDM_PARAMS, data=st.data(), n=st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_equals_idm_accel_with_float_params(self, params, data, n):
        v, s, dv = (np.array(x) for x in data.draw(_states(n)))
        ctrl = idm_controller(params)
        got = ctrl(EnvState(v, s, dv), 3)
        want = idm_accel(params, v, s, -dv)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        # one state at a time, as a retried lockstep step asks
        for j in range(n):
            one = ctrl(EnvState(v[j:j + 1], s[j:j + 1], dv[j:j + 1]), 0)
            assert one.tobytes() == got[j:j + 1].tobytes()

    def test_overflow_gives_minus_inf_in_both(self):
        v, s, dv = np.array([10.0, 10.0]), np.array([1e-300, 20.0]), np.array([0.0, 0.0])
        got = idm_controller(HAND_PARAMS)(EnvState(v, s, dv), 0)
        want = idm_accel(HAND_PARAMS, v, s, -dv)
        assert got[0] == -math.inf and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_spacing_raises_in_both(self, bad):
        v, s, dv = np.full(3, 10.0), np.array([20.0, bad, 20.0]), np.zeros(3)
        with pytest.raises(ValueError, match="positive spacing"):
            idm_controller(HAND_PARAMS)(EnvState(v, s, dv), 0)
        with pytest.raises(ValueError, match="positive spacing"):
            idm_accel(HAND_PARAMS, v, s, -dv)
        # a refused spacing is named as a number, as a one-element call names it
        with pytest.raises(ValueError, match=f"positive spacing, got {bad}$"):
            idm_controller(HAND_PARAMS)(EnvState(np.array([10.0]), np.array([bad]),
                                                 np.zeros(1)), 0)


def braking_event(n=150, dt=0.1):
    """A leader 12 m ahead at 15 m/s that brakes at 9 m/s^2 to a stop, recorded
    with a follower that brakes with it."""
    t = np.arange(n) * dt
    v = np.maximum(0.0, 15.0 - 9.0 * t)
    x = positions_from_speeds(v, dt)
    return CarFollowingEvent.from_arrays("brake", t, 12.0 + x, v, x, v)


def test_a_failing_event_leaves_the_other_traces_bit_for_bit():
    """IDM on the benchmark's seed-1 eval fleet, alone and with an event that it
    drives into its leader: with the collision test off, IDM refuses the
    event's spacing at step 21, the lockstep call raises, and the step is asked
    event by event. Every other event keeps the bits of the run without it."""
    fleet = [CarFollowingEvent.from_arrays(e.event_id, e.t, e.x_lead, e.v_lead, e.x_follow,
                                           e.v_follow)
             for e in bench_inputs.make_fleet(1, "eval", 30, (15.0, 90.0))]
    env, ctrl = EnvConfig(collision_gap=-1e9), idm_controller(IdmParams())
    alone = rollout_batch(fleet, ctrl, env)
    *others, failed = rollout_batch([*fleet, braking_event()], ctrl, env)
    assert isinstance(failed, RolloutError)
    assert str(failed) == ("controller failed at step 21 of event brake: "
                           "idm_accel needs positive spacing, got -0.42055555555553314")
    for got, want in zip(others, alone, strict=True):
        assert not isinstance(want, RolloutError) and got.collided == want.collided
        for name in ("accel", "v_follow", "spacing", "rel_speed", "x_follow"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (
                got.event_id, name)


class TestJsonRoundTrip:
    def test_params_json(self, tmp_path):
        params = IdmParams(a_max=1.3, v_desired=20.0, beta=4.0, s_jam=2.5,
                           T_headway=1.0, a_comf=2.2)
        path = tmp_path / "idm.json"
        path.write_text(json.dumps(asdict(params)))
        assert read_config(IdmParams, json.loads(path.read_text()), "--idm-params") == params

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="s_jam_typo"):
            read_config(IdmParams, {"T_headway": 1.5, "s_jam_typo": 4.0}, "--idm-params")

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            IdmParams(a_max=-1.0)
        with pytest.raises(ValueError):
            IdmParams(s_jam=-0.1)


class TestCalibration:
    def _events_from(self, params, n=4, seed=17):
        rng = np.random.default_rng(seed)
        events = []
        for i in range(n):
            v_lead = leader_profile("sin", 220, 0.1, rng)
            events.append(idm_follower_event(f"cal-{i}", v_lead, 0.1,
                                             gap0=13.0, params=params))
        return events

    def test_self_recovery(self):
        true = IdmParams(a_max=1.2, v_desired=16.0, beta=4.0, s_jam=2.0,
                         T_headway=1.0, a_comf=2.0)
        events = self._events_from(true)
        space = {
            "a_max": [0.8, 1.2],
            "v_desired": [12.0, 16.0],
            "T_headway": [1.0, 1.4],
        }
        got = calibrate_idm(events, space)
        assert got.a_max == true.a_max
        assert got.v_desired == true.v_desired
        assert got.T_headway == true.T_headway
        assert _spacing_mse(got, events, DEFAULT_ENV) < 1e-6

    def test_single_candidate_returned(self):
        events = self._events_from(IdmParams())
        got = calibrate_idm(events, {"a_max": [0.9]})
        assert got.a_max == 0.9

    def test_feasibility_filter(self):
        events = self._events_from(IdmParams())
        # rammer: no headway or jam terms, sky-high desired speed
        space = {
            "v_desired": [15.0, 500.0],
            "s_jam": [2.0, 0.0],
            "T_headway": [1.2, 0.0],
        }
        got = calibrate_idm(events, space)
        assert (got.v_desired, got.s_jam, got.T_headway) == (15.0, 2.0, 1.2)

    def test_all_candidates_collide(self):
        events = self._events_from(IdmParams())
        space = {k: [v] for k, v in RAMMER.items()}
        with pytest.raises(CalibrationError):
            calibrate_idm(events, space)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            calibrate_idm(self._events_from(IdmParams(), n=1), {"nope": [1.0]})

    def test_empty_candidate_list_rejected(self):
        with pytest.raises(ValueError, match="a_max"):
            calibrate_idm(self._events_from(IdmParams(), n=1), {"a_max": [], "s_jam": [2.0]})

    def test_failing_candidate_raises(self):
        # with a negative collision gap a ramming candidate reaches spacing <= 0
        # before it counts as collided, and idm_accel refuses to command it
        events = self._events_from(IdmParams())
        space = {k: [getattr(IdmParams(), k), v] for k, v in RAMMER.items()}
        with pytest.raises(RolloutError, match="positive spacing"):
            calibrate_idm(events, space, EnvConfig(collision_gap=-5.0))


well_conditioned_grids = st.fixed_dictionaries({
    "a_max": st.lists(st.floats(0.5, 2.5), min_size=1, max_size=2, unique=True),
    "v_desired": st.lists(st.floats(8.0, 30.0), min_size=1, max_size=2, unique=True),
    "s_jam": st.lists(st.floats(1.0, 4.0), min_size=1, max_size=2, unique=True),
    "T_headway": st.lists(st.floats(0.5, 2.0), min_size=1, max_size=2, unique=True),
})


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), count=st.integers(1, 4), grid=well_conditioned_grids)
def test_lockstep_scores_match_the_scalar_oracle(seed, count, grid):
    events = make_fleet(count, seed=seed, duration_range=(15.0, 25.0))
    grid_candidates = [replace(IdmParams(), **dict(zip(grid, combo)))
                       for combo in itertools.product(*grid.values())]
    candidates = [*grid_candidates, IdmParams(**RAMMER)]
    want = [scalar_spacing_mse(p, events) for p in candidates]
    got = [_spacing_mse(p, events, DEFAULT_ENV) for p in candidates]
    assert want[-1] == got[-1] == math.inf
    assert [math.isinf(g) for g in got] == [math.isinf(w) for w in want]
    for g, w in zip(got, want):
        if math.isfinite(w):
            assert g == pytest.approx(w, rel=1e-9, abs=0)

    ranked = sorted((w, i) for i, w in enumerate(want[:-1]) if math.isfinite(w))
    if not ranked:
        return
    runner_up = ranked[1][0] if len(ranked) > 1 else math.inf
    if runner_up > ranked[0][0] * (1 + 1e-6):
        assert calibrate_idm(events, grid) == grid_candidates[ranked[0][1]]
