"""Synthetic car-following events and simple controllers for tests.

All events are built by trapezoid-integrating speed profiles, so they are
kinematically consistent with the environment's update rule: replaying the
recorded accelerations reproduces recorded positions to float precision.
"""

from __future__ import annotations

import math

import numpy as np

from ecofollower.env import DEFAULT_ENV, Controller, EnvConfig, EnvState, step
from ecofollower.events import CarFollowingEvent
from ecofollower.idm import IdmParams, idm_accel
from ecofollower.rng import derive_seed


def positions_from_speeds(v: np.ndarray, dt: float, x0: float = 0.0) -> np.ndarray:
    x = np.empty_like(v)
    x[0] = x0
    x[1:] = x0 + np.cumsum((v[:-1] + v[1:]) / 2.0 * dt)
    return x


def constant_event(event_id="const", v=8.0, gap=12.0, duration=20.0, dt=0.1) -> CarFollowingEvent:
    n = int(round(duration / dt)) + 1
    t = np.arange(n) * dt
    v_arr = np.full(n, float(v))
    x_follow = positions_from_speeds(v_arr, dt)
    return CarFollowingEvent.from_arrays(event_id, t, x_follow + gap, v_arr, x_follow, v_arr)


def leader_profile(kind: str, n: int, dt: float, rng: np.random.Generator) -> np.ndarray:
    """Leader speed array: smooth sinusoid or ramped step changes around 8 m/s."""
    t = np.arange(n) * dt
    if kind == "sin":
        amp = rng.uniform(1.0, 2.5)
        period = rng.uniform(8.0, 20.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        return 8.0 + amp * np.sin(2.0 * np.pi * t / period + phase)
    if kind == "step":
        v = np.full(n, 8.0)
        pos = 0
        level = 8.0
        while pos < n:
            hold = int(rng.uniform(3.0, 8.0) / dt)
            new_level = rng.uniform(5.0, 11.0)
            ramp = max(1, int(2.0 / dt))
            end_hold = min(pos + hold, n)
            v[pos:end_hold] = level
            end_ramp = min(end_hold + ramp, n)
            if end_hold < n:
                v[end_hold:end_ramp] = np.linspace(level, new_level, end_ramp - end_hold)
            level = new_level
            pos = end_ramp
        return v
    raise ValueError(kind)


def idm_follower_event(event_id: str, v_lead: np.ndarray, dt: float,
                       gap0: float = 12.0, params: IdmParams | None = None,
                       env: EnvConfig = DEFAULT_ENV) -> CarFollowingEvent:
    """Event whose recorded follower is an IDM rollout against the leader."""
    params = params or IdmParams()
    n = len(v_lead)
    x_lead = positions_from_speeds(np.asarray(v_lead, dtype=float), dt, x0=gap0)
    v_f = np.empty(n)
    x_f = np.empty(n)
    v_f[0], x_f[0] = v_lead[0], 0.0
    state = EnvState(follow_speed=float(v_f[0]), spacing=gap0,
                     rel_speed=float(v_lead[0] - v_f[0]))
    for k in range(n - 1):
        a = env.clamp(idm_accel(params, state.follow_speed, state.spacing, -state.rel_speed))
        out = step(state, a, float(v_lead[k + 1]), dt,
                   follow_position=float(x_f[k]), config=env)
        state = out.next_state
        v_f[k + 1] = state.follow_speed
        x_f[k + 1] = out.follow_position
        if out.collided:
            raise RuntimeError(f"synthetic event {event_id} collided; adjust parameters")
    t = np.arange(n) * dt
    return CarFollowingEvent.from_arrays(event_id, t, x_lead, v_lead, x_f, v_f)


def make_fleet(count: int, seed: int, dt: float = 0.1,
               duration_range=(18.0, 30.0)) -> list[CarFollowingEvent]:
    """Mixed sinusoidal + step-speed leader events with IDM-driven followers."""
    rng = np.random.default_rng(derive_seed(seed, "tests.fleet"))
    events = []
    for i in range(count):
        kind = "sin" if i % 2 == 0 else "step"
        n = int(round(rng.uniform(*duration_range) / dt)) + 1
        v_lead = leader_profile(kind, n, dt, rng)
        gap0 = rng.uniform(10.0, 16.0)
        events.append(idm_follower_event(f"synth-{i:03d}", v_lead, dt, gap0=gap0))
    return events


# Ground-truth replay must reproduce recorded accelerations even when they
# exceed the normal actuator limits.
UNBOUNDED_ENV = EnvConfig(a_min=-math.inf, a_max=math.inf)


def recorded_accel_controller(event: CarFollowingEvent) -> Controller:
    """Controller replaying the event's recorded follower accelerations.

    Accelerations are the finite differences of recorded follower speed, so
    a rollout under UNBOUNDED_ENV reproduces the recorded speed profile.
    """
    accels = np.diff(event.v_follow) / event.dt

    def control(state: EnvState, k: int) -> float:
        return float(accels[k])

    return control


def constant_controller(accel: float) -> Controller:
    def control(state: EnvState, k: int) -> float:
        return accel

    return control
