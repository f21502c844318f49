"""Deterministic car-following environment.

The leader trajectory is replayed from a recorded event; the follower is
advanced with explicit Euler on speed and a trapezoidal update of spacing
and position:

    V(t+1)  = max(0, V(t) + a*dt)
    dV(t+1) = V_lead(t+1) - V(t+1)
    S(t+1)  = S(t) + (dV(t) + dV(t+1)) / 2 * dt

rel_speed follows the leader-minus-follower sign convention: positive when
the gap is opening.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .events import CarFollowingEvent


class RolloutError(RuntimeError):
    """A controller failed during a rollout; carries the step index."""


@dataclass(frozen=True)
class EnvState:
    """RL observation: follower speed, bumper gap, relative speed."""

    follow_speed: float
    spacing: float
    rel_speed: float


@dataclass(frozen=True)
class EnvConfig:
    a_min: float = -3.0          # m/s^2, actuator floor
    a_max: float = 3.0           # m/s^2, actuator ceiling
    collision_gap: float = 0.0   # m; spacing at or below this counts as a crash

    def clamp(self, accel: float) -> float:
        return min(self.a_max, max(self.a_min, accel))


DEFAULT_ENV = EnvConfig()

# Ground-truth replay must reproduce recorded accelerations even when they
# exceed the normal actuator limits.
UNBOUNDED_ENV = EnvConfig(a_min=-math.inf, a_max=math.inf)


@dataclass(frozen=True)
class StepOutcome:
    next_state: EnvState
    collided: bool
    done: bool
    follow_position: float


# A controller maps (state, step index) to a commanded acceleration.
Controller = Callable[[EnvState, int], float]


def reset(event: CarFollowingEvent) -> EnvState:
    """Initial state read off the event's first sample."""
    return EnvState(
        follow_speed=float(event.v_follow[0]),
        spacing=float(event.x_lead[0] - event.x_follow[0]),
        rel_speed=float(event.v_lead[0] - event.v_follow[0]),
    )


def step(state: EnvState, accel: float, lead_speed_next: float, dt: float,
         follow_position: float = 0.0, last: bool = False,
         config: EnvConfig = DEFAULT_ENV) -> StepOutcome:
    """Advance the follower one interval under a commanded acceleration."""
    inputs = (state.follow_speed, state.spacing, state.rel_speed,
              accel, lead_speed_next, dt, follow_position)
    if not all(map(math.isfinite, inputs)):
        raise ValueError(f"non-finite step input: {inputs}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    accel = config.clamp(accel)
    v_next = max(0.0, state.follow_speed + accel * dt)
    dv_next = lead_speed_next - v_next
    s_next = state.spacing + (state.rel_speed + dv_next) / 2.0 * dt
    x_next = follow_position + (state.follow_speed + v_next) / 2.0 * dt
    collided = s_next <= config.collision_gap
    return StepOutcome(
        next_state=EnvState(v_next, s_next, dv_next),
        collided=collided,
        done=collided or last,
        follow_position=x_next,
    )


@dataclass
class SimulatedTrace:
    """Per-step arrays of a rollout; row k is the state at which accel[k] was taken."""

    event_id: str
    dt: float
    t: np.ndarray
    accel: np.ndarray
    v_follow: np.ndarray
    spacing: np.ndarray
    rel_speed: np.ndarray
    x_follow: np.ndarray
    collided: bool = False

    def __len__(self) -> int:
        return len(self.t)

    @property
    def duration(self) -> float:
        return len(self.t) * self.dt

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "accel", "v_follow", "spacing", "rel_speed", "x_follow"])
            for k in range(len(self.t)):
                writer.writerow([repr(float(col[k])) for col in
                                 (self.t, self.accel, self.v_follow,
                                  self.spacing, self.rel_speed, self.x_follow)])


def simulate(event: CarFollowingEvent, controller: Controller, config: EnvConfig = DEFAULT_ENV
             ) -> Iterator[tuple[int, EnvState, float, float, StepOutcome]]:
    """Drive the follower through the event against its recorded leader.

    Yields ``(k, state, follow_position, accel, outcome)`` per step: the state
    and position the controller saw, the clamped acceleration it commanded and
    the step outcome. The controller is asked for step k + 1 only when the
    caller resumes the generator. Stops after the last step or on collision.
    """
    n_steps = len(event) - 1
    state = reset(event)
    x_follow = float(event.x_follow[0])
    v_lead, dt = event.v_lead.tolist(), event.dt
    for k in range(n_steps):
        try:
            a = float(controller(state, k))
        except Exception as exc:
            raise RolloutError(f"controller failed at step {k} of event {event.event_id}: {exc}") from exc
        a = config.clamp(a)
        outcome = step(state, a, v_lead[k + 1], dt,
                       follow_position=x_follow, last=(k == n_steps - 1), config=config)
        yield k, state, x_follow, a, outcome
        if outcome.collided:
            return
        state = outcome.next_state
        x_follow = outcome.follow_position


def rollout(event: CarFollowingEvent, controller: Controller,
            config: EnvConfig = DEFAULT_ENV) -> SimulatedTrace:
    """Simulate the follower against the event's recorded leader.

    Stops early on collision; the colliding step is the last recorded row.
    """
    accel, v, s, dv, x = [], [], [], [], []
    collided = False
    for _, state, x_follow, a, outcome in simulate(event, controller, config):
        accel.append(a)
        v.append(state.follow_speed)
        s.append(state.spacing)
        dv.append(state.rel_speed)
        x.append(x_follow)
        collided = outcome.collided
    return SimulatedTrace(
        event_id=event.event_id,
        dt=event.dt,
        t=event.t[:len(accel)], accel=np.asarray(accel), v_follow=np.asarray(v),
        spacing=np.asarray(s), rel_speed=np.asarray(dv), x_follow=np.asarray(x),
        collided=collided,
    )


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
