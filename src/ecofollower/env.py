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

import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .events import CarFollowingEvent, write_csv


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

    def __post_init__(self):
        if not self.a_min < self.a_max:
            raise ValueError(f"a_min must be below a_max, got {self.a_min} and {self.a_max}")

    def clamp(self, accel: float) -> float:
        return min(self.a_max, max(self.a_min, accel))


DEFAULT_ENV = EnvConfig()


class StepOutcome(NamedTuple):
    """One step's result; a named tuple, as it is built once per env step."""

    next_state: EnvState
    collided: bool
    follow_position: float


# A controller maps (state, step index) to a commanded acceleration. Under
# rollout_batch the state's fields are arrays over the running events and the
# controller returns one command per event; a float applies to all of them.
Controller = Callable[[EnvState, int], float | np.ndarray]


def reset(event: CarFollowingEvent) -> EnvState:
    """Initial state read off the event's first sample."""
    return EnvState(
        follow_speed=float(event.v_follow[0]),
        spacing=float(event.x_lead[0] - event.x_follow[0]),
        rel_speed=float(event.v_lead[0] - event.v_follow[0]),
    )


def step(state: EnvState, accel: float, lead_speed_next: float, dt: float,
         follow_position: float = 0.0, config: EnvConfig = DEFAULT_ENV) -> StepOutcome:
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
    return StepOutcome(EnvState(v_next, s_next, dv_next), collided, x_next)


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
        write_csv(path, ("t", "accel", "v_follow", "spacing", "rel_speed", "x_follow"),
                  (self.t, self.accel, self.v_follow, self.spacing, self.rel_speed, self.x_follow))


def simulate(event: CarFollowingEvent, controller: Controller, config: EnvConfig = DEFAULT_ENV
             ) -> Iterator[tuple[int, EnvState, float, float, StepOutcome]]:
    """Drive the follower through the event against its recorded leader.

    Yields ``(k, state, follow_position, accel, outcome)`` per step: the state
    and position the controller saw, the clamped acceleration it commanded and
    the step outcome. The controller is asked for step k + 1 only when the
    caller resumes the generator. Stops after the last step or on collision.
    """
    state = reset(event)
    x_follow = float(event.x_follow[0])
    v_lead, dt = event.v_lead.tolist(), event.dt
    for k in range(len(event) - 1):
        try:
            a = float(controller(state, k))
        except Exception as exc:
            raise _command_error(event, k, exc) from exc
        if not math.isfinite(a):
            raise _command_error(event, k, f"non-finite command {a}")
        a = config.clamp(a)
        outcome = step(state, a, v_lead[k + 1], dt, follow_position=x_follow, config=config)
        yield k, state, x_follow, a, outcome
        if outcome.collided:
            return
        state = outcome.next_state
        x_follow = outcome.follow_position


def _command_error(event: CarFollowingEvent, k: int, reason) -> RolloutError:
    return RolloutError(f"controller failed at step {k} of event {event.event_id}: {reason}")


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


def _commands(controller: Controller, state: EnvState, k: int) -> tuple[np.ndarray, dict[int, str]]:
    """One command per running event, and the reason of each event whose command failed.

    If the lockstep call raises, the step is asked again one event at a time,
    with plain floats, so only the events whose own call raises fail.
    """
    a = np.empty(len(state.follow_speed))
    failures = {}
    try:
        a[...] = controller(state, k)
    except Exception:
        for j in range(len(a)):
            one = EnvState(float(state.follow_speed[j]), float(state.spacing[j]),
                           float(state.rel_speed[j]))
            try:
                a[j] = float(controller(one, k))
            except Exception as exc:
                failures[j] = str(exc)
                a[j] = 0.0
    for j in np.flatnonzero(~np.isfinite(a)).tolist():
        failures[j] = f"non-finite command {a[j]}"
        a[j] = 0.0
    return a, failures


def rollout_batch(events: Sequence[CarFollowingEvent], controller: Controller,
                  config: EnvConfig = DEFAULT_ENV) -> list[SimulatedTrace | RolloutError]:
    """Roll one controller out over several events in lockstep.

    Each step asks the controller once, with an EnvState of arrays over the
    events still running, then clamps, steps and tests for collision over all
    of them with the operations of ``step`` in its order. An event leaves the
    running set after its last step, on collision, or when its command is
    non-finite or its own call raises. Returns, in the order of ``events``,
    each event's trace as ``rollout`` gives it, or the RolloutError it failed
    with.
    """
    results: list[SimulatedTrace | RolloutError | None] = [None] * len(events)
    width = max((len(ev) - 1 for ev in events), default=0)
    lead = np.zeros((width + 1, len(events)))   # leader speed at each step, padded
    for j, ev in enumerate(events):
        lead[:len(ev), j] = ev.v_lead
    rows = np.empty((width, 5, len(events)))    # accel, v_follow, spacing, rel_speed, x_follow
    # running event j is events[cols[j]], with column cols[j] of lead and rows
    cols = np.arange(len(events))
    n_steps = np.array([len(ev) - 1 for ev in events], dtype=int)
    first = [reset(ev) for ev in events]
    v = np.array([st.follow_speed for st in first])
    s = np.array([st.spacing for st in first])
    dv = np.array([st.rel_speed for st in first])
    x = np.array([float(ev.x_follow[0]) for ev in events])
    dt = np.array([ev.dt for ev in events])

    def retire(stop: np.ndarray, n_rows: int, collided: np.ndarray, failures: dict[int, str]):
        nonlocal cols, n_steps, v, s, dv, x, dt
        for j in np.flatnonzero(stop).tolist():
            c = cols[j]
            ev = events[c]
            if j in failures:
                results[c] = _command_error(ev, n_rows - 1, failures[j])
                continue
            accel, v_j, s_j, dv_j, x_j = rows[:n_rows, :, c].T.copy()
            results[c] = SimulatedTrace(
                event_id=ev.event_id, dt=ev.dt, t=ev.t[:n_rows], accel=accel, v_follow=v_j,
                spacing=s_j, rel_speed=dv_j, x_follow=x_j, collided=bool(collided[j]))
        keep = ~stop
        cols, n_steps, v, s, dv, x, dt = (arr[keep] for arr in (cols, n_steps, v, s, dv, x, dt))

    retire(n_steps == 0, 0, np.zeros(len(events), dtype=bool), {})
    for k in range(width):
        a, failures = _commands(controller, EnvState(v, s, dv), k)
        a = np.minimum(config.a_max, np.maximum(config.a_min, a))
        v_next = np.maximum(0.0, v + a * dt)
        dv_next = lead[k + 1, cols] - v_next
        s_next = s + (dv + dv_next) / 2.0 * dt
        x_next = x + (v + v_next) / 2.0 * dt
        collided = s_next <= config.collision_gap
        rows[k][:, cols] = a, v, s, dv, x
        v, s, dv, x = v_next, s_next, dv_next, x_next
        stop = collided | (n_steps == k + 1)
        if failures:
            stop[list(failures)] = True
        if stop.any():
            retire(stop, k + 1, collided, failures)
            if not len(cols):
                break
    return results
