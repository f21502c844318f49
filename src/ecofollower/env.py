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

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .events import CarFollowingEvent, write_tables


class RolloutError(RuntimeError):
    """A controller failed during a rollout; carries the step index."""


class EnvState(NamedTuple):
    """RL observation: follower speed, bumper gap, relative speed. A controller
    gets (n,) arrays over the events of a lockstep step; ``reset`` and ``step``
    give floats for one state."""

    follow_speed: float | np.ndarray
    spacing: float | np.ndarray
    rel_speed: float | np.ndarray


@dataclass(frozen=True)
class EnvConfig:
    a_min: float = -3.0          # m/s^2, actuator floor
    a_max: float = 3.0           # m/s^2, actuator ceiling
    collision_gap: float = 0.0   # m; spacing at or below this counts as a crash

    def __post_init__(self):
        if not self.a_min < self.a_max:
            raise ValueError(f"a_min must be below a_max, got {self.a_min} and {self.a_max}")


DEFAULT_ENV = EnvConfig()

# A controller maps (state, step index) to commanded accelerations: the state's
# fields are (n,) arrays over the running events, n >= 1, and the controller
# returns one command per event, or one float for all of them. A retried step
# asks each event alone, as a lockstep call of one.
Controller = Callable[[EnvState, int], float | np.ndarray]


def reset(event: CarFollowingEvent) -> EnvState:
    """Initial state read off the event's first sample."""
    return EnvState(
        follow_speed=float(event.v_follow[0]),
        spacing=float(event.x_lead[0] - event.x_follow[0]),
        rel_speed=float(event.v_lead[0] - event.v_follow[0]),
    )


def step_limits(config: EnvConfig) -> tuple[np.ndarray, ...]:
    """``advance``'s constants, a_min, a_max, the collision gap, 0 and 2, as 0-d
    arrays: a ufunc takes them faster than Python floats, and computes the same."""
    return tuple(np.array(float(x)) for x in (
        config.a_min, config.a_max, config.collision_gap, 0.0, 2.0))


def advance(row: np.ndarray, nxt: np.ndarray, dt: np.ndarray, lead: np.ndarray,
            limits: tuple[np.ndarray, ...], collided: np.ndarray) -> None:
    """Advance every column of ``row`` one interval, in place.

    ``row`` and ``nxt`` are (5, n) arrays of (accel, v_follow, rel_speed,
    x_follow, spacing). ``row[0]`` holds the commands, which are clamped in
    place to the actuator bounds; ``nxt[1:]`` receives the next states, and
    ``collided`` whether each next spacing is at or below the collision gap.
    ``dt`` is (2, n), each column's interval twice (one row per term of a
    pair), ``lead`` the leader speeds after the step and ``limits`` are
    ``step_limits(config)``. The operations are the module docstring's
    formulas, one ufunc per term.
    """
    a_min, a_max, gap, zero, two = limits
    a, v, v_next = row[0], row[1], nxt[1]
    np.maximum(a_min, a, out=a)
    np.minimum(a_max, a, out=a)
    np.multiply(a, dt[0], out=v_next)
    np.add(v, v_next, out=v_next)
    np.maximum(zero, v_next, out=v_next)
    np.subtract(lead, v_next, out=nxt[2])
    # (x, s) + ((v, dv) + (v_next, dv_next)) / 2 * dt, one operation per term
    xs = nxt[3:]
    np.add(row[1:3], nxt[1:3], out=xs)
    np.divide(xs, two, out=xs)
    np.multiply(xs, dt, out=xs)
    np.add(row[3:], xs, out=xs)
    np.less_equal(nxt[4], gap, out=collided)


def step(state: EnvState, accel: float, lead_speed_next: float, dt: float,
         follow_position: float = 0.0, config: EnvConfig = DEFAULT_ENV
         ) -> tuple[EnvState, bool, float]:
    """``advance`` of one state: the next state, whether it collided, and the
    next follower position, as floats.

    The package steps arrays with ``advance``; this one-state form, like
    ``rollout``, ``objectives.reward`` and ``vtmicro.fuel_rate``, is kept
    because ``benchmarks/bench_trace.py`` traces it by name (its test binds
    ``env.step`` and the ``step`` name of ``ddpg``).
    """
    row = np.array([[accel], [state.follow_speed], [state.rel_speed], [follow_position],
                    [state.spacing]], dtype=float)
    nxt, collided = np.empty((5, 1)), np.empty(1, dtype=bool)
    advance(row, nxt, np.full((2, 1), float(dt)), np.array([float(lead_speed_next)]),
            step_limits(config), collided)
    v, dv, x, s = nxt[1:, 0].tolist()
    return EnvState(v, s, dv), bool(collided[0]), x


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

    def table(self, path) -> tuple:
        """The trace as a ``write_tables`` table at ``path``: one block of its columns."""
        return path, ("t", "accel", "v_follow", "spacing", "rel_speed", "x_follow"), [
            (self.t, self.accel, self.v_follow, self.spacing, self.rel_speed, self.x_follow)]

    def write_csv(self, path) -> None:
        write_tables([self.table(path)])


def _command_error(event: CarFollowingEvent, k: int, reason) -> RolloutError:
    return RolloutError(f"controller failed at step {k} of event {event.event_id}: {reason}")


def rollout(event: CarFollowingEvent, controller: Controller,
            config: EnvConfig = DEFAULT_ENV) -> SimulatedTrace:
    """``rollout_batch`` of one event: its trace, or the RolloutError it failed with, raised."""
    [result] = rollout_batch([event], controller, config)
    if isinstance(result, RolloutError):
        raise result
    return result


def _commands(controller: Controller, state: EnvState, k: int, a: np.ndarray) -> dict[int, str]:
    """Write one command per running event into ``a``; return the reason of
    each event whose command failed, whose entry of ``a`` is then 0.

    If the lockstep call raises, the step is asked again one event at a time,
    each as a lockstep call of one with the views ``x[j:j + 1]`` of the state's
    arrays, so only the events whose own call raises fail. An elementwise
    controller gives every other event the command the lockstep call would
    have, so an event's trace does not depend on which other events fail.
    """
    failures = {}
    try:
        a[...] = controller(state, k)
    except Exception:
        for j in range(len(a)):
            try:
                a[j:j + 1] = controller(EnvState(*(x[j:j + 1] for x in state)), k)
            except Exception as exc:
                failures[j] = str(exc)
                a[j] = 0.0
    finite = np.isfinite(a)
    if np.count_nonzero(finite) < len(a):
        for j in np.flatnonzero(~finite).tolist():
            failures[j] = f"non-finite command {a[j]}"
            a[j] = 0.0
    return failures


def _trace(event: CarFollowingEvent, record: np.ndarray, n_rows: int,
           collided: bool) -> SimulatedTrace:
    """The trace of the first ``n_rows`` columns of an event's record."""
    accel, v, dv, x, s = record[:, :n_rows]
    return SimulatedTrace(event_id=event.event_id, dt=event.dt, t=event.t[:n_rows], accel=accel,
                          v_follow=v, spacing=s, rel_speed=dv, x_follow=x, collided=collided)


def rollout_batch(events: Sequence[CarFollowingEvent], controller: Controller,
                  config: EnvConfig = DEFAULT_ENV) -> list[SimulatedTrace | RolloutError]:
    """Roll one controller out over several events in lockstep.

    Each step asks the controller once, with an EnvState of (n,) arrays over
    the n events still running, then clamps, steps and tests for collision
    over all of them with one ``advance``. If that call raises, each event is
    asked alone as a lockstep call of one (``_commands``). An event leaves the
    running set after its last step, on collision, or when its command is
    non-finite or its own call raises; which other events fail does not change
    its trace. Returns, in the order of ``events``, each event's trace or the
    RolloutError it failed with. A trace equals that of a scalar loop over the
    event alone bit for bit when the controller gives each event the same
    command in a batch as alone (a constant, an elementwise formula); IDM and
    the policy do up to rounding, since numpy may round an operation over n
    elements differently from the same operation over one.

    Between two retirements the running set is fixed, so each such run of
    steps lives in one buffer of shape (steps + 1, 5, running events): row i
    holds the command taken at the run's step i and the state it was taken
    in, as (accel, v_follow, rel_speed, x_follow, spacing), and each step
    writes the next state into row i + 1 in place. The controller sees views
    of a row that is never written again. At each retirement the run's rows
    go to the records of its events.
    """
    results: list[SimulatedTrace | RolloutError | None] = [None] * len(events)
    n_steps = [len(ev) - 1 for ev in events]
    records = [np.empty((5, n)) for n in n_steps]   # rows of every step, in buffer order
    for c, n in enumerate(n_steps):
        if n == 0:
            results[c] = _trace(events[c], records[c], 0, False)
    cols = [c for c, n in enumerate(n_steps) if n]   # running event j is events[cols[j]]
    first = [reset(events[c]) for c in cols]
    state = np.array([(st.follow_speed, st.rel_speed, float(events[c].x_follow[0]), st.spacing)
                      for c, st in zip(cols, first)]).T
    limits = step_limits(config)
    k = 0   # the run's first step
    while cols:
        end = min(n_steps[c] for c in cols)   # the next step at which an event ends
        dt = np.array([[events[c].dt for c in cols]] * 2)   # one row per term of a pair
        lead = np.stack([events[c].v_lead[k + 1:end + 1] for c in cols], axis=1)
        buf = np.empty((end - k + 1, 5, len(cols)))
        buf[0, 1:] = state
        collided = np.empty(len(cols), dtype=bool)
        for i in range(end - k):
            row, nxt = buf[i], buf[i + 1]
            failures = _commands(controller, EnvState(row[1], row[4], row[2]), k + i, row[0])
            advance(row, nxt, dt, lead[i], limits, collided)
            if failures or np.count_nonzero(collided):
                break
        n_rows = i + 1
        k += n_rows
        keep = []
        for j, c in enumerate(cols):
            if j in failures:
                results[c] = _command_error(events[c], k - 1, failures[j])
                continue
            records[c][:, k - n_rows:k] = buf[:n_rows, :, j].T
            if collided[j] or n_steps[c] == k:
                results[c] = _trace(events[c], records[c], k, bool(collided[j]))
            else:
                keep.append(j)
        state = buf[n_rows, 1:][:, keep]
        cols = [cols[j] for j in keep]
    return results
