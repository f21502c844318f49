"""The lockstep loop as it was written with one padded record array per call.

``rollout_batch`` here stacks each step's state into a ``(width, 5, events)``
record array and gathers the leader speeds step by step. The package keeps a
record buffer per run of steps and writes it in place with the same float
operations in the same order; the tests hold it to these functions bit for
bit, and to the same controller calls.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ecofollower.env import (DEFAULT_ENV, Controller, EnvConfig, EnvState, RolloutError,
                             SimulatedTrace, _command_error, reset)
from ecofollower.events import CarFollowingEvent


def _commands(controller: Controller, state: EnvState, k: int) -> tuple[np.ndarray, dict[int, str]]:
    """One command per running event, and the reason of each event whose command failed.

    If the lockstep call raises, the step is asked again one event at a time,
    each with one-element arrays, so only the events whose own call raises fail.
    """
    a = np.empty(len(state.follow_speed))
    failures = {}
    try:
        a[...] = controller(state, k)
    except Exception:
        for j in range(len(a)):
            one = EnvState(state.follow_speed[j:j + 1], state.spacing[j:j + 1],
                           state.rel_speed[j:j + 1])
            try:
                a[j:j + 1] = controller(one, k)
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
