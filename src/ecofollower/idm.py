"""Intelligent Driver Model baseline controller and offline calibration.

Sign convention: the model's interaction term expects the *closing* speed
dv_closing = v_follower - v_leader (positive while catching up). The env's
rel_speed is leader-minus-follower, so adapters must pass -rel_speed.

The model functions take one state as floats or, elementwise, arrays of
states; the controller takes arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Sequence

import numpy as np

from .env import Controller, EnvConfig, EnvState, DEFAULT_ENV, RolloutError, rollout_batch
from .events import CarFollowingEvent


class CalibrationError(RuntimeError):
    """No parameter candidate produced a collision-free rollout."""


@dataclass(frozen=True)
class IdmParams:
    """Defaults are conventional magnitudes, not fitted values; use
    :func:`calibrate_idm` to fit them to data."""

    a_max: float = 1.0       # m/s^2
    v_desired: float = 15.0  # m/s
    beta: float = 4.0
    s_jam: float = 2.0       # m, standstill spacing
    T_headway: float = 1.2   # s
    a_comf: float = 2.0      # m/s^2, comfortable deceleration

    def __post_init__(self):
        if self.a_max <= 0 or self.v_desired <= 0 or self.beta <= 0 or self.a_comf <= 0:
            raise ValueError(f"a_max, v_desired, beta, a_comf must be positive: {self}")
        if self.s_jam < 0 or self.T_headway < 0:
            raise ValueError(f"s_jam and T_headway must be non-negative: {self}")

    @property
    def interaction(self) -> float:
        """2 sqrt(a_max a_comf), the divisor of the desired gap's closing-speed term."""
        return 2.0 * math.sqrt(self.a_max * self.a_comf)


class _Operands(NamedTuple):
    """What ``idm_accel`` reads of an IdmParams, as 0-d float64 arrays, which a
    ufunc takes faster than floats and computes the same with. ``interaction``
    is negated, so the env's rel_speed goes in as the closing speed: v * rel / -c
    is v * (-rel) / c bit for bit."""

    a_max: np.ndarray
    v_desired: np.ndarray
    beta: np.ndarray
    s_jam: np.ndarray
    T_headway: np.ndarray
    interaction: np.ndarray


def desired_spacing(params: IdmParams, v: float, dv_closing: float) -> float:
    """Equilibrium-plus-dynamic desired gap at speed v and closing speed dv."""
    dynamic = v * params.T_headway + v * dv_closing / params.interaction
    return params.s_jam + np.maximum(0.0, dynamic)


def idm_accel(params: IdmParams, v: float, spacing: float, dv_closing: float) -> float:
    """Unclamped IDM acceleration; the env clamps it to its actuator bounds.

    Raises on non-positive spacing, naming the first such spacing: the caller
    must have terminated the rollout on collision before asking for another
    command. An overflow of a numpy input gives -inf (Python floats raise
    OverflowError). ``params`` may also be ``idm_controller``'s ``_Operands``.
    """
    refused = np.less_equal(spacing, 0.0)
    if np.count_nonzero(refused):
        raise ValueError(f"idm_accel needs positive spacing, "
                         f"got {float(np.extract(refused, spacing)[0])}")
    s_star = desired_spacing(params, v, dv_closing)
    with np.errstate(over="ignore"):
        a = params.a_max * (1.0 - (v / params.v_desired) ** params.beta - (s_star / spacing) ** 2)
    return a


def idm_controller(params: IdmParams) -> Controller:
    """Adapter for env rollouts; flips rel_speed into the closing convention.

    The env clamps the command to its actuator bounds after checking that it
    is finite, so an overflowing IDM fails its event instead of braking.
    The parameters are built once as ``_Operands``, and rel_speed goes in as
    it is.
    """
    operands = _Operands(*(np.array(float(x)) for x in (
        params.a_max, params.v_desired, params.beta, params.s_jam, params.T_headway,
        -params.interaction)))

    def control(state: EnvState, k: int) -> np.ndarray:
        return idm_accel(operands, state.follow_speed, state.spacing, state.rel_speed)

    return control


def _spacing_mse(params: IdmParams, events: Sequence[CarFollowingEvent],
                 config: EnvConfig) -> float:
    """Mean squared spacing error vs. recordings; inf if any rollout collides.

    Every event is rolled out in one lockstep batch; results are read in
    event order, so the first event that fails or collides decides.
    """
    total, count = 0.0, 0
    for ev, trace in zip(events, rollout_batch(events, idm_controller(params), config)):
        if isinstance(trace, RolloutError):
            raise trace
        if trace.collided:
            return math.inf
        err = trace.spacing - ev.gap[: len(trace)]
        total += float(err @ err)
        count += len(err)
    return total / count


def calibrate_idm(train_events: Sequence[CarFollowingEvent],
                  search_space: dict[str, Sequence[float]],
                  config: EnvConfig = DEFAULT_ENV) -> IdmParams:
    """Exhaustive grid search minimizing spacing MSE of IDM rollouts.

    ``search_space`` maps parameter names to candidate values; unlisted
    parameters keep their defaults. Deterministic: ties go to the earliest
    candidate in grid order. A parameter listed with no values is a
    ValueError; IDM failing on an event raises its RolloutError; a candidate
    that collides on any event is never chosen (CalibrationError if none is
    left).
    """
    if not train_events:
        raise ValueError("calibrate_idm needs at least one event")
    names = [f.name for f in fields(IdmParams) if f.name in search_space]
    unknown = set(search_space) - set(names)
    if unknown:
        raise ValueError(f"unknown IDM parameters in search space: {sorted(unknown)}")
    empty = [n for n in names if not len(search_space[n])]
    if empty:
        raise ValueError(f"no candidate values for IDM parameters {empty}")
    best_params, best_score = None, math.inf
    for combo in itertools.product(*(search_space[n] for n in names)):
        params = replace(IdmParams(), **dict(zip(names, combo)))
        score = _spacing_mse(params, train_events, config)
        if score < best_score:
            best_params, best_score = params, score
    if best_params is None:
        raise CalibrationError("every candidate collided on at least one event")
    return best_params
