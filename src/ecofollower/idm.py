"""Intelligent Driver Model baseline controller and offline calibration.

Sign convention: the model's interaction term expects the *closing* speed
dv_closing = v_follower - v_leader (positive while catching up). The env's
rel_speed is leader-minus-follower, so adapters must pass -rel_speed.

The model functions take one state as floats or, elementwise, arrays of
states.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, asdict, replace
from typing import Sequence

import numpy as np

from .env import Controller, EnvConfig, EnvState, DEFAULT_ENV, rollout
from .events import CarFollowingEvent

_FIELDS = ("a_max", "v_desired", "beta", "s_jam", "T_headway", "a_comf")


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

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "IdmParams":
        return cls(**{k: float(obj[k]) for k in _FIELDS if k in obj})

    @classmethod
    def from_json(cls, path) -> "IdmParams":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def desired_spacing(params: IdmParams, v: float, dv_closing: float) -> float:
    """Equilibrium-plus-dynamic desired gap at speed v and closing speed dv."""
    dynamic = v * params.T_headway + v * dv_closing / (2.0 * math.sqrt(params.a_max * params.a_comf))
    return params.s_jam + np.maximum(0.0, dynamic)


def idm_accel(params: IdmParams, v: float, spacing: float, dv_closing: float) -> float:
    """Unclamped IDM acceleration; the env clamps it to its actuator bounds.

    Raises on non-positive spacing: the caller must have terminated the
    rollout on collision before asking for another command. An overflow of
    a numpy input gives -inf (Python floats raise OverflowError).
    """
    if np.any(np.less_equal(spacing, 0)):
        raise ValueError(f"idm_accel needs positive spacing, got {spacing}")
    s_star = desired_spacing(params, v, dv_closing)
    with np.errstate(over="ignore"):
        a = params.a_max * (1.0 - (v / params.v_desired) ** params.beta - (s_star / spacing) ** 2)
    return a


def idm_controller(params: IdmParams) -> Controller:
    """Adapter for env rollouts; flips rel_speed into the closing convention.

    The env clamps the command to its actuator bounds after checking that it
    is finite, so an overflowing IDM fails its event instead of braking.
    """

    def control(state: EnvState, k: int) -> float:
        return idm_accel(params, state.follow_speed, state.spacing, -state.rel_speed)

    return control


def _spacing_mse(params: IdmParams, events: Sequence[CarFollowingEvent],
                 config: EnvConfig) -> float:
    """Mean squared spacing error vs. recordings; inf if any rollout collides."""
    controller = idm_controller(params)
    total, count = 0.0, 0
    for ev in events:
        trace = rollout(ev, controller, config)
        if trace.collided:
            return math.inf
        rec = ev.gap[: len(trace)]
        err = trace.spacing - rec
        total += float(err @ err)
        count += len(err)
    return total / count if count else math.inf


def calibrate_idm(train_events: Sequence[CarFollowingEvent],
                  search_space: dict[str, Sequence[float]],
                  config: EnvConfig = DEFAULT_ENV) -> IdmParams:
    """Exhaustive grid search minimizing spacing MSE of IDM rollouts.

    ``search_space`` maps parameter names to candidate values; unlisted
    parameters keep their defaults. Deterministic: ties go to the earliest
    candidate in grid order.
    """
    if not train_events:
        raise ValueError("calibrate_idm needs at least one event")
    names = [n for n in _FIELDS if n in search_space]
    unknown = set(search_space) - set(_FIELDS)
    if unknown:
        raise ValueError(f"unknown IDM parameters in search space: {sorted(unknown)}")
    best_params, best_score = None, math.inf
    for combo in itertools.product(*(search_space[n] for n in names)):
        params = replace(IdmParams(), **dict(zip(names, combo)))
        score = _spacing_mse(params, train_events, config)
        if score < best_score:
            best_params, best_score = params, score
    if best_params is None:
        raise CalibrationError("every candidate collided on at least one event")
    return best_params
