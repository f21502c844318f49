"""The reward's configuration and the four-term step reward, over arrays of transitions.

The terms are built on the ``indicators`` formulas (TTC of a closing gap,
time headway at or above the speed floor) and on ``VtMicroModel.rates``. A
term whose indicator is undefined on a step (gap not closing, follower near
standstill, no gap left) contributes 0 to the reward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import indicators
from .env import EnvState
from .vtmicro import VtMicroModel

TTC_BOUND = 4.0              # s; gaps closing slower than this are not penalized
DEFAULT_TTC_FLOOR = 0.1      # s; keeps log(TTC/4) finite near impact
DEFAULT_JERK_SCALE = 60.0    # m/s^3; full action swing (6 m/s^2) over one 0.1 s step
DEFAULT_FUEL_SCALE = 1.0     # mL/s
DEFAULT_FUEL_CLIP = -5.0
DEFAULT_COLLISION_PENALTY = -10.0
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class RewardWeights:
    w_ttc: float = 1.0
    w_headway: float = 1.0
    w_fuel: float = 1.0
    w_jerk: float = 1.0


@dataclass(frozen=True)
class HeadwayModel:
    """Lognormal headway density; defaults are the NGSIM I-80 fit."""

    mu: float = 0.4226
    sigma: float = 0.5436

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class RewardConfig:
    weights: RewardWeights = field(default_factory=RewardWeights)
    headway: HeadwayModel = field(default_factory=HeadwayModel)
    jerk_scale: float = DEFAULT_JERK_SCALE
    fuel_scale: float = DEFAULT_FUEL_SCALE
    collision_penalty: float = DEFAULT_COLLISION_PENALTY
    ttc_floor: float = DEFAULT_TTC_FLOOR

    def __post_init__(self):
        for name in ("jerk_scale", "fuel_scale"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


class StepRewards(NamedTuple):
    """The reward terms of n transitions, one array of n each."""

    f_ttc: np.ndarray
    f_headway: np.ndarray
    f_fuel: np.ndarray
    f_jerk: np.ndarray
    total: np.ndarray
    fuel_rate: np.ndarray   # mL/s at the pre-step speed and commanded acceleration


def step_rewards(follow_speed: np.ndarray, accel: np.ndarray, accel_prev: np.ndarray,
                 next_state: EnvState, dt: np.ndarray, collided: np.ndarray,
                 config: RewardConfig, fuel_model: VtMicroModel) -> StepRewards:
    """Weighted four-term reward of each transition (state, accel) -> next_state.

    ``follow_speed`` is the pre-step speed, ``accel`` the clamped command and
    ``accel_prev`` the previous one (0 at an episode's start); the fields of
    ``next_state`` are arrays. Per transition:

      f_ttc     = ln(max(TTC, ttc_floor) / 4) while the gap closes with TTC <= 4 s
      f_headway = lognormal density of the time headway (``config.headway``)
      f_fuel    = -rate / fuel_scale, clipped to [-5, 0]
      f_jerk    = -((accel - accel_prev) / dt / jerk_scale)^2

    TTC and headway are scored on the outcome state, where its gap is
    positive; fuel uses the pre-step speed with the commanded acceleration
    (left-rectangle rule). A collision adds the terminal penalty on top of the
    weighted sum.
    """
    n = len(accel)
    f_ttc, f_headway = np.zeros(n), np.zeros(n)
    ahead = next_state.spacing > 0
    spacing = next_state.spacing[ahead]
    # capped at the bound, a longer TTC scores ln(4/4) = 0, as an opening gap does;
    # so does one that underflows to 0, which is outside the band (0, 4] too
    ttc = indicators.ttc_closing(spacing, next_state.rel_speed[ahead], TTC_BOUND)
    f_ttc[ahead & (next_state.rel_speed < 0)] = np.where(
        ttc > 0, np.log(np.maximum(ttc, config.ttc_floor) / TTC_BOUND), 0.0)
    h = indicators.headway(spacing, next_state.follow_speed[ahead])
    moving = ahead & (next_state.follow_speed >= indicators.SPEED_FLOOR)
    moving[moving] = h > 0   # a headway that underflows to 0 has no density
    h = h[h > 0]
    z = (np.log(h) - config.headway.mu) / config.headway.sigma
    f_headway[moving] = np.exp(-0.5 * z * z) / (h * config.headway.sigma * _SQRT_2PI)
    rate = fuel_model.rates(follow_speed, accel)
    f_fuel = np.minimum(0.0, np.maximum(DEFAULT_FUEL_CLIP, -rate / config.fuel_scale))
    f_jerk = -(((accel - accel_prev) / dt / config.jerk_scale) ** 2)
    w = config.weights
    total = w.w_ttc * f_ttc + w.w_headway * f_headway + w.w_fuel * f_fuel + w.w_jerk * f_jerk
    np.add(total, config.collision_penalty, out=total, where=collided)
    return StepRewards(f_ttc, f_headway, f_fuel, f_jerk, total, rate)


def reward(state: EnvState, accel: float, accel_prev: float, next_state: EnvState,
           dt: float, collided: bool, config: RewardConfig,
           fuel_model: VtMicroModel) -> StepRewards:
    """``step_rewards`` of one transition, each term a one-element array; kept,
    like ``env.step``, for the benchmark tracer, which traces it by name."""
    def one(x):
        return np.array([x], dtype=float)

    return step_rewards(one(state.follow_speed), one(accel), one(accel_prev),
                        EnvState(*map(one, next_state)), one(dt), np.array([collided]),
                        config, fuel_model)
