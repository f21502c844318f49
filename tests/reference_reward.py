"""``objectives.step_rewards`` as it was written with boolean gathers, kept as a test oracle.

It scores the TTC and headway terms only on the transitions where they are
defined, gathered with boolean masks, and stores them into arrays of zeros.
The package computes both terms on every transition and selects them with
``np.where``; the tests hold the two to the same bits.
"""

from __future__ import annotations

import math

import numpy as np

from ecofollower import indicators
from ecofollower.env import EnvState
from ecofollower.objectives import DEFAULT_FUEL_CLIP, TTC_BOUND, RewardConfig, StepRewards
from ecofollower.vtmicro import VtMicroModel

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def filtered_step_rewards(follow_speed: np.ndarray, accel: np.ndarray, accel_prev: np.ndarray,
                          next_state: EnvState, dt: np.ndarray, collided: np.ndarray,
                          config: RewardConfig, fuel_model: VtMicroModel) -> StepRewards:
    n = len(accel)
    f_ttc, f_headway = np.zeros(n), np.zeros(n)
    ahead = next_state.spacing > 0
    spacing = next_state.spacing[ahead]
    ttc = indicators.ttc_closing(spacing, next_state.rel_speed[ahead], TTC_BOUND)
    f_ttc[ahead & (next_state.rel_speed < 0)] = np.where(
        ttc > 0, np.log(np.maximum(ttc, config.ttc_floor) / TTC_BOUND), 0.0)
    h = indicators.headway(spacing, next_state.follow_speed[ahead])
    moving = ahead & (next_state.follow_speed >= indicators.SPEED_FLOOR)
    moving[moving] = h > 0
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
