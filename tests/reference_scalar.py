"""Scalar forms that no module of the package uses, kept as test oracles.

``ttc_signed`` is the one-step form of ``indicators.ttc_signed`` before its
clip; ``accel_to_action`` inverts ``ddpg.action_to_accel``.
"""

from __future__ import annotations

from ecofollower.env import EnvConfig


def ttc_signed(spacing: float, rel_speed: float) -> float | None:
    """Raw signed -spacing/rel_speed (negative while opening); None at rel_speed 0."""
    if rel_speed == 0:
        return None
    return -spacing / rel_speed


def accel_to_action(a: float, env_cfg: EnvConfig) -> float:
    return 2.0 * (a - env_cfg.a_min) / (env_cfg.a_max - env_cfg.a_min) - 1.0
