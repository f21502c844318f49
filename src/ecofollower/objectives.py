"""Surrogate safety/efficiency/comfort metrics and the four-term step reward.

Undefined metric values (gap not closing, follower near standstill) are
represented as None and contribute 0 to the reward.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

from .env import EnvState
from .indicators import SPEED_FLOOR
from .vtmicro import VtMicroModel

TTC_BOUND = 4.0              # s; gaps closing slower than this are not penalized
DEFAULT_TTC_FLOOR = 0.1      # s; keeps log(TTC/4) finite near impact
DEFAULT_JERK_SCALE = 60.0    # m/s^3; full action swing (6 m/s^2) over one 0.1 s step
DEFAULT_FUEL_SCALE = 1.0     # mL/s
DEFAULT_FUEL_CLIP = -5.0
DEFAULT_COLLISION_PENALTY = -10.0


@dataclass(frozen=True)
class RewardWeights:
    w_ttc: float = 1.0
    w_headway: float = 1.0
    w_fuel: float = 1.0
    w_jerk: float = 1.0

    def __post_init__(self):
        vals = (self.w_ttc, self.w_headway, self.w_fuel, self.w_jerk)
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"weights must be finite: {vals}")


@dataclass(frozen=True)
class HeadwayModel:
    """Lognormal headway density; defaults are the NGSIM I-80 fit."""

    mu: float = 0.4226
    sigma: float = 0.5436

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")

    def pdf(self, x: float) -> float:
        if x <= 0:
            return 0.0
        z = (math.log(x) - self.mu) / self.sigma
        return math.exp(-0.5 * z * z) / (x * self.sigma * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class RewardConfig:
    weights: RewardWeights = field(default_factory=RewardWeights)
    headway: HeadwayModel = field(default_factory=HeadwayModel)
    jerk_scale: float = DEFAULT_JERK_SCALE
    fuel_scale: float = DEFAULT_FUEL_SCALE
    collision_penalty: float = DEFAULT_COLLISION_PENALTY
    ttc_floor: float = DEFAULT_TTC_FLOOR

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "RewardConfig":
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown reward config fields: {sorted(unknown)}")
        kwargs = {key: float(value) for key, value in obj.items()
                  if key not in ("weights", "headway")}
        if "weights" in obj:
            kwargs["weights"] = RewardWeights(**obj["weights"])
        if "headway" in obj:
            kwargs["headway"] = HeadwayModel(**obj["headway"])
        return cls(**kwargs)

    @classmethod
    def from_json(cls, path) -> "RewardConfig":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class RewardBreakdown:
    f_ttc: float
    f_headway: float
    f_fuel: float
    f_jerk: float
    total: float
    fuel_rate: float   # mL/s at the pre-step speed and commanded acceleration
    collision_penalty_applied: bool


def ttc(spacing: float, rel_speed: float) -> float | None:
    """Time to collision -spacing/rel_speed; None unless the gap is closing."""
    if spacing <= 0:
        raise ValueError(f"ttc needs positive spacing, got {spacing}")
    if rel_speed >= 0:
        return None
    return -spacing / rel_speed


def ttc_signed(spacing: float, rel_speed: float) -> float | None:
    """Raw signed -spacing/rel_speed (negative while opening); None at rel_speed 0."""
    if rel_speed == 0:
        return None
    return -spacing / rel_speed


def f_ttc(ttc_value: float | None, ttc_floor: float = DEFAULT_TTC_FLOOR) -> float:
    """ln(TTC/4) inside the risky band (0, 4]; 0 otherwise.

    TTC is clipped below at ttc_floor so the penalty stays finite near impact.
    """
    if ttc_value is None or not 0.0 < ttc_value <= TTC_BOUND:
        return 0.0
    return math.log(max(ttc_value, ttc_floor) / TTC_BOUND)


def time_headway(gap: float, follow_speed: float) -> float | None:
    """gap / follower speed; None below the speed floor where it diverges."""
    if gap < 0:
        raise ValueError(f"time_headway needs non-negative gap, got {gap}")
    if follow_speed < SPEED_FLOOR:
        return None
    return gap / follow_speed


def f_headway(h: float | None, model: HeadwayModel) -> float:
    """Lognormal density at the observed headway; 0 when undefined."""
    if h is None:
        return 0.0
    return model.pdf(h)


def jerk(accel_now: float, accel_prev: float, dt: float) -> float:
    """Finite-difference jerk; episodes start from accel_prev = 0."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return (accel_now - accel_prev) / dt


def f_jerk(j: float, j_scale: float = DEFAULT_JERK_SCALE) -> float:
    """Negative normalized squared jerk, in [-1, 0] for |j| <= j_scale."""
    if j_scale <= 0:
        raise ValueError(f"j_scale must be positive, got {j_scale}")
    return -((j / j_scale) ** 2)


def f_fuel(rate: float, rate_scale: float = DEFAULT_FUEL_SCALE) -> float:
    """Negative linearly-scaled fuel rate, clipped to [-5, 0]."""
    if rate_scale <= 0:
        raise ValueError(f"rate_scale must be positive, got {rate_scale}")
    return min(0.0, max(DEFAULT_FUEL_CLIP, -rate / rate_scale))


def reward(state: EnvState, accel: float, accel_prev: float, next_state: EnvState,
           dt: float, collided: bool, config: RewardConfig,
           fuel_model: VtMicroModel) -> RewardBreakdown:
    """Weighted four-term step reward for the transition (state, accel) -> next_state.

    Safety and efficiency terms are scored on the outcome state; fuel uses the
    pre-step speed with the commanded acceleration (left-rectangle rule). A
    collision adds the terminal penalty on top of the weighted sum.
    """
    if next_state.spacing > 0:
        ft = f_ttc(ttc(next_state.spacing, next_state.rel_speed), config.ttc_floor)
        fh = f_headway(time_headway(next_state.spacing, next_state.follow_speed), config.headway)
    else:
        ft, fh = 0.0, 0.0
    rate = fuel_model.rate(state.follow_speed, accel)
    ff = f_fuel(rate, config.fuel_scale)
    fj = f_jerk(jerk(accel, accel_prev, dt), config.jerk_scale)
    w = config.weights
    total = w.w_ttc * ft + w.w_headway * fh + w.w_fuel * ff + w.w_jerk * fj
    if collided:
        total += config.collision_penalty
    return RewardBreakdown(
        f_ttc=ft, f_headway=fh, f_fuel=ff, f_jerk=fj,
        total=total, fuel_rate=rate, collision_penalty_applied=collided,
    )
