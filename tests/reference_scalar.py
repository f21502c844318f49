"""Scalar forms that no module of the package uses, kept as test oracles.

The package steps, scores and collects over arrays (``env.advance``,
``objectives.step_rewards``, ``ddpg.train``'s lockstep slots). These are the
one-state forms they are held to: ``step`` and ``rollout`` for the
kinematics, ``reward`` and its terms for the reward, and ``collect`` for one
episode at a time of training's collection with updates off. ``ttc_signed``
is the one-step form of ``indicators.ttc_signed`` before its clip;
``accel_to_action`` inverts ``ddpg.action_to_accel``.
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple, Sequence

import numpy as np

from ecofollower.ddpg import DdpgAgent, TrainConfig, TrainLogRow
from ecofollower.env import (DEFAULT_ENV, Controller, EnvConfig, EnvState, SimulatedTrace,
                             _command_error, reset)
from ecofollower.events import CarFollowingEvent
from ecofollower.indicators import SPEED_FLOOR
from ecofollower.objectives import (DEFAULT_FUEL_CLIP, DEFAULT_FUEL_SCALE, DEFAULT_JERK_SCALE,
                                    DEFAULT_TTC_FLOOR, TTC_BOUND, HeadwayModel, RewardConfig)
from ecofollower.rng import derive_seed
from ecofollower.vtmicro import VtMicroModel

from reference_vtmicro import fuel_rate


def ttc_signed(spacing: float, rel_speed: float) -> float | None:
    """Raw signed -spacing/rel_speed (negative while opening); None at rel_speed 0."""
    if rel_speed == 0:
        return None
    return -spacing / rel_speed


def accel_to_action(a: float, env_cfg: EnvConfig) -> float:
    return 2.0 * (a - env_cfg.a_min) / (env_cfg.a_max - env_cfg.a_min) - 1.0


def clamp(config: EnvConfig, accel: float) -> float:
    return min(config.a_max, max(config.a_min, accel))


# --- kinematics ------------------------------------------------------------

class StepOutcome(NamedTuple):
    next_state: EnvState
    collided: bool
    follow_position: float


def step(state: EnvState, accel: float, lead_speed_next: float, dt: float,
         follow_position: float = 0.0, config: EnvConfig = DEFAULT_ENV) -> StepOutcome:
    """Advance the follower one interval under a commanded acceleration."""
    inputs = (state.follow_speed, state.spacing, state.rel_speed,
              accel, lead_speed_next, dt, follow_position)
    if not all(map(math.isfinite, inputs)):
        raise ValueError(f"non-finite step input: {inputs}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    accel = clamp(config, accel)
    v_next = max(0.0, state.follow_speed + accel * dt)
    dv_next = lead_speed_next - v_next
    s_next = state.spacing + (state.rel_speed + dv_next) / 2.0 * dt
    x_next = follow_position + (state.follow_speed + v_next) / 2.0 * dt
    collided = s_next <= config.collision_gap
    return StepOutcome(EnvState(v_next, s_next, dv_next), collided, x_next)


def rollout(event: CarFollowingEvent, controller: Controller,
            config: EnvConfig = DEFAULT_ENV) -> SimulatedTrace:
    """Simulate the follower against the event's recorded leader, one ``step`` at a time.

    Each step asks the controller for a command, which must be finite, and
    clamps it. Stops early on collision; the colliding step is the last
    recorded row.
    """
    state = reset(event)
    x_follow = float(event.x_follow[0])
    v_lead, dt = event.v_lead.tolist(), event.dt
    accel, v, s, dv, x = [], [], [], [], []
    collided = False
    for k in range(len(event) - 1):
        try:
            a = float(controller(state, k))
        except Exception as exc:
            raise _command_error(event, k, exc) from exc
        if not math.isfinite(a):
            raise _command_error(event, k, f"non-finite command {a}")
        a = clamp(config, a)
        accel.append(a)
        v.append(state.follow_speed)
        s.append(state.spacing)
        dv.append(state.rel_speed)
        x.append(x_follow)
        outcome = step(state, a, v_lead[k + 1], dt, follow_position=x_follow, config=config)
        if outcome.collided:
            collided = True
            break
        state, x_follow = outcome.next_state, outcome.follow_position
    return SimulatedTrace(
        event_id=event.event_id,
        dt=event.dt,
        t=event.t[:len(accel)], accel=np.asarray(accel), v_follow=np.asarray(v),
        spacing=np.asarray(s), rel_speed=np.asarray(dv), x_follow=np.asarray(x),
        collided=collided,
    )


# --- reward ----------------------------------------------------------------

_SQRT_2PI = math.sqrt(2.0 * math.pi)


class RewardBreakdown(NamedTuple):
    f_ttc: float
    f_headway: float
    f_fuel: float
    f_jerk: float
    total: float
    fuel_rate: float   # mL/s at the pre-step speed and commanded acceleration
    collision_penalty_applied: bool


def lognormal_pdf(model: HeadwayModel, x: float) -> float:
    if x <= 0:
        return 0.0
    z = (math.log(x) - model.mu) / model.sigma
    return math.exp(-0.5 * z * z) / (x * model.sigma * _SQRT_2PI)


def ttc(spacing: float, rel_speed: float) -> float | None:
    """Time to collision -spacing/rel_speed; None unless the gap is closing."""
    if spacing <= 0:
        raise ValueError(f"ttc needs positive spacing, got {spacing}")
    if rel_speed >= 0:
        return None
    return -spacing / rel_speed


def f_ttc(ttc_value: float | None, ttc_floor: float = DEFAULT_TTC_FLOOR) -> float:
    """ln(TTC/4) inside the risky band (0, 4], TTC clipped below at ttc_floor; 0 otherwise."""
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
    return lognormal_pdf(model, h)


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
    """Weighted four-term step reward for the transition (state, accel) -> next_state."""
    if next_state.spacing > 0:
        ft = f_ttc(ttc(next_state.spacing, next_state.rel_speed), config.ttc_floor)
        fh = f_headway(time_headway(next_state.spacing, next_state.follow_speed), config.headway)
    else:
        ft, fh = 0.0, 0.0
    rate = fuel_rate(fuel_model.accel, fuel_model.decel, state.follow_speed, accel)
    ff = f_fuel(rate, config.fuel_scale)
    fj = f_jerk(jerk(accel, accel_prev, dt), config.jerk_scale)
    w = config.weights
    total = w.w_ttc * ft + w.w_headway * fh + w.w_fuel * ff + w.w_jerk * fj
    if collided:
        total += config.collision_penalty
    return RewardBreakdown(ft, fh, ff, fj, total, rate, collided)


# --- collection ------------------------------------------------------------

class OuNoise:
    """Ornstein-Uhlenbeck exploration noise on the normalized action."""

    def __init__(self, theta: float, sigma: float, rng: np.random.Generator):
        self.theta = theta
        self.sigma = sigma
        self.rng = rng
        self.x = 0.0

    def reset(self) -> None:
        self.x = 0.0

    def sample(self) -> float:
        self.x += -self.theta * self.x + self.sigma * self.rng.standard_normal()
        return self.x


def normalize_state(state: EnvState, cfg: TrainConfig) -> np.ndarray:
    return np.array([state.follow_speed / cfg.speed_scale, state.spacing / cfg.spacing_scale,
                     state.rel_speed / cfg.rel_speed_scale])


def action_to_accel(y: float, env_cfg: EnvConfig) -> float:
    return env_cfg.a_min + (y + 1.0) / 2.0 * (env_cfg.a_max - env_cfg.a_min)


class Transition(NamedTuple):
    state: np.ndarray      # normalized
    action: float          # squashed, in [-1, 1]
    reward: RewardBreakdown
    next_state: np.ndarray
    done: bool


def collect(events: Sequence[CarFollowingEvent], env_config: EnvConfig,
            reward_config: RewardConfig, cfg: TrainConfig, fuel_model: VtMicroModel
            ) -> tuple[list[Transition], list[TrainLogRow]]:
    """Training's collection with updates off, one episode at a time: each
    step asks the untrained actor, adds one OU process's noise, clips, maps,
    clamps, steps and scores. Draws events, noise and the actor from the
    seeds ``ddpg.train`` uses; returns every transition in order and one
    trainlog row per episode."""
    agent = DdpgAgent(
        cfg,
        actor_rng=np.random.default_rng(derive_seed(cfg.seed, "ddpg.init.actor")),
        critic_rng=np.random.default_rng(derive_seed(cfg.seed, "ddpg.init.critic")),
    )
    rng_events = np.random.default_rng(derive_seed(cfg.seed, "ddpg.events"))
    noise = OuNoise(cfg.ou_theta, cfg.ou_sigma,
                    np.random.default_rng(derive_seed(cfg.seed, "ddpg.noise")))
    pushed, rows = [], []
    rolling = deque(maxlen=cfg.rolling_window)
    collisions_cum = 0
    for ep in range(cfg.episodes):
        event = events[int(rng_events.integers(len(events)))]
        frac = ep / (cfg.episodes - 1) if cfg.episodes > 1 else 0.0
        noise.sigma = cfg.ou_sigma + (cfg.ou_sigma_final - cfg.ou_sigma) * frac
        noise.reset()
        state = reset(event)
        s_norm = normalize_state(state, cfg)
        v_lead, dt = event.v_lead.tolist(), event.dt
        accel_prev = 0.0
        ep_reward, fuel_ml, steps = 0.0, 0.0, 0
        for k in range(len(event) - 1):
            y = min(1.0, max(-1.0, float(agent.actor.forward(s_norm)[0, 0]) + noise.sample()))
            accel = clamp(env_config, action_to_accel(y, env_config))
            outcome = step(state, accel, v_lead[k + 1], dt, config=env_config)
            r = reward(state, accel, accel_prev, outcome.next_state, dt,
                       outcome.collided, reward_config, fuel_model)
            s_next = normalize_state(outcome.next_state, cfg)
            pushed.append(Transition(s_norm, y, r, s_next, outcome.collided))
            fuel_ml += r.fuel_rate * dt
            ep_reward += r.total
            steps += 1
            if outcome.collided:
                collisions_cum += 1
                break
            state, s_norm, accel_prev = outcome.next_state, s_next, accel
        rolling.append(ep_reward / steps)
        rows.append(TrainLogRow(ep, ep_reward / steps, float(np.mean(rolling)), collisions_cum,
                                steps, fuel_ml))
    return pushed, rows
