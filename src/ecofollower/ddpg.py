"""Deep deterministic policy gradient agent and episode training loop.

Actor: state triple -> accel command in [-1, 1] (tanh output), rescaled to the
env's actuator bounds. Critic: (state, action) -> Q. Both are small dense nets
updated with explicit backprop and Adam; targets track with soft updates.

Training is single-threaded and fully determined by (seed, data, config);
independent RNG streams are derived from the seed per purpose.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .env import Controller, EnvConfig, EnvState, DEFAULT_ENV, reset, step
from .events import CarFollowingEvent
from .nets import Adam, Mlp, soft_update
from .objectives import RewardConfig, reward
from .rng import derive_seed
from .vtmicro import VtMicroModel


class TrainingError(RuntimeError):
    """Training diverged (non-finite loss); message carries episode/step context."""


@dataclass(frozen=True)
class TrainConfig:
    episodes: int = 3000
    gamma: float = 0.99
    tau: float = 0.005
    actor_lr: float = 1e-4
    critic_lr: float = 1e-3
    batch_size: int = 64
    buffer_capacity: int = 100_000
    ou_theta: float = 0.15
    ou_sigma: float = 0.2
    ou_sigma_final: float = 0.02   # linear decay target over the episode count
    warmup_steps: int = 1000
    seed: int = 0
    hidden_sizes: tuple[int, ...] = (64, 64)
    # state normalization divisors, sized to NGSIM magnitudes
    speed_scale: float = 30.0
    spacing_scale: float = 100.0
    rel_speed_scale: float = 10.0
    rolling_window: int = 50

    def __post_init__(self):
        if self.episodes < 1:
            raise ValueError(f"episodes must be >= 1, got {self.episodes}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        for name in ("batch_size", "rolling_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.buffer_capacity < self.batch_size:
            raise ValueError(f"buffer_capacity must be >= batch_size ({self.batch_size}), "
                             f"got {self.buffer_capacity}")
        if any(n < 1 for n in self.hidden_sizes):
            raise ValueError(f"hidden sizes must be >= 1, got {self.hidden_sizes}")
        for name in ("speed_scale", "spacing_scale", "rel_speed_scale"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


class ReplayBuffer:
    """Fixed-capacity ring of transitions between state triples; uniform batch
    sampling without replacement."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.states = np.zeros((capacity, 3))
        self.actions = np.zeros((capacity, 1))
        self.rewards = np.zeros(capacity)
        self.next_states = np.zeros((capacity, 3))
        self.dones = np.zeros(capacity)
        self._cursor = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, state: np.ndarray, action: float, reward: float,
             next_state: np.ndarray, done: bool) -> None:
        """Store one step: normalized states, the squashed action in [-1, 1],
        and done for a true terminal (collision), not a timeout."""
        i = self._cursor
        self.states[i] = state
        self.actions[i, 0] = action
        self.rewards[i] = reward
        self.next_states[i] = next_state
        self.dones[i] = float(done)
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        if batch_size > self._size:
            raise ValueError(f"batch {batch_size} exceeds buffer size {self._size}")
        idx = rng.choice(self._size, size=batch_size, replace=False)
        return (self.states[idx], self.actions[idx], self.rewards[idx],
                self.next_states[idx], self.dones[idx])


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


def normalize_state(state: EnvState, cfg: TrainConfig,
                    divisors: tuple | None = None) -> np.ndarray:
    """The actor's input: shape (3,) for one state, (N, 3) for arrays of N states.

    ``divisors`` are ``_state_divisors(cfg)`` made once by the caller, such as
    ``policy_controller``'s 0-d arrays; by default they are read off ``cfg``.
    """
    speed, spacing, rel_speed = divisors or _state_divisors(cfg)
    return np.array([state.follow_speed / speed,
                     state.spacing / spacing,
                     state.rel_speed / rel_speed]).T


def action_to_accel(y: float, env_cfg: EnvConfig, operands: tuple | None = None) -> float:
    """Affine map of the squashed action [-1, 1] onto [a_min, a_max].

    ``operands`` are ``_action_operands(env_cfg)`` made once by the caller, as
    ``divisors`` are for ``normalize_state``.
    """
    a_min, one, two, span = operands or _action_operands(env_cfg)
    return a_min + (y + one) / two * span


def _state_divisors(cfg: TrainConfig) -> tuple[float, float, float]:
    """The divisors of ``normalize_state``: speed, spacing and relative speed scales."""
    return cfg.speed_scale, cfg.spacing_scale, cfg.rel_speed_scale


def _action_operands(env_cfg: EnvConfig) -> tuple[float, float, float, float]:
    """The constants of ``action_to_accel``: a_min, 1, 2 and the actuator span."""
    return env_cfg.a_min, 1.0, 2.0, env_cfg.a_max - env_cfg.a_min


class DdpgAgent:
    def __init__(self, config: TrainConfig, actor_rng: np.random.Generator,
                 critic_rng: np.random.Generator):
        hidden = list(config.hidden_sizes)
        self.actor = Mlp.init([3, *hidden, 1], actor_rng, output_activation="tanh")
        self.critic = Mlp.init([4, *hidden, 1], critic_rng, output_activation="linear")
        self.target_actor = self.actor.copy()
        self.target_critic = self.critic.copy()
        self.actor_opt = Adam(self.actor.theta, lr=config.actor_lr)
        self.critic_opt = Adam(self.critic.theta, lr=config.critic_lr)
        self.gamma = config.gamma
        self.tau = config.tau
        self._critic_x = np.empty((0, self.critic.sizes[0]))

    def update(self, batch) -> tuple[float, float]:
        """One critic regression + actor ascent step, then soft target updates."""
        s, a, r, s2, done = batch
        n = len(s)
        # one (state, action) buffer serves the three critic passes in turn; the
        # critic's cache of the second pass holds it only until its backward
        if len(self._critic_x) != n:
            self._critic_x = np.empty((n, self.critic.sizes[0]))
        x, n_s = self._critic_x, s.shape[1]
        x[:, :n_s] = s2
        x[:, n_s:] = self.target_actor.forward(s2)
        q2 = self.target_critic.forward(x)
        target = r[:, None] + self.gamma * (1.0 - done[:, None]) * q2

        x[:, :n_s] = s
        x[:, n_s:] = a
        q, critic_cache = self.critic.forward_cache(x)
        td = q - target
        critic_loss = float((td * td).sum() / n)
        dtheta = self.critic.backward(critic_cache, 2.0 * td / n)
        self.critic_opt.step(self.critic.theta, dtheta)

        a_pi, actor_cache = self.actor.forward_cache(s)
        x[:, n_s:] = a_pi
        q_pi, q_cache = self.critic.forward_cache(x)
        actor_objective = float(q_pi.sum() / n)
        # only dQ/d(input) is needed here; the critic's parameter gradient is not
        dq_da = self.critic.input_grad(q_cache, np.full_like(q_pi, 1.0 / n))[:, -1:]
        dtheta = self.actor.backward(actor_cache, -dq_da)  # ascend Q
        self.actor_opt.step(self.actor.theta, dtheta)

        soft_update(self.target_actor, self.actor, self.tau)
        soft_update(self.target_critic, self.critic, self.tau)
        if not (math.isfinite(critic_loss) and math.isfinite(actor_objective)):
            raise TrainingError(
                f"non-finite update: critic_loss={critic_loss}, actor_objective={actor_objective}")
        return critic_loss, actor_objective


class TrainLogRow(NamedTuple):
    """One episode of training; the fields are the trainlog.csv columns."""
    episode: int
    mean_reward: float
    rolling_reward: float
    collisions_cum: int
    steps: int
    fuel_ml: float


def train(events: Sequence[CarFollowingEvent],
          env_config: EnvConfig,
          reward_config: RewardConfig,
          train_config: TrainConfig,
          fuel_model: VtMicroModel,
          progress: Callable[[TrainLogRow], None] | None = None
          ) -> tuple[Mlp, list[TrainLogRow]]:
    """Train a policy over randomly drawn training events.

    Returns the trained actor and one row per episode.
    """
    events = tuple(events)
    if not events:
        raise ValueError("training set is empty")
    cfg = train_config
    agent = DdpgAgent(
        cfg,
        actor_rng=np.random.default_rng(derive_seed(cfg.seed, "ddpg.init.actor")),
        critic_rng=np.random.default_rng(derive_seed(cfg.seed, "ddpg.init.critic")),
    )
    try:
        buffer = ReplayBuffer(cfg.buffer_capacity)
    except MemoryError as exc:
        raise ValueError(f"train.buffer_capacity {cfg.buffer_capacity} is too large: "
                         f"cannot allocate the replay buffer ({exc})") from exc
    rng_events = np.random.default_rng(derive_seed(cfg.seed, "ddpg.events"))
    rng_replay = np.random.default_rng(derive_seed(cfg.seed, "ddpg.replay"))
    noise = OuNoise(cfg.ou_theta, cfg.ou_sigma,
                    np.random.default_rng(derive_seed(cfg.seed, "ddpg.noise")))
    update_floor = max(cfg.warmup_steps, cfg.batch_size)
    # Python floats: on one state they are faster than 0-d arrays
    divisors, operands = _state_divisors(cfg), _action_operands(env_config)

    rows = []
    rolling = deque(maxlen=cfg.rolling_window)
    collisions_cum = 0
    for ep in range(cfg.episodes):
        event = events[int(rng_events.integers(len(events)))]
        frac = ep / (cfg.episodes - 1) if cfg.episodes > 1 else 0.0
        noise.sigma = cfg.ou_sigma + (cfg.ou_sigma_final - cfg.ou_sigma) * frac
        noise.reset()

        state = reset(event)
        s_norm = normalize_state(state, cfg, divisors)
        v_lead, dt = event.v_lead.tolist(), event.dt
        accel_prev = 0.0
        ep_reward, fuel_ml, steps = 0.0, 0.0, 0
        for k in range(len(event) - 1):
            y = min(1.0, max(-1.0, float(agent.actor.forward(s_norm)[0, 0]) + noise.sample()))
            # clamped as step clamps it: the affine map may round past a bound
            accel = env_config.clamp(action_to_accel(y, env_config, operands))
            outcome = step(state, accel, v_lead[k + 1], dt, config=env_config)
            r = reward(state, accel, accel_prev, outcome.next_state, dt,
                       outcome.collided, reward_config, fuel_model)
            # timeouts are not stored as terminal so the TD target keeps bootstrapping
            s_next = normalize_state(outcome.next_state, cfg, divisors)
            buffer.push(s_norm, y, r.total, s_next, outcome.collided)
            fuel_ml += r.fuel_rate * dt
            ep_reward += r.total
            steps += 1
            if len(buffer) >= update_floor:
                try:
                    agent.update(buffer.sample(cfg.batch_size, rng_replay))
                except TrainingError as exc:
                    raise TrainingError(f"episode {ep}, step {k}: {exc}") from exc
            if outcome.collided:
                collisions_cum += 1
                break
            state, s_norm, accel_prev = outcome.next_state, s_next, accel

        mean_reward = ep_reward / steps
        rolling.append(mean_reward)
        row = TrainLogRow(episode=ep, mean_reward=mean_reward, rolling_reward=float(np.mean(rolling)),
                          collisions_cum=collisions_cum, steps=steps, fuel_ml=fuel_ml)
        rows.append(row)
        if progress is not None:
            progress(row)
    return agent.actor, rows


def policy_controller(net: Mlp, train_config: TrainConfig,
                      env_config: EnvConfig = DEFAULT_ENV) -> Controller:
    """Deterministic (noise-free) controller wrapping a trained actor.

    One forward pass over every state it is given: a single state, or the
    arrays of states of a lockstep rollout. The formulas' constants are built
    once, as 0-d arrays: a ufunc takes them faster than floats, and computes
    the same with them.
    """
    divisors = tuple(np.array(float(x)) for x in _state_divisors(train_config))
    operands = tuple(np.array(float(x)) for x in _action_operands(env_config))

    def control(state: EnvState, k: int) -> float | np.ndarray:
        x = normalize_state(state, train_config, divisors)
        y = net.forward(x)[:, 0].reshape(np.shape(state.follow_speed))
        return action_to_accel(y, env_config, operands)

    return control
