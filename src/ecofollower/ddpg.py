"""Deep deterministic policy gradient agent and episode training loop.

Actor: state triple -> accel command in [-1, 1] (tanh output), rescaled to the
env's actuator bounds. Critic: (state, action) -> Q. Both are small dense nets
updated with explicit backprop and Adam; targets track with soft updates.

Training is single-threaded and fully determined by (seed, data, config);
independent RNG streams are derived from the seed per purpose.
"""

from __future__ import annotations

import csv
import math
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .env import Controller, EnvConfig, EnvState, DEFAULT_ENV, simulate
# train never calls step; the binding stays because benchmarks/test_bench_smoke.py
# checks that the benchmark tracer wraps ddpg.step along with env.step
from .env import step  # noqa: F401
from .events import CarFollowingEvent, DatasetSplit
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

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown train config fields: {sorted(unknown)}")
        if "hidden_sizes" in obj:
            obj = dict(obj, hidden_sizes=tuple(obj["hidden_sizes"]))
        return cls(**obj)


class Transition(NamedTuple):
    state: np.ndarray       # normalized triple
    action: float           # normalized accel in [-1, 1]
    reward: float
    next_state: np.ndarray  # normalized triple
    done: bool              # true terminal (collision), not timeout


class ReplayBuffer:
    """Fixed-capacity ring; uniform batch sampling without replacement."""

    def __init__(self, capacity: int, state_dim: int = 3):
        self.capacity = capacity
        self.states = np.zeros((capacity, state_dim))
        self.actions = np.zeros((capacity, 1))
        self.rewards = np.zeros(capacity)
        self.next_states = np.zeros((capacity, state_dim))
        self.dones = np.zeros(capacity)
        self._cursor = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, t: Transition) -> None:
        i = self._cursor
        self.states[i] = t.state
        self.actions[i, 0] = t.action
        self.rewards[i] = t.reward
        self.next_states[i] = t.next_state
        self.dones[i] = float(t.done)
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


def normalize_state(state: EnvState, cfg: TrainConfig) -> np.ndarray:
    """The actor's input: shape (3,) for one state, (N, 3) for arrays of N states."""
    return np.array([state.follow_speed / cfg.speed_scale,
                     state.spacing / cfg.spacing_scale,
                     state.rel_speed / cfg.rel_speed_scale]).T


def action_to_accel(y: float, env_cfg: EnvConfig) -> float:
    """Affine map of the squashed action [-1, 1] onto [a_min, a_max]."""
    return env_cfg.a_min + (y + 1.0) / 2.0 * (env_cfg.a_max - env_cfg.a_min)


def accel_to_action(a: float, env_cfg: EnvConfig) -> float:
    return 2.0 * (a - env_cfg.a_min) / (env_cfg.a_max - env_cfg.a_min) - 1.0


def actor_forward(net: Mlp, state_norm: np.ndarray) -> float:
    """Deterministic policy output in [-1, 1] for a single normalized state."""
    return float(net.forward(state_norm)[0, 0])


class DdpgAgent:
    def __init__(self, actor: Mlp, critic: Mlp, config: TrainConfig):
        self.actor = actor
        self.critic = critic
        self.target_actor = actor.copy()
        self.target_critic = critic.copy()
        self.actor_opt = Adam(actor.theta, lr=config.actor_lr)
        self.critic_opt = Adam(critic.theta, lr=config.critic_lr)
        self.gamma = config.gamma
        self.tau = config.tau

    @classmethod
    def new(cls, config: TrainConfig, actor_rng: np.random.Generator,
            critic_rng: np.random.Generator) -> "DdpgAgent":
        hidden = list(config.hidden_sizes)
        actor = Mlp.init([3, *hidden, 1], actor_rng, output_activation="tanh")
        critic = Mlp.init([4, *hidden, 1], critic_rng, output_activation="linear")
        return cls(actor, critic, config)

    def update(self, batch) -> tuple[float, float]:
        """One critic regression + actor ascent step, then soft target updates."""
        s, a, r, s2, done = batch
        n = len(s)
        a2 = self.target_actor.forward(s2)
        q2 = self.target_critic.forward(np.concatenate([s2, a2], axis=1))
        target = r[:, None] + self.gamma * (1.0 - done[:, None]) * q2

        q, critic_cache = self.critic.forward_cache(np.concatenate([s, a], axis=1))
        td = q - target
        critic_loss = float(np.mean(td * td))
        dtheta, _ = self.critic.backward(critic_cache, 2.0 * td / n)
        self.critic_opt.step(self.critic.theta, dtheta)

        a_pi, actor_cache = self.actor.forward_cache(s)
        q_pi, q_cache = self.critic.forward_cache(np.concatenate([s, a_pi], axis=1))
        actor_objective = float(np.mean(q_pi))
        _, dq_dinput = self.critic.backward(q_cache, np.full_like(q_pi, 1.0 / n))
        dq_da = dq_dinput[:, -1:]
        dtheta, _ = self.actor.backward(actor_cache, -dq_da)  # ascend Q
        self.actor_opt.step(self.actor.theta, dtheta)

        soft_update(self.target_actor, self.actor, self.tau)
        soft_update(self.target_critic, self.critic, self.tau)
        if not (math.isfinite(critic_loss) and math.isfinite(actor_objective)):
            raise TrainingError(
                f"non-finite update: critic_loss={critic_loss}, actor_objective={actor_objective}")
        return critic_loss, actor_objective


@dataclass(frozen=True)
class TrainLogRow:
    episode: int
    mean_reward: float
    rolling_reward: float
    collisions_cum: int
    steps: int
    fuel_ml: float


@dataclass
class TrainLog:
    rows: list[TrainLogRow] = field(default_factory=list)

    CSV_HEADER = ("episode", "mean_reward", "rolling_reward", "collisions_cum", "steps", "fuel_ml")

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.CSV_HEADER)
            for r in self.rows:
                writer.writerow([r.episode, repr(r.mean_reward), repr(r.rolling_reward),
                                 r.collisions_cum, r.steps, repr(r.fuel_ml)])

    @classmethod
    def read_csv(cls, path) -> "TrainLog":
        log = cls()
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                log.rows.append(TrainLogRow(
                    int(row["episode"]), float(row["mean_reward"]),
                    float(row["rolling_reward"]), int(row["collisions_cum"]),
                    int(row["steps"]), float(row["fuel_ml"])))
        return log


ProgressFn = Callable[[TrainLogRow], None]


def train(split: DatasetSplit | Sequence[CarFollowingEvent],
          env_config: EnvConfig,
          reward_config: RewardConfig,
          train_config: TrainConfig,
          fuel_model: VtMicroModel,
          progress: ProgressFn | None = None) -> tuple[Mlp, TrainLog]:
    """Train a policy over randomly drawn training events.

    Accepts a DatasetSplit (trains on .train) or a bare event sequence.
    Returns the trained actor and a per-episode log.
    """
    events = tuple(split.train) if isinstance(split, DatasetSplit) else tuple(split)
    if not events:
        raise ValueError("training set is empty")
    cfg = train_config
    agent = DdpgAgent.new(
        cfg,
        actor_rng=np.random.default_rng(derive_seed(cfg.seed, "ddpg.init.actor")),
        critic_rng=np.random.default_rng(derive_seed(cfg.seed, "ddpg.init.critic")),
    )
    buffer = ReplayBuffer(cfg.buffer_capacity)
    rng_events = np.random.default_rng(derive_seed(cfg.seed, "ddpg.events"))
    rng_replay = np.random.default_rng(derive_seed(cfg.seed, "ddpg.replay"))
    noise = OuNoise(cfg.ou_theta, cfg.ou_sigma,
                    np.random.default_rng(derive_seed(cfg.seed, "ddpg.noise")))
    update_floor = max(cfg.warmup_steps, cfg.batch_size)

    s_norm, y = None, 0.0

    def explore(state: EnvState, k: int) -> float:
        # keeps the normalized state and the squashed action for the replay buffer
        nonlocal s_norm, y
        s_norm = normalize_state(state, cfg)
        y = min(1.0, max(-1.0, actor_forward(agent.actor, s_norm) + noise.sample()))
        return action_to_accel(y, env_config)

    log = TrainLog()
    rolling = deque(maxlen=cfg.rolling_window)
    collisions_cum = 0
    for ep in range(cfg.episodes):
        event = events[int(rng_events.integers(len(events)))]
        frac = ep / (cfg.episodes - 1) if cfg.episodes > 1 else 0.0
        noise.sigma = cfg.ou_sigma + (cfg.ou_sigma_final - cfg.ou_sigma) * frac
        noise.reset()

        accel_prev = 0.0
        ep_reward, fuel_ml, steps = 0.0, 0.0, 0
        collided = False
        for k, state, _, accel, outcome in simulate(event, explore, env_config):
            r = reward(state, accel, accel_prev, outcome.next_state, event.dt,
                       outcome.collided, reward_config, fuel_model)
            # timeouts are not stored as terminal so the TD target keeps bootstrapping
            buffer.push(Transition(s_norm, y, r.total,
                                   normalize_state(outcome.next_state, cfg),
                                   outcome.collided))
            fuel_ml += r.fuel_rate * event.dt
            ep_reward += r.total
            steps += 1
            if len(buffer) >= update_floor:
                try:
                    agent.update(buffer.sample(cfg.batch_size, rng_replay))
                except TrainingError as exc:
                    raise TrainingError(f"episode {ep}, step {k}: {exc}") from exc
            accel_prev = accel
            collided = outcome.collided

        collisions_cum += int(collided)
        mean_reward = ep_reward / steps
        rolling.append(mean_reward)
        row = TrainLogRow(
            episode=ep,
            mean_reward=mean_reward,
            rolling_reward=float(np.mean(rolling)),
            collisions_cum=collisions_cum,
            steps=steps,
            fuel_ml=fuel_ml,
        )
        log.rows.append(row)
        if progress is not None:
            progress(row)
    return agent.actor, log


def policy_controller(net: Mlp, train_config: TrainConfig,
                      env_config: EnvConfig = DEFAULT_ENV) -> Controller:
    """Deterministic (noise-free) controller wrapping a trained actor.

    One forward pass over every state it is given: a single state, or the
    arrays of states of a lockstep rollout.
    """

    def control(state: EnvState, k: int) -> float:
        x = normalize_state(state, train_config)
        y = net.forward(x)[:, 0].reshape(np.shape(state.follow_speed))
        return action_to_accel(y, env_config)

    return control
