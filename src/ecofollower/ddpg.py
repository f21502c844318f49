"""Deep deterministic policy gradient agent and its lockstep training loop.

Actor: state triple -> accel command in [-1, 1] (tanh output), rescaled to the
env's actuator bounds. Critic: (state, action) -> Q. Both are small dense nets
updated with explicit backprop and Adam; targets track with soft updates.

Training collects from ``parallel_events`` episodes at once, one array step
for all of them (the vector-env collection of Ape-X and Stable-Baselines3's
``n_envs``). It is single-threaded and fully determined by (seed, data,
config); independent RNG streams are derived from the seed per purpose.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

# ``step`` is not called here: benchmarks/bench_trace.py binds it under this name
from .env import (Controller, EnvConfig, EnvState, DEFAULT_ENV, advance, reset, step,  # noqa: F401
                  step_limits)
from .events import CarFollowingEvent
from .nets import Adam, Mlp, soft_update
from .objectives import RewardConfig, step_rewards
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
    parallel_events: int = 16      # episodes collected from in lockstep

    def __post_init__(self):
        if self.episodes < 1:
            raise ValueError(f"episodes must be >= 1, got {self.episodes}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must be in (0, 1], got {self.tau}")
        for name in ("batch_size", "rolling_window", "parallel_events"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.buffer_capacity < self.batch_size:
            raise ValueError(f"buffer_capacity must be >= batch_size ({self.batch_size}), "
                             f"got {self.buffer_capacity}")
        if any(n < 1 for n in self.hidden_sizes):
            raise ValueError(f"hidden sizes must be >= 1, got {self.hidden_sizes}")
        for name in ("actor_lr", "critic_lr", "speed_scale", "spacing_scale", "rel_speed_scale"):
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

    def push(self, states: np.ndarray, actions: np.ndarray, rewards: np.ndarray,
             next_states: np.ndarray, dones: np.ndarray) -> None:
        """Store n steps in order: (n, 3) normalized states, the n squashed
        actions in [-1, 1], and done for a true terminal (collision), not a
        timeout. Rows past the capacity overwrite the oldest."""
        n = len(rewards)
        if n > self.capacity:   # only the last capacity rows would survive
            states, actions, rewards, next_states, dones = (
                x[n - self.capacity:] for x in (states, actions, rewards, next_states, dones))
            n = self.capacity
        i = self._cursor
        head = min(n, self.capacity - i)   # rows before the ring wraps
        for dst, src in ((self.states, states), (self.actions[:, 0], actions),
                         (self.rewards, rewards), (self.next_states, next_states),
                         (self.dones, dones)):
            dst[i:i + head] = src[:head]
            if head < n:
                dst[:n - head] = src[head:]
        self._cursor = (i + n) % self.capacity
        self._size = min(self._size + n, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        if batch_size > self._size:
            raise ValueError(f"batch {batch_size} exceeds buffer size {self._size}")
        idx = rng.choice(self._size, size=batch_size, replace=False)
        return (self.states[idx], self.actions[idx], self.rewards[idx],
                self.next_states[idx], self.dones[idx])


def state_scales(cfg: TrainConfig) -> np.ndarray:
    """The divisors of ``normalize_state``: the speed, spacing and relative speed scales."""
    return np.array([cfg.speed_scale, cfg.spacing_scale, cfg.rel_speed_scale], dtype=float)


def action_operands(env_cfg: EnvConfig) -> tuple[np.ndarray, ...]:
    """The constants of ``action_to_accel``, a_min, 1, 2 and the actuator span,
    as 0-d arrays: a ufunc takes them faster than floats, and computes the same."""
    return tuple(np.array(float(x)) for x in (env_cfg.a_min, 1.0, 2.0,
                                              env_cfg.a_max - env_cfg.a_min))


def normalize_state(state: EnvState, scales: np.ndarray, out: np.ndarray | None = None
                    ) -> np.ndarray:
    """The actor's input: each field of ``state`` over its scale in ``scales``
    (``state_scales``), (n, 3) for (n,) arrays of states and (3,) for one
    state of floats, written into ``out`` if given."""
    return np.divide(np.array(state).T, scales, out=out)


def action_to_accel(y: np.ndarray, operands: tuple[np.ndarray, ...],
                    out: np.ndarray | None = None) -> np.ndarray:
    """Affine map of the (n,) squashed actions in [-1, 1] onto [a_min, a_max],
    a_min + (y + 1) / 2 * span, with ``operands`` from ``action_operands``;
    written into ``out`` if given (``y`` itself may be)."""
    a_min, one, two, span = operands
    out = np.add(y, one, out=out)
    np.divide(out, two, out=out)
    np.multiply(out, span, out=out)
    return np.add(a_min, out, out=out)


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

    ``parallel_events`` slots step in lockstep. Each lockstep step runs one
    actor forward over the running slots' states, adds each slot's own OU
    noise, clips, maps the action onto the actuator range, steps every slot
    with one ``advance``, scores it with one ``step_rewards`` and pushes the
    transitions to the replay buffer in slot order. Once the run has pushed
    ``max(warmup_steps, batch_size)`` transitions, each pushed transition is
    followed by one update.

    A slot draws its next event when its episode ends or collides, until
    ``episodes`` episodes have started; those run to their end. Returns the
    trained actor and one row per episode in the order the episodes end;
    ``episode`` counts them (slot order breaks ties). An episode's exploration
    noise decays with the ordinal it started with, which a TrainingError names.
    """
    events = tuple(events)
    if not events:
        raise ValueError("training set is empty")
    if min(map(len, events)) < 2:   # an episode needs a step
        raise ValueError("training events need at least 2 samples")
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
    rng_noise = np.random.default_rng(derive_seed(cfg.seed, "ddpg.noise"))
    update_floor = max(cfg.warmup_steps, cfg.batch_size)
    scales, operands = state_scales(cfg), action_operands(env_config)
    limits, theta = step_limits(env_config), np.array(-cfg.ou_theta)

    # One column (a row of obs and lead) per slot; the running slots are the first n.
    # env holds (accel, v_follow, rel_speed, x_follow, spacing) as advance reads it;
    # lead row j the leader speeds of slot j's event, and at[j] the flat index into
    # lead of the speed after slot j's next step.
    width, longest = min(cfg.parallel_events, cfg.episodes), max(map(len, events))
    env, env_next, dt = np.empty((5, width)), np.empty((5, width)), np.empty((2, width))
    obs, obs_next, lead = np.empty((width, 3)), np.empty((width, 3)), np.empty((width, longest))
    per_slot = np.empty((5, width))
    accel_prev, ou, sigma, reward_sum, fuel_ml = per_slot
    indices = np.empty((3, width), dtype=np.intp)
    at, first, last = indices
    collided = np.empty(width, dtype=bool)
    episode = []   # each running slot's start ordinal

    def start(j: int) -> None:
        """Begin the next episode in slot j, on a drawn event."""
        nonlocal started
        ep, started = started, started + 1
        event = events[int(rng_events.integers(len(events)))]
        state = reset(event)
        env[1:, j] = state.follow_speed, state.rel_speed, float(event.x_follow[0]), state.spacing
        normalize_state(state, scales, out=obs[j])
        dt[:, j] = event.dt
        lead[j, :len(event)] = event.v_lead
        frac = ep / (cfg.episodes - 1) if cfg.episodes > 1 else 0.0
        per_slot[:, j] = 0.0, 0.0, cfg.ou_sigma + (cfg.ou_sigma_final - cfg.ou_sigma) * frac, 0.0, 0.0
        indices[:, j] = j * longest + 1, j * longest + 1, j * longest + len(event) - 1
        episode[j:j + 1] = [ep]

    rows = []
    rolling = deque(maxlen=cfg.rolling_window)
    started = transitions = collisions_cum = 0
    for j in range(width):
        start(j)
    n = width
    while n:
        row, nxt = env[:, :n], env_next[:, :n]
        y = agent.actor.forward(obs[:n])[:, 0]
        # each slot's OU process: x += -theta * x + sigma * N(0, 1)
        ou[:n] += theta * ou[:n] + sigma[:n] * rng_noise.standard_normal(n)
        y += ou[:n]
        np.maximum(-1.0, y, out=y)
        np.minimum(1.0, y, out=y)
        accel = action_to_accel(y, operands, out=row[0])
        hit = collided[:n]
        advance(row, nxt, dt[:, :n], lead.take(at[:n]), limits, hit)
        state_next = EnvState(nxt[1], nxt[4], nxt[2])
        r = step_rewards(row[1], accel, accel_prev[:n], state_next, dt[0, :n], hit, reward_config,
                         fuel_model)
        normalize_state(state_next, scales, out=obs_next[:n])
        # timeouts are not stored as terminal so the TD target keeps bootstrapping
        buffer.push(obs[:n], y, r.total, obs_next[:n], hit)
        reward_sum[:n] += r.total
        fuel_ml[:n] += r.fuel_rate * dt[0, :n]
        for i in range(max(0, update_floor - transitions - 1), n):   # from the floor on
            try:
                agent.update(buffer.sample(cfg.batch_size, rng_replay))
            except TrainingError as exc:
                raise TrainingError(f"episode {episode[i]}, step {at[i] - first[i]}: "
                                    f"{exc}") from exc
        transitions += n
        accel_prev[:n] = accel
        ended = hit | (at[:n] == last[:n])
        at[:n] += 1
        env, env_next, obs, obs_next = env_next, env, obs_next, obs
        if not np.count_nonzero(ended):
            continue
        for j in np.flatnonzero(ended).tolist():
            steps = int(at[j] - first[j])
            rolling.append(float(reward_sum[j]) / steps)
            collisions_cum += bool(collided[j])
            rows.append(TrainLogRow(len(rows), rolling[-1], float(np.mean(rolling)),
                                    collisions_cum, steps, float(fuel_ml[j])))
            if progress is not None:
                progress(rows[-1])
            if started < cfg.episodes:
                start(j)
                ended[j] = False
        if np.count_nonzero(ended):   # keep the running slots first, in slot order
            live = np.flatnonzero(~ended)
            for arr in (env, dt, per_slot, indices):
                arr[:, :len(live)] = arr[:, live]
            obs[:len(live)] = obs[live]
            episode = [episode[j] for j in live.tolist()]
            n = len(live)
    return agent.actor, rows


def policy_controller(net: Mlp, train_config: TrainConfig,
                      env_config: EnvConfig = DEFAULT_ENV) -> Controller:
    """Deterministic (noise-free) controller wrapping a trained actor.

    One forward pass over the (n,) arrays of states of a lockstep step, with
    ``train``'s observation and action maps, whose constants are built once.
    """
    scales, operands = state_scales(train_config), action_operands(env_config)

    def control(state: EnvState, k: int) -> np.ndarray:
        y = net.forward(normalize_state(state, scales))[:, 0]
        return action_to_accel(y, operands, out=y)

    return control
