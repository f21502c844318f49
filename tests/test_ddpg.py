import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecofollower import cli, ddpg
from ecofollower.ddpg import (DdpgAgent, OuNoise, ReplayBuffer, TrainConfig,
                              TrainLogRow, action_to_accel,
                              normalize_state, policy_controller, train)
from ecofollower.env import DEFAULT_ENV, EnvConfig, EnvState, reset, rollout, step
from ecofollower.events import write_events
from ecofollower.nets import Mlp
from ecofollower.objectives import RewardConfig, reward
from ecofollower.vtmicro import reference_model

from reference_scalar import accel_to_action
from reference_vtmicro import NumpyHornerModel
from synthetic import make_fleet

FUEL = reference_model()

SMALL = dict(episodes=5, warmup_steps=50, batch_size=16,
             hidden_sizes=(16, 16), seed=7)


def small_cfg(**over):
    return TrainConfig(**{**SMALL, **over})


class TestReplayBuffer:
    def _t(self, i):
        return np.array([i, 0.0, 0.0]), 0.1, float(i), np.zeros(3), False

    def test_size_never_exceeds_capacity(self):
        buf = ReplayBuffer(capacity=10)
        for i in range(25):
            buf.push(*self._t(i))
        assert len(buf) == 10

    def test_oldest_entries_evicted(self):
        buf = ReplayBuffer(capacity=10)
        for i in range(13):
            buf.push(*self._t(i))
        kept = set(buf.states[:, 0].astype(int))
        assert kept == set(range(3, 13))

    def test_sample_without_replacement(self):
        buf = ReplayBuffer(capacity=8)
        for i in range(8):
            buf.push(*self._t(i))
        s, a, r, s2, d = buf.sample(8, np.random.default_rng(0))
        assert sorted(s[:, 0].astype(int)) == list(range(8))

    def test_sample_larger_than_size_rejected(self):
        buf = ReplayBuffer(capacity=8)
        buf.push(*self._t(0))
        with pytest.raises(ValueError):
            buf.sample(2, np.random.default_rng(0))


class TestOuNoise:
    def test_deterministic_under_seed(self):
        a = OuNoise(0.15, 0.2, np.random.default_rng(3))
        b = OuNoise(0.15, 0.2, np.random.default_rng(3))
        assert [a.sample() for _ in range(10)] == [b.sample() for _ in range(10)]

    def test_reset_clears_state(self):
        n = OuNoise(0.15, 0.2, np.random.default_rng(3))
        for _ in range(5):
            n.sample()
        n.reset()
        assert n.x == 0.0

    def test_mean_reverts(self):
        n = OuNoise(0.15, 0.0, np.random.default_rng(0))  # no diffusion
        n.x = 1.0
        for _ in range(100):
            n.sample()
        assert abs(n.x) < 1e-4


class TestNormalization:
    def test_action_affine_roundtrip(self):
        env = EnvConfig(a_min=-3.0, a_max=3.0)
        assert action_to_accel(0.0, env) == 0.0
        assert action_to_accel(1.0, env) == 3.0
        assert action_to_accel(-1.0, env) == -3.0
        for y in np.linspace(-1, 1, 21):
            assert accel_to_action(action_to_accel(y, env), env) == pytest.approx(y, abs=1e-12)

    def test_asymmetric_bounds(self):
        env = EnvConfig(a_min=-3.0, a_max=2.0)
        assert action_to_accel(1.0, env) == 2.0
        assert action_to_accel(-1.0, env) == -3.0


class TestAgentUpdate:
    def _filled_agent_and_batch(self, tau=0.005):
        cfg = small_cfg(tau=tau)
        agent = DdpgAgent(cfg, np.random.default_rng(1), np.random.default_rng(2))
        rng = np.random.default_rng(3)
        batch = (rng.normal(size=(16, 3)), rng.uniform(-1, 1, size=(16, 1)),
                 rng.normal(size=16), rng.normal(size=(16, 3)),
                 (rng.uniform(size=16) < 0.1).astype(float))
        return agent, batch

    def test_losses_finite(self):
        agent, batch = self._filled_agent_and_batch()
        closs, aobj = agent.update(batch)
        assert math.isfinite(closs) and math.isfinite(aobj)

    def test_tau_one_targets_equal_online(self):
        agent, batch = self._filled_agent_and_batch(tau=1.0)
        agent.update(batch)
        np.testing.assert_array_equal(agent.target_actor.theta, agent.actor.theta)
        np.testing.assert_array_equal(agent.target_critic.theta, agent.critic.theta)

    def test_tau_zero_targets_frozen(self):
        agent, batch = self._filled_agent_and_batch(tau=1e-300)
        before = agent.target_actor.theta.copy()
        agent.update(batch)
        np.testing.assert_allclose(agent.target_actor.theta, before, atol=1e-290)

    def test_critic_regresses_toward_targets(self):
        # repeated updates on a fixed batch shrink the TD loss
        agent, batch = self._filled_agent_and_batch(tau=1e-12)
        first, _ = agent.update(batch)
        for _ in range(200):
            last, _ = agent.update(batch)
        assert last < first


def _ref_squashed(net, layer):
    return layer < len(net.weights) - 1 or net.output_activation == "tanh"


def _ref_forward_cache(net, x):
    h = np.atleast_2d(np.asarray(x, dtype=float))
    outs = [h]
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w + b
        if _ref_squashed(net, l):
            h = np.tanh(h)
        outs.append(h)
    return h, outs


def _ref_backward(net, cache, dy):
    dws, dbs, grad = [], [], dy
    for l in range(len(net.weights) - 1, -1, -1):
        out = cache[l + 1]
        dz = grad * (1.0 - out * out) if _ref_squashed(net, l) else grad
        dws.insert(0, cache[l].T @ dz)
        dbs.insert(0, dz.sum(axis=0))
        grad = dz @ net.weights[l].T
    return np.concatenate([d.ravel() for d in dws + dbs]), grad


class _RefAdam:
    def __init__(self, theta, lr):
        self.lr, self.t = lr, 0
        self.m, self.v = np.zeros_like(theta), np.zeros_like(theta)

    def step(self, theta, grad):
        self.t += 1
        b1c, b2c = 1.0 - 0.9 ** self.t, 1.0 - 0.999 ** self.t
        self.m *= 0.9
        self.m += (1.0 - 0.9) * grad
        self.v *= 0.999
        self.v += (1.0 - 0.999) * grad * grad
        theta -= self.lr * (self.m / b1c) / (np.sqrt(self.v / b2c) + 1e-8)


def _ref_update(nets, opts, batch, gamma, tau):
    """One DDPG update as plain array expressions: np.concatenate for the critic
    inputs, the full backward pass through the critic, np.mean, the Adam formula."""
    actor, critic, target_actor, target_critic = nets
    s, a, r, s2, done = batch
    n = len(s)
    a2 = _ref_forward_cache(target_actor, s2)[0]
    q2 = _ref_forward_cache(target_critic, np.concatenate([s2, a2], axis=1))[0]
    target = r[:, None] + gamma * (1.0 - done[:, None]) * q2
    q, critic_cache = _ref_forward_cache(critic, np.concatenate([s, a], axis=1))
    td = q - target
    critic_loss = float(np.mean(td * td))
    opts[1].step(critic.theta, _ref_backward(critic, critic_cache, 2.0 * td / n)[0])
    a_pi, actor_cache = _ref_forward_cache(actor, s)
    q_pi, q_cache = _ref_forward_cache(critic, np.concatenate([s, a_pi], axis=1))
    actor_objective = float(np.mean(q_pi))
    _, dq_dinput = _ref_backward(critic, q_cache, np.full_like(q_pi, 1.0 / n))
    opts[0].step(actor.theta, _ref_backward(actor, actor_cache, -dq_dinput[:, -1:])[0])
    for target_net, online in ((target_actor, actor), (target_critic, critic)):
        target_net.theta *= 1.0 - tau
        target_net.theta += tau * online.theta
    return critic_loss, actor_objective


def test_updates_equal_the_plain_expressions_bit_for_bit():
    cfg = TrainConfig(seed=5)  # the default 64x64 nets and batch of 64
    agent = DdpgAgent(cfg, np.random.default_rng(8), np.random.default_rng(9))
    names = ("actor", "critic", "target_actor", "target_critic")
    ref_nets = [getattr(agent, name).copy() for name in names]
    ref_opts = (_RefAdam(ref_nets[0].theta, cfg.actor_lr),
                _RefAdam(ref_nets[1].theta, cfg.critic_lr))
    rng = np.random.default_rng(10)
    for i in range(240):
        n = 17 if i % 60 == 59 else cfg.batch_size  # another batch size now and then
        batch = (rng.normal(size=(n, 3)), rng.uniform(-1, 1, size=(n, 1)),
                 rng.normal(size=n), rng.normal(size=(n, 3)),
                 (rng.uniform(size=n) < 0.1).astype(float))
        assert agent.update(batch) == _ref_update(ref_nets, ref_opts, batch,
                                                  cfg.gamma, cfg.tau), f"update {i}"
    for name, ref in zip(names, ref_nets):
        assert getattr(agent, name).theta.tobytes() == ref.theta.tobytes(), name


class TestForwardHelpers:
    def test_actor_forward_scalar(self):
        # the one-row forward that exploration reads the action from
        agent = DdpgAgent(small_cfg(hidden_sizes=(8,)), np.random.default_rng(0),
                          np.random.default_rng(1))
        y = float(agent.actor.forward(np.array([0.1, 0.2, 0.3]))[0, 0])
        assert -1.0 <= y <= 1.0


class TestTrain:
    def test_bookkeeping_on_tiny_event(self):
        t = np.arange(2) * 0.1
        from ecofollower.events import CarFollowingEvent
        ev = CarFollowingEvent.from_arrays("tiny", t, [12.0, 12.8], [8.0, 8.0],
                                           [0.0, 0.8], [8.0, 8.0])
        cfg = small_cfg(episodes=1)
        policy, rows = train([ev], DEFAULT_ENV, RewardConfig(), cfg, FUEL)
        assert len(rows) == 1
        assert rows[0].steps == 1

    def test_deterministic_under_seed(self):
        events = make_fleet(4, seed=13, duration_range=(16.0, 18.0))
        cfg = small_cfg(episodes=4, warmup_steps=30)
        p1, rows1 = train(events, DEFAULT_ENV, RewardConfig(), cfg, FUEL)
        p2, rows2 = train(events, DEFAULT_ENV, RewardConfig(), cfg, FUEL)
        assert rows1 == rows2
        np.testing.assert_array_equal(p1.theta, p2.theta)

    def test_different_seeds_differ(self):
        events = make_fleet(3, seed=13, duration_range=(16.0, 18.0))
        _, rows1 = train(events, DEFAULT_ENV, RewardConfig(), small_cfg(episodes=3), FUEL)
        _, rows2 = train(events, DEFAULT_ENV, RewardConfig(),
                         small_cfg(episodes=3, seed=8), FUEL)
        assert rows1 != rows2

    def test_collision_count_nondecreasing(self):
        events = make_fleet(4, seed=19, duration_range=(16.0, 18.0))
        _, rows = train(events, DEFAULT_ENV, RewardConfig(), small_cfg(episodes=6), FUEL)
        cums = [r.collisions_cum for r in rows]
        assert cums == sorted(cums)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            train([], DEFAULT_ENV, RewardConfig(), small_cfg(), FUEL)

    def test_trainlog_csv_roundtrip(self, tmp_path, monkeypatch):
        # the trainlog.csv that `ecofollow train` writes reads back as the rows train returned
        returned = []

        def recording_train(*args, **kwargs):
            policy, rows = train(*args, **kwargs)
            returned.append(rows)
            return policy, rows

        monkeypatch.setattr(cli, "train", recording_train)
        events_csv, cfg_path = tmp_path / "events.csv", tmp_path / "config.json"
        write_events(make_fleet(2, seed=23, duration_range=(16.0, 17.0)), events_csv)
        cfg_path.write_text(json.dumps({"train": {**SMALL, "hidden_sizes": [16, 16]}}))
        assert cli.main(["train", "--events", str(events_csv), "--config", str(cfg_path),
                         "--episodes", "2", "--out", str(tmp_path / "out")]) == 0
        [trained] = returned
        with (tmp_path / "out" / "trainlog.csv").open(newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["episode", "mean_reward", "rolling_reward", "collisions_cum",
                          "steps", "fuel_ml"]
        back = [TrainLogRow(int(ep), float(mean), float(rolling), int(cum), int(steps),
                            float(fuel))
                for ep, mean, rolling, cum, steps, fuel in rows]
        assert len(back) == 2 and back == trained


class TestPolicyController:
    def test_matches_actor_forward(self):
        net = Mlp.init([3, 16, 16, 1], np.random.default_rng(3), output_activation="tanh")
        cfg = TrainConfig()
        ctrl = policy_controller(net, cfg, DEFAULT_ENV)
        state = EnvState(8.0, 12.0, -1.0)
        want = action_to_accel(float(net.forward(normalize_state(state, cfg))[0, 0]), DEFAULT_ENV)
        assert ctrl(state, 0) == want


class TestPolicyControllerBytePin:
    """The controller's 0-d constants give the formulas' bytes with the config floats."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40),
           scales=st.tuples(*[st.floats(0.5, 200.0)] * 3),
           bounds=st.tuples(st.floats(-6.0, -0.5), st.floats(0.5, 6.0)))
    @settings(max_examples=100, deadline=None)
    def test_equals_the_formulas(self, seed, n, scales, bounds):
        rng = np.random.default_rng(seed)
        net = Mlp.init([3, 8, 8, 1], rng, output_activation="tanh")
        cfg = TrainConfig(speed_scale=scales[0], spacing_scale=scales[1],
                          rel_speed_scale=scales[2])
        env = EnvConfig(a_min=bounds[0], a_max=bounds[1])
        ctrl = policy_controller(net, cfg, env)
        state = EnvState(rng.uniform(0, 40, n), rng.uniform(0.1, 150, n), rng.normal(0, 5, n))
        one = EnvState(float(state.follow_speed[0]), float(state.spacing[0]),
                       float(state.rel_speed[0]))
        for given_state in (state, one):
            got = ctrl(given_state, 0)
            want = action_to_accel(net.forward(normalize_state(given_state, cfg))[:, 0], env)
            assert np.asarray(got).tobytes() == want.tobytes()


def _record_episodes(monkeypatch) -> list:
    """Record train's env calls through the bindings it calls, ``ddpg.reset`` and
    ``ddpg.step``: one ``(event, steps)`` per episode, each step as
    ``(state, accel, outcome)``."""
    episodes = []

    def recording_reset(event):
        episodes.append((event, []))
        return reset(event)

    def recording_step(state, accel, *args, **kwargs):
        outcome = step(state, accel, *args, **kwargs)
        episodes[-1][1].append((state, accel, outcome))
        return outcome

    monkeypatch.setattr(ddpg, "reset", recording_reset)
    monkeypatch.setattr(ddpg, "step", recording_step)
    return episodes


def _record_pushes(monkeypatch) -> list:
    pushed = []
    push = ReplayBuffer.push

    def recording_push(buffer, state, action, reward, next_state, done):
        pushed.append((state.copy(), action, reward, next_state.copy(), done))
        push(buffer, state, action, reward, next_state, done)

    monkeypatch.setattr(ReplayBuffer, "push", recording_push)
    return pushed


class TestTrainStepLoop:
    def test_kinematics_match_rollout_under_same_actions(self, monkeypatch):
        episodes = _record_episodes(monkeypatch)
        events = make_fleet(3, seed=29, duration_range=(16.0, 17.0))
        _, rows = train(events, DEFAULT_ENV, RewardConfig(), small_cfg(episodes=4), FUEL)
        assert [len(seen) for _, seen in episodes] == [r.steps for r in rows]
        for event, seen in episodes:
            states, accels, outcomes = zip(*seen)
            trace = rollout(event, lambda state, k: accels[k], DEFAULT_ENV)
            assert len(trace) == len(seen)
            np.testing.assert_array_equal(trace.accel, accels)
            np.testing.assert_array_equal(trace.v_follow, [s.follow_speed for s in states])
            np.testing.assert_array_equal(trace.spacing, [s.spacing for s in states])
            np.testing.assert_array_equal(trace.rel_speed, [s.rel_speed for s in states])
            assert trace.collided == outcomes[-1].collided

    def test_episode_ends_at_the_colliding_step(self, monkeypatch):
        """A follower that brakes at most -1 m/s^2 and may speed up at 6 collides;
        the colliding step is the episode's last and is pushed as terminal."""
        episodes = _record_episodes(monkeypatch)
        pushed = _record_pushes(monkeypatch)
        env = EnvConfig(a_min=-1.0, a_max=6.0)
        events = make_fleet(3, seed=29, duration_range=(16.0, 17.0))
        _, rows = train(events, env, RewardConfig(), small_cfg(episodes=4), FUEL)
        assert rows[-1].collisions_cum > 0
        assert [len(seen) for _, seen in episodes] == [r.steps for r in rows]
        transitions = iter(pushed)
        for event, seen in episodes:
            dones = [done for _, (_, _, _, _, done) in zip(seen, transitions)]
            collided = [outcome.collided for _, _, outcome in seen]
            assert dones == collided
            assert not any(collided[:-1])
            assert len(seen) == len(event) - 1 or collided[-1]
        assert sum(seen[-1][2].collided for _, seen in episodes) == rows[-1].collisions_cum


class TestCollectionLoopBits:
    """Every transition that collection pushes, pinned bit for bit against the
    states, commands and outcomes of the step loop."""

    def test_pushed_transitions(self, monkeypatch):
        pushed = _record_pushes(monkeypatch)
        episodes = _record_episodes(monkeypatch)

        def no_update(agent, batch):
            raise AssertionError("collection must not update")

        monkeypatch.setattr(DdpgAgent, "update", no_update)
        events = make_fleet(3, seed=41, duration_range=(16.0, 20.0))
        cfg = small_cfg(episodes=5, warmup_steps=10**9)
        _, rows = train(events, DEFAULT_ENV, RewardConfig(), cfg, FUEL)

        assert [len(seen) for _, seen in episodes] == [r.steps for r in rows]
        assert len(pushed) == sum(r.steps for r in rows)
        fuel = NumpyHornerModel(FUEL)
        transitions = iter(pushed)
        for event, seen in episodes:
            accel_prev, previous = 0.0, None
            for (state, accel, outcome), (s, a, r, s2, done) in zip(seen, transitions):
                assert s.tobytes() == normalize_state(state, cfg).tobytes()
                assert s2.tobytes() == normalize_state(outcome.next_state, cfg).tobytes()
                if previous is not None:
                    assert previous.tobytes() == s.tobytes()
                assert DEFAULT_ENV.clamp(action_to_accel(a, DEFAULT_ENV)) == accel
                want = reward(state, accel, accel_prev, outcome.next_state, event.dt,
                              outcome.collided, RewardConfig(), fuel)
                assert float(r).hex() == want.total.hex()
                assert done == outcome.collided
                accel_prev, previous = accel, s2
