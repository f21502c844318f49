import math

import numpy as np
import pytest

from ecofollower import ddpg
from ecofollower.ddpg import (DdpgAgent, OuNoise, ReplayBuffer, TrainConfig,
                              TrainLog, Transition, accel_to_action,
                              action_to_accel, actor_forward, normalize_state,
                              policy_controller, train)
from ecofollower.env import DEFAULT_ENV, EnvConfig, EnvState, rollout, simulate
from ecofollower.nets import Mlp
from ecofollower.objectives import RewardConfig
from ecofollower.vtmicro import reference_model

from synthetic import make_fleet

FUEL = reference_model()

SMALL = dict(episodes=5, warmup_steps=50, batch_size=16,
             hidden_sizes=(16, 16), seed=7)


def small_cfg(**over):
    return TrainConfig(**{**SMALL, **over})


class TestReplayBuffer:
    def _t(self, i):
        return Transition(np.array([i, 0.0, 0.0]), 0.1, float(i), np.zeros(3), False)

    def test_size_never_exceeds_capacity(self):
        buf = ReplayBuffer(capacity=10)
        for i in range(25):
            buf.push(self._t(i))
        assert len(buf) == 10

    def test_oldest_entries_evicted(self):
        buf = ReplayBuffer(capacity=10)
        for i in range(13):
            buf.push(self._t(i))
        kept = set(buf.states[:, 0].astype(int))
        assert kept == set(range(3, 13))

    def test_sample_without_replacement(self):
        buf = ReplayBuffer(capacity=8)
        for i in range(8):
            buf.push(self._t(i))
        s, a, r, s2, d = buf.sample(8, np.random.default_rng(0))
        assert sorted(s[:, 0].astype(int)) == list(range(8))

    def test_sample_larger_than_size_rejected(self):
        buf = ReplayBuffer(capacity=8)
        buf.push(self._t(0))
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
        agent = DdpgAgent.new(cfg, np.random.default_rng(1), np.random.default_rng(2))
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
        for tp, op in zip(agent.target_actor.params(), agent.actor.params()):
            np.testing.assert_array_equal(tp, op)
        for tp, op in zip(agent.target_critic.params(), agent.critic.params()):
            np.testing.assert_array_equal(tp, op)

    def test_tau_zero_targets_frozen(self):
        agent, batch = self._filled_agent_and_batch(tau=1e-300)
        before = [p.copy() for p in agent.target_actor.params()]
        agent.update(batch)
        for tp, prev in zip(agent.target_actor.params(), before):
            np.testing.assert_allclose(tp, prev, atol=1e-290)

    def test_critic_regresses_toward_targets(self):
        # repeated updates on a fixed batch shrink the TD loss
        agent, batch = self._filled_agent_and_batch(tau=1e-12)
        first, _ = agent.update(batch)
        for _ in range(200):
            last, _ = agent.update(batch)
        assert last < first


class TestForwardHelpers:
    def test_actor_forward_scalar(self):
        net = Mlp.init([3, 8, 1], np.random.default_rng(0), output_activation="tanh")
        y = actor_forward(net, np.array([0.1, 0.2, 0.3]))
        assert -1.0 <= y <= 1.0


class TestTrain:
    def test_bookkeeping_on_tiny_event(self):
        t = np.arange(2) * 0.1
        from ecofollower.events import CarFollowingEvent
        ev = CarFollowingEvent.from_arrays("tiny", t, [12.0, 12.8], [8.0, 8.0],
                                           [0.0, 0.8], [8.0, 8.0])
        cfg = small_cfg(episodes=1)
        policy, log = train([ev], DEFAULT_ENV, RewardConfig(), cfg, FUEL)
        assert len(log.rows) == 1
        assert log.rows[0].steps == 1

    def test_deterministic_under_seed(self):
        events = make_fleet(4, seed=13, duration_range=(16.0, 18.0))
        cfg = small_cfg(episodes=4, warmup_steps=30)
        p1, log1 = train(events, DEFAULT_ENV, RewardConfig(), cfg, FUEL)
        p2, log2 = train(events, DEFAULT_ENV, RewardConfig(), cfg, FUEL)
        assert log1.rows == log2.rows
        for w1, w2 in zip(p1.params(), p2.params()):
            np.testing.assert_array_equal(w1, w2)

    def test_different_seeds_differ(self):
        events = make_fleet(3, seed=13, duration_range=(16.0, 18.0))
        _, log1 = train(events, DEFAULT_ENV, RewardConfig(), small_cfg(episodes=3), FUEL)
        _, log2 = train(events, DEFAULT_ENV, RewardConfig(),
                        small_cfg(episodes=3, seed=8), FUEL)
        assert log1.rows != log2.rows

    def test_collision_count_nondecreasing(self):
        events = make_fleet(4, seed=19, duration_range=(16.0, 18.0))
        _, log = train(events, DEFAULT_ENV, RewardConfig(), small_cfg(episodes=6), FUEL)
        cums = [r.collisions_cum for r in log.rows]
        assert cums == sorted(cums)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            train([], DEFAULT_ENV, RewardConfig(), small_cfg(), FUEL)

    def test_trainlog_csv_roundtrip(self, tmp_path):
        events = make_fleet(2, seed=23, duration_range=(16.0, 17.0))
        _, log = train(events, DEFAULT_ENV, RewardConfig(), small_cfg(episodes=2), FUEL)
        path = tmp_path / "log.csv"
        log.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "episode,mean_reward,rolling_reward,collisions_cum,steps,fuel_ml"
        back = TrainLog.read_csv(path)
        assert back.rows == log.rows


class TestPolicyController:
    def test_matches_actor_forward(self):
        net = Mlp.init([3, 16, 16, 1], np.random.default_rng(3), output_activation="tanh")
        cfg = TrainConfig()
        ctrl = policy_controller(net, cfg, DEFAULT_ENV)
        state = EnvState(8.0, 12.0, -1.0)
        want = action_to_accel(actor_forward(net, normalize_state(state, cfg)), DEFAULT_ENV)
        assert ctrl(state, 0) == want


class TestTrainStepLoop:
    def test_kinematics_match_rollout_under_same_actions(self, monkeypatch):
        episodes = []

        def recording(event, controller, config):
            seen = []
            episodes.append((event, seen))
            for item in simulate(event, controller, config):
                seen.append(item)
                yield item

        monkeypatch.setattr(ddpg, "simulate", recording)
        events = make_fleet(3, seed=29, duration_range=(16.0, 17.0))
        _, log = train(events, DEFAULT_ENV, RewardConfig(), small_cfg(episodes=4), FUEL)
        assert [len(seen) for _, seen in episodes] == [r.steps for r in log.rows]
        for event, seen in episodes:
            _, states, positions, accels, outcomes = zip(*seen)
            trace = rollout(event, lambda state, k: accels[k], DEFAULT_ENV)
            assert len(trace) == len(seen)
            np.testing.assert_array_equal(trace.accel, accels)
            np.testing.assert_array_equal(trace.v_follow, [s.follow_speed for s in states])
            np.testing.assert_array_equal(trace.spacing, [s.spacing for s in states])
            np.testing.assert_array_equal(trace.rel_speed, [s.rel_speed for s in states])
            np.testing.assert_array_equal(trace.x_follow, positions)
            assert trace.collided == outcomes[-1].collided
