import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecofollower import cli, ddpg
from ecofollower.ddpg import (DdpgAgent, ReplayBuffer, TrainConfig, TrainingError,
                              TrainLogRow, action_to_accel,
                              normalize_state, policy_controller, train)
from ecofollower.env import DEFAULT_ENV, EnvConfig, EnvState
from ecofollower.events import CarFollowingEvent, write_events
from ecofollower.nets import Mlp
from ecofollower.objectives import RewardConfig
from ecofollower.vtmicro import reference_model

import reference_scalar
from reference_scalar import OuNoise, accel_to_action, clamp, reward, rollout
from synthetic import make_fleet

FUEL = reference_model()

SMALL = dict(episodes=5, warmup_steps=50, batch_size=16,
             hidden_sizes=(16, 16), seed=7)


def small_cfg(**over):
    return TrainConfig(**{**SMALL, **over})


class TestReplayBuffer:
    def _t(self, *ids):
        """One pushed row per id: the id as the state's first entry and as the reward."""
        ids = np.array(ids, dtype=float)
        states = np.zeros((len(ids), 3))
        states[:, 0] = ids
        return states, np.full(len(ids), 0.1), ids, np.zeros((len(ids), 3)), ids < 0

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

    def test_rows_wrap_around_the_ring_in_order(self):
        buf = ReplayBuffer(capacity=10)
        buf.push(*self._t(*range(7)))
        buf.push(*self._t(*range(7, 13)))   # 3 rows to the end, then 3 from the start
        assert buf.states[:, 0].tolist() == [10, 11, 12, 3, 4, 5, 6, 7, 8, 9]
        assert buf.rewards.tolist() == buf.states[:, 0].tolist()
        assert len(buf) == 10 and buf._cursor == 3

    def test_more_rows_than_capacity_keeps_the_last(self):
        buf = ReplayBuffer(capacity=4)
        buf.push(*self._t(0))
        buf.push(*self._t(*range(1, 11)))
        assert sorted(buf.states[:, 0].astype(int).tolist()) == [7, 8, 9, 10]
        assert len(buf) == 4

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

    def test_one_sample_event_rejected(self):
        # built around from_arrays, which refuses it: such an event has no step
        one = np.array([0.0])
        stub = CarFollowingEvent("stub", 0.1, one, one + 12.0, one + 8.0, one, one + 8.0)
        with pytest.raises(ValueError, match="at least 2 samples"):
            train([*make_fleet(1, seed=3), stub], DEFAULT_ENV, RewardConfig(), small_cfg(), FUEL)

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


class Recorder:
    """What ``train`` starts, steps and pushes.

    Wraps ``ddpg.reset``, which starts each episode (``events`` holds the
    started episodes' events in start order), ``ddpg.advance`` (``steps``:
    the state rows before and after each lockstep step, the clamped commands,
    the collisions and the intervals) and ``ReplayBuffer.push`` (``pushes``).
    """

    def __init__(self, monkeypatch):
        self.steps, self.pushes, self.events = [], [], []
        reset, advance, push = ddpg.reset, ddpg.advance, ReplayBuffer.push

        def recording_reset(event):
            self.events.append(event)
            return reset(event)

        def recording_advance(row, nxt, dt, lead, limits, collided):
            before = row.copy()
            advance(row, nxt, dt, lead, limits, collided)
            self.steps.append((before, row[0].copy(), nxt.copy(), collided.copy(),
                               dt[0].copy()))

        def recording_push(buffer, *rows):
            self.pushes.append(tuple(np.array(x, copy=True) for x in rows))
            push(buffer, *rows)

        monkeypatch.setattr(ddpg, "reset", recording_reset)
        monkeypatch.setattr(ddpg, "advance", recording_advance)
        monkeypatch.setattr(ReplayBuffer, "push", recording_push)

    def columns(self) -> list[list[int]]:
        """The start ordinal of each column of each lockstep step, by the slot rule:
        the first steps' columns hold episodes 0, 1, ...; a column whose episode
        ended takes the next episode while any is left to start, else it leaves
        and the columns after it move up."""
        running = list(range(len(self.steps[0][0][0])))
        following, taken, columns = len(running), {}, []
        for before, _, _, collided, _ in self.steps:
            assert len(running) == before.shape[1]
            columns.append(running)
            kept = []
            for j, ep in enumerate(running):
                taken[ep] = taken.get(ep, 0) + 1
                if not (collided[j] or taken[ep] == len(self.events[ep]) - 1):
                    kept.append(ep)
                elif following < len(self.events):
                    kept.append(following)
                    following += 1
            running = kept
        assert running == [] and following == len(self.events)
        return columns

    def episodes(self) -> dict[int, list]:
        """Each episode's steps in order, by start ordinal: (lockstep step, column,
        (v, spacing, rel_speed) before, clamped accel, the same after, collided)."""
        seen = {}
        for i, (episodes, (before, accel, after, collided, _)) in enumerate(
                zip(self.columns(), self.steps)):
            for j, ep in enumerate(episodes):
                seen.setdefault(ep, []).append((i, j, tuple(before[[1, 4, 2], j]), accel[j],
                                                tuple(after[[1, 4, 2], j]), bool(collided[j])))
        return seen

    def finish_order(self) -> list[int]:
        """Start ordinals in the order the episodes ended, slot order breaking ties."""
        seen = self.episodes()
        return sorted(seen, key=lambda ep: seen[ep][-1][:2])


class TestTrainStepLoop:
    def test_kinematics_match_rollout_under_same_actions(self, monkeypatch):
        rec = Recorder(monkeypatch)
        events = make_fleet(3, seed=29, duration_range=(16.0, 17.0))
        _, rows = train(events, DEFAULT_ENV, RewardConfig(),
                        small_cfg(episodes=6, parallel_events=4), FUEL)
        seen = rec.episodes()
        assert sorted(seen) == list(range(6))
        assert [len(seen[ep]) for ep in rec.finish_order()] == [r.steps for r in rows]
        for ep, steps in seen.items():
            accels = [a for _, _, _, a, _, _ in steps]
            trace = rollout(rec.events[ep], lambda state, k: accels[k], DEFAULT_ENV)
            assert len(trace) == len(steps)
            np.testing.assert_array_equal(trace.accel, accels)
            states = np.array([before for _, _, before, _, _, _ in steps])
            for name, col in (("v_follow", 0), ("spacing", 1), ("rel_speed", 2)):
                assert getattr(trace, name).tobytes() == states[:, col].tobytes(), name
            assert trace.collided == steps[-1][5]

    def test_episode_ends_at_the_colliding_step(self):
        """A follower that brakes at most -1 m/s^2 and may speed up at 6 collides;
        the colliding step is the episode's last and is pushed as terminal."""
        mp = pytest.MonkeyPatch()
        with mp.context() as monkeypatch:
            rec = Recorder(monkeypatch)
            env = EnvConfig(a_min=-1.0, a_max=6.0)
            events = make_fleet(3, seed=29, duration_range=(16.0, 17.0))
            _, rows = train(events, env, RewardConfig(), small_cfg(episodes=6, parallel_events=4),
                            FUEL)
        assert rows[-1].collisions_cum > 0
        for (_, _, _, collided, _), (_, _, _, _, dones) in zip(rec.steps, rec.pushes):
            assert dones.tolist() == collided.tolist()
        seen = rec.episodes()
        for ep, steps in seen.items():
            collided = [c for *_, c in steps]
            assert not any(collided[:-1])
            assert len(steps) == len(rec.events[ep]) - 1 or collided[-1]
        ended = [seen[ep][-1][5] for ep in rec.finish_order()]
        assert [r.collisions_cum for r in rows] == np.cumsum(ended).tolist()


class TestCollectionLoopBits:
    """Every transition that collection pushes, pinned against the states,
    commands and outcomes of the step loop: bit for bit, and the reward to
    1e-12 of the scalar oracle's."""

    def test_pushed_transitions(self, monkeypatch):
        rec = Recorder(monkeypatch)

        def no_update(agent, batch):
            raise AssertionError("collection must not update")

        monkeypatch.setattr(DdpgAgent, "update", no_update)
        events = make_fleet(3, seed=41, duration_range=(16.0, 20.0))
        cfg = small_cfg(episodes=7, warmup_steps=10**9, parallel_events=3)
        _, rows = train(events, DEFAULT_ENV, RewardConfig(), cfg, FUEL)

        assert sum(len(p[0]) for p in rec.pushes) == sum(r.steps for r in rows)
        previous = {}
        for episodes, (before, accel, after, collided, dt), (s, y, r, s2, done) in zip(
                rec.columns(), rec.steps, rec.pushes):
            for j, ep in enumerate(episodes):
                state = EnvState(before[1, j], before[4, j], before[2, j])
                nxt = EnvState(after[1, j], after[4, j], after[2, j])
                assert s[j].tobytes() == normalize_state(state, cfg).tobytes()
                assert s2[j].tobytes() == normalize_state(nxt, cfg).tobytes()
                if ep in previous:
                    assert previous[ep][0].tobytes() == s[j].tobytes()
                assert clamp(DEFAULT_ENV, action_to_accel(y[j], DEFAULT_ENV)) == accel[j]
                accel_prev = previous[ep][1] if ep in previous else 0.0
                want = reward(EnvState(*map(float, state)), float(accel[j]), accel_prev,
                              EnvState(*map(float, nxt)), float(dt[j]), bool(collided[j]),
                              RewardConfig(), FUEL)
                assert r[j] == pytest.approx(want.total, rel=1e-12, abs=1e-15)
                assert done[j] == collided[j]
                previous[ep] = (s2[j], float(accel[j]))


class TestLockstepCollection:
    def test_one_slot_pushes_the_scalar_loop_s_transitions(self, monkeypatch):
        """With updates off and one slot, the lockstep trainer pushes the scalar
        reference loop's states and actions bit for bit, its rewards to 1e-12,
        and logs its episodes."""
        rec = Recorder(monkeypatch)
        events = make_fleet(4, seed=43, duration_range=(16.0, 20.0))
        for env in (DEFAULT_ENV, EnvConfig(a_min=-1.0, a_max=6.0)):   # the second collides
            rec.pushes.clear()
            cfg = small_cfg(episodes=6, warmup_steps=10**9, parallel_events=1)
            _, rows = train(events, env, RewardConfig(), cfg, FUEL)
            want, want_rows = reference_scalar.collect(events, env, RewardConfig(), cfg, FUEL)
            s, y, r, s2, done = (np.concatenate(x) for x in zip(*rec.pushes))
            assert s.tobytes() == np.array([t.state for t in want]).tobytes()
            assert s2.tobytes() == np.array([t.next_state for t in want]).tobytes()
            assert y.tobytes() == np.array([t.action for t in want]).tobytes()
            assert done.tolist() == [t.done for t in want]
            np.testing.assert_allclose(r, [t.reward.total for t in want], rtol=1e-12, atol=1e-15)
            assert [(row.episode, row.steps, row.collisions_cum) for row in rows] == \
                [(row.episode, row.steps, row.collisions_cum) for row in want_rows]
            for got, ref in zip(rows, want_rows):
                assert got.mean_reward == pytest.approx(ref.mean_reward, rel=1e-12)
                assert got.fuel_ml == pytest.approx(ref.fuel_ml, rel=1e-12)
        assert want_rows[-1].collisions_cum > 0

    @pytest.mark.parametrize("parallel, episodes, env", [
        (8, 3, DEFAULT_ENV), (5, 9, EnvConfig(a_min=-1.0, a_max=6.0)), (16, 1, DEFAULT_ENV)],
        ids=["more-slots-than-episodes", "with-collisions", "one-episode"])
    def test_trainlog_rows_in_finish_order(self, monkeypatch, parallel, episodes, env):
        rec = Recorder(monkeypatch)
        events = make_fleet(5, seed=47, duration_range=(15.0, 25.0))
        cfg = small_cfg(episodes=episodes, warmup_steps=10**9, parallel_events=parallel)
        logged = []
        _, rows = train(events, env, RewardConfig(), cfg, FUEL, progress=logged.append)
        assert logged == rows
        assert [r.episode for r in rows] == list(range(episodes))
        seen = rec.episodes()
        assert sorted(seen) == list(range(episodes))
        assert rec.steps[0][0].shape[1] == min(parallel, episodes)
        order = rec.finish_order()
        assert [r.steps for r in rows] == [len(seen[ep]) for ep in order]
        assert [r.collisions_cum for r in rows] == np.cumsum(
            [seen[ep][-1][5] for ep in order]).tolist()
        assert sum(len(p[0]) for p in rec.pushes) == sum(r.steps for r in rows)
        if env is not DEFAULT_ENV:
            assert rows[-1].collisions_cum > 0

    def test_noise_sigma_decays_with_the_start_ordinal(self, monkeypatch):
        """Each slot runs its own OU process, and an episode's sigma is set by the
        ordinal it started with. With theta 0 and no clipping, the pushed action
        less the untrained actor's output is the process, whose increment at each
        step is sigma times the slot's draw of that step."""
        rec = Recorder(monkeypatch)
        cfg = small_cfg(episodes=5, warmup_steps=10**9, parallel_events=2, ou_theta=0.0,
                        ou_sigma=0.004, ou_sigma_final=0.0)
        train(make_fleet(3, seed=53, duration_range=(15.0, 22.0)), DEFAULT_ENV,
              RewardConfig(), cfg, FUEL)
        actor = DdpgAgent(cfg, np.random.default_rng(ddpg.derive_seed(cfg.seed, "ddpg.init.actor")),
                          np.random.default_rng(0)).actor
        draws = np.random.default_rng(ddpg.derive_seed(cfg.seed, "ddpg.noise"))
        process = {}
        for episodes, (s, y, *_) in zip(rec.columns(), rec.pushes):
            z = draws.standard_normal(len(episodes))
            ou = y - actor.forward(s)[:, 0]
            assert np.abs(y).max() < 1.0   # no clip
            for j, ep in enumerate(episodes):
                sigma = 0.004 + (0.0 - 0.004) * (ep / 4)
                assert ou[j] - process.get(ep, 0.0) == pytest.approx(sigma * z[j], abs=1e-12)
                process[ep] = ou[j]
        assert sorted(process) == list(range(5)) and process[4] == 0.0

    def test_one_update_per_transition_from_the_floor(self, monkeypatch):
        calls = []
        monkeypatch.setattr(DdpgAgent, "update", lambda agent, batch: calls.append(len(batch[0])))
        cfg = small_cfg(episodes=6, warmup_steps=37, batch_size=8, parallel_events=4)
        _, rows = train(make_fleet(3, seed=59, duration_range=(15.0, 18.0)), DEFAULT_ENV,
                        RewardConfig(), cfg, FUEL)
        assert len(calls) == sum(r.steps for r in rows) - 37 + 1
        assert set(calls) == {8}

    def test_training_error_names_the_episode_and_step(self, monkeypatch):
        def diverge(agent, batch):
            raise TrainingError("non-finite update: critic_loss=nan")

        monkeypatch.setattr(DdpgAgent, "update", diverge)
        # four slots push 4 transitions per step, so the 20th is slot 3's step 4
        cfg = small_cfg(episodes=6, warmup_steps=20, batch_size=8, parallel_events=4)
        with pytest.raises(TrainingError, match=r"^episode 3, step 4: non-finite update"):
            train(make_fleet(3, seed=61, duration_range=(15.0, 18.0)), DEFAULT_ENV,
                  RewardConfig(), cfg, FUEL)


class TestParallelEventsConfig:
    @pytest.mark.parametrize("value", [0, -3])
    def test_below_one_rejected(self, value):
        with pytest.raises(ValueError, match="parallel_events must be >= 1"):
            TrainConfig(parallel_events=value)

    @pytest.mark.parametrize("value", [0, -1])
    def test_below_one_exit_1(self, tmp_path, capsys, value):
        events_csv, cfg_path = tmp_path / "events.csv", tmp_path / "config.json"
        write_events(make_fleet(2, seed=23, duration_range=(16.0, 17.0)), events_csv)
        cfg_path.write_text(json.dumps({"train": {"parallel_events": value}}))
        assert cli.main(["train", "--events", str(events_csv), "--config", str(cfg_path),
                         "--out", str(tmp_path / "out")]) == 1
        assert "parallel_events must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_roundtrips_through_the_config_file(self, tmp_path):
        cfg = cli.read_config(TrainConfig, json.loads(json.dumps({"parallel_events": 3})),
                              "train")
        assert cfg == TrainConfig(parallel_events=3) and type(cfg.parallel_events) is int
