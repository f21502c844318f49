"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria 9-12 need real
reconstructed NGSIM I-80 data and run only when the corresponding environment
variables point at it (see README); they report rather than block CI. The
calls of criteria 9-11 also run on an NGSIM-shaped file from the benchmark's
generator, without the paper's thresholds, so their code runs in every suite.
"""

import json
import math
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from ecofollower.cli import main as cli_main
from ecofollower.ddpg import TrainConfig, train
from ecofollower.env import DEFAULT_ENV, EnvState, rollout_batch
from ecofollower.evaluate import compare, evaluate_controller, evaluate_ground_truth, render_text
from ecofollower.events import (CarFollowingEvent, ColumnMapping, extract_events,
                                descriptive_stats, fit_lognormal_headway,
                                load_events, split_dataset, write_events)
from ecofollower.idm import IdmParams, idm_accel
from ecofollower.nets import Mlp, load_policy
from ecofollower.objectives import HeadwayModel, RewardConfig, step_rewards
from ecofollower.vtmicro import (VtMicroCoefficients, VtMicroModel, moe_exponent,
                                 reference_model)

from synthetic import (UNBOUNDED_ENV, constant_controller, make_fleet,
                       recorded_accel_controller)
from test_env import linear_leader_event

# the benchmark's NGSIM-shaped generator and its numpy references, which share
# no code with ecofollower
sys.path.append(str(Path(__file__).resolve().parents[1] / "benchmarks"))
import bench_checks  # noqa: E402
import bench_inputs  # noqa: E402


@contextmanager
def criterion(num, label, budget_s):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num} FAIL: {label}")
        raise
    elapsed = time.time() - start
    print(f"\nACCEPTANCE {num} PASS: {label} ({elapsed:.1f}s, budget {budget_s}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded its runtime budget"


def assert_rel(got, want, tol, context=""):
    if want == 0.0:
        assert abs(got) <= tol, f"{context}: got {got}, want 0"
    else:
        assert abs(got - want) / abs(want) <= tol, f"{context}: got {got}, want {want}"


# --- independent scalar oracles (deliberately separate code paths) ----------

TTC_FLOOR = 0.1


def oracle_f_ttc(t):
    # log1p of the exact t - 4 (Sterbenz): log(t) - log(4) cancels near the
    # 4 s bound and loses up to 1e-12 of the value there
    if t is None or not 0.0 < t <= 4.0:
        return 0.0
    return math.log1p((max(t, TTC_FLOOR) - 4.0) / 4.0)


def oracle_lognorm_pdf(x, mu, sigma):
    if x is None or x <= 0.0:
        return 0.0
    return (1.0 / (x * sigma * math.sqrt(2.0 * math.pi))
            * math.exp(-((math.log(x) - mu) ** 2) / (2.0 * sigma ** 2)))


def oracle_f_jerk(j, scale):
    return -(j * j) / (scale * scale)


def oracle_f_fuel(rate, scale):
    v = -rate / scale
    return max(-5.0, min(0.0, v))


def oracle_poly(k, v, a):
    total = 0.0
    for i in range(4):
        for j in range(4):
            total += k[i][j] * (v ** i) * (a ** j)
    return total


def _criterion_1_transitions(rng, n):
    """n transitions whose indicators are drawn: TTC None ~10% (an opening gap) or in
    (0.0005, 9) s, headway None ~10% (below the speed floor) or in (0.01, 20) s, jerk in
    (-120, 120) m/s^3 from a zero start; speed and command for the fuel rate."""
    v, a, v2, s2, dv2 = (np.empty(n) for _ in range(5))
    for i in range(n):
        t = None if rng.uniform() < 0.1 else float(rng.uniform(0.0005, 9.0))
        h = None if rng.uniform() < 0.1 else float(rng.uniform(0.01, 20.0))
        v2[i] = float(rng.uniform(0.5, 30.0)) if h is not None else float(rng.uniform(0.0, 0.09))
        s2[i] = h * v2[i] if h is not None else float(rng.uniform(0.5, 50.0))
        dv2[i] = -s2[i] / t if t is not None else float(rng.uniform(0.0, 5.0))
        a[i] = float(rng.uniform(-120.0, 120.0)) * 0.1
        v[i] = float(rng.uniform(0.0, 35.0))
    return v, a, EnvState(v2, s2, dv2)


def test_criterion_1_reward_term_oracles():
    with criterion(1, "reward terms match independent scalar oracles", 5.0):
        rng = np.random.default_rng(101)
        fuel = reference_model()
        headway = HeadwayModel(mu=0.4226, sigma=0.5436)
        for _ in range(100):   # 100 configs of 100 transitions: 10,000 of each term
            cfg = RewardConfig(headway=headway, jerk_scale=float(rng.uniform(10.0, 100.0)),
                               fuel_scale=float(rng.uniform(0.5, 2.0)))
            v, a, nxt = _criterion_1_transitions(rng, 100)
            got = step_rewards(v, a, np.zeros(100), nxt, np.full(100, 0.1),
                               np.zeros(100, dtype=bool), cfg, fuel)
            for i in range(100):
                s2, dv2, v2 = float(nxt.spacing[i]), float(nxt.rel_speed[i]), float(nxt.follow_speed[i])
                t = -s2 / dv2 if dv2 < 0 else None
                h = s2 / v2 if v2 >= 0.1 else None
                assert_rel(float(got.f_ttc[i]), oracle_f_ttc(t), 1e-12, "f_ttc")
                assert_rel(float(got.f_headway[i]),
                           oracle_lognorm_pdf(h, headway.mu, headway.sigma), 1e-12, "f_headway")
                assert_rel(float(got.f_jerk[i]), oracle_f_jerk(float(a[i]) / 0.1, cfg.jerk_scale),
                           1e-12, "f_jerk")
                assert_rel(float(got.f_fuel[i]), oracle_f_fuel(float(got.fuel_rate[i]),
                                                               cfg.fuel_scale), 1e-12, "f_fuel")
        # TTC at and past the 4 s bound scores 0, as an opening gap does
        t = np.array([4.0, *np.linspace(4.0000001, 1e6, 100)])
        got = step_rewards(np.zeros(101), np.zeros(101), np.zeros(101),
                           EnvState(np.full(101, 10.0), t, np.full(101, -1.0)),
                           np.full(101, 0.1), np.zeros(101, dtype=bool), RewardConfig(), fuel)
        assert got.f_ttc.tolist() == [0.0] * 101


def test_criterion_2_vtmicro_polynomial_oracle():
    with criterion(2, "VT-Micro exponent matches double-loop oracle; log round-trips", 5.0):
        rng = np.random.default_rng(202)
        # physically shaped magnitudes: term contribution bounded per power
        v_max, a_max = 35.0, 4.0
        for _ in range(10_000):
            k = rng.uniform(-10.0, 10.0, size=(4, 4))
            k /= np.outer(v_max ** np.arange(4), a_max ** np.arange(4))
            coeffs = VtMicroCoefficients(k=k, regime="acceleration")
            v = float(rng.uniform(0.0, v_max))
            a = float(rng.uniform(-a_max, a_max))
            got = moe_exponent(coeffs, v, a)
            assert_rel(got, oracle_poly(k, v, a), 1e-12, "moe_exponent")
            model = VtMicroModel(coeffs, VtMicroCoefficients(k=k, regime="deceleration"))
            rate = float(model.rates(np.array([v]), np.array([a]))[0])
            assert rate > 0
            assert_rel(math.log(rate), got, 1e-12, "log(rates)")


def test_criterion_3_kinematics():
    with criterion(3, "trapezoidal kinematics exact; replay reproduces recordings", 5.0):
        # constant accelerations: closed-form quadratic spacing over 1000 steps
        a_lead, a_follow = 0.5, 0.2
        ev = linear_leader_event(accel=a_lead, gap=30.0, n=1001)
        [trace] = rollout_batch([ev], constant_controller(a_follow))
        expected = 30.0 + 0.5 * (a_lead - a_follow) * trace.t ** 2
        assert np.max(np.abs(trace.spacing - expected)) < 1e-9
        # recorded-acceleration replay on fixture events
        for fixture in make_fleet(6, seed=303):
            [replay] = rollout_batch([fixture], recorded_accel_controller(fixture),
                                     UNBOUNDED_ENV)
            n = len(replay)
            assert n == len(fixture) - 1
            assert np.max(np.abs(replay.x_follow - fixture.x_follow[:n])) < 1e-4
            assert np.max(np.abs(replay.v_follow - fixture.v_follow[:n])) < 1e-6


def test_criterion_4_idm():
    with criterion(4, "IDM equilibrium, hand value, monotonicity", 5.0):
        p = IdmParams(a_max=1.0, v_desired=15.0, beta=4.0, s_jam=2.0,
                      T_headway=1.2, a_comf=2.0)
        assert abs(idm_accel(p, 0.0, p.s_jam, 0.0)) < 1e-12
        assert abs(idm_accel(p, 5.0, 8.0, 0.0) - (-1.0 / 81.0)) < 1e-12
        for dv in (0.0, 1.0, -1.0):
            accels = [idm_accel(p, v, 25.0, dv) for v in np.linspace(0.0, 15.0, 300)]
            assert all(x1 >= x2 - 1e-12 for x1, x2 in zip(accels, accels[1:])), "v-monotonicity"
        for v in (0.0, 5.0, 12.0):
            accels = [idm_accel(p, v, s, 0.0) for s in np.linspace(0.5, 300.0, 500)]
            assert all(x2 >= x1 - 1e-12 for x1, x2 in zip(accels, accels[1:])), "s-monotonicity"


def test_criterion_5_gradient_check():
    with criterion(5, "analytic gradients match central finite differences", 30.0):
        rng = np.random.default_rng(505)
        h = 1e-5
        shapes = ([3, 8, 1], [4, 8, 1], [3, 6, 6, 1], [4, 5, 5, 1])
        for probe in range(100):
            sizes = shapes[probe % len(shapes)]
            out_act = "tanh" if probe % 2 == 0 else "linear"
            net = Mlp.init(sizes, rng, output_activation=out_act)
            x = rng.normal(size=(8, sizes[0]))
            y = rng.uniform(-0.5, 0.5, size=(8, 1))

            def loss():
                d = net.forward(x) - y
                return float(np.mean(d * d))

            out, cache = net.forward_cache(x)
            dtheta = net.backward(cache, 2.0 * (out - y) / len(x))
            theta = net.theta
            for i in range(theta.size):
                orig = theta[i]
                theta[i] = orig + h
                fp = loss()
                theta[i] = orig - h
                fm = loss()
                theta[i] = orig
                num = (fp - fm) / (2.0 * h)
                denom = max(abs(dtheta[i]), abs(num), 1e-8)
                assert abs(dtheta[i] - num) / denom < 1e-4, f"probe {probe}"


def test_criterion_6_training_determinism(tmp_path):
    with criterion(6, "same-seed train runs are bit-identical", 120.0):
        events_csv = tmp_path / "events.csv"
        write_events(make_fleet(20, seed=606, duration_range=(16.0, 22.0)), events_csv)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"train": {
            "episodes": 50, "warmup_steps": 200, "batch_size": 32,
            "hidden_sizes": [16, 16]}}))
        outs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            code = cli_main(["train", "--events", str(events_csv), "--out", str(out),
                             "--seed", "606", "--config", str(cfg_path)])
            assert code == 0
            outs.append(out)
        log1 = (outs[0] / "trainlog.csv").read_bytes()
        log2 = (outs[1] / "trainlog.csv").read_bytes()
        assert log1 == log2, "TrainLog files differ"
        pol1 = (outs[0] / "policy.json").read_bytes()
        pol2 = (outs[1] / "policy.json").read_bytes()
        assert pol1 == pol2, "policy files differ"


def test_criterion_7_convergence_smoke():
    with criterion(7, "reward improves and late collisions vanish on synthetic fleet", 600.0):
        events = make_fleet(50, seed=20260810)
        cfg = TrainConfig(episodes=300, seed=20260810)
        _, rows = train(events, DEFAULT_ENV, RewardConfig(), cfg, reference_model())
        first50 = float(np.mean([r.mean_reward for r in rows[:50]]))
        last50 = float(np.mean([r.mean_reward for r in rows[-50:]]))
        assert last50 > first50, f"no improvement: first50={first50:.4f}, last50={last50:.4f}"
        late_collisions = rows[-1].collisions_cum - rows[-101].collisions_cum
        assert late_collisions == 0, f"{late_collisions} collisions in final 100 episodes"
        print(f"  first-50 mean {first50:.4f}, last-50 mean {last50:.4f}, "
              f"collisions total {rows[-1].collisions_cum}, last-100 {late_collisions}")


def test_criterion_8_lognormal_fit_recovery():
    with criterion(8, "lognormal headway fit recovers (mu, sigma) within 0.02", 5.0):
        mu, sigma, n = 0.4226, 0.5436, 100_000
        rng = np.random.default_rng(808)
        headways = rng.lognormal(mean=mu, sigma=sigma, size=n)
        t = np.arange(n) * 0.1
        v = np.ones(n)
        x_follow = t * 1.0
        ev = CarFollowingEvent.from_arrays("fit", t, x_follow + headways, v, x_follow, v)
        mu_hat, sigma_hat = fit_lognormal_headway([ev])
        assert abs(mu_hat - mu) <= 0.02, f"mu {mu_hat} vs {mu}"
        assert abs(sigma_hat - sigma) <= 0.02, f"sigma {sigma_hat} vs {sigma}"


# --- data-conditional criteria (real NGSIM I-80 events required) ------------

NGSIM_RAW = os.environ.get("ECOFOLLOW_NGSIM_RAW")
NGSIM_MAPPING = os.environ.get("ECOFOLLOW_NGSIM_MAPPING")
NGSIM_EVENTS = os.environ.get("ECOFOLLOW_NGSIM_EVENTS")
POLICY = os.environ.get("ECOFOLLOW_POLICY")
SPLIT_SEED = int(os.environ.get("ECOFOLLOW_SPLIT_SEED", "0"))

needs_raw = pytest.mark.skipif(NGSIM_RAW is None,
                               reason="set ECOFOLLOW_NGSIM_RAW to the cleaned trajectory CSV")
needs_events = pytest.mark.skipif(NGSIM_EVENTS is None,
                                  reason="set ECOFOLLOW_NGSIM_EVENTS to the normalized events CSV")


@needs_raw
def test_criterion_9_event_extraction_count():
    with criterion(9, "extraction finds ~1,341 events of >= 15 s", 1e9):
        mapping = ColumnMapping.from_json(NGSIM_MAPPING) if NGSIM_MAPPING else None
        result = extract_events(NGSIM_RAW, mapping, min_duration=15.0)
        count = len(result.events)
        print(f"  extracted {count} events (target 1341 +/- 2%)")
        assert 1341 * 0.98 <= count <= 1341 * 1.02


@needs_events
def test_criterion_10_headway_fit_values():
    with criterion(10, "headway fit reproduces mu 0.4226, sigma 0.5436 within 0.05", 1e9):
        events = load_events(NGSIM_EVENTS, min_duration=0.0)
        mu, sigma = fit_lognormal_headway(events)
        print(f"  fitted mu={mu:.4f} (target 0.4226), sigma={sigma:.4f} (target 0.5436)")
        assert abs(mu - 0.4226) <= 0.05
        assert abs(sigma - 0.5436) <= 0.05


@needs_events
def test_criterion_11_descriptive_means():
    with criterion(11, "mean speeds 8.14/8.07 m/s and gap 12.12 m reproduced", 1e9):
        events = load_events(NGSIM_EVENTS, min_duration=0.0)
        report = descriptive_stats(events)
        lead, follow = report["lead_speed"]["mean"], report["follow_speed"]["mean"]
        gap = report["gap"]["mean"]
        print(f"  lead {lead:.3f} (8.14 +/- 0.2), follow {follow:.3f} (8.07 +/- 0.2), "
              f"gap {gap:.3f} (12.12 +/- 0.5)")
        assert abs(lead - 8.14) <= 0.2
        assert abs(follow - 8.07) <= 0.2
        assert abs(gap - 12.12) <= 0.5


# criteria 9-11's calls on an NGSIM-shaped file (feet, ft/s and ms; about a
# tenth of the events too short), so their code runs without the real data


@pytest.fixture(scope="module")
def ngsim_shaped(tmp_path_factory):
    base = tmp_path_factory.mktemp("ngsim_shaped")
    source = bench_inputs.write_raw_ngsim(11, 20, base / "raw.csv", min_duration=15.0)
    bench_inputs.write_mapping(base / "mapping.json")
    result = extract_events(base / "raw.csv", ColumnMapping.from_json(base / "mapping.json"),
                            min_duration=15.0)
    return base, source, result


def test_criterion_9_calls_keep_the_long_events(ngsim_shaped):
    _, source, result = ngsim_shaped
    assert sorted(ev.event_id for ev in result.events) == sorted(ev.event_id for ev in source.kept)
    assert sorted(eid for eid, _ in result.rejected) == sorted(source.rejected)
    assert {reason for _, reason in result.rejected} == {"too_short"}
    by_id = {ev.event_id: ev for ev in source.kept}
    for ev in result.events:  # feet, ft/s and ms scaled back to m, m/s and s
        want = by_id[ev.event_id]
        np.testing.assert_allclose(ev.t, want.t, rtol=0, atol=1e-9)
        for name in ("x_lead", "v_lead", "x_follow", "v_follow"):
            np.testing.assert_allclose(getattr(ev, name), getattr(want, name), rtol=1e-12)


def test_criteria_10_11_calls_match_the_numpy_reference(ngsim_shaped):
    base, _, result = ngsim_shaped
    write_events(result.events, base / "events.csv")
    events = load_events(base / "events.csv", min_duration=0.0)
    got = descriptive_stats(events)
    mu, sigma = fit_lognormal_headway(events)
    got["headway_lognormal"] = {"mu": mu, "sigma": sigma}
    want = bench_checks.stats_reference(bench_inputs.read_events_csv(base / "events.csv"))
    assert bench_checks.stats_mismatches(got, want) == []


@pytest.mark.skipif(NGSIM_EVENTS is None or POLICY is None,
                    reason="set ECOFOLLOW_NGSIM_EVENTS and ECOFOLLOW_POLICY")
def test_criterion_12_fuel_saving_direction():
    with criterion(12, "trained policy burns less fuel than ground truth on the test split", 1e9):
        from ecofollower.ddpg import policy_controller
        events = load_events(NGSIM_EVENTS, min_duration=0.0)
        split = split_dataset(events, 0.7, SPLIT_SEED)
        net = load_policy(POLICY)
        train_cfg = TrainConfig(hidden_sizes=tuple(net.sizes[1:-1]))
        fuel = reference_model()
        gt = evaluate_ground_truth(list(split.test), fuel)
        pol = evaluate_controller(lambda ev: policy_controller(net, train_cfg, DEFAULT_ENV),
                                  "policy", list(split.test), fuel)
        report = compare([pol.summary, gt.summary])
        saving = report["fuel_saving_pct"]["policy"]
        print(render_text(report))
        in_band = abs(saving - 10.42) <= 5.0
        print(f"  fuel saving {saving:.2f}% vs paper 10.42% "
              f"({'inside' if in_band else 'outside'} the +/-5pp report band; "
              f"band is seed/hyperparameter-sensitive, not pass/fail)")
        assert pol.summary.mean_fuel_rate < gt.summary.mean_fuel_rate, (
            f"policy fuel {pol.summary.mean_fuel_rate:.4f} not below "
            f"ground truth {gt.summary.mean_fuel_rate:.4f}")


def test_reward_landscape_pins_standing_still_above_recorded_driving():
    """Today's reward, scored step by step on the benchmark's eval fleet, prefers a
    follower that stands still to the recorded driving: -0.437 against -0.765 per
    step. The stopped follower pays only the idle fuel rate; its headway and TTC
    terms are 0 (undefined below the speed floor and for an opening gap). A
    reward that makes the headline mean what the paper claims (ROADMAP item
    1(d)) must flip this ordering, and this pin with it."""
    fleet = bench_inputs.make_fleet(1, "eval", 30, (15.0, 90.0))
    cfg, fuel, dt = RewardConfig(), reference_model(), bench_inputs.DT
    recorded, still = [], []
    for ev in fleet:
        n = len(ev.t) - 1
        accel = np.diff(ev.v_follow) / dt
        gap, lead_rel = ev.x_lead - ev.x_follow, ev.v_lead - ev.v_follow
        no_crash, dts = np.zeros(n, dtype=bool), np.full(n, dt)
        recorded.append(step_rewards(
            ev.v_follow[:-1], accel, np.concatenate([[0.0], accel[:-1]]),
            EnvState(ev.v_follow[1:], gap[1:], lead_rel[1:]), dts, no_crash, cfg, fuel).total)
        stopped_gap = ev.x_lead - ev.x_follow[0]
        still.append(step_rewards(
            np.zeros(n), np.zeros(n), np.zeros(n),
            EnvState(np.zeros(n), stopped_gap[1:], ev.v_lead[1:]), dts, no_crash, cfg,
            fuel).total)
    recorded, still = np.concatenate(recorded), np.concatenate(still)
    assert len(recorded) == 15_639
    assert round(float(np.mean(recorded)), 3) == -0.765
    assert round(float(np.mean(still)), 3) == -0.437
