import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from scipy import stats as scipy_stats

from ecofollower.cli import read_config
from ecofollower.env import EnvState
from hypothesis import example, given, settings, strategies as st

from ecofollower.indicators import SPEED_FLOOR
from ecofollower.objectives import (TTC_BOUND, HeadwayModel, RewardConfig, RewardWeights,
                                    StepRewards, step_rewards)
from ecofollower.vtmicro import VtMicroModel, reference_model

from reference_reward import filtered_step_rewards
from reference_scalar import (f_fuel, f_headway, f_jerk, f_ttc, jerk, reward, time_headway,
                              ttc, ttc_signed)

ZERO_FUEL = VtMicroModel(accel=np.zeros((4, 4)), decel=np.zeros((4, 4)))  # rate exp(0) = 1 mL/s


class TestTtc:
    def test_closing_gap(self):
        assert ttc(10.0, -2.0) == pytest.approx(5.0, abs=1e-15)

    def test_opening_gap_undefined_but_signed_raw_exposed(self):
        assert ttc(10.0, 2.0) is None
        assert ttc_signed(10.0, 2.0) == pytest.approx(-5.0)

    def test_parallel_speeds_undefined(self):
        assert ttc(10.0, 0.0) is None
        assert ttc_signed(10.0, 0.0) is None

    def test_non_positive_spacing_rejected(self):
        with pytest.raises(ValueError):
            ttc(0.0, -1.0)


class TestFTtc:
    def test_boundary_is_exact_zero(self):
        assert f_ttc(4.0) == 0.0

    def test_closed_form(self):
        assert f_ttc(2.0) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_otherwise_branch(self):
        assert f_ttc(6.0) == 0.0
        assert f_ttc(None) == 0.0
        assert f_ttc(-1.0) == 0.0

    def test_floor_keeps_value_finite(self):
        assert f_ttc(1e-9) == pytest.approx(math.log(0.1 / 4.0))

    def test_never_positive(self):
        rng = np.random.default_rng(1)
        for t in rng.uniform(0.001, 20.0, size=2000):
            assert f_ttc(float(t)) <= 0.0


class TestTimeHeadway:
    def test_direct_evaluation(self):
        assert time_headway(12.0, 8.0) == pytest.approx(1.5, abs=1e-15)

    def test_floor_rule(self):
        assert time_headway(12.0, 0.05) is None

    def test_coincident_positions(self):
        assert time_headway(0.0, 8.0) == 0.0

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            time_headway(-1.0, 8.0)


class TestFHeadway:
    def test_unit_lognormal_at_one(self):
        model = HeadwayModel(mu=0.0, sigma=1.0)
        assert f_headway(1.0, model) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-14)

    def test_undefined_gives_zero(self):
        assert f_headway(None, HeadwayModel()) == 0.0

    def test_against_scipy_oracle(self):
        model = HeadwayModel(mu=0.4226, sigma=0.5436)
        for h in (0.2, 0.8, 1.1355, 1.5, 3.0, 10.0):
            want = scipy_stats.lognorm.pdf(h, s=model.sigma, scale=math.exp(model.mu))
            assert f_headway(h, model) == pytest.approx(want, rel=1e-12)

    def test_maximized_at_pdf_mode(self):
        model = HeadwayModel(mu=0.4226, sigma=0.5436)
        mode = math.exp(model.mu - model.sigma ** 2)
        grid = np.linspace(0.01, 10.0, 5000)
        best = max(f_headway(float(h), model) for h in grid)
        assert f_headway(mode, model) >= best - 1e-9

    def test_nonnegative(self):
        model = HeadwayModel()
        rng = np.random.default_rng(2)
        for h in rng.uniform(0.0, 50.0, size=1000):
            assert f_headway(float(h), model) >= 0.0


class TestJerk:
    def test_constant_acceleration(self):
        assert jerk(0.5, 0.5, 0.1) == 0.0
        assert jerk(-0.1, -0.1, 0.1) == 0.0

    def test_finite_difference(self):
        assert jerk(0.3, 0.2, 0.1) == pytest.approx(1.0, rel=1e-12)

    def test_f_jerk_anchors(self):
        assert f_jerk(0.0) == 0.0
        assert f_jerk(60.0, 60.0) == -1.0
        assert f_jerk(-60.0, 60.0) == -1.0
        assert f_jerk(30.0, 60.0) == pytest.approx(-0.25, abs=1e-15)

    def test_f_jerk_symmetric_and_nonpositive(self):
        rng = np.random.default_rng(3)
        for j in rng.uniform(-100, 100, size=1000):
            assert f_jerk(float(j)) == f_jerk(float(-j))
            assert f_jerk(float(j)) <= 0.0
        assert f_jerk(0.0) == 0.0


class TestFFuel:
    def test_no_fuel_no_penalty(self):
        assert f_fuel(0.0) == 0.0

    def test_linear_scaling(self):
        assert f_fuel(0.86, 1.0) == pytest.approx(-0.86, abs=1e-15)

    def test_clip_boundary(self):
        assert f_fuel(10.0, 1.0) == -5.0
        assert f_fuel(math.inf, 1.0) == -5.0


class TestReward:
    CFG = RewardConfig()

    def test_additive_identity(self):
        # equilibrium far state: opening gap (no ttc term), headway far in the
        # tail is tiny but nonzero, so use explicit weights to isolate terms
        cfg = RewardConfig(weights=RewardWeights(0.0, 0.0, 0.0, 0.0))
        state = EnvState(8.0, 12.0, 0.0)
        br = reward(state, 0.0, 0.0, state, 0.1, False, cfg, ZERO_FUEL)
        assert br.total == 0.0
        assert not br.collision_penalty_applied

    def test_weighted_sum_matches_components(self):
        state = EnvState(8.0, 10.0, -2.0)
        nxt = EnvState(8.0, 9.8, -2.0)
        w = RewardWeights(1.3, 0.7, 2.0, 0.5)
        cfg = RewardConfig(weights=w)
        br = reward(state, 0.5, 0.1, nxt, 0.1, False, cfg, ZERO_FUEL)
        want = (w.w_ttc * br.f_ttc + w.w_headway * br.f_headway
                + w.w_fuel * br.f_fuel + w.w_jerk * br.f_jerk)
        assert br.total == pytest.approx(want, abs=1e-12)

    def test_weight_scaling_linearity(self):
        state = EnvState(8.0, 10.0, -2.0)
        nxt = EnvState(8.0, 9.8, -2.0)
        base = reward(state, 0.5, 0.0, nxt,
                      0.1, False, RewardConfig(weights=RewardWeights(1, 0, 0, 0)), ZERO_FUEL)
        double = reward(state, 0.5, 0.0, nxt,
                        0.1, False, RewardConfig(weights=RewardWeights(2, 0, 0, 0)), ZERO_FUEL)
        assert double.total == pytest.approx(2.0 * base.total, abs=1e-12)

    def test_collision_penalty_applied_and_flagged(self):
        state = EnvState(8.0, 1.0, -5.0)
        crashed = EnvState(7.5, -0.1, -4.5)
        cfg = RewardConfig(weights=RewardWeights(0, 0, 0, 0))
        br = reward(state, -1.0, 0.0, crashed, 0.1, True, cfg, ZERO_FUEL)
        assert br.collision_penalty_applied
        assert br.total == pytest.approx(cfg.collision_penalty)

    def test_components_finite_on_fuzz(self):
        rng = np.random.default_rng(4)
        cfg = RewardConfig()
        for _ in range(1000):
            s = EnvState(rng.uniform(0, 35), rng.uniform(0.01, 120), rng.uniform(-15, 15))
            s2 = EnvState(rng.uniform(0, 35), rng.uniform(-1, 120), rng.uniform(-15, 15))
            a, ap = rng.uniform(-3, 3), rng.uniform(-3, 3)
            br = reward(s, a, ap, s2, 0.1, s2.spacing <= 0, cfg, ZERO_FUEL)
            for v in (br.f_ttc, br.f_headway, br.f_fuel, br.f_jerk, br.total):
                assert math.isfinite(v)


_TRANSITION = st.tuples(
    st.floats(0.0, 35.0) | st.sampled_from([0.0, 0.05, SPEED_FLOOR]),   # pre-step speed
    st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0, 3.0, -3.0]),      # accel
    st.floats(-3.0, 3.0),                                                # previous accel
    st.floats(0.0, 35.0) | st.sampled_from([0.0, 0.09, SPEED_FLOOR]),   # next speed
    st.floats(-2.0, 120.0) | st.sampled_from([0.0, 0.01, 0.3, 1e-3]),    # next spacing
    st.floats(-15.0, 15.0) | st.sampled_from([0.0, -0.0, -1e-9, -40.0]),  # next rel_speed
    st.sampled_from([0.1, 0.04]))                                        # dt


def array_rewards(transitions, cfg, gap=0.0, fuel=None):
    v, a, ap, v2, s2, dv2, dt = map(np.array, zip(*transitions))
    collided = s2 <= gap
    return step_rewards(v, a, ap, EnvState(v2, s2, dv2), dt, collided, cfg,
                        fuel or reference_model()), collided


def assert_matches_oracle(transitions, cfg, gap=0.0, fuel=None):
    fuel = fuel or reference_model()
    got, collided = array_rewards(transitions, cfg, gap, fuel)
    for j, (v, a, ap, v2, s2, dv2, dt) in enumerate(transitions):
        want = reward(EnvState(v, 0.0, 0.0), a, ap, EnvState(v2, s2, dv2), dt,
                      bool(collided[j]), cfg, fuel)
        terms = (want.f_ttc, want.f_headway, want.f_fuel, want.f_jerk)
        for name, w in zip(("f_ttc", "f_headway", "f_fuel", "f_jerk", "fuel_rate"),
                           (*terms, want.fuel_rate)):
            assert getattr(got, name)[j] == pytest.approx(w, rel=1e-12, abs=0), (name, j)
        # the total to 1e-12 of its terms' magnitudes: they may cancel
        scale = sum(abs(t) for t in terms) + abs(cfg.collision_penalty) * collided[j]
        assert abs(got.total[j] - want.total) <= 1e-12 * scale, ("total", j)


class TestStepRewards:
    """The array reward against the scalar oracle ``reward``, per element."""

    @given(transitions=st.lists(_TRANSITION, min_size=1, max_size=16),
           weights=st.tuples(*[st.sampled_from([1.0, 0.0, 2.5, -0.5])] * 4),
           ttc_floor=st.sampled_from([0.1, 0.5]), gap=st.sampled_from([0.0, -1.0, 1.0]))
    # a subnormal gap: its headway and its TTC underflow to 0
    @example(transitions=[(0.0, 0.0, 0.0, 2.0, 5e-324, 0.0, 0.1),
                          (0.0, 0.0, 0.0, 2.0, 5e-324, -40.0, 0.1)],
             weights=(1.0, 1.0, 1.0, 1.0), ttc_floor=0.1, gap=0.0)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_scalar_reward(self, transitions, weights, ttc_floor, gap):
        cfg = RewardConfig(weights=RewardWeights(*weights), ttc_floor=ttc_floor)
        assert_matches_oracle(transitions, cfg, gap)

    def test_each_case_of_the_terms(self):
        cases = {
            "collided": (8.0, -1.0, 0.0, 7.5, -0.1, -4.5, 0.1),
            "opening gap": (8.0, 0.5, 0.0, 8.0, 12.0, 2.0, 0.1),
            "below the speed floor": (0.05, 0.0, 0.0, 0.05, 12.0, -1.0, 0.1),
            "ttc floor": (8.0, -3.0, 3.0, 8.0, 0.05, -1.0, 0.1),
            "ttc past the bound": (8.0, 0.0, 0.0, 8.0, 50.0, -2.0, 0.1),
            "ttc at the bound": (8.0, 0.0, 0.0, 8.0, 8.0, -2.0, 0.1),
            "accel regime": (12.0, 1.5, 0.0, 12.15, 20.0, -0.15, 0.1),
            "decel regime": (12.0, -1.5, 0.0, 11.85, 20.0, 0.15, 0.1),
        }
        transitions = list(cases.values())
        cfg = RewardConfig()
        assert_matches_oracle(transitions, cfg)
        got, collided = array_rewards(transitions, cfg)
        by_case = {name: j for j, name in enumerate(cases)}
        assert collided.tolist() == [name == "collided" for name in cases]
        for name in ("collided", "opening gap", "ttc past the bound", "ttc at the bound"):
            assert got.f_ttc[by_case[name]] == 0.0, name
        assert got.f_ttc[by_case["ttc floor"]] == pytest.approx(math.log(0.1 / TTC_BOUND),
                                                                rel=1e-12)
        for name in ("collided", "below the speed floor"):
            assert got.f_headway[by_case[name]] == 0.0, name
        model = reference_model()
        rates = got.fuel_rate[[by_case["accel regime"], by_case["decel regime"]]]
        assert rates.tolist() == model.rates(np.array([12.0, 12.0]),
                                             np.array([1.5, -1.5])).tolist()

    def test_overflowing_rate_clips_the_fuel_term(self):
        k = np.zeros((4, 4))
        k[1, 0] = 100.0   # exponent 100 v: inf at 10 m/s
        fuel = VtMicroModel(k, k)
        transitions = [(10.0, 0.5, 0.0, 10.05, 20.0, 0.0, 0.1)]
        got, _ = array_rewards(transitions, RewardConfig(), fuel=fuel)
        assert got.fuel_rate[0] == math.inf and got.f_fuel[0] == -5.0
        assert_matches_oracle(transitions, RewardConfig(), fuel=fuel)


# no gap, a negative one, subnormal ones and subnormal relative speeds: the
# divisions of the reward's TTC and headway give 0, inf or NaN on such steps
_EDGE = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1.0])
_EDGE_TRANSITION = st.tuples(
    st.floats(0.0, 35.0) | st.sampled_from([0.0, 0.05]),                 # pre-step speed
    st.floats(-3.0, 3.0) | st.sampled_from([0.0, -0.0]),                 # accel
    st.floats(-3.0, 3.0),                                                # previous accel
    st.sampled_from([0.0, -0.0, 0.05, 0.09, SPEED_FLOOR]) | st.floats(0.0, 35.0),  # next speed
    _EDGE | st.floats(-2.0, 120.0),                                      # next spacing
    _EDGE | st.floats(-15.0, 15.0),                                      # next rel_speed
    st.sampled_from([0.1, 0.04]))                                        # dt


class TestStepRewardsBits:
    """``step_rewards`` scores every transition and selects with ``np.where``;
    it gives the bits of the boolean-gather form, and warns of nothing."""

    @given(transitions=st.lists(_TRANSITION | _EDGE_TRANSITION, min_size=1, max_size=16),
           weights=st.tuples(*[st.sampled_from([1.0, 0.0, 2.5, -0.5])] * 4),
           ttc_floor=st.sampled_from([0.1, 0.5]), gap=st.sampled_from([0.0, -1.0, 1.0]))
    @example(transitions=[(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.1),
                          (5.0, -0.0, 0.0, 0.05, 5e-324, -5e-324, 0.1),
                          (5.0, 1.0, 0.0, 2.0, -5e-324, 5e-324, 0.1),
                          (5.0, 1.0, 0.0, 2.0, 2.2e-308, -0.0, 0.04),
                          (5.0, 1.0, 0.0, -0.0, 10.0, -1.0, 0.1),
                          (5.0, 1.0, 0.0, 2.0, 5e-324, -40.0, 0.1)],
             weights=(1.0, 1.0, 1.0, 1.0), ttc_floor=0.1, gap=0.0)
    @settings(max_examples=300, deadline=None)
    def test_equal_the_filtered_form(self, transitions, weights, ttc_floor, gap):
        v, a, ap, v2, s2, dv2, dt = map(np.array, zip(*transitions))
        args = (v, a, ap, EnvState(v2, s2, dv2), dt, s2 <= gap,
                RewardConfig(weights=RewardWeights(*weights), ttc_floor=ttc_floor),
                reference_model())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = step_rewards(*args)
        for name, g, w in zip(StepRewards._fields, got, filtered_step_rewards(*args)):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name


class TestRewardConfigJson:
    def test_roundtrip(self, tmp_path):
        cfg = RewardConfig(weights=RewardWeights(1, 2, 3, 4),
                           headway=HeadwayModel(0.4, 0.6),
                           jerk_scale=50.0, fuel_scale=0.9,
                           collision_penalty=-20.0, ttc_floor=0.2)
        path = tmp_path / "reward.json"
        path.write_text(json.dumps(dataclasses.asdict(cfg)))
        got = read_config(RewardConfig, json.loads(path.read_text()), "reward")
        assert got.weights == cfg.weights
        assert got.headway == cfg.headway
        assert got.collision_penalty == -20.0
        assert got.ttc_floor == 0.2

    def test_every_field_roundtrips(self):
        def bump(value):
            if dataclasses.is_dataclass(value):
                return dataclasses.replace(value, **{f.name: bump(getattr(value, f.name))
                                                     for f in dataclasses.fields(value)})
            return value * 1.5 + 0.25

        default = RewardConfig()
        cfg = bump(default)
        for f in dataclasses.fields(RewardConfig):
            assert getattr(cfg, f.name) != getattr(default, f.name), f.name
        obj = json.loads(json.dumps(dataclasses.asdict(cfg)))
        assert read_config(RewardConfig, obj, "reward") == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="jerk_scal"):
            read_config(RewardConfig, {"jerk_scal": 30.0}, "reward")

    def test_invalid_sigma_rejected(self):
        with pytest.raises(ValueError):
            HeadwayModel(mu=0.0, sigma=0.0)

    @pytest.mark.parametrize("name", ["jerk_scale", "fuel_scale"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_non_positive_scale_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            RewardConfig(**{name: value})
