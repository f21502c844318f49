import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ecofollower import vtmicro
from ecofollower.env import SimulatedTrace
from ecofollower.evaluate import evaluate_ground_truth, pooled_steps, summarize_traces
from ecofollower.events import CarFollowingEvent
from ecofollower.vtmicro import (VtMicroCoefficients, VtMicroModel, load_coefficients,
                                 moe_exponent, reference_model)

from reference_vtmicro import float_exponent, fuel_rate, numpy_horner_exponent


def rate(model, v, a):
    """The package's rate at one (v, a)."""
    return float(model.rates(np.array([v]), np.array([a]))[0])


def table(k, regime="acceleration"):
    return VtMicroCoefficients(k=np.asarray(k, dtype=float), regime=regime)


def zeros(regime="acceleration"):
    return table(np.zeros((4, 4)), regime)


def naive_exponent(k, v, a):
    """Independent double-loop oracle for the polynomial."""
    total = 0.0
    for i in range(4):
        for j in range(4):
            total += k[i][j] * v ** i * a ** j
    return total


class TestMoeExponent:
    def test_zero_polynomial(self):
        assert moe_exponent(zeros(), 10.0, 2.0) == 0.0

    def test_constant_term(self):
        k = np.zeros((4, 4))
        k[0, 0] = 1.0
        assert moe_exponent(table(k), 10.0, 2.0) == 1.0

    def test_single_cross_term(self):
        # 0.5 * v^1 * a^1 at (4, 2) -> 4
        k = np.zeros((4, 4))
        k[1, 1] = 0.5
        assert moe_exponent(table(k), 4.0, 2.0) == pytest.approx(4.0, rel=1e-15)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            k = rng.uniform(-1e-3, 1e-3, size=(4, 4))
            v = rng.uniform(0.0, 35.0)
            a = rng.uniform(-4.0, 4.0)
            got = moe_exponent(table(k), v, a)
            want = naive_exponent(k, v, a)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestFuelRate:
    def test_zero_table_rate_is_one(self):
        assert rate(VtMicroModel(zeros(), zeros("deceleration")), 8.0, 1.0) == 1.0

    def test_exp_inverse(self):
        k = np.zeros((4, 4))
        k[0, 0] = math.log(2.0)
        model = VtMicroModel(table(k), zeros("deceleration"))
        assert rate(model, 0.0, 0.0) == pytest.approx(2.0, rel=1e-15)

    def test_regime_selection(self):
        ka, kd = np.zeros((4, 4)), np.zeros((4, 4))
        ka[0, 0], kd[0, 0] = math.log(2.0), math.log(3.0)
        model = VtMicroModel(accel=table(ka), decel=table(kd, "deceleration"))
        assert rate(model, 5.0, 0.5) == pytest.approx(2.0)
        assert rate(model, 5.0, 0.0) == pytest.approx(2.0)  # a = 0 uses the accel table
        assert rate(model, 5.0, -0.5) == pytest.approx(3.0)

    def test_log_roundtrip(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = rng.uniform(-1e-3, 1e-3, size=(4, 4))
            coeffs = table(k)
            v, a = rng.uniform(0, 30), rng.uniform(0, 3)
            got = rate(VtMicroModel(coeffs, coeffs), v, a)
            assert got > 0
            assert math.log(got) == pytest.approx(moe_exponent(coeffs, v, a), rel=1e-12, abs=1e-15)


def bits(x) -> str:
    return float(x).hex()


_ROW = st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4)
# small scales keep most exponents in exp's range, large ones overflow to inf
_TABLE = st.builds(lambda rows, scale: [[c * scale for c in row] for row in rows],
                   st.lists(_ROW, min_size=4, max_size=4), st.sampled_from([1e-5, 1e-3, 1.0]))
_UNITS = st.sampled_from([
    {}, {"speed": "km/h"}, {"speed": "mph", "acceleration": "mph/s"},
    {"output": "L/s"}, {"speed": "km/h", "acceleration": "km/h/s", "output": "L/s"},
])
_SPEED = st.floats(0.0, 60.0) | st.sampled_from([0.0, -0.0])
_ACCEL = st.floats(-6.0, 6.0) | st.sampled_from([0.0, -0.0])


@st.composite
def models(draw):
    """A two-table or single-table model, each table in published units or canonical."""
    units = draw(_UNITS)
    if draw(st.booleans()):
        return vtmicro._model_from_json({"regime": "acceleration", "k": draw(_TABLE),
                                         "units": units})
    return vtmicro._model_from_json([
        {"regime": regime, "k": draw(_TABLE), "units": units} for regime in vtmicro.REGIMES])


def regime_exponent(model, v, a):
    """The exponent of the table of the command's regime, by the numpy-indexed oracle."""
    return numpy_horner_exponent(model.accel if a >= 0 else model.decel, v, a)


class TestScalarPathBits:
    """The package's exponent gives the bits of the numpy-indexed and Python-float
    oracles, and ``rates`` picks each element's table by its regime."""

    @given(model=models(), v=_SPEED, a=_ACCEL)
    @example(model=reference_model(), v=12.5, a=0.0)
    @example(model=reference_model(), v=12.5, a=-0.0)
    @settings(max_examples=300, deadline=None)
    def test_exponent_and_rate_equal_the_numpy_indexed_form(self, model, v, a):
        for coeffs in (model.accel, model.decel):
            assert bits(moe_exponent(coeffs, v, a)) == bits(numpy_horner_exponent(coeffs, v, a))
            assert bits(float_exponent(coeffs, v, a)) == bits(moe_exponent(coeffs, v, a))
        with np.errstate(over="ignore"):
            want = np.exp(regime_exponent(model, v, a))
        assert bits(rate(model, v, a)) == bits(want)

    @given(v=_SPEED, a=_ACCEL)
    @settings(max_examples=200, deadline=None)
    def test_reference_table(self, v, a):
        model = reference_model()
        assert bits(rate(model, v, a)) == bits(np.exp(regime_exponent(model, v, a)))
        assert rate(model, v, a) == pytest.approx(fuel_rate(model.accel, model.decel, v, a),
                                                  rel=1e-14)

    def test_overflowing_exponent_is_inf(self):
        k = np.zeros((4, 4))
        k[0, 0], k[1, 0] = 700.0, 10.0
        coeffs = table(k)
        assert rate(VtMicroModel(coeffs, coeffs), 1.0, 0.5) == math.inf
        assert fuel_rate(coeffs, coeffs, 1.0, 0.5) == math.inf

    @given(model=models(), v=st.lists(_SPEED, min_size=1, max_size=20),
           a=st.lists(_ACCEL, min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_array_exponent_equals_the_numpy_indexed_form(self, model, v, a):
        n = min(len(v), len(a))
        v, a = np.array(v[:n]), np.array(a[:n])
        for coeffs in (model.accel, model.decel):
            got = moe_exponent(coeffs, v, a)
            assert got.tobytes() == numpy_horner_exponent(coeffs, v, a).tobytes()


class TestLoader:
    def _write(self, tmp_path, obj):
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps(obj))
        return path

    def test_two_regime_file(self, tmp_path):
        path = self._write(tmp_path, [
            {"regime": "acceleration", "k": [[1, 0, 0, 0]] + [[0] * 4] * 3},
            {"regime": "deceleration", "k": [[2, 0, 0, 0]] + [[0] * 4] * 3},
        ])
        model = load_coefficients(path)
        assert moe_exponent(model.accel, 0, 0) == 1.0
        assert moe_exponent(model.decel, 0, 0) == 2.0

    def test_single_table_mode(self, tmp_path):
        path = self._write(tmp_path, {"regime": "acceleration",
                                      "k": [[1, 0, 0, 0]] + [[0] * 4] * 3})
        model = load_coefficients(path)
        assert rate(model, 3.0, 1.0) == rate(model, 3.0, -1.0)

    def test_missing_regime_rejected(self, tmp_path):
        path = self._write(tmp_path, [
            {"regime": "acceleration", "k": [[0] * 4] * 4}])
        with pytest.raises(ValueError, match="deceleration"):
            load_coefficients(path)

    def test_bad_shape_rejected(self, tmp_path):
        path = self._write(tmp_path, {"regime": "acceleration", "k": [[0] * 4] * 3})
        with pytest.raises(ValueError, match="4x4"):
            load_coefficients(path)

    @pytest.mark.parametrize("k", [
        [[0] * 4, [0] * 3, [0] * 4, [0] * 4],
        [[0] * 4, [0] * 5, [0] * 4, [0] * 4],
        [[0] * 4, [0, [0], 0, 0], [0] * 4, [0] * 4],
        [[[0]] * 4] * 4,
    ], ids=["short-row", "long-row", "list-cell", "all-list-cells"])
    def test_ragged_k_rejected(self, tmp_path, k):
        path = self._write(tmp_path, {"regime": "acceleration", "k": k})
        with pytest.raises(ValueError, match="'k' must be 4x4"):
            load_coefficients(path)

    def test_units_folding_matches_direct_evaluation(self, tmp_path):
        # km/h, km/h/s, L/s table: folded canonical evaluation must equal the
        # raw polynomial evaluated in published units plus the output log-scale
        rng = np.random.default_rng(3)
        k_raw = rng.uniform(-1e-3, 1e-3, size=(4, 4))
        path = self._write(tmp_path, {
            "regime": "acceleration",
            "units": {"speed": "km/h", "acceleration": "km/h/s", "output": "L/s"},
            "k": k_raw.tolist(),
        })
        model = load_coefficients(path)
        for v, a in [(0.0, 0.0), (8.0, 1.0), (25.0, -2.5), (13.3, 0.7)]:
            want = naive_exponent(k_raw, v * 3.6, a * 3.6) + math.log(1000.0)
            got = moe_exponent(model.accel, v, a)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_numeric_scale_override(self, tmp_path):
        k_raw = np.zeros((4, 4))
        k_raw[1, 0] = 1.0
        path = self._write(tmp_path, {"regime": "acceleration", "k": k_raw.tolist(),
                                      "units": {"speed_scale": 2.0}})
        model = load_coefficients(path)
        assert moe_exponent(model.accel, 3.0, 0.0) == pytest.approx(6.0)


class TestReferenceTable:
    def test_loads_and_is_positive(self):
        model = reference_model()
        for v in (0.0, 8.0, 20.0, 33.0):
            for a in (-3.0, -1.0, 0.0, 1.0, 3.0):
                assert rate(model, v, a) > 0

    def test_idle_rate_equals_exp_of_constant_term(self):
        # independent scalar evaluation of the loaded table at (0, 0)
        model = reference_model()
        k00 = model.accel.k[0, 0]
        assert rate(model, 0.0, 0.0) == pytest.approx(math.exp(k00), rel=1e-12)

    def test_idle_magnitude_plausible(self):
        # idle burn for a light-duty vehicle sits well under 1 mL/s
        idle = rate(reference_model(), 0.0, 0.0)
        assert 0.05 < idle < 1.5

    def test_cruise_exceeds_idle(self):
        model = reference_model()
        assert rate(model, 25.0, 0.0) > rate(model, 8.0, 0.0) > rate(model, 0.0, 0.0)


def make_trace(v, accel, dt=0.1):
    n = len(v)
    return SimulatedTrace(event_id="t", dt=dt, t=np.arange(n) * dt,
                          accel=np.asarray(accel, dtype=float),
                          v_follow=np.asarray(v, dtype=float),
                          spacing=np.full(n, 12.0), rel_speed=np.zeros(n),
                          x_follow=np.zeros(n))


def fuel_of(trace, model):
    """(total fuel in mL, mean rate in mL/s) as summarize_traces reports them."""
    summary = summarize_traces("c", [trace], pooled_steps([trace], model))
    return summary.metadata["total_fuel_ml"], summary.mean_fuel_rate


class TestEventFuel:
    """The fuel integral of summarize_traces."""

    def test_constant_rate_integration(self):
        model = VtMicroModel(accel=zeros(), decel=zeros("deceleration"))
        trace = make_trace([8.0] * 100, [0.0] * 100)  # rate 1 mL/s for 10 s
        total, mean = fuel_of(trace, model)
        assert total == pytest.approx(10.0, rel=1e-12)
        assert mean == pytest.approx(1.0, rel=1e-12)

    def test_left_rectangle_sum(self):
        # rates {1, 3} over two 0.1 s steps -> total 0.4 mL
        k = np.zeros((4, 4))
        k[0, 1] = math.log(3.0)  # rate = 3^a
        coeffs = table(k)
        model = VtMicroModel(accel=coeffs, decel=coeffs)
        trace = make_trace([5.0, 5.0], [0.0, 1.0])
        total, mean = fuel_of(trace, model)
        assert total == pytest.approx(0.4, rel=1e-12)
        assert mean == pytest.approx(2.0, rel=1e-12)

    def test_recorded_event_input(self):
        model = VtMicroModel(accel=zeros(), decel=zeros("deceleration"))
        t = np.arange(51) * 0.1
        v = np.full(51, 8.0)
        x = v * t
        ev = CarFollowingEvent.from_arrays("e", t, x + 12.0, v, x, v)
        summary = evaluate_ground_truth([ev], model).summary
        # 50 steps * 0.1 s * 1 mL/s: the last sample starts no step
        assert summary.metadata["total_fuel_ml"] == pytest.approx(5.0, rel=1e-12)
        assert summary.mean_fuel_rate == pytest.approx(1.0, rel=1e-12)
