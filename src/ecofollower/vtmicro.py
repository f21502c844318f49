"""VT-Micro instantaneous fuel-rate model.

The rate is exp(P(v, a)) with P a cubic bivariate polynomial in speed and
acceleration, with separate coefficient tables for the acceleration (a >= 0)
and deceleration regimes.

Working units are v in m/s, a in m/s^2, rate in mL/s. Published tables in
other units declare them in a ``units`` block; the loader folds the scale
factors into the coefficients (K'_ij = K_ij * cv^i * ca^j, K'_00 += ln(c_out))
so evaluation stays a plain polynomial and log(rate) == exponent exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

REGIMES = ("acceleration", "deceleration")

_SPEED_SCALE = {"m/s": 1.0, "km/h": 3.6, "mph": 2.2369362920544025}
_ACCEL_SCALE = {"m/s^2": 1.0, "km/h/s": 3.6, "mph/s": 2.2369362920544025}
_OUTPUT_SCALE = {"mL/s": 1.0, "L/s": 1000.0, "gal/s": 3785411.784}


@dataclass(frozen=True)
class VtMicroCoefficients:
    """4x4 regression matrix in canonical units; k[i][j] scales v^i * a^j."""

    k: np.ndarray
    regime: str

    def __post_init__(self):
        k = np.array(self.k, dtype=float)
        if k.shape != (4, 4):
            raise ValueError(f"coefficient matrix must be 4x4, got {k.shape}")
        if not np.isfinite(k).all():
            raise ValueError("coefficient matrix has non-finite entries")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}, got {self.regime!r}")
        k.setflags(write=False)
        object.__setattr__(self, "k", k)


@dataclass(frozen=True)
class VtMicroModel:
    accel: VtMicroCoefficients
    decel: VtMicroCoefficients
    single_table: bool = False

    def rate(self, v: float, a: float) -> float:
        return fuel_rate(self.accel, self.decel, v, a)

    def rates(self, v: np.ndarray, a: np.ndarray) -> np.ndarray:
        """``rate`` of each (v, a) pair of two arrays; inf where the exponent overflows."""
        with np.errstate(over="ignore"):
            return np.exp(np.where(a >= 0, moe_exponent(self.accel, v, a),
                                   moe_exponent(self.decel, v, a)))


def moe_exponent(coeffs: VtMicroCoefficients, v: float, a: float) -> float:
    """Evaluate P(v, a) with Horner nesting in both variables, of scalars or
    elementwise of arrays."""
    k = coeffs.k
    p = 0.0
    for i in (3, 2, 1, 0):
        ci = ((k[i, 3] * a + k[i, 2]) * a + k[i, 1]) * a + k[i, 0]
        p = p * v + ci
    return p


def fuel_rate(coeffs_accel: VtMicroCoefficients, coeffs_decel: VtMicroCoefficients,
              v: float, a: float) -> float:
    """Instantaneous fuel rate in mL/s; the a >= 0 regime uses the acceleration table."""
    coeffs = coeffs_accel if a >= 0 else coeffs_decel
    try:
        return math.exp(moe_exponent(coeffs, v, a))
    except OverflowError:
        return math.inf


def _fold_units(k: np.ndarray, units: dict) -> np.ndarray:
    cv = float(units.get("speed_scale", _SPEED_SCALE[units.get("speed", "m/s")]))
    ca = float(units.get("accel_scale", _ACCEL_SCALE[units.get("acceleration", "m/s^2")]))
    cout = float(units.get("output_scale", _OUTPUT_SCALE[units.get("output", "mL/s")]))
    powers = np.outer(cv ** np.arange(4), ca ** np.arange(4))
    folded = k * powers
    folded[0, 0] += math.log(cout)
    return folded


def _parse_table(obj: dict) -> VtMicroCoefficients:
    try:
        regime = obj["regime"]
        k = np.asarray(obj["k"], dtype=float)
    except KeyError as exc:
        raise ValueError(f"coefficient table missing key {exc}") from exc
    if k.shape != (4, 4):
        raise ValueError(f"coefficient table 'k' must be 4x4, got {k.shape}")
    k = _fold_units(k, obj.get("units", {}))
    return VtMicroCoefficients(k=k, regime=regime)


def load_coefficients(path) -> VtMicroModel:
    """Load a coefficient JSON file.

    An array of two regime objects gives the standard two-table model; a
    single object is applied to both regimes (single-table parity mode).
    """
    with open(path) as fh:
        obj = json.load(fh)
    return _model_from_json(obj)


def _model_from_json(obj) -> VtMicroModel:
    if isinstance(obj, dict):
        table = _parse_table(obj)
        both = VtMicroCoefficients(k=table.k, regime="acceleration")
        return VtMicroModel(
            accel=both,
            decel=VtMicroCoefficients(k=table.k, regime="deceleration"),
            single_table=True,
        )
    tables = {t.regime: t for t in (_parse_table(o) for o in obj)}
    missing = [r for r in REGIMES if r not in tables]
    if missing:
        raise ValueError(f"coefficient file missing regimes: {missing}")
    return VtMicroModel(accel=tables["acceleration"], decel=tables["deceleration"])


def reference_model() -> VtMicroModel:
    """The bundled light-duty fuel table (see data/vtmicro_fuel_ldv.json for provenance)."""
    ref = resources.files("ecofollower.data").joinpath("vtmicro_fuel_ldv.json")
    return _model_from_json(json.loads(ref.read_text()))


def event_fuel(trace, model: VtMicroModel) -> tuple[float, float]:
    """Total fuel (mL) and mean rate (mL/s) over a trace or recorded event.

    Left-rectangle rule: each step contributes rate(v_k, a_k) * dt, matching
    the per-step reward accumulation used in training.
    """
    v, a, dt = _speed_accel_steps(trace)
    if len(v) == 0:
        raise ValueError("cannot integrate fuel over a zero-duration trace")
    total = float(np.sum(model.rates(v, a))) * dt
    duration = len(v) * dt
    return total, total / duration


def _speed_accel_steps(trace) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-step (speed, accel) arrays from a SimulatedTrace or CarFollowingEvent."""
    if hasattr(trace, "accel"):
        return np.asarray(trace.v_follow), np.asarray(trace.accel), float(trace.dt)
    v = np.asarray(trace.v_follow)
    return v[:-1], np.diff(v) / trace.dt, float(trace.dt)
