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
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .events import SchemaError, json_floats, json_number, json_object, read_json

REGIMES = ("acceleration", "deceleration")

# factor of each unit name; the first name of each table is the default
_SPEED_SCALE = {"m/s": 1.0, "km/h": 3.6, "mph": 2.2369362920544025}
_ACCEL_SCALE = {"m/s^2": 1.0, "km/h/s": 3.6, "mph/s": 2.2369362920544025}
_OUTPUT_SCALE = {"mL/s": 1.0, "L/s": 1000.0, "gal/s": 3785411.784}


@dataclass(frozen=True)
class VtMicroCoefficients:
    """4x4 regression matrix in canonical units; k[i][j] scales v^i * a^j.

    ``rows`` holds the same coefficients as Python floats, row 3 first, for
    ``moe_exponent``: float arithmetic on them costs a fraction of indexing
    ``k`` and gives the same bits.
    """

    k: np.ndarray
    regime: str
    rows: tuple[tuple[float, float, float, float], ...] = field(
        init=False, repr=False, compare=False)

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
        object.__setattr__(self, "rows", tuple(map(tuple, k[::-1].tolist())))


@dataclass(frozen=True)
class VtMicroModel:
    accel: VtMicroCoefficients
    decel: VtMicroCoefficients

    def rate(self, v: float, a: float) -> float:
        return fuel_rate(self.accel, self.decel, v, a)

    def rates(self, v: np.ndarray, a: np.ndarray) -> np.ndarray:
        """``rate`` of each (v, a) pair of two arrays; inf where the exponent overflows."""
        with np.errstate(over="ignore"):
            return np.exp(np.where(a >= 0, moe_exponent(self.accel, v, a),
                                   moe_exponent(self.decel, v, a)))


def moe_exponent(coeffs: VtMicroCoefficients, v: float, a: float) -> float:
    """Evaluate P(v, a) with Horner nesting in both variables, of scalars or
    elementwise of arrays.

    Row i contributes ((k[i, 3] * a + k[i, 2]) * a + k[i, 1]) * a + k[i, 0],
    for i = 3, 2, 1, 0, into p = p * v + row.
    """
    p = 0.0
    for k0, k1, k2, k3 in coeffs.rows:
        p = p * v + (((k3 * a + k2) * a + k1) * a + k0)
    return p


def fuel_rate(coeffs_accel: VtMicroCoefficients, coeffs_decel: VtMicroCoefficients,
              v: float, a: float) -> float:
    """Instantaneous fuel rate in mL/s; the a >= 0 regime uses the acceleration table."""
    coeffs = coeffs_accel if a >= 0 else coeffs_decel
    try:
        return math.exp(moe_exponent(coeffs, v, a))
    except OverflowError:
        return math.inf


def _scale(units: dict, key: str, unit_key: str, named: dict[str, float]) -> float:
    """The number ``units[key]``, else the factor of the unit named ``units[unit_key]``;
    a block that sets both is refused rather than one of them dropped."""
    if key in units and unit_key in units:
        raise ValueError(f"units.{unit_key} and units.{key} are both set; give one of them")
    if key in units:
        value = json_number(units[key], f"units.{key}")
        if value <= 0:
            raise ValueError(f"units.{key} must be positive, got {value!r}")
        return value
    unit = units.get(unit_key, next(iter(named)))
    if not isinstance(unit, str) or unit not in named:
        raise ValueError(f"units.{unit_key} must be one of {list(named)}, got {json.dumps(unit)}")
    return named[unit]


def _fold_units(k: np.ndarray, units) -> np.ndarray:
    units = json_object(units, "units", ("speed", "acceleration", "output",
                                         "speed_scale", "accel_scale", "output_scale"))
    cv = _scale(units, "speed_scale", "speed", _SPEED_SCALE)
    ca = _scale(units, "accel_scale", "acceleration", _ACCEL_SCALE)
    cout = _scale(units, "output_scale", "output", _OUTPUT_SCALE)
    powers = np.outer(cv ** np.arange(4), ca ** np.arange(4))
    folded = k * powers
    folded[0, 0] += math.log(cout)
    return folded


def _parse_table(obj) -> VtMicroCoefficients:
    obj = json_object(obj, "table", ("source", "regime", "units", "k"))
    try:
        regime = obj["regime"]
        k = json_floats(obj["k"], "k", ndim=2)
        if k.shape != (4, 4):
            raise ValueError(f"got shape {k.shape}")
    except KeyError as exc:
        raise ValueError(f"coefficient table missing key {exc}") from exc
    except ValueError as exc:  # ragged, not numbers or not 4x4
        raise ValueError(f"coefficient table 'k' must be 4x4 numbers: {exc}") from exc
    return VtMicroCoefficients(k=_fold_units(k, obj.get("units", {})), regime=regime)


def load_coefficients(path) -> VtMicroModel:
    """Load a coefficient JSON file.

    An array of two regime objects gives the standard two-table model; a
    single object is applied to both regimes (single-table parity mode).
    A file that is not such JSON raises SchemaError naming the file.
    """
    obj = read_json(path, "VT-Micro coefficient file")
    try:
        return _model_from_json(obj)
    except ValueError as exc:
        raise SchemaError(f"VT-Micro coefficient file {path}: {exc}") from exc


def _model_from_json(obj) -> VtMicroModel:
    if isinstance(obj, dict):
        k = _parse_table(obj).k
        return VtMicroModel(accel=VtMicroCoefficients(k=k, regime="acceleration"),
                            decel=VtMicroCoefficients(k=k, regime="deceleration"))
    tables = {t.regime: t for t in map(_parse_table, obj if isinstance(obj, list) else [obj])}
    missing = [r for r in REGIMES if r not in tables]
    if missing:
        raise ValueError(f"coefficient file missing regimes: {missing}")
    return VtMicroModel(accel=tables["acceleration"], decel=tables["deceleration"])


def reference_model() -> VtMicroModel:
    """The bundled light-duty fuel table (see data/vtmicro_fuel_ldv.json for provenance)."""
    ref = resources.files("ecofollower.data").joinpath("vtmicro_fuel_ldv.json")
    return _model_from_json(json.loads(ref.read_text()))
