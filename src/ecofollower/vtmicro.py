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
from functools import cached_property
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

    def rates(self, v: np.ndarray, a: np.ndarray) -> np.ndarray:
        """The fuel rate in mL/s of each (v, a) pair of two arrays; the a >= 0
        regime uses the acceleration table. inf where the exponent overflows.

        One Horner nesting runs over coefficients picked per element by regime,
        a row of both tables at a time with one ``take``, which gives each
        element the bits of its own table's polynomial.
        """
        regime = (a >= 0).view(np.int8)   # 1 picks the acceleration table
        tables = self._tables
        p = _horner(lambda i: tables[i].take(regime, axis=1), v, a)
        with np.errstate(over="ignore"):
            return np.exp(p)

    @cached_property
    def _tables(self) -> np.ndarray:
        """k of both regimes as one (4, 4, 2) array: [..., 0] deceleration, [..., 1] acceleration."""
        return np.stack([self.decel.k, self.accel.k], axis=-1)


def moe_exponent(coeffs: VtMicroCoefficients, v: float, a: float) -> float:
    """Evaluate P(v, a) with Horner nesting in both variables, of scalars or
    elementwise of arrays.

    Row i contributes ((k[i, 3] * a + k[i, 2]) * a + k[i, 1]) * a + k[i, 0],
    for i = 3, 2, 1, 0, into p = p * v + row.
    """
    return _horner(coeffs.k.__getitem__, v, a)


def fuel_rate(coeffs_accel: VtMicroCoefficients, coeffs_decel: VtMicroCoefficients,
              v: float, a: float) -> float:
    """``VtMicroModel.rates`` of one (v, a); kept, like ``env.step``, for the
    benchmark tracer, which traces it by name."""
    model = VtMicroModel(coeffs_accel, coeffs_decel)
    return float(model.rates(np.array([v], dtype=float), np.array([a], dtype=float))[0])


def _horner(row, v, a):
    """``moe_exponent``'s nesting, with ``row(i)`` the coefficients k[i, 0..3]: of one
    table, or arrays of per-element coefficients."""
    p = 0.0
    for i in (3, 2, 1, 0):
        k = row(i)
        p = p * v + (((k[3] * a + k[2]) * a + k[1]) * a + k[0])
    return p


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
    with np.errstate(over="ignore", invalid="ignore"):
        folded = k * np.outer(np.float64(cv) ** np.arange(4), np.float64(ca) ** np.arange(4))
    folded[0, 0] += math.log(cout)
    bad = np.argwhere(~np.isfinite(folded))
    if len(bad):   # k is finite: the scales of the entry's powers took it there
        i, j = bad[0].tolist()
        named = [f"units.{key} {c!r}" for key, c, power in
                 (("speed_scale", cv, i), ("accel_scale", ca, j), ("output_scale", cout, i == j == 0))
                 if power]
        raise ValueError(f"k[{i}][{j}] folded by {' and '.join(named)} is past the float range")
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
