"""Scalar VT-Micro evaluations, kept as test oracles.

``numpy_horner_exponent`` indexes the table ``k`` and so does its arithmetic on
``np.float64`` scalars, as ``vtmicro.moe_exponent`` does. ``float_exponent``
runs the same Horner nesting on the coefficients as Python floats (``rows``),
and ``fuel_rate`` takes ``math.exp`` of it in the table of the command's
regime: the one-step rate that ``VtMicroModel.rates`` is held to.
``per_row_rates`` is ``VtMicroModel.rates`` as it was written with one
``take`` per table row, the array form whose bits ``rates`` keeps.
"""

from __future__ import annotations

import math

import numpy as np

from ecofollower.vtmicro import VtMicroModel


def numpy_horner_exponent(k: np.ndarray, v: float, a: float) -> float:
    p = 0.0
    for i in (3, 2, 1, 0):
        ci = ((k[i, 3] * a + k[i, 2]) * a + k[i, 1]) * a + k[i, 0]
        p = p * v + ci
    return p


def rows(k: np.ndarray) -> tuple[tuple[float, float, float, float], ...]:
    """The coefficients as Python floats, row 3 (the highest power of v) first."""
    return tuple(map(tuple, k[::-1].tolist()))


def float_exponent(k: np.ndarray, v: float, a: float) -> float:
    p = 0.0
    for k0, k1, k2, k3 in rows(k):
        p = p * v + (((k3 * a + k2) * a + k1) * a + k0)
    return p


def fuel_rate(accel: np.ndarray, decel: np.ndarray, v: float, a: float) -> float:
    """Instantaneous fuel rate in mL/s; the a >= 0 regime uses the acceleration table."""
    try:
        return math.exp(float_exponent(accel if a >= 0 else decel, v, a))
    except OverflowError:
        return math.inf


def rate(model: VtMicroModel, v: float, a: float) -> float:
    return fuel_rate(model.accel, model.decel, v, a)


def per_row_rates(model: VtMicroModel, v: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The rate of each (v, a) pair, each row's coefficients picked by regime
    with their own ``take``, one row of the Horner nesting at a time."""
    regime = (a >= 0).view(np.int8)   # 1 picks the acceleration table
    tables = np.stack([model.decel, model.accel], axis=-1)
    p = 0.0
    for i in (3, 2, 1, 0):
        k = tables[i].take(regime, axis=1)
        p = p * v + (((k[3] * a + k[2]) * a + k[1]) * a + k[0])
    with np.errstate(over="ignore"):
        return np.exp(p)
