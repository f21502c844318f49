"""Scalar VT-Micro evaluations, kept as test oracles.

``numpy_horner_exponent`` indexes ``coeffs.k`` and so does its arithmetic on
``np.float64`` scalars, as ``vtmicro.moe_exponent`` does. ``float_exponent``
runs the same Horner nesting on the coefficients as Python floats (``rows``),
and ``fuel_rate`` takes ``math.exp`` of it in the table of the command's
regime: the one-step rate that ``VtMicroModel.rates`` is held to.
"""

from __future__ import annotations

import math

from ecofollower.vtmicro import VtMicroCoefficients, VtMicroModel


def numpy_horner_exponent(coeffs: VtMicroCoefficients, v: float, a: float) -> float:
    k = coeffs.k
    p = 0.0
    for i in (3, 2, 1, 0):
        ci = ((k[i, 3] * a + k[i, 2]) * a + k[i, 1]) * a + k[i, 0]
        p = p * v + ci
    return p


def numpy_horner_fuel_rate(coeffs_accel: VtMicroCoefficients,
                           coeffs_decel: VtMicroCoefficients, v: float, a: float) -> float:
    coeffs = coeffs_accel if a >= 0 else coeffs_decel
    try:
        return math.exp(numpy_horner_exponent(coeffs, v, a))
    except OverflowError:
        return math.inf


def rows(coeffs: VtMicroCoefficients) -> tuple[tuple[float, float, float, float], ...]:
    """The coefficients as Python floats, row 3 (the highest power of v) first."""
    return tuple(map(tuple, coeffs.k[::-1].tolist()))


def float_exponent(coeffs: VtMicroCoefficients, v: float, a: float) -> float:
    p = 0.0
    for k0, k1, k2, k3 in rows(coeffs):
        p = p * v + (((k3 * a + k2) * a + k1) * a + k0)
    return p


def fuel_rate(coeffs_accel: VtMicroCoefficients, coeffs_decel: VtMicroCoefficients,
              v: float, a: float) -> float:
    """Instantaneous fuel rate in mL/s; the a >= 0 regime uses the acceleration table."""
    coeffs = coeffs_accel if a >= 0 else coeffs_decel
    try:
        return math.exp(float_exponent(coeffs, v, a))
    except OverflowError:
        return math.inf


def rate(model: VtMicroModel, v: float, a: float) -> float:
    return fuel_rate(model.accel, model.decel, v, a)
