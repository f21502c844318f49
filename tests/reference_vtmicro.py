"""The VT-Micro evaluation as it was written against the coefficient array.

``numpy_horner_exponent`` indexes ``coeffs.k`` and so does its arithmetic on
``np.float64`` scalars. The package evaluates the same Horner nesting on
Python floats; the tests hold it to these functions bit for bit.
"""

from __future__ import annotations

import math

from ecofollower.vtmicro import VtMicroCoefficients


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


class NumpyHornerModel:
    """Stands in for a ``VtMicroModel`` where ``objectives.reward`` asks for a rate."""

    def __init__(self, model):
        self.accel, self.decel = model.accel, model.decel

    def rate(self, v: float, a: float) -> float:
        return numpy_horner_fuel_rate(self.accel, self.decel, v, a)
