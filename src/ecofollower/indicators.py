"""Per-step TTC, time headway and jerk over whole trajectory arrays.

Evaluation summaries, evaluation histograms and dataset statistics all use
these formulas. The scalar forms in ``objectives`` score the reward one step
at a time and are the reference these arrays are tested against.

rel_speed is leader minus follower: negative while the gap is closing.
"""

from __future__ import annotations

import numpy as np

SPEED_FLOOR = 0.1   # m/s; time headway diverges below this follower speed and is dropped
TTC_CAP = 50.0      # s; TTC magnitudes are capped here before averaging and binning


def ttc_closing(spacing: np.ndarray, rel_speed: np.ndarray, cap: float = TTC_CAP) -> np.ndarray:
    """-spacing/rel_speed on closing-gap steps only, capped at ``cap``.

    A subnormal closing speed overflows to inf, which the cap then takes.
    """
    closing = rel_speed < 0
    with np.errstate(over="ignore"):
        return np.minimum(-spacing[closing] / rel_speed[closing], cap)


def ttc_signed(spacing: np.ndarray, rel_speed: np.ndarray, cap: float = TTC_CAP) -> np.ndarray:
    """Signed -spacing/rel_speed (negative while opening) on every step with
    nonzero rel_speed, clipped to [-cap, cap]; a subnormal rel_speed
    overflows to +/-inf, which the clip then takes."""
    nonzero = rel_speed != 0
    with np.errstate(over="ignore"):
        return np.clip(-spacing[nonzero] / rel_speed[nonzero], -cap, cap)


def headway(spacing: np.ndarray, follow_speed: np.ndarray) -> np.ndarray:
    """spacing / follower speed on steps at or above the speed floor."""
    moving = follow_speed >= SPEED_FLOOR
    return spacing[moving] / follow_speed[moving]


def jerk(accel: np.ndarray, dt: float) -> np.ndarray:
    """Finite-difference jerk of each step; the acceleration before step 0 is 0."""
    return np.diff(accel, prepend=0.0) / dt
