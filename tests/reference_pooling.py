"""Evaluation indicators as they were computed one trace at a time.

``trace_values`` applies each indicator formula and the VT-Micro rates to one
trace's arrays, and ``summarize_traces`` pools the per-trace arrays for the
means. The package pools the steps of all traces first and applies each
formula once; the tests hold ``pooled_steps`` to the concatenation of these
arrays, and its summaries to these summaries, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ecofollower import indicators
from ecofollower.env import SimulatedTrace
from ecofollower.evaluate import EvalConfig, IndicatorSummary, NonFiniteFuelError
from ecofollower.vtmicro import VtMicroModel


@dataclass
class TraceValues:
    """Per-step indicator arrays of one trace."""

    trace: SimulatedTrace
    ttc_closing: np.ndarray   # capped, closing-gap steps only
    ttc_signed: np.ndarray    # clipped to +/- cap, any nonzero rel speed
    jerk: np.ndarray
    headway: np.ndarray       # steps above the speed floor
    fuel_rate: np.ndarray     # every step


# each pooled_steps key and the TraceValues field it pools
FIELDS = {"ttc": "ttc_signed", "jerk": "jerk", "headway": "headway",
          "fuel_rate": "fuel_rate", "ttc_closing": "ttc_closing"}


def trace_values(traces: Sequence[SimulatedTrace], fuel_model: VtMicroModel,
                 cfg: EvalConfig = EvalConfig()) -> list[TraceValues]:
    return [TraceValues(
        trace=tr,
        ttc_closing=indicators.ttc_closing(tr.spacing, tr.rel_speed, cfg.ttc_cap),
        ttc_signed=indicators.ttc_signed(tr.spacing, tr.rel_speed, cfg.ttc_cap),
        jerk=indicators.jerk(tr.accel, tr.dt),
        headway=indicators.headway(tr.spacing, tr.v_follow),
        fuel_rate=fuel_model.rates(tr.v_follow, tr.accel),
    ) for tr in traces]


def check_fuel(name: str, values: Sequence[TraceValues]) -> None:
    """Raise NonFiniteFuelError naming the first event and step whose fuel rate is not finite."""
    for v in values:
        bad = np.flatnonzero(~np.isfinite(v.fuel_rate))
        if bad.size:
            k = int(bad[0])
            raise NonFiniteFuelError(
                f"controller {name!r}: non-finite VT-Micro fuel rate {v.fuel_rate[k]} "
                f"at step {k} of event {v.trace.event_id}")


def _mean(chunks: list[np.ndarray]) -> float:
    pooled = np.concatenate(chunks) if chunks else np.array([])
    return float(np.mean(pooled)) if pooled.size else float("nan")


def summarize_traces(name: str, values: Sequence[TraceValues],
                     cfg: EvalConfig = EvalConfig(), errors: int = 0) -> IndicatorSummary:
    traces = [v.trace for v in values]
    ttc_chunks = [v.ttc_closing for v in values]
    jerk_chunks = [np.abs(v.jerk) for v in values]
    headway_chunks = [v.headway for v in values]
    total_fuel = sum(float(np.sum(v.fuel_rate)) * tr.dt for v, tr in zip(values, traces))
    total_time = sum(tr.duration for tr in traces)
    all_jerk = np.concatenate([v.jerk for v in values])
    return IndicatorSummary(
        name=name,
        mean_ttc=_mean(ttc_chunks),
        mean_abs_jerk=_mean(jerk_chunks),
        mean_headway=_mean(headway_chunks),
        mean_fuel_rate=total_fuel / total_time,
        events_evaluated=len(traces),
        collisions=sum(tr.collided for tr in traces),
        errors=errors,
        metadata={
            "rms_jerk_m_s3": float(np.sqrt(np.mean(all_jerk ** 2))) if all_jerk.size else float("nan"),
            "ttc_steps": int(sum(c.size for c in ttc_chunks)),
            "headway_steps": int(sum(c.size for c in headway_chunks)),
            "total_steps": int(sum(len(tr) for tr in traces)),
            "total_time_s": total_time,
            "total_fuel_ml": total_fuel,
            "aggregation": "step_pooled",
            "ttc_cap_s": cfg.ttc_cap,
            "speed_floor_m_s": indicators.SPEED_FLOOR,
        },
    )
