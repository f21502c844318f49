"""Controller evaluation over a test set and Table-style comparison reports.

The ground-truth "controller" is a direct read-off of the recorded arrays, so
its indicators reproduce the raw data exactly regardless of how consistent the
recording is; simulated controllers (policy, IDM) are rolled out through the
environment.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import indicators
from .env import Controller, EnvConfig, DEFAULT_ENV, SimulatedTrace, rollout_batch
from .events import CarFollowingEvent, histogram_edges
from .vtmicro import VtMicroModel

ControllerFactory = Callable[[CarFollowingEvent], Controller]

GROUND_TRUTH = "ground_truth"


class EmptyResultError(RuntimeError):
    """Nothing was left to evaluate: no events, or a controller failed on all of them."""


@dataclass(frozen=True)
class EvalConfig:
    ttc_cap: float = indicators.TTC_CAP   # s; closing-gap TTC is capped before averaging
    per_event_means: bool = False  # False: pool steps across events
    bins: int = 50


def _finite_or_none(x: float) -> float | None:
    return x if math.isfinite(x) else None


@dataclass
class IndicatorSummary:
    name: str
    mean_ttc: float
    mean_abs_jerk: float
    mean_headway: float
    mean_fuel_rate: float
    events_evaluated: int
    collisions: int
    errors: int = 0
    metadata: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """JSON-ready fields; an undefined (non-finite) mean is written as null."""
        return {
            "name": self.name,
            "indicators": {
                "mean_ttc_s": _finite_or_none(self.mean_ttc),
                "mean_abs_jerk_m_s3": _finite_or_none(self.mean_abs_jerk),
                "mean_headway_s": _finite_or_none(self.mean_headway),
                "mean_fuel_rate_ml_s": _finite_or_none(self.mean_fuel_rate),
            },
            "events": self.events_evaluated,
            "collisions": self.collisions,
            "errors": self.errors,
            "metadata": {k: _finite_or_none(v) if isinstance(v, float) else v
                         for k, v in self.metadata.items()},
        }


def trace_from_event(event: CarFollowingEvent) -> SimulatedTrace:
    """Recorded behavior as a trace: accel is the follower-speed finite difference."""
    v = event.v_follow
    return SimulatedTrace(
        event_id=event.event_id,
        dt=event.dt,
        t=event.t[:-1],
        accel=np.diff(v) / event.dt,
        v_follow=v[:-1],
        spacing=event.gap[:-1],
        rel_speed=(event.v_lead - event.v_follow)[:-1],
        x_follow=event.x_follow[:-1],
        collided=False,
    )


@dataclass
class TraceValues:
    """Per-step indicator arrays of one trace, shared by summaries and histograms."""

    trace: SimulatedTrace
    ttc_closing: np.ndarray   # capped, closing-gap steps only
    ttc_signed: np.ndarray    # clipped to +/- cap, any nonzero rel speed
    jerk: np.ndarray
    headway: np.ndarray       # steps above the speed floor
    fuel_rate: np.ndarray     # every step


def trace_values(trace: SimulatedTrace, fuel_model: VtMicroModel,
                 cfg: EvalConfig = EvalConfig()) -> TraceValues:
    """Indicator arrays and VT-Micro rates of every step of the trace."""
    return TraceValues(
        trace=trace,
        ttc_closing=indicators.ttc_closing(trace.spacing, trace.rel_speed, cfg.ttc_cap),
        ttc_signed=indicators.ttc_signed(trace.spacing, trace.rel_speed, cfg.ttc_cap),
        jerk=indicators.jerk(trace.accel, trace.dt),
        headway=indicators.headway(trace.spacing, trace.v_follow),
        fuel_rate=fuel_model.rates(trace.v_follow, trace.accel),
    )


@dataclass
class EvaluationResult:
    summary: IndicatorSummary
    values: list[TraceValues]      # one per evaluated event, in event_id order
    errors: list[tuple[str, str]]  # (event_id, message)

    @property
    def traces(self) -> dict[str, SimulatedTrace]:
        return {v.trace.event_id: v.trace for v in self.values}


def _mean(chunks: list[np.ndarray], per_event: bool) -> float:
    if per_event:
        means = [float(np.mean(c)) for c in chunks if c.size]
        return float(np.mean(means)) if means else float("nan")
    pooled = np.concatenate(chunks) if chunks else np.array([])
    return float(np.mean(pooled)) if pooled.size else float("nan")


def summarize_traces(name: str, values: Sequence[TraceValues],
                     cfg: EvalConfig = EvalConfig(), errors: int = 0) -> IndicatorSummary:
    """Aggregate the four indicators over traces (step-pooled by default)."""
    if not values:
        raise ValueError("summarize_traces needs at least one trace")
    traces = [v.trace for v in values]
    ttc_chunks = [v.ttc_closing for v in values]
    jerk_chunks = [np.abs(v.jerk) for v in values]
    headway_chunks = [v.headway for v in values]
    total_fuel = sum(float(np.sum(v.fuel_rate)) * tr.dt for v, tr in zip(values, traces))
    total_time = sum(tr.duration for tr in traces)
    if cfg.per_event_means:
        fuel_means = [float(np.mean(v.fuel_rate)) for v in values if v.fuel_rate.size]
        mean_fuel = float(np.mean(fuel_means)) if fuel_means else float("nan")
    else:
        mean_fuel = total_fuel / total_time
    all_jerk = np.concatenate([v.jerk for v in values])
    return IndicatorSummary(
        name=name,
        mean_ttc=_mean(ttc_chunks, cfg.per_event_means),
        mean_abs_jerk=_mean(jerk_chunks, cfg.per_event_means),
        mean_headway=_mean(headway_chunks, cfg.per_event_means),
        mean_fuel_rate=mean_fuel,
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
            "aggregation": "per_event_means" if cfg.per_event_means else "step_pooled",
            "ttc_cap_s": cfg.ttc_cap,
            "speed_floor_m_s": indicators.SPEED_FLOOR,
        },
    )


def evaluate_controller(controller_factory: ControllerFactory, name: str,
                        events: Sequence[CarFollowingEvent],
                        fuel_model: VtMicroModel,
                        env_config: EnvConfig = DEFAULT_ENV,
                        cfg: EvalConfig = EvalConfig()) -> EvaluationResult:
    """Roll the controller out over every event and aggregate indicators.

    The factory is called once per event; the events that got the same
    controller object are rolled out together by ``rollout_batch``. A failure
    on one event is recorded and excluded from the means; it never aborts the
    others. Traces and errors are kept in event_id order.
    """
    if not events:
        raise ValueError("evaluate_controller needs a non-empty test set")
    ordered = sorted(events, key=lambda e: e.event_id)
    outcomes: dict[str, SimulatedTrace | Exception] = dict.fromkeys(e.event_id for e in ordered)
    groups: dict[int, tuple[Controller, list[CarFollowingEvent]]] = {}
    for ev in ordered:
        try:
            controller = controller_factory(ev)
        except Exception as exc:
            outcomes[ev.event_id] = exc
            continue
        groups.setdefault(id(controller), (controller, []))[1].append(ev)
    for controller, group in groups.values():
        for ev, outcome in zip(group, rollout_batch(group, controller, env_config)):
            outcomes[ev.event_id] = outcome
    traces = {eid: o for eid, o in outcomes.items() if isinstance(o, SimulatedTrace)}
    errors = [(eid, str(o)) for eid, o in outcomes.items() if not isinstance(o, SimulatedTrace)]
    if not traces:
        first = "; ".join(f"{eid}: {msg}" for eid, msg in errors[:3])
        raise EmptyResultError(f"controller {name!r} failed on every event; first errors: {first}")
    values = [trace_values(tr, fuel_model, cfg) for tr in traces.values()]
    summary = summarize_traces(name, values, cfg, errors=len(errors))
    return EvaluationResult(summary=summary, values=values, errors=errors)


def evaluate_ground_truth(events: Sequence[CarFollowingEvent],
                          fuel_model: VtMicroModel,
                          cfg: EvalConfig = EvalConfig()) -> EvaluationResult:
    """Indicators of the recorded behavior itself."""
    if not events:
        raise ValueError("evaluate_ground_truth needs a non-empty test set")
    ordered = sorted(events, key=lambda e: e.event_id)
    traces = {ev.event_id: trace_from_event(ev) for ev in ordered}
    values = [trace_values(tr, fuel_model, cfg) for tr in traces.values()]
    return EvaluationResult(summary=summarize_traces(GROUND_TRUTH, values, cfg),
                            values=values, errors=[])


@dataclass
class ComparisonReport:
    summaries: list[IndicatorSummary]
    baseline: str
    fuel_saving_pct: dict[str, float]
    config_echo: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "controllers": [s.to_json_dict() for s in self.summaries],
            "baseline": self.baseline,
            "fuel_saving_pct": self.fuel_saving_pct,
            "config_echo": self.config_echo,
        }

    def render_text(self) -> str:
        """Aligned table in the published column order."""
        header = ("Model", "TTC (s)", "Jerk (m/s^3)", "Time Headway (s)",
                  "Fuel Consumption (mL/s)", "Fuel Saving (%)", "Collisions")
        rows = [header]
        for s in self.summaries:
            means = (s.mean_ttc, s.mean_abs_jerk, s.mean_headway, s.mean_fuel_rate)
            saving = self.fuel_saving_pct.get(s.name)
            rows.append((
                s.name,
                *("-" if not math.isfinite(m) else f"{m:.3f}" for m in means),
                "-" if saving is None else f"{saving:.2f}",
                str(s.collisions),
            ))
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        lines = []
        for i, row in enumerate(rows):
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines) + "\n"


def compare(summaries: Sequence[IndicatorSummary],
            baseline: str = GROUND_TRUTH,
            config_echo: dict | None = None) -> ComparisonReport:
    """Fuel savings of each controller relative to the baseline summary."""
    by_name = {s.name: s for s in summaries}
    if baseline not in by_name:
        raise ValueError(f"baseline {baseline!r} missing from summaries {sorted(by_name)}")
    base_fuel = by_name[baseline].mean_fuel_rate
    saving = {s.name: 100.0 * (1.0 - s.mean_fuel_rate / base_fuel)
              for s in summaries if s.name != baseline}
    return ComparisonReport(
        summaries=list(summaries),
        baseline=baseline,
        fuel_saving_pct=saving,
        config_echo=config_echo or {},
    )


INDICATOR_FILES = ("ttc", "jerk", "headway", "fuel_rate")


def export_distributions(values_by_controller: dict[str, Sequence[TraceValues]],
                         out_dir, cfg: EvalConfig = EvalConfig()) -> list[Path]:
    """Per-indicator histogram CSVs with bin edges shared across controllers.

    TTC and jerk are exported signed (their observed distributions are
    two-sided); headway covers moving steps, fuel rate every step.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    pooled: dict[str, dict[str, np.ndarray]] = {name: {} for name in INDICATOR_FILES}
    for ctrl, values in values_by_controller.items():
        pooled["ttc"][ctrl] = np.concatenate([v.ttc_signed for v in values]) if values else np.array([])
        pooled["jerk"][ctrl] = np.concatenate([v.jerk for v in values]) if values else np.array([])
        pooled["headway"][ctrl] = np.concatenate([v.headway for v in values]) if values else np.array([])
        pooled["fuel_rate"][ctrl] = np.concatenate([v.fuel_rate for v in values]) if values else np.array([])

    written = []
    controllers = list(values_by_controller)
    for indicator in INDICATOR_FILES:
        per_ctrl = pooled[indicator]
        everything = np.concatenate([per_ctrl[c] for c in controllers]) if controllers else np.array([])
        path = out_dir / f"{indicator}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bin_left", "bin_right", *controllers])
            if everything.size:
                edges = histogram_edges(everything, cfg.bins)
                counts = {c: np.histogram(per_ctrl[c], bins=edges)[0] for c in controllers}
                for i in range(len(edges) - 1):
                    writer.writerow([repr(float(edges[i])), repr(float(edges[i + 1])),
                                     *[int(counts[c][i]) for c in controllers]])
        written.append(path)
    return written
