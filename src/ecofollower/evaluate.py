"""Controller evaluation over a test set and Table-style comparison reports.

The ground-truth "controller" is a direct read-off of the recorded arrays, so
its indicators reproduce the raw data exactly regardless of how consistent the
recording is; simulated controllers (policy, IDM) are rolled out through the
environment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import indicators
from .env import Controller, EnvConfig, DEFAULT_ENV, SimulatedTrace, rollout_batch
from .events import CarFollowingEvent, histogram_edges, write_csv
from .vtmicro import VtMicroModel

ControllerFactory = Callable[[CarFollowingEvent], Controller]

GROUND_TRUTH = "ground_truth"


class EmptyResultError(RuntimeError):
    """Nothing was left to evaluate: no events, or a controller failed on all of them."""


class NonFiniteFuelError(ArithmeticError):
    """A VT-Micro fuel rate overflowed, so no fuel figure of the run would mean anything."""


@dataclass(frozen=True)
class EvalConfig:
    ttc_cap: float = indicators.TTC_CAP   # s; closing-gap TTC is capped before averaging
    bins: int = 50

    def __post_init__(self):
        if self.bins < 1:
            raise ValueError(f"bins must be >= 1, got {self.bins}")
        if not self.ttc_cap > 0:
            raise ValueError(f"ttc_cap must be positive, got {self.ttc_cap}")


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


def _check_fuel(name: str, values: Sequence[TraceValues]) -> None:
    """Raise NonFiniteFuelError naming the first event and step whose fuel rate is not finite."""
    for v in values:
        bad = np.flatnonzero(~np.isfinite(v.fuel_rate))
        if bad.size:
            k = int(bad[0])
            raise NonFiniteFuelError(
                f"controller {name!r}: non-finite VT-Micro fuel rate {v.fuel_rate[k]} "
                f"at step {k} of event {v.trace.event_id}")


@dataclass
class EvaluationResult:
    summary: IndicatorSummary
    values: list[TraceValues]      # one per evaluated event, in event_id order
    errors: list[tuple[str, str]]  # (event_id, message)

    @property
    def traces(self) -> dict[str, SimulatedTrace]:
        return {v.trace.event_id: v.trace for v in self.values}


def _mean(chunks: list[np.ndarray]) -> float:
    pooled = np.concatenate(chunks) if chunks else np.array([])
    return float(np.mean(pooled)) if pooled.size else float("nan")


def summarize_traces(name: str, values: Sequence[TraceValues],
                     cfg: EvalConfig = EvalConfig(), errors: int = 0) -> IndicatorSummary:
    """Aggregate the four indicators over traces, pooling the steps of all events."""
    if not values:
        raise ValueError("summarize_traces needs at least one trace")
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


def _result(name: str, outcomes: dict[str, SimulatedTrace | Exception],
            fuel_model: VtMicroModel, cfg: EvalConfig) -> EvaluationResult:
    """Score the traces among event_id-ordered outcomes and list the events that failed."""
    traces = [o for o in outcomes.values() if isinstance(o, SimulatedTrace)]
    errors = [(eid, str(o)) for eid, o in outcomes.items() if not isinstance(o, SimulatedTrace)]
    if not traces:
        first = "; ".join(f"{eid}: {msg}" for eid, msg in errors[:3])
        raise EmptyResultError(f"controller {name!r} failed on every event; first errors: {first}")
    values = [trace_values(tr, fuel_model, cfg) for tr in traces]
    _check_fuel(name, values)
    return EvaluationResult(summary=summarize_traces(name, values, cfg, errors=len(errors)),
                            values=values, errors=errors)


def evaluate_controller(controller_factory: ControllerFactory, name: str,
                        events: Sequence[CarFollowingEvent],
                        fuel_model: VtMicroModel,
                        env_config: EnvConfig = DEFAULT_ENV,
                        cfg: EvalConfig = EvalConfig()) -> EvaluationResult:
    """Roll the controller out over every event and aggregate indicators.

    The factory is called once per event, and only the events given the same
    controller object are rolled out together by ``rollout_batch``: a factory
    that builds a new controller per event rolls each event out alone. A failure
    on one event is recorded and excluded from the means; it never aborts the
    others. A non-finite fuel rate on any trace raises NonFiniteFuelError.
    Traces and errors are kept in event_id order.
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
    return _result(name, outcomes, fuel_model, cfg)


def evaluate_ground_truth(events: Sequence[CarFollowingEvent],
                          fuel_model: VtMicroModel,
                          cfg: EvalConfig = EvalConfig()) -> EvaluationResult:
    """Indicators of the recorded behavior itself; NonFiniteFuelError if a
    recorded step's fuel rate is not finite."""
    if not events:
        raise ValueError("evaluate_ground_truth needs a non-empty test set")
    ordered = sorted(events, key=lambda e: e.event_id)
    return _result(GROUND_TRUTH, {ev.event_id: trace_from_event(ev) for ev in ordered},
                   fuel_model, cfg)


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


# each distribution file and the TraceValues field it pools
INDICATOR_FILES = {"ttc": "ttc_signed", "jerk": "jerk", "headway": "headway",
                   "fuel_rate": "fuel_rate"}


def export_distributions(values_by_controller: dict[str, Sequence[TraceValues]],
                         out_dir, cfg: EvalConfig = EvalConfig()) -> list[Path]:
    """Per-indicator histogram CSVs with bin edges shared across controllers.

    TTC and jerk are exported signed (their observed distributions are
    two-sided); headway covers moving steps, fuel rate every step.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    controllers = list(values_by_controller)
    written = []
    for indicator, attr in INDICATOR_FILES.items():
        per_ctrl = [np.concatenate([getattr(v, attr) for v in values]) if values else np.array([])
                    for values in values_by_controller.values()]
        everything = np.concatenate(per_ctrl) if per_ctrl else np.array([])
        path = out_dir / f"{indicator}.csv"
        blocks = []
        if everything.size:
            edges = histogram_edges(everything, cfg.bins)
            blocks.append((edges[:-1], edges[1:],
                           *(np.histogram(pooled, bins=edges)[0] for pooled in per_ctrl)))
        write_csv(path, ("bin_left", "bin_right", *controllers), *blocks)
        written.append(path)
    return written
