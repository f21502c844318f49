"""Controller evaluation over a test set and Table-style comparison reports.

The ground-truth "controller" is a direct read-off of the recorded arrays, so
its indicators reproduce the raw data exactly regardless of how consistent the
recording is; model controllers (policy, IDM) are rolled out through the
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


def pooled_steps(traces: Sequence[SimulatedTrace], fuel_model: VtMicroModel,
                 cfg: EvalConfig = EvalConfig()) -> dict[str, np.ndarray]:
    """Per-step indicator arrays of all traces, pooled in trace order.

    Keys: ``ttc`` (signed, clipped to +/- cap, any nonzero rel speed),
    ``jerk``, ``headway`` (steps above the speed floor) and ``fuel_rate``
    (every step), one distribution file each, then ``ttc_closing`` (capped,
    closing-gap steps only). Jerk is ``indicators.jerk`` of each trace: one
    difference over the pooled accelerations, whose first step of each trace
    is set to its acceleration (the acceleration before step 0 is 0, and
    x - 0.0 is x), divided by each step's trace dt.
    """
    v_follow = np.concatenate([tr.v_follow for tr in traces])
    spacing = np.concatenate([tr.spacing for tr in traces])
    rel_speed = np.concatenate([tr.rel_speed for tr in traces])
    accel = np.concatenate([tr.accel for tr in traces])
    lengths = [len(tr) for tr in traces]
    starts = np.cumsum([0] + lengths[:-1])[np.array(lengths, dtype=bool)]
    jerk = np.diff(accel, prepend=0.0)
    jerk[starts] = accel[starts]
    jerk /= np.repeat([tr.dt for tr in traces], lengths)
    return {
        "ttc": indicators.ttc_signed(spacing, rel_speed, cfg.ttc_cap),
        "jerk": jerk,
        "headway": indicators.headway(spacing, v_follow),
        "fuel_rate": fuel_model.rates(v_follow, accel),
        "ttc_closing": indicators.ttc_closing(spacing, rel_speed, cfg.ttc_cap),
    }


@dataclass
class EvaluationResult:
    summary: IndicatorSummary
    traces: dict[str, SimulatedTrace]  # evaluated events by event_id, in event_id order
    steps: dict[str, np.ndarray]       # pooled_steps of those traces
    errors: list[tuple[str, str]]      # (event_id, message)


def _mean(pooled: np.ndarray) -> float:
    return float(np.mean(pooled)) if pooled.size else float("nan")


def summarize_traces(name: str, traces: Sequence[SimulatedTrace], steps: dict[str, np.ndarray],
                     cfg: EvalConfig = EvalConfig(), errors: int = 0) -> IndicatorSummary:
    """Aggregate the four indicators over traces from their pooled steps.

    A non-finite fuel rate raises NonFiniteFuelError naming the first such
    step and its event.
    """
    if not traces:
        raise ValueError("summarize_traces needs at least one trace")
    fuel = steps["fuel_rate"]
    ends = np.cumsum([len(tr) for tr in traces])
    bad = np.flatnonzero(~np.isfinite(fuel))
    if bad.size:
        i = int(np.searchsorted(ends, bad[0], side="right"))
        raise NonFiniteFuelError(
            f"controller {name!r}: non-finite VT-Micro fuel rate {fuel[bad[0]]} "
            f"at step {bad[0] - (ends[i - 1] if i else 0)} of event {traces[i].event_id}")
    total_fuel = sum(float(np.sum(fuel[end - len(tr):end])) * tr.dt
                     for tr, end in zip(traces, ends))
    total_time = sum(tr.duration for tr in traces)
    jerk = steps["jerk"]
    return IndicatorSummary(
        name=name,
        mean_ttc=_mean(steps["ttc_closing"]),
        mean_abs_jerk=_mean(np.abs(jerk)),
        mean_headway=_mean(steps["headway"]),
        mean_fuel_rate=total_fuel / total_time,
        events_evaluated=len(traces),
        collisions=sum(tr.collided for tr in traces),
        errors=errors,
        metadata={
            "rms_jerk_m_s3": float(np.sqrt(np.mean(jerk ** 2))) if jerk.size else float("nan"),
            "ttc_steps": int(steps["ttc_closing"].size),
            "headway_steps": int(steps["headway"].size),
            "total_steps": int(ends[-1]),
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
    steps = pooled_steps(traces, fuel_model, cfg)
    return EvaluationResult(summary=summarize_traces(name, traces, steps, cfg, len(errors)),
                            traces={tr.event_id: tr for tr in traces}, steps=steps, errors=errors)


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


def compare(summaries: Sequence[IndicatorSummary],
            baseline: str = GROUND_TRUTH,
            config_echo: dict | None = None) -> dict:
    """The ``report.json`` body: every summary and each controller's fuel saving
    against the baseline summary, null where that is undefined (a zero
    baseline rate)."""
    by_name = {s.name: s for s in summaries}
    if baseline not in by_name:
        raise ValueError(f"baseline {baseline!r} missing from summaries {sorted(by_name)}")
    base_fuel = by_name[baseline].mean_fuel_rate
    saving = {s.name: _finite_or_none(100.0 * (1.0 - s.mean_fuel_rate / base_fuel))
              if base_fuel else None for s in summaries if s.name != baseline}
    return {"controllers": [s.to_json_dict() for s in summaries], "baseline": baseline,
            "fuel_saving_pct": saving, "config_echo": config_echo or {}}


def render_text(report: dict) -> str:
    """The ``compare`` report body as an aligned table in the published column
    order, which is the order of each controller's indicators; a null figure
    is shown as ``-``."""
    header = ("Model", "TTC (s)", "Jerk (m/s^3)", "Time Headway (s)",
              "Fuel Consumption (mL/s)", "Fuel Saving (%)", "Collisions")
    rows = [header]
    for c in report["controllers"]:
        saving = report["fuel_saving_pct"].get(c["name"])
        rows.append((
            c["name"],
            *("-" if m is None else f"{m:.3f}" for m in c["indicators"].values()),
            "-" if saving is None else f"{saving:.2f}",
            str(c["collisions"]),
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def export_distributions(steps_by_controller: dict[str, dict[str, np.ndarray]],
                         out_dir, cfg: EvalConfig = EvalConfig()) -> list[Path]:
    """Per-indicator histogram CSVs of pooled_steps, with bin edges shared
    across controllers.

    TTC and jerk are exported signed (their observed distributions are
    two-sided); headway covers moving steps, fuel rate every step.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    controllers = list(steps_by_controller)
    written = []
    for indicator in ("ttc", "jerk", "headway", "fuel_rate"):
        per_ctrl = [steps[indicator] for steps in steps_by_controller.values()]
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
