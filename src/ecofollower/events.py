"""Leader-follower trajectory ingestion, event extraction and dataset handling.

Normalized event files are flat CSVs with header
``event_id,t,x_lead,v_lead,x_follow,v_follow``; one file holds many events.
Raw sources with other column names/units are adapted through a
:class:`ColumnMapping`.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import indicators
from .rng import SplitMix64

CANONICAL_FIELDS = ("event_id", "t", "x_lead", "v_lead", "x_follow", "v_follow")
NUMERIC_FIELDS = CANONICAL_FIELDS[1:]

DT_TOLERANCE = 1e-9            # max deviation of a time delta from the event dt, s
DEFAULT_MIN_DURATION = 15.0    # shortest event kept at extraction, s


class SchemaError(ValueError):
    """Input file lacks an expected column or is structurally unreadable."""


class DataError(ValueError):
    """Row values violate trajectory invariants."""


class FitError(ValueError):
    """Too few valid samples to fit the headway distribution."""


@dataclass(frozen=True)
class CarFollowingEvent:
    """A leader-follower pair sampled at a constant interval ``dt``.

    Arrays are parallel and time-ordered; ``time`` is re-based to start at 0.
    """

    event_id: str
    dt: float
    t: np.ndarray
    x_lead: np.ndarray
    v_lead: np.ndarray
    x_follow: np.ndarray
    v_follow: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    @property
    def duration(self) -> float:
        return (len(self.t) - 1) * self.dt

    @property
    def gap(self) -> np.ndarray:
        return self.x_lead - self.x_follow

    @classmethod
    def from_arrays(cls, event_id, t, x_lead, v_lead, x_follow, v_follow) -> "CarFollowingEvent":
        """Build and validate an event from parallel arrays."""
        arrays = [np.array(a, dtype=float) for a in (t, x_lead, v_lead, x_follow, v_follow)]
        t, x_lead, v_lead, x_follow, v_follow = arrays
        n = len(t)
        if any(len(a) != n for a in arrays):
            raise DataError(f"event {event_id}: arrays have mismatched lengths")
        if n < 2:
            raise DataError(f"event {event_id}: needs at least 2 samples, got {n}")
        if not all(np.isfinite(a).all() for a in arrays):
            raise DataError(f"event {event_id}: non-finite sample values")
        deltas = np.diff(t)
        if np.any(deltas <= 0):
            raise DataError(f"event {event_id}: timestamps not strictly increasing")
        dt = float(np.median(deltas))
        if np.max(np.abs(deltas - dt)) > DT_TOLERANCE:
            raise DataError(f"event {event_id}: non-uniform timestep (dt={dt:g})")
        if np.any(v_lead < 0) or np.any(v_follow < 0):
            raise DataError(f"event {event_id}: negative speed")
        if np.any(x_lead - x_follow <= 0):
            raise DataError(f"event {event_id}: leader not strictly ahead of follower")
        t = t - t[0]
        for a in (t, x_lead, v_lead, x_follow, v_follow):
            a.setflags(write=False)
        return cls(str(event_id), dt, t, x_lead, v_lead, x_follow, v_follow)


@dataclass(frozen=True)
class ColumnMapping:
    """Maps raw source columns onto the six canonical fields.

    ``scale`` holds optional per-field multiplicative unit factors applied at
    load (e.g. 0.3048 for feet -> meters; 0.001 for ms -> s on ``t``).
    """

    columns: dict[str, str]
    scale: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        missing = [f for f in CANONICAL_FIELDS if f not in self.columns]
        if missing:
            raise SchemaError(f"mapping missing canonical fields: {missing}")

    @classmethod
    def identity(cls) -> "ColumnMapping":
        return cls(columns={f: f for f in CANONICAL_FIELDS})

    @classmethod
    def from_json(cls, path) -> "ColumnMapping":
        with open(path) as fh:
            obj = json.load(fh)
        return cls(columns=dict(obj["columns"]), scale={k: float(v) for k, v in obj.get("scale", {}).items()})


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[CarFollowingEvent, ...]
    test: tuple[CarFollowingEvent, ...]
    seed: int


@dataclass
class ExtractionResult:
    events: list[CarFollowingEvent]
    rejected: list[tuple[str, str]]  # (event_id, reason)


def extract_events(path, mapping: ColumnMapping | None = None,
                   min_duration: float = DEFAULT_MIN_DURATION,
                   expected_dt: float | None = None) -> ExtractionResult:
    """Read a trajectory CSV, group rows into events, validate and filter.

    Events shorter than ``min_duration`` (or with fewer than 2 samples) are
    rejected with a reason; structural problems raise SchemaError/DataError.
    When ``expected_dt`` is given, events whose inferred dt deviates from it
    by more than the uniformity tolerance raise DataError.
    """
    mapping = mapping or ColumnMapping.identity()
    rows_by_event: dict[str, list[tuple[float, ...]]] = {}
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty file")
        missing = [mapping.columns[f] for f in CANONICAL_FIELDS
                   if mapping.columns[f] not in reader.fieldnames]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}")
        for lineno, row in enumerate(reader, start=2):
            eid = row[mapping.columns["event_id"]]
            try:
                values = tuple(
                    float(row[mapping.columns[f]]) * mapping.scale.get(f, 1.0)
                    for f in NUMERIC_FIELDS
                )
            except (TypeError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: unparsable numeric value") from exc
            rows_by_event.setdefault(eid, []).append(values)

    events: list[CarFollowingEvent] = []
    rejected: list[tuple[str, str]] = []
    for eid, rows in rows_by_event.items():
        rows.sort(key=lambda r: r[0])
        cols = list(zip(*rows))
        if len(rows) < 2:
            rejected.append((eid, "too_few_samples"))
            continue
        ev = CarFollowingEvent.from_arrays(eid, *cols)
        if expected_dt is not None and abs(ev.dt - expected_dt) > DT_TOLERANCE:
            raise DataError(f"event {eid}: dt {ev.dt:g} does not match expected {expected_dt:g}")
        if ev.duration < min_duration:
            rejected.append((eid, "too_short"))
            continue
        events.append(ev)
    return ExtractionResult(events=events, rejected=rejected)


def load_events(path, mapping: ColumnMapping | None = None,
                min_duration: float = DEFAULT_MIN_DURATION) -> list[CarFollowingEvent]:
    """Load all qualifying events from a trajectory CSV."""
    return extract_events(path, mapping, min_duration).events


def write_events(events: Sequence[CarFollowingEvent], path) -> None:
    """Write events in the normalized CSV format (floats round-trip exactly)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CANONICAL_FIELDS)
        for ev in events:
            for i in range(len(ev)):
                writer.writerow([
                    ev.event_id,
                    repr(float(ev.t[i])),
                    repr(float(ev.x_lead[i])),
                    repr(float(ev.v_lead[i])),
                    repr(float(ev.x_follow[i])),
                    repr(float(ev.v_follow[i])),
                ])


def split_dataset(events: Sequence[CarFollowingEvent], ratio: float, seed: int) -> DatasetSplit:
    """Deterministic shuffle-and-cut split; train gets floor(ratio * n)."""
    if not events:
        raise ValueError("cannot split an empty event set")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must be in (0, 1), got {ratio}")
    order = list(range(len(events)))
    SplitMix64(seed).shuffle(order)
    n_train = math.floor(ratio * len(events) + 1e-9)  # guard float dust just below an integer
    train = tuple(events[i] for i in order[:n_train])
    test = tuple(events[i] for i in order[n_train:])
    return DatasetSplit(train=train, test=test, seed=seed)


def histogram_edges(values: np.ndarray, bins: int) -> np.ndarray:
    """Equal-width bin edges spanning the data.

    A degenerate or effectively-constant range (all values equal up to float
    dust) is padded to unit width so the edges stay strictly increasing.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return np.linspace(0.0, 1.0, bins + 1)
    lo, hi = float(values.min()), float(values.max())
    if hi - lo <= max(abs(lo), abs(hi), 1.0) * 1e-9:
        center = (lo + hi) / 2.0
        lo, hi = center - 0.5, center + 0.5
        if bins % 2 == 0:  # keep the constant value mid-bin, not on an edge
            lo += 0.5 / bins
            hi += 0.5 / bins
    return np.linspace(lo, hi, bins + 1)


@dataclass(frozen=True)
class Histogram:
    bin_left: np.ndarray
    bin_right: np.ndarray
    count: np.ndarray

    @classmethod
    def of(cls, values: np.ndarray, bins: int) -> "Histogram":
        values = np.asarray(values, dtype=float)
        edges = histogram_edges(values, bins)
        count, _ = np.histogram(values, bins=edges)
        return cls(edges[:-1], edges[1:], count)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bin_left", "bin_right", "count"])
            for left, right, n in zip(self.bin_left, self.bin_right, self.count):
                writer.writerow([repr(float(left)), repr(float(right)), int(n)])


@dataclass(frozen=True)
class StatsReport:
    events: int
    samples: int
    lead_speed: dict[str, float]
    follow_speed: dict[str, float]
    gap: dict[str, float]
    histograms: dict[str, Histogram]

    def to_json_dict(self) -> dict:
        out = {
            "events": self.events,
            "samples": self.samples,
            "lead_speed": self.lead_speed,
            "follow_speed": self.follow_speed,
            "gap": self.gap,
        }
        out["histograms"] = {
            name: {
                "bin_left": [float(x) for x in h.bin_left],
                "bin_right": [float(x) for x in h.bin_right],
                "count": [int(n) for n in h.count],
            }
            for name, h in self.histograms.items()
        }
        return out


def _summary(values: np.ndarray) -> dict[str, float]:
    return {"mean": float(np.mean(values)), "min": float(np.min(values)), "max": float(np.max(values))}


def descriptive_stats(events: Sequence[CarFollowingEvent], bins: int = 50) -> StatsReport:
    """Means/min/max of speeds and gap plus histograms of the derived metrics.

    The TTC histogram uses the signed raw value -gap/rel_speed (rel_speed =
    lead - follow), clipped to the TTC cap; jerk is the second difference of
    follower speed; headway excludes steps below the speed floor.
    """
    if not events:
        raise ValueError("descriptive_stats needs at least one event")
    lead, follow, gap = [], [], []
    ttc_vals, jerk_vals, headway_vals = [], [], []
    for ev in events:
        lead.append(ev.v_lead)
        follow.append(ev.v_follow)
        g = ev.gap
        gap.append(g)
        ttc_vals.append(indicators.ttc_signed(g, ev.v_lead - ev.v_follow))
        # step 0's jerk would difference against the zero start, not a sample
        jerk_vals.append(indicators.jerk(np.diff(ev.v_follow) / ev.dt, ev.dt)[1:])
        headway_vals.append(indicators.headway(g, ev.v_follow))
    lead = np.concatenate(lead)
    follow = np.concatenate(follow)
    gap = np.concatenate(gap)
    histograms = {
        "lead_speed": Histogram.of(lead, bins),
        "follow_speed": Histogram.of(follow, bins),
        "gap": Histogram.of(gap, bins),
        "ttc": Histogram.of(np.concatenate(ttc_vals), bins),
        "jerk": Histogram.of(np.concatenate(jerk_vals), bins),
        "headway": Histogram.of(np.concatenate(headway_vals), bins),
    }
    return StatsReport(
        events=len(events),
        samples=len(lead),
        lead_speed=_summary(lead),
        follow_speed=_summary(follow),
        gap=_summary(gap),
        histograms=histograms,
    )


def fit_lognormal_headway(events: Sequence[CarFollowingEvent]) -> tuple[float, float]:
    """Maximum-likelihood lognormal fit of per-step time headways.

    Returns (mu, sigma) = (mean, population stddev) of ln(gap / follow_speed)
    over all steps of all events with follower speed at or above the floor.
    """
    logs = []
    for ev in events:
        h = indicators.headway(ev.gap, ev.v_follow)
        if h.size:
            logs.append(np.log(h))
    n = sum(a.size for a in logs)
    if n < 2:
        raise FitError(f"need at least 2 valid headway samples, got {n}")
    logs = np.concatenate(logs)
    return float(np.mean(logs)), float(np.std(logs))
