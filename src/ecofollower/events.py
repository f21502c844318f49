"""Leader-follower trajectory ingestion, event extraction and dataset handling.

Normalized event files are flat CSVs with header
``event_id,t,x_lead,v_lead,x_follow,v_follow``; one file holds many events.
Raw sources with other column names/units are adapted through a
:class:`ColumnMapping`.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import operator
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
READ_CHUNK_ROWS = 1024         # records parsed at a time; bounds the Python objects alive


class SchemaError(ValueError):
    """Input file lacks an expected column or is structurally unreadable."""


def read_json(path, what: str):
    """The value in the JSON file ``path``, decoded by JSON's own UTF-8/16/32
    rules rather than the locale's. A file that does not decode or parse, or
    nests too deep to, raises SchemaError naming ``what`` and the path; an
    OSError passes through."""
    try:
        return json.loads(Path(path).read_bytes())
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{what} {path} is not valid JSON: {exc}") from exc


def json_object(value, where: str, known, error=ValueError) -> dict:
    """``value`` if it is a JSON object whose keys are all in ``known``, else
    ``error`` naming ``where`` (and ``where.key`` of each unknown key)."""
    if not isinstance(value, dict):
        raise error(f"{where} must be a JSON object, got {type(value).__name__}")
    unknown = [f"{where}.{k}" for k in sorted(set(value) - set(known))]
    if unknown:
        raise error(f"unknown keys {', '.join(unknown)}; expected some of {list(known)}")
    return value


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
        json_object(self.columns, "mapping.columns", CANONICAL_FIELDS, SchemaError)
        json_object(self.scale, "mapping.scale", NUMERIC_FIELDS, SchemaError)
        missing = [f for f in CANONICAL_FIELDS if f not in self.columns]
        if missing:
            raise SchemaError(f"mapping missing canonical fields: {missing}")
        try:
            object.__setattr__(self, "scale", {k: float(v) for k, v in self.scale.items()})
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"mapping scale factor is not a number: {exc}") from exc

    @classmethod
    def identity(cls) -> "ColumnMapping":
        return cls(columns={f: f for f in CANONICAL_FIELDS})

    @classmethod
    def from_json(cls, path) -> "ColumnMapping":
        """The mapping in the JSON file ``path``; any fault raises SchemaError naming it."""
        obj = read_json(path, "mapping")
        try:
            obj = json_object(obj, "mapping", ("columns", "scale"), SchemaError)
            if "columns" not in obj:
                raise SchemaError("mapping has no 'columns' block")
            return cls(columns=obj["columns"], scale=obj.get("scale", {}))
        except SchemaError as exc:
            raise SchemaError(f"{path}: {exc} (a mapping is a JSON object of JSON objects "
                              "'columns' and optionally 'scale')") from exc


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

    Events come in order of first appearance, each one's rows stably sorted
    by scaled ``t``. Blank lines are skipped, unmapped columns are ignored,
    and of two columns with the same name the last one is read.
    """
    mapping = mapping or ColumnMapping.identity()
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty file")
            missing = [mapping.columns[f] for f in CANONICAL_FIELDS
                       if mapping.columns[f] not in header]
            if missing:
                raise SchemaError(f"{path}: missing columns {missing}")
            position = {name: i for i, name in enumerate(header)}
            where = [position[mapping.columns[f]] for f in CANONICAL_FIELDS]
            code_of, codes, columns = _read_columns(reader, where, path)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}") from exc

    events: list[CarFollowingEvent] = []
    rejected: list[tuple[str, str]] = []
    if not codes:
        return ExtractionResult(events=events, rejected=rejected)
    codes = np.concatenate(codes)
    columns = [np.concatenate(chunks) for chunks in columns]
    # an overflow gives inf and inf * 0 nan without a warning, as float * float does
    with np.errstate(over="ignore", invalid="ignore"):
        columns = [col * mapping.scale[f] if f in mapping.scale else col
                   for f, col in zip(NUMERIC_FIELDS, columns)]
    order = np.lexsort((columns[0], codes))
    columns = [col[order] for col in columns]
    ends = np.cumsum(np.bincount(codes, minlength=len(code_of))).tolist()
    for eid, start, end in zip(code_of, [0, *ends], ends):
        if end - start < 2:
            rejected.append((eid, "too_few_samples"))
            continue
        ev = CarFollowingEvent.from_arrays(eid, *(col[start:end] for col in columns))
        if expected_dt is not None and abs(ev.dt - expected_dt) > DT_TOLERANCE:
            raise DataError(f"event {eid}: dt {ev.dt:g} does not match expected {expected_dt:g}")
        if ev.duration < min_duration:
            rejected.append((eid, "too_short"))
            continue
        events.append(ev)
    return ExtractionResult(events=events, rejected=rejected)


def _read_columns(reader, where: list[int], path):
    """Parse the records of ``reader`` in chunks of ``READ_CHUNK_ROWS``.

    ``where`` holds the positions of the canonical fields. Each numeric
    column of a chunk is parsed with ``float()``, cell by cell; a chunk that
    fails is scanned again record by record for the line to name. Returns the
    event ids, each mapped to its code in order of first appearance, and the
    per-chunk arrays of the codes and of each numeric column.
    """
    pick = operator.itemgetter(*where)
    code_of: dict[str, int] = {}
    codes: list[np.ndarray] = []
    columns: list[list[np.ndarray]] = [[] for _ in NUMERIC_FIELDS]
    lineno = 2  # of the chunk's first record; blank lines are not records
    while rows := list(itertools.islice(reader, READ_CHUNK_ROWS)):
        if [] in rows:
            rows = [row for row in rows if row]
        if not rows:
            continue
        try:
            eids, *cells = zip(*map(pick, rows))
            parsed = [np.fromiter(map(float, col), float, len(col)) for col in cells]
        except (IndexError, ValueError):
            _check_rows(path, rows, where, lineno)
            raise
        for eid in dict.fromkeys(eids):
            code_of.setdefault(eid, len(code_of))
        codes.append(np.fromiter(map(code_of.__getitem__, eids), np.intp, len(eids)))
        for chunks, col in zip(columns, parsed):
            chunks.append(col)
        lineno += len(rows)
    return code_of, codes, columns


def _check_rows(path, rows, where: list[int], lineno: int) -> None:
    """Raise the DataError of the first record in ``rows`` that lacks a
    mapped cell or holds a numeric cell ``float()`` rejects."""
    for offset, row in enumerate(rows):
        try:
            for i in where[1:]:
                float(row[i])
        except (IndexError, ValueError) as exc:
            raise DataError(f"{path}:{lineno + offset}: unparsable numeric value") from exc
        if where[0] >= len(row):
            raise DataError(f"{path}:{lineno + offset}: missing event id")


def load_events(path, mapping: ColumnMapping | None = None,
                min_duration: float = DEFAULT_MIN_DURATION) -> list[CarFollowingEvent]:
    """Load all qualifying events from a trajectory CSV."""
    return extract_events(path, mapping, min_duration).events


def write_csv(path, header: Sequence[str], *blocks) -> None:
    """Write a CSV table: the header row, then the rows of each block in turn.

    A block is a sequence of equal-length columns (arrays or lists); each
    column is converted to Python scalars once, so floats are written as their
    ``repr`` (and round-trip exactly) and integers as integers. Lines end in
    CRLF and a cell holding a comma or a quote is quoted.

    Each block goes out in one write. Its numeric cells are their ``repr``;
    its string cells come from the csv module, once per distinct string.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for columns in blocks:
            arrays = [np.asarray(col) for col in columns]
            if len(arrays) < 2 or any(a.ndim != 1 or a.dtype.kind not in "biufU" for a in arrays):
                # row by row: the csv module quotes a row's lone empty cell, and
                # writes str(), not repr(), of objects
                writer.writerows(zip(*(a.tolist() for a in arrays)))
                continue
            lines = list(map(",".join, zip(*(_cells(a) for a in arrays))))
            if lines:
                lines.append("")  # so the join ends the last line too
                fh.write("\r\n".join(lines))


def _cells(column: np.ndarray):
    """The CSV text of each cell of a 1-D numeric or string column."""
    values = column.tolist()
    if column.dtype.kind != "U":
        return map(repr, values)
    buf = io.StringIO()
    writer = csv.writer(buf)
    text = {}
    for value in dict.fromkeys(values):
        buf.seek(0)
        buf.truncate()
        writer.writerow((value, "x"))  # not alone in its row, so "" stays unquoted
        text[value] = buf.getvalue()[:-len(",x\r\n")]
    return map(text.__getitem__, values)


def write_events(events: Sequence[CarFollowingEvent], path) -> None:
    """Write events in the normalized CSV format, one block per event."""
    write_csv(path, CANONICAL_FIELDS,
              *(([ev.event_id] * len(ev), ev.t, ev.x_lead, ev.v_lead, ev.x_follow, ev.v_follow)
                for ev in events))


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
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
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


def _summary(values: np.ndarray) -> dict[str, float]:
    return {"mean": float(np.mean(values)), "min": float(np.min(values)), "max": float(np.max(values))}


def _histogram(values: np.ndarray, bins: int) -> dict[str, list]:
    edges = histogram_edges(values, bins)
    count, _ = np.histogram(values, bins=edges)
    return {"bin_left": edges[:-1].tolist(), "bin_right": edges[1:].tolist(), "count": count.tolist()}


def descriptive_stats(events: Sequence[CarFollowingEvent], bins: int = 50) -> dict:
    """The ``stats.json`` body: means/min/max of speeds and gap plus histograms
    (``bin_left``/``bin_right``/``count`` lists) of them and the derived metrics.

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
    return {
        "events": len(events),
        "samples": len(lead),
        "lead_speed": _summary(lead),
        "follow_speed": _summary(follow),
        "gap": _summary(gap),
        "histograms": {
            "lead_speed": _histogram(lead, bins),
            "follow_speed": _histogram(follow, bins),
            "gap": _histogram(gap, bins),
            "ttc": _histogram(np.concatenate(ttc_vals), bins),
            "jerk": _histogram(np.concatenate(jerk_vals), bins),
            "headway": _histogram(np.concatenate(headway_vals), bins),
        },
    }


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
