"""A row-at-a-time reader of event tables: the oracle for ``events.extract_events``.

It reads the file as UTF-8, skipping a byte order mark, with
``csv.DictReader``, parses every mapped cell as numpy's reader does and
scales it as it goes, then groups rows by event id and sorts each event by
scaled ``t``. numpy's reader takes a cell when ``float()`` takes it stripped
of whitespace and it is then ASCII without an underscore; it strips a byte
0x1C-0x1F too, so a file holding one is refused by the byte's offset. Its
departure from the plain loop is the ``eid is None`` check, made before the
numbers as numpy checks the event id column first: a record too short to
hold that column raises ``DataError`` instead of filing its samples under an
event named ``None``.
"""

import csv
import re
from pathlib import Path

from ecofollower.events import (CANONICAL_FIELDS, DT_TOLERANCE, NUMERIC_FIELDS,
                                CarFollowingEvent, ColumnMapping, DataError,
                                ExtractionResult, SchemaError)


def extract_events_rowwise(path, mapping: ColumnMapping | None = None,
                           min_duration: float = 15.0,
                           expected_dt: float | None = None) -> ExtractionResult:
    mapping = mapping or ColumnMapping.identity()
    rows_by_event: dict[str, list[tuple[float, ...]]] = {}
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty file")
        missing = [mapping.columns[f] for f in CANONICAL_FIELDS
                   if mapping.columns[f] not in reader.fieldnames]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}")
        if separator := re.search(rb"[\x1c-\x1f]", path.read_bytes()):
            raise DataError(f"{path}: byte {separator[0][0]:#04x} at offset {separator.start()} "
                            "is an ASCII information separator")
        for lineno, row in enumerate(reader, start=2):
            eid = row[mapping.columns["event_id"]]
            if eid is None:
                raise DataError(f"{path}:{lineno}: missing event id")
            try:
                values = tuple(_number(row[mapping.columns[f]]) * mapping.scale.get(f, 1.0)
                               for f in NUMERIC_FIELDS)
            except (AttributeError, ValueError) as exc:   # a cell past the record's end is None
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


def _number(cell: str) -> float:
    """The value of ``cell`` as numpy's reader parses it; a ValueError if it refuses it."""
    text = cell.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"numpy's reader refuses {cell!r}")
    return float(text)
