"""Leader-follower trajectory ingestion, event extraction and dataset handling.

Normalized event files are flat CSVs with header
``event_id,t,x_lead,v_lead,x_follow,v_follow``; one file holds many events.
Raw sources with other column names/units are adapted through a
:class:`ColumnMapping`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import pickle
import tempfile
import warnings
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
READ_CHUNK_ROWS = 1024         # records parsed per reader call; bounds the Python objects alive
READ_FORK_BYTES = 1 << 21      # smallest file whose records two processes parse
WRITE_FORK_ROWS = 2000         # fewest rows that two processes write (ROADMAP "Floors")
# a record as read: the event id as a str object, then the five numeric cells
RECORD = np.dtype([("event_id", object), *((name, float) for name in NUMERIC_FIELDS)])


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


def json_number(value, where: str, integer: bool = False, error=ValueError):
    """``value`` as a float if it is a finite JSON number, or as an int if ``integer``
    and it is a JSON integer (a bool is neither); else ``error`` naming ``where``.
    A non-finite number would silently switch a check off (a NaN gap never collides)."""
    if integer or type(value) is not float:   # a float skips the two type tests
        if not isinstance(value, int if integer else (int, float)) or isinstance(value, bool):
            raise error(f"{where} must be {'an integer' if integer else 'a number'}, "
                        f"got {json.dumps(value, default=repr)}")
        if integer:
            return value
    try:
        number = float(value)
    except OverflowError:   # an integer past the float range
        number = math.inf
    if math.isfinite(number):
        return number
    raise error(f"{where} must be a finite number, got {json.dumps(value)}")


def json_floats(value, where: str, ndim: int = 1) -> np.ndarray:
    """A JSON list of numbers (``ndim`` 1) or of such lists (``ndim`` 2) as a float array,
    each number read by ``json_number`` as ``where[i]`` (``where[i][j]``). Anything else,
    a row of another length than the first included, is a ValueError naming it."""
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a list, got {json.dumps(value, default=repr)}")
    if ndim > 1:
        rows = [json_floats(r, f"{where}[{i}]", ndim - 1) for i, r in enumerate(value)]
        for i, r in enumerate(rows):
            if len(r) != len(rows[0]):
                raise ValueError(f"{where}[{i}] has {len(r)} numbers, expected {len(rows[0])} "
                                 f"as in {where}[0]")
        return np.array(rows)
    try:
        return np.array([json_number(v, where) for v in value])
    except ValueError:   # name the refused number; naming each one up front costs more
        return np.array([json_number(v, f"{where}[{i}]") for i, v in enumerate(value)])


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
        scale = {k: json_number(v, f"mapping.scale.{k}", error=SchemaError)
                 for k, v in self.scale.items()}
        for k, v in scale.items():
            if v <= 0:
                raise SchemaError(f"mapping.scale.{k} must be positive, got {v!r}")
        object.__setattr__(self, "scale", scale)

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
    and of two columns with the same name the last one is read. A UTF-8
    byte order mark at the start of the file is skipped.

    The header is read by the csv module and the records by numpy's C reader,
    ``READ_CHUNK_ROWS`` at a time; a file of ``READ_FORK_BYTES`` or more that
    holds no ``"`` from two processes, with the result of one. A numeric cell
    is accepted exactly when ``float()`` accepts it: a file numpy refuses is
    read again with the csv module and ``float()``, which parses the
    spellings that only ``float()`` takes (``1_0``, non-ASCII digits) or
    names the first bad record's line.
    """
    mapping = mapping or ColumnMapping.identity()
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise SchemaError(f"{path}: empty file")
            missing = [mapping.columns[f] for f in CANONICAL_FIELDS
                       if mapping.columns[f] not in header]
            if missing:
                raise SchemaError(f"{path}: missing columns {missing}")
            position = {name: i for i, name in enumerate(header)}
            where = [position[mapping.columns[f]] for f in CANONICAL_FIELDS]
            code_of, codes, columns = _read_columns(fh, where, path)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc}") from exc
    except csv.Error as exc:   # from the header read or the float() re-read
        raise SchemaError(f"{path} is not a readable CSV: {exc}") from exc

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


def _read_columns(fh, where: list[int], path):
    """Parse the records after the header of ``fh``, ``READ_CHUNK_ROWS`` at a time.

    ``where`` holds the positions of the canonical fields. numpy's C reader
    parses the chunks; in a quote-free file of ``READ_FORK_BYTES`` or more it
    does so from two processes (``_read_halves``). Where it refuses the file (a
    ValueError, which a UnicodeDecodeError is too), or where the file holds a
    byte 0x1C-0x1F, which it strips around a number and ``float()`` does not,
    the records are read again from the top with ``float()``. Returns the event
    ids, each mapped to its code in order of first appearance, and the
    per-chunk arrays of the codes and of each numeric column.
    """
    separator, cut = _scan(path)
    if not separator:
        try:
            if cut is None:
                return _columns(_loadtxt_chunks(fh, where))
            return _read_halves(path, where, cut)
        except ValueError:
            pass
    fh.seek(0)
    reader = csv.reader(fh)
    next(reader)
    return _columns(_float_chunks(reader, where, path))


def _scan(path) -> tuple[bool, int | None]:
    """Whether the file at ``path`` holds a byte 0x1C-0x1F (in UTF-8, only an
    ASCII information separator); and the offset just past its first LF at or
    after its middle, where a second process may start parsing, or None for a
    file under ``READ_FORK_BYTES``, with a ``"`` or with no such LF before its
    last byte. Without a ``"`` every LF ends a record."""
    separator, quote, cut, offset = False, False, None, 0
    with open(path, "rb") as fh:
        middle = os.fstat(fh.fileno()).st_size // 2
        for block in iter(lambda: fh.read(1 << 20), b""):
            separator = separator or any(sep in block for sep in b"\x1c\x1d\x1e\x1f")
            quote = quote or b'"' in block
            if cut is None and (at := block.find(b"\n", max(0, middle - offset))) >= 0:
                cut = offset + at + 1
            offset += len(block)
    return separator, None if quote or offset < READ_FORK_BYTES or cut == offset else cut


def _read_halves(path, where: list[int], cut: int):
    """``_columns`` of the file at ``path``, whose records from byte ``cut`` on
    another process parses (``in_two``) while this one parses those before it.
    The tail's codes are mapped onto the head's, ids first seen past the cut
    taking the next codes. A ValueError in either half raises one here."""

    def head():
        with _span(path, 0, cut) as fh:
            fh.readline()  # the header and any byte order mark: no quote, so one line
            return _columns(_loadtxt_chunks(fh, where))

    def tail():
        try:
            with _span(path, cut, None) as fh:
                return _columns(_loadtxt_chunks(fh, where))
        except ValueError:  # raised below, so that a failed tail is parsed once
            return None

    (code_of, codes, columns), parsed = in_two(head, tail)
    if parsed is None:
        raise ValueError("numpy refused a record past the cut")
    tail_code_of, tail_codes, tail_columns = parsed
    recode = np.array([code_of.setdefault(eid, len(code_of)) for eid in tail_code_of], np.intp)
    codes += [recode[chunk] for chunk in tail_codes]
    for parsed_column, tail_column in zip(columns, tail_columns):
        parsed_column += tail_column
    return code_of, codes, columns


class _Span(io.RawIOBase):
    """The bytes of the file at ``path`` from ``start`` up to ``stop`` (None:
    its end), as a raw stream that owns its file."""

    def __init__(self, path, start: int, stop: int | None):
        self.fh = open(path, "rb", buffering=0)
        self.fh.seek(start)
        self.left = math.inf if stop is None else stop - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        count = self.fh.readinto(memoryview(buffer)[:min(self.left, len(buffer))])
        self.left -= count
        return count

    def close(self) -> None:
        self.fh.close()
        super().close()


def _span(path, start: int, stop: int | None):
    """A UTF-8 text handle on the bytes ``[start, stop)`` of the file at
    ``path``, its lines split as a handle opened with ``newline=""`` splits them."""
    return io.TextIOWrapper(io.BufferedReader(_Span(path, start, stop)), "utf-8", newline="")


def _loadtxt_chunks(fh, where: list[int]):
    """The records of ``fh`` as numpy's C reader parses them, in RECORD arrays."""
    while True:
        with warnings.catch_warnings():
            # numpy's notes on a blank line and on a read that finds no records
            warnings.simplefilter("ignore", UserWarning)
            chunk = np.loadtxt(fh, RECORD, delimiter=",", quotechar='"', comments=None,
                               usecols=where, ndmin=1, max_rows=READ_CHUNK_ROWS)
        if not len(chunk):
            return
        yield chunk


def _float_chunks(reader, where: list[int], path):
    """The records of ``reader`` with each mapped numeric cell parsed by
    ``float()``, in RECORD arrays. The first record that lacks a mapped cell
    or holds a numeric cell ``float()`` rejects raises DataError naming its
    line, which counts the header and the non-blank records only."""
    rows = enumerate(filter(None, reader), start=2)
    while chunk := list(itertools.islice(rows, READ_CHUNK_ROWS)):
        records = []
        for lineno, row in chunk:
            try:
                values = [float(row[i]) for i in where[1:]]
            except (IndexError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: unparsable numeric value") from exc
            if where[0] >= len(row):
                raise DataError(f"{path}:{lineno}: missing event id")
            records.append((row[where[0]], *values))
        yield np.array(records, RECORD)


def _columns(chunks):
    """The event ids, codes and numeric columns of ``chunks`` of RECORD arrays,
    as ``_read_columns`` returns them."""
    code_of: dict[str, int] = {}
    codes: list[np.ndarray] = []
    columns: list[list[np.ndarray]] = [[] for _ in NUMERIC_FIELDS]
    for chunk in chunks:
        eids = chunk["event_id"].tolist()
        for eid in dict.fromkeys(eids):
            code_of.setdefault(eid, len(code_of))
        codes.append(np.fromiter(map(code_of.__getitem__, eids), np.intp, len(eids)))
        for name, parsed in zip(NUMERIC_FIELDS, columns):
            parsed.append(chunk[name].copy())  # not a view that keeps the chunk's ids alive
    return code_of, codes, columns


def load_events(path, mapping: ColumnMapping | None = None,
                min_duration: float = DEFAULT_MIN_DURATION) -> list[CarFollowingEvent]:
    """Load all qualifying events from a trajectory CSV."""
    return extract_events(path, mapping, min_duration).events


def write_csv(path, header: Sequence[str], *blocks) -> None:
    """Write one CSV table: ``write_tables([(path, header, blocks)])``."""
    write_tables([(path, header, blocks)])


def write_tables(tables) -> None:
    """Write CSV tables, each a ``(path, header, blocks)`` triple: the header
    row, then the rows of each block in turn.

    A block is a sequence of equal-length columns (arrays or lists); each
    column is converted to Python scalars once, so floats are written as their
    ``repr`` (and round-trip exactly) and integers as integers. Lines end in
    CRLF and a cell holding a comma or a quote is quoted.

    Each block goes out in one write. Its numeric cells are their ``repr``;
    its string cells come from the csv module, once per distinct string.

    Two or more blocks holding ``WRITE_FORK_ROWS`` rows or more are written
    with two cores (``in_two``): float ``repr`` holds the GIL, so a second
    process is the only way onto a second core. The blocks of all tables, in
    order, are cut nearest half the rows (``halves``); the other process
    formats those past the cut to text, one string per table, while this one
    writes the tables before the cut. Only this process opens the files, in
    the order of ``tables``, so they are those of a one-process write.
    """
    tables = [(path, header, list(blocks)) for path, header, blocks in tables]
    sizes = [len(next(iter(block), ())) for *_, blocks in tables for block in blocks]
    cut = len(halves(sizes, sizes)[0]) if sum(sizes) >= WRITE_FORK_ROWS else len(sizes)
    k = 0   # the cut falls before block ``cut`` of table ``k``
    while k < len(tables) and cut >= len(tables[k][2]):
        cut -= len(tables[k][2])
        k += 1
    if k == len(tables):
        for table in tables:
            _write_table(*table)
        return
    path, header, blocks = tables[k]
    head = [*tables[:k], (path, header, blocks[:cut])]
    tail = [(path, None, blocks[cut:]), *tables[k + 1:]]
    _, texts = in_two(lambda: [_write_table(*table) for table in head],
                      lambda: [_text(blocks) for *_, blocks in tail])
    for (path, header, _), text in zip(tail, texts):
        _write_table(path, header, (), text)


def _write_table(path, header, blocks, text: str = "") -> None:
    """Write ``header`` (None: append to the file), the rows of ``blocks``
    and ``text`` to the file at ``path``."""
    with open(path, "w" if header is not None else "a", newline="", encoding="utf-8") as fh:
        if header is not None:
            csv.writer(fh).writerow(header)
        _write_blocks(fh, blocks)
        fh.write(text)


def halves(items, sizes):
    """``items`` cut where the ``sizes`` before the cut sum nearest half of all
    (the earlier of two as near): the head and the tail. The tail is empty for
    fewer than two items."""
    if len(items) < 2:
        return items, items[:0]
    ends = list(itertools.accumulate(sizes))
    cut = min(range(1, len(items)), key=lambda k: abs(2 * ends[k - 1] - ends[-1]))
    return items[:cut], items[cut:]


def in_two(here, there):
    """``(here(), there())``, computed on two cores: a forked child calls
    ``there`` while this process calls ``here``, and the child's result comes
    back pickled through an unnamed temporary file. If there is no
    ``os.fork``, no temporary file, the fork fails or the child does, this
    process calls ``there()`` itself once ``here()`` returns, so the results,
    and any error, are those of one process.

    The child leaves only through ``os._exit``: it never returns into the
    caller, flushes the parent's buffers or runs its finalizers. It should
    take no lock and call no BLAS.
    """
    spool = pid = None
    if hasattr(os, "fork"):
        with contextlib.suppress(OSError):  # no temporary file or no fork: no child
            spool = tempfile.TemporaryFile()
            # From Python 3.12 a fork in a process with threads (numpy's
            # OpenBLAS pool) warns with a DeprecationWarning. OpenBLAS stops
            # its pool in its own atfork handler, and the child calls no BLAS.
            pid = os.fork()
    with spool or contextlib.nullcontext():
        if pid == 0:
            code = 1
            try:
                pickle.dump(there(), spool, pickle.HIGHEST_PROTOCOL)
                spool.flush()
                code = 0
            finally:
                os._exit(code)
        try:
            result = here()
        finally:
            done = pid is not None and os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
        if done:
            spool.seek(0)
            return result, pickle.load(spool)
    return result, there()


def _text(blocks) -> str:
    """The rows of each of ``blocks`` in turn, as ``_write_blocks`` writes them."""
    buf = io.StringIO()
    _write_blocks(buf, blocks)
    return buf.getvalue()


def _write_blocks(fh, blocks) -> None:
    """The rows of each of ``blocks`` in turn, to the text file ``fh``."""
    writer = csv.writer(fh)
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
    """Write events in the normalized CSV format, one block per event. Two or
    more events of ``WRITE_FORK_ROWS`` rows or more are written with two cores
    where ``os.fork`` exists (see ``write_tables``)."""
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
    return DatasetSplit(train=train, test=test)


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


def _pooled(events: Sequence[CarFollowingEvent]):
    """Lead speed, follower speed and gap of every step of ``events``, in order;
    empty arrays for no events."""
    return tuple(np.concatenate([getattr(ev, name) for ev in events] or [np.empty(0)])
                 for name in ("v_lead", "v_follow", "gap"))


def descriptive_stats(events: Sequence[CarFollowingEvent], bins: int = 50) -> dict:
    """The ``stats.json`` body: means/min/max of speeds and gap plus histograms
    (``bin_left``/``bin_right``/``count`` lists) of them and the derived metrics.

    The TTC histogram uses the signed raw value -gap/rel_speed (rel_speed =
    lead - follow), clipped to the TTC cap; jerk is the second difference of
    follower speed; headway excludes steps below the speed floor.
    """
    if not events:
        raise ValueError("descriptive_stats needs at least one event")
    lead, follow, gap = _pooled(events)
    # jerk is per event: step 0's jerk would difference against the zero start, not a sample
    jerk = np.concatenate([indicators.jerk(np.diff(ev.v_follow) / ev.dt, ev.dt)[1:]
                           for ev in events])
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
            "ttc": _histogram(indicators.ttc_signed(gap, lead - follow), bins),
            "jerk": _histogram(jerk, bins),
            "headway": _histogram(indicators.headway(gap, follow), bins),
        },
    }


def fit_lognormal_headway(events: Sequence[CarFollowingEvent]) -> tuple[float, float]:
    """Maximum-likelihood lognormal fit of per-step time headways.

    Returns (mu, sigma) = (mean, population stddev) of ln(gap / follow_speed)
    over all steps of all events with follower speed at or above the floor.
    """
    _, follow, gap = _pooled(events)
    logs = np.log(indicators.headway(gap, follow))
    if logs.size < 2:
        raise FitError(f"need at least 2 valid headway samples, got {logs.size}")
    return float(np.mean(logs)), float(np.std(logs))
