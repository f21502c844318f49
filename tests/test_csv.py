"""The bytes of every CSV table the pipeline writes, float round-trips, and the
reader and writer against the csv module's row-at-a-time forms."""

import csv
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ecofollower.ddpg import TrainLogRow
from ecofollower.env import SimulatedTrace
from ecofollower.evaluate import EvalConfig, export_distributions
from ecofollower import events
from ecofollower.events import (CANONICAL_FIELDS, NUMERIC_FIELDS, READ_CHUNK_ROWS,
                                READ_FORK_BYTES, WRITE_FORK_ROWS, CarFollowingEvent,
                                ColumnMapping, DataError, SchemaError, extract_events,
                                load_events, write_csv, write_events, write_tables)

from forking import assert_no_child_left, count_forks, record_exits
from reference_reader import extract_events_rowwise
from synthetic import constant_event, make_fleet

# the benchmark's NGSIM-shaped generator, which shares no code with ecofollower
sys.path.append(str(Path(__file__).resolve().parents[1] / "benchmarks"))
import bench_inputs  # noqa: E402


class TestGoldenBytes:
    def test_events(self, tmp_path):
        events = [
            CarFollowingEvent.from_arrays("a,b", [0.0, 0.1], [12.0, 12.5], [5.0, 5.0],
                                          [-0.0, 0.25], [-0.0, 5e-324]),
            CarFollowingEvent.from_arrays("e2", [0.0, 0.5], [1e300, 1e300], [1.5, 2.0],
                                          [3.0, 3.75], [1.5, 1.5]),
        ]
        write_events(events, tmp_path / "events.csv")
        assert (tmp_path / "events.csv").read_bytes() == (
            b"event_id,t,x_lead,v_lead,x_follow,v_follow\r\n"
            b'"a,b",0.0,12.0,5.0,-0.0,-0.0\r\n'
            b'"a,b",0.1,12.5,5.0,0.25,5e-324\r\n'
            b"e2,0.0,1e+300,1.5,3.0,1.5\r\n"
            b"e2,0.5,1e+300,2.0,3.75,1.5\r\n")

    def test_event_id_with_a_quote(self, tmp_path):
        events = [CarFollowingEvent.from_arrays('say "hi"', [0.0, 0.1], [12.0, 12.5],
                                                [5.0, 5.0], [0.0, 0.5], [5.0, 5.0])]
        write_events(events, tmp_path / "events.csv")
        assert (tmp_path / "events.csv").read_bytes() == (
            b"event_id,t,x_lead,v_lead,x_follow,v_follow\r\n"
            b'"say ""hi""",0.0,12.0,5.0,0.0,5.0\r\n'
            b'"say ""hi""",0.1,12.5,5.0,0.5,5.0\r\n')
        assert load_events(tmp_path / "events.csv", min_duration=0.0)[0].event_id == 'say "hi"'

    def test_trace(self, tmp_path):
        trace = SimulatedTrace(
            event_id="a,b", dt=0.1, t=np.array([0.0, 0.1]), accel=np.array([-0.0, -3.0]),
            v_follow=np.array([1.5, 1.2]), spacing=np.array([10.0, 1e-300]),
            rel_speed=np.array([-0.5, 0.0]), x_follow=np.array([0.0, 0.135]))
        trace.write_csv(tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == (
            b"t,accel,v_follow,spacing,rel_speed,x_follow\r\n"
            b"0.0,-0.0,1.5,10.0,-0.5,0.0\r\n"
            b"0.1,-3.0,1.2,1e-300,0.0,0.135\r\n")

    def test_stats_histogram(self, tmp_path):
        # as cmd_stats writes a histogram of descriptive_stats
        hist = {"bin_left": [-0.5, -0.0], "bin_right": [-0.0, 0.5], "count": [3, 0]}
        write_csv(tmp_path / "hist.csv", ("bin_left", "bin_right", "count"), hist.values())
        assert (tmp_path / "hist.csv").read_bytes() == (
            b"bin_left,bin_right,count\r\n"
            b"-0.5,-0.0,3\r\n"
            b"-0.0,0.5,0\r\n")

    def test_distributions(self, tmp_path):
        def steps(signed, headway):
            arr = np.array(signed)
            return {"ttc": arr, "jerk": arr, "headway": np.array(headway), "fuel_rate": arr,
                    "ttc_closing": arr}

        paths = export_distributions({"policy": steps([-1.0, 1.0], []), "a,b": steps([0.0], [])},
                                     tmp_path, EvalConfig(bins=2))
        assert [p.name for p in paths] == ["ttc.csv", "jerk.csv", "headway.csv", "fuel_rate.csv"]
        header = b'bin_left,bin_right,policy,"a,b"\r\n'
        filled = header + b"-1.0,0.0,1,0\r\n0.0,1.0,1,1\r\n"
        assert {p.name: p.read_bytes() for p in paths} == {
            "ttc.csv": filled, "jerk.csv": filled, "fuel_rate.csv": filled,
            "headway.csv": header}

    def test_trainlog(self, tmp_path):
        # the call cmd_train writes trainlog.csv with
        rows = [TrainLogRow(0, -0.0, -0.5, 0, 12, 1.25), TrainLogRow(1, 1e-300, 0.1, 1, 7, 2.5)]
        write_csv(tmp_path / "log.csv", TrainLogRow._fields, list(zip(*rows)))
        assert (tmp_path / "log.csv").read_bytes() == (
            b"episode,mean_reward,rolling_reward,collisions_cum,steps,fuel_ml\r\n"
            b"0,-0.0,-0.5,0,12,1.25\r\n"
            b"1,1e-300,0.1,1,7,2.5\r\n")


floats = st.one_of(st.floats(allow_nan=False),
                   st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308,
                                    1.7976931348623157e308, -1e-310]))


class TestRoundTrip:
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.lists(st.tuples(*[floats] * n), max_size=6), max_size=4))))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_floats_read_back_bit_identical(self, tmp_path, table):
        n, blocks = table
        header = [f"c{i}" for i in range(n)]
        # columns as arrays in even blocks, as lists of Python floats in odd ones
        columns = [np.array(rows).reshape(-1, n).T for rows in blocks]
        columns = [cols if i % 2 == 0 else [list(map(float, c)) for c in cols]
                   for i, cols in enumerate(columns)]
        path = tmp_path / "floats.csv"
        write_csv(path, header, *columns)
        with open(path, newline="") as fh:
            got_header, *rows = csv.reader(fh)
        want = [row for block in blocks for row in block]
        assert got_header == header
        assert (np.array([[float(cell) for cell in row] for row in rows]).tobytes()
                == np.array(want).tobytes())


# cells the reader must treat exactly as float() does: accepted with an
# underscore, surrounding spaces or a non-ASCII digit, non-finite, subnormal;
# refused as hex, empty or after an ASCII separator (0x1C), which numpy strips
SPELLINGS = ["1_0", " 1.5 ", "inf", "-Infinity", "nan", "1e-320", "0x1p3", "", "\u0661",
             "\x1c1"]
# event ids as written, "{}" standing for the event's number: plain, quoted
# around a comma, a quote, LF or CRLF, empty, and a stray quote read as text
# (a"b) or closing a quoted start ("a"b reads ab)
ID_SPELLINGS = ["a{}", '"b,c{}"', '"q""{}"', "{}", '"m\nl{}"', '"m\r\nl{}"', 'a"b{}', '"a"b{}']
# the spellings without a quote, which leave a table open to the two-process reader
PLAIN_IDS = ["a{}", "{}"]
# lines without data: blank ones, which are skipped (drawn twice as often),
# and whitespace-only ones, which are one-cell records too short for the mapping
EMPTY_LINES = ["", "", " ", "\t"]


def one_in(n):
    """True with probability 1/n; shrinks to False."""
    return st.sampled_from([False] * (n - 1) + [True])


@st.composite
def event_tables(draw):
    """The lines of a trajectory table and their line end: mostly well-formed
    events, shuffled and interleaved, with some cells respelled, some records
    cut short and some lines without data. Cells are CSV text as written. In
    about half the tables faults are rare, and in about half no event id holds
    a quote."""
    extras = draw(st.lists(st.sampled_from(["lane", "t", "x_lead", "note"]), max_size=2))
    header = draw(st.permutations([*CANONICAL_FIELDS, *extras]))
    if draw(one_in(20)):
        del header[draw(st.integers(0, len(header) - 1))]
    column = {name: i for i, name in enumerate(header)}  # the last of a repeated name
    spellings = draw(st.sampled_from([ID_SPELLINGS, PLAIN_IDS]))
    rows = []
    for e in range(draw(st.sampled_from(range(1, 5)))):
        eid = draw(st.sampled_from(spellings)).format(e)
        dt = draw(st.sampled_from([0.1, 0.5]))
        for k in range(draw(st.sampled_from(range(1, 9)))):
            values = {"event_id": eid, "t": repr(3.0 + k * dt), "x_lead": repr(20.0 + k),
                      "v_lead": "5.0", "x_follow": repr(10.0 + k), "v_follow": "4.0"}
            row = [values.get(name, "x") for name in header]
            for name, i in column.items():
                if name in values:
                    row[i] = values[name]
            rows.append(row)
    rows = draw(st.permutations(rows))
    faults = draw(st.sampled_from([10, 100]))  # one record in 10 or in 100 respelled or cut
    for row in rows:
        if draw(one_in(faults)):
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(SPELLINGS))
        if draw(one_in(faults)):
            del row[draw(st.integers(0, len(row) - 1)):]
    lines = [",".join(row) for row in [header, *rows]]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(EMPTY_LINES)))
    return lines, draw(st.sampled_from(["\r\n", "\n", "\r"]))


def _outcome(read, path, mapping, min_duration):
    try:
        result = read(path, mapping, min_duration=min_duration)
    except Exception as exc:  # noqa: BLE001 -- the exception is the outcome compared
        return type(exc), str(exc)
    return ([(ev.event_id, ev.dt, *(getattr(ev, name).tobytes() for name in NUMERIC_FIELDS))
             for ev in result.events], result.rejected)


class TestReaderMatchesRowLoop:
    def test_same_events_rejections_and_errors(self, tmp_path):
        # the fork floor at 0 sends every quote-free table with an LF past its
        # middle, but not as its last byte, through the two-process reader
        forked = []

        @given(event_tables(),
               st.sampled_from([{}, {"t": 0.5}, {"t": 1e308, "x_lead": 0.3048}]),
               st.sampled_from([0.0, 0.3]), one_in(10), st.sampled_from([3, READ_CHUNK_ROWS]),
               st.sampled_from([0, READ_FORK_BYTES]))
        @settings(max_examples=300, deadline=None)
        def check(table, scale, min_duration, empty, chunk_rows, fork_bytes):
            lines, end = table
            path = tmp_path / "raw.csv"
            path.write_text("" if empty else end.join(lines) + end, encoding="utf-8",
                            newline="")
            mapping = ColumnMapping(columns={f: f for f in CANONICAL_FIELDS}, scale=scale)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(events, "READ_CHUNK_ROWS", chunk_rows)
                mp.setattr(events, "READ_FORK_BYTES", fork_bytes)
                forks = count_forks(mp)
                got = _outcome(extract_events, path, mapping, min_duration)
            assert_no_child_left()
            assert got == _outcome(extract_events_rowwise, path, mapping, min_duration)
            forked.append(len(forks))

        check()
        assert set(forked) == {0, 1} and sum(forked) >= len(forked) // 20


def _no_fallback(*args):
    raise AssertionError("the float() re-read ran on well-formed input")


class TestWellFormedInputStaysOnNumpy:
    """Well-formed files are parsed by numpy's reader alone: the float() re-read
    is made to fail, so sliding onto it fails the test, not only the benchmark."""

    def test_ngsim_shaped_raw_file_with_its_mapping(self, tmp_path, monkeypatch):
        # foreign column names, an extra Lane_ID column, feet and milliseconds
        bench_inputs.write_raw_ngsim(5, 12, tmp_path / "raw.csv", min_duration=15.0)
        bench_inputs.write_mapping(tmp_path / "mapping.json")
        mapping = ColumnMapping.from_json(tmp_path / "mapping.json")
        want = _outcome(extract_events_rowwise, tmp_path / "raw.csv", mapping, 15.0)
        monkeypatch.setattr(events, "_float_chunks", _no_fallback)
        forks = count_forks(monkeypatch)
        for fork_bytes in (READ_FORK_BYTES, 0):  # the file is under the floor, then over it
            monkeypatch.setattr(events, "READ_FORK_BYTES", fork_bytes)
            got = _outcome(extract_events, tmp_path / "raw.csv", mapping, 15.0)
            assert got == want and len(got[0]) > 0
        assert forks == [1]
        assert_no_child_left()

    @pytest.mark.parametrize("chunk_rows", [3, READ_CHUNK_ROWS])
    def test_written_events_with_quoted_ids_and_blank_lines(self, tmp_path, monkeypatch,
                                                            chunk_rows):
        # CRLF ends from write_events; with 3-record chunks, chunk ends fall inside
        # events, around the blank lines and inside the two-line quoted id
        t = np.arange(4) * 0.1
        written = [CarFollowingEvent.from_arrays(eid, t, 20.0 + t, np.full(4, 5.0), t,
                                                 np.full(4, 4.5))
                   for eid in ("a,b", 'say "hi"', "two\r\nlines", "plain")]
        path = tmp_path / "events.csv"
        write_events(written, path)
        lines = path.read_bytes().split(b"\r\n")
        for at in (9, 5, 2):
            lines.insert(at, b"")
        path.write_bytes(b"\r\n".join(lines))
        monkeypatch.setattr(events, "READ_CHUNK_ROWS", chunk_rows)
        monkeypatch.setattr(events, "_float_chunks", _no_fallback)
        want = _outcome(extract_events_rowwise, path, None, 0.0)
        assert want == ([(ev.event_id, ev.dt, *(getattr(ev, name).tobytes()
                                                for name in NUMERIC_FIELDS))
                         for ev in written], [])
        forks = count_forks(monkeypatch)
        for fork_bytes in (READ_FORK_BYTES, 0):  # quoted ids keep both in one process
            monkeypatch.setattr(events, "READ_FORK_BYTES", fork_bytes)
            assert _outcome(extract_events, path, None, 0.0) == want
        assert forks == []


# cells the csv module quotes (comma, quote, CR, LF), empty, leading spaces, non-ASCII
TEXT = st.text(st.characters(blacklist_categories=["Cs"], blacklist_characters="\x00"),
               max_size=5) | st.sampled_from(["", " a", "a,b", 'say "hi"', "\r", "x\r\ny", "é€"])
CELLS = {"float": st.floats(), "int": st.integers(-2**63, 2**63 - 1), "bool": st.booleans(),
         "str": TEXT}


@st.composite
def tables(draw):
    """A header and blocks of columns typed float, int, bool or str, each
    given as a list or as a numpy array."""
    width = draw(st.sampled_from(range(1, 6)))
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=width, max_size=width))
    header = draw(st.lists(TEXT, min_size=1, max_size=4))
    blocks = []
    for _ in range(draw(st.sampled_from(range(1, 4)))):
        n = draw(st.sampled_from(range(6)))
        block = [draw(st.lists(CELLS[kind], min_size=n, max_size=n)) for kind in kinds]
        blocks.append([np.array(col) if col and draw(st.booleans()) else col for col in block])
    return header, blocks


class TestWriterMatchesCsvModule:
    @given(tables())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_bytes_as_writerows(self, tmp_path, table):
        header, blocks = table
        write_csv(tmp_path / "fast.csv", header, *blocks)
        with open(tmp_path / "rows.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for block in blocks:
                writer.writerows(zip(*(list(col) if isinstance(col, list) else col.tolist()
                                       for col in block)))
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


# event ids the csv module quotes: a comma, a quote, a CRLF; and plain ones
EVENT_IDS = ["a,b", 'say "hi"', "x\r\ny", "plain", "é"]


@st.composite
def event_lists(draw):
    """Events of 1-60 samples with drawn ids (repeats allowed) and values."""
    specs = draw(st.lists(st.tuples(st.sampled_from(EVENT_IDS), st.integers(1, 60)),
                          min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [CarFollowingEvent(eid, 0.1, np.arange(n) * 0.1,
                              *(rng.standard_normal(n) * 10.0 ** rng.integers(-5, 300)
                                for _ in range(4)))
            for eid, n in specs]


class TestForkedWriter:
    """Two or more blocks of WRITE_FORK_ROWS rows or more are written with two
    cores where os.fork exists. The bytes are those of one process, whatever
    fails."""

    @staticmethod
    def _serial_bytes(path, written):
        with pytest.MonkeyPatch.context() as mp:
            mp.delattr(os, "fork")
            write_events(written, path)
        return path.read_bytes()

    @given(event_lists(), st.sampled_from([0, WRITE_FORK_ROWS]))
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_bytes_forked_and_serial(self, tmp_path, written, floor):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(events, "WRITE_FORK_ROWS", floor)
            forks = count_forks(mp)
            write_events(written, tmp_path / "forked.csv")
        rows = sum(len(ev) for ev in written)
        assert len(forks) == (len(written) >= 2 and rows >= floor)
        assert_no_child_left()
        serial = self._serial_bytes(tmp_path / "serial.csv", written)
        assert (tmp_path / "forked.csv").read_bytes() == serial
        with open(tmp_path / "forked.csv", newline="") as fh:
            assert sum(1 for _ in csv.reader(fh)) == 1 + rows

    def test_tables_give_the_one_process_bytes(self, tmp_path):
        # lists of tables of 0 or more ragged blocks, the floor at 0 and at its
        # value: the child exits 0 and opens no file, this process formats the
        # blocks before the cut only, and every file is that of a plain loop
        forked = []

        @given(st.lists(st.tuples(st.integers(1, 3), st.lists(st.integers(0, 700), max_size=4)),
                        max_size=5),
               st.sampled_from([0, WRITE_FORK_ROWS]), st.integers(0, 2**32 - 1))
        @settings(max_examples=60, deadline=None)
        def check(shapes, floor, seed):
            rng = np.random.default_rng(seed)
            tables = [(tmp_path / f"t{i}.csv", [f"c{j}" for j in range(width)],
                       [tuple(rng.standard_normal(n) * 10.0 ** rng.integers(-5, 300)
                              for _ in range(width)) for n in sizes])
                      for i, (width, sizes) in enumerate(shapes)]
            sizes = [n for _, table_sizes in shapes for n in table_sizes]
            parent, formatted = os.getpid(), []
            real_write, real_open = events._write_blocks, open

            def write_blocks(fh, blocks):
                if os.getpid() == parent:
                    formatted.extend(len(columns[0]) for columns in blocks)
                real_write(fh, blocks)

            def open_here_only(path, mode="r", **kwargs):
                if os.getpid() != parent and set(mode) & set("wax+"):
                    raise AssertionError(f"the child opened {path} to write")
                return real_open(path, mode, **kwargs)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(events, "WRITE_FORK_ROWS", floor)
                mp.setattr(events, "_write_blocks", write_blocks)
                mp.setattr(events, "open", open_here_only, raising=False)
                forks, exits = count_forks(mp), record_exits(mp)
                write_tables(tables)
            assert_no_child_left()
            fork = len(sizes) >= 2 and sum(sizes) >= floor
            assert len(forks) == len(exits) == fork and set(exits) <= {0}
            assert formatted == (events.halves(sizes, sizes)[0] if fork else sizes)
            written = [path.read_bytes() for path, _, _ in tables]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(events, "WRITE_FORK_ROWS", 1 << 62)
                write_tables(tables)
            assert written == [path.read_bytes() for path, _, _ in tables]
            forked.append(fork)

        check()
        assert set(forked) == {False, True}

    def test_one_block_forks_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setattr(events, "WRITE_FORK_ROWS", 0)
        forks = count_forks(monkeypatch)
        write_events([constant_event("only")], tmp_path / "one.csv")
        SimulatedTrace(event_id="e", dt=0.1, t=np.arange(3.0), accel=np.zeros(3),
                       v_follow=np.ones(3), spacing=np.ones(3), rel_speed=np.zeros(3),
                       x_follow=np.arange(3.0)).write_csv(tmp_path / "trace.csv")
        write_csv(tmp_path / "header.csv", ("a", "b"))
        assert forks == []

    def test_child_writes_the_tail(self, tmp_path, monkeypatch):
        # the child exits 0 and this process formats the head's blocks only
        written = make_fleet(6, seed=5, duration_range=(1.0, 20.0))
        exits, parent, formatted = record_exits(monkeypatch), os.getpid(), []
        real_write = events._write_blocks

        def write_blocks(fh, blocks):
            if os.getpid() == parent:
                formatted.extend(len(columns[0]) for columns in blocks)
            real_write(fh, blocks)

        monkeypatch.setattr(events, "WRITE_FORK_ROWS", 0)
        monkeypatch.setattr(events, "_write_blocks", write_blocks)
        write_events(written, tmp_path / "events.csv")
        assert exits == [0]
        head, tail = events.halves(written, [len(ev) for ev in written])
        assert tail and formatted == [len(ev) for ev in head]
        monkeypatch.undo()
        assert (tmp_path / "events.csv").read_bytes() == self._serial_bytes(
            tmp_path / "serial.csv", written)

    def _assert_parent_wrote_all(self, tmp_path, monkeypatch, child_exits):
        written = make_fleet(6, seed=5, duration_range=(1.0, 20.0))
        written[2] = dataclasses.replace(written[2], event_id='say "hi", a,b')
        monkeypatch.setattr(events, "WRITE_FORK_ROWS", 0)
        exits = record_exits(monkeypatch)
        write_events(written, tmp_path / "events.csv")
        assert exits == child_exits
        assert_no_child_left()
        monkeypatch.undo()
        assert (tmp_path / "events.csv").read_bytes() == self._serial_bytes(
            tmp_path / "serial.csv", written)

    def test_failed_child_rewritten_by_parent(self, tmp_path, monkeypatch):
        parent, real_cells = os.getpid(), events._cells

        def cells(column):
            if os.getpid() != parent:
                raise OSError("disk full")
            return real_cells(column)

        monkeypatch.setattr(events, "_cells", cells)
        self._assert_parent_wrote_all(tmp_path, monkeypatch, [1])

    def test_no_temporary_file_writes_serially(self, tmp_path, monkeypatch):
        def no_space(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(events.tempfile, "TemporaryFile", no_space)
        forks = count_forks(monkeypatch)
        self._assert_parent_wrote_all(tmp_path, monkeypatch, [])
        assert forks == []

    def test_failed_fork_writes_serially(self, tmp_path, monkeypatch):
        def no_processes_left():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_processes_left)
        self._assert_parent_wrote_all(tmp_path, monkeypatch, [])

    @given(st.lists(st.integers(0, 50), max_size=8))
    def test_cut_nearest_half_the_rows(self, sizes):
        blocks = tuple([[0.0] * n] for n in sizes)
        head, tail = events.halves(blocks, sizes)
        assert head + tail == blocks
        if len(blocks) < 2:
            assert tail == ()
            return
        total = sum(sizes)
        # the earliest cut whose head holds as near half the rows as any
        distances = [abs(2 * sum(sizes[:k]) - total) for k in range(1, len(sizes))]
        assert len(head) == 1 + distances.index(min(distances))


class TestForkedReader:
    """A quote-free file of READ_FORK_BYTES or more is parsed from two processes
    where os.fork exists. The events, rejections and errors are those of one
    process, whatever fails."""

    @staticmethod
    def _fleet_file(path, ids=("a", "b", "c", "d")):
        # about 36 KiB: the header read decodes the first 8 KiB, the tail lies past them
        write_events([constant_event(eid, duration=20.0 + i) for i, eid in enumerate(ids)], path)
        return path

    @staticmethod
    def _one_process(path, mapping=None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(events, "READ_FORK_BYTES", 1 << 62)
            return _outcome(extract_events, path, mapping, 0.0)

    def _assert_forks(self, monkeypatch, path, count):
        """The outcome of reading ``path`` with the floor at 0, which calls
        ``os.fork`` ``count`` times; it is the outcome of one process."""
        monkeypatch.setattr(events, "READ_FORK_BYTES", 0)
        forks = count_forks(monkeypatch)
        got = _outcome(extract_events, path, None, 0.0)
        assert len(forks) == count
        assert_no_child_left()
        monkeypatch.undo()
        assert got == self._one_process(path)
        return got

    @staticmethod
    def _spans_here(monkeypatch) -> list:
        """A list that gains the start offset of each ``_span`` this process opens."""
        starts, parent, real_span = [], os.getpid(), events._span

        def span(path, start, stop):
            if os.getpid() == parent:
                starts.append(start)
            return real_span(path, start, stop)

        monkeypatch.setattr(events, "_span", span)
        return starts

    def test_child_parses_the_tail(self, tmp_path, monkeypatch):
        # the child exits 0 and this process parses the records before the cut only
        path = self._fleet_file(tmp_path / "events.csv")
        exits, starts = record_exits(monkeypatch), self._spans_here(monkeypatch)
        got = self._assert_forks(monkeypatch, path, 1)
        assert exits == [0]
        assert starts == [0]
        assert [eid for eid, *_ in got[0]] == ["a", "b", "c", "d"]

    def test_forks_once_over_the_floor(self, tmp_path, monkeypatch):
        path = self._fleet_file(tmp_path / "events.csv")
        monkeypatch.setattr(events, "READ_FORK_BYTES", path.stat().st_size)
        forks = count_forks(monkeypatch)
        got = _outcome(extract_events, path, None, 0.0)
        assert forks == [1]
        assert_no_child_left()
        monkeypatch.undo()
        assert got == _outcome(extract_events_rowwise, path, None, 0.0)
        assert [eid for eid, *_ in got[0]] == ["a", "b", "c", "d"]

    def test_under_the_floor_forks_not(self, tmp_path, monkeypatch):
        path = self._fleet_file(tmp_path / "events.csv")
        monkeypatch.setattr(events, "READ_FORK_BYTES", path.stat().st_size + 1)
        forks = count_forks(monkeypatch)
        extract_events(path, min_duration=0.0)
        assert forks == []

    @pytest.mark.parametrize("where", ["header", "first record", "last record"])
    def test_a_quote_anywhere_forks_not(self, tmp_path, monkeypatch, where):
        path = self._fleet_file(tmp_path / "events.csv", ids=("a", "b", "c", "d"))
        lines = path.read_bytes().split(b"\r\n")
        at = {"header": 0, "first record": 1, "last record": -2}[where]
        lines[at] += b',"x"'
        path.write_bytes(b"\r\n".join(lines))
        assert self._assert_forks(monkeypatch, path, 0)[0]

    def test_no_lf_past_the_middle_forks_not(self, tmp_path, monkeypatch):
        # LF line ends in the first half, lone CRs after it
        path = self._fleet_file(tmp_path / "events.csv")
        data = path.read_bytes().replace(b"\r\n", b"\n")
        middle = len(data) // 2
        tail = data[middle:].replace(b"\n", b"\r")
        path.write_bytes(data[:middle] + tail)
        assert len(self._assert_forks(monkeypatch, path, 0)[0]) == 4
        # an LF as the last byte leaves the child nothing to parse
        path.write_bytes(data[:middle] + tail[:-1] + b"\n")
        assert len(self._assert_forks(monkeypatch, path, 0)[0]) == 4
        # one LF past the middle, ending the last record but one, is enough
        last = tail.rindex(b"\r", 0, len(tail) - 1)
        path.write_bytes(data[:middle] + tail[:last] + b"\n" + tail[last + 1:])
        assert len(self._assert_forks(monkeypatch, path, 1)[0]) == 4

    @staticmethod
    def _cut(path):
        """Where the forked child starts parsing ``path``, the floor at 0."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(events, "READ_FORK_BYTES", 0)
            return events._scan(path)[1]

    def _tail_line(self, path):
        """The line number, as DataError counts it, of the last record, which lies past the cut."""
        data = path.read_bytes()
        assert data.rindex(b"\r\n", 0, len(data) - 2) > self._cut(path)
        return data.count(b"\r\n")

    def test_bad_cell_in_the_tail(self, tmp_path, monkeypatch):
        path = self._fleet_file(tmp_path / "events.csv")
        line = self._tail_line(path)
        path.write_bytes(path.read_bytes()[:-2] + b"x\r\n")  # the last v_follow is 8.0x
        # the child parses the bad tail and exits 0; this process does not parse it again
        exits, starts = record_exits(monkeypatch), self._spans_here(monkeypatch)
        got = self._assert_forks(monkeypatch, path, 1)
        assert (exits, starts) == ([0], [0])
        assert got == (DataError, f"{path}:{line}: unparsable numeric value")
        assert got == _outcome(extract_events_rowwise, path, None, 0.0)

    def test_invalid_utf8_in_the_tail(self, tmp_path, monkeypatch):
        path = self._fleet_file(tmp_path / "events.csv")
        self._tail_line(path)
        data = path.read_bytes()
        path.write_bytes(data[:-6] + b"\xff" + data[-5:])
        exits, starts = record_exits(monkeypatch), self._spans_here(monkeypatch)
        got = self._assert_forks(monkeypatch, path, 1)
        assert (exits, starts) == ([0], [0])
        assert got[0] is SchemaError and "is not UTF-8 text" in got[1]

    def test_byte_order_marks(self, tmp_path, monkeypatch):
        # one at the start of the file, which is skipped, and one opening the
        # first record past the cut, which is part of that record's event id
        data = b"\xef\xbb\xbf" + self._fleet_file(tmp_path / "events.csv").read_bytes()
        record = "\ufeffz,0.0,20.0,5.0,10.0,4.0\r\n".encode()
        # the line end nearest the middle of the file the record will be put in
        cut = data.index(b"\n", (len(data) + len(record)) // 2) + 1
        path = tmp_path / "events.csv"
        path.write_bytes(data[:cut] + record + data[cut:])
        assert self._cut(path) == cut
        got = self._assert_forks(monkeypatch, path, 1)
        assert [eid for eid, *_ in got[0]] == ["a", "b", "c", "d"]
        assert got[1] == [("\ufeffz", "too_few_samples")]
        assert got == _outcome(extract_events_rowwise, path, None, 0.0)

    def test_event_across_the_cut_and_ids_first_seen_in_the_tail(self, tmp_path, monkeypatch):
        # "m" has rows on both sides of the cut; "z" and "y" appear in the tail
        # only, "z" first; "a" comes back in the tail after them
        t = (np.arange(400) * 0.1).tolist()
        rows = [("a", k) for k in range(100)] + [("m", k) for k in range(400)]
        rows += [("z", k) for k in range(50)] + [("y", k) for k in range(50)]
        rows += [("a", k) for k in range(100, 150)]
        path = tmp_path / "events.csv"
        path.write_text("event_id,t,x_lead,v_lead,x_follow,v_follow\n" + "".join(
            f"{eid},{t[k]!r},{20.0 + t[k]!r},5.0,{t[k]!r},4.5\n" for eid, k in rows))
        data = path.read_bytes()
        cut = self._cut(path)
        assert b"\nm," in data[:cut] and b"\nm," in data[cut:] and b"\nz," not in data[:cut]
        monkeypatch.setattr(events, "READ_CHUNK_ROWS", 64)  # several chunks on each side
        got = self._assert_forks(monkeypatch, path, 1)
        assert [(eid, len(np.frombuffer(cells[0]))) for eid, _, *cells in got[0]] == [
            ("a", 150), ("m", 400), ("z", 50), ("y", 50)]
        assert got == _outcome(extract_events_rowwise, path, None, 0.0)

    def test_failed_child_parsed_by_parent(self, tmp_path, monkeypatch):
        path = self._fleet_file(tmp_path / "events.csv")
        parent, real_columns = os.getpid(), events._columns

        def columns(chunks):
            if os.getpid() != parent:
                raise OSError("disk full")
            return real_columns(chunks)

        monkeypatch.setattr(events, "_columns", columns)
        exits = record_exits(monkeypatch)
        self._assert_forks(monkeypatch, path, 1)
        assert exits == [1]

    def test_failed_fork_parses_in_one_process(self, tmp_path, monkeypatch):
        path = self._fleet_file(tmp_path / "events.csv")

        def no_processes_left():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_processes_left)
        self._assert_forks(monkeypatch, path, 1)

    def test_no_temporary_file_parses_in_one_process(self, tmp_path, monkeypatch):
        path = self._fleet_file(tmp_path / "events.csv")

        def no_space(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(events.tempfile, "TemporaryFile", no_space)
        self._assert_forks(monkeypatch, path, 0)
