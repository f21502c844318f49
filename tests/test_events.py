import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecofollower.cli import main
from ecofollower.events import (CANONICAL_FIELDS, CarFollowingEvent, ColumnMapping,
                                DataError, FitError, SchemaError, descriptive_stats,
                                extract_events, fit_lognormal_headway, json_number,
                                load_events, split_dataset, write_events)

import reference_stats
from synthetic import constant_event, make_fleet


def write_raw(path, rows, header="event_id,t,x_lead,v_lead,x_follow,v_follow"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def simple_rows(event_id, n, dt=0.1, v=8.0, gap=12.0):
    rows = []
    for k in range(n):
        t = k * dt
        x_f = v * t
        rows.append(f"{event_id},{t},{x_f + gap},{v},{x_f},{v}")
    return rows


class TestLoadEvents:
    def test_single_wellformed_20s_event(self, tmp_path):
        # 20 s at 10 Hz -> 201 samples
        path = tmp_path / "raw.csv"
        write_raw(path, simple_rows("e1", 201))
        events = load_events(path)
        assert len(events) == 1
        assert len(events[0]) == 201
        assert events[0].dt == pytest.approx(0.1, abs=1e-12)

    def test_event_below_min_duration_dropped(self, tmp_path):
        path = tmp_path / "raw.csv"
        write_raw(path, simple_rows("short", 101))  # 10 s
        assert load_events(path, min_duration=15.0) == []
        result = extract_events(path)
        assert result.rejected == [("short", "too_short")]

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "raw.csv"
        write_raw(path, ["e,0.0,12.0,8.0"], header="event_id,t,x_lead,v_lead")
        with pytest.raises(SchemaError, match="x_follow"):
            load_events(path)

    def test_nonuniform_timestep_is_data_error_naming_event(self, tmp_path):
        path = tmp_path / "raw.csv"
        rows = simple_rows("bad", 160)
        parts = rows[80].split(",")
        parts[1] = "8.05"  # off-grid timestamp
        rows[80] = ",".join(parts)
        write_raw(path, rows)
        with pytest.raises(DataError, match="bad"):
            load_events(path)

    def test_negative_speed_is_data_error(self, tmp_path):
        path = tmp_path / "raw.csv"
        rows = simple_rows("neg", 160)
        rows[3] = "neg,0.3,14.4,8.0,2.4,-0.5"
        write_raw(path, rows)
        with pytest.raises(DataError, match="negative speed"):
            load_events(path)

    def test_time_rebased_to_zero(self, tmp_path):
        path = tmp_path / "raw.csv"
        rows = [f"e,{100.0 + k * 0.1},{12 + 8 * k * 0.1},8.0,{8 * k * 0.1},8.0" for k in range(160)]
        write_raw(path, rows)
        ev = load_events(path)[0]
        assert ev.t[0] == 0.0

    def test_column_mapping_with_unit_scales(self, tmp_path):
        path = tmp_path / "raw.csv"
        feet = 1.0 / 0.3048
        rows = [f"E,{k},{(12 + 0.8 * k) * feet},{8 * feet},{0.8 * k * feet},{8 * feet}"
                for k in range(160)]
        write_raw(path, rows, header="ID,Frame,LeadX,LeadV,FollX,FollV")
        mapping = ColumnMapping(
            columns={"event_id": "ID", "t": "Frame", "x_lead": "LeadX", "v_lead": "LeadV",
                     "x_follow": "FollX", "v_follow": "FollV"},
            scale={"t": 0.1, "x_lead": 0.3048, "v_lead": 0.3048,
                   "x_follow": 0.3048, "v_follow": 0.3048},
        )
        ev = load_events(path, mapping)[0]
        assert ev.dt == pytest.approx(0.1, abs=1e-12)
        assert ev.v_lead[0] == pytest.approx(8.0, rel=1e-12)
        assert ev.gap[0] == pytest.approx(12.0, rel=1e-9)

    def test_mapping_requires_all_fields(self):
        with pytest.raises(SchemaError):
            ColumnMapping(columns={"event_id": "id", "t": "t"})

    def test_mapping_rejects_unknown_fields(self):
        columns = {f: f for f in CANONICAL_FIELDS}
        with pytest.raises(SchemaError, match="v_folow"):
            ColumnMapping(columns=columns, scale={"v_folow": 0.3048})
        with pytest.raises(SchemaError, match="event_id"):
            ColumnMapping(columns=columns, scale={"event_id": 2.0})
        with pytest.raises(SchemaError, match="lane"):
            ColumnMapping(columns={**columns, "lane": "Lane_ID"})

    @pytest.mark.parametrize("obj, named", [
        ({"columns": {f: f for f in CANONICAL_FIELDS}, "scales": {"v_follow": 0.3048}}, "scales"),
        ({"cols": {}}, "cols"),
        ({"scale": {"v_follow": 0.3048}}, "columns"),
        ([{"columns": {f: f for f in CANONICAL_FIELDS}}], "list"),
        ({"columns": {f: f for f in CANONICAL_FIELDS}, "scale": 0.3048}, "JSON objects"),
        ({"columns": {f: f for f in CANONICAL_FIELDS}, "scale": {"v_follow": "ft"}}, "v_follow must be a number"),
        ({"columns": {f: f for f in CANONICAL_FIELDS}, "scale": {"t": 0}},
         r"mapping.scale.t must be positive, got 0"),
        ({"columns": {f: f for f in CANONICAL_FIELDS}, "scale": {"x_lead": -0.3048}},
         r"mapping.scale.x_lead must be positive, got -0.3048"),
    ], ids=["scales-beside-columns", "no-columns-block", "scale-only", "top-level-list",
            "scale-not-object", "scale-not-number", "scale-zero", "scale-negative"])
    def test_mapping_file_structure_checked(self, tmp_path, obj, named):
        path = tmp_path / "map.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(SchemaError, match=named):
            ColumnMapping.from_json(path)

    def test_mapping_file_with_scale_loads(self, tmp_path):
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"columns": {f: f for f in CANONICAL_FIELDS},
                                    "scale": {"v_follow": 0.3048}}))
        assert ColumnMapping.from_json(path).scale == {"v_follow": 0.3048}

    def test_roundtrip_bit_identical(self, tmp_path):
        events = make_fleet(3, seed=7)
        path = tmp_path / "events.csv"
        write_events(events, path)
        loaded = load_events(path, min_duration=0.0)
        assert len(loaded) == len(events)
        by_id = {e.event_id: e for e in loaded}
        for orig in events:
            got = by_id[orig.event_id]
            for name in ("t", "x_lead", "v_lead", "x_follow", "v_follow"):
                assert np.array_equal(getattr(orig, name), getattr(got, name)), name


def ev_row(event_id, k, dt=0.1, v=8.0, gap=12.0):
    """Row ``k`` of the simple_rows event ``event_id``."""
    return simple_rows(event_id, k + 1, dt, v, gap)[k]


class TestJsonNumber:
    @given(st.integers() | st.floats(allow_nan=False, allow_infinity=False))
    def test_a_finite_number_reads_as_float(self, value):
        assert type(json_number(value, "x")) is float
        assert json_number(value, "x") == float(value)

    @given(st.integers())
    def test_an_integer_reads_as_itself(self, value):
        assert json_number(value, "x", integer=True) is value
        assert json_number(value * 10**400, "x", integer=True) == value * 10**400

    @pytest.mark.parametrize("value, integer, says", [
        (True, False, "must be a number, got true"),
        (False, True, "must be an integer, got false"),
        ("1", False, 'must be a number, got "1"'),
        (None, False, "must be a number, got null"),
        ([1.0], False, "must be a number, got [1.0]"),
        ({"a": 1}, False, 'must be a number, got {"a": 1}'),
        (1.0, True, "must be an integer, got 1.0"),
        (math.nan, False, "must be a finite number, got NaN"),
        (-math.inf, False, "must be a finite number, got -Infinity"),
        (10**400, False, "must be a finite number, got 1000"),
    ])
    def test_refused_value_names_where(self, value, integer, says):
        with pytest.raises(SchemaError, match=re.escape(f"a.b[3] {says}")):
            json_number(value, "a.b[3]", integer=integer, error=SchemaError)


class TestReaderSemantics:
    def test_blank_lines_skipped_and_not_counted(self, tmp_path):
        path = tmp_path / "raw.csv"
        rows = simple_rows("e", 3)
        write_raw(path, ["", rows[0], "", "", rows[1], rows[2], "", "e,0.3,x,8,2.4,8"])
        # the bad record is physically on line 9, but the fourth record: line 2 + 3
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:5: unparsable"):
            extract_events(path, min_duration=0.0)
        write_raw(path, ["", rows[0], "", "", rows[1], rows[2], ""])
        (ev,) = load_events(path, min_duration=0.0)
        assert len(ev) == 3

    def test_interleaved_out_of_order_events(self, tmp_path):
        path = tmp_path / "raw.csv"
        b, a, c = simple_rows("b", 4, v=6.0), simple_rows("a", 3), simple_rows("c", 2)
        write_raw(path, [b[2], a[1], b[0], c[1], a[0], b[3], a[2], c[0], b[1]])
        events = load_events(path, min_duration=0.0)
        assert [ev.event_id for ev in events] == ["b", "a", "c"]
        for ev, n, v in zip(events, (4, 3, 2), (6.0, 8.0, 8.0)):
            assert ev.t.tolist() == [k * 0.1 for k in range(n)]
            assert ev.x_follow.tolist() == [v * (k * 0.1) for k in range(n)]

    def test_duplicated_header_name_reads_the_last_column(self, tmp_path):
        path = tmp_path / "raw.csv"
        rows = [f"{row},{row.split(',')[5]}".replace(",8.0,", ",-1,", 1)
                for row in simple_rows("e", 3)]
        write_raw(path, rows, header="event_id,t,x_lead,v_lead,x_follow,v_follow,v_lead")
        (ev,) = load_events(path, min_duration=0.0)
        assert ev.v_lead.tolist() == [8.0, 8.0, 8.0]

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "raw.csv"
        rows = [f"lane-{k},{row},x" for k, row in enumerate(simple_rows("e", 3))]
        write_raw(path, rows, header="lane,event_id,t,x_lead,v_lead,x_follow,v_follow,note")
        (ev,) = load_events(path, min_duration=0.0)
        assert ev.event_id == "e" and len(ev) == 3

    # float() does not strip an ASCII separator (0x1C-0x1F) before a number, as numpy does
    @pytest.mark.parametrize("bad", ["e,0.2,13.6,8.0,1.6,fast", "e,0.2,13.6,8.0,1.6",
                                     "e,0.2,13.6,8.0,1.6,", "e,0.2,13.6,8.0,1.6,\x1c8.0"],
                             ids=["unparsable", "short", "empty", "separator"])
    def test_bad_record_names_its_line(self, tmp_path, bad):
        path = tmp_path / "raw.csv"
        rows = simple_rows("e", 4)
        rows[2] = bad
        write_raw(path, rows)
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:4: unparsable numeric"):
            extract_events(path)

    def test_record_without_event_id_names_its_line(self, tmp_path):
        path = tmp_path / "raw.csv"
        rows = [f"{row.split(',', 1)[1]},{row.split(',', 1)[0]}" for row in simple_rows("e", 4)]
        rows[1] = rows[1].rsplit(",", 1)[0]
        write_raw(path, rows, header="t,x_lead,v_lead,x_follow,v_follow,event_id")
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:3: missing event id"):
            extract_events(path)

    def test_empty_file_is_schema_error(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="empty file"):
            extract_events(path)

    def test_header_only_gives_no_events(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(",".join(CANONICAL_FIELDS) + "\r\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's "input contained no data" included
            result = extract_events(path)
        assert (result.events, result.rejected) == ([], [])

    def test_blank_body_gives_no_events(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(",".join(CANONICAL_FIELDS) + "\r\n\r\n\n\r\n", newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's notes on blank lines included
            result = extract_events(path)
        assert (result.events, result.rejected) == ([], [])

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # as Excel writes UTF-8 CSVs; without skipping it the first column is
        # named "\ufeffevent_id" and the file lacks an event_id column
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_raw(plain, simple_rows("e", 4) + simple_rows("f", 3))
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        got, want = extract_events(marked, min_duration=0.0), extract_events(plain, min_duration=0.0)
        assert [ev.event_id for ev in got.events] == ["e", "f"]
        for a, b in zip(got.events, want.events, strict=True):
            assert a.dt == b.dt
            for name in ("t", "x_lead", "v_lead", "x_follow", "v_follow"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

    def test_negative_scale_on_t_is_refused(self, tmp_path):
        # a clock that counts down would read with a negative scale; the mapping
        # refuses it by name instead of reordering the rows
        path = tmp_path / "raw.csv"
        rows = [f"e,{-k},{12 + 0.8 * k},8.0,{0.8 * k},8.0" for k in range(4)]
        write_raw(path, rows[::-1])
        with pytest.raises(SchemaError, match="mapping.scale.t must be positive, got -0.1"):
            load_events(path, ColumnMapping(columns={f: f for f in CANONICAL_FIELDS},
                                            scale={"t": -0.1}), min_duration=0.0)


@st.composite
def valid_event_arrays(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    dt = draw(st.sampled_from([0.1, 0.5, 1.0]))
    v_lead = np.asarray(draw(st.lists(st.floats(0.0, 30.0), min_size=n, max_size=n)))
    v_follow = np.asarray(draw(st.lists(st.floats(0.0, 30.0), min_size=n, max_size=n)))
    gaps = np.asarray(draw(st.lists(st.floats(0.5, 60.0), min_size=n, max_size=n)))
    t = np.arange(n) * dt
    x_follow = np.cumsum(np.concatenate([[0.0], v_follow[:-1] * dt]))
    return t, x_follow + gaps, v_lead, x_follow, v_follow


class TestEventInvariants:
    @given(valid_event_arrays())
    @settings(max_examples=50, deadline=None)
    def test_loaded_events_satisfy_invariants(self, arrays):
        t, x_lead, v_lead, x_follow, v_follow = arrays
        ev = CarFollowingEvent.from_arrays("h", t, x_lead, v_lead, x_follow, v_follow)
        deltas = np.diff(ev.t)
        assert np.all(np.abs(deltas - ev.dt) <= 1e-9)
        assert len(ev) >= 2
        assert np.all(ev.v_lead >= 0) and np.all(ev.v_follow >= 0)
        assert np.all(ev.gap > 0)

    def test_leader_not_ahead_rejected(self):
        t = np.arange(3) * 0.1
        with pytest.raises(DataError, match="ahead"):
            CarFollowingEvent.from_arrays("x", t, [10, 10.8, 11.6], [8, 8, 8],
                                          [10, 10.8, 11.6], [8, 8, 8])

    def test_too_few_samples_rejected(self):
        with pytest.raises(DataError, match="at least 2"):
            CarFollowingEvent.from_arrays("x", [0.0], [12.0], [8.0], [0.0], [8.0])


class TestSplitDataset:
    def test_exact_split_arithmetic(self):
        events = make_fleet(10, seed=3)
        split = split_dataset(events, 0.7, seed=42)
        assert len(split.train) == 7
        assert len(split.test) == 3

    def test_paper_sized_split(self):
        # 1,341 events split 70/30 -> 938 train + 403 test
        t = np.arange(2) * 0.1
        events = [CarFollowingEvent.from_arrays(f"e{i}", t, [12.0, 12.8], [8, 8], [0.0, 0.8], [8, 8])
                  for i in range(1341)]
        split = split_dataset(events, 0.7, seed=0)
        assert len(split.train) == 938
        assert len(split.test) == 403

    def test_determinism(self):
        events = make_fleet(12, seed=5)
        a = split_dataset(events, 0.7, seed=99)
        b = split_dataset(events, 0.7, seed=99)
        assert [e.event_id for e in a.train] == [e.event_id for e in b.train]
        assert [e.event_id for e in a.test] == [e.event_id for e in b.test]

    @given(st.integers(min_value=0, max_value=2**63), st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_partition_for_any_seed(self, seed, ratio):
        events = make_fleet(9, seed=11)
        split = split_dataset(events, ratio, seed=seed)
        ids = sorted(e.event_id for e in split.train) + sorted(e.event_id for e in split.test)
        assert sorted(ids) == sorted(e.event_id for e in events)
        assert len(split.train) + len(split.test) == len(events)

    def test_ratio_out_of_range(self):
        events = make_fleet(3, seed=1)
        with pytest.raises(ValueError):
            split_dataset(events, 1.0, seed=0)
        with pytest.raises(ValueError):
            split_dataset([], 0.5, seed=0)


class TestDescriptiveStats:
    def test_constant_trace_means_exact(self):
        report = descriptive_stats([constant_event(v=8.0, gap=12.0)])
        assert report["lead_speed"]["mean"] == 8.0
        assert report["follow_speed"]["mean"] == 8.0
        assert report["gap"]["mean"] == pytest.approx(12.0, abs=1e-9)

    def test_symmetric_two_event_mean(self):
        a = constant_event("a", v=4.0)
        b = constant_event("b", v=12.0)
        report = descriptive_stats([a, b])
        assert report["follow_speed"]["mean"] == 8.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            descriptive_stats([])

    def test_histograms_present_and_conserving(self):
        events = make_fleet(4, seed=2)
        report = descriptive_stats(events, bins=20)
        for name in ("lead_speed", "follow_speed", "gap", "ttc", "jerk", "headway"):
            assert name in report["histograms"]
        assert sum(report["histograms"]["lead_speed"]["count"]) == report["samples"]

    def test_plain_json_ready_data(self):
        report = descriptive_stats(make_fleet(2, seed=2), bins=5)
        assert json.loads(json.dumps(report, allow_nan=False)) == report
        assert type(report["samples"]) is int and type(report["gap"]["mean"]) is float
        for hist in report["histograms"].values():
            assert list(hist) == ["bin_left", "bin_right", "count"]
            assert {type(x) for x in hist["bin_left"] + hist["bin_right"]} == {float}
            assert {type(n) for n in hist["count"]} == {int}

    def test_histogram_csv(self, tmp_path):
        write_events(make_fleet(2, seed=2), tmp_path / "events.csv")
        assert main(["stats", "--events", str(tmp_path / "events.csv"), "--bins", "10",
                     "--out", str(tmp_path)]) == 0
        path = tmp_path / "hist_gap.csv"
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        assert len(lines) == 11


# speeds that make standstill steps (below the headway floor) and equal
# leader/follower speeds (rel_speed 0, no TTC) common
SPEEDS = st.one_of(st.sampled_from([0.0, 0.05, 0.1, 8.0]), st.floats(0.01, 30.0))


@st.composite
def ragged_fleet(draw):
    events = []
    for i in range(draw(st.integers(1, 5))):
        n = draw(st.integers(2, 30))
        dt = draw(st.sampled_from([0.1, 0.5]))
        v_lead = np.array(draw(st.lists(SPEEDS, min_size=n, max_size=n)))
        v_follow = np.array(draw(st.lists(SPEEDS, min_size=n, max_size=n)))
        gaps = np.array(draw(st.lists(st.floats(0.5, 60.0), min_size=n, max_size=n)))
        if i == 0:   # every fleet has both kinds of step
            v_follow[0] = 0.0
            v_lead[-1] = v_follow[-1]
        x_follow = np.cumsum(np.concatenate([[0.0], v_follow[:-1] * dt]))
        events.append(CarFollowingEvent.from_arrays(f"e{i}", np.arange(n) * dt,
                                                    x_follow + gaps, v_lead, x_follow, v_follow))
    return events


class TestPooledStatistics:
    """The statistics of the pooled steps equal those of the per-event loop."""

    @given(ragged_fleet(), st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_the_per_event_form_gives_the_same_bits(self, events, bins):
        assert json.dumps(descriptive_stats(events, bins)) == \
            json.dumps(reference_stats.descriptive_stats(events, bins))
        try:
            want = reference_stats.fit_lognormal_headway(events)
        except FitError as exc:
            with pytest.raises(FitError, match=f"^{re.escape(str(exc))}$"):
                fit_lognormal_headway(events)
        else:
            assert [x.hex() for x in fit_lognormal_headway(events)] == [x.hex() for x in want]

    def test_no_events_is_a_fit_error(self):
        with pytest.raises(FitError, match="got 0"):
            fit_lognormal_headway([])


class TestLognormalFit:
    def _event_with_headways(self, headways):
        # constant follower speed 1 m/s makes gap equal to headway
        n = len(headways)
        t = np.arange(n) * 0.1
        x_follow = t * 1.0
        v = np.ones(n)
        x_lead = x_follow + np.asarray(headways)
        return CarFollowingEvent.from_arrays("h", t, x_lead, v, x_follow, v)

    def test_degenerate_distribution(self):
        ev = self._event_with_headways([math.e] * 5)
        mu, sigma = fit_lognormal_headway([ev])
        assert mu == pytest.approx(1.0, abs=1e-12)
        assert sigma == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_log_moments(self):
        # headways {e^0, e^2}: mean(ln h) = 1, population stddev = 1
        ev = self._event_with_headways([1.0, math.e ** 2])
        mu, sigma = fit_lognormal_headway([ev])
        assert mu == pytest.approx(1.0, rel=1e-12)
        assert sigma == pytest.approx(1.0, rel=1e-12)

    def test_standstill_steps_excluded(self):
        n = 4
        t = np.arange(n) * 0.1
        v = np.array([1.0, 0.05, 1.0, 1.0])  # second step under the floor
        x_follow = np.zeros(n)
        x_lead = x_follow + np.array([1.0, 99.0, 1.0, 1.0])
        ev = CarFollowingEvent.from_arrays("f", t, x_lead, v, x_follow, v)
        mu, sigma = fit_lognormal_headway([ev])
        assert mu == pytest.approx(0.0, abs=1e-12)

    def test_too_few_samples(self):
        # a follower creeping below the speed floor leaves no headway sample
        n = 3
        t = np.arange(n) * 0.1
        v = np.full(n, 0.05)
        x_follow = t * 0.05
        ev = CarFollowingEvent.from_arrays("slow", t, x_follow + 5.0, v, x_follow, v)
        with pytest.raises(FitError):
            fit_lognormal_headway([ev])
