import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecofollower.events import (CarFollowingEvent, ColumnMapping, DataError,
                                FitError, SchemaError, descriptive_stats,
                                extract_events, fit_lognormal_headway,
                                load_events, split_dataset, write_events)

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
        assert report.lead_speed["mean"] == 8.0
        assert report.follow_speed["mean"] == 8.0
        assert report.gap["mean"] == pytest.approx(12.0, abs=1e-9)

    def test_symmetric_two_event_mean(self):
        a = constant_event("a", v=4.0)
        b = constant_event("b", v=12.0)
        report = descriptive_stats([a, b])
        assert report.follow_speed["mean"] == 8.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            descriptive_stats([])

    def test_histograms_present_and_conserving(self):
        events = make_fleet(4, seed=2)
        report = descriptive_stats(events, bins=20)
        for name in ("lead_speed", "follow_speed", "gap", "ttc", "jerk", "headway"):
            assert name in report.histograms
        assert report.histograms["lead_speed"].count.sum() == report.samples

    def test_histogram_csv(self, tmp_path):
        report = descriptive_stats(make_fleet(2, seed=2), bins=10)
        path = tmp_path / "hist.csv"
        report.histograms["gap"].write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        assert len(lines) == 11


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
