"""The bytes of every CSV table the pipeline writes, and float round-trips."""

import csv

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from ecofollower.ddpg import TrainLog, TrainLogRow
from ecofollower.env import SimulatedTrace
from ecofollower.evaluate import INDICATOR_FILES, EvalConfig, TraceValues, export_distributions
from ecofollower.events import CarFollowingEvent, Histogram, write_csv, write_events


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
        hist = Histogram(np.array([-0.5, -0.0]), np.array([-0.0, 0.5]), np.array([3, 0]))
        hist.write_csv(tmp_path / "hist.csv")
        assert (tmp_path / "hist.csv").read_bytes() == (
            b"bin_left,bin_right,count\r\n"
            b"-0.5,-0.0,3\r\n"
            b"-0.0,0.5,0\r\n")

    def test_distributions(self, tmp_path):
        def values(signed, headway):
            arr = np.array(signed)
            return TraceValues(trace=None, ttc_closing=arr, ttc_signed=arr, jerk=arr,
                               headway=np.array(headway), fuel_rate=arr)

        paths = export_distributions({"policy": [values([-1.0, 1.0], [])],
                                      "a,b": [values([0.0], [])]},
                                     tmp_path, EvalConfig(bins=2))
        assert [p.name for p in paths] == [f"{name}.csv" for name in INDICATOR_FILES]
        header = b'bin_left,bin_right,policy,"a,b"\r\n'
        filled = header + b"-1.0,0.0,1,0\r\n0.0,1.0,1,1\r\n"
        assert {p.name: p.read_bytes() for p in paths} == {
            "ttc.csv": filled, "jerk.csv": filled, "fuel_rate.csv": filled,
            "headway.csv": header}

    def test_trainlog(self, tmp_path):
        log = TrainLog([TrainLogRow(0, -0.0, -0.5, 0, 12, 1.25),
                        TrainLogRow(1, 1e-300, 0.1, 1, 7, 2.5)])
        log.write_csv(tmp_path / "log.csv")
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
