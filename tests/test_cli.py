import dataclasses
import io
import json
import math
import os
import re
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ecofollower.events
from ecofollower import cli
from ecofollower.cli import _configs, main, read_config
from ecofollower.ddpg import TrainConfig, TrainingError
from ecofollower.env import EnvConfig
from ecofollower.evaluate import EmptyResultError, EvalConfig, NonFiniteFuelError
from ecofollower.events import (CANONICAL_FIELDS, CarFollowingEvent, ColumnMapping, DataError,
                                SchemaError, load_events, write_events)
from ecofollower.idm import IdmParams, idm_controller
from ecofollower.nets import PolicyLoadError, load_policy
from ecofollower.objectives import RewardConfig
from ecofollower.vtmicro import load_coefficients, reference_model

from forking import assert_no_child_left, count_forks, record_exits
from reference_vtmicro import fuel_rate
from synthetic import constant_event, make_fleet, positions_from_speeds

CANONICAL = {f: f for f in CANONICAL_FIELDS}
ZERO_K = [[0] * 4] * 4


def strict_json(path):
    """Parse a JSON file, failing on the bare NaN/Infinity that strict parsers reject."""
    def reject(token):
        raise ValueError(f"{path}: bare {token} is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


@pytest.fixture(scope="module")
def fleet_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "events.csv"
    write_events(make_fleet(6, seed=61, duration_range=(16.0, 20.0)), path)
    return path


def tiny_train_config(tmp_path, **train_over):
    cfg = {"train": {"episodes": 3, "warmup_steps": 20, "batch_size": 8,
                     "hidden_sizes": [8, 8], **train_over}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def _outputs(out: Path) -> dict:
    """Every file under ``out`` but the manifest (its paths and timestamp differ), by path."""
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


class TestPrepare:
    def test_prepare_writes_events_and_summary(self, tmp_path, fleet_csv):
        out = tmp_path / "out"
        code = main(["prepare", "--input", str(fleet_csv), "--out", str(out)])
        assert code == 0
        events = load_events(out / "events.csv", min_duration=0.0)
        assert len(events) == 6
        summary = json.loads((out / "summary.json").read_text())
        assert summary["events"] == 6
        assert (out / "manifest.json").exists()

    def test_all_events_too_short_exit_3(self, tmp_path):
        src = tmp_path / "short.csv"
        write_events([constant_event("s", duration=5.0)], src)
        code = main(["prepare", "--input", str(src), "--out", str(tmp_path / "o")])
        assert code == 3

    def test_missing_column_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("event_id,t,x_lead\ne,0.0,12.0\n")
        code = main(["prepare", "--input", bad.as_posix(), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_bad_mapping_names_missing_column(self, tmp_path, fleet_csv, capsys):
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"columns": {
            "event_id": "event_id", "t": "t", "x_lead": "NOPE", "v_lead": "v_lead",
            "x_follow": "x_follow", "v_follow": "v_follow"}}))
        code = main(["prepare", "--input", str(fleet_csv), "--mapping", str(mapping),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "NOPE" in capsys.readouterr().err

    @pytest.mark.parametrize("obj, named", [
        pytest.param({"columns": CANONICAL, "scale": {"v_follow": 0.3048, "v_folow": 0.3048}},
                     "v_folow", id="scale-v_folow-0.3048"),
        pytest.param({"columns": {**CANONICAL, "lane": "lane"}, "scale": {"v_follow": 0.3048}},
                     "lane", id="columns-lane-lane"),
        pytest.param({"columns": CANONICAL, "scales": {"v_follow": 0.3048}}, "scales",
                     id="scales-beside-columns"),
        pytest.param({"cols": {}}, "cols", id="no-columns-block"),
        pytest.param([{"columns": CANONICAL}], "JSON object", id="top-level-list"),
    ])
    def test_unknown_mapping_key_exit_2(self, tmp_path, fleet_csv, capsys, obj, named):
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps(obj))
        code = main(["prepare", "--input", str(fleet_csv), "--mapping", str(mapping),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o" / "events.csv").exists()

    @pytest.mark.parametrize("field, value", [("t", 0), ("x_lead", -0.3048), ("v_follow", -0.0)])
    def test_non_positive_mapping_scale_exit_2(self, tmp_path, fleet_csv, capsys, field, value):
        mapping = tmp_path / "map.json"
        mapping.write_text(json.dumps({"columns": CANONICAL, "scale": {field: value}}))
        code = main(["prepare", "--input", str(fleet_csv), "--mapping", str(mapping),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert f"mapping.scale.{field} must be positive" in line and "map.json" in line
        assert not (tmp_path / "o" / "events.csv").exists()

    @pytest.mark.parametrize("dt", ["-0.2", "nan"])
    def test_negative_or_nan_dt_exit_1(self, tmp_path, fleet_csv, capsys, dt):
        # the file is sampled at 0.1 s; only --dt 0 switches the check off
        out = tmp_path / "o"
        assert main(["prepare", "--input", str(fleet_csv), f"--dt={dt}", "--out", str(out)]) == 1
        assert "--dt" in capsys.readouterr().err
        assert not out.exists()
        assert main(["prepare", "--input", str(fleet_csv), "--dt=0", "--out", str(out)]) == 0

    @pytest.mark.parametrize("min_duration", ["nan", "inf", "-1"])
    def test_non_finite_or_negative_min_duration_exit_1(self, tmp_path, fleet_csv, capsys,
                                                        min_duration):
        # nan compares false, so the length filter would keep every event
        out = tmp_path / "o"
        assert main(["prepare", "--input", str(fleet_csv), f"--min-duration={min_duration}",
                     "--out", str(out)]) == 1
        assert "--min-duration" in capsys.readouterr().err
        assert not out.exists()

    def test_min_duration_filter(self, tmp_path):
        src = tmp_path / "mix.csv"
        write_events([constant_event("long", duration=20.0),
                      constant_event("short", duration=5.0)], src)
        out = tmp_path / "o"
        assert main(["prepare", "--input", str(src), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["events"] == 1
        assert summary["rejected"] == [{"event_id": "short", "reason": "too_short"}]

    def test_forked_writer_gives_the_serial_bytes(self, tmp_path, fleet_csv, monkeypatch):
        # the fixture's 1,117 rows are under the row floor
        monkeypatch.setattr(ecofollower.events, "WRITE_FORK_ROWS", 0)
        forks = count_forks(monkeypatch)
        assert main(["prepare", "--input", str(fleet_csv), "--out", str(tmp_path / "forked")]) == 0
        assert forks == [1]
        assert_no_child_left()
        monkeypatch.delattr(os, "fork")
        assert main(["prepare", "--input", str(fleet_csv), "--out", str(tmp_path / "serial")]) == 0
        forked = _outputs(tmp_path / "forked")
        assert forked == _outputs(tmp_path / "serial")
        assert forked[Path("events.csv")] == fleet_csv.read_bytes()

    def test_forked_reader_and_writer_give_the_serial_bytes(self, tmp_path, fleet_csv,
                                                            monkeypatch):
        # with the fork floors under the fixture's size, the read forks too
        monkeypatch.setattr(ecofollower.events, "READ_FORK_BYTES", fleet_csv.stat().st_size)
        monkeypatch.setattr(ecofollower.events, "WRITE_FORK_ROWS", 0)
        forks = count_forks(monkeypatch)
        assert main(["prepare", "--input", str(fleet_csv), "--out", str(tmp_path / "forked")]) == 0
        assert forks == [1, 1]
        assert_no_child_left()
        monkeypatch.delattr(os, "fork")
        assert main(["prepare", "--input", str(fleet_csv), "--out", str(tmp_path / "serial")]) == 0
        forked = _outputs(tmp_path / "forked")
        assert forked == _outputs(tmp_path / "serial")
        assert forked[Path("events.csv")] == fleet_csv.read_bytes()

    @pytest.mark.parametrize("failing", ["head", "copy"])
    def test_failed_parent_write_exit_2(self, tmp_path, fleet_csv, monkeypatch, capsys,
                                        failing):
        # the parent's own rows, or its write of the child's text, fail; the child succeeds
        parent, real_write = os.getpid(), ecofollower.events._write_blocks
        real_in_two, child_done = ecofollower.events.in_two, []

        def write_blocks(fh, blocks):
            if os.getpid() == parent:
                raise OSError("disk full")
            real_write(fh, blocks)

        def in_two(here, there):
            result = real_in_two(here, there)
            child_done.append(1)
            return result

        class FullOnceTheChildIsDone(io.TextIOWrapper):
            def write(self, text):
                if child_done:
                    raise OSError("disk full")
                return super().write(text)

        def open_for_write(path, mode="r", **kwargs):
            if mode in ("w", "a"):
                return FullOnceTheChildIsDone(open(path, mode + "b"), **kwargs)
            return open(path, mode, **kwargs)

        if failing == "head":
            monkeypatch.setattr(ecofollower.events, "_write_blocks", write_blocks)
        else:
            monkeypatch.setattr(ecofollower.events, "in_two", in_two)
            monkeypatch.setattr(ecofollower.events, "open", open_for_write, raising=False)
        monkeypatch.setattr(ecofollower.events, "WRITE_FORK_ROWS", 0)
        forks = count_forks(monkeypatch)
        code = main(["prepare", "--input", str(fleet_csv), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == "error: disk full\n"
        assert forks == [1]
        assert_no_child_left()
        assert [p.name for p in (tmp_path / "o").iterdir()
                if p.name not in ("summary.json", "manifest.json", "events.csv")] == []


class TestStats:
    def test_stats_outputs(self, tmp_path, fleet_csv):
        out = tmp_path / "stats"
        code = main(["stats", "--events", str(fleet_csv), "--out", str(out), "--bins", "12"])
        assert code == 0
        obj = json.loads((out / "stats.json").read_text())
        assert obj["events"] == 6
        assert "mu" in obj["headway_lognormal"]
        assert (out / "hist_headway.csv").exists()
        assert (out / "hist_ttc.csv").exists()

    def test_subset_flag(self, tmp_path, fleet_csv):
        out = tmp_path / "stats_train"
        code = main(["stats", "--events", str(fleet_csv), "--out", str(out),
                     "--subset", "train", "--ratio", "0.5", "--seed", "3"])
        assert code == 0
        assert json.loads((out / "stats.json").read_text())["events"] == 3

    def test_idempotent_outputs(self, tmp_path, fleet_csv):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["stats", "--events", str(fleet_csv), "--out", str(out)]) == 0
        assert (out1 / "stats.json").read_bytes() == (out2 / "stats.json").read_bytes()
        assert (out1 / "hist_gap.csv").read_bytes() == (out2 / "hist_gap.csv").read_bytes()

    def test_subnormal_speed_difference_exit_0_quietly(self, tmp_path, capsys):
        # a follower 5e-324 m/s faster than its stopped leader: the TTC division
        # overflows, and the clip to the cap takes the inf without a warning
        events = tmp_path / "subnormal.csv"
        t = np.arange(4) * 0.1
        write_events([CarFollowingEvent.from_arrays("e1", t, np.full(4, 10.0), np.zeros(4),
                                                    np.zeros(4), [0.0, 0.0, 5e-324, 0.0])],
                     events)
        assert main(["stats", "--events", str(events), "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""

    def test_empty_subset_exit_3(self, tmp_path, capsys):
        # at --ratio 0.7 a one-event file has no training event
        events = tmp_path / "one.csv"
        write_events([constant_event("only", duration=20.0)], events)
        out = tmp_path / "o"
        assert main(["stats", "--events", str(events), "--subset", "train", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: --subset train of 1 events")
        assert not any(p.is_file() for p in out.rglob("*"))


class TestTrain:
    def test_train_writes_artifacts(self, tmp_path, fleet_csv):
        out = tmp_path / "run"
        cfg = tiny_train_config(tmp_path)
        code = main(["train", "--events", str(fleet_csv), "--out", str(out),
                     "--seed", "5", "--config", str(cfg)])
        assert code == 0
        for name in ("policy.json", "trainlog.csv", "manifest.json",
                     "events_train.csv", "events_test.csv"):
            assert (out / name).exists(), name
        log_lines = (out / "trainlog.csv").read_text().strip().splitlines()
        assert len(log_lines) == 1 + 3  # header + episodes
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 5

    def test_same_seed_identical_policy_files(self, tmp_path, fleet_csv):
        cfg = tiny_train_config(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["train", "--events", str(fleet_csv), "--out", str(out),
                         "--seed", "9", "--config", str(cfg)]) == 0
            outs.append(out)
        assert (outs[0] / "policy.json").read_bytes() == (outs[1] / "policy.json").read_bytes()
        assert (outs[0] / "trainlog.csv").read_bytes() == (outs[1] / "trainlog.csv").read_bytes()

    def test_defaults_echoed_in_manifest(self, tmp_path, fleet_csv):
        out = tmp_path / "run"
        code = main(["train", "--events", str(fleet_csv), "--out", str(out),
                     "--episodes", "2", "--config", str(tiny_train_config(tmp_path))])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config_hash"]

    def test_empty_events_exit_3(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("event_id,t,x_lead,v_lead,x_follow,v_follow\n")
        code = main(["train", "--events", str(empty), "--out", str(tmp_path / "o")])
        assert code == 3

    def test_empty_training_split_exit_3(self, tmp_path, capsys):
        # --split 0.7 of one event leaves floor(0.7) = 0 to train on
        events = tmp_path / "one.csv"
        write_events([constant_event("only", duration=20.0)], events)
        out = tmp_path / "o"
        assert main(["train", "--events", str(events), "--episodes", "1", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: the training set of 1 events at --split 0.7")
        assert not any(p.is_file() for p in out.rglob("*"))

    def test_forked_writers_give_the_serial_bytes(self, tmp_path, fleet_csv, monkeypatch):
        # the training and the test events file each fork once, the row floor at 0
        argv = ["train", "--events", str(fleet_csv), "--seed", "5",
                "--config", str(tiny_train_config(tmp_path))]
        monkeypatch.setattr(ecofollower.events, "WRITE_FORK_ROWS", 0)
        forks = count_forks(monkeypatch)
        assert main([*argv, "--out", str(tmp_path / "forked")]) == 0
        assert forks == [1, 1]
        assert_no_child_left()
        monkeypatch.delattr(os, "fork")
        assert main([*argv, "--out", str(tmp_path / "serial")]) == 0
        assert _outputs(tmp_path / "forked") == _outputs(tmp_path / "serial")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    base = tmp_path_factory.mktemp("trained")
    events = base / "events.csv"
    write_events(make_fleet(6, seed=61, duration_range=(16.0, 20.0)), events)
    cfg = base / "config.json"
    cfg.write_text(json.dumps({"train": {"episodes": 3, "warmup_steps": 20,
                                         "batch_size": 8, "hidden_sizes": [8, 8]}}))
    out = base / "run"
    assert main(["train", "--events", str(events), "--out", str(out),
                 "--seed", "1", "--config", str(cfg)]) == 0
    return {"events": events, "out": out, "cfg": cfg}


class TestEvalCompare:
    def test_ground_truth_only(self, tmp_path, trained):
        out = tmp_path / "eval"
        code = main(["eval", "--events", str(trained["events"]), "--ground-truth",
                     "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "summary_ground_truth.json").read_text())
        assert summary["events"] == 6
        assert (out / "distributions" / "ttc.csv").exists()
        assert (out / "traces" / "ground_truth").is_dir()

    def test_no_controllers_usage_error(self, tmp_path, trained, capsys):
        code = main(["eval", "--events", str(trained["events"]), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "--ground-truth" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unreadable_policy_exit_2(self, tmp_path, trained):
        bad = tmp_path / "bad_policy.json"
        bad.write_text("{not json")
        code = main(["eval", "--events", str(trained["events"]), "--policy", str(bad),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_three_controller_compare(self, tmp_path, trained):
        out = tmp_path / "cmp"
        code = main(["compare", "--events", str(trained["events"]),
                     "--policy", str(trained["out"] / "policy.json"),
                     "--idm-params", "--config", str(trained["cfg"]),
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        names = [c["name"] for c in report["controllers"]]
        assert names == ["policy", "idm", "ground_truth"]
        assert report["baseline"] == "ground_truth"
        assert set(report["fuel_saving_pct"]) == {"policy", "idm"}
        table = (out / "report.txt").read_text()
        assert table.splitlines()[0].startswith("Model")
        for col in ("TTC (s)", "Jerk (m/s^3)", "Time Headway (s)", "Fuel Consumption (mL/s)"):
            assert col in table.splitlines()[0]

    def test_undefined_ttc_is_null(self, tmp_path):
        # the leader pulls away from a follower that stays below it: no step closes the gap
        n, dt = 161, 0.1
        v_lead, v_follow = np.full(n, 20.0), np.full(n, 10.0)
        x_follow = positions_from_speeds(v_follow, dt)
        events = tmp_path / "receding.csv"
        write_events([CarFollowingEvent.from_arrays(
            "recede", np.arange(n) * dt, positions_from_speeds(v_lead, dt, 15.0), v_lead,
            x_follow, v_follow)], events)
        out = tmp_path / "cmp"
        assert main(["compare", "--events", str(events), "--idm-params", "--out", str(out)]) == 0
        report = strict_json(out / "report.json")
        for name in ("idm", "ground_truth"):
            summary = strict_json(out / f"summary_{name}.json")
            assert summary["indicators"]["mean_ttc_s"] is None
            assert summary["metadata"]["ttc_steps"] == 0
            assert summary["indicators"]["mean_headway_s"] > 0
        assert [c["indicators"]["mean_ttc_s"] for c in report["controllers"]] == [None, None]
        rows = (out / "report.txt").read_text().splitlines()[2:]
        assert [row.split()[1] for row in rows] == ["-", "-"]

    def test_hidden_activation_other_than_tanh_exit_2(self, tmp_path, trained, capsys):
        policy = json.loads((trained["out"] / "policy.json").read_text())
        policy["hidden_activation"] = "relu"
        path = tmp_path / "relu_policy.json"
        path.write_text(json.dumps(policy))
        code = main(["eval", "--events", str(trained["events"]), "--policy", str(path),
                     "--config", str(trained["cfg"]), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "relu" in capsys.readouterr().err

    def test_controller_failing_every_event_exit_3(self, tmp_path, trained, capsys):
        # (v / v_desired) ** beta overflows a Python float at the first step of every event
        params = tmp_path / "idm.json"
        params.write_text(json.dumps({"v_desired": 1e-100}))
        code = main(["eval", "--events", str(trained["events"]), "--idm-params", str(params),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "failed on every event" in err and "failed at step 0" in err
        first_id = min(ev.event_id for ev in load_events(trained["events"], min_duration=0.0))
        assert first_id in err

    def test_nan_policy_fails_every_event_exit_3(self, tmp_path, trained, capsys, monkeypatch):
        # a NaN in the policy file is refused on loading (exit 2); a net whose
        # output is NaN still fails every event at its first step
        real = cli.load_policy

        def nan_output(path, expect_sizes=None):
            net = real(path, expect_sizes)
            net.biases[-1][:] = math.nan
            return net

        monkeypatch.setattr(cli, "load_policy", nan_output)
        code = main(["eval", "--events", str(trained["events"]),
                     "--policy", str(trained["out"] / "policy.json"),
                     "--config", str(trained["cfg"]), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "failed at step 0" in err and "non-finite command nan" in err
        first_id = min(ev.event_id for ev in load_events(trained["events"], min_duration=0.0))
        assert first_id in err

    @pytest.mark.parametrize("key, index, value", [
        pytest.param("biases", (-1, 0), math.nan, id="nan-bias"),
        pytest.param("weights", (0, 0, 0), math.inf, id="infinity-weight"),
        pytest.param("weights", (1, 2, 3), -math.inf, id="minus-infinity-weight"),
        pytest.param("weights", (0, 1, 0), 10**400, id="integer-past-float-range"),
        pytest.param("version", (), True, id="version-true"),
    ])
    def test_non_finite_or_mistyped_policy_exit_2(self, tmp_path, trained, capsys,
                                                  key, index, value):
        policy = json.loads((trained["out"] / "policy.json").read_text())
        target, (*outer, last) = policy, (key, *index)
        for i in outer:
            target = target[i]
        target[last] = value
        path = tmp_path / "odd_policy.json"
        path.write_text(json.dumps(policy))
        with pytest.raises(PolicyLoadError, match="odd_policy.json"):
            load_policy(path)
        code = main(["eval", "--events", str(trained["events"]), "--policy", str(path),
                     "--config", str(trained["cfg"]), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "odd_policy.json" in err and err.startswith("error: ") and err.count("\n") == 1

    def test_zero_baseline_fuel_saving_is_null(self, tmp_path, trained):
        # exp(-1000) underflows, so every rate, the baseline's too, is 0 mL/s
        k = [[0] * 4 for _ in range(4)]
        k[0][0] = -1000
        table = tmp_path / "zero_fuel.json"
        table.write_text(json.dumps({"regime": "acceleration", "k": k}))
        out = tmp_path / "cmp"
        assert main(["compare", "--events", str(trained["events"]), "--idm-params",
                     "--vt-micro", str(table), "--out", str(out)]) == 0
        report = strict_json(out / "report.json")
        assert report["fuel_saving_pct"] == {"idm": None}
        assert [c["indicators"]["mean_fuel_rate_ml_s"] for c in report["controllers"]] == [0, 0]
        rows = (out / "report.txt").read_text().splitlines()[2:]
        assert [row.split()[4:6] for row in rows] == [["0.000", "-"], ["0.000", "-"]]

    def test_errors_json_lists_the_failed_event(self, tmp_path, trained, monkeypatch):
        events = load_events(trained["events"], min_duration=0.0)
        bad = events[2]
        bad_gap = float(bad.x_lead[0] - bad.x_follow[0])
        real = cli.idm_controller

        def flaky_idm(params):
            inner = real(params)

            def control(state, k):
                if np.any(state.spacing == bad_gap):
                    raise RuntimeError("radar dropout")
                return inner(state, k)
            return control

        monkeypatch.setattr(cli, "idm_controller", flaky_idm)
        out = tmp_path / "cmp"
        assert main(["compare", "--events", str(trained["events"]), "--idm-params",
                     "--out", str(out)]) == 0
        errors = strict_json(out / "errors.json")
        assert errors == {"idm": [{
            "event_id": bad.event_id,
            "message": f"controller failed at step 0 of event {bad.event_id}: radar dropout"}],
            "ground_truth": []}
        assert strict_json(out / "summary_idm.json")["errors"] == 1

    def test_errors_json_empty_when_nothing_failed(self, tmp_path, trained):
        out = tmp_path / "eval"
        assert main(["eval", "--events", str(trained["events"]), "--idm-params",
                     "--out", str(out)]) == 0
        assert strict_json(out / "errors.json") == {"idm": []}

    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_non_finite_fuel_exit_4(self, tmp_path, capsys, command):
        # a recorded follower jumping from 0 to ~8 m/s in one step overflows
        # VT-Micro; put that step in the first, the middle and the last event
        fuel = reference_model()
        for i, k in ((0, 0), (1, 37), (2, 120)):
            events = make_fleet(3, seed=7)
            v_follow = events[i].v_follow.copy()
            v_follow[k] = 0.0
            events[i] = dataclasses.replace(events[i], v_follow=v_follow)
            path = tmp_path / f"jump{i}.csv"
            write_events(events, path)
            # the first recorded step, in event_id order, whose rate is not finite
            want = next((ev.event_id, j) for ev in sorted(load_events(path, min_duration=0.0),
                                                          key=lambda ev: ev.event_id)
                        for j in range(len(ev) - 1)
                        if not math.isfinite(fuel_rate(fuel.accel, fuel.decel, ev.v_follow[j],
                                                       (ev.v_follow[j + 1] - ev.v_follow[j]) / ev.dt)))
            assert want[0] == events[i].event_id
            out = tmp_path / f"o{i}"
            code = main([command, "--events", str(path), "--idm-params", "--ground-truth",
                         "--out", str(out)])
            assert code == 4
            err = capsys.readouterr().err
            assert "'ground_truth'" in err and f"step {want[1]} of event {want[0]}" in err
            assert not any(p.is_file() for p in out.rglob("*"))

    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_events_sharing_a_trace_file_exit_2(self, tmp_path, capsys, command):
        events = [constant_event("1/2"), constant_event("1_2", gap=20.0)]
        path = tmp_path / "clash.csv"
        write_events(events, path)
        out = tmp_path / "o"
        code = main([command, "--events", str(path), "--idm-params", "--ground-truth",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "'1/2'" in err and "'1_2'" in err and "1_2.csv" in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("obj, named", [
        pytest.param({"regime": "acceleration", "k": ZERO_K, "units": {"speed": "furlong/s"}},
                     "furlong/s", id="unknown-unit"),
        pytest.param([{"regime": "acceleration", "k": ZERO_K}, ZERO_K], "JSON object",
                     id="table-not-an-object"),
        pytest.param({"regime": "acceleration", "k": ZERO_K, "units": "km/h"}, "units",
                     id="units-not-an-object"),
        pytest.param({"regime": "acceleration", "k": [[0] * 4, [0] * 3, [0] * 4, [0] * 4]},
                     "4x4", id="ragged-k"),
        pytest.param({"regime": "acceleration", "k": ZERO_K, "units": {"speed_scale": "fast"}},
                     "speed_scale", id="non-numeric-speed_scale"),
        pytest.param({"regime": "acceleration", "k": ZERO_K, "units": {"output_scale": 0}},
                     "output_scale", id="output_scale-0"),
        # an unknown key would read the table in the wrong units
        pytest.param({"regime": "acceleration", "k": ZERO_K, "unit": {"speed": "km/h"}},
                     "table.unit", id="table-key-unit"),
        pytest.param({"regime": "acceleration", "k": ZERO_K, "units": {"sped": "km/h"}},
                     "units.sped", id="units-key-sped"),
        # a unit and its number are alternatives; reading one would drop the other
        pytest.param({"regime": "acceleration", "k": ZERO_K,
                      "units": {"speed": "km/h", "speed_scale": 1.0}},
                     "units.speed and units.speed_scale", id="speed-and-speed_scale"),
        pytest.param({"regime": "acceleration", "k": ZERO_K,
                      "units": {"acceleration": "m/s^2", "accel_scale": 3.6}},
                     "units.acceleration and units.accel_scale",
                     id="acceleration-and-accel_scale"),
        pytest.param([{"regime": "acceleration", "k": ZERO_K},
                      {"regime": "deceleration", "k": ZERO_K,
                       "units": {"output": "L/s", "output_scale": 1000}}],
                     "units.output and units.output_scale", id="output-and-output_scale"),
    ])
    def test_malformed_vt_micro_exit_2(self, tmp_path, trained, capsys, obj, named):
        path = tmp_path / "bad_vt_micro.json"
        path.write_text(json.dumps(obj))
        code = main(["eval", "--events", str(trained["events"]), "--idm-params",
                     "--vt-micro", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad_vt_micro.json" in err and named in err and "Traceback" not in err

    @pytest.mark.parametrize("units, named", [
        ({"speed_scale": 1e300}, "k[2][0] folded by units.speed_scale 1e+300 is past"),
        ({"accel_scale": 1e300}, "k[0][2] folded by units.accel_scale 1e+300 is past"),
        ({"speed_scale": 1e100, "accel_scale": 1e100},
         "k[1][3] folded by units.speed_scale 1e+100 and units.accel_scale 1e+100 is past"),
    ], ids=["speed_scale", "accel_scale", "both"])
    def test_scale_past_the_float_range_exit_2_naming_it(self, tmp_path, trained, capsys,
                                                          units, named):
        path = tmp_path / "big_vt_micro.json"
        path.write_text(json.dumps({"regime": "acceleration", "k": [[0.5] * 4] * 4,
                                    "units": units}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["eval", "--events", str(trained["events"]), "--idm-params",
                         "--vt-micro", str(path), "--out", str(tmp_path / "o")])
        assert code == 2 and caught == []
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: VT-Micro coefficient file") and named in line

    def test_policy_with_wrong_sizes_exit_2(self, tmp_path, trained):
        # trained with [8, 8] hidden; default config expects [64, 64]
        code = main(["eval", "--events", str(trained["events"]),
                     "--policy", str(trained["out"] / "policy.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2


@pytest.fixture(scope="module")
def mixed_fleet_csv(tmp_path_factory):
    """Seven events of 5-40 s: one id the trace file name rewrites, and ids
    that differ only in case."""
    events = make_fleet(7, seed=67, duration_range=(5.0, 40.0))
    ids = ["lane 3/car#7", "A", "a"]
    events[:3] = [dataclasses.replace(ev, event_id=eid) for ev, eid in zip(events, ids)]
    path = tmp_path_factory.mktemp("mixed") / "events.csv"
    write_events(events, path)
    return path


class TestTraceWriters:
    """eval and compare write every trace CSV through one ``write_tables`` call,
    with two cores where os.fork exists."""

    @staticmethod
    def _argv(command, trained, events):
        return [command, "--events", str(events), "--policy", str(trained["out"] / "policy.json"),
                "--config", str(trained["cfg"]), "--idm-params", "--ground-truth"]

    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_forked_writer_gives_the_serial_bytes(self, tmp_path, trained, mixed_fleet_csv,
                                                  monkeypatch, command):
        argv = self._argv(command, trained, mixed_fleet_csv)
        forks = count_forks(monkeypatch)
        assert main([*argv, "--out", str(tmp_path / "forked")]) == 0
        assert forks == [1]
        assert_no_child_left()
        monkeypatch.delattr(os, "fork")
        assert main([*argv, "--out", str(tmp_path / "serial")]) == 0
        forked, serial = _outputs(tmp_path / "forked"), _outputs(tmp_path / "serial")
        traces = [p for p in serial if p.parts[0] == "traces"]
        assert len(traces) == 3 * 7 and Path("traces/idm/lane_3_car_7.csv") in traces
        assert forked == serial

    def test_child_opens_no_file(self, tmp_path, trained, mixed_fleet_csv, monkeypatch):
        # the child exits 0 and only formats text; this process writes every trace file
        parent, real_open, opened_here = os.getpid(), open, []

        def open_here_only(path, mode="r", **kwargs):
            if os.getpid() != parent:
                raise AssertionError(f"the child opened {path}")
            opened_here.append(Path(path))
            return real_open(path, mode, **kwargs)

        monkeypatch.setattr(ecofollower.events, "open", open_here_only, raising=False)
        exits = record_exits(monkeypatch)
        out = tmp_path / "o"
        assert main([*self._argv("compare", trained, mixed_fleet_csv), "--out", str(out)]) == 0
        assert exits == [0]
        traces = list((out / "traces").rglob("*.csv"))
        assert len(traces) == 3 * 7 and set(traces) <= set(opened_here)

    def test_failed_fork_writes_every_file(self, tmp_path, trained, mixed_fleet_csv, monkeypatch):
        def no_processes_left():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_processes_left)
        out = tmp_path / "o"
        assert main([*self._argv("compare", trained, mixed_fleet_csv), "--out", str(out)]) == 0
        assert len(list((out / "traces").rglob("*.csv"))) == 3 * 7

    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_one_event_run_forks_nothing(self, tmp_path, monkeypatch, command):
        events = tmp_path / "one.csv"
        write_events([constant_event("only")], events)

        def no_fork():
            raise AssertionError("forked for one event")

        monkeypatch.setattr(os, "fork", no_fork)
        out = tmp_path / "o"
        assert main([command, "--events", str(events), "--idm-params", "--ground-truth",
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in (out / "traces").rglob("*.csv")) == ["only.csv"] * 2

    def test_failed_write_exit_2_in_either_share(self, tmp_path, trained, mixed_fleet_csv,
                                                 monkeypatch, capsys):
        # a trace file fails while the child formats the tail (a head file), or
        # when this process writes the child's text (a tail file)
        real_in_two, real_open = ecofollower.events.in_two, open
        child_done, opened, failing = [], [], [None]

        def in_two(here, there):
            child_done.clear()
            result = real_in_two(here, there)
            child_done.append(True)
            return result

        def open_failing(path, mode="r", **kwargs):
            if set(mode) & set("wa"):
                opened.append((Path(path).parts[-3:], bool(child_done)))
                if opened[-1] == failing[-1]:
                    raise OSError("disk full")
            return real_open(path, mode, **kwargs)

        monkeypatch.setattr(ecofollower.events, "in_two", in_two)
        monkeypatch.setattr(ecofollower.events, "open", open_failing, raising=False)
        forks = count_forks(monkeypatch)
        argv = self._argv("compare", trained, mixed_fleet_csv)
        assert main([*argv, "--out", str(tmp_path / "ok")]) == 0
        traces = [key for key in opened if key[0][0] == "traces"]
        head, tail = [key for key in traces if not key[1]], [key for key in traces if key[1]]
        assert head and tail and forks == [1]
        for key in (head[0], tail[-1]):
            failing.append(key)
            code = main([*argv, "--out", str(tmp_path / ("tail" if key[1] else "head"))])
            err = capsys.readouterr().err
            assert code == 2, err
            assert err == "error: disk full\n"
            assert_no_child_left()
        assert forks == [1, 1, 1]

    @pytest.mark.parametrize("command", ["eval", "compare"])
    def test_every_write_failing_exit_2(self, tmp_path, trained, mixed_fleet_csv, monkeypatch,
                                        capsys, command):
        real_open = open

        def open_full(path, mode="r", **kwargs):
            if set(mode) & set("wa"):
                raise OSError("disk full")
            return real_open(path, mode, **kwargs)

        monkeypatch.setattr(ecofollower.events, "open", open_full, raising=False)
        code = main([*self._argv(command, trained, mixed_fleet_csv), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == "error: disk full\n"
        assert_no_child_left()


def _nan_policy(tmp_path, trained):
    """The trained policy with a NaN weight."""
    policy = json.loads((trained["out"] / "policy.json").read_text())
    policy["weights"][0][0][0] = math.nan
    path = tmp_path / "nan_policy.json"
    path.write_text(json.dumps(policy))
    return path


def _overflowing_table(tmp_path):
    """A VT-Micro table whose every rate, exp(1000), overflows to inf."""
    k = [[0] * 4 for _ in range(4)]
    k[0][0] = 1000
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"regime": "acceleration", "k": k}))
    return path


class TestFailedRunLeavesNoOutDir:
    """A run that exits nonzero makes no --out directory: it is made only once
    every input is read and every result computed."""

    @pytest.mark.parametrize("argv, code", [
        pytest.param(lambda tmp, t: ["stats", "--events", t["events"], "--bins", "0"], 1,
                     id="stats-bins-0"),
        pytest.param(lambda tmp, t: ["stats", "--events", t["events"], "--ratio", "nan",
                                     "--subset", "train"], 1, id="stats-ratio-nan"),
        pytest.param(lambda tmp, t: ["train", "--events", t["events"], "--split", "nan"], 1,
                     id="train-split-nan"),
        pytest.param(lambda tmp, t: ["eval", "--events", t["events"], "--idm-params",
                                     "--config", tmp / "missing.json"], 2,
                     id="eval-missing-config"),
        pytest.param(lambda tmp, t: ["compare", "--events", t["events"], "--idm-params",
                                     "--config", tmp / "missing.json"], 2,
                     id="compare-missing-config"),
        pytest.param(lambda tmp, t: ["eval", "--events", t["events"], "--config", t["cfg"],
                                     "--policy", _nan_policy(tmp, t)], 2,
                     id="eval-nan-policy"),
        pytest.param(lambda tmp, t: ["eval", "--events", t["events"], "--idm-params",
                                     "--vt-micro", _overflowing_table(tmp)], 4,
                     id="eval-non-finite-fuel"),
        pytest.param(lambda tmp, t: ["compare", "--events", t["events"], "--idm-params",
                                     "--vt-micro", _overflowing_table(tmp)], 4,
                     id="compare-non-finite-fuel"),
    ])
    def test_exit_code_and_no_out_dir(self, tmp_path, trained, capsys, argv, code):
        out = tmp_path / "out"
        assert main([*map(str, argv(tmp_path, trained)), "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestUsage:
    def test_unknown_command_exit_1(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag_exit_1(self):
        assert main(["prepare", "--out", "x"]) == 1

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "ecofollow" in capsys.readouterr().out

    def test_bad_split_ratio_exit_1(self, tmp_path, fleet_csv):
        code = main(["train", "--events", str(fleet_csv), "--split", "1.5",
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_unknown_config_field_exit_1(self, tmp_path, fleet_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"env": {"warp_drive": 9}}))
        code = main(["train", "--events", str(fleet_csv), "--config", str(cfg),
                     "--episodes", "1", "--out", str(tmp_path / "o")])
        assert code == 1

    def test_unknown_eval_field_exit_1(self, tmp_path, fleet_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eval": {"ttc_capp": 9}}))
        code = main(["eval", "--events", str(fleet_csv), "--ground-truth",
                     "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_unknown_idm_param_exit_1(self, tmp_path, fleet_csv, capsys):
        params = tmp_path / "idm.json"
        params.write_text(json.dumps({"T_headway": 1.5, "s_jam_typo": 4.0}))
        code = main(["eval", "--events", str(fleet_csv), "--idm-params", str(params),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "s_jam_typo" in capsys.readouterr().err

    def test_unknown_config_block_exit_1(self, tmp_path, fleet_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rewards": {}}))
        code = main(["train", "--events", str(fleet_csv), "--config", str(cfg),
                     "--episodes", "1", "--out", str(tmp_path / "o")])
        assert code == 1


@pytest.mark.parametrize("flag, argv", [
    pytest.param("--config", ["train", "--episodes", "1"], id="train-config"),
    pytest.param("--config", ["eval", "--ground-truth"], id="eval-config"),
    pytest.param("--idm-params", ["eval"], id="idm-params"),
    pytest.param("--mapping", ["prepare"], id="mapping"),
    pytest.param("--vt-micro", ["eval", "--idm-params"], id="vt-micro"),
    pytest.param("--policy", ["eval"], id="policy"),
])
def test_malformed_json_names_its_file(tmp_path, fleet_csv, capsys, flag, argv):
    source = "--input" if argv[0] == "prepare" else "--events"
    # not JSON, not UTF-8 (a UTF-16 byte order mark, then an odd byte), nested
    # past the recursion limit, and a directory
    for i, content in enumerate(["{x", b"\xff\xfe{", "[" * 100_000, None]):
        bad = tmp_path / str(i) / "malformed_input.json"
        if content is None:
            bad.mkdir(parents=True)
        else:
            bad.parent.mkdir()
            bad.write_bytes(content if isinstance(content, bytes) else content.encode())
        code = main([*argv, source, str(fleet_csv), flag, str(bad), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2, (content, err)
        assert "malformed_input.json" in err and "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    pytest.param(["prepare", "--input"], id="prepare"),
    pytest.param(["stats", "--events"], id="stats"),
    pytest.param(["train", "--episodes", "1", "--events"], id="train"),
    pytest.param(["eval", "--ground-truth", "--events"], id="eval"),
])
def test_non_utf8_csv_names_its_file(tmp_path, fleet_csv, capsys, argv):
    # an event id holding the byte ff, which starts no UTF-8 sequence
    lines = fleet_csv.read_bytes().split(b"\n")
    lines[5] = b"\xff" + lines[5]
    bad = tmp_path / "latin_input.csv"
    bad.write_bytes(b"\n".join(lines))
    code = main([*argv, str(bad), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "latin_input.csv" in err and "UTF-8" in err and "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_non_utf8_byte_after_the_first_chunk_names_its_file(tmp_path, fleet_csv, capsys,
                                                            monkeypatch):
    # numpy's reader parses chunks of 64 records, then meets the byte on the
    # last line, past the first 8 KiB the file decodes at once; the file is
    # read again with the csv module, which names it
    monkeypatch.setattr("ecofollower.events.READ_CHUNK_ROWS", 64)
    lines = fleet_csv.read_bytes().split(b"\r\n")
    assert len(lines) > 10 * 64 and len(fleet_csv.read_bytes()) > 10 * 8192
    lines[-2] = b"\xff" + lines[-2]
    bad = tmp_path / "late_latin.csv"
    bad.write_bytes(b"\r\n".join(lines))
    code = main(["stats", "--events", str(bad), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "late_latin.csv" in err and "UTF-8" in err and "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


LONG_CELL = "x" * 200_000   # past the csv module's 131,072-character field limit


def _long_header_csv(path):
    path.write_text(",".join([*CANONICAL_FIELDS, LONG_CELL]) + "\ne,0.0,12.0,5.0,0.0,5.0,\n")
    return path


def _long_id_csv(path, x_lead: str):
    rows = [f"{LONG_CELL},0.0,{x_lead},5.0,0.0,5.0", f"{LONG_CELL},0.1,10.5,5.0,0.5,5.0"]
    path.write_text("\n".join([",".join(CANONICAL_FIELDS), *rows, ""]))
    return path


@pytest.mark.parametrize("argv", [
    pytest.param(["prepare", "--input"], id="prepare"),
    pytest.param(["stats", "--events"], id="stats"),
    pytest.param(["train", "--episodes", "1", "--events"], id="train"),
    pytest.param(["eval", "--ground-truth", "--events"], id="eval"),
    pytest.param(["compare", "--events"], id="compare"),
])
@pytest.mark.parametrize("make_file", [
    pytest.param(_long_header_csv, id="header-cell"),
    # 1_0 is a float() spelling numpy refuses, so the file is read again by the csv module
    pytest.param(lambda path: _long_id_csv(path, "1_0"), id="event-id"),
])
def test_over_long_field_names_its_file(tmp_path, capsys, argv, make_file):
    code = main([*argv, str(make_file(tmp_path / "long_input.csv")), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "long_input.csv" in err and "field larger than field limit" in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_over_long_event_id_loads_through_numpy(tmp_path, monkeypatch):
    def no_reread(*args):
        raise AssertionError("read again by the csv module")

    monkeypatch.setattr("ecofollower.events._float_chunks", no_reread)
    [event] = load_events(_long_id_csv(tmp_path / "long_id.csv", "10.0"), min_duration=0.0)
    assert event.event_id == LONG_CELL and event.x_lead.tolist() == [10.0, 10.5]


def _vt_micro_error(tmp_path):
    path = tmp_path / "vt_micro.json"
    path.write_text(json.dumps({"regime": "acceleration", "k": "none"}))
    with pytest.raises(ValueError) as info:
        load_coefficients(path)
    return info.value


@pytest.mark.parametrize("make_error, code", [
    pytest.param(lambda tmp: EmptyResultError("nothing left"), 3, id="EmptyResultError"),
    pytest.param(lambda tmp: SchemaError("no column t"), 2, id="SchemaError"),
    pytest.param(lambda tmp: DataError("bad row"), 2, id="DataError"),
    pytest.param(lambda tmp: PolicyLoadError("bad policy"), 2, id="PolicyLoadError"),
    pytest.param(lambda tmp: FileNotFoundError(2, "No such file or directory", "e.csv"), 2,
                 id="FileNotFoundError"),
    # every JSON reader names its file in a SchemaError, so a bare decode
    # error is no input error of its own: it exits 1 like any ValueError
    pytest.param(lambda tmp: json.JSONDecodeError("Expecting value", "{", 1), 1,
                 id="JSONDecodeError"),
    pytest.param(_vt_micro_error, 2, id="vt-micro"),
    pytest.param(lambda tmp: TrainingError("diverged"), 4, id="TrainingError"),
    pytest.param(lambda tmp: NonFiniteFuelError("inf"), 4, id="NonFiniteFuelError"),
    pytest.param(lambda tmp: ValueError("bad value"), 1, id="ValueError"),
    pytest.param(lambda tmp: IsADirectoryError(21, "Is a directory", "e.csv"), 2,
                 id="IsADirectoryError"),
])
def test_exit_code_table(tmp_path, monkeypatch, capsys, make_error, code):
    error = make_error(tmp_path)

    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_stats", fail)
    assert main(["stats", "--events", "e.csv", "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err.splitlines() == [f"error: {error}"]


class TestConfigRoundTrip:
    @staticmethod
    def _bump(value):
        """A valid value different from ``value``, of the same type."""
        if dataclasses.is_dataclass(value):
            return dataclasses.replace(value, **{
                f.name: TestConfigRoundTrip._bump(getattr(value, f.name))
                for f in dataclasses.fields(value)})
        if isinstance(value, bool):
            return not value
        if isinstance(value, int):
            return value + 1
        if isinstance(value, float):
            return value * 0.5 + 0.125
        return tuple(v + 1 for v in value)

    @pytest.mark.parametrize("block, cls", [("train", TrainConfig), ("reward", RewardConfig),
                                            ("env", EnvConfig), ("eval", EvalConfig)])
    def test_every_field_roundtrips(self, block, cls):
        default = cls()
        cfg = dataclasses.replace(default, **{f.name: self._bump(getattr(default, f.name))
                                              for f in dataclasses.fields(cls)})
        for f in dataclasses.fields(cls):
            assert getattr(cfg, f.name) != getattr(default, f.name), f.name
        blocks = json.loads(json.dumps({block: dataclasses.asdict(cfg)}))
        resolved = dict(zip(("train", "reward", "env", "eval"), _configs(blocks)))
        assert resolved[block] == cfg

    def test_every_idm_param_roundtrips(self, tmp_path, fleet_csv, monkeypatch):
        default = IdmParams()
        params = self._bump(default)
        for f in dataclasses.fields(IdmParams):
            assert getattr(params, f.name) != getattr(default, f.name), f.name
        path = tmp_path / "idm.json"
        path.write_text(json.dumps(dataclasses.asdict(params)))
        seen = []
        monkeypatch.setattr(cli, "idm_controller", lambda p: seen.append(p) or idm_controller(p))
        assert main(["eval", "--events", str(fleet_csv), "--idm-params", str(path),
                     "--out", str(tmp_path / "o")]) == 0
        assert seen == [params]

    def test_int_in_a_float_field_is_stored_as_float(self):
        cfg = read_config(TrainConfig, {"tau": 1, "batch_size": 8}, "train")
        assert type(cfg.tau) is float and cfg.tau == 1.0
        assert type(cfg.batch_size) is int

    def test_readme_defaults_block_is_the_dataclass_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("### Config file", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        documented = json.loads(block)
        defaults = {"train": TrainConfig(), "reward": RewardConfig(), "env": EnvConfig(),
                    "eval": EvalConfig()}
        assert documented == json.loads(json.dumps(
            {name: dataclasses.asdict(cfg) for name, cfg in defaults.items()}))
        assert _configs(documented) == tuple(defaults.values())

    def test_seed_and_episodes_flags_override_the_train_block(self, tmp_path, fleet_csv):
        out = tmp_path / "run"
        cfg = tiny_train_config(tmp_path, seed=3, episodes=7)
        assert main(["train", "--events", str(fleet_csv), "--config", str(cfg),
                     "--seed", "4", "--episodes", "2", "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == 4
        assert len((out / "trainlog.csv").read_text().splitlines()) == 1 + 2

    def test_config_hash_covers_the_resolved_train_block(self, tmp_path, fleet_csv):
        cfg = tiny_train_config(tmp_path)

        def config_hash(name, *flags):
            out = tmp_path / name
            assert main(["train", "--events", str(fleet_csv), "--config", str(cfg),
                         *flags, "--out", str(out)]) == 0
            return json.loads((out / "manifest.json").read_text())["config_hash"]

        one = config_hash("one", "--episodes", "1")
        assert config_hash("one_again", "--episodes", "1") == one
        assert config_hash("two", "--episodes", "2") != one
        assert config_hash("seeded", "--episodes", "1", "--seed", "8") != one


CONFIG_BLOCKS = {"train": TrainConfig, "reward": RewardConfig, "env": EnvConfig,
                 "eval": EvalConfig, "--idm-params": IdmParams}


def _config_leaves(cls, path):
    """(path, type) of every field of ``cls``; a nested dataclass and each of its fields."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        yield (*path, f.name), hints[f.name]
        if dataclasses.is_dataclass(hints[f.name]):
            yield from _config_leaves(hints[f.name], (*path, f.name))


CONFIG_LEAVES = [leaf for block, cls in CONFIG_BLOCKS.items()
                 for leaf in _config_leaves(cls, (block,))]


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _fits(tp, value):
    """Whether a JSON value may fill a field of type ``tp``, by the README's rules."""
    if dataclasses.is_dataclass(tp):
        return isinstance(value, dict)
    if tp is float:
        return _is_int(value) or isinstance(value, float)
    if tp is int:
        return _is_int(value)
    if tp is bool:
        return isinstance(value, bool)
    assert tp == tuple[int, ...]
    return isinstance(value, list) and all(map(_is_int, value))


def _nest(path, value):
    """``value`` at ``path[1:]`` inside the block ``path[0]`` names."""
    for name in reversed(path[1:]):
        value = {name: value}
    return value


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=2),
    max_leaves=4)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CONFIG_LEAVES), st.data())
def test_wrong_typed_value_names_its_field(leaf, data):
    path, tp = leaf
    obj = _nest(path, data.draw(JSON_VALUES.filter(lambda v: not _fits(tp, v)), label="value"))
    with pytest.raises(ValueError, match=re.escape(".".join(path))):
        read_config(CONFIG_BLOCKS[path[0]], obj, path[0])


FLOAT_LEAVES = [path for path, tp in CONFIG_LEAVES if tp is float]
# JSON numbers a float field must refuse: NaN/Infinity parse to non-finite
# floats, and an integer of 401 digits overflows float()
NON_FINITE = [math.nan, math.inf, -math.inf, 10**400]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FLOAT_LEAVES), st.sampled_from(NON_FINITE))
def test_non_finite_float_names_its_field(path, value):
    obj = json.loads(json.dumps(_nest(path, value)))
    with pytest.raises(ValueError, match=re.escape(".".join(path)) + " must be a finite number"):
        read_config(CONFIG_BLOCKS[path[0]], obj, path[0])


def _run_with_config(tmp_path, fleet_csv, command, blocks):
    """Run train or eval with ``blocks`` (train gets a tiny run around them)."""
    if command == "train":
        blocks = {**blocks, "train": {"episodes": 1, "warmup_steps": 20, "batch_size": 8,
                                      "hidden_sizes": [8, 8], **blocks.get("train", {})}}
        extra = []
    else:
        extra = ["--ground-truth", "--idm-params"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(blocks))
    out = tmp_path / "o"
    code = main([command, "--events", str(fleet_csv), "--config", str(cfg),
                 "--out", str(out), *extra])
    return code, sorted(p.name for p in out.glob("*"))


class TestConfigTypes:
    @pytest.mark.parametrize("command, blocks, named", [
        ("train", {"env": {"a_min": "-3"}}, "env.a_min"),
        ("train", {"train": {"hidden_sizes": "64"}}, "train.hidden_sizes"),
        ("train", {"reward": {"jerk_scale": "60"}}, "reward.jerk_scale"),
        ("train", {"reward": {"weights": {"w_ttc": True}}}, "reward.weights.w_ttc"),
        ("eval", {"eval": {"bins": "50"}}, "eval.bins"),
        ("eval", {"eval": {"per_event_means": "no"}}, "eval.per_event_means"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_wrong_type_exit_1_without_traceback(self, tmp_path, fleet_csv, capsys,
                                                  command, blocks, named):
        code, written = _run_with_config(tmp_path, fleet_csv, command, blocks)
        err = capsys.readouterr().err
        assert code == 1
        assert named in err and "Traceback" not in err
        assert written == []

    @pytest.mark.parametrize("obj", [["train"], 3])
    def test_config_not_an_object_exit_1(self, tmp_path, fleet_csv, capsys, obj):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(obj))
        code = main(["train", "--events", str(fleet_csv), "--config", str(cfg),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "--config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("path", FLOAT_LEAVES, ids=".".join)
    def test_non_finite_float_exit_1_before_any_output(self, tmp_path, fleet_csv, capsys,
                                                        path):
        for i, value in enumerate(NON_FINITE):
            run = tmp_path / str(i)
            run.mkdir()
            if path[0] == "--idm-params":
                params = run / "idm.json"
                params.write_text(json.dumps(_nest(path, value)))
                out = run / "o"
                code = main(["eval", "--events", str(fleet_csv), "--idm-params", str(params),
                             "--out", str(out)])
                written = sorted(p.name for p in out.glob("*"))
            else:
                code, written = _run_with_config(run, fleet_csv, "train",
                                                 {path[0]: _nest(path, value)})
            err = capsys.readouterr().err
            assert code == 1, value
            assert ".".join(path) in err and "Traceback" not in err
            assert written == []

    def test_wrong_typed_idm_param_exit_1(self, tmp_path, fleet_csv, capsys):
        params = tmp_path / "idm.json"
        params.write_text(json.dumps({"T_headway": "1.5"}))
        code = main(["eval", "--events", str(fleet_csv), "--idm-params", str(params),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "--idm-params.T_headway" in capsys.readouterr().err


def _set(obj, path, value):
    """``obj`` with the item at ``path`` (keys and indices) set to ``value``."""
    obj = json.loads(json.dumps(obj))
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


def _json_file_run(tmp_path, fleet_csv, trained, flag, obj):
    """Write ``obj`` as the JSON input of ``flag`` and run a command that reads it."""
    path = tmp_path / "odd_input.json"
    path.write_text(json.dumps(obj))
    out = tmp_path / "o"
    argv = {"--mapping": ["prepare", "--input", str(fleet_csv)],
            "--vt-micro": ["eval", "--events", str(fleet_csv), "--idm-params"],
            "--policy": ["eval", "--events", str(trained["events"]),
                         "--config", str(trained["cfg"])]}[flag]
    return main([*argv, flag, str(path), "--out", str(out)]), out


def _trained_policy(trained):
    return json.loads((trained["out"] / "policy.json").read_text())


def _field_name(flag, path):
    """How an error names the number at ``path``: ``mapping.scale.t``,
    ``units.speed_scale``, ``k[1][2]``, ``weights[0][3][2]``."""
    if isinstance(path[1], str):
        return ".".join(("mapping", *path) if flag == "--mapping" else path)
    return path[0] + "".join(f"[{i}]" for i in path[1:])


# every JSON number outside --config, by site: flag, field type, a valid file
# (from the trained fixture) and the paths of its numbers
VT_TABLE = {"regime": "acceleration", "k": ZERO_K}
NUMBER_SITES = {
    "mapping-scale": ("--mapping", float, lambda t: {"columns": CANONICAL, "scale": {}},
                      [("scale", f) for f in CANONICAL_FIELDS[1:]]),
    "vt-micro-units": ("--vt-micro", float, lambda t: {**VT_TABLE, "units": {}},
                       [("units", k) for k in ("speed_scale", "accel_scale", "output_scale")]),
    "vt-micro-k": ("--vt-micro", float, lambda t: VT_TABLE,
                   [("k", i, j) for i in range(4) for j in range(4)]),
    "policy-sizes": ("--policy", int, _trained_policy, [("sizes", i) for i in range(4)]),
    "policy-weights": ("--policy", float, _trained_policy,
                       [("weights", l, i, j) for l, (n_in, n_out) in enumerate([(3, 8), (8, 8), (8, 1)])
                        for i in range(n_in) for j in range(n_out)]),
    "policy-biases": ("--policy", float, _trained_policy,
                      [("biases", l, i) for l, n in enumerate([8, 8, 1]) for i in range(n)]),
}


def _refused(tp):
    """JSON values a field of type ``tp`` refuses: any non-number, and for a
    float the non-finite numbers and integers past the float range."""
    wrong = JSON_VALUES.filter(lambda v: not _fits(tp, v))
    return wrong | st.sampled_from(NON_FINITE) if tp is float else wrong


class TestJsonNumbers:
    """Every number of --mapping, --vt-micro and --policy follows the --config rule."""

    @pytest.mark.parametrize("name", NUMBER_SITES)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_refused_value_exit_2_naming_file_and_field(self, tmp_path, fleet_csv, trained,
                                                         capsys, name, data):
        flag, tp, content, paths = NUMBER_SITES[name]
        path = data.draw(st.sampled_from(paths), label="path")
        value = data.draw(_refused(tp), label="value")
        code, out = _json_file_run(tmp_path, fleet_csv, trained, flag,
                                   _set(content(trained), path, value))
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert "odd_input.json" in err and _field_name(flag, path) in err, err
        assert not out.exists()

    # each of these was read as a number, or ended in a traceback
    @pytest.mark.parametrize("name, path, value", [
        pytest.param("mapping-scale", ("scale", "t"), True, id="mapping-true"),
        pytest.param("mapping-scale", ("scale", "t"), "0.001", id="mapping-string"),
        pytest.param("mapping-scale", ("scale", "t"), math.nan, id="mapping-nan"),
        pytest.param("mapping-scale", ("scale", "t"), 10**400, id="mapping-401-digits"),
        pytest.param("vt-micro-k", ("k", 0, 0), "1.5", id="k-string"),
        pytest.param("vt-micro-k", ("k", 0, 0), True, id="k-true"),
        pytest.param("policy-weights", ("weights", 0, 0, 0), "0.5", id="weight-string"),
        pytest.param("policy-weights", ("weights", 0, 0, 0), False, id="weight-false"),
        pytest.param("policy-sizes", ("sizes", 0), "3", id="size-string"),
        pytest.param("policy-sizes", ("sizes", 1), 64.9, id="size-float"),
        pytest.param("policy-sizes", ("sizes", 3), True, id="size-true"),
    ])
    def test_values_once_misread_exit_2(self, tmp_path, fleet_csv, trained, capsys,
                                        name, path, value):
        flag, _, content, _ = NUMBER_SITES[name]
        code, _ = _json_file_run(tmp_path, fleet_csv, trained, flag,
                                 _set(content(trained), path, value))
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "odd_input.json" in err and _field_name(flag, path) in err, err

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(CANONICAL_FIELDS[1:]),
           st.integers(1, 10**300) | st.floats(min_value=0.0, exclude_min=True,
                                              allow_infinity=False))
    def test_valid_scale_reads_as_float(self, field, value):   # a scale must be positive
        scale = ColumnMapping(columns=CANONICAL, scale=json.loads(json.dumps({field: value}))).scale
        assert np.float64(scale[field]).tobytes() == np.float64(float(value)).tobytes()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.lists(st.integers(-10**300, 10**300) | st.floats(-1e3, 1e3),
                             min_size=4, max_size=4), min_size=4, max_size=4))
    def test_valid_k_reads_as_asarray(self, tmp_path, k):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({**VT_TABLE, "k": k}))
        expected = np.asarray(k, dtype=float)
        expected[0, 0] += math.log(1.0)   # the default units fold in nothing else
        assert load_coefficients(path).accel.k.tobytes() == expected.tobytes()

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_valid_weights_read_as_asarray(self, tmp_path, trained, data):
        policy = _trained_policy(trained)
        number = st.integers(-10**300, 10**300) | st.floats(allow_nan=False, allow_infinity=False)
        for key, *index in data.draw(st.lists(st.sampled_from(
                NUMBER_SITES["policy-weights"][3] + NUMBER_SITES["policy-biases"][3]), max_size=6)):
            policy = _set(policy, (key, *index), data.draw(number))
        path = tmp_path / "p.json"
        path.write_text(json.dumps(policy))
        net = load_policy(path, expect_sizes=[3, 8, 8, 1])
        expected = np.concatenate([np.asarray(a, dtype=float).ravel()
                                   for a in policy["weights"] + policy["biases"]])
        assert net.theta.tobytes() == expected.tobytes()
        assert net.sizes == [3, 8, 8, 1] and all(type(s) is int for s in net.sizes)

    def test_integer_field_takes_any_json_integer(self, tmp_path, trained):
        policy = _set(_trained_policy(trained), ("sizes", 1), 10**400)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(policy))
        # read as an integer, then refused by the layer shapes rather than its type
        with pytest.raises(PolicyLoadError, match="layer 0: weight shape") as info:
            load_policy(path)
        assert "must be an integer" not in str(info.value)


class TestBareIdmParams:
    @pytest.fixture
    def used(self, monkeypatch):
        params = []
        monkeypatch.setattr(cli, "idm_controller", lambda p: params.append(p) or idm_controller(p))
        return params

    def test_bare_flag_means_the_defaults(self, tmp_path, fleet_csv, monkeypatch, used):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "default").write_text(json.dumps({"a_max": 2.5}))
        assert main(["eval", "--events", str(fleet_csv), "--idm-params", "--out", "o"]) == 0
        assert used == [IdmParams()]

    def test_a_file_named_default_is_read(self, tmp_path, fleet_csv, monkeypatch, used):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "default").write_text(json.dumps({"a_max": 2.5, "T_headway": 0.6}))
        assert main(["eval", "--events", str(fleet_csv), "--idm-params", "default",
                     "--out", "o"]) == 0
        assert used == [IdmParams(a_max=2.5, T_headway=0.6)]

    def test_missing_file_named_default_exit_2(self, tmp_path, fleet_csv, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["eval", "--events", str(fleet_csv), "--idm-params", "default",
                     "--out", "o"]) == 2
        assert "default" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestRangeChecks:
    @pytest.mark.parametrize("command, blocks, named", [
        ("train", {"env": {"a_min": 3.0, "a_max": -3.0}}, "a_min"),
        ("eval", {"env": {"a_min": 1.0, "a_max": 1.0}}, "a_min"),
        ("eval", {"eval": {"bins": 0}}, "bins"),
        ("eval", {"eval": {"ttc_cap": -1.0}}, "ttc_cap"),
        ("train", {"train": {"batch_size": 0}}, "batch_size"),
        ("train", {"train": {"hidden_sizes": [8, 0]}}, "hidden sizes"),
        ("train", {"train": {"rolling_window": 0}}, "rolling_window"),
        ("train", {"train": {"speed_scale": 0.0}}, "speed_scale"),
        ("train", {"train": {"spacing_scale": 0.0}}, "spacing_scale"),
        ("train", {"train": {"rel_speed_scale": -10.0}}, "rel_speed_scale"),
        ("train", {"reward": {"jerk_scale": -1.0}}, "jerk_scale"),
        ("train", {"reward": {"fuel_scale": 0.0}}, "fuel_scale"),
        ("train", {"train": {"buffer_capacity": 0}}, "buffer_capacity"),
        ("train", {"train": {"buffer_capacity": 7}}, "buffer_capacity"),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_out_of_range_exit_1_before_any_output(self, tmp_path, fleet_csv, capsys,
                                                    command, blocks, named):
        code, written = _run_with_config(tmp_path, fleet_csv, command, blocks)
        assert code == 1
        assert named in capsys.readouterr().err
        assert written == []

    def test_warmup_beyond_buffer_capacity_is_accepted(self):
        # the buffer never holds warmup_steps transitions, so no update runs
        cfg = read_config(TrainConfig, {"buffer_capacity": 64, "warmup_steps": 10**9}, "train")
        assert (cfg.buffer_capacity, cfg.warmup_steps) == (64, 10**9)

    def test_unallocatable_buffer_capacity_exit_1_before_any_output(self, tmp_path, fleet_csv,
                                                                    capsys):
        # 72 PB of replay arrays: past any 47-bit address space, so the
        # allocation fails whatever the overcommit policy
        code, written = _run_with_config(tmp_path, fleet_csv, "train",
                                         {"train": {"buffer_capacity": 10**15, "episodes": 1}})
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: train.buffer_capacity") and err.count("\n") == 1
        assert written == []

    @pytest.mark.parametrize("bins", ["0", "-2"])
    def test_stats_bins_below_one_exit_1(self, tmp_path, fleet_csv, capsys, bins):
        out = tmp_path / "o"
        assert main(["stats", "--events", str(fleet_csv), "--bins", bins, "--out", str(out)]) == 1
        assert "bins" in capsys.readouterr().err
        assert list(out.glob("hist_*.csv")) == []
