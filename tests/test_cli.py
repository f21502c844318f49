import dataclasses
import json
import math
import re
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ecofollower import cli
from ecofollower.cli import _configs, main, read_config
from ecofollower.ddpg import TrainConfig, TrainingError
from ecofollower.env import EnvConfig
from ecofollower.evaluate import EmptyResultError, EvalConfig, NonFiniteFuelError
from ecofollower.events import (CANONICAL_FIELDS, CarFollowingEvent, DataError, SchemaError,
                                load_events, write_events)
from ecofollower.idm import IdmParams, idm_controller
from ecofollower.nets import PolicyLoadError
from ecofollower.objectives import RewardConfig
from ecofollower.vtmicro import load_coefficients, reference_model

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

    @pytest.mark.parametrize("dt", ["-0.2", "nan"])
    def test_negative_or_nan_dt_exit_1(self, tmp_path, fleet_csv, capsys, dt):
        # the file is sampled at 0.1 s; only --dt 0 switches the check off
        out = tmp_path / "o"
        assert main(["prepare", "--input", str(fleet_csv), f"--dt={dt}", "--out", str(out)]) == 1
        assert "--dt" in capsys.readouterr().err
        assert not out.exists()
        assert main(["prepare", "--input", str(fleet_csv), "--dt=0", "--out", str(out)]) == 0

    def test_min_duration_filter(self, tmp_path):
        src = tmp_path / "mix.csv"
        write_events([constant_event("long", duration=20.0),
                      constant_event("short", duration=5.0)], src)
        out = tmp_path / "o"
        assert main(["prepare", "--input", str(src), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["events"] == 1
        assert summary["rejected"] == [{"event_id": "short", "reason": "too_short"}]


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

    def test_nan_policy_fails_every_event_exit_3(self, tmp_path, trained, capsys):
        policy = json.loads((trained["out"] / "policy.json").read_text())
        policy["biases"][-1] = [math.nan]
        path = tmp_path / "nan_policy.json"
        path.write_text(json.dumps(policy))
        code = main(["eval", "--events", str(trained["events"]), "--policy", str(path),
                     "--config", str(trained["cfg"]), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "failed at step 0" in err and "non-finite command nan" in err
        first_id = min(ev.event_id for ev in load_events(trained["events"], min_duration=0.0))
        assert first_id in err

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
                        if not math.isfinite(fuel.rate(
                            ev.v_follow[j], (ev.v_follow[j + 1] - ev.v_follow[j]) / ev.dt)))
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
    ])
    def test_malformed_vt_micro_exit_2(self, tmp_path, trained, capsys, obj, named):
        path = tmp_path / "bad_vt_micro.json"
        path.write_text(json.dumps(obj))
        code = main(["eval", "--events", str(trained["events"]), "--idm-params",
                     "--vt-micro", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad_vt_micro.json" in err and named in err and "Traceback" not in err

    def test_policy_with_wrong_sizes_exit_2(self, tmp_path, trained):
        # trained with [8, 8] hidden; default config expects [64, 64]
        code = main(["eval", "--events", str(trained["events"]),
                     "--policy", str(trained["out"] / "policy.json"),
                     "--out", str(tmp_path / "o")])
        assert code == 2


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
