import dataclasses
import json
import math

import numpy as np
import pytest

from ecofollower import cli
from ecofollower.cli import _configs, main
from ecofollower.ddpg import TrainConfig
from ecofollower.env import EnvConfig
from ecofollower.evaluate import EvalConfig
from ecofollower.events import CarFollowingEvent, load_events, write_events

from synthetic import constant_event, make_fleet, positions_from_speeds


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

    def test_no_controllers_usage_error(self, tmp_path, trained):
        code = main(["eval", "--events", str(trained["events"]), "--out", str(tmp_path / "o")])
        assert code == 1

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

    def test_unknown_config_block_exit_1(self, tmp_path, fleet_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rewards": {}}))
        code = main(["train", "--events", str(fleet_csv), "--config", str(cfg),
                     "--episodes", "1", "--out", str(tmp_path / "o")])
        assert code == 1


class TestConfigRoundTrip:
    @staticmethod
    def _bump(value):
        """A valid value different from ``value``, of the same type."""
        if isinstance(value, bool):
            return not value
        if isinstance(value, int):
            return value + 1
        if isinstance(value, float):
            return value * 0.5 + 0.125
        return tuple(v + 1 for v in value)

    @pytest.mark.parametrize("block, cls", [("train", TrainConfig), ("env", EnvConfig),
                                            ("eval", EvalConfig)])
    def test_every_field_roundtrips(self, block, cls):
        default = cls()
        cfg = dataclasses.replace(default, **{f.name: self._bump(getattr(default, f.name))
                                              for f in dataclasses.fields(cls)})
        for f in dataclasses.fields(cls):
            assert getattr(cfg, f.name) != getattr(default, f.name), f.name
        blocks = json.loads(json.dumps({block: dataclasses.asdict(cfg)}))
        resolved = dict(zip(("train", "reward", "env", "eval"), _configs(blocks)))
        assert resolved[block] == cfg

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
