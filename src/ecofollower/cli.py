"""Command-line pipeline: prepare, stats, train, eval, compare.

Every command writes a run manifest into its output directory. Exit codes:
0 success, 1 usage, 2 input/schema error, 3 empty result, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import re
import sys
import typing
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .ddpg import TrainConfig, TrainingError, policy_controller, train
from .env import EnvConfig
from .evaluate import (EmptyResultError, EvalConfig, EvaluationResult,
                       NonFiniteFuelError, compare, evaluate_controller,
                       evaluate_ground_truth, export_distributions)
from .events import (ColumnMapping, DataError, FitError, SchemaError,
                     descriptive_stats, extract_events, fit_lognormal_headway,
                     json_object, load_events, read_json, split_dataset, write_csv,
                     write_events)
from .idm import IdmParams, idm_controller
from .nets import PolicyLoadError, load_policy, save_policy
from .objectives import RewardConfig
from .vtmicro import load_coefficients, reference_model

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_EMPTY = 3
EXIT_NUMERIC = 4


class _Parser(argparse.ArgumentParser):
    # spec reserves exit code 2 for input errors; usage errors exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _config_hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def write_manifest(out_dir: Path, command: str, seed, config_obj, inputs) -> None:
    _write_json(out_dir / "manifest.json", {
        "command": command,
        "config_hash": _config_hash(config_obj),
        "seed": seed,
        "inputs": [str(p) for p in inputs],
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    })


# config field type -> (the JSON value types it takes, what an error says it expects)
_JSON_TYPES = {float: ((int, float), "a number"), int: (int, "an integer"),
               tuple[int, ...]: (list, "a list of integers")}


def _read_field(tp, value, path: str):
    if dataclasses.is_dataclass(tp):
        return read_config(tp, value, path)
    json_types, expected = _JSON_TYPES[tp]
    if not isinstance(value, json_types) or isinstance(value, bool):
        raise ValueError(f"{path} must be {expected}, got {json.dumps(value)}")
    if json_types is list:
        return tuple(_read_field(int, v, f"{path}[{i}]") for i, v in enumerate(value))
    if tp is not float:
        return tp(value)
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    # JSON NaN/Infinity and integers past the float range would silently switch a
    # check off (a NaN collision_gap never detects a collision)
    if not math.isfinite(number):
        raise ValueError(f"{path} must be a finite number, got {json.dumps(value)}")
    return number


def read_config(cls, obj, where: str):
    """Build the config dataclass ``cls`` from the JSON object ``obj``.

    Field types come from ``cls``: a float takes any finite JSON number (a bool
    is not one), an int an integer, a ``tuple[int, ...]`` a list of integers and
    a nested dataclass an object read the same way; absent fields keep their
    defaults. Anything else is a ValueError naming ``where.field``.
    """
    hints = typing.get_type_hints(cls)
    kwargs = {k: _read_field(hints[k], v, f"{where}.{k}")
              for k, v in json_object(obj, where, hints).items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _read_object(path, flag: str, read):
    """``read`` of the JSON in the file ``path``; a ValueError it raises names the file."""
    obj = read_json(path, flag)
    try:
        return read(obj)
    except ValueError as exc:
        raise ValueError(f"{exc} in {path}") from exc


def _load_config_blocks(path) -> dict:
    if path is None:
        return {}
    return _read_object(path, "--config",
                        lambda obj: json_object(obj, "--config", ("train", "reward", "env", "eval")))


def _configs(blocks: dict) -> tuple[TrainConfig, RewardConfig, EnvConfig, EvalConfig]:
    return (read_config(TrainConfig, blocks.get("train", {}), "train"),
            read_config(RewardConfig, blocks.get("reward", {}), "reward"),
            read_config(EnvConfig, blocks.get("env", {}), "env"),
            read_config(EvalConfig, blocks.get("eval", {}), "eval"))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _safe_name(event_id: str) -> str:
    return re.sub(r"[^\w.-]", "_", event_id)


def _check_trace_names(events, path) -> None:
    """SchemaError naming two events whose trace files would have the same name."""
    seen: dict[str, str] = {}
    for ev in events:
        other = seen.setdefault(_safe_name(ev.event_id), ev.event_id)
        if other != ev.event_id:
            raise SchemaError(f"{path}: events {other!r} and {ev.event_id!r} would share the "
                              f"trace file {_safe_name(ev.event_id)}.csv")


def cmd_prepare(args) -> int:
    if not 0.0 <= args.dt < math.inf:
        raise ValueError(f"--dt must be a finite number >= 0 (0 disables the check), got {args.dt}")
    out = _out_dir(args)
    mapping = ColumnMapping.from_json(args.mapping) if args.mapping else None
    result = extract_events(args.input, mapping, min_duration=args.min_duration,
                            expected_dt=args.dt or None)
    summary = {
        "events": len(result.events),
        "samples": sum(len(ev) for ev in result.events),
        "rejected": [{"event_id": eid, "reason": reason} for eid, reason in result.rejected],
    }
    _write_json(out / "summary.json", summary)
    write_manifest(out, "prepare", None,
                   {"min_duration": args.min_duration, "dt": args.dt,
                    "mapping": str(args.mapping)},
                   [args.input])
    if not result.events:
        print(f"no events of at least {args.min_duration} s found "
              f"({len(result.rejected)} rejected)", file=sys.stderr)
        return EXIT_EMPTY
    write_events(result.events, out / "events.csv")
    print(f"extracted {len(result.events)} events "
          f"({len(result.rejected)} rejected) -> {out / 'events.csv'}")
    return EXIT_OK


def _nonempty(events, what: str):
    if not events:
        raise EmptyResultError(f"{what} is empty")
    return events


def cmd_stats(args) -> int:
    out = _out_dir(args)
    events = _nonempty(load_events(args.events, min_duration=0.0), f"events file {args.events}")
    subset = events
    if args.subset != "all":   # train or test: that field of the split
        subset = _nonempty(getattr(split_dataset(events, args.ratio, args.seed), args.subset),
                           f"--subset {args.subset} of {len(events)} events at --ratio {args.ratio}")
    obj = descriptive_stats(subset, bins=args.bins)
    obj["subset"] = args.subset
    try:
        mu, sigma = fit_lognormal_headway(subset)
        obj["headway_lognormal"] = {"mu": mu, "sigma": sigma}
    except FitError as exc:
        obj["headway_lognormal"] = {"error": str(exc)}
    _write_json(out / "stats.json", obj)
    for name, hist in obj["histograms"].items():
        write_csv(out / f"hist_{name}.csv", ("bin_left", "bin_right", "count"), hist.values())
    write_manifest(out, "stats", args.seed,
                   {"bins": args.bins, "subset": args.subset, "ratio": args.ratio},
                   [args.events])
    print(f"stats over {len(subset)} events -> {out / 'stats.json'}")
    return EXIT_OK


def cmd_train(args) -> int:
    out = _out_dir(args)
    events = _nonempty(load_events(args.events, min_duration=0.0), f"events file {args.events}")
    blocks = _load_config_blocks(args.config)
    train_cfg, reward_cfg, env_cfg, _ = _configs(blocks)
    overrides = {"seed": args.seed, "episodes": args.episodes}
    train_cfg = dataclasses.replace(
        train_cfg, **{k: v for k, v in overrides.items() if v is not None})
    fuel = load_coefficients(args.vt_micro) if args.vt_micro else reference_model()
    split = split_dataset(events, args.split, train_cfg.seed)
    _nonempty(split.train, f"the training set of {len(events)} events at --split {args.split}")

    def progress(row):
        if row.episode % 10 == 0:
            print(f"episode {row.episode:5d}  rolling reward {row.rolling_reward:9.4f}  "
                  f"collisions {row.collisions_cum}")

    # every file is written after training, so a run that fails leaves none
    policy, log = train(split.train, env_cfg, reward_cfg, train_cfg, fuel, progress=progress)
    write_events(split.train, out / "events_train.csv")
    write_events(split.test, out / "events_test.csv")
    save_policy(policy, out / "policy.json")
    log.write_csv(out / "trainlog.csv")
    # the train block as resolved, --seed and --episodes included
    hashed = dict(blocks, train=dataclasses.asdict(train_cfg))
    write_manifest(out, "train", train_cfg.seed,
                   {"split": args.split, "config": hashed, "vt_micro": str(args.vt_micro)},
                   [args.events])
    print(f"trained {train_cfg.episodes} episodes on {len(split.train)} events "
          f"-> {out / 'policy.json'}")
    return EXIT_OK


def _run_evaluations(args) -> tuple[list[EvaluationResult], Path, dict]:
    if not (args.policy or args.idm_params is not None or args.ground_truth):
        raise ValueError("eval needs at least one of --policy, --idm-params, --ground-truth")
    events = _nonempty(load_events(args.events, min_duration=0.0), f"events file {args.events}")
    _check_trace_names(events, args.events)
    out = _out_dir(args)
    blocks = _load_config_blocks(args.config)
    train_cfg, _, env_cfg, eval_cfg = _configs(blocks)
    fuel = load_coefficients(args.vt_micro) if args.vt_micro else reference_model()
    controllers = []   # (name, controller) in report order; the ground truth comes last
    if args.policy:
        net = load_policy(args.policy, expect_sizes=[3, *train_cfg.hidden_sizes, 1])
        controllers.append(("policy", policy_controller(net, train_cfg, env_cfg)))
    if args.idm_params is not None:
        params = (IdmParams() if args.idm_params == "default" else _read_object(
            args.idm_params, "--idm-params", lambda obj: read_config(IdmParams, obj, "--idm-params")))
        controllers.append(("idm", idm_controller(params)))

    # a factory returning one shared controller, so all events roll out as one batch
    results = [evaluate_controller(lambda ev, c=ctrl: c, name, events, fuel, env_cfg, eval_cfg)
               for name, ctrl in controllers]
    if args.ground_truth:
        results.append(evaluate_ground_truth(events, fuel, eval_cfg))
    for res in results:
        _write_json(out / f"summary_{res.summary.name}.json", res.summary.to_json_dict())
        trace_dir = out / "traces" / res.summary.name
        trace_dir.mkdir(parents=True, exist_ok=True)
        for eid, trace in res.traces.items():
            trace.write_csv(trace_dir / f"{_safe_name(eid)}.csv")
    _write_json(out / "errors.json", {
        r.summary.name: [{"event_id": eid, "message": msg} for eid, msg in r.errors]
        for r in results})
    export_distributions({r.summary.name: r.values for r in results},
                         out / "distributions", eval_cfg)
    config_echo = {"blocks": blocks, "vt_micro": str(args.vt_micro),
                   "eval": dataclasses.asdict(eval_cfg)}
    return results, out, config_echo


def cmd_eval(args) -> int:
    results, out, config_echo = _run_evaluations(args)
    write_manifest(out, "eval", None, config_echo, [args.events])
    for res in results:
        s = res.summary
        print(f"{s.name}: ttc {s.mean_ttc:.3f} s, |jerk| {s.mean_abs_jerk:.3f} m/s^3, "
              f"headway {s.mean_headway:.3f} s, fuel {s.mean_fuel_rate:.3f} mL/s, "
              f"collisions {s.collisions} ({s.events_evaluated} events)")
    return EXIT_OK


def cmd_compare(args) -> int:
    results, out, config_echo = _run_evaluations(args)
    report = compare([r.summary for r in results], config_echo=config_echo)
    _write_json(out / "report.json", report.to_json_dict())
    text = report.render_text()
    (out / "report.txt").write_text(text)
    write_manifest(out, "compare", None, config_echo, [args.events])
    print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ecofollow",
                     description="Car-following RL toolkit: data prep, training, evaluation.")
    parser.add_argument("--version", action="version", version=f"ecofollow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="extract car-following events from a trajectory CSV")
    p.add_argument("--input", required=True, help="raw trajectory CSV")
    p.add_argument("--mapping", help="column mapping JSON (default: canonical columns)")
    p.add_argument("--min-duration", type=float, default=15.0,
                   help="shortest event kept, seconds (default 15)")
    p.add_argument("--dt", type=float, default=0.1,
                   help="expected sampling interval, seconds; 0 disables the check (default 0.1)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("stats", help="descriptive statistics and headway fit")
    p.add_argument("--events", required=True, help="normalized events CSV")
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--subset", choices=("all", "train", "test"), default="all",
                   help="fit/statistics scope (default all events)")
    p.add_argument("--ratio", type=float, default=0.7)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train the eco-driving policy")
    p.add_argument("--events", required=True, help="normalized events CSV")
    p.add_argument("--split", type=float, default=0.7, help="train fraction (default 0.7)")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (overrides the config block)")
    p.add_argument("--config", help="JSON with train/reward/env blocks")
    p.add_argument("--episodes", type=int, default=None,
                   help="override the episode count from the config")
    p.add_argument("--vt-micro", help="fuel coefficient JSON (default: bundled table)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    for name, fn in (("eval", cmd_eval), ("compare", cmd_compare)):
        p = sub.add_parser(name, help=f"{name} controllers on a test set")
        p.add_argument("--events", required=True, help="normalized test events CSV")
        p.add_argument("--policy", help="trained policy JSON")
        p.add_argument("--idm-params", nargs="?", const="default",
                       help="IDM parameter JSON; bare flag uses defaults")
        p.add_argument("--ground-truth", action="store_true",
                       help="include the recorded behavior (compare always does)")
        p.add_argument("--vt-micro", help="fuel coefficient JSON (default: bundled table)")
        p.add_argument("--config", help="JSON with train/reward/env/eval blocks")
        p.add_argument("--out", required=True)
        p.set_defaults(func=fn, ground_truth=name == "compare")

    return parser


# exit code of each error main reports; an error takes the code of the first
# class of its MRO listed here, so a SchemaError (a ValueError) exits 2, not 1
EXIT_CODES = {
    EmptyResultError: EXIT_EMPTY,
    SchemaError: EXIT_INPUT, DataError: EXIT_INPUT, PolicyLoadError: EXIT_INPUT,
    OSError: EXIT_INPUT,
    TrainingError: EXIT_NUMERIC, NonFiniteFuelError: EXIT_NUMERIC,
    ValueError: EXIT_USAGE,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
