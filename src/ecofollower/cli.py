"""Command-line pipeline: prepare, stats, train, eval, compare.

Every command writes a run manifest into its output directory. Exit codes:
0 success, 1 usage, 2 input/schema error, 3 empty result, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .ddpg import TrainConfig, TrainingError, policy_controller, train
from .env import EnvConfig
from .evaluate import (EmptyResultError, EvalConfig, EvaluationResult,
                       GROUND_TRUTH, compare, evaluate_controller,
                       evaluate_ground_truth, export_distributions)
from .events import (ColumnMapping, DataError, FitError, SchemaError,
                     descriptive_stats, extract_events, fit_lognormal_headway,
                     load_events, split_dataset, write_events)
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


def _load_config_blocks(path) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        obj = json.load(fh)
    known = {"train", "reward", "env", "eval"}
    unknown = set(obj) - known
    if unknown:
        raise ValueError(f"unknown config blocks: {sorted(unknown)} (expected {sorted(known)})")
    return obj


def _configs(blocks: dict) -> tuple[TrainConfig, RewardConfig, EnvConfig, EvalConfig]:
    try:
        train_cfg = TrainConfig.from_json_dict(blocks.get("train", {}))
        reward_cfg = RewardConfig.from_json_dict(blocks.get("reward", {}))
        env_cfg = EnvConfig(**blocks.get("env", {}))
        eval_cfg = EvalConfig(**blocks.get("eval", {}))
    except TypeError as exc:
        raise ValueError(f"bad config field: {exc}") from exc
    return train_cfg, reward_cfg, env_cfg, eval_cfg


def _fuel_model(path):
    return load_coefficients(path) if path else reference_model()


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _safe_name(event_id: str) -> str:
    return re.sub(r"[^\w.-]", "_", event_id)


def cmd_prepare(args) -> int:
    out = _out_dir(args)
    mapping = ColumnMapping.from_json(args.mapping) if args.mapping else None
    expected_dt = args.dt if args.dt and args.dt > 0 else None
    result = extract_events(args.input, mapping, min_duration=args.min_duration,
                            expected_dt=expected_dt)
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


def _select_subset(events, subset, ratio, seed):
    if subset == "all":
        return events
    split = split_dataset(events, ratio, seed)
    return list(split.train if subset == "train" else split.test)


def cmd_stats(args) -> int:
    out = _out_dir(args)
    events = load_events(args.events, min_duration=0.0)
    if not events:
        print("events file is empty", file=sys.stderr)
        return EXIT_EMPTY
    subset = _select_subset(events, args.subset, args.ratio, args.seed)
    report = descriptive_stats(subset, bins=args.bins)
    obj = report.to_json_dict()
    obj["subset"] = args.subset
    try:
        mu, sigma = fit_lognormal_headway(subset)
        obj["headway_lognormal"] = {"mu": mu, "sigma": sigma}
    except FitError as exc:
        obj["headway_lognormal"] = {"error": str(exc)}
    _write_json(out / "stats.json", obj)
    for name, hist in report.histograms.items():
        hist.write_csv(out / f"hist_{name}.csv")
    write_manifest(out, "stats", args.seed,
                   {"bins": args.bins, "subset": args.subset, "ratio": args.ratio},
                   [args.events])
    print(f"stats over {len(subset)} events -> {out / 'stats.json'}")
    return EXIT_OK


def cmd_train(args) -> int:
    out = _out_dir(args)
    events = load_events(args.events, min_duration=0.0)
    if not events:
        print("events file is empty", file=sys.stderr)
        return EXIT_EMPTY
    blocks = _load_config_blocks(args.config)
    train_cfg, reward_cfg, env_cfg, _ = _configs(blocks)
    overrides = {"seed": args.seed, "episodes": args.episodes}
    train_cfg = dataclasses.replace(
        train_cfg, **{k: v for k, v in overrides.items() if v is not None})
    fuel = _fuel_model(args.vt_micro)
    split = split_dataset(events, args.split, train_cfg.seed)
    write_events(split.train, out / "events_train.csv")
    write_events(split.test, out / "events_test.csv")

    def progress(row):
        if row.episode % 10 == 0:
            print(f"episode {row.episode:5d}  rolling reward {row.rolling_reward:9.4f}  "
                  f"collisions {row.collisions_cum}")

    policy, log = train(split, env_cfg, reward_cfg, train_cfg, fuel, progress=progress)
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


def _build_controllers(args, train_cfg, env_cfg) -> list[tuple[str, object]]:
    """(name, controller factory or GROUND_TRUTH sentinel) in report order."""
    controllers = []
    if args.policy:
        net = load_policy(args.policy, expect_sizes=[3, *train_cfg.hidden_sizes, 1])
        ctrl = policy_controller(net, train_cfg, env_cfg)
        controllers.append(("policy", lambda ev, c=ctrl: c))
    if args.idm_params is not None:
        params = IdmParams() if args.idm_params == "default" else IdmParams.from_json(args.idm_params)
        ctrl = idm_controller(params)
        controllers.append(("idm", lambda ev, c=ctrl: c))
    if args.ground_truth:
        controllers.append((GROUND_TRUTH, None))
    return controllers


def _run_evaluations(args, include_ground_truth=False) -> tuple[list[EvaluationResult], Path, dict]:
    out = _out_dir(args)
    events = load_events(args.events, min_duration=0.0)
    if not events:
        raise EmptyResultError("events file is empty")
    blocks = _load_config_blocks(args.config)
    train_cfg, _, env_cfg, eval_cfg = _configs(blocks)
    fuel = _fuel_model(args.vt_micro)
    if include_ground_truth:
        args.ground_truth = True
    controllers = _build_controllers(args, train_cfg, env_cfg)
    if not controllers:
        raise SystemExit(EXIT_USAGE)

    results = []
    for name, factory in controllers:
        if name == GROUND_TRUTH:
            results.append(evaluate_ground_truth(events, fuel, eval_cfg))
        else:
            results.append(evaluate_controller(factory, name, events, fuel, env_cfg, eval_cfg))
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
                   "eval": {"ttc_cap": eval_cfg.ttc_cap,
                            "per_event_means": eval_cfg.per_event_means, "bins": eval_cfg.bins}}
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
    results, out, config_echo = _run_evaluations(args, include_ground_truth=True)
    report = compare([r.summary for r in results], baseline=GROUND_TRUTH,
                     config_echo=config_echo)
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
                       help="include the recorded behavior as a controller")
        p.add_argument("--vt-micro", help="fuel coefficient JSON (default: bundled table)")
        p.add_argument("--config", help="JSON with train/reward/env/eval blocks")
        p.add_argument("--out", required=True)
        p.set_defaults(func=fn)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except EmptyResultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except (SchemaError, DataError, PolicyLoadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
