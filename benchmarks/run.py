"""Benchmark of the ecofollow pipeline on seeded synthetic inputs.

Run from the repository root:

    python3 benchmarks/run.py --workload train --seed 1 --seconds 36 --trace 0

Each workload drives the real command line in-process through
``ecofollower.cli.main``; ``--trace 1`` also wraps the package's public
functions (see ``bench_trace.py``) and reports per-layer numbers instead of
end-to-end ones. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record of the
run, with the machine, the input hashes and every pass, goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``. See README.md here.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_checks as ref  # noqa: E402
import bench_inputs as inputs  # noqa: E402
import numpy as np  # noqa: E402
from bench_clock import HostClock  # noqa: E402
from bench_trace import LAYERS, SPAN_NAMES, PassStats, Tracer  # noqa: E402

POLICY_FIXTURE = HERE / "fixtures" / "policy_v1.json"
POLICY_SIZES = [3, 64, 64, 1]
SETUP_REPEATS = 12
MIN_PASSES = 3          # untraced passes of an untraced run
MIN_TRACED_PASSES = 3   # each of untraced and traced passes of a traced run
WARMUP_STEPS = 1000   # TrainConfig's default: each later env step makes one DDPG update
# warm-up longer than any run, so the second train command never updates
COLLECT_CONFIG = {"train": {"warmup_steps": 10**9}}

# Metrics that every workload reports; what each one measures on which
# workload is in README.md. Every time behind them is in host seconds (see
# bench_clock.py), and each is the median over the passes or set-ups of a run.
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mib": "MiB", "throughput_per_s": "1/s",
                    "baseline_per_s": "1/s", "command_per_s": "1/s"}


def _import_package(root: Path):
    """Import ecofollower from ``root/src``, never from anywhere else."""
    src = root / "src"
    if not (src / "ecofollower" / "__init__.py").is_file():
        raise SystemExit(f"error: {src}/ecofollower not found; run from the repository root")
    sys.path.insert(0, str(src))
    import ecofollower
    if Path(ecofollower.__file__).resolve().parent != (src / "ecofollower").resolve():
        raise SystemExit(f"error: imported ecofollower from {ecofollower.__file__}, not {src}")
    return ecofollower


def _cli(argv: list[str]) -> int:
    from ecofollower import cli   # looked up per call, so a traced cli.main is used
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Steps:
    """Times the steps of a run's passes with a HostClock and, given a tracer,
    records each step under it. The clock's samples before and after a step
    stay outside the recording; those taken during it fall inside."""

    def __init__(self, clock: HostClock, tracer: Tracer | None = None):
        self.clock, self.tracer = clock, tracer
        self.stats: PassStats | None = None
        self.wall_s = self.host_s = 0.0   # over every step so far

    def __call__(self, name: str, fn, *args, kernel: str = "small") -> tuple[object, dict]:
        """Run one step; return its result and ``{name_s, name_host_s}``."""
        if self.tracer is None:
            out, timing = self.clock.measure(fn, *args, kernel=kernel)
        else:
            (out, stats), timing = self.clock.measure(self.tracer.record, lambda: fn(*args),
                                                      kernel=kernel)
            self.stats = stats if self.stats is None else self.stats + stats
        self.wall_s += timing.seconds
        self.host_s += timing.host_seconds
        return out, {f"{name}_s": timing.seconds, f"{name}_host_s": timing.host_seconds}


def median_of(passes: list[dict], fn) -> float:
    return statistics.median(fn(p) for p in passes)


class Outcome:
    """Attempted and failed operations of a run, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, failed: int, problems=()) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)
        del self.problems[20:]


class TrainWorkload:
    """``ecofollow train`` with the default TrainConfig except the episode count,
    then the same command with updates off.

    Thirty episodes put most env steps after the 1000-step warm-up:
    this is the DDPG update path, dominated by ``ddpg.update`` and the
    ``nets`` backward passes and Adam steps. The second command's warm-up
    outlasts its episodes, so it only collects experience: env steps, the
    reward, the one-row actor forward and replay pushes.

    A traced run leaves the second command out. It makes the same calls as
    the first command's warm-up, so the first command's trace already times
    them, and its many steps would bury the update path that the trace of
    this workload is there to show.
    """

    def __init__(self, work: Path, seed: int, smoke: bool, trace: bool):
        self.work, self.seed = work, seed
        self.fleet_size, self.episodes, self.collect_episodes = \
            (6, 12, 4) if smoke else (40, 30, 240)
        self.commands = [("train", self.episodes)]
        if not trace:
            self.commands.append(("collect", self.collect_episodes))

    def setup(self) -> dict[str, Path]:
        fleet, config = self.work / "fleet.csv", self.work / "collect.json"
        inputs.write_events_csv(inputs.make_fleet(self.seed, "train", self.fleet_size,
                                                  (18.0, 30.0)), fleet)
        config.write_text(json.dumps(COLLECT_CONFIG))
        return {"fleet.csv": fleet, "collect.json": config}

    def prepare_checks(self) -> None:
        pass

    def _train(self, steps: Steps, name: str, episodes: int, extra: list[str]) -> dict:
        out = self.work / name
        # updates are batched matrix products; collection is one-row calls
        code, times = steps(name, _cli, ["train", "--events", str(self.work / "fleet.csv"),
                                         "--split", "0.7", "--seed", str(self.seed),
                                         "--episodes", str(episodes), *extra,
                                         "--out", str(out)],
                            kernel="small" if name == "collect" else "mixed")
        env_steps = 0
        if code == 0:
            with open(out / "trainlog.csv") as fh:
                env_steps = sum(int(row["steps"]) for row in csv.DictReader(fh))
        return {f"{name}_code": code, **times, f"{name}_steps": env_steps}

    def run_pass(self, steps: Steps) -> dict:
        result = {}
        for name, episodes in self.commands:
            extra = ["--config", str(self.work / "collect.json")] if name == "collect" else []
            result.update(self._train(steps, name, episodes, extra))
        return result

    def check(self, result: dict, outcome: Outcome) -> None:
        for name, episodes in self.commands:
            problems = self._problems(self.work / name, result[f"{name}_code"], episodes)
            outcome.add(1, int(bool(problems)), [f"{name}: {p}" for p in problems])

    @staticmethod
    def _problems(out: Path, code: int, episodes: int) -> list[str]:
        from ecofollower import nets
        if code != 0:
            return [f"train exited {code}"]
        problems = []
        with open(out / "trainlog.csv") as fh:
            rows = list(csv.DictReader(fh))
        if [int(r["episode"]) for r in rows] != list(range(episodes)):
            problems.append(f"trainlog has {len(rows)} rows, want one per episode")
        if not all(math.isfinite(float(v)) for r in rows for v in r.values()):
            problems.append("trainlog has a non-finite value")
        try:
            net = nets.load_policy(out / "policy.json", expect_sizes=POLICY_SIZES)
            grid = np.stack(np.meshgrid(np.linspace(0, 1, 5), np.linspace(0.02, 1, 5),
                                        np.linspace(-1, 1, 5)), -1).reshape(-1, 3)
            y = net.forward(grid)
            if not (np.isfinite(y).all() and np.all(np.abs(y) <= 1.0)):
                problems.append("policy output outside [-1, 1]")
        except nets.PolicyLoadError as exc:
            problems.append(f"policy does not reload: {exc}")
        return problems

    @staticmethod
    def named(passes: list[dict]) -> dict:
        # Early episodes that end in collisions make some seeds draw fewer env
        # steps, so more of them fall in the cheap warm-up; the steps after the
        # warm-up, one DDPG update each, are the work that repeats per seed.
        def updating(p):
            return max(p["train_steps"] - WARMUP_STEPS + 1, 0)

        steps = median_of(passes, lambda p: p["train_steps"] / p["train_host_s"])
        named = {"train_env_steps_per_s": (steps, "1/s"),
                 "train_s": (median_of(passes, lambda p: p["train_host_s"]), "s"),
                 "throughput_per_s": (median_of(passes, lambda p: updating(p) / p["train_host_s"]),
                                      "1/s"),
                 "command_per_s": (steps, "1/s")}
        if "collect_host_s" in passes[0]:   # not in a traced run
            named["baseline_per_s"] = (median_of(
                passes, lambda p: p["collect_steps"] / p["collect_host_s"]), "1/s")
        return named


class EvalWorkload:
    """``ecofollow compare`` of a stored policy, default IDM and the recording,
    plus library ``evaluate_controller`` for the policy and for IDM.

    Test events last 15-90 s, so a lockstep rollout would pay for padding.
    Rollouts, IDM, the single-row MLP forward, VT-Micro and the summaries do
    the work; backward passes and Adam never run.
    """

    def __init__(self, work: Path, seed: int, smoke: bool, trace: bool):
        self.work, self.seed = work, seed
        self.count, self.durations = (4, (15.0, 20.0)) if smoke else (30, (15.0, 90.0))

    def setup(self) -> dict[str, Path]:
        from ecofollower import ddpg, events, idm, nets, vtmicro
        self.fleet = inputs.make_fleet(self.seed, "eval", self.count, self.durations)
        test = self.work / "test.csv"
        inputs.write_events_csv(self.fleet, test)
        policy = self.work / "policy.json"
        shutil.copyfile(POLICY_FIXTURE, policy)
        self.policy_json = json.loads(policy.read_text())
        self.events = events.load_events(test, min_duration=0.0)
        self.steps = sum(len(ev) - 1 for ev in self.fleet)
        self.fuel = vtmicro.reference_model()
        self.controllers = {
            "policy": ddpg.policy_controller(nets.load_policy(policy, expect_sizes=POLICY_SIZES),
                                             ddpg.TrainConfig()),
            "idm": idm.idm_controller(idm.IdmParams()),
        }
        return {"test.csv": test, "policy.json": policy}

    def prepare_checks(self) -> None:
        fuel = ref.FuelTable(Path("src/ecofollower/data/vtmicro_fuel_ldv.json"))
        self.reference = {
            "policy": ref.summary(ref.rollout(self.fleet, ref.policy_control(self.policy_json)),
                                  fuel),
            "idm": ref.summary(ref.rollout(self.fleet, ref.idm_control), fuel),
            "ground_truth": ref.summary([ref.recorded_trace(ev) for ev in self.fleet], fuel),
        }

    def run_pass(self, steps: Steps) -> dict:
        from ecofollower import evaluate
        out = self.work / "compare"
        code, times = steps("compare", _cli, [
            "compare", "--events", str(self.work / "test.csv"), "--policy",
            str(self.work / "policy.json"), "--idm-params", "--ground-truth", "--out", str(out)])
        # compare rolls out the policy and IDM and replays the recording: three
        # times the steps of the test set
        result = {"code": code, **times, "compare_steps": 3 * self.steps, "library": {}}
        for name, ctrl in self.controllers.items():
            res, times = steps(name, evaluate.evaluate_controller, lambda ev, c=ctrl: c, name,
                               self.events, self.fuel)
            result.update(times)
            result[f"{name}_steps"] = res.summary.metadata["total_steps"]
            result["library"][name] = res.summary.to_json_dict()
        return result

    def check(self, result: dict, outcome: Outcome) -> None:
        out = self.work / "compare"
        summaries = [(f"library {name}", name, got, []) for name, got in result["library"].items()]
        if result["code"] != 0:
            outcome.add(3 * self.count, 3 * self.count, [f"compare exited {result['code']}"])
        else:
            for name in self.reference:
                traces = len(list((out / "traces" / name).glob("*.csv")))
                summaries.append((f"compare {name}", name,
                                  json.loads((out / f"summary_{name}.json").read_text()),
                                  [f"compare {name}: {traces} trace files, want {self.count}"]
                                  if traces != self.count else []))
        # an errored event also changes the event and step counts, so any
        # mismatch, errored events included, fails the whole fleet
        for label, name, got, problems in summaries:
            rel = 1e-6 if name == "policy" else 1e-9
            problems += ref.summary_mismatches(label, got, self.reference[name], rel)
            outcome.add(self.count, self.count if problems else 0, problems)

    @staticmethod
    def named(passes: list[dict]) -> dict:
        policy = median_of(passes, lambda p: p["policy_steps"] / p["policy_host_s"])
        idm = median_of(passes, lambda p: p["idm_steps"] / p["idm_host_s"])
        return {"policy_eval_steps_per_s": (policy, "1/s"),
                "idm_eval_steps_per_s": (idm, "1/s"),
                "compare_s": (median_of(passes, lambda p: p["compare_host_s"]), "s"),
                "throughput_per_s": (policy, "1/s"),
                "baseline_per_s": (idm, "1/s"),
                "command_per_s": (median_of(passes,
                                            lambda p: p["compare_steps"] / p["compare_host_s"]),
                                  "1/s")}


class IngestWorkload:
    """``ecofollow prepare`` of an NGSIM-shaped raw file, then ``ecofollow stats``.

    Foreign column names, feet and milliseconds through a mapping, an extra
    column, and about a tenth of the events too short to keep. CSV parsing
    and writing only: the no-change control for every simulation change.
    """

    def __init__(self, work: Path, seed: int, smoke: bool, trace: bool):
        self.work, self.seed = work, seed
        self.count = 12 if smoke else 150

    def setup(self) -> dict[str, Path]:
        raw, mapping = self.work / "raw.csv", self.work / "mapping.json"
        self.source = inputs.write_raw_ngsim(self.seed, self.count, raw, min_duration=15.0)
        inputs.write_mapping(mapping)
        return {"raw.csv": raw, "mapping.json": mapping}

    def prepare_checks(self) -> None:
        pass

    def run_pass(self, steps: Steps) -> dict:
        prep, stats = self.work / "prepare", self.work / "stats"
        prep_code, prep_times = steps("prepare", _cli, [
            "prepare", "--input", str(self.work / "raw.csv"), "--mapping",
            str(self.work / "mapping.json"), "--min-duration", "15", "--dt", "0.1",
            "--out", str(prep)])
        stats_code, stats_times = steps("stats", _cli, [
            "stats", "--events", str(prep / "events.csv"), "--out", str(stats)])
        return {"prepare_code": prep_code, "stats_code": stats_code, **prep_times,
                **stats_times, "rows": self.source.rows,
                "event_rows": sum(len(ev) for ev in self.source.kept)}

    def check(self, result: dict, outcome: Outcome) -> None:
        if result["prepare_code"] != 0 or result["stats_code"] != 0:
            outcome.add(self.count + 1, self.count + 1,
                        [f"prepare exited {result['prepare_code']}, "
                         f"stats exited {result['stats_code']}"])
            return
        events_csv = self.work / "prepare" / "events.csv"
        summary = json.loads((self.work / "prepare" / "summary.json").read_text())
        loaded = inputs.read_events_csv(events_csv)
        bad = {r["event_id"] for r in summary["rejected"] if r["reason"] != "too_short"}
        bad |= set(self.source.rejected) ^ {r["event_id"] for r in summary["rejected"]}
        bad |= {ev.event_id for ev in self.source.kept} ^ set(loaded)
        for ev in self.source.kept:
            got = loaded.get(ev.event_id)
            if got is not None and not all(
                    len(got[col]) == len(ev) and np.allclose(got[col], getattr(ev, col),
                                                             rtol=1e-12, atol=0.0)
                    for col in inputs.EVENT_COLUMNS[1:]):
                bad.add(ev.event_id)
        problems = [f"prepare: {len(bad)} events wrong, e.g. {sorted(bad)[:3]}"] if bad else []
        if summary["events"] != len(self.source.kept):
            problems.append(f"prepare kept {summary['events']} events, "
                            f"want {len(self.source.kept)}")
        stats = json.loads((self.work / "stats" / "stats.json").read_text())
        stats_problems = ref.stats_mismatches(stats, ref.stats_reference(loaded))
        outcome.add(self.count + 1, (len(bad) or bool(problems)) + bool(stats_problems),
                    problems + stats_problems)

    @staticmethod
    def named(passes: list[dict]) -> dict:
        rows_per_s = median_of(passes, lambda p: p["rows"] / p["prepare_host_s"])
        return {"prepare_rows_per_s": (rows_per_s, "1/s"),
                "stats_s": (median_of(passes, lambda p: p["stats_host_s"]), "s"),
                "throughput_per_s": (rows_per_s, "1/s"),
                "baseline_per_s": (median_of(passes,
                                             lambda p: p["event_rows"] / p["stats_host_s"]),
                                   "1/s"),
                "command_per_s": (median_of(passes, lambda p: p["rows"] / (
                    p["prepare_host_s"] + p["stats_host_s"])), "1/s")}


WORKLOADS = {"train": TrainWorkload, "eval": EvalWorkload, "ingest": IngestWorkload}


def per_layer_metrics(traced: Steps, passes: int, untraced_s: list[float],
                      traced_s: list[float], absent: list[str]) -> dict:
    """Per-pass counts and times of the traced passes, by span and by layer.

    Span times are scaled from wall time to host time by the traced steps'
    host-over-wall ratio. Untraced and traced passes alternate, so
    ``trace.overhead`` is the median over neighbouring pairs of traced over
    untraced pass host time, minus one.
    """
    i = {name: k for k, name in enumerate(SPAN_NAMES)}
    stats = traced.stats
    wall = stats.wall_ns
    host_per_wall = traced.host_s / traced.wall_s

    def calls(span):
        return float(stats.calls[i[span]]) / passes

    def us_per_call(span):
        n = stats.calls[i[span]]
        return float(stats.total_ns[i[span]]) * host_per_wall / n / 1e3 if n else 0.0

    def ms(span):
        return float(stats.total_ns[i[span]]) * host_per_wall / passes / 1e6

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in LAYERS:
        ids = [k for k, name in enumerate(SPAN_NAMES) if name.startswith(layer + ".")]
        m[f"{layer}.calls"] = (float(stats.calls[ids].sum()) / passes, "count")
        m[f"{layer}.self_share"] = (float(stats.self_ns[ids].sum()) / wall, "ratio")
    env_steps = calls("env.step")
    sim_steps = env_steps + float(stats.work[i["evaluate.trace_from_event"]]) / passes
    m["ddpg.update.calls"] = (calls("ddpg.update"), "count")
    m["ddpg.update.us_per_call"] = (us_per_call("ddpg.update"), "us")
    m["ddpg.update.share"] = (float(stats.total_ns[i["ddpg.update"]]) / wall, "ratio")
    m["ddpg.update.calls_per_env_step"] = (ratio(calls("ddpg.update"), env_steps), "ratio")
    m["ddpg.replay_push.us_per_call"] = (us_per_call("ddpg.replay_push"), "us")
    m["ddpg.replay_sample.us_per_call"] = (us_per_call("ddpg.replay_sample"), "us")
    for op in ("forward_row", "forward_batch", "forward_cache", "backward", "adam_step",
               "soft_update"):
        m[f"nets.{op}.calls"] = (calls(f"nets.{op}"), "count")
        m[f"nets.{op}.us_per_call"] = (us_per_call(f"nets.{op}"), "us")
    for span in ("env.step", "idm.idm_accel", "objectives.reward", "vtmicro.fuel_rate"):
        m[f"{span}.calls"] = (calls(span), "count")
        m[f"{span}.us_per_call"] = (us_per_call(span), "us")
    rollout_steps = float(stats.work[i["env.rollout"]])
    m["env.rollout.us_per_step"] = (ratio(float(stats.total_ns[i["env.rollout"]])
                                          * host_per_wall / 1e3, rollout_steps), "us")
    m["vtmicro.fuel_rate.calls_per_step"] = (ratio(calls("vtmicro.fuel_rate"), sim_steps),
                                             "ratio")
    for span in ("evaluate.summarize_traces", "evaluate.export_distributions",
                 "env.trace_write_csv", "events.extract_events", "events.write_events",
                 "events.load_events", "events.descriptive_stats",
                 "events.fit_lognormal_headway"):
        m[f"{span}.ms"] = (ms(span), "ms")
    m["env.trace_write_csv.bytes"] = (float(stats.work[i["env.trace_write_csv"]]) / passes,
                                      "bytes")
    m["events.write_events.bytes"] = (float(stats.work[i["events.write_events"]]) / passes,
                                      "bytes")
    m["events.extract_events.rows"] = (float(stats.work[i["events.extract_events"]]) / passes,
                                       "count")
    m["trace.unattributed_share"] = (1.0 - stats.covered_ns / wall, "ratio")
    m["trace.overhead"] = (statistics.median(t / u for u, t in zip(untraced_s, traced_s)) - 1.0,
                           "ratio")
    m["trace.absent_sites"] = (float(len(absent)), "count")
    return m


def _blas() -> dict:
    info = {"vendor": None, "version": None, "threads": None}
    with contextlib.suppress(Exception):   # layout of show_config varies across numpy versions
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(vendor=blas.get("name"), version=blas.get("version"))
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    except OSError:   # no procfs: the thread count stays unknown
        libs = set()
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():   # not a repository; do not report an enclosing one
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run(args) -> dict:
    root = Path.cwd()
    threads_env = os.environ.pop("ECOFOLLOW_THREADS", None)   # measure the serial eval path
    package = _import_package(root)
    record = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "loadavg_start": list(os.getloadavg()),
        "ECOFOLLOW_THREADS": {"environment": threads_env, "measured": "unset"},
        "git_commit": _git_commit(root),
        "ecofollower": package.__version__,
    }
    out_dir = Path(args.out)
    work = out_dir / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](work, args.seed, args.smoke, bool(args.trace))
    clock = HostClock()

    def set_up() -> dict[str, str]:
        files, timing = clock.measure(workload.setup)
        setup_s.append(timing.host_seconds)
        setup_wall_s.append(timing.seconds)
        return {name: inputs.sha256(path) for name, path in files.items()}

    setup_s: list[float] = []
    setup_wall_s: list[float] = []
    hashes = set_up()
    hashes["vtmicro_fuel_ldv.json"] = inputs.sha256(root / "src/ecofollower/data/"
                                                    "vtmicro_fuel_ldv.json")
    workload.prepare_checks()

    outcome = Outcome()
    untraced, traced = [], []
    tracer = Tracer() if args.trace else None
    plain_steps = Steps(clock)
    traced_steps = Steps(clock, tracer) if tracer else None
    want = 1 if args.smoke else MIN_TRACED_PASSES if args.trace else MIN_PASSES
    start = time.perf_counter()

    def more_passes() -> bool:
        if len(untraced) < want or (tracer and len(traced) < want):
            return True
        if args.smoke:
            return False
        typical = statistics.median(p["wall_s"] for p in untraced + traced)
        return time.perf_counter() - start + typical <= args.seconds

    while more_passes():
        steps, passes = ((traced_steps, traced) if tracer and len(traced) < len(untraced)
                         else (plain_steps, untraced))
        pass_start, host_before = time.perf_counter(), steps.host_s
        if steps is traced_steps:
            tracer.install()
        try:
            result = workload.run_pass(steps)
        finally:
            if steps is traced_steps:
                tracer.uninstall()
        passes.append({**result, "wall_s": time.perf_counter() - pass_start,
                       "host_s": steps.host_s - host_before})
        try:
            workload.check(result, outcome)
        except (OSError, KeyError, ValueError) as exc:
            outcome.add(1, 1, [f"{args.workload} output unreadable: {exc!r}"])
        # Repeat the set-up at intervals across the run rather than all at the
        # start, so that its median, like that of the passes, spans the whole
        # run; after a long pass, catch up with the schedule.
        while (not args.smoke and len(setup_s) < SETUP_REPEATS
               and time.perf_counter() - start >= args.seconds * len(setup_s) / SETUP_REPEATS):
            again = set_up()
            if any(hashes[name] != digest for name, digest in again.items()):
                outcome.add(1, 1, ["the same seed generated different inputs"])
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["loadavg_end"] = list(os.getloadavg())
    record["process_threads"] = len(os.listdir("/proc/self/task"))   # BLAS pool included

    named = {name: {"value": v, "unit": u} for name, (v, u) in workload.named(untraced).items()}
    named["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
    named["peak_rss_mib"] = {"value": peak_rss_mib, "unit": "MiB"}
    named["failed_ratio"] = {"value": outcome.failed / max(outcome.attempted, 1),
                             "unit": "ratio"}
    if tracer:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in per_layer_metrics(
            traced_steps, len(traced), [p["host_s"] for p in untraced],
            [p["host_s"] for p in traced], tracer.absent).items()}
        tracer.write(out_dir / f"{args.workload}-spans.npz")
    else:
        metrics = {name: named[name] for name in END_TO_END_UNITS}
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "record": record, "inputs": hashes,
        "setup_s": setup_s, "setup_wall_s": setup_wall_s,
        "untraced_passes": untraced, "traced_passes": traced,
        "named_metrics": named, "absent_sites": tracer.absent if tracer else [],
        "problems": outcome.problems,
        "result": {"correct": outcome.failed == 0 and outcome.attempted > 0,
                   "attempted": outcome.attempted, "failed": outcome.failed,
                   "metrics": metrics},
    }
    for p in full["untraced_passes"] + full["traced_passes"]:
        p.pop("library", None)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(full, indent=1) + "\n")
    return full


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; a run makes at least a few passes regardless")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a single pass, for the benchmark's own tests")
    parser.add_argument("--out", default=".bench_out", help="directory for results and work files")
    args = parser.parse_args(argv)
    full = run(args)
    for name, m in full["named_metrics"].items():
        print(f"{args.workload:7s} {name:26s} {m['value']:14.6g} {m['unit']}")
    for problem in full["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps(full["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
