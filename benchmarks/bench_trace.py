"""In-memory span tracer that wraps ecofollower's public functions from outside.

Each traced site is a function or method of one module. Installing the tracer
replaces every binding of the original object in the loaded ``ecofollower``
modules (``env.step`` and the ``step`` that ``ddpg`` imported are separate
bindings of one function), and class attributes for methods, so a call is
traced wherever the name is looked up. Nothing under ``src/`` changes.

A span is ``(name id, start ns, end ns, parent span index)``. A span's self
time is its duration minus the durations of its direct children. A site that
a refactor removed is reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

PACKAGE = "ecofollower"
LAYERS = ("events", "env", "objectives", "vtmicro", "idm", "nets", "ddpg", "evaluate", "cli")


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _extracted_samples(args, kwargs, result) -> int:
    return sum(len(ev) for ev in result.events)


def _written_bytes(args, kwargs, result) -> int:
    return os.path.getsize(args[1])


def _mlp_forward_name(args, kwargs) -> str:
    x = args[1] if len(args) > 1 else kwargs["x"]
    return "nets.forward_batch" if np.ndim(x) == 2 and len(x) > 1 else "nets.forward_row"


@dataclass(frozen=True)
class Site:
    """``span`` names the span "<layer>.<call>"; ``attr`` is "func" or "Class.method"."""

    span: str
    module: str
    attr: str
    work: Callable | None = None      # (args, kwargs, result) -> units of work done
    name_of: Callable | None = None   # (args, kwargs) -> span name, when it depends on the input


SITES = (
    Site("cli.main", "cli", "main"),
    Site("events.extract_events", "events", "extract_events", work=_extracted_samples),
    Site("events.load_events", "events", "load_events"),
    Site("events.write_events", "events", "write_events", work=_written_bytes),
    Site("events.split_dataset", "events", "split_dataset"),
    Site("events.descriptive_stats", "events", "descriptive_stats"),
    Site("events.fit_lognormal_headway", "events", "fit_lognormal_headway"),
    Site("env.step", "env", "step"),
    Site("env.rollout", "env", "rollout", work=_result_len),
    Site("env.trace_write_csv", "env", "SimulatedTrace.write_csv", work=_written_bytes),
    Site("objectives.reward", "objectives", "reward"),
    Site("vtmicro.fuel_rate", "vtmicro", "fuel_rate"),
    Site("idm.idm_accel", "idm", "idm_accel"),
    Site("nets.forward", "nets", "Mlp.forward", name_of=_mlp_forward_name),
    Site("nets.forward_cache", "nets", "Mlp.forward_cache"),
    Site("nets.backward", "nets", "Mlp.backward"),
    Site("nets.adam_step", "nets", "Adam.step"),
    Site("nets.soft_update", "nets", "soft_update"),
    Site("nets.save_policy", "nets", "save_policy"),
    Site("nets.load_policy", "nets", "load_policy"),
    Site("ddpg.train", "ddpg", "train"),
    Site("ddpg.update", "ddpg", "DdpgAgent.update"),
    Site("ddpg.replay_push", "ddpg", "ReplayBuffer.push"),
    Site("ddpg.replay_sample", "ddpg", "ReplayBuffer.sample"),
    Site("evaluate.evaluate_controller", "evaluate", "evaluate_controller"),
    Site("evaluate.evaluate_ground_truth", "evaluate", "evaluate_ground_truth"),
    Site("evaluate.trace_from_event", "evaluate", "trace_from_event", work=_result_len),
    Site("evaluate.summarize_traces", "evaluate", "summarize_traces"),
    Site("evaluate.export_distributions", "evaluate", "export_distributions"),
    Site("evaluate.compare", "evaluate", "compare"),
)

SPAN_NAMES = tuple(sorted({s.span for s in SITES if s.name_of is None}
                          | {"nets.forward_row", "nets.forward_batch"}))


@dataclass
class PassStats:
    """Per-span-name totals of one or more traced calls."""

    calls: np.ndarray    # int, indexed like SPAN_NAMES
    total_ns: np.ndarray
    self_ns: np.ndarray
    work: np.ndarray
    covered_ns: int      # time inside top-level spans
    wall_ns: int

    def __add__(self, other: "PassStats") -> "PassStats":
        return PassStats(self.calls + other.calls, self.total_ns + other.total_ns,
                         self.self_ns + other.self_ns, self.work + other.work,
                         self.covered_ns + other.covered_ns, self.wall_ns + other.wall_ns)


class Tracer:
    """Install with :meth:`install`; each :meth:`record` call traces one call,
    a step of a pass."""

    def __init__(self):
        self.index = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.absent: list[str] = []
        self.records: list[np.ndarray] = []   # (n, 4) int64 span arrays, one per record
        self._spans: list = []
        self._stack = [-1]
        self._work = np.zeros(len(SPAN_NAMES), dtype=np.int64)
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.absent = []
        for site in SITES:
            try:
                module = importlib.import_module(f"{PACKAGE}.{site.module}")
                owner, attr = module, site.attr
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                else:
                    original = getattr(module, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(site.span)
                continue
            traced = self._wrap(original, site)
            if owner is module:
                for mod in [m for name, m in sys.modules.items()
                            if name == PACKAGE or name.startswith(PACKAGE + ".")]:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, name, original))
                            setattr(mod, name, traced)
            else:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _wrap(self, fn: Callable, site: Site) -> Callable:
        spans, stack, work_totals = self._spans, self._stack, self._work
        index, clock = self.index, time.perf_counter_ns
        fixed_id = None if site.name_of else index[site.span]
        name_of, work = site.name_of, site.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name_id = fixed_id if name_of is None else index[name_of(args, kwargs)]
            parent = stack[-1]
            me = len(spans)
            spans.append(None)
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (name_id, start, end, parent)
            if work is not None:
                work_totals[name_id] += work(args, kwargs, result)
            return result

        return traced

    def record(self, fn: Callable[[], object]):
        """Call ``fn()`` under the tracer; return (its result, its PassStats)."""
        self._spans.clear()
        self._work[:] = 0
        start = time.perf_counter_ns()
        result = fn()
        wall = time.perf_counter_ns() - start
        spans = np.array(self._spans, dtype=np.int64).reshape(-1, 4)
        self.records.append(spans)
        return result, self._stats(spans, wall)

    def _stats(self, spans: np.ndarray, wall_ns: int) -> PassStats:
        n = len(SPAN_NAMES)
        name_id, parent = spans[:, 0], spans[:, 3]
        duration = spans[:, 2] - spans[:, 1]
        nested = parent >= 0
        child_ns = np.bincount(parent[nested], weights=duration[nested], minlength=len(spans))
        self_ns = duration - child_ns
        return PassStats(
            calls=np.bincount(name_id, minlength=n),
            total_ns=np.bincount(name_id, weights=duration, minlength=n),
            self_ns=np.bincount(name_id, weights=self_ns, minlength=n),
            work=self._work.copy(),
            covered_ns=int(duration[~nested].sum()),
            wall_ns=wall_ns,
        )

    def write(self, path) -> None:
        """All recorded spans, with a ``record_index`` column, as a compressed npz."""
        spans = np.concatenate(self.records) if self.records else np.zeros((0, 4), np.int64)
        record_index = np.concatenate([np.full(len(r), i) for i, r in enumerate(self.records)]
                                      or [np.zeros(0, int)])
        np.savez_compressed(path, names=np.array(SPAN_NAMES), name_id=spans[:, 0],
                            start_ns=spans[:, 1], end_ns=spans[:, 2], parent=spans[:, 3],
                            record_index=record_index)
