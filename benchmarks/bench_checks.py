"""Reference values and output checks, computed with the benchmark's own numpy code.

The references restate the published model (environment update, IDM, the
policy MLP, VT-Micro, the indicator definitions) in lockstep numpy over all
events at once. They share no code with ``ecofollower``; they read only the
bundled VT-Micro coefficient table, which is data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bench_inputs import DT, Event

# Defaults of the code under test that its users rely on: the actuator range,
# the policy's state scaling, the IDM baseline and the indicator settings.
A_MIN, A_MAX = -3.0, 3.0
STATE_SCALE = np.array([30.0, 100.0, 10.0])   # follower speed, spacing, relative speed
IDM = {"a_max": 1.0, "v_desired": 15.0, "beta": 4.0, "s_jam": 2.0, "T_headway": 1.2,
       "a_comf": 2.0}
TTC_CAP = 50.0
SPEED_FLOOR = 0.1
BINS = 50

_SPEED_UNITS = {"m/s": 1.0, "km/h": 3.6}
_ACCEL_UNITS = {"m/s^2": 1.0, "km/h/s": 3.6}
_OUTPUT_UNITS = {"mL/s": 1.0, "L/s": 1000.0}


def close(actual: float, expected: float, rel: float) -> bool:
    """Equal within ``rel``; two NaNs (a mean over no steps) also count as equal."""
    if math.isnan(actual) and math.isnan(expected):
        return True
    return math.isclose(actual, expected, rel_tol=rel, abs_tol=0.0)


def _mean(chunks: list[np.ndarray]) -> float:
    pooled = np.concatenate(chunks)
    return float(np.mean(pooled)) if pooled.size else math.nan


class FuelTable:
    """VT-Micro rate exp(P(v, a)) in m/s, m/s^2 and mL/s, from a two-regime table."""

    def __init__(self, path: Path):
        tables = {t["regime"]: t for t in json.loads(Path(path).read_text())}
        self.k = {}
        for regime in ("acceleration", "deceleration"):
            units = tables[regime]["units"]
            cv, ca = _SPEED_UNITS[units["speed"]], _ACCEL_UNITS[units["acceleration"]]
            k = np.array(tables[regime]["k"]) * np.outer(cv ** np.arange(4), ca ** np.arange(4))
            k[0, 0] += math.log(_OUTPUT_UNITS[units["output"]])
            self.k[regime] = k

    def rate(self, v: np.ndarray, a: np.ndarray) -> np.ndarray:
        out = np.empty_like(v)
        for regime, mask in (("acceleration", a >= 0), ("deceleration", a < 0)):
            k, vm, am = self.k[regime], v[mask], a[mask]
            p = np.zeros_like(vm)
            for i in (3, 2, 1, 0):
                p = p * vm + (((k[i, 3] * am + k[i, 2]) * am + k[i, 1]) * am + k[i, 0])
            out[mask] = np.exp(p)
        return out


@dataclass
class Trace:
    accel: np.ndarray
    v: np.ndarray
    spacing: np.ndarray
    rel_speed: np.ndarray
    collided: bool = False


def recorded_trace(ev: Event) -> Trace:
    return Trace(np.diff(ev.v_follow) / DT, ev.v_follow[:-1], (ev.x_lead - ev.x_follow)[:-1],
                 (ev.v_lead - ev.v_follow)[:-1])


def rollout(events: list[Event], control) -> list[Trace]:
    """Lockstep simulation of every event; ``control(v, s, dv)`` maps arrays to accels.

    Euler on speed with a floor at 0, trapezoid on spacing; an event stops at
    the step whose outcome spacing is at or below 0, which is its last row.
    """
    n = len(events)
    steps = np.array([len(ev) - 1 for ev in events])
    v_lead = np.ones((n, steps.max() + 1))
    for i, ev in enumerate(events):
        v_lead[i, : len(ev)] = ev.v_lead
    v = np.array([ev.v_follow[0] for ev in events])
    s = np.array([ev.x_lead[0] - ev.x_follow[0] for ev in events])
    dv = np.array([ev.v_lead[0] - ev.v_follow[0] for ev in events])
    active = steps > 0
    collided = np.zeros(n, dtype=bool)
    rows = []   # (accel, v, s, dv) per step, inactive entries masked out later
    masks = []
    for k in range(steps.max()):
        active &= k < steps
        if not active.any():
            break
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a = np.clip(control(v, s, dv), A_MIN, A_MAX)
        rows.append((a, v, s, dv))
        masks.append(active.copy())
        v_next = np.maximum(0.0, v + a * DT)
        dv_next = v_lead[:, k + 1] - v_next
        s_next = s + (dv + dv_next) / 2.0 * DT
        hit = active & (s_next <= 0.0)
        collided |= hit
        v, s, dv = (np.where(active, new, old) for new, old in
                    ((v_next, v), (s_next, s), (dv_next, dv)))
        active &= ~hit
    stacked = [np.array(col) for col in zip(*rows)]
    taken = np.array(masks)
    return [Trace(*(col[taken[:, i], i] for col in stacked), collided=bool(collided[i]))
            for i in range(n)]


def idm_control(v, s, dv):
    p = IDM
    dynamic = v * p["T_headway"] + v * -dv / (2.0 * math.sqrt(p["a_max"] * p["a_comf"]))
    s_star = p["s_jam"] + np.maximum(0.0, dynamic)
    return p["a_max"] * (1.0 - (v / p["v_desired"]) ** p["beta"] - (s_star / s) ** 2)


def policy_control(policy: dict):
    """Tanh MLP of a format-v1 policy JSON on the scaled state, mapped onto [A_MIN, A_MAX]."""
    layers = [(np.array(w), np.array(b)) for w, b in zip(policy["weights"], policy["biases"])]
    if policy["hidden_activation"] != "tanh" or policy["output_activation"] != "tanh":
        raise ValueError("the reference policy forward handles tanh layers only")

    def control(v, s, dv):
        h = np.stack([v, s, dv], axis=1) / STATE_SCALE
        for w, b in layers:
            h = np.tanh(h @ w + b)
        return A_MIN + (h[:, 0] + 1.0) / 2.0 * (A_MAX - A_MIN)

    return control


def summary(traces: list[Trace], fuel: FuelTable) -> dict:
    """Step-pooled indicator means, as ``summary_<controller>.json`` reports them."""
    ttc, jerk, headway = [], [], []
    fuel_ml, steps = 0.0, 0
    for tr in traces:
        closing = tr.rel_speed < 0
        ttc.append(np.minimum(-tr.spacing[closing] / tr.rel_speed[closing], TTC_CAP))
        jerk.append(np.abs(np.diff(tr.accel, prepend=0.0)) / DT)
        moving = tr.v >= SPEED_FLOOR
        headway.append(tr.spacing[moving] / tr.v[moving])
        fuel_ml += float(np.sum(fuel.rate(tr.v, tr.accel))) * DT
        steps += len(tr.accel)
    return {
        "indicators": {
            "mean_ttc_s": _mean(ttc),
            "mean_abs_jerk_m_s3": _mean(jerk),
            "mean_headway_s": _mean(headway),
            "mean_fuel_rate_ml_s": fuel_ml / (steps * DT),
        },
        "events": len(traces),
        "collisions": sum(tr.collided for tr in traces),
        "total_steps": steps,
    }


def summary_mismatches(name: str, got: dict, want: dict, rel: float) -> list[str]:
    """Differences between a program summary (its JSON form) and a reference summary."""
    problems = []
    for key, value in want["indicators"].items():
        if not close(got["indicators"][key], value, rel):
            problems.append(f"{name}.{key}: {got['indicators'][key]!r} != {value!r}")
    for key, value in (("events", want["events"]), ("collisions", want["collisions"]),
                       ("errors", 0)):
        if got[key] != value:
            problems.append(f"{name}.{key}: {got[key]} != {value}")
    if got["metadata"]["total_steps"] != want["total_steps"]:
        problems.append(f"{name}.total_steps: {got['metadata']['total_steps']} "
                        f"!= {want['total_steps']}")
    return problems


def _edges(values: np.ndarray) -> np.ndarray:
    lo, hi = float(values.min()), float(values.max())
    if hi - lo <= max(abs(lo), abs(hi), 1.0) * 1e-9:
        raise ValueError("degenerate histogram range in generated data")
    return np.linspace(lo, hi, BINS + 1)


def stats_reference(events: dict[str, dict[str, np.ndarray]]) -> dict:
    """``stats.json`` of a normalized event file read back from disk."""
    cols = list(events.values())
    lead = np.concatenate([c["v_lead"] for c in cols])
    follow = np.concatenate([c["v_follow"] for c in cols])
    gaps = [c["x_lead"] - c["x_follow"] for c in cols]
    gap = np.concatenate(gaps)
    ttc, jerk, headway = [], [], []
    for c, g in zip(cols, gaps):
        dv = c["v_lead"] - c["v_follow"]
        nonzero = dv != 0
        ttc.append(np.clip(-g[nonzero] / dv[nonzero], -TTC_CAP, TTC_CAP))
        dt = float(np.median(np.diff(c["t"])))
        jerk.append(np.diff(np.diff(c["v_follow"]) / dt) / dt)
        moving = c["v_follow"] >= SPEED_FLOOR
        headway.append(g[moving] / c["v_follow"][moving])
    derived = {"lead_speed": lead, "follow_speed": follow, "gap": gap,
               "ttc": np.concatenate(ttc), "jerk": np.concatenate(jerk),
               "headway": np.concatenate(headway)}
    logs = np.log(derived["headway"])
    return {
        "events": len(cols),
        "samples": len(lead),
        **{name: {"mean": float(np.mean(x)), "min": float(np.min(x)), "max": float(np.max(x))}
           for name, x in (("lead_speed", lead), ("follow_speed", follow), ("gap", gap))},
        "counts": {name: np.histogram(x, bins=_edges(x))[0].tolist()
                   for name, x in derived.items()},
        "headway_lognormal": {"mu": float(np.mean(logs)), "sigma": float(np.std(logs))},
    }


def stats_mismatches(got: dict, want: dict, rel: float = 1e-9) -> list[str]:
    problems = [f"{key}: {got.get(key)} != {want[key]}" for key in ("events", "samples")
                if got.get(key) != want[key]]
    for block in ("lead_speed", "follow_speed", "gap", "headway_lognormal"):
        for key, value in want[block].items():
            if not close(got[block][key], value, rel):
                problems.append(f"{block}.{key}: {got[block][key]!r} != {value!r}")
    for name, counts in want["counts"].items():
        if got["histograms"][name]["count"] != counts:
            problems.append(f"histogram {name}: counts differ")
    return problems
