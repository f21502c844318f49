"""Seeded benchmark inputs, generated with numpy alone.

Nothing here imports ``ecofollower`` or the test helpers: the inputs must not
change when the code under test changes, so a parent commit and a change run
on identical bytes (their sha256 is recorded with every result).

Leaders follow sinusoidal or ramped-step speed profiles. Followers are driven
by an Intelligent Driver Model with per-event parameters plus a little
acceleration noise, so no controller under test reproduces them exactly.
Positions are trapezoid integrals of speeds, which is the environment's own
update rule, so the recordings are kinematically consistent.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DT = 0.1
FOOT = 0.3048        # m per ft
MILLISECOND = 0.001  # s per ms
EVENT_COLUMNS = ("event_id", "t", "x_lead", "v_lead", "x_follow", "v_follow")

# Raw columns of the NGSIM-shaped source, in file order. ``Lane_ID`` is the
# extra column that the mapping ignores.
RAW_COLUMNS = ("Pair_ID", "Global_Time", "Lane_ID", "Lead_Local_Y", "Lead_v_Vel",
               "Local_Y", "v_Vel")
RAW_MAPPING = {
    "columns": {"event_id": "Pair_ID", "t": "Global_Time", "x_lead": "Lead_Local_Y",
                "v_lead": "Lead_v_Vel", "x_follow": "Local_Y", "v_follow": "v_Vel"},
    "scale": {"t": MILLISECOND, "x_lead": FOOT, "v_lead": FOOT,
              "x_follow": FOOT, "v_follow": FOOT},
}


@dataclass(frozen=True)
class Event:
    """One leader-follower recording in metres, seconds and m/s."""

    event_id: str
    t: np.ndarray
    x_lead: np.ndarray
    v_lead: np.ndarray
    x_follow: np.ndarray
    v_follow: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


def _positions(v: np.ndarray, x0: float) -> np.ndarray:
    x = np.empty_like(v)
    x[0] = x0
    x[1:] = x0 + np.cumsum((v[:-1] + v[1:]) / 2.0 * DT)
    return x


def _leader_speeds(rng: np.random.Generator, n: int, smooth: bool) -> np.ndarray:
    base = rng.uniform(6.0, 14.0)
    if smooth:
        t = np.arange(n) * DT
        amp = rng.uniform(1.0, 3.0)
        period = rng.uniform(8.0, 25.0)
        return base + amp * np.sin(2.0 * np.pi * t / period + rng.uniform(0.0, 2.0 * np.pi))
    v = np.empty(n)
    pos, level = 0, base
    while pos < n:
        hold = min(pos + int(rng.uniform(3.0, 8.0) / DT), n)
        v[pos:hold] = level
        new_level = float(np.clip(level + rng.uniform(-4.0, 4.0), 2.0, 18.0))
        ramp = min(hold + int(rng.uniform(1.5, 4.0) / DT), n)
        v[hold:ramp] = np.linspace(level, new_level, ramp - hold + 2)[1:-1][: ramp - hold]
        pos, level = ramp, new_level
    return v


def _idm_follower(rng: np.random.Generator, v_lead: np.ndarray,
                  x_lead: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Follower speeds and positions from an IDM with per-event parameters."""
    a_max = rng.uniform(0.8, 1.6)
    v_desired = rng.uniform(15.0, 22.0)
    headway = rng.uniform(1.0, 1.8)
    s_jam = rng.uniform(1.5, 3.0)
    b_comf = rng.uniform(1.5, 2.5)
    noise = rng.normal(0.0, 0.15, size=len(v_lead))
    v = max(0.0, float(v_lead[0]) + rng.uniform(-1.0, 1.0))
    x = float(x_lead[0]) - (s_jam + v * headway + rng.uniform(2.0, 8.0))
    v_out = np.empty(len(v_lead))
    x_out = np.empty(len(v_lead))
    sqrt_ab = 2.0 * math.sqrt(a_max * b_comf)
    for k in range(len(v_lead)):
        v_out[k], x_out[k] = v, x
        gap = float(x_lead[k]) - x
        if gap <= 0.5:
            raise RuntimeError("generated follower closed to within 0.5 m of its leader")
        s_star = s_jam + max(0.0, v * headway + v * (v - float(v_lead[k])) / sqrt_ab)
        accel = a_max * (1.0 - (v / v_desired) ** 4 - (s_star / gap) ** 2) + float(noise[k])
        accel = min(2.5, max(-4.0, accel))
        v_next = max(0.0, v + accel * DT)
        x += (v + v_next) / 2.0 * DT
        v = v_next
    return v_out, x_out


def _durations(rng: np.random.Generator, count: int,
               duration_range: tuple[float, float]) -> np.ndarray:
    """Stratified draws: one duration per equal slice of the range, in random order.

    The durations stay ragged, but their total, and so the work of a pass,
    hardly changes from seed to seed.
    """
    lo, hi = duration_range
    return lo + (hi - lo) * (rng.permutation(count) + rng.uniform(size=count)) / count


def _make_event(rng: np.random.Generator, event_id: str, duration: float,
                smooth: bool) -> Event:
    n = int(round(duration / DT)) + 1
    v_lead = _leader_speeds(rng, n, smooth)
    x_lead = _positions(v_lead, rng.uniform(50.0, 400.0))
    v_follow, x_follow = _idm_follower(rng, v_lead, x_lead)
    return Event(event_id, np.arange(n) * DT, x_lead, v_lead, x_follow, v_follow)


def make_fleet(seed: int, purpose: str, count: int,
               duration_range: tuple[float, float]) -> list[Event]:
    """``count`` events with durations drawn uniformly from ``duration_range`` seconds."""
    rng = np.random.default_rng([seed % 2**64, *purpose.encode()])
    durations = _durations(rng, count, duration_range)
    return [_make_event(rng, f"{purpose}-{i:03d}", d, smooth=(i % 2 == 0))
            for i, d in enumerate(durations)]


def write_events_csv(events: list[Event], path: Path) -> None:
    """Normalized event CSV; floats as ``repr`` so a reload is bit-identical."""
    with open(path, "w") as fh:
        fh.write(",".join(EVENT_COLUMNS) + "\n")
        for ev in events:
            columns = (ev.t.tolist(), ev.x_lead.tolist(), ev.v_lead.tolist(),
                       ev.x_follow.tolist(), ev.v_follow.tolist())
            fh.writelines(",".join([ev.event_id, *map(repr, row)]) + "\n"
                          for row in zip(*columns))


def read_events_csv(path: Path) -> dict[str, dict[str, np.ndarray]]:
    """Columns of a normalized event CSV, by event id in file order.

    Rows of one event are contiguous in files that ``write_events`` made, so
    only one event's rows are held as Python floats at a time.
    """
    events: dict[str, dict[str, np.ndarray]] = {}
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != EVENT_COLUMNS:
            raise ValueError(f"{path}: unexpected header {header}")
        split = (line.rstrip("\n").split(",", 1) for line in fh)
        for eid, rows in itertools.groupby(split, key=lambda r: r[0]):
            cols = np.array([[float(v) for v in rest.split(",")] for _, rest in rows]).T
            if eid in events:
                raise ValueError(f"{path}: rows of event {eid} are not contiguous")
            events[eid] = dict(zip(EVENT_COLUMNS[1:], cols))
    return events


@dataclass(frozen=True)
class RawSource:
    """What the NGSIM-shaped raw file holds, for checking ``prepare``."""

    kept: list[Event]        # events of at least ``min_duration`` seconds
    rejected: list[str]      # ids of the shorter events
    rows: int


def write_raw_ngsim(seed: int, count: int, path: Path, min_duration: float) -> RawSource:
    """Paired leader/follower rows in feet, ft/s and milliseconds, frame-ordered.

    About a tenth of the events last 5-13 s and must be rejected as too short;
    the rest last 16-60 s. Rows of different events interleave by time, as in
    a frame-ordered NGSIM dump.
    """
    rng = np.random.default_rng([seed % 2**64, *b"ingest.raw"])
    n_short = max(1, count // 10)
    durations = np.concatenate([_durations(rng, n_short, (5.0, 13.0)),
                                _durations(rng, count - n_short, (16.0, 60.0))])
    durations = durations[rng.permutation(count)]
    followers = rng.choice(np.arange(1, 5000), size=count, replace=False)
    events, frames = [], []
    for i in range(count):
        leader = followers[i] + rng.integers(1, 50)
        ev = _make_event(rng, f"{followers[i]}-{leader}", durations[i], smooth=(i % 2 == 0))
        events.append(ev)
        start_ms = int(rng.integers(0, 300)) * 100   # frame-aligned start within 30 s
        frames.append((start_ms + 100 * np.arange(len(ev)), int(rng.integers(1, 7))))
    # frame order: by time, then by pair id
    ms = np.concatenate([f for f, _ in frames])
    which = np.repeat(np.arange(count), [len(ev) for ev in events])
    step = np.concatenate([np.arange(len(ev)) for ev in events])
    id_rank = np.argsort(np.argsort([ev.event_id for ev in events]))
    order = np.lexsort((id_rank[which], ms))
    in_feet = [[(ev.x_lead / FOOT).tolist(), (ev.v_lead / FOOT).tolist(),
                (ev.x_follow / FOOT).tolist(), (ev.v_follow / FOOT).tolist()] for ev in events]
    with open(path, "w") as fh:
        fh.write(",".join(RAW_COLUMNS) + "\n")
        for i, k, t_ms in zip(which[order].tolist(), step[order].tolist(), ms[order].tolist()):
            fh.write(",".join([events[i].event_id, str(t_ms), str(frames[i][1]),
                               *(repr(col[k]) for col in in_feet[i])]) + "\n")
    kept = [ev for ev in events if (len(ev) - 1) * DT >= min_duration]
    rejected = [ev.event_id for ev in events if (len(ev) - 1) * DT < min_duration]
    return RawSource(kept=kept, rejected=rejected, rows=len(ms))


def write_mapping(path: Path) -> None:
    Path(path).write_text(json.dumps(RAW_MAPPING, indent=2) + "\n")


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
