"""Dataset statistics as they were computed one event at a time.

``descriptive_stats`` and ``fit_lognormal_headway`` here apply the TTC and
headway formulas to each event's arrays and concatenate the results. The
package concatenates the speeds and gaps of all events first and applies each
formula once; the tests hold its results to these bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ecofollower import indicators
from ecofollower.events import CarFollowingEvent, FitError, _histogram, _summary


def descriptive_stats(events: Sequence[CarFollowingEvent], bins: int = 50) -> dict:
    if not events:
        raise ValueError("descriptive_stats needs at least one event")
    lead, follow, gap = [], [], []
    ttc_vals, jerk_vals, headway_vals = [], [], []
    for ev in events:
        lead.append(ev.v_lead)
        follow.append(ev.v_follow)
        g = ev.gap
        gap.append(g)
        ttc_vals.append(indicators.ttc_signed(g, ev.v_lead - ev.v_follow))
        jerk_vals.append(indicators.jerk(np.diff(ev.v_follow) / ev.dt, ev.dt)[1:])
        headway_vals.append(indicators.headway(g, ev.v_follow))
    lead = np.concatenate(lead)
    follow = np.concatenate(follow)
    gap = np.concatenate(gap)
    return {
        "events": len(events),
        "samples": len(lead),
        "lead_speed": _summary(lead),
        "follow_speed": _summary(follow),
        "gap": _summary(gap),
        "histograms": {
            "lead_speed": _histogram(lead, bins),
            "follow_speed": _histogram(follow, bins),
            "gap": _histogram(gap, bins),
            "ttc": _histogram(np.concatenate(ttc_vals), bins),
            "jerk": _histogram(np.concatenate(jerk_vals), bins),
            "headway": _histogram(np.concatenate(headway_vals), bins),
        },
    }


def fit_lognormal_headway(events: Sequence[CarFollowingEvent]) -> tuple[float, float]:
    logs = []
    for ev in events:
        h = indicators.headway(ev.gap, ev.v_follow)
        if h.size:
            logs.append(np.log(h))
    n = sum(a.size for a in logs)
    if n < 2:
        raise FitError(f"need at least 2 valid headway samples, got {n}")
    logs = np.concatenate(logs)
    return float(np.mean(logs)), float(np.std(logs))
