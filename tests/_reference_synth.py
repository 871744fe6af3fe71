"""Per-draw storm generator, kept as a test oracle for ``etrcast.synth.generate_storm``.

This is the generator that drawing each per-revision series in one call
replaced: every event start, gap, customer multiplier and counter increment
is its own scalar RNG call, the rolling average filters and re-averages every
closed event at each revision stamp, and the concurrency count scans every
earlier close time. Tests assert that the new generator gives exactly the same
records.
"""

from __future__ import annotations

import math

import numpy as np

from etrcast.data import MISSING_CAT, StormRecord, classify_storm
from etrcast.synth import (
    FILLER_CODE_LEVELS,
    GRID,
    MIN_DURATION,
    PRIORITY_LEVELS,
    RATIO_BANDS,
    ROLLING_DEFAULT,
    GeneratorConfig,
    _storm_rng,
    dispatch_delay_hours,
    ground_truth_duration,
    snap,
)


def generate_storm(
    cfg: GeneratorConfig, magnitude: str, index: int
) -> tuple[StormRecord, list[tuple]]:
    rng = _storm_rng(cfg, magnitude, index)
    storm_id = f"storm-{magnitude.lower()}-{index}"

    served = int(rng.integers(400_000, 800_001))
    lo, hi = RATIO_BANDS[magnitude]
    affected = int(served * rng.uniform(lo, hi))
    assert classify_storm(affected, served) == magnitude

    n_events = int(rng.integers(cfg.events_per_storm[0], cfg.events_per_storm[1] + 1))
    storm_start = snap(rng.uniform(0.0, 1000.0))
    starts = sorted(
        snap(storm_start + rng.uniform(0.0, 72.0)) for _ in range(n_events)
    )

    n_filler_cat = cfg.n_filler_categorical
    n_filler_cont = cfg.n_filler_continuous
    base_customers = max(affected / n_events, 2.0)

    # (close_time, duration) of previously generated events, in close order
    closed: list[tuple[float, float]] = []
    open_closes: list[float] = []  # close times of previously generated events

    def rolling_avg(at: float) -> float:
        done = [d for c, d in closed if c <= at]
        if not done:
            return ROLLING_DEFAULT
        return float(np.mean(done[-25:]))

    def concurrent(at: float) -> float:
        return float(sum(1 for c in open_closes if c > at))

    records: list[tuple] = []
    for i, t_first in enumerate(starts):
        m = int(rng.integers(cfg.revisions_per_event[0], cfg.revisions_per_event[1] + 1))
        gaps = [max(1.0 / GRID, snap(rng.uniform(0.25, 6.0))) for _ in range(m - 1)]
        timestamps = [t_first]
        for gap in gaps:
            timestamps.append(timestamps[-1] + gap)
        deltas = [t - t_first for t in timestamps]

        priority_idx = int(rng.choice(4, p=[0.2, 0.3, 0.3, 0.2]))
        priority = PRIORITY_LEVELS[priority_idx]

        u = max(1.0, base_customers * rng.uniform(0.3, 1.7))
        customers = [float(round(u))]
        for _ in range(m - 1):
            u = max(1.0, u * rng.uniform(0.6, 1.0))
            customers.append(float(round(u)))

        dispatched = [float(rng.integers(0, 2))]
        for _ in range(m - 1):
            dispatched.append(dispatched[-1] + float(rng.integers(0, 3)))

        churn = [0.0]
        for _ in range(m - 1):
            churn.append(churn[-1] + float(rng.integers(0, 2)))

        rolling = [rolling_avg(t) for t in timestamps]
        concur = [concurrent(t) for t in timestamps]

        filler_cat = rng.integers(0, len(FILLER_CODE_LEVELS), size=(m, n_filler_cat))
        filler_cont = rng.normal(0.0, 1.0, size=(m, n_filler_cont))
        missing_cat = rng.random((m, n_filler_cat)) < cfg.missing_rate
        missing_cont = rng.random((m, n_filler_cont)) < cfg.missing_rate

        mid = (m + 1) // 2 - 1
        g = ground_truth_duration(
            u_first=customers[0],
            priority=priority,
            concurrent_first=concur[0],
            dispatch_delay=dispatch_delay_hours(dispatched, deltas),
            churn_mid=churn[mid],
            rolling_first=rolling[0],
        )
        noise = rng.normal(0.0, cfg.noise_std) if cfg.noise_std > 0 else 0.0
        duration = max(g + noise, MIN_DURATION)

        fill_cat = np.where(missing_cat, MISSING_CAT, filler_cat).tolist()
        fill_cont = np.where(missing_cont, math.nan, filler_cont).tolist()
        signal = zip(customers, dispatched, churn, rolling, concur)
        cat = [[priority_idx, *f] for f in fill_cat]
        cont = [[*sig, *f] for sig, f in zip(signal, fill_cont)]
        records.append((f"{storm_id}-e{i:04d}", storm_id, duration, timestamps, cat, cont))

        close = t_first + duration
        open_closes.append(close)
        closed.append((close, duration))
        closed.sort(key=lambda cd: cd[0])

    record = StormRecord(
        storm_id=storm_id,
        customers_affected=affected,
        customers_served=served,
        magnitude=magnitude,
        event_ids=tuple(r[0] for r in records),
    )
    return record, records
