"""Synthetic storm/event generator with a documented ground-truth duration law.

Every event's restoration duration is ``g(features) + Gaussian noise`` where
``g`` is the fully documented nonlinear function below (see
:func:`ground_truth_duration`). The function deliberately depends on

- an interaction between crew-dispatch timing and customers affected, and
- the crew-churn counter at the *middle* revision of the sequence,

so a model that only sees the first revision is strictly handicapped and
longitudinal context provably helps. Filler features are independent noise
with zero effect on the target, giving attribution tests a known ground truth.

Timestamps are snapped to a 1/64-hour grid. Differences of grid values are
exact in double precision, which makes time-delta computation bit-invariant
under large constant timestamp shifts.

Storm generation is independently seeded per (class, index): generating
storms in parallel or in any order yields the same bytes as sequential
generation.

Each series drawn per event (the storm's event starts, and an event's gaps,
customer multipliers, dispatch and churn increments) is one size-n call.
numpy's ``Generator`` returns the same values for one size-n ``uniform`` or
``integers`` call as for n scalar calls, and leaves the bit generator in the
same state, so the stream and every dataset byte stay those of drawing one
value per call; ``tests/test_synth.py`` checks this property. The priority is
one ``random()`` draw bisected into the distribution ``Generator.choice``
builds. The rolling average is ``np.mean``'s own sum and division over the
closed events, which are a prefix of the close times kept sorted.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, replace
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from .data import (
    CATEGORICAL,
    CONTINUOUS,
    MAGNITUDES,
    MISSING_CAT,
    EventTable,
    FeatureSchema,
    StormRecord,
    build_table,
    check_split_ratios,
    stratified_split,
)
from .dataio import Dataset, save_dataset

GRID = 64.0  # timestamps live on a 1/64-hour grid

# feature names; priority and these five signal features drive the ground-truth law
SIGNAL_CONTINUOUS = (
    "customers_under_outage",
    "crew_dispatched_events",
    "crew_unassigned_transitions",
    "rolling_avg_restore_last_25",
    "concurrent_event_count",
)
PRIORITY_LEVELS = ("P1", "P2", "P3", "P4")
PRIORITY_WEIGHTS = (0.2, 0.3, 0.3, 0.2)
# the cumulative distribution `Generator.choice` builds from PRIORITY_WEIGHTS;
# bisecting one `random()` draw into it gives choice's index from the same draw
_PRIORITY_CUMSUM = np.cumsum(PRIORITY_WEIGHTS)
PRIORITY_CDF = tuple((_PRIORITY_CUMSUM / _PRIORITY_CUMSUM[-1]).tolist())
FILLER_CODE_LEVELS = ("C0", "C1", "C2", "C3", "C4", "C5")
# bounds of an event's integers, in order: its first dispatch value, dispatch and churn
# increments, filler codes; one call over them draws what one call per bound would
INTEGER_HIGHS = (2, 3, 2, len(FILLER_CODE_LEVELS))

# ground-truth coefficients (documented law, see ground_truth_duration)
BASE_HOURS = 3.0
CUSTOMER_COEF = 2.5
PRIORITY_HOURS = {"P1": 0.0, "P2": 2.0, "P3": 5.0, "P4": 9.0}
CONCURRENCY_COEF = 1.2
DISPATCH_COEF = 1.5
DISPATCH_DELAY_CAP = 12.0
CUSTOMER_REF = 20000.0
CHURN_COEF = 2.0
ROLLING_COEF = 3.0
ROLLING_REF = 24.0
ROLLING_DEFAULT = 24.0
MIN_DURATION = 0.25

# per-class (affected / served) ratio bands; strictly inside classify_storm's
# default thresholds (0.05, 0.20) with margin on both sides
RATIO_BANDS = {
    "Small": (0.005, 0.045),
    "Medium": (0.07, 0.18),
    "Large": (0.25, 0.60),
}


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    storms_per_class: int = 8
    events_per_storm: tuple[int, int] = (60, 110)
    revisions_per_event: tuple[int, int] = (4, 9)
    n_filler_categorical: int = 1
    n_filler_continuous: int = 4
    noise_std: float = 0.5
    missing_rate: float = 0.02
    split_ratios: tuple[float, float, float] = (0.7, 0.15, 0.15)

    def __post_init__(self):
        if not 1 <= self.revisions_per_event[0] <= self.revisions_per_event[1]:
            raise ValueError(f"bad revisions_per_event range {self.revisions_per_event}")
        if self.events_per_storm[0] < 1 or self.events_per_storm[0] > self.events_per_storm[1]:
            raise ValueError(f"bad events_per_storm range {self.events_per_storm}")
        if not self.noise_std >= 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        check_split_ratios(self.split_ratios)
        if not 0.0 <= self.missing_rate < 1.0:
            raise ValueError("missing_rate must be in [0, 1)")
        if self.storms_per_class < 1:
            raise ValueError("storms_per_class must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("n_filler_categorical", "n_filler_continuous"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("events_per_storm", "revisions_per_event", "split_ratios"):
            d[key] = list(d[key])
        return d


def filler_categorical_names(cfg: GeneratorConfig) -> tuple[str, ...]:
    return tuple(f"filler_code_{i + 1}" for i in range(cfg.n_filler_categorical))


def filler_continuous_names(cfg: GeneratorConfig) -> tuple[str, ...]:
    return tuple(f"filler_noise_{i + 1}" for i in range(cfg.n_filler_continuous))


def build_schema(cfg: GeneratorConfig) -> tuple[FeatureSchema, dict[str, tuple[str, ...]]]:
    """Feature roster: signal features first, filler features after."""
    features: list[tuple[str, str]] = [("priority", CATEGORICAL)]
    features += [(name, CATEGORICAL) for name in filler_categorical_names(cfg)]
    features += [(name, CONTINUOUS) for name in SIGNAL_CONTINUOUS]
    features += [(name, CONTINUOUS) for name in filler_continuous_names(cfg)]
    categories = {"priority": PRIORITY_LEVELS}
    for name in filler_categorical_names(cfg):
        categories[name] = FILLER_CODE_LEVELS
    cardinalities = {name: len(vals) for name, vals in categories.items()}
    return FeatureSchema(tuple(features), cardinalities), categories


def snap(hours: float) -> float:
    """Snap a duration/timestamp to the 1/64-hour grid."""
    return round(hours * GRID) / GRID


def dispatch_delay_hours(crew_dispatched: Sequence[float], deltas: Sequence[float]) -> float:
    """Hours until the crew-dispatch counter first exceeds its initial value.

    Capped at DISPATCH_DELAY_CAP; the cap also covers events where the counter
    never moves.
    """
    first = crew_dispatched[0]
    for count, dt in zip(crew_dispatched, deltas):
        if count > first:
            return min(dt, DISPATCH_DELAY_CAP)
    return DISPATCH_DELAY_CAP


def ground_truth_duration(
    u_first: float,
    priority: str,
    concurrent_first: float,
    dispatch_delay: float,
    churn_mid: float,
    rolling_first: float,
) -> float:
    """The documented ground-truth law g, in hours.

    g = BASE
      + CUSTOMER_COEF * log1p(u_1)
      + PRIORITY_HOURS[priority]
      + CONCURRENCY_COEF * sqrt(n_1)
      + DISPATCH_COEF * dispatch_delay * log1p(u_1) / log1p(CUSTOMER_REF)
      + CHURN_COEF * churn_mid
      + ROLLING_COEF * rolling_first / ROLLING_REF

    where u_1, n_1, rolling_first come from the event's first revision,
    dispatch_delay is :func:`dispatch_delay_hours` over the whole sequence,
    and churn_mid is the crew_unassigned_transitions value at the middle
    revision, index (M + 1) // 2 in 1-based terms.
    """
    return (
        BASE_HOURS
        + CUSTOMER_COEF * math.log1p(u_first)
        + PRIORITY_HOURS[priority]
        + CONCURRENCY_COEF * math.sqrt(concurrent_first)
        + DISPATCH_COEF * dispatch_delay * math.log1p(u_first) / math.log1p(CUSTOMER_REF)
        + CHURN_COEF * churn_mid
        + ROLLING_COEF * rolling_first / ROLLING_REF
    )


def replay_ground_truth(table: EventTable, i: int, schema: FeatureSchema, categories) -> float:
    """Re-evaluate g from event ``i`` of a table; oracle for the zero-noise case."""
    lo, hi = table.offsets[i], table.offsets[i + 1]
    t = table.t[lo:hi]

    def column(name: str) -> list[float]:
        return table.cont[lo:hi, schema.continuous.index(name)].tolist()

    mid = (hi - lo + 1) // 2 - 1  # middle revision, 0-based
    priority = categories["priority"][table.cat[lo, schema.categorical.index("priority")]]
    return ground_truth_duration(
        u_first=column("customers_under_outage")[0],
        priority=priority,
        concurrent_first=column("concurrent_event_count")[0],
        dispatch_delay=dispatch_delay_hours(column("crew_dispatched_events"), (t - t[0]).tolist()),
        churn_mid=column("crew_unassigned_transitions")[mid],
        rolling_first=column("rolling_avg_restore_last_25")[0],
    )


def _storm_rng(cfg: GeneratorConfig, magnitude: str, index: int) -> np.random.Generator:
    return np.random.default_rng((cfg.seed, MAGNITUDES.index(magnitude), index))


def _window_mean(window: list[float]) -> float:
    """``np.mean`` of the window, by the same sum and division; ROLLING_DEFAULT if empty."""
    if not window:
        return ROLLING_DEFAULT
    return float(np.add.reduce(np.array(window)) / len(window))


def generate_storm(
    cfg: GeneratorConfig, magnitude: str, index: int
) -> tuple[StormRecord, list[tuple]]:
    """Generate one storm's record and events; deterministic in (cfg, magnitude, index).

    Each event is a ``(event_id, storm_id, target, t, cat, cont)`` record, as
    :func:`etrcast.data.build_table` takes it.
    """
    if magnitude not in RATIO_BANDS:
        raise ValueError(f"unknown magnitude {magnitude!r}")
    rng = _storm_rng(cfg, magnitude, index)
    storm_id = f"storm-{magnitude.lower()}-{index}"

    served = int(rng.integers(400_000, 800_001))
    lo, hi = RATIO_BANDS[magnitude]
    affected = int(served * rng.uniform(lo, hi))

    n_events = int(rng.integers(cfg.events_per_storm[0], cfg.events_per_storm[1] + 1))
    storm_start = snap(rng.uniform(0.0, 1000.0))
    starts = sorted(snap(storm_start + x) for x in rng.uniform(0.0, 72.0, n_events).tolist())

    n_filler_cat = cfg.n_filler_categorical
    n_filler_cont = cfg.n_filler_continuous
    base_customers = max(affected / n_events, 2.0)

    # close times of the previously generated events, sorted with ties in
    # generation order, and their durations in the same order
    closes: list[float] = []
    durations: list[float] = []
    means: dict[int, float] = {}  # rolling average by prefix length

    records: list[tuple] = []
    for i, t_first in enumerate(starts):
        m = int(rng.integers(cfg.revisions_per_event[0], cfg.revisions_per_event[1] + 1))
        gaps = [max(1.0 / GRID, snap(x)) for x in rng.uniform(0.25, 6.0, m - 1).tolist()]
        timestamps = list(accumulate(gaps, initial=t_first))
        deltas = [t - t_first for t in timestamps]

        priority_idx = bisect_right(PRIORITY_CDF, rng.random())
        priority = PRIORITY_LEVELS[priority_idx]

        u = max(1.0, base_customers * rng.uniform(0.3, 1.7))
        customers = [float(round(u))]
        for x in rng.uniform(0.6, 1.0, m - 1).tolist():
            u = max(1.0, u * x)
            customers.append(float(round(u)))

        draws = rng.integers(0, np.repeat(INTEGER_HIGHS, (1, m - 1, m - 1, m * n_filler_cat)))
        dispatched = list(accumulate(draws[1:m].tolist(), initial=float(draws[0])))
        churn = list(accumulate(draws[m : 2 * m - 1].tolist(), initial=0.0))
        filler_cat = draws[2 * m - 1 :].reshape(m, n_filler_cat)

        # the events closed by a stamp are a prefix of `closes`; the rest
        # are still open
        prefixes = [bisect_right(closes, t) for t in timestamps]
        for k in prefixes:
            if k not in means:
                means[k] = _window_mean(durations[max(0, k - 25) : k])
        rolling = [means[k] for k in prefixes]
        concur = [float(len(closes) - k) for k in prefixes]

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
        at = bisect_right(closes, close)
        closes.insert(at, close)
        durations.insert(at, duration)
        # a prefix longer than `at` now ends in other events
        means = {k: mean for k, mean in means.items() if k <= at}

    record = StormRecord(
        storm_id=storm_id,
        customers_affected=affected,
        customers_served=served,
        magnitude=magnitude,
        event_ids=tuple(r[0] for r in records),
    )
    return record, records


def generate_dataset(cfg: GeneratorConfig, out_dir: str | None = None) -> Dataset:
    """Generate all storms, split them, and optionally write the dataset.

    When ``out_dir`` is given, the returned dataset's ``files`` names the
    files written there. ``build_table`` takes each storm's records as the
    storm is generated, so only one storm's records live as Python lists at
    a time.
    """
    schema, categories = build_schema(cfg)
    storms: list[StormRecord] = []
    failures: list[Exception] = []

    def records() -> Iterator[tuple]:
        # build_table reports a failing record source as a bad event, so a
        # generator failure ends the records here and is raised below as it is
        try:
            for magnitude in MAGNITUDES:
                for index in range(cfg.storms_per_class):
                    storm, storm_records = generate_storm(cfg, magnitude, index)
                    storms.append(storm)
                    yield from storm_records
        except Exception as exc:
            failures.append(exc)

    table = build_table(records(), schema)
    if failures:
        raise failures[0]
    dataset = Dataset(
        schema=schema,
        categories=categories,
        storms=tuple(storms),
        split=stratified_split(storms, cfg.split_ratios, seed=cfg.seed),
        table=table,
        generator_config=cfg.to_dict(),
        seed=cfg.seed,
    )
    if out_dir is not None:
        dataset = replace(dataset, files=save_dataset(dataset, out_dir))
    return dataset
