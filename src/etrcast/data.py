"""Domain types for outage events plus encoding, classification, and splitting.

An outage event is an ordered sequence of timestamped revisions; each revision
carries the same roster of categorical and continuous features described by a
:class:`FeatureSchema`. Storms group events and carry the customer counts that
determine their magnitude class. All functions here are pure; fitted
statistics live in an immutable :class:`TransformState`.

Missing values are represented in-memory as ``MISSING_CAT`` (-1) for
categorical indices and NaN for continuous values. ``apply_transforms``
removes both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

CATEGORICAL = "categorical"
CONTINUOUS = "continuous"
MAGNITUDES = ("Small", "Medium", "Large")

MISSING_CAT = -1


def is_missing_cont(value: float) -> bool:
    return math.isnan(value)


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature roster: (name, kind) pairs plus categorical cardinalities."""

    features: tuple[tuple[str, str], ...]
    cardinalities: Mapping[str, int]

    def __post_init__(self):
        names = [name for name, _ in self.features]
        if len(set(names)) != len(names):
            raise ValueError("feature names must be unique")
        kinds = {kind for _, kind in self.features}
        if not kinds <= {CATEGORICAL, CONTINUOUS}:
            raise ValueError(f"unknown feature kind in {sorted(kinds)}")
        if not self.categorical or not self.continuous:
            raise ValueError("need at least one categorical and one continuous feature")
        for name in self.categorical:
            card = self.cardinalities.get(name)
            if card is None or card < 2:
                raise ValueError(f"categorical feature {name!r} needs cardinality >= 2")

    # Cached on first read in the instance __dict__, which the frozen
    # dataclass's field-based __eq__ and __hash__ never look at.
    @cached_property
    def categorical(self) -> tuple[str, ...]:
        return tuple(n for n, k in self.features if k == CATEGORICAL)

    @cached_property
    def continuous(self) -> tuple[str, ...]:
        return tuple(n for n, k in self.features if k == CONTINUOUS)

    @cached_property
    def p(self) -> int:
        return len(self.categorical)

    @cached_property
    def q(self) -> int:
        return len(self.continuous)


@dataclass(frozen=True)
class Revision:
    """One timestamped snapshot of an event's features.

    ``categorical_values`` hold raw category indices (or ``MISSING_CAT``);
    ``continuous_values`` hold reals (or NaN). Timestamps are hours since a
    fixed epoch.
    """

    timestamp: float
    categorical_values: tuple[int, ...]
    continuous_values: tuple[float, ...]


@dataclass(frozen=True)
class EventSeries:
    """One outage event: ordered revisions plus the true restoration duration."""

    event_id: str
    storm_id: str
    revisions: tuple[Revision, ...]
    target_duration: float

    def __post_init__(self):
        if not self.revisions:
            raise ValueError(f"event {self.event_id}: needs at least one revision")
        ts = [r.timestamp for r in self.revisions]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError(f"event {self.event_id}: timestamps must strictly increase")
        if not (self.target_duration >= 0.0 and math.isfinite(self.target_duration)):
            raise ValueError(f"event {self.event_id}: bad target_duration")


def validate_event(event: EventSeries, schema: FeatureSchema) -> None:
    """Schema-dependent checks: value lengths and categorical index ranges."""
    for j, rev in enumerate(event.revisions):
        if len(rev.categorical_values) != schema.p or len(rev.continuous_values) != schema.q:
            raise ValueError(
                f"event {event.event_id} revision {j}: value lengths do not match schema"
            )
        for name, idx in zip(schema.categorical, rev.categorical_values):
            if idx == MISSING_CAT:
                continue
            if not 0 <= idx < schema.cardinalities[name]:
                raise ValueError(
                    f"event {event.event_id} revision {j}: index {idx} out of range "
                    f"for feature {name!r}"
                )


@dataclass(frozen=True)
class StormRecord:
    storm_id: str
    customers_affected: int
    customers_served: int
    magnitude: str
    event_ids: tuple[str, ...]

    def __post_init__(self):
        if self.customers_served <= 0:
            raise ValueError(f"storm {self.storm_id}: customers_served must be positive")
        if not 0 <= self.customers_affected <= self.customers_served:
            raise ValueError(f"storm {self.storm_id}: affected must be in [0, served]")
        if self.magnitude not in MAGNITUDES:
            raise ValueError(f"storm {self.storm_id}: unknown magnitude {self.magnitude!r}")


@dataclass(frozen=True)
class TransformState:
    """Fitted preprocessing statistics, computed from training data only.

    Continuous features carry (mean, std) for Z-normalization; categorical
    features carry a raw-index -> dense-index map and a dense mode index for
    imputation. The dense encoding reserves index ``len(map)`` for categories
    unseen in training (UNKNOWN), so the encoded cardinality is
    ``fitted cardinality + 1``.
    """

    cont_mean: Mapping[str, float]
    cont_std: Mapping[str, float]
    cat_maps: Mapping[str, Mapping[int, int]]
    cat_modes: Mapping[str, int]

    def unknown_index(self, feature: str) -> int:
        return len(self.cat_maps[feature])

    def encoded_cardinality(self, feature: str) -> int:
        return len(self.cat_maps[feature]) + 1


@dataclass(frozen=True)
class DatasetSplit:
    """Storm-level partition into train / validation / test storm_ids."""

    train: tuple[str, ...]
    validation: tuple[str, ...]
    test: tuple[str, ...]

    def __post_init__(self):
        parts = (set(self.train), set(self.validation), set(self.test))
        total = sum(len(p) for p in parts)
        if len(parts[0] | parts[1] | parts[2]) != total:
            raise ValueError("splits must be disjoint")


@dataclass(frozen=True)
class EncodedEvent:
    """Model-ready event: dense category indices, Z-scores, and time deltas."""

    event_id: str
    storm_id: str
    cat_idx: np.ndarray  # [M, p] int64, every index < fitted cardinality + 1
    cont: np.ndarray  # [M, q] float64 Z-scores
    deltas: np.ndarray  # [M] float64 hours since first revision
    target_duration: float


def compute_time_deltas(event: EventSeries) -> list[float]:
    """Hours elapsed since the event's first revision, one value per revision."""
    t0 = event.revisions[0].timestamp
    return [r.timestamp - t0 for r in event.revisions]


def classify_storm(
    customers_affected: int,
    customers_served: int,
    thresholds: tuple[float, float] = (0.05, 0.20),
) -> str:
    small_max, medium_max = thresholds
    if customers_served <= 0:
        raise ValueError("customers_served must be positive")
    if not 0.0 < small_max < medium_max < 1.0:
        raise ValueError(f"bad thresholds {thresholds}")
    ratio = customers_affected / customers_served
    if ratio <= small_max:
        return "Small"
    if ratio <= medium_max:
        return "Medium"
    return "Large"


def fit_transforms(train_events: Sequence[EventSeries], schema: FeatureSchema) -> TransformState:
    """Fit Z-normalization and label/mode maps on training revisions only.

    Population standard deviation; a degenerate (constant) feature gets
    std = 1. A feature with no observed value in any training revision is an
    error naming that feature.
    """
    if not train_events:
        raise ValueError("fit_transforms: empty training set")

    cont_values: dict[str, list[float]] = {name: [] for name in schema.continuous}
    cat_counts: dict[str, dict[int, int]] = {name: {} for name in schema.categorical}
    for event in train_events:
        for rev in event.revisions:
            for name, v in zip(schema.continuous, rev.continuous_values):
                if not is_missing_cont(v):
                    cont_values[name].append(v)
            for name, idx in zip(schema.categorical, rev.categorical_values):
                if idx != MISSING_CAT:
                    counts = cat_counts[name]
                    counts[idx] = counts.get(idx, 0) + 1

    cont_mean: dict[str, float] = {}
    cont_std: dict[str, float] = {}
    for name, values in cont_values.items():
        if not values:
            raise ValueError(f"feature {name!r} has no observed training values")
        arr = np.asarray(values, dtype=np.float64)
        cont_mean[name] = float(arr.mean())
        std = float(arr.std())  # population formula
        cont_std[name] = std if std > 0.0 else 1.0

    cat_maps: dict[str, dict[int, int]] = {}
    cat_modes: dict[str, int] = {}
    for name, counts in cat_counts.items():
        if not counts:
            raise ValueError(f"feature {name!r} has no observed training values")
        observed = sorted(counts)
        cat_maps[name] = {raw: dense for dense, raw in enumerate(observed)}
        # most frequent raw index; ties go to the smallest raw index
        mode_raw = max(observed, key=lambda raw: (counts[raw], -raw))
        cat_modes[name] = cat_maps[name][mode_raw]

    return TransformState(cont_mean, cont_std, cat_maps, cat_modes)


def apply_transforms(
    event: EventSeries, state: TransformState, schema: FeatureSchema
) -> EncodedEvent:
    """Encode one event: Z-normalize, impute, densify category indices.

    Missing continuous values impute to the mean (encoded 0.0); missing
    categorical values impute to the mode; unseen categories map to the
    reserved UNKNOWN index. The result never contains a missing marker.
    """
    validate_event(event, schema)
    m = len(event.revisions)
    cat_idx = np.zeros((m, schema.p), dtype=np.int64)
    cont = np.zeros((m, schema.q), dtype=np.float64)
    for j, rev in enumerate(event.revisions):
        for c, (name, raw) in enumerate(zip(schema.categorical, rev.categorical_values)):
            if raw == MISSING_CAT:
                cat_idx[j, c] = state.cat_modes[name]
            else:
                cat_idx[j, c] = state.cat_maps[name].get(raw, state.unknown_index(name))
        for c, (name, v) in enumerate(zip(schema.continuous, rev.continuous_values)):
            if is_missing_cont(v):
                cont[j, c] = 0.0
            else:
                cont[j, c] = (v - state.cont_mean[name]) / state.cont_std[name]
    deltas = np.asarray(compute_time_deltas(event), dtype=np.float64)
    return EncodedEvent(event.event_id, event.storm_id, cat_idx, cont, deltas, event.target_duration)


def stratified_split(
    storms: Sequence[StormRecord],
    ratios: tuple[float, float, float] = (0.7, 0.15, 0.15),
    seed: int = 0,
) -> DatasetSplit:
    """Magnitude-stratified storm split with a hard >=2 quota in val and test.

    Within each magnitude class, storm ids are shuffled by the seed, then
    validation and test each take max(2, round(ratio * n)) storms (capped so
    the quota stays satisfiable) and the remainder trains. Deterministic for
    a given seed.
    """
    if abs(sum(ratios) - 1.0) > 1e-9 or any(r < 0 for r in ratios):
        raise ValueError(f"ratios must be non-negative and sum to 1, got {ratios}")
    rng = np.random.default_rng(seed)
    train: list[str] = []
    val: list[str] = []
    test: list[str] = []
    for magnitude in MAGNITUDES:
        ids = sorted(s.storm_id for s in storms if s.magnitude == magnitude)
        n = len(ids)
        if n < 4:
            raise ValueError(
                f"need at least 4 {magnitude} storms for a stratified split, have {n}"
            )
        order = [ids[i] for i in rng.permutation(n)]
        want_val = min(max(2, round(ratios[1] * n)), n - 2)
        want_test = min(max(2, round(ratios[2] * n)), n - want_val)
        val.extend(order[:want_val])
        test.extend(order[want_val : want_val + want_test])
        train.extend(order[want_val + want_test :])
    return DatasetSplit(tuple(train), tuple(val), tuple(test))


def events_for_storms(
    storm_ids: Iterable[str], events: Sequence[EventSeries]
) -> list[EventSeries]:
    wanted = set(storm_ids)
    return [e for e in events if e.storm_id in wanted]
