"""Per-value reference implementations of the data path, kept as a test oracle.

These are the loops the columnar code in ``etrcast.data`` and
``etrcast.dataio`` replaced: one ``Revision`` object per revision, one
Python operation per feature value. Tests assert that the columnar path
gives bit-identical events, fitted statistics and encodings. The package
holds events only as an ``EventTable``; ``events_of`` and ``table_of``
convert between a table and the plain per-event types here, for tests that
build or read events by hand.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from etrcast.data import (
    MISSING_CAT,
    EventTable,
    FeatureSchema,
    TransformState,
    build_table,
)


@dataclass(frozen=True)
class Revision:
    """One timestamped snapshot: raw category indices (or MISSING_CAT), reals (or NaN)."""

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


def events_of(table: EventTable) -> tuple[EventSeries, ...]:
    """One EventSeries per event of ``table``, holding plain Python values."""
    cats, conts = map(tuple, table.cat.tolist()), map(tuple, table.cont.tolist())
    revisions = list(map(Revision, table.t.tolist(), cats, conts))
    bounds = table.offsets.tolist()
    return tuple(
        EventSeries(event_id, storm_id, tuple(revisions[lo:hi]), target)
        for event_id, storm_id, lo, hi, target in zip(
            table.event_ids, table.storm_ids, bounds, bounds[1:], table.targets.tolist()
        )
    )


def table_of(events: Sequence[EventSeries], schema: FeatureSchema) -> EventTable:
    """The events as one table, built and checked by ``build_table`` from records."""
    records = (
        (
            e.event_id,
            e.storm_id,
            e.target_duration,
            [r.timestamp for r in e.revisions],
            [r.categorical_values for r in e.revisions],
            [r.continuous_values for r in e.revisions],
        )
        for e in events
    )
    return build_table(records, schema)


class EncodedEvent(NamedTuple):
    """One encoded event: dense category indices, Z-scores and time deltas."""

    event_id: str
    storm_id: str
    cat_idx: np.ndarray  # [M, p] int64
    cont: np.ndarray  # [M, q] float64
    deltas: np.ndarray  # [M] float64
    target_duration: float


def _is_missing_cont(value: float) -> bool:
    return math.isnan(value)


def validate_event(event: EventSeries, schema: FeatureSchema) -> None:
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


def load_events(path: str, schema: FeatureSchema, categories) -> list[EventSeries]:
    """Every event of ``<path>/events.jsonl``, parsed one value at a time."""
    lookup = {name: {v: i for i, v in enumerate(vals)} for name, vals in categories.items()}
    events = []
    with open(os.path.join(path, "events.jsonl"), encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            revisions = []
            for rev in rec["revisions"]:
                cats = tuple(
                    MISSING_CAT if v is None else lookup[name][v]
                    for name, v in zip(schema.categorical, rev["cat"])
                )
                conts = tuple(float("nan") if v is None else float(v) for v in rev["cont"])
                revisions.append(Revision(rev["t"], cats, conts))
            event = EventSeries(
                rec["event_id"], rec["storm_id"], tuple(revisions), rec["target_duration"]
            )
            validate_event(event, schema)
            events.append(event)
    return events


def fit_transforms(train_events, schema: FeatureSchema) -> TransformState:
    if not train_events:
        raise ValueError("fit_transforms: empty training set")

    cont_values: dict[str, list[float]] = {name: [] for name in schema.continuous}
    cat_counts: dict[str, dict[int, int]] = {name: {} for name in schema.categorical}
    for event in train_events:
        for rev in event.revisions:
            for name, v in zip(schema.continuous, rev.continuous_values):
                if not _is_missing_cont(v):
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
        std = float(arr.std())
        cont_std[name] = std if std > 0.0 else 1.0

    cat_maps: dict[str, dict[int, int]] = {}
    cat_modes: dict[str, int] = {}
    for name, counts in cat_counts.items():
        if not counts:
            raise ValueError(f"feature {name!r} has no observed training values")
        observed = sorted(counts)
        cat_maps[name] = {raw: dense for dense, raw in enumerate(observed)}
        mode_raw = max(observed, key=lambda raw: (counts[raw], -raw))
        cat_modes[name] = cat_maps[name][mode_raw]

    return TransformState(cont_mean, cont_std, cat_maps, cat_modes)


def apply_transforms(
    event: EventSeries, state: TransformState, schema: FeatureSchema
) -> EncodedEvent:
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
            if _is_missing_cont(v):
                cont[j, c] = 0.0
            else:
                cont[j, c] = (v - state.cont_mean[name]) / state.cont_std[name]
    t0 = event.revisions[0].timestamp
    deltas = np.asarray([r.timestamp - t0 for r in event.revisions], dtype=np.float64)
    return EncodedEvent(event.event_id, event.storm_id, cat_idx, cont, deltas, event.target_duration)
