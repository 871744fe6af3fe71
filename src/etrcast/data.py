"""Domain types for outage events plus encoding, classification, and splitting.

An outage event is an ordered sequence of timestamped revisions; each revision
carries the same roster of categorical and continuous features described by a
:class:`FeatureSchema`. Storms group events and carry the customer counts that
determine their magnitude class.

A dataset is columns. An :class:`EventTable` holds every revision of every
event as one row of flat arrays (timestamps ``t [R]``, raw category indices
``cat [R, p]``, continuous values ``cont [R, q]``); event ``i`` owns rows
``offsets[i]:offsets[i + 1]``, and per-event arrays hold ids, storm ids and
targets. ``fit_transforms`` and ``encode_table`` are a few numpy operations
over all rows at once, and an :class:`EncodedTable` keeps the same layout with
dense indices, Z-scores and time deltas. The generator and the JSON loader
both build their table with :func:`build_table`, from
``(event_id, storm_id, target, t, cat, cont)`` records; a table read whole
from a dataset's ``events.bin`` sidecar (see ``etrcast.dataio``) skips the
records but passes the same all-row checks, :func:`check_table`. The
table is the only data model: no object holds one revision. An
:class:`EventRef` names one event of a table for the benchmark harness's
set-up, which still reads events one at a time; ``fit_transforms`` and
``training.encode_events`` turn a list of them into ``table.select`` once.
Fitted statistics live in an immutable :class:`TransformState`.

Missing values are represented as ``MISSING_CAT`` (-1) for categorical
indices and NaN for continuous values. Encoding removes both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import ClassVar, Collection, Iterable, Mapping, Sequence

import numpy as np

CATEGORICAL = "categorical"
CONTINUOUS = "continuous"
MAGNITUDES = ("Small", "Medium", "Large")

MISSING_CAT = -1


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


class EventError(ValueError):
    """A bad event; ``event`` is its position in the input."""

    def __init__(self, event: int, message: str):
        super().__init__(message)
        self.event = event


def _offsets(lengths: Sequence[int]) -> np.ndarray:
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def _array(values: Sequence, dtype: type, *shape: int) -> np.ndarray:
    """``values`` as an array [len(values), *shape]; ValueError for any other shape."""
    out = np.array(values, dtype=dtype) if len(values) else np.empty((0, *shape), dtype)
    if out.shape != (len(values), *shape):
        raise ValueError(f"expected values of shape {shape}, got {out.shape[1:]}")
    return out


@dataclass(frozen=True, eq=False)
class _Events:
    """Per-event columns of a table; subclasses name their per-row columns."""

    event_ids: tuple[str, ...]  # [E]
    storm_ids: tuple[str, ...]  # [E]
    targets: np.ndarray  # [E] float64 restoration durations, hours
    offsets: np.ndarray  # [E+1] int64: event i owns rows offsets[i]:offsets[i+1]

    ROW_COLUMNS: ClassVar[tuple[str, ...]] = ()

    def __len__(self) -> int:
        return len(self.event_ids)

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def select(self, idx):
        """The events at positions ``idx``, in that order, as a table of this type."""
        idx = np.asarray(idx, dtype=np.int64).reshape(-1)
        lengths = self.lengths[idx]
        offsets = _offsets(lengths)
        rows = np.arange(offsets[-1]) + np.repeat(self.offsets[idx] - offsets[:-1], lengths)
        picked = idx.tolist()
        return replace(
            self,
            event_ids=tuple(self.event_ids[i] for i in picked),
            storm_ids=tuple(self.storm_ids[i] for i in picked),
            targets=self.targets[idx],
            offsets=offsets,
            **{name: getattr(self, name)[rows] for name in self.ROW_COLUMNS},
        )


@dataclass(frozen=True, eq=False)
class EventTable(_Events):
    """Raw events as columns; missing values are ``MISSING_CAT`` and NaN."""

    t: np.ndarray  # [R] float64 timestamps, hours since a fixed epoch
    cat: np.ndarray  # [R, p] int64 raw category indices
    cont: np.ndarray  # [R, q] float64

    ROW_COLUMNS: ClassVar[tuple[str, ...]] = ("t", "cat", "cont")


class _Columns:
    """Events added one at a time, each converted to compact arrays on arrival."""

    def __init__(
        self,
        schema: FeatureSchema,
        vocabularies: Sequence[Mapping] | None,
        storms: Collection[str] | None,
    ):
        self.schema, self.vocabularies, self.storms = schema, vocabularies, storms
        self.event_ids: list = []
        self.storm_ids: list = []
        self.targets: list[float] = []
        self.lengths: list[int] = []
        self.t: list[np.ndarray] = []
        self.cat: list[int] = []  # flat, p codes per revision
        self.cont: list[np.ndarray] = []

    def add(self, event_id, storm_id, target, t: Sequence, cat: Sequence, cont: Sequence) -> None:
        """Append one event; ``t``, ``cat`` and ``cont`` hold one item per revision."""
        p, q = self.schema.p, self.schema.q
        if not isinstance(event_id, str) or not isinstance(storm_id, str):
            raise ValueError("event_id and storm_id must be strings")
        if set(map(len, cat)) - {p} or set(map(len, cont)) - {q}:
            j = next(j for j, (c, x) in enumerate(zip(cat, cont)) if (len(c), len(x)) != (p, q))
            raise ValueError(f"event {event_id} revision {j}: value lengths do not match schema")
        codes = itertools.chain.from_iterable(cat)
        if self.vocabularies is not None:  # each value through its own feature's vocabulary
            codes = map(dict.__getitem__, itertools.cycle(self.vocabularies), codes)
        codes = list(codes)
        goal = math.nan if target is None else float(target)
        times, values = _array(t, np.float64), _array(cont, np.float64, q)
        # every conversion succeeded: the event is added whole or not at all
        self.event_ids.append(event_id)
        self.storm_ids.append(storm_id)
        self.targets.append(goal)
        self.lengths.append(len(t))
        self.t.append(times)
        self.cat.extend(codes)
        self.cont.append(values)

    def table(self) -> EventTable:
        """The events added so far, after :func:`check_table`."""
        schema = self.schema
        table = EventTable(
            tuple(self.event_ids),
            tuple(self.storm_ids),
            np.array(self.targets, dtype=np.float64),
            _offsets(self.lengths),
            np.concatenate([np.empty(0), *self.t]),
            np.array(self.cat, dtype=np.int64).reshape(-1, schema.p),
            np.concatenate([np.empty((0, schema.q)), *self.cont]),
        )
        check_table(table, schema, self.storms)
        return table


def check_table(table: EventTable, schema: FeatureSchema, storms: Collection[str] | None) -> None:
    """The checks that need every row of a table, over all rows at once.

    Each event needs at least one revision, finite and strictly increasing
    timestamps, a finite non-negative target, category indices in range and,
    when ``storms`` is given, a storm id among them. Raises
    :class:`EventError` naming the first event that fails one.
    """
    ids, n, lengths = table.event_ids, len(table), table.lengths
    row_event = np.repeat(np.arange(n), lengths)
    targets, cat = table.targets, table.cat
    ok = np.isfinite(table.t)
    ok[1:] &= (row_event[1:] != row_event[:-1]) | (np.diff(table.t) > 0.0)
    checks = [
        (lengths == 0, "needs at least one revision"),
        (np.bincount(row_event, ~ok, n) > 0, "timestamps must be finite and strictly increase"),
        (~(targets >= 0.0) | ~np.isfinite(targets), "bad target_duration"),
    ]
    if storms is not None:
        unknown = np.array([s not in storms for s in table.storm_ids], dtype=bool)
        checks.append((unknown, "storm_id is not a storm of the manifest"))
    problems = []  # (event, message) of the first failure of each check
    for bad, why in checks:
        if bad.any():
            e = int(np.argmax(bad))
            problems.append((e, f"event {ids[e]}: {why}"))
    cards = np.array([schema.cardinalities[name] for name in schema.categorical])
    out_of_range = (cat != MISSING_CAT) & ((cat < 0) | (cat >= cards))
    if out_of_range.any():
        r, c = np.argwhere(out_of_range)[0]
        e = int(row_event[r])
        why = f"index {cat[r, c]} out of range for feature {schema.categorical[c]!r}"
        problems.append((e, f"event {ids[e]} revision {r - table.offsets[e]}: {why}"))
    if problems:
        raise EventError(*min(problems))


def build_table(
    records: Iterable[tuple],
    schema: FeatureSchema,
    vocabularies: Sequence[Mapping] | None = None,
    storms: Collection[str] | None = None,
) -> EventTable:
    """One EventTable from ``(event_id, storm_id, target, t, cat, cont)`` records.

    ``t``, ``cat`` and ``cont`` hold one item per revision. ``cat`` rows hold
    raw indices, or vocabulary values when ``vocabularies`` maps each
    categorical feature's values (``None`` for missing) to raw indices. Each
    record becomes compact arrays as it arrives; the checks that need every
    row (:func:`check_table`, with ``storms`` when given) run over all rows
    at the end. The :class:`EventError` raised names the first bad record,
    also when reading the records fails.
    """
    columns = _Columns(schema, vocabularies, storms)
    failure = None
    try:
        for record in records:
            columns.add(*record)
    except KeyError as exc:
        failure = EventError(len(columns.event_ids), f"unknown category value {exc.args[0]!r}")
    except (TypeError, ValueError) as exc:
        failure = EventError(len(columns.event_ids), str(exc))
    table = columns.table()
    if failure is not None:
        raise failure
    return table


# Kept only for perfbench/workloads.py, which reads Dataset.split_events(); it
# goes once a benchmark change moves that file to Dataset.split_tables().
@dataclass(frozen=True)
class EventRef:
    """Event ``index`` of ``table``, read-only: its revision rows and its target."""

    table: EventTable
    index: int

    @property
    def revisions(self) -> np.ndarray:
        """[M] the event's timestamps, one per revision."""
        lo, hi = self.table.offsets[self.index : self.index + 2]
        return self.table.t[lo:hi]

    @property
    def target_duration(self) -> float:
        return float(self.table.targets[self.index])


def as_event_table(events: EventTable | Sequence[EventRef]) -> EventTable:
    """``events`` as a table: a table as it is, references as a selection of theirs."""
    if isinstance(events, EventTable):
        return events
    tables = {id(e.table): e.table for e in events}
    if len(tables) != 1:
        raise ValueError("as_event_table: needs references into exactly one table")
    return tables.popitem()[1].select([e.index for e in events])


@dataclass(frozen=True, eq=False)
class EncodedTable(_Events):
    """Model-ready events as columns: dense indices, Z-scores and time deltas."""

    cat_idx: np.ndarray  # [R, p] int64, every index < fitted cardinality + 1
    cont: np.ndarray  # [R, q] float64 Z-scores
    deltas: np.ndarray  # [R] float64 hours since the event's first revision

    ROW_COLUMNS: ClassVar[tuple[str, ...]] = ("cat_idx", "cont", "deltas")


def check_split_ratios(ratios: tuple[float, float, float]) -> None:
    """Train, validation and test ratios need three non-negative values summing to 1."""
    if len(ratios) != 3 or not (abs(sum(ratios) - 1.0) <= 1e-9 and min(ratios) >= 0):
        raise ValueError(f"ratios must be three non-negative values summing to 1, got {ratios}")


def classify_storm(
    customers_affected: int,
    customers_served: int,
    thresholds: tuple[float, float] = (0.05, 0.20),
) -> str:
    small_max, medium_max = thresholds
    if customers_served <= 0:
        raise ValueError("customers_served must be positive")
    if not 0.0 < small_max < medium_max < 1.0:  # NaN fails too
        raise ValueError(f"bad thresholds {thresholds}")
    ratio = customers_affected / customers_served
    if ratio <= small_max:
        return "Small"
    if ratio <= medium_max:
        return "Medium"
    return "Large"


def fit_transforms(
    train_events: EventTable | Sequence[EventRef], schema: FeatureSchema
) -> TransformState:
    """Fit Z-normalization and label/mode maps on training revisions only.

    Population standard deviation; a degenerate (constant) feature gets
    std = 1. A feature with no observed value in any training revision is an
    error naming that feature.
    """
    if not len(train_events):
        raise ValueError("fit_transforms: empty training set")
    table = as_event_table(train_events)

    cont_mean: dict[str, float] = {}
    cont_std: dict[str, float] = {}
    for c, name in enumerate(schema.continuous):
        column = table.cont[:, c]
        values = column[~np.isnan(column)]  # a contiguous copy, summed in row order
        if not values.size:
            raise ValueError(f"feature {name!r} has no observed training values")
        cont_mean[name] = float(values.mean())
        std = float(values.std())  # population formula
        cont_std[name] = std if std > 0.0 else 1.0

    cat_maps: dict[str, dict[int, int]] = {}
    cat_modes: dict[str, int] = {}
    for c, name in enumerate(schema.categorical):
        column = table.cat[:, c]
        observed, counts = np.unique(column[column != MISSING_CAT], return_counts=True)
        if not observed.size:
            raise ValueError(f"feature {name!r} has no observed training values")
        cat_maps[name] = {raw: dense for dense, raw in enumerate(observed.tolist())}
        # most frequent raw index; argmax takes the first, so ties go to the smallest
        cat_modes[name] = int(np.argmax(counts))

    return TransformState(cont_mean, cont_std, cat_maps, cat_modes)


def encode_table(table: EventTable, state: TransformState, schema: FeatureSchema) -> EncodedTable:
    """Encode every row at once: Z-normalize, impute, densify category indices.

    Missing continuous values impute to the mean (encoded 0.0); missing
    categorical values impute to the mode; unseen categories map to the
    reserved UNKNOWN index. The result never contains a missing marker.
    """
    cat_idx = np.empty_like(table.cat)
    for c, name in enumerate(schema.categorical):
        mapping = state.cat_maps[name]
        # dense index by raw index; the extra last entry serves MISSING_CAT (-1)
        size = max(schema.cardinalities[name], max(mapping, default=-1) + 1)
        dense = np.full(size + 1, state.unknown_index(name), dtype=np.int64)
        dense[list(mapping)] = list(mapping.values())
        dense[-1] = state.cat_modes[name]
        cat_idx[:, c] = dense[table.cat[:, c]]
    mean = np.array([state.cont_mean[name] for name in schema.continuous])
    std = np.array([state.cont_std[name] for name in schema.continuous])
    cont = np.where(np.isnan(table.cont), 0.0, (table.cont - mean) / std)
    deltas = table.t - np.repeat(table.t[table.offsets[:-1]], table.lengths)
    return EncodedTable(
        table.event_ids, table.storm_ids, table.targets, table.offsets, cat_idx, cont, deltas
    )


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
    check_split_ratios(ratios)
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
