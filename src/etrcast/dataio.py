"""Dataset persistence: a manifest document plus one JSON-lines record file.

Layout of a dataset directory:

- ``manifest.json`` — format version, feature schema, category vocabularies,
  storm records, split assignment, generator config, and seed.
- ``events.jsonl`` — one event per line: event_id, storm_id, target_duration,
  and a revision table (timestamp, categorical strings, continuous values,
  ``null`` for missing). Field order follows the manifest's feature list.

Serialization is canonical (sorted keys, no whitespace) so identical inputs
produce identical bytes; ``dataset_fingerprint`` hashes the schema portion for
checkpoint compatibility checks. ``load_dataset`` reads ``events.jsonl`` in
one pass into an ``EventTable`` (see ``etrcast.data``), and a bad event ends
the load with ``<path>:<line>`` of the first bad event in the file.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from .data import (
    CATEGORICAL,
    MISSING_CAT,
    DatasetSplit,
    EventError,
    EventSeries,
    EventTable,
    FeatureSchema,
    StormRecord,
    build_table,
)

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
EVENTS_NAME = "events.jsonl"


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


@dataclass(frozen=True)
class Dataset:
    """A fully loaded dataset: schema, vocabularies, storms, split, events."""

    schema: FeatureSchema
    categories: Mapping[str, tuple[str, ...]]  # feature -> raw index order
    storms: tuple[StormRecord, ...]
    split: DatasetSplit
    table: EventTable
    generator_config: Mapping[str, Any] | None
    seed: int

    @cached_property
    def events(self) -> tuple[EventSeries, ...]:
        """The events as objects, built from the table on first use."""
        return self.table.to_events()

    def storms_by_id(self) -> dict[str, StormRecord]:
        return {s.storm_id: s for s in self.storms}

    def _split_positions(self) -> dict[str, list[int]]:
        """Positions of each split's events, in dataset order."""
        out = {}
        for name in ("train", "validation", "test"):
            wanted = set(getattr(self.split, name))
            out[name] = [i for i, s in enumerate(self.table.storm_ids) if s in wanted]
        return out

    def split_tables(self) -> dict[str, EventTable]:
        return {name: self.table.select(idx) for name, idx in self._split_positions().items()}

    def split_events(self) -> dict[str, list[EventSeries]]:
        events = self.events
        return {name: [events[i] for i in idx] for name, idx in self._split_positions().items()}

    def magnitude_of(self) -> dict[str, str]:
        """event_id -> storm magnitude, for stratified evaluation."""
        by_storm = {s.storm_id: s.magnitude for s in self.storms}
        return {e: by_storm[s] for e, s in zip(self.table.event_ids, self.table.storm_ids)}


def schema_document(schema: FeatureSchema, categories: Mapping[str, Sequence[str]]) -> dict:
    return {
        "features": [[name, kind] for name, kind in schema.features],
        "categories": {name: list(categories[name]) for name in schema.categorical},
    }


def dataset_fingerprint(schema: FeatureSchema, categories: Mapping[str, Sequence[str]]) -> str:
    doc = canonical_json(schema_document(schema, categories))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def _event_lines(dataset: Dataset) -> Iterator[str]:
    """One canonical JSON line per event, read from the table's columns."""
    table, schema = dataset.table, dataset.schema
    # vocabulary value by raw index; MISSING_CAT (-1) reads the trailing None
    vocab = [np.array([*dataset.categories[n], None], dtype=object) for n in schema.categorical]
    cats = np.stack([v[table.cat[:, c]] for c, v in enumerate(vocab)], axis=1)
    missing = np.isnan(table.cont)
    bounds = table.offsets.tolist()
    for event_id, storm_id, target, lo, hi in zip(
        table.event_ids, table.storm_ids, table.targets.tolist(), bounds, bounds[1:]
    ):
        conts = table.cont[lo:hi].astype(object)  # one event at a time keeps memory flat
        conts[missing[lo:hi]] = None
        rows = zip(table.t[lo:hi].tolist(), cats[lo:hi].tolist(), conts.tolist())
        record = {
            "event_id": event_id,
            "storm_id": storm_id,
            "target_duration": target,
            "revisions": [{"t": t, "cat": cat, "cont": cont} for t, cat, cont in rows],
        }
        yield canonical_json(record)


def save_dataset(dataset: Dataset, out_dir: str) -> dict[str, str]:
    """Write manifest.json and events.jsonl; returns {name: path}."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "format_version": FORMAT_VERSION,
        "schema": schema_document(dataset.schema, dataset.categories),
        "storms": [
            {
                "storm_id": s.storm_id,
                "customers_affected": s.customers_affected,
                "customers_served": s.customers_served,
                "magnitude": s.magnitude,
                "event_ids": list(s.event_ids),
            }
            for s in dataset.storms
        ],
        "split": {
            "train": list(dataset.split.train),
            "validation": list(dataset.split.validation),
            "test": list(dataset.split.test),
        },
        "generator_config": dict(dataset.generator_config)
        if dataset.generator_config is not None
        else None,
        "seed": dataset.seed,
    }
    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    events_path = os.path.join(out_dir, EVENTS_NAME)
    try:
        with open(manifest_path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(manifest))
            fh.write("\n")
        with open(events_path, "w", encoding="utf-8") as fh:
            for line in _event_lines(dataset):
                fh.write(line)
                fh.write("\n")
    except OSError as exc:
        raise OSError(f"failed writing dataset under {out_dir}: {exc}") from exc
    return {"manifest": manifest_path, "events": events_path}


def _parse_schema(doc: dict) -> tuple[FeatureSchema, dict[str, tuple[str, ...]]]:
    features = tuple((name, kind) for name, kind in doc["features"])
    categories = {name: tuple(vals) for name, vals in doc["categories"].items()}
    cardinalities = {name: len(vals) for name, vals in categories.items()}
    schema = FeatureSchema(features, cardinalities)
    for name, _ in features:
        if _ == CATEGORICAL and name not in categories:
            raise ValueError(f"manifest lacks a vocabulary for categorical feature {name!r}")
    return schema, categories


_REVISION_FIELDS = operator.itemgetter("t", "cat", "cont")


def _parse_line(line: str) -> tuple:
    """One events.jsonl line as (event_id, storm_id, target, t, cat, cont)."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON ({exc})") from None
    if not isinstance(rec, dict):
        raise ValueError("malformed JSON (expected an object)")
    try:
        rows = list(map(_REVISION_FIELDS, rec["revisions"]))
        t, cat, cont = zip(*rows) if rows else ((), (), ())
        return rec["event_id"], rec["storm_id"], rec["target_duration"], t, cat, cont
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r}") from None


def _records(path: str, lines: list[int]) -> Iterator[tuple]:
    """The parsed non-blank lines of an events.jsonl file; notes each one's number."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                lines.append(line_no)
                yield _parse_line(line)


def _read_events(path: str, schema: FeatureSchema, categories) -> EventTable:
    """Every event of an events.jsonl file, in one pass.

    A bad event raises ValueError naming ``<path>:<line>`` of the first bad
    event in the file.
    """
    vocabularies = [
        {None: MISSING_CAT, **{v: i for i, v in enumerate(categories[name])}}
        for name in schema.categorical
    ]
    lines: list[int] = []
    try:
        return build_table(_records(path, lines), schema, vocabularies)
    except EventError as exc:
        raise ValueError(f"{path}:{lines[exc.event]}: {exc}") from exc
    except OSError as exc:
        raise OSError(f"failed reading {path}: {exc}") from exc


def load_dataset(path: str) -> Dataset:
    """Load a dataset directory (or a manifest path) and validate every event."""
    if os.path.isdir(path):
        manifest_path = os.path.join(path, MANIFEST_NAME)
        events_path = os.path.join(path, EVENTS_NAME)
    else:
        manifest_path = path
        events_path = os.path.join(os.path.dirname(path), EVENTS_NAME)
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise OSError(f"failed reading {manifest_path}: {exc}") from exc
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"{manifest_path}: unsupported format_version {manifest.get('format_version')!r}"
        )
    schema, categories = _parse_schema(manifest["schema"])

    storms = tuple(
        StormRecord(
            storm_id=s["storm_id"],
            customers_affected=s["customers_affected"],
            customers_served=s["customers_served"],
            magnitude=s["magnitude"],
            event_ids=tuple(s["event_ids"]),
        )
        for s in manifest["storms"]
    )
    split = DatasetSplit(
        tuple(manifest["split"]["train"]),
        tuple(manifest["split"]["validation"]),
        tuple(manifest["split"]["test"]),
    )

    return Dataset(
        schema=schema,
        categories=categories,
        storms=storms,
        split=split,
        table=_read_events(events_path, schema, categories),
        generator_config=manifest.get("generator_config"),
        seed=manifest.get("seed", 0),
    )


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
