"""Dataset persistence: a manifest document plus one JSON-lines record file.

Layout of a dataset directory:

- ``manifest.json`` — format version, feature schema, category vocabularies,
  storm records, split assignment, generator config, and seed.
- ``events.jsonl`` — one event per line: event_id, storm_id, target_duration,
  and a revision table (timestamp, categorical strings, continuous values,
  ``null`` for missing). Field order follows the manifest's feature list.

Serialization is canonical (sorted keys, no whitespace) so identical inputs
produce identical bytes; ``dataset_fingerprint`` hashes the schema portion for
checkpoint compatibility checks.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from .data import (
    CATEGORICAL,
    MISSING_CAT,
    DatasetSplit,
    EventSeries,
    FeatureSchema,
    Revision,
    StormRecord,
    events_for_storms,
    is_missing_cont,
    validate_event,
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
    events: tuple[EventSeries, ...]
    generator_config: Mapping[str, Any] | None
    seed: int

    def storms_by_id(self) -> dict[str, StormRecord]:
        return {s.storm_id: s for s in self.storms}

    def split_events(self) -> dict[str, list[EventSeries]]:
        return {
            "train": events_for_storms(self.split.train, self.events),
            "validation": events_for_storms(self.split.validation, self.events),
            "test": events_for_storms(self.split.test, self.events),
        }

    def magnitude_of(self) -> dict[str, str]:
        """event_id -> storm magnitude, for stratified evaluation."""
        by_storm = {s.storm_id: s.magnitude for s in self.storms}
        return {e.event_id: by_storm[e.storm_id] for e in self.events}


def schema_document(schema: FeatureSchema, categories: Mapping[str, Sequence[str]]) -> dict:
    return {
        "features": [[name, kind] for name, kind in schema.features],
        "categories": {name: list(categories[name]) for name in schema.categorical},
    }


def dataset_fingerprint(schema: FeatureSchema, categories: Mapping[str, Sequence[str]]) -> str:
    doc = canonical_json(schema_document(schema, categories))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def _event_record(event: EventSeries, schema: FeatureSchema, categories) -> dict:
    revisions = []
    for rev in event.revisions:
        cats: list[str | None] = []
        for name, idx in zip(schema.categorical, rev.categorical_values):
            cats.append(None if idx == MISSING_CAT else categories[name][idx])
        conts = [None if is_missing_cont(v) else v for v in rev.continuous_values]
        revisions.append({"t": rev.timestamp, "cat": cats, "cont": conts})
    return {
        "event_id": event.event_id,
        "storm_id": event.storm_id,
        "target_duration": event.target_duration,
        "revisions": revisions,
    }


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
            for event in dataset.events:
                fh.write(canonical_json(_event_record(event, dataset.schema, dataset.categories)))
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


def _parse_event(line: str, schema: FeatureSchema, lookup) -> EventSeries:
    """One events.jsonl line as a validated event; ValueError says what is wrong."""
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON ({exc})") from None
    if not isinstance(rec, dict):
        raise ValueError("malformed JSON (expected an object)")
    try:
        rows = [(rev["t"], rev["cat"], rev["cont"]) for rev in rec["revisions"]]
        event_id, storm_id, target = rec["event_id"], rec["storm_id"], rec["target_duration"]
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r}") from None
    revisions = []
    for t, cat, cont in rows:
        try:
            cats = tuple(
                MISSING_CAT if v is None else lookup[name][v]
                for name, v in zip(schema.categorical, cat)
            )
        except KeyError as exc:
            raise ValueError(f"unknown category value {exc.args[0]!r}") from None
        conts = tuple(float("nan") if v is None else float(v) for v in cont)
        revisions.append(Revision(t, cats, conts))
    event = EventSeries(event_id, storm_id, tuple(revisions), target)
    validate_event(event, schema)
    return event


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
    lookup = {name: {v: i for i, v in enumerate(vals)} for name, vals in categories.items()}

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

    events: list[EventSeries] = []
    try:
        with open(events_path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    events.append(_parse_event(line, schema, lookup))
                except (TypeError, ValueError) as exc:  # TypeError: a field of the wrong type
                    raise ValueError(f"{events_path}:{line_no}: {exc}") from exc
    except OSError as exc:
        raise OSError(f"failed reading {events_path}: {exc}") from exc

    return Dataset(
        schema=schema,
        categories=categories,
        storms=storms,
        split=split,
        events=tuple(events),
        generator_config=manifest.get("generator_config"),
        seed=manifest.get("seed", 0),
    )


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
