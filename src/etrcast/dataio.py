"""Dataset persistence: a manifest document, one JSON-lines record file and its sidecar.

Layout of a dataset directory:

- ``manifest.json`` — format version, feature schema, category vocabularies,
  storm records, split assignment, generator config, and seed.
- ``events.jsonl`` — one event per line: event_id, storm_id, target_duration,
  and a revision table (timestamp, categorical strings, continuous values,
  ``null`` for missing). Field order follows the manifest's feature list.
  It is the interchange format and the source of truth.
- ``events.bin`` — a columnar sidecar that ``save_dataset`` writes next to
  ``events.jsonl``: the ``EventTable`` columns (``t``, ``cat``, ``cont``,
  ``targets``, ``offsets``) as raw little-endian arrays in the container
  layout checkpoints use. Its header records the sha256 of ``events.jsonl``
  (hashed from the lines as they were written), the ``dataset_fingerprint``
  under whose vocabularies the raw category indices hold, the event and
  storm ids, each column's name, dtype and shape, and a sha256 of the ids,
  column specs and column bytes.

Serialization is canonical (sorted keys, no whitespace) so identical inputs
produce identical bytes; ``dataset_fingerprint`` hashes the schema portion for
checkpoint compatibility checks. ``load_dataset`` hashes ``events.jsonl`` and
reads the sidecar only when its recorded hash and fingerprint match the files
on disk; it then runs the same all-row checks as the JSON path
(``data.check_table``). A damaged current sidecar (truncated, trailing bytes,
a wrong dtype or shape, a bad magic, header or content digest, or a failed
check) ends the load with ``<dir>/events.bin: ...``. Without a sidecar, or
with a stale one (``events.jsonl`` or the vocabularies edited since it was
written), the load reads ``events.jsonl`` in one pass into an ``EventTable``
(see ``etrcast.data``), and a bad event ends it with ``<path>:<line>`` of
the first bad event in the file.

In memory a ``Dataset`` holds its events only as that table; commands read
each split with ``Dataset.split_tables``. ``Dataset.split_events`` gives the
same splits as ``data.EventRef`` references into the table, for the
benchmark harness's set-up, which has not moved to tables yet.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import json
import operator
import os
import struct
from dataclasses import asdict, dataclass, field
from typing import IO, Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .data import (
    CATEGORICAL,
    MISSING_CAT,
    DatasetSplit,
    EventError,
    EventRef,
    EventTable,
    FeatureSchema,
    StormRecord,
    build_table,
    check_table,
)

FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
EVENTS_NAME = "events.jsonl"
SIDECAR_NAME = "events.bin"
SIDECAR_MAGIC = b"ETRCEVT1"
SIDECAR_VERSION = 1


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


# -- container -----------------------------------------------------------------
#
# Checkpoints and the events.bin sidecar share one layout: magic, the header's
# byte length as a little-endian uint64, a canonical-JSON header, then raw
# little-endian arrays in C order. It embeds no timestamp, so equal inputs give
# equal bytes. Readers bound every length by the bytes left in the file.


def write_container(path: str, magic: bytes, header: Any, arrays: Iterable[np.ndarray]) -> str:
    """Write a container file; returns the sha256 of the bytes written.

    The header is serialised in pieces of a few KB (``_json_pieces``), once
    to count its bytes and once to write them, so no copy of a long id list
    is held. Each array is written and hashed from its own buffer, copied
    only when it is not contiguous little-endian already.
    """
    length = sum(map(len, _json_pieces(header)))  # canonical JSON is ASCII: a byte a character
    pieces = (piece.encode("ascii") for piece in _json_pieces(header))
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in itertools.chain((magic, struct.pack("<Q", length)), pieces):
            fh.write(chunk)
            digest.update(chunk)
        for array in arrays:
            contiguous = np.ascontiguousarray(array, dtype=array.dtype.newbyteorder("<"))
            data = memoryview(contiguous.reshape(-1).view(np.uint8))
            fh.write(data)
            digest.update(data)
    return digest.hexdigest()


_JSON_BLOCK = 256  # items of a long tuple serialised per piece: a few KB of ids


def _json_pieces(value: Any) -> Iterator[str]:
    """``canonical_json(value)`` in pieces.

    A dict with str keys goes a member at a time, and a tuple of more than
    ``_JSON_BLOCK`` items a block of items at a time.
    """
    if isinstance(value, dict) and value and all(type(key) is str for key in value):
        for i, key in enumerate(sorted(value)):
            yield ("," if i else "{") + canonical_json(key) + ":"
            yield from _json_pieces(value[key])
        yield "}"
    elif isinstance(value, tuple) and len(value) > _JSON_BLOCK:
        yield "["
        for lo in range(0, len(value), _JSON_BLOCK):
            yield ("," if lo else "") + canonical_json(value[lo : lo + _JSON_BLOCK])[1:-1]
        yield "]"
    else:
        yield canonical_json(value)


def _bytes_left(fh: IO[bytes]) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def read_header(fh: IO[bytes], path: str, magic: bytes, kind: str) -> Any:
    """The header of an open container file, after its magic."""
    if fh.read(len(magic)) != magic:
        raise ValueError(f"{path}: not a {kind} file")
    raw_len = fh.read(8)
    if len(raw_len) != 8:
        raise ValueError(f"{path}: truncated header")
    (length,) = struct.unpack("<Q", raw_len)
    if length > _bytes_left(fh):
        raise ValueError(f"{path}: truncated header")
    try:
        return json.loads(fh.read(length).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON or nested too deep
        raise ValueError(f"{path}: malformed {kind} header ({exc})") from exc


def read_array(fh: IO[bytes], path: str, dtype: str, shape: Sequence[int], what: str) -> np.ndarray:
    """The next array of a container file: little-endian ``dtype`` of ``shape``."""
    if np.dtype(dtype).itemsize * math.prod(shape) > _bytes_left(fh):
        raise ValueError(f"{path}: truncated {what}")
    array = np.empty(shape, dtype=dtype)
    fh.readinto(array.reshape(-1).view(np.uint8))
    return array


def check_end(fh: IO[bytes], path: str, what: str) -> None:
    if fh.read(1):
        raise ValueError(f"{path}: trailing bytes after the last {what}")


@dataclass(frozen=True)
class Dataset:
    """A fully loaded dataset: schema, vocabularies, storms, split, events.

    ``files`` maps the path of each file the dataset was saved to, or loaded
    from (``manifest.json`` and ``events.jsonl``), to its sha256; it is empty
    for a dataset built in memory.
    """

    schema: FeatureSchema
    categories: Mapping[str, tuple[str, ...]]  # feature -> raw index order
    storms: tuple[StormRecord, ...]
    split: DatasetSplit
    table: EventTable
    generator_config: Mapping[str, Any] | None
    seed: int
    files: Mapping[str, str] = field(default_factory=dict)

    def _split_positions(self) -> dict[str, list[int]]:
        """Positions of each split's events, in dataset order."""
        out = {}
        for name in ("train", "validation", "test"):
            wanted = set(getattr(self.split, name))
            out[name] = [i for i, s in enumerate(self.table.storm_ids) if s in wanted]
        return out

    def split_tables(self) -> dict[str, EventTable]:
        return {name: self.table.select(idx) for name, idx in self._split_positions().items()}

    def split_events(self) -> dict[str, list[EventRef]]:
        """Each split's events as references into ``table`` (see ``data.EventRef``)."""
        positions = self._split_positions()
        return {name: [EventRef(self.table, i) for i in idx] for name, idx in positions.items()}

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
    # every feature's vocabulary in one array, each led by None: feature c's raw
    # index i reads vocab[i + shift[c]], so MISSING_CAT (-1) reads its None
    blocks = [[None, *dataset.categories[n]] for n in schema.categorical]
    vocab = np.array([v for block in blocks for v in block], dtype=object)
    shift = np.cumsum([1] + [len(block) for block in blocks[:-1]])
    # one event at a time keeps memory flat: no per-row or per-event list up front
    offsets = table.offsets
    for i, (event_id, storm_id) in enumerate(zip(table.event_ids, table.storm_ids)):
        lo, hi, target = int(offsets[i]), int(offsets[i + 1]), float(table.targets[i])
        cats = vocab[table.cat[lo:hi] + shift]
        conts = table.cont[lo:hi].astype(object)
        conts[np.isnan(table.cont[lo:hi])] = None
        rows = zip(table.t[lo:hi].tolist(), cats.tolist(), conts.tolist())
        record = {
            "event_id": event_id,
            "storm_id": storm_id,
            "target_duration": target,
            "revisions": [{"t": t, "cat": cat, "cont": cont} for t, cat, cont in rows],
        }
        yield canonical_json(record)


def _column_specs(n_events: int, n_rows: int, schema: FeatureSchema) -> list[dict]:
    """Name, dtype and shape of each sidecar column, in file order."""
    return [
        {"name": "t", "dtype": "<f8", "shape": [n_rows]},
        {"name": "cat", "dtype": "<i8", "shape": [n_rows, schema.p]},
        {"name": "cont", "dtype": "<f8", "shape": [n_rows, schema.q]},
        {"name": "targets", "dtype": "<f8", "shape": [n_events]},
        {"name": "offsets", "dtype": "<i8", "shape": [n_events + 1]},
    ]


def _content_sha256(content_json: Iterable[str], columns: Iterable[np.ndarray]) -> str:
    """sha256 of a sidecar's ids and column specs as canonical JSON (in pieces), then its column bytes."""
    digest = hashlib.sha256()
    for piece in content_json:
        digest.update(piece.encode("ascii"))
    for column in columns:
        digest.update(column)
    return digest.hexdigest()


def _write_sidecar(path: str, dataset: Dataset, events_sha256: str) -> str:
    """Write the table's columns to ``path``; returns the file's sha256.

    The ids are serialised from the table's own tuples a block at a time,
    for the content hash and for the header, so the write holds no copy of
    them.
    """
    table, schema = dataset.table, dataset.schema
    specs = _column_specs(len(table), len(table.t), schema)
    columns = [np.ascontiguousarray(getattr(table, s["name"]), dtype=s["dtype"]) for s in specs]
    content = {
        "event_ids": table.event_ids,
        "storm_ids": table.storm_ids,
        "columns": specs,
    }
    header = {
        "format_version": SIDECAR_VERSION,
        "events_sha256": events_sha256,
        "dataset_fingerprint": dataset_fingerprint(schema, dataset.categories),
        **content,
        "content_sha256": _content_sha256(_json_pieces(content), columns),
    }
    return write_container(path, SIDECAR_MAGIC, header, columns)


def save_dataset(dataset: Dataset, out_dir: str) -> dict[str, str]:
    """Write manifest.json, events.jsonl and its events.bin sidecar.

    Returns the sha256 of each file written, by path.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "format_version": FORMAT_VERSION,
        "schema": schema_document(dataset.schema, dataset.categories),
        "storms": [asdict(s) for s in dataset.storms],  # tuples serialize as lists
        "split": asdict(dataset.split),
        "generator_config": dict(dataset.generator_config)
        if dataset.generator_config is not None
        else None,
        "seed": dataset.seed,
    }
    manifest_path, events_path, sidecar_path = (
        os.path.join(out_dir, name) for name in (MANIFEST_NAME, EVENTS_NAME, SIDECAR_NAME)
    )
    files = {}
    try:
        manifest_bytes = (canonical_json(manifest) + "\n").encode("utf-8")
        with open(manifest_path, "wb") as fh:
            fh.write(manifest_bytes)
        files[manifest_path] = hashlib.sha256(manifest_bytes).hexdigest()
        digest = hashlib.sha256()
        with open(events_path, "wb") as fh:
            for line in _event_lines(dataset):
                data = (line + "\n").encode("utf-8")
                fh.write(data)
                digest.update(data)
        files[events_path] = digest.hexdigest()
        files[sidecar_path] = _write_sidecar(sidecar_path, dataset, files[events_path])
    except OSError as exc:
        raise OSError(f"failed writing dataset under {out_dir}: {exc}") from exc
    return files


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


def _parse_line(line: bytes) -> tuple:
    """One events.jsonl line as (event_id, storm_id, target, t, cat, cont)."""
    try:
        rec = json.loads(line.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"not UTF-8 ({exc})") from None
    except (json.JSONDecodeError, RecursionError) as exc:
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
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            if line.strip():
                lines.append(line_no)
                yield _parse_line(line)


def _read_events(path: str, schema: FeatureSchema, categories, storms) -> EventTable:
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
        return build_table(_records(path, lines), schema, vocabularies, storms)
    except EventError as exc:
        raise ValueError(f"{path}:{lines[exc.event]}: {exc}") from exc
    except OSError as exc:
        raise OSError(f"failed reading {path}: {exc}") from exc


def _read_sidecar(
    path: str, schema: FeatureSchema, keys: dict[str, Any], storms
) -> EventTable | None:
    """The table in an events.bin sidecar; None when there is none or it is stale.

    The sidecar is stale when its recorded ``keys`` (format version, sha256 of
    events.jsonl, dataset fingerprint) differ from ``keys``. A current one is
    read in full and checked as the JSON path checks its events; any damage
    raises ValueError naming ``path``.
    """
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return None
    with fh:
        header = read_header(fh, path, SIDECAR_MAGIC, "sidecar")
        if not isinstance(header, dict):
            raise ValueError(f"{path}: malformed sidecar header (expected an object)")
        if any(header.get(key) != value for key, value in keys.items()):
            return None
        try:
            content = {name: header[name] for name in ("event_ids", "storm_ids", "columns")}
            content_json = canonical_json(content)
            event_ids, storm_ids = tuple(content["event_ids"]), tuple(content["storm_ids"])
            n_rows = content["columns"][0]["shape"][0]
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed sidecar header ({exc!r})") from exc
        if len(storm_ids) != len(event_ids) or set(map(type, event_ids + storm_ids)) - {str}:
            raise ValueError(f"{path}: malformed sidecar header (event or storm ids)")
        if type(n_rows) is not int or n_rows < 0:
            raise ValueError(f"{path}: malformed sidecar header (row count {n_rows!r})")
        specs = _column_specs(len(event_ids), n_rows, schema)
        if content["columns"] != specs:
            raise ValueError(f"{path}: columns {content['columns']} do not match {specs}")
        columns = {
            s["name"]: read_array(fh, path, s["dtype"], s["shape"], f"column {s['name']}")
            for s in specs
        }
        check_end(fh, path, "column")
    if _content_sha256((content_json,), columns.values()) != header.get("content_sha256"):
        raise ValueError(f"{path}: content does not match its recorded content_sha256")
    offsets = columns.pop("offsets")
    if offsets[0] != 0 or offsets[-1] != n_rows or np.any(np.diff(offsets) < 0):
        raise ValueError(f"{path}: offsets do not run from 0 to the row count")
    table = EventTable(event_ids, storm_ids, offsets=offsets, **columns)
    try:
        check_table(table, schema, storms)
    except EventError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return table


def load_dataset(directory: str) -> Dataset:
    """Load a dataset directory and validate every event.

    The split must assign every storm of the manifest, and only those. The
    events come from the events.bin sidecar when it is current (see
    ``_read_sidecar``), otherwise from events.jsonl.
    """
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    events_path = os.path.join(directory, EVENTS_NAME)
    try:
        with open(manifest_path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise OSError(f"failed reading {manifest_path}: {exc}") from exc
    try:
        manifest = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON or nested too deep
        raise ValueError(f"{manifest_path}: malformed manifest ({exc})") from exc
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != FORMAT_VERSION:
        raise ValueError(f"{manifest_path}: unsupported format_version {version!r}")
    try:
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
        storm_ids = {s.storm_id for s in storms}
        split = DatasetSplit(
            tuple(manifest["split"]["train"]),
            tuple(manifest["split"]["validation"]),
            tuple(manifest["split"]["test"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{manifest_path}: malformed manifest ({exc!r})") from exc
    stray = sorted(storm_ids ^ {*split.train, *split.validation, *split.test})
    if stray:  # the split must be a partition of the storms
        why = "in no split" if stray[0] in storm_ids else "in the split but not among the storms"
        raise ValueError(f"{manifest_path}: storm {stray[0]!r} is {why}")

    try:
        events_sha256 = file_sha256(events_path)
    except OSError as exc:
        raise OSError(f"failed reading {events_path}: {exc}") from exc
    keys = {
        "format_version": SIDECAR_VERSION,
        "events_sha256": events_sha256,
        "dataset_fingerprint": dataset_fingerprint(schema, categories),
    }
    table = _read_sidecar(os.path.join(directory, SIDECAR_NAME), schema, keys, storm_ids)
    if table is None:
        table = _read_events(events_path, schema, categories, storm_ids)
    return Dataset(
        schema=schema,
        categories=categories,
        storms=storms,
        split=split,
        table=table,
        generator_config=manifest.get("generator_config"),
        seed=manifest.get("seed", 0),
        files={manifest_path: hashlib.sha256(raw).hexdigest(), events_path: events_sha256},
    )


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
