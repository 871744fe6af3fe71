import json
import math
import shutil

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import _reference_data as reference
from etrcast import dataio
from etrcast.dataio import load_dataset
from etrcast.synth import GeneratorConfig, generate_dataset
from etrcast.training import encode_events
from etrcast.data import (
    MISSING_CAT,
    DatasetSplit,
    EventError,
    EventTable,
    FeatureSchema,
    StormRecord,
    classify_storm,
    encode_table,
    fit_transforms,
    stratified_split,
)

SCHEMA = FeatureSchema(
    features=(("color", "categorical"), ("load", "continuous")),
    cardinalities={"color": 4},
)


def ev(event_id, stamps, cats, conts, storm="s1", target=5.0):
    revs = tuple(
        reference.Revision(t, (c,), (x,)) for t, c, x in zip(stamps, cats, conts)
    )
    return reference.EventSeries(event_id, storm, revs, target)


def as_table(events):
    """``events`` as one table, checked as ``build_table`` checks records."""
    return reference.table_of(events, SCHEMA)


def encode(events, state=None):
    """``events`` encoded as one table, with ``state`` or transforms fitted on them."""
    joined = as_table(events)
    return encode_table(joined, fit_transforms(joined, SCHEMA) if state is None else state, SCHEMA)


def storm(sid, affected, served, magnitude, n_events=0):
    return StormRecord(sid, affected, served, magnitude, tuple(f"{sid}-e{i}" for i in range(n_events)))


class TestTimeDeltas:
    def test_example(self):
        e = ev("a", [10.0, 12.5, 16.0], [0, 1, 2], [1.0, 2.0, 3.0])
        assert encode([e]).deltas.tolist() == [0.0, 2.5, 6.0]

    def test_single_revision(self):
        e = ev("a", [99.0], [0], [1.0])
        assert encode([e]).deltas.tolist() == [0.0]

    def test_translation_invariance(self):
        stamps = [3.0, 7.25, 11.5]
        base = encode([ev("a", stamps, [0, 0, 0], [0.0, 0.0, 0.0])]).deltas.tolist()
        shifted = encode(
            [ev("a", [t + 1e6 for t in stamps], [0, 0, 0], [0.0, 0.0, 0.0])]
        ).deltas.tolist()
        assert base == shifted

    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError):
            as_table([ev("a", [5.0, 5.0], [0, 0], [1.0, 1.0])])


class TestClassify:
    def test_boundaries(self):
        assert classify_storm(5, 100) == "Small"
        assert classify_storm(6, 100) == "Medium"
        assert classify_storm(20, 100) == "Medium"
        assert classify_storm(21, 100) == "Large"

    def test_zero_affected(self):
        assert classify_storm(0, 1000) == "Small"

    def test_bad_served(self):
        with pytest.raises(ValueError):
            classify_storm(1, 0)
        with pytest.raises(ValueError):
            classify_storm(1, -5)

    def test_custom_thresholds(self):
        assert classify_storm(30, 100, thresholds=(0.5, 0.8)) == "Small"


class TestFitTransforms:
    def test_mean_std_population(self):
        events = [
            ev("a", [0.0, 1.0], [0, 1], [2.0, 4.0]),
        ]
        state = fit_transforms(as_table(events), SCHEMA)
        assert state.cont_mean["load"] == 3.0
        assert state.cont_std["load"] == 1.0  # population std of [2, 4]

    def test_degenerate_std_becomes_one(self):
        events = [ev("a", [0.0, 1.0, 2.0], [0, 0, 0], [5.0, 5.0, 5.0])]
        state = fit_transforms(as_table(events), SCHEMA)
        assert state.cont_std["load"] == 1.0
        enc = encode(events[:1], state)
        np.testing.assert_array_equal(enc.cont[:, 0], 0.0)

    def test_missing_excluded_from_stats(self):
        events = [ev("a", [0.0, 1.0, 2.0], [0, 0, 1], [2.0, math.nan, 4.0])]
        state = fit_transforms(as_table(events), SCHEMA)
        assert state.cont_mean["load"] == 3.0

    def test_all_missing_feature_named_in_error(self):
        events = [ev("a", [0.0, 1.0], [MISSING_CAT, MISSING_CAT], [1.0, 2.0])]
        with pytest.raises(ValueError, match="color"):
            fit_transforms(as_table(events), SCHEMA)

    def test_mode_most_frequent_tie_to_smallest(self):
        events = [
            ev("a", [0.0, 1.0, 2.0, 3.0], [2, 2, 1, 1], [0.0, 0.0, 0.0, 0.0]),
        ]
        state = fit_transforms(as_table(events), SCHEMA)
        dense_mode = state.cat_modes["color"]
        # raw 1 and raw 2 tie at two observations each; smallest raw wins
        assert state.cat_maps["color"][1] == dense_mode

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            fit_transforms([], SCHEMA)


class TestApplyTransforms:
    def setup_method(self):
        self.events = [
            ev("a", [0.0, 1.0], [0, 1], [2.0, 4.0]),
            ev("b", [0.0, 2.0], [1, 1], [6.0, 8.0]),
        ]
        self.state = fit_transforms(as_table(self.events), SCHEMA)

    def test_zscore(self):
        enc = encode(self.events[:1], self.state)
        mean, std = self.state.cont_mean["load"], self.state.cont_std["load"]
        np.testing.assert_allclose(enc.cont[:, 0], (np.array([2.0, 4.0]) - mean) / std)

    def test_train_zscore_mean_near_zero(self):
        pooled = encode(self.events, self.state).cont[:, 0]
        assert abs(pooled.mean()) < 1e-9

    def test_missing_cont_imputes_to_zero(self):
        e = ev("c", [0.0], [0], [math.nan])
        enc = encode([e], self.state)
        assert enc.cont[0, 0] == 0.0

    def test_missing_cat_imputes_to_mode(self):
        e = ev("c", [0.0], [MISSING_CAT], [2.0])
        enc = encode([e], self.state)
        assert enc.cat_idx[0, 0] == self.state.cat_modes["color"]

    def test_unseen_category_maps_to_unknown(self):
        e = ev("c", [0.0], [3], [2.0])  # raw 3 never observed in training
        enc = encode([e], self.state)
        assert enc.cat_idx[0, 0] == self.state.unknown_index("color")

    def test_deltas_and_target_copied(self):
        enc = encode(self.events[1:], self.state)
        np.testing.assert_array_equal(enc.deltas, [0.0, 2.0])
        assert enc.targets.tolist() == [5.0]


class TestColumnarMatchesReference:
    """Loading, fitting and encoding as columns is bit-identical to the per-value oracle."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        out = str(tmp_path_factory.mktemp("columnar") / "data")
        cfg = GeneratorConfig(seed=5, storms_per_class=5, events_per_storm=(5, 8), missing_rate=0.2)
        generate_dataset(cfg, out)
        return out

    def test_load_matches(self, saved):
        ds = load_dataset(saved)
        expected = reference.load_events(saved, ds.schema, ds.categories)
        assert (ds.table.cat == MISSING_CAT).any() and np.isnan(ds.table.cont).any()
        events = reference.events_of(ds.table)
        assert len(events) == len(expected)
        for got, want in zip(events, expected):
            assert (got.event_id, got.storm_id) == (want.event_id, want.storm_id)
            assert got.target_duration == want.target_duration
            for a, b in zip(got.revisions, want.revisions, strict=True):
                assert a.timestamp == b.timestamp
                assert a.categorical_values == b.categorical_values
                got_cont, want_cont = np.array(a.continuous_values), np.array(b.continuous_values)
                assert got_cont.tobytes() == want_cont.tobytes()

    @pytest.mark.parametrize("n_fit", [3, None], ids=["few_events_fitted", "train_split"])
    def test_fit_and_encode_match(self, saved, n_fit):
        ds = load_dataset(saved)
        schema = ds.schema
        expected = reference.load_events(saved, schema, ds.categories)
        train = ds.split_tables()["train"]
        fit_on = train if n_fit is None else train.select(np.arange(n_fit))
        state = fit_transforms(fit_on, schema)
        wanted_ids = set(fit_on.event_ids)
        want_state = reference.fit_transforms(
            [e for e in expected if e.event_id in wanted_ids], schema
        )
        assert state == want_state
        for name in schema.continuous:
            assert state.cont_mean[name].hex() == want_state.cont_mean[name].hex()
            assert state.cont_std[name].hex() == want_state.cont_std[name].hex()

        encoded = encode_table(ds.table, state, schema)
        want = [reference.apply_transforms(e, want_state, schema) for e in expected]
        for column in ("cat_idx", "cont", "deltas"):
            joined = np.concatenate([getattr(e, column) for e in want])
            assert getattr(encoded, column).tobytes() == joined.tobytes(), column
        np.testing.assert_array_equal(encoded.lengths, [len(e.deltas) for e in want])
        if n_fit is not None:  # categories unseen in the fitted events map to UNKNOWN
            unknown = [state.unknown_index(name) for name in schema.categorical]
            assert (encoded.cat_idx == unknown).any()


class TestEventRefView:
    """``Dataset.split_events()`` references give what ``split_tables()`` gives.

    The references serve the benchmark harness's set-up only; the commands read
    tables.
    """

    @pytest.fixture(scope="class")
    def ds(self):
        ds = generate_dataset(
            GeneratorConfig(seed=5, storms_per_class=5, events_per_storm=(5, 8), missing_rate=0.2)
        )
        assert (ds.table.cat == MISSING_CAT).any() and np.isnan(ds.table.cont).any()
        return ds

    def test_fit_transforms_matches_the_table(self, ds):
        state = fit_transforms(ds.split_events()["train"], ds.schema)
        want = fit_transforms(ds.split_tables()["train"], ds.schema)
        assert state == want
        for name in ds.schema.continuous:
            assert state.cont_mean[name].hex() == want.cont_mean[name].hex()
            assert state.cont_std[name].hex() == want.cont_std[name].hex()

    def test_revision_counts_and_targets_match_the_table(self, ds):
        tables = ds.split_tables()
        for name, refs in ds.split_events().items():
            assert [len(e.revisions) for e in refs] == tables[name].lengths.tolist()
            assert [e.target_duration for e in refs] == tables[name].targets.tolist()

    @settings(max_examples=40, deadline=None)
    @given(
        split=st.sampled_from(["train", "validation", "test"]),
        start=st.integers(0, 40),
        stop=st.integers(1, 80),
        step=st.integers(1, 4),
    )
    def test_encoding_a_slice_matches_the_table_rows(self, ds, split, start, stop, step):
        refs, table = ds.split_events()[split], ds.split_tables()[split]
        positions = np.arange(len(table))[start:stop:step]
        assume(positions.size)
        state = fit_transforms(ds.split_tables()["train"], ds.schema)
        got = encode_events(refs[start:stop:step], state, ds.schema)
        want = encode_events(table.select(positions), state, ds.schema)
        assert (got.event_ids, got.storm_ids) == (want.event_ids, want.storm_ids)
        for column in ("targets", "offsets", "cat_idx", "cont", "deltas"):
            assert getattr(got, column).tobytes() == getattr(want, column).tobytes(), column

    def test_empty_list_is_an_empty_training_set(self, ds):
        with pytest.raises(ValueError, match="empty training set"):
            fit_transforms([], ds.schema)


TABLE_COLUMNS = ("t", "cat", "cont", "targets", "offsets")


def _same_tables(a: EventTable, b: EventTable) -> bool:
    """Equal ids and bit-identical columns (NaN-aware, same dtype and bytes)."""
    return (a.event_ids, a.storm_ids) == (b.event_ids, b.storm_ids) and all(
        x.dtype == y.dtype and np.array_equal(x, y, equal_nan=True) and x.tobytes() == y.tobytes()
        for x, y in ((getattr(a, c), getattr(b, c)) for c in TABLE_COLUMNS)
    )


def _json_only(src, dst):
    """A copy of dataset ``src`` at ``dst`` without its events.bin sidecar."""
    dst.mkdir()
    for name in ("manifest.json", "events.jsonl"):
        (dst / name).write_bytes((src / name).read_bytes())
    return str(dst)


class TestSidecar:
    """A load through events.bin equals the JSON path's; a stale sidecar is ignored."""

    CONFIGS = {
        "default": GeneratorConfig(seed=5),
        "revisions_12_20": GeneratorConfig(
            seed=6, storms_per_class=5, events_per_storm=(5, 8), revisions_per_event=(12, 20),
            missing_rate=0.2,
        ),
    }  # fmt: skip

    @pytest.fixture(scope="class", params=sorted(CONFIGS))
    def saved(self, request, tmp_path_factory):
        out = tmp_path_factory.mktemp(request.param) / "data"
        generate_dataset(self.CONFIGS[request.param], str(out))
        return out

    @staticmethod
    def _no_json(monkeypatch):
        def refuse(*args):
            raise AssertionError("parsed events.jsonl although the sidecar is current")

        monkeypatch.setattr(dataio, "_read_events", refuse)

    def test_sidecar_load_matches_json_path_and_reference(self, saved, tmp_path, monkeypatch):
        from_json = load_dataset(_json_only(saved, tmp_path / "json"))
        self._no_json(monkeypatch)
        ds = load_dataset(str(saved))
        table, schema = ds.table, ds.schema
        assert (table.cat == MISSING_CAT).any() and np.isnan(table.cont).any()
        assert _same_tables(table, from_json.table)
        expected = reference.load_events(str(saved), schema, ds.categories)
        revisions = [r for e in expected for r in e.revisions]
        want = EventTable(
            tuple(e.event_id for e in expected),
            tuple(e.storm_id for e in expected),
            np.array([e.target_duration for e in expected]),
            np.cumsum([0] + [len(e.revisions) for e in expected]),
            np.array([r.timestamp for r in revisions]),
            np.array([r.categorical_values for r in revisions]),
            np.array([r.continuous_values for r in revisions]),
        )
        assert _same_tables(table, want)
        # transforms fitted on a few events leave categories unseen, on both paths alike
        state = fit_transforms(table.select(np.arange(3)), schema)
        encoded, json_encoded = (encode_table(t, state, schema) for t in (table, from_json.table))
        assert (encoded.cat_idx == [state.unknown_index(n) for n in schema.categorical]).any()
        for column in ("cat_idx", "cont", "deltas"):
            assert getattr(encoded, column).tobytes() == getattr(json_encoded, column).tobytes()

    def test_edited_line_with_old_sidecar_loads_the_edit(self, saved, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(saved, data)
        lines = (data / "events.jsonl").read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[3])
        record["target_duration"] += 1.0
        lines[3] = json.dumps(record)
        (data / "events.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        edited = load_dataset(str(data)).table
        assert _same_tables(edited, load_dataset(_json_only(data, tmp_path / "json")).table)
        assert edited.targets[3] == load_dataset(str(saved)).table.targets[3] + 1.0

    def test_changed_vocabulary_with_old_sidecar_is_not_used(self, saved, tmp_path):
        original = load_dataset(str(saved))
        feature = original.schema.categorical[0]
        for change in ("reorder", "drop"):
            data = tmp_path / change
            shutil.copytree(saved, data)
            manifest = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
            vocabulary = manifest["schema"]["categories"][feature]
            manifest["schema"]["categories"][feature] = (
                vocabulary[::-1] if change == "reorder" else vocabulary[1:]
            )
            (data / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
            json_only = _json_only(data, tmp_path / f"{change}_json")
            if change == "reorder":
                table = load_dataset(str(data)).table
                assert _same_tables(table, load_dataset(json_only).table)
                assert not np.array_equal(table.cat, original.table.cat)
            else:  # the dropped value is still used
                with pytest.raises(ValueError) as from_json:
                    load_dataset(json_only)
                with pytest.raises(ValueError, match="unknown category value") as with_sidecar:
                    load_dataset(str(data))
                assert str(with_sidecar.value) == str(from_json.value).replace(
                    json_only, str(data)
                )


class TestStratifiedSplit:
    def make(self, n_small=4, n_medium=4, n_large=4):
        out = []
        for mag, n in (("Small", n_small), ("Medium", n_medium), ("Large", n_large)):
            ratio = {"Small": 0.01, "Medium": 0.1, "Large": 0.5}[mag]
            for i in range(n):
                out.append(storm(f"{mag[0]}{i}", int(ratio * 1000), 1000, mag))
        return out

    def test_minimum_four_per_class(self):
        split = stratified_split(self.make())
        for mag in ("S", "M", "L"):
            val = [s for s in split.validation if s.startswith(mag)]
            test = [s for s in split.test if s.startswith(mag)]
            train = [s for s in split.train if s.startswith(mag)]
            assert len(val) == 2 and len(test) == 2 and len(train) == 0

    def test_ten_large_leaves_six_train(self):
        split = stratified_split(self.make(n_large=10))
        large_train = [s for s in split.train if s.startswith("L")]
        assert len(large_train) == 6

    def test_partition(self):
        storms = self.make(6, 7, 8)
        split = stratified_split(storms)
        combined = sorted(split.train + split.validation + split.test)
        assert combined == sorted(s.storm_id for s in storms)
        assert not (set(split.train) & set(split.validation))
        assert not (set(split.train) & set(split.test))
        assert not (set(split.validation) & set(split.test))

    def test_deterministic_and_seed_sensitive(self):
        storms = self.make(8, 8, 8)
        a = stratified_split(storms, seed=3)
        b = stratified_split(storms, seed=3)
        assert a == b
        c = stratified_split(storms, seed=4)
        assert a != c

    def test_deficient_class_named(self):
        storms = self.make(n_medium=3)
        with pytest.raises(ValueError, match="Medium"):
            stratified_split(storms)

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            stratified_split(self.make(), ratios=(0.5, 0.2, 0.2))

    def test_nan_ratio_refused(self):
        with pytest.raises(ValueError, match="ratios"):
            stratified_split(self.make(), ratios=(0.7, 0.15, float("nan")))


class TestValidation:
    def test_schema_rejects_duplicates(self):
        with pytest.raises(ValueError):
            FeatureSchema((("a", "categorical"), ("a", "continuous")), {"a": 2})

    def test_schema_requires_both_kinds(self):
        with pytest.raises(ValueError):
            FeatureSchema((("a", "categorical"),), {"a": 2})

    def test_cardinality_minimum(self):
        with pytest.raises(ValueError):
            FeatureSchema(
                (("a", "categorical"), ("b", "continuous")), {"a": 1}
            )

    def test_schema_roster_read_keeps_equality_and_hash(self):
        class HashableCards(dict):
            def __hash__(self):
                return hash(tuple(sorted(self.items())))

        features = (("a", "categorical"), ("b", "continuous"), ("c", "continuous"))
        a = FeatureSchema(features, HashableCards(a=3))
        b = FeatureSchema(features, HashableCards(a=3))
        assert (a.categorical, a.continuous, a.p, a.q) == (("a",), ("b", "c"), 1, 2)
        assert a == b  # a's rosters are cached, b's are not
        assert (b.p, b.q) == (1, 2)
        assert a == b and hash(a) == hash(b)
        # a plain dict of cardinalities stays unhashable, as before caching
        with pytest.raises(TypeError):
            hash(FeatureSchema(features, {"a": 3}))

    def test_validate_event_catches_out_of_range(self):
        e = ev("a", [0.0], [7], [1.0])
        with pytest.raises(EventError, match="index 7 out of range"):
            as_table([e])

    def test_storm_record_bounds(self):
        with pytest.raises(ValueError):
            StormRecord("x", 200, 100, "Small", ())
        with pytest.raises(ValueError):
            StormRecord("x", 10, 100, "Huge", ())

    def test_split_disjointness_enforced(self):
        with pytest.raises(ValueError):
            DatasetSplit(("a",), ("a",), ("b",))


@settings(max_examples=50, deadline=None)
@given(
    affected=st.integers(0, 10**6),
    served=st.integers(1, 10**6),
)
def test_classify_total(affected, served):
    if affected > served:
        affected = served
    mag = classify_storm(affected, served)
    assert mag in ("Small", "Medium", "Large")
    ratio = affected / served
    if mag == "Small":
        assert ratio <= 0.05
    elif mag == "Large":
        assert ratio > 0.20
