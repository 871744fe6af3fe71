import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etrcast.data import (
    MISSING_CAT,
    DatasetSplit,
    EventSeries,
    FeatureSchema,
    Revision,
    StormRecord,
    apply_transforms,
    classify_storm,
    compute_time_deltas,
    fit_transforms,
    stratified_split,
    validate_event,
)

SCHEMA = FeatureSchema(
    features=(("color", "categorical"), ("load", "continuous")),
    cardinalities={"color": 4},
)


def ev(event_id, stamps, cats, conts, storm="s1", target=5.0):
    revs = tuple(
        Revision(t, (c,), (x,)) for t, c, x in zip(stamps, cats, conts)
    )
    return EventSeries(event_id, storm, revs, target)


def storm(sid, affected, served, magnitude, n_events=0):
    return StormRecord(sid, affected, served, magnitude, tuple(f"{sid}-e{i}" for i in range(n_events)))


class TestTimeDeltas:
    def test_example(self):
        e = ev("a", [10.0, 12.5, 16.0], [0, 1, 2], [1.0, 2.0, 3.0])
        assert compute_time_deltas(e) == [0.0, 2.5, 6.0]

    def test_single_revision(self):
        e = ev("a", [99.0], [0], [1.0])
        assert compute_time_deltas(e) == [0.0]

    def test_translation_invariance(self):
        stamps = [3.0, 7.25, 11.5]
        base = compute_time_deltas(ev("a", stamps, [0, 0, 0], [0.0, 0.0, 0.0]))
        shifted = compute_time_deltas(
            ev("a", [t + 1e6 for t in stamps], [0, 0, 0], [0.0, 0.0, 0.0])
        )
        assert base == shifted

    def test_strictly_increasing_enforced(self):
        with pytest.raises(ValueError):
            ev("a", [5.0, 5.0], [0, 0], [1.0, 1.0])


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
        state = fit_transforms(events, SCHEMA)
        assert state.cont_mean["load"] == 3.0
        assert state.cont_std["load"] == 1.0  # population std of [2, 4]

    def test_degenerate_std_becomes_one(self):
        events = [ev("a", [0.0, 1.0, 2.0], [0, 0, 0], [5.0, 5.0, 5.0])]
        state = fit_transforms(events, SCHEMA)
        assert state.cont_std["load"] == 1.0
        enc = apply_transforms(events[0], state, SCHEMA)
        np.testing.assert_array_equal(enc.cont[:, 0], 0.0)

    def test_missing_excluded_from_stats(self):
        events = [ev("a", [0.0, 1.0, 2.0], [0, 0, 1], [2.0, math.nan, 4.0])]
        state = fit_transforms(events, SCHEMA)
        assert state.cont_mean["load"] == 3.0

    def test_all_missing_feature_named_in_error(self):
        events = [ev("a", [0.0, 1.0], [MISSING_CAT, MISSING_CAT], [1.0, 2.0])]
        with pytest.raises(ValueError, match="color"):
            fit_transforms(events, SCHEMA)

    def test_mode_most_frequent_tie_to_smallest(self):
        events = [
            ev("a", [0.0, 1.0, 2.0, 3.0], [2, 2, 1, 1], [0.0, 0.0, 0.0, 0.0]),
        ]
        state = fit_transforms(events, SCHEMA)
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
        self.state = fit_transforms(self.events, SCHEMA)

    def test_zscore(self):
        enc = apply_transforms(self.events[0], self.state, SCHEMA)
        mean, std = self.state.cont_mean["load"], self.state.cont_std["load"]
        np.testing.assert_allclose(enc.cont[:, 0], (np.array([2.0, 4.0]) - mean) / std)

    def test_train_zscore_mean_near_zero(self):
        encs = [apply_transforms(e, self.state, SCHEMA) for e in self.events]
        pooled = np.concatenate([e.cont[:, 0] for e in encs])
        assert abs(pooled.mean()) < 1e-9

    def test_missing_cont_imputes_to_zero(self):
        e = ev("c", [0.0], [0], [math.nan])
        enc = apply_transforms(e, self.state, SCHEMA)
        assert enc.cont[0, 0] == 0.0

    def test_missing_cat_imputes_to_mode(self):
        e = ev("c", [0.0], [MISSING_CAT], [2.0])
        enc = apply_transforms(e, self.state, SCHEMA)
        assert enc.cat_idx[0, 0] == self.state.cat_modes["color"]

    def test_unseen_category_maps_to_unknown(self):
        e = ev("c", [0.0], [3], [2.0])  # raw 3 never observed in training
        enc = apply_transforms(e, self.state, SCHEMA)
        assert enc.cat_idx[0, 0] == self.state.unknown_index("color")

    def test_deltas_and_target_copied(self):
        enc = apply_transforms(self.events[1], self.state, SCHEMA)
        np.testing.assert_array_equal(enc.deltas, [0.0, 2.0])
        assert enc.target_duration == 5.0


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
        with pytest.raises(ValueError):
            validate_event(e, SCHEMA)

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
