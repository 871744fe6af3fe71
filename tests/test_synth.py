import hashlib
import math
import os

import numpy as np
import pytest

from _reference_data import events_of, table_of
from etrcast.data import MAGNITUDES
from etrcast.dataio import load_dataset, save_dataset
from etrcast.synth import (
    GRID,
    RATIO_BANDS,
    ROLLING_DEFAULT,
    SIGNAL_CONTINUOUS,
    GeneratorConfig,
    build_schema,
    dispatch_delay_hours,
    generate_dataset,
    generate_storm,
    replay_ground_truth,
    snap,
)

SMALL = GeneratorConfig(seed=7, storms_per_class=4, events_per_storm=(5, 9))


def test_twelve_storms_at_four_per_class():
    ds = generate_dataset(SMALL)
    assert len(ds.storms) == 12
    for mag in MAGNITUDES:
        assert sum(1 for s in ds.storms if s.magnitude == mag) == 4


def test_events_validate_against_schema():
    ds = generate_dataset(SMALL)
    table_of(events_of(ds.table), ds.schema)


def test_ratio_bands_respected():
    ds = generate_dataset(GeneratorConfig(seed=3, storms_per_class=5, events_per_storm=(5, 8)))
    for s in ds.storms:
        lo, hi = RATIO_BANDS[s.magnitude]
        ratio = s.customers_affected / s.customers_served
        assert lo <= ratio <= hi + 1e-12


def test_large_storms_affect_more_than_small():
    ds = generate_dataset(SMALL)
    small_max = max(
        s.customers_affected for s in ds.storms if s.magnitude == "Small"
    )
    large_min = min(
        s.customers_affected for s in ds.storms if s.magnitude == "Large"
    )
    assert large_min > small_max


def test_zero_noise_replay_matches_ground_truth():
    cfg = GeneratorConfig(
        seed=11, storms_per_class=4, events_per_storm=(6, 10), noise_std=0.0
    )
    ds = generate_dataset(cfg)
    assert len(ds.table) > 50
    for i, target in enumerate(ds.table.targets.tolist()):
        g = replay_ground_truth(ds.table, i, ds.schema, ds.categories)
        assert abs(g - target) <= 1e-9, ds.table.event_ids[i]


def test_noise_perturbs_targets():
    quiet = generate_dataset(
        GeneratorConfig(seed=5, storms_per_class=4, events_per_storm=(5, 7), noise_std=0.0)
    )
    noisy = generate_dataset(
        GeneratorConfig(seed=5, storms_per_class=4, events_per_storm=(5, 7), noise_std=0.5)
    )
    diffs = [
        abs(a.target_duration - b.target_duration)
        for a, b in zip(events_of(quiet.table), events_of(noisy.table))
    ]
    assert max(diffs) > 0.0


def test_rolling_average_exact_recompute():
    # rolling feature = mean duration of the <=25 latest-closing events that
    # were generated earlier in the storm and closed on or before the stamp
    cfg = GeneratorConfig(seed=13, storms_per_class=4, events_per_storm=(8, 14))
    ds = generate_dataset(cfg)
    rolling_col = ds.schema.continuous.index("rolling_avg_restore_last_25")

    for storm_id in {s.storm_id for s in ds.storms}:
        # event ids embed generation order within the storm
        events = sorted(
            (e for e in events_of(ds.table) if e.storm_id == storm_id),
            key=lambda e: e.event_id,
        )
        for i, e in enumerate(events):
            closes = sorted(
                (p.revisions[0].timestamp + p.target_duration, p.target_duration)
                for p in events[:i]
            )
            for rev in e.revisions:
                got = rev.continuous_values[rolling_col]
                prior = [d for c, d in closes if c <= rev.timestamp][-25:]
                expect = float(np.mean(prior)) if prior else ROLLING_DEFAULT
                assert abs(got - expect) < 1e-9


def test_concurrent_count_recompute():
    # concurrency = earlier-generated storm events still open at the stamp
    cfg = GeneratorConfig(seed=17, storms_per_class=4, events_per_storm=(6, 10))
    ds = generate_dataset(cfg)
    col = ds.schema.continuous.index("concurrent_event_count")
    for storm_id in {s.storm_id for s in ds.storms}:
        events = sorted(
            (e for e in events_of(ds.table) if e.storm_id == storm_id),
            key=lambda e: e.event_id,
        )
        for i, e in enumerate(events):
            closes = [
                p.revisions[0].timestamp + p.target_duration for p in events[:i]
            ]
            for rev in e.revisions:
                expect = sum(1 for c in closes if c > rev.timestamp)
                assert rev.continuous_values[col] == expect


def test_missing_only_on_filler_features():
    cfg = GeneratorConfig(seed=23, storms_per_class=4, events_per_storm=(6, 9), missing_rate=0.3)
    ds = generate_dataset(cfg)
    signal_cols = [ds.schema.continuous.index(n) for n in SIGNAL_CONTINUOUS]
    pri_col = ds.schema.categorical.index("priority")
    saw_missing = False
    for e in events_of(ds.table):
        for rev in e.revisions:
            assert rev.categorical_values[pri_col] >= 0
            for c in signal_cols:
                assert not math.isnan(rev.continuous_values[c])
            saw_missing = saw_missing or any(
                math.isnan(v) for v in rev.continuous_values
            ) or any(v < 0 for v in rev.categorical_values)
    assert saw_missing


def test_single_revision_range_degenerates():
    cfg = GeneratorConfig(seed=1, storms_per_class=4, events_per_storm=(4, 6), revisions_per_event=(1, 1))
    ds = generate_dataset(cfg)
    assert all(len(e.revisions) == 1 for e in events_of(ds.table))


def test_storm_generation_independent_of_other_classes():
    # NaN-free config so equality of the records is meaningful
    cfg = GeneratorConfig(seed=7, storms_per_class=4, events_per_storm=(5, 9), missing_rate=0.0)
    a = generate_storm(cfg, "Medium", 2)
    b = generate_storm(cfg, "Medium", 2)
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_timestamps_on_grid():
    ds = generate_dataset(SMALL)
    for e in events_of(ds.table):
        for rev in e.revisions:
            scaled = rev.timestamp * GRID
            assert abs(scaled - round(scaled)) < 1e-9


def test_snap_examples():
    assert snap(1.0) == 1.0
    assert snap(0.26) == 0.265625  # 17/64
    assert snap(1 / 3) * 64 == round(64 / 3)


def test_dispatch_delay_examples():
    assert dispatch_delay_hours([0, 0, 1, 2], [0.0, 1.0, 3.5, 5.0]) == 3.5
    assert dispatch_delay_hours([1, 1, 1], [0.0, 2.0, 4.0]) == 12.0  # never increases -> cap
    assert dispatch_delay_hours([0, 5], [0.0, 20.0]) == 12.0  # capped


def test_byte_identical_regeneration(tmp_path):
    cfg = GeneratorConfig(seed=19, storms_per_class=4, events_per_storm=(5, 8))

    def digest(sub):
        out = tmp_path / sub
        generate_dataset(cfg, str(out))
        h = hashlib.sha256()
        for name in ("manifest.json", "events.jsonl"):
            h.update((out / name).read_bytes())
        return h.hexdigest()

    assert digest("a") == digest("b")


def test_roundtrip_through_disk(tmp_path):
    ds = generate_dataset(SMALL)
    save_dataset(ds, str(tmp_path / "d"))
    back = load_dataset(str(tmp_path / "d"))
    assert back.schema == ds.schema
    assert back.split == ds.split
    assert len(events_of(back.table)) == len(events_of(ds.table))
    assert events_of(back.table)[0] == events_of(ds.table)[0]
    assert back.generator_config == ds.generator_config


def test_manifest_embeds_config(tmp_path):
    ds = generate_dataset(SMALL, str(tmp_path / "d"))
    back = load_dataset(str(tmp_path / "d"))
    assert back.generator_config["seed"] == 7
    assert back.generator_config["storms_per_class"] == 4


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(revisions_per_event=(0, 5))
    with pytest.raises(ValueError):
        GeneratorConfig(revisions_per_event=(2, 40))  # above max_seq_len
    with pytest.raises(ValueError):
        GeneratorConfig(events_per_storm=(10, 5))
    with pytest.raises(ValueError):
        GeneratorConfig(noise_std=-1.0)
    with pytest.raises(ValueError):
        GeneratorConfig(missing_rate=1.5)


def test_schema_has_expected_features():
    schema, categories = build_schema(GeneratorConfig())
    assert "priority" in schema.categorical
    for name in SIGNAL_CONTINUOUS:
        assert name in schema.continuous
    assert categories["priority"] == ("P1", "P2", "P3", "P4")
