import hashlib
import inspect
import math
import os
import tracemalloc
from bisect import bisect_right
from dataclasses import fields, replace

import numpy as np
import pytest

import _reference_synth
from _reference_data import events_of, table_of
from etrcast import synth
from etrcast.data import MAGNITUDES, build_table, classify_storm, fit_transforms
from etrcast.dataio import load_dataset, save_dataset
from etrcast.model import ModelConfig
from etrcast.synth import (
    GRID,
    INTEGER_HIGHS,
    PRIORITY_CDF,
    PRIORITY_WEIGHTS,
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
from etrcast.training import build_samples, encode_events

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
                assert got == expect


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
        GeneratorConfig(revisions_per_event=(5, 4))  # inverted
    with pytest.raises(ValueError):
        GeneratorConfig(events_per_storm=(10, 5))
    with pytest.raises(ValueError):
        GeneratorConfig(noise_std=-1.0)
    with pytest.raises(ValueError):
        GeneratorConfig(missing_rate=1.5)


NAN = float("nan")


@pytest.mark.parametrize(
    "field, value",
    [
        ("noise_std", NAN),
        ("revisions_per_event", (0, 5)),
        ("revisions_per_event", (5, 4)),
        ("events_per_storm", (10, 5)),
        ("missing_rate", NAN),
        ("storms_per_class", 0),
        ("split_ratios", (0.7, 0.15, NAN)),
        ("split_ratios", (0.7, 0.3, 0.1)),
        ("split_ratios", (1.1, -0.05, -0.05)),
        ("split_ratios", (0.5, 0.5)),
        ("n_filler_categorical", -1),
        ("n_filler_continuous", -1),
    ],
)
def test_config_refuses_what_cannot_generate(field, value):
    with pytest.raises(ValueError, match=field.split("_")[-1]):
        GeneratorConfig(**{field: value})


def test_long_events_generate_and_window_at_max_seq_len():
    # revisions_per_event has no cap: training windows longer events
    cfg = GeneratorConfig(
        seed=2, storms_per_class=4, events_per_storm=(2, 3), revisions_per_event=(21, 24)
    )
    ds = generate_dataset(cfg)
    lengths = np.diff(ds.table.offsets)
    assert lengths.min() >= 21 and lengths.max() <= 24
    state = fit_transforms(ds.table, ds.schema)
    samples = build_samples(encode_events(ds.table, state, ds.schema), ModelConfig())
    assert samples.prefix_len.max() > 20
    np.testing.assert_array_equal(samples.width, np.minimum(samples.prefix_len, 20))
    batch = samples.batch(np.arange(samples.size))
    assert batch.mask.shape[1] == 20
    # every window's deltas restart at its first row
    assert not batch.deltas[:, 0].any()


# a value unlike DATA_BASE's for every GeneratorConfig field; 20 storms per
# class so that split ratios move round(ratio * n) past the quota of 2
DATA_BASE = GeneratorConfig(seed=4, storms_per_class=20, events_per_storm=(2, 4))
DATA_CHANGES = {
    "seed": 5,
    "storms_per_class": 21,
    "events_per_storm": (2, 5),
    "revisions_per_event": (4, 10),
    "n_filler_categorical": 2,
    "n_filler_continuous": 3,
    "noise_std": 0.25,
    "missing_rate": 0.1,
    "split_ratios": (0.6, 0.2, 0.2),
}


def _events_and_split(cfg, out):
    ds = generate_dataset(cfg, str(out))
    return (out / "events.jsonl").read_bytes(), ds.split


@pytest.mark.parametrize("name", [f.name for f in fields(GeneratorConfig)])
def test_every_generator_field_changes_the_data(name, tmp_path):
    # a field that changes neither events.jsonl nor the split is accepted but does nothing
    assert name in DATA_CHANGES, f"no changed value listed for {name}"
    changed = replace(DATA_BASE, **{name: DATA_CHANGES[name]})
    assert getattr(changed, name) != getattr(DATA_BASE, name)
    base = _events_and_split(DATA_BASE, tmp_path / "base")
    assert _events_and_split(changed, tmp_path / "changed") != base


def test_ratio_bands_lie_inside_the_default_thresholds():
    # a storm's magnitude is its band, so each band must classify as its own class
    small_max, medium_max = inspect.signature(classify_storm).parameters["thresholds"].default
    edges = {"Small": (0.0, small_max), "Medium": (small_max, medium_max), "Large": (medium_max, 1.0)}
    assert set(RATIO_BANDS) == set(MAGNITUDES)
    for magnitude, (lo, hi) in RATIO_BANDS.items():
        low_edge, high_edge = edges[magnitude]
        assert low_edge < lo < hi < high_edge, magnitude
        assert classify_storm(lo * 1e6, 1e6) == classify_storm(hi * 1e6, 1e6) == magnitude


def test_schema_has_expected_features():
    schema, categories = build_schema(GeneratorConfig())
    assert "priority" in schema.categorical
    for name in SIGNAL_CONTINUOUS:
        assert name in schema.continuous
    assert categories["priority"] == ("P1", "P2", "P3", "P4")


@pytest.mark.parametrize("seed", [0, 3, 7, 19])
@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"noise_std": 0.0},
        {"missing_rate": 0.3},
        {"revisions_per_event": (1, 1)},
        {"revisions_per_event": (1, 20)},
        {"revisions_per_event": (12, 20)},
        {"events_per_storm": (1, 1)},
        {"events_per_storm": (88, 88)},
    ],
    ids=["default", "noiseless", "missing", "rev1", "rev1_20", "rev12_20", "one_event", "e88"],
)
def test_matches_per_draw_oracle(seed, overrides):
    cfg = GeneratorConfig(seed=seed, storms_per_class=2, **overrides)
    for magnitude in MAGNITUDES:
        for index in range(cfg.storms_per_class):
            storm, records = generate_storm(cfg, magnitude, index)
            ref_storm, ref_records = _reference_synth.generate_storm(cfg, magnitude, index)
            assert storm == ref_storm
            assert len(records) == len(ref_records)
            for got, want in zip(records, ref_records):
                assert got[:5] == want[:5]  # ids, target, timestamps, cat
                # bitwise: NaN in the same places, signed zeros kept apart
                assert np.array(got[5]).tobytes() == np.array(want[5]).tobytes()


# each call the generator makes with a size, at the arguments it passes
BATCHED_DRAWS = {
    "uniform_starts": lambda rng, n: rng.uniform(0.0, 72.0, n),
    "uniform_gaps": lambda rng, n: rng.uniform(0.25, 6.0, n),
    "uniform_multipliers": lambda rng, n: rng.uniform(0.6, 1.0, n),
    "integers_0_2": lambda rng, n: rng.integers(0, 2, n),
    "integers_0_3": lambda rng, n: rng.integers(0, 3, n),
    "integers_0_6": lambda rng, n: rng.integers(0, 6, n),
    "normal": lambda rng, n: rng.normal(0.0, 1.0, n),
}


@pytest.mark.parametrize("name", sorted(BATCHED_DRAWS))
def test_one_sized_draw_equals_scalar_draws(name):
    # the generator's output stays the same only while this holds; the leading
    # integers draw leaves half of a 64-bit word buffered in the state
    draw = BATCHED_DRAWS[name]
    for seed in range(30):
        for lead in (0, 1):
            for n in range(20):
                batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
                for rng in (batched, scalar):
                    for _ in range(lead):
                        rng.integers(0, 2)
                got = draw(batched, n).tolist()
                want = [draw(scalar, None) for _ in range(n)]
                assert got == want, (seed, lead, n)
                assert batched.bit_generator.state == scalar.bit_generator.state


def test_one_array_high_draw_equals_scalar_draws():
    # the generator draws an event's integers in one call over per-value bounds
    for seed in range(30):
        for lead in (0, 1):
            for m in range(1, 21):
                for codes in range(3):
                    highs = np.repeat(INTEGER_HIGHS, (1, m - 1, m - 1, m * codes))
                    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
                    for rng in (batched, scalar):
                        for _ in range(lead):
                            rng.integers(0, 2)
                    got = batched.integers(0, highs).tolist()
                    want = [int(scalar.integers(0, high)) for high in highs.tolist()]
                    assert got == want, (seed, lead, m, codes)
                    assert batched.bit_generator.state == scalar.bit_generator.state


def test_priority_draw_equals_weighted_choice():
    for seed in range(30):
        bisected, chosen = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(200):
            got = bisect_right(PRIORITY_CDF, bisected.random())
            assert got == int(chosen.choice(4, p=PRIORITY_WEIGHTS)), seed
        assert bisected.bit_generator.state == chosen.bit_generator.state


def _generated_storms(monkeypatch):
    """Storm ids in the order ``generate_dataset`` generates them, from now on."""
    generated, real = [], synth.generate_storm

    def counting(cfg, magnitude, index):
        storm, records = real(cfg, magnitude, index)
        generated.append(storm.storm_id)
        return storm, records

    monkeypatch.setattr(synth, "generate_storm", counting)
    return generated


def test_records_stream_to_the_table_one_storm_at_a_time(monkeypatch):
    # build_table takes each record before the next storm is generated, and the
    # records are the per-draw oracle's eager lists, storm after storm
    cfg = GeneratorConfig(
        seed=3, storms_per_class=4, events_per_storm=(5, 9), revisions_per_event=(12, 20)
    )
    generated = _generated_storms(monkeypatch)
    seen = []  # (storms generated so far, record) as build_table takes each record
    real_build = synth.build_table

    def watching(records, schema):
        def watched():
            for record in records:
                seen.append((len(generated), record))
                yield record

        return real_build(watched(), schema)

    monkeypatch.setattr(synth, "build_table", watching)
    table = generate_dataset(cfg).table
    eager = [
        record
        for magnitude in MAGNITUDES
        for index in range(cfg.storms_per_class)
        for record in _reference_synth.generate_storm(cfg, magnitude, index)[1]
    ]
    assert len(seen) == len(eager)
    for (n_generated, got), want in zip(seen, eager):
        assert generated[n_generated - 1] == got[1]  # its own storm is the newest
        assert got[:5] == want[:5]
        assert np.array(got[5]).tobytes() == np.array(want[5]).tobytes()
    want_table = build_table(eager, build_schema(cfg)[0])
    assert table.event_ids == want_table.event_ids and table.storm_ids == want_table.storm_ids
    for column in ("targets", "offsets", "t", "cat", "cont"):
        assert getattr(table, column).tobytes() == getattr(want_table, column).tobytes()


@pytest.mark.parametrize(
    "error", [ValueError("bad draw"), TypeError("bad type"), RuntimeError("no storm")],
    ids=["ValueError", "TypeError", "RuntimeError"],
)
def test_generation_error_reaches_the_caller_unchanged(monkeypatch, tmp_path, error):
    # build_table turns a failing record source into a bad-event error; a
    # failing generator must not be reported as one
    generated = _generated_storms(monkeypatch)
    counting = synth.generate_storm

    def failing(cfg, magnitude, index):
        if len(generated) == 5:
            raise error
        return counting(cfg, magnitude, index)

    monkeypatch.setattr(synth, "generate_storm", failing)
    with pytest.raises(type(error)) as raised:
        generate_dataset(SMALL, str(tmp_path / "d"))
    assert raised.value is error
    assert not (tmp_path / "d").exists()


def _table_bytes(table):
    return sum(getattr(table, c).nbytes for c in ("targets", "offsets", "t", "cat", "cont"))


def _traced_transient(fn):
    """fn's result, and the traced bytes it held at its peak beyond what it kept."""
    tracemalloc.start()
    try:
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - kept


MEMORY_CONFIG = GeneratorConfig(seed=3, storms_per_class=4, events_per_storm=(20, 30))


def test_generation_holds_one_storm_of_records_at_a_time():
    # every storm's records as Python lists come to about 7.6x the table's
    # bytes; one storm of them plus the table's per-event arrays stay under 3x
    generate_dataset(replace(MEMORY_CONFIG, events_per_storm=(1, 2)))  # first-use imports
    ds, transient = _traced_transient(lambda: generate_dataset(MEMORY_CONFIG))
    assert transient <= 3 * _table_bytes(ds.table), (transient, _table_bytes(ds.table))


def test_save_writes_each_column_from_its_own_buffer(tmp_path):
    # a copy of each column to write would add 1.5x the largest column
    ds = generate_dataset(MEMORY_CONFIG)
    tiny = generate_dataset(replace(MEMORY_CONFIG, events_per_storm=(1, 2)))
    save_dataset(tiny, str(tmp_path / "a"))  # first-use imports
    _, transient = _traced_transient(lambda: save_dataset(ds, str(tmp_path / "b")))
    largest = max(ds.table.t.nbytes, ds.table.cat.nbytes, ds.table.cont.nbytes)
    assert transient < largest, (transient, largest)


def test_save_transient_does_not_grow_with_the_rows(tmp_path):
    # the same 480 events with 2-3 and with 16-20 revisions: events.jsonl is
    # written one event at a time, so the 7,450 more rows add no transient.
    # Whole-dataset category and missing-value arrays would add 25 bytes a row.
    cfg = replace(MEMORY_CONFIG, events_per_storm=(40, 40))
    short, long = (
        generate_dataset(replace(cfg, revisions_per_event=r)) for r in ((2, 3), (16, 20))
    )
    assert len(short.table) == len(long.table) == 480
    assert len(long.table.t) - len(short.table.t) == 7_450
    save_dataset(short, str(tmp_path / "warm"))  # first-use imports
    _, short_transient = _traced_transient(lambda: save_dataset(short, str(tmp_path / "a")))
    _, long_transient = _traced_transient(lambda: save_dataset(long, str(tmp_path / "b")))
    assert long_transient - short_transient < 16_384, (short_transient, long_transient)
