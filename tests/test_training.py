import gc
import math
import sys
import threading
import weakref
import zlib
from dataclasses import fields, replace

import numpy as np
import pytest

from etrcast import training
from etrcast.data import FeatureSchema, fit_transforms
from etrcast.kernels import blas_threads, blas_threads_at
from etrcast.losses import LossConfig
from etrcast.metrics import PredictionSet, eval_report, wae
from etrcast.model import ModelConfig, init_params, predict
from etrcast.synth import GeneratorConfig, generate_dataset
from etrcast.training import (
    CHUNK_SLOTS,
    POOL_BATCHES,
    PREDICT_THREADS,
    AdamState,
    PlateauState,
    TrainConfig,
    TrainError,
    adam_step,
    baseline_predict,
    build_final_samples,
    build_samples,
    encode_events,
    epoch_batches,
    evaluate,
    fit_linear_baseline,
    plateau_scheduler,
    predict_in_chunks,
    train_model,
)


class TestBuildSamples:
    def test_one_sample_per_prefix(self, small_dataset):
        cfg = ModelConfig(max_seq_len=20, d_model=8, n_layers=1, n_heads=2)
        splits = small_dataset.split_tables()
        state = fit_transforms(splits["train"], small_dataset.schema)
        enc = encode_events(splits["train"], state, small_dataset.schema)
        samples = build_samples(enc, cfg)
        expect = sum(min(m, cfg.max_seq_len) for m in enc.lengths.tolist())
        assert samples.size == expect
        # prefix lengths run 1..M for each event
        rows = [i for i, eid in enumerate(samples.event_ids) if eid == enc.event_ids[0]]
        assert [int(samples.prefix_len[r]) for r in rows] == list(
            range(1, int(enc.lengths[0]) + 1)
        )

    def test_window_keeps_most_recent(self, small_dataset):
        cfg = ModelConfig(max_seq_len=3, d_model=8, n_layers=1, n_heads=2)
        splits = small_dataset.split_tables()
        state = fit_transforms(splits["train"], small_dataset.schema)
        enc = encode_events(splits["train"], state, small_dataset.schema)
        event = enc.select([np.flatnonzero(enc.lengths >= 5)[0]])
        samples = build_samples(event, cfg)
        m = len(event.deltas)
        # every revision is a prediction point, also beyond the window length
        assert samples.size == m
        final = build_final_samples(event, cfg).batch(slice(None))
        np.testing.assert_allclose(
            final.cont[0, :3], event.cont[m - 3 : m]
        )
        # deltas rebased to the earliest retained revision
        np.testing.assert_allclose(
            final.deltas[0, :3], event.deltas[m - 3 : m] - event.deltas[m - 3]
        )
        assert final.deltas[0, 0] == 0.0

    def test_window_of_revision_j_holds_its_latest_revisions(self, small_dataset):
        cfg = ModelConfig(max_seq_len=3, d_model=8, n_layers=1, n_heads=2)
        splits = small_dataset.split_tables()
        state = fit_transforms(splits["train"], small_dataset.schema)
        enc = encode_events(splits["train"], state, small_dataset.schema)
        event = enc.select([np.flatnonzero(enc.lengths >= 5)[0]])
        m = len(event.deltas)
        samples = build_samples(event, cfg)
        assert samples.prefix_len.tolist() == list(range(1, m + 1))
        for i, j in enumerate(samples.prefix_len.tolist()):
            batch = samples.batch([i])
            lo = max(0, j - cfg.max_seq_len)  # revisions max(1, j - S + 1)..j, 0-based
            width = j - lo
            assert batch.mask[0].tolist() == [True] * width
            np.testing.assert_array_equal(batch.cat_idx[0], event.cat_idx[lo:j])
            np.testing.assert_array_equal(batch.cont[0], event.cont[lo:j])
            np.testing.assert_array_equal(batch.deltas[0], event.deltas[lo:j] - event.deltas[lo])
            assert batch.deltas[0, 0] == 0.0
        # a batch of several windows pads each to the longest one with zeros
        batch = samples.batch(np.arange(m))
        assert batch.mask.shape == (m, cfg.max_seq_len)
        np.testing.assert_array_equal(batch.mask.sum(axis=1), np.minimum(np.arange(1, m + 1), 3))
        assert not batch.cont[~batch.mask].any() and not batch.deltas[~batch.mask].any()
        assert not batch.cat_idx[~batch.mask].any()

    def test_masks_are_prefixes(self, small_dataset):
        cfg = ModelConfig(max_seq_len=20, d_model=8, n_layers=1, n_heads=2)
        splits = small_dataset.split_tables()
        state = fit_transforms(splits["train"], small_dataset.schema)
        enc = encode_events(splits["train"], state, small_dataset.schema)
        samples = build_samples(enc.select(np.arange(10)), cfg)
        for i in range(samples.size):
            m = samples.mask[i]
            k = int(samples.prefix_len[i])
            assert m[:k].all() and not m[k:].any()


def train_samples(dataset, max_seq_len=20):
    train = dataset.split_tables()["train"]
    state = fit_transforms(train, dataset.schema)
    enc = encode_events(train, state, dataset.schema)
    return build_samples(enc, ModelConfig(max_seq_len=max_seq_len))


class TestEpochOrder:
    BATCH = 8

    def batches(self, samples, seed=(0, 1000)):
        return epoch_batches(samples, self.BATCH, np.random.default_rng(seed))

    def test_every_sample_once_per_epoch(self, small_dataset):
        samples = train_samples(small_dataset)
        batches = self.batches(samples)
        assert samples.size > 4 * POOL_BATCHES * self.BATCH  # several pools
        visited = np.concatenate(batches)
        np.testing.assert_array_equal(np.sort(visited), np.arange(samples.size))
        assert all(0 < b.size <= self.BATCH for b in batches)
        assert sum(b.size < self.BATCH for b in batches) <= 1

    def test_no_batch_spans_two_pools(self, small_dataset):
        samples = train_samples(small_dataset)
        perm = np.random.default_rng((0, 1000)).permutation(samples.size)
        pool_of = np.empty(samples.size, dtype=np.int64)
        pool_of[perm] = np.arange(samples.size) // (POOL_BATCHES * self.BATCH)
        batches = self.batches(samples)
        for b in batches:
            assert np.unique(pool_of[b]).size == 1
        # within its pool a batch is a run of the width order
        for b in batches:
            assert np.all(np.diff(samples.width[b]) >= 0)
        # and the batches do not come pool by pool
        firsts = [int(pool_of[b[0]]) for b in batches]
        assert firsts != sorted(firsts)

    def test_same_seed_same_order(self, small_dataset):
        samples = train_samples(small_dataset)
        a, b = self.batches(samples), self.batches(samples)
        assert len(a) == len(b)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_epochs_differ(self, small_dataset):
        samples = train_samples(small_dataset)
        a = np.concatenate(self.batches(samples, (0, 1000)))
        b = np.concatenate(self.batches(samples, (0, 1001)))
        assert not np.array_equal(a, b)

    def test_windows_longer_than_max_seq_len_share_one_width(self, small_dataset):
        samples = train_samples(small_dataset, max_seq_len=3)
        assert samples.prefix_len.max() > 3
        np.testing.assert_array_equal(samples.width, np.minimum(samples.prefix_len, 3))
        visited = np.concatenate(self.batches(samples))
        np.testing.assert_array_equal(np.sort(visited), np.arange(samples.size))

    def test_desk_batches_are_mostly_valid_slots(self):
        # the default generator's prefixes run 1-9; desk-scale batches of 128
        samples = train_samples(generate_dataset(GeneratorConfig()))
        batches = epoch_batches(samples, 128, np.random.default_rng((0, 1000)))
        slots = sum(b.size * int(samples.width[b].max()) for b in batches)
        assert samples.width.sum() / slots >= 0.8


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        tensors = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.zeros(2)}
        state = AdamState.for_params(tensors)
        new, state = adam_step(tensors, grads, state, lr=0.1, cfg=TrainConfig())
        np.testing.assert_array_equal(new["w"], [1.0, -2.0])

    def test_first_step_size_is_lr(self):
        # with bias correction the first update is lr * sign(g) (up to eps)
        tensors = {"w": np.array([0.0])}
        grads = {"w": np.array([3.7])}
        state = AdamState.for_params(tensors)
        new, _ = adam_step(tensors, grads, state, lr=0.01, cfg=TrainConfig())
        assert abs(new["w"][0] + 0.01) < 1e-6

    def test_moments_accumulate(self):
        cfg = TrainConfig()
        tensors = {"w": np.array([0.0])}
        state = AdamState.for_params(tensors)
        for t in range(1, 4):
            tensors, state = adam_step(tensors, {"w": np.array([1.0])}, state, 0.1, cfg)
        assert state.t == 3
        assert state.m["w"][0] == pytest.approx(1 - cfg.beta1**3)


class TestPlateau:
    def test_decay_after_patience_flat_epochs(self):
        cfg = TrainConfig(plateau_patience=5, plateau_factor=0.7)
        state = PlateauState(lr=1e-3)
        state = plateau_scheduler(10.0, state, cfg)  # first value improves
        for _ in range(5):
            state = plateau_scheduler(10.0, state, cfg)
        assert state.lr == 1e-3 * 0.7
        assert state.bad_epochs == 0  # counter resets on decay

    def test_two_decays_over_double_patience(self):
        cfg = TrainConfig(plateau_patience=5, plateau_factor=0.7)
        lr0 = 2e-4
        state = PlateauState(lr=lr0)
        state = plateau_scheduler(3.0, state, cfg)
        for _ in range(2 * cfg.plateau_patience):
            state = plateau_scheduler(3.0, state, cfg)
        assert state.lr == lr0 * 0.7 * 0.7

    def test_improvement_resets_counter(self):
        cfg = TrainConfig(plateau_patience=3)
        state = PlateauState(lr=1.0)
        state = plateau_scheduler(10.0, state, cfg)
        state = plateau_scheduler(10.0, state, cfg)
        state = plateau_scheduler(10.0, state, cfg)
        assert state.bad_epochs == 2
        state = plateau_scheduler(5.0, state, cfg)  # real improvement
        assert state.bad_epochs == 0 and state.lr == 1.0

    def test_relative_min_delta(self):
        cfg = TrainConfig(plateau_patience=2, min_delta=1e-3)
        state = PlateauState(lr=1.0)
        state = plateau_scheduler(100.0, state, cfg)
        # 99.95 is within 0.1% of 100 -> not an improvement
        state = plateau_scheduler(99.95, state, cfg)
        assert state.bad_epochs == 1
        # 99.8 clears the relative threshold
        state = plateau_scheduler(99.8, state, cfg)
        assert state.bad_epochs == 0


@pytest.fixture(scope="module")
def tiny():
    return generate_dataset(
        GeneratorConfig(seed=4, storms_per_class=6, events_per_storm=(5, 8))
    )


class TestTrainModel:
    def test_zero_lr_keeps_init(self, tiny):
        mcfg = ModelConfig(max_seq_len=20, d_model=8, n_layers=1, n_heads=2)
        tcfg = TrainConfig(learning_rate=0.0, batch_size=64, max_epochs=1, seed=0)
        result = train_model(tiny, mcfg, tcfg)
        # the trained head bias is seeded from the target mean, so rebuild
        # the same init for comparison
        init = init_params(result.params.config, tiny.schema, seed=0)
        for k, v in init.tensors.items():
            np.testing.assert_array_equal(result.params.tensors[k], v)

    def test_same_seed_same_history(self, tiny):
        mcfg = ModelConfig(max_seq_len=20, d_model=8, n_layers=1, n_heads=2)
        tcfg = TrainConfig(learning_rate=1e-3, batch_size=64, max_epochs=2, seed=3)
        a = train_model(tiny, mcfg, tcfg)
        b = train_model(tiny, mcfg, tcfg)
        assert a.history == b.history
        for k in a.params.tensors:
            np.testing.assert_array_equal(a.params.tensors[k], b.params.tensors[k])

    def test_loss_decreases(self, tiny):
        mcfg = ModelConfig(max_seq_len=20, d_model=16, n_layers=1, n_heads=2)
        tcfg = TrainConfig(learning_rate=3e-3, batch_size=64, max_epochs=5, seed=0)
        result = train_model(tiny, mcfg, tcfg)
        losses = [r.train_loss for r in result.history]
        assert losses[-1] < losses[0]
        assert result.best_val_wae <= result.history[0].val_wae

    def test_best_epoch_snapshot(self, tiny):
        mcfg = ModelConfig(max_seq_len=20, d_model=8, n_layers=1, n_heads=2)
        tcfg = TrainConfig(learning_rate=3e-3, batch_size=64, max_epochs=3, seed=1)
        result = train_model(tiny, mcfg, tcfg)
        waes = [r.val_wae for r in result.history]
        assert result.best_epoch == int(np.argmin(waes))
        assert result.best_val_wae == min(waes)

    def test_dropout_changes_history_reproducibly(self, tiny):
        tcfg = TrainConfig(learning_rate=1e-3, batch_size=64, max_epochs=2, seed=3)
        plain = ModelConfig(max_seq_len=20, d_model=8, n_layers=1, n_heads=2)
        dropped = replace(plain, dropout=0.5)
        base = train_model(tiny, plain, tcfg).history
        a = train_model(tiny, dropped, tcfg)
        b = train_model(tiny, dropped, tcfg)
        assert a.history == b.history
        assert a.history != base
        for k in a.params.tensors:
            np.testing.assert_array_equal(a.params.tensors[k], b.params.tensors[k])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(plateau_factor=1.5)


    def test_too_few_storms_per_class_is_named(self):
        # validation and test take 2 storms of each class, so 4 leave none to train
        dataset = generate_dataset(
            GeneratorConfig(seed=1, storms_per_class=4, events_per_storm=(2, 3))
        )
        assert not len(dataset.split_tables()["train"])
        mcfg = ModelConfig(max_seq_len=20, d_model=8, n_layers=1, n_heads=2)
        message = r"empty train split: too few storms per class \(4 Small, 4 Medium, 4 Large\)"
        with pytest.raises(ValueError, match="train_model: " + message):
            train_model(dataset, mcfg, TrainConfig(max_epochs=1))
        with pytest.raises(ValueError, match="fit_linear_baseline: " + message):
            fit_linear_baseline(dataset)

    def test_split_whose_storms_have_no_events_is_named(self):
        dataset = generate_dataset(
            GeneratorConfig(seed=1, storms_per_class=8, events_per_storm=(2, 3))
        )
        kept = [i for i, s in enumerate(dataset.table.storm_ids) if s not in dataset.split.train]
        dataset = replace(dataset, table=dataset.table.select(kept))
        n = len(dataset.split.train)
        message = f"fit_linear_baseline: empty train split: the manifest gives it {n} storms, none"
        with pytest.raises(ValueError, match=message + " with events$"):
            fit_linear_baseline(dataset)


class TestLinearBaseline:
    def make_dataset(self):
        return generate_dataset(
            GeneratorConfig(seed=6, storms_per_class=6, events_per_storm=(5, 8))
        )

    def test_recovers_planted_linear_map(self):
        # feed the solver rows from a known linear model; it must recover it
        rng = np.random.default_rng(0)
        n, q = 400, 3
        x = rng.normal(size=(n, q))
        w_true = np.array([2.0, -1.0, 0.5])
        b_true = 7.0
        y = x @ w_true + b_true
        ones = np.ones((n, 1))
        design = np.concatenate([x, ones], axis=1)
        gram = design.T @ design + 1e-8 * np.eye(q + 1)
        weights = np.linalg.solve(gram, design.T @ y)
        np.testing.assert_allclose(weights[:q], w_true, atol=1e-5)
        np.testing.assert_allclose(weights[q], b_true, atol=1e-5)

    def test_intercept_is_last_weight(self):
        ds = self.make_dataset()
        baseline = fit_linear_baseline(ds)
        assert baseline.intercept == baseline.weights[-1]
        width = sum(baseline.cat_widths) + len(ds.schema.continuous) + 1
        assert baseline.weights.shape == (width,)

    def test_predicts_on_final_revision(self):
        ds = self.make_dataset()
        baseline = fit_linear_baseline(ds)
        splits = ds.split_tables()
        enc = encode_events(splits["test"], baseline.state, ds.schema)
        cfg = ModelConfig(max_seq_len=20, d_model=8, n_layers=1, n_heads=2)
        samples = build_final_samples(enc, cfg)
        batch = samples.batch(np.arange(samples.size))
        preds = baseline_predict(baseline, batch)
        assert preds.shape == (samples.size,)
        assert np.isfinite(preds).all()

    def test_train_residuals_beat_constant(self):
        ds = self.make_dataset()
        baseline = fit_linear_baseline(ds)
        splits = ds.split_tables()
        enc = encode_events(splits["train"], baseline.state, ds.schema)
        cfg = ModelConfig(max_seq_len=20, d_model=8, n_layers=1, n_heads=2)
        samples = build_final_samples(enc, cfg)
        batch = samples.batch(np.arange(samples.size))
        preds = baseline_predict(baseline, batch)
        targets = samples.targets
        sse_fit = float(np.sum((preds - targets) ** 2))
        sse_const = float(np.sum((targets.mean() - targets) ** 2))
        assert sse_fit < sse_const


# a tiny training run whose plateau decay fires (min_delta 0.5), and a value
# unlike the base's for every ModelConfig, TrainConfig and LossConfig field
RUN_BASE = (
    ModelConfig(max_seq_len=20, d_model=8, n_layers=1, n_heads=2),
    TrainConfig(learning_rate=3e-3, batch_size=64, max_epochs=3, plateau_patience=1, min_delta=0.5),
    LossConfig(),
)
RUN_CHANGES = {
    # ModelConfig
    "max_seq_len": 3,
    "d_model": 12,
    "n_layers": 2,
    "n_heads": 4,
    "ffn_hidden": 16,
    "head_hidden": 4,
    "embed_dim_cap": 1,
    "dropout": 0.2,
    "pe_base": 100.0,
    "head_bias_init": 1.5,
    # TrainConfig
    "learning_rate": 1e-3,
    "batch_size": 32,
    "beta1": 0.8,
    "beta2": 0.99,
    "adam_eps": 1e-3,
    "plateau_factor": 0.5,
    "plateau_patience": 2,
    "min_delta": 0.0,
    "max_epochs": 4,
    "seed": 1,
    # LossConfig
    "alpha": 3.0,
    "beta": 3.0,
    "tau": 4.0,
}


@pytest.fixture(scope="module")
def run_data():
    cfg = GeneratorConfig(
        seed=4, storms_per_class=5, events_per_storm=(3, 5), revisions_per_event=(2, 7)
    )
    return generate_dataset(cfg)


def _history_and_best(data, configs):
    result = train_model(data, *configs)
    return result.history, {k: v.tobytes() for k, v in result.params.tensors.items()}


@pytest.mark.parametrize("name", [f.name for cfg in RUN_BASE for f in fields(cfg)])
def test_every_config_field_changes_the_training_run(name, run_data):
    # a field that changes neither the history nor the best tensors is accepted but does nothing
    assert name in RUN_CHANGES, f"no changed value listed for {name}"
    changed = [
        replace(cfg, **{name: RUN_CHANGES[name]}) if name in {f.name for f in fields(cfg)} else cfg
        for cfg in RUN_BASE
    ]
    assert changed != list(RUN_BASE)
    base = _history_and_best(run_data, RUN_BASE)
    assert base[0][-1].lr < RUN_BASE[1].learning_rate  # the plateau decay fired
    assert _history_and_best(run_data, changed) != base


class TestEvaluate:
    def test_one_prediction_per_event(self, small_dataset):
        splits = small_dataset.split_tables()
        state = fit_transforms(splits["train"], small_dataset.schema)
        enc = encode_events(splits["test"], state, small_dataset.schema)
        cfg = ModelConfig(max_seq_len=20, d_model=8, n_layers=1, n_heads=2)
        params = init_params(cfg, small_dataset.schema, seed=0)
        report, _ = evaluate(
            lambda b: predict(params, b), build_samples(enc, cfg), small_dataset.magnitude_of()
        )
        assert report.overall.count == len(enc)
        assert sum(r.count for r in report.strata.values()) == len(enc)

    def test_per_revision_buckets(self, small_dataset):
        splits = small_dataset.split_tables()
        state = fit_transforms(splits["train"], small_dataset.schema)
        enc = encode_events(splits["test"], state, small_dataset.schema)
        cfg = ModelConfig(max_seq_len=20, d_model=8, n_layers=1, n_heads=2)
        params = init_params(cfg, small_dataset.schema, seed=0)
        magnitudes = small_dataset.magnitude_of()
        _, table = evaluate(lambda b: predict(params, b), build_samples(enc, cfg), magnitudes)
        assert 1 in table
        total = sum(row["count"] for row in table.values())
        assert total == sum(min(m, cfg.max_seq_len) for m in enc.lengths.tolist())

    def test_empty_split_rejected(self, small_dataset):
        splits = small_dataset.split_tables()
        state = fit_transforms(splits["train"], small_dataset.schema)
        empty = encode_events(splits["test"], state, small_dataset.schema).select([])
        cfg = ModelConfig(max_seq_len=20, d_model=8, n_layers=1, n_heads=2)
        params = init_params(cfg, small_dataset.schema, seed=0)
        with pytest.raises(ValueError):
            evaluate(lambda b: predict(params, b), build_samples(empty, cfg), {})

    @staticmethod
    def _scored_test_split(small_dataset):
        splits = small_dataset.split_tables()
        state = fit_transforms(splits["train"], small_dataset.schema)
        enc = encode_events(splits["test"], state, small_dataset.schema)
        cfg = ModelConfig(max_seq_len=4, d_model=8, n_layers=2, n_heads=2)
        params = init_params(cfg, small_dataset.schema, seed=0)
        return enc, cfg, lambda b: predict(params, b)

    def test_predicts_every_sample_once(self, small_dataset):
        enc, cfg, model_fn = self._scored_test_split(small_dataset)
        samples = build_samples(enc, cfg)
        rows = []

        def counting(batch):
            rows.append(batch.size)
            return model_fn(batch)

        evaluate(counting, samples, small_dataset.magnitude_of())
        assert sum(rows) == samples.size

    def test_per_revision_is_the_chunked_pass_over_all_samples(self, small_dataset):
        enc, cfg, model_fn = self._scored_test_split(small_dataset)
        samples = build_samples(enc, cfg)
        _, per_revision = evaluate(model_fn, samples, small_dataset.magnitude_of())
        preds = predict_in_chunks(model_fn, samples)
        expected = {}
        for j in sorted(set(samples.prefix_len.tolist())):
            rows = samples.prefix_len == j
            expected[j] = {"wae": wae(preds[rows], samples.targets[rows]), "count": int(rows.sum())}
        assert per_revision == expected

    def test_report_matches_final_revision_predictions(self, small_dataset):
        enc, cfg, model_fn = self._scored_test_split(small_dataset)
        magnitudes = small_dataset.magnitude_of()
        report, _ = evaluate(model_fn, build_samples(enc, cfg), magnitudes)
        final = build_final_samples(enc, cfg)
        strata = tuple(magnitudes[eid] for eid in final.event_ids)
        pset = PredictionSet(predict_in_chunks(model_fn, final), final.targets, strata)
        expected = eval_report(pset)
        assert set(report.strata) == set(expected.strata) and report.notes == expected.notes
        pairs = [(report.overall, expected.overall)]
        pairs += [(report.strata[name], row) for name, row in expected.strata.items()]
        for got, want in pairs:
            assert got.count == want.count
            for metric in ("upr", "opr8", "wae", "csi", "rmse"):
                assert math.isclose(getattr(got, metric), getattr(want, metric), rel_tol=1e-12)

    def test_chunked_prediction_matches_single_pass(self, small_dataset):
        splits = small_dataset.split_tables()
        state = fit_transforms(splits["train"], small_dataset.schema)
        enc = encode_events(splits["train"].select(np.arange(12)), state, small_dataset.schema)
        cfg = ModelConfig(max_seq_len=20, d_model=8, n_layers=1, n_heads=2)
        params = init_params(cfg, small_dataset.schema, seed=0)
        samples = build_samples(enc, cfg)
        # same chunking is exactly reproducible
        a = predict_in_chunks(lambda b: predict(params, b), samples, slots=28)
        b = predict_in_chunks(lambda b: predict(params, b), samples, slots=28)
        np.testing.assert_array_equal(a, b)
        # different chunkings agree to roundoff (BLAS blocking may differ)
        whole = predict_in_chunks(lambda b: predict(params, b), samples, slots=10**9)
        np.testing.assert_allclose(whole, a, rtol=0, atol=1e-12)

    def test_chunked_prediction_keeps_input_order(self, small_dataset, monkeypatch):
        monkeypatch.setattr(training, "usable_cpus", lambda: 1)  # chunks visited in order
        splits = small_dataset.split_tables()
        state = fit_transforms(splits["train"], small_dataset.schema)
        enc = encode_events(splits["train"].select(np.arange(12)), state, small_dataset.schema)
        cfg = ModelConfig(max_seq_len=20, d_model=8, n_layers=1, n_heads=2)
        params = init_params(cfg, small_dataset.schema, seed=0)
        samples = build_samples(enc, cfg)
        # shuffle so that prefix lengths interleave instead of rising per event
        perm = np.random.default_rng(0).permutation(samples.size)
        shuffled = replace(samples, event=samples.event[perm], prefix_len=samples.prefix_len[perm])
        np.testing.assert_array_equal(shuffled.targets, samples.targets[perm])
        assert np.any(np.diff(shuffled.prefix_len[:20]) < 0)
        seen = []

        def predict_fn(batch):
            seen.append(batch.mask.sum(axis=1))
            return predict(params, batch)

        chunked = predict_in_chunks(predict_fn, shuffled, slots=64)
        # rows were visited shortest prefix first
        visited = np.concatenate(seen)
        assert np.all(np.diff(visited) >= 0) and visited.size == samples.size
        single = np.array([predict(params, shuffled.batch([i]))[0] for i in range(samples.size)])
        np.testing.assert_allclose(chunked, single, rtol=0, atol=1e-12)

    @staticmethod
    def _train_samples(small_dataset):
        splits = small_dataset.split_tables()
        state = fit_transforms(splits["train"], small_dataset.schema)
        enc = encode_events(splits["train"], state, small_dataset.schema)
        return build_samples(enc, ModelConfig(max_seq_len=20, d_model=8, n_layers=1, n_heads=2))

    @pytest.mark.parametrize("slots", [5, 28, 2048])
    def test_chunks_fill_their_slot_budget(self, small_dataset, slots, monkeypatch):
        # on one CPU the pass is serial at any BLAS thread count, so the
        # chunks arrive in the order they are cut
        monkeypatch.setattr(training, "usable_cpus", lambda: 1)
        samples = self._train_samples(small_dataset)
        chunks = []  # (rows, widest, narrowest) per chunk

        def record(batch):
            chunks.append((batch.size, batch.mask.shape[1], int(batch.lengths.min())))
            return np.zeros(batch.size)

        predict_in_chunks(record, samples, slots)
        rows, widest, narrowest = np.array(chunks).T
        assert rows.sum() == samples.size
        alone = widest > slots  # a row wider than the budget is a chunk of its own
        assert alone.any() == (samples.width.max() > slots)
        assert np.all(rows[alone] == 1)
        assert np.all(rows[~alone] * widest[~alone] <= slots)
        # one more row, the next chunk's narrowest, would not have fit
        assert np.all((rows[:-1] + 1) * narrowest[1:] > slots)

    @pytest.mark.parametrize("slots", [1, 28, 10**9])
    def test_predictions_come_back_in_input_order(self, small_dataset, slots):
        samples = self._train_samples(small_dataset)
        perm = np.random.default_rng(1).permutation(samples.size)
        shuffled = replace(samples, event=samples.event[perm], prefix_len=samples.prefix_len[perm])

        def last_row(batch):  # exact per row: no sum runs over the padding
            rows, last = np.arange(batch.size), batch.lengths - 1
            return batch.cont[rows, last, 0] + batch.deltas[rows, last] + 1000.0 * batch.lengths

        want = np.array([last_row(shuffled.batch([i]))[0] for i in range(shuffled.size)])
        np.testing.assert_array_equal(predict_in_chunks(last_row, shuffled, slots), want)


@pytest.fixture(scope="module")
def long_split():
    """A desk model and the test split of 12-20-revision events, as ``eval_long`` predicts."""
    gen = GeneratorConfig(
        seed=3, storms_per_class=5, events_per_storm=(20, 20), revisions_per_event=(12, 20)
    )
    dataset = generate_dataset(gen)
    splits = dataset.split_tables()
    state = fit_transforms(splits["train"], dataset.schema)
    cfg = ModelConfig(d_model=32, n_layers=2, n_heads=4)
    params = init_params(cfg, dataset.schema, seed=0)
    return params, build_samples(encode_events(splits["test"], state, dataset.schema), cfg)


def _serial_pass(params, samples):
    """The chunks of a pass cut as ``predict_in_chunks`` documents, predicted one after another."""
    order = np.argsort(samples.width, kind="stable")
    front, preds, start = samples.token_front(), np.empty(samples.size), 0
    chunks = 0
    while start < order.size:
        stop = start + 1  # rows x widest window within CHUNK_SLOTS, or one row alone
        while stop < order.size and (stop - start + 1) * samples.width[order[stop]] <= CHUNK_SLOTS:
            stop += 1
        preds[order[start:stop]] = predict(params, samples.batch(order[start:stop], front))
        start, chunks = stop, chunks + 1
    return preds, chunks


@pytest.mark.skipif(blas_threads() is None, reason="the pool runs over OpenBLAS only")
class TestPooledPass:
    """With OpenBLAS at one thread a pass predicts its chunks on a pool of its CPUs."""

    @pytest.fixture(autouse=True)
    def cpus(self, monkeypatch):
        """The process's CPUs as the pass sees them: 64 unless a test sets fewer."""
        monkeypatch.setattr(training, "usable_cpus", lambda: self.n_cpus)
        self.n_cpus = 64

    @staticmethod
    def _threads_of(params, samples):
        """The pass's predictions and the thread of each chunk."""
        threads = []

        def fn(batch):
            threads.append(threading.get_ident())
            return predict(params, batch)

        return predict_in_chunks(fn, samples), threads

    def test_pooled_pass_equals_a_serial_loop_bit_for_bit(self, long_split):
        params, samples = long_split
        with blas_threads_at(1):
            want, chunks = _serial_pass(params, samples)
            got, threads = self._threads_of(params, samples)
        assert chunks >= 6 and len(threads) == chunks
        # the first chunk on this thread, the others on at most PREDICT_THREADS
        # of a pool however many CPUs the process has
        assert threads[0] == threading.get_ident()
        assert 1 < len(set(threads[1:])) <= PREDICT_THREADS
        np.testing.assert_array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_many_workers_switching_often_lose_no_row(self, long_split, monkeypatch):
        # more workers than CPUs over 64-slot chunks, with the interpreter
        # switching threads every microsecond: a lost or misplaced write of a
        # chunk's rows would leave np.empty's garbage or another row's value
        params, samples = long_split
        fn = lambda batch: predict(params, batch)
        with blas_threads_at(1):
            self.n_cpus = 1
            want = predict_in_chunks(fn, samples, slots=64)
            self.n_cpus = 64
            monkeypatch.setattr(training, "PREDICT_THREADS", 8)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                got = predict_in_chunks(fn, samples, slots=64)
            finally:
                sys.setswitchinterval(interval)
        np.testing.assert_array_equal(got, want)

    def test_a_pass_on_one_cpu_or_over_multithreaded_blas_stays_serial(self, long_split):
        params, samples = long_split
        with blas_threads_at(2):
            _, over_blas = self._threads_of(params, samples)
        self.n_cpus = 1
        with blas_threads_at(1):
            _, one_cpu = self._threads_of(params, samples)
        assert set(over_blas) == set(one_cpu) == {threading.get_ident()}

    def test_a_failing_chunk_raises_as_serially_and_leaves_no_thread(self, long_split):
        params, samples = long_split

        def fn(batch):  # from the 16-wide chunks on, each fails with its own message
            if batch.mask.shape[1] >= 16:
                raise ValueError(f"chunk {zlib.crc32(batch.tokens.ids.tobytes())}")
            return predict(params, batch)

        with pytest.raises(ValueError) as serial:
            predict_in_chunks(fn, samples)
        before = threading.active_count()
        with blas_threads_at(1), pytest.raises(ValueError) as pooled:
            predict_in_chunks(fn, samples)
        assert str(pooled.value) == str(serial.value)
        assert threading.active_count() == before


class TestTokenPass:
    """A prediction pass computes the model's front once per distinct token.

    The oracle is the same chunks predicted from each batch's own slots
    (``tokens=None``): the two must agree bit for bit.
    """

    CONFIGS = {
        "default": ModelConfig(),
        "windowed": ModelConfig(max_seq_len=4, d_model=8, n_layers=2, n_heads=2),
        "one_layer": ModelConfig(max_seq_len=20, d_model=8, n_layers=1, n_heads=2),
        "no_layers": ModelConfig(max_seq_len=20, d_model=8, n_layers=0, n_heads=2),
    }

    @staticmethod
    def _samples(small_dataset, cfg):
        splits = small_dataset.split_tables()
        state = fit_transforms(splits["train"], small_dataset.schema)
        return build_samples(encode_events(splits["test"], state, small_dataset.schema), cfg)

    @staticmethod
    def _own_slots(params):
        return lambda batch: predict(params, replace(batch, tokens=None))

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_token_pass_equals_per_batch_predict(self, small_dataset, name):
        cfg = self.CONFIGS[name]
        samples = self._samples(small_dataset, cfg)
        params = init_params(cfg, small_dataset.schema, seed=5)
        used = []

        def token_fn(batch):
            used.append(batch.tokens is not None)
            return predict(params, batch)

        got = predict_in_chunks(token_fn, samples)
        assert all(used)
        np.testing.assert_array_equal(got, predict_in_chunks(self._own_slots(params), samples))
        windowed = samples.prefix_len > cfg.max_seq_len
        assert windowed.any() == (name == "windowed")
        # the table's rows are the tokens every earlier window shares; each later
        # window brings max_seq_len tokens of its own
        shared = samples.token_front().size - cfg.max_seq_len * windowed.sum()
        assert shared == samples.events.deltas.size < samples.width[~windowed].sum()

    @pytest.mark.parametrize("name", ["default", "windowed"])
    def test_token_start_reproduces_every_slot(self, small_dataset, name):
        samples = self._samples(small_dataset, self.CONFIGS[name])
        front = samples.token_front()
        assert front.size < samples.width.sum()
        for idx in np.array_split(np.arange(samples.size), 7):
            batch = samples.batch(idx, front)
            ids, mask = batch.tokens.ids, batch.mask
            assert ids.shape == mask.shape
            for token_col, col in zip(front.rows, (batch.cat_idx, batch.cont, batch.deltas)):
                np.testing.assert_array_equal(token_col[ids][mask], col[mask])

    def test_rows_without_restarted_windows_are_the_tables_own(self, small_dataset):
        samples = self._samples(small_dataset, self.CONFIGS["default"])
        assert not (samples.prefix_len > samples.max_seq_len).any()
        table = samples.events
        columns = (table.cat_idx, table.cont, table.deltas)
        for rows, column in zip(samples.token_front().rows, columns):
            assert np.shares_memory(rows, column)

    def test_rows_are_built_once_per_set(self, small_dataset):
        samples = self._samples(small_dataset, self.CONFIGS["windowed"])
        assert (samples.prefix_len > samples.max_seq_len).any()
        first, second = samples.token_front(), samples.token_front()
        assert first is not second  # a fresh front per pass, over the same rows
        assert all(a is b for a, b in zip(first.rows, second.rows))
        assert not np.shares_memory(first.rows[2], samples.events.deltas)

    @pytest.mark.parametrize("name", ["default", "windowed"])
    def test_padded_slots_are_zero_and_name_the_window_start(self, small_dataset, name):
        samples = self._samples(small_dataset, self.CONFIGS[name])
        front = samples.token_front()
        padded = 0
        for idx in np.array_split(np.arange(samples.size), 7):
            batch, plain = samples.batch(idx, front), samples.batch(idx)
            pad = ~batch.mask
            padded += int(pad.sum())
            for col in (batch.cat_idx, batch.cont, batch.deltas):
                assert not col[pad].any()
            starts = np.broadcast_to(samples.token_start[idx][:, None], pad.shape)
            np.testing.assert_array_equal(batch.tokens.ids[pad], starts[pad])
            assert plain.tokens is None
            for field in ("cat_idx", "cont", "deltas"):
                np.testing.assert_array_equal(getattr(plain, field), getattr(batch, field))
        assert padded > 0

    @pytest.mark.parametrize("name", ["windowed", "one_layer"])
    def test_padded_slots_may_name_any_token(self, small_dataset, name):
        cfg = self.CONFIGS[name]
        samples = self._samples(small_dataset, cfg)
        params = init_params(cfg, small_dataset.schema, seed=6)
        rng = np.random.default_rng(7)
        front = samples.token_front()
        padded = 0
        for idx in np.array_split(np.arange(samples.size), 5):
            batch = samples.batch(idx, front)
            ids = batch.tokens.ids.copy()
            pad = ~batch.mask
            ids[pad] = rng.integers(0, front.size, size=int(pad.sum()))
            padded += int(pad.sum())
            scrambled = replace(batch, tokens=replace(batch.tokens, ids=ids))
            np.testing.assert_array_equal(
                predict(params, scrambled), predict(params, replace(batch, tokens=None))
            )
        assert padded > 0

    def test_token_ids_must_name_tokens_of_the_pass(self, small_dataset):
        cfg = self.CONFIGS["windowed"]
        samples = self._samples(small_dataset, cfg)
        params = init_params(cfg, small_dataset.schema, seed=6)
        front = samples.token_front()
        batch = samples.batch(np.arange(10), front)
        for bad in (batch.tokens.ids + front.size, batch.tokens.ids[:, :1], batch.tokens.ids - 1):
            with pytest.raises(ValueError, match="token ids"):
                predict(params, replace(batch, tokens=replace(batch.tokens, ids=bad)))

    def test_no_state_outlives_a_pass(self, small_dataset):
        cfg = self.CONFIGS["windowed"]
        samples = self._samples(small_dataset, cfg)
        params = init_params(cfg, small_dataset.schema, seed=8)
        magnitudes = small_dataset.magnitude_of()
        kept = []

        def model_fn(batch):
            kept.append(batch)
            return predict(params, batch)

        runs = []
        for _ in range(2):
            got = evaluate(model_fn, samples, magnitudes)
            want = evaluate(self._own_slots(params), samples, magnitudes)
            assert got[1] == want[1] and got[0].to_dict() == want[0].to_dict()
            runs.append(got[1])
            # an optimizer step: the same arrays change in place
            for name in ("embed/priority", "proj/W", "layer0/attn/q/W", "layer0/attn/v/b"):
                params.tensors[name] *= 1.5
        assert runs[0] != runs[1]
        # a batch kept past its pass holds no states from before the step
        late = kept[-1]
        np.testing.assert_array_equal(
            predict(params, late), predict(params, replace(late, tokens=None))
        )

    def test_front_runs_once_per_pass_and_records_nothing(self, small_dataset, monkeypatch):
        from etrcast import model as model_module

        cfg = ModelConfig(max_seq_len=20, d_model=8, n_layers=2, n_heads=2)
        samples = self._samples(small_dataset, cfg)
        params = init_params(cfg, small_dataset.schema, seed=9)
        tapes = []
        ops = {"embedding": 0, "transpose": 0}

        class SpyTape(model_module.Tape):
            def __init__(self):
                super().__init__()
                tapes.append(self)

            def embedding(self, table, idx):
                ops["embedding"] += 1
                return super().embedding(table, idx)

            def transpose(self, a, axes):
                ops["transpose"] += 1
                return super().transpose(a, axes)

        monkeypatch.setattr(model_module, "Tape", SpyTape)
        monkeypatch.setattr(training, "usable_cpus", lambda: 1)  # ops counted on one thread
        for fn, per_chunk in ((lambda b: predict(params, b), 5), (self._own_slots(params), 8)):
            tapes.clear()
            ops.update(embedding=0, transpose=0)
            predict_in_chunks(fn, samples, slots=64)
            assert len(tapes) > 1 and all(tape._nodes == [] for tape in tapes)
            # layer 0 gathers q, k and v in head layout: 3 transposes fewer per chunk
            assert ops["transpose"] == per_chunk * len(tapes)
            p = small_dataset.schema.p
            assert ops["embedding"] == (p if per_chunk == 5 else p * len(tapes))

    def test_weights_bound_once_per_pass(self, small_dataset, monkeypatch):
        from etrcast.autodiff import Tape

        cfg = self.CONFIGS["windowed"]
        samples = self._samples(small_dataset, cfg)
        params = init_params(cfg, small_dataset.schema, seed=10)
        bound = []
        constant = Tape.constant

        def spy(tape, value):
            bound.extend(name for name, arr in params.tensors.items() if arr is value)
            return constant(tape, value)

        monkeypatch.setattr(Tape, "constant", spy)
        for fn, passes in ((lambda b: predict(params, b), 1), (self._own_slots(params), None)):
            bound.clear()
            chunks = []
            predict_in_chunks(lambda b: chunks.append(b) or fn(b), samples, slots=64)
            assert len(chunks) > 1
            # a token pass binds each tensor once; the own-slot route once per chunk
            assert sorted(bound) == sorted([*params.tensors] * (passes or len(chunks)))

    def test_a_pass_front_is_freed_by_reference_counting(self, small_dataset):
        # a front left to the cycle collector outlives its pass with all its rows
        cfg = self.CONFIGS["windowed"]
        samples = self._samples(small_dataset, cfg)
        params = init_params(cfg, small_dataset.schema, seed=11)
        fronts = []

        def fn(batch):
            fronts.append(weakref.ref(batch.tokens.front))
            return predict(params, batch)

        gc.disable()
        try:
            predict_in_chunks(fn, samples, slots=64)
            assert len(fronts) > 1 and all(ref() is None for ref in fronts)
        finally:
            gc.enable()
