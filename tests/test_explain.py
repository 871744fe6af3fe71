import math
import os

import numpy as np
import pytest

from etrcast import explain as explain_mod
from etrcast.data import FeatureSchema, fit_transforms
from etrcast.explain import (
    aggregate_topk,
    export_heatmap,
    extract_attention,
    final_revision_features,
    shapley_attributions,
    write_attributions,
    write_topk,
)
from etrcast.model import ModelConfig, SequenceBatch, init_params, predict
from etrcast.training import build_samples, encode_events

from conftest import event_batch, make_batch


def linear_predict_fn(w_cont, bias=0.0):
    """Predictor reading only the last valid revision's continuous block."""

    def fn(batch):
        idx = batch.mask.sum(axis=1) - 1
        rows = batch.cont[np.arange(batch.cont.shape[0]), idx]
        return rows @ w_cont + bias

    return fn


def single_sample(schema, config, seed=0, length=3):
    batch = make_batch(schema, config, n=1, seed=seed, lengths=[length])
    return batch


class TestShapley:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.k = 64
        # one categorical column (ignored by the predictor) + 3 continuous
        self.bg_cat = rng.integers(0, 3, size=(self.k, 1))
        self.bg_cont = rng.normal(size=(self.k, 3))

    def make_sample(self, cont_last):
        cat = np.zeros((1, 2, 1), dtype=np.int64)
        cont = np.zeros((1, 2, 3))
        cont[0, -1] = cont_last
        deltas = np.array([[0.0, 1.0]])
        mask = np.ones((1, 2), dtype=bool)
        return SequenceBatch(cat, cont, deltas, mask)

    def test_constant_predictor_all_zero(self):
        fn = lambda batch: np.full(batch.mask.shape[0], 5.0)
        sample = self.make_sample([1.0, 2.0, 3.0])
        attr = shapley_attributions(fn, sample, self.bg_cat, self.bg_cont, 200, seed=1)
        np.testing.assert_array_equal(attr.values, 0.0)
        np.testing.assert_array_equal(attr.std_errors, 0.0)
        assert attr.efficiency_residual() == 0.0

    def test_linear_analytic(self):
        w = np.array([4.0, -2.0, 1.0])
        fn = linear_predict_fn(w, bias=3.0)
        x = np.array([2.0, 1.0, -1.5])
        sample = self.make_sample(x)
        attr = shapley_attributions(fn, sample, self.bg_cat, self.bg_cont, 2000, seed=2)
        # cat feature (index 0) is a null player
        assert attr.values[0] == 0.0
        expect = w * (x - self.bg_cont.mean(axis=0))
        got = attr.values[1:]
        for g, e in zip(got, expect):
            assert abs(g - e) <= 0.05 * max(abs(e), 1e-9) + 3 * attr.std_errors[1:].max()
        # efficiency is exact for the drawn backgrounds
        assert abs(attr.efficiency_residual()) < 1e-9

    def test_null_player_exact_zero(self):
        w = np.array([1.0, 1.0, 0.0])  # third continuous feature unused
        fn = linear_predict_fn(w)
        sample = self.make_sample([1.0, 2.0, 9.0])
        attr = shapley_attributions(fn, sample, self.bg_cat, self.bg_cont, 300, seed=3)
        assert attr.values[3] == 0.0

    def test_symmetric_features_agree(self):
        w = np.array([2.0, 2.0, 0.0])
        fn = linear_predict_fn(w)
        bg = self.bg_cont.copy()
        bg[:, 1] = bg[:, 0]  # identical background marginals
        sample = self.make_sample([1.5, 1.5, 0.0])
        attr = shapley_attributions(fn, sample, self.bg_cat, bg, 2000, seed=4)
        se = np.hypot(attr.std_errors[1], attr.std_errors[2])
        assert abs(attr.values[1] - attr.values[2]) <= 3 * se + 1e-12

    def test_deterministic_for_seed(self):
        fn = linear_predict_fn(np.array([1.0, 2.0, 3.0]))
        sample = self.make_sample([0.5, -0.5, 1.0])
        a = shapley_attributions(fn, sample, self.bg_cat, self.bg_cont, 100, seed=7)
        b = shapley_attributions(fn, sample, self.bg_cat, self.bg_cont, 100, seed=7)
        np.testing.assert_array_equal(a.values, b.values)
        c = shapley_attributions(fn, sample, self.bg_cat, self.bg_cont, 100, seed=8)
        assert not np.array_equal(a.values, c.values)

    def test_feature_count_mismatch_rejected(self):
        fn = linear_predict_fn(np.array([1.0, 2.0, 3.0]))
        sample = self.make_sample([0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="feature"):
            shapley_attributions(
                fn, sample, self.bg_cat, self.bg_cont, 10, feature_names=("a", "b")
            )

    def test_requires_single_sample(self):
        fn = linear_predict_fn(np.array([1.0, 2.0, 3.0]))
        cat = np.zeros((2, 2, 1), dtype=np.int64)
        cont = np.zeros((2, 2, 3))
        batch = SequenceBatch(cat, cont, np.zeros((2, 2)), np.ones((2, 2), bool))
        with pytest.raises(ValueError):
            shapley_attributions(fn, batch, self.bg_cat, self.bg_cont, 10)

    def test_revision_index_recorded(self):
        fn = linear_predict_fn(np.array([1.0, 0.0, 0.0]))
        sample = self.make_sample([1.0, 0.0, 0.0])
        attr = shapley_attributions(fn, sample, self.bg_cat, self.bg_cont, 20, seed=0)
        assert attr.revision_index == 2


class TestBatchedShapley:
    """K permutations per predict call give the one-per-call estimator's results."""

    def setup_method(self):
        self.schema = FeatureSchema(
            (("kind", "categorical"), ("zone", "categorical"))
            + tuple((f"x{i}", "continuous") for i in range(9)),
            {"kind": 3, "zone": 4},
        )
        self.config = ModelConfig(max_seq_len=6, d_model=8, n_layers=2, n_heads=2)
        self.params = init_params(self.config, self.schema, seed=1)
        bg = make_batch(self.schema, self.config, n=16, seed=2, lengths=[4] * 16)
        self.bg_cat, self.bg_cont = final_revision_features(bg)
        self.sample = make_batch(self.schema, self.config, n=1, seed=3, lengths=[4])
        self.d = self.schema.p + self.schema.q  # 11: K = 8 at 96 rows per call

    def attribute(self, n_permutations, calls=None):
        def fn(batch):
            if calls is not None:
                calls.append(batch.size)
            return predict(self.params, batch)

        return shapley_attributions(
            fn, self.sample, self.bg_cat, self.bg_cont, n_permutations, seed=11
        )

    def test_matches_one_permutation_per_call(self, monkeypatch):
        batched = self.attribute(37)
        monkeypatch.setattr(explain_mod, "ROWS_PER_CALL", self.d + 1)
        single = self.attribute(37)
        for field in ("values", "std_errors", "prediction", "background_mean"):
            np.testing.assert_allclose(
                getattr(batched, field), getattr(single, field), rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("n_permutations", [1, 13, 37])
    def test_predict_calls_and_efficiency(self, n_permutations):
        per_call = max(1, explain_mod.ROWS_PER_CALL // (self.d + 1))
        calls = []
        attr = self.attribute(n_permutations, calls)
        assert len(calls) == 1 + math.ceil(n_permutations / per_call)
        assert calls[0] == 1 and sum(calls[1:]) == n_permutations * (self.d + 1)
        assert attr.n_permutations == n_permutations
        assert abs(attr.efficiency_residual()) <= 1e-9


class TestAggregateTopk:
    def test_ranking_and_clamp(self):
        from etrcast.explain import AttributionSet

        mk = lambda vals, rev: AttributionSet(
            feature_names=("a", "b", "c"),
            values=np.asarray(vals, float),
            std_errors=np.zeros(3),
            n_permutations=10,
            prediction=1.0,
            background_mean=0.0,
            revision_index=rev,
        )
        sets = [mk([1.0, -3.0, 0.5], 1), mk([2.0, 1.0, 0.0], 1), mk([0.0, 0.0, 1.0], 2)]
        report = aggregate_topk(sets, revision_range=3, k=2)
        # revision 1: mean abs a=1.5, b=2.0, c=0.25
        assert [n for n, _ in report.per_revision[1]] == ["b", "a"]
        assert report.per_revision[1][0][1] == 2.0
        # revision 2 has one sample; k clamps to available features
        assert len(report.per_revision[2]) == 2
        assert any("revision index 3" in n for n in report.notes)

    def test_inconsistent_names_rejected(self):
        from etrcast.explain import AttributionSet

        a = AttributionSet(("x",), np.zeros(1), np.zeros(1), 5, 0.0, 0.0, 1)
        b = AttributionSet(("y",), np.zeros(1), np.zeros(1), 5, 0.0, 0.0, 1)
        with pytest.raises(ValueError):
            aggregate_topk([a, b], revision_range=1, k=1)

    def test_write_outputs_deterministic(self, tmp_path):
        from etrcast.explain import AttributionSet

        attr = AttributionSet(
            ("f1", "f2"), np.array([0.5, -1.5]), np.array([0.1, 0.2]), 50, 2.0, 1.0, 1
        )
        report = aggregate_topk([attr], revision_range=1, k=2)
        p1 = tmp_path / "topk.txt"
        p2 = tmp_path / "topk2.txt"
        write_topk(report, str(p1))
        write_topk(report, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        a1 = tmp_path / "attr.txt"
        write_attributions([attr], str(a1))
        text = a1.read_text()
        assert "f2" in text and "f1" in text
        # every numeric column parses as a plain number
        rows = [line.split() for line in text.splitlines() if not line.startswith("#")]
        assert len(rows) == 2
        for revision, _, value, se, share in rows:
            int(revision)
            assert [float(value), float(se), float(share)] in ([0.5, 0.1, 0.25], [-1.5, 0.2, 0.75])


class TestAttention:
    def test_extract_shapes_and_selection(self, micro_params, micro_config, micro_schema):
        batch = make_batch(micro_schema, micro_config, n=1, seed=1, lengths=[4])
        single = event_batch(batch.cat_idx[0, :4], batch.cont[0, :4], batch.deltas[0, :4])
        stack = extract_attention(micro_params, single, n_random_heads=1, seed=0)
        assert stack.valid_len == 4
        assert len(stack.layers) == micro_config.n_layers
        for la in stack.layers:
            assert len(la.head_indices) == 1
            assert la.head_weights.shape == (1, 4, 4)
            assert la.mean_weights.shape == (4, 4)
            np.testing.assert_allclose(la.mean_weights.sum(axis=1), 1.0, atol=1e-9)

    def test_explicit_heads_and_layers(self, micro_params, micro_schema, micro_config):
        batch = make_batch(micro_schema, micro_config, n=1, seed=2, lengths=[3])
        single = event_batch(batch.cat_idx[0, :3], batch.cont[0, :3], batch.deltas[0, :3])
        stack = extract_attention(micro_params, single, layers=[1], heads=[0, 1])
        assert [la.layer for la in stack.layers] == [1]
        assert stack.layers[0].head_indices == (0, 1)

    def test_random_head_choice_is_seeded(self, micro_schema):
        cfg = ModelConfig(max_seq_len=5, d_model=16, n_layers=2, n_heads=4)
        params = init_params(cfg, micro_schema, seed=0)
        batch = make_batch(micro_schema, cfg, n=1, seed=3, lengths=[4])
        single = event_batch(batch.cat_idx[0, :4], batch.cont[0, :4], batch.deltas[0, :4])
        a = extract_attention(params, single, n_random_heads=2, seed=5)
        b = extract_attention(params, single, n_random_heads=2, seed=5)
        assert [x.head_indices for x in a.layers] == [x.head_indices for x in b.layers]

    def test_single_revision_event(self, micro_params, micro_schema, micro_config):
        batch = make_batch(micro_schema, micro_config, n=1, seed=4, lengths=[1])
        single = event_batch(batch.cat_idx[0, :1], batch.cont[0, :1], batch.deltas[0, :1])
        stack = extract_attention(micro_params, single)
        for la in stack.layers:
            np.testing.assert_array_equal(la.mean_weights, [[1.0]])

    def test_export_grid_values(self, micro_params, micro_schema, micro_config, tmp_path):
        batch = make_batch(micro_schema, micro_config, n=1, seed=5, lengths=[3])
        single = event_batch(batch.cat_idx[0, :3], batch.cont[0, :3], batch.deltas[0, :3])
        stack = extract_attention(micro_params, single)
        paths = export_heatmap(stack, str(tmp_path))
        assert len(paths) == micro_config.n_layers
        for path, la in zip(paths, stack.layers):
            lines = open(path).read().splitlines()
            assert lines[0].startswith("# attention heatmap layer=")
            grid = np.array([[float(v) for v in line.split()] for line in lines[1:]])
            np.testing.assert_array_equal(grid, la.mean_weights)
            np.testing.assert_allclose(grid.sum(axis=1), 1.0, atol=1e-9)

    def test_capture_does_not_perturb_predictions(self, micro_params, micro_schema, micro_config):
        batch = make_batch(micro_schema, micro_config, n=3, seed=6)
        plain = predict(micro_params, batch)
        captured = predict(micro_params, batch, capture=[])
        np.testing.assert_array_equal(plain, captured)

    def test_invalid_layer_rejected(self, micro_params, micro_schema, micro_config):
        batch = make_batch(micro_schema, micro_config, n=1, seed=7, lengths=[2])
        single = event_batch(batch.cat_idx[0, :2], batch.cont[0, :2], batch.deltas[0, :2])
        with pytest.raises(ValueError):
            extract_attention(micro_params, single, layers=[9])
        with pytest.raises(ValueError):
            extract_attention(micro_params, single, heads=[99])


class TestFinalRevisionFeatures:
    def test_reads_last_valid_row(self, micro_schema, micro_config):
        batch = make_batch(micro_schema, micro_config, n=3, seed=8, lengths=[2, 5, 1])
        cat, cont = final_revision_features(batch)
        for i, k in enumerate((2, 5, 1)):
            np.testing.assert_array_equal(cat[i], batch.cat_idx[i, k - 1])
            np.testing.assert_array_equal(cont[i], batch.cont[i, k - 1])


class TestEndToEndExplain:
    def test_filler_ranks_below_planted_signal(self, small_dataset):
        # predictor with planted weights: real features carry signal, filler
        # columns carry exactly zero, so the ranking oracle is exact
        schema = small_dataset.schema
        cfg = ModelConfig(max_seq_len=20, d_model=8, n_layers=1, n_heads=2)
        splits = small_dataset.split_tables()
        state = fit_transforms(splits["train"], schema)
        enc = encode_events(splits["train"], state, schema)
        samples = build_samples(enc, cfg)
        names = tuple(schema.categorical) + tuple(schema.continuous)

        signal_names = (
            "customers_under_outage",
            "crew_dispatched_events",
            "crew_unassigned_transitions",
            "rolling_avg_restore_last_25",
            "concurrent_event_count",
        )
        w = np.zeros(len(schema.continuous))
        for weight, name in zip((2.0, 0.8, 1.0, 1.5, 0.5), signal_names):
            w[schema.continuous.index(name)] = weight
        fn = linear_predict_fn(w, bias=10.0)

        rows = np.flatnonzero(samples.prefix_len == 3)[:4]
        bg_rows = np.flatnonzero(samples.prefix_len == 3)[:32]
        bg_cat, bg_cont = final_revision_features(samples.batch(bg_rows))
        sets = []
        for row in rows:
            sample = samples.batch(np.asarray([row]))
            sets.append(
                shapley_attributions(
                    fn, sample, bg_cat, bg_cont, 400, seed=int(row), feature_names=names
                )
            )
        report = aggregate_topk(sets, revision_range=3, k=len(names))
        ranked = [n for n, _ in report.per_revision[3]]
        filler = {n for n in names if n.startswith("filler_")}
        worst_signal = max(ranked.index(s) for s in signal_names)
        best_filler = min(ranked.index(f) for f in filler)
        assert worst_signal < best_filler
        scores = dict(report.per_revision[3])
        assert all(scores[f] == 0.0 for f in filler)
