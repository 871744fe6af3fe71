import inspect
import math
from collections import Counter

import numpy as np
import pytest

from etrcast.autodiff import Tape
from etrcast.cli import SCALES
from etrcast.data import FeatureSchema, TransformState
from etrcast import model as model_module
from etrcast.losses import LossConfig, asymmetric_loss
from etrcast.model import (
    ModelConfig,
    ModelParams,
    SequenceBatch,
    embed_dim,
    forward,
    init_params,
    load_checkpoint,
    positional_encode,
    predict,
    save_checkpoint,
    token_batch,
    validate_batch,
)

import _reference_model as reference
from _reference_gradients import fd_check
from conftest import make_batch


class TestConfig:
    def test_defaults(self):
        cfg = ModelConfig()
        assert cfg.max_seq_len == 20
        assert cfg.d_model == 128
        assert cfg.n_layers == 6
        assert cfg.n_heads == 16
        assert cfg.ffn_hidden == 512
        assert cfg.head_hidden == 128
        assert cfg.pe_base == 10000.0

    def test_divisibility(self):
        with pytest.raises(ValueError):
            ModelConfig(d_model=10, n_heads=3)

    def test_activation_checked(self):
        with pytest.raises(ValueError):
            ModelConfig(activation="gelu")

    @pytest.mark.parametrize("bias", [math.nan, math.inf, -math.inf])
    def test_head_bias_init_must_be_finite(self, bias):
        with pytest.raises(ValueError, match="head_bias_init"):
            ModelConfig(head_bias_init=bias)

    def test_embed_dim_rule(self):
        assert embed_dim(4) == 2
        assert embed_dim(5) == 3
        assert embed_dim(2) == 2  # ceil(sqrt(2)) = 2
        assert embed_dim(1000) == 16  # capped
        assert embed_dim(1000, cap=8) == 8


class TestInit:
    def test_deterministic(self, micro_config, micro_schema):
        a = init_params(micro_config, micro_schema, seed=5)
        b = init_params(micro_config, micro_schema, seed=5)
        assert set(a.tensors) == set(b.tensors)
        for k in a.tensors:
            np.testing.assert_array_equal(a.tensors[k], b.tensors[k])
        c = init_params(micro_config, micro_schema, seed=6)
        assert any(
            not np.array_equal(a.tensors[k], c.tensors[k]) for k in a.tensors
        )

    def test_embedding_table_shapes(self, micro_config, micro_schema):
        params = init_params(micro_config, micro_schema, seed=0)
        table = params.tensors["embed/kind"]
        # cardinality 3 plus the unknown slot
        assert table.shape == (4, embed_dim(3))

    def test_layer_norm_gains_start_at_one(self, micro_config, micro_schema):
        params = init_params(micro_config, micro_schema, seed=0)
        for name, value in params.tensors.items():
            if name.endswith("ln1/g") or name.endswith("ln2/g"):
                np.testing.assert_array_equal(value, 1.0)
            if name.endswith("/b") and "ln" in name:
                np.testing.assert_array_equal(value, 0.0)

    def test_weight_scale_tracks_fan_in(self, micro_schema):
        cfg = ModelConfig(max_seq_len=5, d_model=64, n_layers=1, n_heads=4)
        params = init_params(cfg, micro_schema, seed=0)
        w = params.tensors["layer0/attn/q/W"]
        expect = 1.0 / math.sqrt(w.shape[0])
        assert abs(w.std() - expect) / expect < 0.2

    def test_head_bias_init(self, micro_schema):
        cfg = ModelConfig(max_seq_len=5, d_model=8, n_layers=1, n_heads=2, head_bias_init=12.5)
        params = init_params(cfg, micro_schema, seed=0)
        np.testing.assert_array_equal(params.tensors["head/2/b"], [12.5])


class TestPositionalEncoding:
    def test_delta_zero_is_cos_one_sin_zero(self):
        pe = positional_encode(np.zeros((1, 1)), d_model=8)
        np.testing.assert_array_equal(pe[0, 0, 0::2], 0.0)
        np.testing.assert_array_equal(pe[0, 0, 1::2], 1.0)

    def test_first_pair_is_sin_cos_of_delta(self):
        deltas = np.array([[3.7]])
        pe = positional_encode(deltas, d_model=6)
        assert pe[0, 0, 0] == math.sin(3.7)
        assert pe[0, 0, 1] == math.cos(3.7)

    def test_frequency_ladder(self):
        d = 8
        delta = 5.0
        pe = positional_encode(np.array([[delta]]), d_model=d, pe_base=10000.0)
        for k in range(d // 2):
            freq = 1.0 / (10000.0 ** (2 * k / d))
            assert abs(pe[0, 0, 2 * k] - math.sin(delta * freq)) < 1e-12
            assert abs(pe[0, 0, 2 * k + 1] - math.cos(delta * freq)) < 1e-12

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            positional_encode(np.array([[-0.5]]), d_model=4)

    def test_values_bounded(self):
        rng = np.random.default_rng(0)
        pe = positional_encode(rng.uniform(0, 500, size=(3, 7)), d_model=16)
        assert np.all(np.abs(pe) <= 1.0)


class TestBatchValidation:
    def test_mask_must_start_true(self, micro_config, micro_schema):
        batch = make_batch(micro_schema, micro_config, n=2, seed=0)
        bad_mask = batch.mask.copy()
        bad_mask[0] = [False, True, True, False, False]
        with pytest.raises(ValueError):
            validate_batch(
                SequenceBatch(batch.cat_idx, batch.cont, batch.deltas, bad_mask),
                micro_config,
                micro_schema,
            )

    def test_mask_must_be_prefix(self, micro_config, micro_schema):
        batch = make_batch(micro_schema, micro_config, n=2, seed=0)
        bad_mask = batch.mask.copy()
        bad_mask[0] = [True, False, True, False, False]
        with pytest.raises(ValueError):
            validate_batch(
                SequenceBatch(batch.cat_idx, batch.cont, batch.deltas, bad_mask),
                micro_config,
                micro_schema,
            )

    def test_shape_checked(self, micro_config, micro_schema):
        batch = make_batch(micro_schema, micro_config, n=2, seed=0)
        with pytest.raises(ValueError):
            validate_batch(
                SequenceBatch(batch.cat_idx[:, :, :0], batch.cont, batch.deltas, batch.mask),
                micro_config,
                micro_schema,
            )

    def test_float_cat_idx_refused(self, micro_config, micro_schema):
        # a float index would reach the embedding lookup, so it is refused, not truncated
        batch = make_batch(micro_schema, micro_config, n=2, seed=0)
        floats = SequenceBatch(batch.cat_idx + 0.5, batch.cont, batch.deltas, batch.mask)
        with pytest.raises(ValueError, match="cat_idx must hold integers"):
            validate_batch(floats, micro_config, micro_schema)

    def test_sanitize_zeroes_padding(self, micro_config, micro_schema):
        batch = make_batch(micro_schema, micro_config, n=3, seed=1, lengths=[2, 5, 1])
        dirty = SequenceBatch(
            np.where(batch.mask[:, :, None], batch.cat_idx, 9999),
            np.where(batch.mask[:, :, None], batch.cont, np.inf),
            np.where(batch.mask, batch.deltas, -np.inf),
            batch.mask,
        )
        n = dirty.mask.size
        slots = tuple(a.reshape(n, *a.shape[2:]) for a in (dirty.cat_idx, dirty.cont, dirty.deltas))
        clean = token_batch(slots, np.arange(n).reshape(dirty.mask.shape), dirty.mask)
        assert np.all(clean.cat_idx[~clean.mask] == 0)
        assert np.all(clean.cont[~clean.mask] == 0.0)
        assert np.all(clean.deltas[~clean.mask] == 0.0)
        np.testing.assert_array_equal(clean.cat_idx[clean.mask], batch.cat_idx[batch.mask])
        assert np.all(dirty.cat_idx[~dirty.mask] == 9999)  # the gather copies


class TestForward:
    def test_zero_layers_is_head_over_embedding(self, micro_schema):
        cfg = ModelConfig(max_seq_len=5, d_model=8, n_layers=0, n_heads=2)
        params = init_params(cfg, micro_schema, seed=0)
        batch = make_batch(micro_schema, cfg, n=2, seed=3)
        out = predict(params, batch)
        assert out.shape == (2,)
        assert np.isfinite(out).all()

    def test_constant_head_outputs_bias(self, micro_config, micro_schema):
        params = init_params(micro_config, micro_schema, seed=0)
        params.tensors["head/2/W"] = np.zeros_like(params.tensors["head/2/W"])
        params.tensors["head/2/b"] = np.array([4.25])
        batch = make_batch(micro_schema, micro_config, n=3, seed=2)
        np.testing.assert_array_equal(predict(params, batch), 4.25)

    def test_duplicate_rows_identical_outputs(self, micro_params, micro_config, micro_schema):
        batch = make_batch(micro_schema, micro_config, n=1, seed=4, lengths=[4])
        double = SequenceBatch(
            np.concatenate([batch.cat_idx, batch.cat_idx]),
            np.concatenate([batch.cont, batch.cont]),
            np.concatenate([batch.deltas, batch.deltas]),
            np.concatenate([batch.mask, batch.mask]),
        )
        out = predict(micro_params, double)
        assert out[0] == out[1]

    @pytest.mark.parametrize("train", [False, True], ids=["inference", "training"])
    def test_padding_garbage_bit_identical(self, micro_params, micro_config, micro_schema, train):
        # garbage in padded slots moves no prediction and, in a training
        # forward, neither the loss nor any gradient; the batch is not written
        batch = make_batch(micro_schema, micro_config, n=4, seed=5, lengths=[1, 3, 4, 5])
        rng = np.random.default_rng(9)
        garbage = SequenceBatch(
            np.where(batch.mask[:, :, None], batch.cat_idx, rng.integers(10**6, 10**9, batch.cat_idx.shape)),
            np.where(batch.mask[:, :, None], batch.cont, rng.normal(size=batch.cont.shape) * 1e300),
            np.where(batch.mask, batch.deltas, -rng.uniform(1e6, 1e9, batch.deltas.shape)),
            batch.mask,
        )
        arrays = lambda b: (b.cat_idx, b.cont, b.deltas, b.mask)
        before = [a.copy() for a in arrays(garbage)]
        targets = np.array([9.0, 4.0, 15.0, 6.0])

        def run(b):
            if not train:
                return predict(micro_params, b), {}
            tape = Tape()
            preds = forward(tape, micro_params, b, train_rng=np.random.default_rng(0))
            loss = tape.scalar_op(preds, lambda p: asymmetric_loss(p, targets, LossConfig()))
            return loss.data, tape.gradients(loss)

        (base, base_grads), (out, grads) = run(batch), run(garbage)
        np.testing.assert_array_equal(out, base)
        assert set(grads) == (set(micro_params.tensors) if train else set()) == set(base_grads)
        for name in grads:
            np.testing.assert_array_equal(grads[name], base_grads[name])
        for old, new in zip(before, arrays(garbage)):
            np.testing.assert_array_equal(new, old)

    def test_order_sensitivity(self, micro_params, micro_config, micro_schema):
        # swapping two real revisions changes the prediction (time matters)
        batch = make_batch(micro_schema, micro_config, n=1, seed=6, lengths=[5])
        swapped_cont = batch.cont.copy()
        swapped_cont[0, [0, 4]] = swapped_cont[0, [4, 0]]
        out_a = predict(micro_params, batch)
        out_b = predict(
            micro_params,
            SequenceBatch(batch.cat_idx, swapped_cont, batch.deltas, batch.mask),
        )
        assert out_a[0] != out_b[0]

    def test_prefix_equals_truncated(self, micro_params, micro_config, micro_schema):
        # a masked prefix of length 3 predicts the same as the 3-row batch
        full = make_batch(micro_schema, micro_config, n=1, seed=7, lengths=[3])
        s = micro_config.max_seq_len
        short = SequenceBatch(
            full.cat_idx[:, :3],
            full.cont[:, :3],
            full.deltas[:, :3],
            full.mask[:, :3],
        )
        np.testing.assert_array_equal(
            predict(micro_params, full), predict(micro_params, short)
        )

    def test_timestamp_translation_bit_identical(self, micro_params, micro_config, micro_schema):
        # deltas are differences; translating the underlying clock by 1e6
        # hours leaves them untouched because stamps sit on a dyadic grid
        from _reference_data import EventSeries, Revision, table_of
        from etrcast.data import fit_transforms
        from etrcast.training import encode_events

        stamps = [100.0, 102.25, 107.5]
        shifted = [t + 1e6 for t in stamps]
        down = [t - 1e6 for t in stamps]
        mk = lambda ts: EventSeries(
            "e", "s", tuple(Revision(t, (0,), (0.5,)) for t in ts), 4.0
        )
        events = table_of([mk(stamps), mk(shifted), mk(down)], micro_schema)
        enc = encode_events(events, fit_transforms(events, micro_schema), micro_schema)
        d0, d_up, d_dn = (enc.deltas[lo:lo + 3].tolist() for lo in enc.offsets[:-1])
        assert d0 == d_up == d_dn

        batch = make_batch(micro_schema, micro_config, n=2, seed=8)
        np.testing.assert_array_equal(predict(micro_params, batch), predict(micro_params, batch))

    def test_dropout_only_when_rng_given(self, micro_schema):
        cfg = ModelConfig(max_seq_len=5, d_model=8, n_layers=1, n_heads=2, dropout=0.5)
        params = init_params(cfg, micro_schema, seed=0)
        batch = make_batch(micro_schema, cfg, n=2, seed=1)
        # inference path ignores dropout entirely
        a = predict(params, batch)
        b = predict(params, batch)
        np.testing.assert_array_equal(a, b)
        # training path with rng perturbs activations
        tape = Tape()
        out = forward(tape, params, batch, train_rng=np.random.default_rng(0))
        assert not np.array_equal(out.data, a)

    def test_attention_capture_shapes(self, micro_params, micro_config, micro_schema):
        batch = make_batch(micro_schema, micro_config, n=2, seed=10, lengths=[3, 5])
        capture = []
        predict(micro_params, batch, capture=capture)
        assert len(capture) == micro_config.n_layers
        s = micro_config.max_seq_len
        for w in capture:
            assert w.shape == (2, micro_config.n_heads, s, s)
            # rows over valid keys sum to 1; padded keys exactly zero
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-9)
            assert np.all(w[0, :, :, 3:] == 0.0)
        # no row uses the last two slots: the capture covers only the used width
        short = make_batch(micro_schema, micro_config, n=2, seed=10, lengths=[3, 2])
        capture = []
        predict(micro_params, short, capture=capture)
        for w in capture:
            assert w.shape == (2, micro_config.n_heads, 3, 3)
            np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-9)

    def test_trim_to_longest_prefix_bit_identical(self, micro_params, micro_config, micro_schema):
        # padded to max_seq_len vs sliced to the longest valid prefix: the
        # same predictions and the same gradients, bit for bit
        padded = make_batch(micro_schema, micro_config, n=3, seed=12, lengths=[1, 3, 2])
        assert padded.mask.shape[1] == micro_config.max_seq_len
        sliced = SequenceBatch(
            padded.cat_idx[:, :3], padded.cont[:, :3], padded.deltas[:, :3], padded.mask[:, :3]
        )
        targets = np.array([9.0, 4.0, 15.0])

        def run(batch):
            tape = Tape()
            preds = forward(tape, micro_params, batch, train_rng=np.random.default_rng(0))
            loss = tape.scalar_op(preds, lambda p: asymmetric_loss(p, targets, LossConfig()))
            return preds.data, tape.gradients(loss)

        preds_p, grads_p = run(padded)
        preds_s, grads_s = run(sliced)
        np.testing.assert_array_equal(preds_p, preds_s)
        np.testing.assert_array_equal(predict(micro_params, padded), preds_s)
        assert set(grads_p) == set(grads_s)
        for name in grads_p:
            np.testing.assert_array_equal(grads_p[name], grads_s[name])


    def test_inference_records_no_tape_nodes(
        self, micro_params, micro_config, micro_schema, monkeypatch
    ):
        batch = make_batch(micro_schema, micro_config, n=3, seed=13, lengths=[2, 5, 4])
        tape = Tape()
        out = forward(tape, micro_params, batch)
        assert tape._nodes == []
        train_tape = Tape()
        forward(train_tape, micro_params, batch, train_rng=np.random.default_rng(0))
        assert train_tape._nodes

        tapes = []

        class SpyTape(Tape):
            def __init__(self):
                super().__init__()
                tapes.append(self)

        monkeypatch.setattr(model_module, "Tape", SpyTape)
        np.testing.assert_array_equal(predict(micro_params, batch), out.data)
        assert len(tapes) == 1 and tapes[0]._nodes == []


class TestReadoutOnlyLastLayer:
    """The last layer runs only at the readout row; the full-layer encoder is the oracle."""

    BATCHES = {
        "padded": [1, 3, 5, 2, 5, 1],  # single-revision and padded rows
        "single": [1, 1, 1],  # L = 1: the readout row is every row
    }

    @staticmethod
    def run(fwd, params, batch, targets):
        tape = Tape()
        preds = fwd(tape, params, batch, train_rng=np.random.default_rng(0))
        loss = tape.scalar_op(preds, lambda p: asymmetric_loss(p, targets, LossConfig()))
        return preds.data, tape.gradients(loss)

    @pytest.mark.parametrize("lengths", sorted(BATCHES))
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("n_layers", [0, 1, 2, 3])
    def test_matches_full_layer_oracle(self, micro_schema, n_layers, activation, lengths):
        cfg = ModelConfig(
            max_seq_len=5, d_model=8, n_layers=n_layers, n_heads=2, activation=activation
        )
        params = init_params(cfg, micro_schema, seed=n_layers)
        lens = self.BATCHES[lengths]
        batch = make_batch(micro_schema, cfg, n=len(lens), seed=21, lengths=lens)
        targets = np.linspace(2.0, 30.0, len(lens))

        np.testing.assert_allclose(
            predict(params, batch), reference.forward(Tape(), params, batch).data,
            rtol=1e-10, atol=0.0,
        )
        preds, grads = self.run(forward, params, batch, targets)
        ref_preds, ref_grads = self.run(reference.forward, params, batch, targets)
        np.testing.assert_allclose(preds, ref_preds, rtol=1e-10, atol=0.0)
        assert list(grads) == list(ref_grads)
        for name, ref in ref_grads.items():
            # the floor is for the key biases: a per-row constant leaves a
            # softmax unchanged, so their exact gradient is 0 and both read noise
            tol = 1e-9 * np.abs(ref).max() + 1e-15
            assert np.abs(grads[name] - ref).max() <= tol, name

    @pytest.mark.parametrize("n_layers", [1, 3])
    def test_captured_maps_are_the_full_layer_maps(self, micro_schema, n_layers):
        cfg = ModelConfig(max_seq_len=5, d_model=8, n_layers=n_layers, n_heads=2)
        params = init_params(cfg, micro_schema, seed=4)
        batch = make_batch(micro_schema, cfg, n=4, seed=22, lengths=[2, 5, 1, 4])
        captured, ref_captured = [], []
        predict(params, batch, capture=captured)
        reference.forward(Tape(), params, batch, capture=ref_captured)
        assert len(captured) == len(ref_captured) == n_layers
        for w, ref in zip(captured, ref_captured):
            np.testing.assert_array_equal(w, ref)

    def test_last_layer_ffn_sees_one_row_per_sequence(self, micro_params, micro_schema):
        cfg = micro_params.config
        batch = make_batch(micro_schema, cfg, n=4, seed=23, lengths=[5, 2, 4, 3])
        rows: dict[str, list[int]] = {}

        class SpyTape(Tape):
            def linear(self, x, w, b):
                name = next(n for n, t in self._params.items() if t.tid == w.tid)
                rows.setdefault(name, []).append(x.shape[0])
                return super().linear(x, w, b)

        forward(SpyTape(), micro_params, batch, train_rng=np.random.default_rng(0))
        b, s = batch.size, cfg.max_seq_len
        last = cfg.n_layers - 1
        assert rows[f"layer{last}/ffn/1/W"] == [b]
        assert rows[f"layer{last}/attn/q/W"] == [b]
        assert rows[f"layer{last}/attn/k/W"] == rows[f"layer{last}/attn/v/W"] == [b * s]
        assert rows["layer0/ffn/1/W"] == [b * s]


class TestEntryPoint:
    """``forward(tape, params, batch, train_rng=None, capture=None)``: one switch, one graph."""

    # one desk-scale forward plus its loss, by op: a graph change must update this on purpose
    DESK_NODES = {
        "linear": 15, "reshape": 10, "transpose": 8, "add": 5, "matmul": 4, "layer_norm": 4,
        "relu": 3, "masked_softmax": 2, "scale": 2, "embedding": 2, "concat_last": 1,
        "gather_rows": 1, "scalar_op": 1,
    }  # fmt: skip

    def test_signature_has_one_switch(self):
        names = list(inspect.signature(forward).parameters)
        assert names == ["tape", "params", "batch", "train_rng", "capture"]
        assert not hasattr(model_module, "_get")

    def test_desk_forward_and_loss_record_58_nodes(self, small_dataset):
        cfg = ModelConfig(**SCALES["desk"]["model"])
        params = init_params(cfg, small_dataset.schema, seed=0)
        batch = make_batch(small_dataset.schema, cfg, n=6, seed=31)
        ops = []

        class CountingTape(Tape):
            def _record(self, out, inputs, backward, op):
                before = len(self._nodes)
                t = super()._record(out, inputs, backward, op)
                ops.extend([op] * (len(self._nodes) - before))
                return t

        tape = CountingTape()
        preds = forward(tape, params, batch, train_rng=np.random.default_rng(0))
        targets = np.linspace(2.0, 30.0, batch.size)
        tape.scalar_op(preds, lambda p: asymmetric_loss(p, targets, LossConfig()))
        assert dict(Counter(ops)) == self.DESK_NODES
        assert len(tape._nodes) == sum(self.DESK_NODES.values()) == 58

    def test_without_train_rng_nothing_is_recorded_even_with_dropout(self, micro_schema):
        cfg = ModelConfig(max_seq_len=5, d_model=8, n_layers=2, n_heads=2, dropout=0.5)
        params = init_params(cfg, micro_schema, seed=0)
        batch = make_batch(micro_schema, cfg, n=3, seed=32, lengths=[2, 5, 1])
        tape = Tape()
        out = forward(tape, params, batch)
        assert tape._nodes == [] and tape._params == {}
        np.testing.assert_array_equal(out.data, predict(params, batch))
        train_tape = Tape()
        trained = forward(train_tape, params, batch, train_rng=np.random.default_rng(0))
        assert set(train_tape._params) == set(params.tensors)
        assert not np.array_equal(trained.data, out.data)  # dropout drew from train_rng


class TestEndToEndGradient:
    def test_micro_objective_fd_check(self, micro_schema):
        cfg = ModelConfig(max_seq_len=5, d_model=8, n_layers=2, n_heads=2)
        base = init_params(cfg, micro_schema, seed=0)
        batch = make_batch(micro_schema, cfg, n=3, seed=11, lengths=[5, 3, 1])
        targets = np.array([12.0, 6.0, 20.0])
        loss_cfg = LossConfig()

        def f(values):
            work = ModelParams(cfg, micro_schema, dict(values))
            tape = Tape()
            preds = forward(tape, work, batch, train_rng=np.random.default_rng(0))
            loss = tape.scalar_op(
                preds, lambda p: asymmetric_loss(p, targets, loss_cfg)
            )
            return float(loss.data), tape.gradients(loss)

        err = fd_check(f, base.tensors, h=1e-5, max_coords=120, seed=0)
        assert err < 1e-4, f"max rel err {err}"


class TestCheckpoint:
    def make_state(self):
        return TransformState(
            cont_mean={"level": 1.5},
            cont_std={"level": 2.0},
            cat_maps={"kind": {0: 0, 2: 1}},
            cat_modes={"kind": 0},
        )

    def test_roundtrip(self, micro_params, micro_schema, tmp_path):
        path = str(tmp_path / "model.bin")
        state = self.make_state()
        save_checkpoint(path, micro_params, state, "fp123")
        params, back_state, fp = load_checkpoint(path)
        assert fp == "fp123"
        assert params.config == micro_params.config
        assert params.schema == micro_schema
        for k in micro_params.tensors:
            np.testing.assert_array_equal(params.tensors[k], micro_params.tensors[k])
        assert back_state.cont_mean == state.cont_mean
        assert back_state.cat_maps == {"kind": {0: 0, 2: 1}}

    def test_byte_deterministic(self, micro_params, tmp_path):
        a = str(tmp_path / "a.bin")
        b = str(tmp_path / "b.bin")
        save_checkpoint(a, micro_params, self.make_state(), "fp")
        save_checkpoint(b, micro_params, self.make_state(), "fp")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_fingerprint_mismatch_rejected(self, micro_params, tmp_path):
        path = str(tmp_path / "model.bin")
        save_checkpoint(path, micro_params, self.make_state(), "expected")
        with pytest.raises(ValueError, match="fingerprint"):
            load_checkpoint(path, expect_fingerprint="different")

    def test_no_transform_state(self, micro_params, tmp_path, monkeypatch):
        # a null transform state is refused at load: the checkpoint cannot encode inputs
        path = str(tmp_path / "bare.bin")
        with monkeypatch.context() as patch:
            patch.setattr(model_module, "_transform_state_doc", lambda state: None)
            save_checkpoint(path, micro_params, self.make_state(), "fp")
        with pytest.raises(ValueError, match=f"{path}: carries no transform state"):
            load_checkpoint(path)

    def test_corrupt_magic_rejected(self, micro_params, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(str(path), micro_params, self.make_state(), "fp")
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            load_checkpoint(str(path))
