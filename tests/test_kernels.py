import numpy as np
import pytest

import _reference_kernels as reference
from etrcast import kernels
from etrcast.autodiff import Tape


def _rand_scores(rng, b=3, h=2, s=6):
    return rng.normal(size=(b, h, s, s))


def _rand_mask(rng, b=3, s=6):
    lengths = rng.integers(1, s + 1, size=b)
    return np.arange(s)[None, :] < lengths[:, None]


def test_masked_softmax_rows_sum_to_one_over_valid():
    rng = np.random.default_rng(3)
    scores = _rand_scores(rng)
    mask = _rand_mask(rng)
    w = kernels.masked_softmax(scores, mask)
    sums = w.sum(axis=-1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


def test_masked_softmax_padded_keys_exactly_zero():
    rng = np.random.default_rng(4)
    scores = _rand_scores(rng, b=4, s=5)
    mask = _rand_mask(rng, b=4, s=5)
    w = kernels.masked_softmax(scores, mask)
    padded = ~mask
    assert np.all(w[:, :, :, :][padded[:, None, None, :] & np.ones_like(w, bool)] == 0.0)
    # even with huge garbage scores at padded keys
    scores2 = scores.copy()
    scores2[np.broadcast_to(padded[:, None, None, :], scores.shape)] = 1e300
    w2 = kernels.masked_softmax(scores2, mask)
    np.testing.assert_array_equal(w, w2)


def test_softmax_known_values():
    x = np.array([[np.log(2.0), 0.0]])
    w = kernels.softmax_rows(x)
    np.testing.assert_allclose(w, [[2 / 3, 1 / 3]], atol=1e-15)
    # large-offset stability
    w2 = kernels.softmax_rows(np.array([[1000.0, 0.0]]))
    assert np.isfinite(w2).all() and abs(w2.sum() - 1) < 1e-12


def test_layer_norm_known_values():
    x = np.array([[1.0, 3.0]])
    gain = np.ones(2)
    bias = np.zeros(2)
    y, xhat, rstd = kernels.layer_norm(x, gain, bias, 0.0)
    np.testing.assert_allclose(y, [[-1.0, 1.0]], atol=1e-12)
    np.testing.assert_array_equal(xhat, [[-1.0, 1.0]])
    assert rstd[0] == 1.0
    # constant row maps to bias
    y2, _, _ = kernels.layer_norm(np.full((1, 4), 7.0), np.ones(4), np.full(4, 5.0), 1e-5)
    np.testing.assert_allclose(y2, 5.0, atol=1e-6)


# -- bit identity against the out-of-place reference kernels --------------------


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def _with_negative_zeros(rng, x, frac=0.1):
    x = x.copy()
    x[rng.random(x.shape) < frac] = -0.0
    return x


@pytest.mark.parametrize("seed", range(4))
def test_softmax_rows_bit_identical_to_reference(seed):
    rng = np.random.default_rng(seed)
    x = _with_negative_zeros(rng, rng.normal(size=(37, 9)) * 4)
    w = kernels.softmax_rows(x)
    assert_same_bits(w, reference.softmax_rows(x))
    g = _with_negative_zeros(rng, rng.normal(size=x.shape))
    assert_same_bits(kernels.softmax_rows_bwd(w, g), reference.softmax_rows_bwd(w, g))


@pytest.mark.parametrize("seed", range(4))
def test_masked_softmax_bit_identical_to_reference(seed):
    rng = np.random.default_rng(100 + seed)
    b, h, s = 9, 3, 7
    scores = _with_negative_zeros(rng, rng.normal(size=(b, h, s, s)) * 3)
    lengths = rng.integers(1, s + 1, size=b)
    lengths[:3] = 1  # rows with a single valid key
    mask = np.arange(s)[None, :] < lengths[:, None]
    scores[np.broadcast_to(~mask[:, None, None, :], scores.shape)] = 1e300
    w = kernels.masked_softmax(scores, mask)
    assert_same_bits(w, reference.masked_softmax(scores, mask))
    g = _with_negative_zeros(rng, rng.normal(size=w.shape))
    assert_same_bits(kernels.masked_softmax_bwd(w, g), reference.softmax_rows_bwd(w, g))


@pytest.mark.parametrize("b", [1, 160], ids=["few-rows", "key-columns"])
@pytest.mark.parametrize("s", range(1, 21))
def test_masked_softmax_bit_identical_at_every_key_width(s, b):
    # one sequence takes numpy's max-reduce; 160 sequences x 4 heads x s queries
    # take the max per key column, in more than one block of rows from 13 keys on
    rng = np.random.default_rng(300 + s)
    scores = _with_negative_zeros(rng, rng.normal(size=(b, 4, s, s)) * 3)
    mask = np.arange(s)[None, :] < rng.integers(1, s + 1, size=b)[:, None]
    mask[: b // 4] = np.arange(s) == 0  # sequences with a single valid key
    w = kernels.masked_softmax(scores, mask)
    assert_same_bits(w, reference.masked_softmax(scores, mask))
    assert_same_bits(kernels.softmax_rows(scores), reference.softmax_rows(scores))


@pytest.mark.parametrize("s", [2, 7, 20])
def test_softmax_bit_identical_when_the_max_is_a_signed_zero_tie(s):
    # every row's maximum is zero, held by both +0.0 and -0.0 in shuffled columns
    rng = np.random.default_rng(400 + s)
    scores = -np.abs(rng.normal(size=(64, 4, s, s)))
    scores[..., 0] = -0.0
    scores[..., -1] = 0.0
    scores = rng.permuted(scores, axis=-1)
    mask = np.ones((64, s), dtype=bool)
    assert_same_bits(kernels.masked_softmax(scores, mask), reference.masked_softmax(scores, mask))
    assert_same_bits(kernels.softmax_rows(scores), reference.softmax_rows(scores))


@pytest.mark.parametrize("sq", [1, 3])
def test_rectangular_masked_softmax_bit_identical_to_reference(sq):
    # [B,H,Sq,S] scores: fewer query rows than keys, as in a readout-only layer
    rng = np.random.default_rng(200 + sq)
    b, h, s = 4, 2, 5
    scores = _with_negative_zeros(rng, rng.normal(size=(b, h, sq, s)) * 3)
    mask = np.arange(s)[None, :] < np.array([1, 5, 3, 2])[:, None]
    w = kernels.masked_softmax(scores, mask)
    assert w.shape == (b, h, sq, s)
    assert_same_bits(w, reference.masked_softmax(scores, mask))
    assert_same_bits(Tape().masked_softmax(Tape().constant(scores), mask).data, w)


@pytest.mark.parametrize("shape", [(23, 16), (4, 5, 8), (1, 1)])
def test_layer_norm_bit_identical_to_reference(shape):
    rng = np.random.default_rng(sum(shape))
    d = shape[-1]
    x = _with_negative_zeros(rng, rng.normal(size=shape) * 2 + 0.5)
    x.reshape(-1, d)[0] = 3.0  # a constant row
    gain = _with_negative_zeros(rng, rng.normal(size=d) * 0.2 + 1.0)
    bias = _with_negative_zeros(rng, rng.normal(size=d) * 0.1)
    y, xhat, rstd = kernels.layer_norm(x, gain, bias, 1e-5)
    ref_y, ref_mean, ref_rstd = reference.layer_norm(x, gain, bias, 1e-5)
    assert_same_bits(y, ref_y)
    assert_same_bits(rstd, ref_rstd)
    assert_same_bits(xhat, (x - ref_mean[..., None]) * ref_rstd[..., None])
    g = _with_negative_zeros(rng, rng.normal(size=shape))
    for got, want in zip(
        kernels.layer_norm_bwd(xhat, rstd, gain, g),
        reference.layer_norm_bwd(x, ref_mean, ref_rstd, gain, g),
    ):
        assert_same_bits(got, want)


@pytest.mark.parametrize("size", [1, 7, 64, 1001])
def test_relu_bit_identical_to_reference(size):
    rng = np.random.default_rng(size)
    a = rng.normal(size=(size, 3))
    a.reshape(-1)[::4] = -0.0
    a.reshape(-1)[1::4] = 0.0
    tape = Tape()
    x = tape.param("a", a)
    out = tape.relu(x)
    assert_same_bits(out.data, reference.relu(a))
    g = _with_negative_zeros(rng, rng.normal(size=a.shape), frac=0.2)
    grad = tape.gradients(tape.sum_all(tape.mul(out, tape.constant(g))))["a"]
    assert_same_bits(grad, g * (a > 0.0))


def test_linear_bit_identical_to_reference():
    rng = np.random.default_rng(7)
    x = _with_negative_zeros(rng, rng.normal(size=(31, 6)))
    w = rng.normal(size=(6, 5))
    b = _with_negative_zeros(rng, rng.normal(size=5), frac=0.4)
    tape = Tape()
    out = tape.linear(tape.constant(x), tape.constant(w), tape.constant(b))
    assert_same_bits(out.data, reference.linear(x, w, b))
