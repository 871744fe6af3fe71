import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _reference_gradients import fd_check
from etrcast.autodiff import FINITE_SCAN_BELOW, SCAN_FREE, NumericsError, Tape

TOL = 1e-4
H = 1e-5


def check(build, params, seed=0, max_coords=200):
    """build(tape, tensors) -> scalar Tensor; returns fd_check max rel err."""

    def f(values):
        tape = Tape()
        tensors = {k: tape.param(k, v) for k, v in values.items()}
        out = build(tape, tensors)
        grads = tape.gradients(out)
        return float(out.data), grads

    return fd_check(f, params, h=H, max_coords=max_coords, seed=seed)


def test_linear_example():
    tape = Tape()
    x = tape.param("x", np.array([[1.0, 2.0]]))
    w = tape.param("w", np.array([[1.0], [1.0]]))
    b = tape.param("b", np.array([3.0]))
    y = tape.linear(x, w, b)
    np.testing.assert_array_equal(y.data, [[6.0]])
    grads = tape.gradients(tape.sum_all(y))
    np.testing.assert_array_equal(grads["x"], [[1.0, 1.0]])
    np.testing.assert_array_equal(grads["w"], [[1.0], [2.0]])
    np.testing.assert_array_equal(grads["b"], [1.0])


def test_square_gradient():
    tape = Tape()
    w = tape.param("w", np.array([3.0]))
    y = tape.sum_all(tape.mul(w, w))
    grads = tape.gradients(y)
    np.testing.assert_array_equal(grads["w"], [6.0])


def test_softmax_forward_values():
    tape = Tape()
    x = tape.param("x", np.array([[np.log(2.0), 0.0]]))
    w = tape.softmax_rows(x)
    np.testing.assert_allclose(w.data, [[2 / 3, 1 / 3]], atol=1e-15)
    assert abs(w.data.sum() - 1.0) < 1e-12


def test_softmax_sum_gradient_is_zero():
    # sum of softmax is constant 1, so its gradient must vanish
    tape = Tape()
    x = tape.param("x", np.array([[0.3, -1.2, 2.0]]))
    out = tape.sum_all(tape.softmax_rows(x))
    grads = tape.gradients(out)
    np.testing.assert_allclose(grads["x"], 0.0, atol=1e-12)


@pytest.mark.parametrize(
    "name",
    [
        "add", "mul", "scale", "matmul", "linear", "relu", "tanh",
        "softmax", "masked_softmax", "layer_norm", "embedding",
        "concat", "reshape", "transpose", "gather", "mean",
    ],
)
def test_primitive_gradients(name):
    rng = np.random.default_rng(hash(name) % 2**32)

    if name == "add":
        params = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 4))}
        build = lambda t, p: t.sum_all(t.add(p["a"], p["b"]))
    elif name == "mul":
        params = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 4))}
        build = lambda t, p: t.sum_all(t.mul(p["a"], p["b"]))
    elif name == "scale":
        params = {"a": rng.normal(size=(3, 4))}
        build = lambda t, p: t.sum_all(t.scale(p["a"], -2.5))
    elif name == "matmul":
        params = {"a": rng.normal(size=(2, 3, 4)), "b": rng.normal(size=(2, 4, 5))}
        build = lambda t, p: t.sum_all(t.matmul(p["a"], p["b"]))
    elif name == "linear":
        params = {
            "x": rng.normal(size=(6, 3)),
            "w": rng.normal(size=(3, 2)),
            "b": rng.normal(size=2),
        }
        build = lambda t, p: t.sum_all(t.tanh(t.linear(p["x"], p["w"], p["b"])))
    elif name == "relu":
        # keep values away from the kink so finite differences are clean
        base = rng.normal(size=(4, 4))
        base[np.abs(base) < 0.05] = 0.5
        params = {"a": base}
        build = lambda t, p: t.sum_all(t.relu(p["a"]))
    elif name == "tanh":
        params = {"a": rng.normal(size=(4, 4))}
        build = lambda t, p: t.sum_all(t.tanh(p["a"]))
    elif name == "softmax":
        params = {"a": rng.normal(size=(5, 6))}
        weight = rng.normal(size=(5, 6))

        def build(t, p):
            w = t.softmax_rows(p["a"])
            return t.sum_all(t.mul(w, t.constant(weight)))

    elif name == "masked_softmax":
        scores = rng.normal(size=(2, 2, 4, 4))
        mask = np.array([[1, 1, 1, 0], [1, 1, 0, 0]], dtype=bool)
        weight = rng.normal(size=scores.shape)
        params = {"s": scores}

        def build(t, p):
            w = t.masked_softmax(p["s"], mask)
            return t.sum_all(t.mul(w, t.constant(weight)))

    elif name == "layer_norm":
        params = {
            "x": rng.normal(size=(5, 8)),
            "g": rng.normal(size=8) * 0.1 + 1.0,
            "b": rng.normal(size=8) * 0.1,
        }
        weight = rng.normal(size=(5, 8))

        def build(t, p):
            y = t.layer_norm(p["x"], p["g"], p["b"])
            return t.sum_all(t.mul(y, t.constant(weight)))

    elif name == "embedding":
        idx = rng.integers(0, 5, size=(3, 4))
        params = {"table": rng.normal(size=(5, 3))}
        build = lambda t, p: t.sum_all(t.tanh(t.embedding(p["table"], idx)))
    elif name == "concat":
        params = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=(3, 4))}
        build = lambda t, p: t.sum_all(t.tanh(t.concat_last([p["a"], p["b"]])))
    elif name == "reshape":
        params = {"a": rng.normal(size=(3, 4))}
        build = lambda t, p: t.sum_all(t.tanh(t.reshape(p["a"], (2, 6))))
    elif name == "transpose":
        params = {"a": rng.normal(size=(2, 3, 4))}
        build = lambda t, p: t.sum_all(t.tanh(t.transpose(p["a"], (2, 0, 1))))
    elif name == "gather":
        idx = np.array([2, 0])
        params = {"a": rng.normal(size=(2, 3, 4))}
        build = lambda t, p: t.sum_all(t.tanh(t.gather_rows(p["a"], idx)))
    elif name == "mean":
        params = {"a": rng.normal(size=(3, 4))}
        build = lambda t, p: t.mean_all(t.mul(p["a"], p["a"]))
    else:
        raise AssertionError(name)

    err = check(build, params)
    assert err < TOL, f"{name}: max rel err {err}"


def test_finite_check_raises_on_overflow():
    tape = Tape()
    x = tape.param("x", np.array([1e308]))
    with np.errstate(over="ignore"), pytest.raises(NumericsError):
        tape.mul(x, tape.constant(np.array([1e308])))


def test_layer_norm_refuses_a_row_whose_variance_overflows():
    # squaring 1e160 overflows, so rstd = 1/sqrt(inf) = 0 would map the row to the bias
    tape = Tape()
    x = tape.param("x", np.array([[1.0, -1.0, 0.5, -0.5], [1e160, -1e160, 1e160, -1e160]]))
    gain, bias = tape.constant(np.ones(4)), tape.constant(np.zeros(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="layer_norm: row variance overflows"):
            tape.layer_norm(x, gain, bias)


def test_finite_check_accepts_overflowing_sum():
    # finite values whose sum overflows to inf, or to inf - inf = nan
    tape = Tape()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = tape.constant(np.array([1.5e308, 1.5e308]))
        out = tape.add(big, tape.constant(np.zeros(2)))
        tape.constant(np.array([1.5e308, 1.5e308, -1.5e308, -1.5e308]))
    np.testing.assert_array_equal(out.data, [1.5e308, 1.5e308])


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", ["nan", "+inf", "-inf"])
def test_finite_check_rejects_nonfinite_anywhere(bad, where):
    n = 10_001
    pos = {"first": 0, "middle": n // 2, "last": n - 1}[where]
    tape = Tape()
    if bad == "nan":
        # eps=0 on a constant row: 0 * (1 / sqrt(0)) = nan in that row only
        x = np.random.default_rng(0).normal(size=(n, 2))
        x[pos] = 3.0
        gain, bias = tape.constant(np.ones(2)), tape.constant(np.zeros(2))
        with np.errstate(all="ignore"), pytest.raises(NumericsError, match="layer_norm"):
            tape.layer_norm(tape.constant(x), gain, bias, eps=0.0)
    else:
        a = np.ones(n)
        a[pos] = 1e300
        b = np.ones(n)
        b[pos] = 1e300 if bad == "+inf" else -1e300
        with np.errstate(over="ignore"), pytest.raises(NumericsError, match="mul"):
            tape.mul(tape.constant(a), tape.constant(b))


# -- which primitives check their result ---------------------------------------

MAX = 1.7976931348623157e308
EXTREMES = (MAX, -MAX, 5e-324, -5e-324, 0.0, -0.0)
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EXTREMES)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), b=st.integers(1, 3), s=st.integers(1, 5))
def test_scan_free_primitives_map_finite_inputs_to_finite_outputs(data, b, s):
    x = data.draw(arrays(np.float64, (b, 2, s, s), elements=FINITE))
    key_valid = data.draw(arrays(np.bool_, (b, s)))
    key_valid[:, 0] |= ~key_valid.any(axis=1)  # every sequence needs one valid key
    rows = data.draw(arrays(np.int64, (b,), elements=st.integers(0, 2 * s - 1)))
    ids = data.draw(arrays(np.int64, (3, 2), elements=st.integers(0, b * 2 * s - 1)))
    tape = Tape()
    t = tape.param("x", x)
    flat = tape.reshape(t, (b * 2 * s, s))
    # a softmax's x - max may overflow to -inf, whose exp is exactly 0; the
    # kernels ignore that overflow themselves, so no errstate is needed here
    outs = {
        "reshape": flat,
        "transpose": tape.transpose(t, (3, 1, 0, 2)),
        "gather_rows": tape.gather_rows(tape.reshape(t, (b, 2 * s, s)), rows),
        "embedding": tape.embedding(flat, ids),
        "concat_last": tape.concat_last([t, t]),
        "relu": tape.relu(t),
        "tanh": tape.tanh(t),
        "masked_softmax": tape.masked_softmax(t, key_valid),
        "softmax_rows": tape.softmax_rows(t),
    }
    assert set(outs) == SCAN_FREE
    for op, out in outs.items():
        assert np.isfinite(out.data).all(), op
    for op in ("masked_softmax", "softmax_rows"):
        assert ((outs[op].data >= 0.0) & (outs[op].data <= 1.0)).all(), op


def _overflowing(tape, op):
    """Apply ``op`` to finite tape tensors whose exact result exceeds float64."""
    x = tape.param("x", np.full((1, 2), 1e308))
    ones = tape.constant(np.ones((2, 2)))
    big = tape.constant(np.full(2, 1e308))
    return {
        "add": lambda: tape.add(x, x),
        "mul": lambda: tape.mul(x, tape.constant(np.full((1, 2), 10.0))),
        "scale": lambda: tape.scale(x, 10.0),
        "matmul": lambda: tape.matmul(x, ones),
        "linear": lambda: tape.linear(x, ones, tape.constant(np.zeros(2))),
        "layer_norm": lambda: tape.layer_norm(tape.constant([[1.0, -1.0]]), big, big),
        "sum_all": lambda: tape.sum_all(x),
        "mean_all": lambda: tape.mean_all(x),
        "scalar_op": lambda: tape.scalar_op(x, lambda v: (np.sum(v), np.ones_like(v))),
    }[op]()


SCANNING = ("add", "mul", "scale", "matmul", "linear", "layer_norm", "sum_all", "mean_all",
            "scalar_op")  # fmt: skip


@pytest.mark.parametrize("op", SCANNING)
def test_scanning_primitive_names_itself_on_overflow(op):
    with np.errstate(over="ignore"), pytest.raises(NumericsError) as raised:
        _overflowing(Tape(), op)
    assert str(raised.value) == f"{op}: non-finite values in result"


def test_every_primitive_either_scans_or_is_scan_free():
    primitives = {
        name for name, fn in vars(Tape).items() if callable(fn) and not name.startswith("_")
    } - {"constant", "param", "gradients"}
    assert SCAN_FREE <= primitives  # names only Tape primitives
    assert SCAN_FREE.isdisjoint(SCANNING)
    assert SCAN_FREE | set(SCANNING) == primitives


def test_duplicate_param_rejected():
    tape = Tape()
    tape.param("w", np.zeros(2))
    with pytest.raises(ValueError, match="w"):
        tape.param("w", np.zeros(2))


def test_gradients_requires_scalar():
    tape = Tape()
    x = tape.param("x", np.zeros((2, 2)))
    y = tape.add(x, x)
    with pytest.raises(ValueError):
        tape.gradients(y)


def test_untouched_param_gets_zero_gradient():
    tape = Tape()
    x = tape.param("x", np.array([2.0]))
    unused = tape.param("unused", np.array([1.0, 1.0]))
    out = tape.sum_all(tape.mul(x, x))
    grads = tape.gradients(out)
    np.testing.assert_array_equal(grads["unused"], np.zeros(2))
    assert grads["x"][0] == 4.0


def test_only_param_reachable_primitives_are_recorded():
    tape = Tape()
    c = tape.constant(np.array([0.5, -1.0]))
    branch = tape.scale(tape.tanh(c), 2.0)
    assert tape._nodes == []
    w = tape.param("w", np.array([1.0, 2.0]))
    tape.sum_all(tape.mul(w, branch))
    assert len(tape._nodes) == 2  # mul and sum_all


def test_constant_only_branch_fd_check():
    rng = np.random.default_rng(3)
    c = rng.normal(size=(4, 3))
    params = {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=2)}

    def build(t, p):
        ones, zeros = t.constant(np.ones((3, 2))), t.constant(np.zeros(2))
        const_branch = t.tanh(t.linear(t.constant(c), ones, zeros))
        param_branch = t.tanh(t.linear(t.constant(c), p["w"], p["b"]))
        return t.sum_all(t.mul(t.add(const_branch, param_branch), param_branch))

    assert check(build, params) < TOL


def test_unreached_param_gets_zero_gradient():
    tape = Tape()
    x = tape.param("x", np.array([2.0]))
    side = tape.param("side", np.array([1.0, -1.0]))
    tape.sum_all(tape.tanh(side))  # reaches a recorded node, never the output
    grads = tape.gradients(tape.sum_all(tape.mul(x, x)))
    np.testing.assert_array_equal(grads["side"], np.zeros(2))
    assert grads["x"][0] == 4.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_finite_check_rejects_nonfinite_above_scan_size(bad):
    # past FINITE_SCAN_BELOW the check is one reduction, confirmed by a scan
    values = np.ones(FINITE_SCAN_BELOW + 1)
    values[-1] = bad
    with pytest.raises(NumericsError, match="constant"):
        Tape().constant(values)
    # finite values whose sum overflows pass the confirming scan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Tape().constant(np.full(FINITE_SCAN_BELOW + 1, 1.5e308))


def test_rectangular_masked_softmax_gradient():
    # one and three query rows over five keys, one row with a single valid key
    rng = np.random.default_rng(7)
    mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1], [1, 0, 0, 0, 0]], dtype=bool)
    for sq in (1, 3):
        weight = rng.normal(size=(3, 2, sq, 5))
        params = {"s": rng.normal(size=(3, 2, sq, 5))}
        build = lambda t, p: t.sum_all(t.mul(t.masked_softmax(p["s"], mask), t.constant(weight)))
        assert check(build, params) < TOL


def test_rectangular_masked_softmax_checks_key_width():
    tape = Tape()
    scores = tape.param("s", np.zeros((2, 1, 1, 4)))
    with pytest.raises(NumericsError, match="mask shape"):
        tape.masked_softmax(scores, np.ones((2, 3), dtype=bool))


def test_masked_softmax_requires_valid_key():
    tape = Tape()
    scores = tape.param("s", np.zeros((1, 1, 2, 2)))
    with pytest.raises(ValueError):
        tape.masked_softmax(scores, np.zeros((1, 2), dtype=bool))


def test_embedding_range_checked():
    tape = Tape()
    table = tape.param("t", np.zeros((3, 2)))
    with pytest.raises(ValueError):
        tape.embedding(table, np.array([[3]]))


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 5),
    cols=st.integers(2, 6),
    seed=st.integers(0, 10_000),
)
def test_mlp_gradient_property(rows, cols, seed):
    rng = np.random.default_rng(seed)
    params = {
        "x": rng.normal(size=(rows, cols)),
        "w1": rng.normal(size=(cols, 3)) / np.sqrt(cols),
        "b1": rng.normal(size=3) * 0.1,
        "w2": rng.normal(size=(3, 1)) / np.sqrt(3),
        "b2": rng.normal(size=1) * 0.1,
    }

    def build(t, p):
        h = t.tanh(t.linear(p["x"], p["w1"], p["b1"]))
        return t.mean_all(t.linear(h, p["w2"], p["b2"]))

    assert check(build, params, seed=seed, max_coords=40) < TOL
