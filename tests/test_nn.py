import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcast import nn
from blockcast.errors import NonFiniteError, SchemaError, VersionError
from blockcast.models import NormStats, build_model, load_model, save_model
from blockcast.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Conv1dParams,
    DenseParams,
    LstmParams,
    LstmStack,
    adam_init,
    adam_step,
    bce_loss,
    conv1d_backward,
    conv1d_forward,
    conv1d_init,
    dense_backward,
    dense_forward,
    dense_init,
    global_avg_pool,
    global_avg_pool_backward,
    huber_loss,
    lstm_backward,
    lstm_forward,
    lstm_init,
    relu,
    relu_backward,
    sigmoid,
    uniform_init,
)


def fd_grad(fn, arr, h=1e-5):
    """Central finite differences of a scalar function w.r.t. arr entries."""
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + h
        hi = fn()
        arr[idx] = orig - h
        lo = fn()
        arr[idx] = orig
        g[idx] = (hi - lo) / (2.0 * h)
    return g


def max_rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def test_relu_and_its_gradient():
    x = np.array([-2.0, 0.0, 3.0])
    np.testing.assert_array_equal(relu(x), [0.0, 0.0, 3.0])
    np.testing.assert_array_equal(relu_backward(np.ones(3), x), [0.0, 0.0, 1.0])


def test_sigmoid_is_stable_at_extreme_inputs():
    x = np.array([-1000.0, -20.0, 0.0, 20.0, 1000.0])
    with np.errstate(over="raise"):
        y = sigmoid(x)
    assert y[0] == 0.0 and y[-1] == 1.0
    assert y[2] == 0.5
    assert np.all(np.diff(y) >= 0)


# ---------------------------------------------------------------------------
# Layer gradients against finite differences
# ---------------------------------------------------------------------------

def test_dense_gradients_match_finite_differences():
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        p = dense_init(rng, 5, 4)
        p.bias[:] = rng.normal(size=4)
        x = rng.normal(size=(3, 5))
        probe = rng.normal(size=(3, 4))

        def objective():
            y, _ = dense_forward(p, x)
            return float((y * probe).sum())

        y, cache = dense_forward(p, x)
        d_x, grads = dense_backward(p, probe, cache)
        assert max_rel_err(grads["weight"], fd_grad(objective, p.weight)) < 1e-4
        assert max_rel_err(grads["bias"], fd_grad(objective, p.bias)) < 1e-4
        assert max_rel_err(d_x, fd_grad(objective, x)) < 1e-4


def test_lstm_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    p = lstm_init(rng, 5, 6)
    seq = rng.normal(size=(4, 3, 5))
    probe = rng.normal(size=(4, 3, 6))

    def objective():
        hidden, _, _ = lstm_forward(p, seq)
        return float((hidden * probe).sum())

    hidden, _, cache = lstm_forward(p, seq)
    d_seq, grads = lstm_backward(p, probe, cache)
    assert max_rel_err(grads["w_in"], fd_grad(objective, p.w_in)) < 1e-4
    assert max_rel_err(grads["w_rec"], fd_grad(objective, p.w_rec)) < 1e-4
    assert max_rel_err(grads["bias"], fd_grad(objective, p.bias)) < 1e-4
    assert max_rel_err(d_seq, fd_grad(objective, seq)) < 1e-4


def test_lstm_final_state_gradient_matches_finite_differences():
    # Models read only the last hidden state; the backward path must be
    # exact when every other step gets a zero gradient.
    rng = np.random.default_rng(3)
    p = lstm_init(rng, 4, 5)
    seq = rng.normal(size=(6, 2, 4))
    probe = rng.normal(size=(2, 5))

    def objective():
        _, last, _ = lstm_forward(p, seq)
        return float((last * probe).sum())

    hidden, _, cache = lstm_forward(p, seq)
    d_hidden = np.zeros_like(hidden)
    d_hidden[-1] = probe
    d_seq, grads = lstm_backward(p, d_hidden, cache)
    assert max_rel_err(grads["w_rec"], fd_grad(objective, p.w_rec)) < 1e-4
    assert max_rel_err(d_seq, fd_grad(objective, seq)) < 1e-4


@pytest.mark.parametrize("stride", [1, 2])
def test_conv_gradients_match_finite_differences(stride):
    rng = np.random.default_rng(4 + stride)
    p = conv1d_init(rng, 3, 2, 4, stride=stride)
    p.bias[:] = rng.normal(size=2)
    x = rng.normal(size=(2, 3, 11))
    y, cache = conv1d_forward(p, x)
    probe = rng.normal(size=y.shape)

    def objective():
        out, _ = conv1d_forward(p, x)
        return float((out * probe).sum())

    d_x, grads = conv1d_backward(p, probe, cache)
    assert max_rel_err(grads["weight"], fd_grad(objective, p.weight)) < 1e-4
    assert max_rel_err(grads["bias"], fd_grad(objective, p.bias)) < 1e-4
    assert max_rel_err(d_x, fd_grad(objective, x)) < 1e-4


def test_global_avg_pool_and_gradient():
    x = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
    y, length = global_avg_pool(x)
    assert length == 4
    np.testing.assert_allclose(y, x.mean(axis=2))
    d = global_avg_pool_backward(np.ones((2, 3)), length)
    np.testing.assert_allclose(d, np.full((2, 3, 4), 0.25))


# ---------------------------------------------------------------------------
# Conv details
# ---------------------------------------------------------------------------

def test_conv_output_matches_loop_oracle():
    rng = np.random.default_rng(8)
    p = conv1d_init(rng, 2, 3, 3, stride=2)
    p.bias[:] = rng.normal(size=3)
    x = rng.normal(size=(1, 2, 9))
    y, _ = conv1d_forward(p, x)
    assert y.shape == (1, 3, 4)
    for o in range(3):
        for j in range(4):
            s = j * 2
            want = (x[0, :, s : s + 3] * p.weight[o]).sum() + p.bias[o]
            assert y[0, o, j] == pytest.approx(want, rel=1e-12)


def test_conv_rejects_bad_inputs():
    rng = np.random.default_rng(0)
    p = conv1d_init(rng, 2, 3, 5)
    with pytest.raises(ValueError):
        conv1d_forward(p, np.zeros((1, 2, 4)))  # kernel longer than signal
    with pytest.raises(ValueError):
        conv1d_forward(p, np.zeros((1, 3, 10)))  # wrong channel count
    with pytest.raises(ValueError):
        Conv1dParams(np.zeros((2, 2, 3)), np.zeros(3))
    with pytest.raises(ValueError):
        Conv1dParams(np.zeros((2, 2, 3)), np.zeros(2), stride=0)


# ---------------------------------------------------------------------------
# LSTM details
# ---------------------------------------------------------------------------

def test_lstm_zero_parameters_give_zero_hidden():
    p = LstmParams(3, 4, np.zeros((3, 16)), np.zeros((4, 16)), np.zeros(16))
    hidden, last, _ = lstm_forward(p, np.ones((5, 2, 3)))
    np.testing.assert_array_equal(hidden, np.zeros((5, 2, 4)))
    np.testing.assert_array_equal(last, np.zeros((2, 4)))


def test_lstm_single_step_matches_manual_cell():
    rng = np.random.default_rng(6)
    p = lstm_init(rng, 3, 2)
    x = rng.normal(size=(1, 1, 3))
    h0 = c0 = np.zeros((1, 2))  # the LSTM always starts from zero state
    _, last, _ = lstm_forward(p, x)

    a = (x[0] @ p.w_in + h0 @ p.w_rec + p.bias)[0]
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    i, f, g, o = sig(a[0:2]), sig(a[2:4]), np.tanh(a[4:6]), sig(a[6:8])
    c = f * c0[0] + i * g
    np.testing.assert_allclose(last[0], o * np.tanh(c), rtol=1e-12)


def test_lstm_input_validation():
    rng = np.random.default_rng(0)
    p = lstm_init(rng, 3, 4)
    with pytest.raises(ValueError):
        lstm_forward(p, np.zeros((2, 3)))  # not 3-D
    with pytest.raises(ValueError):
        lstm_forward(p, np.zeros((2, 1, 5)))  # wrong width
    with pytest.raises(ValueError):
        LstmParams(3, 4, np.zeros((3, 16)), np.zeros((4, 16)), np.zeros(15))
    hidden, _, cache = lstm_forward(p, np.zeros((2, 1, 3)))
    with pytest.raises(ValueError):
        lstm_backward(p, np.zeros((2, 1, 5)), cache)


def plan_run(stack, seq, *, rolling):
    """A one-shot ``nn.LstmPlan`` of ``stack`` run over ``seq``."""
    return nn.LstmPlan(stack, np.shape(seq), rolling=rolling).run(seq)


@pytest.mark.parametrize("run", [
    lambda p, seq: lstm_forward(p, seq),
    lambda p, seq: plan_run(LstmStack.of([p]), seq, rolling=True)])
def test_both_lstm_paths_reject_the_same_inputs(run):
    assert_bad_lstm_inputs_are_rejected(run)


def test_the_buffered_wavefront_rejects_the_same_inputs():
    assert_bad_lstm_inputs_are_rejected(
        lambda p, seq: plan_run(LstmStack.of([p]), seq, rolling=False))


def assert_bad_lstm_inputs_are_rejected(run):
    p = lstm_init(np.random.default_rng(0), 3, 4)
    with pytest.raises(ValueError, match="must be"):
        run(p, np.zeros((2, 3)))  # not 3-D
    with pytest.raises(ValueError, match="seq width 5 != input_size 3"):
        run(p, np.zeros((2, 1, 5)))
    with pytest.raises(ValueError, match="T >= 1"):
        run(p, np.zeros((0, 1, 3)))
    seq = np.zeros((2, 1, 3))
    seq[1, 0, 2] = math.nan
    with pytest.raises(NonFiniteError, match="lstm input"):
        run(p, seq)
    p.w_in[0, 0] = math.nan  # finite input, non-finite hidden state
    with pytest.raises(NonFiniteError, match="lstm hidden"):
        run(p, np.ones((2, 1, 3)))


# ---------------------------------------------------------------------------
# Kernels against their reference forms
# ---------------------------------------------------------------------------
# The references are the straightforward forms the kernels replaced: the conv
# as einsums over sliding windows with a per-window scatter, the sigmoid as
# one expression of its tanh form, and BPTT with every gradient accumulated
# per step. The exp form split by sign, which the sigmoid once was, stays as
# a precision reference.

def ref_sigmoid(x):
    return 0.5 * np.tanh(0.5 * x) + 0.5


def exp_sigmoid(x):
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_conv1d_forward(p, x):
    windows = np.lib.stride_tricks.sliding_window_view(x, p.weight.shape[2], axis=2)
    windows = windows[:, :, :: p.stride, :]
    return np.einsum("bilk,oik->bol", windows, p.weight) + p.bias[None, :, None]


def ref_conv1d_backward(p, d_out, x):
    kernel = p.weight.shape[2]
    windows = np.lib.stride_tricks.sliding_window_view(x, kernel, axis=2)
    windows = windows[:, :, :: p.stride, :]
    d_w = np.einsum("bilk,bol->oik", windows, d_out)
    d_x = np.zeros_like(x)
    d_win = np.einsum("bol,oik->bilk", d_out, p.weight)
    for j in range(d_out.shape[2]):
        start = j * p.stride
        d_x[:, :, start : start + kernel] += d_win[:, :, j, :]
    return d_x, {"weight": d_w, "bias": d_out.sum(axis=(0, 2))}


def ref_lstm_backward(p, d_hidden, cache):
    steps, batch, hid = cache.cell_tanh.shape
    d_w_in, d_w_rec, d_bias = np.zeros_like(p.w_in), np.zeros_like(p.w_rec), np.zeros_like(p.bias)
    d_seq = np.empty_like(cache.inputs)
    dh_next, dc_next = np.zeros((batch, hid)), np.zeros((batch, hid))
    for t in range(steps - 1, -1, -1):
        i, f, g, o = np.split(cache.gates[t], 4, axis=1)
        ct = cache.cell_tanh[t]
        c_prev = cache.cells[t]  # row t holds the state before step t; row 0 is zero
        h_prev = cache.hidden[t]
        dh = d_hidden[t] + dh_next
        dc = dc_next + dh * o * (1.0 - ct**2)
        d_a = np.concatenate([dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                              dc * i * (1.0 - g**2), dh * ct * o * (1.0 - o)], axis=1)
        d_w_in += cache.inputs[t].T @ d_a
        d_w_rec += h_prev.T @ d_a
        d_bias += d_a.sum(axis=0)
        d_seq[t] = d_a @ p.w_in.T
        dh_next = d_a @ p.w_rec.T
        dc_next = dc * f
    return d_seq, {"w_in": d_w_in, "w_rec": d_w_rec, "bias": d_bias}


def assert_close(got, want, tol=1e-12):
    """Max difference within tol of the reference's largest magnitude (at least 1)."""
    scale = max(1.0, float(np.max(np.abs(want))))
    assert float(np.max(np.abs(got - want))) <= tol * scale


CONV_CASES = {  # name -> (batch, in_channels, out_channels, kernel, stride, length)
    "conv1-train": (8, 1, 8, 5, 2, 360),
    "conv2-train": (8, 8, 16, 5, 2, 178),
    "conv2-transfer-batch": (1500, 8, 16, 5, 2, 178),
    "stride-1": (3, 3, 2, 4, 1, 11),
    "kernel-below-stride": (2, 2, 3, 2, 3, 11),
    "uneven-last-window": (2, 3, 4, 5, 2, 12),
}


@pytest.mark.parametrize("case", sorted(CONV_CASES))
def test_conv_matches_the_einsum_reference(case):
    batch, in_c, out_c, kernel, stride, length = CONV_CASES[case]
    rng = np.random.default_rng(length + kernel)
    p = conv1d_init(rng, in_c, out_c, kernel, stride=stride)
    p.bias[:] = rng.normal(size=out_c)
    x = rng.normal(size=(batch, in_c, length))
    y, cache = conv1d_forward(p, x)
    want = ref_conv1d_forward(p, x)
    assert y.shape == want.shape
    assert_close(y, want)
    d_out = rng.normal(size=y.shape)
    d_x, grads = conv1d_backward(p, d_out, cache)
    want_d_x, want_grads = ref_conv1d_backward(p, d_out, x)
    assert_close(d_x, want_d_x)
    for name in ("weight", "bias"):
        assert grads[name].shape == want_grads[name].shape
        assert_close(grads[name], want_grads[name])


def ref_tapwise_conv1d_forward(p, x):
    """The tap-wise matmul form that ``conv1d_forward`` had before the
    unrolled one: y = bias + sum_k W[:, :, k] @ x_k, x_k a strided view."""
    kernel = p.weight.shape[2]
    span = p.stride * ((x.shape[2] - kernel) // p.stride) + 1
    taps = [x[:, :, k : k + span : p.stride] for k in range(kernel)]
    y = p.bias[:, None] + p.weight[:, :, 0] @ taps[0]
    for k in range(1, kernel):
        y += p.weight[:, :, k] @ taps[k]
    return y


def ref_tapwise_conv1d_backward(p, d_out, x):
    """The per-tap backward that ``conv1d_backward`` had before: the weight
    gradient from one ``np.tensordot`` per tap, and the input gradient
    scattered tap by tap."""
    kernel, out_len = p.weight.shape[2], d_out.shape[2]
    span = p.stride * (out_len - 1) + 1
    d_w, d_x = np.empty_like(p.weight), np.zeros_like(x)
    for k in range(kernel):
        d_w[:, :, k] = np.tensordot(d_out, x[:, :, k : k + span : p.stride], ([0, 2], [0, 2]))
        d_x[:, :, k : k + span : p.stride] += p.weight[:, :, k].T @ d_out
    return d_x, d_w


def unrolled_operands(p, x, out_len):
    """The unrolled form's operands, built tap by tap: (B, L', K*C) windows,
    columns k*C .. k*C + C - 1 of window row j holding the C channels of
    sample S*j + k, and the (K*C, O) weight, row k*C + c holding tap k of
    input channel c."""
    out_c, in_c, kernel = p.weight.shape
    span = p.stride * (out_len - 1) + 1
    cols = np.empty((len(x), out_len, kernel * in_c))
    weight = np.empty((kernel * in_c, out_c))
    for k in range(kernel):
        cols[:, :, k * in_c : (k + 1) * in_c] = x[:, :, k : k + span : p.stride].transpose(0, 2, 1)
        weight[k * in_c : (k + 1) * in_c] = p.weight[:, :, k].T
    return cols, weight


def ref_unrolled_conv1d_forward(p, x):
    """The unrolled order: each window's (L', K*C) rows times the weight,
    one matmul per window, and then the bias."""
    cols, weight = unrolled_operands(p, x, (x.shape[2] - p.weight.shape[2]) // p.stride + 1)
    return np.transpose(np.matmul(cols, weight) + p.bias, (0, 2, 1))


@pytest.mark.parametrize("in_c", [1, 3, 8])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("batch", [1, 2, 17, 40])
def test_conv_forward_is_bit_equal_to_the_tapwise_matmul_form(batch, stride, in_c):
    """The name dates from the tap-wise form that this test pinned before;
    the order it pins now is the unrolled one, a matmul per window over all
    its taps, whichever ``CONV_CHUNK`` of windows the window falls in.
    Exact zeros in x make -0.0 products; nonzero biases are why they cannot
    show."""
    rng = np.random.default_rng(100 * batch + 10 * stride + in_c)
    p = conv1d_init(rng, in_c, 8, 5, stride=stride)
    p.bias[:] = rng.normal(size=8)
    x = rng.normal(size=(batch, in_c, 41))
    x[rng.random(x.shape) < 0.2] = 0.0
    y, _ = conv1d_forward(p, x)
    assert y.tobytes() == ref_unrolled_conv1d_forward(p, x).tobytes()


def ref_unrolled_conv1d_backward(p, d_out, x):
    """The unrolled backward over every window at once, with the output
    gradient channels-last as (B*L', O) rows. The weight gradient is the
    windows' rows transposed by it. The input gradient, as rows of S
    samples, is one matmul: row r holds the output gradient's rows r - m
    for m = M - 1 down to 0 (zero outside the window), and the weight the
    taps S*m .. S*m + S - 1 in the same blocks, zero past the kernel."""
    out_c, in_c, kernel = p.weight.shape
    batch, _, length = x.shape
    s, out_len = p.stride, d_out.shape[2]
    cols, _ = unrolled_operands(p, x, out_len)
    d_y = np.ascontiguousarray(d_out.transpose(0, 2, 1))
    d_rows = np.matmul(cols.reshape(-1, kernel * in_c).T, d_y.reshape(-1, out_c))
    d_w = np.empty_like(p.weight)
    for k in range(kernel):
        d_w[:, :, k] = d_rows[k * in_c : (k + 1) * in_c].T
    n_taps, n_rows = -(-kernel // s), -(-length // s)
    shifted = np.zeros((batch, n_rows, n_taps, out_c))
    grouped = np.zeros((n_taps, out_c, s, in_c))
    for m in range(n_taps):
        shifted[:, m : m + out_len, n_taps - 1 - m] = d_y
    for k in range(kernel):
        grouped[n_taps - 1 - k // s, :, k % s] = p.weight[:, :, k]
    d_x = np.matmul(shifted.reshape(batch * n_rows, -1), grouped.reshape(-1, s * in_c))
    d_x = d_x.reshape(batch, n_rows * s, in_c)[:, :length].transpose(0, 2, 1)
    return d_x, d_w


@pytest.mark.parametrize("batch", [1, 8, 64, 1488])
@pytest.mark.parametrize("in_c, out_c, length", [(1, 8, 360), (8, 16, 178)], ids=["conv1", "conv2"])
def test_conv_backward_is_bit_equal_to_the_per_tap_tensordot(in_c, out_c, length, batch):
    """The rf+lidar model's two conv layers (kernel 5, stride 2) at the
    training batch, the transfer-sized one and two others. The name dates
    from the per-tap ``np.tensordot`` backward that this test pinned before;
    the order it pins now is the unrolled one, a matmul over all windows and
    taps."""
    rng = np.random.default_rng(batch + in_c)
    p = conv1d_init(rng, in_c, out_c, 5, stride=2)
    x = rng.normal(size=(batch, in_c, length))
    y, cache = conv1d_forward(p, x)
    d_out = rng.normal(size=y.shape)
    d_x, grads = conv1d_backward(p, d_out, cache)
    want_d_x, want_d_w = ref_unrolled_conv1d_backward(p, d_out, x)
    assert grads["weight"].tobytes() == want_d_w.tobytes()
    assert d_x.tobytes() == want_d_x.tobytes()


@settings(max_examples=150)
@given(
    st.sampled_from([1, 3, 8, 64, 65]), st.integers(1, 8), st.integers(1, 6),
    st.integers(1, 6), st.integers(1, 3), st.integers(0, 12), st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_the_unrolled_conv_matches_the_einsum_reference(batch, in_c, out_c, kernel, stride,
                                                       extra, channels_last, seed):
    """Every length from the kernel's to 12 samples beyond, most of which the
    stride does not divide, and inputs in (B, C, L) memory or channels-last,
    which the layers read without a copy; batches of 64 and 65 windows span
    more than one ``CONV_CHUNK``. Under ``invalid="raise"``, no product over
    an unfilled buffer may make a NaN."""
    rng = np.random.default_rng(seed)
    p = conv1d_init(rng, in_c, out_c, kernel, stride=stride)
    p.bias[:] = rng.normal(size=out_c)
    x = rng.normal(size=(batch, in_c, kernel + extra))
    if channels_last:
        x = np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)
    with np.errstate(invalid="raise"):
        y, cache = conv1d_forward(p, x)
        assert_close(y, ref_conv1d_forward(p, x))
        d_out = rng.normal(size=y.shape)
        d_x, grads = conv1d_backward(p, d_out, cache)
    want_d_x, want_grads = ref_conv1d_backward(p, d_out, x)
    assert d_x.shape == x.shape
    assert_close(d_x, want_d_x)
    for name in ("weight", "bias"):
        assert grads[name].shape == want_grads[name].shape
        assert_close(grads[name], want_grads[name])
    # The tap-wise form it replaced sums in another order, to the same values.
    tapwise_d_x, tapwise_d_w = ref_tapwise_conv1d_backward(p, d_out, x)
    assert_close(y, ref_tapwise_conv1d_forward(p, x))
    assert_close(d_x, tapwise_d_x)
    assert_close(grads["weight"], tapwise_d_w)


def test_a_conv_layer_reads_the_output_of_the_one_before_without_a_copy():
    """The rf+lidar shapes: conv1's output and conv2's input gradient are
    (B, C, L) views of channels-last memory, and conv2 and the pooling read
    conv1's and conv2's outputs in place."""
    rng = np.random.default_rng(6)
    conv1, conv2 = conv1d_init(rng, 1, 8, 5, 2), conv1d_init(rng, 8, 16, 5, 2)
    x = rng.uniform(size=(8, 360))[:, None, :]
    y1, _ = conv1d_forward(conv1, x)
    y2, _ = conv1d_forward(conv2, relu(y1, out=y1))
    for y in (y1, y2):
        assert y.transpose(0, 2, 1).flags.c_contiguous
    assert np.shares_memory(nn._channels_last(y1), y1)
    d_x, _ = conv1d_backward(conv2, rng.normal(size=y2.shape), y1)
    assert d_x.transpose(0, 2, 1).flags.c_contiguous
    pooled, length = global_avg_pool(y2)
    np.testing.assert_allclose(pooled, y2.mean(axis=2), rtol=1e-13)
    d_pool = global_avg_pool_backward(pooled, length)
    assert (d_pool * (y2 > 0)).transpose(0, 2, 1).flags.c_contiguous


TINY = np.finfo(np.float64).smallest_subnormal
SIGMOID_SPECIAL = np.array([0.0, -0.0, 710.0, -710.0, 1e300, -1e300, np.inf, -np.inf,
                            TINY, -TINY, 1e3 * TINY, -1e3 * TINY, 2.2e-308, -2.2e-308])
SIGMOID_GRID = np.concatenate([SIGMOID_SPECIAL, np.linspace(-40.0, 40.0, 1601),
                               np.random.default_rng(0).normal(scale=10.0, size=4000),
                               np.linspace(-700.0, 700.0, 2801)])


def test_sigmoid_is_bit_equal_to_the_tanh_form():
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        assert sigmoid(SIGMOID_GRID).tobytes() == ref_sigmoid(SIGMOID_GRID).tobytes()
        block = SIGMOID_GRID[:1200].reshape(8, 150)  # gate-shaped input
        assert sigmoid(block).tobytes() == ref_sigmoid(block).tobytes()


def test_sigmoid_is_within_two_ulp_of_one_of_the_exp_form():
    # Two ulp at 1.0 bounds the tanh form's error against the exp form split
    # by sign, over +-40 and out to +-700, where the exp form's e**-|x| is
    # still a normal float.
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got, want = sigmoid(SIGMOID_GRID), exp_sigmoid(SIGMOID_GRID)
    assert np.max(np.abs(got - want)) <= 2 * np.finfo(np.float64).eps
    assert np.all((got >= 0.0) & (got <= 1.0))
    np.testing.assert_array_equal(got[2:8], [1.0, 0.0, 1.0, 0.0, 1.0, 0.0])


def test_every_forward_activates_extreme_gate_inputs_as_sigmoid_and_tanh():
    # Pre-activations beyond the Hypothesis properties' scale (at most 1e3):
    # subnormals, and values where exp overflows or tanh saturates. With zero
    # weights, a gate's pre-activation is its bias.
    edges = [0.0, 1e-310, -1e-310, 710.0, -710.0, 1e300, -1e300, np.inf, -np.inf]
    hid, steps = len(edges), 3
    rng = np.random.default_rng(5)
    layers = lstm_stack(rng, hid, [hid, hid], 1.0)
    for p in layers:
        p.w_in[:] = p.w_rec[:] = 0.0
        p.bias[:] = rng.permutation(np.tile(edges, 4))
    seq = np.ones((steps, 2, hid))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        hidden, _, cache = lstm_forward(layers[0], seq)
        top, buffers = plan_run(LstmStack.of(layers), seq, rolling=False)
        cache_free = plan_run(LstmStack.of(layers), seq, rolling=True)[0]
        want = []
        for p in layers:
            i, f, g, o = np.split(np.broadcast_to(p.bias, (2, 4 * hid)), 4, axis=1)
            want.append(np.concatenate([sigmoid(i), sigmoid(f), np.tanh(g), sigmoid(o)], axis=1))
    for t in range(steps):
        assert cache.gates[t].tobytes() == want[0].tobytes()
        for layer in range(2):
            assert buffers.gates[layer + t, layer].tobytes() == want[layer].tobytes()
    assert hidden.tobytes() == plan_run(LstmStack.of(layers[:1]), seq, rolling=True)[0].tobytes()
    assert top.tobytes() == cache_free.tobytes() and np.isfinite(top).all()


@pytest.mark.parametrize("steps, batch, width, hid", [(8, 8, 64, 16), (8, 8, 16, 32), (3, 1, 5, 4)])
def test_lstm_backward_matches_the_per_step_reference(steps, batch, width, hid):
    rng = np.random.default_rng(steps * batch + hid)
    p = lstm_init(rng, width, hid)
    p.bias[:] = rng.normal(size=4 * hid)
    seq = rng.normal(size=(steps, batch, width))
    _, _, cache = lstm_forward(p, seq)
    d_hidden = rng.normal(size=(steps, batch, hid))
    d_seq, grads = lstm_backward(p, d_hidden, cache)
    want_d_seq, want_grads = ref_lstm_backward(p, d_hidden, cache)
    assert_close(d_seq, want_d_seq)
    for name in ("w_in", "w_rec", "bias"):
        assert_close(grads[name], want_grads[name])


def test_lstm_forward_is_bit_equal_to_the_concatenating_reference():
    rng = np.random.default_rng(11)
    p = lstm_init(rng, 6, 5)
    seq = rng.normal(size=(7, 4, 6))
    hidden, last, cache = lstm_forward(p, seq)
    h = c = np.zeros((4, 5))
    for t in range(7):
        a = seq[t] @ p.w_in + p.bias + h @ p.w_rec
        i, f, o = ref_sigmoid(a[:, :5]), ref_sigmoid(a[:, 5:10]), ref_sigmoid(a[:, 15:])
        g = np.tanh(a[:, 10:15])
        c = f * c + i * g
        h = o * np.tanh(c)
        assert cache.gates[t].tobytes() == np.concatenate([i, f, g, o], axis=1).tobytes()
        assert cache.cells[t + 1].tobytes() == c.tobytes()
        assert hidden[t].tobytes() == cache.hidden[t + 1].tobytes() == h.tobytes()
    assert last.tobytes() == h.tobytes()
    assert not cache.cells[0].any() and not cache.hidden[0].any()


@settings(max_examples=200)
@given(
    st.integers(1, 9), st.integers(1, 5), st.integers(1, 6), st.integers(1, 8),
    st.integers(0, 2**32 - 1), st.sampled_from([0.1, 1.0, 10.0, 1e3]),
)
def test_cache_free_lstm_is_bit_equal_to_the_buffered_one(steps, batch, width, hid, seed, scale):
    # Scales up to 1e3 put pre-activations on both sides of zero and deep
    # into saturation, where the gates return exactly 0, 1 or -1.
    rng = np.random.default_rng(seed)
    p = lstm_init(rng, width, hid)
    p.bias[:] = rng.normal(scale=scale, size=4 * hid)
    seq = rng.normal(scale=scale, size=(steps, batch, width))
    hidden = plan_run(LstmStack.of([p]), seq, rolling=True)[0]
    assert hidden.shape == (steps, batch, hid)
    assert hidden.tobytes() == lstm_forward(p, seq)[0].tobytes()


def lstm_stack(rng, width, hids, scale):
    """LSTM layers of hidden sizes ``hids`` over ``width`` inputs, their
    biases drawn at ``scale``."""
    layers = []
    for hid in hids:
        layers.append(lstm_init(rng, width, hid))
        layers[-1].bias[:] = rng.normal(scale=scale, size=4 * hid)
        width = hid
    return layers


def chained(run, layers, seq):
    for p in layers:
        seq = run(p, seq)
    return seq


@settings(max_examples=200)
@given(
    st.integers(1, 4), st.integers(1, 9), st.integers(1, 9), st.integers(1, 6),
    st.integers(1, 8), st.integers(0, 2**32 - 1), st.sampled_from([0.1, 1.0, 10.0, 1e3]),
)
def test_the_stack_wavefront_is_bit_equal_to_chained_layers(depth, steps, batch, width, hid,
                                                            seed, scale):
    rng = np.random.default_rng(seed)
    layers = lstm_stack(rng, width, [hid] * depth, scale)
    seq = rng.normal(scale=scale, size=(steps, batch, width))
    hidden = plan_run(LstmStack.of(layers), seq, rolling=True)[0]
    assert hidden.shape == (steps, batch, hid)
    one_layer = chained(lambda p, s: plan_run(LstmStack.of([p]), s, rolling=True)[0], layers, seq)
    assert hidden.tobytes() == one_layer.tobytes()
    assert hidden.tobytes() == chained(lambda p, s: lstm_forward(p, s)[0], layers, seq).tobytes()


def test_a_stack_whose_widths_do_not_chain_is_refused():
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match="input_size 5 != hidden_size 3"):
        LstmStack.of([lstm_init(rng, 4, 3), lstm_init(rng, 5, 3)])


def test_a_stack_of_other_hidden_sizes_is_refused():
    with pytest.raises(ValueError, match="one hidden size"):
        LstmStack.of(lstm_stack(np.random.default_rng(3), 4, [3, 6, 2], 1.0))


def test_a_stack_of_inconsistent_shapes_is_refused():
    stack = LstmStack.of(lstm_stack(np.random.default_rng(3), 4, [3, 3], 1.0))
    for field_name, bad in (("w_in0", np.zeros((4, 11))), ("w_in", np.zeros((2, 3, 12))),
                            ("w_rec", np.zeros((2, 3, 11))), ("bias", np.zeros((1, 12)))):
        arrays = dict(vars(stack), **{field_name: bad})
        with pytest.raises(ValueError, match="shapes are inconsistent"):
            LstmStack(**arrays)


def chained_forward(layers, seq):
    """The top hidden sequence and every layer's cache of chained ``lstm_forward`` calls."""
    caches = []
    for p in layers:
        seq, _, cache = lstm_forward(p, seq)
        caches.append(cache)
    return seq, caches


def layer_arrays(buffers, l, steps):
    """Layer l's ``lstm_forward`` cache arrays in a diagonal-major
    ``LstmPlan``'s buffers."""
    return {"inputs": buffers.inputs if l == 0 else buffers.hidden[l : l + steps, l - 1],
            "gates": buffers.gates[l : l + steps, l], "cells": buffers.cells[l : l + steps + 1, l],
            "cell_tanh": buffers.cell_tanh[l : l + steps, l],
            "hidden": buffers.hidden[l : l + steps + 1, l]}


def assert_buffered_stack_is_chained(layers, seq):
    """A diagonal-major ``LstmPlan`` over ``layers`` returns the hidden
    sequence of chained ``lstm_forward`` calls, and holds each layer's cache
    arrays in its buffers, all bit for bit."""
    top, buffers = plan_run(LstmStack.of(layers), seq, rolling=False)
    want, want_caches = chained_forward(layers, seq)
    assert top.shape == want.shape and top.tobytes() == want.tobytes()
    for l, want_cache in enumerate(want_caches):
        for name, got in layer_arrays(buffers, l, len(seq)).items():
            ref = getattr(want_cache, name)
            assert got.shape == ref.shape, name
            assert np.ascontiguousarray(got).tobytes() == ref.tobytes(), name


def one_shot_backward(stack, d_top, buffers, grads):
    """A one-shot ``nn.LstmBackwardPlan`` of ``stack`` run over ``buffers``."""
    return nn.LstmBackwardPlan(stack, buffers.inputs.shape).run(buffers, d_top, grads)


def assert_stack_backward_is_chained(layers, seq, d_top, backward=one_shot_backward):
    """``backward`` (``one_shot_backward``'s signature) over a diagonal-major
    ``LstmPlan``'s buffers against chained ``lstm_backward`` over
    chained ``lstm_forward`` caches. At B = 8 every weight gradient has the
    chained bits, and at one layer the input gradient too; otherwise they
    agree within ``assert_close``, as all agree with the per-step
    reference, whose code they do not share. Returns the gradients."""
    stack = LstmStack.of(layers)
    with np.errstate(invalid="raise"):  # the factor passes also read rows no diagonal reaches
        _, buffers = plan_run(stack, seq, rolling=False)
        grads = LstmStack(*(np.full_like(a, np.nan) for a in vars(stack).values()))
        d_seq = backward(stack, d_top, buffers, grads)
    _, caches = chained_forward(layers, seq)
    want_d, ref_d, pairs = d_top, d_top, []
    for l in range(len(layers) - 1, -1, -1):
        want_d, want = lstm_backward(layers[l], want_d, caches[l])
        ref_d, ref = ref_lstm_backward(layers[l], ref_d, caches[l])
        got = {"w_in": grads.w_in0 if l == 0 else grads.w_in[l - 1],
               "w_rec": grads.w_rec[l], "bias": grads.bias[l]}
        pairs += [(got[name], want[name], seq.shape[1] == 8) for name in want]
        pairs += [(got[name], ref[name], False) for name in ref]
    pairs += [(d_seq, want_d, len(layers) == 1), (d_seq, ref_d, False)]
    for got, want, exact in pairs:
        assert got.shape == want.shape
        if exact:
            assert got.tobytes() == want.tobytes()
        else:
            assert_close(got, want)
    return d_seq, grads


@settings(max_examples=200)
@given(
    st.integers(1, 4), st.integers(1, 9), st.integers(1, 9), st.integers(1, 6),
    st.integers(1, 8), st.integers(0, 2**32 - 1), st.sampled_from([0.1, 1.0, 10.0, 1e3]),
)
def test_the_buffered_wavefront_is_bit_equal_to_chained_layers(depth, steps, batch, width, hid,
                                                               seed, scale):
    rng = np.random.default_rng(seed)
    layers = lstm_stack(rng, width, [hid] * depth, scale)
    assert_buffered_stack_is_chained(layers, rng.normal(scale=scale, size=(steps, batch, width)))


@settings(max_examples=200)
@given(
    st.integers(1, 4), st.integers(1, 9), st.sampled_from([1, 3, 8, 64, 65]), st.integers(1, 6),
    st.integers(1, 8), st.integers(0, 2**32 - 1), st.sampled_from([0.1, 1.0, 10.0, 1e3]),
)
def test_the_reverse_wavefront_has_the_gradients_of_chained_layers(depth, steps, batch, width,
                                                                   hid, seed, scale):
    rng = np.random.default_rng(seed)
    layers = lstm_stack(rng, width, [hid] * depth, scale)
    seq = rng.normal(scale=scale, size=(steps, batch, width))
    assert_stack_backward_is_chained(layers, seq, rng.normal(size=(steps, batch, hid)))


# (L, M, H) of the three models (localization, rf+lidar, rf) and an odd one,
# over T0 = 8. Training runs B = 8, forecasts B = 1 and scoring blocks of 64
# (65 with a lone trailing window); 208 and 256 are larger blocks. Where the
# backward does not keep the chained bits, its weight gradients moved by at
# most 2.2e-15 of the largest one at these shapes.
@pytest.mark.parametrize("shape", [(1, 64, 32), (2, 64, 16), (4, 64, 16), (3, 5, 7)])
@pytest.mark.parametrize("batch", [1, 8, 64, 65, 208, 256])
@pytest.mark.parametrize("kernel", ["cache-free", "buffered", "backward"])
def test_the_stack_kernels_keep_their_bits_at_the_model_shapes(kernel, shape, batch):
    depth, width, hid = shape
    rng = np.random.default_rng(batch + depth)
    layers = lstm_stack(rng, width, [hid] * depth, 1.0)
    seq = rng.normal(size=(8, batch, width))
    if kernel == "buffered":
        assert_buffered_stack_is_chained(layers, seq)
    elif kernel == "backward":
        assert_stack_backward_is_chained(layers, seq, rng.normal(size=(8, batch, hid)))
    else:
        want = chained(lambda p, s: lstm_forward(p, s)[0], layers, seq)
        assert plan_run(LstmStack.of(layers), seq, rolling=True)[0].tobytes() == want.tobytes()


# A backward plan is made once per stack and (T, B) and run again: each run
# must give the bits of a one-shot backward whatever the runs before it
# left in its buffers, read the weights as they are now, and allocate
# nothing but the input gradient it returns.

def run_twice(plan, d_first, *, last_only=False):
    """A ``backward`` for ``assert_stack_backward_is_chained`` that runs
    ``plan`` over another forward of the stack first, with ``d_first``;
    with ``last_only`` it passes the plan only the last step's gradient."""
    def backward(stack, d_top, buffers, grads):
        rng = np.random.default_rng(99)
        other = rng.normal(scale=3.0, size=buffers.inputs.shape)
        if stack.depth == 1:  # one layer: lstm_forward's cache, the other kind
            p = LstmParams(stack.input_size, stack.hidden_size, stack.w_in0, stack.w_rec[0],
                           stack.bias[0])
            cache = lstm_forward(p, other)[2]
        else:
            cache = plan_run(stack, other, rolling=False)[1]
        plan.run(cache, d_first, LstmStack(*(np.empty_like(a) for a in vars(grads).values())))
        return plan.run(buffers, d_top[-1] if last_only else d_top, grads)
    return backward


@pytest.mark.parametrize("depth", [1, 2, 4])
@pytest.mark.parametrize("batch", [1, 8, 64])
def test_a_reused_backward_plan_keeps_the_bits_of_the_references(depth, batch):
    rng = np.random.default_rng(depth * 100 + batch)
    layers = lstm_stack(rng, 64, [16] * depth, 1.0)
    seq, d_top = rng.normal(size=(8, batch, 64)), rng.normal(size=(8, batch, 16))
    want_seq, want = assert_stack_backward_is_chained(layers, seq, d_top)
    plan = nn.LstmBackwardPlan(LstmStack.of(layers), seq.shape)
    for d_first in (rng.normal(size=(8, batch, 16)), rng.normal(size=(batch, 16))):
        got_seq, got = assert_stack_backward_is_chained(layers, seq, d_top, run_twice(plan, d_first))
        assert got_seq.tobytes() == want_seq.tobytes()
        for array in vars(want):
            assert getattr(got, array).tobytes() == getattr(want, array).tobytes(), array
    # The last step's gradient alone is the sequence's, zero elsewhere, even
    # after a run given the whole sequence.
    last = np.zeros_like(d_top)
    last[-1] = d_top[-1]
    _, want = assert_stack_backward_is_chained(layers, seq, last)
    _, got = assert_stack_backward_is_chained(layers, seq, last,
                                              run_twice(plan, d_top, last_only=True))
    for array in vars(want):
        assert getattr(got, array).tobytes() == getattr(want, array).tobytes(), array


@pytest.mark.parametrize("depth", [1, 4])
def test_a_backward_plan_reads_the_weights_that_adam_updated_in_place(depth):
    rng = np.random.default_rng(31 + depth)
    layers = lstm_stack(rng, 64, [16] * depth, 1.0)
    vector = np.concatenate([a.ravel() for a in vars(LstmStack.of(layers)).values()])
    stack = LstmStack.view(vector, depth, 64, 16)
    seq, d_last = rng.normal(size=(8, 8, 64)), rng.normal(size=(8, 16))
    plan, opt = nn.LstmBackwardPlan(stack, seq.shape), adam_init(vector, lr=0.05)
    grad, want = np.empty_like(vector), np.empty_like(vector)
    grads, want_grads = (LstmStack.view(v, depth, 64, 16) for v in (grad, want))
    d_hidden = np.zeros((8, 8, 16))
    d_hidden[-1] = d_last
    for _ in range(3):
        _, cache = plan_run(stack, seq, rolling=False)
        d_seq = plan.run(cache, d_last, grads)
        fresh = LstmStack(*(a.copy() for a in vars(stack).values()))  # today's weights, copied
        want_seq = one_shot_backward(fresh, d_hidden, cache, want_grads)
        assert d_seq.tobytes() == want_seq.tobytes() and grad.tobytes() == want.tobytes()
        adam_step(opt, vector, grad)


def test_a_blown_up_bias_runs_through_both_plans_without_an_overflow():
    # Neither plan refuses a diverging fit: ``models._train`` judges a fit by
    # its loss. The gate rows that no diagonal reaches stay zero, so the
    # backward's factor pass, which reads them too, squares no bias there.
    rng = np.random.default_rng(41)
    layers = lstm_stack(rng, 64, [16] * 4, 1.0)
    for p in layers:
        p.bias[:] = 1e300
    stack = LstmStack.of(layers)
    seq = rng.normal(size=(8, 8, 64))
    grads = LstmStack(*(np.full_like(a, np.nan) for a in vars(stack).values()))
    with np.errstate(over="raise", invalid="raise"):
        top, cache = nn.LstmPlan(stack, seq.shape, rolling=False).run(seq)
        nn.LstmBackwardPlan(stack, seq.shape).run(cache, rng.normal(size=(8, 16)), grads)
    assert np.isfinite(top).all()
    # Every gate saturates, so every gradient is exactly zero.
    assert not any(a.any() for a in vars(grads).values())


@pytest.mark.parametrize("depth, hid", [(1, 32), (2, 16), (4, 16)])
def test_a_reused_backward_plan_allocates_no_buffer(depth, hid, traced_peak_mib):
    """A run after the first allocates only small objects, views and the
    like, which peaked at 2,064 bytes at each shape. The plan's smallest
    buffer, at B = 8, is 4 KiB; a one-shot backward peaks at 343 KiB and
    more at these shapes, since it allocates every buffer anew."""
    rng = np.random.default_rng(depth)
    stack = LstmStack.of(lstm_stack(rng, 64, [hid] * depth, 1.0))
    seq = rng.normal(size=(8, 8, 64))
    cache = (lstm_forward(LstmParams(64, hid, stack.w_in0, stack.w_rec[0], stack.bias[0]), seq)[2]
             if depth == 1 else plan_run(stack, seq, rolling=False)[1])
    grads = LstmStack(*(np.empty_like(a) for a in vars(stack).values()))
    plan, d_last = nn.LstmBackwardPlan(stack, seq.shape), rng.normal(size=(8, hid))

    def runs():
        for _ in range(5):
            plan.run(cache, d_last, grads, input_grad=False)
    runs()
    assert traced_peak_mib(runs) * 2**20 < 3072


def test_the_input_gradients_can_be_skipped_with_the_same_weight_gradients():
    rng = np.random.default_rng(5)
    p = lstm_init(rng, 6, 4)
    _, _, cache = lstm_forward(p, rng.normal(size=(5, 3, 6)))
    d_hidden = rng.normal(size=(5, 3, 4))
    conv = conv1d_init(rng, 2, 3, 5, 2)
    x = rng.normal(size=(3, 2, 21))
    d_out = rng.normal(size=conv1d_forward(conv, x)[0].shape)
    for backward, args in ((lstm_backward, (p, d_hidden, cache)),
                           (conv1d_backward, (conv, d_out, x))):
        d_in, grads = backward(*args)
        skipped, same = backward(*args, input_grad=False)
        assert d_in is not None and skipped is None
        assert grads.keys() == same.keys()
        for name in grads:
            assert grads[name].tobytes() == same[name].tobytes(), name


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def test_huber_exact_trivial_values():
    loss, grad = huber_loss(np.array([1.0]), np.array([1.0]))
    assert loss == 0.0 and grad[0] == 0.0

    loss, grad = huber_loss(np.array([0.5]), np.array([0.0]), delta=1.0)
    assert abs(loss - 0.125) <= 1e-12
    assert abs(grad[0] - 0.5) <= 1e-12

    loss, grad = huber_loss(np.array([2.0]), np.array([0.0]), delta=1.0)
    assert abs(loss - 1.5) <= 1e-12
    assert abs(grad[0] - 1.0) <= 1e-12


def test_huber_is_continuous_at_the_seam():
    eps = 1e-9
    for delta in (0.5, 1.0, 2.0):
        inside, _ = huber_loss(np.array([delta - eps]), np.array([0.0]), delta)
        outside, _ = huber_loss(np.array([delta + eps]), np.array([0.0]), delta)
        assert abs(inside - outside) <= 1e-8
        _, g_in = huber_loss(np.array([delta - eps]), np.array([0.0]), delta)
        _, g_out = huber_loss(np.array([delta + eps]), np.array([0.0]), delta)
        assert abs(g_in[0] - g_out[0]) <= 1e-8


def test_huber_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    target = rng.normal(size=(4, 3))
    # Keep residuals away from the seam so central differences are clean.
    z = rng.uniform(0.1, 0.8, size=(4, 3)) * rng.choice([-1.0, 1.0], size=(4, 3))
    z[0] = 1.4 * np.sign(z[0])  # some entries in the linear zone
    pred = target + z
    _, grad = huber_loss(pred, target, delta=1.0)
    fd = fd_grad(lambda: huber_loss(pred, target, delta=1.0)[0], pred)
    assert max_rel_err(grad, fd) < 1e-4


def test_bce_known_value_and_gradient():
    loss, grad = bce_loss(np.array([0.5]), np.array([1.0]))
    assert loss == pytest.approx(math.log(2.0), rel=1e-15)
    assert grad[0] == pytest.approx(-0.5, rel=1e-15)


def test_bce_perfect_predictions_are_nearly_free():
    loss, grad = bce_loss(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    assert loss <= 1e-6
    assert np.max(np.abs(grad)) <= 1e-6


def test_bce_logit_gradient_matches_finite_differences():
    rng = np.random.default_rng(10)
    logits = rng.normal(size=(3, 5))
    targets = rng.integers(0, 2, size=(3, 5)).astype(np.float64)

    def objective():
        return bce_loss(sigmoid(logits), targets)[0]

    _, grad = bce_loss(sigmoid(logits), targets)
    assert max_rel_err(grad, fd_grad(objective, logits)) < 1e-4


def test_loss_input_validation():
    with pytest.raises(ValueError):
        huber_loss(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        huber_loss(np.zeros(3), np.zeros(3), delta=0.0)
    with pytest.raises(ValueError):
        bce_loss(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        bce_loss(np.full(3, 0.5), np.array([0.0, 0.3, 1.0]))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_leaves_parameters_untouched():
    params = np.array([1.0, -2.0, 3.0])
    before = params.copy()
    state = adam_init(params, lr=0.1)
    adam_step(state, params, np.zeros(3))
    np.testing.assert_array_equal(params, before)


def test_adam_first_step_size_is_about_lr():
    params = np.array([0.0])
    state = adam_init(params, lr=0.01)
    adam_step(state, params, np.array([5.0]))
    assert params[0] == pytest.approx(-0.01, rel=1e-6)


def test_adam_descends_a_quadratic_bowl():
    # Minimizing 0.5*||w||^2 from (1, 1): the gradient is w itself.
    params = np.array([1.0, 1.0])
    state = adam_init(params, lr=0.05)
    for _ in range(100):
        adam_step(state, params, params.copy())
    assert float(np.linalg.norm(params)) < 0.1
    assert state.step == 100


def test_adam_validates_shape_and_finiteness():
    params = np.zeros(2)
    state = adam_init(params)
    with pytest.raises(ValueError, match="gradient shape"):
        adam_step(state, params, np.zeros(1))  # would broadcast
    with pytest.raises(NonFiniteError, match="grad contains non-finite values"):
        adam_step(state, params, np.array([0.0, math.nan]))
    assert state.step == 0 and not params.any()


def test_adam_state_defaults():
    s = adam_init(np.ones(3))
    assert (s.lr, s.step) == (1e-3, 0)
    assert s.m.shape == s.v.shape == (3,) and not s.m.any() and not s.v.any()
    assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)


def ref_adam_step(state, params, grads, b1=0.9, b2=0.999, eps=1e-8):
    """The per-array update the flat one replaced: ``state`` holds ``lr``,
    ``step`` and dicts ``m`` and ``v`` of one moment array per name."""
    state["step"] += 1
    correction1 = 1.0 - b1 ** state["step"]
    correction2 = 1.0 - b2 ** state["step"]
    for name, p in params.items():
        g = grads[name]
        m = state["m"][name]
        v = state["v"][name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g**2
        p -= state["lr"] * (m / correction1) / (np.sqrt(v / correction2) + eps)


@settings(max_examples=150)
@given(
    st.lists(st.lists(st.integers(1, 5), min_size=1, max_size=3), min_size=1, max_size=6),
    st.integers(1, 12), st.integers(0, 2**32 - 1),
    st.sampled_from([1e-3, 0.1, 2.0]), st.sampled_from([1e-9, 1.0, 1e4]),
)
def test_flat_adam_is_bit_equal_to_the_per_array_reference(shapes, steps, seed, lr, scale):
    # The drawn shapes set the split points of the vector into named arrays.
    rng = np.random.default_rng(seed)
    ref = {f"a{k}": rng.normal(size=shape) for k, shape in enumerate(shapes)}
    flat = np.concatenate([arr.ravel() for arr in ref.values()])
    ref_state = {"lr": lr, "step": 0, "m": {k: np.zeros_like(a) for k, a in ref.items()},
                 "v": {k: np.zeros_like(a) for k, a in ref.items()}}
    state = adam_init(flat, lr=lr)
    for _ in range(steps):
        grads = {k: rng.normal(scale=scale, size=a.shape) for k, a in ref.items()}
        grads["a0"].ravel()[0] = 0.0  # a zero gradient entry keeps its moments at zero
        ref_adam_step(ref_state, ref, grads)
        adam_step(state, flat, np.concatenate([g.ravel() for g in grads.values()]))
    assert state.step == ref_state["step"] == steps
    for got, want in ((flat, ref), (state.m, ref_state["m"]), (state.v, ref_state["v"])):
        assert got.tobytes() == np.concatenate([a.ravel() for a in want.values()]).tobytes()


def test_an_adam_step_allocates_less_than_the_parameter_vector(traced_peak_mib):
    # 13,286 values: the localization model's parameters. The update's
    # intermediates go through the state's two scratch vectors, so a step
    # makes no parameter-sized temporary.
    rng = np.random.default_rng(0)
    params = rng.normal(size=13_286)
    state = adam_init(params)
    grad = rng.normal(size=params.shape)
    adam_step(state, params, grad)
    assert traced_peak_mib(lambda: adam_step(state, params, grad)) * 2**20 < params.nbytes


# ---------------------------------------------------------------------------
# Init
# ---------------------------------------------------------------------------

def test_uniform_init_bounds_and_determinism():
    a = uniform_init(np.random.default_rng(0), (50, 40), fan_in=16)
    assert np.all(np.abs(a) <= 0.25)
    assert np.std(a) > 0.05
    b = uniform_init(np.random.default_rng(0), (50, 40), fan_in=16)
    np.testing.assert_array_equal(a, b)
    c = uniform_init(np.random.default_rng(1), (50, 40), fan_in=16)
    assert not np.array_equal(a, c)


def test_layer_inits_zero_their_biases():
    rng = np.random.default_rng(0)
    d = dense_init(rng, 4, 3)
    np.testing.assert_array_equal(d.bias, np.zeros(3))
    p = lstm_init(rng, 4, 3)
    np.testing.assert_array_equal(p.bias[3:6], np.ones(3))
    np.testing.assert_array_equal(p.bias[:3], np.zeros(3))
    np.testing.assert_array_equal(p.bias[6:], np.zeros(6))


# ---------------------------------------------------------------------------
# The checkpoint format, which models.save_model / load_model own
# ---------------------------------------------------------------------------

def small_checkpoint(path) -> dict:
    """Save a one-beam localization model to ``path`` (``lstm.w_in`` is
    (1, 128), ``lstm.w_rec`` (32, 128), ``dense2.bias`` (4,)); return its JSON."""
    stats = NormStats(np.zeros(1), np.ones(1), np.array([-14.0, 4.0]), np.array([28.0, 4.0]), 16.0)
    save_model(build_model("localization", 1, 4, 2, stats), path)
    return json.loads(path.read_text())


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(12)
    stats = NormStats(rng.normal(size=3) * math.pi, rng.uniform(0.5, 2.0, size=3) / 3.0,
                      np.array([-14.0, 4.0]), np.array([28.0, 4.0]), 16.0)
    model = build_model("rf+lidar", 3, 4, 2, stats, 13)
    model.params[:] = rng.normal(size=model.params.size) * math.pi
    save_model(model, tmp_path / "ck.json")
    loaded = load_model(tmp_path / "ck.json")
    assert (loaded.kind, loaded.window_len, loaded.horizon, loaded.raster_bins) == (
        "rf+lidar", 4, 2, 13)
    assert loaded.params.tobytes() == model.params.tobytes()
    for key in ("rssi_mean", "rssi_std", "road_origin", "road_size"):
        assert getattr(loaded.stats, key).tobytes() == getattr(stats, key).tobytes()


def test_checkpoint_version_is_enforced(tmp_path):
    payload = small_checkpoint(tmp_path / "ck.json")
    payload["format_version"] = 42
    (tmp_path / "ck.json").write_text(json.dumps(payload))
    with pytest.raises(VersionError):
        load_model(tmp_path / "ck.json")


BAD_PARAM_DATA = {  # case -> rewrite of params.dense2.bias's data, 4 cells
    "string": lambda data: ["0.5"] + data[1:],
    "bool": lambda data: [True] + data[1:],
    "nan": lambda data: [math.nan] + data[1:],
    "wrong-length": lambda data: data[:3],
    "nested": lambda data: [data],
}


@pytest.mark.parametrize("case", sorted(BAD_PARAM_DATA))
def test_checkpoint_data_that_is_no_list_of_shape_many_numbers_names_the_entry(tmp_path, case):
    # np.array(data, dtype=np.float64) used to read "0.5" and true as numbers.
    path = tmp_path / "ck.json"
    payload = small_checkpoint(path)
    entry = payload["params"]["dense2.bias"]
    entry["data"] = BAD_PARAM_DATA[case](entry["data"])
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError) as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}: params.dense2.bias.data must be a list of 4 numbers")


# lstm.w_in is (1, 128): a float or a bool equals its int, and [64, 128] is
# the shape of another architecture (64 beams)
@pytest.mark.parametrize("shape", [[-1, 128], [1.0, 128], [True, 128], "3", None, [64, 128]])
def test_checkpoint_shape_must_be_a_list_of_non_negative_integers(tmp_path, shape):
    path = tmp_path / "ck.json"
    payload = small_checkpoint(path)
    payload["params"]["lstm.w_in"]["shape"] = shape
    path.write_text(json.dumps(payload))
    with pytest.raises(SchemaError) as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}: params.lstm.w_in.shape must be [1, 128]")


def test_a_long_bad_checkpoint_entry_is_quoted_in_short(tmp_path):
    path = tmp_path / "ck.json"
    for key in ("data", "shape"):
        payload = small_checkpoint(path)
        entry = payload["params"]["lstm.w_rec"]  # (32, 128)
        if key == "data":
            entry["data"][-1] = "x"
        else:
            entry["shape"] = list(range(4096))
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError) as err:
            load_model(path)
        assert f"params.lstm.w_rec.{key} must be" in str(err.value)
        assert len(str(err.value)) < 400


def test_dense_params_shape_validation():
    with pytest.raises(ValueError):
        DenseParams(np.zeros((3, 2)), np.zeros(3))
