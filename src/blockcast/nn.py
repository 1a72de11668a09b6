"""Minimal neural kernel: dense, LSTM, 1-D conv, pooling, losses, Adam.

Everything runs in float64 on plain numpy arrays. The conv is computed tap
by tap with BLAS matmuls over strided views, and the LSTM backward pass
keeps only the recurrent matmul inside its time loop. The LSTM starts from
zero state and has two forwards with the same bits. Training buffers the
gates and cell states of every step for ``lstm_backward``: ``lstm_forward``
runs one layer, and ``lstm_stack_forward`` runs stacked layers as one
wavefront. Prediction runs ``lstm_stack_hidden``, a cache-free recurrence
with the same wavefront, whose steps keep only the hidden and cell state.
The schedule depends on the number of layers alone, never on the batch.
Either wavefront activates all four gates with one ``sigmoid`` per step.
Each layer ships a hand-derived backward pass returning gradients in the
same shapes as its parameters; finite-difference tests lock every one of
them. There is no autodiff graph: the architecture set is small and fixed,
and explicit backward code keeps the arithmetic auditable.

Parameter initialization is fully seeded: weights are uniform in
[-1/sqrt(fan_in), +1/sqrt(fan_in)], biases start at zero except the LSTM
forget gate, which starts at one. Adam updates one parameter vector (a
model's arrays are views of ``models.Model.params``) in one elementwise pass
whose intermediates go through two scratch vectors of its state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SchemaError, VersionError
from .ingest import json_field, read_json_object
from .scene import ensure_finite

CHECKPOINT_FORMAT_VERSION = 1

Array = np.ndarray


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> Array:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def relu(x: Array, out: Array | None = None) -> Array:
    return np.maximum(x, 0.0, out=out)


def relu_backward(d_out: Array, x: Array) -> Array:
    return d_out * (x > 0.0)


def sigmoid(x: Array) -> Array:
    # exp(-|x|) never overflows; 1/(1+e) for x >= 0 and e/(1+e) below are the
    # two halves of the sign split, without boolean-mask gathers.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


# ---------------------------------------------------------------------------
# Dense layer
# ---------------------------------------------------------------------------

@dataclass
class DenseParams:
    weight: Array  # (n_in, n_out)
    bias: Array    # (n_out,)

    def __post_init__(self):
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[1],):
            raise ValueError("dense weight/bias shapes are inconsistent")


def dense_init(rng: np.random.Generator, n_in: int, n_out: int) -> DenseParams:
    return DenseParams(uniform_init(rng, (n_in, n_out), n_in), np.zeros(n_out))


def dense_forward(p: DenseParams, x: Array) -> tuple[Array, Array]:
    if x.shape[-1] != p.weight.shape[0]:
        raise ValueError(
            f"dense input width {x.shape[-1]} != weight rows {p.weight.shape[0]}"
        )
    y = x @ p.weight + p.bias
    ensure_finite("dense output", y)
    return y, x


def dense_backward(p: DenseParams, d_out: Array, cache: Array):
    x = cache
    d_x = d_out @ p.weight.T
    grads = {"weight": x.T @ d_out, "bias": d_out.sum(axis=0)}
    return d_x, grads


# ---------------------------------------------------------------------------
# LSTM layer, and stacks of layers of one hidden size
# ---------------------------------------------------------------------------
# Gate order inside the fused weight matrices: input, forget, candidate,
# output. The cell recurrence is the standard one:
#   i = sig(a_i)  f = sig(a_f)  g = tanh(a_g)  o = sig(a_o)
#   c_t = f * c_{t-1} + i * g
#   h_t = o * tanh(c_t)

@dataclass
class LstmParams:
    input_size: int
    hidden_size: int
    w_in: Array   # (input_size, 4 * hidden_size)
    w_rec: Array  # (hidden_size, 4 * hidden_size)
    bias: Array   # (4 * hidden_size,)

    def __post_init__(self):
        h4 = 4 * self.hidden_size
        if (
            self.w_in.shape != (self.input_size, h4)
            or self.w_rec.shape != (self.hidden_size, h4)
            or self.bias.shape != (h4,)
        ):
            raise ValueError("lstm parameter shapes are inconsistent")


def lstm_init(rng: np.random.Generator, input_size: int, hidden_size: int) -> LstmParams:
    h4 = 4 * hidden_size
    bias = np.zeros(h4)
    bias[hidden_size : 2 * hidden_size] = 1.0  # forget gate opens at start
    return LstmParams(
        input_size,
        hidden_size,
        uniform_init(rng, (input_size, h4), input_size),
        uniform_init(rng, (hidden_size, h4), hidden_size),
        bias,
    )


@dataclass
class LstmCache:
    inputs: Array
    gates: Array      # (T, B, 4H) post-nonlinearity, gate order i,f,g,o
    cells: Array      # (T + 1, B, H); row 0 is the zero initial state
    cell_tanh: Array  # (T, B, H)
    hidden: Array     # (T + 1, B, H); row 0 is the zero initial state


def _checked_seq(p: LstmParams, seq) -> Array:
    """seq as float64 (T, B, input_size) with T >= 1 and finite values."""
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim != 3 or seq.shape[0] < 1:
        raise ValueError("seq must be (T, B, input_size) with T >= 1")
    if seq.shape[2] != p.input_size:
        raise ValueError(f"seq width {seq.shape[2]} != input_size {p.input_size}")
    return ensure_finite("lstm input", seq)


def lstm_forward(p: LstmParams, seq: Array) -> tuple[Array, Array, LstmCache]:
    """Run the recurrence from zero state over seq of shape (T, B, input_size).

    Returns the full hidden sequence (T, B, H), the final hidden state,
    and the cache needed for an exact backward pass.
    """
    seq = _checked_seq(p, seq)
    steps, batch, _ = seq.shape
    hid = p.hidden_size
    gates = np.empty((steps, batch, 4 * hid))
    cells = np.zeros((steps + 1, batch, hid))
    cell_tanh = np.empty((steps, batch, hid))
    hidden = np.zeros((steps + 1, batch, hid))
    h, c = hidden[0], cells[0]  # the loop writes step t's states into row t + 1
    pre = seq @ p.w_in + p.bias  # recurrent term added per step
    for t in range(steps):
        a = np.add(pre[t], h @ p.w_rec, out=gates[t])  # each gate activated in place
        i, f, g, o = a[:, :hid], a[:, hid : 2 * hid], a[:, 2 * hid : 3 * hid], a[:, 3 * hid :]
        i[:] = sigmoid(i)
        f[:] = sigmoid(f)
        np.tanh(g, out=g)
        o[:] = sigmoid(o)
        c = np.multiply(f, c, out=cells[t + 1])
        c += i * g
        h = np.multiply(o, np.tanh(c, out=cell_tanh[t]), out=hidden[t + 1])
    ensure_finite("lstm hidden", hidden)
    return hidden[1:], hidden[-1], LstmCache(seq, gates, cells, cell_tanh, hidden)


def _checked_stack(layers: list[LstmParams], seq) -> Array:
    """``_checked_seq`` for the first of stacked ``layers``, each of which
    must read the hidden size of the one below and share its hidden size."""
    seq = _checked_seq(layers[0], seq)
    for below, p in zip(layers, layers[1:]):
        if p.input_size != below.hidden_size:
            raise ValueError(f"lstm input_size {p.input_size} != hidden_size "
                             f"{below.hidden_size} of the layer below")
    if len({p.hidden_size for p in layers}) != 1:
        raise ValueError("a stack runs as a wavefront only with one hidden size")
    return seq


def lstm_stack_hidden(layers: list[LstmParams], seq: Array) -> Array:
    """The top layer's hidden sequence (T, B, H) of stacked LSTM ``layers``
    of one hidden size over seq (T, B, input_size), each layer reading the
    hidden sequence of the one below; bit for bit the chained
    ``lstm_forward`` calls, without their backward buffers.

    One layer runs its own recurrence. A stack runs as a wavefront
    (Appleyard, Kocisky and Blunsom, arXiv:1604.01946) at any batch size:
    layer l's step t needs only (l, t - 1) and (l - 1, t), so every layer on
    a diagonal l + t runs together, in T + L - 1 steps instead of T * L.
    """
    seq = _checked_stack(layers, seq)
    seq = _recurrence(layers[0], seq) if len(layers) == 1 else _wavefront(layers, seq)
    return ensure_finite("lstm hidden", seq)


def _recurrence(p: LstmParams, seq: Array) -> Array:
    """One layer's hidden sequence. Each step activates all 4H gate columns
    with one ``sigmoid`` and then overwrites the candidate slice with
    ``tanh`` of its pre-activation."""
    steps, batch, _ = seq.shape
    hid = p.hidden_size
    i, f, g, o = (slice(k * hid, (k + 1) * hid) for k in range(4))
    h = c = np.zeros((batch, hid))
    hidden = np.empty((steps, batch, hid))
    pre = seq @ p.w_in
    pre += p.bias
    for t in range(steps):
        a = pre[t] + h @ p.w_rec
        gates = sigmoid(a)
        cand = np.tanh(a[:, g], out=gates[:, g])
        c = gates[:, f] * c
        c += gates[:, i] * cand
        h = np.multiply(gates[:, o], np.tanh(c), out=hidden[t])
    return hidden


def _wavefront(layers: list[LstmParams], seq: Array) -> Array:
    """``_recurrence`` chained over ``layers``, one diagonal l + t at a time.

    ``hs[l, t + l + 1]`` holds layer l's hidden state after step t, and
    ``hs[l, l]`` its zero initial state, so diagonal d reads column d of
    layers lo:hi (their own last state, and the input from the layer below)
    and writes column d + 1. ``pre[d, l]`` holds layer l's input term at
    diagonal d, summed as in ``_recurrence``: (x @ w_in + bias) + h @ w_rec.
    """
    steps, batch, _ = seq.shape
    depth, hid = len(layers), layers[0].hidden_size
    i, f, g, o = (slice(k * hid, (k + 1) * hid) for k in range(4))
    w_in = np.stack([p.w_in for p in layers[1:]])  # (L - 1, H, 4H)
    w_rec = np.stack([p.w_rec for p in layers])    # (L, H, 4H)
    pre = np.empty((steps + depth - 1, depth, batch, 4 * hid))
    np.matmul(seq, layers[0].w_in, out=pre[:steps, 0])
    pre[:steps, 0] += layers[0].bias
    for l, p in enumerate(layers[1:], 1):
        pre[:, l] = p.bias  # the input matmul is added on its diagonal
    hs = np.zeros((depth, steps + depth, batch, hid))
    cs = np.zeros((depth, batch, hid))
    for d in range(steps + depth - 1):
        lo, hi = max(0, d - steps + 1), min(depth, d + 1)
        up = max(lo, 1)  # the first active layer that reads the one below
        if up < hi:
            x = pre[d, up:hi]
            x += hs[up - 1 : hi - 1, d] @ w_in[up - 1 : hi - 1]
        a = pre[d, lo:hi]
        a += hs[lo:hi, d] @ w_rec[lo:hi]
        gates = sigmoid(a)
        cand = np.tanh(a[..., g], out=gates[..., g])
        c = cs[lo:hi]
        c *= gates[..., f]
        c += gates[..., i] * cand
        np.multiply(gates[..., o], np.tanh(c), out=hs[lo:hi, d + 1])
    return hs[-1, depth:]


def lstm_stack_forward(layers: list[LstmParams], seq: Array) -> tuple[Array, list[LstmCache]]:
    """``lstm_forward`` chained over stacked ``layers`` of one hidden size,
    run as the wavefront of ``_wavefront`` with its order of operations, plus
    a copy of each diagonal's activated gates: the top layer's hidden sequence
    (T, B, H) and one ``LstmCache`` per layer for ``lstm_backward``, every
    array bit for bit that of the chained calls.

    Diagonal d = l + t keeps layer l's step t in diagonal-major buffers:
    its gates in ``gates[d, l]`` (T + L - 1, L, B, 4H) and ``cell_tanh[d, l]``
    alike, its states in ``cells[d + 1, l]`` and ``hidden[d + 1, l]``
    (T + L, L, B, H), whose never-written ``[l, l]`` is the zero initial
    state. Layer l's cache arrays are views such as ``gates[l : l + T, l]``
    and ``hidden[l : l + T + 1, l]``, and its inputs are
    ``hidden[l : l + T, l - 1]``. A gate row holds the pre-activation,
    summed as in ``lstm_forward``, until its diagonal activates it.
    """
    seq = _checked_stack(layers, seq)
    steps, batch, _ = seq.shape
    depth, hid = len(layers), layers[0].hidden_size
    i, f, g, o = (slice(k * hid, (k + 1) * hid) for k in range(4))
    w_in = np.array([p.w_in for p in layers[1:]]).reshape(depth - 1, hid, 4 * hid)  # empty at L=1
    w_rec = np.stack([p.w_rec for p in layers])  # (L, H, 4H)
    gates = np.empty((steps + depth - 1, depth, batch, 4 * hid))
    cell_tanh = np.empty((steps + depth - 1, depth, batch, hid))
    cells = np.zeros((steps + depth, depth, batch, hid))
    hidden = np.zeros((steps + depth, depth, batch, hid))
    np.matmul(seq, layers[0].w_in, out=gates[:steps, 0])
    gates[:steps, 0] += layers[0].bias
    for l, p in enumerate(layers[1:], 1):
        gates[l : l + steps, l] = p.bias  # the input matmul is added on its diagonal
    for d in range(steps + depth - 1):
        lo, hi = max(0, d - steps + 1), min(depth, d + 1)
        up = max(lo, 1)  # the first active layer that reads the one below
        if up < hi:
            x = gates[d, up:hi]
            x += hidden[d, up - 1 : hi - 1] @ w_in[up - 1 : hi - 1]
        a = gates[d, lo:hi]
        a += hidden[d, lo:hi] @ w_rec[lo:hi]
        act = sigmoid(a)
        np.tanh(a[..., g], out=act[..., g])
        a[...] = act
        c = np.multiply(act[..., f], cells[d, lo:hi], out=cells[d + 1, lo:hi])
        c += act[..., i] * act[..., g]
        np.multiply(act[..., o], np.tanh(c, out=cell_tanh[d, lo:hi]), out=hidden[d + 1, lo:hi])
    ensure_finite("lstm hidden", hidden)
    caches = [
        LstmCache(seq if l == 0 else hidden[l : l + steps, l - 1], gates[l : l + steps, l],
                  cells[l : l + steps + 1, l], cell_tanh[l : l + steps, l],
                  hidden[l : l + steps + 1, l])
        for l in range(depth)
    ]
    return hidden[depth:, -1], caches


def lstm_backward(p: LstmParams, d_hidden: Array, cache: LstmCache, *, input_grad: bool = True):
    """Backpropagation through time.

    d_hidden holds the loss gradient w.r.t. every hidden output (T, B, H);
    callers that only use the final state pass zeros elsewhere. Returns
    the gradient w.r.t. the input sequence and a parameter-gradient dict.
    Only the recurrent term dh_next is a matmul per step; the parameter and
    input gradients are one matmul each over all T*B rows of d_pre. With
    ``input_grad=False`` the input gradient, which nothing reads below a
    stack's first layer, is skipped and returned as None.
    """
    steps, batch, hid = cache.cell_tanh.shape
    if d_hidden.shape != (steps, batch, hid):
        raise ValueError("d_hidden must match the hidden sequence shape")
    # Each gate's pre-activation gradient is dc (dh for the output gate) times
    # a factor of forward values alone. d_pre starts as those factors for all
    # steps at once; the loop scales them by the recurrent dc and dh.
    i, f, g, o = (cache.gates[:, :, k * hid : (k + 1) * hid] for k in range(4))
    ct = cache.cell_tanh
    c_prev = cache.cells[:-1]
    d_pre = np.concatenate(
        [g * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - g**2), ct * o * (1.0 - o)], axis=2
    ).reshape(steps, batch, 4, hid)
    dc_dh = o * (1.0 - ct**2)
    dh_next = np.zeros((batch, hid))
    dc_next = np.zeros((batch, hid))
    for t in range(steps - 1, -1, -1):
        dh = d_hidden[t] + dh_next
        dc = dc_next + dh * dc_dh[t]
        d_pre[t, :, :3] *= dc[:, None]
        d_pre[t, :, 3] *= dh
        dh_next = d_pre[t].reshape(batch, 4 * hid) @ p.w_rec.T
        dc_next = dc * f[t]

    # The caches of ``lstm_stack_forward`` are strided views; made contiguous,
    # they reach the matmuls as those of ``lstm_forward`` do, with their bits.
    rows = d_pre.reshape(steps * batch, 4 * hid)
    h_prev = np.ascontiguousarray(cache.hidden[:-1]).reshape(steps * batch, hid)
    grads = {
        "w_in": np.ascontiguousarray(cache.inputs).reshape(steps * batch, -1).T @ rows,
        "w_rec": h_prev.T @ rows,
        "bias": rows.sum(axis=0),
    }
    if not input_grad:
        return None, grads
    return (rows @ p.w_in.T).reshape(cache.inputs.shape), grads


# ---------------------------------------------------------------------------
# 1-D convolution (valid cross-correlation) and pooling
# ---------------------------------------------------------------------------

@dataclass
class Conv1dParams:
    weight: Array  # (out_channels, in_channels, kernel)
    bias: Array    # (out_channels,)
    stride: int = 1

    def __post_init__(self):
        if self.weight.ndim != 3 or self.bias.shape != (self.weight.shape[0],):
            raise ValueError("conv weight/bias shapes are inconsistent")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")


def conv1d_init(
    rng: np.random.Generator, in_channels: int, out_channels: int, kernel: int, stride: int = 1
) -> Conv1dParams:
    fan_in = in_channels * kernel
    return Conv1dParams(
        uniform_init(rng, (out_channels, in_channels, kernel), fan_in),
        np.zeros(out_channels),
        stride,
    )


def _taps(x: Array, kernel: int, stride: int, out_len: int) -> list[Array]:
    """Strided views x[:, :, k::stride] of out_len samples, one per kernel tap."""
    span = stride * (out_len - 1) + 1
    return [x[:, :, k : k + span : stride] for k in range(kernel)]


def conv1d_forward(p: Conv1dParams, x: Array) -> tuple[Array, Array]:
    """x: (B, in_channels, length) -> (B, out_channels, out_length).

    Computed tap by tap: y = bias + sum_k W[:, :, k] @ x_k, with x_k a
    strided view of x, so no (B, out_length, in_channels * kernel) copy;
    each tap's product goes through one reused buffer. With one input
    channel a tap is an outer product, taken as a broadcast multiply rather
    than numpy's non-BLAS matmul loop on the strided view. The two give the
    same bits unless a bias is -0.0: the matmul's single-term sum 0 + w*x
    turns a -0.0 product into 0.0, which only a sum still at -0.0 tells
    apart.
    """
    out_c, in_c, kernel = p.weight.shape
    if x.ndim != 3 or x.shape[1] != in_c:
        raise ValueError("conv input must be (batch, in_channels, length)")
    if x.shape[2] < kernel:
        raise ValueError("kernel is longer than the input signal")
    taps = _taps(x, kernel, p.stride, (x.shape[2] - kernel) // p.stride + 1)
    product = np.multiply if in_c == 1 else np.matmul
    y = product(p.weight[:, :, 0], taps[0])
    y += p.bias[:, None]
    buf = np.empty_like(y)
    for k in range(1, kernel):
        y += product(p.weight[:, :, k], taps[k], out=buf)
    ensure_finite("conv output", y)
    return y, x


def conv1d_backward(p: Conv1dParams, d_out: Array, cache: Array, *, input_grad: bool = True):
    """(d_x, grads) of ``conv1d_forward``; with ``input_grad=False`` the
    input gradient, which nothing reads below a network's first layer, is
    skipped and d_x is None.

    The weight gradient of tap k is (O, B*L') @ (B*L', I): ``d_out``
    transposed once, and all K taps of the input copied once into one
    contiguous (K, B*L', I) array. These are the operands, in the same
    layout, that ``np.tensordot(d_out, x_k, ([0, 2], [0, 2]))`` builds
    afresh for every tap, so the bits are the same."""
    x = cache
    batch, _, out_len = d_out.shape
    out_c, in_c, kernel = p.weight.shape
    d_t = d_out.transpose(1, 0, 2).reshape(out_c, batch * out_len)
    span = p.stride * (out_len - 1) + 1
    windows = sliding_window_view(x, kernel, axis=2)[:, :, :span:p.stride]  # (B, I, L', K)
    taps = np.ascontiguousarray(windows.transpose(3, 0, 2, 1))  # (K, B, L', I)
    taps = taps.reshape(kernel, batch * out_len, in_c)
    d_w = np.empty_like(p.weight)
    for k in range(kernel):
        d_w[:, :, k] = np.dot(d_t, taps[k])
    grads = {"weight": d_w, "bias": d_out.sum(axis=(0, 2))}
    if not input_grad:
        return None, grads
    d_x = np.zeros_like(x)
    for k, d_x_k in enumerate(_taps(d_x, kernel, p.stride, out_len)):
        d_x_k += p.weight[:, :, k].T @ d_out
    return d_x, grads


def global_avg_pool(x: Array) -> tuple[Array, int]:
    """(B, C, L) -> (B, C): mean over the length axis."""
    return x.mean(axis=2), x.shape[2]


def global_avg_pool_backward(d_out: Array, length: int) -> Array:
    return np.repeat(d_out[:, :, None], length, axis=2) / length


# ---------------------------------------------------------------------------
# Losses (mean reduction, so learning rates transfer across batch sizes)
# ---------------------------------------------------------------------------

def huber_loss(pred: Array, target: Array, delta: float = 1.0) -> tuple[float, Array]:
    """Quadratic within +-delta of the target, linear beyond.

    Returns the mean per-element loss and its gradient w.r.t. pred; the
    gradient is z inside the quadratic zone and delta*sign(z) outside,
    continuous at the seam.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"pred shape {pred.shape} != target shape {target.shape}")
    z = pred - target
    abs_z = np.abs(z)
    inside = abs_z <= delta
    per_elem = np.where(inside, 0.5 * z**2, delta * (abs_z - 0.5 * delta))
    grad = np.where(inside, z, delta * np.sign(z)) / z.size
    return float(per_elem.mean()), grad


def bce_loss(probs: Array, targets: Array) -> tuple[float, Array]:
    """Mean binary cross-entropy on sigmoid outputs.

    probs are clamped to [1e-7, 1 - 1e-7]; the returned gradient is taken
    w.r.t. the pre-sigmoid logits, (p - t) / n.
    """
    probs = np.asarray(probs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if probs.shape != targets.shape:
        raise ValueError(f"probs shape {probs.shape} != targets shape {targets.shape}")
    if np.any((targets != 0.0) & (targets != 1.0)):
        raise ValueError("targets must be binary")
    p = np.clip(probs, 1e-7, 1.0 - 1e-7)
    loss = float(-(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p)).mean())
    grad_logits = (p - targets) / p.size
    return loss, grad_logits


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


@dataclass
class AdamState:
    lr: float
    m: Array  # first moment of every parameter, shaped like the parameter vector
    v: Array  # second moment
    step: int = 0
    # Two vectors for the update's intermediates: without them each step
    # allocates and frees several parameter-sized temporaries.
    scratch: Array = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = np.empty((2,) + self.m.shape)


def adam_init(params: Array, lr: float = 1e-3) -> AdamState:
    return AdamState(lr, np.zeros_like(params), np.zeros_like(params))


def adam_step(state: AdamState, params: Array, grad: Array) -> AdamState:
    """Bias-corrected Adam update of the parameter vector, in place; being
    elementwise, it equals one update per parameter array bit for bit.

    The intermediates go through ``state.scratch``; each operation is that of
    ``params -= lr * (m / c1) / (sqrt(v / c2) + eps)``, in its order.
    """
    if grad.shape != params.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape {params.shape}")
    ensure_finite("grad", grad)
    state.step += 1
    correction1 = 1.0 - ADAM_BETA1**state.step
    correction2 = 1.0 - ADAM_BETA2**state.step
    m, v, (num, denom) = state.m, state.v, state.scratch
    m *= ADAM_BETA1
    m += np.multiply(grad, 1.0 - ADAM_BETA1, out=num)
    v *= ADAM_BETA2
    np.square(grad, out=num)
    v += np.multiply(num, 1.0 - ADAM_BETA2, out=num)
    np.divide(m, correction1, out=num)
    num *= state.lr
    np.divide(v, correction2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    params -= np.divide(num, denom, out=num)
    return state


# ---------------------------------------------------------------------------
# Checkpoint IO: versioned JSON, bit-exact float round trip via repr
# ---------------------------------------------------------------------------

def save_params(path, descriptor: dict, params: dict[str, Array]) -> None:
    payload = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "descriptor": descriptor,
        "params": {
            name: {"shape": list(arr.shape), "data": [float(x) for x in arr.ravel()]}
            for name, arr in params.items()
        },
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_params(path) -> tuple[dict, dict[str, Array]]:
    payload = read_json_object(path)
    version = payload.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise VersionError(f"{path}: unsupported checkpoint format version: {version!r}")
    for key in ("descriptor", "params"):
        if not isinstance(payload.get(key), dict):
            raise SchemaError(f"{path}: {key} must be a JSON object")
    params = {}
    for name, entry in payload["params"].items():
        shape = entry.get("shape") if isinstance(entry, dict) else None
        if not isinstance(shape, list) or any(type(n) is not int or n < 0 for n in shape):
            raise SchemaError(f"{path}: params.{name}.shape must be a list of "
                              "non-negative integers")
        data = json_field(entry, "data", path, (math.prod(shape),), name=f"params.{name}.data")
        params[name] = np.array(data, dtype=np.float64).reshape(shape)
    return payload["descriptor"], params
