"""Minimal neural kernel: dense, LSTM, 1-D conv, pooling, losses, Adam.

These are numpy kernels only, with no file IO: a model's checkpoint,
``model.json``, belongs to ``models``.

Everything runs in float64 on plain numpy arrays. A conv layer reads its
input channels-last and unrolls it into windows of its K taps, a few
inputs at a time, for one BLAS product per window; it returns the
(B, C, L) view of a (B, L, C) buffer, which the next conv layer and the
pooling read in place. The LSTM starts from zero state
and has two forwards with the same bits. Stacked layers of one hidden size
are an ``LstmStack``, their weights stacked by array, which the stack
kernels read without a copy. Training buffers the gates and cell states of
every step for the backward: ``lstm_forward`` runs one layer, and
``lstm_stack_forward`` runs a stack as one wavefront into diagonal-major
buffers. Prediction runs ``lstm_stack_hidden``, a cache-free recurrence with
the same wavefront, whose steps keep only the hidden and cell state. The
schedule depends on the number of layers alone, never on the batch. Either
wavefront activates all four gates with one ``sigmoid`` per step. There is
one backward loop, ``lstm_stack_backward``: the wavefront in reverse over
those buffers, with only the recurrent and layer-to-layer matmuls inside it;
``lstm_backward`` is its one-layer case. Each layer ships a hand-derived
backward pass returning gradients in the same shapes as its parameters;
finite-difference tests lock every one of them. There is no autodiff graph:
the architecture set is small and fixed, and explicit backward code keeps
the arithmetic auditable.

Parameter initialization is fully seeded: weights are uniform in
[-1/sqrt(fan_in), +1/sqrt(fan_in)], biases start at zero except the LSTM
forget gate, which starts at one. Adam updates one parameter vector (a
model's arrays are views of ``models.Model.params``) in one elementwise pass
whose intermediates go through two scratch vectors of its state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ensure_finite

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
class LstmStack:
    """The weights of L stacked LSTM layers of one hidden size H, stacked by
    array. Layer 0 reads the input sequence through ``w_in0``; layer l >= 1
    reads the hidden sequence of layer l - 1 through ``w_in[l - 1]``."""

    w_in0: Array  # (input_size, 4H)
    w_in: Array   # (L - 1, H, 4H)
    w_rec: Array  # (L, H, 4H)
    bias: Array   # (L, 4H)

    def __post_init__(self):
        depth, hid, h4 = self.w_rec.shape
        if (depth < 1 or h4 != 4 * hid or self.w_in0.shape != (self.input_size, h4)
                or self.w_in.shape != (depth - 1, hid, h4) or self.bias.shape != (depth, h4)):
            raise ValueError("lstm stack parameter shapes are inconsistent")

    @property
    def depth(self) -> int:
        return self.w_rec.shape[0]

    @property
    def input_size(self) -> int:
        return self.w_in0.shape[0]

    @property
    def hidden_size(self) -> int:
        return self.w_rec.shape[1]

    @classmethod
    def of(cls, layers: list[LstmParams]) -> "LstmStack":
        """``layers``' weights stacked into new arrays (``w_in0`` is the first
        layer's own). Each layer must read the hidden size of the one below
        and share its hidden size."""
        for below, p in zip(layers, layers[1:]):
            if p.input_size != below.hidden_size:
                raise ValueError(f"lstm input_size {p.input_size} != hidden_size "
                                 f"{below.hidden_size} of the layer below")
        if len({p.hidden_size for p in layers}) != 1:
            raise ValueError("a stack runs as a wavefront only with one hidden size")
        hid = layers[0].hidden_size
        w_in = np.array([p.w_in for p in layers[1:]]).reshape(len(layers) - 1, hid, 4 * hid)
        return cls(layers[0].w_in, w_in, np.stack([p.w_rec for p in layers]),
                   np.stack([p.bias for p in layers]))

    @classmethod
    def view(cls, vector: Array, depth: int, input_size: int, hidden_size: int) -> "LstmStack":
        """The stack whose arrays are consecutive blocks of the 1-D ``vector``,
        from its start, in field order: every layer's input weights, then
        every recurrent weight, then every bias, each in layer order."""
        h4 = 4 * hidden_size
        shapes = ((input_size, h4), (depth - 1, hidden_size, h4), (depth, hidden_size, h4),
                  (depth, h4))
        blocks, start = [], 0
        for shape in shapes:
            blocks.append(vector[start : start + math.prod(shape)].reshape(shape))
            start += math.prod(shape)
        return cls(*blocks)


@dataclass
class LstmCache:
    """What the backward pass reads of a forward over seq (T, B, input_size).
    ``lstm_forward`` keeps one layer's arrays by step t, ``lstm_stack_forward``
    L layers' by diagonal d = l + t, with a layer axis after the first."""

    inputs: Array     # (T, B, input_size): the first layer's input sequence
    gates: Array      # (T, B, 4H) or (T + L - 1, L, B, 4H); activated, gate order i,f,g,o
    cells: Array      # (T + 1, B, H) or (T + L, L, B, H); rows 0 and [l, l] are the zero state
    cell_tanh: Array  # (T, B, H) or (T + L - 1, L, B, H)
    hidden: Array     # like cells


def _checked_seq(p: LstmParams | LstmStack, seq) -> Array:
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


def lstm_stack_hidden(stack: LstmStack, seq: Array) -> Array:
    """The top layer's hidden sequence (T, B, H) of ``stack`` over seq
    (T, B, input_size); bit for bit the chained ``lstm_forward`` calls,
    without their backward buffers.

    One layer runs its own recurrence. A stack runs as a wavefront
    (Appleyard, Kocisky and Blunsom, arXiv:1604.01946) at any batch size:
    layer l's step t needs only (l, t - 1) and (l - 1, t), so every layer on
    a diagonal l + t runs together, in T + L - 1 steps instead of T * L.
    """
    seq = _checked_seq(stack, seq)
    seq = _recurrence(stack, seq) if stack.depth == 1 else _wavefront(stack, seq)
    return ensure_finite("lstm hidden", seq)


def _recurrence(stack: LstmStack, seq: Array) -> Array:
    """A one-layer stack's hidden sequence. Each step activates all 4H gate
    columns with one ``sigmoid`` and then overwrites the candidate slice with
    ``tanh`` of its pre-activation."""
    steps, batch, _ = seq.shape
    hid = stack.hidden_size
    i, f, g, o = (slice(k * hid, (k + 1) * hid) for k in range(4))
    h = c = np.zeros((batch, hid))
    hidden = np.empty((steps, batch, hid))
    pre = seq @ stack.w_in0
    pre += stack.bias[0]
    for t in range(steps):
        a = pre[t] + h @ stack.w_rec[0]
        gates = sigmoid(a)
        cand = np.tanh(a[:, g], out=gates[:, g])
        c = gates[:, f] * c
        c += gates[:, i] * cand
        h = np.multiply(gates[:, o], np.tanh(c), out=hidden[t])
    return hidden


def _input_terms(stack: LstmStack, seq: Array, buf: Array) -> None:
    """Fill ``buf`` (T + L - 1, L, B, 4H) with each layer's input term by
    diagonal: x @ w_in0 + bias for layer 0, and the bias alone for the layers
    above, whose input product is added on its diagonal."""
    steps = len(seq)
    np.matmul(seq, stack.w_in0, out=buf[:steps, 0])
    buf[:steps, 0] += stack.bias[0]
    buf[:, 1:] = stack.bias[1:, None]


def _wavefront(stack: LstmStack, seq: Array) -> Array:
    """``_recurrence`` chained over the layers of ``stack``, one diagonal
    l + t at a time.

    ``hs[l, t + l + 1]`` holds layer l's hidden state after step t, and
    ``hs[l, l]`` its zero initial state, so diagonal d reads column d of
    layers lo:hi (their own last state, and the input from the layer below)
    and writes column d + 1. ``pre[d, l]`` holds layer l's input term at
    diagonal d, summed as in ``_recurrence``: (x @ w_in + bias) + h @ w_rec.
    """
    steps, batch, _ = seq.shape
    depth, hid = stack.depth, stack.hidden_size
    i, f, g, o = (slice(k * hid, (k + 1) * hid) for k in range(4))
    pre = np.empty((steps + depth - 1, depth, batch, 4 * hid))
    _input_terms(stack, seq, pre)
    hs = np.zeros((depth, steps + depth, batch, hid))
    cs = np.zeros((depth, batch, hid))
    for d in range(steps + depth - 1):
        lo, hi = max(0, d - steps + 1), min(depth, d + 1)
        up = max(lo, 1)  # the first active layer that reads the one below
        if up < hi:
            x = pre[d, up:hi]
            x += hs[up - 1 : hi - 1, d] @ stack.w_in[up - 1 : hi - 1]
        a = pre[d, lo:hi]
        a += hs[lo:hi, d] @ stack.w_rec[lo:hi]
        gates = sigmoid(a)
        cand = np.tanh(a[..., g], out=gates[..., g])
        c = cs[lo:hi]
        c *= gates[..., f]
        c += gates[..., i] * cand
        np.multiply(gates[..., o], np.tanh(c), out=hs[lo:hi, d + 1])
    return hs[-1, depth:]


def lstm_stack_forward(stack: LstmStack, seq: Array) -> tuple[Array, LstmCache]:
    """``lstm_forward`` chained over the layers of ``stack``, run as the
    wavefront of ``_wavefront`` with its order of operations, plus a copy of
    each diagonal's activated gates: the top layer's hidden sequence (T, B, H)
    and the buffers of ``lstm_stack_backward``, every layer's rows bit for bit
    those of the chained calls.

    Diagonal d = l + t keeps layer l's step t in diagonal-major buffers:
    its gates in ``gates[d, l]`` (T + L - 1, L, B, 4H) and ``cell_tanh[d, l]``
    alike, its states in ``cells[d + 1, l]`` and ``hidden[d + 1, l]``
    (T + L, L, B, H), whose never-written ``[l, l]`` is the zero initial
    state. So layer l's ``lstm_forward`` arrays are ``gates[l : l + T, l]``,
    ``hidden[l : l + T + 1, l]`` and so on, and its inputs, for l >= 1,
    ``hidden[l : l + T, l - 1]``. A gate row holds the pre-activation, summed
    as in ``lstm_forward``, until its diagonal activates it. Rows that no
    diagonal reaches hold zeros or, in ``gates``, a layer's bias: the
    backward's elementwise passes over whole buffers meet only finite values.
    """
    seq = _checked_seq(stack, seq)
    steps, batch, _ = seq.shape
    depth, hid = stack.depth, stack.hidden_size
    i, f, g, o = (slice(k * hid, (k + 1) * hid) for k in range(4))
    gates = np.zeros((steps + depth - 1, depth, batch, 4 * hid))
    cell_tanh = np.zeros((steps + depth - 1, depth, batch, hid))
    cells = np.zeros((steps + depth, depth, batch, hid))
    hidden = np.zeros((steps + depth, depth, batch, hid))
    _input_terms(stack, seq, gates)
    for d in range(steps + depth - 1):
        lo, hi = max(0, d - steps + 1), min(depth, d + 1)
        up = max(lo, 1)  # the first active layer that reads the one below
        if up < hi:
            x = gates[d, up:hi]
            x += hidden[d, up - 1 : hi - 1] @ stack.w_in[up - 1 : hi - 1]
        a = gates[d, lo:hi]
        a += hidden[d, lo:hi] @ stack.w_rec[lo:hi]
        act = sigmoid(a)
        np.tanh(a[..., g], out=act[..., g])
        a[...] = act
        c = np.multiply(act[..., f], cells[d, lo:hi], out=cells[d + 1, lo:hi])
        c += act[..., i] * act[..., g]
        np.multiply(act[..., o], np.tanh(c, out=cell_tanh[d, lo:hi]), out=hidden[d + 1, lo:hi])
    ensure_finite("lstm hidden", hidden)
    return hidden[depth:, -1], LstmCache(seq, gates, cells, cell_tanh, hidden)


def _layer_major(buf: Array, steps: int) -> Array:
    """Rows ``buf[l + t, l]`` for t < ``steps`` of a contiguous diagonal-major
    buffer (D, L, ...), as one contiguous (L, steps, ...) copy. The strided
    view is built by the ``ndarray`` constructor, at a tenth of the cost of
    ``as_strided``."""
    s_d, s_l = buf.strides[:2]
    view = np.ndarray((buf.shape[1], steps) + buf.shape[2:], buf.dtype, buf, 0,
                      (s_d + s_l, s_d) + buf.strides[2:])
    return np.ascontiguousarray(view)


def lstm_stack_backward(stack: LstmStack, d_hidden: Array, cache: LstmCache, grads: LstmStack,
                        *, input_grad: bool = True):
    """Backpropagation through time over ``stack``.

    ``d_hidden`` (T, B, H) is the loss gradient w.r.t. the top layer's hidden
    sequence (callers that read only its final state pass zeros elsewhere),
    and ``cache`` the forward's buffers: ``lstm_stack_forward``'s, or, for one
    layer, ``lstm_forward``'s, whose (T, ...) arrays are the L = 1 case.
    Every weight gradient is written into ``grads``, a stack of ``stack``'s
    shapes. Returns the gradient w.r.t. the input sequence; with
    ``input_grad=False`` that product, which nothing reads below a model's
    first layer, is skipped and None returned.

    The diagonals d = l + t run in reverse, every active layer of one in a
    single batched step. Each gate's pre-activation gradient is dc (dh for
    the output gate) times a factor of forward values alone: ``d_pre`` starts
    as those factors for every (d, l) at once, and a diagonal scales its
    rows by its dc and dh. Only the recurrent dh and the input gradient that
    layer l >= 1 sends to layer l - 1, which arrives on diagonal d - 1, are
    products inside the loop. Then every layer's weight gradients come from
    one batched product per array over the T*B rows of ``d_pre``, copied
    layer-major once, as does the input gradient. At one layer every
    operation is that of the per-layer form. With more, the per-diagonal
    input gradients give the bits of one product over T*B rows at B = 8;
    at the model shapes and B of 1, 64 or 65 the weight gradients moved by
    at most 2.2e-15 of the largest one.
    """
    steps, batch, _ = cache.inputs.shape
    depth, hid = stack.depth, stack.hidden_size
    if d_hidden.shape != (steps, batch, hid):
        raise ValueError("d_hidden must match the hidden sequence shape")
    diags = steps + depth - 1
    gates = cache.gates.reshape(diags, depth, batch, 4 * hid)
    ct = cache.cell_tanh.reshape(diags, depth, batch, hid)
    c_prev = cache.cells.reshape(diags + 1, depth, batch, hid)[:-1]
    i, f, g, o = (gates[..., k * hid : (k + 1) * hid] for k in range(4))
    d_pre = np.concatenate(
        [g * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - g**2), ct * o * (1.0 - o)], axis=-1
    )
    dc_dh = o * (1.0 - ct**2)
    d_in = np.empty((diags, depth, batch, hid))  # dh arriving from above: layer l + 1 or the loss
    d_in[depth - 1 :, depth - 1] = d_hidden
    dh_next = np.zeros((depth, batch, hid))
    dc_next = np.zeros((depth, batch, hid))
    w_rec_t, w_in_t = stack.w_rec.transpose(0, 2, 1), stack.w_in.transpose(0, 2, 1)
    for d in range(diags - 1, -1, -1):
        lo, hi = max(0, d - steps + 1), min(depth, d + 1)
        dh = d_in[d, lo:hi]
        dh += dh_next[lo:hi]
        dc = dh * dc_dh[d, lo:hi]
        dc += dc_next[lo:hi]
        rows = d_pre[d, lo:hi]
        rows *= np.concatenate((dc, dc, dc, dh), axis=-1)
        np.matmul(rows, w_rec_t[lo:hi], out=dh_next[lo:hi])
        np.multiply(dc, f[d, lo:hi], out=dc_next[lo:hi])
        up = max(lo, 1)  # the first active layer that sends a gradient below
        if up < hi:
            np.matmul(d_pre[d, up:hi], w_in_t[up - 1 : hi - 1], out=d_in[d - 1, up - 1 : hi - 1])

    rows = _layer_major(d_pre, steps).reshape(depth, steps * batch, 4 * hid)
    states = _layer_major(cache.hidden.reshape(diags + 1, depth, batch, hid), steps + 1)
    h_prev = states[:, :-1].reshape(depth, steps * batch, hid)
    below = states[:-1, 1:].reshape(depth - 1, steps * batch, hid)  # layer l's inputs, l >= 1
    np.matmul(cache.inputs.reshape(steps * batch, -1).T, rows[0], out=grads.w_in0)
    np.matmul(below.transpose(0, 2, 1), rows[1:], out=grads.w_in)
    np.matmul(h_prev.transpose(0, 2, 1), rows, out=grads.w_rec)
    rows.sum(axis=1, out=grads.bias)
    if not input_grad:
        return None
    return (rows[0] @ stack.w_in0.T).reshape(cache.inputs.shape)


def lstm_backward(p: LstmParams, d_hidden: Array, cache: LstmCache, *, input_grad: bool = True):
    """Backpropagation through time for one layer, as ``lstm_stack_backward``
    of a one-layer stack: d_hidden holds the loss gradient w.r.t. every
    hidden output (T, B, H). Returns the gradient w.r.t. the input sequence
    (None with ``input_grad=False``) and a dict of ``p``'s weight gradients.
    """
    hid = p.hidden_size
    grads = LstmStack(np.empty_like(p.w_in), np.empty((0, hid, 4 * hid)),
                      np.empty((1, hid, 4 * hid)), np.empty((1, 4 * hid)))
    d_seq = lstm_stack_backward(LstmStack.of([p]), d_hidden, cache, grads, input_grad=input_grad)
    return d_seq, {"w_in": grads.w_in0, "w_rec": grads.w_rec[0], "bias": grads.bias[0]}


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


# Windows per unrolled copy in the conv forward. A window's output is one GEMM
# whatever the chunk, so the chunk bounds the copy (222 KB at ``conv2`` of the
# rf+lidar model) without moving any bit. Scoring the standard drive, 8 was
# within 4% of the fastest chunk from 2 to 32 and peaked 0.2 MiB below it.
CONV_CHUNK = 8


def _channels_last(x: Array) -> Array:
    """(B, C, L) -> C-contiguous (B, L, C): a view of channels-last memory,
    such as a conv layer's output, and a copy of anything else."""
    return np.ascontiguousarray(x.transpose(0, 2, 1))


def _unrolled(samples: Array, kernel: int, stride: int, out_len: int) -> Array:
    """(B, L', K*C) copy of (B, L, C) C-contiguous samples: row j of a window
    holds its samples S*j .. S*j + K - 1, each with its C channels, which
    are K*C consecutive values of the input. The rows overlap when S < K,
    so the view over them, built by the ``ndarray`` constructor, is copied
    for BLAS."""
    batch, length, chans = samples.shape
    item = samples.itemsize
    view = np.ndarray((batch, out_len, kernel * chans), samples.dtype, samples, 0,
                      (length * chans * item, stride * chans * item, item))
    return np.ascontiguousarray(view)


def _weight_rows(weight: Array) -> Array:
    """(O, C, K) -> (K*C, O): row k*C + c holds tap k of input channel c,
    the order of ``_unrolled``'s columns."""
    return weight.T.reshape(-1, weight.shape[0])


def conv1d_forward(p: Conv1dParams, x: Array) -> tuple[Array, Array]:
    """x: (B, in_channels, length) -> (B, out_channels, out_length).

    The input channels-last, unrolled into windows (``_unrolled``) of
    ``CONV_CHUNK`` inputs at a time, times the (K*C, O) weight: one
    (L', K*C) @ (K*C, O) GEMM per window, so a window's output has the same
    bits in any batch and chunk. The products go straight into a (B, L', O)
    array, and the output is its (B, O, L') transposed view, which the next
    conv layer and the pooling read without a copy.
    """
    out_c, in_c, kernel = p.weight.shape
    if x.ndim != 3 or x.shape[1] != in_c:
        raise ValueError("conv input must be (batch, in_channels, length)")
    if x.shape[2] < kernel:
        raise ValueError("kernel is longer than the input signal")
    out_len = (x.shape[2] - kernel) // p.stride + 1
    samples, weight = _channels_last(x), _weight_rows(p.weight)
    y = np.empty((len(x), out_len, out_c))
    for lo in range(0, len(x), CONV_CHUNK):
        chunk = slice(lo, lo + CONV_CHUNK)
        np.matmul(_unrolled(samples[chunk], kernel, p.stride, out_len), weight, out=y[chunk])
    y += p.bias
    y = y.transpose(0, 2, 1)
    ensure_finite("conv output", y)
    return y, x


def conv1d_backward(p: Conv1dParams, d_out: Array, cache: Array, *, input_grad: bool = True):
    """(d_x, grads) of ``conv1d_forward``; with ``input_grad=False`` the
    input gradient, which nothing reads below a network's first layer, is
    skipped and d_x is None.

    Over every window at once, the output gradient channels-last as (B*L',
    O) rows. The weight gradient is one matmul, the unrolled input
    transposed by those rows, (K*C, B*L') @ (B*L', O). The input gradient
    is one matmul in polyphase form: sample S*r + s is the sum over m of
    output gradient row r - m times tap S*m + s, so the output gradient,
    zero-padded and unrolled M = ceil(K/S) rows at a time, times the taps
    grouped S at a time (zero past the kernel), (B*R, M*O) @ (M*O, S*C),
    gives the input gradient as R = ceil(L/S) rows of S samples. It is
    returned as the (B, C, L) view of that channels-last memory, like the
    forward's output."""
    x = cache
    batch, _, length = x.shape
    out_c, in_c, kernel = p.weight.shape
    out_len = d_out.shape[2]
    cols = _unrolled(_channels_last(x), kernel, p.stride, out_len).reshape(-1, kernel * in_c)
    d_y = _channels_last(d_out)
    flat = d_y.reshape(-1, out_c)
    d_w = np.matmul(cols.T, flat).reshape(kernel, in_c, out_c)
    grads = {"weight": np.ascontiguousarray(d_w.T), "bias": np.matmul(np.ones(len(flat)), flat)}
    if not input_grad:
        return None, grads
    taps, rows = -(-kernel // p.stride), -(-length // p.stride)
    padded = np.zeros((batch, taps - 1 + rows, out_c))
    padded[:, taps - 1 : taps - 1 + out_len] = d_y
    # Column block i of an unrolled row r holds output gradient row r - m,
    # m = M - 1 - i, so it meets taps S*m .. S*m + S - 1.
    weight = np.zeros((taps * p.stride, in_c, out_c))
    weight[:kernel] = p.weight.T
    weight = weight.reshape(taps, p.stride, in_c, out_c)[::-1].transpose(0, 3, 1, 2)
    d_rows = np.matmul(_unrolled(padded, taps, 1, rows).reshape(batch * rows, -1),
                       weight.reshape(taps * out_c, p.stride * in_c))
    d_x = d_rows.reshape(batch, rows * p.stride, in_c)[:, :length]
    return d_x.transpose(0, 2, 1), grads


def global_avg_pool(x: Array) -> tuple[Array, int]:
    """(B, C, L) -> (B, C): mean over the length axis, as one matrix-vector
    product per window, which reads the channels-last conv output in place."""
    return np.matmul(x, np.ones(x.shape[2])) / x.shape[2], x.shape[2]


def global_avg_pool_backward(d_out: Array, length: int) -> Array:
    """The (B, C, length) gradient, a broadcast view of channels-last layout."""
    spread = (d_out / length)[:, None, :]
    return np.broadcast_to(spread, (len(d_out), length, d_out.shape[1])).transpose(0, 2, 1)


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
