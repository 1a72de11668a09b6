"""Minimal neural kernel: dense, LSTM, 1-D conv, pooling, losses, Adam.

These are numpy kernels only, with no file IO: a model's checkpoint,
``model.json``, belongs to ``models``.

Everything runs in float64 on plain numpy arrays. A conv layer reads its
input channels-last and unrolls it into windows of its K taps, a few
inputs at a time, for one BLAS product per window; it returns the
(B, C, L) view of a (B, L, C) buffer, which the next conv layer and the
pooling read in place. The LSTM starts from zero state. Stacked layers of
one hidden size are an ``LstmStack``, their weights stacked by array, which
the stack kernels read without a copy. One loop, ``LstmPlan.run``, runs
every stack forward as a wavefront over the diagonals l + t, T + L - 1 steps
at any batch size; each step activates all four gates with one ``sigmoid``,
then overwrites the candidate columns with their ``tanh``. A plan is made
for one seq shape (T, B, input_size) and one of two storage modes with the
same bits: diagonal-major buffers that keep every step's gates and cell
states for the backward, or rolling (L, B, ·) states. It allocates its
buffers and indexes every diagonal's views once, so running it again costs
only the arithmetic and the numpy calls of the steps: that is most of a
single-window forecast. It holds views of the weights, not their values.
``lstm_stack_forward`` (diagonal-major) and ``lstm_stack_hidden`` (rolling)
are one-shot plans, whose results are fresh buffers; ``models.Model`` keeps
its own plans across calls. ``lstm_forward`` is a one-layer loop of its
own, with a ``sigmoid`` call per gate (perfbench's tests count them), which
localization training runs. There is one backward loop,
``LstmBackwardPlan.run``: the wavefront in reverse over the diagonal-major
buffers, with only the recurrent and layer-to-layer matmuls inside it. It
reads either forward's cache. A backward plan is made for one stack and
one (T, B), like a forward plan, with its buffers and every diagonal's
views made once. It computes the gates' gradient factors gate-major, in
contiguous (..., H) blocks, because on the H-wide columns of the 4H-wide
gate rows each elementwise op costs about three times as much; one copy
puts them back into 4H-wide rows for the loop's matmuls.
``lstm_stack_backward`` and ``lstm_backward`` (its one-layer case) are
one-shot plans; ``models.Model`` keeps its own. Each layer ships a
hand-derived backward pass returning gradients in the same shapes as its
parameters; finite-difference tests lock every one of them. There is no
autodiff graph: the architecture set is small and fixed, and explicit
backward code keeps the arithmetic auditable.

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


def sigmoid(x: Array, out: Array | None = None) -> Array:
    # 0.5 * tanh(0.5 * x) + 0.5, written through one buffer: four ufunc
    # calls, and tanh saturates at any input without overflow. Below about
    # x = -20 it keeps only absolute precision (error near 1e-16), which the
    # gates and the clamped ``bce_loss`` do not need to exceed.
    y = np.multiply(x, 0.5, out=out)
    np.tanh(y, out=y)
    y *= 0.5
    y += 0.5
    return y


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
    ``lstm_forward``, the one-layer loop, keeps one layer's arrays by step t;
    ``lstm_stack_forward`` keeps L layers' by diagonal d = l + t, with a layer
    axis after the first. ``lstm_stack_hidden`` runs the same loop over
    rolling arrays of that layout, whose rows along d are one buffer."""

    inputs: Array     # (T, B, input_size): the first layer's input sequence
    gates: Array      # (T, B, 4H) or (T + L - 1, L, B, 4H); activated, gate order i,f,g,o
    cells: Array      # (T + 1, B, H) or (T + L, L, B, H); rows 0 and [l, l] are the zero state
    cell_tanh: Array  # (T, B, H) or (T + L - 1, L, B, H)
    hidden: Array     # like cells


def _checked_shape(p: LstmParams | LstmStack, shape: tuple) -> None:
    """Refuses a seq shape other than (T, B, input_size) with T >= 1."""
    if len(shape) != 3 or shape[0] < 1:
        raise ValueError("seq must be (T, B, input_size) with T >= 1")
    if shape[2] != p.input_size:
        raise ValueError(f"seq width {shape[2]} != input_size {p.input_size}")


def _checked_seq(p: LstmParams | LstmStack, seq) -> Array:
    """seq as float64 (T, B, input_size) with T >= 1 and finite values."""
    seq = np.asarray(seq, dtype=np.float64)
    _checked_shape(p, seq.shape)
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
    (T, B, input_size); bit for bit the chained ``lstm_forward`` calls.
    A one-shot rolling ``LstmPlan``: no backward buffer is kept."""
    seq = np.asarray(seq, dtype=np.float64)
    return LstmPlan(stack, seq.shape, rolling=True).run(seq)[0]


def lstm_stack_forward(stack: LstmStack, seq: Array) -> tuple[Array, LstmCache]:
    """``lstm_forward`` chained over the layers of ``stack``: the top layer's
    hidden sequence (T, B, H) and the buffers of ``lstm_stack_backward``,
    every layer's rows bit for bit those of the chained calls.

    A one-shot ``LstmPlan`` over diagonal-major buffers. Diagonal d = l + t
    keeps layer l's step t: its activated gates in ``gates[d, l]`` (T + L -
    1, L, B, 4H) and ``cell_tanh[d, l]`` alike, its states in ``cells[d + 1,
    l]`` and ``hidden[d + 1, l]`` (T + L, L, B, H), whose never-written
    ``[l, l]`` is the zero initial state. So layer l's ``lstm_forward``
    arrays are ``gates[l : l + T, l]``, ``hidden[l : l + T + 1, l]`` and so
    on, and its inputs, for l >= 1, ``hidden[l : l + T, l - 1]``.
    """
    seq = np.asarray(seq, dtype=np.float64)
    return LstmPlan(stack, seq.shape, rolling=False).run(seq)


def _rolling(shape: tuple) -> Array:
    """One zeroed ``shape[1:]`` buffer seen as ``shape``, with stride 0 along axis 0."""
    buf = np.zeros(shape[1:])
    return np.ndarray(shape, buf.dtype, buf, 0, (0,) + buf.strides)


class LstmPlan:
    """The one LSTM stack forward for seqs of one ``shape`` (T, B,
    input_size), with its buffers and every diagonal's views made once, so
    that a plan run again allocates nothing but its cache record.

    It runs a wavefront (Appleyard, Kocisky and Blunsom, arXiv:1604.01946):
    layer l's step t needs only (l, t - 1) and (l - 1, t), so every layer on
    a diagonal d = l + t runs in one batched step, T + L - 1 steps at any
    batch size. ``rolling`` picks the storage of the gates, cells and cell
    tanh: diagonal-major buffers in ``lstm_stack_forward``'s layout, for the
    backward, or rolling (L, B, ·) states, stride-0 views of one buffer each.
    Both keep the whole (T + L, L, B, H) hidden buffer.

    The plan holds views of ``stack``'s arrays, never their values: each
    ``run`` reads the weights as they are then, so an in-place update of
    them (``adam_step``, ``models.load_model``) needs no new plan. A run
    refreshes what the one before changed: layer 0's input terms, the
    rolling cell state (zero at each layer's first step) and, in the gate
    rows that no diagonal reaches, each layer's bias: finite for the
    backward's passes over whole buffers, which overflow on a bias that
    training has blown up. Every other row a run writes it writes whole,
    and the rows it never writes stay zero. What a run returns are views of
    the plan's buffers, valid until its next run; a plan is not safe to run
    from two threads at once.
    """

    def __init__(self, stack: LstmStack, shape: tuple, *, rolling: bool):
        _checked_shape(stack, shape)
        self.stack, self.shape = stack, tuple(shape)
        steps, batch, _ = self.shape
        depth, hid = stack.depth, stack.hidden_size
        buffer = _rolling if rolling else np.zeros
        diags, states = (steps + depth - 1, depth, batch), (steps + depth, depth, batch, hid)
        gates, cell_tanh, cells = buffer(diags + (4 * hid,)), buffer(diags + (hid,)), buffer(states)
        hidden = np.zeros(states)
        self._buffers = gates, cells, cell_tanh, hidden
        self._top = hidden[depth:, -1]
        # Step t's pre-activations live in row T - 1 - t: layer 0's input
        # terms, which layer l >= 1 overwrites with its own, so one
        # diagonal's rows are adjacent, in layer order.
        pre = np.empty((steps, batch, 4 * hid))
        self._input_terms = pre[::-1]
        self._unreached = gates[: depth - 1, 1:], stack.bias[1:, None]
        # The rolling cell state starts each run at zero; diagonal-major cells
        # keep the zero initial state in rows that no run writes.
        self._carry = cells.base if rolling else cells[:0]
        i, f, g, o = (gates[..., k * hid : (k + 1) * hid] for k in range(4))
        pre_g, bias_in = pre[..., 2 * hid : 3 * hid], stack.bias[1:, None]  # indexed as w_in
        self._diagonals = []
        for d in range(steps + depth - 1):
            lo, hi = max(0, d - steps + 1), min(depth, d + 1)  # the layers that run
            up = max(lo, 1)  # the first of them that reads the one below
            layers, below, row = slice(lo, hi), slice(up - 1, hi - 1), steps - 1 - d
            now, nxt, rows = (d, layers), (d + 1, layers), slice(row + lo, row + hi)
            inputs = ((hidden[d, below], stack.w_in[below], bias_in[below],
                       pre[row + up : row + hi]) if up < hi else None)
            self._diagonals.append((inputs, pre[rows], hidden[now], stack.w_rec[layers], gates[now],
                                   pre_g[rows], g[now], f[now], cells[now], cells[nxt], i[now],
                                   o[now], cell_tanh[now], hidden[nxt]))

    def run(self, seq: Array) -> tuple[Array, LstmCache]:
        """The top hidden sequence (T, B, H) over seq, a finite array of the
        plan's shape, and the buffers in ``lstm_stack_forward``'s layout.

        A step sums the pre-activations as ``lstm_forward`` does, (x @ w_in +
        bias) + h @ w_rec, and activates all 4H columns with one ``sigmoid``
        and the candidate columns with ``tanh``.
        """
        seq = np.asarray(seq, dtype=np.float64)
        if seq.shape != self.shape:
            raise ValueError(f"seq shape {seq.shape} != the plan's {self.shape}")
        ensure_finite("lstm input", seq)
        np.copyto(*self._unreached)
        self._carry.fill(0.0)
        np.matmul(seq, self.stack.w_in0, out=self._input_terms)
        self._input_terms += self.stack.bias[0]
        for inputs, a, h, w_rec, gates, a_g, g, f, c_prev, c_next, i, o, c_tanh, h_next in (
                self._diagonals):
            if inputs:
                below, w_in, bias, dst = inputs
                np.add(below @ w_in, bias, dst)
            a += h @ w_rec
            sigmoid(a, gates)
            cand = np.tanh(a_g, g)
            c = np.multiply(f, c_prev, c_next)
            c += i * cand
            np.multiply(o, np.tanh(c, c_tanh), h_next)
        gates, cells, cell_tanh, hidden = self._buffers
        ensure_finite("lstm hidden", hidden)
        return self._top, LstmCache(seq, gates, cells, cell_tanh, hidden)


def _layer_major(buf: Array, steps: int) -> Array:
    """Rows ``buf[l + t, l]`` for t < ``steps`` of a contiguous diagonal-major
    buffer (D, L, ...), as a strided (L, steps, ...) view. It is built by
    the ``ndarray`` constructor, at a tenth of the cost of ``as_strided``."""
    s_d, s_l = buf.strides[:2]
    return np.ndarray((buf.shape[1], steps) + buf.shape[2:], buf.dtype, buf, 0,
                      (s_d + s_l, s_d) + buf.strides[2:])


class LstmBackwardPlan:
    """The one LSTM stack backward (backpropagation through time) over the
    forwards of seqs of one ``shape`` (T, B, input_size), with its buffers
    and every diagonal's views made once, so that a plan run again
    allocates nothing but the input gradient it may return.

    The diagonals d = l + t run in reverse, every active layer of one in a
    single batched step. Each gate's pre-activation gradient is dc (dh for
    the output gate) times a factor of forward values alone, and ``dc_dh``,
    dc's share of dh, is one too. A run first computes all of them for
    every (d, l) at once, in a gate-major (4, T + L - 1, L, B, H) copy of
    the cache's gates: on contiguous blocks, an elementwise op costs about
    a third of what it costs on the H-wide columns of the 4H-wide rows. It
    then writes the factors into the (..., 4H) rows of ``d_pre`` with one
    copy, and a diagonal scales its rows by its dc and dh. Only the
    recurrent dh and the input gradient that layer l >= 1 sends to layer
    l - 1, which arrives on diagonal d - 1, are products inside the loop.
    Then every layer's weight gradients come from one batched product per
    array over the T*B rows of ``d_pre``, copied layer-major once, as does
    the input gradient. At one layer every operation is that of the
    per-layer form. With more, the per-diagonal input gradients give the
    bits of one product over T*B rows at B = 8; at the model shapes and B
    of 1, 64 or 65 the weight gradients moved by at most 2.2e-15 of the
    largest one.

    The factor pass runs over whole buffers, the gate rows that no diagonal
    reaches included, where ``LstmPlan`` keeps each layer's bias. A bias
    that training has blown up overflows there, and that overflow is what
    refuses a diverging lr in rf training today: with those rows skipped,
    ``--lr 1e300`` trained to exit 0, its gates saturated and every LSTM
    gradient exactly 0.

    ``run`` accepts both caches: ``LstmPlan``'s diagonal-major buffers, or,
    for one layer, ``lstm_forward``'s, whose (T, ...) arrays are the L = 1
    case. Like ``LstmPlan``, the plan holds views of ``stack``'s arrays,
    never their values, so an in-place update of them needs no new plan,
    and it is not safe to run from two threads at once.
    """

    def __init__(self, stack: LstmStack, shape: tuple):
        _checked_shape(stack, shape)
        self.stack, self.shape = stack, tuple(shape)
        steps, batch, _ = self.shape
        depth, hid = stack.depth, stack.hidden_size
        rows = (steps + depth - 1, depth, batch)
        self._gates, self._factors = np.empty((2, 4) + rows + (hid,))  # gate-major
        self._dc_dh = np.empty(rows + (hid,))
        d_pre = np.empty(rows + (4 * hid,))
        blocks = d_pre.reshape(rows + (4, hid))
        self._d_pre_blocks = blocks.transpose(3, 0, 1, 2, 4)
        # dh arriving from above: layer l + 1 or, in the top layer's rows,
        # the loss, which are all zero while runs pass only the last step's.
        d_in = np.zeros(rows + (hid,))
        self._top, self._last_only = d_in[depth - 1 :, depth - 1], True
        self._carry = np.zeros((2, depth, batch, hid))  # dh and dc into the step before
        dh_next, dc_next = self._carry
        dh, dc = np.empty((2, depth, batch, hid))
        scale = np.empty((depth, batch, 4, hid))  # a diagonal's (dc, dc, dc, dh) rows
        # Layer-major copies of d_pre's rows and of the hidden states, for the
        # weight gradients' products over T*B rows.
        layer_rows = np.empty((depth, steps, batch, 4 * hid))
        states = self._states = np.empty((depth, steps + 1, batch, hid))
        self._rows_copy = layer_rows, _layer_major(d_pre, steps)
        self._rows = layer_rows.reshape(depth, steps * batch, 4 * hid)
        self._h_prev_t = states[:, :-1].reshape(depth, steps * batch, hid).transpose(0, 2, 1)
        # layer l's inputs, l >= 1
        self._below_t = states[:-1, 1:].reshape(depth - 1, steps * batch, hid).transpose(0, 2, 1)
        w_rec_t, w_in_t = stack.w_rec.transpose(0, 2, 1), stack.w_in.transpose(0, 2, 1)
        self._diagonals = []
        for d in range(rows[0] - 1, -1, -1):
            lo, hi = max(0, d - steps + 1), min(depth, d + 1)  # the layers that run
            up = max(lo, 1)  # the first of them that sends a gradient below
            now = slice(lo, hi)
            below = ((d_pre[d, up:hi], w_in_t[up - 1 : hi - 1], d_in[d - 1, up - 1 : hi - 1])
                     if up < hi else None)
            self._diagonals.append((d_in[d, now], dh_next[now], dh[now], self._dc_dh[d, now],
                                    dc[now], dc_next[now], scale[now, :, :3], dc[now, :, None],
                                    scale[now, :, 3], scale[now].reshape(hi - lo, batch, 4 * hid),
                                    d_pre[d, now], w_rec_t[now], self._gates[1, d, now], below))

    def run(self, cache: LstmCache, d_hidden: Array, grads: LstmStack, *,
            input_grad: bool = True):
        """Every weight gradient of the forward that left ``cache``, written
        into ``grads``, a stack of the plan's stack's shapes. ``d_hidden`` is
        the loss gradient w.r.t. the top layer's hidden sequence (T, B, H),
        or w.r.t. its last state alone (B, H). Returns the gradient w.r.t.
        the input sequence, a new array; with ``input_grad=False`` that
        product, which nothing reads below a model's first layer, is skipped
        and None returned."""
        steps, batch, _ = self.shape
        depth, hid = self.stack.depth, self.stack.hidden_size
        diags = steps + depth - 1
        if cache.inputs.shape != self.shape:
            raise ValueError(f"cache shape {cache.inputs.shape} != the plan's {self.shape}")
        top = self._top
        if d_hidden.shape == top.shape[1:]:
            if not self._last_only:
                top[:-1] = 0.0
                self._last_only = True
            top[-1] = d_hidden
        elif d_hidden.shape == top.shape:
            top[...], self._last_only = d_hidden, False
        else:
            raise ValueError("d_hidden must match the hidden sequence shape")

        gates, factors, dc_dh = self._gates, self._factors, self._dc_dh
        np.copyto(gates, cache.gates.reshape(diags, depth, batch, 4, hid).transpose(3, 0, 1, 2, 4))
        ct = cache.cell_tanh.reshape(diags, depth, batch, hid)
        c_prev = cache.cells.reshape(diags + 1, depth, batch, hid)[:-1]
        i, f, g, o = gates
        # Each factor in the order of (g * i) * (1 - i), (c_prev * f) * (1 - f),
        # i * (1 - g**2), (ct * o) * (1 - o) and o * (1 - ct**2); the free
        # blocks of ``factors`` and g, once read, hold the differences.
        np.subtract(1.0, i, out=factors[2])
        np.multiply(g, i, out=factors[0])
        factors[0] *= factors[2]
        np.square(g, out=factors[2])
        np.subtract(1.0, factors[2], out=factors[2])
        factors[2] *= i
        np.subtract(1.0, f, out=factors[3])
        np.multiply(c_prev, f, out=factors[1])
        factors[1] *= factors[3]
        np.subtract(1.0, o, out=g)
        np.multiply(ct, o, out=factors[3])
        factors[3] *= g
        np.square(ct, out=dc_dh)
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= o
        np.copyto(self._d_pre_blocks, factors)

        self._carry.fill(0.0)
        for (d_in, dh_next, dh, dc_dh, dc, dc_next, scale_icg, dc_cols, scale_o, scale, rows,
             w_rec_t, f, below) in self._diagonals:
            np.add(d_in, dh_next, out=dh)
            np.multiply(dh, dc_dh, out=dc)
            dc += dc_next
            np.copyto(scale_icg, dc_cols)
            np.copyto(scale_o, dh)
            rows *= scale
            np.matmul(rows, w_rec_t, out=dh_next)
            np.multiply(dc, f, out=dc_next)
            if below:
                rows_up, w_in_t, d_in_below = below
                np.matmul(rows_up, w_in_t, out=d_in_below)

        np.copyto(*self._rows_copy)
        np.copyto(self._states, _layer_major(cache.hidden.reshape(diags + 1, depth, batch, hid),
                                             steps + 1))
        rows = self._rows
        np.matmul(cache.inputs.reshape(steps * batch, -1).T, rows[0], out=grads.w_in0)
        np.matmul(self._below_t, rows[1:], out=grads.w_in)
        np.matmul(self._h_prev_t, rows, out=grads.w_rec)
        rows.sum(axis=1, out=grads.bias)
        if not input_grad:
            return None
        return (rows[0] @ self.stack.w_in0.T).reshape(self.shape)


def lstm_stack_backward(stack: LstmStack, d_hidden: Array, cache: LstmCache, grads: LstmStack,
                        *, input_grad: bool = True):
    """Backpropagation through time over ``stack``, as a one-shot
    ``LstmBackwardPlan``: ``d_hidden`` (T, B, H) is the loss gradient w.r.t.
    the top layer's hidden sequence, and ``cache`` the forward's buffers,
    ``lstm_stack_forward``'s or, for one layer, ``lstm_forward``'s. Every
    weight gradient is written into ``grads``, a stack of ``stack``'s
    shapes. Returns the gradient w.r.t. the input sequence, or None with
    ``input_grad=False``."""
    plan = LstmBackwardPlan(stack, cache.inputs.shape)
    return plan.run(cache, d_hidden, grads, input_grad=input_grad)


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
