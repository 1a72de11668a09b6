"""Minimal neural kernel: dense, LSTM, 1-D conv, pooling, losses, Adam.

Everything runs in float64 on plain numpy arrays. Each layer ships a
hand-derived backward pass returning gradients in the same shapes as its
parameters; finite-difference tests lock every one of them. There is no
autodiff graph: the architecture set is small and fixed, and explicit
backward code keeps the arithmetic auditable.

Parameter initialization is fully seeded: weights are uniform in
[-1/sqrt(fan_in), +1/sqrt(fan_in)], biases start at zero except the LSTM
forget gate, which starts at one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import NonFiniteError, SchemaError, VersionError
from .ingest import read_json_object

CHECKPOINT_FORMAT_VERSION = 1

Array = np.ndarray


def _check_finite(name: str, arr: Array) -> Array:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite values")
    return arr


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> Array:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def relu(x: Array) -> Array:
    return np.maximum(x, 0.0)


def relu_backward(d_out: Array, x: Array) -> Array:
    return d_out * (x > 0.0)


def sigmoid(x: Array) -> Array:
    # Split by sign to avoid overflow in exp.
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
    _check_finite("dense output", y)
    return y, x


def dense_backward(p: DenseParams, d_out: Array, cache: Array):
    x = cache
    d_x = d_out @ p.weight.T
    grads = {"weight": x.T @ d_out, "bias": d_out.sum(axis=0)}
    return d_x, grads


# ---------------------------------------------------------------------------
# LSTM layer (single layer; stack layers by feeding hidden sequences)
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
    cells: Array      # (T, B, H)
    cell_tanh: Array  # (T, B, H)
    hidden: Array     # (T, B, H)
    h0: Array
    c0: Array


def lstm_forward(
    p: LstmParams, seq: Array, h0: Array | None = None, c0: Array | None = None
) -> tuple[Array, Array, LstmCache]:
    """Run the recurrence over seq of shape (T, B, input_size).

    Returns the full hidden sequence (T, B, H), the final hidden state,
    and the cache needed for an exact backward pass.
    """
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim != 3 or seq.shape[0] < 1:
        raise ValueError("seq must be (T, B, input_size) with T >= 1")
    steps, batch, width = seq.shape
    if width != p.input_size:
        raise ValueError(f"seq width {width} != input_size {p.input_size}")
    _check_finite("lstm input", seq)
    hid = p.hidden_size
    h = np.zeros((batch, hid)) if h0 is None else np.array(h0, dtype=np.float64)
    c = np.zeros((batch, hid)) if c0 is None else np.array(c0, dtype=np.float64)
    if h.shape != (batch, hid) or c.shape != (batch, hid):
        raise ValueError("h0/c0 must have shape (batch, hidden_size)")
    h0_arr, c0_arr = h.copy(), c.copy()

    gates = np.empty((steps, batch, 4 * hid))
    cells = np.empty((steps, batch, hid))
    cell_tanh = np.empty((steps, batch, hid))
    hidden = np.empty((steps, batch, hid))
    pre = seq @ p.w_in + p.bias  # recurrent term added per step
    for t in range(steps):
        a = pre[t] + h @ p.w_rec
        i = sigmoid(a[:, :hid])
        f = sigmoid(a[:, hid : 2 * hid])
        g = np.tanh(a[:, 2 * hid : 3 * hid])
        o = sigmoid(a[:, 3 * hid :])
        c = f * c + i * g
        ct = np.tanh(c)
        h = o * ct
        gates[t] = np.concatenate([i, f, g, o], axis=1)
        cells[t] = c
        cell_tanh[t] = ct
        hidden[t] = h
    _check_finite("lstm hidden", hidden)
    cache = LstmCache(seq, gates, cells, cell_tanh, hidden, h0_arr, c0_arr)
    return hidden, hidden[-1], cache


def lstm_backward(p: LstmParams, d_hidden: Array, cache: LstmCache):
    """Backpropagation through time.

    d_hidden holds the loss gradient w.r.t. every hidden output (T, B, H);
    callers that only use the final state pass zeros elsewhere. Returns
    the gradient w.r.t. the input sequence and a parameter-gradient dict.
    """
    steps, batch, hid = cache.hidden.shape
    if d_hidden.shape != (steps, batch, hid):
        raise ValueError("d_hidden must match the hidden sequence shape")
    d_w_in = np.zeros_like(p.w_in)
    d_w_rec = np.zeros_like(p.w_rec)
    d_bias = np.zeros_like(p.bias)
    d_seq = np.empty_like(cache.inputs)
    dh_next = np.zeros((batch, hid))
    dc_next = np.zeros((batch, hid))

    for t in range(steps - 1, -1, -1):
        i = cache.gates[t][:, :hid]
        f = cache.gates[t][:, hid : 2 * hid]
        g = cache.gates[t][:, 2 * hid : 3 * hid]
        o = cache.gates[t][:, 3 * hid :]
        ct = cache.cell_tanh[t]
        c_prev = cache.cells[t - 1] if t > 0 else cache.c0
        h_prev = cache.hidden[t - 1] if t > 0 else cache.h0

        dh = d_hidden[t] + dh_next
        dc = dc_next + dh * o * (1.0 - ct**2)
        d_a = np.concatenate(
            [
                dc * g * i * (1.0 - i),          # input gate pre-activation
                dc * c_prev * f * (1.0 - f),     # forget gate
                dc * i * (1.0 - g**2),           # candidate
                dh * ct * o * (1.0 - o),         # output gate
            ],
            axis=1,
        )
        d_w_in += cache.inputs[t].T @ d_a
        d_w_rec += h_prev.T @ d_a
        d_bias += d_a.sum(axis=0)
        d_seq[t] = d_a @ p.w_in.T
        dh_next = d_a @ p.w_rec.T
        dc_next = dc * f

    grads = {"w_in": d_w_in, "w_rec": d_w_rec, "bias": d_bias}
    return d_seq, grads


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


def conv1d_forward(p: Conv1dParams, x: Array) -> tuple[Array, Array]:
    """x: (B, in_channels, length) -> (B, out_channels, out_length)."""
    out_c, in_c, kernel = p.weight.shape
    if x.ndim != 3 or x.shape[1] != in_c:
        raise ValueError("conv input must be (batch, in_channels, length)")
    if x.shape[2] < kernel:
        raise ValueError("kernel is longer than the input signal")
    windows = np.lib.stride_tricks.sliding_window_view(x, kernel, axis=2)
    windows = windows[:, :, :: p.stride, :]  # (B, in_c, out_len, K)
    y = np.einsum("bilk,oik->bol", windows, p.weight) + p.bias[None, :, None]
    _check_finite("conv output", y)
    return y, x


def conv1d_backward(p: Conv1dParams, d_out: Array, cache: Array):
    x = cache
    out_c, in_c, kernel = p.weight.shape
    windows = np.lib.stride_tricks.sliding_window_view(x, kernel, axis=2)
    windows = windows[:, :, :: p.stride, :]
    d_w = np.einsum("bilk,bol->oik", windows, d_out)
    d_b = d_out.sum(axis=(0, 2))
    d_x = np.zeros_like(x)
    d_win = np.einsum("bol,oik->bilk", d_out, p.weight)
    for j in range(d_out.shape[2]):
        start = j * p.stride
        d_x[:, :, start : start + kernel] += d_win[:, :, j, :]
    return d_x, {"weight": d_w, "bias": d_b}


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

@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, Array] = field(default_factory=dict)
    v: dict[str, Array] = field(default_factory=dict)


def adam_init(params: dict[str, Array], lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    state = AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    for name, arr in params.items():
        state.m[name] = np.zeros_like(arr)
        state.v[name] = np.zeros_like(arr)
    return state


def adam_step(state: AdamState, params: dict[str, Array], grads: dict[str, Array]) -> AdamState:
    """Bias-corrected Adam update, applied to the parameter arrays in place."""
    if set(params) != set(grads):
        raise ValueError("params and grads must have identical keys")
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    correction1 = 1.0 - b1**state.step
    correction2 = 1.0 - b2**state.step
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape mismatch for '{name}'")
        _check_finite(f"grad[{name}]", g)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g**2
        p -= state.lr * (m / correction1) / (np.sqrt(v / correction2) + state.eps)
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
        try:
            params[name] = np.array(entry["data"], dtype=np.float64).reshape(entry["shape"])
        except (KeyError, TypeError, ValueError):
            raise SchemaError(f"{path}: params.{name} is not a shape and its data") from None
    return payload["descriptor"], params
