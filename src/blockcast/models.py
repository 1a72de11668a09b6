"""The three trainable predictors: one ``Model`` type, one training loop.

A ``Model`` is an ordered dict of named layers; ``build_model`` lays them
out per kind, drawing initial weights from one RNG in layer order, and
parameters are named ``<layer>.<array>`` (``lstm0.w_in``, ``head.bias``).
The layer arrays are views of one float64 vector, ``Model.params``. It
starts with the LSTM layers' arrays stacked by array, every ``w_in``, then
every ``w_rec``, then every ``bias``, which ``Model.lstm`` views as one
``nn.LstmStack``; the other layers' arrays follow, layer by layer. This
module owns ``model.json``: the ``format_version``, a ``descriptor`` (kind,
dimensions, ``NormStats``) and each array by name (not by vector offset) as
its ``shape`` and C-order ``data``, in repr floats that load bit for bit.

* ``localization``: ``lstm`` (hidden 32) over the RSSI window, ``dense1``
  32->20 with ReLU and ``dense2`` 20->2N with a final ReLU. Huber loss
  against future object centroids, flattened (x1, y1, ..., xN, yN) and
  normalized to [0, 1] by the road extent so the final ReLU cannot clip a
  legitimate target.
* ``rf``: four stacked LSTM layers ``lstm0``..``lstm3`` (hidden 16) and a
  dense ``head`` emitting N logits; sigmoid probabilities, BCE loss.
* ``rf+lidar``: two stacked LSTM layers (hidden 16) plus a 1-D CNN over
  the polar depth raster of the latest scan (``conv1``, ``conv2``: 8 then
  16 channels, kernel 5, stride 2, ReLU, global average pooling); both
  feature vectors are concatenated and mapped by ``head`` to N logits.
  A conv layer's forward is one product per window over its input
  unrolled into windows of 5 samples (``nn.conv1d_forward``), and returns
  channels-last memory, which ``conv2`` and the pooling read without a
  copy.

RSSI windows enter every model as per-beam standardized dB values; the
statistics come from the training split only and ride along in the
checkpoint so inference needs no dataset access. Training is
bit-reproducible: one seed drives initialization and batch sampling.

A fit that diverges is refused by ``_train`` alone, by its own losses. At
each episode's end it scores val (the curve's point) and, only if that loss
is above the untrained model's, train. An episode worse than the untrained
model on both (on train alone, without a val split), or an overflow, stops
the fit with a NonFiniteError naming the episode and lr. The untrained model
is built again from the fit's seed, and scores a split once, when first
compared; a standard fit pays one val scoring for the rule. The rule only
reads, so a fit it passes keeps its bits. Val alone would refuse the CLI
tests' 200-step drive, whose val split is 61% blocked against train's 12%:
rf at lr 1e-3 ends 15 steps at val 0.6973 against the untrained 0.6926. On
the standard dataset (seed 0, 2 episodes of 5 iterations), lr 1e30 ends
episode 1 at val 6.6e58, 8.31 and 8.01 (localization, rf, rf+lidar) against
0.0950, 0.6932 and 0.6966, and train is above too; rf does so at 1e100 and
1e300, and localization at lr 1, whose outputs are all equal, at 0.1006.
Each is refused. No fit at lr 1e-3 or 2e-3 was (20 episodes of 10
iterations, seeds 0 to 2, on both datasets).

Training runs the buffered forward that its backward pass reads;
prediction and the validation loss score with the cache-free one. Both run
``nn``'s one diagonal loop through an ``nn.LstmPlan`` that the model keeps:
at most one per storage mode (diagonal-major buffers for training, rolling
states for scoring), made again when T or B changes and dropped before its
successor is made. So a stream of single-window forecasts, the B = 8 steps
of a fit and the blocks of a scoring call reuse their buffers and views.
Only storage is reused: a plan reads the weights in ``Model.params``, which
``nn.adam_step`` and ``load_model`` update in place, at every run. Only
localization training, one layer, runs ``nn.lstm_forward``, a one-layer
loop of its own. A training step's backward runs the model's
``nn.LstmBackwardPlan``, kept beside the forward plans and replaced the same
way when T or B changes, over either forward's buffers at any depth. It is
given the gradient w.r.t. the last hidden state alone, since the plan keeps
the other steps' rows zero, and writes every gradient into views of one
vector laid out as ``Model.params``, which ``nn.adam_step`` takes whole; it
allocates no buffer of its own after a fit's first step. A model is
therefore not safe to use from two threads at once.

Scoring (``predict_locations_batch``, ``predict_blockage_probs``) runs the
cache-free forward over blocks of ``SCORE_BLOCK`` = 64 windows that start
at each multiple of 64, gathering a block's frames from a ``WindowSet`` (or
an array of windows) and writing into one preallocated output; a lone
trailing window joins the block before it. Peak memory therefore does not
grow with the number of windows, and the result equals one forward pass
over all of them bit for bit. That holds for a ``SCORE_BLOCK`` that is a
positive multiple of 4, which ``_score`` enforces, so that every block
starts on a multiple of the BLAS kernel's 4-row unroll: with blocks of 3,
7 or 255 windows the localization outputs of the standard drive moved in
their last bits (rf and rf+lidar did not), and with 4, 8, 100, 256, 1,000
or 100,000 no output moved. That holds for OpenBLAS's SkylakeX kernel;
on Haswell at 2 threads, trailing blocks of 65 and 69 windows moved
localization and rf outputs, so importing ``blockcast`` runs OpenBLAS on one
thread unless ``OPENBLAS_NUM_THREADS`` says otherwise. Each model scored the standard drive faster
in blocks of 64 than in blocks of 256 (BENCH_24.json).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigMismatchError, NonFiniteError, SchemaError, VersionError
from .ingest import DatasetFile, json_field, read_json_object
from .nn import (
    Conv1dParams,
    DenseParams,
    LstmBackwardPlan,
    LstmParams,
    LstmPlan,
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
    lstm_forward,
    lstm_init,
    relu,
    relu_backward,
    sigmoid,
)
from .preprocess import WindowSet

CHECKPOINT_FORMAT_VERSION = 1
DB_FLOOR = 1e-12
STD_FLOOR = 1e-6
SCORE_BLOCK = 64  # windows per forward pass when scoring; a positive multiple of 4


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 8
    episodes: int = 10
    iterations: int = 100
    seed: int = 0
    delta: float = 1.0  # Huber transition point; location model only

    def __post_init__(self):
        if self.lr <= 0 or self.delta <= 0:
            raise ValueError("lr and delta must be positive")
        if min(self.batch_size, self.episodes, self.iterations) < 1:
            raise ValueError("batch_size, episodes, iterations must be >= 1")


@dataclass
class NormStats:
    """Feature and target scaling carried inside every checkpoint."""

    rssi_mean: np.ndarray   # (M,) mean of per-beam power in dB over train frames
    rssi_std: np.ndarray    # (M,) std, floored at STD_FLOOR
    road_origin: np.ndarray  # (2,) world position of the road-frame origin
    road_size: np.ndarray   # (2,) road extent in meters; target scale
    lidar_max_range: float

    def to_json(self) -> dict:
        return {
            "rssi_mean": [float(v) for v in self.rssi_mean],
            "rssi_std": [float(v) for v in self.rssi_std],
            "road_origin": [float(v) for v in self.road_origin],
            "road_size": [float(v) for v in self.road_size],
            "lidar_max_range": float(self.lidar_max_range),
        }

    @classmethod
    def from_json(cls, d: dict, num_beams: int, path) -> "NormStats":
        """The stats of a checkpoint's ``norm`` object for M = ``num_beams``. A
        field that is missing, not of its shape ((M,) for ``rssi_*``, (2,) for
        ``road_*``, a number for ``lidar_max_range``) or not finite, or a scale
        that is not positive, is a SchemaError naming ``path`` and ``norm.<key>``
        (``ingest.json_field``)."""
        if not isinstance(d, dict):
            raise SchemaError(f"{path}: norm must be a JSON object")
        shapes = {"rssi_mean": (num_beams,), "rssi_std": (num_beams,), "road_origin": (2,),
                  "road_size": (2,), "lidar_max_range": ()}
        values = {key: json_field(d, key, path, shape, name=f"norm.{key}",
                                  positive=key in ("rssi_std", "road_size", "lidar_max_range"))
                  for key, shape in shapes.items()}
        return cls(**{key: value if key == "lidar_max_range" else np.array(value)
                      for key, value in values.items()})


def power_to_db(powers: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    db = np.maximum(np.asarray(powers, dtype=np.float64), DB_FLOOR, out=out)
    np.log10(db, out=db)
    db *= 10.0
    return db


def road_frame(meta: dict, path) -> tuple[np.ndarray, np.ndarray]:
    """The road frame of a dataset's ``meta``: the min corner of its
    ``road_region`` (the frame's world origin) and its extent, both (2,)."""
    x0, y0, x1, y1 = json_field(meta, "road_region", path, (4,))
    return np.array([min(x0, x1), min(y0, y1)]), np.array([abs(x1 - x0), abs(y1 - y0)])


def compute_norm_stats(windows: WindowSet, meta: dict) -> NormStats:
    """Per-beam dB statistics of a split's raw windows, their rows gathered
    once in window order and put in dB, centred and squared in place: the
    steps and bits of ``np.std``, with no other buffer; the road frame of ``meta``."""
    if not len(windows):
        raise ValueError("cannot compute normalization stats from an empty split")
    db = windows.windows().astype(np.float64, copy=False).reshape(-1, windows.frames.shape[1])
    mean = power_to_db(db, out=db).mean(axis=0)
    np.square(np.subtract(db, mean, out=db), out=db)
    road_origin, road_size = road_frame(meta, "dataset meta")
    max_range = meta.get("lidar_max_range")
    return NormStats(
        rssi_mean=mean,
        rssi_std=np.maximum(np.sqrt(db.sum(axis=0) / len(db)), STD_FLOOR),
        road_origin=road_origin,
        road_size=road_size,
        lidar_max_range=16.0 if max_range is None else float(max_range),
    )


def rssi_features(windows: np.ndarray, stats: NormStats, out=None) -> np.ndarray:
    """(..., M) raw powers -> standardized dB features, into ``out`` (may be
    ``windows``) or a new buffer. Each value is standardized alone: frames
    standardized, then gathered, have the bits of gathered windows standardized."""
    feats = power_to_db(windows, out=out)
    feats -= stats.rssi_mean
    feats /= stats.rssi_std
    return feats


# ---------------------------------------------------------------------------
# The model
# ---------------------------------------------------------------------------

LOC_HIDDEN = 32
LOC_BOTTLENECK = 20
BLOCKAGE_HIDDEN = 16
RF_LSTM_LAYERS = 4
LIDAR_LSTM_LAYERS = 2
CONV_CHANNELS = (8, 16)
CONV_KERNEL = 5
CONV_STRIDE = 2

# Model kind -> the "kind" string its checkpoint descriptor carries.
CHECKPOINT_KINDS = {
    "localization": "localization",
    "rf": "rf-blockage",
    "rf+lidar": "rf+lidar-blockage",
}

Layer = LstmParams | DenseParams | Conv1dParams


@dataclass
class Model:
    """One predictor: its named layers in initialization order, plus the
    shapes and normalization statistics inference needs, and the LSTM plans
    its forwards and backward reuse (see the module docstring). A model is
    not thread-safe: two forwards at once would share a plan's buffers."""

    kind: str  # "localization" | "rf" | "rf+lidar"
    layers: dict[str, Layer]
    window_len: int
    horizon: int
    stats: NormStats
    raster_bins: int | None = None  # length of the lidar raster; rf+lidar only
    params: np.ndarray = field(init=False, repr=False)  # every parameter, in named_params() order
    lstm: LstmStack = field(init=False, repr=False)  # the LSTM layers' weights: views of params
    # At most one LSTM plan per storage mode, keyed by ``rolling``, and one
    # backward plan.
    plans: dict[bool, LstmPlan] = field(init=False, repr=False, compare=False,
                                        default_factory=dict)
    backward: LstmBackwardPlan | None = field(init=False, repr=False, compare=False,
                                              default=None)
    # The layer names of each type, in order: the layers are fixed once built.
    _names: dict[type, tuple[str, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._names = {kind: tuple(name for name, layer in self.layers.items()
                                   if isinstance(layer, kind))
                       for kind in (LstmParams, DenseParams, Conv1dParams)}
        live = self.named_params()
        self.params = np.concatenate([arr.ravel() for arr in live.values()])
        named, self.lstm = self.views(self.params)
        for name, view in named.items():
            layer, key = name.split(".")
            setattr(self.layers[layer], key, view)

    @property
    def num_beams(self) -> int:
        return self.lstm.input_size

    def named_params(self) -> dict[str, np.ndarray]:
        """The live parameter arrays, keyed ``<layer>.<array>``, in the order
        of ``params``: every LSTM layer's ``w_in``, then every ``w_rec``, then
        every ``bias``, so that each array of the stack is one block; then the
        other layers' arrays, layer by layer."""
        lstm = self.names(LstmParams)
        named = {f"{name}.{key}": getattr(self.layers[name], key)
                 for key in ("w_in", "w_rec", "bias") for name in lstm}
        named.update({
            f"{name}.{key}": value
            for name, layer in self.layers.items() if name not in lstm
            for key, value in vars(layer).items()
            if isinstance(value, np.ndarray)
        })
        return named

    def views(self, vector: np.ndarray) -> tuple[dict[str, np.ndarray], LstmStack]:
        """Views of a vector laid out as ``params``: one per named parameter,
        and the LSTM stack's, whose blocks lead the vector."""
        live = self.named_params()
        pieces = np.split(vector, np.cumsum([arr.size for arr in live.values()])[:-1])
        named = {name: piece.reshape(arr.shape) for (name, arr), piece in zip(live.items(), pieces)}
        lstm = [self.layers[name] for name in self.names(LstmParams)]
        return named, LstmStack.view(vector, len(lstm), lstm[0].input_size, lstm[0].hidden_size)

    def plan(self, shape: tuple, *, rolling: bool) -> LstmPlan:
        """The model's ``nn.LstmPlan`` of one storage mode for seqs of
        ``shape``: the one it keeps, or, when T or B differ, a new one that
        replaces it. The old plan is dropped first, so the model never holds
        two sets of buffers of one mode."""
        plan = self.plans.get(rolling)
        if plan is None or plan.shape != shape:
            self.plans.pop(rolling, None)
            plan = self.plans[rolling] = LstmPlan(self.lstm, shape, rolling=rolling)
        return plan

    def backward_plan(self, shape: tuple) -> LstmBackwardPlan:
        """The model's ``nn.LstmBackwardPlan`` for forwards over seqs of
        ``shape``, kept and replaced as ``plan`` keeps and replaces a
        forward plan."""
        if self.backward is None or self.backward.shape != shape:
            self.backward = None
            self.backward = LstmBackwardPlan(self.lstm, shape)
        return self.backward

    def names(self, layer_type: type) -> tuple[str, ...]:
        """Names of the layers of one type, in order."""
        return self._names[layer_type]


def build_model(
    kind: str,
    num_beams: int,
    window_len: int,
    horizon: int,
    stats: NormStats,
    raster_bins: int | None = None,
    seed: int = 0,
) -> Model:
    """A freshly initialized predictor of the given kind."""
    rng = np.random.default_rng(seed)
    layers: dict[str, Layer] = {}
    if kind == "localization":
        layers["lstm"] = lstm_init(rng, num_beams, LOC_HIDDEN)
        layers["dense1"] = dense_init(rng, LOC_HIDDEN, LOC_BOTTLENECK)
        layers["dense2"] = dense_init(rng, LOC_BOTTLENECK, 2 * horizon)
    elif kind in ("rf", "rf+lidar"):
        width = num_beams
        for i in range(RF_LSTM_LAYERS if kind == "rf" else LIDAR_LSTM_LAYERS):
            layers[f"lstm{i}"] = lstm_init(rng, width, BLOCKAGE_HIDDEN)
            width = BLOCKAGE_HIDDEN
        if kind == "rf+lidar":
            layers["conv1"] = conv1d_init(rng, 1, CONV_CHANNELS[0], CONV_KERNEL, CONV_STRIDE)
            layers["conv2"] = conv1d_init(
                rng, CONV_CHANNELS[0], CONV_CHANNELS[1], CONV_KERNEL, CONV_STRIDE
            )
            width += CONV_CHANNELS[1]
        layers["head"] = dense_init(rng, width, horizon)
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    bins = raster_bins if kind == "rf+lidar" else None
    return Model(kind, layers, window_len, horizon, stats, bins)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def forward(
    model: Model,
    features: np.ndarray,
    rasters: np.ndarray | None = None,
    *,
    caches: dict | None = None,
) -> np.ndarray:
    """Standardized (B, T0, M) features -> the model output.

    The LSTM layers run over the window. An rf+lidar model also runs its
    conv layers over the normalized (B, raster_bins) rasters and appends
    the pooled channels to the last hidden state; other kinds ignore
    ``rasters``. The dense layers then map that vector to the output:
    (B, 2N) nonnegative road-unit locations (ReLU after every dense
    layer), or (B, N) sigmoid probabilities.

    The two forwards give the same bits. Given a ``caches`` dict, every
    layer leaves in it what ``_backward`` needs, the LSTM layers under
    ``"lstm"``: one layer runs ``lstm_forward``'s own loop, a stack the
    model's diagonal-major plan, whose buffers the caches then hold until the
    model's next buffered forward. Without one, the LSTM layers run the
    model's rolling plan. Each call checks its input once, and its output is
    a new array. ReLU runs in place: ``relu_backward`` reads only the sign of
    its cached input, which ReLU keeps.
    """
    layers = model.layers
    buffered = caches is not None
    feat = _lstm_last_hidden(model, features, caches)
    conv = model.names(Conv1dParams)
    if conv:
        x = _checked_rasters(model, rasters, len(features))[:, None, :]  # (B, 1, bins)
        for name in conv:
            z, cache = conv1d_forward(layers[name], x)
            if buffered:
                caches[name] = (z, cache)
            x = relu(z, out=z)
        pooled, length = global_avg_pool(x)
        if buffered:
            caches["pool"] = length
        feat = np.concatenate([feat, pooled], axis=1)
    regress = model.kind == "localization"
    for name in model.names(DenseParams):
        z, cache = dense_forward(layers[name], feat)
        if buffered:
            caches[name] = (z, cache)
        feat = relu(z, out=z) if regress else z
    return feat if regress else sigmoid(feat)


def _lstm_last_hidden(model: Model, features: np.ndarray, caches: dict | None) -> np.ndarray:
    """The LSTM layers' last hidden state (B, H) over (B, T0, M) features, for
    ``forward``. Their time-major copy is freed on return unless ``caches``
    keeps it, so it does not live through the conv layers' peak."""
    seq = np.ascontiguousarray(np.transpose(features, (1, 0, 2)))  # time-major (T0, B, M)
    if caches is not None and model.lstm.depth == 1:
        _, last, caches["lstm"] = lstm_forward(model.layers[model.names(LstmParams)[0]], seq)
        return last
    top, cache = model.plan(seq.shape, rolling=caches is None).run(seq)
    if caches is not None:
        caches["lstm"] = cache
    return top[-1]


def _backward(model: Model, d_out: np.ndarray, caches: dict, grads: dict[str, np.ndarray],
              lstm_grads: LstmStack) -> None:
    """Writes the gradient of every named parameter, from the loss gradient
    w.r.t. the output (w.r.t. the logits for the classifiers), into
    ``Model.views`` of one vector: ``grads`` by name, ``lstm_grads`` the
    stack's. The LSTM stack runs the model's backward plan at any depth,
    given the gradient w.r.t. the last hidden state alone."""
    layers = model.layers
    d = d_out
    for name in reversed(model.names(DenseParams)):
        z, cache = caches[name]
        if model.kind == "localization":
            d = relu_backward(d, z)
        d, g = dense_backward(layers[name], d, cache)
        grads[f"{name}.weight"][...], grads[f"{name}.bias"][...] = g["weight"], g["bias"]
    conv = model.names(Conv1dParams)
    if conv:
        hidden = model.lstm.hidden_size
        d, d_pool = d[:, :hidden], d[:, hidden:]
        dx = global_avg_pool_backward(d_pool, caches["pool"])
        for name in reversed(conv):
            z, cache = caches[name]
            dx, g = conv1d_backward(layers[name], relu_backward(dx, z), cache,
                                    input_grad=name != conv[0])
            grads[f"{name}.weight"][...], grads[f"{name}.bias"][...] = g["weight"], g["bias"]
    cache = caches["lstm"]
    model.backward_plan(cache.inputs.shape).run(cache, d, lstm_grads, input_grad=False)


def _loss(model: Model, out: np.ndarray, targets: np.ndarray, delta: float):
    """Huber for locations, BCE for blockage probabilities: (loss, d_out)."""
    if model.kind == "localization":
        return huber_loss(out, targets, delta)
    return bce_loss(out, targets)


def loss_and_grads(
    model: Model,
    features: np.ndarray,
    targets: np.ndarray,
    rasters: np.ndarray | None = None,
    delta: float = 1.0,
    *,
    views: tuple[dict[str, np.ndarray], LstmStack] | None = None,
):
    """Mean loss of one batch and the gradient of every named parameter, as
    views keyed ``<layer>.<array>`` of one vector laid out as ``Model.params``.

    targets are normalized (B, 2N) locations or (B, N) binary flags;
    ``delta`` is the Huber transition point, used by localization only.
    The gradient goes into ``views``, the ``Model.views`` of a vector that
    the caller keeps, or else into a new vector.
    """
    grads, lstm_grads = model.views(np.empty_like(model.params)) if views is None else views
    caches = {}
    out = forward(model, features, rasters, caches=caches)
    if targets.shape != out.shape:
        raise ConfigMismatchError(
            f"target shape {targets.shape} does not match model output {out.shape}"
        )
    loss, d_out = _loss(model, out, targets, delta)
    _backward(model, d_out, caches, grads, lstm_grads)
    return loss, grads


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class LossCurves:
    train: list[float] = field(default_factory=list)  # one entry per iteration
    val: list[float] = field(default_factory=list)    # one entry per episode


def _norm_rasters(rasters: np.ndarray, stats: NormStats) -> np.ndarray:
    return rasters / stats.lidar_max_range


def _targets(model: Model, arrays: WindowSet) -> np.ndarray:
    """The targets of one split in the form of ``forward``'s output."""
    if model.kind == "localization":  # (B, N, 2) road-frame meters -> (B, 2N) road units
        return (arrays.futures / model.stats.road_size).reshape(len(arrays.futures), -1)
    return arrays.blocked.astype(np.float64)


def _train(dataset: DatasetFile, cfg: TrainConfig, kind: str):
    """The fitted model of ``kind`` and its loss curves, each batch gathered
    from the dataset's frames standardized once; a NonFiniteError if an
    episode overflows or ends worse than the untrained model on val and train
    alike (see the module docstring)."""
    train = dataset.arrays("train")
    n, window_len, num_beams = len(train), train.window_len, train.frames.shape[1]
    horizon = train.futures.shape[1]
    raster_bins = train.rasters.shape[1] if kind == "rf+lidar" else None
    for key, value in (("window_len", window_len), ("num_beams", num_beams), ("horizon", horizon)):
        if key in dataset.meta and int(dataset.meta[key]) != value:
            raise ConfigMismatchError(
                f"dataset {key}={dataset.meta[key]} does not match its samples' {key}={value}"
            )

    stats = compute_norm_stats(train, dataset.meta)
    model = build_model(kind, num_beams, window_len, horizon, stats, raster_bins, cfg.seed)
    feats, targets = rssi_features(train.frames, model.stats), _targets(model, train)
    rows = train.starts[:, None] + np.arange(window_len)  # (n, T0) each window's frame rows
    rasters = _norm_rasters(train.rasters, model.stats) if kind == "rf+lidar" else None
    val = dataset.arrays("val") if dataset.splits.get("val") else None
    judged = {name: split for name, split in (("val", val), ("train", train)) if split is not None}

    def judged_loss(which: Model, split) -> float:  # scored in blocks, with the bits of one forward
        out = _score(which, split, split.rasters if kind == "rf+lidar" else None)
        return _loss(which, out, _targets(which, split), cfg.delta)[0]

    # The fit's starting point, built again from its seed; it scores a split
    # the first time an episode's loss is compared with its own.
    untrained = build_model(kind, num_beams, window_len, horizon, stats, raster_bins, cfg.seed)
    untrained_loss = functools.cache(lambda name: judged_loss(untrained, judged[name]))

    opt = adam_init(model.params, lr=cfg.lr)
    grad = np.empty_like(model.params)  # every step's gradient, laid out as model.params
    views = model.views(grad)
    rng = np.random.default_rng(cfg.seed)
    curves = LossCurves()
    # A divergence is refused naming lr and the episode, with no RuntimeWarning leaked.
    try:
        with np.errstate(over="raise", invalid="raise"):
            for episode in range(1, cfg.episodes + 1):
                for _ in range(cfg.iterations):
                    idx = rng.integers(0, n, size=cfg.batch_size)
                    loss, _ = loss_and_grads(
                        model, feats[rows[idx]], targets[idx],
                        None if rasters is None else rasters[idx], cfg.delta, views=views,
                    )
                    adam_step(opt, model.params, grad)
                    curves.train.append(loss)
                losses = {}
                for name, split in judged.items():  # train only if val's loss is above
                    losses[name] = judged_loss(model, split)
                    if losses[name] <= untrained_loss(name):
                        break
                else:
                    raise NonFiniteError(", ".join(
                        f"{name} loss {loss:.4g} is above the untrained model's "
                        f"{untrained_loss(name):.4g}" for name, loss in losses.items()))
                if val is not None:
                    curves.val.append(losses["val"])
    except (FloatingPointError, NonFiniteError) as exc:
        raise NonFiniteError(f"training diverged in episode {episode} of {cfg.episodes} "
                             f"({exc}); try an lr below {cfg.lr!r}") from None
    return model, curves


def train_localization(dataset: DatasetFile, cfg: TrainConfig = TrainConfig()):
    """Fit the location predictor; returns (model, loss curves)."""
    return _train(dataset, cfg, "localization")


def train_blockage(dataset: DatasetFile, cfg: TrainConfig = TrainConfig(), variant: str = "rf"):
    """Fit a blockage predictor ("rf" or "rf+lidar"); returns (model, curves)."""
    if variant not in ("rf", "rf+lidar"):
        raise ValueError(f"unknown variant {variant!r}")
    return _train(dataset, cfg, variant)


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

def _checked_windows(model: Model, windows, kinds: tuple[str, ...]):
    """A WindowSet as it is, or (B, T0, M) raw powers as a float64 array; checked."""
    if model.kind not in kinds:
        raise ConfigMismatchError(f"a {model.kind} model cannot make this prediction")
    if isinstance(windows, WindowSet):
        shape = (windows.window_len,) + windows.frames.shape[1:]
    else:
        windows = np.asarray(windows, dtype=np.float64)
        shape = windows.shape[1:]
    if shape != (model.window_len, model.num_beams):
        raise ConfigMismatchError(
            f"window shape {shape} does not match model "
            f"(T0={model.window_len}, M={model.num_beams})"
        )
    return windows


def _checked_rasters(model: Model, rasters, count: int) -> np.ndarray:
    """An rf+lidar model's rasters as a float64 array, one row per window."""
    if rasters is None:
        raise ValueError("the rf+lidar model needs lidar rasters")
    rasters = np.asarray(rasters, dtype=np.float64)
    if rasters.shape != (count, model.raster_bins):
        raise ConfigMismatchError(f"raster shape {rasters.shape} does not match {count} "
                                  f"windows and model bins {model.raster_bins}")
    return rasters


def _score(model: Model, windows, rasters: np.ndarray | None):
    """The ``forward`` output of (B, T0, M) raw windows or a WindowSet's (and
    raw rasters), one block at a time (see the module docstring); a set's
    block is gathered, then standardized in place. A lone trailing window
    joins the block before it because numpy multiplies a single row by
    another kernel, whose last bits differ from a batch's."""
    if SCORE_BLOCK < 1 or SCORE_BLOCK % 4:
        raise ValueError(f"SCORE_BLOCK must be a positive multiple of 4, not {SCORE_BLOCK}")
    n, gathered = len(windows), isinstance(windows, WindowSet)
    out = np.empty((n, model.horizon * (2 if model.kind == "localization" else 1)))
    starts = list(range(0, n, SCORE_BLOCK))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    for lo, hi in zip(starts, starts[1:] + [n]):
        block = windows.windows(slice(lo, hi)) if gathered else windows[lo:hi]
        feats = rssi_features(block, model.stats, out=block if gathered else None)
        norm = None if rasters is None else _norm_rasters(rasters[lo:hi], model.stats)
        out[lo:hi] = forward(model, feats, norm)
    return out


def predict_locations_batch(model: Model, windows) -> np.ndarray:
    """(B, T0, M) raw powers or a WindowSet's B windows -> (B, N, 2) road-frame meters."""
    windows = _checked_windows(model, windows, ("localization",))
    out = _score(model, windows, None)
    return out.reshape(-1, model.horizon, 2) * model.stats.road_size


def predict_blockage_probs(model: Model, windows, rasters: np.ndarray | None = None) -> np.ndarray:
    """(B, T0, M) raw powers, or a WindowSet's B windows (+ (B, raster_bins)
    raw rasters for the lidar model) -> (B, N)."""
    windows = _checked_windows(model, windows, ("rf", "rf+lidar"))
    rasters = _checked_rasters(model, rasters, len(windows)) if model.kind == "rf+lidar" else None
    return _score(model, windows, rasters)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_model(model: Model, path) -> None:
    """Write ``model`` to ``path`` as ``model.json`` (see the module docstring)."""
    if not isinstance(model, Model):
        raise TypeError(f"cannot checkpoint object of type {type(model).__name__}")
    descriptor = {
        "kind": CHECKPOINT_KINDS[model.kind],
        "window_len": model.window_len,
        "horizon": model.horizon,
        "num_beams": model.num_beams,
        "norm": model.stats.to_json(),
    }
    if model.raster_bins is not None:
        descriptor["raster_bins"] = model.raster_bins
    payload = {"format_version": CHECKPOINT_FORMAT_VERSION, "descriptor": descriptor,
               "params": {name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
                          for name, arr in model.named_params().items()}}
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_model(path) -> Model:
    """The model in ``path``; each array is read once, against the shape its
    descriptor's architecture gives. Bad content is a SchemaError naming it."""
    payload = read_json_object(path)
    version = payload.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise VersionError(f"{path}: unsupported checkpoint format version: {version!r}")
    for key in ("descriptor", "params"):
        if not isinstance(payload.get(key), dict):
            raise SchemaError(f"{path}: {key} must be a JSON object")
    descriptor, params = payload["descriptor"], payload["params"]
    kind = {v: k for k, v in CHECKPOINT_KINDS.items()}.get(descriptor.get("kind"))
    if kind is None:
        raise SchemaError(f"{path}: unknown model kind {descriptor.get('kind')!r}")
    dims = [json_field(descriptor, key, path, integer=True, positive=True)
            for key in ("num_beams", "window_len", "horizon")]
    raster_bins = (json_field(descriptor, "raster_bins", path, integer=True, positive=True)
                   if kind == "rf+lidar" else None)
    try:
        stats = NormStats.from_json(descriptor.get("norm"), dims[0], path)
        model = build_model(kind, *dims, stats, raster_bins)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: bad descriptor: {exc!r}") from None
    live = model.named_params()
    missing, extra = sorted(set(live) - set(params)), sorted(set(params) - set(live))
    if missing or extra:
        raise SchemaError(f"{path}: checkpoint parameters do not match architecture: "
                          f"missing {', '.join(missing) or 'none'}; "
                          f"extra {', '.join(extra) or 'none':.200}")
    for name, arr in live.items():
        entry = params[name] if isinstance(params[name], dict) else {}
        shape = entry.get("shape")
        if shape != list(arr.shape) or any(type(n) is not int for n in shape):
            raise SchemaError(f"{path}: params.{name}.shape must be {list(arr.shape)}, "
                              f"got {shape!r:.200}")
        arr.flat = json_field(entry, "data", path, (arr.size,), name=f"params.{name}.data")
    return model
