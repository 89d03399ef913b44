"""From-scratch 1D-CNN regression networks on raw IMU windows.

Two architectures share a dense tail (two hidden layers with Leaky ReLU and
inverted dropout, then a linear head):

- single: one stack of six length-preserving 1D convolutions over the
  combined 6-channel window
- multi: two independent six-convolution stacks over the 3-channel
  accelerometer and gyroscope windows, concatenated before the dense tail

Everything is plain numpy with handwritten backpropagation and Adam.
"""
from __future__ import annotations

import json
import math
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from .windows import NormStats

SINGLE_CHANNELS = (6, 64, 64, 128, 128, 256, 256)
MULTI_CHANNELS = (3, 32, 32, 64, 64, 128, 128)
DENSE_WIDTHS = (512, 128)
KERNEL = 3  # odd, so a conv zero-padded by KERNEL // 2 per side keeps the length
LEAKY_SLOPE = 0.01  # below 1, so max(z > 0, LEAKY_SLOPE) is the Leaky ReLU's slope


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient turns non-finite during training, or a
    gradient grows too large for Adam's second moment."""


@dataclass(frozen=True)
class NetConfig:
    arch: str                  # "single" | "multi"
    window: int
    dropout: float = 0.2
    out_dim: int = 3
    conv_channels: tuple = ()  # per-branch channel progression, 7 entries default
    dense_widths: tuple = DENSE_WIDTHS
    kernel = KERNEL  # unannotated: a class constant, not a field

    def __post_init__(self):
        if self.arch not in ("single", "multi"):
            raise ValueError(f"unknown architecture {self.arch!r}")
        # a float would pass every shape check and fail as a buffer size
        for field in ("window", "out_dim"):
            value = getattr(self, field)
            if type(value) is not int or value < 1:
                raise ValueError(f"{field} must be an int >= 1, got {value!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout!r}")
        if not self.conv_channels:
            default = SINGLE_CHANNELS if self.arch == "single" else MULTI_CHANNELS
            object.__setattr__(self, "conv_channels", default)
        # the paper's shape: conv layers, then dense layers, then the head
        for field, least in (("conv_channels", 2), ("dense_widths", 1)):
            widths = tuple(getattr(self, field))
            object.__setattr__(self, field, widths)
            if len(widths) < least:
                raise ValueError(f"{field} must have {least} or more entries, got {widths!r}")
            for width in widths:
                if type(width) is not int or width < 1:
                    raise ValueError(f"{field} entries must be ints >= 1,"
                                     f" got {width!r} in {widths!r}")
        expected_in = 6 if self.arch == "single" else 3
        if self.conv_channels[0] != expected_in:
            raise ValueError(f"conv_channels must start with {expected_in} for {self.arch}"
                             f" networks, got {self.conv_channels!r}")

    @property
    def branches(self) -> tuple:
        return ("conv",) if self.arch == "single" else ("acc", "gyro")

    @property
    def feature_dim(self) -> int:
        return len(self.branches) * self.conv_channels[-1] * self.window


def param_shapes(cfg: NetConfig) -> dict:
    """Name -> shape of every parameter block, in initialization order."""
    shapes = {}
    chans = cfg.conv_channels
    for prefix in cfg.branches:
        for i in range(len(chans) - 1):
            shapes[f"{prefix}{i + 1}.w"] = (chans[i + 1], chans[i], KERNEL)
            shapes[f"{prefix}{i + 1}.b"] = (chans[i + 1],)
    dims = (cfg.feature_dim,) + cfg.dense_widths + (cfg.out_dim,)
    names = [f"fc{i + 1}" for i in range(len(cfg.dense_widths))] + ["head"]
    for name, din, dout in zip(names, dims[:-1], dims[1:]):
        shapes[f"{name}.w"] = (dout, din)
        shapes[f"{name}.b"] = (dout,)
    return shapes


def _check_blocks(blocks: dict, shapes: dict) -> None:
    """Raise ValueError, naming the block, unless ``blocks`` holds exactly the
    blocks named in ``shapes``, each a float64 ndarray of its shape."""
    for name, shape in shapes.items():
        if name not in blocks:
            raise ValueError(f"missing block {name!r}")
        arr = blocks[name]
        if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64 and arr.shape == shape):
            raise ValueError(f"block {name!r} is {getattr(arr, 'dtype', type(arr).__name__)} of"
                             f" shape {np.shape(arr)}, expected float64 of shape {shape}")
    unexpected = sorted(blocks.keys() - shapes.keys())
    if unexpected:
        raise ValueError(f"unexpected blocks {unexpected}")


def init_params(cfg: NetConfig, seed: int) -> dict:
    """Uniform fan-in initialization, bound 1/sqrt(fan_in), seeded.

    A bias block shares the bound of the weight block before it."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in param_shapes(cfg).items():
        if name.endswith(".w"):
            bound = 1.0 / np.sqrt(np.prod(shape[1:]))
        params[name] = rng.uniform(-bound, bound, shape)
    return params


# ---------------------------------------------------------------------------
# Workspace and elementary layers


class _Workspace:
    """Named flat buffers, grown on demand. ``get`` hands out a contiguous
    prefix of one in the requested shape, so a training step writes into
    memory that earlier steps already touched. A view stays valid until the
    next ``get`` of its name; a buffer that is sliced further, ``arena``, is
    sized for the whole pass before the views are taken, because a grown
    buffer leaves the views of its old memory holding that memory alive.

    Buffers are shared by one rule: in the backward pass each buffer holds
    the gradient of what it held in the forward pass, once nothing reads
    that any more. ``fcN.z`` holds a dense layer's pre-activation, then its
    gradient; ``fcN.act`` its activation, scaled in place by dropout, the
    next layer's input in training and inference alike, then that input's
    gradient. ``arena`` holds the conv layers, laid out by ``_arena_floats``
    and ``_arena_size``. The backward pass rebuilds a conv's columns from
    its input for its weight gradient, except the columns of the last conv
    the forward pass ran, still in place; then the input gradient's columns
    overwrite the columns, and the input gradient the input.

    The one exception is ``flat``, the flattened conv features. ``fc1``,
    which reads it, forms its weight gradient last, after the conv
    backward pass, so ``flat`` stays intact and its gradient gets a region
    of its own in ``arena``."""

    def __init__(self):
        self._bufs = {}

    def get(self, name, shape, dtype=np.float64):
        n = math.prod(shape)
        buf = self._bufs.get(name)
        if buf is None or buf.size < n:
            buf = self._bufs[name] = np.empty(n, dtype)
        return buf[:n].reshape(shape)


def _leaky(positive, x, out):
    """``out = max(positive, LEAKY_SLOPE) * x``: a Leaky ReLU, or the gradient
    through one, whose ``z > 0`` mask is ``positive``. The slope is LEAKY_SLOPE
    at 0 and NaN too; a product commutes, so the bits are those of ``x * slope``."""
    np.maximum(positive, LEAKY_SLOPE, out=out)
    out *= x
    return out


def _dropout(a, rate: float, rng, ws, name):
    """Inverted dropout in place: with an ``rng`` (training), zero ``a`` with
    probability ``rate`` and rescale survivors. Returns the mask, in buffer
    ``name + ".mask"`` of ``ws``, for the gradient; None when inactive."""
    if rng is None or rate == 0.0:
        return None
    mask = rng.random(a.shape, out=ws.get(name + ".mask", a.shape))
    np.greater_equal(mask, rate, out=mask)
    mask /= 1.0 - rate
    a *= mask
    return mask


def _arena_floats(cfg: NetConfig, batch: int) -> tuple:
    """Floats in each region of buffer ``arena`` in one pass, in order: every
    conv's (in, B, window) input (its gradient in the backward pass); then,
    sized for the largest conv, one conv's (in*KERNEL, B*window) im2col
    columns and its pre-activation (their gradients in the backward pass);
    last, the gradient of ``flat``."""
    chans, length = cfg.conv_channels, batch * cfg.window
    return (len(cfg.branches) * sum(chans[:-1]) * length,
            max(chans[:-1]) * KERNEL * length,
            max(chans[1:]) * length,
            batch * cfg.feature_dim)


def _arena_size(cfg: NetConfig, batch: int) -> int:
    """Floats in ``arena`` in a training step: the regions of one pass or, if larger,
    the weight gradient of ``fc1``, formed there once they are dead."""
    return max(sum(_arena_floats(cfg, batch)), cfg.dense_widths[0] * cfg.feature_dim)


def _arena_regions(ws, cfg: NetConfig, batch: int, count: int) -> list:
    """The first ``count`` regions of ``arena``, as flat views."""
    sizes = _arena_floats(cfg, batch)[:count]
    return np.split(ws.get("arena", (sum(sizes),)), np.cumsum(sizes[:-1]))


def _taps(length: int):
    """Per tap k, the output samples that read an input sample through it and
    the input samples they read: output j reads input j + k - KERNEL // 2 of a
    length-``length`` input zero-padded by KERNEL // 2 per side."""
    for k in range(KERNEL):
        shift = k - KERNEL // 2
        lo, hi = max(-shift, 0), length - max(shift, 0)
        yield k, slice(lo, hi), slice(lo + shift, hi + shift)


def _im2col(x, free):
    """The (in*KERNEL, B*L) im2col columns of a channel-major (in, B, L)
    input, at the start of the flat buffer ``free``."""
    cin, B, length = x.shape
    cols = free[:cin * KERNEL * B * length].reshape(cin, KERNEL, B, length)
    for k, out, inp in _taps(length):
        np.copyto(cols[:, k, :, out], x[:, :, inp])
        cols[:, k, :, :out.start] = 0.0
        cols[:, k, :, out.stop:] = 0.0
    return cols.reshape(cin * KERNEL, B * length)


def _conv_forward(x, w, b, cols_free, z_free):
    """Cross-correlate a channel-major (in, B, L) input with (out, in, KERNEL)
    weights; returns the (out, B, L) pre-activation at the start of the flat
    buffer ``z_free``. Its im2col columns go to the start of ``cols_free``."""
    cout = w.shape[0]
    cols = _im2col(x, cols_free)
    z = z_free[:cout * cols.shape[1]].reshape(cout, cols.shape[1])
    np.matmul(w.reshape(cout, cols.shape[0]), cols, out=z)
    z = z.reshape(cout, *x.shape[1:])
    z += b[:, None, None]
    return z


def _conv_param_grads(dz, cols, w, ws, name):
    """Weight and bias gradients of one conv from its (out, B, L)
    pre-activation gradient."""
    cout = w.shape[0]
    dz2 = dz.reshape(cout, -1)
    dw = np.matmul(dz2, cols.T, out=ws.get(f"grad {name}.w", (cout, cols.shape[0])))
    db = np.sum(dz2, axis=1, out=ws.get(f"grad {name}.b", (cout,)))
    return dw.reshape(w.shape), db


def _conv_input_grad(dz, w, cols, x):
    """The (in, B, L) input gradient of one conv, in ``x``, the layer's input;
    its columns overwrite ``cols``, the layer's im2col columns. Both are dead
    once its weight gradient is formed."""
    cout, B, length = dz.shape
    dcols = np.matmul(w.reshape(cout, cols.shape[0]).T, dz.reshape(cout, B * length), out=cols)
    dcols = dcols.reshape(x.shape[0], KERNEL, B, length)
    x.fill(0.0)
    for k, out, inp in _taps(length):
        x[:, :, inp] += dcols[:, k, :, out]
    return x


# ---------------------------------------------------------------------------
# Full forward / backward


def _as_windows(cfg: NetConfig, inputs) -> np.ndarray:
    """``inputs`` as a float (B, 6, window) array, or ValueError."""
    x = np.asarray(inputs, dtype=float)
    if x.ndim != 3 or x.shape[1] != 6 or x.shape[2] != cfg.window:
        raise ValueError(f"expected input of shape (B, 6, {cfg.window})")
    return x


def _forward(params, cfg: NetConfig, x, ws, rng=None):
    """Batched forward pass of ``_as_windows`` input ``x`` into ``ws`` (dropout on
    when ``rng`` is given); returns predictions and the records of the conv and
    of the dense layers, in the order they ran. Conv activations are (C, B, L)."""
    _check_blocks(params, param_shapes(cfg))
    B, L = x.shape[0], cfg.window
    chans = cfg.conv_channels
    nconv = len(chans) - 1
    # per branch, the last conv output; flattened it is the dense input
    feats = ws.get("flat", (B, len(cfg.branches), chans[-1], L))
    inputs, cols_free, z_free = _arena_regions(ws, cfg, B, 3)
    # every conv's input, stacked on the channel axis, handed out in turn
    inputs = inputs.reshape(len(cfg.branches) * sum(chans[:-1]), B, L)
    inputs = iter(np.split(inputs, np.cumsum(chans[:-1] * len(cfg.branches))[:-1]))

    conv_cache = []
    for bi, prefix in enumerate(cfg.branches):
        h = next(inputs)
        np.copyto(h, x[:, bi * chans[0]:(bi + 1) * chans[0]].transpose(1, 0, 2))
        for i in range(nconv):
            name = f"{prefix}{i + 1}"
            z = _conv_forward(h, params[name + ".w"], params[name + ".b"], cols_free, z_free)
            positive = np.greater(z, 0, out=ws.get(name + ".pos", z.shape, bool))
            conv_cache.append((bi, i, name, h, positive))
            h = feats[:, bi].transpose(1, 0, 2) if i == nconv - 1 else next(inputs)
            _leaky(positive, z, h)

    dense_cache = []
    h = feats.reshape(B, cfg.feature_dim)
    for i, width in enumerate(cfg.dense_widths):
        name = f"fc{i + 1}"
        z = np.matmul(h, params[name + ".w"].T, out=ws.get(name + ".z", (B, width)))
        z += params[name + ".b"]
        positive = np.greater(z, 0, out=ws.get(name + ".pos", z.shape, bool))
        a = _leaky(positive, z, ws.get(name + ".act", z.shape))
        dense_cache.append((name, h, positive, _dropout(a, cfg.dropout, rng, ws, name)))
        h = a
    out = np.matmul(h, params["head.w"].T, out=ws.get("head.out", (B, cfg.out_dim)))
    out += params["head.b"]
    dense_cache.append(("head", h, None, None))
    return out, (conv_cache, dense_cache)


def _backward(params, cfg: NetConfig, cache, dout, ws):
    """Every block's gradient, in ``params`` order, from the forward records walked in reverse."""
    conv_cache, dense_cache = cache
    B = dout.shape[0]
    flat = dense_cache[0][1]  # fc1's input
    _, cols_free, z_free, dflat = _arena_regions(ws, cfg, B, 4)
    grads = dict.fromkeys(params)
    dz = dout
    for name, h_in, positive, mask in reversed(dense_cache):
        if positive is not None:  # every layer but the head
            if mask is not None:
                dh *= mask
            dz = _leaky(positive, dh, ws.get(name + ".z", dh.shape))
        w = params[name + ".w"]
        if name == "fc1":  # its weight gradient is formed after the conv backward pass
            dh_out = dflat.reshape(flat.shape)
        else:
            grads[name + ".w"] = np.matmul(dz.T, h_in, out=ws.get(f"grad {name}.w", w.shape))
            dh_out = h_in
        grads[name + ".b"] = np.sum(dz, axis=0, out=ws.get(f"grad {name}.b", w.shape[:1]))
        dh = np.matmul(dz, w, out=dh_out)
    fc1_dz = dz  # the loop ends at fc1

    nconv, length = len(cfg.conv_channels) - 1, B * cfg.window
    dfeats = dh.reshape(B, len(cfg.branches), cfg.conv_channels[-1], cfg.window)
    for n, (bi, i, name, h_in, positive) in enumerate(reversed(conv_cache)):
        if i == nconv - 1:  # the branch's last conv, which wrote its features
            da = dfeats[:, bi].transpose(1, 0, 2)
        w = params[name + ".w"]
        dz = _leaky(positive, da, z_free[:positive.size].reshape(positive.shape))
        # the forward pass kept each conv's input; the last conv's columns are still in place
        cols = _im2col(h_in, cols_free) if n else cols_free[:w[0].size * length].reshape(-1, length)
        grads[name + ".w"], grads[name + ".b"] = _conv_param_grads(dz, cols, w, ws, name)
        if i > 0:  # the network's input needs no gradient
            da = _conv_input_grad(dz, w, cols, h_in)
    # all of arena is dead now
    grads["fc1.w"] = np.matmul(fc1_dz.T, flat, out=ws.get("arena", params["fc1.w"].shape))
    return grads


def predict(params, cfg: NetConfig, inputs) -> np.ndarray:
    """Batched inference on (M, 6, n) windows."""
    out, _ = _forward(params, cfg, _as_windows(cfg, inputs), _Workspace())
    return out


def mse_loss(predictions, targets) -> float:
    """Mean over samples of the squared Euclidean error."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape or p.ndim != 2 or p.shape[0] == 0:
        raise ValueError("predictions and targets must be equal-shape, non-empty")
    return float(np.mean(np.sum((p - t) ** 2, axis=1)))


def loss_and_gradients(params, cfg: NetConfig, inputs, targets,
                       rng=None, *, workspace=None):
    """One forward/backward pass; returns (loss, gradients, predictions).

    Dropout is active exactly when ``rng`` is given. Without ``workspace``
    every array is freshly allocated. With one, each is written into that
    workspace's buffers, so the returned gradients and predictions are views,
    valid until the workspace's next use."""
    ws = _Workspace() if workspace is None else workspace
    x = _as_windows(cfg, inputs)
    ws.get("arena", (_arena_size(cfg, x.shape[0]),))  # before any view of it (see _Workspace)
    out, cache = _forward(params, cfg, x, ws, rng=rng)
    loss = mse_loss(out, targets)
    dout = 2.0 * (out - targets) / out.shape[0]
    grads = _backward(params, cfg, cache, dout, ws)
    return loss, grads, out


# ---------------------------------------------------------------------------
# Adam optimizer


# Kingma & Ba's published defaults
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0
    lr: float = 1e-3

    @classmethod
    def for_params(cls, params: dict, lr: float = 1e-3) -> "AdamState":
        zeros = {k: np.zeros_like(p) for k, p in params.items()}
        return cls(m=zeros, v={k: z.copy() for k, z in zeros.items()}, t=0, lr=lr)


# elements per chunk of one Adam pass: six chunk-sized arrays fit in L2 cache
_ADAM_CHUNK = 16384
# the largest gradient entry Adam takes: v_hat is at most the largest squared
# entry, so v and v_hat stay finite, with a factor 4 to spare
_ADAM_GRAD_MAX = 2.0 ** 511


def adam_step(params: dict, grads: dict, state: AdamState) -> tuple[dict, AdamState]:
    """One Adam update in place: overwrites ``params[k]``, ``state.m[k]`` and
    ``state.v[k]``, advances ``state.t`` and returns the same two objects.

    Before any array changes, every gradient block is checked finite and
    within _ADAM_GRAD_MAX in magnitude, so TrainingDiverged leaves params and
    state as they were. The operation order is the textbook one,
    ``b1*m + (1-b1)*g``, ``b2*v + ((1-b2)*g)*g`` and
    ``p - (lr*m_hat)/(sqrt(v_hat)+eps)``, so results are bitwise those of the
    out-of-place form. Each block is walked in chunks of _ADAM_CHUNK elements,
    so the scratch is two chunk-sized arrays whatever the block size."""
    for k, g in grads.items():
        # a sum of squares within the bound's square bounds every entry; only a
        # block past it (or whose sum overflows) pays for the elementwise check
        with np.errstate(over="ignore", invalid="ignore"):
            if not (np.vdot(g, g) <= _ADAM_GRAD_MAX ** 2
                    or np.all(np.abs(g) <= _ADAM_GRAD_MAX)):
                raise TrainingDiverged(f"gradient in block {k!r} is non-finite or"
                                       f" above {_ADAM_GRAD_MAX:.3g} in magnitude")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1, c2 = 1.0 - b1 ** state.t, 1.0 - b2 ** state.t
    scratch = np.empty((2, _ADAM_CHUNK))
    for k, p in params.items():
        # nditer hands out views of contiguous blocks and buffers any other layout
        with np.nditer([p, grads[k], state.m[k], state.v[k]],
                       flags=["external_loop", "buffered", "zerosize_ok"],
                       op_flags=[["readwrite"], ["readonly"], ["readwrite"], ["readwrite"]],
                       buffersize=_ADAM_CHUNK) as chunks:
            for p_c, g, m, v in chunks:
                step, denom = scratch[:, :g.size]
                np.multiply(1.0 - b1, g, out=step)
                m *= b1
                m += step
                np.multiply(1.0 - b2, g, out=step)
                step *= g
                v *= b2
                v += step
                np.divide(m, c1, out=step)
                step *= state.lr
                np.divide(v, c2, out=denom)
                np.sqrt(denom, out=denom)
                denom += ADAM_EPS
                step /= denom
                p_c -= step
    return params, state


# ---------------------------------------------------------------------------
# Training loop


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 64
    lr: float = 1e-3
    seed: int = 0
    #: optional early stop: end training once the epoch mean loss drops
    #: below stop_ratio * (epoch-1 loss); epochs stays the hard cap
    stop_ratio: float | None = None

    def __post_init__(self):
        for field in ("epochs", "batch_size"):
            value = getattr(self, field)
            if type(value) is not int or value < 1:
                raise ValueError(f"{field} must be an int >= 1, got {value!r}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr!r}")
        if self.stop_ratio is not None and not 0.0 < self.stop_ratio < 1.0:
            raise ValueError(f"stop_ratio must be None or in (0, 1), got {self.stop_ratio!r}")


def train(params: dict, cfg: NetConfig, inputs, labels,
          tcfg: TrainConfig) -> tuple[dict, list]:
    """Mini-batch Adam training with seeded per-epoch shuffling.

    The last partial batch is kept. Every ``adam_step`` updates the arrays
    of ``params`` in place; before any changes, a read-only block raises
    ValueError naming it, as do labels whose row count is not that of
    ``inputs`` and (in the first forward pass) a missing, extra or misshapen
    block. Returns the same ``params`` dict and the per-epoch mean loss history.
    """
    for k, p in params.items():
        if isinstance(p, np.ndarray) and not p.flags.writeable:
            raise ValueError(f"parameter block {k!r} is read-only")
    inputs = np.asarray(inputs, dtype=float)
    labels = np.asarray(labels, dtype=float)
    m = inputs.shape[0]
    if m == 0:
        raise ValueError("training set is empty")
    if labels.shape[:1] != (m,):
        raise ValueError(f"{len(labels) if labels.ndim else 0} label rows"
                         f" for {m} input windows")
    rng = np.random.default_rng(tcfg.seed)
    state = AdamState.for_params(params, lr=tcfg.lr)
    workspace = _Workspace()
    history: list[float] = []
    for epoch in range(tcfg.epochs):
        perm = rng.permutation(m)
        total = 0.0
        for lo in range(0, m, tcfg.batch_size):
            idx = perm[lo:lo + tcfg.batch_size]
            loss, grads, _ = loss_and_gradients(
                params, cfg, inputs[idx], labels[idx], rng=rng, workspace=workspace)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {lo // tcfg.batch_size}")
            params, state = adam_step(params, grads, state)
            total += loss * idx.size
        history.append(total / m)
        if tcfg.stop_ratio is not None and history[-1] < tcfg.stop_ratio * history[0]:
            break
    return params, history


# ---------------------------------------------------------------------------
# Model persistence

MODEL_MAGIC = "QPNET3"


def save_model(path, params: dict, cfg: NetConfig, norm: NormStats) -> None:
    """Uncompressed ``.npz``: a JSON ``header`` of the magic and every NetConfig
    field, one float64 entry per block, then ``norm.mean`` and ``norm.std``.
    Round-trip exact and byte-reproducible (numpy dates every entry 1980)."""
    blocks = {**params, "norm.mean": norm.mean, "norm.std": norm.std}
    # a file object keeps the name as given; np.savez would append ".npz"
    with open(path, "wb") as fh:
        np.savez(fh, header=np.array(json.dumps({"magic": MODEL_MAGIC, **asdict(cfg)})),
                 **{name: np.asarray(arr, dtype=float) for name, arr in blocks.items()})


def load_model(path):
    """Read a model file; returns (params, config, norm_stats).

    Anything but a QPNET3 archive whose entries match its header's NetConfig
    and the ``norm.*`` pair in name, shape and float64 dtype, with every entry
    finite and every ``norm.std`` entry > 0, raises ValueError naming the
    file."""
    with open(path, "rb") as fh:
        try:
            if fh.read(4) != b"PK\x03\x04":  # a zip archive's first bytes
                raise ValueError(f"not a {MODEL_MAGIC} model file")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as archive:
                blocks = {name: archive[name] for name in archive.files}
            header = json.loads(str(blocks.pop("header")))
            if header.pop("magic", None) != MODEL_MAGIC:
                raise ValueError(f"not a {MODEL_MAGIC} model file")
            cfg = NetConfig(**header)
            _check_blocks(blocks, {**param_shapes(cfg), "norm.mean": (6,), "norm.std": (6,)})
            for name, arr in blocks.items():
                if not np.all(np.isfinite(arr)):
                    raise ValueError(f"block {name!r} has non-finite entries")
            if not np.all(blocks["norm.std"] > 0):
                raise ValueError("block 'norm.std' has entries <= 0")
        # a damaged archive makes zipfile seek before the start (OSError) or see
        # an unknown version or an encryption flag (RuntimeError), or declares
        # an entry too large to allocate (MemoryError)
        except (ValueError, KeyError, TypeError, AttributeError, EOFError, OSError,
                RuntimeError, MemoryError, zipfile.BadZipFile) as exc:
            raise ValueError(f"{path}: {exc}") from None
    norm = NormStats(mean=blocks.pop("norm.mean"), std=blocks.pop("norm.std"))
    return blocks, cfg, norm
