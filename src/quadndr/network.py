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


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient turns non-finite during training, or a
    gradient grows too large for Adam's second moment."""


@dataclass(frozen=True)
class NetConfig:
    arch: str                  # "single" | "multi"
    window: int
    alpha: float = 0.01
    dropout: float = 0.2
    out_dim: int = 3
    conv_channels: tuple = ()  # per-branch channel progression, 7 entries default
    dense_widths: tuple = DENSE_WIDTHS
    kernel: int = 3

    def __post_init__(self):
        if self.arch not in ("single", "multi"):
            raise ValueError(f"unknown architecture {self.arch!r}")
        if self.window <= 0:
            raise ValueError(f"window must be > 0, got {self.window!r}")
        # a Leaky ReLU's negative slope; the layers form its derivative as
        # max(z > 0, alpha), which is 1 or alpha only for alpha <= 1
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout!r}")
        # an even kernel would make each padded conv one sample longer
        if type(self.kernel) is not int or self.kernel < 1 or self.kernel % 2 == 0:
            raise ValueError(f"kernel must be an odd int >= 1, got {self.kernel!r}")
        if not self.conv_channels:
            default = SINGLE_CHANNELS if self.arch == "single" else MULTI_CHANNELS
            object.__setattr__(self, "conv_channels", default)
        object.__setattr__(self, "conv_channels", tuple(self.conv_channels))
        object.__setattr__(self, "dense_widths", tuple(self.dense_widths))
        for field in ("conv_channels", "dense_widths"):
            widths = getattr(self, field)
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
            shapes[f"{prefix}{i + 1}.w"] = (chans[i + 1], chans[i], cfg.kernel)
            shapes[f"{prefix}{i + 1}.b"] = (chans[i + 1],)
    dims = (cfg.feature_dim,) + cfg.dense_widths + (cfg.out_dim,)
    names = [f"fc{i + 1}" for i in range(len(cfg.dense_widths))] + ["head"]
    for name, din, dout in zip(names, dims[:-1], dims[1:]):
        shapes[f"{name}.w"] = (dout, din)
        shapes[f"{name}.b"] = (dout,)
    return shapes


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

    A name is shared by arrays that are never live at the same time:
    ``conv.in`` holds each conv's padded input in the forward pass and each
    padded input gradient in the backward pass, and ``conv.z`` and
    ``fcN.z`` hold a layer's pre-activation and then its gradient, which
    the backward pass forms only after the forward pass is done with the
    pre-activation. A layer's input gradient overwrites the input it caches
    once its weight gradient has read it: a conv's goes into its im2col
    columns, and a dense layer's into its input, the previous layer's
    activation. ``arena`` holds every conv's im2col columns, one after
    another, then the gradient of ``flat``, the flattened conv features.
    ``flat`` itself stays intact, because the dense layer that reads it
    forms its weight gradient last, after the conv backward pass: by then
    every im2col buffer and the gradient of ``flat`` are dead, and that
    weight gradient, the largest block of the default network, goes into
    the start of ``arena``."""

    def __init__(self):
        self._bufs = {}

    def get(self, name, shape, dtype=np.float64):
        n = math.prod(shape)
        buf = self._bufs.get(name)
        if buf is None or buf.size < n:
            buf = self._bufs[name] = np.empty(n, dtype)
        return buf[:n].reshape(shape)


def _leaky(positive, alpha, x, out):
    """``out = max(positive, alpha) * x``: a Leaky ReLU, or the gradient through
    one, whose ``z > 0`` mask is ``positive``. The slope is alpha at exactly 0
    and at NaN too; a product commutes, so the bits are those of ``x * slope``."""
    np.maximum(positive, alpha, out=out)
    out *= x
    return out


def _dropout(a, rate: float, rng, ws, name):
    """Inverted dropout: with an ``rng`` (training), zero with probability
    ``rate`` and rescale survivors; without one, identity. Returns the output
    and the mask (None when inactive) that the backward pass applies to the
    gradient, both in buffers of ``ws`` named after ``name``."""
    if rng is None or rate == 0.0:
        return a, None
    mask = rng.random(a.shape, out=ws.get(name + ".mask", a.shape))
    np.greater_equal(mask, rate, out=mask)
    mask /= 1.0 - rate
    return np.multiply(a, mask, out=ws.get(name + ".out", a.shape)), mask


def _padded(ws, channels, batch, length, pad):
    """The shared conv input buffer, (channels, batch, length + 2*pad), with
    its pad columns zeroed; the caller fills the interior."""
    h = ws.get("conv.in", (channels, batch, length + 2 * pad))
    h[:, :, :pad] = 0.0
    h[:, :, pad + length:] = 0.0
    return h


def _im2col_floats(cfg: NetConfig, batch: int) -> int:
    """Floats in all of one pass's im2col columns, (in*kernel, batch*window)
    per conv."""
    return len(cfg.branches) * sum(cfg.conv_channels[:-1]) * cfg.kernel * batch * cfg.window


def _conv_forward(xp, w, b, ws, name, free):
    """Cross-correlate a zero-padded channel-major (in, B, Lp) input with
    (out, in, kernel) weights; returns the (out, B, Lp - kernel + 1)
    pre-activation and the (in*kernel, B*Lout) im2col columns, kept at the
    start of the flat buffer ``free``."""
    cin, B, lp = xp.shape
    cout, w_cin, kernel = w.shape
    if w_cin != cin or lp < kernel:
        raise ValueError(f"conv {name}: input of shape {xp.shape} does not fit"
                         f" weights of shape {w.shape}")
    lout = lp - kernel + 1
    cols = free[:cin * kernel * B * lout].reshape(cin, kernel, B, lout)
    win = np.lib.stride_tricks.sliding_window_view(xp, kernel, axis=2)
    np.copyto(cols, win.transpose(0, 3, 1, 2))
    cols = cols.reshape(cin * kernel, B * lout)
    z = np.matmul(w.reshape(cout, cin * kernel), cols, out=ws.get("conv.z", (cout, B * lout)))
    z = z.reshape(cout, B, lout)
    z += b[:, None, None]
    return z, cols


def _conv_param_grads(dz, cols, w, ws, name):
    """Weight and bias gradients of one conv from its (out, B, Lout)
    pre-activation gradient."""
    cout = w.shape[0]
    dz2 = dz.reshape(cout, -1)
    dw = np.matmul(dz2, cols.T, out=ws.get(f"grad {name}.w", (cout, cols.shape[0])))
    db = np.sum(dz2, axis=1, out=ws.get(f"grad {name}.b", (cout,)))
    return dw.reshape(w.shape), db


def _conv_input_grad(dz, w, cols, ws, pad):
    """The (in, B, Lout + kernel - 1 - 2*pad) input gradient of one conv, in
    buffer ``conv.in``; its columns overwrite ``cols``, the layer's im2col
    columns, which are dead once its weight gradient is formed."""
    cout, cin, kernel = w.shape
    _, B, lout = dz.shape
    dcols = np.matmul(w.reshape(cout, cin * kernel).T, dz.reshape(cout, B * lout), out=cols)
    dcols = dcols.reshape(cin, kernel, B, lout)
    dxp = ws.get("conv.in", (cin, B, lout + kernel - 1))
    dxp.fill(0.0)
    for k in range(kernel):
        dxp[:, :, k:k + lout] += dcols[:, k]
    return dxp[:, :, pad:dxp.shape[2] - pad]


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
    when ``rng`` is given); returns predictions and the backward cache. Conv
    activations are channel-major, (C, B, L)."""
    B, L = x.shape[0], cfg.window
    pad = cfg.kernel // 2
    chans = cfg.conv_channels
    nconv = len(chans) - 1
    # per branch, the last conv output; flattened it is the dense input
    feats = ws.get("flat", (B, len(cfg.branches), chans[-1], L))
    # the im2col columns of each conv in turn fill buffer "arena" from the start
    free = ws.get("arena", (_im2col_floats(cfg, B),))

    conv_cache = []
    for bi, prefix in enumerate(cfg.branches):
        branch_x = x[:, bi * chans[0]:(bi + 1) * chans[0]]
        if nconv == 0:
            np.copyto(feats[:, bi], branch_x)
            continue
        h = _padded(ws, chans[0], B, L, pad)
        np.copyto(h[:, :, pad:pad + L], branch_x.transpose(1, 0, 2))
        for i in range(nconv):
            name = f"{prefix}{i + 1}"
            z, cols = _conv_forward(h, params[name + ".w"], params[name + ".b"], ws, name, free)
            free = free[cols.size:]
            positive = np.greater(z, 0, out=ws.get(name + ".pos", z.shape, bool))
            conv_cache.append((name, cols, positive))
            if i == nconv - 1:
                act = feats[:, bi].transpose(1, 0, 2)
            else:
                h = _padded(ws, chans[i + 1], B, L, pad)
                act = h[:, :, pad:pad + L]
            _leaky(positive, cfg.alpha, z, act)

    dense_cache = []
    h = feats.reshape(B, cfg.feature_dim)
    for i, width in enumerate(cfg.dense_widths):
        name = f"fc{i + 1}"
        z = np.matmul(h, params[name + ".w"].T, out=ws.get(name + ".z", (B, width)))
        z += params[name + ".b"]
        positive = np.greater(z, 0, out=ws.get(name + ".pos", z.shape, bool))
        a = _leaky(positive, cfg.alpha, z, ws.get(name + ".act", z.shape))
        a, mask = _dropout(a, cfg.dropout, rng, ws, name)
        dense_cache.append((name, h, positive, mask))
        h = a
    out = np.matmul(h, params["head.w"].T, out=ws.get("head.out", (B, cfg.out_dim)))
    out += params["head.b"]
    return out, (conv_cache, dense_cache, h)


def _backward(params, cfg: NetConfig, cache, dout, ws):
    conv_cache, dense_cache, head_in = cache
    B = dout.shape[0]
    # the dense layers from the head back; the last of them reads the flat features
    dense = [("head", head_in, None, None), *reversed(dense_cache)]
    flat = dense[-1][1]
    ncols = _im2col_floats(cfg, B)
    grads = {}
    for name, h_in, positive, mask in dense:
        if positive is None:
            dz = dout
        else:
            if mask is not None:
                dh *= mask
            dz = _leaky(positive, cfg.alpha, dh, ws.get(name + ".z", dh.shape))
        w = params[name + ".w"]
        if h_in is flat:
            # formed after the conv backward pass; the key keeps its place
            grads[name + ".w"] = None
            dh_out = ws.get("arena", (ncols + flat.size,))[ncols:].reshape(flat.shape)
        else:
            grads[name + ".w"] = np.matmul(dz.T, h_in, out=ws.get(f"grad {name}.w", w.shape))
            dh_out = h_in
        grads[name + ".b"] = np.sum(dz, axis=0, out=ws.get(f"grad {name}.b", w.shape[:1]))
        dh = np.matmul(dz, w, out=dh_out)

    flat_name, flat_dz = name, dz  # the loop ends at the layer that reads flat

    chans = cfg.conv_channels
    nconv = len(chans) - 1
    pad = cfg.kernel // 2
    dfeats = dh.reshape(B, len(cfg.branches), chans[-1], cfg.window)
    for bi in range(len(cfg.branches)):
        da = dfeats[:, bi].transpose(1, 0, 2)
        for i in reversed(range(nconv)):
            name, cols, positive = conv_cache[bi * nconv + i]
            w = params[name + ".w"]
            dz = _leaky(positive, cfg.alpha, da, ws.get("conv.z", positive.shape))
            grads[name + ".w"], grads[name + ".b"] = _conv_param_grads(dz, cols, w, ws, name)
            if i > 0:  # the network's input needs no gradient
                da = _conv_input_grad(dz, w, cols, ws, pad)
    # every im2col buffer and the gradient of flat are dead now
    grads[flat_name + ".w"] = np.matmul(
        flat_dz.T, flat, out=ws.get("arena", params[flat_name + ".w"].shape))
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
    targets = np.asarray(targets, dtype=float)
    # sized once for the step: grown later, it would hold its old and new
    # memory together (see _Workspace)
    batch, flat_out = x.shape[0], (cfg.dense_widths + (cfg.out_dim,))[0]
    ws.get("arena", (max(_im2col_floats(cfg, batch) + batch * cfg.feature_dim,
                         flat_out * cfg.feature_dim),))
    out, cache = _forward(params, cfg, x, ws, rng=rng)
    if targets.shape != out.shape:
        raise ValueError("target shape does not match network output")
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
    of ``params`` in place; before any changes, a block that is not a
    writeable float64 ndarray raises ValueError naming it, and so do labels
    whose row count is not that of ``inputs``. Returns the same
    ``params`` dict and the per-epoch mean loss history.
    """
    for k, p in params.items():
        if not (isinstance(p, np.ndarray) and p.dtype == np.float64 and p.flags.writeable):
            raise ValueError(f"parameter block {k!r} is not a writeable float64 ndarray")
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

MODEL_MAGIC = "QPNET2"


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

    Anything but a QPNET2 archive whose entries match its header's NetConfig
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
            expected = {**param_shapes(cfg), "norm.mean": (6,), "norm.std": (6,)}
            for name, shape in expected.items():
                if name not in blocks:
                    raise ValueError(f"missing block {name!r}")
                arr = blocks[name]
                if arr.shape != shape or arr.dtype != np.float64:
                    raise ValueError(f"block {name!r} is {arr.dtype} of shape {arr.shape},"
                                     f" expected float64 of shape {shape}")
                if not np.all(np.isfinite(arr)):
                    raise ValueError(f"block {name!r} has non-finite entries")
            unexpected = sorted(blocks.keys() - expected.keys())
            if unexpected:
                raise ValueError(f"unexpected blocks {unexpected}")
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
