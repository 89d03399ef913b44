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

from dataclasses import dataclass, replace

import numpy as np

SINGLE_CHANNELS = (6, 64, 64, 128, 128, 256, 256)
MULTI_CHANNELS = (3, 32, 32, 64, 64, 128, 128)
DENSE_WIDTHS = (512, 128)


class TrainingDiverged(RuntimeError):
    """Raised when a loss or gradient turns non-finite during training."""


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
            raise ValueError("window must be > 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not self.conv_channels:
            default = SINGLE_CHANNELS if self.arch == "single" else MULTI_CHANNELS
            object.__setattr__(self, "conv_channels", default)
        expected_in = 6 if self.arch == "single" else 3
        if self.conv_channels[0] != expected_in:
            raise ValueError(f"{self.arch} networks take {expected_in} input channels")
        object.__setattr__(self, "conv_channels", tuple(self.conv_channels))
        object.__setattr__(self, "dense_widths", tuple(self.dense_widths))

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
# Elementary layers


def _leaky_slope(z, alpha):
    # convention: derivative at exactly 0 is alpha
    return np.where(z > 0, 1.0, alpha)


def leaky_relu(x, alpha: float = 0.01):
    """x for x >= 0, alpha*x otherwise, elementwise."""
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    x = np.asarray(x, dtype=float)
    return x * _leaky_slope(x, alpha)


def _dropout(a, rate: float, training: bool, rng):
    """Inverted dropout: zero with probability ``rate`` and rescale survivors
    while training; identity at inference. Returns the output and the mask
    (None when inactive) that the backward pass applies to the gradient."""
    if not training or rate == 0.0:
        return a, None
    if rng is None:
        raise ValueError("training-mode forward needs an RNG for dropout")
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)
    return a * mask, mask


def _im2col(x, kernel, padding):
    """(B, C, L) -> column matrix (C*kernel, B*Lout)."""
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    B, C, Lp = x.shape
    lout = Lp - kernel + 1
    win = np.lib.stride_tricks.sliding_window_view(x, kernel, axis=2)
    cols = win.transpose(1, 3, 0, 2).reshape(C * kernel, B * lout)
    return cols, lout


def _conv_forward(x, w, b, padding):
    """Cross-correlate (B, in_channels, L) inputs with (out, in, kernel)
    weights; returns the (B, out, Lout) output and the im2col columns."""
    B = x.shape[0]
    cout, cin, kernel = w.shape
    cols, lout = _im2col(x, kernel, padding)
    y = (w.reshape(cout, cin * kernel) @ cols).reshape(cout, B, lout)
    return y.transpose(1, 0, 2) + b[None, :, None], cols


def _conv_backward(dy, cols, w, x_shape, padding):
    B, C, L = x_shape
    cout, cin, kernel = w.shape
    lout = dy.shape[2]
    dy2 = dy.transpose(1, 0, 2).reshape(cout, B * lout)
    dw = (dy2 @ cols.T).reshape(cout, cin, kernel)
    db = dy2.sum(axis=1)
    dcols = w.reshape(cout, cin * kernel).T @ dy2          # (C*K, B*Lout)
    dcols = dcols.reshape(cin, kernel, B, lout).transpose(2, 0, 1, 3)
    dxp = np.zeros((B, C, L + 2 * padding))
    for k in range(kernel):
        dxp[:, :, k:k + lout] += dcols[:, :, k, :]
    return (dxp[:, :, padding:padding + L] if padding else dxp), dw, db


# ---------------------------------------------------------------------------
# Full forward / backward


def _forward(params, cfg: NetConfig, x, training=False, rng=None):
    """Batched forward pass; returns predictions and the backward cache."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[1] != 6 or x.shape[2] != cfg.window:
        raise ValueError(f"expected input of shape (B, 6, {cfg.window})")
    B = x.shape[0]
    pad = cfg.kernel // 2
    branch_inputs = {"conv": x} if cfg.arch == "single" else {"acc": x[:, :3], "gyro": x[:, 3:]}

    conv_cache = []
    flats = []
    for prefix in cfg.branches:
        h = branch_inputs[prefix]
        for i in range(len(cfg.conv_channels) - 1):
            name = f"{prefix}{i + 1}"
            z, cols = _conv_forward(h, params[name + ".w"], params[name + ".b"], pad)
            conv_cache.append((name, h.shape, cols, z))
            h = leaky_relu(z, cfg.alpha)
        flats.append(h.reshape(B, -1))
    flat = flats[0] if len(flats) == 1 else np.concatenate(flats, axis=1)

    dense_cache = []
    h = flat
    for i in range(len(cfg.dense_widths)):
        name = f"fc{i + 1}"
        z = h @ params[name + ".w"].T + params[name + ".b"]
        a, mask = _dropout(leaky_relu(z, cfg.alpha), cfg.dropout, training, rng)
        dense_cache.append((name, h, z, mask))
        h = a
    out = h @ params["head.w"].T + params["head.b"]
    cache = (conv_cache, dense_cache, h, flat, [f.shape[1] for f in flats])
    return out, cache


def _backward(params, cfg: NetConfig, cache, dout):
    conv_cache, dense_cache, head_in, flat, flat_dims = cache
    grads = {}
    grads["head.w"] = dout.T @ head_in
    grads["head.b"] = dout.sum(axis=0)
    dh = dout @ params["head.w"]
    for name, h_in, z, mask in reversed(dense_cache):
        if mask is not None:
            dh = dh * mask
        dz = dh * _leaky_slope(z, cfg.alpha)
        grads[name + ".w"] = dz.T @ h_in
        grads[name + ".b"] = dz.sum(axis=0)
        dh = dz @ params[name + ".w"]

    nconv = len(cfg.conv_channels) - 1
    offset = 0
    pad = cfg.kernel // 2
    for bi, prefix in enumerate(cfg.branches):
        dflat = dh[:, offset:offset + flat_dims[bi]]
        offset += flat_dims[bi]
        da = dflat.reshape(-1, cfg.conv_channels[-1], cfg.window)
        for name, x_shape, cols, z in reversed(conv_cache[bi * nconv:(bi + 1) * nconv]):
            dz = da * _leaky_slope(z, cfg.alpha)
            da, dw, db = _conv_backward(dz, cols, params[name + ".w"], x_shape, pad)
            grads[name + ".w"] = dw
            grads[name + ".b"] = db
    return grads


def predict(params, cfg: NetConfig, inputs) -> np.ndarray:
    """Batched inference on (M, 6, n) windows."""
    out, _ = _forward(params, cfg, inputs)
    return out


def mse_loss(predictions, targets) -> float:
    """Mean over samples of the squared Euclidean error."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape or p.ndim != 2 or p.shape[0] == 0:
        raise ValueError("predictions and targets must be equal-shape, non-empty")
    return float(np.mean(np.sum((p - t) ** 2, axis=1)))


def loss_and_gradients(params, cfg: NetConfig, inputs, targets,
                       training=False, rng=None):
    """One forward/backward pass; returns (loss, gradients, predictions)."""
    targets = np.asarray(targets, dtype=float)
    out, cache = _forward(params, cfg, inputs, training=training, rng=rng)
    if targets.shape != out.shape:
        raise ValueError("target shape does not match network output")
    loss = mse_loss(out, targets)
    dout = 2.0 * (out - targets) / out.shape[0]
    grads = _backward(params, cfg, cache, dout)
    return loss, grads, out


# ---------------------------------------------------------------------------
# Adam optimizer


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    lr: float = 1e-3
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: dict, lr: float = 1e-3, beta1: float = 0.9,
                   beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        zeros = {k: np.zeros_like(p) for k, p in params.items()}
        return cls(m=zeros, v={k: z.copy() for k, z in zeros.items()},
                   t=0, beta1=beta1, beta2=beta2, lr=lr, eps=eps)


def adam_step(params: dict, grads: dict, state: AdamState) -> tuple[dict, AdamState]:
    """One Adam update; returns fresh parameter and state dicts."""
    for k, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient in block {k!r}")
    t = state.t + 1
    b1, b2 = state.beta1, state.beta2
    new_params, m, v = {}, {}, {}
    for k, p in params.items():
        g = grads[k]
        m[k] = b1 * state.m[k] + (1.0 - b1) * g
        v[k] = b2 * state.v[k] + (1.0 - b2) * g * g
        m_hat = m[k] / (1.0 - b1 ** t)
        v_hat = v[k] / (1.0 - b2 ** t)
        new_params[k] = p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return new_params, replace(state, m=m, v=v, t=t)


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


def train(params: dict, cfg: NetConfig, inputs, labels,
          tcfg: TrainConfig) -> tuple[dict, list]:
    """Mini-batch Adam training with seeded per-epoch shuffling.

    The last partial batch is kept. Returns the trained parameters and the
    per-epoch mean loss history.
    """
    inputs = np.asarray(inputs, dtype=float)
    labels = np.asarray(labels, dtype=float)
    m = inputs.shape[0]
    if m == 0:
        raise ValueError("training set is empty")
    rng = np.random.default_rng(tcfg.seed)
    state = AdamState.for_params(params, lr=tcfg.lr)
    history: list[float] = []
    for epoch in range(tcfg.epochs):
        perm = rng.permutation(m)
        total = 0.0
        for lo in range(0, m, tcfg.batch_size):
            idx = perm[lo:lo + tcfg.batch_size]
            loss, grads, _ = loss_and_gradients(
                params, cfg, inputs[idx], labels[idx], training=True, rng=rng)
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

MODEL_MAGIC = "QPNET1"


def save_model(path, params: dict, cfg: NetConfig, norm=None) -> None:
    """Text model file: magic line, hyperparameter line, one block per line
    (name, shape, values at 17 significant digits). Round-trip exact."""
    lines = [MODEL_MAGIC]
    lines.append(
        f"arch={cfg.arch} n={cfg.window} alpha={cfg.alpha!r} dropout={cfg.dropout!r}"
        f" out={cfg.out_dim}"
        f" conv={','.join(str(c) for c in cfg.conv_channels)}"
        f" dense={','.join(str(d) for d in cfg.dense_widths)}"
    )
    blocks = dict(params)
    if norm is not None:
        blocks["norm.mean"] = norm.mean
        blocks["norm.std"] = norm.std
    for name, arr in blocks.items():
        shape = "x".join(str(s) for s in arr.shape)
        vals = " ".join(f"{v:.17g}" for v in np.asarray(arr, dtype=float).ravel())
        lines.append(f"{name} {shape} {vals}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path):
    """Read a model file; returns (params, config, norm_stats_or_None).

    Malformed content raises ValueError naming the file: a missing header
    field, an unparsable line, or a block set or shape that differs from
    what the header's configuration defines."""
    from .windows import NormStats

    with open(path) as fh:
        magic = fh.readline().strip()
        if magic != MODEL_MAGIC:
            raise ValueError(f"{path}: not a {MODEL_MAGIC} model file")
        try:
            header = dict(tok.split("=", 1) for tok in fh.readline().split())
            cfg = NetConfig(
                arch=header["arch"],
                window=int(header["n"]),
                alpha=float(header["alpha"]),
                dropout=float(header["dropout"]),
                out_dim=int(header.get("out", 3)),
                conv_channels=tuple(int(c) for c in header["conv"].split(",")),
                dense_widths=tuple(int(d) for d in header["dense"].split(",")),
            )
            blocks = {}
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                name, shape_s, vals = line.split(" ", 2)
                shape = tuple(int(s) for s in shape_s.split("x"))
                blocks[name] = np.array(vals.split(), dtype=float).reshape(shape)
        except KeyError as exc:
            raise ValueError(f"{path}: header lacks the field {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    expected = param_shapes(cfg)
    if any(name.startswith("norm.") for name in blocks):
        expected.update({"norm.mean": (6,), "norm.std": (6,)})
    for name, shape in expected.items():
        if name not in blocks:
            raise ValueError(f"{path}: missing block {name!r}")
        if blocks[name].shape != shape:
            raise ValueError(
                f"{path}: block {name!r} has shape {blocks[name].shape}, expected {shape}")
    unexpected = sorted(blocks.keys() - expected.keys())
    if unexpected:
        raise ValueError(f"{path}: unexpected blocks {unexpected}")
    norm = None
    if "norm.mean" in blocks:
        norm = NormStats(mean=blocks.pop("norm.mean"), std=blocks.pop("norm.std"))
    return blocks, cfg, norm
