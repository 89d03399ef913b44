"""From-scratch 1D-CNN regression networks on raw IMU windows.

Two architectures share a dense tail (two hidden layers with Leaky ReLU and
inverted dropout, then a linear head):

- single: one stack of six length-preserving 1D convolutions over the
  combined 6-channel window
- multi: two independent six-convolution stacks over the 3-channel
  accelerometer and gyroscope windows, concatenated before the dense tail

Everything is plain numpy with handwritten backpropagation and Adam. A
step splits into independent halves by shape alone: Adam's, multi's two
conv stacks, single's conv stack as two window halves ("lanes",
``_lanes``) when its conv GEMMs are large enough, and each other large
GEMM's column halves (``_matmul``). ``_both`` runs each pair at once, one
half on the one worker thread, which other threads' pairs queue for; or
all but Adam's in turn where numpy's BLAS is not an OpenBLAS this module
can pin to one thread (``_pinnable``), as each public call that runs BLAS
does while it runs (``_one_blas_thread``). So a step makes the same BLAS
calls either way, at any BLAS thread count the caller set.
"""
from __future__ import annotations

import ctypes
import json
import math
import os
import queue
import threading
import zipfile
from dataclasses import asdict, dataclass
from functools import cache, partial, wraps

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
    next ``get`` of its name.

    Buffers are shared by one rule: in the backward pass each buffer holds
    the gradient of what it held in the forward pass, once nothing reads
    that any more. ``fcN.z`` holds a dense layer's pre-activation, then its
    gradient; ``fcN.act`` its activation, scaled in place by dropout, the
    next layer's input in training and inference alike, then that input's
    gradient. ``arena`` holds the conv layers, laid out by ``_arena``, the
    one place that sizes it, so no pass regrows it under its own views. The
    backward pass rebuilds a conv's columns from its input for its weight
    gradient, except those of each branch's last conv, still in place in
    the branch's own columns region; then the input gradient's columns
    overwrite the columns, and the input gradient the input.

    The one exception is ``flat``, the flattened conv features. ``fc1``,
    which reads it, forms its weight gradient last, after the conv
    backward pass, so ``flat`` stays intact and its gradient gets a region
    of its own in ``arena``.

    Every buffer is taken on the caller's thread before a pass hands two
    branches, lanes or GEMM column halves to ``_both``, whose tasks, on
    either thread, only write into views. A lane writes only its own windows'
    columns of its branch's buffers: every conv input, mask and
    (im2col columns, pre-activation) row is B*window long, so the lanes'
    columns never overlap, whatever a layer's channel count."""

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


def _arena(ws, cfg: NetConfig, batch: int) -> tuple:
    """Views into buffer ``arena``, the conv layers' memory, which is always
    taken at a training step's size, so no pass regrows it under its views:
    every conv's (in, B, window) input, in the order the forward pass runs
    them; the (B, feature_dim) gradient of ``flat``; then, per branch and
    sized for the largest conv, a pair of regions of B*window columns for
    one conv's (in*KERNEL, B*window) im2col columns, in its first rows, and
    its (out, B*window) pre-activation; last,
    ``fc1.w``'s gradient over the start of the buffer, for when the rest is
    dead. The backward pass writes each region's gradient over what the
    forward pass left there. Returns each branch's conv inputs and its pair,
    the gradient of ``flat`` and ``fc1.w``'s gradient."""
    chans, length = cfg.conv_channels, batch * cfg.window
    pair = (max(chans[:-1]) * KERNEL, max(chans[1:]))  # rows of the columns and of z
    sizes = ([cin * length for cin in chans[:-1]] * len(cfg.branches)
             + [batch * cfg.feature_dim] + [rows * length for rows in pair] * len(cfg.branches))
    fc1_w = (cfg.dense_widths[0], cfg.feature_dim)
    buf = ws.get("arena", (max(sum(sizes), math.prod(fc1_w)),))
    views = iter(np.split(buf[:sum(sizes)], np.cumsum(sizes[:-1])))
    inputs = [[next(views).reshape(cin, batch, cfg.window) for cin in chans[:-1]]
              for _ in cfg.branches]
    dflat = next(views).reshape(batch, cfg.feature_dim)
    pairs = [tuple(next(views).reshape(rows, length) for rows in pair) for _ in cfg.branches]
    return inputs, pairs, dflat, buf[:math.prod(fc1_w)].reshape(fc1_w)


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
    input, in the first rows of the (rows, B*L) array ``free``."""
    cin, B, length = x.shape
    cols = free[:cin * KERNEL]
    by_tap = cols.reshape(cin, KERNEL, B, length)
    for k, out, inp in _taps(length):
        np.copyto(by_tap[:, k, :, out], x[:, :, inp])
        by_tap[:, k, :, :out.start] = 0.0
        by_tap[:, k, :, out.stop:] = 0.0
    return cols


def _conv_forward(x, w, b, cols_free, z_free):
    """Cross-correlate a channel-major (in, B, L) input with (out, in, KERNEL)
    weights; returns the (out, B, L) pre-activation, in the first rows of
    the (rows, B*L) array ``z_free``. Its im2col columns go to the first
    rows of ``cols_free``, of the same width."""
    cout = w.shape[0]
    cols = _im2col(x, cols_free)
    z = _matmul(w.reshape(cout, cols.shape[0]), cols, z_free[:cout]).reshape(cout, *x.shape[1:])
    z += b[:, None, None]
    return z


def _conv_param_grads(dz, cols, dw, db):
    """Weight and bias gradients of one conv, into ``dw`` and ``db``, from its
    (out, B*L) pre-activation gradient."""
    _matmul(dz, cols.T, dw.reshape(dw.shape[0], -1))
    np.sum(dz, axis=1, out=db)


def _conv_input_grad(dz, w, cols, x):
    """The (in, B, L) input gradient of one conv, from its (out, B*L)
    pre-activation gradient, in ``x``, the layer's input; its columns
    overwrite ``cols``, the layer's im2col columns. Both are dead once its
    weight gradient is formed."""
    cout = w.shape[0]
    dcols = _matmul(w.reshape(cout, cols.shape[0]).T, dz, cols)
    dcols = dcols.reshape(x.shape[0], KERNEL, *x.shape[1:])
    x.fill(0.0)
    for k, out, inp in _taps(x.shape[2]):
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


_jobs = queue.SimpleQueue()  # the jobs that wait for the worker thread
_worker_lock = threading.Lock()  # held while a _both checks and starts the worker
_worker = None  # the one worker thread, started by the first _both that runs at once


class _Job:
    """One task for the worker thread, and its outcome once ``done`` is set."""

    def __init__(self, task):
        self.task, self.done, self.result, self.error = task, threading.Event(), None, None

    def run(self):
        try:
            self.result = self.task()
        except BaseException as exc:  # re-raised on the caller's thread
            self.error = exc
        self.done.set()


def _serve():
    """The worker thread: runs each queued job and reports its outcome."""
    while True:
        job = _jobs.get()
        job.run()
        del job  # its task holds the caller's buffers: keep none of them alive


_pair = threading.local()  # .inside: this thread runs one of a _both's two tasks


def _in_pair(task):
    """Run ``task`` with this thread's ``_pair.inside`` set, then give the
    mark back the value it had; returns the task's result."""
    inside, _pair.inside = getattr(_pair, "inside", False), True
    try:
        return task()
    finally:
        _pair.inside = inside


def _both(first, second, at_once=True):
    """Run two independent tasks, each with ``_pair.inside`` set on the
    thread that runs it: at once, ``first`` on the worker thread, after the
    pairs other threads queued before, and ``second`` on this one; or in
    turn on this thread when ``at_once`` is false or this thread runs a
    pair's task already, so the worker never waits on itself. Returns both
    results once both have ended; if either raised, raises the first task's
    exception, else the second's."""
    global _worker
    job = _Job(partial(_in_pair, first))
    if at_once and not getattr(_pair, "inside", False):
        with _worker_lock:
            if _worker is None or not _worker.is_alive():  # not started yet, or lost in a fork
                _worker = threading.Thread(target=_serve, name="quadndr worker", daemon=True)
                _worker.start()
        _jobs.put(job)
    else:
        job.run()
    try:
        second_result = _in_pair(second)
    finally:
        job.done.wait()  # the worker writes into the caller's buffers until then
        if job.error is not None:
            raise job.error
    return job.result, second_result


@cache
def _openblas(maps="/proc/self/maps"):
    """The (get, set) thread-count functions of the OpenBLAS numpy runs its
    GEMMs on: the one mapped from numpy's own ``numpy.libs``, else the
    first mapped OpenBLAS that has such a pair (scipy's, which lacks it, may
    be mapped first). None where there is none (another BLAS, or a system
    without /proc/self/maps). ``maps`` is read in that file's format."""
    site = os.path.dirname(os.path.realpath(os.path.dirname(np.__file__)))
    libs = os.path.join(site, "numpy.libs", "")
    try:
        with open(maps) as lines:
            # a path, the sixth field, may hold spaces
            paths = dict.fromkeys(line.split(maxsplit=5)[5].rstrip("\n") for line in lines
                                  if "openblas" in line.rsplit("/", 1)[-1])
    except OSError:
        return None
    for path in sorted(paths, key=lambda path: not path.startswith(libs)):
        try:
            lib = ctypes.CDLL(path)  # already mapped, so this loads nothing
        except OSError:  # deleted or replaced since it was mapped
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                               ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


def _pinnable() -> bool:
    """Whether ``_one_blas_thread`` pins numpy's BLAS to one thread, the same
    answer for the whole process. Only then does ``_by_branch`` run two
    tasks at once: a BLAS that threads each GEMM keeps every core busy."""
    return _openblas() is not None


_pin_lock = threading.Lock()  # guards the two counts below
_pin_calls = 0  # the calls of _one_blas_thread's functions running now
_pin_callers = 1  # numpy's BLAS thread count when the first of them began


def _one_blas_thread(function):
    """A decorator: numpy's OpenBLAS runs on one thread while any call it
    wraps runs, on any thread, and gets back the count the first of them
    found once the last returns or raises. It changes nothing at one
    thread, or without an OpenBLAS to pin."""
    @wraps(function)
    def pinned(*args, **kwargs):
        global _pin_calls, _pin_callers
        pin = _openblas()
        with _pin_lock:
            if _pin_calls == 0 and pin:
                _pin_callers = pin[0]()
                if _pin_callers != 1:
                    pin[1](1)
            _pin_calls += 1
        try:
            return function(*args, **kwargs)
        finally:
            with _pin_lock:
                _pin_calls -= 1
                if _pin_calls == 0 and _pin_callers != 1:
                    pin[1](_pin_callers)
    return pinned


def _by_branch(tasks):
    """Run one task, or two independent ones (two conv stacks, two lanes or
    a GEMM's column halves) as a pair (``_both``), so their GEMMs stay
    whole: at once when numpy's BLAS is pinned, else in turn."""
    if len(tasks) == 1:
        return tasks[0]()
    return _both(*tasks, at_once=_pinnable())


# the fewest multiply-adds of a GEMM half, and of a lane's smallest conv
# GEMM. It fixes which GEMMs split, and so the bits: a change to it needs
# benchmark evidence of its own
_SPLIT_MIN = 2 ** 21


def _matmul(a, b, out):
    """``out = a @ b`` for 2-D operands: every GEMM of this module runs here.

    ``out``'s n columns are split at ``cut = (n // 16) * 8`` into two GEMMs
    (``_by_branch``) when n is a multiple of 8 and each half has at least
    _SPLIT_MIN multiply-adds; otherwise it is one call. So is a GEMM inside
    one of ``_both``'s two tasks: a lane's conv GEMM is already its half of
    the whole batch's, cut by ``_lanes`` under the same two conditions."""
    (m, k), n = a.shape, out.shape[1]
    cut = (n // 16) * 8
    if getattr(_pair, "inside", False) or n % 8 or m * k * min(cut, n - cut) < _SPLIT_MIN:
        return np.matmul(a, b, out=out)
    _by_branch([partial(np.matmul, a, b[:, cut:], out=out[:, cut:]),
                partial(np.matmul, a, b[:, :cut], out=out[:, :cut])])
    return out


def _lanes(cfg: NetConfig, batch: int) -> list:
    """The window ranges ("lanes") each branch's conv stack runs as. A lone
    branch (single) runs as two halves when its conv GEMMs split at the lane
    cut as ``_matmul`` would split them: the cut, ``batch // 2`` windows, is
    a multiple of 8 columns, and every conv GEMM of the smaller lane has at
    least _SPLIT_MIN multiply-adds. Otherwise, one lane of every window."""
    chans, cut = cfg.conv_channels, batch // 2
    columns = cut * cfg.window
    if (len(cfg.branches) == 1 and columns % 8 == 0
            and min(map(math.prod, zip(chans, chans[1:]))) * KERNEL * columns >= _SPLIT_MIN):
        return [(0, cut), (cut, batch)]
    return [(0, batch)]


def _branch_forward(params, records, x, out, cols_free, z_free, lanes):
    """One branch's conv stack: ``x`` through the convs of ``records``, each a
    (name, input, ``z > 0`` mask) triple whose input and mask it writes; the
    last conv's activation goes to ``out``. Each lane runs the whole stack
    on its own windows, and so on its own columns of the (im2col columns,
    pre-activation) pair ``cols_free``, ``z_free``."""
    length = x.shape[2]
    outputs = [h for _, h, _ in records[1:]] + [out]

    def lane(lo, hi):
        windows, columns = slice(lo, hi), slice(lo * length, hi * length)
        np.copyto(records[0][1][:, windows], x[:, windows])
        for (name, h, positive), h_out in zip(records, outputs):
            z = _conv_forward(h[:, windows], params[name + ".w"], params[name + ".b"],
                              cols_free[:, columns], z_free[:, columns])
            _leaky(np.greater(z, 0, out=positive[:, windows]), z, h_out[:, windows])

    _by_branch([partial(lane, *span) for span in lanes])


def _branch_backward(params, records, da, grads, cols_free, z_free, lanes):
    """One branch's conv stack backward from ``da``, the gradient of its last
    activation: walks its ``records`` in reverse, writing each conv's weight
    and bias gradients into the buffers in ``grads``. Per conv, the lanes
    form their windows' pre-activation gradient and im2col columns, this
    thread the whole batch's weight and bias gradients, then the lanes the
    input gradient. The last conv's columns are still in ``cols_free``,
    where its forward pass left them."""
    length = da.shape[2]
    for i, (name, h_in, positive) in reversed(list(enumerate(records))):
        w = params[name + ".w"]
        cols, dz = cols_free[:w[0].size], z_free[:w.shape[0]]

        def rebuild(lo, hi):
            columns = slice(lo * length, hi * length)
            _leaky(positive[:, lo:hi], da[:, lo:hi], dz.reshape(positive.shape)[:, lo:hi])
            if i < len(records) - 1:
                _im2col(h_in[:, lo:hi], cols[:, columns])

        def input_grad(lo, hi):
            columns = slice(lo * length, hi * length)
            _conv_input_grad(dz[:, columns], w, cols[:, columns], h_in[:, lo:hi])

        _by_branch([partial(rebuild, *span) for span in lanes])
        _conv_param_grads(dz, cols, grads[name + ".w"], grads[name + ".b"])
        if i > 0:  # the network's input needs no gradient
            _by_branch([partial(input_grad, *span) for span in lanes])
            da = h_in


def _forward(params, cfg: NetConfig, x, ws, rng=None):
    """Batched forward pass of ``_as_windows`` input ``x`` into ``ws`` (dropout on
    when ``rng`` is given); returns predictions and the records of the conv
    layers, per branch, and of the dense layers, in the order they ran. Conv
    activations are (C, B, L)."""
    _check_blocks(params, param_shapes(cfg))
    B, L = x.shape[0], cfg.window
    chans = cfg.conv_channels
    # per branch, the last conv output; flattened it is the dense input
    feats = ws.get("flat", (B, len(cfg.branches), chans[-1], L))
    inputs, pairs, _, _ = _arena(ws, cfg, B)
    lanes = _lanes(cfg, B)
    conv_cache, tasks = [], []
    for bi, prefix in enumerate(cfg.branches):
        names = [f"{prefix}{i + 1}" for i in range(len(chans) - 1)]
        records = [(name, h, ws.get(name + ".pos", (cout, B, L), bool))
                   for name, h, cout in zip(names, inputs[bi], chans[1:])]
        conv_cache.append(records)
        tasks.append(partial(_branch_forward, params, records,
                             x[:, bi * chans[0]:(bi + 1) * chans[0]].transpose(1, 0, 2),
                             feats[:, bi].transpose(1, 0, 2), *pairs[bi], lanes))
    _by_branch(tasks)

    dense_cache = []
    h = feats.reshape(B, cfg.feature_dim)
    for i, width in enumerate(cfg.dense_widths):
        name = f"fc{i + 1}"
        z = _matmul(h, params[name + ".w"].T, ws.get(name + ".z", (B, width)))
        z += params[name + ".b"]
        positive = np.greater(z, 0, out=ws.get(name + ".pos", z.shape, bool))
        a = _leaky(positive, z, ws.get(name + ".act", z.shape))
        dense_cache.append((name, h, positive, _dropout(a, cfg.dropout, rng, ws, name)))
        h = a
    out = _matmul(h, params["head.w"].T, ws.get("head.out", (B, cfg.out_dim)))
    out += params["head.b"]
    dense_cache.append(("head", h, None, None))
    return out, (conv_cache, dense_cache)


def _backward(params, cfg: NetConfig, cache, dout, ws):
    """Every block's gradient, in ``params`` order, from the forward records walked in reverse."""
    conv_cache, dense_cache = cache
    B = dout.shape[0]
    flat = dense_cache[0][1]  # fc1's input
    _, pairs, dflat, dfc1_w = _arena(ws, cfg, B)
    grads = dict.fromkeys(params)
    dz = dout
    for name, h_in, positive, mask in reversed(dense_cache):
        if positive is not None:  # every layer but the head
            if mask is not None:
                dh *= mask
            dz = _leaky(positive, dh, ws.get(name + ".z", dh.shape))
        w = params[name + ".w"]
        if name == "fc1":  # its weight gradient is formed after the conv backward pass
            dh_out = dflat
        else:
            grads[name + ".w"] = _matmul(dz.T, h_in, ws.get(f"grad {name}.w", w.shape))
            dh_out = h_in
        grads[name + ".b"] = np.sum(dz, axis=0, out=ws.get(f"grad {name}.b", w.shape[:1]))
        dh = _matmul(dz, w, dh_out)
    fc1_dz = dz  # the loop ends at fc1

    for records in conv_cache:
        for name, _, _ in records:
            for block in (name + ".w", name + ".b"):
                grads[block] = ws.get("grad " + block, params[block].shape)
    dfeats = dh.reshape(B, len(cfg.branches), cfg.conv_channels[-1], cfg.window)
    lanes = _lanes(cfg, B)
    _by_branch([partial(_branch_backward, params, records, dfeats[:, bi].transpose(1, 0, 2),
                        grads, *pairs[bi], lanes) for bi, records in enumerate(conv_cache)])
    grads["fc1.w"] = _matmul(fc1_dz.T, flat, dfc1_w)  # the rest of arena is dead now
    return grads


# the most windows of one inference pass: the default training batch, whose
# conv layers fit inside fc1.w's gradient at the default widths
_CHUNK = 64


@_one_blas_thread
def predict(params, cfg: NetConfig, inputs) -> np.ndarray:
    """Batched inference on (M, 6, n) windows, in passes of at most _CHUNK
    windows through one workspace, so its memory does not grow with M."""
    x = _as_windows(cfg, inputs)
    ws, out = _Workspace(), np.empty((len(x), cfg.out_dim))
    for lo in range(0, max(len(x), 1), _CHUNK):  # zero windows make one pass, which checks params
        out[lo:lo + _CHUNK] = _forward(params, cfg, x[lo:lo + _CHUNK], ws)[0]
    return out


def mse_loss(predictions, targets) -> float:
    """Mean over samples of the squared Euclidean error."""
    p = np.asarray(predictions, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape or p.ndim != 2 or p.shape[0] == 0:
        raise ValueError("predictions and targets must be equal-shape, non-empty")
    return float(np.mean(np.sum((p - t) ** 2, axis=1)))


@_one_blas_thread
def loss_and_gradients(params, cfg: NetConfig, inputs, targets,
                       rng=None, *, workspace=None):
    """One forward/backward pass; returns (loss, gradients, predictions).

    Dropout is active exactly when ``rng`` is given. Without ``workspace``
    every array is freshly allocated. With one, each is written into that
    workspace's buffers, so the returned gradients and predictions are views,
    valid until the workspace's next use."""
    ws = _Workspace() if workspace is None else workspace
    out, cache = _forward(params, cfg, _as_windows(cfg, inputs), ws, rng=rng)
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
        return cls(m={k: np.zeros(np.shape(p)) for k, p in params.items()},
                   v={k: np.zeros(np.shape(p)) for k, p in params.items()}, t=0, lr=lr)


# the most elements per chunk of one Adam pass: each chunk costs 14 ufunc
# calls, and at 2**14 their overhead held the two halves to 1.48x one
# thread at a default step, against 1.88x at 2**16 (2-core Xeon). A net of
# under 32 chunks takes chunks of a 32nd of its elements, so its scratch
# stays a 16th of a parameter set. The bits do not depend on the chunk size
_ADAM_CHUNK = 2 ** 16
# the largest gradient entry Adam takes: v_hat is at most the largest squared
# entry, so v and v_hat stay finite, with a factor 4 to spare
_ADAM_GRAD_MAX = 2.0 ** 511


@_one_blas_thread
def adam_step(params: dict, grads: dict, state: AdamState) -> tuple[dict, AdamState]:
    """One Adam update in place: overwrites ``params[k]``, ``state.m[k]`` and
    ``state.v[k]``, advances ``state.t`` and returns the same two objects.
    ``grads[k]`` is scratch: it is overwritten too.

    Before any array changes, a ``grads`` that names other blocks than
    ``params`` raises ValueError naming one, and every gradient block is
    checked finite and within _ADAM_GRAD_MAX in magnitude, so
    TrainingDiverged, naming the first bad block in ``params`` order, leaves
    params, grads and state as they were. The operation order is the
    textbook one, ``b1*m + (1-b1)*g``, ``b2*v + ((1-b2)*g)*g`` and
    ``p - (lr*m_hat)/(sqrt(v_hat)+eps)``, so results are bitwise those of the
    out-of-place form. The first half of the elements, in block order, is
    checked and then updated on this thread, and the second on the worker
    thread (``_both``); neither half starts its update before both checks
    have passed. Updates run in chunks of at most _ADAM_CHUNK elements, so
    the scratch is two chunk-sized arrays whatever the block size."""
    odd = sorted(grads.keys() ^ params.keys())
    if odd:
        raise ValueError(f"gradient block {odd[0]!r} is "
                         + ("missing" if odd[0] in params else "not a parameter block"))
    size = sum(p.size for p in params.values())
    halves, start, cut, chunk = ([], []), 0, size // 2, min(_ADAM_CHUNK, size // 32 + 1)
    for k, p in params.items():
        split = min(max(cut - start, 0), p.size)
        for half, span in zip(halves, ((0, split), (split, p.size))):
            if span[0] < span[1]:
                # nditer hands out views of contiguous blocks and buffers any other layout
                chunks = np.nditer([p, grads[k], state.m[k], state.v[k]],
                                   flags=["external_loop", "buffered", "ranged"],
                                   op_flags=[["readwrite"]] * 4, buffersize=chunk)
                chunks.iterrange = span
                half.append((k, span, chunks))
        start += p.size
    # the first half's blocks come first in params order
    late, early = _both(partial(_first_bad_block, grads, halves[1]),
                        partial(_first_bad_block, grads, halves[0]))
    if early or late:
        raise TrainingDiverged(f"gradient in block {early or late!r} is non-finite or"
                               f" above {_ADAM_GRAD_MAX:.3g} in magnitude")
    state.t += 1
    scratch = np.empty((2, chunk))
    _both(partial(_adam_chunks, halves[1], scratch[1], state),
          partial(_adam_chunks, halves[0], scratch[0], state))
    return params, state


def _first_bad_block(grads, half):
    """The name of the first block of ``half``, (name, (start, stop), chunks)
    triples, whose gradient has an entry in that range that is non-finite
    or above _ADAM_GRAD_MAX in magnitude; None if there is none."""
    for k, (lo, hi), _ in half:
        g = grads[k].ravel("K")[lo:hi]
        # a sum of squares within the bound's square bounds every entry; only a
        # range past it (or whose sum overflows) pays for the elementwise check
        with np.errstate(over="ignore", invalid="ignore"):
            if not (np.vdot(g, g) <= _ADAM_GRAD_MAX ** 2
                    or np.all(np.abs(g) <= _ADAM_GRAD_MAX)):
                return k
    return None


def _adam_chunks(half, scratch, state: AdamState) -> None:
    """Adam's update of the (param, grad, m, v) chunks of ``half``, (name,
    span, chunks) triples, with ``scratch`` and each gradient chunk, dead
    once ``v`` has read it, as the two temporaries."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1, c2 = 1.0 - b1 ** state.t, 1.0 - b2 ** state.t
    for _, _, chunks in half:
        with chunks:
            for p, g, m, v in chunks:
                step = scratch[:g.size]
                np.multiply(1.0 - b1, g, out=step)
                m *= b1
                m += step
                np.multiply(1.0 - b2, g, out=step)
                step *= g
                v *= b2
                v += step
                np.divide(m, c1, out=step)
                step *= state.lr
                denom = np.divide(v, c2, out=g)
                np.sqrt(denom, out=denom)
                denom += ADAM_EPS
                step /= denom
                p -= step


# ---------------------------------------------------------------------------
# Training loop


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 64
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        for field in ("epochs", "batch_size"):
            value = getattr(self, field)
            if type(value) is not int or value < 1:
                raise ValueError(f"{field} must be an int >= 1, got {value!r}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr!r}")


@_one_blas_thread
def train(params: dict, cfg: NetConfig, inputs, labels,
          tcfg: TrainConfig) -> tuple[dict, list]:
    """Mini-batch Adam training with seeded per-epoch shuffling.

    The last partial batch is kept. Every ``adam_step`` updates the arrays
    of ``params`` in place; before any changes, a read-only block raises
    ValueError naming it, as do labels of a shape other than (M,
    cfg.out_dim) for M input windows and (in the first forward pass) a
    missing, extra or misshapen block. Returns the same ``params`` dict and
    the per-epoch mean loss history.
    """
    for k, p in params.items():
        if isinstance(p, np.ndarray) and not p.flags.writeable:
            raise ValueError(f"parameter block {k!r} is read-only")
    inputs = np.asarray(inputs, dtype=float)
    labels = np.asarray(labels, dtype=float)
    m = inputs.shape[0]
    if m == 0:
        raise ValueError("training set is empty")
    if labels.shape != (m, cfg.out_dim):
        raise ValueError(f"labels of shape {labels.shape} for {m} input windows,"
                         f" expected shape {(m, cfg.out_dim)}")
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
