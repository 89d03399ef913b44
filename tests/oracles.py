"""Independent references used to check analytic results in the tests."""
import math
from dataclasses import replace

import numpy as np

from quadndr.ins import DEFAULT_GRAVITY, NavState, dcm_to_yaw, mechanize_series
from quadndr.network import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    KERNEL,
    LEAKY_SLOPE,
    AdamState,
    NetConfig,
    mse_loss,
    predict,
)
from quadndr.windows import normalize_inputs, window_bounds, window_inputs

# Central finite differences hit a roundoff floor of roughly eps * L / h,
# which for losses of order one and h = 1e-6 is about 1e-9 in absolute
# terms. Gradient entries far below that floor carry no information, so
# relative errors are guarded with a denominator floor instead of being
# taken raw.
FD_STEP = 1e-6
REL_FLOOR = 1e-4


def finite_difference_grads(params, cfg: NetConfig, inputs, targets, h=FD_STEP,
                            names=None):
    """Central-difference gradient of the MSE loss, optionally restricted to
    a subset of parameter blocks."""

    def loss_of(p):
        return mse_loss(predict(p, cfg, inputs), targets)

    fd = {}
    for name, arr in params.items():
        if names is not None and name not in names:
            continue
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gf = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_of(params)
            flat[i] = orig - h
            lo = loss_of(params)
            flat[i] = orig
            gf[i] = (up - lo) / (2.0 * h)
        fd[name] = g
    return fd


def guarded_relative_error(analytic, fd, floor=REL_FLOOR):
    """Worst relative error across all blocks, with a denominator floor so
    that entries at the finite-difference noise floor cannot dominate."""
    worst = 0.0
    for name, g in analytic.items():
        denom = np.maximum(np.maximum(np.abs(g), np.abs(fd[name])), floor)
        worst = max(worst, float(np.max(np.abs(g - fd[name]) / denom)))
    return worst


def scalar_adam_reference(theta0, grads, lr=1e-3, beta1=0.9, beta2=0.999,
                          eps=1e-8):
    """Textbook scalar Adam recursion written with plain Python floats."""
    theta, m, v = float(theta0), 0.0, 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(theta)
    return out


def out_of_place_adam(params, grads, state: AdamState):
    """Vectorised Adam that builds fresh parameter and moment dicts; the
    in-place ``adam_step`` must match it bit for bit."""
    t = state.t + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    new_params, m, v = {}, {}, {}
    for k, p in params.items():
        g = grads[k]
        m[k] = b1 * state.m[k] + (1.0 - b1) * g
        v[k] = b2 * state.v[k] + (1.0 - b2) * g * g
        m_hat = m[k] / (1.0 - b1 ** t)
        v_hat = v[k] / (1.0 - b2 ** t)
        new_params[k] = p - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new_params, replace(state, m=m, v=v, t=t)


# The allocate-per-step forward and backward pass: every im2col matrix,
# activation and gradient is a fresh array, activations are (B, C, L) and
# each conv input is padded with np.pad. ``loss_and_gradients`` must match
# ``fresh_loss_and_gradients`` bit for bit, with or without a workspace.


def _leaky_slope(z, alpha=LEAKY_SLOPE):
    # convention: derivative at exactly 0 is alpha
    return np.where(z > 0, 1.0, alpha)


def leaky_relu(x, alpha: float = LEAKY_SLOPE):
    """x for x >= 0, alpha*x otherwise, elementwise."""
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    x = np.asarray(x, dtype=float)
    return x * _leaky_slope(x, alpha)


def _dropout(a, rate, rng):
    if rng is None or rate == 0.0:
        return a, None
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


def _forward(params, cfg: NetConfig, x, rng=None):
    x = np.asarray(x, dtype=float)
    B = x.shape[0]
    pad = KERNEL // 2
    branch_inputs = {"conv": x} if cfg.arch == "single" else {"acc": x[:, :3], "gyro": x[:, 3:]}

    conv_cache = []
    flats = []
    for prefix in cfg.branches:
        h = branch_inputs[prefix]
        for i in range(len(cfg.conv_channels) - 1):
            name = f"{prefix}{i + 1}"
            z, cols = _conv_forward(h, params[name + ".w"], params[name + ".b"], pad)
            conv_cache.append((name, h.shape, cols, z))
            h = leaky_relu(z)
        flats.append(h.reshape(B, -1))
    flat = flats[0] if len(flats) == 1 else np.concatenate(flats, axis=1)

    dense_cache = []
    h = flat
    for i in range(len(cfg.dense_widths)):
        name = f"fc{i + 1}"
        z = h @ params[name + ".w"].T + params[name + ".b"]
        a, mask = _dropout(leaky_relu(z), cfg.dropout, rng)
        dense_cache.append((name, h, z, mask))
        h = a
    out = h @ params["head.w"].T + params["head.b"]
    cache = (conv_cache, dense_cache, h, flat, [f.shape[1] for f in flats])
    return out, cache


def _backward(params, cfg: NetConfig, cache, dout):
    conv_cache, dense_cache, head_in, flat, flat_dims = cache
    grads = dict.fromkeys(params)
    grads["head.w"] = dout.T @ head_in
    grads["head.b"] = dout.sum(axis=0)
    dh = dout @ params["head.w"]
    for name, h_in, z, mask in reversed(dense_cache):
        if mask is not None:
            dh = dh * mask
        dz = dh * _leaky_slope(z)
        grads[name + ".w"] = dz.T @ h_in
        grads[name + ".b"] = dz.sum(axis=0)
        dh = dz @ params[name + ".w"]

    nconv = len(cfg.conv_channels) - 1
    offset = 0
    pad = KERNEL // 2
    for bi, prefix in enumerate(cfg.branches):
        dflat = dh[:, offset:offset + flat_dims[bi]]
        offset += flat_dims[bi]
        da = dflat.reshape(-1, cfg.conv_channels[-1], cfg.window)
        for name, x_shape, cols, z in reversed(conv_cache[bi * nconv:(bi + 1) * nconv]):
            dz = da * _leaky_slope(z)
            da, dw, db = _conv_backward(dz, cols, params[name + ".w"], x_shape, pad)
            grads[name + ".w"] = dw
            grads[name + ".b"] = db
    return grads


def fresh_loss_and_gradients(params, cfg: NetConfig, inputs, targets, rng=None):
    """(loss, gradients, predictions) of one allocate-per-step pass."""
    targets = np.asarray(targets, dtype=float)
    out, cache = _forward(params, cfg, inputs, rng=rng)
    loss = mse_loss(out, targets)
    dout = 2.0 * (out - targets) / out.shape[0]
    return loss, _backward(params, cfg, cache, dout), out


# The distance + INS-heading baseline as a scalar chain, one window at a
# time: ``run_baseline`` must match ``loop_baseline`` bit for bit.


def quadnet_update(x: float, y: float, d: float, psi: float) -> tuple[float, float]:
    """Advance a horizontal position by distance d along heading psi."""
    if not all(np.isfinite(v) for v in (x, y, d, psi)):
        raise ValueError("inputs must be finite")
    return x + d * np.cos(psi), y + d * np.sin(psi)


def loop_baseline(imu, params, cfg: NetConfig, init, spec, norm):
    """(M, 3) window-end points of the baseline, chained window by window."""
    inputs = normalize_inputs(window_inputs(imu, spec), norm)
    preds = predict(params, cfg, inputs)
    states = mechanize_series(init, imu)
    x, y, z = (float(v) for v in init.p)
    points = np.empty((len(preds), 3))
    for k, s in enumerate(window_bounds(len(imu), spec)[0]):
        psi = dcm_to_yaw(states.T[s + spec.window_size - 1])
        x, y = quadnet_update(x, y, float(preds[k, 0]), psi)
        z += float(preds[k, 1])
        points[k] = (x, y, z)
    return points


# The checked rotation helpers and the per-sample strapdown loop built on
# them: ``mechanize_series`` must match ``loop_mechanize`` bit for bit.


def _as_vec3(v, name: str = "vector") -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"{name} must have shape (3,), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


def skew(w) -> np.ndarray:
    """Cross-product (skew-symmetric) matrix of a 3-vector."""
    x, y, z = _as_vec3(w, "w")
    return np.array([
        [0.0, -z, y],
        [z, 0.0, -x],
        [-y, x, 0.0],
    ])


def rotvec_to_dcm(rv) -> np.ndarray:
    """Rotation matrix for a rotation vector (Rodrigues formula)."""
    rv = _as_vec3(rv, "rotation vector")
    theta = float(np.linalg.norm(rv))
    S = skew(rv)
    if theta == 0.0:
        return np.eye(3)
    if theta < 1e-8:
        # series expansion keeps full precision for tiny angles
        a = 1.0 - theta * theta / 6.0
        b = 0.5 - theta * theta / 24.0
    else:
        a = np.sin(theta) / theta
        b = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + a * S + b * (S @ S)


def orthonormalize(T) -> np.ndarray:
    """One Gram-Schmidt pass over the rows; det is forced to +1."""
    T = np.asarray(T, dtype=float)
    r0 = T[0] / math.sqrt(T[0] @ T[0])
    r1 = T[1] - (T[1] @ r0) * r0
    r1 = r1 / math.sqrt(r1 @ r1)
    r2 = np.array([r0[1] * r1[2] - r0[2] * r1[1],
                   r0[2] * r1[0] - r0[0] * r1[2],
                   r0[0] * r1[1] - r0[1] * r1[0]])
    return np.array([r0, r1, r2])


def loop_mechanize(init, imu):
    """The strapdown recursion with each attitude step taken through the
    checked helpers above; same interval rule as ``mechanize_series``."""
    n = len(imu)
    ts = imu.timestamps
    if n == 1:
        dts = ts - init.t
    else:
        dts = np.diff(ts)
        dts = np.append(dts, dts[-1:])
    f, w = imu.f, imu.w
    p, v, T = np.empty((n + 1, 3)), np.empty((n + 1, 3)), np.empty((n + 1, 3, 3))
    p[0], v[0], T[0] = init.p, init.v, init.T
    for k in range(n):
        dt = float(dts[k])
        T[k + 1] = orthonormalize(T[k] @ rotvec_to_dcm(w[k] * dt))
        v[k + 1] = v[k] + (T[k + 1] @ f[k] + DEFAULT_GRAVITY) * dt
        p[k + 1] = p[k] + v[k + 1] * dt
    return NavState(p=p, v=v, T=T, t=np.cumsum(np.append(init.t, dts)))


# The CSV writers ``simulate.write_csv`` replaced: every table value went
# through ``repr(float(v))``, and the loss curve was written epoch by epoch.


def per_value_write_csv(path, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def loop_write_loss_csv(path, history) -> None:
    with open(path, "w") as fh:
        fh.write("epoch,loss\n")
        for e, loss in enumerate(history):
            fh.write(f"{e},{loss!r}\n")
