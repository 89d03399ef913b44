"""Independent references used to check analytic results in the tests."""
import math
from dataclasses import replace

import numpy as np

from quadndr.network import AdamState, NetConfig, mse_loss, predict

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
