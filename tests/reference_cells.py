"""Unstacked reference kernels: the oracles the stacked cells are tested against.

These are the straightforward per-gate formulations of the vanilla (Elman),
GRU and SRU forward and backward passes and of the logistic function: one
matrix product per gate, a boolean-mask branch in the sigmoid, no in-place
buffers.  ``sru_forward_naive`` also takes the SRU's gate products step
by step rather than for all steps at once.  ``myograsp.cells`` computes
the same maps with stacked gate GEMMs and a tanh-form sigmoid computed in
place; ``tests/test_cells.py`` asserts that both agree to float64
round-off.  The references read the parameters by their per-matrix names
and return their weight gradients as a dict keyed by those names, in
``named()`` order, so they do not depend on how the cells store them; a
vanilla layer names only its augmented matrix, so the vanilla reference
slices U_h, W_h and b_h out of it and stacks their gradients back.
"""

import numpy as np

from myograsp.cells import (GruParams, GruTrace, SruParams, SruTrace, VanillaParams,
                            VanillaTrace)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function with one branch per sign."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _state(state, batch: int, hidden: int) -> np.ndarray:
    return np.zeros((batch, hidden)) if state is None else np.array(state, dtype=np.float64)


def _vanilla_matrices(params: VanillaParams):
    """(W_h (H, D), U_h (H, H), b_h (1, H)) of A = [U_h.T; W_h.T; b_h]."""
    H = params.A.shape[1]
    return params.A[H:-1].T, params.A[:H].T, params.A[-1:]


def vanilla_forward(params: VanillaParams, x: np.ndarray, h0=None):
    x = np.asarray(x, dtype=np.float64)
    B, T, _ = x.shape
    W_h, U_h, b_h = _vanilla_matrices(params)
    h = _state(h0, B, U_h.shape[0])

    hs = np.empty((B, T + 1, U_h.shape[0]))
    hs[:, 0] = h
    for t in range(T):
        h = np.tanh(x[:, t] @ W_h.T + h @ U_h.T + b_h)
        hs[:, t + 1] = h
    return hs[:, 1:].copy(), VanillaTrace(x=x, hs=hs)


def vanilla_backward(trace: VanillaTrace, params: VanillaParams, dh_up: np.ndarray):
    x, hs = trace.x, trace.hs
    B, T, D = x.shape
    H = hs.shape[2]
    W_h, U_h, _ = _vanilla_matrices(params)
    dh_up = np.asarray(dh_up, dtype=np.float64)

    da = np.empty((B, T, H))
    dh_next = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        dh = dh_up[:, t] + dh_next
        da[:, t] = dh * (1.0 - hs[:, t + 1] ** 2)
        dh_next = da[:, t] @ U_h
    dh0 = dh_next

    da2 = da.reshape(B * T, H)
    dW_h = da2.T @ x.reshape(B * T, D)
    dU_h = da2.T @ hs[:, :-1].reshape(B * T, H)
    db_h = da2.sum(axis=0, keepdims=True)
    grads = dict(A=np.concatenate([dU_h.T, dW_h.T, db_h]))
    dx = (da2 @ W_h).reshape(B, T, D)
    return grads, dx, dh0


def gru_forward(params: GruParams, x: np.ndarray, h0=None):
    x = np.asarray(x, dtype=np.float64)
    B, T, _ = x.shape
    H = params.W_z.shape[0]
    h = _state(h0, B, H)

    x2 = x.reshape(B * T, -1)
    xz = (x2 @ params.W_z.T).reshape(B, T, H) + params.b_z
    xr = (x2 @ params.W_r.T).reshape(B, T, H) + params.b_r
    xh = (x2 @ params.W_h.T).reshape(B, T, H) + params.b_h

    hs = np.empty((B, T + 1, H))
    hs[:, 0] = h
    z = np.empty((B, T, H))
    r = np.empty((B, T, H))
    hc = np.empty((B, T, H))
    for t in range(T):
        z_t = sigmoid(xz[:, t] + h @ params.U_z.T)
        r_t = sigmoid(xr[:, t] + h @ params.U_r.T)
        hc_t = np.tanh(xh[:, t] + (r_t * h) @ params.U_h.T)
        h = (1.0 - z_t) * h + z_t * hc_t
        z[:, t], r[:, t], hc[:, t] = z_t, r_t, hc_t
        hs[:, t + 1] = h

    return hs[:, 1:].copy(), GruTrace(x=x, hs=hs, z=z, r=r, hc=hc)


def gru_backward(trace: GruTrace, params: GruParams, dh_up: np.ndarray):
    x, hs, z, r, hc = trace.x, trace.hs, trace.z, trace.r, trace.hc
    B, T, D = x.shape
    H = z.shape[2]
    dh_up = np.asarray(dh_up, dtype=np.float64)

    da_z = np.empty((B, T, H))
    da_r = np.empty((B, T, H))
    da_h = np.empty((B, T, H))
    dh_next = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        h_prev = hs[:, t]
        z_t, r_t, hc_t = z[:, t], r[:, t], hc[:, t]
        dh = dh_up[:, t] + dh_next

        dhc = dh * z_t
        dz = dh * (hc_t - h_prev)
        dh_prev = dh * (1.0 - z_t)

        da_h_t = dhc * (1.0 - hc_t ** 2)
        drh = da_h_t @ params.U_h
        dr = drh * h_prev
        dh_prev = dh_prev + drh * r_t

        da_z_t = dz * z_t * (1.0 - z_t)
        da_r_t = dr * r_t * (1.0 - r_t)
        dh_prev = dh_prev + da_z_t @ params.U_z + da_r_t @ params.U_r

        da_z[:, t], da_r[:, t], da_h[:, t] = da_z_t, da_r_t, da_h_t
        dh_next = dh_prev
    dh0 = dh_next

    x2 = x.reshape(B * T, D)
    hp2 = hs[:, :-1].reshape(B * T, H)
    rh2 = (r * hs[:, :-1]).reshape(B * T, H)
    dz2, dr2, dc2 = (da_z.reshape(B * T, H), da_r.reshape(B * T, H),
                     da_h.reshape(B * T, H))
    grads = dict(
        W_z=dz2.T @ x2, U_z=dz2.T @ hp2, b_z=dz2.sum(axis=0, keepdims=True),
        W_r=dr2.T @ x2, U_r=dr2.T @ hp2, b_r=dr2.sum(axis=0, keepdims=True),
        W_h=dc2.T @ x2, U_h=dc2.T @ rh2, b_h=dc2.sum(axis=0, keepdims=True),
    )
    dx = (dz2 @ params.W_z + dr2 @ params.W_r + dc2 @ params.W_h).reshape(B, T, D)
    return grads, dx, dh0


def sru_forward(params: SruParams, x: np.ndarray, c0=None):
    x = np.asarray(x, dtype=np.float64)
    B, T, _ = x.shape
    H = params.W.shape[0]
    c = _state(c0, B, H)

    x2 = x.reshape(B * T, -1)
    xhat = (x2 @ params.W.T).reshape(B, T, H)
    f = sigmoid((x2 @ params.W_f.T).reshape(B, T, H) + params.b_f)
    r = sigmoid((x2 @ params.W_r.T).reshape(B, T, H) + params.b_r)
    xh = (x2 @ params.W_p.T).reshape(B, T, H) if params.W_p is not None else x

    cs = np.empty((B, T + 1, H))
    cs[:, 0] = c
    for t in range(T):
        c = f[:, t] * c + (1.0 - f[:, t]) * xhat[:, t]
        cs[:, t + 1] = c

    tanh_c = np.tanh(cs[:, 1:])
    h = r * tanh_c + (1.0 - r) * xh
    return h, SruTrace(x=x, xhat=xhat, f=f, r=r, cs=cs, xh=xh, tanh_c=tanh_c)


def sru_forward_naive(params: SruParams, x: np.ndarray, c0=None):
    """Step-by-step SRU, every gate product taken per time step."""
    x = np.asarray(x, dtype=np.float64)
    B, T, _ = x.shape
    H = params.W.shape[0]
    c = _state(c0, B, H)

    h = np.empty((B, T, H))
    for t in range(T):
        x_t = x[:, t]
        xhat_t = x_t @ params.W.T
        f_t = sigmoid(x_t @ params.W_f.T + params.b_f)
        r_t = sigmoid(x_t @ params.W_r.T + params.b_r)
        c = f_t * c + (1.0 - f_t) * xhat_t
        xh_t = x_t @ params.W_p.T if params.W_p is not None else x_t
        h[:, t] = r_t * np.tanh(c) + (1.0 - r_t) * xh_t
    return h


def sru_backward(trace: SruTrace, params: SruParams, dh_up: np.ndarray):
    x, xhat, f, r, cs, xh, tanh_c = (trace.x, trace.xhat, trace.f, trace.r,
                                     trace.cs, trace.xh, trace.tanh_c)
    B, T, D = x.shape
    H = f.shape[2]
    dh_up = np.asarray(dh_up, dtype=np.float64)

    dr = dh_up * (tanh_c - xh)
    dxh = dh_up * (1.0 - r)
    dc_direct = dh_up * r * (1.0 - tanh_c ** 2)

    gc = np.empty((B, T, H))
    carry = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        carry = dc_direct[:, t] + carry
        gc[:, t] = carry
        carry = f[:, t] * carry
    dc0 = carry

    df = gc * (cs[:, :-1] - xhat)
    dxhat = gc * (1.0 - f)
    da_f = df * f * (1.0 - f)
    da_r = dr * r * (1.0 - r)

    x2 = x.reshape(B * T, D)
    dxhat2 = dxhat.reshape(B * T, H)
    daf2 = da_f.reshape(B * T, H)
    dar2 = da_r.reshape(B * T, H)
    dxh2 = dxh.reshape(B * T, H)

    grads = dict(
        W=dxhat2.T @ x2,
        W_f=daf2.T @ x2, b_f=daf2.sum(axis=0, keepdims=True),
        W_r=dar2.T @ x2, b_r=dar2.sum(axis=0, keepdims=True),
    )
    if params.W_p is not None:
        grads["W_p"] = dxh2.T @ x2
    dx2 = dxhat2 @ params.W + daf2 @ params.W_f + dar2 @ params.W_r
    if params.W_p is not None:
        dx2 = dx2 + dxh2 @ params.W_p
    else:
        dx2 = dx2 + dxh2
    return grads, dx2.reshape(B, T, D), dc0
