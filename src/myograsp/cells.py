"""Recurrent cells: vanilla RNN, GRU and SRU, with hand-derived BPTT.

All forward functions take a batch of sequences ``x`` of shape (B, T, D_in)
and return per-timestep outputs of shape (B, T, D_out) plus a trace holding
the cached activations the backward pass needs.  Weight matrices are stored
hidden x input (so the batched product is ``x @ W.T``) and biases as 1 x n
row vectors.

Cell equations
--------------
vanilla:  h_t = tanh(W_h x_t + U_h h_{t-1} + b_h)
          y_t = W_y h_t + b_y                      (linear readout)

GRU:      z_t = sigm(W_z x_t + U_z h_{t-1} + b_z)
          r_t = sigm(W_r x_t + U_r h_{t-1} + b_r)
          hc_t = tanh(W_h x_t + U_h (r_t * h_{t-1}) + b_h)
          h_t = (1 - z_t) * h_{t-1} + z_t * hc_t

SRU:      xhat_t = W x_t
          f_t = sigm(W_f x_t + b_f)
          r_t = sigm(W_r x_t + b_r)
          c_t = f_t * c_{t-1} + (1 - f_t) * xhat_t
          h_t = r_t * tanh(c_t) + (1 - r_t) * xh_t

where xh_t is x_t itself when D_in == hidden, else a learned projection
W_p x_t.  The SRU gates depend only on x_t, so the matrix products for every
timestep are one batched GEMM over the stacked W|W_f|W_r(|W_p) before the
light sequential scan over c_t (Lei et al., 2018).  The GRU likewise stacks
W_z|W_r|W_h for the input side and U_z|U_r for the per-step recurrent gate
products.  Stacks are built per call; the parameter dataclasses keep one
array per matrix.

The GRU and the SRU store their recurrences time-major, in (T, B, .)
buffers, so that each of their T sequential steps reads and writes
contiguous (B, .) blocks instead of strided x[:, t] slices of a (B, T, .)
array (the usual RNN layout, Appleyard et al., 2016).  Their outputs,
``dx`` and trace fields are (B, T, .) views of those buffers, so callers
see the same shapes as for the vanilla cell, which stays batch-major
because nothing here runs it at scale.  Their input-side GEMMs run over
blocks of ``BLOCK`` time steps (Appleyard et al. batch that GEMM over
groups of steps in the same way), and so do the vanilla cell's input and
readout GEMMs.  So a call over a sequence computes bit for bit what a
call per block of ``BLOCK`` steps does, each started from the
``final_state`` of the block before: the network's inference streams its
layer stack one block at a time this way.

Backward passes return exact gradients of the forward map and were written
to be checked against central finite differences (see tests); the
per-timestep pre-activation gradients are buffered so that all weight
gradients reduce to a handful of large GEMMs after the sequential loop.

Every forward and backward takes an optional :class:`Buffers`, from which
it takes its trace and gradient arrays that grow with the sequence by
name instead of allocating them; a network keeps one per layer as its
training workspace (``Network.buffers``), which ``training.train`` passes
to every step, so that after the network's first step at its largest
batch no call maps and faults in fresh pages.  An array from a
buffers-backed call is overwritten by the next call with the same
buffers: a forward's outputs and trace stay valid until the next
forward, a backward's ``dx`` until the next backward.  Without buffers,
every call allocates its own arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .numerics import init_params, sigmoid

__all__ = [
    "Buffers",
    "VanillaParams",
    "GruParams",
    "SruParams",
    "VanillaTrace",
    "GruTrace",
    "SruTrace",
    "init_vanilla",
    "init_gru",
    "init_sru",
    "vanilla_forward",
    "gru_forward",
    "sru_forward",
    "vanilla_backward",
    "gru_backward",
    "sru_backward",
    "cell_forward",
    "cell_backward",
    "final_state",
]


class _ArrayFields:
    """Mixin: iterate dataclass ndarray fields as (name, array) pairs."""

    def named(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                yield f.name, value


@dataclass
class VanillaParams(_ArrayFields):
    W_h: np.ndarray  # (H, D_in)
    U_h: np.ndarray  # (H, H)
    b_h: np.ndarray  # (1, H)
    W_y: np.ndarray  # (D_out, H)
    b_y: np.ndarray  # (1, D_out)


@dataclass
class GruParams(_ArrayFields):
    W_z: np.ndarray
    U_z: np.ndarray
    b_z: np.ndarray
    W_r: np.ndarray
    U_r: np.ndarray
    b_r: np.ndarray
    W_h: np.ndarray
    U_h: np.ndarray
    b_h: np.ndarray


@dataclass
class SruParams(_ArrayFields):
    W: np.ndarray    # (H, D_in)
    W_f: np.ndarray
    b_f: np.ndarray
    W_r: np.ndarray
    b_r: np.ndarray
    W_p: np.ndarray | None = None  # highway projection, only when D_in != H


# gradient containers share the parameter structure
CellParams = VanillaParams | GruParams | SruParams


def init_vanilla(input_dim: int, hidden: int, output_dim: int,
                 rng: np.random.Generator) -> VanillaParams:
    return VanillaParams(
        W_h=init_params(hidden, input_dim, "uniform-scaled", rng),
        U_h=init_params(hidden, hidden, "uniform-scaled", rng),
        b_h=init_params(1, hidden, "zeros", rng),
        W_y=init_params(output_dim, hidden, "uniform-scaled", rng),
        b_y=init_params(1, output_dim, "zeros", rng),
    )


def init_gru(input_dim: int, hidden: int, rng: np.random.Generator) -> GruParams:
    def w():
        return init_params(hidden, input_dim, "uniform-scaled", rng)

    def u():
        return init_params(hidden, hidden, "uniform-scaled", rng)

    def b():
        return init_params(1, hidden, "zeros", rng)

    return GruParams(W_z=w(), U_z=u(), b_z=b(),
                     W_r=w(), U_r=u(), b_r=b(),
                     W_h=w(), U_h=u(), b_h=b())


def init_sru(input_dim: int, hidden: int, rng: np.random.Generator) -> SruParams:
    def w():
        return init_params(hidden, input_dim, "uniform-scaled", rng)

    def b():
        return init_params(1, hidden, "zeros", rng)

    proj = None if input_dim == hidden else init_params(hidden, input_dim, "uniform-scaled", rng)
    return SruParams(W=w(), W_f=w(), b_f=b(), W_r=w(), b_r=b(), W_p=proj)


def _check_seq(x: np.ndarray, input_dim: int, who: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"{who}: expected (batch, time, features) input, got shape {x.shape}")
    if x.shape[2] != input_dim:
        raise ValueError(f"{who}: input feature dim {x.shape[2]} != parameter dim {input_dim}")
    return x


def _init_state(state, batch: int, hidden: int, who: str) -> np.ndarray:
    if state is None:
        return np.zeros((batch, hidden))
    state = np.asarray(state, dtype=np.float64)
    if state.shape != (batch, hidden):
        raise ValueError(f"{who}: initial state shape {state.shape} != ({batch}, {hidden})")
    return state.copy()


# time steps per input-side GEMM of every cell, per block of the SRU's
# backward scan, and per step of the network's streamed inference
BLOCK = 8


class Buffers:
    """Arrays handed out by name to one layer's forward and backward passes.

    Each name keeps one flat array that only grows: ``array(name, shape)``
    hands out its first ``prod(shape)`` elements as a C-contiguous view of
    that shape, so a smaller batch (an epoch's partial last one) reuses the
    memory of a larger one.  Its contents are left as they are, like
    ``np.empty``'s.
    """

    def __init__(self):
        self._flat = {}

    def array(self, name: str, shape: tuple) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size)
        return flat[:size].reshape(shape)


def _empty(buffers: Buffers | None, name: str, shape: tuple) -> np.ndarray:
    return np.empty(shape) if buffers is None else buffers.array(name, shape)


# ---------------------------------------------------------------------------
# vanilla RNN
# ---------------------------------------------------------------------------

@dataclass
class VanillaTrace(_ArrayFields):
    x: np.ndarray    # (B, T, D)
    hs: np.ndarray   # (B, T+1, H), hs[:,0] = h0


def _blockwise_matmul(a: np.ndarray, W: np.ndarray) -> np.ndarray:
    """(B, T, K) @ W as one (B*n, K) GEMM per block of ``BLOCK`` steps."""
    B, T, K = a.shape
    out = np.empty((B, T, W.shape[1]))
    for lo in range(0, T, BLOCK):
        out[:, lo:lo + BLOCK] = (a[:, lo:lo + BLOCK].reshape(-1, K) @ W).reshape(B, -1, W.shape[1])
    return out


def vanilla_forward(params: VanillaParams, x: np.ndarray, h0=None,
                    buffers: Buffers | None = None):
    """Run the vanilla cell over a sequence batch.

    Returns (outputs, trace) with outputs of shape (B, T, D_out).
    """
    x = _check_seq(x, params.W_h.shape[1], "vanilla_forward")
    B, T, _ = x.shape
    H = params.W_h.shape[0]
    h = _init_state(h0, B, H, "vanilla_forward")

    xw = _blockwise_matmul(x, params.W_h.T) + params.b_h

    hs = _empty(buffers, "hs", (B, T + 1, H))
    hs[:, 0] = h
    for t in range(T):
        h = np.tanh(xw[:, t] + h @ params.U_h.T)
        hs[:, t + 1] = h

    ys = _blockwise_matmul(hs[:, 1:], params.W_y.T) + params.b_y
    return ys, VanillaTrace(x=x, hs=hs)


def vanilla_backward(trace: VanillaTrace, params: VanillaParams, dy: np.ndarray,
                     buffers: Buffers | None = None):
    """BPTT through the vanilla cell.

    ``dy`` holds the loss gradient w.r.t. every output y_t, shape (B, T, O).
    Returns (grads, dx, dh0).
    """
    x, hs = trace.x, trace.hs
    B, T, D = x.shape
    H = params.W_h.shape[0]
    dy = np.asarray(dy, dtype=np.float64)
    if dy.shape[:2] != (B, T):
        raise ValueError(f"vanilla_backward: upstream shape {dy.shape} mismatches trace ({B},{T},...)")

    h_out = hs[:, 1:]
    dh_from_y = dy.reshape(B * T, -1) @ params.W_y
    dh_from_y = dh_from_y.reshape(B, T, H)

    da = _empty(buffers, "da", (B, T, H))
    dh_next = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        dh = dh_from_y[:, t] + dh_next
        da_t = dh * (1.0 - h_out[:, t] ** 2)
        da[:, t] = da_t
        dh_next = da_t @ params.U_h
    dh0 = dh_next

    da2 = da.reshape(B * T, H)
    x2 = x.reshape(B * T, D)
    dy2 = dy.reshape(B * T, -1)
    grads = VanillaParams(
        W_h=da2.T @ x2,
        U_h=da2.T @ hs[:, :-1].reshape(B * T, H),
        b_h=da2.sum(axis=0, keepdims=True),
        W_y=dy2.T @ h_out.reshape(B * T, H),
        b_y=dy2.sum(axis=0, keepdims=True),
    )
    dx = (da2 @ params.W_h).reshape(B, T, D)
    return grads, dx, dh0


# ---------------------------------------------------------------------------
# GRU
# ---------------------------------------------------------------------------

@dataclass
class GruTrace(_ArrayFields):
    # (B, T, .) views of time-major (T, B, .) buffers, see gru_forward
    x: np.ndarray     # (B, T, D)
    hs: np.ndarray    # (B, T+1, H)
    z: np.ndarray     # (B, T, H)
    r: np.ndarray     # (B, T, H)
    hc: np.ndarray    # (B, T, H) tanh candidate


def _batch_major(a: np.ndarray) -> np.ndarray:
    """(T, B, .) <-> (B, T, .) as a view."""
    return a.transpose(1, 0, 2)


def gru_forward(params: GruParams, x: np.ndarray, h0=None, buffers: Buffers | None = None):
    """GRU over a sequence batch; returns (hidden states (B,T,H), trace).

    The recurrence runs time-major: ``x`` is copied once into a (T, B, D)
    array (no copy when it already is a view of one, as the output of a
    GRU layer below is), and every per-step read and write is a contiguous
    (B, .) block.  The input side of all three gates is one GEMM over the
    stacked W_z|W_r|W_h per block of ``BLOCK`` steps, written into one
    reused (BLOCK, B, 3, H) slab; each step writes ``h @ U_z.T`` and
    ``h @ U_r.T`` straight into its (2, B, H) gate block and does its
    elementwise work in place, with no per-step temporaries.  The outputs
    and the trace fields are (B, T, .) views of the time-major buffers.
    """
    x = _check_seq(x, params.W_z.shape[1], "gru_forward")
    B, T, D = x.shape
    H = params.W_z.shape[0]
    h0 = _init_state(h0, B, H, "gru_forward")

    xt = np.ascontiguousarray(_batch_major(x))
    W = np.concatenate([params.W_z, params.W_r, params.W_h]).T
    b = np.stack([params.b_z, params.b_r, params.b_h], axis=1)
    U_zr = np.stack([params.U_z.T, params.U_r.T])   # (2, H, H)
    U_h = params.U_h.T

    # scratch first, the states (they outlive the call) last: freed scratch
    # then lies below live memory, where the allocator reuses it instead of
    # returning it to the OS, and calls per block fault in no fresh pages
    xg = np.empty((min(BLOCK, T), B, 3, H))   # input side of BLOCK steps
    rh = np.empty((B, H))                     # r_t * h_{t-1}
    zr = _empty(buffers, "zr", (T, 2, B, H))   # z_t, r_t
    hc = _empty(buffers, "hc", (T, B, H))
    hs = _empty(buffers, "hs", (T + 1, B, H))
    hs[0] = h0
    for t in range(T):
        k = t % BLOCK
        if k == 0:
            n = min(BLOCK, T - t)
            np.matmul(xt[t:t + n].reshape(n * B, D), W, out=xg[:n].reshape(n * B, 3 * H))
            xg[:n] += b
        h = hs[t]
        zr_t = np.matmul(h, U_zr, out=zr[t])
        zr_t += xg[k, :, :2].swapaxes(0, 1)
        sigmoid(zr_t, out=zr_t)
        z_t, r_t = zr_t
        np.multiply(r_t, h, out=rh)
        hc_t = np.matmul(rh, U_h, out=hc[t])
        hc_t += xg[k, :, 2]
        np.tanh(hc_t, out=hc_t)
        # h_t = h + z_t * (hc_t - h)
        h_t = np.subtract(hc_t, h, out=hs[t + 1])
        h_t *= z_t
        h_t += h

    trace = GruTrace(x=_batch_major(xt), hs=_batch_major(hs), z=_batch_major(zr[:, 0]),
                     r=_batch_major(zr[:, 1]), hc=_batch_major(hc))
    return _batch_major(hs)[:, 1:], trace


def gru_backward(trace: GruTrace, params: GruParams, dh_up: np.ndarray,
                 buffers: Buffers | None = None):
    """BPTT through the GRU; ``dh_up`` is dLoss/dh_t, shape (B, T, H).

    Returns (grads, dx, dh0).  Runs time-major like the forward: the trace
    fields and ``dh_up`` are read as (T, B, .) views, and each step works
    in place in its (B, 3H) block of the gate pre-activation gradient
    buffer and a few reused (B, H) arrays.  The weight gradients are
    stacked GEMMs after the loop, and ``dx`` is a (B, T, D) view.
    """
    B, T, D = trace.x.shape
    H = trace.z.shape[2]
    dh_up = np.asarray(dh_up, dtype=np.float64)
    if dh_up.shape != (B, T, H):
        raise ValueError(f"gru_backward: upstream shape {dh_up.shape} != ({B},{T},{H})")
    xt, hs, z, r, hc, dh_up = (_batch_major(a) for a in
                               (trace.x, trace.hs, trace.z, trace.r, trace.hc, dh_up))

    U_zr = np.concatenate([params.U_z, params.U_r])
    da = _empty(buffers, "da", (T, B, 3 * H))   # da_z | da_r | da_h
    dh = np.zeros((B, H))          # dLoss/dh_t, then dLoss/dh_{t-1}
    drh = np.empty((B, H))         # dLoss/d(r_t * h_{t-1})
    one_minus_z = np.empty((B, H))
    tmp = np.empty((B, H))
    for t in range(T - 1, -1, -1):
        h_prev, z_t, r_t, hc_t = hs[t], z[t], r[t], hc[t]
        da_z, da_r, da_h = da[t, :, :H], da[t, :, H:2 * H], da[t, :, 2 * H:]
        dh += dh_up[t]

        # da_h = dh * z_t * (1 - hc_t^2)
        np.multiply(hc_t, hc_t, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        np.multiply(dh, z_t, out=da_h)
        da_h *= tmp
        np.matmul(da_h, params.U_h, out=drh)

        # da_z = dh * (hc_t - h_prev) * z_t * (1 - z_t)
        np.subtract(1.0, z_t, out=one_minus_z)
        np.subtract(hc_t, h_prev, out=da_z)
        da_z *= dh
        da_z *= z_t
        da_z *= one_minus_z

        # da_r = drh * h_prev * r_t * (1 - r_t)
        np.multiply(drh, h_prev, out=da_r)
        da_r *= r_t
        np.subtract(1.0, r_t, out=tmp)
        da_r *= tmp

        # dh_prev = dh * (1 - z_t) + drh * r_t + [da_z|da_r] @ [U_z;U_r]
        dh *= one_minus_z
        np.multiply(drh, r_t, out=tmp)
        dh += tmp
        np.matmul(da[t, :, :2 * H], U_zr, out=tmp)
        dh += tmp

    x2 = xt.reshape(T * B, D)
    hp2 = hs[:-1].reshape(T * B, H)
    rh2 = np.multiply(r, hs[:-1], out=_empty(buffers, "rh", (T, B, H))).reshape(T * B, H)
    da2 = da.reshape(T * B, 3 * H)
    dW = da2.T @ x2
    dU_zr = da2[:, :2 * H].T @ hp2
    db = da2.sum(axis=0, keepdims=True)
    grads = GruParams(
        W_z=dW[:H], U_z=dU_zr[:H], b_z=db[:, :H],
        W_r=dW[H:2 * H], U_r=dU_zr[H:], b_r=db[:, H:2 * H],
        W_h=dW[2 * H:], U_h=da2[:, 2 * H:].T @ rh2, b_h=db[:, 2 * H:],
    )
    dx = _empty(buffers, "dx", (T, B, D))
    np.matmul(da2, np.concatenate([params.W_z, params.W_r, params.W_h]),
              out=dx.reshape(T * B, D))
    return grads, _batch_major(dx), dh


# ---------------------------------------------------------------------------
# SRU
# ---------------------------------------------------------------------------

@dataclass
class SruTrace(_ArrayFields):
    x: np.ndarray      # (B, T, D)
    xhat: np.ndarray   # (B, T, H)
    f: np.ndarray      # (B, T, H)
    r: np.ndarray      # (B, T, H)
    cs: np.ndarray     # (B, T+1, H), cs[:,0] = c0
    xh: np.ndarray     # (B, T, H) highway input (x or its projection)
    tanh_c: np.ndarray  # (B, T, H)


def sru_forward(params: SruParams, x: np.ndarray, c0=None, buffers: Buffers | None = None):
    """SRU over a sequence batch; returns (outputs (B,T,H), trace).

    Runs time-major like ``gru_forward``: ``x`` is copied once into a
    (T, B, D) array (no copy when it already is a view of one, as the
    output of an SRU layer below is).  W x_t, W_f x_t, W_r x_t (and
    W_p x_t) are one batched GEMM over the stacked matrices per block of
    ``BLOCK`` steps, written gate-major into (k, ., B, H) slab blocks whose
    gate biases and sigmoids are applied in place; only the elementwise
    c_t scan is sequential, and it steps over contiguous (B, H) blocks.
    The outputs and the trace fields are (B, T, .) views of the time-major
    buffers.
    """
    x = _check_seq(x, params.W.shape[1], "sru_forward")
    B, T, D = x.shape
    H = params.W.shape[0]
    c0 = _init_state(c0, B, H, "sru_forward")

    weights = [params.W, params.W_f, params.W_r]
    if params.W_p is not None:
        weights.append(params.W_p)
    elif D != H:
        raise ValueError(
            f"sru: highway needs input dim == hidden dim ({D} != {H}) "
            "or a projection matrix W_p")
    k = len(weights)
    xt = np.ascontiguousarray(_batch_major(x))
    W = np.stack([w.T for w in weights])                 # (k, D, H)
    b = np.stack([params.b_f, params.b_r])[:, None]      # (2, 1, 1, H)

    # scratch first and the states last, as in gru_forward
    tmp = np.empty((min(BLOCK, T), B, H))
    fc = np.empty((B, H))              # f_t * c_{t-1}
    slab = _empty(buffers, "slab", (k, T, B, H))   # xhat, f, r (, W_p x)
    cs = _empty(buffers, "cs", (T + 1, B, H))
    tanh_c = _empty(buffers, "tanh_c", (T, B, H))
    hs = _empty(buffers, "hs", (T, B, H))
    cs[0] = c0
    for lo in range(0, T, BLOCK):
        n = min(BLOCK, T - lo)
        blk = slab[:, lo:lo + n]
        np.matmul(xt[lo:lo + n].reshape(n * B, D), W, out=blk.reshape(k, n * B, H))
        gates = blk[1:3]
        gates += b
        sigmoid(gates, out=gates)
        xhat, f, r = blk[:3]
        xh = blk[3] if params.W_p is not None else xt[lo:lo + n]

        # c_t = f_t * c_{t-1} + (1 - f_t) * xhat_t, scanned in place in cs
        c = cs[lo:lo + n + 1]
        np.subtract(1.0, f, out=tmp[:n])
        np.multiply(tmp[:n], xhat, out=c[1:])
        for j in range(n):
            np.multiply(f[j], c[j], out=fc)
            c[j + 1] += fc

        # h_t = (1 - r_t) * xh_t + r_t * tanh(c_t)
        th = np.tanh(c[1:], out=tanh_c[lo:lo + n])
        h = np.subtract(1.0, r, out=hs[lo:lo + n])
        h *= xh
        h += np.multiply(r, th, out=tmp[:n])

    xhat, f, r = (_batch_major(a) for a in slab[:3])
    xh = slab[3] if params.W_p is not None else xt
    trace = SruTrace(x=_batch_major(xt), xhat=xhat, f=f, r=r, cs=_batch_major(cs),
                     xh=_batch_major(xh), tanh_c=_batch_major(tanh_c))
    return _batch_major(hs), trace


def sru_backward(trace: SruTrace, params: SruParams, dh_up: np.ndarray,
                 buffers: Buffers | None = None):
    """BPTT through the SRU; ``dh_up`` is dLoss/dh_t, shape (B, T, H).

    Returns (grads, dx, dc0).  Runs time-major like the forward: the trace
    fields and ``dh_up`` are read as (T, B, .) views.  The elementwise work
    and the reverse c-scan run per block of ``BLOCK`` steps, from the last
    block back, carrying f_t * dLoss/dc_t from each block to the one
    before, so dLoss/dc_t needs one block of scratch.  The gradients of
    xhat, the f and r pre-activations and the highway input go gate-major
    into one (4, T, B, H) buffer, so after the loop the weight gradients
    are one batched GEMM, and ``dx`` is a (B, T, D) view.
    """
    B, T, D = trace.x.shape
    H = trace.f.shape[2]
    dh_up = np.asarray(dh_up, dtype=np.float64)
    if dh_up.shape != (B, T, H):
        raise ValueError(f"sru_backward: upstream shape {dh_up.shape} != ({B},{T},{H})")
    xt, xhat, f, r, cs, xh, tanh_c, dh_up = (_batch_major(a) for a in (
        trace.x, trace.xhat, trace.f, trace.r, trace.cs, trace.xh, trace.tanh_c, dh_up))

    gc = np.empty((min(BLOCK, T), B, H))   # dLoss/dc_t over one block
    tmp = np.empty_like(gc)
    step = np.empty((B, H))
    carry = np.zeros((B, H))               # f_t * dLoss/dc_t at the block's first t
    da = _empty(buffers, "da", (4, T, B, H))   # d xhat | d a_f | d a_r | d xh
    for lo in reversed(range(0, T, BLOCK)):
        hi = min(lo + BLOCK, T)
        g, tm = gc[:hi - lo], tmp[:hi - lo]
        dxhat, da_f, da_r, dxh = da[:, lo:hi]
        up, f_b, r_b, th = dh_up[lo:hi], f[lo:hi], r[lo:hi], tanh_c[lo:hi]

        np.subtract(1.0, r_b, out=tm)                # 1 - r
        np.multiply(up, tm, out=dxh)
        np.subtract(th, xh[lo:hi], out=da_r)
        da_r *= up
        da_r *= r_b
        da_r *= tm

        # reverse scan, in place: gc_t = dc_direct_t + f_{t+1} * gc_{t+1}
        np.multiply(up, r_b, out=g)
        np.multiply(th, th, out=tm)
        np.subtract(1.0, tm, out=tm)
        g *= tm
        if hi < T:
            g[-1] += carry
        for j in range(hi - lo - 2, -1, -1):
            g[j] += np.multiply(f_b[j + 1], g[j + 1], out=step)
        np.multiply(f_b[0], g[0], out=carry)

        np.subtract(1.0, f_b, out=tm)                # 1 - f
        np.multiply(g, tm, out=dxhat)
        np.subtract(cs[lo:hi], xhat[lo:hi], out=da_f)
        da_f *= g
        da_f *= f_b
        da_f *= tm

    k = 3 if params.W_p is None else 4
    x2 = xt.reshape(T * B, D)
    da2 = da.reshape(4, T * B, H)
    dW = np.matmul(da2[:k].transpose(0, 2, 1), x2)   # (k, H, D)
    db = da2[1:3].sum(axis=1, keepdims=True)
    grads = SruParams(W=dW[0], W_f=dW[1], b_f=db[0], W_r=dW[2], b_r=db[1],
                      W_p=dW[3] if params.W_p is not None else None)
    dx = _empty(buffers, "dx", (T, B, D))
    term = _empty(buffers, "dx_term", (T * B, D))
    dx2 = np.matmul(da2[0], params.W, out=dx.reshape(T * B, D))
    dx2 += np.matmul(da2[1], params.W_f, out=term)
    dx2 += np.matmul(da2[2], params.W_r, out=term)
    dx2 += np.matmul(da2[3], params.W_p, out=term) if params.W_p is not None else da2[3]
    return grads, _batch_major(dx), carry


# ---------------------------------------------------------------------------
# dispatch helpers used by the network module
# ---------------------------------------------------------------------------

# parameter type -> (forward, backward, trace type)
_CELLS = {
    VanillaParams: (vanilla_forward, vanilla_backward, VanillaTrace),
    GruParams: (gru_forward, gru_backward, GruTrace),
    SruParams: (sru_forward, sru_backward, SruTrace),
}


def _cell(params: CellParams):
    try:
        return _CELLS[type(params)]
    except KeyError:
        raise TypeError(f"unknown cell parameter type {type(params)}") from None


def cell_forward(params: CellParams, x: np.ndarray, state0=None,
                 buffers: Buffers | None = None):
    """Dispatch to the matching forward pass."""
    return _cell(params)[0](params, x, state0, buffers)


def final_state(trace) -> np.ndarray:
    """The state a forward leaves, (B, H): c_T for the SRU, else h_T.  A
    call over the rest of the sequence started from it continues exactly."""
    return (trace.cs if isinstance(trace, SruTrace) else trace.hs)[:, -1]


def cell_backward(trace, params: CellParams, upstream: np.ndarray,
                  buffers: Buffers | None = None):
    """Dispatch to the matching backward pass; trace and params must pair up."""
    _, backward, trace_type = _cell(params)
    if not isinstance(trace, trace_type):
        raise TypeError(f"trace/params mismatch: {type(params).__name__} "
                        f"need a {trace_type.__name__}")
    return backward(trace, params, upstream, buffers)
