"""Recurrent cells: vanilla RNN, GRU and SRU, with hand-derived BPTT.

All forward functions take a batch of sequences ``x`` of shape (B, T, D_in)
and return per-timestep outputs of shape (B, T, D_out) plus a trace holding
the cached activations the backward pass needs.  Weight matrices are named
hidden x input (so the batched product is ``x @ W.T``) and biases as 1 x n
row vectors; the GRU and the SRU store theirs stacked, input x hidden, in
the matrices their kernels compute with, and serve those names as views.

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
              = xhat_t + f_t * (c_{t-1} - xhat_t)       (as computed)
          h_t = r_t * tanh(c_t) + (1 - r_t) * xh_t
              = xh_t + r_t * (tanh(c_t) - xh_t)         (as computed)

where xh_t is x_t itself when D_in == hidden, else a learned projection
W_p x_t.  The computed forms take fewer elementwise passes and round
differently from the first ones, which the tests' reference cells keep.
The SRU gates depend only on x_t, so the matrix products for every
timestep are one batched GEMM over the stacked W|W_f|W_r(|W_p) before the
light sequential scan over c_t (Lei et al., 2018).  The GRU's gates depend
on h_{t-1}, so each step computes them with two GEMMs against augmented
matrices that hold the input projections and biases as well as U (see
``gru_forward``; Appleyard et al., 2016, likewise stack gate matrices into
fewer, larger GEMMs).  ``GruParams`` and ``SruParams`` hold exactly
these stacks, so no call builds them.

The GRU and the SRU store their recurrences time-major, in (T, B, .)
buffers, so that each of their T sequential steps reads and writes
contiguous (B, .) blocks instead of strided x[:, t] slices of a (B, T, .)
array (the usual RNN layout, Appleyard et al., 2016).  Their outputs,
``dx`` and trace fields are (B, T, .) views of those buffers, so callers
see the same shapes as for the vanilla cell, which stays batch-major
because nothing here runs it at scale.  Within a step the GRU computes
feature-major, on (., B) columns: its gate GEMMs take the transposed
augmented matrices (C-order, as the matrices are column-major) on the
left, which BLAS runs faster than the batch-major product, and leave z
and r as contiguous row blocks; the traced call writes each step's gates
and state transposed into its (T, B, .) trace, so the backward stays
batch-major, and the streamed call keeps its state as (H, B).  The two
orientations round some products differently, so the streamed and the
traced call share the one orientation.  The SRU's input-side GEMMs run
over blocks of ``BLOCK`` time steps (Appleyard et al. batch that GEMM
over groups of steps in the same way), and so do the vanilla cell's input
and readout GEMMs; the GRU's work is all per step.  So a call over a
sequence computes bit for bit what a call per block of ``BLOCK`` steps
does, each started from the ``final_state`` of the block before, and for
the GRU what a call per step does: the network's inference streams its
layer stack that way, ``stream_step`` steps per call, the GRU one step
and the other cells one block.  The SRU and the vanilla cell keep their
blocks because an SGEMM row's bits can depend on how many rows the GEMM
has, so their per-step products would differ from the traced pass's
per-block ones.

Every forward and backward computes in its parameters' dtype: float32 for
a network's (``numerics.init_params``), float64 for the tests' gradient
checks and reference comparisons.  Inputs, initial states and upstream
gradients are cast to it on entry (the GRU and SRU cast ``x`` in their
time-major copy, a streamed SRU call one block of it, and a streamed GRU
call casts its step straight into its column buffer), and every
output, trace field, scratch array and gradient has it.

Backward passes return exact gradients of the forward map and were written
to be checked against central finite differences (see tests); the
per-timestep pre-activation gradients are buffered so that all weight
gradients reduce to a handful of large GEMMs after the sequential loop.

Every forward and backward takes an optional :class:`Buffers`, from which
it takes its trace and gradient arrays that grow with the sequence by
name instead of allocating them; a network keeps one per layer as its
training workspace (``Network.buffers``) and hands it to every traced
forward and backward, so that after the network's first step at its
largest batch no call maps and faults in fresh pages.  An array from a
buffers-backed call is overwritten by the next call with the same
buffers: a forward's outputs and trace stay valid until the next
forward, a backward's ``dx`` until the next backward.  Without buffers,
every call allocates its own arrays.

A GRU or SRU forward also takes an optional ``scratch`` :class:`Buffers`,
which makes it a streamed call: the arrays that die with the call (the
GRU's column buffer and gate block, the SRU's cast input block, two gate
planes and a (B, H) plane for the gate biases and the c scan) come from
it, so one scratch serves every layer of a network's inference, and
``buffers`` holds only the outputs and the state the call leaves (the
GRU's h_t, (H, B), which a one-step call writes over h_{t-1}; the SRU's
block output and c_T: its c_t and tanh(c_t) live in a gate plane).  Its
trace holds only ``x`` and the state and serves ``final_state``, a view
of ``buffers``, until the next call with those buffers, and no backward.
A backward's ``input_grad=False`` skips ``dx``, which nothing reads below
the bottom layer.
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
    "stream_step",
    "row_major",
]


class _ArrayFields:
    """Mixin: iterate dataclass ndarray fields as (name, array) pairs, or,
    for a class that stores fused arrays, the per-matrix views it names in
    ``_NAMES``."""

    _NAMES = ()

    def named(self):
        for name in self._NAMES or [f.name for f in fields(self)]:
            value = getattr(self, name)
            if value is not None:
                yield name, value


@dataclass
class VanillaParams(_ArrayFields):
    W_h: np.ndarray  # (H, D_in)
    U_h: np.ndarray  # (H, H)
    b_h: np.ndarray  # (1, H)
    W_y: np.ndarray  # (D_out, H)
    b_y: np.ndarray  # (1, D_out)


def _gru_view(name: str) -> property:
    """The matrix ``name`` (W_z ... b_h) as a view of a GRU's augmented
    matrices; W and U read transposed, as (H, D_in) and (H, H)."""
    kind, gate = name.split("_")

    def view(p):
        H = p.A_h.shape[1]
        D = len(p.A_h) - 1 - H
        if gate == "h":   # A_h = [W_h; b_h; U_h]
            block = p.A_h[{"W": slice(0, D), "b": slice(D, D + 1), "U": slice(D + 1, None)}[kind]]
        else:             # A_zr = [U_z|U_r; W_z|W_r; b_z|b_r]
            rows = {"U": slice(0, H), "W": slice(H, H + D), "b": slice(H + D, None)}[kind]
            col = "zr".index(gate) * H
            block = p.A_zr[rows, col:col + H]
        return block if kind == "b" else block.T
    return property(view)


@dataclass
class GruParams(_ArrayFields):
    """A GRU layer's two augmented matrices, every matrix in them transposed
    (see ``gru_forward``); the per-matrix names are views of them.  Both are
    column-major, so W_z ... U_h are row-major, with strided rows, and the
    forward's feature-major GEMMs take A_zr.T and A_h.T as C-order left
    operands; row-major A_zr and A_h would round those GEMMs differently at
    some sizes."""
    A_zr: np.ndarray   # [U_z|U_r; W_z|W_r; b_z|b_r], (H+D_in+1, 2H)
    A_h: np.ndarray    # [W_h; b_h; U_h], (D_in+1+H, H)

    _NAMES = ("W_z", "U_z", "b_z", "W_r", "U_r", "b_r", "W_h", "U_h", "b_h")
    W_z, U_z, b_z, W_r, U_r, b_r, W_h, U_h, b_h = map(_gru_view, _NAMES)


@dataclass
class SruParams(_ArrayFields):
    """An SRU layer's weight stack and gate biases (see ``sru_forward``);
    the per-matrix names are views of them, W_p None when D_in == H.  Each
    matrix of the stack is column-major, so W ... W_p are C-contiguous."""
    W_stack: np.ndarray   # [W; W_f; W_r(; W_p)] transposed, (k, D_in, H)
    b_fr: np.ndarray      # [b_f; b_r], (2, 1, H)

    _NAMES = ("W", "W_f", "b_f", "W_r", "b_r", "W_p")
    W = property(lambda p: p.W_stack[0].T)
    W_f = property(lambda p: p.W_stack[1].T)
    W_r = property(lambda p: p.W_stack[2].T)
    W_p = property(lambda p: p.W_stack[3].T if len(p.W_stack) == 4 else None)
    b_f = property(lambda p: p.b_fr[0])
    b_r = property(lambda p: p.b_fr[1])


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
    """W and U drawn in ``named()`` order, each as its own matrix; biases zero."""
    params = GruParams(A_zr=np.zeros((2 * hidden, hidden + input_dim + 1), np.float32).T,
                       A_h=np.zeros((hidden, input_dim + 1 + hidden), np.float32).T)
    for name, view in params.named():
        if name[0] != "b":
            view[...] = init_params(*view.shape, "uniform-scaled", rng)
    return params


def init_sru(input_dim: int, hidden: int, rng: np.random.Generator) -> SruParams:
    """W_p (when D_in != H) drawn first, then W, W_f and W_r; biases zero."""
    k = 3 if input_dim == hidden else 4
    params = SruParams(W_stack=np.empty((k, hidden, input_dim), np.float32).transpose(0, 2, 1),
                       b_fr=np.zeros((2, 1, hidden), np.float32))
    for name in ["W_p", "W", "W_f", "W_r"][4 - k:]:
        getattr(params, name)[...] = init_params(hidden, input_dim, "uniform-scaled", rng)
    return params


def _check_seq(x: np.ndarray, input_dim: int, who: str) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 3:
        raise ValueError(f"{who}: expected (batch, time, features) input, got shape {x.shape}")
    if x.shape[2] != input_dim:
        raise ValueError(f"{who}: input feature dim {x.shape[2]} != parameter dim {input_dim}")
    return x


def _init_state(state, out: np.ndarray, who: str) -> np.ndarray:
    """Write the initial state (zeros if None) into the (B, H) array ``out``
    and return ``out``.  ``state`` may share memory with ``out``, as the
    state a previous call left in the same buffers does; when it is a view
    of ``out`` itself, ``np.copyto`` skips the copy."""
    if state is None:
        out.fill(0.0)
        return out
    state = np.asarray(state)
    if state.shape != out.shape:
        raise ValueError(f"{who}: initial state shape {state.shape} != {out.shape}")
    np.copyto(out, state, casting="unsafe")
    return out


# time steps per input-side GEMM of the SRU and the vanilla cell, per block
# of the SRU's backward scan, and per call of their streamed inference in
# the network (the GRU computes everything per step and does not use it)
BLOCK = 8


class Buffers:
    """Arrays handed out by name to one layer's forward and backward passes.

    Each name keeps one flat array that only grows: ``array(name, shape,
    dtype)`` hands out its first ``prod(shape)`` elements as a C-contiguous
    view of that shape, so a smaller batch (an epoch's partial last one)
    reuses the memory of a larger one; asking for another dtype replaces
    the array.  Its contents are left as they are, like ``np.empty``'s.
    The view handed out for a (name, shape, dtype) is kept and handed out
    again until the name's array is replaced, so a streamed call, which
    asks for the same arrays every step, builds no new view.
    """

    def __init__(self):
        self._flat = {}
        self._views = {}

    def array(self, name: str, shape: tuple, dtype) -> np.ndarray:
        key = (name, shape, dtype)
        view = self._views.get(key)
        if view is not None:
            return view
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size or flat.dtype != dtype:
            # drop the old array before making the new one, so that the two
            # are not both held here (a caller's view still keeps it alive)
            self._views = {k: v for k, v in self._views.items() if k[0] != name}
            flat = self._flat[name] = None
            flat = self._flat[name] = np.empty(size, dtype)
        view = self._views[key] = flat[:size].reshape(shape)
        return view


def _empty(buffers: Buffers | None, name: str, shape: tuple, dtype) -> np.ndarray:
    return np.empty(shape, dtype) if buffers is None else buffers.array(name, shape, dtype)


def _batch_major(a: np.ndarray) -> np.ndarray:
    """(T, B, .) <-> (B, T, .) as a view."""
    return a.transpose(1, 0, 2)


def _time_major(x: np.ndarray, dtype, scratch: Buffers | None) -> np.ndarray:
    """(B, T, D) ``x`` as a C-contiguous (T, B, D) array of ``dtype``: a view
    when it already is one (a GRU or SRU layer's output), else a cast copy,
    in ``scratch`` if given."""
    xt = _batch_major(x)
    if xt.dtype == dtype and xt.flags.c_contiguous:
        return xt
    out = _empty(scratch, "x", xt.shape, dtype)
    np.copyto(out, xt, casting="unsafe")
    return out


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
    out = np.empty((B, T, W.shape[1]), W.dtype)
    for lo in range(0, T, BLOCK):
        out[:, lo:lo + BLOCK] = (a[:, lo:lo + BLOCK].reshape(-1, K) @ W).reshape(B, -1, W.shape[1])
    return out


def vanilla_forward(params: VanillaParams, x: np.ndarray, h0=None,
                    buffers: Buffers | None = None, scratch: Buffers | None = None):
    """Run the vanilla cell over a sequence batch.

    Returns (outputs, trace) with outputs of shape (B, T, D_out).  As
    nothing runs the vanilla cell at scale, it takes no ``scratch``: the
    argument is accepted only to share the GRU's and the SRU's signature.
    """
    dtype = params.W_h.dtype
    x = _check_seq(x, params.W_h.shape[1], "vanilla_forward").astype(dtype, copy=False)
    B, T, _ = x.shape
    H = params.W_h.shape[0]

    xw = _blockwise_matmul(x, params.W_h.T) + params.b_h

    hs = _empty(buffers, "hs", (B, T + 1, H), dtype)
    h = _init_state(h0, hs[:, 0], "vanilla_forward")
    for t in range(T):
        h = np.tanh(xw[:, t] + h @ params.U_h.T)
        hs[:, t + 1] = h

    ys = _blockwise_matmul(hs[:, 1:], params.W_y.T) + params.b_y
    return ys, VanillaTrace(x=x, hs=hs)


def vanilla_backward(trace: VanillaTrace, params: VanillaParams, dy: np.ndarray,
                     buffers: Buffers | None = None, input_grad: bool = True):
    """BPTT through the vanilla cell.

    ``dy`` holds the loss gradient w.r.t. every output y_t, shape (B, T, O).
    Returns (grads, dx, dh0), ``dx`` None with ``input_grad=False``.
    """
    x, hs = trace.x, trace.hs
    B, T, D = x.shape
    H = params.W_h.shape[0]
    dtype = params.W_h.dtype
    dy = np.asarray(dy, dtype=dtype)
    if dy.shape[:2] != (B, T):
        raise ValueError(f"vanilla_backward: upstream shape {dy.shape} mismatches trace ({B},{T},...)")

    h_out = hs[:, 1:]
    dh_from_y = dy.reshape(B * T, -1) @ params.W_y
    dh_from_y = dh_from_y.reshape(B, T, H)

    da = _empty(buffers, "da", (B, T, H), dtype)
    dh_next = np.zeros((B, H), dtype)
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
    dx = (da2 @ params.W_h).reshape(B, T, D) if input_grad else None
    return grads, dx, dh0


# ---------------------------------------------------------------------------
# GRU
# ---------------------------------------------------------------------------

@dataclass
class GruTrace(_ArrayFields):
    # (B, T, .) views of time-major (T, B, .) buffers, see gru_forward; a
    # streamed call's holds x and its h buffer, and None for the gates
    x: np.ndarray     # (B, T, D)
    hs: np.ndarray    # (B, T+1, H)
    z: np.ndarray     # (B, T, H)
    r: np.ndarray     # (B, T, H)
    hc: np.ndarray    # (B, T, H) tanh candidate


def gru_forward(params: GruParams, x: np.ndarray, h0=None, buffers: Buffers | None = None,
                scratch: Buffers | None = None):
    """GRU over a sequence batch; returns (hidden states (B,T,H), trace).

    The recurrence runs time-major and feature-major: ``x`` is copied once
    into a (T, B, D) array (no copy when it already is a view of one, as
    the output of a GRU layer below is), and each step works in one
    (2H+D+1, B) column buffer [h_{t-1}; x_t; 1; r_t * h_{t-1}], into whose
    x rows it copies its step transposed.  It computes its gate
    pre-activations with two GEMMs over row windows of the column: A_zr.T
    times [h; x; 1] gives z|r as one (2H, B) block whose halves z and r
    are contiguous row blocks, and A_h.T times [x; 1; r*h] the
    candidate's, into the r rows, which r * h has read by then; so the
    input projection and the biases ride in the recurrent products.
    ``params`` holds A_zr and A_h as they are, and their transposes are
    C-order.  Each step copies h_{t-1} into the column's h rows (a traced
    step after the first finds it there) and forms h_t as
    h + (hc_t - h) * z_t with the product formed in the candidate, which
    rounds as (hc_t - h) * z_t + h does since addition commutes: in place
    in the h rows in a traced call, straight into the state buffer in a
    streamed one.  The elementwise work is done in place, with no per-step
    temporaries.  A traced step writes z|r, the candidate and h_t transposed
    into the (T, B, .) trace buffers, so the outputs and the trace fields
    are (B, T, .) views of those; ``z`` and ``r`` are the column halves of
    the z|r blocks.

    A streamed call (given ``scratch``) takes the column and the gate
    block from ``scratch``, writes no trace buffer and makes no
    time-major copy of ``x``, whose steps it casts straight into the
    column (its trace's ``x`` is ``x``).  It keeps its outputs h_1 ... h_T
    feature-major, in a max(T, 1)-block (., H, B) buffer in ``buffers``
    whose first block starts as the initial state, and its outputs and
    trace are (B, T, H) views of that; so a GRU layer above reads the
    layer's h as its x rows, a contiguous (H, B) block.  Streamed one step
    per call, as the network's inference does, a layer holds one h: the
    state a call leaves is the next call's initial state, which
    ``_init_state`` then copies nowhere.
    """
    A_zr, A_h = params.A_zr, params.A_h
    dtype = A_h.dtype
    H = A_h.shape[1]
    D = len(A_zr) - H - 1
    x = _check_seq(x, D, "gru_forward")
    B, T, _ = x.shape
    streamed = scratch is not None

    # a streamed call reads its steps from x as given, cast into the column
    xt = _batch_major(x) if streamed else _time_major(x, dtype, None)

    # without a workspace, scratch first and the states (they outlive the
    # call) last: freed scratch then lies below live memory, where the
    # allocator reuses it instead of returning it to the OS
    col = _empty(scratch, "col", (2 * H + D + 1, B), dtype)   # [h_{t-1}; x_t; 1; r_t * h_{t-1}]
    zr_t = _empty(scratch, "zr", (2 * H, B), dtype)           # z_t; r_t, then hc_t
    if streamed:   # h_1 ... h_T, (H, B) each, the first starting as h_0
        states = _empty(buffers, "h", (max(T, 1), H, B), dtype)
        out = states
    else:          # h_0 ... h_T, (B, H) each, and the gates
        zr = _empty(buffers, "zr", (T, B, 2 * H), dtype)
        hc = _empty(buffers, "hc", (T, B, H), dtype)
        hs = _empty(buffers, "hs", (T + 1, B, H), dtype)
        states = hs.transpose(0, 2, 1)
        out = states[1:]
    h, x_col, rh = col[:H], col[H:H + D], col[H + D + 1:]
    zr_in, hc_in = col[:H + D + 1], col[H:]
    z_t, r_t = zr_t[:H], zr_t[H:]
    hc_t = r_t   # the candidate takes r_t's rows once r_t * h is formed
    prev = _init_state(h0, states[0].T, "gru_forward").T   # h_{t-1}
    col[H + D] = 1.0
    for t in range(T):
        np.copyto(h, prev)   # skipped when prev is h, as in a traced step after the first
        np.copyto(x_col, xt[t].T, casting="unsafe")
        np.matmul(A_zr.T, zr_in, out=zr_t)
        sigmoid(zr_t, out=zr_t)
        if not streamed:
            np.copyto(zr[t], zr_t.T)
        np.multiply(r_t, h, out=rh)
        np.matmul(A_h.T, hc_in, out=hc_t)
        np.tanh(hc_t, out=hc_t)
        if not streamed:
            np.copyto(hc[t], hc_t.T)
        # h_t = h + (hc_t - h) * z_t, the product formed in hc_t; a streamed
        # step adds straight into its state buffer, a traced one in place
        # and then copies h_t transposed into the trace
        np.subtract(hc_t, h, out=hc_t)
        hc_t *= z_t
        prev = np.add(h, hc_t, out=out[t] if streamed else h)
        if not streamed:
            np.copyto(out[t], h)

    if streamed:
        hs = states.transpose(2, 0, 1)
        return hs[:, :T], GruTrace(x=x, hs=hs, z=None, r=None, hc=None)
    trace = GruTrace(x=_batch_major(xt), hs=_batch_major(hs), z=_batch_major(zr[:, :, :H]),
                     r=_batch_major(zr[:, :, H:]), hc=_batch_major(hc))
    return _batch_major(hs[1:]), trace


def gru_backward(trace: GruTrace, params: GruParams, dh_up: np.ndarray,
                 buffers: Buffers | None = None, input_grad: bool = True):
    """BPTT through the GRU; ``dh_up`` is dLoss/dh_t, shape (B, T, H).

    Returns (grads, dx, dh0).  Runs time-major like the forward but
    batch-major within a step, on the (T, B, .) trace the forward writes
    transposed: the trace fields and ``dh_up`` are read as (T, B, .)
    views.  Each step does its elementwise work on contiguous (B, H)
    blocks: it copies z_t and r_t out of the trace's row-strided z|r
    halves into a (2, B, H) array, forms da_z, da_r and da_h in place in
    a (3, B, H) one, both in ``buffers``, and writes them into its (B, 3H)
    block of the gate pre-activation gradient buffer with one copy, from
    which the recurrent GEMM reads [da_z|da_r].  (numpy runs a ufunc over
    row-strided slices several times slower than over contiguous ones; a
    feature-major backward would need (., T*B) operands for its weight
    GEMMs, whose copies cost what its steps save.)  After the loop, three
    GEMMs fill the row blocks of the gradient's A_zr and A_h, and ``dx``
    is a (B, T, D) view, or None with ``input_grad=False``, which skips
    its GEMM.
    """
    B, T, D = trace.x.shape
    H = trace.z.shape[2]
    A_zr, A_h = params.A_zr, params.A_h
    dtype = A_h.dtype
    dh_up = np.asarray(dh_up, dtype=dtype)
    if dh_up.shape != (B, T, H):
        raise ValueError(f"gru_backward: upstream shape {dh_up.shape} != ({B},{T},{H})")
    xt, hs, z, r, hc, dh_up = (_batch_major(a) for a in
                               (trace.x, trace.hs, trace.z, trace.r, trace.hc, dh_up))

    U_zr, U_h = A_zr[:H].T, A_h[D + 1:].T   # [U_z; U_r], (2H, H), and U_h
    da = _empty(buffers, "da", (T, B, 3 * H), dtype)   # da_z | da_r | da_h
    z_t, r_t = _empty(buffers, "zr_t", (2, B, H), dtype)   # copied out of the trace
    da_t = _empty(buffers, "da_t", (3, B, H), dtype)       # step t's da_z, da_r, da_h
    da_z, da_r, da_h = da_t
    dh = np.zeros((B, H), dtype)          # dLoss/dh_t, then dLoss/dh_{t-1}
    drh = np.empty((B, H), dtype)         # dLoss/d(r_t * h_{t-1})
    one_minus_z = np.empty((B, H), dtype)
    tmp = np.empty((B, H), dtype)
    for t in range(T - 1, -1, -1):
        h_prev, hc_t = hs[t], hc[t]
        np.copyto(z_t, z[t])
        np.copyto(r_t, r[t])
        dh += dh_up[t]

        # da_h = dh * z_t * (1 - hc_t^2)
        np.multiply(hc_t, hc_t, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        np.multiply(dh, z_t, out=da_h)
        da_h *= tmp
        np.matmul(da_h, U_h, out=drh)

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
        np.copyto(da[t].reshape(B, 3, H), da_t.transpose(1, 0, 2))

        # dh_prev = dh * (1 - z_t) + drh * r_t + [da_z|da_r] @ [U_z;U_r]
        dh *= one_minus_z
        np.multiply(drh, r_t, out=tmp)
        dh += tmp
        np.matmul(da[t, :, :2 * H], U_zr, out=tmp)
        dh += tmp

    rh = np.multiply(r, hs[:-1], out=_empty(buffers, "rh", (T, B, H), dtype))
    da2 = da.reshape(T * B, 3 * H)
    grads = GruParams(A_zr=np.empty_like(A_zr), A_h=np.empty_like(A_h))
    dA_zr, dA_h = grads.A_zr, grads.A_h
    np.matmul(da2[:, :2 * H].T, hs[:-1].reshape(T * B, H), out=dA_zr[:H].T)   # [dU_z; dU_r]
    np.matmul(da2[:, 2 * H:].T, rh.reshape(T * B, H), out=dA_h[D + 1:].T)
    # [dW_z; dW_r; dW_h] as one GEMM: as two, the dW_h rows can round differently
    dW, db = da2.T @ xt.reshape(T * B, D), da2.sum(axis=0)
    dA_zr[H:H + D], dA_h[:D] = dW[:2 * H].T, dW[2 * H:].T
    dA_zr[H + D], dA_h[D] = db[:2 * H], db[2 * H:]
    if not input_grad:
        return grads, None, dh
    dx = _empty(buffers, "dx", (T, B, D), dtype)
    np.matmul(da2, np.concatenate([params.W_z, params.W_r, params.W_h]),
              out=dx.reshape(T * B, D))
    return grads, _batch_major(dx), dh


# ---------------------------------------------------------------------------
# SRU
# ---------------------------------------------------------------------------

def _add_bias(gate: np.ndarray, bias: np.ndarray, plane: np.ndarray) -> None:
    """Add the (1, H) ``bias`` to the (n, B, H) ``gate`` block through the
    (B, H) ``plane``, which it overwrites: broadcast from a contiguous plane
    over the block's steps only, the add needs no iteration buffer, which a
    (1, H) row broadcast over every row would."""
    np.copyto(plane, bias)
    gate += plane


@dataclass
class SruTrace(_ArrayFields):
    # a streamed call's holds x and c_T, and None for the rest
    x: np.ndarray      # (B, T, D)
    xhat: np.ndarray   # (B, T, H)
    f: np.ndarray      # (B, T, H)
    r: np.ndarray      # (B, T, H)
    cs: np.ndarray     # (B, T+1, H), cs[:,0] = c0
    xh: np.ndarray     # (B, T, H) highway input (x or its projection)
    tanh_c: np.ndarray  # (B, T, H)


def sru_forward(params: SruParams, x: np.ndarray, c0=None, buffers: Buffers | None = None,
                scratch: Buffers | None = None):
    """SRU over a sequence batch; returns (outputs (B,T,H), trace).

    Runs time-major like ``gru_forward``: ``x`` is copied once into a
    (T, B, D) array (no copy when it already is a view of one, as the
    output of an SRU layer below is).  W x_t, W_f x_t, W_r x_t (and
    W_p x_t) are one batched GEMM over ``params.W_stack`` per block of
    ``BLOCK`` steps, written gate-major into (k, ., B, H) slab blocks whose
    gate biases and sigmoids are applied in place; only the elementwise
    c_t scan is sequential, and it steps over contiguous (B, H) blocks.
    It scans c_t = xhat_t + f_t * (c_{t-1} - xhat_t) into ``cs``, three
    (B, H) operations a step, and forms h_t = xh_t + r_t * (tanh(c_t) -
    xh_t) in three passes, the difference in a one-block temporary, since
    the backward reads ``tanh_c``.  The outputs and the trace fields are
    (B, T, .) views of the time-major buffers.

    ``fc``, a (B, H) array, serves each block twice: as the plane each
    gate's bias is added from (see ``_add_bias``), then as the scan's
    f_t * (c_{t-1} - xhat_t).

    A streamed call (given ``scratch``) keeps nothing for a backward and
    holds one block's gates in two scratch planes instead of a k-plane
    slab.  The first holds xhat_t, then c_t (the scan runs in it), then
    tanh(c_t), then tanh(c_t) - xh_t.  The second holds f_t, then r_t.
    xhat and f come from the batched GEMM over the stack's first two
    matrices, r and W_p x_t each from a GEMM of its own, W_p x_t straight
    into the block output, where h_t is then formed in place (with the
    identity highway xh_t is the input block).  numpy's batched GEMM calls
    one SGEMM per matrix, so every product has the traced pass's bits, and
    every elementwise operation has the traced pass's operands (products
    and sums commute exactly), so the outputs are bit-identical.  It
    copies the c_T it leaves into ``buffers``, which its trace's ``cs``
    holds alone, and allocates no array.
    """
    W, b = params.W_stack, params.b_fr
    k, D, H = W.shape
    dtype = W.dtype
    x = _check_seq(x, D, "sru_forward")
    B, T, _ = x.shape
    if k == 3 and D != H:
        raise ValueError(
            f"sru: highway needs input dim == hidden dim ({D} != {H}) "
            "or a projection matrix W_p")

    xt = _time_major(x, dtype, scratch)
    streamed = scratch is not None

    # scratch first and the states last, as in gru_forward
    fc = _empty(scratch, "fc", (B, H), dtype)   # a gate's bias, then f_t * (c_{t-1} - xhat_t)
    if streamed:   # xhat_t, then c_t, then tanh(c_t) - xh_t | f_t, then r_t
        planes = _empty(scratch, "planes", (2, min(BLOCK, T), B, H), dtype)
        cs = _empty(buffers, "c", (1, B, H), dtype)         # c_T
    else:
        tmp = np.empty((min(BLOCK, T), B, H), dtype)        # tanh(c_t) - xh_t
        slab = _empty(buffers, "slab", (k, T, B, H), dtype)
        cs = _empty(buffers, "cs", (T + 1, B, H), dtype)    # c_0 ... c_T
        tanh_c = _empty(buffers, "tanh_c", (T, B, H), dtype)
    c = _init_state(c0, cs[0], "sru_forward")
    hs = _empty(buffers, "hs", (T, B, H), dtype)
    for lo in range(0, T, BLOCK):
        n = min(BLOCK, T - lo)
        x2 = xt[lo:lo + n].reshape(n * B, D)
        h = hs[lo:lo + n]
        # every gate, or in a streamed call xhat and f in its two planes
        blk = planes[:, :n] if streamed else slab[:, lo:lo + n]
        np.matmul(x2, W[:len(blk)], out=blk.reshape(len(blk), n * B, H))
        gates = blk[1:3]   # f, and in a traced call r
        for gate, bias in zip(gates, b):
            _add_bias(gate, bias, fc)
        sigmoid(gates, out=gates)
        xhat, f = blk[:2]
        cb = xhat if streamed else cs[lo + 1:lo + n + 1]

        # c_t = xhat_t + f_t * (c_{t-1} - xhat_t), scanned into cs, or in a
        # streamed call into the xhat plane
        for j in range(n):
            np.subtract(c, xhat[j], out=fc)
            fc *= f[j]
            c = np.add(xhat[j], fc, out=cb[j])

        # h_t = xh_t + r_t * (tanh(c_t) - xh_t), the difference formed in
        # tmp, or in a streamed call in the xhat plane
        if streamed:   # r_t in f's plane; W_p x_t in h
            np.copyto(cs[0], c)   # tanh(c_t) overwrites the xhat plane
            c = cs[0]
            r = f
            np.matmul(x2, W[2], out=r.reshape(n * B, H))   # the batched GEMM's SGEMM
            _add_bias(r, b[1], fc)
            sigmoid(r, out=r)
            if k == 4:
                np.matmul(x2, W[3], out=h.reshape(n * B, H))
            xh = h if k == 4 else xt[lo:lo + n]
            th = np.tanh(cb, out=cb)
            diff = np.subtract(th, xh, out=th)
        else:
            r = blk[2]
            xh = blk[3] if k == 4 else xt[lo:lo + n]
            th = np.tanh(cb, out=tanh_c[lo:lo + n])
            diff = np.subtract(th, xh, out=tmp[:n])
        diff *= r
        np.add(xh, diff, out=h)

    if streamed:
        trace = SruTrace(x=_batch_major(xt), xhat=None, f=None, r=None, cs=_batch_major(cs),
                         xh=None, tanh_c=None)
        return _batch_major(hs), trace
    xhat, f, r = (_batch_major(a) for a in slab[:3])
    xh = slab[3] if k == 4 else xt
    trace = SruTrace(x=_batch_major(xt), xhat=xhat, f=f, r=r, cs=_batch_major(cs),
                     xh=_batch_major(xh), tanh_c=_batch_major(tanh_c))
    return _batch_major(hs), trace


def sru_backward(trace: SruTrace, params: SruParams, dh_up: np.ndarray,
                 buffers: Buffers | None = None, input_grad: bool = True):
    """BPTT through the SRU; ``dh_up`` is dLoss/dh_t, shape (B, T, H).

    Returns (grads, dx, dc0).  Runs time-major like the forward: the trace
    fields and ``dh_up`` are read as (T, B, .) views.  The elementwise work
    and the reverse c-scan run per block of ``BLOCK`` steps, from the last
    block back, carrying f_t * dLoss/dc_t from each block to the one
    before, so dLoss/dc_t needs one block of scratch.  The gradients of
    xhat, the f and r pre-activations and the highway input go gate-major
    into one (4, T, B, H) buffer, so after the loop the gradient's weight
    stack is one batched GEMM, and ``dx`` is a (B, T, D) view, or None with
    ``input_grad=False``, which skips its GEMMs.
    """
    B, T, D = trace.x.shape
    H = trace.f.shape[2]
    W = params.W_stack
    dtype = W.dtype
    dh_up = np.asarray(dh_up, dtype=dtype)
    if dh_up.shape != (B, T, H):
        raise ValueError(f"sru_backward: upstream shape {dh_up.shape} != ({B},{T},{H})")
    xt, xhat, f, r, cs, xh, tanh_c, dh_up = (_batch_major(a) for a in (
        trace.x, trace.xhat, trace.f, trace.r, trace.cs, trace.xh, trace.tanh_c, dh_up))

    gc = np.empty((min(BLOCK, T), B, H), dtype)   # dLoss/dc_t over one block
    tmp = np.empty_like(gc)
    step = np.empty((B, H), dtype)
    carry = np.zeros((B, H), dtype)               # f_t * dLoss/dc_t at the block's first t
    da = _empty(buffers, "da", (4, T, B, H), dtype)   # d xhat | d a_f | d a_r | d xh
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

    k = len(W)
    da2 = da.reshape(4, T * B, H)
    dW = np.matmul(da2[:k].transpose(0, 2, 1), xt.reshape(T * B, D))   # (k, H, D)
    grads = SruParams(W_stack=dW.transpose(0, 2, 1), b_fr=da2[1:3].sum(axis=1, keepdims=True))
    if not input_grad:
        return grads, None, carry
    dx = _empty(buffers, "dx", (T, B, D), dtype)
    term = _empty(buffers, "dx_term", (T * B, D), dtype)
    dx2 = np.matmul(da2[0], W[0].T, out=dx.reshape(T * B, D))
    for j in range(1, k):
        dx2 += np.matmul(da2[j], W[j].T, out=term)
    if k == 3:   # the identity highway
        dx2 += da2[3]
    return grads, _batch_major(dx), carry


# ---------------------------------------------------------------------------
# dispatch helpers used by the network module
# ---------------------------------------------------------------------------

# parameter type -> (forward, backward, trace type, steps per streamed call)
_CELLS = {
    VanillaParams: (vanilla_forward, vanilla_backward, VanillaTrace, BLOCK),
    GruParams: (gru_forward, gru_backward, GruTrace, 1),
    SruParams: (sru_forward, sru_backward, SruTrace, BLOCK),
}


def _cell(params: CellParams):
    try:
        return _CELLS[type(params)]
    except KeyError:
        raise TypeError(f"unknown cell parameter type {type(params)}") from None


def cell_forward(params: CellParams, x: np.ndarray, state0=None,
                 buffers: Buffers | None = None, scratch: Buffers | None = None):
    """Dispatch to the matching forward pass."""
    return _cell(params)[0](params, x, state0, buffers, scratch)


def stream_step(params: CellParams) -> int:
    """Time steps per call when a layer streams a sequence, as the network's
    inference does: one for the GRU, whose work is all per step, and
    ``BLOCK`` for the others, the steps of one input-side GEMM (an SGEMM
    row's bits can depend on the GEMM's row count, so per-step products
    would differ from the traced pass's)."""
    return _cell(params)[3]


def final_state(trace) -> np.ndarray:
    """The state a forward leaves, (B, H): c_T for the SRU, else h_T.  A
    call over the rest of the sequence started from it continues exactly."""
    return (trace.cs if isinstance(trace, SruTrace) else trace.hs)[:, -1]


def row_major(a: np.ndarray, scratch: Buffers) -> np.ndarray:
    """A streamed layer's (B, H) output step ``a`` with contiguous rows: as
    it is, or, a GRU's being a view of its (H, B) state, copied into the
    z|r block of ``scratch``, which is idle between steps.  The heads'
    GEMMs then see the traced pass's memory order; over a transposed
    operand they can round differently."""
    if a.strides[-1] == a.itemsize:
        return a
    out = scratch.array("zr", a.shape, a.dtype)
    np.copyto(out, a)
    return out


def cell_backward(trace, params: CellParams, upstream: np.ndarray,
                  buffers: Buffers | None = None, input_grad: bool = True):
    """Dispatch to the matching backward pass; trace and params must pair up."""
    _, backward, trace_type, _ = _cell(params)
    if not isinstance(trace, trace_type):
        raise TypeError(f"trace/params mismatch: {type(params).__name__} "
                        f"need a {trace_type.__name__}")
    return backward(trace, params, upstream, buffers, input_grad)
