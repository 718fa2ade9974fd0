import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_cells
from fdcheck import TOL, max_array_rel_err, max_param_rel_err, to_float64
from myograsp import cells
from myograsp.network import _block_forward
from myograsp.numerics import derive_rng, make_rng


def randomized(params, rng, scale=0.6):
    """Overwrite every parameter (biases included) with random values."""
    for _, arr in params.named():
        arr[...] = rng.uniform(-scale, scale, size=arr.shape)
    return params


# ---------------------------------------------------------------------------
# vanilla forward
# ---------------------------------------------------------------------------

class TestVanillaForward:
    def test_zero_params_zero_hidden(self):
        p = cells.init_vanilla(2, 3, 3, make_rng(0))
        for _, arr in p.named():
            arr[...] = 0.0
        x = make_rng(1).normal(size=(2, 5, 2))
        ys, trace = cells.vanilla_forward(p, x)
        np.testing.assert_array_equal(trace.hs, 0.0)
        np.testing.assert_array_equal(ys, 0.0)

    def test_constant_fixed_point(self):
        # W_h = U_h = 0 and tanh(b_h) = 0.5 per unit -> h_t constant 0.5
        p = to_float64(cells.init_vanilla(2, 3, 3, make_rng(0)))
        for _, arr in p.named():
            arr[...] = 0.0
        p.A[-1] = np.arctanh(0.5)   # A = [U_h; W_h; b_h]
        x = make_rng(1).normal(size=(1, 6, 2))
        _, trace = cells.vanilla_forward(p, x)
        np.testing.assert_allclose(trace.hs[:, 1:], 0.5, atol=1e-15)

    def test_one_unit_direct_evaluation(self):
        # A = [U_h; W_h; b_h] = [0; 1; 0]: h_1 = tanh(x_1), the output itself
        p = cells.VanillaParams(A=np.array([[0.0], [1.0], [0.0]]))
        x = np.array([[[0.5]]])
        ys, trace = cells.vanilla_forward(p, x)
        np.testing.assert_allclose(trace.hs[0, 1, 0], 0.46211715726000974,
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(ys[0, 0, 0], 0.46211715726000974,
                                   rtol=0, atol=1e-15)

    def test_dimension_mismatch(self):
        p = cells.init_vanilla(3, 4, 4, make_rng(0))
        with pytest.raises(ValueError):
            cells.vanilla_forward(p, np.zeros((1, 5, 2)))
        with pytest.raises(ValueError, match="outputs its 4-wide state"):
            cells.init_vanilla(3, 4, 2, make_rng(0))


# ---------------------------------------------------------------------------
# GRU forward
# ---------------------------------------------------------------------------

class TestGruForward:
    def zero_gru(self, input_dim=1, hidden=1):
        p = cells.init_gru(input_dim, hidden, make_rng(0))
        for _, arr in p.named():
            arr[...] = 0.0
        return p

    def test_zero_params_one_step(self):
        # z = 0.5, candidate = 0 -> h1 = 0.5 * h0
        p = self.zero_gru()
        h, _ = cells.gru_forward(p, np.zeros((1, 1, 1)), np.array([[1.0]]))
        assert h[0, 0, 0] == 0.5

    def test_zero_params_three_steps(self):
        # h_t = 0.5 * h_{t-1}: 1.0 -> 0.5 -> 0.25 -> 0.125
        p = self.zero_gru()
        h, _ = cells.gru_forward(p, np.zeros((1, 3, 1)), np.array([[1.0]]))
        np.testing.assert_allclose(h[0, :, 0], [0.5, 0.25, 0.125],
                                   rtol=0, atol=1e-12)

    def test_zero_initial_state(self):
        p = self.zero_gru(input_dim=2, hidden=3)
        h, _ = cells.gru_forward(p, np.zeros((2, 4, 2)))
        np.testing.assert_array_equal(h, 0.0)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_convex_blend_stays_bounded(self, seed):
        # h_{t-1} and tanh candidate both in [-1, 1] -> h_t in [-1, 1]
        rng = make_rng(seed)
        p = randomized(cells.init_gru(3, 4, rng), rng, scale=2.0)
        x = rng.normal(size=(2, 10, 3)) * 2
        h0 = rng.uniform(-1, 1, size=(2, 4))
        h, _ = cells.gru_forward(p, x, h0)
        assert np.all(np.abs(h) <= 1.0 + 1e-12)

    def test_time_major_layout(self):
        # each step's z|r is one contiguous (B, 2H) trace block whose column
        # halves are z and r, its states and candidate are contiguous (B, H)
        # blocks, and the output is a view of the stored states, not a copy
        rng = make_rng(5)
        p = cells.init_gru(2, 4, rng)
        h, trace = cells.gru_forward(p, rng.normal(size=(3, 6, 2)))
        for t in range(6):
            z_t, r_t = trace.z[:, t], trace.r[:, t]
            assert z_t.strides == r_t.strides == (8 * z_t.itemsize, z_t.itemsize), t
            assert r_t.ctypes.data == z_t.ctypes.data + 4 * z_t.itemsize, t
            for name in ("hs", "hc"):
                assert getattr(trace, name)[:, t].flags.c_contiguous, (name, t)
        assert np.shares_memory(h, trace.hs)


# ---------------------------------------------------------------------------
# SRU forward
# ---------------------------------------------------------------------------

class TestSruForward:
    def zero_sru(self, dim=1):
        p = cells.init_sru(dim, dim, make_rng(0))
        for _, arr in p.named():
            arr[...] = 0.0
        return p

    def test_zero_params_highway(self):
        # f = r = 0.5, c stays 0 -> h1 = 0.5*tanh(0) + 0.5*x1 = 0.5*x1
        p = self.zero_sru()
        h, _ = cells.sru_forward(p, np.array([[[2.0]]]))
        np.testing.assert_allclose(h[0, 0, 0], 1.0, rtol=0, atol=1e-15)

    def test_zero_params_decaying_state(self):
        # c1 = 0.5*c0 = 0.5; h1 = 0.5*tanh(0.5)
        p = to_float64(self.zero_sru())
        h, trace = cells.sru_forward(p, np.zeros((1, 1, 1)), np.array([[1.0]]))
        assert trace.cs[0, 1, 0] == 0.5
        np.testing.assert_allclose(h[0, 0, 0], 0.23105857863000487,
                                   rtol=0, atol=1e-15)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_batched_equals_naive(self, seed):
        rng = make_rng(seed)
        dim_in, hidden = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        p = randomized(to_float64(cells.init_sru(dim_in, hidden, rng)), rng)
        x = rng.normal(size=(3, 12, dim_in))
        c0 = rng.normal(size=(3, hidden))
        batched, _ = cells.sru_forward(p, x, c0)
        naive = reference_cells.sru_forward_naive(p, x, c0)
        np.testing.assert_allclose(batched, naive, rtol=0, atol=1e-12)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_forget_blend_bounds(self, seed):
        # every c_t lies between c_{t-1} and xhat_t coordinatewise
        rng = make_rng(seed)
        p = randomized(cells.init_sru(3, 3, rng), rng, scale=1.5)
        x = rng.normal(size=(2, 8, 3))
        c0 = rng.normal(size=(2, 3))
        _, trace = cells.sru_forward(p, x, c0)
        lo = np.minimum(trace.cs[:, :-1], trace.xhat)
        hi = np.maximum(trace.cs[:, :-1], trace.xhat)
        assert np.all(trace.cs[:, 1:] >= lo - 1e-12)
        assert np.all(trace.cs[:, 1:] <= hi + 1e-12)

    def test_highway_requires_projection_when_dims_differ(self):
        p = cells.init_sru(3, 5, make_rng(0))
        assert p.W_p is not None
        p_square = cells.init_sru(4, 4, make_rng(0))
        assert p_square.W_p is None
        p_square_broken = cells.SruParams(W_stack=p.W_stack[:3], b_fr=p.b_fr)
        assert p_square_broken.W_p is None
        with pytest.raises(ValueError, match="highway"):
            cells.sru_forward(p_square_broken, np.zeros((1, 2, 3)))

    def test_time_major_layout(self):
        # the c-scan reads and writes one contiguous (B, H) block per step,
        # and the output is a view of the stored states, not a copy
        rng = make_rng(5)
        p = cells.init_sru(2, 4, rng)
        h, trace = cells.sru_forward(p, rng.normal(size=(3, 6, 2)))
        for t in range(6):
            for name in ("cs", "f"):
                assert getattr(trace, name)[:, t].flags.c_contiguous, (name, t)
        assert h.base is not None and h.base.flags.c_contiguous
        assert h.base.shape == (6, 3, 4)


# ---------------------------------------------------------------------------
# backward: finite differences
# ---------------------------------------------------------------------------

# kind -> (init, forward, backward, input_dim, hidden)
CELL_SETUPS = {
    "vanilla": (lambda rng: cells.init_vanilla(3, 4, 4, rng),
                cells.vanilla_forward, cells.vanilla_backward, 3, 4),
    "gru": (lambda rng: cells.init_gru(3, 4, rng),
            cells.gru_forward, cells.gru_backward, 3, 4),
    "sru-projected": (lambda rng: cells.init_sru(3, 4, rng),
                      cells.sru_forward, cells.sru_backward, 3, 4),
    "sru-highway": (lambda rng: cells.init_sru(4, 4, rng),
                    cells.sru_forward, cells.sru_backward, 4, 4),
}


def run_cell_gradcheck(kind: str, seed: int, T: int = 6, B: int = 2) -> float:
    init_fn, fwd, bwd, input_dim, hidden = CELL_SETUPS[kind]
    rng = derive_rng(seed, "gradcheck", kind)
    params = randomized(to_float64(init_fn(rng)), rng)
    x = rng.normal(size=(B, T, input_dim))
    s0 = rng.normal(size=(B, hidden)) * 0.5
    out, trace = fwd(params, x, s0)
    weights = rng.normal(size=out.shape)

    def loss():
        return float((fwd(params, x, s0)[0] * weights).sum())

    grads, dx, ds0 = bwd(trace, params, weights)
    worst = max_param_rel_err(list(params.named()), dict(grads.named()), loss)
    worst = max(worst, max_array_rel_err(x, dx, loss))
    worst = max(worst, max_array_rel_err(s0, ds0, loss))
    return worst


@pytest.mark.parametrize("kind", list(CELL_SETUPS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_backward_matches_finite_differences(kind, seed):
    assert run_cell_gradcheck(kind, seed) < TOL


@pytest.mark.parametrize("kind", list(CELL_SETUPS))
def test_zero_upstream_gives_zero_gradients(kind):
    init_fn, fwd, bwd, input_dim, _ = CELL_SETUPS[kind]
    rng = make_rng(11)
    params = randomized(init_fn(rng), rng)
    x = rng.normal(size=(2, 5, input_dim))
    out, trace = fwd(params, x)
    grads, dx, ds0 = bwd(trace, params, np.zeros_like(out))
    for _, arr in grads.named():
        np.testing.assert_array_equal(arr, 0.0)
    np.testing.assert_array_equal(dx, 0.0)
    np.testing.assert_array_equal(ds0, 0.0)


def test_trace_params_mismatch():
    rng = make_rng(0)
    gru = cells.init_gru(2, 3, rng)
    sru = cells.init_sru(2, 3, rng)
    _, gru_trace = cells.gru_forward(gru, np.zeros((1, 4, 2)))
    with pytest.raises(TypeError, match="mismatch"):
        cells.cell_backward(gru_trace, sru, np.zeros((1, 4, 3)))


def test_unknown_params_type():
    with pytest.raises(TypeError, match="unknown cell parameter type"):
        cells.cell_forward(object(), np.zeros((1, 4, 2)))


def test_upstream_shape_mismatch():
    rng = make_rng(0)
    p = cells.init_gru(2, 3, rng)
    _, trace = cells.gru_forward(p, np.zeros((1, 4, 2)))
    with pytest.raises(ValueError):
        cells.gru_backward(trace, p, np.zeros((1, 5, 3)))


# ---------------------------------------------------------------------------
# stacked kernels against the unstacked reference implementations
# ---------------------------------------------------------------------------

# float64 round-off over a few hundred operations, relative to the largest
# entry of each compared array; fixed before the comparison was first run
ORACLE_RTOL = 1e-12

ORACLES = {
    "vanilla": (lambda d, h, rng: cells.init_vanilla(d, h, h, rng), cells.vanilla_forward,
                cells.vanilla_backward, reference_cells.vanilla_forward,
                reference_cells.vanilla_backward),
    "gru": (cells.init_gru, cells.gru_forward, cells.gru_backward,
            reference_cells.gru_forward, reference_cells.gru_backward),
    "sru": (cells.init_sru, cells.sru_forward, cells.sru_backward,
            reference_cells.sru_forward, reference_cells.sru_backward),
}


def assert_oracle_close(actual, expected, what, rtol=ORACLE_RTOL):
    scale = float(np.max(np.abs(expected))) if expected.size else 0.0
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=rtol * scale, err_msg=what)


def check_against_reference(kind, input_dim, hidden, T, rng):
    """Forward and backward of one cell against the reference, with a
    nonzero initial state."""
    init_fn, fwd, bwd, ref_fwd, ref_bwd = ORACLES[kind]
    params = randomized(to_float64(init_fn(input_dim, hidden, rng)), rng,
                        scale=1.2 / np.sqrt(hidden))
    x = rng.normal(size=(3, T, input_dim))
    s0 = rng.normal(size=(3, hidden)) * 0.5
    upstream = rng.normal(size=(3, T, hidden))

    out, trace = fwd(params, x, s0)
    ref_out, ref_trace = ref_fwd(params, x, s0)
    assert_oracle_close(out, ref_out, "outputs")
    for name, arr in ref_trace.named():
        assert_oracle_close(getattr(trace, name), arr, f"trace.{name}")

    grads, dx, ds0 = bwd(trace, params, upstream)
    ref_grads, ref_dx, ref_ds0 = ref_bwd(ref_trace, params, upstream)
    assert_oracle_close(dx, ref_dx, "dx")
    assert_oracle_close(ds0, ref_ds0, "initial-state gradient")
    assert [n for n, _ in grads.named()] == list(ref_grads)
    for name, arr in grads.named():
        assert arr.shape == ref_grads[name].shape
        assert_oracle_close(arr, ref_grads[name], f"grad {name}")


@pytest.mark.parametrize("hidden", [16, 64])
@pytest.mark.parametrize("wide_input", [False, True], ids=["d8", "dH"])
@pytest.mark.parametrize("kind", list(ORACLES))
def test_stacked_kernels_match_reference(kind, wide_input, hidden):
    input_dim = hidden if wide_input else 8
    check_against_reference(kind, input_dim, hidden, 9,
                            derive_rng(0, "oracle", kind, input_dim, hidden))


@pytest.mark.parametrize("T", [1, cells.BLOCK - 1, cells.BLOCK, cells.BLOCK + 1,
                               2 * cells.BLOCK + 3])
@pytest.mark.parametrize("wide_input", [False, True], ids=["d8", "dH"])
def test_sru_blocked_scan_matches_reference_at_block_edges(wide_input, T):
    # the backward c-scan runs per block of BLOCK steps from the last block
    # back, carrying f_t * dLoss/dc_t across each block edge; d8 runs the
    # projected highway (W_p), dH the identity one
    input_dim = 16 if wide_input else 8
    check_against_reference("sru", input_dim, 16, T,
                            derive_rng(0, "oracle-blocks", input_dim, T))


# float32 round-off relative to the largest entry of each compared array,
# about 80 float32 ulps over the 19 steps compared; fixed before the
# comparison was first run
FLOAT32_RTOL = 1e-5

# kind -> float64 (forward, backward) the float32 kernels are compared with:
# the unstacked references
FLOAT64_REFERENCES = {
    "vanilla": (reference_cells.vanilla_forward, reference_cells.vanilla_backward),
    "gru": (reference_cells.gru_forward, reference_cells.gru_backward),
    "sru-projected": (reference_cells.sru_forward, reference_cells.sru_backward),
    "sru-highway": (reference_cells.sru_forward, reference_cells.sru_backward),
}


@pytest.mark.parametrize("kind", list(CELL_SETUPS))
def test_float32_kernels_match_float64_reference(kind):
    # the package's parameters are float32; the same parameters widened to
    # float64 give the reference, which float32 round-off may miss only by
    # FLOAT32_RTOL
    init_fn, fwd, bwd, input_dim, hidden = CELL_SETUPS[kind]
    ref_fwd, ref_bwd = FLOAT64_REFERENCES[kind]
    rng = derive_rng(0, "float32", kind)
    params = randomized(init_fn(rng), rng)
    wide = to_float64(copy.deepcopy(params))
    x = rng.normal(size=(3, 2 * cells.BLOCK + 3, input_dim))
    s0 = rng.normal(size=(3, hidden)) * 0.5

    out, trace = fwd(params, x, s0)
    ref_out, ref_trace = ref_fwd(wide, x, s0)
    upstream = rng.normal(size=out.shape)
    grads, dx, ds0 = bwd(trace, params, upstream)
    ref_grads, ref_dx, ref_ds0 = ref_bwd(ref_trace, wide, upstream)

    pairs = [("outputs", out, ref_out), ("dx", dx, ref_dx),
             ("initial-state gradient", ds0, ref_ds0)]
    pairs += [(f"trace.{n}", getattr(trace, n), a) for n, a in ref_trace.named()]
    pairs += [(f"grad {n}", a, ref_grads[n]) for n, a in grads.named()]
    for what, actual, expected in pairs:
        assert actual.dtype == np.float32, what
        assert_oracle_close(actual, expected, what, rtol=FLOAT32_RTOL)


# ---------------------------------------------------------------------------
# a sequence split in two, the second part started from the carried state
# ---------------------------------------------------------------------------

# kind -> (init(input_dim, hidden, rng), input_dim), hidden 6
SPLIT_SETUPS = {
    "vanilla-dH": (lambda d, h, rng: cells.init_vanilla(d, h, h, rng), 6),
    "vanilla-d5": (lambda d, h, rng: cells.init_vanilla(d, h, h, rng), 5),
    "gru-dH": (cells.init_gru, 6),
    "gru-d5": (cells.init_gru, 5),
    "sru-dH": (cells.init_sru, 6),
    "sru-d5": (cells.init_sru, 5),
}


@pytest.mark.parametrize("k", [1, cells.BLOCK - 1, cells.BLOCK, cells.BLOCK + 1])
@pytest.mark.parametrize("kind", list(SPLIT_SETUPS))
def test_split_forward_from_carried_state_is_bit_identical(kind, k):
    # streamed inference runs each layer one block at a time from the state
    # the block before left; that is exact only if the split changes no bit
    init_fn, input_dim = SPLIT_SETUPS[kind]
    rng = derive_rng(0, "split", kind, k)
    params = randomized(init_fn(input_dim, 6, rng), rng)
    x = rng.normal(size=(3, 2 * cells.BLOCK + 3, input_dim))
    s0 = rng.normal(size=(3, 6))
    whole, _ = cells.cell_forward(params, x, s0)
    head, trace = cells.cell_forward(params, x[:, :k], s0)
    tail, _ = cells.cell_forward(params, x[:, k:], cells.final_state(trace))
    np.testing.assert_array_equal(np.concatenate([head, tail], axis=1), whole)


# ---------------------------------------------------------------------------
# untraced forwards (inference): one layer streamed one block at a time
# ---------------------------------------------------------------------------

def stream_untraced(params, x, state0):
    """Run one layer over ``x`` the way ``Network.forward(keep_trace=False)``
    does: ``cells.stream_step`` steps per call (a block of BLOCK for the
    SRU, one for the other cells), in one reused workspace (a Buffers for
    the block outputs and the carried state, one for scratch), each call
    starting from the state the one before left in the workspace, no trace
    kept."""
    buffers, scratch = cells.Buffers(), cells.Buffers()
    step = cells.stream_step(params)
    state, outs = state0, []
    for lo in range(0, x.shape[1], step):
        out, state = _block_forward(params, x[:, lo:lo + step], state, None, buffers, scratch)
        outs.append(out.copy())   # the next call overwrites it
    return np.concatenate(outs, axis=1), state


# lengths on either side of a block edge and a partial last block
UNTRACED_LENGTHS = [1, 2 * cells.BLOCK - 1, 2 * cells.BLOCK, 2 * cells.BLOCK + 1,
                    4 * cells.BLOCK + 3]


@pytest.mark.parametrize("with_h0", [False, True], ids=["h0-zero", "h0-given"])
@pytest.mark.parametrize("T", UNTRACED_LENGTHS)
def test_untraced_gru_matches_traced(T, with_h0):
    rng = derive_rng(0, "untraced", T, with_h0)
    params = randomized(to_float64(cells.init_gru(5, 6, rng)), rng)
    x = rng.normal(size=(3, T, 5))
    h0 = rng.normal(size=(3, 6)) if with_h0 else None
    out, trace = cells.gru_forward(params, x, h0)
    bare, state = stream_untraced(params, x, h0)
    np.testing.assert_array_equal(bare, out)
    np.testing.assert_array_equal(state, cells.final_state(trace))
    ref_out, ref_trace = reference_cells.gru_forward(params, x, h0)
    assert_oracle_close(out, ref_out, "outputs")
    for name, arr in ref_trace.named():
        assert_oracle_close(getattr(trace, name), arr, f"trace.{name}")


@pytest.mark.parametrize("input_dim", [8, None], ids=["d8", "dH"])
@pytest.mark.parametrize("B,H", [(7, 256), (16, 32)])
def test_streamed_gru_rounds_as_traced_where_orientation_matters(B, H, input_dim):
    # at these shapes a float32 gate GEMM over (B, .) rows rounds
    # differently from one over (., B) columns, so a streamed or a traced
    # call that computed its gates in the other orientation would differ
    D = input_dim or H
    rng = derive_rng(0, "orientation", B, H, D)
    params = cells.init_gru(D, H, rng)
    x = rng.normal(size=(B, 5, D))
    out, trace = cells.gru_forward(params, x)
    bare, state = stream_untraced(params, x, None)
    np.testing.assert_array_equal(bare, out)
    np.testing.assert_array_equal(state, cells.final_state(trace))


@pytest.mark.parametrize("B,D,H", [(3, 8, 6), (64, 8, 32), (256, 32, 32), (16, 64, 64),
                                   (7, 8, 256), (3, 32, 32)])
def test_untraced_vanilla_matches_traced(B, D, H):
    # streamed one step per call, a float32 layer computes each step's GEMM
    # in the traced call's shape and orientation, so the bits agree; at
    # (7, 8, 256) and (3, 32, 32) a GEMM over (B, .) rows rounds differently
    # from one over (., B) columns, so a streamed call in the other
    # orientation would differ
    rng = derive_rng(0, "untraced-vanilla", B, D, H)
    params = randomized(cells.init_vanilla(D, H, H, rng), rng, scale=1 / np.sqrt(H))
    x = rng.normal(size=(B, 2 * cells.BLOCK + 3, D))
    h0 = rng.normal(size=(B, H))
    out, trace = cells.vanilla_forward(params, x, h0)
    bare, state = stream_untraced(params, x, h0)
    np.testing.assert_array_equal(bare, out)
    np.testing.assert_array_equal(state, cells.final_state(trace))


@pytest.mark.parametrize("input_dim", [5, 6], ids=["projected", "highway"])
@pytest.mark.parametrize("with_c0", [False, True], ids=["c0-zero", "c0-given"])
@pytest.mark.parametrize("T", UNTRACED_LENGTHS)
def test_untraced_sru_matches_traced(T, with_c0, input_dim):
    rng = derive_rng(0, "untraced-sru", T, with_c0, input_dim)
    params = randomized(to_float64(cells.init_sru(input_dim, 6, rng)), rng)
    x = rng.normal(size=(3, T, input_dim))
    c0 = rng.normal(size=(3, 6)) if with_c0 else None
    out, trace = cells.sru_forward(params, x, c0)
    bare, state = stream_untraced(params, x, c0)
    np.testing.assert_array_equal(bare, out)
    np.testing.assert_array_equal(state, cells.final_state(trace))
    ref_out, ref_trace = reference_cells.sru_forward(params, x, c0)
    assert_oracle_close(out, ref_out, "outputs")
    for name, arr in ref_trace.named():
        assert_oracle_close(getattr(trace, name), arr, f"trace.{name}")


@pytest.mark.parametrize("kind", ["vanilla-d5", "gru-d5", "sru-dH", "sru-d5"])
def test_streamed_call_over_no_steps_hands_on_its_state(kind):
    # a streamed call over no steps leaves its initial state as its final
    # state, not the state an earlier call left in the same buffers
    init_fn, input_dim = SPLIT_SETUPS[kind]
    rng = derive_rng(0, "no-steps", kind)
    params = init_fn(input_dim, 6, rng)
    buffers, scratch = cells.Buffers(), cells.Buffers()
    cells.cell_forward(params, rng.normal(size=(3, 1, input_dim)), None, buffers, scratch)
    s0 = rng.normal(size=(3, 6)).astype(np.float32)
    out, trace = cells.cell_forward(params, np.zeros((3, 0, input_dim)), s0, buffers, scratch)
    assert out.shape == (3, 0, 6)
    np.testing.assert_array_equal(cells.final_state(trace), s0)


@pytest.mark.parametrize("T", [0, 1, 3])
@pytest.mark.parametrize("kind", ["vanilla-d5", "vanilla-dH", "gru-d5", "gru-dH", "sru-d5",
                                  "sru-dH"])
def test_streamed_call_from_given_state_matches_traced(kind, T):
    # one streamed call updates its state in place in its own buffers: its
    # outputs and final state equal the traced call's, and the caller's
    # initial state, of the parameters' dtype and shape, is never written
    init_fn, input_dim = SPLIT_SETUPS[kind]
    rng = derive_rng(0, "streamed-call", kind, T)
    params = randomized(init_fn(input_dim, 6, rng), rng)
    x = rng.normal(size=(3, T, input_dim))
    s0 = rng.normal(size=(3, 6)).astype(np.float32)
    given = s0.copy()
    bare, bare_trace = cells.cell_forward(params, x, s0, cells.Buffers(), cells.Buffers())
    np.testing.assert_array_equal(s0, given)
    out, trace = cells.cell_forward(params, x, s0)
    np.testing.assert_array_equal(bare, out)
    np.testing.assert_array_equal(cells.final_state(bare_trace), cells.final_state(trace))


@pytest.mark.parametrize("input_dim", [8, 64], ids=["d8", "dH"])
def test_warm_streamed_sru_call_allocates_no_iteration_buffer(input_dim):
    # a streamed call adds each gate's bias from a contiguous (B, H) plane,
    # broadcast over the block's steps only; a (1, H) row broadcast over
    # every row of a gate plane goes through numpy's buffered iterator,
    # which allocates a buffer of up to 32 KB per add.  So a second call
    # in the same workspace allocates only a few small objects
    rng = derive_rng(0, "warm-sru", input_dim)
    params = randomized(cells.init_sru(input_dim, 64, rng), rng)
    x = rng.normal(size=(256, cells.BLOCK, input_dim)).astype(np.float32)
    buffers, scratch = cells.Buffers(), cells.Buffers()
    _, trace = cells.sru_forward(params, x, None, buffers, scratch)
    tracemalloc.start()
    try:
        cells.sru_forward(params, x, cells.final_state(trace), buffers, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096


@pytest.mark.parametrize("kind", list(CELL_SETUPS))
def test_untraced_cell_forward_returns_no_trace(kind):
    # a layer step without a trace list returns only (outputs, carried
    # state); with one it hands the trace over and returns the same values
    init_fn, _, _, input_dim, _ = CELL_SETUPS[kind]
    rng = make_rng(4)
    params = randomized(init_fn(rng), rng)
    x = rng.normal(size=(2, 7, input_dim))
    out, trace = cells.cell_forward(params, x)
    bare, state = _block_forward(params, x, None, None)
    np.testing.assert_array_equal(bare, out)
    np.testing.assert_array_equal(state, cells.final_state(trace))
    traces = []
    kept, kept_state = _block_forward(params, x, None, traces)
    assert len(traces) == 1 and isinstance(traces[0], type(trace))
    np.testing.assert_array_equal(kept, out)
    np.testing.assert_array_equal(kept_state, state)
