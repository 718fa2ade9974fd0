import json
import tracemalloc

import numpy as np
import pytest

from fdcheck import TOL, max_param_rel_err, to_float64
from myograsp import cells
from myograsp.datapipe import EMG_CHANNELS
from myograsp.errors import ConfigError, DataError, NumericError
from myograsp.network import (Network, NetworkConfig, _param_shapes, load_checkpoint,
                              save_checkpoint)
from myograsp.numerics import derive_rng, make_rng
from myograsp.training import cross_entropy_batch, mse_loss


def small_config(cell="gru", disc=False):
    return NetworkConfig(cell_type=cell, hidden_size=4, predictor_hidden=5,
                         output_angles=15, use_discriminator=disc,
                         num_domains=3 if disc else 0)


def layer_stack_output(net, x):
    """The last recurrent layer's (B, T, H) outputs, layer by layer."""
    for layer in net.layers:
        x, _ = cells.cell_forward(layer, x)
    return x


class TestConfigValidation:
    # the feature reduction is no setting: the cell type fixes it
    def test_sru_requires_pooling(self):
        net = Network.init(small_config("sru"), make_rng(8))
        x = make_rng(9).normal(size=(2, 5, EMG_CHANNELS))
        np.testing.assert_allclose(net.forward(x)[2].features,
                                   layer_stack_output(net, x).mean(axis=1), rtol=1e-14)

    def test_gru_requires_last_timestep(self):
        for cell in ("gru", "vanilla"):
            net = Network.init(small_config(cell), make_rng(8))
            x = make_rng(9).normal(size=(2, 5, EMG_CHANNELS))
            np.testing.assert_array_equal(net.forward(x)[2].features,
                                          layer_stack_output(net, x)[:, -1], err_msg=cell)

    def test_output_angles_restricted(self):
        with pytest.raises(ConfigError):
            NetworkConfig(output_angles=12)

    def test_discriminator_needs_domains(self):
        with pytest.raises(ConfigError):
            NetworkConfig(use_discriminator=True, num_domains=1)


class TestForward:
    def test_zero_network_outputs_predictor_bias(self):
        net = Network.init(small_config("gru"), make_rng(0))
        for _, arr in net.named_params():
            arr[...] = 0.0
        net.predictor.b2[...] = np.arange(15.0)
        angles, logits, _ = net.forward(make_rng(1).normal(size=(4, 6, EMG_CHANNELS)))
        np.testing.assert_array_equal(angles, np.tile(np.arange(15.0), (4, 1)))
        assert logits is None

    @staticmethod
    def channel_zero_sru():
        """A one-unit SRU network whose feature sequence is channel 0 of
        its input: with r ~ 0 each layer's output is its highway input, the
        bottom layer's projection picking channel 0 and the top layer's
        input itself."""
        cfg = NetworkConfig(cell_type="sru", hidden_size=1, predictor_hidden=1,
                            output_angles=15)
        net = Network.init(cfg, make_rng(0))
        for _, arr in net.named_params():
            arr[...] = 0.0
        for layer in net.layers:
            layer.b_r[...] = -40.0                # reset gate ~ 0 -> h_t = xh_t
        net.layers[0].W_p[0, 0] = 1.0
        return net

    def test_global_average_pool_of_constant_features(self):
        # features constant over time pass through pooling unchanged
        net = self.channel_zero_sru()
        net.predictor.W1[...] = 1.0
        net.predictor.W2[0, 0] = 1.0
        angles, _, trace = net.forward(np.full((1, 3, EMG_CHANNELS), 5.0))
        np.testing.assert_allclose(trace.features, 5.0, atol=1e-12)
        np.testing.assert_allclose(angles[0, 0], 5.0, atol=1e-12)

    def test_pool_of_two_timesteps_is_mean(self):
        x = np.zeros((1, 2, EMG_CHANNELS))
        x[0, :, 0] = [1.0, 3.0]
        _, _, trace = self.channel_zero_sru().forward(x)
        np.testing.assert_allclose(trace.features[0, 0], 2.0, atol=1e-12)

    def test_last_timestep_reduction(self):
        net = Network.init(small_config("gru"), make_rng(3))
        x = make_rng(4).normal(size=(2, 5, EMG_CHANNELS))
        _, _, trace = net.forward(x)
        seq, _ = cells.gru_forward(net.layers[0], x)
        seq, _ = cells.gru_forward(net.layers[1], seq)
        np.testing.assert_array_equal(trace.features, seq[:, -1, :])

    def test_discriminator_does_not_change_angles(self):
        rng = make_rng(5)
        net = Network.init(small_config("gru", disc=True), rng)
        twin = Network.init(small_config("gru", disc=False), make_rng(5))
        x = rng.normal(size=(3, 6, EMG_CHANNELS))
        a1, logits, _ = net.forward(x)
        a2, none_logits, _ = twin.forward(x)
        assert none_logits is None
        assert logits.shape == (3, 3)
        np.testing.assert_array_equal(a1, a2)

    def test_shape_error(self):
        net = Network.init(small_config(), make_rng(0))
        with pytest.raises(ValueError):
            net.forward(np.zeros((2, 6, 5)))
        with pytest.raises(ValueError, match="windows"):   # one unbatched (T, C) window
            net.forward(np.zeros((6, EMG_CHANNELS)))

    @pytest.mark.parametrize("keep_trace", [True, False])
    def test_empty_windows_rejected(self, keep_trace):
        net = Network.init(small_config(), make_rng(0))
        with pytest.raises(ValueError, match="windows"):
            net.forward(np.zeros((2, 0, EMG_CHANNELS)), keep_trace=keep_trace)

    @pytest.mark.parametrize("value", [1e39, -1e39])
    @pytest.mark.parametrize("keep_trace", [True, False])
    def test_windows_beyond_float32_rejected(self, keep_trace, value):
        # float64 windows past float32's range would be cast to infinities
        net = Network.init(small_config(), make_rng(0))
        x = np.zeros((2, 4, EMG_CHANNELS))
        x[1, 2, 0] = value
        with pytest.raises(NumericError, match="float32 range"):
            net.forward(x, keep_trace=keep_trace)


class TestUntracedForward:
    """Inference streams the layer stack one block of ``cells.BLOCK`` steps at
    a time; its angles must equal the traced pass's bit for bit."""

    def assert_matches_traced(self, net, x):
        angles, logits, _ = net.forward(x)
        bare_angles, bare_logits, no_trace = net.forward(x, keep_trace=False)
        assert no_trace is None
        np.testing.assert_array_equal(bare_angles, angles)
        # inference runs no discriminator head
        assert bare_logits is None

    @staticmethod
    def windows(T):
        return derive_rng(1, "untraced", T).normal(size=(3, T, EMG_CHANNELS))

    @pytest.mark.parametrize("T", [1, cells.BLOCK - 1, cells.BLOCK, cells.BLOCK + 1,
                                   2 * cells.BLOCK + 3])
    @pytest.mark.parametrize("disc", [False, True], ids=["no-disc", "disc"])
    @pytest.mark.parametrize("cell", ["vanilla", "gru", "sru"])
    def test_matches_traced(self, cell, disc, T):
        # block edges on either side of T, and a partial last block
        net = Network.init(small_config(cell, disc), derive_rng(0, "untraced", cell, disc))
        self.assert_matches_traced(net, self.windows(T))

    @pytest.mark.parametrize("T", [1, cells.BLOCK - 1, cells.BLOCK, cells.BLOCK + 1,
                                   2 * cells.BLOCK + 3])
    @pytest.mark.parametrize("disc", [False, True], ids=["no-disc", "disc"])
    @pytest.mark.parametrize("cell", ["vanilla", "gru", "sru"])
    def test_matches_traced_with_random_parameters(self, cell, disc, T):
        # Network.init's biases are all zero; random ones make every gate
        # and head add a bias
        net = Network.init(small_config(cell, disc), derive_rng(0, "untraced", cell, disc))
        rng = derive_rng(2, "untraced", cell, disc)
        for _, arr in net.named_params():
            arr[...] = rng.uniform(-0.6, 0.6, size=arr.shape)
        self.assert_matches_traced(net, self.windows(T))

    @pytest.mark.parametrize("T", [cells.BLOCK, 128])
    def test_sru_pool_in_degenerate_shape(self, T):
        # at B = H = 1 a (B, T, H) mean sums pairwise, where the streamed
        # pool adds step by step: both passes must share one summation order
        # (the two orders differ in the last bit for some draws, not all: at
        # T = BLOCK the first to differ is draw 10)
        cfg = NetworkConfig(cell_type="sru", hidden_size=1, predictor_hidden=3,
                            output_angles=15)
        for draw in range(16):
            net = Network.init(cfg, derive_rng(draw, "untraced-degenerate"))
            self.assert_matches_traced(net, derive_rng(draw, "untraced-degenerate", T)
                                       .normal(size=(1, T, EMG_CHANNELS)))


class TestBuffers:
    """Every traced step takes its arrays from the network's own workspace;
    reusing them must change no bit of any step's results."""

    @staticmethod
    def step(net, x, labels):
        angles, logits, trace = net.forward(x)
        _, dangles = mse_loss(angles, np.zeros_like(angles))
        _, dlogits = cross_entropy_batch(logits, labels)
        return angles, logits, net.backward(trace, dangles, dlogits), trace

    @pytest.mark.parametrize("cell", ["vanilla", "gru", "sru"])
    def test_reused_buffers_are_bit_identical_to_fresh_arrays(self, cell):
        # full batch, a partial last batch (smaller shapes), full again; each
        # step runs again on a freshly initialised twin, whose workspace is empty
        cfg = small_config(cell, disc=True)
        net = Network.init(cfg, derive_rng(0, "buffers", cell))
        rng = derive_rng(1, "buffers", cell)
        T = 2 * cells.BLOCK + 3
        traces = []
        for b in (5, 2, 5):
            x, labels = rng.normal(size=(b, T, EMG_CHANNELS)), rng.integers(0, 3, size=b)
            angles, logits, grads, trace = self.step(net, x, labels)
            twin = Network.init(cfg, derive_rng(0, "buffers", cell))
            fresh_angles, fresh_logits, fresh_grads, _ = self.step(twin, x, labels)
            np.testing.assert_array_equal(angles, fresh_angles)
            np.testing.assert_array_equal(logits, fresh_logits)
            assert grads.keys() == fresh_grads.keys()
            for name, g in grads.items():
                np.testing.assert_array_equal(g, fresh_grads[name], err_msg=name)
            traces.append(trace)
        # the partial batch runs in the full batch's memory, not its own
        # (a smaller array of a stack, as SRU's f, may sit in a sibling's place)
        full, partial = traces[0], traces[1]
        for layer_full, layer_partial in zip(full.cell_traces, partial.cell_traces):
            for name, b in layer_partial.named():
                if name != "x":   # layer 0's input is the caller's
                    assert any(np.shares_memory(a, b) for _, a in layer_full.named()), name

    @pytest.mark.parametrize("cell", ["vanilla", "gru", "sru"])
    def test_inference_between_forward_and_backward_changes_no_gradient(self, cell):
        # inference runs in a workspace of its own: a streamed forward between
        # a traced forward and its backward leaves the trace and every
        # gradient as they were
        cfg = small_config(cell, disc=True)
        rng = derive_rng(2, "stream-between", cell)
        x = rng.normal(size=(5, 2 * cells.BLOCK + 3, EMG_CHANNELS))
        labels = rng.integers(0, 3, size=5)
        other = rng.normal(size=(7, 3 * cells.BLOCK + 1, EMG_CHANNELS))
        net = Network.init(cfg, derive_rng(0, "stream-between", cell))
        angles, logits, trace = net.forward(x)
        net.forward(other, keep_trace=False)
        _, dangles = mse_loss(angles, np.zeros_like(angles))
        _, dlogits = cross_entropy_batch(logits, labels)
        grads = net.backward(trace, dangles, dlogits)
        twin = Network.init(cfg, derive_rng(0, "stream-between", cell))
        expected = self.step(twin, x, labels)[2]
        assert grads.keys() == expected.keys()
        for name, g in grads.items():
            np.testing.assert_array_equal(g, expected[name], err_msg=name)


class TestBackward:
    def setup_case(self, cell="gru", seed=7):
        rng = derive_rng(seed, "netcase", cell)
        net = Network.init(small_config(cell, disc=True), rng)
        x = rng.normal(size=(2, 6, EMG_CHANNELS))
        y = rng.normal(size=(2, 15))
        labels = rng.integers(0, 3, size=2)
        return net, x, y, labels

    def test_absent_domain_grad_matches_no_discriminator_network(self):
        net, x, y, _ = self.setup_case()
        twin = Network.init(small_config("gru", disc=False), derive_rng(7, "netcase", "gru"))
        angles, _, trace = net.forward(x)
        _, dangles = mse_loss(angles, y)
        grads = net.backward(trace, dangles, None)
        angles2, _, trace2 = twin.forward(x)
        _, dangles2 = mse_loss(angles2, y)
        grads2 = twin.backward(trace2, dangles2)
        for name, g in grads2.items():
            np.testing.assert_array_equal(grads[name], g)
        # discriminator slots are zero-filled so the optimizer sees all keys
        for name, g in grads.items():
            if name.startswith("discriminator"):
                np.testing.assert_array_equal(g, 0.0)

    def test_feature_gradient_is_path_sum(self):
        # full backward == predictor-only + reversed discriminator path,
        # the latter obtained with a zero angle gradient; in float64, where
        # the two sums differ only by round-off far below the tolerance
        net, x, y, labels = self.setup_case()
        to_float64(net)
        angles, logits, trace = net.forward(x)
        _, dangles = mse_loss(angles, y)
        _, dlogits = cross_entropy_batch(logits, labels)
        full = net.backward(trace, dangles, dlogits)
        pred_only = net.backward(trace, dangles, None)
        disc_only = net.backward(trace, np.zeros_like(dangles), dlogits)
        for name in full:
            if name.startswith(("layer", "predictor")):
                np.testing.assert_allclose(
                    full[name], pred_only[name] + disc_only[name], atol=1e-10)

    def test_domain_grad_without_discriminator_rejected(self):
        net = Network.init(small_config("gru", disc=False), make_rng(0))
        _, _, trace = net.forward(np.zeros((1, 4, EMG_CHANNELS)))
        with pytest.raises(ValueError):
            net.backward(trace, np.zeros((1, 15)), np.zeros((1, 3)))


def run_network_gradcheck(cell: str, seed: int) -> float:
    """Finite differences for the full ADA network.

    Behind the reversal layer the effective objective is mse - ce, while
    the discriminator head keeps its own cross-entropy; each parameter
    group is checked against its group scalar.
    """
    rng = derive_rng(seed, "netgrad", cell)
    net = to_float64(Network.init(small_config(cell, disc=True), rng))
    x = rng.normal(size=(2, 6, EMG_CHANNELS))
    y = rng.normal(size=(2, 15))
    labels = rng.integers(0, 3, size=2)

    angles, logits, trace = net.forward(x)
    _, dangles = mse_loss(angles, y)
    _, dlogits = cross_entropy_batch(logits, labels)
    grads = net.backward(trace, dangles, dlogits)

    def group_loss(coef):
        def loss():
            a, l, _ = net.forward(x)
            return mse_loss(a, y)[0] + coef * cross_entropy_batch(l, labels)[0]
        return loss

    shared = [(n, a) for n, a in net.named_params() if not n.startswith("discriminator")]
    disc = [(n, a) for n, a in net.named_params() if n.startswith("discriminator")]
    worst = max_param_rel_err(shared, grads, group_loss(-1.0))
    return max(worst, max_param_rel_err(disc, grads, group_loss(1.0)))


def run_head_gradcheck(head: str, seed: int) -> float:
    """Finite differences for one fully-connected head in isolation."""
    rng = derive_rng(seed, "headgrad", head)
    net = to_float64(Network.init(small_config("gru", disc=True), rng))
    x = rng.normal(size=(2, 6, EMG_CHANNELS))
    y = rng.normal(size=(2, 15))
    labels = rng.integers(0, 3, size=2)
    angles, logits, trace = net.forward(x)
    _, dangles = mse_loss(angles, y)
    _, dlogits = cross_entropy_batch(logits, labels)
    grads = net.backward(trace, dangles, dlogits)

    if head == "predictor":
        def loss():
            a, _, _ = net.forward(x)
            return mse_loss(a, y)[0]
        arrays = [(n, a) for n, a in net.named_params() if n.startswith("predictor")]
    else:
        def loss():
            _, l, _ = net.forward(x)
            return cross_entropy_batch(l, labels)[0]
        arrays = [(n, a) for n, a in net.named_params() if n.startswith("discriminator")]
    return max_param_rel_err(arrays, grads, loss)


@pytest.mark.parametrize("cell", ["vanilla", "gru", "sru"])
def test_full_network_gradcheck(cell):
    assert run_network_gradcheck(cell, seed=0) < TOL


@pytest.mark.parametrize("head", ["predictor", "discriminator"])
def test_head_gradcheck(head):
    assert run_head_gradcheck(head, seed=0) < TOL


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path):
        net = Network.init(small_config("sru", disc=True), make_rng(1))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, net, meta={"protocol": "inter-subject", "fold": 2})
        loaded, meta = load_checkpoint(path)
        assert meta == {"protocol": "inter-subject", "fold": 2}
        assert loaded.config == net.config
        for (n1, a1), (n2, a2) in zip(net.named_params(), loaded.named_params()):
            assert n1 == n2
            np.testing.assert_array_equal(a1, a2)
        x = make_rng(2).normal(size=(3, 5, EMG_CHANNELS))
        np.testing.assert_array_equal(net.forward(x)[0], loaded.forward(x)[0])

    def test_resave_is_byte_identical(self, tmp_path):
        net = Network.init(small_config("gru"), make_rng(4))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, net)
        save_checkpoint(p2, net)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, x=np.ones(3))
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    @pytest.mark.parametrize("disc", [False, True])
    @pytest.mark.parametrize("hidden", [4, EMG_CHANNELS], ids=["projected", "square"])
    @pytest.mark.parametrize("cell", ["vanilla", "gru", "sru"])
    def test_param_shapes_are_those_init_builds(self, cell, hidden, disc):
        cfg = NetworkConfig(cell_type=cell, hidden_size=hidden, predictor_hidden=5,
                            use_discriminator=disc, num_domains=3 if disc else 0)
        net = Network.init(cfg, make_rng(0))
        assert list(_param_shapes(cfg)) == [(n, a.shape) for n, a in net.named_params()]
        assert all(a.dtype == np.float32 for _, a in net.named_params())

    @staticmethod
    def edited(tmp_path, edit):
        """A saved 8-unit GRU checkpoint with ``edit(header, arrays)`` applied."""
        src, dst = tmp_path / "src.npz", tmp_path / "bad.npz"
        cfg = NetworkConfig(cell_type="gru", hidden_size=8, predictor_hidden=8)
        save_checkpoint(src, Network.init(cfg, make_rng(3)))
        with np.load(src) as data:
            arrays = {k: data[k] for k in data.files}
        header = json.loads(bytes(arrays.pop("__header__")).decode("utf-8"))
        edit(header, arrays)
        np.savez(dst, __header__=np.frombuffer(json.dumps(header).encode("utf-8"),
                                               dtype=np.uint8), **arrays)
        return dst

    BAD_ARRAYS = {
        "float64 parameter": lambda h, a: a.update({"layer1.U_h": a["layer1.U_h"].astype(
            np.float64)}),
        "misshapen parameter": lambda h, a: a.update({"predictor.b2": a["predictor.b2"][:, :3]}),
        "missing layer": lambda h, a: [a.pop(k) for k in list(a) if k.startswith("layer1.")],
        "header hidden_size over 8-unit arrays": lambda h, a: h["config"].update(
            hidden_size=1000),
    }

    @pytest.mark.parametrize("case", list(BAD_ARRAYS))
    def test_arrays_not_of_the_config_are_data_errors(self, tmp_path, case):
        # every stored array is checked against the header's config before a
        # network of that config is built: a header claiming hidden_size
        # 1000 once drew a 69 MB network before the mismatch was seen
        bad = self.edited(tmp_path, self.BAD_ARRAYS[case])
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="parameter"):
                load_checkpoint(bad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
