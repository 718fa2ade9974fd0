import numpy as np
import pytest

from fdcheck import TOL, max_param_rel_err
from myograsp import cells
from myograsp.errors import ConfigError
from myograsp.network import (Network, NetworkConfig, gradient_reversal_backward,
                              load_checkpoint, save_checkpoint)
from myograsp.numerics import derive_rng, make_rng
from myograsp.training import cross_entropy_batch, mse_loss


def small_config(cell="gru", disc=False, lam=-1.0):
    return NetworkConfig(cell_type=cell, input_channels=3, hidden_size=4,
                         num_recurrent_layers=2, predictor_hidden=5,
                         output_angles=15, use_discriminator=disc,
                         num_domains=3 if disc else 0, grl_lambda=lam)


class TestConfigValidation:
    def test_sru_requires_pooling(self):
        cfg = NetworkConfig(cell_type="sru", output_angles=15)
        assert cfg.feature_reduction == "global-average-pool"
        with pytest.raises(ConfigError):
            NetworkConfig(cell_type="sru", feature_reduction="last-timestep")

    def test_gru_requires_last_timestep(self):
        cfg = NetworkConfig(cell_type="gru", output_angles=18)
        assert cfg.feature_reduction == "last-timestep"
        with pytest.raises(ConfigError):
            NetworkConfig(cell_type="gru", feature_reduction="global-average-pool")

    def test_output_angles_restricted(self):
        with pytest.raises(ConfigError):
            NetworkConfig(output_angles=12)

    def test_lambda_range(self):
        with pytest.raises(ConfigError):
            NetworkConfig(grl_lambda=0.5)
        with pytest.raises(ConfigError):
            NetworkConfig(grl_lambda=-1.5)

    def test_discriminator_needs_domains(self):
        with pytest.raises(ConfigError):
            NetworkConfig(use_discriminator=True, num_domains=1)


class TestForward:
    def test_zero_network_outputs_predictor_bias(self):
        net = Network.init(small_config("gru"), make_rng(0))
        for _, arr in net.named_params():
            arr[...] = 0.0
        net.predictor.b2[...] = np.arange(15.0)
        angles, logits, _ = net.forward(make_rng(1).normal(size=(4, 6, 3)))
        np.testing.assert_array_equal(angles, np.tile(np.arange(15.0), (4, 1)))
        assert logits is None

    def test_global_average_pool_of_constant_features(self):
        # features constant over time pass through pooling unchanged;
        # with r ~ 0 the sru output is the highway input itself
        cfg = NetworkConfig(cell_type="sru", input_channels=1, hidden_size=1,
                            num_recurrent_layers=1, predictor_hidden=1,
                            output_angles=15)
        net = Network.init(cfg, make_rng(0))
        for _, arr in net.named_params():
            arr[...] = 0.0
        net.layers[0].b_r[...] = -40.0            # reset gate ~ 0 -> h_t = x_t
        net.predictor.W1[...] = 1.0
        net.predictor.W2[0, 0] = 1.0
        x = np.array([[[5.0], [5.0], [5.0]]])
        angles, _, trace = net.forward(x)
        np.testing.assert_allclose(trace.features, 5.0, atol=1e-12)
        np.testing.assert_allclose(angles[0, 0], 5.0, atol=1e-12)

    def test_pool_of_two_timesteps_is_mean(self):
        cfg = NetworkConfig(cell_type="sru", input_channels=1, hidden_size=1,
                            num_recurrent_layers=1, predictor_hidden=1,
                            output_angles=15)
        net = Network.init(cfg, make_rng(0))
        for _, arr in net.named_params():
            arr[...] = 0.0
        net.layers[0].b_r[...] = -40.0
        _, _, trace = net.forward(np.array([[[1.0], [3.0]]]))
        np.testing.assert_allclose(trace.features[0, 0], 2.0, atol=1e-12)

    def test_last_timestep_reduction(self):
        net = Network.init(small_config("gru"), make_rng(3))
        x = make_rng(4).normal(size=(2, 5, 3))
        _, _, trace = net.forward(x)
        seq, _ = cells.gru_forward(net.layers[0], x)
        seq, _ = cells.gru_forward(net.layers[1], seq)
        np.testing.assert_array_equal(trace.features, seq[:, -1, :])

    def test_discriminator_does_not_change_angles(self):
        rng = make_rng(5)
        net = Network.init(small_config("gru", disc=True), rng)
        twin = Network.init(small_config("gru", disc=False), make_rng(5))
        x = rng.normal(size=(3, 6, 3))
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
            net.forward(np.zeros((6, 3)))

    @pytest.mark.parametrize("keep_trace", [True, False])
    def test_empty_windows_rejected(self, keep_trace):
        net = Network.init(small_config(), make_rng(0))
        with pytest.raises(ValueError, match="windows"):
            net.forward(np.zeros((2, 0, 3)), keep_trace=keep_trace)


class TestUntracedForward:
    """Inference streams the layer stack one block of ``cells.BLOCK`` steps at
    a time; its outputs must equal the traced pass's bit for bit."""

    def assert_matches_traced(self, net, x):
        angles, logits, _ = net.forward(x)
        bare_angles, bare_logits, no_trace = net.forward(x, keep_trace=False)
        assert no_trace is None
        np.testing.assert_array_equal(bare_angles, angles)
        if logits is None:
            assert bare_logits is None
        else:
            np.testing.assert_array_equal(bare_logits, logits)

    @pytest.mark.parametrize("T", [1, cells.BLOCK - 1, cells.BLOCK, cells.BLOCK + 1,
                                   2 * cells.BLOCK + 3])
    @pytest.mark.parametrize("disc", [False, True], ids=["no-disc", "disc"])
    @pytest.mark.parametrize("cell", ["vanilla", "gru", "sru"])
    def test_matches_traced(self, cell, disc, T):
        # block edges on either side of T, and a partial last block
        net = Network.init(small_config(cell, disc), derive_rng(0, "untraced", cell, disc))
        self.assert_matches_traced(net, derive_rng(1, "untraced", T).normal(size=(3, T, 3)))

    @pytest.mark.parametrize("T", [cells.BLOCK, 128])
    def test_sru_pool_in_degenerate_shape(self, T):
        # at B = H = 1 a (B, T, H) mean sums pairwise, where the streamed
        # pool adds step by step: both passes must share one summation order
        # (the two orders differ in the last bit for most draws, not all)
        cfg = NetworkConfig(cell_type="sru", input_channels=1, hidden_size=1,
                            num_recurrent_layers=2, predictor_hidden=3, output_angles=15)
        for draw in range(8):
            net = Network.init(cfg, derive_rng(draw, "untraced-degenerate"))
            self.assert_matches_traced(net, derive_rng(draw, "untraced-degenerate", T)
                                       .normal(size=(1, T, 1)))


class TestBuffers:
    """A training call passes one ``cells.Buffers`` per layer to every step;
    reusing the arrays must change no bit of any step's results."""

    @staticmethod
    def step(net, x, labels, buffers=None):
        angles, logits, trace = net.forward(x, buffers=buffers)
        _, dangles = mse_loss(angles, np.zeros_like(angles))
        _, dlogits = cross_entropy_batch(logits, labels)
        return angles, logits, net.backward(trace, dangles, dlogits), trace

    @pytest.mark.parametrize("cell", ["vanilla", "gru", "sru"])
    def test_reused_buffers_are_bit_identical_to_fresh_arrays(self, cell):
        # full batch, a partial last batch (smaller shapes), full again
        net = Network.init(small_config(cell, disc=True), derive_rng(0, "buffers", cell))
        rng = derive_rng(1, "buffers", cell)
        T = 2 * cells.BLOCK + 3
        batches = [(rng.normal(size=(b, T, 3)), rng.integers(0, 3, size=b)) for b in (5, 2, 5)]
        buffers = [cells.Buffers() for _ in net.layers]
        reused = [self.step(net, x, labels, buffers) for x, labels in batches]
        # the partial batch runs in the full batch's memory, not its own
        # (a smaller array of a stack, as SRU's f, may sit in a sibling's place)
        full, partial = reused[0][3], reused[1][3]
        for layer_full, layer_partial in zip(full.cell_traces, partial.cell_traces):
            for name, b in layer_partial.named():
                if name != "x":   # layer 0's input is the caller's
                    assert any(np.shares_memory(a, b) for _, a in layer_full.named()), name
        for (x, labels), (angles, logits, grads, _) in zip(batches, reused):
            fresh_angles, fresh_logits, fresh_grads, _ = self.step(net, x, labels)
            np.testing.assert_array_equal(angles, fresh_angles)
            np.testing.assert_array_equal(logits, fresh_logits)
            assert grads.keys() == fresh_grads.keys()
            for name, g in grads.items():
                np.testing.assert_array_equal(g, fresh_grads[name], err_msg=name)

    def test_untraced_forward_rejects_buffers(self):
        net = Network.init(small_config("sru"), make_rng(0))
        buffers = [cells.Buffers() for _ in net.layers]
        with pytest.raises(ValueError, match="buffers"):
            net.forward(np.zeros((2, 4, 3)), keep_trace=False, buffers=buffers)
        with pytest.raises(ValueError, match="buffers"):
            net.forward(np.zeros((2, 4, 3)), buffers=buffers[:1])


class TestGradientReversal:
    def test_sign_flip(self):
        out = gradient_reversal_backward(np.array([0.2, -0.5]), -1.0)
        np.testing.assert_array_equal(out, [-0.2, 0.5])

    def test_annihilation(self):
        out = gradient_reversal_backward(np.array([3.0, -7.0, 1.0]), 0.0)
        np.testing.assert_array_equal(out, [0.0, 0.0, -0.0])

    def test_scalar_multiply(self):
        out = gradient_reversal_backward(np.array([1.0, 2.0]), -0.5)
        np.testing.assert_array_equal(out, [-0.5, -1.0])

    def test_lambda_out_of_range(self):
        with pytest.raises(ValueError):
            gradient_reversal_backward(np.ones(2), 0.1)


class TestBackward:
    def setup_case(self, cell="gru", lam=-1.0, seed=7):
        rng = derive_rng(seed, "netcase", cell)
        net = Network.init(small_config(cell, disc=True, lam=lam), rng)
        x = rng.normal(size=(2, 6, 3))
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

    def test_lambda_zero_reversal_annihilates(self):
        net, x, y, labels = self.setup_case(lam=0.0)
        angles, logits, trace = net.forward(x)
        _, dangles = mse_loss(angles, y)
        _, dlogits = cross_entropy_batch(logits, labels)
        with_domain = net.backward(trace, dangles, dlogits)
        without = net.backward(trace, dangles, None)
        for name in without:
            if name.startswith("discriminator"):
                continue
            np.testing.assert_allclose(with_domain[name], without[name], atol=1e-15)

    def test_feature_gradient_is_path_sum(self):
        # full backward == predictor-only + (lambda * discriminator path),
        # the latter obtained with a zero angle gradient
        net, x, y, labels = self.setup_case()
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
        _, _, trace = net.forward(np.zeros((1, 4, 3)))
        with pytest.raises(ValueError):
            net.backward(trace, np.zeros((1, 15)), np.zeros((1, 3)))


def run_network_gradcheck(cell: str, seed: int, lam: float = -1.0) -> float:
    """Finite differences for the full ADA network.

    Behind the reversal layer the effective objective is mse + lambda * ce,
    while the discriminator head keeps its own cross-entropy; each parameter
    group is checked against its group scalar.
    """
    rng = derive_rng(seed, "netgrad", cell)
    net = Network.init(small_config(cell, disc=True, lam=lam), rng)
    x = rng.normal(size=(2, 6, 3))
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
    worst = max_param_rel_err(shared, grads, group_loss(lam))
    return max(worst, max_param_rel_err(disc, grads, group_loss(1.0)))


def run_head_gradcheck(head: str, seed: int) -> float:
    """Finite differences for one fully-connected head in isolation."""
    rng = derive_rng(seed, "headgrad", head)
    net = Network.init(small_config("gru", disc=True), rng)
    x = rng.normal(size=(2, 6, 3))
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
        x = make_rng(2).normal(size=(3, 5, 3))
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
