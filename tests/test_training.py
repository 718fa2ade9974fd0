import tracemalloc
import warnings

import numpy as np
import pytest

from fdcheck import max_array_rel_err
from myograsp import cells, datapipe, training
from myograsp.datapipe import EMG_CHANNELS
from myograsp.errors import NumericError
from myograsp.network import Network, NetworkConfig
from myograsp.numerics import derive_rng, make_rng
from myograsp.training import (AdamState, EarlyStopper, TrainConfig, adam_step,
                               TargetStats, cross_entropy_batch, mse_loss, predict, train)
from training_helpers import RAW_TARGETS, UNRUNNABLE, ArraySource, cross_entropy_loss


class TestMseLoss:
    def test_perfect(self):
        loss, grad = mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_hand_computed(self):
        # (9 + 16) / 2
        loss, _ = mse_loss(np.array([3.0, 4.0]), np.array([0.0, 0.0]))
        assert loss == 12.5

    def test_gradient_matches_finite_differences(self):
        rng = make_rng(1)
        pred = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 3))
        _, grad = mse_loss(pred, target)
        err = max_array_rel_err(pred, grad, lambda: mse_loss(pred, target)[0],
                                step=1e-6)
        assert err < 1e-6

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss(np.ones(3), np.ones(4))


class TestCrossEntropy:
    def test_uniform_logits(self):
        for d in (2, 5, 9):
            loss, _ = cross_entropy_loss(np.zeros(d), 0)
            np.testing.assert_allclose(loss, np.log(d), rtol=1e-15)

    def test_confident_correct(self):
        # ln(1 + e^-20); float rounding inside log-sum-exp sits at ~1e-16
        # absolute, so compare absolutely at this magnitude
        loss, _ = cross_entropy_loss(np.array([10.0, -10.0]), 0)
        np.testing.assert_allclose(loss, 2.061153620314381e-09, rtol=0, atol=1e-15)

    def test_gradient_sums_to_zero(self):
        _, grad = cross_entropy_loss(make_rng(2).normal(size=7), 3)
        np.testing.assert_allclose(grad.sum(), 0.0, atol=1e-15)

    def test_gradient_is_softmax_minus_onehot(self):
        logits = np.array([1.0, 2.0, 0.5])
        _, grad = cross_entropy_loss(logits, 1)
        soft = np.exp(logits) / np.exp(logits).sum()
        soft[1] -= 1.0
        np.testing.assert_allclose(grad, soft, atol=1e-14)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            cross_entropy_loss(np.zeros(3), 3)

    def test_batch_mean_and_grad_scale(self):
        rng = make_rng(3)
        logits = rng.normal(size=(4, 5))
        labels = np.array([0, 2, 4, 1])
        loss, grad = cross_entropy_batch(logits, labels)
        singles = [cross_entropy_loss(logits[i], labels[i]) for i in range(4)]
        np.testing.assert_allclose(loss, np.mean([s[0] for s in singles]), rtol=1e-14)
        np.testing.assert_allclose(grad, np.stack([s[1] for s in singles]) / 4,
                                   atol=1e-15)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = make_rng(0).normal(size=(3, 3))
        orig = p.copy()
        state = AdamState()
        for _ in range(5):
            adam_step([("p", p)], {"p": np.zeros_like(p)}, state, lr=0.1)
        np.testing.assert_array_equal(p, orig)

    def test_first_step_magnitude_is_lr(self):
        # mhat = g, sqrt(vhat) = |g| -> |delta| = lr * |g| / (|g| + eps) ~ lr
        rng = make_rng(1)
        p = rng.normal(size=(4, 4))
        g = rng.normal(size=(4, 4)) + np.sign(rng.normal(size=(4, 4))) * 0.5
        orig = p.copy()
        adam_step([("p", p)], {"p": g}, AdamState(), lr=0.001)
        delta = p - orig
        np.testing.assert_allclose(np.abs(delta), 0.001, rtol=1e-4)
        np.testing.assert_array_equal(np.sign(delta), -np.sign(g))

    def test_two_steps_match_scalar_hand_iteration(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        theta = 1.3
        g1, g2 = 0.7, -0.4
        m = v = 0.0
        for t, g in ((1, g1), (2, g2)):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mhat = m / (1 - b1 ** t)
            vhat = v / (1 - b2 ** t)
            theta -= lr * mhat / (np.sqrt(vhat) + eps)
        p = np.array([[1.3]])
        state = AdamState()
        adam_step([("p", p)], {"p": np.array([[g1]])}, state, lr)
        adam_step([("p", p)], {"p": np.array([[g2]])}, state, lr)
        np.testing.assert_allclose(p[0, 0], theta, rtol=0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adam_step([("p", np.ones((2, 2)))], {"p": np.ones((2, 3))},
                      AdamState(), 0.01)


class TestEarlyStopper:
    def test_spec_trace(self):
        # improvements only at epochs 1..5, patience 8 -> stop at epoch 13
        stopper = EarlyStopper(patience=8)
        stopped_at = None
        values = {e: 10.0 - e for e in range(1, 6)}   # improving
        for epoch in range(1, 31):
            value = values.get(epoch, 5.0)            # plateau at the epoch-5 value
            if stopper.update(epoch, value):
                stopped_at = epoch
                break
        assert stopped_at == 13
        assert stopper.best_epoch == 5
        assert stopper.best == 5.0

    def test_ties_do_not_reset_patience(self):
        stopper = EarlyStopper(patience=2)
        assert not stopper.update(1, 1.0)
        assert not stopper.update(2, 1.0)   # tie counts as stale
        assert stopper.update(3, 1.0)
        assert stopper.best_epoch == 1


def tiny_setup(cell="gru", disc=False, num_domains=2, seed=0, n=6):
    rng = derive_rng(seed, "train-setup", cell)
    cfg = NetworkConfig(cell_type=cell, hidden_size=4, predictor_hidden=8,
                        output_angles=15, use_discriminator=disc,
                        num_domains=num_domains if disc else 0)
    net = Network.init(cfg, rng)
    x = rng.normal(size=(n, 8, EMG_CHANNELS))
    y = rng.uniform(0, 1, size=(n, 15))
    domains = rng.integers(0, num_domains, size=n) if disc else None
    return net, ArraySource(x, y, domains)


class TestTrainLoop:
    def test_overfit_one_sample(self):
        net, _ = tiny_setup(seed=0, n=1)
        rng = derive_rng(0, "train-setup", "gru")  # fresh draws for data
        x = rng.normal(size=(1, 8, EMG_CHANNELS))
        y = rng.uniform(0, 1, size=(1, 15))
        src = ArraySource(x, y)
        cfg = TrainConfig(learning_rate=0.01, max_epochs=200, patience=200,
                          batch_size=1, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # zero-range validation angles
            net, report = train(net, src, src, cfg, RAW_TARGETS)
        losses = [e.train_loss for e in report.epochs]
        crossing = next(i for i, l in enumerate(losses) if l < 1e-4)
        assert crossing < 200
        assert losses[-1] < 1e-4
        # decreasing at block granularity until the threshold is reached
        # (Adam wiggles epoch-to-epoch near convergence)
        block = 20
        mins = [min(losses[i:i + block]) for i in range(0, crossing + 1, block)]
        assert all(b < a for a, b in zip(mins, mins[1:]))

    def test_determinism(self):
        results = []
        for _ in range(2):
            net, src = tiny_setup(seed=3)
            cfg = TrainConfig(max_epochs=5, patience=5, batch_size=2, seed=3)
            net, report = train(net, src, src, cfg, RAW_TARGETS)
            results.append((net.copy_params(),
                            [(e.train_loss, e.val_rmse, e.val_nrmse) for e in report.epochs]))
        (p1, r1), (p2, r2) = results
        assert r1 == r2
        for name in p1:
            np.testing.assert_array_equal(p1[name], p2[name])

    def test_returned_params_are_best_epoch(self):
        net, src = tiny_setup(seed=5, n=8)
        cfg = TrainConfig(learning_rate=0.05, max_epochs=12, patience=12,
                          batch_size=4, seed=5)
        net, report = train(net, src, src, cfg, RAW_TARGETS)
        xs, ys, _ = src.batch(np.arange(len(src)))
        from myograsp.metrics import angle_ranges, nrmse
        val = nrmse(predict(net, xs), ys, angle_ranges(ys, clamp_zero=True))
        best = min(e.val_nrmse for e in report.epochs)
        np.testing.assert_allclose(val, best, rtol=1e-12)

    def test_empty_training_set(self):
        net, src = tiny_setup()
        empty = ArraySource(np.zeros((0, 8, EMG_CHANNELS)), np.zeros((0, 15)))
        with pytest.raises(ValueError, match="empty"):
            train(net, empty, src, TrainConfig(max_epochs=1, patience=1), RAW_TARGETS)

    def test_nan_loss_aborts(self):
        net, src = tiny_setup()
        bad = ArraySource(src.x, np.full_like(src.y, np.nan))
        with pytest.raises(NumericError):
            train(net, bad, src, TrainConfig(max_epochs=1, patience=1), RAW_TARGETS)

    def test_non_finite_gradient_aborts_before_the_update(self, monkeypatch):
        net, src = tiny_setup(disc=True)
        before = net.copy_params()
        backward = net.backward

        def poisoned(*args):
            grads = backward(*args)
            grads["layer1.U_r"][0, 1] = np.inf
            return grads

        monkeypatch.setattr(net, "backward", poisoned)
        with pytest.raises(NumericError, match=r"gradient of layer1\.U_r at epoch 1, batch 0"):
            train(net, src, src, TrainConfig(max_epochs=1, patience=1, batch_size=4),
                  RAW_TARGETS)
        for name, arr in net.named_params():
            np.testing.assert_array_equal(arr, before[name], err_msg=name)

    def test_workspace_outlives_the_call(self, monkeypatch):
        # a second call trains in the first call's trace and dx arrays, and
        # gives the parameters that fresh arrays for each call give
        cfg = TrainConfig(max_epochs=1, patience=1, batch_size=4, seed=7)
        seen = []   # per layer backward: its trace's and its dx arrays
        cell_backward = cells.cell_backward

        def recording_backward(trace, *args):
            out = cell_backward(trace, *args)
            seen.append(dict(trace.named(), dx=out[1]))
            return out

        monkeypatch.setattr(cells, "cell_backward", recording_backward)
        net, src = tiny_setup(seed=7)   # 6 windows: batches of 4 and 2
        calls = []
        for _ in range(2):
            seen.clear()
            train(net, src, src, cfg, RAW_TARGETS)
            calls.append(list(seen))
        first, second = calls
        assert len(first) == len(second) == 4
        # layer 1's backward, then layer 0's, which computes no dx
        assert [a["dx"] is None for a in first + second] == [False, True] * 4
        for a, b in zip(first, second):
            for name in a.keys() - {"x"}:   # layer 0's input is the batch's
                if a[name] is not None:
                    assert np.shares_memory(a[name], b[name]), name

        fresh, _ = tiny_setup(seed=7)
        for _ in range(2):
            fresh.buffers = [cells.Buffers() for _ in fresh.layers]
            train(fresh, src, src, cfg, RAW_TARGETS)
        expected = fresh.copy_params()
        for name, arr in net.named_params():
            np.testing.assert_array_equal(arr, expected[name], err_msg=name)

    def test_missing_domain_labels_with_ada(self):
        net, _ = tiny_setup(disc=True)
        rng = make_rng(0)
        src = ArraySource(rng.normal(size=(4, 8, EMG_CHANNELS)), rng.uniform(size=(4, 15)))
        with pytest.raises(ValueError, match="domain label"):
            train(net, src, src, TrainConfig(max_epochs=1, patience=1), RAW_TARGETS)

    def test_ada_loss_is_mse_plus_unweighted_cross_entropy(self):
        # a discriminator makes ADA active: one full-batch step reports
        # mse + ce and updates the parameters by their gradients, the ce's
        # reaching the feature extractor through the reversal layer
        net, src = tiny_setup(disc=True, seed=9)
        cfg = TrainConfig(max_epochs=1, patience=1, batch_size=len(src), seed=9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # zero-range validation angles
            net, report = train(net, src, src, cfg, RAW_TARGETS)

        twin, _ = tiny_setup(disc=True, seed=9)
        x, y, domains = src.batch(make_rng(cfg.seed).permutation(len(src)))
        angles, logits, trace = twin.forward(x)
        mse, dangles = mse_loss(angles, RAW_TARGETS.normalize(y))
        ce, dlogits = cross_entropy_batch(logits, domains)
        grads = twin.backward(trace, dangles, dlogits)
        adam_step(twin.named_params(), grads, AdamState(), cfg.learning_rate)

        assert report.epochs[0].train_loss == pytest.approx(mse + ce, rel=1e-12)
        expected = twin.copy_params()
        for name, arr in net.named_params():
            np.testing.assert_array_equal(arr, expected[name], err_msg=name)

    def test_report_csv(self, tmp_path):
        net, src = tiny_setup(seed=2)
        cfg = TrainConfig(max_epochs=3, patience=3, batch_size=2, seed=2)
        _, report = train(net, src, src, cfg, RAW_TARGETS)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_rmse,val_nrmse,seconds"
        assert len(lines) == 1 + len(report.epochs)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)


@pytest.mark.parametrize("name,value", UNRUNNABLE, ids=lambda v: str(v))
def test_config_rejects_unrunnable_values(name, value):
    with pytest.raises(ValueError, match=name):
        TrainConfig(**{name: value})


class TestPredict:
    def net(self, cell, hidden):
        cfg = NetworkConfig(cell_type=cell, hidden_size=hidden, predictor_hidden=8,
                            output_angles=15, use_discriminator=True, num_domains=2)
        return Network.init(cfg, derive_rng(0, "predict", cell))

    @pytest.mark.parametrize("cell", ["vanilla", "gru", "sru"])
    def test_bit_identical_to_forward_chunk_by_chunk(self, cell):
        net = self.net(cell, hidden=6)
        x = make_rng(1).normal(size=(10, 7, EMG_CHANNELS))
        expected = np.concatenate([net.forward(x[lo:lo + 4])[0] for lo in range(0, 10, 4)])
        np.testing.assert_array_equal(predict(net, x, chunk=4), expected)

    @pytest.mark.parametrize("hidden", [32, 64])
    def test_gru_predictions_at_batch_two_equal_traced(self, hidden):
        # the heads read a streamed GRU's feature, a view of its (H, B)
        # state, in the traced pass's memory order: at a batch of 2 a
        # feature-major operand rounds differently in the heads' GEMMs
        net = self.net("gru", hidden)
        x = make_rng(9).normal(size=(2, 5, EMG_CHANNELS))
        np.testing.assert_array_equal(predict(net, x), net.forward(x)[0])

    @pytest.mark.parametrize("cell", ["gru", "sru"])
    def test_no_windows_give_empty_predictions(self, cell):
        net = self.net(cell, hidden=6)
        preds = predict(net, np.zeros((0, 7, EMG_CHANNELS)))
        assert preds.shape == (0, 15) and preds.dtype == np.float32
        source = ArraySource(np.zeros((0, 7, EMG_CHANNELS)), np.zeros((0, 15)))
        preds, ys = training.predict_source(net, source, RAW_TARGETS)
        assert preds.shape == ys.shape == (0, 15)

    @pytest.mark.parametrize("cell", ["vanilla", "gru", "sru"])
    def test_peak_memory_independent_of_chunk_count(self, cell):
        # no chunk's activations may outlive it: four chunks peak where one
        # does, plus the three more chunks' predictions, which are the
        # result, and 2 KiB for the list that holds them and their array
        # headers; each measured on a fresh network, whose inference
        # workspace grows inside the measurement
        x = make_rng(2).normal(size=(4 * 64, 48, EMG_CHANNELS))

        def peak_bytes(n):
            net = self.net(cell, hidden=32)
            tracemalloc.start()
            try:
                predict(net, x[:n], chunk=64)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, four = peak_bytes(64), peak_bytes(4 * 64)
        predictions = 3 * 64 * 15 * 4   # three chunks' float32 angles
        assert four <= one + predictions + 2 * 1024, (one, four)

    @pytest.mark.parametrize("cell", ["vanilla", "gru", "sru"])
    def test_reused_workspace_is_bit_identical_to_fresh(self, cell):
        # one network's inference workspace serves chunks of 256, 7 and 256
        # windows (a partial last block each); a fresh network per call
        # gives the same bits
        x = make_rng(5).normal(size=(256, 2 * cells.BLOCK + 3, EMG_CHANNELS))
        net = self.net(cell, hidden=6)
        for n in (256, 7, 256):
            got = predict(net, x[:n])
            np.testing.assert_array_equal(got, predict(self.net(cell, hidden=6), x[:n]))

    @pytest.mark.parametrize("cell", ["gru", "sru"])
    def test_source_scored_chunk_by_chunk_equals_whole_split(self, cell):
        # 600 windows span three gathers of one predict chunk each, the last
        # partial; the whole split materialised, normalised and predicted at
        # once gives the same bits
        cfg = NetworkConfig(cell_type=cell, hidden_size=6, predictor_hidden=8,
                            output_angles=15)
        net = Network.init(cfg, derive_rng(0, "predict-source", cell))
        rows = 600 * 4 + datapipe.WINDOW_SIZE
        rng = make_rng(7)
        rec = datapipe.AlignedRecording(0, 0, np.arange(rows) * 5.0,
                                        rng.normal(2.0, 3.0, size=(rows, 8)),
                                        rng.normal(40.0, 9.0, size=(rows, 15)))
        ws = datapipe.make_windows(rec, stride=4)
        idx = make_rng(8).permutation(len(ws))[:600]
        stats = datapipe.channel_stats(ws, idx)
        target_stats = TargetStats(mean=np.full(15, 40.0), std=np.full(15, 9.0))

        preds, ys = training.predict_source(net, datapipe.WindowSource(ws, idx, stats),
                                            target_stats)
        xs, expected_ys = ws.materialize(idx)
        expected = target_stats.denormalize(predict(net, stats.apply(xs)))
        assert len(idx) > 2 * training.PREDICT_CHUNK
        np.testing.assert_array_equal(preds, expected)
        np.testing.assert_array_equal(ys, expected_ys)


def first_predict_peak(net, x):
    """tracemalloc peak of the first ``predict`` on a fresh network, the
    growth of its inference workspace included."""
    assert not net.stream_scratch._flat
    tracemalloc.start()
    try:
        predict(net, x, chunk=len(x))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# a batch at which the design's arrays outweigh numpy's transient iteration
# buffers (at most 8192 elements an operand), so that a (B, H) array more
# shows in the peak
PREDICT_B, PREDICT_T, PREDICT_H = 512, 128, 32
PREDICT_PH, PREDICT_ANGLES = 8, 15


def gru_workspace(B):
    """(scratch, layer) float32 elements of a streamed GRU call at batch B:
    the scratch shared by both layers is the one (2H+D_in+1, B) column
    [h; x; 1; r*h] at the top layer's width, D_in = H, into which the
    step's input is cast, and one step's z|r block, whose r rows then take
    the candidate (and after the last step the heads' feature); a layer
    keeps one h, which each step writes from the column's h rows."""
    H = PREDICT_H
    return B * (3 * H + 1) + 2 * B * H, B * H


def sru_workspace(B):
    """(scratch, layer) float32 elements of a streamed SRU call at batch B:
    the scratch shared by both layers is one block's cast input, two gate
    planes (xhat, in which c_t and tanh(c_t) are scanned, and f, then r;
    layer 0's W_p x goes to its block output) and f * c; a layer keeps its
    block output and the c it carries."""
    H, D, n = PREDICT_H, EMG_CHANNELS, cells.BLOCK
    return n * B * D + 2 * n * B * H + B * H, n * B * H + B * H


def design_bound(B, scratch, layer, pooled, ph=PREDICT_PH):
    """Bytes the untraced forward holds by design at batch B, given its
    scratch and what one layer keeps in float32 elements: one set of
    scratch shared by the two layers, each layer's own arrays, no copy of
    any parameter, and heads formed in place on a feature that takes no
    memory of its own: the predictor's hidden activations, ``predict``'s
    result, in which the predictor forms its angles, one more set of
    angles for the buffer numpy iterates the angles' broadcast bias add
    through and, when the cell is ``pooled``, the pool's running sum,
    which becomes the feature.  12 KiB cover the call's Python objects
    (array headers, views, traces) and numpy's other iteration buffers."""
    heads = B * (ph + 2 * PREDICT_ANGLES) + pooled * B * PREDICT_H
    return 4 * (scratch + 2 * layer + heads) + 12 * 1024


def predict_peak_and_bound(cell, B, disc=False, ph=PREDICT_PH):
    """The first predict's peak at batch B and the design bound, which has
    no discriminator term: inference runs no discriminator head.  ``ph`` is
    the heads' hidden width."""
    cfg = NetworkConfig(cell_type=cell, hidden_size=PREDICT_H, predictor_hidden=ph,
                        output_angles=PREDICT_ANGLES, use_discriminator=disc,
                        num_domains=3 if disc else 0)
    net = Network.init(cfg, derive_rng(0, "predict-peak"))
    x = make_rng(3).normal(size=(B, PREDICT_T, EMG_CHANNELS))
    peak = first_predict_peak(net, x)
    workspace = gru_workspace if cell == "gru" else sru_workspace
    return peak, design_bound(B, *workspace(B), pooled=cell == "sru", ph=ph)


def test_gru_predict_peak_bounded_by_layer_states():
    # a streamed GRU layer keeps one h and shares one step's scratch with
    # the other layer; the heads read the top layer's h copied into that
    # scratch.  A second h per layer, scratch per layer, a candidate block
    # beside z|r, gates or block outputs kept for BLOCK steps, or a copy of
    # the feature outside the scratch break the bound
    peak, bound = predict_peak_and_bound("gru", PREDICT_B)
    assert peak <= bound, (peak, bound)


def test_gru_predict_peak_bounded_by_layer_states_at_batch_64():
    # at B=64 numpy's iteration buffers weigh as much as a (B, H) array: an
    # elementwise step over strided column windows of the gates allocates
    # two and breaks the bound
    peak, bound = predict_peak_and_bound("gru", 64)
    assert peak <= bound, (peak, bound)


def test_sru_predict_peak_bounded_by_layer_states():
    # a streamed SRU layer keeps its block output and its carried c and
    # shares one block's scratch, two gate planes, with the other layer; the
    # pool's mean is taken in its running sum.  A third gate plane, scratch
    # per layer, c_t, tanh(c_t) or r * tanh(c_t) in block arrays beside the
    # planes, or a copy of the feature break the bound
    peak, bound = predict_peak_and_bound("sru", PREDICT_B)
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("cell", ["gru", "sru"])
def test_ada_predict_peak_has_no_discriminator_term(cell):
    # an ADA network predicts in what its ADA-free twin does: the
    # discriminator's hidden activations and domain logits are training-only.
    # Behind 8-wide heads they would hide under the layer stack's transient
    # peak; behind 64-wide ones they break the bound by about 125 KB
    peak, bound = predict_peak_and_bound(cell, PREDICT_B, disc=True, ph=64)
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("cell", ["gru", "sru"])
def test_predict_peak_holds_no_parameter_copy(cell):
    # at a batch of 2 the layers' parameters (40,704 B for the GRU, 16,896
    # for the SRU) outweigh the workspace, so a copy of them per forward
    # breaks the bound
    peak, bound = predict_peak_and_bound(cell, 2)
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("cell", ["vanilla", "gru", "sru"])
def test_training_and_inference_stay_float32(cell, monkeypatch):
    # one float64 array in a step upcasts the step's arithmetic and throws
    # the float32 speed-up away without failing anything else
    states, step_grads = [], []
    adam_step_ = training.adam_step

    def recording_adam_step(params, grads, state, lr):
        states.append(state)
        step_grads.append(grads)
        return adam_step_(params, grads, state, lr)

    monkeypatch.setattr(training, "adam_step", recording_adam_step)
    net, src = tiny_setup(cell, disc=True)
    train(net, src, src, TrainConfig(max_epochs=1, patience=1, batch_size=len(src)),
          RAW_TARGETS)
    preds = predict(net, src.x)
    _, _, trace = net.forward(src.x)

    assert len(states) == 1
    arrays = [(f"parameter {n}", a) for n, a in net.named_params()]
    arrays += [(f"gradient {n}", a) for n, a in step_grads[0].items()]
    arrays += [(f"adam {k} {n}", a) for k in ("m", "v") for n, a in getattr(states[0], k).items()]
    workspace = [("buffers", b) for b in net.buffers]
    workspace += [("stream_buffers", b) for b in net.stream_buffers]
    workspace += [("stream_scratch", net.stream_scratch)]
    arrays += [(f"{what} {n}", a) for what, b in workspace for n, a in b._flat.items()]
    arrays += [(f"trace layer{i} {n}", a) for i, t in enumerate(trace.cell_traces)
               for n, a in t.named()]
    arrays += [("features", trace.features), ("predictor hidden", trace.pred_a1),
               ("discriminator hidden", trace.disc_a1), ("predictions", preds)]
    assert len(states[0].m) == len(net.named_params())
    used = workspace[:-1] if cell == "vanilla" else workspace   # vanilla takes no scratch
    assert all(b._flat for _, b in used), "a workspace stayed empty"
    for what, a in arrays:
        assert a.dtype == np.float32, what


@pytest.mark.parametrize("cell", ["gru", "sru"])
def test_predict_peak_independent_of_window_length(cell):
    # inference streams the layer stack one block of BLOCK steps at a time in
    # a workspace of one block, and builds no (T, B, H) buffer: on a fresh
    # network, windows eight times as long peak no higher
    B, H = 64, 32
    cfg = NetworkConfig(cell_type=cell, hidden_size=H, predictor_hidden=8, output_angles=15)

    def peak_bytes(T):
        net = Network.init(cfg, derive_rng(0, "predict-length", cell))
        return first_predict_peak(net, make_rng(4).normal(size=(B, T, EMG_CHANNELS)))

    short, long = peak_bytes(2 * cells.BLOCK), peak_bytes(16 * cells.BLOCK)
    assert long <= 1.1 * short, (short, long)
