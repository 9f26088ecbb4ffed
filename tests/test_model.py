"""Network tests: scalar cell oracles, gradient checking, invariances."""
import hashlib
import io
import json
import math
import struct
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from embfuse.errors import ValidationError
from embfuse.model import (
    ModelConfig,
    confusion_matrix,
    evaluate,
    forward,
    from_flat,
    grads_to_flat,
    gru_cell_step,
    inference_batch_size,
    init_parameters,
    load_checkpoint,
    loss_and_grad,
    lstm_cell_step,
    masked_max_pool,
    predict,
    predict_proba,
    save_checkpoint,
    sigmoid,
    to_flat,
    trainable_block_names,
)
from embfuse.model import _bidirectional, _gru_direction_forward, _lstm_direction_forward
from embfuse.model import _leading_pad, _loss_probs_grad, _step_mask, _store_bytes
from embfuse.model import _rows, _slots
from embfuse.seeding import derive_rng

from test_golden import PINNED_BLAS, blas_build


def scalar_sigmoid(v):
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def scalar_lstm_step(x, h_prev, c_prev, W, U, b):
    """Independent per-unit LSTM reference, plain Python loops only."""
    D, H = len(x), len(h_prev)
    h_out, c_out = [], []
    for j in range(H):
        def pre(col):
            s = b[col]
            for d in range(D):
                s += x[d] * W[d][col]
            for k in range(H):
                s += h_prev[k] * U[k][col]
            return s
        i = scalar_sigmoid(pre(j))
        f = scalar_sigmoid(pre(H + j))
        g = math.tanh(pre(2 * H + j))
        o = scalar_sigmoid(pre(3 * H + j))
        c = f * c_prev[j] + i * g
        h_out.append(o * math.tanh(c))
        c_out.append(c)
    return h_out, c_out


def scalar_gru_step(x, h_prev, W, U, b):
    """Independent per-unit GRU reference with the reset gate inside the candidate."""
    D, G = len(x), len(h_prev)
    out = []
    for j in range(G):
        def xw(col):
            return sum(x[d] * W[d][col] for d in range(D))
        def hu(col):
            return sum(h_prev[k] * U[k][col] for k in range(G))
        z = scalar_sigmoid(xw(j) + hu(j) + b[j])
        r = scalar_sigmoid(xw(G + j) + hu(G + j) + b[G + j])
        n = math.tanh(xw(2 * G + j) + r * hu(2 * G + j) + b[2 * G + j])
        out.append((1.0 - z) * n + z * h_prev[j])
    return out


class TestSigmoid:
    @staticmethod
    def two_branch(x):
        """Reference: exp of a non-positive argument only, so nothing overflows."""
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    def test_extremes_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(np.array([-800.0, 800.0]))
        assert out.tolist() == [0.0, 1.0]

    def test_exactly_half_at_zero(self):
        assert sigmoid(np.zeros(3)).tolist() == [0.5, 0.5, 0.5]

    def test_matches_two_branch_form(self):
        x = np.linspace(-40.0, 40.0, 80001)
        ref = self.two_branch(x)
        assert np.max(np.abs(sigmoid(x) - ref) / ref) <= 5e-16


class TestCellOracles:
    def test_lstm_step_matches_scalar_loops(self):
        rng = derive_rng(31, "lstm-oracle")
        for trial in range(100):
            D = int(rng.integers(1, 7))
            H = int(rng.integers(1, 7))
            x = rng.normal(size=D)
            h0 = rng.normal(size=H)
            c0 = rng.normal(size=H)
            W = rng.normal(size=(D, 4 * H))
            U = rng.normal(size=(H, 4 * H))
            b = rng.normal(size=4 * H)
            h, c = lstm_cell_step(x, h0, c0, (W, U, b))
            h_ref, c_ref = scalar_lstm_step(x, h0, c0, W, U, b)
            assert np.max(np.abs(h - np.array(h_ref))) < 1e-12, trial
            assert np.max(np.abs(c - np.array(c_ref))) < 1e-12, trial

    def test_gru_step_matches_scalar_loops(self):
        rng = derive_rng(32, "gru-oracle")
        for trial in range(100):
            D = int(rng.integers(1, 7))
            G = int(rng.integers(1, 7))
            x = rng.normal(size=D)
            h0 = rng.normal(size=G)
            W = rng.normal(size=(D, 3 * G))
            U = rng.normal(size=(G, 3 * G))
            b = rng.normal(size=3 * G)
            h = gru_cell_step(x, h0, (W, U, b))
            h_ref = scalar_gru_step(x, h0, W, U, b)
            assert np.max(np.abs(h - np.array(h_ref))) < 1e-12, trial

    def test_lstm_step_batched_equals_per_row(self):
        rng = derive_rng(33, "lstm-batch")
        D, H, B = 4, 3, 5
        x = rng.normal(size=(B, D))
        h0 = rng.normal(size=(B, H))
        c0 = rng.normal(size=(B, H))
        params = (rng.normal(size=(D, 4 * H)), rng.normal(size=(H, 4 * H)),
                  rng.normal(size=4 * H))
        h, c = lstm_cell_step(x, h0, c0, params)
        for row in range(B):
            h1, c1 = lstm_cell_step(x[row], h0[row], c0[row], params)
            assert np.allclose(h[row], h1, atol=1e-15, rtol=0)
            assert np.allclose(c[row], c1, atol=1e-15, rtol=0)

    def test_cell_shape_validation(self):
        with pytest.raises(ValidationError) as exc:
            lstm_cell_step(np.zeros(3), np.zeros(2), np.zeros(2),
                           (np.zeros((3, 9)), np.zeros((2, 8)), np.zeros(8)))
        assert exc.value.code == "shape-mismatch"
        with pytest.raises(ValidationError) as exc:
            gru_cell_step(np.zeros(3), np.zeros(2),
                          (np.zeros((3, 6)), np.zeros((2, 7)), np.zeros(6)))
        assert exc.value.code == "shape-mismatch"


class TestDirectionLayers:
    """Bidirectional layers against manual per-step loops over the cell ops."""

    @staticmethod
    def _inputs(seed):
        rng = derive_rng(seed, "layer")
        B, T, D, H = 3, 6, 4, 5
        X = rng.normal(size=(B, T, D))
        mask = (rng.random(size=(B, T)) > 0.3).astype(np.float64)
        mask[0] = 1.0  # keep one fully valid row
        return X, mask, rng, H

    @staticmethod
    def _cell_loop(step, X, mask, state):
        """Outputs of step(x_t, state) -> (h, state) over time, carrying the
        state through padded steps."""
        ref = np.empty(X.shape[:2] + state[0].shape[-1:])
        for t in range(X.shape[1]):
            m = mask[:, t:t + 1]
            new = step(X[:, t], state)
            state = tuple(m * a + (1.0 - m) * b for a, b in zip(new, state))
            ref[:, t] = state[0]
        return ref

    def _check_both_halves(self, direction, X, mask, weights, step, state):
        """fw half = the cell loop with the fw blocks; bw half = the cell loop
        with the bw blocks over the reversed input, flipped back."""
        out, store = _bidirectional(direction, X, _step_mask(mask > 0), weights, training=False)
        assert store is None
        H = out.shape[-1] // 2
        for d, half in enumerate((out[..., :H], out[..., H:])):
            blocks = tuple(w[d] for w in weights)
            order = slice(None, None, 1 - 2 * d)  # time reversed for bw
            ref = self._cell_loop(lambda x, s: step(x, s, blocks),
                                  X[:, order], mask[:, order], state)[:, order]
            assert np.max(np.abs(half - ref)) < 1e-12

    def test_lstm_layer_matches_cell_loop(self):
        X, mask, rng, H = self._inputs(41)
        D = X.shape[2]
        weights = (rng.normal(size=(2, D, 4 * H)), rng.normal(size=(2, H, 4 * H)),
                   rng.normal(size=(2, 4 * H)))
        zeros = np.zeros((X.shape[0], H))
        self._check_both_halves(
            _lstm_direction_forward, X, mask, weights,
            lambda x, s, blocks: lstm_cell_step(x, *s, blocks), (zeros, zeros))

    def test_gru_layer_matches_cell_loop(self):
        X, mask, rng, H = self._inputs(43)
        D = X.shape[2]
        weights = (rng.normal(size=(2, D, 3 * H)), rng.normal(size=(2, H, 3 * H)),
                   rng.normal(size=(2, 3 * H)))
        self._check_both_halves(
            _gru_direction_forward, X, mask, weights,
            lambda x, s, blocks: (gru_cell_step(x, s[0], blocks),), (np.zeros((X.shape[0], H)),))

    def test_padding_steps_freeze_state(self):
        X, mask, rng, H = self._inputs(45)
        mask[1, 2] = 0.0
        mask[1, 1] = mask[1, 3] = 1.0
        weights = (rng.normal(size=(2, X.shape[2], 4 * H)), rng.normal(size=(2, H, 4 * H)),
                   rng.normal(size=(2, 4 * H)))
        out, _ = _bidirectional(_lstm_direction_forward, X, _step_mask(mask > 0), weights,
                                training=False)
        # fw carries the state of step 1 through step 2, bw the state of step 3
        assert np.array_equal(out[1, 2, :H], out[1, 1, :H])
        assert np.array_equal(out[1, 2, H:], out[1, 3, H:])

    @pytest.mark.parametrize("runs", [None, 3])
    def test_pair_views_share_memory_with_the_vectors(self, runs):
        config = tiny_config()
        _, _, emb = tiny_batch(config)
        params = init_parameters(config, emb)
        if runs is not None:
            params = params.stacked(runs)
        grad = np.arange(params.flat.size, dtype=np.float64).reshape(params.flat.shape)
        for layer in ("lstm", "gru"):
            for vec, blocks in ((params.flat, params.blocks), (grad, params.split(grad))):
                pair = params.pairs(vec, layer)
                for w, view in zip("WUb", pair):
                    assert view.shape[:params.flat.ndim] == params.flat.shape[:-1] + (2,)
                    assert np.shares_memory(view, vec)
                    for d, name in enumerate(("fw", "bw")):
                        block = blocks[f"{layer}_{name}_{w}"]
                        half = view[(slice(None),) * (params.flat.ndim - 1) + (d,)]
                        assert half.shape == block.shape
                        assert np.shares_memory(half, block)
                        assert np.array_equal(half, block)


def one_block(a):
    """Whether a's elements fill one contiguous span of memory, in any axis order."""
    span = sum((n - 1) * abs(st) for n, st in zip(a.shape, a.strides)) + a.itemsize
    return a.size == 0 or span == a.nbytes


class TestTimeMajorLayout:
    """The scan stores of a stack, over the T - p steps left once forward
    drops the p leading all-pad steps: one contiguous block per loop step,
    each direction's T*B rows read in place."""

    @staticmethod
    def _trace(batch, p):
        config = tiny_config()
        x, _, emb = tiny_batch(config, batch=batch)
        if p == 0:
            x[0, 0] = 3  # a token on the first step
        params = init_parameters(config, emb).stacked(3)
        trace = forward(x, params, config, training=True)[1]
        assert trace.x.shape == (batch, config.max_len - p)
        return config, trace

    @pytest.mark.parametrize("p", [0, 2])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_each_loop_slot_of_every_store_is_one_block(self, batch, p):
        config, trace = self._trace(batch, p)
        stores = {"lstm": (trace.lstm_store, 4 * config.lstm_units),
                  "gru": (trace.gru_store, 3 * config.gru_units)}
        arrays = [trace.steps.valid]
        for store, gate_width in stores.values():
            gates = store[0]  # the preactivation, which the scan turned into gate activations
            assert gates.shape == (3, 2, config.max_len - p, batch, gate_width)
            arrays += store
        for a in arrays:
            slots = _slots(a)
            assert slots.shape == (a.shape[-3],) + a.shape[:-3] + a.shape[-2:]
            for j in range(a.shape[-3]):  # hs and cs have T + 1 steps
                slot = slots[j]
                assert np.shares_memory(slot, a)
                assert np.array_equal(slot[..., 0, :, :], a[..., 0, j, :, :])
                assert np.array_equal(slot[..., 1, :, :], a[..., 1, j, :, :])
                assert one_block(slot)
                if batch == 1:
                    assert slot.flags.c_contiguous

    @pytest.mark.parametrize("p", [0, 2])
    def test_row_views_share_memory_with_their_store(self, p):
        _, trace = self._trace(3, p)
        (gates, hs, cs), (ggates, ghs, hus) = trace.lstm_store, trace.gru_store
        for a in (gates, hs[..., :-1, :, :], cs, ggates, ghs[..., :-1, :, :], hus):
            rows = _rows(a)
            assert rows.shape == a.shape[:-3] + (a.shape[-3] * a.shape[-2], a.shape[-1])
            for d in (0, 1):
                assert np.shares_memory(rows[..., d, :, :], a[..., d, :, :, :])
            assert not np.shares_memory(rows[..., 0, :, :], rows[..., 1, :, :])
            assert np.array_equal(rows, a.reshape(rows.shape))

    def test_a_merge_that_needs_a_copy_raises(self):
        batch_major = np.zeros((3, 2, 5, 7, 4))  # (K, 2, B, T, F)
        with pytest.raises(ValueError):
            _rows(batch_major.swapaxes(-3, -2))
        assert _rows(batch_major[:, :, :1].swapaxes(-3, -2)).shape == (3, 2, 7, 4)


class TestAllPadSteps:
    """Forward drops the leading steps that are padding in every row, so the
    scans never see them."""

    def test_leading_pad_counts_steps_padding_in_every_row(self):
        x = np.array([[0, 0, 3, 4, 0, 5, 6], [0, 0, 7, 8, 9, 0, 1]])
        assert _leading_pad(x) == 2  # not T minus the longest row's 4 real steps: an index 0 inside a row
        assert _leading_pad(np.zeros((2, 5), dtype=int)) == 4  # an all-pad batch keeps its last step
        mask = x[:, 2:] != 0
        valid, full = _step_mask(mask)
        # step j holds fw step j (time j) and bw step j (time T - 1 - j)
        assert full == [True, False, False, False, True]
        assert np.array_equal(valid[0, :, :, 0].T, mask)
        assert np.array_equal(valid[1, :, :, 0].T, mask[:, ::-1])

    def test_one_boolean_mask_reaches_the_scans_and_both_pools(self, monkeypatch):
        import embfuse.model as model_module
        config = tiny_config(spatial_dropout_rate=0.2, dropout_rate=0.3)
        x, _, emb = tiny_batch(config)
        x[0, 3] = 0  # a padded step inside a row, so the scans select
        params = init_parameters(config, emb)
        masks = []
        for name in ("_step_mask", "masked_max_pool"):
            real = getattr(model_module, name)
            monkeypatch.setattr(model_module, name,
                                lambda *a, _real=real: masks.append(a[-1]) or _real(*a))
        forward(x, params, config, training=True, rng=derive_rng(6, "mask"))
        assert len(masks) == 3
        assert all(m is masks[0] for m in masks)
        assert masks[0].dtype == bool
        assert np.array_equal(masks[0], x[:, _leading_pad(x):] != 0)

    @pytest.mark.parametrize("training", [False, True])
    @pytest.mark.parametrize("pad", [0, 4, 7])
    def test_loops_run_over_the_other_steps_only(self, monkeypatch, training, pad):
        import embfuse.model as model_module
        config = tiny_config()
        x, _, emb = tiny_batch(config)
        x[:, :pad] = 0
        if pad < config.max_len:
            x[:, pad] = 5
        params = init_parameters(config, emb)
        calls = []
        for name in ("_lstm_cell", "_gru_cell"):
            cell = getattr(model_module, name)
            monkeypatch.setattr(model_module, name,
                                lambda *a, _cell=cell, _name=name: calls.append(_name) or _cell(*a))
        forward(x, params, config, training=training)
        steps = max(1, config.max_len - pad)  # an all-pad batch keeps its last step
        assert calls.count("_lstm_cell") == calls.count("_gru_cell") == steps

    def test_dropout_masks_are_drawn_at_the_untrimmed_shape(self):
        config = tiny_config(spatial_dropout_rate=0.2, dropout_rate=0.3)
        x, _, emb = tiny_batch(config)
        x[:, :4] = 0
        x[0, 4] = 5
        params = init_parameters(config, emb)
        rng = derive_rng(3, "trim")
        trace = forward(x, params, config, training=True, rng=rng)[1]
        B, T = x.shape
        assert trace.x.shape == (B, T - 4)
        ref = derive_rng(3, "trim")
        sd = ref.random((B, 1, config.emb_dim)) < 1.0 - config.spatial_dropout_rate
        do1 = ref.random((B, T, 2 * config.lstm_units)) < 1.0 - config.dropout_rate
        do2 = ref.random((B, T, 2 * config.gru_units)) < 1.0 - config.dropout_rate
        assert np.array_equal(trace.sd_kept, sd)
        assert np.array_equal(trace.do1_kept, do1[:, 4:])
        assert np.array_equal(trace.do2_kept, do2[:, 4:])
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("dropout", [False, True])
    def test_an_all_pad_batch_runs_on_its_last_step(self, dropout):
        rates = dict(spatial_dropout_rate=0.2, dropout_rate=0.3) if dropout else {}
        config = tiny_config(**rates)
        _, labels, emb = tiny_batch(config)
        x = np.zeros((3, config.max_len), dtype=np.int64)
        params = init_parameters(config, emb)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs, trace = forward(x, params, config, training=True, rng=derive_rng(4, "all-pad"))
            loss, grad = loss_and_grad(x, labels, params, config, rng=derive_rng(4, "all-pad"))
            infer = predict_proba(x, params, config)
        assert trace.x.shape == (3, 1)
        assert not trace.feats.any()  # both pools give zeros
        assert np.array_equal(probs, infer)
        assert np.isfinite(loss) and np.isfinite(grad).all()

    def test_a_row_alone_runs_as_its_stripped_self(self, monkeypatch):
        import embfuse.model as model_module
        config = tiny_config(max_len=9)
        x, _, emb = tiny_batch(config, batch=4, seed=7)
        x[x == 0] = 1
        x[0, :3] = 0
        x[1, :6] = 0
        x[1, 7] = 0  # an index 0 inside a row, which the trim keeps
        x[2, 1] = 0
        params = init_parameters(config, emb)
        lengths = []
        real_step_mask = model_module._step_mask
        monkeypatch.setattr(model_module, "_step_mask",
                            lambda mask: lengths.append(mask.shape[1]) or real_step_mask(mask))
        for row, start in zip(x, (3, 6, 0, 0)):
            lengths.clear()
            alone = predict_proba(row, params, config)
            stripped = predict_proba(row[start:], params, config)
            assert lengths == [config.max_len - start] * 2
            assert np.array_equal(alone, stripped)


class TestMaskedMaxPool:
    def test_hand_case_with_padding(self):
        seq = np.array([[[1.0, 5.0], [3.0, -1.0], [9.0, 9.0]]])
        mask = np.array([[1.0, 1.0, 0.0]])
        pooled, argmax, all_pad = masked_max_pool(seq, mask)
        assert pooled.tolist() == [[3.0, 5.0]]
        assert argmax.tolist() == [[1, 0]]
        assert not all_pad[0]

    def test_all_padding_pools_to_zeros(self):
        seq = np.ones((1, 3, 2))
        mask = np.zeros((1, 3))
        pooled, _, all_pad = masked_max_pool(seq, mask)
        assert pooled.tolist() == [[0.0, 0.0]]
        assert all_pad[0]

    def test_tie_routes_to_earliest_step(self):
        seq = np.array([[[2.0], [2.0], [1.0]]])
        mask = np.ones((1, 3))
        _, argmax, _ = masked_max_pool(seq, mask)
        assert argmax.tolist() == [[0]]

    def test_first_nan_on_a_valid_step_wins(self):
        # a diverged run's nan must reach the loss; padded steps never win
        nan = float("nan")
        seq = np.array([[[nan, 1.0], [4.0, nan], [nan, 2.0], [9.0, 9.0]]])
        mask = np.array([[0.0, 1.0, 1.0, 0.0]])
        pooled, argmax, _ = masked_max_pool(seq, mask)
        assert argmax.tolist() == [[2, 1]]
        assert np.isnan(pooled).tolist() == [[True, True]]


def tiny_config(**kw):
    base = dict(max_len=7, emb_dim=8, lstm_units=5, gru_units=4,
                spatial_dropout_rate=0.0, dropout_rate=0.0, seed=42)
    base.update(kw)
    return ModelConfig(**base)


def tiny_batch(config, vocab=12, batch=3, seed=0):
    rng = derive_rng(seed, "tiny-batch")
    x = rng.integers(0, vocab, size=(batch, config.max_len))
    x[:, :2] = 0  # keep some padding in every row
    labels = rng.integers(0, config.num_classes, size=batch)
    emb = rng.normal(size=(vocab, config.emb_dim))
    emb[0] = 0.0
    return x, labels, emb


class TestGradient:
    def test_gradient_matches_central_differences_per_block(self):
        config = tiny_config(train_embedding=True)
        x, labels, emb = tiny_batch(config)
        params = init_parameters(config, emb)
        flat = to_flat(params, config)
        _, grad = loss_and_grad(x, labels, params, config)

        def loss_at(vec):
            p = from_flat(params, config, vec)
            probs, _ = forward(x, p, config, training=True)
            B = len(labels)
            return float(-np.log(probs[np.arange(B), labels]).mean())

        rng = derive_rng(1, "grad-coords")
        step = 1e-5
        offset = 0
        for name in trainable_block_names(config):
            block = params.embedding if name == "embedding" else params.blocks[name]
            size = block.size
            n_samples = min(12, size)
            coords = offset + rng.choice(size, size=n_samples, replace=False)
            worst = 0.0
            for idx in coords:
                idx = int(idx)
                probe = flat.copy()
                probe[idx] += step
                up = loss_at(probe)
                probe[idx] -= 2 * step
                down = loss_at(probe)
                numeric = (up - down) / (2 * step)
                denom = max(abs(numeric), abs(grad[idx]), 1e-8)
                worst = max(worst, abs(numeric - grad[idx]) / denom)
            assert worst < 1e-4, f"block {name}: max relative error {worst:.3e}"
            offset += size

    def test_loss_decreases_along_negative_gradient(self):
        config = tiny_config()
        x, labels, emb = tiny_batch(config)
        params = init_parameters(config, emb)
        flat = to_flat(params, config)
        loss0, grad = loss_and_grad(x, labels, params, config)
        stepped = from_flat(params, config, flat - 0.05 * grad)
        loss1, _ = loss_and_grad(x, labels, stepped, config)
        assert loss1 < loss0


class TestForwardTrace:
    def test_trace_keeps_keep_masks_and_no_gru_output(self):
        # gru_units=3 gives the GRU output a width no other traced array has
        config = tiny_config(gru_units=3, spatial_dropout_rate=0.2, dropout_rate=0.3)
        x, _, emb = tiny_batch(config)
        params = init_parameters(config, emb)
        _, trace = forward(x, params, config, training=True, rng=derive_rng(3, "trace"))
        B, T = x.shape[0], x.shape[1] - _leading_pad(x)  # the steps forward ran on
        assert T < x.shape[1]
        assert trace.sd_kept.dtype == bool and trace.sd_kept.shape == (B, 1, config.emb_dim)
        assert trace.do1_kept.dtype == bool and trace.do1_kept.shape == (B, T, 2 * config.lstm_units)
        assert trace.do2_kept.dtype == bool and trace.do2_kept.shape == (B, T, 2 * config.gru_units)
        assert trace.G_shape == (B, T, 2 * config.gru_units)
        held = [v for v in vars(trace).values() if isinstance(v, np.ndarray)]
        assert not any(v.shape == trace.G_shape and v.dtype == np.float64 for v in held)
        # backward reads the step mask, not the padding mask it was built from
        assert "mask" not in vars(trace) and trace.steps.valid.dtype == bool

    @pytest.mark.parametrize("runs", [1, 3])
    def test_stores_hold_what_stack_size_counts(self, runs):
        # the LSTM keeps gates, hs and cs; the GRU gates, hs and h U
        config = tiny_config(max_len=9)
        x, _, emb = tiny_batch(config, batch=4)
        x[:, 0] = 3  # no leading all-pad step: the stores span max_len steps
        params = init_parameters(config, emb)
        if runs > 1:
            params = params.stacked(runs)
        trace = forward(x, params, config, training=True)[1]
        assert len(trace.lstm_store) == 3 and len(trace.gru_store) == 3
        held = sum(a.nbytes for a in trace.lstm_store + trace.gru_store)
        assert held == runs * _store_bytes(config, 4)


class TestBackwardMemory:
    B = 32

    @classmethod
    def _problem(cls):
        config = ModelConfig(max_len=60, emb_dim=32, lstm_units=128, gru_units=64,
                             spatial_dropout_rate=0.0, dropout_rate=0.0)
        rng = derive_rng(5, "gru-tail")
        x = rng.integers(1, 40, size=(cls.B, config.max_len))  # no padding
        labels = rng.integers(0, config.num_classes, size=cls.B)
        params = init_parameters(config, rng.normal(size=(40, config.emb_dim)))
        return config, x, labels, params

    def test_lstm_store_keeps_no_tanh_of_the_cell_states(self):
        config, x, _, params = self._problem()
        gates, hs, cs = forward(x, params, config, training=True)[1].lstm_store
        assert gates.shape[-1] == 4 * config.lstm_units
        assert hs.shape == cs.shape == (2, config.max_len + 1, self.B, config.lstm_units)

    def test_each_kernel_sees_its_output_gradient_paired_only(self):
        # weakrefs taken by a profile hook, not a wrapper: a wrapper would
        # hold the gradient it passes on
        import embfuse.model as model_module
        config, x, labels, params = self._problem()
        pool_grad = model_module._masked_max_pool_backward.__code__
        tail = model_module._bidirectional_backward.__code__
        kernels = {model_module._gru_direction_backward.__code__: "gru",
                   model_module._lstm_direction_backward.__code__: "lstm"}
        unpaired, alive = {}, {}

        def profile(frame, event, arg):
            if event == "return" and frame.f_code is pool_grad and "gru" not in unpaired:
                unpaired["gru"] = [weakref.ref(arg)]  # dG, before its dropout
            elif event == "return" and frame.f_code is tail and "lstm" not in unpaired:
                # dS, the GRU layer's dX: a view, so its memory's owner too
                unpaired["lstm"] = [weakref.ref(arg), weakref.ref(arg.base)]
            elif event == "call" and frame.f_code in kernels:
                layer = kernels[frame.f_code]
                alive[layer] = [ref() is not None for ref in unpaired[layer]]

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            loss_and_grad(x, labels, params, config)
        finally:
            sys.setprofile(previous)
        assert alive == {"gru": [False], "lstm": [False, False]}

    def test_traced_peak_stays_under_the_stores_and_four_layer_outputs(self):
        # The peak is in the GRU kernel's factor pass, which holds the four
        # direction stores and, beyond them, the trace's dropped-out LSTM
        # output, the kernel's input gradient, its keep array and chunk
        # temporaries: the bound allows four arrays of the LSTM output's
        # size for these. A stored tanh(c) is one more such array, and an
        # unpaired GRU output gradient beside its paired copy half of one.
        config, x, labels, params = self._problem()
        layer_output = self.B * config.max_len * 2 * config.lstm_units * 8  # 3.93 MB
        bound = _store_bytes(config, self.B) + 4 * layer_output  # 53.2 MB
        loss_and_grad(x, labels, params, config)  # warm numpy's caches outside the trace
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            loss_and_grad(x, labels, params, config)
            rise = tracemalloc.get_traced_memory()[1] - entry
        finally:
            tracemalloc.stop()
        assert rise < bound, f"rose {rise} bytes, bound {bound}"

    def test_gru_tail_frees_the_store_before_pairing_its_input(self):
        # at this shape the GRU's weight-gradient tail sets the layer's peak
        import embfuse.model as model_module
        config, x, labels, params = self._problem()
        B = self.B
        paired_input = 2 * config.max_len * B * 2 * config.lstm_units * 8  # 7.86 MB
        tail = model_module._bidirectional_backward.__code__
        gru = model_module._gru_direction_backward.__code__
        calls, rises = [], []

        # a profile hook, not a wrapper: a wrapper would hold the store it passes on
        def profile(frame, event, arg):
            if event == "call" and frame.f_code is tail:
                calls.append([tracemalloc.get_traced_memory()[0], False])
                tracemalloc.reset_peak()
            elif event == "call" and frame.f_code is gru:
                calls[-1][1] = True
            elif event == "return" and frame.f_code is tail:
                entry, is_gru = calls.pop()
                if is_gru:
                    rises.append(tracemalloc.get_traced_memory()[1] - entry)

        previous = sys.getprofile()
        tracemalloc.start()
        sys.setprofile(profile)
        try:
            loss_and_grad(x, labels, params, config)
        finally:
            sys.setprofile(previous)
            tracemalloc.stop()
        assert len(rises) == 1
        assert rises[0] < paired_input, f"rose {rises[0]} bytes"


class TestForwardInvariances:
    def test_extra_left_padding_does_not_change_probs(self):
        config = tiny_config()
        x, _, emb = tiny_batch(config)
        params = init_parameters(config, emb)
        probs, _ = forward(x, params, config)
        wide = ModelConfig(**{**config.__dict__, "max_len": config.max_len + 4})
        x_wide = np.concatenate([np.zeros((x.shape[0], 4), dtype=x.dtype), x], axis=1)
        probs_wide, _ = forward(x_wide, params, wide)
        assert np.array_equal(probs, probs_wide)

    @pytest.mark.parametrize("batch", [1, 3])
    def test_extra_left_padding_does_not_change_training_probs(self, batch):
        config = tiny_config()
        x, _, emb = tiny_batch(config, batch=batch)
        params = init_parameters(config, emb).stacked(2)
        probs, _ = forward(x, params, config, training=True)
        wide = ModelConfig(**{**config.__dict__, "max_len": config.max_len + 4})
        x_wide = np.concatenate([np.zeros((x.shape[0], 4), dtype=x.dtype), x], axis=1)
        probs_wide, _ = forward(x_wide, params, wide, training=True)
        assert np.array_equal(probs, probs_wide)

    def test_time_reversal_with_swapped_direction_blocks(self):
        # Reversing the input and swapping every fw/bw block (with the
        # matching input-row and feature permutations) must reproduce the
        # same pooled features, because each direction literally runs the
        # other direction's scan.
        config = tiny_config()
        x, _, emb = tiny_batch(config)
        params = init_parameters(config, emb)
        Hl, Hg = config.lstm_units, config.gru_units

        swapped = from_flat(params, config, params.flat)
        for kind in ("lstm", "gru"):
            for part in ("W", "U", "b"):
                fw = swapped.blocks[f"{kind}_fw_{part}"]
                bw = swapped.blocks[f"{kind}_bw_{part}"]
                fw[...], bw[...] = bw.copy(), fw.copy()
        for d in ("fw", "bw"):
            Wg = swapped.blocks[f"gru_{d}_W"]
            Wg[...] = np.concatenate([Wg[Hl:], Wg[:Hl]], axis=0)
        Wd = swapped.blocks["dense_W"]
        Wd[...] = np.concatenate([
            Wd[Hl:2 * Hl], Wd[:Hl], Wd[2 * Hl + Hg:], Wd[2 * Hl:2 * Hl + Hg],
        ], axis=0)

        probs, trace = forward(x, params, config, training=True)
        probs_rev, trace_rev = forward(x[:, ::-1].copy(), swapped, config, training=True)

        # The LSTM path reuses the other direction's kernels unchanged, so
        # its pooled features agree bit for bit.
        pooled_s = trace.pool1[0]
        pooled_s_rev = trace_rev.pool1[0]
        assert np.array_equal(
            pooled_s_rev, np.concatenate([pooled_s[:, Hl:], pooled_s[:, :Hl]], axis=1)
        )
        # The GRU path sums its input features in a permuted order, which
        # perturbs the floats at rounding level only.
        pooled_g = trace.pool2[0]
        pooled_g_rev = trace_rev.pool2[0]
        assert np.allclose(
            pooled_g_rev,
            np.concatenate([pooled_g[:, Hg:], pooled_g[:, :Hg]], axis=1),
            rtol=0.0, atol=1e-12,
        )
        assert np.allclose(probs_rev, probs, rtol=0.0, atol=1e-12)

    def test_inference_equals_training_without_dropout(self):
        config = tiny_config()
        x, _, emb = tiny_batch(config, batch=5)
        x[1, :5] = 0  # rows padded to different lengths
        x[3] = 0
        params = init_parameters(config, emb)
        probs_infer, trace = forward(x, params, config, training=False)
        probs_train, _ = forward(x, params, config, training=True)
        assert trace is None
        assert np.array_equal(probs_infer, probs_train)

    def test_probs_are_normalized(self):
        config = tiny_config()
        x, _, emb = tiny_batch(config)
        params = init_parameters(config, emb)
        probs, trace = forward(x, params, config)
        assert trace is None
        assert probs.shape == (3, 3)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert (probs > 0).all()

    def test_single_sequence_promoted_to_batch(self):
        config = tiny_config()
        x, _, emb = tiny_batch(config)
        params = init_parameters(config, emb)
        probs, _ = forward(x[0], params, config)
        assert probs.shape == (1, 3)

    def test_out_of_range_index_rejected(self):
        config = tiny_config()
        x, _, emb = tiny_batch(config)
        params = init_parameters(config, emb)
        bad = x.copy()
        bad[0, -1] = emb.shape[0]
        with pytest.raises(ValidationError) as exc:
            forward(bad, params, config)
        assert exc.value.code == "index-out-of-range"

    def test_training_dropout_requires_rng(self):
        config = tiny_config(dropout_rate=0.5)
        x, _, emb = tiny_batch(config)
        params = init_parameters(config, emb)
        with pytest.raises(ValidationError):
            forward(x, params, config, training=True)

    def test_dropout_draws_are_seed_deterministic(self):
        config = tiny_config(spatial_dropout_rate=0.2, dropout_rate=0.3)
        x, labels, emb = tiny_batch(config)
        params = init_parameters(config, emb)
        l1, g1 = loss_and_grad(x, labels, params, config, rng=derive_rng(9, "d"))
        l2, g2 = loss_and_grad(x, labels, params, config, rng=derive_rng(9, "d"))
        assert l1 == l2
        assert np.array_equal(g1, g2)


def padded_case(batch, pad, dropout, train_embedding, runs):
    """A T=9 batch whose first pad steps are padding in every row (pad = T
    leaves no token at all), with a later row padded further and index 0
    also inside rows, and a stack of runs whose weights differ."""
    rates = dict(spatial_dropout_rate=0.2, dropout_rate=0.3) if dropout else {}
    config = tiny_config(max_len=9, train_embedding=train_embedding, **rates)
    x, labels, emb = tiny_batch(config, batch=batch, seed=7)
    x[:, :pad] = 0
    if pad < config.max_len:
        x[0, pad] = 5
    x[1:, :pad + 2] = 0
    params = init_parameters(config, emb).stacked(runs)
    params.flat[...] += derive_rng(8, "padded-case").normal(scale=0.05, size=params.flat.shape)
    if runs == 1:
        params = params.run(0)
    return x, labels, params, config


def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


# (batch, leading all-pad steps of T=9, dropout, train_embedding, runs) ->
# digests of the training probs, the loss, the gradient and predict_proba
PADDED_DIGESTS = {
    (1, 0, False, False, 1):
        ['e4a6ed9e666f5ee6', 'e2b924081820827d', '63b01ec5736bb2db', 'e4a6ed9e666f5ee6'],
    (1, 4, False, False, 1):
        ['678debe7d9c1b528', '39ac65f1e882cf65', '585e4b1614d8612e', '678debe7d9c1b528'],
    (1, 8, False, False, 1):
        ['68bf43280466f17e', '59d75831dbd8b7cf', '3739f23c21d12637', '68bf43280466f17e'],
    (1, 9, False, False, 1):
        ['1855a9836fde8e6b', 'c4e32ff7accc160b', 'e2ceddfb0888bab1', '1855a9836fde8e6b'],
    (3, 0, False, False, 1):
        ['cfb5ab9740909742', 'df28b6aff2f10e7a', 'bb9d97e85182e365', 'cfb5ab9740909742'],
    (3, 4, False, False, 1):
        ['77db0ed4bbbaf552', '81aba1cb8a30e29e', 'aafe25b5cebfd7c6', '77db0ed4bbbaf552'],
    (3, 8, False, False, 1):
        ['2baa47c1e5319483', 'a721f2996146c468', '6d1292b296d47cf6', '2baa47c1e5319483'],
    (3, 9, False, False, 1):
        ['84a6bb2673c3821c', 'a38d34ccd94cdb24', '58c9c25d54daddba', '84a6bb2673c3821c'],
    (1, 4, True, False, 1):
        ['955896723b53af09', '75e65541590f39a1', '19f1b818e58fcf5f', '678debe7d9c1b528'],
    (3, 4, True, False, 1):
        ['a1d59606e3ac5f4d', '6a41fa319a168cf0', '0ff77e36cc5e1d06', '77db0ed4bbbaf552'],
    (1, 4, False, True, 1):
        ['9743f4837a579e1d', '5c355fae0f30526d', 'ce5d9fff2546ade8', '9743f4837a579e1d'],
    (3, 9, False, True, 1):
        ['84a6bb2673c3821c', 'a38d34ccd94cdb24', '836b7693abe5b0fb', '84a6bb2673c3821c'],
    (3, 4, True, True, 1):
        ['a752b8f9234e209c', 'a42be88678daa0f7', '71f8f20d93c6f7b3', '3c00cc273498edeb'],
    (1, 4, False, False, 3):
        ['6f60b3152a159b8b', '4518b28cfdf9c1c7', '559c78cfbfd7edfa', '6f60b3152a159b8b'],
    (3, 8, True, True, 3):
        ['692beb8ecf97bc9f', '8fefa437a9af69cf', 'ebd4f458071b7cf0', '6085a9121873ac27'],
    (1, 9, True, True, 3):
        ['05cbb65ac4fdc5dd', '1835afeda5ce1069', '26e67c86a46cfec7', '05cbb65ac4fdc5dd'],
    (3, 0, True, True, 3):
        ['10410410d859ee84', '36349271bf612b6e', '88447cc4b81eafba', '87b5bda14fbd0d67'],
}


class TestPaddedBits:
    """Training and inference outputs pinned byte for byte, signed zeros
    included, over batches with every count of all-pad leading steps."""

    @pytest.mark.skipif(blas_build() != PINNED_BLAS,
                        reason="pinned digests hold for one BLAS build's GEMM rounding")
    @pytest.mark.parametrize("case", sorted(PADDED_DIGESTS),
                             ids=lambda c: "b{}-p{}-do{:d}-emb{:d}-k{}".format(*c))
    def test_outputs_match_pinned_digests(self, case):
        x, labels, params, config = padded_case(*case)
        loss, probs, grad = _loss_probs_grad(x, labels, params, config, derive_rng(9, "padded"))
        got = [digest(a) for a in (probs, np.asarray(loss), grad, predict_proba(x, params, config))]
        assert got == PADDED_DIGESTS[case]


class TestInit:
    def test_forget_gate_bias_is_one_rest_zero(self):
        config = tiny_config()
        params = init_parameters(config, np.zeros((4, config.emb_dim)))
        H = config.lstm_units
        for d in ("fw", "bw"):
            b = params.blocks[f"lstm_{d}_b"]
            assert np.array_equal(b[H:2 * H], np.ones(H))
            assert np.array_equal(b[:H], np.zeros(H))
            assert np.array_equal(b[2 * H:], np.zeros(2 * H))
            assert np.array_equal(params.blocks[f"gru_{d}_b"], np.zeros(3 * config.gru_units))
        assert np.array_equal(params.blocks["dense_b"], np.zeros(3))

    def test_same_seed_reproduces_weights(self):
        config = tiny_config()
        emb = np.zeros((4, config.emb_dim))
        a = init_parameters(config, emb)
        b = init_parameters(config, emb)
        assert all(np.array_equal(a.blocks[k], b.blocks[k]) for k in a.blocks)

    def test_glorot_limits_respected(self):
        config = tiny_config()
        params = init_parameters(config, np.zeros((4, config.emb_dim)))
        W = params.blocks["lstm_fw_W"]
        limit = math.sqrt(6.0 / (config.emb_dim + config.lstm_units))
        assert np.abs(W).max() <= limit
        U = params.blocks["lstm_fw_U"]
        assert np.abs(U).max() <= 1.0 / math.sqrt(config.lstm_units)

    def test_embedding_shape_checked(self):
        config = tiny_config()
        with pytest.raises(ValidationError) as exc:
            init_parameters(config, np.zeros((4, config.emb_dim + 1)))
        assert exc.value.code == "shape-mismatch"


class TestFlatPacking:
    def test_round_trip(self):
        config = tiny_config(train_embedding=True)
        _, _, emb = tiny_batch(config)
        params = init_parameters(config, emb)
        flat = to_flat(params, config)
        back = from_flat(params, config, flat)
        assert all(np.array_equal(back.blocks[k], params.blocks[k]) for k in params.blocks)
        assert np.array_equal(back.embedding, params.embedding)

    def test_embedding_excluded_when_frozen(self):
        config = tiny_config(train_embedding=False)
        _, _, emb = tiny_batch(config)
        params = init_parameters(config, emb)
        n_weights = sum(v.size for v in params.blocks.values())
        assert to_flat(params, config).size == n_weights
        assert "embedding" not in trainable_block_names(config)

    def test_frozen_embedding_is_shared_and_weights_copied(self):
        config = tiny_config(train_embedding=False)
        _, _, emb = tiny_batch(config)
        params = init_parameters(config, emb)
        flat = to_flat(params, config)
        new = from_flat(params, config, flat)
        assert np.shares_memory(new.embedding, params.embedding)
        assert not np.shares_memory(new.flat, flat)

    def test_wrong_length_rejected(self):
        config = tiny_config()
        _, _, emb = tiny_batch(config)
        params = init_parameters(config, emb)
        with pytest.raises(ValidationError) as exc:
            from_flat(params, config, np.zeros(3))
        assert exc.value.code == "shape-mismatch"

    @pytest.mark.parametrize("train_embedding", [False, True])
    def test_grads_to_flat_inverts_split(self, train_embedding):
        config = tiny_config(train_embedding=train_embedding)
        x, labels, emb = tiny_batch(config)
        params = init_parameters(config, emb)
        _, grad = loss_and_grad(x, labels, params, config)
        assert np.array_equal(grads_to_flat(params.split(grad), config), grad)

    def test_blocks_cannot_be_rebound(self):
        config = tiny_config()
        _, _, emb = tiny_batch(config)
        params = init_parameters(config, emb)
        with pytest.raises(TypeError):
            params.blocks["dense_b"] = np.zeros(3)
        params.blocks["dense_b"][...] = 1.0
        assert np.array_equal(to_flat(params, config)[-3:], np.ones(3))


def set_inference_chunk(monkeypatch, config, rows):
    """Make inference over config run in chunks of rows, through the chunk's byte budget."""
    import embfuse.model as model_module
    row_bytes = 2 * config.max_len * 4 * config.lstm_units * 8
    monkeypatch.setattr(model_module, "_INFER_CHUNK_BYTES", rows * row_bytes)
    assert inference_batch_size(config) == rows


class TestEvaluatePredict:
    def test_evaluate_matches_direct_computation(self, monkeypatch):
        config = tiny_config()
        x, labels, emb = tiny_batch(config, batch=6)
        params = init_parameters(config, emb)
        probs, _ = forward(x, params, config)
        want_loss = float(-np.log(probs[np.arange(6), labels]).mean())
        want_acc = float((probs.argmax(axis=1) == labels).mean())
        set_inference_chunk(monkeypatch, config, 4)
        loss, acc = evaluate(x, labels, params, config)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert acc == pytest.approx(want_acc)

    def test_evaluate_empty_returns_nan(self):
        config = tiny_config()
        _, _, emb = tiny_batch(config)
        params = init_parameters(config, emb)
        loss, acc = evaluate(np.zeros((0, config.max_len), dtype=int), np.zeros(0, dtype=int),
                             params, config)
        assert math.isnan(loss) and math.isnan(acc)
        # a (0, 0) array has no time step, so it is refused like any such batch
        with pytest.raises(ValidationError, match="at least one time step") as exc:
            predict_proba(np.zeros((0, 0), dtype=int), params, config)
        assert exc.value.code == "shape-mismatch"

    def test_a_batch_that_is_not_2d_is_refused_even_empty(self):
        config = tiny_config()
        _, _, emb = tiny_batch(config)
        params = init_parameters(config, emb)
        with pytest.raises(ValidationError) as exc:
            predict_proba(np.zeros((0, 4, 4), dtype=np.int64), params, config)
        assert exc.value.code == "shape-mismatch"

    @pytest.mark.parametrize("entry", ["forward", "predict_proba", "loss_and_grad"])
    def test_a_batch_with_no_time_step_is_refused(self, entry):
        config = tiny_config()
        _, _, emb = tiny_batch(config)
        params = init_parameters(config, emb)
        x, labels = np.zeros((3, 0), dtype=np.int64), np.zeros(3, dtype=np.int64)
        run = {"forward": lambda: forward(x, params, config),
               "predict_proba": lambda: predict_proba(x, params, config),
               "loss_and_grad": lambda: loss_and_grad(x, labels, params, config)}[entry]
        with pytest.raises(ValidationError, match="at least one time step") as exc:
            run()
        assert exc.value.code == "shape-mismatch"

    def test_an_empty_batch_has_no_loss(self):
        config = tiny_config()
        _, _, emb = tiny_batch(config)
        params = init_parameters(config, emb)
        with pytest.raises(ValidationError, match="an empty batch has no loss") as exc:
            loss_and_grad(np.zeros((0, config.max_len), dtype=np.int64),
                          np.zeros(0, dtype=np.int64), params, config)
        assert exc.value.code == "shape-mismatch"

    def test_predict_shapes_and_chunking(self, monkeypatch):
        config = tiny_config()
        x, _, emb = tiny_batch(config, batch=7)
        params = init_parameters(config, emb)
        pred_whole = predict(x, params, config)
        set_inference_chunk(monkeypatch, config, 2)
        pred_chunks = predict(x, params, config)
        assert np.array_equal(pred_whole, pred_chunks)
        assert pred_whole.shape == (7,)

    def test_chunked_inference_matches_one_chunk(self, monkeypatch):
        config = tiny_config()
        x, labels, emb = tiny_batch(config, batch=11)
        params = init_parameters(config, emb)
        set_inference_chunk(monkeypatch, config, 11)
        one_loss, one_acc = evaluate(x, labels, params, config)
        one_pred = predict(x, params, config)
        for size in (1, 3, 4, 10):
            set_inference_chunk(monkeypatch, config, size)
            loss, acc = evaluate(x, labels, params, config)
            assert abs(loss - one_loss) <= 1e-12
            assert acc == one_acc
            assert np.array_equal(predict(x, params, config), one_pred)

    def test_default_chunk_bounds_the_lstm_preactivation(self, monkeypatch):
        paper = ModelConfig()
        rows = inference_batch_size(paper)
        # paper size: one chunk's (2, max_len, rows, 4 * lstm_units) float64
        # preactivation, both directions, fits in 64 MiB, and one more row does not
        assert rows == 34
        assert 2 * paper.max_len * rows * 4 * paper.lstm_units * 8 <= 64 << 20
        assert 2 * paper.max_len * (rows + 1) * 4 * paper.lstm_units * 8 > 64 << 20
        assert inference_batch_size(ModelConfig(max_len=10 ** 6, lstm_units=10 ** 3)) == 1

        import embfuse.model as model_module
        config = tiny_config()
        x, labels, emb = tiny_batch(config, batch=11)
        params = init_parameters(config, emb)
        row_bytes = 2 * config.max_len * 4 * config.lstm_units * 8
        monkeypatch.setattr(model_module, "_INFER_CHUNK_BYTES", 3 * row_bytes)
        sizes = []
        real_forward = model_module.forward

        def recording_forward(xb, *args, **kwargs):
            sizes.append(len(xb))
            return real_forward(xb, *args, **kwargs)

        monkeypatch.setattr(model_module, "forward", recording_forward)
        loss, _ = evaluate(x, labels, params, config)
        assert sizes == [3, 3, 3, 2]
        set_inference_chunk(monkeypatch, config, 11)
        assert abs(loss - evaluate(x, labels, params, config)[0]) <= 1e-12

    def test_label_guards(self):
        config = tiny_config()
        x, labels, emb = tiny_batch(config)
        params = init_parameters(config, emb)
        with pytest.raises(ValidationError) as exc:
            loss_and_grad(x, labels[:-1], params, config)
        assert exc.value.code == "shape-mismatch"
        with pytest.raises(ValidationError) as exc:
            loss_and_grad(x, labels * 0 + 3, params, config)
        assert exc.value.code == "index-out-of-range"

    def test_confusion_matrix_counts(self):
        cm = confusion_matrix(np.array([0, 1, 2, 2]), np.array([0, 1, 1, 2]))
        assert cm.tolist() == [[1, 0, 0], [0, 1, 1], [0, 0, 1]]
        assert cm.sum() == 4


class TestCheckpoint:
    def test_round_trip_bits_and_config(self):
        config = tiny_config(train_embedding=True, dropout_rate=0.25)
        _, _, emb = tiny_batch(config)
        params = init_parameters(config, emb)
        buf = io.BytesIO()
        save_checkpoint(buf, params, config)
        buf.seek(0)
        back_params, back_config = load_checkpoint(buf)
        assert back_config == config
        assert np.array_equal(back_params.embedding, params.embedding)
        for k in params.blocks:
            assert np.array_equal(back_params.blocks[k], params.blocks[k])

    def test_rejects_foreign_bytes(self):
        with pytest.raises(ValidationError):
            load_checkpoint(io.BytesIO(b"PNG....not a checkpoint"))

    @staticmethod
    def _with_config_bytes(cfg_bytes):
        """A valid checkpoint whose config JSON is replaced by cfg_bytes."""
        config = tiny_config()
        _, _, emb = tiny_batch(config)
        buf = io.BytesIO()
        save_checkpoint(buf, init_parameters(config, emb), config)
        data = buf.getvalue()
        (old_len,) = struct.unpack("<I", data[12:16])
        return data[:12] + struct.pack("<I", len(cfg_bytes)) + cfg_bytes + data[16 + old_len:]

    def test_rejects_malformed_config_json(self):
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_checkpoint(io.BytesIO(self._with_config_bytes(b"{max_len: 7")))

    def test_rejects_unknown_config_key(self):
        cfg = json.dumps({"max_len": 7, "no_such_key": 1}).encode("utf-8")
        with pytest.raises(ValidationError, match="no_such_key"):
            load_checkpoint(io.BytesIO(self._with_config_bytes(cfg)))

    def test_rejects_non_object_config(self):
        with pytest.raises(ValidationError, match="JSON object"):
            load_checkpoint(io.BytesIO(self._with_config_bytes(b"[7]")))

    def test_rejects_block_name_that_is_not_utf8(self):
        config = tiny_config()
        _, _, emb = tiny_batch(config)
        buf = io.BytesIO()
        save_checkpoint(buf, init_parameters(config, emb), config)
        assert buf.getvalue().count(b"dense_b") == 1
        bad = buf.getvalue().replace(b"dense_b", b"dense\xffb")
        with pytest.raises(ValidationError, match="dense_b"):
            load_checkpoint(io.BytesIO(bad))

    @pytest.mark.parametrize("dims", [(2 ** 32, 2 ** 32), (0, 2 ** 63), (2 ** 64 - 1,)])
    def test_rejects_block_shape_past_the_end_before_reading(self, dims):
        config = tiny_config()
        _, _, emb = tiny_batch(config)
        buf = io.BytesIO()
        save_checkpoint(buf, init_parameters(config, emb), config)
        data = buf.getvalue()
        at = data.index(b"dense_b") + len(b"dense_b")  # its ndim byte, then its shape
        shape = struct.pack("<B", len(dims)) + b"".join(struct.pack("<Q", d) for d in dims)
        bad = data[:at] + shape + data[at + 1 + 8:]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="dense_b"):
                load_checkpoint(io.BytesIO(bad))

    def test_rejects_truncated_stream(self):
        config = tiny_config()
        _, _, emb = tiny_batch(config)
        params = init_parameters(config, emb)
        buf = io.BytesIO()
        save_checkpoint(buf, params, config)
        data = buf.getvalue()[:-20]
        with pytest.raises(Exception):
            load_checkpoint(io.BytesIO(data))
