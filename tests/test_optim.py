"""Optimizer update rules, the training loop, lr search, and the sweep."""
import dataclasses
import io
import math
import types
import warnings
import weakref

import numpy as np
import pytest

from embfuse.errors import AllDivergedError, NonFiniteGradientError, ValidationError
from embfuse.model import (
    ModelConfig,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    stack_size,
)
from embfuse.optim import (
    DEFAULT_LR,
    DEFAULT_LR_GRID,
    OPTIMIZER_KINDS,
    OptimizerSpec,
    SplitDataset,
    lr_range_search,
    make_optimizer,
    optimizer_sweep,
    parse_lr_grid,
    read_history_csv,
    train,
    train_runs,
    write_history_csv,
    write_lr_table,
)
from embfuse.seeding import derive_rng

from synthetic import random_embedding, synthetic_dataset


class TestOptimizerSpec:
    def test_a_run_is_a_rule_and_a_rate(self):
        assert [f.name for f in dataclasses.fields(OptimizerSpec)] == ["kind", "learning_rate"]
        with pytest.raises(TypeError):
            OptimizerSpec(kind="sgd_momentum", learning_rate=0.1, momentum=0.5)

    def test_accepts_every_known_kind(self):
        for kind in OPTIMIZER_KINDS:
            assert OptimizerSpec(kind=kind, learning_rate=0.1).kind == kind

    @pytest.mark.parametrize("kwargs", [
        dict(kind="lbfgs", learning_rate=0.1),
        dict(kind="sgd", learning_rate=0.0),
        dict(kind="sgd", learning_rate=-1.0),
        dict(kind="sgd", learning_rate=float("inf")),
        dict(kind="sgd", learning_rate=float("nan")),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValidationError):
            OptimizerSpec(**kwargs)


class TestStepRules:
    def test_sgd_step(self):
        opt = make_optimizer(OptimizerSpec(kind="sgd", learning_rate=0.1), 2)
        w = np.array([1.0, 2.0])
        g = np.array([0.5, -1.0])
        assert np.array_equal(opt.step(w.copy(), g), w - 0.1 * g)

    def test_sgd_scale_equivariance(self):
        w = derive_rng(1, "w").normal(size=6)
        g = derive_rng(1, "g").normal(size=6)
        w2 = w.copy()
        a = make_optimizer(OptimizerSpec(kind="sgd", learning_rate=0.3), 6).step(w, g)
        b = make_optimizer(OptimizerSpec(kind="sgd", learning_rate=0.15), 6).step(w2, 2.0 * g)
        assert a is w and b is w2 and np.array_equal(a, b)

    def test_momentum_two_step_displacement(self):
        # Unit gradient twice at lr=1, momentum 0.9: steps 1 and 1.9.
        opt = make_optimizer(OptimizerSpec(kind="sgd_momentum", learning_rate=1.0), 1)
        w = np.array([0.0])
        w = opt.step(w, np.array([1.0]))
        w = opt.step(w, np.array([1.0]))
        assert w[0] == pytest.approx(-2.9, abs=1e-12)

    def test_adagrad_first_step_closed_form(self):
        lr, g, eps = 0.01, 3.0, 1e-10
        opt = make_optimizer(OptimizerSpec(kind="adagrad", learning_rate=lr), 1)
        w = opt.step(np.array([0.0]), np.array([g]))
        expected = -lr * g / math.sqrt(g * g + eps)
        assert w[0] == expected
        assert abs(abs(w[0]) - lr) < 1e-9

    def test_adagrad_steps_shrink_under_constant_gradient(self):
        opt = make_optimizer(OptimizerSpec(kind="adagrad", learning_rate=0.5), 1)
        w = np.array([0.0])
        sizes = []
        for _ in range(4):
            w_next = opt.step(w.copy(), np.array([2.0]))
            sizes.append(abs(w_next[0] - w[0]))
            w = w_next
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] == pytest.approx(0.5, abs=1e-9)

    def test_adadelta_first_step_closed_form(self):
        rho, eps, g = 0.95, 1e-6, 1.0
        opt = make_optimizer(OptimizerSpec(kind="adadelta", learning_rate=1.0), 1)
        w = opt.step(np.array([0.0]), np.array([g]))
        expected = -math.sqrt(eps) / math.sqrt((1.0 - rho) * g * g + eps) * g
        assert w[0] == pytest.approx(expected, rel=1e-12)

    def test_adadelta_learning_rate_scales_the_update(self):
        g = np.array([1.0, -2.0])
        a = make_optimizer(OptimizerSpec(kind="adadelta", learning_rate=1.0), 2)
        b = make_optimizer(OptimizerSpec(kind="adadelta", learning_rate=0.5), 2)
        da = a.step(np.zeros(2), g)
        db = b.step(np.zeros(2), g)
        assert np.allclose(db, 0.5 * da, rtol=0, atol=1e-18)

    def test_adam_first_step_magnitude_is_learning_rate(self):
        for g0 in (1.0, -0.5, 0.1, 7.3):
            opt = make_optimizer(OptimizerSpec(kind="adam", learning_rate=0.1), 1)
            w = opt.step(np.array([0.0]), np.array([g0]))
            assert abs(abs(w[0]) - 0.1) / 0.1 < 1e-6
            assert math.copysign(1.0, -w[0]) == math.copysign(1.0, g0)

    def test_adam_example_first_value(self):
        opt = make_optimizer(OptimizerSpec(kind="adam", learning_rate=0.1), 1)
        w = opt.step(np.array([0.0]), np.array([1.0]))
        assert w[0] == pytest.approx(-0.0999999990, abs=1e-9)

    def test_step_shape_and_finiteness_guards(self):
        opt = make_optimizer(OptimizerSpec(kind="sgd", learning_rate=0.1), 3)
        with pytest.raises(ValidationError) as exc:
            opt.step(np.zeros(4), np.zeros(4))
        assert exc.value.code == "shape-mismatch"
        with pytest.raises(ValidationError) as exc:
            opt.step(np.zeros(3), np.zeros(2))
        assert exc.value.code == "shape-mismatch"
        with pytest.raises(NonFiniteGradientError):
            opt.step(np.zeros(3), np.array([1.0, np.nan, 0.0]))
        with pytest.raises(NonFiniteGradientError):
            opt.step(np.zeros(3), np.array([1.0, np.inf, 0.0]))


class TestInPlaceStep:
    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    def test_rules_match_their_textbook_formulas_bit_for_bit(self, kind):
        n, lr = 100_000, DEFAULT_LR[kind]
        opt = make_optimizer(OptimizerSpec(kind=kind, learning_rate=lr), n)
        rng = derive_rng(29, "textbook", kind)
        w = rng.normal(size=n)
        ref = w.copy()
        s1, s2 = np.zeros(n), np.zeros(n)  # each rule's state vectors
        for t in range(1, 21):
            g = rng.normal(size=n)
            opt.step(w, g)
            if kind == "sgd":
                ref = ref - lr * g
            elif kind == "sgd_momentum":
                s1 = 0.9 * s1 + g
                ref = ref - lr * s1
            elif kind == "adagrad":
                s1 = s1 + g * g
                ref = ref - lr * g / np.sqrt(s1 + 1e-10)
            elif kind == "adadelta":
                s1 = 0.95 * s1 + (1.0 - 0.95) * g * g
                delta = -np.sqrt(s2 + 1e-6) / np.sqrt(s1 + 1e-6) * g
                s2 = 0.95 * s2 + (1.0 - 0.95) * delta * delta
                ref = ref + lr * delta
            else:
                s1 = 0.9 * s1 + (1.0 - 0.9) * g
                s2 = 0.999 * s2 + (1.0 - 0.999) * g * g
                m_hat = s1 / (1.0 - 0.9 ** t)
                v_hat = s2 / (1.0 - 0.999 ** t)
                ref = ref - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.array_equal(w, ref), f"step {t}"

    @pytest.mark.parametrize("bad", ["list", "float32", "read_only"])
    def test_refused_weights_leave_the_state_untouched(self, bad):
        # a step could only update a copy of these
        if bad == "list":
            w = [0.0] * 4
        elif bad == "float32":
            w = np.zeros(4, dtype=np.float32)
        else:
            w = np.zeros(4)
            w.flags.writeable = False
        opt = make_optimizer(OptimizerSpec(kind="sgd_momentum", learning_rate=0.1), 4)
        with pytest.raises(ValidationError, match="writable float64 ndarray"):
            opt.step(w, np.ones(4))
        assert not (np.any(w) or opt.velocity.any())

    def test_non_finite_gradient_leaves_weights_and_state_untouched(self):
        opt = make_optimizer(OptimizerSpec(kind="sgd_momentum", learning_rate=0.1), 4)
        w = np.zeros(4)
        with pytest.raises(NonFiniteGradientError):
            opt.step(w, np.array([1.0, np.nan, 0.0, 0.0]))
        assert not (w.any() or opt.velocity.any())


class TestConvexConvergence:
    """Quadratic bowl: every optimizer must find the minimum."""

    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    def test_reaches_target_within_budget(self, kind):
        rng = derive_rng(17, "bowl", kind)
        target = rng.uniform(-1.0, 1.0, size=10)
        opt = make_optimizer(OptimizerSpec(kind=kind, learning_rate=DEFAULT_LR[kind]), 10)
        w = np.zeros(10)
        for step in range(10_000):
            if np.linalg.norm(w - target) < 1e-3:
                break
            w = opt.step(w, w - target)
        assert np.linalg.norm(w - target) < 1e-3, f"{kind} did not converge"


class TestParseLrGrid:
    def test_default_grid(self):
        rates = parse_lr_grid(DEFAULT_LR_GRID)
        assert len(rates) == 7
        assert rates[0] == pytest.approx(1e-8, rel=1e-12)
        assert rates[-1] == pytest.approx(1e-2, rel=1e-12)
        assert rates == sorted(rates)
        ratios = [rates[i + 1] / rates[i] for i in range(6)]
        assert all(r == pytest.approx(10.0, rel=1e-9) for r in ratios)

    @pytest.mark.parametrize("text", [
        "1e-8:1e-2", "1e-8:1e-2:lin7", "1e-2:1e-8:log7", "0:1e-2:log7",
        "1e-8:1e-2:log1", "x:1e-2:log7", "1e-8:y:log7", "1e-8:1e-2:logz",
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValidationError):
            parse_lr_grid(text)

    @pytest.mark.parametrize("text", ["1e-3:inf:log3", "1e-3:nan:log3", "nan:1e-2:log3"])
    def test_rejects_non_finite_bound_without_warning(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="need finite 0 < lo < hi"):
                parse_lr_grid(text)


@pytest.mark.parametrize("seed", [-1, -3])
def test_derive_rng_rejects_negative_seed(seed):
    with pytest.raises(ValidationError,
                       match=f"seed must be a non-negative integer, got {seed}$"):
        derive_rng(seed, "init")


def small_config(seed=3, **kw):
    base = dict(max_len=12, emb_dim=10, lstm_units=4, gru_units=3,
                spatial_dropout_rate=0.0, dropout_rate=0.0, seed=seed)
    base.update(kw)
    return ModelConfig(**base)


class TestTrain:
    def test_history_shape_and_progress(self, tiny_dataset, tiny_embedding):
        spec = OptimizerSpec(kind="adam", learning_rate=0.01)
        _, hist = train(tiny_dataset, tiny_embedding, small_config(), spec,
                        epochs=3, batch_size=16, seed=5)
        assert hist.epochs == [1, 2, 3]
        assert len(hist.train_loss) == len(hist.test_loss) == 3
        assert not hist.diverged
        assert hist.train_loss[-1] < hist.train_loss[0]
        assert hist.optimizer == "adam" and hist.learning_rate == 0.01

    def test_same_seed_reproduces_history(self, tiny_dataset, tiny_embedding):
        spec = OptimizerSpec(kind="sgd", learning_rate=0.1)
        _, a = train(tiny_dataset, tiny_embedding, small_config(), spec,
                     epochs=2, batch_size=16, seed=9)
        _, b = train(tiny_dataset, tiny_embedding, small_config(), spec,
                     epochs=2, batch_size=16, seed=9)
        assert a.train_loss == b.train_loss
        assert a.test_loss == b.test_loss
        assert a.train_accuracy == b.train_accuracy

    def test_huge_learning_rate_flags_divergence(self, tiny_dataset, tiny_embedding):
        spec = OptimizerSpec(kind="sgd", learning_rate=1e307)
        _, hist = train(tiny_dataset, tiny_embedding, small_config(), spec,
                        epochs=3, batch_size=16, seed=5)
        assert hist.diverged
        assert hist.diverged_epoch is not None
        assert len(hist.train_loss) < 3

    def test_empty_train_split_rejected(self, tiny_embedding):
        empty = SplitDataset(np.zeros((0, 12)), np.zeros(0), np.zeros((0, 12)), np.zeros(0))
        with pytest.raises(ValidationError) as exc:
            train(empty, tiny_embedding, small_config(),
                  OptimizerSpec(kind="sgd", learning_rate=0.1))
        assert exc.value.code == "empty-dataset"

    def test_bad_loop_arguments_rejected(self, tiny_dataset, tiny_embedding):
        spec = OptimizerSpec(kind="sgd", learning_rate=0.1)
        with pytest.raises(ValidationError):
            train(tiny_dataset, tiny_embedding, small_config(), spec, epochs=0)
        with pytest.raises(ValidationError):
            train(tiny_dataset, tiny_embedding, small_config(), spec, batch_size=0)

    def test_empty_test_split_records_nan_metrics(self, tiny_dataset, tiny_embedding):
        data = SplitDataset(tiny_dataset.train_x, tiny_dataset.train_y,
                            np.zeros((0, 12)), np.zeros(0))
        spec = OptimizerSpec(kind="sgd", learning_rate=0.1)
        _, hist = train(data, tiny_embedding, small_config(), spec,
                        epochs=1, batch_size=16, seed=5)
        assert math.isnan(hist.test_loss[0]) and math.isnan(hist.test_accuracy[0])


# (config overrides, specs as (kind, rate), batch size, training examples kept)
STACKS = {
    "mixed-kinds-and-rates": ({}, [("sgd", 0.1), ("sgd_momentum", 0.05), ("adagrad", 0.5),
                                   ("adadelta", 1.0), ("adam", 0.1), ("adam", 0.01)], 16, None),
    "dropout": (dict(spatial_dropout_rate=0.2, dropout_rate=0.3),
                [("sgd", 0.1), ("adam", 0.01), ("adagrad", 0.5)], 16, None),
    "trained-embedding": (dict(train_embedding=True, spatial_dropout_rate=0.2),
                          [("adam", 0.01), ("adadelta", 1.0), ("sgd_momentum", 0.05)], 16, None),
    "batch-1": ({}, [("sgd_momentum", 1e-4), ("sgd_momentum", 1e-3), ("sgd_momentum", 1e-2)],
                1, 20),
    "batch-8-ragged": (dict(dropout_rate=0.3), [("sgd", 0.1), ("adam", 0.1)], 8, None),
    "diverging-member": ({}, [("sgd", 0.1), ("sgd", 1e307), ("adam", 0.01)], 16, None),
}


class TestTrainRuns:
    @pytest.mark.parametrize("case", sorted(STACKS))
    def test_stack_equals_separate_runs(self, tiny_dataset, tiny_embedding, case):
        overrides, pairs, batch_size, keep = STACKS[case]
        data = tiny_dataset
        if keep is not None:
            data = SplitDataset(data.train_x[:keep], data.train_y[:keep], data.test_x, data.test_y)
        assert batch_size == 1 or len(data.train_y) % batch_size  # a ragged last batch
        config = small_config(**overrides)
        specs = [OptimizerSpec(kind=kind, learning_rate=lr) for kind, lr in pairs]
        params, histories = train_runs(data, tiny_embedding, config, specs,
                                       epochs=2, batch_size=batch_size, seed=5)
        assert params.flat.shape[0] == len(specs)
        for k, spec in enumerate(specs):
            alone, history = train(data, tiny_embedding, config, spec,
                                   epochs=2, batch_size=batch_size, seed=5)
            assert np.array_equal(params.run(k).flat, alone.flat)
            assert histories[k] == history
        if case == "diverging-member":
            assert [h.diverged for h in histories] == [False, True, False]
            assert histories[1].diverged_epoch == 1 and histories[1].train_loss == []
            assert np.isfinite(params.run(1).flat).all()  # its weights from before that batch
            assert all(len(histories[k].train_loss) == 2 for k in (0, 2))

    def test_needs_a_spec(self, tiny_dataset, tiny_embedding):
        with pytest.raises(ValidationError):
            train_runs(tiny_dataset, tiny_embedding, small_config(), [],
                       epochs=2, batch_size=16, seed=5)

    def test_diverged_run_stays_in_the_one_stack(self, tiny_dataset, tiny_embedding,
                                                 monkeypatch):
        from embfuse import optim
        real_loss_probs_grad = optim._loss_probs_grad
        seen = []

        def recording(x, labels, params, config, rng):
            seen.append(params.flat)
            return real_loss_probs_grad(x, labels, params, config, rng)

        monkeypatch.setattr(optim, "_loss_probs_grad", recording)
        overrides, pairs, batch_size, _ = STACKS["diverging-member"]
        specs = [OptimizerSpec(kind=kind, learning_rate=lr) for kind, lr in pairs]
        params, histories = train_runs(tiny_dataset, tiny_embedding, small_config(**overrides),
                                       specs, epochs=2, batch_size=batch_size, seed=5)
        assert [h.diverged for h in histories] == [False, True, False]
        assert params.flat.shape[0] == 3 and len(seen) > 1
        assert all(flat.shape == params.flat.shape and np.shares_memory(flat, params.flat)
                   for flat in seen)

    def test_batch_gradient_freed_before_next_batch(self, tiny_dataset, tiny_embedding,
                                                    monkeypatch):
        from embfuse import optim
        real_loss_probs_grad = optim._loss_probs_grad
        returned = []

        def tracking(*args):
            assert all(ref() is None for ref in returned)
            losses, probs, grad = real_loss_probs_grad(*args)
            returned.extend((weakref.ref(probs), weakref.ref(grad)))
            return losses, probs, grad

        monkeypatch.setattr(optim, "_loss_probs_grad", tracking)
        specs = [OptimizerSpec(kind=kind, learning_rate=0.05) for kind in ("sgd", "adam")]
        train_runs(tiny_dataset, tiny_embedding, small_config(), specs,
                   epochs=2, batch_size=16, seed=5)
        assert len(returned) == 2 * 2 * math.ceil(len(tiny_dataset.train_y) / 16)

    def test_stack_size_rule(self):
        # the paper model at batch 32 needs about 150 MB of training stores per run
        assert stack_size(ModelConfig(), 32) == 1
        tiny = ModelConfig(max_len=12, emb_dim=10, lstm_units=8, gru_units=6)
        assert stack_size(tiny, 1) >= 7
        assert stack_size(tiny, 1) > stack_size(tiny, 8) > stack_size(tiny, 64)


class TestTestEvaluation:
    """train_runs's per-epoch test metrics: evaluate of each live run."""

    @staticmethod
    def _trained(data, embedding, case, epochs):
        overrides, pairs, batch_size, _ = STACKS[case]
        specs = [OptimizerSpec(kind=kind, learning_rate=lr) for kind, lr in pairs]
        return train_runs(data, embedding, small_config(**overrides), specs,
                          epochs=epochs, batch_size=batch_size, seed=5)

    @pytest.mark.parametrize("case", ["mixed-kinds-and-rates", "diverging-member"])
    def test_each_epoch_is_evaluate_of_each_live_run(self, tiny_dataset, tiny_embedding, case):
        config = small_config(**STACKS[case][0])
        final = self._trained(tiny_dataset, tiny_embedding, case, 2)[1]
        for epochs in (1, 2):  # a run's weights after epoch e are those of e epochs
            params, histories = self._trained(tiny_dataset, tiny_embedding, case, epochs)
            for k, history in enumerate(final):
                if len(history.train_loss) < epochs:  # diverged before then
                    continue
                want = evaluate(tiny_dataset.test_x, tiny_dataset.test_y, params.run(k), config)
                got = (history.test_loss[epochs - 1], history.test_accuracy[epochs - 1])
                assert np.array_equal(got, want)
                assert histories[k].test_loss == history.test_loss[:epochs]

    @pytest.mark.parametrize("case", ["mixed-kinds-and-rates", "diverging-member"])
    def test_once_per_live_run_per_epoch(self, tiny_dataset, tiny_embedding, case,
                                         monkeypatch):
        from embfuse import optim
        real_evaluate = optim.evaluate
        evaluated = []  # the flat vector of each evaluated run, in call order

        def recording(x, labels, params, config):
            evaluated.append(params.flat)
            return real_evaluate(x, labels, params, config)

        monkeypatch.setattr(optim, "evaluate", recording)
        params, histories = self._trained(tiny_dataset, tiny_embedding, case, 3)
        rows = [k for flat in evaluated for k in range(len(histories))
                if np.shares_memory(flat, params.flat[k])]
        live = [[k for k, h in enumerate(histories) if len(h.train_loss) >= epoch]
                for epoch in (1, 2, 3)]
        assert len(rows) == len(evaluated) and rows == [k for runs in live for k in runs]
        assert [len(h.test_loss) for h in histories] == [len(h.train_loss) for h in histories]
        if case == "diverging-member":
            assert [h.diverged for h in histories] == [False, True, False]
            assert live[2] == [0, 2]  # the diverged row is never evaluated again


class TestTrainParameterBuffer:
    @pytest.mark.parametrize("train_embedding", [False, True])
    def test_blocks_stay_views_of_the_flat_buffer(self, tiny_dataset, tiny_embedding,
                                                  train_embedding):
        params, _ = train(tiny_dataset, tiny_embedding,
                          small_config(train_embedding=train_embedding),
                          OptimizerSpec(kind="adam", learning_rate=0.01),
                          epochs=1, batch_size=16, seed=5)
        assert all(np.shares_memory(b, params.flat) for b in params.blocks.values())
        assert np.shares_memory(params.embedding, params.flat) == train_embedding
        assert params.flat.size == sum(b.size for b in params.blocks.values()) + (
            params.embedding.size if train_embedding else 0)

    def test_train_never_copies_to_or_from_flat(self, tiny_dataset, tiny_embedding, monkeypatch):
        from embfuse import model, optim
        calls = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("to_flat", "from_flat", "grads_to_flat"):
            wrapper = counting(name, getattr(model, name))
            monkeypatch.setattr(model, name, wrapper)
            monkeypatch.setattr(optim, name, wrapper, raising=False)
        train(tiny_dataset, tiny_embedding, small_config(spatial_dropout_rate=0.2, dropout_rate=0.3),
              OptimizerSpec(kind="sgd_momentum", learning_rate=0.05), epochs=2, batch_size=16, seed=5)
        assert calls == []

    def test_trained_checkpoint_round_trips_byte_identically(self, tiny_dataset, tiny_embedding):
        config = small_config(train_embedding=True)
        params, _ = train(tiny_dataset, tiny_embedding, config,
                          OptimizerSpec(kind="adadelta", learning_rate=1.0),
                          epochs=1, batch_size=16, seed=5)
        first = io.BytesIO()
        save_checkpoint(first, params, config)
        loaded, loaded_config = load_checkpoint(io.BytesIO(first.getvalue()))
        second = io.BytesIO()
        save_checkpoint(second, loaded, loaded_config)
        assert second.getvalue() == first.getvalue()
        assert np.array_equal(loaded.flat, params.flat)
        assert all(np.shares_memory(b, loaded.flat) for b in loaded.blocks.values())


class TestSplitDataset:
    def test_from_examples_builds_arrays(self):
        train_ex = [types.SimpleNamespace(indices=[0, 2, 3], label=1),
                    types.SimpleNamespace(indices=[4, 5, 6], label=2)]
        test_ex = [types.SimpleNamespace(indices=[7, 8, 9], label=0)]
        data = SplitDataset.from_examples(train_ex, test_ex, 3)
        assert data.train_x.tolist() == [[0, 2, 3], [4, 5, 6]]
        assert data.train_y.tolist() == [1, 2]
        assert data.test_x.tolist() == [[7, 8, 9]]
        assert data.test_y.dtype == np.int64

    def test_from_examples_empty_side(self):
        data = SplitDataset.from_examples([], [], 3)
        assert data.train_x.shape == data.test_x.shape == (0, 3)
        assert data.train_y.shape == data.test_y.shape == (0,)


class TestLrRangeSearch:
    def test_returns_argmin_of_table(self, tiny_dataset, tiny_embedding):
        grid = [1e-6, 1e-3, 1e-1]
        best, probes = lr_range_search(tiny_dataset, tiny_embedding, small_config(),
                                       "sgd", grid=grid, epochs=2, batch_size=16, seed=5)
        finals = [p.final_loss for p in probes]
        assert [p.learning_rate for p in probes] == grid
        assert best == grid[int(np.argmin(finals))]
        assert all(len(p.epoch_losses) == 2 for p in probes)

    def test_diverged_probe_kept_but_not_chosen(self, tiny_dataset, tiny_embedding):
        best, probes = lr_range_search(tiny_dataset, tiny_embedding, small_config(),
                                       "sgd", grid=[1e-3, 1e307], epochs=2,
                                       batch_size=16, seed=5)
        assert best == 1e-3
        assert probes[1].diverged and probes[1].final_loss == math.inf
        assert not probes[0].diverged

    def test_all_diverged_raises(self, tiny_dataset, tiny_embedding):
        with pytest.raises(AllDivergedError):
            lr_range_search(tiny_dataset, tiny_embedding, small_config(),
                            "sgd", grid=[1e307, 1e308], epochs=1, batch_size=16, seed=5)

    def test_all_diverged_error_carries_the_probes(self, tiny_dataset, tiny_embedding):
        with pytest.raises(AllDivergedError) as caught:
            lr_range_search(tiny_dataset, tiny_embedding, small_config(),
                            "sgd", grid=[1e307, 1e308], epochs=1, batch_size=16, seed=5)
        probes = caught.value.probes
        assert [p.learning_rate for p in probes] == [1e307, 1e308]
        assert all(p.diverged and p.final_loss == math.inf for p in probes)

    def test_equal_final_losses_pick_the_smaller_rate(self, tiny_dataset, tiny_embedding,
                                                       monkeypatch):
        from embfuse import optim
        from embfuse.optim import TrainingHistory
        losses = {1e-4: [], 1e-3: [0.9, 0.5], 1e-2: [0.8, 0.5], 1e-1: [0.7, 0.6]}

        def fake_histories(data, embedding, config, specs, epochs, batch_size, seed, test=True):
            return [TrainingHistory(pair="", optimizer=spec.kind, learning_rate=spec.learning_rate,
                                    seed=seed, train_loss=losses[spec.learning_rate],
                                    diverged=not losses[spec.learning_rate])
                    for spec in specs]

        monkeypatch.setattr(optim, "_stacked_histories", fake_histories)
        best, probes = lr_range_search(tiny_dataset, tiny_embedding, small_config(),
                                       "sgd", grid=list(losses), epochs=2)
        assert [p.final_loss for p in probes] == [math.inf, 0.5, 0.5, 0.6]
        assert best == 1e-3

    def test_search_evaluates_no_test_split(self, tiny_dataset, tiny_embedding, monkeypatch):
        from embfuse import optim
        grid = [1e-3, 1e-2, 1e307]
        specs = [OptimizerSpec("sgd_momentum", lr) for lr in grid]
        _, histories = optim.train_runs(tiny_dataset, tiny_embedding, small_config(), specs,
                                        epochs=2, batch_size=16, seed=5)
        calls = []

        real_evaluate = optim.evaluate

        def counting(*args, **kwargs):
            calls.append(args)
            return real_evaluate(*args, **kwargs)

        monkeypatch.setattr(optim, "evaluate", counting)
        _, probes = lr_range_search(tiny_dataset, tiny_embedding, small_config(),
                                    "sgd_momentum", grid=grid, epochs=2, batch_size=16, seed=5)
        assert calls == []
        # the probes are the train losses of the same runs trained with their evaluation
        assert [p.epoch_losses for p in probes] == [h.train_loss for h in histories]
        assert [p.diverged for p in probes] == [False, False, True]

    def test_empty_grid_rejected(self, tiny_dataset, tiny_embedding):
        with pytest.raises(ValidationError):
            lr_range_search(tiny_dataset, tiny_embedding, small_config(),
                            "sgd", grid=[], epochs=1)

    def test_lr_table_format(self):
        from embfuse.optim import LrProbe
        probes = [LrProbe(1e-3, [1.0, 0.5], False),
                  LrProbe(1e300, [], True)]
        fh = io.StringIO()
        write_lr_table(probes, fh)
        lines = fh.getvalue().splitlines()
        assert lines[0] == "learning_rate,final_train_loss,diverged,epochs_completed"
        assert lines[1] == "0.001,0.5,0,2"
        assert lines[2] == "1e+300,,1,0"


class TestHistoryCsv:
    def test_round_trip_exact(self, tiny_dataset, tiny_embedding):
        config = small_config()
        _, ok = train(tiny_dataset, tiny_embedding, config,
                      OptimizerSpec(kind="adam", learning_rate=0.01),
                      epochs=2, batch_size=16, seed=5)
        _, bad = train(tiny_dataset, tiny_embedding, config,
                       OptimizerSpec(kind="sgd", learning_rate=1e307),
                       epochs=2, batch_size=16, seed=5)
        ok.pair, bad.pair = "pair-a", "pair-b"
        fh = io.StringIO()
        write_history_csv([ok, bad], fh)
        back = read_history_csv(io.StringIO(fh.getvalue()))
        assert len(back) == 2
        assert back[0].pair == "pair-a" and back[0].optimizer == "adam"
        assert back[0].train_loss == ok.train_loss
        assert back[0].test_accuracy == ok.test_accuracy
        assert back[0].learning_rate == 0.01 and back[0].seed == 5
        assert not back[0].diverged
        assert back[1].diverged
        assert back[1].train_loss == bad.train_loss

    def test_read_back_equals_the_written_histories(self, tiny_dataset, tiny_embedding):
        specs = [OptimizerSpec(kind="adam", learning_rate=0.01),
                 OptimizerSpec(kind="sgd", learning_rate=1e307)]
        _, histories = train_runs(tiny_dataset, tiny_embedding, small_config(), specs,
                                  epochs=2, batch_size=16, seed=5)
        for h in histories:
            h.pair = "pair-a"
        assert [h.diverged for h in histories] == [False, True]
        fh = io.StringIO()
        write_history_csv(histories, fh)
        assert read_history_csv(io.StringIO(fh.getvalue())) == histories

    def test_zero_epoch_diverged_row(self):
        from embfuse.optim import TrainingHistory
        hist = TrainingHistory(pair="p", optimizer="sgd", learning_rate=1e300,
                               seed=1, diverged=True)
        fh = io.StringIO()
        write_history_csv([hist], fh)
        lines = fh.getvalue().splitlines()
        assert len(lines) == 2
        assert lines[1] == "p,sgd,1e+300,1,0,,,,,1"
        back = read_history_csv(io.StringIO(fh.getvalue()))
        assert back[0].diverged and back[0].train_loss == []

    @pytest.mark.parametrize("recorded", [0, 2])
    def test_round_trip_keeps_the_divergence_epoch(self, recorded):
        from embfuse.optim import TrainingHistory
        metrics = [[1.0 - 0.1 * e for e in range(recorded)], [0.5] * recorded]
        hist = TrainingHistory(pair="p", optimizer="sgd", learning_rate=0.5, seed=1,
                               train_loss=metrics[0], train_accuracy=metrics[1],
                               test_loss=metrics[0], test_accuracy=metrics[1], diverged=True)
        assert hist.diverged_epoch == recorded + 1
        fh = io.StringIO()
        write_history_csv([hist], fh)
        (back,) = read_history_csv(io.StringIO(fh.getvalue()))
        assert back.diverged and back.train_loss == hist.train_loss
        assert back.diverged_epoch == recorded + 1

    def test_empty_test_split_reads_back(self, tiny_dataset, tiny_embedding):
        data = SplitDataset(tiny_dataset.train_x, tiny_dataset.train_y,
                            np.zeros((0, 12)), np.zeros(0))
        _, hist = train(data, tiny_embedding, small_config(),
                        OptimizerSpec(kind="sgd", learning_rate=0.1),
                        epochs=2, batch_size=16, seed=5)
        fh = io.StringIO()
        write_history_csv([hist], fh)
        (back,) = read_history_csv(io.StringIO(fh.getvalue()))
        assert back.train_loss == hist.train_loss and back.diverged_epoch is None
        assert all(math.isnan(v) for v in back.test_loss + back.test_accuracy)

    def test_header_validated(self):
        with pytest.raises(ValidationError):
            read_history_csv(io.StringIO("nope,nope\n1,2\n"))

    @pytest.mark.parametrize("epochs, message", [
        ((-7, 5), "line 2: a run starts at epoch 0 or 1, not -7"),
        ((2,), "line 2: a run starts at epoch 0 or 1, not 2"),
        ((1, 3), "line 3: epoch 3 does not follow epoch 1 of the same run"),
        ((1, 2, 1, 2), "line 4: epoch 1 does not follow epoch 2 of the same run"),
        ((0, 1), "line 3: epoch 1 does not follow epoch 0 of the same run"),
    ], ids=["negative-start", "late-start", "gap", "repeated-run", "after-epoch-0"])
    def test_epoch_must_follow_the_previous_row_of_its_run(self, epochs, message):
        header = ("pair,optimizer,learning_rate,seed,epoch,"
                  "train_loss,train_accuracy,test_loss,test_accuracy,run_diverged\n")
        # an epoch-0 row as the writer writes one: empty metrics, diverged
        rows = "".join("p,sgd,0.05,7,0,,,,,1\n" if e == 0 else
                       f"p,sgd,0.05,7,{e},1.0,0.5,1.0,0.5,0\n" for e in epochs)
        with pytest.raises(ValidationError, match=f"history CSV {message}$"):
            read_history_csv(io.StringIO(header + rows))


class TestOptimizerSweep:
    def test_cells_are_pair_major_with_shared_lr(self, tiny_dataset):
        pairs = [("alpha", random_embedding(seed=1)), ("beta", random_embedding(seed=2))]
        hists = optimizer_sweep(tiny_dataset, small_config(), pairs,
                                learning_rate=0.05, kinds=("sgd", "adam"),
                                epochs=2, batch_size=16, seed=5)
        assert [(h.pair, h.optimizer) for h in hists] == [
            ("alpha", "sgd"), ("alpha", "adam"), ("beta", "sgd"), ("beta", "adam")]
        assert all(h.learning_rate == 0.05 for h in hists)
        assert all(len(h.train_loss) == 2 for h in hists)

    def test_learning_rate_is_required(self, tiny_dataset, tiny_embedding):
        with pytest.raises(TypeError):
            optimizer_sweep(tiny_dataset, small_config(), [("p", tiny_embedding)])

    def test_cell_parameters_freed_before_next_cell(self, tiny_dataset, tiny_embedding,
                                                     monkeypatch):
        from embfuse import optim
        real_train_runs = optim.train_runs
        trained = []

        def tracking_train_runs(*args, **kwargs):
            assert all(ref() is None for ref in trained)
            params, histories = real_train_runs(*args, **kwargs)
            trained.append(weakref.ref(params))
            return params, histories

        monkeypatch.setattr(optim, "train_runs", tracking_train_runs)
        optimizer_sweep(tiny_dataset, small_config(),
                        [("p", tiny_embedding), ("q", tiny_embedding)],
                        learning_rate=0.05, kinds=("sgd", "adam", "adagrad"),
                        epochs=1, batch_size=16, seed=6)
        assert len(trained) == 2  # one stack of three cells per pair

    def test_no_pairs_rejected(self, tiny_dataset):
        with pytest.raises(ValidationError):
            optimizer_sweep(tiny_dataset, small_config(), [], learning_rate=0.1)

    @pytest.mark.parametrize("pairs, kinds, message", [
        (["p"], ("sgd", "adam", "sgd"), "optimizer 'sgd'"),
        (["p", "q", "p"], ("sgd",), "pair 'p'"),
    ], ids=["kind", "pair"])
    def test_repeated_cell_rejected(self, tiny_dataset, tiny_embedding, pairs, kinds, message):
        with pytest.raises(ValidationError, match=f"sweep lists {message} more than once"):
            optimizer_sweep(tiny_dataset, small_config(),
                            [(p, tiny_embedding) for p in pairs],
                            learning_rate=0.05, kinds=kinds, epochs=1, batch_size=16)

    def test_rerun_is_identical(self, tiny_dataset, tiny_embedding):
        kwargs = dict(learning_rate=0.05, kinds=("sgd", "adagrad"),
                      epochs=2, batch_size=16, seed=6)
        a = optimizer_sweep(tiny_dataset, small_config(), [("p", tiny_embedding)], **kwargs)
        b = optimizer_sweep(tiny_dataset, small_config(), [("p", tiny_embedding)], **kwargs)
        assert [h.train_loss for h in a] == [h.train_loss for h in b]
        assert [h.test_loss for h in a] == [h.test_loss for h in b]


class TestSyntheticGenerator:
    def test_labels_follow_signal_tokens(self):
        data = synthetic_dataset(n=90, seed=2)
        for x, y in zip(data.train_x, data.train_y):
            present = [t for t in (2, 3, 4) if t in x]
            assert present == [2 + int(y)]
