"""Acceptance gate: one test per core guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see a PASS/FAIL line
per check with its measured runtime. Every check carries a wall-clock
budget; the asserts enforce both the behavior and the budget.
"""
import csv
import io
import math
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from embfuse import corpus, fusion
from embfuse.charts import history_chart
from embfuse.embedding_io import (
    EmbeddingTable,
    parse_embedding,
    write_word2vec_binary,
)
from embfuse.model import (
    ModelConfig,
    forward,
    from_flat,
    gru_cell_step,
    init_parameters,
    loss_and_grad,
    lstm_cell_step,
    to_flat,
    trainable_block_names,
)
from embfuse.optim import (
    DEFAULT_LR,
    OPTIMIZER_KINDS,
    OptimizerSpec,
    SplitDataset,
    lr_range_search,
    make_optimizer,
    optimizer_sweep,
    train,
    write_history_csv,
    write_lr_table,
)
from embfuse.seeding import derive_rng

from conftest import FILLER_START, SIGNAL_TOKENS, random_embedding, synthetic_dataset

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@contextmanager
def criterion(name, budget_seconds):
    started = time.perf_counter()
    info = {}
    try:
        yield info
    except BaseException:
        print(f"FAIL {name}")
        raise
    elapsed = time.perf_counter() - started
    detail = info.get("detail", "")
    print(f"PASS {name} ({elapsed:.2f}s{', ' + detail if detail else ''})")
    assert elapsed < budget_seconds, f"{name} took {elapsed:.1f}s, budget {budget_seconds}s"


# --- independent references used by the checks ---

def scalar_sigmoid(v):
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def ref_fuse_matrix(dicts, emb1, emb2, unknown_fill=0.0):
    """Brute-force fusion over plain Python floats, one coordinate at a time.

    Mirrors the documented rules directly: candidate keys are tried in
    order (exact, lowercase, first character upper-cased, lemma) against
    both tables, the mean shift uses the two table means, and each branch
    combines coordinates in the written order.
    """
    dim = emb1.dim
    m1 = [float(v) for v in emb1.mean]
    m2 = [float(v) for v in emb2.mean]
    matrix = [[0.0] * dim for _ in range(dicts.vocab_size)]
    matrix[1] = [float(unknown_fill)] * dim
    for word, index in dicts.dict_words.items():
        candidates = [word]
        lower = word.lower()
        if lower != word and lower not in candidates:
            candidates.append(lower)
        capital = word[:1].upper() + word[1:]
        if capital != word and capital not in candidates:
            candidates.append(capital)
        lemma = dicts.lemma_dict.get(word)
        if lemma is not None and lemma not in candidates:
            candidates.append(lemma)
        key = None
        for cand in candidates:
            if cand in emb1 or cand in emb2:
                key = cand
                break
        if key is None:
            matrix[index] = [float(unknown_fill)] * dim
        elif key in emb1 and key in emb2:
            v1 = [float(v) for v in emb1.vector(key)]
            v2 = [float(v) for v in emb2.vector(key)]
            matrix[index] = [
                (v1[d] + (v2[d] + (m1[d] - m2[d]))) / 2.0 for d in range(dim)
            ]
        elif key in emb1:
            matrix[index] = [float(v) for v in emb1.vector(key)]
        else:
            v2 = [float(v) for v in emb2.vector(key)]
            matrix[index] = [v2[d] + (m1[d] - m2[d]) for d in range(dim)]
    return matrix


def random_fusion_instance(rng, dyadic=False):
    """A random dictionaries-plus-two-tables instance for fusion checks.

    With ``dyadic`` set, entries are multiples of 1/8 and row counts are
    powers of two, so table means and shifts are exact in float64.
    """
    vocab_n = int(rng.integers(16, 51))
    base = [f"w{k}" for k in range(vocab_n)]
    display, table_key = [], {}
    for w in base:
        r = rng.random()
        if r < 0.2:
            display.append(w.capitalize())
            table_key[w] = w
        elif r < 0.35:
            display.append(w)
            table_key[w] = w.capitalize()
        else:
            display.append(w)
            table_key[w] = w
    dict_words = {d: i + 2 for i, d in enumerate(display)}
    lemma_dict = {display[i]: (base[i][:-1] if len(base[i]) > 2 and rng.random() < 0.3
                               else display[i])
                  for i in range(vocab_n)}
    dicts = corpus.CorpusDictionaries(dict_words=dict_words, lemma_dict=lemma_dict,
                                      vocab_size=vocab_n + 2)
    dim = int(rng.integers(1, 9))

    def table(name):
        if dyadic:
            n = int(2 ** rng.integers(0, 5))
        else:
            n = int(rng.integers(1, min(20, vocab_n) + 1))
        chosen = rng.choice(vocab_n, size=n, replace=False)
        vocab = {table_key[base[int(wi)]]: j for j, wi in enumerate(chosen)}
        if dyadic:
            matrix = rng.integers(-64, 65, size=(n, dim)) / 8.0
        else:
            matrix = rng.normal(size=(n, dim))
        return EmbeddingTable(name=name, dim=dim, vocab=vocab, matrix=matrix,
                              mean=matrix.mean(axis=0))

    return dicts, table("t1"), table("t2")


class TestAcceptance:
    def test_fusion_oracle_equivalence(self):
        with criterion("fusion-oracle-equivalence", 5.0) as info:
            rng = derive_rng(101, "fusion-oracle")
            for trial in range(200):
                dicts, t1, t2 = random_fusion_instance(rng)
                fill = float(rng.normal())
                fused = fusion.build_fused_matrix(dicts, t1, t2, unknown_fill=fill)
                ref = ref_fuse_matrix(dicts, t1, t2, unknown_fill=fill)
                for word, index in dicts.dict_words.items():
                    assert fused.matrix[index].tolist() == ref[index], (trial, word)
                assert fused.matrix[1].tolist() == ref[1]
                assert fused.matrix[0].tolist() == [0.0] * t1.dim
            info["detail"] = "200 randomized instances bit-equal to the scalar reference"

    def test_fusion_translation_invariance(self):
        with criterion("fusion-translation-invariance", 2.0) as info:
            rng = derive_rng(102, "fusion-shift")
            for trial in range(50):
                dicts, t1, t2 = random_fusion_instance(rng, dyadic=True)
                c = float(rng.integers(-64, 65)) / 8.0
                moved = t2.matrix + c
                shifted = EmbeddingTable(name=t2.name, dim=t2.dim, vocab=dict(t2.vocab),
                                         matrix=moved, mean=moved.mean(axis=0))
                a = fusion.build_fused_matrix(dicts, t1, t2)
                b = fusion.build_fused_matrix(dicts, t1, shifted)
                assert np.array_equal(a.matrix, b.matrix), trial
                assert a.branch_counts == b.branch_counts
            info["detail"] = "50 instances unchanged under a constant shift of table two"

    def test_fusion_self_identity(self):
        with criterion("fusion-self-identity", 1.0) as info:
            rng = derive_rng(103, "fusion-self")
            found = 0
            for trial in range(20):
                dicts, t1, _ = random_fusion_instance(rng)
                fused = fusion.build_fused_matrix(dicts, t1, t1)
                for word, index in dicts.dict_words.items():
                    if word in t1:
                        found += 1
                        assert np.array_equal(fused.matrix[index], t1.vector(word)), word
            assert found > 0
            info["detail"] = f"fuse(E, E) returned E's row for all {found} found words"

    def test_gradient_check_every_block(self):
        with criterion("gradient-check", 60.0) as info:
            config = ModelConfig(max_len=7, emb_dim=8, lstm_units=5, gru_units=4,
                                 spatial_dropout_rate=0.0, dropout_rate=0.0,
                                 seed=42, train_embedding=True)
            rng = derive_rng(104, "grad-data")
            x = rng.integers(0, 12, size=(3, 7))
            x[:, 0] = 0
            labels = rng.integers(0, 3, size=3)
            emb = rng.normal(size=(12, 8))
            emb[0] = 0.0
            params = init_parameters(config, emb)
            flat = to_flat(params, config)
            _, grad = loss_and_grad(x, labels, params, config)

            def loss_at(vec):
                p = from_flat(params, config, vec)
                probs, _ = forward(x, p, config, training=True)
                return float(-np.log(probs[np.arange(3), labels]).mean())

            step = 1e-5
            worst = {}
            offset = 0
            for name in trainable_block_names(config):
                block = params.embedding if name == "embedding" else params.blocks[name]
                err = 0.0
                for k in range(block.size):
                    idx = offset + k
                    probe = flat.copy()
                    probe[idx] += step
                    up = loss_at(probe)
                    probe[idx] -= 2 * step
                    down = loss_at(probe)
                    numeric = (up - down) / (2 * step)
                    denom = max(abs(numeric), abs(grad[idx]), 1e-8)
                    err = max(err, abs(numeric - grad[idx]) / denom)
                worst[name] = err
                assert err < 1e-4, f"block {name}: max relative error {err:.3e}"
                offset += block.size
            info["detail"] = (f"all {len(worst)} blocks, every coordinate; "
                              f"worst relative error {max(worst.values()):.2e}")

    def test_cell_oracles(self):
        with criterion("cell-oracles", 5.0) as info:
            rng = derive_rng(105, "cells")
            worst = 0.0
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
                h_ref, c_ref = [], []
                for j in range(H):
                    def pre(col):
                        s = b[col]
                        for d in range(D):
                            s += x[d] * W[d][col]
                        for k in range(H):
                            s += h0[k] * U[k][col]
                        return s
                    i_g = scalar_sigmoid(pre(j))
                    f_g = scalar_sigmoid(pre(H + j))
                    g_g = math.tanh(pre(2 * H + j))
                    o_g = scalar_sigmoid(pre(3 * H + j))
                    c_j = f_g * c0[j] + i_g * g_g
                    c_ref.append(c_j)
                    h_ref.append(o_g * math.tanh(c_j))
                worst = max(worst, float(np.max(np.abs(h - np.array(h_ref)))),
                            float(np.max(np.abs(c - np.array(c_ref)))))
                assert worst < 1e-12, trial

                G = int(rng.integers(1, 7))
                xg = rng.normal(size=D)
                hg = rng.normal(size=G)
                Wg = rng.normal(size=(D, 3 * G))
                Ug = rng.normal(size=(G, 3 * G))
                bg = rng.normal(size=3 * G)
                out = gru_cell_step(xg, hg, (Wg, Ug, bg))
                ref = []
                for j in range(G):
                    def xw(col):
                        return sum(xg[d] * Wg[d][col] for d in range(D))
                    def hu(col):
                        return sum(hg[k] * Ug[k][col] for k in range(G))
                    z = scalar_sigmoid(xw(j) + hu(j) + bg[j])
                    r = scalar_sigmoid(xw(G + j) + hu(G + j) + bg[G + j])
                    n = math.tanh(xw(2 * G + j) + r * hu(2 * G + j) + bg[2 * G + j])
                    ref.append((1.0 - z) * n + z * hg[j])
                worst = max(worst, float(np.max(np.abs(out - np.array(ref)))))
                assert worst < 1e-12, trial
            info["detail"] = f"100 LSTM + 100 GRU instances, worst gap {worst:.2e}"

    def test_optimizer_convergence(self):
        with criterion("optimizer-convergence", 5.0) as info:
            steps_used = {}
            for kind in OPTIMIZER_KINDS:
                rng = derive_rng(106, "bowl", kind)
                target = rng.uniform(-1.0, 1.0, size=10)
                opt = make_optimizer(
                    OptimizerSpec(kind=kind, learning_rate=DEFAULT_LR[kind]), 10)
                w = np.zeros(10)
                for step in range(10_000):
                    if np.linalg.norm(w - target) < 1e-3:
                        break
                    w = opt.step(w, w - target)
                assert np.linalg.norm(w - target) < 1e-3, kind
                steps_used[kind] = step
            info["detail"] = "steps to 1e-3: " + " ".join(
                f"{k}={v}" for k, v in steps_used.items())

    def test_first_step_magnitudes(self):
        with criterion("first-step-magnitudes", 1.0) as info:
            for g0 in (1.0, -2.5, 0.1, 40.0):
                opt = make_optimizer(OptimizerSpec(kind="adam", learning_rate=0.1), 1)
                w = opt.step(np.array([0.0]), np.array([g0]))
                assert abs(abs(float(w[0])) - 0.1) / 0.1 < 1e-6, g0
            lr, g, eps = 0.01, 3.0, 1e-10
            opt = make_optimizer(OptimizerSpec(kind="adagrad", learning_rate=lr), 1)
            w = opt.step(np.array([0.0]), np.array([g]))
            closed_form = -lr * g / math.sqrt(g * g + eps)
            assert abs(float(w[0]) - closed_form) < 1e-9
            info["detail"] = "adam first step = lr (1e-6 rel); adagrad matches closed form (1e-9)"

    def test_lr_search_protocol(self):
        with criterion("lr-search-protocol", 600.0) as info:
            # Token-determined corpus where 3 raw sequences in 10 carry
            # their signal token only in a head the fixed window truncates
            # away. Those windows are pure filler, so every rate shares an
            # irreducible loss floor of 0.3*ln(3) and keeps an O(1)
            # gradient noise level there forever. The corpus is sized so
            # that one decade below the largest stable rate converges onto
            # the floor within three epochs, while the largest rate stays
            # pinned above it at the stationary level set by its own step
            # size, and the tiny rates never leave the uniform plateau:
            # the loss profile dips in the middle.
            n, max_len, vocab = 5400, 12, 30
            rng = derive_rng(6, "synthetic-truncating")
            xs = np.zeros((n, max_len), dtype=np.int64)
            ys = np.zeros(n, dtype=np.int64)
            for i in range(n):
                label = i % 3
                hidden = ((i // 3) % 10) < 3
                if hidden:
                    raw_len = max_len + int(rng.integers(2, 5))
                    raw = rng.integers(FILLER_START, vocab, size=raw_len)
                    raw[int(rng.integers(0, 2))] = SIGNAL_TOKENS[label]
                else:
                    raw_len = int(rng.integers(5, max_len + 1))
                    raw = rng.integers(FILLER_START, vocab, size=raw_len)
                    raw[int(rng.integers(0, raw_len))] = SIGNAL_TOKENS[label]
                window = raw[-max_len:]
                xs[i, max_len - len(window):] = window
                ys[i] = label
            order = derive_rng(6, "split").permutation(n)
            data = SplitDataset(xs[order[n // 10:]], ys[order[n // 10:]],
                                xs[order[:n // 10]], ys[order[:n // 10]])
            emb = derive_rng(6, "emb").normal(0.0, 4.0, size=(vocab, 10))
            emb[0] = 0.0
            config = ModelConfig(max_len=max_len, emb_dim=10, lstm_units=8,
                                 gru_units=6, spatial_dropout_rate=0.0,
                                 dropout_rate=0.0, seed=6)
            best, probes = lr_range_search(data, emb, config, "sgd_momentum",
                                           epochs=3, batch_size=1, seed=6)
            rates = [p.learning_rate for p in probes]
            losses = [p.final_loss for p in probes]
            assert rates[0] == pytest.approx(1e-8, rel=1e-9)
            assert rates[-1] == pytest.approx(1e-2, rel=1e-9)
            assert len(rates) == 7
            assert all(len(p.epoch_losses) == 3 for p in probes if not p.diverged)

            # the selected rate must be the argmin of the table as emitted
            table = io.StringIO()
            write_lr_table(probes, table)
            rows = list(csv.DictReader(io.StringIO(table.getvalue())))
            assert len(rows) == 7
            surviving = [r for r in rows if r["diverged"] == "0"]
            emitted_best = min(surviving, key=lambda r: float(r["final_train_loss"]))
            assert best == float(emitted_best["learning_rate"])

            finite = [v for v in losses if math.isfinite(v)]
            assert losses[0] > min(finite)
            assert losses[-1] > min(finite)
            assert 0 < losses.index(min(finite)) < len(losses) - 1
            info["detail"] = ("losses " + " ".join(f"{v:.3f}" for v in losses)
                              + f"; returned lr {best:g}")

    def test_end_to_end_learning(self):
        with criterion("end-to-end-learning", 300.0) as info:
            data = synthetic_dataset(n=600, seed=11)
            emb = random_embedding(seed=11)
            config = ModelConfig(max_len=12, emb_dim=10, lstm_units=8, gru_units=6,
                                 spatial_dropout_rate=0.0, dropout_rate=0.0, seed=11)
            spec = OptimizerSpec(kind="sgd", learning_rate=DEFAULT_LR["sgd"])
            _, hist = train(data, emb, config, spec, epochs=20, batch_size=32, seed=11)
            assert not hist.diverged
            assert len(hist.train_loss) <= 20
            assert hist.train_accuracy[-1] >= 0.9
            assert hist.test_accuracy[-1] >= 0.8
            info["detail"] = (f"train acc {hist.train_accuracy[-1]:.3f}, "
                              f"test acc {hist.test_accuracy[-1]:.3f} after 20 epochs")

    def test_sweep_shape_and_reproducibility(self, tmp_path):
        with criterion("sweep-reproducibility", 600.0) as info:
            with open(os.path.join(FIXTURES, "reviews_100.csv"), "rb") as fh:
                records, dropped = corpus.load_reviews_csv(fh)
            ds, _ = corpus.prepare_corpus(records, loaded=len(records) + dropped,
                                          dropped=dropped, max_len=16, seed=0)
            with open(os.path.join(FIXTURES, "vectors_a_glove.txt"), "rb") as fh:
                table_a = parse_embedding(fh, "glove", name="a")
            with open(os.path.join(FIXTURES, "vectors_b_fasttext.txt"), "rb") as fh:
                table_b = parse_embedding(fh, "fasttext", name="b")
            pairs = [
                ("a+b", fusion.build_fused_matrix(ds.dicts, table_a, table_b).matrix),
                ("b+a", fusion.build_fused_matrix(ds.dicts, table_b, table_a).matrix),
            ]
            data = SplitDataset.from_examples(ds.train, ds.test)
            config = ModelConfig(max_len=16, emb_dim=4, lstm_units=6, gru_units=4,
                                 spatial_dropout_rate=0.0, dropout_rate=0.0, seed=7)

            def run_once(out_dir):
                os.makedirs(out_dir, exist_ok=True)
                histories = optimizer_sweep(data, config, pairs, learning_rate=0.05,
                                            epochs=4, batch_size=16, seed=7)
                files = {}
                with open(os.path.join(out_dir, "histories.csv"), "w",
                          encoding="utf-8", newline="") as fh:
                    write_history_csv(histories, fh)
                for pair_id, _ in pairs:
                    group = [h for h in histories if h.pair == pair_id]
                    path = os.path.join(out_dir, pair_id.replace("+", "_") + ".svg")
                    with open(path, "w", encoding="utf-8", newline="\n") as fh:
                        fh.write(history_chart(group, pair_id))
                for name in sorted(os.listdir(out_dir)):
                    with open(os.path.join(out_dir, name), "rb") as fh:
                        files[name] = fh.read()
                return histories, files

            hist1, files1 = run_once(str(tmp_path / "run1"))
            hist2, files2 = run_once(str(tmp_path / "run2"))
            assert len(hist1) == 10
            assert all(len(h.train_loss) == 4 for h in hist1)
            assert [(h.pair, h.optimizer) for h in hist1] == [
                (p, k) for p, _ in pairs for k in OPTIMIZER_KINDS]
            assert sorted(files1) == ["a_b.svg", "b_a.svg", "histories.csv"]
            assert files1 == files2
            info["detail"] = "10 complete histories; csv and both charts byte-identical on rerun"

    def test_parser_round_trips(self):
        with criterion("parser-round-trips", 10.0) as info:
            rng = derive_rng(111, "w2v-bin")
            for trial in range(20):
                dim = int(rng.integers(1, 12))
                n = int(rng.integers(1, 15))
                vocab = {f"word{k}": k for k in range(n)}
                matrix = rng.normal(size=(n, dim))
                table = EmbeddingTable(name="t", dim=dim, vocab=vocab, matrix=matrix,
                                       mean=matrix.mean(axis=0))
                payload = write_word2vec_binary(table)
                back = parse_embedding(io.BytesIO(payload), "w2v-bin", name="t")
                stored = matrix.astype("<f4").astype(np.float64)
                assert back.vocab == vocab
                assert np.array_equal(back.matrix, stored), trial

            expected_words = ["alpha", "beta", "gamma"]
            expected = np.array([[0.25, -1.5, 2.0],
                                 [1.75, 0.5, -0.25],
                                 [-3.0, 0.125, 1.5]])
            with open(os.path.join(FIXTURES, "parse_fixture_glove.txt"), "rb") as fh:
                g = parse_embedding(fh, "glove", name="g")
            assert [w for w, _ in sorted(g.vocab.items(), key=lambda p: p[1])] == expected_words
            assert np.array_equal(g.matrix, expected)
            with open(os.path.join(FIXTURES, "parse_fixture_fasttext.txt"), "rb") as fh:
                f = parse_embedding(fh, "fasttext", name="f")
            assert f.vocab == g.vocab
            assert np.array_equal(f.matrix, expected)
            info["detail"] = "20 binary write-parse identities; both text fixtures exact"

    def test_corpus_pipeline_counts(self):
        with criterion("corpus-pipeline-counts", 10.0) as info:
            # expected values computed by hand in tests/fixtures/README.md
            with open(os.path.join(FIXTURES, "reviews_100.csv"), "rb") as fh:
                records, dropped = corpus.load_reviews_csv(fh)
            assert len(records) == 100 and dropped == 0
            ds, report = corpus.prepare_corpus(records, loaded=100, dropped=0,
                                               max_len=16, seed=0)
            assert report.filter.place == "Jemaa El-Fena"
            assert report.filter.kept == 76 and report.filter.total == 100
            assert report.filter.share == pytest.approx(0.76)
            assert not report.filter.tied
            assert report.label_counts == {"bad": 18, "neutral": 18, "good": 40}
            assert len(ds.train) == 68 and len(ds.test) == 8
            train_labels = [int(e.label) for e in ds.train]
            test_labels = [int(e.label) for e in ds.test]
            assert [train_labels.count(v) for v in (0, 1, 2)] == [16, 16, 36]
            assert [test_labels.count(v) for v in (0, 1, 2)] == [2, 2, 4]
            both = ds.train + ds.test
            assert all(len(e.indices) == 16 for e in both)
            info["detail"] = ("filter 76/100, labels 18/18/40, split 68/8 "
                              "match the hand-computed fixture numbers")
