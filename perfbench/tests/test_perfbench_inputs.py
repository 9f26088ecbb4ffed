"""Generators repeat byte for byte, and the oracles count failed operations."""
import os
import types

import numpy as np

import gen
import oracles
import workloads
from embfuse import corpus, embedding_io, fusion, model, optim

TOY = gen.IngestSizes(w2v_rows=300, glove_rows=150, reviews=60, bad_rows=5,
                      words={"exact": 20, "lower": 5, "capital": 5, "lemma": 5, "unknown": 5},
                      dim=8, chunk=64)
API = types.SimpleNamespace(corpus=corpus, embedding_io=embedding_io, fusion=fusion,
                            model=model, optim=optim)


def _files(seed, workdir):
    os.makedirs(workdir)
    gen.ingest_inputs(seed, str(workdir), TOY)
    out = {}
    for name in gen.INGEST_FILES:
        with open(os.path.join(workdir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    first, again, other = (_files(s, tmp_path / d) for s, d in ((5, "a"), (5, "b"), (6, "c")))
    assert first == again
    assert all(first[name] != other[name] for name in gen.INGEST_FILES)
    for a, b in zip(gen.paper_inputs(5, 4, 2, 2, vocab=50, dim=3).__dict__.values(),
                    gen.paper_inputs(5, 4, 2, 2, vocab=50, dim=3).__dict__.values()):
        assert np.array_equal(a, b)
    for a, b in zip(gen.tiny_inputs(5), gen.tiny_inputs(5)):
        assert np.array_equal(a, b)


def _ingest(tmp_path):
    tally = oracles.Tally()
    wl = workloads.IngestFuse(API, 3, str(tmp_path), tally)
    wl.truth = gen.ingest_inputs(3, str(tmp_path), TOY)
    return wl, tally, wl.iteration()


def test_ingest_oracles_pass_on_the_unmodified_program(tmp_path):
    wl, tally, it = _ingest(tmp_path)
    wl.check(it)
    assert (tally.attempted, tally.failed) == (7, 0), tally.messages


def test_corrupted_fused_row_is_a_failed_operation(tmp_path):
    wl, tally, it = _ingest(tmp_path)
    out = list(it.outputs)
    matrix = out[6].copy()
    matrix[5, 0] += 1e-6
    out[6] = matrix
    out[8] = matrix.astype(np.float32).astype(np.float64)    # keep the read-back consistent
    it.outputs = tuple(out)
    wl.check(it)
    assert (tally.attempted, tally.failed) == (7, 1)
    assert tally.messages[0].startswith("fused matrix")


def test_wrong_branch_count_is_a_failed_operation(tmp_path):
    wl, tally, it = _ingest(tmp_path)
    out = list(it.outputs)
    out[7] = dict(out[7], lemma_hits=out[7]["lemma_hits"] - 1)
    it.outputs = tuple(out)
    wl.check(it)
    assert (tally.attempted, tally.failed) == (7, 1)
    assert tally.messages[0].startswith("branch counts")


def test_lr_choice_must_be_the_argmin_of_live_probes():
    probe = lambda lr, loss, div=False: types.SimpleNamespace(
        learning_rate=lr, epoch_losses=[loss], final_loss=loss, diverged=div)
    probes = [probe(1e-3, 0.9), probe(1e-2, 0.5), probe(1e-1, 0.1, div=True)]
    assert oracles.check_lr_choice(1e-2, probes) == []
    assert oracles.check_lr_choice(1e-1, probes) != []


def test_reference_forward_matches_the_program():
    rng = np.random.default_rng(0)
    cfg = model.ModelConfig(max_len=6, emb_dim=4, lstm_units=3, gru_units=2)
    emb = rng.normal(size=(9, 4))
    emb[0] = 0.0
    params = model.init_parameters(cfg, emb)
    x = gen.left_padded(rng, 5, 9, 6)
    probs, _ = model.forward(x, params, cfg)
    assert np.allclose(oracles.reference_probs(x, params.blocks, emb), probs, rtol=0, atol=1e-12)
    assert oracles.gradient_spot_check(model, 1) == []
