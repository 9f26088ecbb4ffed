"""Output oracles for the benchmark workloads.

Each check returns a list of failure messages; an empty list means the
operation passed. :class:`Tally` turns checks into the ``attempted`` and
``failed`` counts the benchmark reports. The references here are written
independently of ``embfuse``: the fusion reference works from the
generator's planted vectors, and the model reference runs each example
unpadded, one step at a time, instead of the program's masked batches.
"""
from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from gen import IngestTruth, left_padded, rng_for


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def record(self, what: str, failures: Sequence[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: {'; '.join(failures[:3])}")


# --- paper_sweep ---

def check_sweep_cell(history, kind: str, epochs: int) -> List[str]:
    """A sweep cell at the fixed lr must not diverge and must log finite values."""
    if history is None:
        return [f"no history for {kind}"]
    out = []
    if history.diverged:
        out.append(f"{kind} diverged at epoch {history.diverged_epoch}")
    series = (history.train_loss, history.train_accuracy, history.test_loss, history.test_accuracy)
    if any(len(s) != epochs for s in series):
        out.append(f"{kind} logged {len(history.train_loss)} epochs, expected {epochs}")
    if not all(math.isfinite(v) for s in series for v in s):
        out.append(f"{kind} logged a non-finite value")
    return out


def check_checkpoint(saved_blocks: Dict[str, np.ndarray], saved_emb: np.ndarray, saved_cfg: dict,
                     loaded_blocks: Dict[str, np.ndarray], loaded_emb: np.ndarray,
                     loaded_cfg: dict) -> List[str]:
    out = []
    if saved_cfg != loaded_cfg:
        out.append("config changed in the round trip")
    if set(saved_blocks) != set(loaded_blocks):
        out.append("block names changed in the round trip")
    else:
        out += [f"block {k} changed" for k in saved_blocks
                if not np.array_equal(saved_blocks[k], loaded_blocks[k])]
    if not np.array_equal(saved_emb, loaded_emb):
        out.append("embedding changed in the round trip")
    return out


def _sigmoid(a):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-a))


def _lstm_run(seq, W, U, b):
    H = U.shape[0]
    h, c = np.zeros(H), np.zeros(H)
    out = np.empty((len(seq), H))
    for t, x in enumerate(seq):
        a = x @ W + h @ U + b
        c = _sigmoid(a[H:2 * H]) * c + _sigmoid(a[:H]) * np.tanh(a[2 * H:3 * H])
        h = _sigmoid(a[3 * H:]) * np.tanh(c)
        out[t] = h
    return out


def _gru_run(seq, W, U, b):
    G = U.shape[0]
    h = np.zeros(G)
    out = np.empty((len(seq), G))
    for t, x in enumerate(seq):
        xw, hu = x @ W + b, h @ U
        z = _sigmoid(xw[:G] + hu[:G])
        r = _sigmoid(xw[G:2 * G] + hu[G:2 * G])
        n = np.tanh(xw[2 * G:] + r * hu[2 * G:])
        h = (1.0 - z) * n + z * h
        out[t] = h
    return out


def reference_probs(x: np.ndarray, blocks: Dict[str, np.ndarray], embedding: np.ndarray) -> np.ndarray:
    """Inference-mode class probabilities, one unpadded example at a time.

    Left padding carries zero state forward and the last real state backward,
    and pooling skips it, so running only the real tokens must agree with the
    program's masked batch forward.
    """
    p = blocks
    out = np.empty((len(x), p["dense_b"].shape[0]))
    for i, row in enumerate(np.asarray(x)):
        E = embedding[row[row != 0]]
        if len(E) == 0:
            feats = np.zeros(p["dense_W"].shape[0])
        else:
            S = np.concatenate([
                _lstm_run(E, p["lstm_fw_W"], p["lstm_fw_U"], p["lstm_fw_b"]),
                _lstm_run(E[::-1], p["lstm_bw_W"], p["lstm_bw_U"], p["lstm_bw_b"])[::-1],
            ], axis=1)
            G = np.concatenate([
                _gru_run(S, p["gru_fw_W"], p["gru_fw_U"], p["gru_fw_b"]),
                _gru_run(S[::-1], p["gru_bw_W"], p["gru_bw_U"], p["gru_bw_b"])[::-1],
            ], axis=1)
            feats = np.concatenate([S.max(axis=0), G.max(axis=0)])
        logits = feats @ p["dense_W"] + p["dense_b"]
        e = np.exp(logits - logits.max())
        out[i] = e / e.sum()
    return out


def check_inference(loss: float, accuracy: float, pred: np.ndarray, ref_probs: np.ndarray,
                    labels: np.ndarray, tol: float = 1e-8) -> List[str]:
    """evaluate/predict against the reference probabilities."""
    out = []
    n = len(labels)
    ref_loss = float(-np.log(ref_probs[np.arange(n), labels]).mean())
    if not abs(loss - ref_loss) <= tol * max(1.0, abs(ref_loss)):
        out.append(f"loss {loss!r} != reference {ref_loss!r}")
    ref_pred = ref_probs.argmax(axis=1)
    top2 = np.sort(ref_probs, axis=1)[:, -2:]
    clear = (top2[:, 1] - top2[:, 0]) > 1e-9          # skip near-ties
    pred = np.asarray(pred)
    if pred.shape != ref_pred.shape or (pred[clear] != ref_pred[clear]).any():
        out.append("predict disagrees with the reference argmax")
    ref_acc = float((ref_pred == labels).mean())
    if clear.all() and accuracy != ref_acc:
        out.append(f"accuracy {accuracy!r} != reference {ref_acc!r}")
    return out


def gradient_spot_check(model, seed: int, per_block: int = 3, step: float = 1e-5,
                        tol: float = 1e-4) -> List[str]:
    """Central differences on a few coordinates of every trainable block.

    Uses a small config with dropout off, so the inference forward gives the
    training loss. Parameters are perturbed in place and restored.
    """
    config = model.ModelConfig(max_len=7, emb_dim=6, lstm_units=5, gru_units=4,
                               spatial_dropout_rate=0.0, dropout_rate=0.0, seed=seed)
    rng = rng_for(seed, "gradcheck")
    emb = rng.normal(size=(12, 6))
    emb[0] = 0.0
    x = left_padded(rng, 3, 12, 7)
    y = rng.integers(0, 3, size=3)
    params = model.init_parameters(config, emb)
    _, grad = model.loss_and_grad(x, y, params, config)

    def loss() -> float:
        probs, _ = model.forward(x, params, config, training=False)
        return float(-np.log(probs[np.arange(3), y]).mean())

    out = []
    offset = 0
    for name in model.trainable_block_names(config):
        block = params.embedding if name == "embedding" else params.blocks[name]
        for k in rng.choice(block.size, size=min(per_block, block.size), replace=False):
            saved = block.flat[k]
            block.flat[k] = saved + step
            up = loss()
            block.flat[k] = saved - step
            down = loss()
            block.flat[k] = saved
            numeric = (up - down) / (2 * step)
            analytic = grad[offset + k]
            err = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6)
            if not err < tol:
                out.append(f"{name}[{k}] relative error {err:.2e}")
        offset += block.size
    if offset != grad.size:
        out.append(f"gradient has {grad.size} entries, blocks have {offset}")
    return out


# --- tiny_lrfind ---

def default_grid() -> List[float]:
    """The 7-rate log grid 1e-8..1e-2 the lr search uses by default."""
    return [float(v) for v in np.logspace(-8, -2, 7)]


def probe_record(probe) -> tuple:
    return (probe.learning_rate, tuple(probe.epoch_losses), probe.diverged)


def check_lr_probe(probe, rate: float, epochs: int, first=None) -> List[str]:
    """One probe of the table: its rate, its losses, and that it repeats."""
    if probe is None:
        return [f"no probe for rate {rate!r}"]
    out = []
    if not math.isclose(probe.learning_rate, rate, rel_tol=1e-12):
        out.append(f"rate {probe.learning_rate!r}, expected {rate!r}")
    if not probe.diverged:
        if len(probe.epoch_losses) != epochs:
            out.append(f"{len(probe.epoch_losses)} epochs logged, expected {epochs}")
        if not all(math.isfinite(v) for v in probe.epoch_losses):
            out.append("non-finite loss in a probe marked as converged")
        elif probe.epoch_losses and probe.final_loss != probe.epoch_losses[-1]:
            out.append("final loss is not the last epoch loss")
    if first is not None and probe_record(probe) != first:
        out.append("probe differs from the same probe in the first iteration")
    return out


def check_lr_choice(best: float, probes) -> List[str]:
    """The chosen rate is the argmin over the probes that did not diverge."""
    alive = [p for p in probes if not p.diverged]
    if not alive:
        return ["every probe diverged"]
    expected = min(alive, key=lambda p: p.final_loss).learning_rate
    return [] if best == expected else [f"chose {best!r}, argmin is {expected!r}"]


# --- ingest_fuse ---

def reference_fused(dict_words: Dict[str, int], vocab_size: int, truth: IngestTruth) -> np.ndarray:
    """The four-branch fusion rule applied to the planted vectors, by brute force."""
    dim = truth.mean1.shape[0]
    shift = truth.mean1 - truth.mean2
    ref = np.zeros((vocab_size, dim))
    for token, w in dict_words.items():
        _, key, in1, in2 = truth.plan[token]
        if in1 and in2:
            ref[w] = (truth.vec1[key] + (truth.vec2[key] + shift)) / 2.0
        elif in1:
            ref[w] = truth.vec1[key]
        elif in2:
            ref[w] = truth.vec2[key] + shift
    return ref


def check_dictionary(dict_words: Dict[str, int], vocab_size: int, truth: IngestTruth) -> List[str]:
    out = []
    if set(dict_words) != set(truth.plan):
        missing = len(set(truth.plan) - set(dict_words))
        extra = len(set(dict_words) - set(truth.plan))
        out.append(f"dictionary misses {missing} planted words and has {extra} others")
    if sorted(dict_words.values()) != list(range(2, vocab_size)):
        out.append("dictionary indices are not 2..vocab_size-1")
    return out


def check_fused_matrix(matrix: np.ndarray, dict_words: Dict[str, int], vocab_size: int,
                       truth: IngestTruth, atol: float = 1e-9) -> List[str]:
    """Every fused row against the brute-force reference; pad and unk rows are zero."""
    if set(dict_words) - set(truth.plan):
        return ["dictionary has words the generator did not plant"]
    ref = reference_fused(dict_words, vocab_size, truth)
    if matrix.shape != ref.shape:
        return [f"fused matrix shape {matrix.shape}, expected {ref.shape}"]
    bad = np.flatnonzero(np.abs(matrix - ref).max(axis=1) > atol)
    return [f"{len(bad)} fused rows differ from the reference, first at row {bad[0]}"] if len(bad) else []


def check_branch_counts(counts: Dict[str, int], truth: IngestTruth) -> List[str]:
    return [f"{k}={counts.get(k)} planted {v}" for k, v in truth.counts.items() if counts.get(k) != v]


def check_table(n_rows: int, mean: np.ndarray, expected_rows: int, expected_mean: np.ndarray,
                atol: float = 1e-9) -> List[str]:
    out = []
    if n_rows != expected_rows:
        out.append(f"{n_rows} rows parsed, planted {expected_rows}")
    if mean.shape != expected_mean.shape or not np.allclose(mean, expected_mean, rtol=0.0, atol=atol):
        out.append("column mean differs from the planted mean")
    return out


def check_readback(readback: np.ndarray, fused: np.ndarray) -> List[str]:
    """The binary round trip must equal the float32 cast of the fused matrix."""
    expected = fused.astype(np.float32).astype(np.float64)
    if readback.shape != expected.shape or not np.array_equal(readback, expected):
        return ["binary read-back differs from the float32 cast of the fused matrix"]
    return []
