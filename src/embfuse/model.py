"""Stacked bidirectional LSTM/GRU sentiment classifier, NumPy only.

Architecture over a (usually frozen) embedding matrix:

    indices -> embedding -> spatial dropout
            -> bidirectional LSTM (concat)  -> dropout -> bidirectional GRU
            -> dropout -> masked global max pool over the GRU output
            .. plus a masked global max pool over the (dropped-out) LSTM output
            -> concat -> dense -> softmax over 3 classes

Index 0 marks left padding. Padded steps pass the recurrent state through
unchanged in both directions, and pooling ignores them, so adding more left
padding never changes the output.

Parameters have one representation: the 14 weight blocks (and the embedding,
when it is trained) are reshaped views into one contiguous float64 vector,
``ModelParameters.flat``, so an optimizer updates every block by writing that
vector in place. A frozen embedding is held outside it.

Training-mode forward returns a trace for exact backpropagation through time
(BPTT). For each recurrent direction it holds a store of preallocated
(T, B, .) arrays filled step by step: the gate activations, the hidden states
(and for the LSTM the cell states and tanh of the new cell state), and for
the GRU the recurrent products h U. The backward pass consumes the store,
overwriting the gate arrays with the gate gradients, and writes each block's
gradient straight into its view of one flat gradient vector laid out like
``flat``. Inference-mode forward keeps no store: each direction holds only
its output sequence and its input preactivations, which the gate activations
overwrite step by step. Gradients are checked against central finite
differences in the test suite.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, asdict
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .errors import (
    IndexOutOfRangeError,
    ShapeMismatchError,
    ValidationError,
)
from .seeding import derive_rng

NUM_CLASSES = 3


@dataclass
class ModelConfig:
    max_len: int = 60
    emb_dim: int = 300
    lstm_units: int = 512
    gru_units: int = 256
    spatial_dropout_rate: float = 0.2
    dropout_rate: float = 0.3
    num_classes: int = NUM_CLASSES
    seed: int = 0
    train_embedding: bool = False

    def __post_init__(self):
        if self.lstm_units < 1 or self.gru_units < 1 or self.emb_dim < 1 or self.max_len < 1:
            raise ValidationError("model dimensions must be positive")
        for rate in (self.spatial_dropout_rate, self.dropout_rate):
            if not 0.0 <= rate < 1.0:
                raise ValidationError("dropout rates must lie in [0, 1)")
        if self.num_classes != NUM_CLASSES:
            raise ValidationError("the classifier head is fixed at 3 classes")


def _sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) written into out (which may be x); the caller silences overflow."""
    np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function 1 / (1 + exp(-x)).

    Below x = -709 exp(-x) overflows to inf and the result is its correct
    limit 0, so that overflow is expected and not reported.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        return _sigmoid(x, np.empty_like(x))


# parameter blocks in a fixed order; flat vectors concatenate these
_BLOCK_ORDER = (
    "lstm_fw_W", "lstm_fw_U", "lstm_fw_b",
    "lstm_bw_W", "lstm_bw_U", "lstm_bw_b",
    "gru_fw_W", "gru_fw_U", "gru_fw_b",
    "gru_bw_W", "gru_bw_U", "gru_bw_b",
    "dense_W", "dense_b",
)


class _BlockViews(dict):
    """The block views of a parameter set, by name; rebinding a name raises.

    A block swapped for a new array would be cut off from the buffer, so the
    optimizer would update one array while forward read another.
    """

    def _rebind(self, *args, **kwargs):
        raise TypeError("parameter blocks are views of ModelParameters.flat: "
                        "write into a block instead of rebinding it")

    __setitem__ = __delitem__ = __ior__ = _rebind
    clear = pop = popitem = setdefault = update = _rebind


class ModelParameters:
    """All weights plus the embedding matrix, addressable by block name.

    The trainable weights live in one float64 vector, ``flat``: the blocks of
    _BLOCK_ORDER back to back, then the embedding when ``train_embedding`` is
    set. ``blocks[name]`` (and then ``embedding``) are reshaped views of it, so
    an update written into ``flat`` is the update of every block. ``blocks``
    refuses rebinding a name: a block is changed by writing into it. A frozen embedding is held outside the buffer.
    """

    def __init__(self, blocks: Mapping[str, np.ndarray], embedding: np.ndarray,
                 train_embedding: bool):
        embedding = np.asarray(embedding, dtype=np.float64)
        missing = [name for name in _BLOCK_ORDER if name not in blocks]
        if missing:
            raise ValidationError(f"missing parameter blocks: {missing}")
        unknown = sorted(set(blocks) - set(_BLOCK_ORDER))
        if unknown:
            raise ValidationError(f"unknown parameter blocks: {unknown}")
        names = _BLOCK_ORDER + (("embedding",) if train_embedding else ())
        arrays = [embedding if name == "embedding" else np.asarray(blocks[name], dtype=np.float64)
                  for name in names]
        self.layout = tuple((name, a.shape) for name, a in zip(names, arrays))  # buffer order
        self._bind(np.concatenate([a.ravel() for a in arrays]), embedding)

    def _bind(self, flat: np.ndarray, embedding: Optional[np.ndarray]) -> None:
        self.flat = flat
        views = self.split(flat)
        self.embedding = views.pop("embedding", embedding)
        self.blocks = _BlockViews(views)

    @property
    def train_embedding(self) -> bool:
        return self.layout[-1][0] == "embedding"

    def split(self, vec: np.ndarray) -> Dict[str, np.ndarray]:
        """Named reshaped views of a vector laid out like ``flat``."""
        if vec.shape != self.flat.shape:
            raise ShapeMismatchError("flat vector length does not match the parameter layout")
        views: Dict[str, np.ndarray] = {}
        offset = 0
        for name, shape in self.layout:
            size = int(np.prod(shape))
            views[name] = vec[offset:offset + size].reshape(shape)
            offset += size
        return views

    def _over(self, flat: np.ndarray) -> "ModelParameters":
        """A set with this layout whose trainable weights are flat; a frozen embedding is copied."""
        new = ModelParameters.__new__(ModelParameters)
        new.layout = self.layout
        new._bind(flat, None if self.train_embedding else self.embedding.copy())
        return new

    def copy(self) -> "ModelParameters":
        return self._over(self.flat.copy())


def trainable_block_names(config: ModelConfig) -> Tuple[str, ...]:
    names = _BLOCK_ORDER
    if config.train_embedding:
        names = names + ("embedding",)
    return names


def _check_layout(params: ModelParameters, config: ModelConfig) -> None:
    if params.train_embedding != config.train_embedding:
        raise ShapeMismatchError("parameter layout does not match config.train_embedding")


def to_flat(params: ModelParameters, config: ModelConfig) -> np.ndarray:
    """A copy of the trainable weights as one float64 vector (blocks, then a trained embedding)."""
    _check_layout(params, config)
    return params.flat.copy()


def from_flat(params: ModelParameters, config: ModelConfig, flat: np.ndarray) -> ModelParameters:
    """A new parameter set with the trainable weights copied from flat (round-trip of to_flat)."""
    _check_layout(params, config)
    flat = np.array(flat, dtype=np.float64)
    if flat.shape != params.flat.shape:
        raise ShapeMismatchError("flat vector length does not match the parameter layout")
    return params._over(flat)


def grads_to_flat(grads: Mapping[str, np.ndarray], config: ModelConfig) -> np.ndarray:
    """Per-block gradients, named as ``ModelParameters.split`` names them, packed into one vector.

    The inverse of ``params.split(grad)``. The training loop does not use it:
    backpropagation writes its gradient into a flat vector to begin with.
    """
    return np.concatenate([np.ravel(grads[name]) for name in trainable_block_names(config)])


def init_parameters(
    config: ModelConfig,
    embedding: np.ndarray,
    rng: Optional[np.random.Generator] = None,
) -> ModelParameters:
    """Glorot-uniform input kernels, scaled-uniform recurrent kernels.

    Biases start at zero except the LSTM forget gate, which starts at one.
    Draw order over blocks is fixed so a seed pins every weight.
    """
    embedding = np.asarray(embedding, dtype=np.float64)
    if embedding.ndim != 2 or embedding.shape[1] != config.emb_dim:
        raise ShapeMismatchError(
            f"embedding shape {embedding.shape} does not match emb_dim={config.emb_dim}"
        )
    if rng is None:
        rng = derive_rng(config.seed, "init")
    Hl, Hg, D, C = config.lstm_units, config.gru_units, config.emb_dim, config.num_classes

    def glorot(fan_in: int, fan_out: int, shape: Tuple[int, ...]) -> np.ndarray:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=shape)

    def recurrent(units: int, shape: Tuple[int, ...]) -> np.ndarray:
        limit = 1.0 / np.sqrt(units)
        return rng.uniform(-limit, limit, size=shape)

    blocks: Dict[str, np.ndarray] = {}
    for d in ("fw", "bw"):
        blocks[f"lstm_{d}_W"] = glorot(D, Hl, (D, 4 * Hl))
        blocks[f"lstm_{d}_U"] = recurrent(Hl, (Hl, 4 * Hl))
        b = np.zeros(4 * Hl)
        b[Hl:2 * Hl] = 1.0
        blocks[f"lstm_{d}_b"] = b
    for d in ("fw", "bw"):
        blocks[f"gru_{d}_W"] = glorot(2 * Hl, Hg, (2 * Hl, 3 * Hg))
        blocks[f"gru_{d}_U"] = recurrent(Hg, (Hg, 3 * Hg))
        blocks[f"gru_{d}_b"] = np.zeros(3 * Hg)
    feat = 2 * Hl + 2 * Hg
    blocks["dense_W"] = glorot(feat, C, (feat, C))
    blocks["dense_b"] = np.zeros(C)
    return ModelParameters(blocks, embedding.copy(), config.train_embedding)


# --- cell math: one definition, shared by the single-step cells and the scans ---

def _lstm_cell(a, c_prev, gates):
    """LSTM cell on the preactivation a = x W + b + h_prev U, packed [i|f|g|o].

    Writes the gate activations [i, f, g, o] into gates, which must not alias
    a, and returns (c, tanh(c), h). Call under np.errstate(over="ignore").
    """
    H = a.shape[-1] // 4
    _sigmoid(a, gates)
    np.tanh(a[..., 2 * H:3 * H], out=gates[..., 2 * H:3 * H])
    i, f, g, o = (gates[..., k * H:(k + 1) * H] for k in range(4))
    c = f * c_prev
    c += i * g
    tanh_c = np.tanh(c)
    return c, tanh_c, o * tanh_c


def _gru_cell(xw, hu, h_prev, gates):
    """GRU cell on xw = x W + b and hu = h_prev U, packed [z|r|n].

    The reset gate scales the recurrent term inside the candidate. Writes the
    activations [z, r, n] into gates (which may alias xw) and returns
    h = (1 - z) * n + z * h_prev. Call under np.errstate(over="ignore").
    """
    G = hu.shape[-1] // 3
    zr = np.add(xw[..., :2 * G], hu[..., :2 * G], out=gates[..., :2 * G])
    _sigmoid(zr, zr)
    n = np.add(xw[..., 2 * G:], gates[..., G:2 * G] * hu[..., 2 * G:], out=gates[..., 2 * G:])
    np.tanh(n, out=n)
    h = h_prev - n
    h *= gates[..., :G]
    h += n
    return h


def lstm_cell_step(
    x: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    params: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """One LSTM step; gates packed [input, forget, candidate, output].

    x is (..., D), states are (..., H); W is (D, 4H), U is (H, 4H), b is (4H,).
    """
    W, U, b = (np.asarray(a, dtype=np.float64) for a in params)
    x = np.asarray(x, dtype=np.float64)
    h_prev = np.asarray(h_prev, dtype=np.float64)
    c_prev = np.asarray(c_prev, dtype=np.float64)
    H = h_prev.shape[-1]
    if W.shape != (x.shape[-1], 4 * H) or U.shape != (H, 4 * H) or b.shape != (4 * H,):
        raise ShapeMismatchError(
            f"LSTM shapes inconsistent: x{x.shape} h{h_prev.shape} W{W.shape} U{U.shape} b{b.shape}"
        )
    if c_prev.shape != h_prev.shape:
        raise ShapeMismatchError("h_prev and c_prev must have the same shape")
    a = h_prev @ U + (x @ W + b)
    with np.errstate(over="ignore"):
        c, _, h = _lstm_cell(a, c_prev, np.empty_like(a))
    return h, c


def gru_cell_step(
    x: np.ndarray,
    h_prev: np.ndarray,
    params: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> np.ndarray:
    """One GRU step; gates packed [update, reset, candidate].

    The reset gate scales the recurrent term inside the candidate:
    n = tanh(x Wn + r * (h_prev Un) + bn); h = (1 - z) * n + z * h_prev.
    """
    W, U, b = (np.asarray(a, dtype=np.float64) for a in params)
    x = np.asarray(x, dtype=np.float64)
    h_prev = np.asarray(h_prev, dtype=np.float64)
    G = h_prev.shape[-1]
    if W.shape != (x.shape[-1], 3 * G) or U.shape != (G, 3 * G) or b.shape != (3 * G,):
        raise ShapeMismatchError(
            f"GRU shapes inconsistent: x{x.shape} h{h_prev.shape} W{W.shape} U{U.shape} b{b.shape}"
        )
    xw = x @ W + b
    hu = h_prev @ U
    with np.errstate(over="ignore"):
        return _gru_cell(xw, hu, h_prev, np.empty(np.broadcast(xw, hu).shape))


# --- masked bidirectional scans ---
#
# A scan runs time-major in processing order: step s of the reverse direction
# is time T-1-s. The input GEMM X W + b over all T*B rows runs once, before
# the loop, so the forward loop keeps only the recurrent product h U and the
# cell math. The backward scan first turns the stored activations into the
# factors taking the incoming gradient to each gate gradient, for all steps at
# once; its loop keeps only the gradient recurrence through U^T and writes
# each step's gate gradient over the store. dW, dU, db and dX are then one
# GEMM or reduction each over all T*B rows.

def _time_major(a: np.ndarray, reverse: bool) -> np.ndarray:
    """(B, T, ...) -> (T, B, ...) view in processing order."""
    a = a.swapaxes(0, 1)
    return a[::-1] if reverse else a


def _batch_major(a: np.ndarray, reverse: bool) -> np.ndarray:
    """Inverse of _time_major."""
    return (a[::-1] if reverse else a).swapaxes(0, 1)


def _scan_rows(X: np.ndarray, reverse: bool) -> np.ndarray:
    """(B, T, D) -> (T*B, D) rows, time-major in processing order."""
    Xt = _time_major(X, reverse)
    return Xt.reshape(-1, Xt.shape[2])


def _scan_setup(X, mask, W, b, reverse):
    """Preactivations X W + b as (T, B, K) and the (T, B, 1) step mask."""
    B, T = mask.shape
    xw = (_scan_rows(X, reverse) @ W).reshape(T, B, W.shape[1])
    xw += b
    return xw, _step_mask(mask, reverse)


def _step_mask(mask: np.ndarray, reverse: bool) -> np.ndarray:
    """(B, T) padding mask -> (T, B, 1) booleans, True where a step is real."""
    return _time_major(mask, reverse)[:, :, None] > 0.0


def _lstm_direction_forward(X, mask, W, U, b, reverse: bool, training: bool = False):
    """One LSTM direction over (B, T, D); returns ((B, T, H) outputs, store).

    Padded steps carry h and c through unchanged. store is None unless training.
    """
    gates, valid = _scan_setup(X, mask, W, b, reverse)
    T, B, _ = gates.shape
    H = U.shape[0]
    hs = np.zeros((T + 1, B, H))  # hs[s] is the state entering step s
    cs = np.zeros((T + 1, B, H)) if training else None
    tanh_cs = np.empty((T, B, H)) if training else None
    c = np.zeros((B, H))
    with np.errstate(over="ignore"):
        for s in range(T):
            a = hs[s] @ U
            a += gates[s]
            c_new, tanh_c, h_new = _lstm_cell(a, c, gates[s])
            m = valid[s]
            hs[s + 1] = np.where(m, h_new, hs[s])
            c = np.where(m, c_new, c)
            if training:
                cs[s + 1] = c
                tanh_cs[s] = tanh_c
    store = (gates, hs, cs, tanh_cs) if training else None
    return _batch_major(hs[1:], reverse), store


def _lstm_direction_backward(dout, X, mask, W, U, store, reverse: bool, out, need_dx: bool = True):
    """BPTT through one LSTM direction; writes (dW, dU, db) into the arrays
    out and returns dX, or None unless need_dx.

    Consumes store: the gate array ends up holding the gate gradients.
    """
    gates, hs, cs, tanh_cs = store
    T, B, H = tanh_cs.shape
    valid = _step_mask(mask, reverse)
    live = valid.astype(np.float64)
    gates4 = gates.reshape(T, B, 4, H)
    i, f, g, o = (gates4[:, :, k] for k in range(4))
    # Per-step factors that do not depend on the incoming gradient, for all
    # steps at once and in place over the store. Padded steps get zero
    # factors and a unit carry, so they pass dc through untouched.
    # o <- da_o / dh = o (1 - o) tanh(c)
    # tanh_cs <- (dc from dh) / dh = o (1 - tanh(c)^2)
    do = o * (1.0 - o)
    do *= tanh_cs
    np.multiply(tanh_cs, tanh_cs, out=tanh_cs)
    np.subtract(1.0, tanh_cs, out=tanh_cs)
    tanh_cs *= o
    tanh_cs *= live
    o[...] = do
    # f <- da_f / dc = f (1 - f) c_prev; cs[:-1] <- the carry dc_prev / dc = f
    carry = cs[:-1]
    df = f * (1.0 - f)
    df *= carry
    np.copyto(carry, np.where(valid, f, 1.0))
    f[...] = df
    # i <- da_i / dc = i (1 - i) g; g <- da_g / dc = (1 - g^2) i
    di = i * (1.0 - i)
    di *= g
    np.multiply(g, g, out=g)
    np.subtract(1.0, g, out=g)
    g *= i
    i[...] = di
    del do, df, di
    gates *= live

    dout = _time_major(dout, reverse)
    UT = U.T
    dh = np.zeros((B, H))
    dc = np.zeros((B, H))
    for s in range(T - 1, -1, -1):
        dh_total = dout[s] + dh
        dc = dc + dh_total * tanh_cs[s]
        gates4[s, :, :3] *= dc[:, None, :]
        gates[s, :, 3 * H:] *= dh_total
        dc *= carry[s]
        dh = np.where(valid[s], gates[s] @ UT, dh_total)
    da = gates.reshape(T * B, 4 * H)
    dW, dU, db = out
    np.matmul(_scan_rows(X, reverse).T, da, out=dW)
    np.matmul(hs[:-1].reshape(T * B, H).T, da, out=dU)
    da.sum(axis=0, out=db)
    return _batch_major((da @ W.T).reshape(T, B, -1), reverse) if need_dx else None


def _gru_direction_forward(X, mask, W, U, b, reverse: bool, training: bool = False):
    """One GRU direction over (B, T, D); returns ((B, T, G) outputs, store).

    Padded steps carry h through unchanged. store is None unless training.
    """
    gates, valid = _scan_setup(X, mask, W, b, reverse)
    T, B, _ = gates.shape
    G = U.shape[0]
    hs = np.zeros((T + 1, B, G))  # hs[s] is the state entering step s
    hus = np.empty((T, B, 3 * G)) if training else None
    with np.errstate(over="ignore"):
        for s in range(T):
            hu = hs[s] @ U
            h_new = _gru_cell(gates[s], hu, hs[s], gates[s])
            hs[s + 1] = np.where(valid[s], h_new, hs[s])
            if training:
                hus[s] = hu
    store = (gates, hs, hus) if training else None
    return _batch_major(hs[1:], reverse), store


def _gru_direction_backward(dout, X, mask, W, U, store, reverse: bool, out):
    """BPTT through one GRU direction; writes (dW, dU, db) into the arrays
    out and returns dX.

    Consumes store: the gate array ends up holding the input-side gradient
    dw_in and the recurrent products hus the recurrent-side gradient du_in.
    """
    gates, hs, hus = store
    T, B, _ = gates.shape
    G = U.shape[0]
    valid = _step_mask(mask, reverse)
    live = valid.astype(np.float64)
    z, r, n = (gates[:, :, k * G:(k + 1) * G] for k in range(3))
    # Per-step factors taking dh to each gate gradient, for all steps at once
    # and in place: gates becomes [dz, dr, dn] / dh and hus [dz, dr, dhu_n] / dh.
    # keep is the direct path dh_prev / dh. Padded steps get zero factors and
    # keep = 1, so they pass dh through untouched.
    dn = n * n
    np.subtract(1.0, dn, out=dn)
    dn *= 1.0 - z
    dn *= live
    dz = hs[:-1] - n
    dz *= z
    dz *= 1.0 - z
    dz *= live
    keep = np.where(valid, z, 1.0)
    dr = dn * hus[:, :, 2 * G:]
    dr *= r
    dr *= 1.0 - r
    np.multiply(dn, r, out=hus[:, :, 2 * G:])
    z[...] = dz
    r[...] = dr
    n[...] = dn
    hus[:, :, :2 * G] = gates[:, :, :2 * G]
    del dz, dr, dn

    dout = _time_major(dout, reverse)
    gates3 = gates.reshape(T, B, 3, G)
    hus3 = hus.reshape(T, B, 3, G)
    UT = U.T
    dh = np.zeros((B, G))
    for s in range(T - 1, -1, -1):
        dh_total = dout[s] + dh
        d = dh_total[:, None, :]
        gates3[s] *= d
        hus3[s] *= d
        dh = hus[s] @ UT
        dh += dh_total * keep[s]
    dw_in = gates.reshape(T * B, 3 * G)
    dW, dU, db = out
    np.matmul(_scan_rows(X, reverse).T, dw_in, out=dW)
    np.matmul(hs[:-1].reshape(T * B, G).T, hus.reshape(T * B, 3 * G), out=dU)
    dw_in.sum(axis=0, out=db)
    return _batch_major((dw_in @ W.T).reshape(T, B, -1), reverse)


def masked_max_pool(seq: np.ndarray, mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-feature max over valid (unmasked) steps.

    Returns (pooled, argmax, all_pad); an all-padding sequence pools to the
    zero vector. Ties route to the earliest step.
    """
    masked = np.where(mask[:, :, None] > 0.0, seq, -np.inf)
    argmax = masked.argmax(axis=1)
    pooled = np.take_along_axis(masked, argmax[:, None, :], axis=1)[:, 0]
    all_pad = mask.sum(axis=1) == 0
    if all_pad.any():
        pooled[all_pad] = 0.0
    return pooled, argmax, all_pad


def _masked_max_pool_backward(dpool, argmax, all_pad, shape) -> np.ndarray:
    dseq = np.zeros(shape)
    dpool = dpool.copy()
    if all_pad.any():
        dpool[all_pad] = 0.0
    np.put_along_axis(dseq, argmax[:, None, :], dpool[:, None, :], axis=1)
    return dseq


@dataclass
class ForwardTrace:
    """The intermediates the exact backward pass reads, and nothing more.

    Dropout scales each layer's output in place, so only the dropped-out
    arrays are kept. The backward pass consumes the four recurrent stores, so
    a trace is backpropagated at most once.
    """

    x: np.ndarray
    mask: np.ndarray
    sd_mask: Optional[np.ndarray]
    emb_dropped: np.ndarray
    lstm_fw_store: tuple
    lstm_bw_store: tuple
    do1_mask: Optional[np.ndarray]
    S_dropped: np.ndarray
    gru_fw_store: tuple
    gru_bw_store: tuple
    do2_mask: Optional[np.ndarray]
    G_dropped: np.ndarray
    pool1: Tuple[np.ndarray, np.ndarray, np.ndarray]
    pool2: Tuple[np.ndarray, np.ndarray, np.ndarray]
    feats: np.ndarray
    probs: np.ndarray
    log_probs: np.ndarray


def _dropout_mask(rng: np.random.Generator, shape, rate: float) -> np.ndarray:
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(np.float64) / keep


def forward(
    x: np.ndarray,
    params: ModelParameters,
    config: ModelConfig,
    training: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[np.ndarray, Optional[ForwardTrace]]:
    """Run the network on an int index batch (B, T).

    Returns (probs, trace); the trace is populated only in training mode.
    Dropout is active only in training mode and draws masks from rng in a
    fixed order (spatial, after-LSTM, after-GRU).
    """
    x = np.asarray(x)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise ShapeMismatchError(f"expected a (batch, time) index array, got shape {x.shape}")
    if x.size and (x.min() < 0 or x.max() >= params.embedding.shape[0]):
        raise IndexOutOfRangeError(
            f"token index outside embedding table of {params.embedding.shape[0]} rows"
        )
    needs_rng = training and (config.spatial_dropout_rate > 0 or config.dropout_rate > 0)
    if needs_rng and rng is None:
        raise ValidationError("training-mode forward with dropout needs an rng")

    mask = (x != 0).astype(np.float64)
    emb_dropped = params.embedding[x]  # a gathered copy, so dropout can scale it in place

    sd_mask = None
    if training and config.spatial_dropout_rate > 0:
        sd_mask = _dropout_mask(
            rng, (emb_dropped.shape[0], 1, emb_dropped.shape[2]), config.spatial_dropout_rate)
        emb_dropped *= sd_mask

    p = params.blocks
    fw_out, fw_store = _lstm_direction_forward(
        emb_dropped, mask, p["lstm_fw_W"], p["lstm_fw_U"], p["lstm_fw_b"], False, training)
    bw_out, bw_store = _lstm_direction_forward(
        emb_dropped, mask, p["lstm_bw_W"], p["lstm_bw_U"], p["lstm_bw_b"], True, training)
    S_dropped = np.concatenate([fw_out, bw_out], axis=2)

    do1_mask = None
    if training and config.dropout_rate > 0:
        do1_mask = _dropout_mask(rng, S_dropped.shape, config.dropout_rate)
        S_dropped *= do1_mask

    gfw_out, gfw_store = _gru_direction_forward(
        S_dropped, mask, p["gru_fw_W"], p["gru_fw_U"], p["gru_fw_b"], False, training)
    gbw_out, gbw_store = _gru_direction_forward(
        S_dropped, mask, p["gru_bw_W"], p["gru_bw_U"], p["gru_bw_b"], True, training)
    G_dropped = np.concatenate([gfw_out, gbw_out], axis=2)

    do2_mask = None
    if training and config.dropout_rate > 0:
        do2_mask = _dropout_mask(rng, G_dropped.shape, config.dropout_rate)
        G_dropped *= do2_mask

    pool1 = masked_max_pool(S_dropped, mask)
    pool2 = masked_max_pool(G_dropped, mask)
    feats = np.concatenate([pool1[0], pool2[0]], axis=1)

    logits = feats @ p["dense_W"] + p["dense_b"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    probs = np.exp(log_probs)

    if not training:
        return probs, None
    trace = ForwardTrace(
        x=x, mask=mask, sd_mask=sd_mask, emb_dropped=emb_dropped,
        lstm_fw_store=fw_store, lstm_bw_store=bw_store,
        do1_mask=do1_mask, S_dropped=S_dropped,
        gru_fw_store=gfw_store, gru_bw_store=gbw_store,
        do2_mask=do2_mask, G_dropped=G_dropped,
        pool1=pool1, pool2=pool2, feats=feats, probs=probs, log_probs=log_probs,
    )
    return probs, trace


def _loss_from_trace(trace: ForwardTrace, labels: np.ndarray) -> float:
    B = trace.probs.shape[0]
    return float(-trace.log_probs[np.arange(B), labels].mean())


def _backward(
    trace: ForwardTrace,
    labels: np.ndarray,
    params: ModelParameters,
    config: ModelConfig,
    grad: np.ndarray,
) -> None:
    """Write the gradient into grad, a vector laid out like params.flat.

    Every block's gradient is computed straight into its view of grad.
    """
    p = params.blocks
    g = params.split(grad)
    B = trace.probs.shape[0]
    Hl = config.lstm_units

    onehot = np.zeros_like(trace.probs)
    onehot[np.arange(B), labels] = 1.0
    dlogits = (trace.probs - onehot) / B

    np.matmul(trace.feats.T, dlogits, out=g["dense_W"])
    dlogits.sum(axis=0, out=g["dense_b"])
    dfeats = dlogits @ p["dense_W"].T

    dpool1 = dfeats[:, :2 * Hl]
    dpool2 = dfeats[:, 2 * Hl:]

    dG = _masked_max_pool_backward(dpool2, trace.pool2[1], trace.pool2[2], trace.G_dropped.shape)
    if trace.do2_mask is not None:
        dG *= trace.do2_mask

    G_units = config.gru_units
    dS = _gru_direction_backward(
        dG[:, :, :G_units], trace.S_dropped, trace.mask, p["gru_fw_W"], p["gru_fw_U"],
        trace.gru_fw_store, False, (g["gru_fw_W"], g["gru_fw_U"], g["gru_fw_b"]))
    dS += _gru_direction_backward(
        dG[:, :, G_units:], trace.S_dropped, trace.mask, p["gru_bw_W"], p["gru_bw_U"],
        trace.gru_bw_store, True, (g["gru_bw_W"], g["gru_bw_U"], g["gru_bw_b"]))
    del dG  # not needed by the LSTM backward, whose stores are the largest
    dS += _masked_max_pool_backward(dpool1, trace.pool1[1], trace.pool1[2], trace.S_dropped.shape)
    if trace.do1_mask is not None:
        dS *= trace.do1_mask

    need_dx = config.train_embedding
    dE = _lstm_direction_backward(
        dS[:, :, :Hl], trace.emb_dropped, trace.mask, p["lstm_fw_W"], p["lstm_fw_U"],
        trace.lstm_fw_store, False, (g["lstm_fw_W"], g["lstm_fw_U"], g["lstm_fw_b"]), need_dx)
    dE_bw = _lstm_direction_backward(
        dS[:, :, Hl:], trace.emb_dropped, trace.mask, p["lstm_bw_W"], p["lstm_bw_U"],
        trace.lstm_bw_store, True, (g["lstm_bw_W"], g["lstm_bw_U"], g["lstm_bw_b"]), need_dx)

    if need_dx:
        dE += dE_bw
        if trace.sd_mask is not None:
            dE *= trace.sd_mask
        g["embedding"][...] = 0.0
        np.add.at(g["embedding"], trace.x, dE)


def loss_and_grad(
    x: np.ndarray,
    labels: np.ndarray,
    params: ModelParameters,
    config: ModelConfig,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient, a new vector laid out like params.flat."""
    loss, _, grad = _loss_probs_grad(x, labels, params, config, rng)
    return loss, grad


def _loss_probs_grad(x, labels, params, config, rng):
    """Train-loop variant of loss_and_grad that also reports batch probabilities."""
    labels = np.asarray(labels, dtype=np.int64)
    x = np.asarray(x)
    if x.ndim == 1:
        x = x[None, :]
    if labels.shape != (x.shape[0],):
        raise ShapeMismatchError(f"labels shape {labels.shape} does not match batch {x.shape[0]}")
    if labels.size and (labels.min() < 0 or labels.max() >= config.num_classes):
        raise IndexOutOfRangeError("labels must lie in 0..2")
    _check_layout(params, config)
    probs, trace = forward(x, params, config, training=True, rng=rng)
    loss = _loss_from_trace(trace, labels)
    grad = np.empty_like(params.flat)
    _backward(trace, labels, params, config, grad)
    return loss, probs, grad


# Inference runs in chunks of rows sized so that one chunk's LSTM
# preactivation, a (max_len, rows, 4 * lstm_units) float64 array, stays
# within this many bytes.
_INFER_CHUNK_BYTES = 64 << 20


def inference_batch_size(config: ModelConfig) -> int:
    """Default rows per inference chunk for ``config`` (at least 1)."""
    row_bytes = config.max_len * 4 * config.lstm_units * 8
    return max(1, _INFER_CHUNK_BYTES // row_bytes)


def predict_proba(
    x: np.ndarray,
    params: ModelParameters,
    config: ModelConfig,
    batch_size: Optional[int] = None,
) -> np.ndarray:
    """Inference-mode class probabilities for an index batch, computed in chunks."""
    x = np.asarray(x)
    if x.ndim == 1:
        x = x[None, :]
    step = batch_size or inference_batch_size(config)
    out = [forward(x[start:start + step], params, config, training=False)[0]
           for start in range(0, len(x), step)]
    return np.concatenate(out) if out else np.zeros((0, config.num_classes))


def classify(probs: np.ndarray) -> np.ndarray:
    """Predicted class of each row of class probabilities."""
    return probs.argmax(axis=1)


def loss_accuracy(probs: np.ndarray, labels: np.ndarray) -> Tuple[float, float]:
    """Mean cross-entropy and accuracy of class probabilities against labels."""
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    if n == 0:
        return float("nan"), float("nan")
    picked = np.clip(probs[np.arange(n), labels], 1e-300, None)
    return float(-np.log(picked).sum()) / n, int((classify(probs) == labels).sum()) / n


def evaluate(
    x: np.ndarray,
    labels: np.ndarray,
    params: ModelParameters,
    config: ModelConfig,
    batch_size: Optional[int] = None,
) -> Tuple[float, float]:
    """Inference-mode (loss, accuracy) over a full set, computed in chunks."""
    return loss_accuracy(predict_proba(x, params, config, batch_size), labels)


def predict(
    x: np.ndarray,
    params: ModelParameters,
    config: ModelConfig,
    batch_size: Optional[int] = None,
) -> np.ndarray:
    """Inference-mode class predictions for an index batch."""
    return classify(predict_proba(x, params, config, batch_size))


def confusion_matrix(pred: np.ndarray, labels: np.ndarray, num_classes: int = NUM_CLASSES) -> np.ndarray:
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    for p_, y_ in zip(pred, labels):
        cm[int(y_), int(p_)] += 1
    return cm


# --- checkpoint serialization ---

_CKPT_MAGIC = b"EMBFUSEC"
_CKPT_VERSION = 1


def save_checkpoint(fh, params: ModelParameters, config: ModelConfig) -> None:
    """Binary checkpoint: magic, version, JSON config, named float64 blocks."""
    cfg_bytes = json.dumps(asdict(config), sort_keys=True).encode("utf-8")
    fh.write(_CKPT_MAGIC)
    fh.write(struct.pack("<I", _CKPT_VERSION))
    fh.write(struct.pack("<I", len(cfg_bytes)))
    fh.write(cfg_bytes)
    items = [("embedding", params.embedding)] + [(n, params.blocks[n]) for n in _BLOCK_ORDER]
    fh.write(struct.pack("<I", len(items)))
    for name, arr in items:
        name_b = name.encode("utf-8")
        fh.write(struct.pack("<H", len(name_b)))
        fh.write(name_b)
        fh.write(struct.pack("<B", arr.ndim))
        for dim in arr.shape:
            fh.write(struct.pack("<Q", dim))
        fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(fh) -> Tuple[ModelParameters, ModelConfig]:
    """Read a checkpoint written by save_checkpoint, validating the layout."""
    def read_exact(n: int) -> bytes:
        data = fh.read(n)
        if len(data) != n:
            raise ValidationError("checkpoint file is truncated")
        return data

    if read_exact(8) != _CKPT_MAGIC:
        raise ValidationError("not a model checkpoint file")
    (version,) = struct.unpack("<I", read_exact(4))
    if version != _CKPT_VERSION:
        raise ValidationError(f"unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<I", read_exact(4))
    try:
        cfg = json.loads(read_exact(cfg_len).decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ValidationError(f"checkpoint config is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValidationError("checkpoint config must be a JSON object")
    try:
        config = ModelConfig(**cfg)
    except TypeError as exc:
        raise ValidationError(f"checkpoint config does not fit the model: {exc}") from None
    (n_items,) = struct.unpack("<I", read_exact(4))
    arrays: Dict[str, np.ndarray] = {}
    for _ in range(n_items):
        (name_len,) = struct.unpack("<H", read_exact(2))
        name = read_exact(name_len).decode("utf-8")
        (ndim,) = struct.unpack("<B", read_exact(1))
        shape = tuple(struct.unpack("<Q", read_exact(8))[0] for _ in range(ndim))
        count = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(read_exact(count * 8), dtype="<f8").reshape(shape)
        arrays[name] = arr.astype(np.float64)
    if "embedding" not in arrays:
        raise ValidationError("checkpoint is missing the embedding block")
    embedding = arrays.pop("embedding")
    params = ModelParameters(arrays, embedding, config.train_embedding)
    return params, config
