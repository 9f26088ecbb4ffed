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
vector in place. A frozen embedding is held outside it. A stack of K runs
that share one architecture holds a (K, n) ``flat``, one row per run, and
every block gains a leading axis of K; the kernels broadcast over leading
axes, so one set of NumPy calls per time step serves every run of a stack,
and each run's floats are those it gets when trained alone.

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

import io
import json
import math
import struct
from dataclasses import dataclass, asdict
from itertools import accumulate
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
_BLOCK_ORDER = tuple(f"{layer}_{d}_{w}" for layer in ("lstm", "gru") for d in ("fw", "bw")
                     for w in "WUb") + ("dense_W", "dense_b")


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
    A stack of runs (``stacked``) has a (K, n) ``flat`` and blocks with a
    leading axis of K; its runs share one frozen embedding.
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
        # buffer order: each block's name, its span of the last axis of flat, its shape
        self.layout = tuple((name, slice(end - a.size, end), a.shape) for name, a, end
                            in zip(names, arrays, accumulate(a.size for a in arrays)))
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
        """Named reshaped views of a vector (or stack of vectors) laid out like ``flat``."""
        if vec.shape != self.flat.shape:
            raise ShapeMismatchError("flat vector length does not match the parameter layout")
        return {name: vec[..., span].reshape(vec.shape[:-1] + shape)
                for name, span, shape in self.layout}

    def _over(self, flat: np.ndarray, share_embedding: bool = False) -> "ModelParameters":
        """A set with this layout whose trainable weights are flat; a frozen
        embedding is copied, or shared with share_embedding."""
        new = ModelParameters.__new__(ModelParameters)
        new.layout = self.layout
        frozen = None if self.train_embedding else self.embedding
        new._bind(flat, frozen if share_embedding or frozen is None else frozen.copy())
        return new

    def copy(self) -> "ModelParameters":
        return self._over(self.flat.copy())

    def stacked(self, k: int) -> "ModelParameters":
        """A stack of k runs, each starting from a copy of these weights."""
        return self._over(np.repeat(self.flat[None], k, axis=0), share_embedding=True)

    def run(self, key) -> "ModelParameters":
        """Of a stack: run key (an int) as a set viewing its row of ``flat``,
        or the runs a list of ints picks, copied into a new stack."""
        return self._over(self.flat[key], share_embedding=True)


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
#
# Inputs, weights and stores may carry leading axes, a stack of runs, which
# broadcast: a (K, D, 4H) W over a shared (B, T, D) input scans K runs, and
# every product is a stacked np.matmul of the same 2-D GEMMs one run makes
# alone. Stores keep each run's (T, B, .) block contiguous; the loops index
# time through _steps views.

def _time_major(a: np.ndarray, reverse: bool) -> np.ndarray:
    """(..., B, T, F) -> (..., T, B, F) view in processing order."""
    a = a.swapaxes(-3, -2)
    return a[..., ::-1, :, :] if reverse else a


def _batch_major(a: np.ndarray, reverse: bool) -> np.ndarray:
    """Inverse of _time_major."""
    return (a[..., ::-1, :, :] if reverse else a).swapaxes(-3, -2)


def _steps(a: np.ndarray, axis: int = -3) -> np.ndarray:
    """(..., T, B, F) -> (T, ..., B, F) view, time moved first from axis:
    a[s] is step s of every run."""
    t = a.ndim + axis
    return a.transpose((t, *range(t), *range(t + 1, a.ndim)))


def _scan_rows(X: np.ndarray, reverse: bool) -> np.ndarray:
    """(..., B, T, D) -> (..., T*B, D) rows, time-major in processing order."""
    Xt = _time_major(X, reverse)
    return Xt.reshape(Xt.shape[:-3] + (-1, Xt.shape[-1]))


def _scan_setup(X, mask, W, b, reverse):
    """Preactivations X W + b as (..., T, B, K) and the (T, B, 1) step mask."""
    B, T = mask.shape
    xw = np.matmul(_scan_rows(X, reverse), W)
    xw = xw.reshape(xw.shape[:-2] + (T, B, W.shape[-1]))
    xw += b[..., None, None, :]
    return xw, _step_mask(mask, reverse)


def _step_mask(mask: np.ndarray, reverse: bool) -> np.ndarray:
    """(B, T) padding mask -> (T, B, 1) booleans, True where a step is real."""
    return _time_major(mask[:, :, None], reverse) > 0.0


def _lstm_direction_forward(X, mask, W, U, b, reverse: bool, training: bool = False):
    """One LSTM direction over (..., B, T, D); returns ((..., B, T, H) outputs, store).

    Padded steps carry h and c through unchanged. store is None unless training.
    """
    gates, valid = _scan_setup(X, mask, W, b, reverse)
    lead, (T, B) = gates.shape[:-3], valid.shape[:2]
    H = U.shape[-2]
    hs = np.zeros(lead + (T + 1, B, H))  # hs[..., s, :, :] is the state entering step s
    cs = np.zeros(lead + (T + 1, B, H)) if training else None
    tanh_cs = np.empty(lead + (T, B, H)) if training else None
    c = np.zeros(lead + (B, H))
    gates_s, hs_s = _steps(gates), _steps(hs)
    cs_s, tanh_cs_s = (_steps(cs), _steps(tanh_cs)) if training else (None, None)
    with np.errstate(over="ignore"):
        for s in range(T):
            a = hs_s[s] @ U
            a += gates_s[s]
            c_new, tanh_c, h_new = _lstm_cell(a, c, gates_s[s])
            m = valid[s]
            hs_s[s + 1] = np.where(m, h_new, hs_s[s])
            c = np.where(m, c_new, c)
            if training:
                cs_s[s + 1] = c
                tanh_cs_s[s] = tanh_c
    store = (gates, hs, cs, tanh_cs) if training else None
    return _batch_major(hs[..., 1:, :, :], reverse), store


def _lstm_direction_backward(dout, X, mask, W, U, store, reverse: bool, out, need_dx: bool):
    """BPTT through one LSTM direction; writes (dW, dU, db) into the arrays
    out and returns dX, or None unless need_dx.

    Consumes store: the gate array ends up holding the gate gradients.
    """
    gates, hs, cs, tanh_cs = store
    lead, (T, B, H) = tanh_cs.shape[:-3], tanh_cs.shape[-3:]
    valid = _step_mask(mask, reverse)
    live = valid.astype(np.float64)
    gates4 = gates.reshape(gates.shape[:-1] + (4, H))
    i, f, g, o = (gates4[..., k, :] for k in range(4))
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
    carry = cs[..., :-1, :, :]
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

    dout = _steps(_time_major(dout, reverse))
    gates_s, gates4_s = _steps(gates), _steps(gates4, -4)
    tanh_cs, carry = _steps(tanh_cs), _steps(carry)
    UT = U.swapaxes(-1, -2)
    dh = np.zeros(lead + (B, H))
    dc = np.zeros(lead + (B, H))
    for s in range(T - 1, -1, -1):
        dh_total = dout[s] + dh
        dc = dc + dh_total * tanh_cs[s]
        gates4_s[s][..., :3, :] *= dc[..., None, :]
        gates_s[s][..., 3 * H:] *= dh_total
        dc *= carry[s]
        dh = np.where(valid[s], gates_s[s] @ UT, dh_total)
    return _weight_grads(X, hs, gates, gates, W, reverse, out, need_dx)


def _gru_direction_forward(X, mask, W, U, b, reverse: bool, training: bool = False):
    """One GRU direction over (..., B, T, D); returns ((..., B, T, G) outputs, store).

    Padded steps carry h through unchanged. store is None unless training.
    """
    gates, valid = _scan_setup(X, mask, W, b, reverse)
    lead, (T, B) = gates.shape[:-3], valid.shape[:2]
    G = U.shape[-2]
    hs = np.zeros(lead + (T + 1, B, G))  # hs[..., s, :, :] is the state entering step s
    hus = np.empty(lead + (T, B, 3 * G)) if training else None
    gates_s, hs_s = _steps(gates), _steps(hs)
    hus_s = _steps(hus) if training else None
    with np.errstate(over="ignore"):
        for s in range(T):
            hu = hs_s[s] @ U
            h_new = _gru_cell(gates_s[s], hu, hs_s[s], gates_s[s])
            hs_s[s + 1] = np.where(valid[s], h_new, hs_s[s])
            if training:
                hus_s[s] = hu
    store = (gates, hs, hus) if training else None
    return _batch_major(hs[..., 1:, :, :], reverse), store


def _gru_direction_backward(dout, X, mask, W, U, store, reverse: bool, out, need_dx: bool):
    """BPTT through one GRU direction; writes (dW, dU, db) into the arrays
    out and returns dX, or None unless need_dx.

    Consumes store: the gate array ends up holding the input-side gradient
    dw_in and the recurrent products hus the recurrent-side gradient du_in.
    """
    gates, hs, hus = store
    lead, (T, B) = gates.shape[:-3], gates.shape[-3:-1]
    G = U.shape[-2]
    valid = _step_mask(mask, reverse)
    live = valid.astype(np.float64)
    z, r, n = (gates[..., k * G:(k + 1) * G] for k in range(3))
    # Per-step factors taking dh to each gate gradient, for all steps at once
    # and in place: gates becomes [dz, dr, dn] / dh and hus [dz, dr, dhu_n] / dh.
    # keep is the direct path dh_prev / dh. Padded steps get zero factors and
    # keep = 1, so they pass dh through untouched.
    dn = n * n
    np.subtract(1.0, dn, out=dn)
    dn *= 1.0 - z
    dn *= live
    dz = hs[..., :-1, :, :] - n
    dz *= z
    dz *= 1.0 - z
    dz *= live
    keep = np.where(valid, z, 1.0)
    dr = dn * hus[..., 2 * G:]
    dr *= r
    dr *= 1.0 - r
    np.multiply(dn, r, out=hus[..., 2 * G:])
    z[...] = dz
    r[...] = dr
    n[...] = dn
    hus[..., :2 * G] = gates[..., :2 * G]
    del dz, dr, dn

    dout = _steps(_time_major(dout, reverse))
    gates3 = _steps(gates.reshape(gates.shape[:-1] + (3, G)), -4)
    hus3 = _steps(hus.reshape(hus.shape[:-1] + (3, G)), -4)
    hus_s, keep = _steps(hus), _steps(keep)
    UT = U.swapaxes(-1, -2)
    dh = np.zeros(lead + (B, G))
    for s in range(T - 1, -1, -1):
        dh_total = dout[s] + dh
        d = dh_total[..., None, :]
        gates3[s] *= d
        hus3[s] *= d
        dh = hus_s[s] @ UT
        dh += dh_total * keep[s]
    return _weight_grads(X, hs, gates, hus, W, reverse, out, need_dx)


def _weight_grads(X, hs, dw_in, du_in, W, reverse: bool, out, need_dx: bool):
    """The tail of a direction's backward, one GEMM or sum over all T*B rows each.

    dw_in and du_in are the (..., T, B, K) input-side and recurrent-side gate
    gradients (one array for the LSTM). Writes dW = X^T dw_in, dU = h_prev^T
    du_in and db = sum dw_in into out; returns dX = dw_in W^T, or None unless need_dx.
    """
    lead, (T, B, K) = dw_in.shape[:-3], dw_in.shape[-3:]
    dw_in = dw_in.reshape(lead + (T * B, K))
    dW, dU, db = out
    np.matmul(_scan_rows(X, reverse).swapaxes(-1, -2), dw_in, out=dW)
    np.matmul(hs[..., :-1, :, :].reshape(lead + (T * B, -1)).swapaxes(-1, -2),
              du_in.reshape(lead + (T * B, K)), out=dU)
    dw_in.sum(axis=-2, out=db)
    if not need_dx:
        return None
    dX = np.matmul(dw_in, W.swapaxes(-1, -2))
    return _batch_major(dX.reshape(lead + (T, B, -1)), reverse)


def _blocks(p: Mapping[str, np.ndarray], layer: str, d: str):
    """The (W, U, b) blocks of direction d ("fw" or "bw") of a layer in p."""
    return tuple(p[f"{layer}_{d}_{w}"] for w in "WUb")


def _bidirectional(direction, X, mask, p, layer: str, training: bool):
    """One bidirectional layer: the direction kernel run forward and then
    reversed over (..., B, T, D), with the layer's fw and bw blocks of p.

    Returns the (..., B, T, 2H) concatenated output and the (fw, bw) stores.
    """
    outs, stores = zip(*(direction(X, mask, *_blocks(p, layer, d), d == "bw", training)
                         for d in ("fw", "bw")))
    return np.concatenate(outs, axis=-1), stores


def _bidirectional_backward(direction, dout, X, mask, p, g, layer: str, stores, need_dx: bool):
    """Backward of _bidirectional: writes each direction's (dW, dU, db) into
    its views of g and returns dX summed over fw and bw, or None unless need_dx.
    """
    H = dout.shape[-1] // 2
    dX, dX_bw = (direction(dout[..., k * H:(k + 1) * H], X, mask, *_blocks(p, layer, d)[:2],
                           stores[k], d == "bw", _blocks(g, layer, d), need_dx)
                 for k, d in enumerate(("fw", "bw")))
    if need_dx:
        dX += dX_bw
    return dX


def masked_max_pool(seq: np.ndarray, mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-feature max of a (..., B, T, F) sequence over valid (unmasked) steps.

    Returns (pooled, argmax, all_pad); an all-padding sequence pools to the
    zero vector. Ties route to the earliest step.
    """
    masked = np.where(mask[:, :, None] > 0.0, seq, -np.inf)
    argmax = masked.argmax(axis=-2)
    pooled = np.take_along_axis(masked, argmax[..., None, :], axis=-2)[..., 0, :]
    all_pad = mask.sum(axis=1) == 0
    if all_pad.any():
        pooled[..., all_pad, :] = 0.0
    return pooled, argmax, all_pad


def _masked_max_pool_backward(dpool, argmax, all_pad, shape) -> np.ndarray:
    dseq = np.zeros(shape)
    dpool = dpool.copy()
    if all_pad.any():
        dpool[..., all_pad, :] = 0.0
    np.put_along_axis(dseq, argmax[..., None, :], dpool[..., None, :], axis=-2)
    return dseq


@dataclass
class ForwardTrace:
    """The intermediates the exact backward pass reads, and nothing more.

    Dropout scales each layer's output in place, so only the dropped-out
    arrays are kept. Each recurrent layer keeps its (fw, bw) stores; the
    backward pass consumes them, so a trace is backpropagated at most once.
    """

    x: np.ndarray
    mask: np.ndarray
    sd_mask: Optional[np.ndarray]
    emb_dropped: np.ndarray
    lstm_stores: tuple
    do1_mask: Optional[np.ndarray]
    S_dropped: np.ndarray
    gru_stores: tuple
    do2_mask: Optional[np.ndarray]
    G_dropped: np.ndarray
    pool1: Tuple[np.ndarray, np.ndarray, np.ndarray]
    pool2: Tuple[np.ndarray, np.ndarray, np.ndarray]
    feats: np.ndarray
    probs: np.ndarray
    log_probs: np.ndarray


def _dropout(a: np.ndarray, rng: np.random.Generator, shape, rate: float) -> Optional[np.ndarray]:
    """Scale a in place by a fresh inverted-dropout mask of shape; returns the
    mask, or None (drawing nothing) when rate is 0."""
    if rate == 0:
        return None
    keep = 1.0 - rate
    mask = (rng.random(shape) < keep).astype(np.float64) / keep
    a *= mask
    return mask


# Weights that diverged carry overflow into inf and nan through every layer
# and through the optimizer step. train_runs() reads divergence from the loss and
# the gradient, so the forward pass, the loss, the backward pass and the step
# run with numpy's overflow and invalid-value reports off.
_diverging_quietly = np.errstate(over="ignore", invalid="ignore")


@_diverging_quietly
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
    fixed order (spatial, after-LSTM, after-GRU). For a stack of K runs the
    probabilities are (K, B, 3), and the runs share the dropout masks and,
    when it is frozen, the embedding gather.
    """
    x = np.asarray(x)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise ShapeMismatchError(f"expected a (batch, time) index array, got shape {x.shape}")
    rows = params.embedding.shape[-2]
    if x.size and (x.min() < 0 or x.max() >= rows):
        raise IndexOutOfRangeError(f"token index outside embedding table of {rows} rows")
    sd_rate, rate = (config.spatial_dropout_rate, config.dropout_rate) if training else (0, 0)
    if (sd_rate > 0 or rate > 0) and rng is None:
        raise ValidationError("training-mode forward with dropout needs an rng")

    mask = (x != 0).astype(np.float64)
    # a gathered copy, so dropout can scale it in place
    emb_dropped = np.take(params.embedding, x, axis=-2)

    sd_mask = _dropout(emb_dropped, rng, (x.shape[0], 1, config.emb_dim), sd_rate)

    p = params.blocks
    S_dropped, lstm_stores = _bidirectional(
        _lstm_direction_forward, emb_dropped, mask, p, "lstm", training)
    do1_mask = _dropout(S_dropped, rng, S_dropped.shape[-3:], rate)

    G_dropped, gru_stores = _bidirectional(
        _gru_direction_forward, S_dropped, mask, p, "gru", training)
    do2_mask = _dropout(G_dropped, rng, G_dropped.shape[-3:], rate)

    pool1 = masked_max_pool(S_dropped, mask)
    pool2 = masked_max_pool(G_dropped, mask)
    feats = np.concatenate([pool1[0], pool2[0]], axis=-1)

    logits = feats @ p["dense_W"] + p["dense_b"][..., None, :]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_norm
    probs = np.exp(log_probs)

    if not training:
        return probs, None
    trace = ForwardTrace(
        x=x, mask=mask, sd_mask=sd_mask, emb_dropped=emb_dropped,
        lstm_stores=lstm_stores, do1_mask=do1_mask, S_dropped=S_dropped, gru_stores=gru_stores,
        do2_mask=do2_mask, G_dropped=G_dropped,
        pool1=pool1, pool2=pool2, feats=feats, probs=probs, log_probs=log_probs,
    )
    return probs, trace


@_diverging_quietly
def _loss_from_trace(trace: ForwardTrace, labels: np.ndarray):
    """Mean cross-entropy over the batch: a float, or a (K,) array for a stack."""
    B = trace.probs.shape[-2]
    # copied row-major: a fancy index behind a stack axis leaves the picks
    # column-major, and each run's mean must sum its losses as a lone run's does
    picked = np.ascontiguousarray(trace.log_probs[..., np.arange(B), labels])
    return -picked.mean(axis=-1)


@_diverging_quietly
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
    B = trace.probs.shape[-2]

    onehot = np.zeros_like(trace.probs)
    onehot[..., np.arange(B), labels] = 1.0
    dlogits = (trace.probs - onehot) / B

    np.matmul(trace.feats.swapaxes(-1, -2), dlogits, out=g["dense_W"])
    dlogits.sum(axis=-2, out=g["dense_b"])
    dfeats = dlogits @ p["dense_W"].swapaxes(-1, -2)

    dpool1, dpool2 = np.split(dfeats, [2 * config.lstm_units], axis=-1)

    dG = _masked_max_pool_backward(dpool2, trace.pool2[1], trace.pool2[2], trace.G_dropped.shape)
    if trace.do2_mask is not None:
        dG *= trace.do2_mask

    dS = _bidirectional_backward(_gru_direction_backward, dG, trace.S_dropped, trace.mask,
                                 p, g, "gru", trace.gru_stores, True)
    del dG  # not needed by the LSTM backward, whose stores are the largest
    dS += _masked_max_pool_backward(dpool1, trace.pool1[1], trace.pool1[2], trace.S_dropped.shape)
    if trace.do1_mask is not None:
        dS *= trace.do1_mask

    dE = _bidirectional_backward(_lstm_direction_backward, dS, trace.emb_dropped, trace.mask,
                                 p, g, "lstm", trace.lstm_stores, config.train_embedding)
    if dE is not None:
        if trace.sd_mask is not None:
            dE *= trace.sd_mask
        g["embedding"][...] = 0.0
        np.add.at(g["embedding"], (..., trace.x, slice(None)), dE)


def loss_and_grad(
    x: np.ndarray,
    labels: np.ndarray,
    params: ModelParameters,
    config: ModelConfig,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its gradient, a new vector laid out like params.flat.

    For a stack of runs both carry the stack axis: a (K,) loss and a (K, n) gradient.
    """
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
    """Rows per inference chunk for ``config`` (at least 1)."""
    row_bytes = config.max_len * 4 * config.lstm_units * 8
    return max(1, _INFER_CHUNK_BYTES // row_bytes)


def stack_size(config: ModelConfig, batch_size: int) -> int:
    """Runs trained together as one stack at this batch size (at least 1).

    As many as whose training stores, the BPTT stores of the four recurrent
    directions (see the scans), fit in the same budget as an inference chunk.
    """
    T, Hl, Hg = config.max_len, config.lstm_units, config.gru_units
    run_bytes = 2 * 8 * batch_size * (Hl * (7 * T + 2) + Hg * (7 * T + 1))
    return max(1, _INFER_CHUNK_BYTES // run_bytes)


def predict_proba(x: np.ndarray, params: ModelParameters, config: ModelConfig) -> np.ndarray:
    """Inference-mode class probabilities for an index batch, computed in
    chunks of ``inference_batch_size(config)`` rows."""
    x = np.asarray(x)
    if x.ndim == 1:
        x = x[None, :]
    step = inference_batch_size(config)
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
) -> Tuple[float, float]:
    """Inference-mode (loss, accuracy) over a full set, computed in chunks."""
    return loss_accuracy(predict_proba(x, params, config), labels)


def predict(x: np.ndarray, params: ModelParameters, config: ModelConfig) -> np.ndarray:
    """Inference-mode class predictions for an index batch."""
    return classify(predict_proba(x, params, config))


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
    """Read a checkpoint written by save_checkpoint from a seekable binary
    file, validating the layout.

    No read asks for more bytes than the file has left, so a corrupted
    shape fails before anything is allocated for it.
    """
    start = fh.tell()
    end = fh.seek(0, io.SEEK_END)
    fh.seek(start)

    def read_exact(n: int, what: str = "header") -> bytes:
        left = end - fh.tell()
        if n > left:
            raise ValidationError(
                f"checkpoint file is truncated: {what} needs {n} bytes, {left} remain")
        return fh.read(n)

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
        # a name that is not UTF-8 decodes to no known block, which ModelParameters rejects
        name = read_exact(name_len).decode("utf-8", "replace")
        (ndim,) = struct.unpack("<B", read_exact(1))
        shape = tuple(struct.unpack("<Q", read_exact(8))[0] for _ in range(ndim))
        data = read_exact(math.prod(shape) * 8, f"block {name!r} of shape {shape}")
        try:  # an empty block may still declare a dimension numpy cannot index
            arrays[name] = np.frombuffer(data, dtype="<f8").reshape(shape).astype(np.float64)
        except ValueError as exc:
            raise ValidationError(f"checkpoint block {name!r} has shape {shape}: {exc}") from None
    if "embedding" not in arrays:
        raise ValidationError("checkpoint is missing the embedding block")
    embedding = arrays.pop("embedding")
    params = ModelParameters(arrays, embedding, config.train_embedding)
    return params, config
