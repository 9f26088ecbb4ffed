"""Stacked bidirectional LSTM/GRU sentiment classifier, NumPy only.

Architecture over a (usually frozen) embedding matrix:

    indices -> embedding -> spatial dropout
            -> bidirectional LSTM (concat)  -> dropout -> bidirectional GRU
            -> dropout -> masked global max pool over the GRU output
            .. plus a masked global max pool over the (dropped-out) LSTM output
            -> concat -> dense -> softmax over 3 classes

Index 0 marks left padding. Padded steps pass the recurrent state through
unchanged in both directions, and pooling ignores them, so adding more left
padding never changes the output. Forward therefore drops a batch's leading
steps that are padding in every row before the embedding gather, and the
whole network runs on the rest.

Parameters have one representation: the 14 weight blocks (and the embedding,
when it is trained) are reshaped views into one contiguous float64 vector,
``ModelParameters.flat``, so an optimizer updates every block by writing that
vector in place. A frozen embedding is held outside it. A stack of K runs
that share one architecture holds a (K, n) ``flat``, one row per run, and
every block gains a leading axis of K; the kernels broadcast over leading
axes, so one set of NumPy calls per time step serves every run of a stack,
and each run's floats are those it gets when trained alone. Direction, fw
and bw, is one more leading axis, so each recurrent layer is one kernel call.

Training-mode forward returns a trace for exact backpropagation through time
(BPTT). For each recurrent layer it holds a store of preallocated
(..., 2, T, B, .) arrays filled step by step: the gate activations, the
hidden states, and for the LSTM the cell states, for the GRU the recurrent
products h U. The LSTM backward recomputes tanh of the cell states, one
elementwise pass, rather than keeping it. Each is a view of a
time-major (T, B, ..., 2, .) buffer, so that one loop step of every run
and direction is one contiguous block. The backward pass consumes
the store, overwriting the gate arrays with the gate gradients, and writes
each block's gradient straight into its view of one flat gradient vector
laid out like ``flat``. Inference-mode forward keeps no store: each layer
holds only its output sequence and its input preactivations, which the gate
activations overwrite step by step. Gradients are checked against central
finite differences in the test suite.
"""
from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import dataclass, asdict
from itertools import accumulate
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from .errors import ValidationError
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
    """1 / (1 + exp(-x)) written into out (which may be x), under the overflow
    guard of forward or of a public oracle: sigmoid, lstm_cell_step, gru_cell_step."""
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


def _pair_slicing(layout, layer: str):
    """How ``ModelParameters.pairs`` slices recurrent layer ("lstm" or "gru")
    out of a vector laid out by layout: the layer's span of the last axis,
    [fw W U b | bw W U b]; the length s of one direction's half; and each
    fw block's span within a half, with its shape."""
    fw = [(span, shape) for name, span, shape in layout if name.startswith(f"{layer}_fw_")]
    start, s = fw[0][0].start, fw[-1][0].stop - fw[0][0].start
    return (slice(start, start + 2 * s), s,
            tuple((slice(span.start - start, span.stop - start), shape) for span, shape in fw))


class ModelParameters:
    """All weights plus the embedding matrix, addressable by block name.

    The trainable weights live in one float64 vector, ``flat``: the blocks of
    _BLOCK_ORDER back to back, then the embedding when ``train_embedding`` is
    set. ``blocks[name]`` (and then ``embedding``) are reshaped views of it, so
    an update written into ``flat`` is the update of every block. ``blocks``
    refuses rebinding a name: a block is changed by writing into it. A frozen embedding is held outside the buffer.
    A stack of runs (``stacked``) has a (K, n) ``flat`` and blocks with a
    leading axis of K; the sets derived from one share its frozen embedding.
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
        self._pair_slices = {layer: _pair_slicing(self.layout, layer) for layer in ("lstm", "gru")}
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
            raise ValidationError("flat vector length does not match the parameter layout",
                                  "shape-mismatch")
        return {name: vec[..., span].reshape(vec.shape[:-1] + shape)
                for name, span, shape in self.layout}

    def pairs(self, vec: np.ndarray, layer: str) -> Tuple[np.ndarray, ...]:
        """The (W, U, b) of recurrent layer ("lstm" or "gru") as (..., 2, .)
        views of vec, laid out like ``flat``: the layer's span, [fw W U b |
        bw W U b], reshaped to (..., 2, s) and sliced."""
        span, s, blocks = self._pair_slices[layer]
        both = vec[..., span].reshape(vec.shape[:-1] + (2, s))
        return tuple(both[..., part].reshape(both.shape[:-1] + shape) for part, shape in blocks)

    def _over(self, flat: np.ndarray) -> "ModelParameters":
        """A set with this layout whose trainable weights are flat; it shares
        a frozen embedding with this set, as nothing writes one."""
        new = ModelParameters.__new__(ModelParameters)
        new.layout, new._pair_slices = self.layout, self._pair_slices
        new._bind(flat, None if self.train_embedding else self.embedding)
        return new

    def stacked(self, k: int) -> "ModelParameters":
        """A stack of k runs, each starting from a copy of these weights."""
        return self._over(np.repeat(self.flat[None], k, axis=0))

    def run(self, k: int) -> "ModelParameters":
        """Of a stack: run k as a set viewing its row of ``flat``."""
        return self._over(self.flat[k])


def trainable_block_names(config: ModelConfig) -> Tuple[str, ...]:
    names = _BLOCK_ORDER
    if config.train_embedding:
        names = names + ("embedding",)
    return names


def _check_layout(params: ModelParameters, config: ModelConfig) -> None:
    if params.train_embedding != config.train_embedding:
        raise ValidationError("parameter layout does not match config.train_embedding",
                              "shape-mismatch")


def to_flat(params: ModelParameters, config: ModelConfig) -> np.ndarray:
    """A copy of the trainable weights as one float64 vector (blocks, then a trained embedding)."""
    _check_layout(params, config)
    return params.flat.copy()


def from_flat(params: ModelParameters, config: ModelConfig, flat: np.ndarray) -> ModelParameters:
    """A new parameter set with the trainable weights copied from flat (round-trip
    of to_flat) and a frozen embedding shared with params."""
    _check_layout(params, config)
    flat = np.array(flat, dtype=np.float64)
    if flat.shape != params.flat.shape:
        raise ValidationError("flat vector length does not match the parameter layout",
                              "shape-mismatch")
    return params._over(flat)


def grads_to_flat(grads: Mapping[str, np.ndarray], config: ModelConfig) -> np.ndarray:
    """Per-block gradients, named as ``ModelParameters.split`` names them, packed into one vector.

    The inverse of ``params.split(grad)``. The training loop does not use it:
    backpropagation writes its gradient into a flat vector to begin with.
    """
    return np.concatenate([np.ravel(grads[name]) for name in trainable_block_names(config)])


def _block_shapes(config: ModelConfig, embedding: np.ndarray) -> Dict[str, Tuple[int, ...]]:
    """The shape each block must have under config: the embedding (its row
    count taken as given) and then the blocks of _BLOCK_ORDER."""
    Hl, Hg, D, C = config.lstm_units, config.gru_units, config.emb_dim, config.num_classes
    by_layer = {"lstm": {"W": (D, 4 * Hl), "U": (Hl, 4 * Hl), "b": (4 * Hl,)},
                "gru": {"W": (2 * Hl, 3 * Hg), "U": (Hg, 3 * Hg), "b": (3 * Hg,)},
                "dense": {"W": (2 * Hl + 2 * Hg, C), "b": (C,)}}
    shapes = {"embedding": embedding.shape[:1] + (D,)}
    shapes.update((name, by_layer[name.split("_")[0]][name[-1]]) for name in _BLOCK_ORDER)
    return shapes


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
    shapes = _block_shapes(config, embedding)
    if embedding.shape != shapes.pop("embedding"):
        raise ValidationError(
            f"embedding shape {embedding.shape} does not match emb_dim={config.emb_dim}",
            "shape-mismatch")
    if rng is None:
        rng = derive_rng(config.seed, "init")
    gates = {"lstm": 4, "gru": 3, "dense": 1}
    blocks: Dict[str, np.ndarray] = {}
    for name, shape in shapes.items():  # in _BLOCK_ORDER, which fixes the draws
        if name.endswith("_b"):
            blocks[name] = np.zeros(shape)
        elif name.endswith("_U"):  # scaled uniform over the recurrent units
            limit = 1.0 / np.sqrt(shape[0])
            blocks[name] = rng.uniform(-limit, limit, size=shape)
        else:  # Glorot uniform over fan-in and the units of one gate
            limit = np.sqrt(6.0 / (shape[0] + shape[1] // gates[name.split("_")[0]]))
            blocks[name] = rng.uniform(-limit, limit, size=shape)
    for d in ("fw", "bw"):
        blocks[f"lstm_{d}_b"][config.lstm_units:2 * config.lstm_units] = 1.0
    return ModelParameters(blocks, embedding.copy(), config.train_embedding)


# --- cell math: one definition, shared by the single-step cells and the scans ---

def _lstm_cell(a, c_prev, gates, out=(None, None)):
    """LSTM cell on the preactivation a = x W + b + h_prev U, packed [i|f|g|o].

    Writes the gate activations [i, f, g, o] into gates, which must not alias
    a, and returns (c, h), each written into its array of out where one is
    given. tanh(c) is formed in h's memory, so it needs no array of its own.
    Overflow is silenced by the guard of forward or of lstm_cell_step.
    """
    H = a.shape[-1] // 4
    _sigmoid(a, gates)
    np.tanh(a[..., 2 * H:3 * H], out=gates[..., 2 * H:3 * H])
    i, f, g, o = (gates[..., k * H:(k + 1) * H] for k in range(4))
    c = np.multiply(f, c_prev, out=out[0])
    c += i * g
    h = np.tanh(c, out=out[1])
    h *= o
    return c, h


def _gru_cell(xw, hu, h_prev, gates, out=None):
    """GRU cell on xw = x W + b and hu = h_prev U, packed [z|r|n].

    The reset gate scales the recurrent term inside the candidate. Writes the
    activations [z, r, n] into gates (which may alias xw) and returns
    h = (1 - z) * n + z * h_prev, written into out when given. Overflow is
    silenced by the guard of forward or of gru_cell_step.
    """
    G = hu.shape[-1] // 3
    zr = xw[..., :2 * G] + hu[..., :2 * G]  # a contiguous temporary, cheaper to work on
    _sigmoid(zr, zr)
    gates[..., :2 * G] = zr
    n = np.add(xw[..., 2 * G:], zr[..., G:] * hu[..., 2 * G:], out=gates[..., 2 * G:])
    np.tanh(n, out=n)
    h = np.subtract(h_prev, n, out=out)
    h *= zr[..., :G]
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
        raise ValidationError(
            f"LSTM shapes inconsistent: x{x.shape} h{h_prev.shape} W{W.shape} U{U.shape} b{b.shape}",
            "shape-mismatch")
    if c_prev.shape != h_prev.shape:
        raise ValidationError("h_prev and c_prev must have the same shape", "shape-mismatch")
    a = h_prev @ U + (x @ W + b)
    with np.errstate(over="ignore"):
        c, h = _lstm_cell(a, c_prev, np.empty_like(a))
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
        raise ValidationError(
            f"GRU shapes inconsistent: x{x.shape} h{h_prev.shape} W{W.shape} U{U.shape} b{b.shape}",
            "shape-mismatch")
    xw = x @ W + b
    hu = h_prev @ U
    with np.errstate(over="ignore"):
        return _gru_cell(xw, hu, h_prev, np.empty(np.broadcast(xw, hu).shape))


# --- masked bidirectional scans ---
#
# A layer's scan runs both directions over a leading axis of 2, fw then bw,
# time-major in processing order: the bw half holds the input flipped in
# time, so its step s is time T-1-s. The input GEMM X W + b over all T*B
# rows runs once, before the loop, so the forward loop keeps only the
# recurrent product h U and the cell math. The backward scan first turns the
# stored activations into the factors taking the incoming gradient to each
# gate gradient, for all steps at once; its loop keeps only the gradient
# recurrence through U^T and writes each step's gate gradient over the
# store. dW, dU, db and dX are then one GEMM or reduction each over all T*B
# rows.
#
# forward has already dropped the batch's leading steps that are padding in
# every row, so a scan sees padding only in rows shorter than the longest.
# Padded rows keep their state through a select on the boolean mask; on a
# step where every row is real (_step_mask's full), the select is dropped.
# The kernels run under forward's overflow guard.
#
# Further leading axes, a stack of runs, broadcast: a (K, 2, D, 4H) W over
# the (2, T*B, D) rows of a shared (B, T, D) input scans K runs, and every
# product is a stacked np.matmul of the same 2-D GEMMs one direction of one
# run makes alone. A loop's step j is one contiguous block holding that step
# of every run and direction (see _slots), while each run's and direction's
# T*B rows stay one uniformly strided matrix, in time order, that the GEMMs
# read and write in place (see _rows).

# transposes between a store buffer (S, B, *lead, F) and its views by
# direction (*lead, S, B, F) and by slot (S, *lead, B, F), by len(lead)
_STORE_AXES = {n: (*range(2, 2 + n), 0, 1, 2 + n) for n in (1, 2)}
_SLOT_AXES = {n: (0, *range(2, 2 + n), 1, 2 + n) for n in (1, 2)}
# and from a slot view split by gate, (S, *lead, B, gate, F), to gate first, by ndim
_GATE_FIRST = {n: (n - 2, *range(n - 2), n - 1) for n in (5, 6)}


def _store(lead: Tuple[int, ...], T: int, B: int, F: int, alloc=np.empty, dtype=np.float64):
    """A new store: the (*lead, T, B, F) view, lead ending in the direction
    axis, of a time-major (T, B, *lead, F) buffer made by alloc (np.empty or
    np.zeros)."""
    return alloc((T, B) + lead + (F,), dtype=dtype).transpose(_STORE_AXES[len(lead)])


def _slots(a: np.ndarray) -> np.ndarray:
    """The (T, ..., 2, B, F) view of store a by step: its buffer (a.base)
    with the batch axis moved next to the features. A step is one contiguous
    block, and elementwise arithmetic over the whole view runs as over one
    contiguous array."""
    return a.base.transpose(_SLOT_AXES[a.base.ndim - 3])


def _pair(fw: np.ndarray, bw: Optional[np.ndarray] = None) -> np.ndarray:
    """(..., B, T, F) fw and bw halves of one shape (bw defaults to fw) -> one
    time-major (..., 2, T, B, F) store in processing order."""
    bw = fw if bw is None else bw
    B, T, F = fw.shape[-3:]
    out = _store(fw.shape[:-3] + (2,), T, B, F, dtype=fw.dtype)
    out[..., 0, :, :, :] = fw.swapaxes(-3, -2)
    out[..., 1, :, :, :] = bw[..., ::-1, :].swapaxes(-3, -2)
    return out


def _unpair(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Inverse of _pair: the fw and bw halves as (..., B, T, F) views."""
    return a[..., 0, :, :, :].swapaxes(-3, -2), a[..., 1, ::-1, :, :].swapaxes(-3, -2)


def _pair_output(dout: np.ndarray) -> np.ndarray:
    """A bidirectional layer's (..., B, T, 2H) output gradient, fw features
    then bw, as the (..., 2, T, B, H) store its direction kernel reads."""
    H = dout.shape[-1] // 2
    return _pair(dout[..., :H], dout[..., H:])


def _rows(a: np.ndarray) -> np.ndarray:
    """(..., T, B, F) -> (..., T*B, F) view of the same memory.

    Raises ValueError where the merge needs a copy: a GEMM written into a
    copy would leave the store unwritten, and one read from it would pay a
    copy of every row.
    """
    return np.reshape(a, a.shape[:-3] + (-1, a.shape[-1]), copy=False)


class _StepMask(NamedTuple):
    """The (B, T) boolean padding mask as the scans read it (see _step_mask)."""

    valid: np.ndarray  # a (2, T, B, 1) store, True where a step is real
    full: List[bool]  # per loop step, whether every row is real there in both directions


def _slot_mask(valid: np.ndarray, lead: Tuple[int, ...]) -> np.ndarray:
    """_slots of a step mask's valid, with an axis for each lead axis before
    the direction, so it broadcasts against the slots of a store of lead."""
    return _slots(valid)[(slice(None),) + (None,) * (len(lead) - 1)]


def _chunks(n: int, step_bytes: int) -> List[slice]:
    """Slices of n steps of step_bytes each, a few steps a slice, so that
    whole-array calls over one slice work on about 1 MiB: at paper size
    their memory-bound arithmetic then runs in cache (a step or two a
    slice), and at the tiny shape every step is in one slice."""
    k = max(1, (1 << 20) // step_bytes)
    return [slice(s, s + k) for s in range(0, n, k)]


def _lstm_direction_forward(gates, steps, U, training: bool):
    """The LSTM scan over (..., 2, T, B, 4H) preactivations X W + b, a store,
    which become the gate activations; steps is _step_mask's.
    Returns ((..., 2, T, B, H) outputs, store); store is (gates, hs, cs),
    or None unless training.

    Padded steps carry h and c through unchanged. tanh(c) is not kept: each
    step forms it in h's memory, and backward rebuilds it from cs.
    """
    valid, full = steps
    lead, (T, B), H = gates.shape[:-3], gates.shape[-3:-1], U.shape[-2]
    hs = _store(lead, T + 1, B, H, np.zeros)  # hs[..., s, :, :] is the state entering step s
    cs = _store(lead, T + 1, B, H, np.zeros) if training else None
    gates_s, hs_s, pad_s = _slots(gates), _slots(hs), ~_slots(valid)
    cs_s = _slots(cs) if training else None
    c = cs_s[0] if training else np.zeros(lead + (B, H))
    for j, every in enumerate(full):
        g, h_prev, c_prev = gates_s[j], hs_s[j], c
        a = h_prev @ U
        a += g
        c, h = _lstm_cell(a, c_prev, g, (cs_s[j + 1] if training else None, hs_s[j + 1]))
        if not every:  # padded rows keep their state
            np.copyto(h, h_prev, where=pad_s[j])
            np.copyto(c, c_prev, where=pad_s[j])
    store = (gates, hs, cs) if training else None
    return hs[..., 1:, :, :], store


def _lstm_direction_backward(dout, steps, U, store):
    """BPTT through the LSTM scan from its (..., 2, T, B, H) output gradient,
    a store (gates, hs, cs); returns hs and the gate gradients (dw_in, du_in).

    Consumes store: the gate array ends up holding the gate gradients, and
    the cell states the carry dc_prev / dc. tanh(c) is rebuilt from the cell
    states, chunk by chunk, into the (dc from dh) / dh factor, an array made
    here and not in forward.
    """
    (gates, hs, cs), (valid, full) = store, steps
    lead, (T, B), H = gates.shape[:-3], gates.shape[-3:-1], hs.shape[-1]
    dc_dh = _store(lead, T, B, H)
    valid_s, gates_s, dc_dh_s = _slot_mask(valid, lead), _slots(gates), _slots(dc_dh)
    gates4 = np.reshape(gates_s, gates_s.shape[:-1] + (4, H), copy=False)
    cs_s = _slots(cs)
    carry = cs_s[:-1]
    # Per-step factors that do not depend on the incoming gradient, for all
    # steps at once and in place over the store, by chunks of slots, each
    # chunk's gates on a contiguous copy (a strided 8-wide gate costs each
    # call several times more at the tiny shape). Padded steps get zero
    # factors and a unit carry, so they pass dc through untouched. A chunk
    # reads its new cell states, cs[1:], before it overwrites cs[:-1] with
    # the carry, so each slot is read before it is overwritten.
    for sl in _chunks(len(gates_s), gates_s[0].nbytes):
        m, cr = valid_s[sl], carry[sl]
        tc = np.tanh(cs_s[1:][sl], out=dc_dh_s[sl])
        live = m.astype(np.float64)
        ifgo = gates4[sl].transpose(_GATE_FIRST[gates4.ndim]).copy()
        i, f, g, o = ifgo
        # o <- da_o / dh = o (1 - o) tanh(c)
        # dc_dh <- (dc from dh) / dh = o (1 - tanh(c)^2)
        d = 1.0 - o
        d *= o
        d *= tc
        np.multiply(tc, tc, out=tc)
        np.subtract(1.0, tc, out=tc)
        tc *= o
        tc *= live
        o[...] = d
        # f <- da_f / dc = f (1 - f) c_prev; cs[:-1] <- the carry dc_prev / dc = f
        np.subtract(1.0, f, out=d)
        d *= f
        d *= cr
        cr[...] = 1.0
        np.copyto(cr, f, where=m)
        f[...] = d
        # i <- da_i / dc = i (1 - i) g; g <- da_g / dc = (1 - g^2) i
        np.subtract(1.0, i, out=d)
        d *= i
        d *= g
        np.multiply(g, g, out=g)
        np.subtract(1.0, g, out=g)
        g *= i
        i[...] = d
        ifgo *= live
        gates4[sl].transpose(_GATE_FIRST[gates4.ndim])[...] = ifgo

    dout_s = _slots(dout)
    UT = U.swapaxes(-1, -2)
    dh = np.zeros(lead + (B, H))
    dc = np.zeros(lead + (B, H))
    ifg, o = gates4[..., :3, :], gates4[..., 3, :]
    for j in range(T - 1, -1, -1):
        dh_total = dout_s[j] + dh
        dc = dc + dh_total * dc_dh_s[j]
        ifg[j] *= dc[..., None, :]
        o[j] *= dh_total
        dc *= carry[j]
        dh = gates_s[j] @ UT
        if not full[j]:
            dh = np.where(valid_s[j], dh, dh_total)
    return hs, gates, gates


def _gru_direction_forward(gates, steps, U, training: bool):
    """The GRU scan over (..., 2, T, B, 3G) preactivations X W + b, a store,
    which become the gate activations; steps is _step_mask's.
    Returns ((..., 2, T, B, G) outputs, store).

    Padded steps carry h through unchanged. store is None unless training.
    """
    valid, full = steps
    lead, (T, B), G = gates.shape[:-3], gates.shape[-3:-1], U.shape[-2]
    hs = _store(lead, T + 1, B, G, np.zeros)  # hs[..., s, :, :] is the state entering step s
    hus = _store(lead, T, B, 3 * G) if training else None
    gates_s, hs_s, pad_s = _slots(gates), _slots(hs), ~_slots(valid)
    hus_s = _slots(hus) if training else None
    for j, every in enumerate(full):
        h_prev, g = hs_s[j], gates_s[j]
        hu = np.matmul(h_prev, U, out=hus_s[j]) if training else h_prev @ U
        h = _gru_cell(g, hu, h_prev, g, hs_s[j + 1])
        if not every:  # padded rows keep their state
            np.copyto(h, h_prev, where=pad_s[j])
    store = (gates, hs, hus) if training else None
    return hs[..., 1:, :, :], store


def _gru_direction_backward(dout, steps, U, store):
    """BPTT through the GRU scan from its (..., 2, T, B, G) output gradient,
    a store; returns hs and the gate gradients (dw_in, du_in).

    Consumes store: the gate array ends up holding the input-side gradient
    dw_in and the recurrent products hus the recurrent-side gradient du_in.
    """
    (gates, hs, hus), (valid, _) = store, steps
    lead, (T, B), G = gates.shape[:-3], gates.shape[-3:-1], U.shape[-2]
    valid_s, gates_s, hus_s = _slot_mask(valid, lead), _slots(gates), _slots(hus)
    gates3, hus3 = (np.reshape(a, a.shape[:-1] + (3, G), copy=False) for a in (gates_s, hus_s))
    hs_s = _slots(hs)[:-1]
    keep = np.empty(hus_s.shape[:-1] + (G,))
    # Per-step factors taking dh to each gate gradient, for all steps at once
    # and in place, by chunks of slots, as in the LSTM: gates becomes [dz, dr,
    # dn] / dh and hus [dz, dr, dhu_n] / dh. keep is the direct path dh_prev /
    # dh. Padded steps get zero factors and keep = 1, so they pass dh through
    # untouched.
    for sl in _chunks(len(gates_s), gates_s[0].nbytes):
        m = valid_s[sl]
        live = m.astype(np.float64)
        zrn = gates3[sl].transpose(_GATE_FIRST[gates3.ndim]).copy()
        hu3 = hus3[sl].transpose(_GATE_FIRST[hus3.ndim])
        z, r, n = zrn
        keep[sl] = np.where(m, z, 1.0)
        one_z = 1.0 - z
        # z <- dz = (h_prev - n) z (1 - z)
        z *= hs_s[sl] - n
        z *= one_z
        z *= live
        # n <- dn = (1 - n^2) (1 - z)
        np.multiply(n, n, out=n)
        np.subtract(1.0, n, out=n)
        n *= one_z
        n *= live
        # r <- dr = dn hu_n r (1 - r); hu_n <- dhu_n = dn r
        dr = n * hu3[2]
        dr *= r
        dr *= 1.0 - r
        np.multiply(n, r, out=hu3[2])
        r[...] = dr
        gates3[sl].transpose(_GATE_FIRST[gates3.ndim])[...] = zrn
        hu3[:2] = zrn[:2]

    dout_s = _slots(dout)
    UT = U.swapaxes(-1, -2)
    dh = np.zeros(lead + (B, G))
    for j in range(T - 1, -1, -1):
        dh_total = dout_s[j] + dh
        d = dh_total[..., None, :]
        gates3[j] *= d
        hus3[j] *= d
        dh = hus_s[j] @ UT
        dh += dh_total * keep[j]
    return hs, gates, hus


def _step_mask(real: np.ndarray) -> _StepMask:
    """The (B, T) boolean padding mask, True where a step is real, as the
    scans read it. Loop step j is full when fw step j, time j, and bw step
    j, time T-1-j, are real in every row."""
    every = real.all(axis=0)
    return _StepMask(_pair(real[:, :, None]), (every & every[::-1]).tolist())


def _leading_pad(real: np.ndarray) -> int:
    """How many leading steps of real, a (B, T) mask or index batch nonzero on
    real steps, are padding in every row, short of the last step: forward
    drops them. An index 0 may sit inside a row, so this is not T minus the
    longest row. An all-pad batch keeps its last step, as pooling needs one
    step to reduce over."""
    some = real.any(axis=0)
    return int(some.argmax()) if some.any() else real.shape[1] - 1


def _bidirectional(direction, X, steps, weights, training: bool):
    """One bidirectional layer over (..., B, T, D) with weights, the layer's
    (W, U, b) pair views, and steps, the _step_mask of the batch: one call of
    the direction kernel.

    Returns the (..., B, T, 2H) output, fw features then bw, and the store.
    """
    W, U, b = weights
    rows = _pair(X)
    T, B = rows.shape[-3:-1]
    gates = _store(np.broadcast_shapes(rows.shape[:-3], W.shape[:-2]), T, B, W.shape[-1])
    np.matmul(_rows(rows), W, out=_rows(gates))
    del rows
    _slots(gates)[...] += b[..., None, :]
    out, store = direction(gates, steps, U, training)
    del gates  # inference keeps no store, so this frees the gate activations
    return np.concatenate(_unpair(out), axis=-1), store


def _bidirectional_backward(direction, dout, X, steps, weights, grads, store, need_dx: bool):
    """Backward of _bidirectional, with steps = _step_mask(real), from dout,
    the output gradient as _pair_output pairs it: writes the (dW, dU, db) of
    both directions into grads, the layer's pair views of the gradient, and
    returns dX summed over fw and bw, or None unless need_dx.

    Consumes store, which the caller passes as its only holder, so each of
    its arrays is freed after its last read; dout is the only copy of the
    output gradient the kernel sees. One weight-gradient tail serves
    both cells. The kernel returns the states hs and the (..., 2, T, B, K)
    input-side and recurrent-side gate gradients (one array for the LSTM);
    dU = h_prev^T du_in, dW = X^T dw_in, db = sum dw_in and dX = dw_in W^T
    are one GEMM or sum each over all T*B rows, read in place from the
    stores. dU comes first, so hs and du_in (the GRU's h U store) are freed
    before X is paired again for dW and the dX halves are formed. The two
    dX halves are separate GEMMs, the bw half summed into the fw half, so
    dX costs two halves and not three.
    """
    (W, U, _), (dW, dU, db) = weights, grads
    hs, dw_in, du_in = direction(dout, steps, U, store)
    del store  # the LSTM's cell states go with it
    np.matmul(_rows(hs[..., :-1, :, :]).swapaxes(-1, -2), _rows(du_in), out=dU)
    del hs, du_in
    T, B = dw_in.shape[-3:-1]
    dw_in = _rows(dw_in)
    np.matmul(_rows(_pair(X)).swapaxes(-1, -2), dw_in, out=dW)
    dw_in.sum(axis=-2, out=db)
    if not need_dx:
        return None
    fw, bw = (np.matmul(dw_in[..., d, :, :], W[..., d, :, :].swapaxes(-1, -2))
              for d in (0, 1))
    fw = fw.reshape(fw.shape[:-2] + (T, B, -1)).swapaxes(-3, -2)
    fw += bw.reshape(bw.shape[:-2] + (T, B, -1))[..., ::-1, :, :].swapaxes(-3, -2)
    return fw


def masked_max_pool(seq: np.ndarray, mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-feature max of a (..., B, T, F) sequence over its valid steps,
    where the (B, T) mask is True (nonzero).

    Returns (pooled, argmax, all_pad); an all-padding sequence pools to the
    zero vector. Ties route to the earliest step, and a nan on a valid step
    wins, as in np.argmax. The max reads seq in place, so no masked copy of
    the sequence is made: only boolean arrays of its shape.
    """
    real = np.asarray(mask, dtype=bool)[:, :, None]  # no copy of forward's boolean mask
    top = np.max(seq, axis=-2, where=real, initial=-np.inf, keepdims=True)
    first = np.isnan(seq)
    first |= seq == top
    first &= real
    argmax = first.argmax(axis=-2)
    pooled = np.take_along_axis(seq, argmax[..., None, :], axis=-2)[..., 0, :]
    all_pad = ~real.any(axis=(1, 2))
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
    arrays are kept, and of the GRU output only its shape. Each dropout keeps
    its boolean keep-mask, from which backward rebuilds the factor forward
    applied (_dropout_factor). Each recurrent layer keeps the store of its
    scan, both directions in one: the LSTM's gates, hs and cs (backward
    recomputes tanh(c)), the GRU's gates, hs and h U. The backward pass
    consumes both stores, taking each out of the trace (take_store) before
    its layer's backward, which then frees each array after its last read;
    so a trace is backpropagated at most once.
    """

    x: np.ndarray  # the batch forward ran on, after dropping its leading all-pad steps
    steps: _StepMask  # _step_mask(real)
    sd_kept: Optional[np.ndarray]  # each dropout's boolean keep-mask (see _dropout)
    emb_dropped: np.ndarray
    lstm_store: Optional[tuple]
    do1_kept: Optional[np.ndarray]
    S_dropped: np.ndarray
    gru_store: Optional[tuple]
    do2_kept: Optional[np.ndarray]
    G_shape: Tuple[int, ...]
    pool1: Tuple[np.ndarray, np.ndarray, np.ndarray]
    pool2: Tuple[np.ndarray, np.ndarray, np.ndarray]
    feats: np.ndarray
    probs: np.ndarray
    log_probs: np.ndarray

    def take_store(self, layer: str) -> tuple:
        """The store of recurrent layer ("lstm" or "gru"), cleared from the
        trace, so that the caller holds it alone."""
        name = f"{layer}_store"
        store = getattr(self, name)
        setattr(self, name, None)
        return store


def _dropout_factor(kept: np.ndarray, rate: float) -> np.ndarray:
    """The inverted-dropout factor of a boolean keep-mask: 1 / (1 - rate) where kept, else 0."""
    return kept.astype(np.float64) / (1.0 - rate)


def _dropout(a: np.ndarray, rng: np.random.Generator, shape, rate: float,
             pad: int = 0) -> Optional[np.ndarray]:
    """Scale a in place by a fresh inverted-dropout mask; returns the boolean
    keep-mask, or None (drawing nothing) when rate is 0. The mask is drawn
    at shape, (B, T, F) with T counting the pad leading steps forward
    dropped, and those steps' draws are discarded, so the random stream and
    every kept entry do not depend on the trim."""
    if rate == 0:
        return None
    kept = rng.random(shape)[:, pad:] < 1.0 - rate
    a *= _dropout_factor(kept, rate)
    return kept


# Weights that diverged carry overflow into inf and nan through every layer
# and through the optimizer step. train_runs() reads divergence from the loss and
# the gradient, so the forward pass, the loss, the backward pass and the step
# run with numpy's overflow and invalid-value reports off. Its three users are
# the entry points of that work: forward, _loss_probs_grad (the loss and the
# backward pass) and optim._Stepper.step.
_diverging_quietly = np.errstate(over="ignore", invalid="ignore")


def _index_batch(x) -> np.ndarray:
    """x as a (B, T) index batch with at least one time step; a 1-D x is one row."""
    x = np.asarray(x)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise ValidationError(f"expected a (batch, time) index array, got shape {x.shape}",
                              "shape-mismatch")
    if not x.shape[1]:
        raise ValidationError(f"an index batch needs at least one time step, got shape {x.shape}",
                              "shape-mismatch")
    return x


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
    The batch's leading steps that are padding in every row are dropped
    first (see _leading_pad). Dropout is active only in training mode and
    draws masks from rng in a fixed order (spatial, after-LSTM, after-GRU),
    at the untrimmed T. For a stack of K runs the
    probabilities are (K, B, 3), and the runs share the dropout masks and,
    when it is frozen, the embedding gather.
    """
    x = _index_batch(x)
    rows = params.embedding.shape[-2]
    if x.size and (x.min() < 0 or x.max() >= rows):
        raise ValidationError(f"token index outside embedding table of {rows} rows",
                              "index-out-of-range")
    sd_rate, rate = (config.spatial_dropout_rate, config.dropout_rate) if training else (0, 0)
    if (sd_rate > 0 or rate > 0) and rng is None:
        raise ValidationError("training-mode forward with dropout needs an rng")

    B, T = x.shape
    real = x != 0  # the padding mask, for the trim, both layers, both passes and both pools
    pad = _leading_pad(real)
    x, real = x[:, pad:], real[:, pad:]  # the model is unchanged on the steps that are left
    steps = _step_mask(real)
    # a gathered copy, so dropout can scale it in place
    emb_dropped = np.take(params.embedding, x, axis=-2)

    sd_kept = _dropout(emb_dropped, rng, (B, 1, config.emb_dim), sd_rate)

    p = params.blocks
    S_dropped, lstm_store = _bidirectional(
        _lstm_direction_forward, emb_dropped, steps, params.pairs(params.flat, "lstm"), training)
    do1_kept = _dropout(S_dropped, rng, (B, T, S_dropped.shape[-1]), rate, pad)

    G_dropped, gru_store = _bidirectional(
        _gru_direction_forward, S_dropped, steps, params.pairs(params.flat, "gru"), training)
    do2_kept = _dropout(G_dropped, rng, (B, T, G_dropped.shape[-1]), rate, pad)

    pool1 = masked_max_pool(S_dropped, real)
    pool2 = masked_max_pool(G_dropped, real)
    feats = np.concatenate([pool1[0], pool2[0]], axis=-1)

    logits = feats @ p["dense_W"] + p["dense_b"][..., None, :]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_norm
    probs = np.exp(log_probs)

    if not training:
        return probs, None
    trace = ForwardTrace(
        x=x, steps=steps, sd_kept=sd_kept, emb_dropped=emb_dropped,
        lstm_store=lstm_store, do1_kept=do1_kept, S_dropped=S_dropped, gru_store=gru_store,
        do2_kept=do2_kept, G_shape=G_dropped.shape,
        pool1=pool1, pool2=pool2, feats=feats, probs=probs, log_probs=log_probs,
    )
    return probs, trace


def _loss_from_trace(trace: ForwardTrace, labels: np.ndarray):
    """Mean cross-entropy over the batch: a float, or a (K,) array for a stack."""
    B = trace.probs.shape[-2]
    # copied row-major: a fancy index behind a stack axis leaves the picks
    # column-major, and each run's mean must sum its losses as a lone run's does
    picked = np.ascontiguousarray(trace.log_probs[..., np.arange(B), labels])
    return -picked.mean(axis=-1)


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

    S = 2 * config.lstm_units  # the width of the LSTM output S
    dpool1, dpool2 = dfeats[..., :S], dfeats[..., S:]

    dG = _masked_max_pool_backward(dpool2, trace.pool2[1], trace.pool2[2], trace.G_shape)
    if trace.do2_kept is not None:
        dG *= _dropout_factor(trace.do2_kept, config.dropout_rate)

    # each layer's output gradient is held paired only: rebinding frees the
    # (B, T, 2H) array before the layer's kernel runs, so the kernel's input
    # is the one copy
    dG = _pair_output(dG)
    dS = _bidirectional_backward(_gru_direction_backward, dG, trace.S_dropped, trace.steps,
                                 params.pairs(params.flat, "gru"), params.pairs(grad, "gru"),
                                 trace.take_store("gru"), True)
    del dG  # the paired copy: not needed by the LSTM backward, whose store is the largest
    dS += _masked_max_pool_backward(dpool1, trace.pool1[1], trace.pool1[2], trace.S_dropped.shape)
    if trace.do1_kept is not None:
        dS *= _dropout_factor(trace.do1_kept, config.dropout_rate)

    dS = _pair_output(dS)
    dE = _bidirectional_backward(_lstm_direction_backward, dS, trace.emb_dropped, trace.steps,
                                 params.pairs(params.flat, "lstm"), params.pairs(grad, "lstm"),
                                 trace.take_store("lstm"), config.train_embedding)
    if dE is not None:
        if trace.sd_kept is not None:
            dE *= _dropout_factor(trace.sd_kept, config.spatial_dropout_rate)
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


@_diverging_quietly
def _loss_probs_grad(x, labels, params, config, rng):
    """Train-loop variant of loss_and_grad that also reports batch probabilities."""
    labels = np.asarray(labels, dtype=np.int64)
    x = _index_batch(x)
    if not len(x):
        raise ValidationError("an empty batch has no loss", "shape-mismatch")
    if labels.shape != (x.shape[0],):
        raise ValidationError(f"labels shape {labels.shape} does not match batch {x.shape[0]}",
                              "shape-mismatch")
    if labels.min() < 0 or labels.max() >= config.num_classes:
        raise ValidationError("labels must lie in 0..2", "index-out-of-range")
    _check_layout(params, config)
    probs, trace = forward(x, params, config, training=True, rng=rng)
    loss = _loss_from_trace(trace, labels)
    grad = np.empty_like(params.flat)
    _backward(trace, labels, params, config, grad)
    return loss, probs, grad


# Inference runs in chunks of rows sized so that the LSTM layer's
# preactivation over a chunk, a (2, max_len, rows, 4 * lstm_units) float64
# array holding both directions (its one scan holds them at once), stays
# within this many bytes.
_INFER_CHUNK_BYTES = 64 << 20


def inference_batch_size(config: ModelConfig) -> int:
    """Rows per inference chunk for ``config`` (at least 1).

    A row's LSTM preactivation is counted at max_len steps, so the budget is
    an upper bound: forward drops a chunk's leading all-pad steps, and a
    chunk of short rows holds fewer.
    """
    row_bytes = 2 * config.max_len * 4 * config.lstm_units * 8
    return max(1, _INFER_CHUNK_BYTES // row_bytes)


def _store_bytes(config: ModelConfig, batch_size: int) -> int:
    """Bytes of one run's training stores, both directions of both layers,
    at max_len steps: per direction and row, the LSTM's gates (4T) and its
    states hs and cs (T + 1 each), and the GRU's gates and h U (3T each)
    and its states hs (T + 1), of each layer's units."""
    T, Hl, Hg = config.max_len, config.lstm_units, config.gru_units
    return 2 * 8 * batch_size * (Hl * (6 * T + 2) + Hg * (7 * T + 1))


def stack_size(config: ModelConfig, batch_size: int) -> int:
    """Runs trained together as one stack at this batch size (at least 1).

    As many as whose training stores (_store_bytes) fit in the same budget
    as an inference chunk. The stores are counted at max_len steps, so the
    budget is an upper bound: forward drops a batch's leading all-pad steps,
    and a batch of short rows stores fewer.
    """
    return max(1, _INFER_CHUNK_BYTES // _store_bytes(config, batch_size))


def predict_proba(x: np.ndarray, params: ModelParameters, config: ModelConfig) -> np.ndarray:
    """Inference-mode class probabilities for an index batch, computed in
    chunks of ``inference_batch_size(config)`` rows; (K, B, 3) for a stack.

    The chunk's row count is part of the result's bits: the GEMMs of a
    differently sized chunk may round differently. A batch of no rows, such
    as an empty split's (0, max_len) array, gives an empty result.
    """
    x = _index_batch(x)
    if not len(x):
        return np.zeros(params.flat.shape[:-1] + (0, config.num_classes))
    step = inference_batch_size(config)
    return np.concatenate([forward(x[start:start + step], params, config, training=False)[0]
                           for start in range(0, len(x), step)], axis=-2)


def classify(probs: np.ndarray) -> np.ndarray:
    """Predicted class of each row of class probabilities, over the last axis."""
    return probs.argmax(axis=-1)


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


def confusion_matrix(pred: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Counts of each (true class, predicted class) pair; rows are the truth."""
    cm = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    np.add.at(cm, (np.asarray(labels, dtype=np.int64), np.asarray(pred, dtype=np.int64)), 1)
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
    for name, shape in _block_shapes(config, arrays["embedding"]).items():
        if name in arrays and arrays[name].shape != shape:
            raise ValidationError(f"checkpoint block {name!r} has shape {arrays[name].shape}, "
                                  f"but its config needs {shape}")
    embedding = arrays.pop("embedding")
    params = ModelParameters(arrays, embedding, config.train_embedding)
    return params, config
