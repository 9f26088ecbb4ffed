"""Spans around the program's public functions, and the per-layer metrics.

The traced run replaces each public function listed in :data:`TARGETS` by a
wrapper that records a span (name, start, end, parent) in a :class:`Tracer`.
The wrapper is bound under every name that refers to the function in any
loaded ``embfuse`` module, so callers that imported a function by name (for
example ``optim`` binding ``from_flat``) reach the wrapper too. A target the
program no longer defines is listed as absent and its metrics read 0.
Spans stay in memory until the run ends; :func:`layer_metrics` reduces them.
"""
from __future__ import annotations

import bisect
import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1          # index of the enclosing span, -1 for a root
    attrs: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.absent: List[str] = []
        self.hook_errors: List[str] = []
        self._stack: List[int] = []

    def begin(self, name: str, attrs: Optional[dict] = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), 0.0, parent, attrs))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, attrs: Optional[dict] = None):
        index = self.begin(name, attrs)
        try:
            yield self.spans[index]
        finally:
            self.end(index)


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of its interval its children cover.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or overhanging children count once.
    """
    children: Dict[int, List[tuple]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


# --- computed counts ---

def forward_flop(batch: int, steps: int, emb_dim: int, lstm_units: int, gru_units: int,
                 classes: int = 3) -> int:
    """Multiply-add flop (2 per MAC) of one forward pass, from the GEMM shapes.

    Both directions of the LSTM (input and recurrent GEMMs, 4 gates) and of
    the GRU (3 gates) over every timestep, plus the dense head. The masked
    recurrence runs every step whatever the padding, so length does not enter.
    """
    B, T, D, H, G = batch, steps, emb_dim, lstm_units, gru_units
    lstm = 2 * (2 * B * T * D * 4 * H + 2 * B * T * H * 4 * H)
    gru = 2 * (2 * B * T * 2 * H * 3 * G + 2 * B * T * G * 3 * G)
    dense = 2 * B * (2 * H + 2 * G) * classes
    return lstm + gru + dense


def _arrays(obj) -> List[np.ndarray]:
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        return [v for v in obj.values() if isinstance(v, np.ndarray)]
    out = []
    for value in (getattr(obj, "blocks", None), getattr(obj, "embedding", None)):
        if value is not None:
            out += _arrays(value)
    return out


def fresh_bytes(result, inputs) -> int:
    """Bytes of result arrays that are neither an input array nor a view of one.

    An array that owns its data and is not an input is a copy; only views
    need the (slower) overlap test.
    """
    sources = [a for x in inputs for a in _arrays(x)]
    ids = {id(a) for a in sources}
    total = 0
    for a in _arrays(result):
        if id(a) in ids:
            continue
        if a.base is None or not any(np.may_share_memory(a, s) for s in sources):
            total += a.nbytes
    return total


# --- wrappers ---

def _arg(args, kwargs, pos: int, name: str, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _forward_name(args, kwargs) -> str:
    return "model.forward_train" if _arg(args, kwargs, 3, "training", False) else "model.forward_infer"


def _forward_attrs(args, kwargs) -> dict:
    x = np.asarray(_arg(args, kwargs, 0, "x"))
    cfg = _arg(args, kwargs, 2, "config")
    B, T = (1, x.shape[0]) if x.ndim == 1 else x.shape[:2]
    return {"flop": forward_flop(B, T, cfg.emb_dim, cfg.lstm_units, cfg.gru_units), "batch": B}


def _parse_attrs(args, kwargs) -> dict:
    stream = _arg(args, kwargs, 0, "stream")
    pos = stream.tell() if hasattr(stream, "tell") else 0
    return {"fmt": _arg(args, kwargs, 1, "fmt"), "pos": pos}


def _parse_after(span, args, kwargs, result):
    stream = _arg(args, kwargs, 0, "stream")
    if hasattr(stream, "tell"):
        span.attrs["bytes"] = stream.tell() - span.attrs["pos"]
    elif isinstance(stream, (bytes, bytearray)):
        span.attrs["bytes"] = len(stream)
    span.attrs["rows"] = len(result)


def _copies_after(span, args, kwargs, result):
    span.attrs = {"bytes": fresh_bytes(result, list(args) + list(kwargs.values()))}


def _init_after(span, args, kwargs, result):
    span.attrs = {"param_bytes": sum(a.nbytes for a in _arrays(result.blocks))}


def _sweep_after(span, args, kwargs, result):
    span.attrs = {"cells": len(result), "diverged": sum(bool(h.diverged) for h in result)}


def _lr_after(span, args, kwargs, result):
    probes = result[1]
    span.attrs = {"probes": len(probes), "diverged": sum(bool(p.diverged) for p in probes)}


def _load_after(span, args, kwargs, result):
    span.attrs = {"reviews": len(result[0])}


def _prepare_after(span, args, kwargs, result):
    span.attrs = {"vocab_size": result[0].dicts.vocab_size}


def _build_after(span, args, kwargs, result):
    span.attrs = dict(result.branch_counts.as_dict())


def _optimizer_after(span, args, kwargs, result):
    span.attrs = {"kind": _arg(args, kwargs, 0, "spec").kind,
                  "state_bytes": sum(v.nbytes for v in vars(result).values()
                                     if isinstance(v, np.ndarray))}


# (module, public name, span name or namer, attrs before the call, hook after it)
TARGETS = [
    ("embedding_io", "parse_embedding", "embedding_io.parse", _parse_attrs, _parse_after),
    ("embedding_io", "write_word2vec_binary", "embedding_io.write", None, None),
    ("corpus", "load_reviews_csv", "corpus.load_csv", None, _load_after),
    ("corpus", "prepare_corpus", "corpus.prepare", None, _prepare_after),
    ("corpus", "write_dataset", "corpus.write_dataset", None, None),
    ("corpus", "read_dataset", "corpus.read_dataset", None, None),
    ("fusion", "build_fused_matrix", "fusion.build", None, _build_after),
    ("fusion", "fused_to_table", "fusion.to_table", None, None),
    ("fusion", "matrix_from_table", "fusion.matrix_from_table", None, None),
    ("model", "forward", _forward_name, _forward_attrs, None),
    ("model", "masked_max_pool", "model.pool", None, None),
    ("model", "to_flat", "model.to_flat", None, _copies_after),
    ("model", "from_flat", "model.from_flat", None, _copies_after),
    ("model", "grads_to_flat", "model.grads_to_flat", None, _copies_after),
    ("model", "init_parameters", "model.init", None, _init_after),
    ("model", "save_checkpoint", "model.checkpoint_save", None, None),
    ("model", "load_checkpoint", "model.checkpoint_load", None, None),
    ("model", "evaluate", "model.evaluate", None, None),
    ("model", "predict", "model.predict", None, None),
    ("optim", "make_optimizer", "optim.make_optimizer", None, _optimizer_after),
    ("optim", "train", "optim.train", None, None),
    ("optim", "lr_range_search", "optim.lr_range_search", None, _lr_after),
    ("optim", "optimizer_sweep", "optim.optimizer_sweep", None, _sweep_after),
    ("seeding", "derive_rng", "seeding.derive_rng", None, None),
]


def _wrap(tracer: Tracer, fn, name, attrs_of, after):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span_name = name(args, kwargs) if callable(name) else name
        attrs = _guarded(tracer, attrs_of, args, kwargs) if attrs_of else None
        index = tracer.begin(span_name, attrs)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after:
            _guarded(tracer, after, tracer.spans[index], args, kwargs, result)
        return result
    return traced


def _guarded(tracer: Tracer, hook, *args):
    """Run a counting hook; a signature the hook does not expect costs the
    counts of that call, not the run."""
    try:
        return hook(*args)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        tracer.hook_errors.append(f"{getattr(hook, '__name__', hook)}: {exc!r}")
        return None


def _traced_stepper(tracer: Tracer, make_optimizer):
    """make_optimizer whose steppers record an optim.step span per step."""
    @functools.wraps(make_optimizer)
    def traced(spec, *args, **kwargs):
        stepper = make_optimizer(spec, *args, **kwargs)
        inner = getattr(stepper, "step", None)
        if inner is None:
            tracer.absent.append("optim stepper.step")
            return stepper

        def step(*a, **k):
            index = tracer.begin("optim.step", {"kind": spec.kind})
            try:
                return inner(*a, **k)
            finally:
                tracer.end(index)
        stepper.step = step
        return stepper
    return traced


@contextmanager
def installed(tracer: Tracer):
    """Bind the traced wrappers in every loaded embfuse module; restore on exit."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "embfuse" or n.startswith("embfuse."))]
    replaced = []
    try:
        for mod_name, attr, name, attrs_of, after in TARGETS:
            home = sys.modules.get(f"embfuse.{mod_name}")
            fn = getattr(home, attr, None)
            if not callable(fn):
                tracer.absent.append(f"{mod_name}.{attr}")
                continue
            if attr == "make_optimizer":
                fn = _traced_stepper(tracer, fn)
            wrapper = _wrap(tracer, fn, name, attrs_of, after)
            original = getattr(home, attr)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        replaced.append((mod, key, original))
        yield tracer
    finally:
        for mod, key, original in reversed(replaced):
            setattr(mod, key, original)


# --- reduction to per-layer metrics ---

OPTIMIZER_KINDS = ("sgd", "sgd_momentum", "adagrad", "adadelta", "adam")
_TRAINING_ROOTS = ("optim.optimizer_sweep", "optim.lr_range_search")
_PLUMBING = ("model.to_flat", "model.from_flat", "model.grads_to_flat")


def _backward_gaps(spans: List[Span]) -> List[float]:
    """Time from each training forward's end to the optimizer step that follows it.

    The program's backward pass is a private helper, so it is measured as this
    gap minus the grads_to_flat spans inside it. A forward with no step before
    the next forward (a diverged batch) gets no gap.
    """
    fwd = [s for s in spans if s.name == "model.forward_train"]
    steps = [s.start for s in spans if s.name == "optim.step"]
    flat = [s for s in spans if s.name == "model.grads_to_flat"]
    flat_starts = [s.start for s in flat]
    gaps = []
    for i, f in enumerate(fwd):
        j = bisect.bisect_left(steps, f.end)
        limit = fwd[i + 1].start if i + 1 < len(fwd) else float("inf")
        if j == len(steps) or steps[j] > limit:
            continue
        lo, hi = bisect.bisect_left(flat_starts, f.end), bisect.bisect_left(flat_starts, steps[j])
        gaps.append(steps[j] - f.end - sum(s.duration for s in flat[lo:hi]))
    return gaps


def _ancestor_names(spans: List[Span], i: int):
    p = spans[i].parent
    while p >= 0:
        yield spans[p].name
        p = spans[p].parent


def coverage(spans: List[Span]) -> float:
    """Share of the training roots' wall, less their test evaluation, that the
    forward, backward, step and plumbing spans cover."""
    root = sum(s.duration for s in spans if s.name in _TRAINING_ROOTS)
    evals = sum(s.duration for i, s in enumerate(spans)
                if s.name == "model.evaluate" and "optim.train" in _ancestor_names(spans, i))
    covered = sum(s.duration for s in spans
                  if s.name in ("model.forward_train", "optim.step") + _PLUMBING)
    covered += sum(_backward_gaps(spans))
    base = root - evals
    return covered / base if base > 0 else 0.0


def layer_metrics(tracer: Tracer, iterations: int, parse_peak_mb: float,
                  overhead_share: float) -> Dict[str, float]:
    """Per-layer metrics, per workload iteration unless the name says otherwise.

    ``*_s`` values are self times. Counts are per iteration; branch counts,
    vocab size and byte sizes are those of the last call.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    it = max(iterations, 1)
    by_name: Dict[str, List[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def picked(name, pred=None):
        return [i for i in by_name.get(name, ()) if pred is None or pred(spans[i])]

    def self_s(name, pred=None):
        return sum(selfs[i] for i in picked(name, pred)) / it

    def attr_sum(name, key, pred=None):
        return sum((spans[i].attrs or {}).get(key, 0) for i in picked(name, pred))

    def last_attr(name, key):
        idx = picked(name)
        return float((spans[idx[-1]].attrs or {}).get(key, 0)) if idx else 0.0

    def rate(fmt):
        pred = lambda s: s.attrs and s.attrs.get("fmt") == fmt
        wall = sum(spans[i].duration for i in picked("embedding_io.parse", pred))
        return attr_sum("embedding_io.parse", "rows", pred) / wall if wall > 0 else 0.0

    m: Dict[str, float] = {}
    m["embedding_io.parse_s"] = self_s("embedding_io.parse")
    m["embedding_io.parse_w2v_bin_rows_per_s"] = rate("w2v-bin")
    m["embedding_io.parse_glove_rows_per_s"] = rate("glove")
    m["embedding_io.rows_parsed"] = attr_sum("embedding_io.parse", "rows") / it
    m["embedding_io.bytes_parsed"] = attr_sum("embedding_io.parse", "bytes") / it
    m["embedding_io.write_s"] = self_s("embedding_io.write")
    m["embedding_io.parse_peak_mb"] = parse_peak_mb

    m["corpus.load_csv_s"] = self_s("corpus.load_csv")
    m["corpus.prepare_s"] = self_s("corpus.prepare")
    m["corpus.write_dataset_s"] = self_s("corpus.write_dataset")
    m["corpus.read_dataset_s"] = self_s("corpus.read_dataset")
    m["corpus.reviews"] = attr_sum("corpus.load_csv", "reviews") / it
    m["corpus.vocab_size"] = last_attr("corpus.prepare", "vocab_size")

    m["fusion.build_s"] = self_s("fusion.build")
    m["fusion.to_table_s"] = self_s("fusion.to_table")
    m["fusion.matrix_from_table_s"] = self_s("fusion.matrix_from_table")
    branches = {k: last_attr("fusion.build", k) for k in
                ("both", "first_only", "second_only", "unknown", "case_hits", "lemma_hits")}
    rows = branches["both"] + branches["first_only"] + branches["second_only"] + branches["unknown"]
    m["fusion.rows"] = rows
    m["fusion.hit_ratio"] = (rows - branches["unknown"]) / rows if rows else 0.0
    for k, v in branches.items():
        m[f"fusion.{k}"] = v

    gaps = _backward_gaps(spans)
    train_fwd = picked("model.forward_train")
    infer_fwd = picked("model.forward_infer")
    # each forward GEMM has two backward GEMMs of its size (weight and input grads)
    train_flop = 3 * attr_sum("model.forward_train", "flop")
    train_wall = sum(spans[i].duration for i in train_fwd) + sum(gaps)
    m["model.forward_train_s"] = self_s("model.forward_train")
    m["model.backward_s"] = sum(gaps) / it
    m["model.pool_s"] = self_s("model.pool")
    m["model.forward_calls"] = (len(train_fwd) + len(infer_fwd)) / it
    m["model.train_step_gflop"] = train_flop / len(train_fwd) / 1e9 if train_fwd else 0.0
    m["model.train_gflops_per_s"] = train_flop / train_wall / 1e9 if train_wall > 0 else 0.0
    m["model.forward_infer_s"] = self_s("model.forward_infer")
    infer_examples = attr_sum("model.forward_infer", "batch")
    m["model.infer_gflop_per_example"] = (
        attr_sum("model.forward_infer", "flop") / infer_examples / 1e9 if infer_examples else 0.0)
    for name in _PLUMBING:
        m[f"{name}_s"] = self_s(name)
    steps = len(picked("optim.step"))
    plumbing = sum(attr_sum(name, "bytes") for name in _PLUMBING)
    m["model.plumbing_bytes"] = plumbing / steps if steps else 0.0
    m["model.param_bytes"] = last_attr("model.init", "param_bytes")
    m["model.init_s"] = self_s("model.init")
    m["model.checkpoint_save_s"] = self_s("model.checkpoint_save")
    m["model.checkpoint_load_s"] = self_s("model.checkpoint_load")

    m["optim.step_s"] = self_s("optim.step")
    for kind in OPTIMIZER_KINDS:
        m[f"optim.step_s.{kind}"] = self_s("optim.step", lambda s, k=kind: s.attrs["kind"] == k)
    m["optim.steps"] = steps / it
    m["optim.state_bytes"] = attr_sum("optim.make_optimizer", "state_bytes") / it
    m["optim.eval_s"] = sum(
        spans[i].duration for i in picked("model.evaluate")
        if "optim.train" in _ancestor_names(spans, i)) / it
    m["optim.cells"] = attr_sum("optim.optimizer_sweep", "cells") / it
    m["optim.cells_diverged"] = attr_sum("optim.optimizer_sweep", "diverged") / it
    m["optim.probes"] = attr_sum("optim.lr_range_search", "probes") / it
    m["optim.probes_diverged"] = attr_sum("optim.lr_range_search", "diverged") / it
    m["seeding.derive_rng_s"] = self_s("seeding.derive_rng")

    m["trace.coverage_pct"] = 100.0 * coverage(spans)
    m["trace.overhead_pct"] = 100.0 * overhead_share
    m["trace.spans"] = len(spans) / it
    m["trace.absent"] = float(len(tracer.absent))
    return m
