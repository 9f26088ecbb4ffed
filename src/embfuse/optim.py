"""First-order optimizers, the training loop, and the comparison harness.

Five update rules (sgd, sgd with momentum, adagrad, adadelta, adam) share a
flat-vector interface so the whole parameter set is one array. Each rule is
written once, as an in-place update: ``step(w, g, out=w)`` overwrites the
weights, and ``step(w, g)`` returns new weights and leaves w untouched. The
training loop steps ``params.flat`` in place, so the block views of the
model's parameters see each update with no copying; the optimizer's state
vectors are allocated once, and only the step's temporaries are transient.

On top of the rules sit the epoch loop with per-epoch metrics, a
learning-rate range search over a log grid, and an optimizer-by-embedding
sweep that fans out over a small grid of training runs and collects their
histories.
"""
from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    AllDivergedError,
    EmptyDatasetError,
    NonFiniteGradientError,
    ShapeMismatchError,
    ValidationError,
)
from .model import (  # noqa: F401  from_flat and to_flat are re-exported helpers
    ModelConfig,
    ModelParameters,
    _loss_probs_grad,
    evaluate,
    from_flat,
    init_parameters,
    to_flat,
)
from .seeding import derive_rng

OPTIMIZER_KINDS = ("sgd", "sgd_momentum", "adagrad", "adadelta", "adam")

DEFAULT_LR = {
    "sgd": 0.1,
    "sgd_momentum": 0.05,
    "adagrad": 0.5,
    "adadelta": 1.0,
    "adam": 0.1,
}


@dataclass
class OptimizerSpec:
    kind: str
    learning_rate: float
    momentum: float = 0.9
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    adagrad_eps: float = 1e-10
    adadelta_rho: float = 0.95
    adadelta_eps: float = 1e-6

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ValidationError(
                f"unknown optimizer {self.kind!r}; expected one of {', '.join(OPTIMIZER_KINDS)}"
            )
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValidationError("learning_rate must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError("momentum must lie in [0, 1)")
        for name in ("adam_beta1", "adam_beta2", "adadelta_rho"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValidationError(f"{name} must lie in (0, 1)")
        for name in ("adam_eps", "adagrad_eps", "adadelta_eps"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")


class _Stepper:
    """Shared stepping shell: validates the gradient, applies the rule in place."""

    def __init__(self, spec: OptimizerSpec, n: int):
        self.spec = spec
        self.n = n

    def step(self, w: np.ndarray, g: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The next weights: a new vector with out=None (w is left untouched),
        or w itself, updated in place, with out=w.

        Optimizer state advances only once the gradient has passed validation.
        """
        w = np.asarray(w, dtype=np.float64)
        g = np.asarray(g, dtype=np.float64)
        if w.shape != (self.n,) or g.shape != (self.n,):
            raise ShapeMismatchError(
                f"expected flat vectors of length {self.n}, got {w.shape} and {g.shape}"
            )
        if out is not None and out is not w:
            raise ShapeMismatchError("out must be None or w itself")
        if not np.isfinite(g).all():
            raise NonFiniteGradientError("gradient contains nan or inf")
        if out is None:
            out = w.copy()
        self._apply(out, g)
        return out

    def _apply(self, w: np.ndarray, g: np.ndarray) -> None:
        """Update w and the state in place, in the rule's textbook operation
        order, so the result is bit-identical to the out-of-place formula."""
        raise NotImplementedError


class Sgd(_Stepper):
    def _apply(self, w, g):
        w -= self.spec.learning_rate * g


class SgdMomentum(_Stepper):
    def __init__(self, spec, n):
        super().__init__(spec, n)
        self.velocity = np.zeros(n)

    def _apply(self, w, g):
        self.velocity *= self.spec.momentum
        self.velocity += g
        w -= self.spec.learning_rate * self.velocity


class Adagrad(_Stepper):
    def __init__(self, spec, n):
        super().__init__(spec, n)
        self.accum = np.zeros(n)

    def _apply(self, w, g):
        self.accum += g * g
        w -= self.spec.learning_rate * g / np.sqrt(self.accum + self.spec.adagrad_eps)


class Adadelta(_Stepper):
    def __init__(self, spec, n):
        super().__init__(spec, n)
        self.sq_grad = np.zeros(n)
        self.sq_delta = np.zeros(n)

    def _apply(self, w, g):
        rho, eps = self.spec.adadelta_rho, self.spec.adadelta_eps
        self.sq_grad *= rho
        self.sq_grad += (1.0 - rho) * g * g
        delta = -np.sqrt(self.sq_delta + eps) / np.sqrt(self.sq_grad + eps) * g
        self.sq_delta *= rho
        self.sq_delta += (1.0 - rho) * delta * delta
        delta *= self.spec.learning_rate
        w += delta


class Adam(_Stepper):
    def __init__(self, spec, n):
        super().__init__(spec, n)
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0

    def _apply(self, w, g):
        b1, b2, eps = self.spec.adam_beta1, self.spec.adam_beta2, self.spec.adam_eps
        self.t += 1
        self.m *= b1
        self.m += (1.0 - b1) * g
        self.v *= b2
        self.v += (1.0 - b2) * g * g
        m_hat = self.m / (1.0 - b1 ** self.t)
        denom = self.v / (1.0 - b2 ** self.t)
        np.sqrt(denom, out=denom)
        denom += eps
        # w - lr * m_hat / (sqrt(v_hat) + eps), in place
        m_hat *= self.spec.learning_rate
        m_hat /= denom
        w -= m_hat


_STEPPERS = {
    "sgd": Sgd,
    "sgd_momentum": SgdMomentum,
    "adagrad": Adagrad,
    "adadelta": Adadelta,
    "adam": Adam,
}


def make_optimizer(spec: OptimizerSpec, n_params: int) -> _Stepper:
    """Zero-initialized optimizer state for a flat parameter vector."""
    return _STEPPERS[spec.kind](spec, n_params)


# --- dataset container for training ---

@dataclass
class SplitDataset:
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray

    def __post_init__(self):
        self.train_x = np.asarray(self.train_x, dtype=np.int64)
        self.train_y = np.asarray(self.train_y, dtype=np.int64)
        self.test_x = np.asarray(self.test_x, dtype=np.int64)
        self.test_y = np.asarray(self.test_y, dtype=np.int64)

    @classmethod
    def from_examples(cls, train, test) -> "SplitDataset":
        """Build index arrays from encoded-example sequences (.indices/.label)."""
        def arrays(examples):
            if not examples:
                return np.zeros((0, 0), dtype=np.int64), np.zeros(0, dtype=np.int64)
            x = np.array([ex.indices for ex in examples], dtype=np.int64)
            y = np.array([int(ex.label) for ex in examples], dtype=np.int64)
            return x, y

        train_x, train_y = arrays(train)
        test_x, test_y = arrays(test)
        return cls(train_x, train_y, test_x, test_y)


@dataclass
class TrainingHistory:
    pair: str
    optimizer: str
    learning_rate: float
    seed: int
    train_loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    test_loss: List[float] = field(default_factory=list)
    test_accuracy: List[float] = field(default_factory=list)
    epoch_seconds: List[float] = field(default_factory=list)
    diverged: bool = False
    diverged_epoch: Optional[int] = None

    @property
    def epochs(self) -> List[int]:
        return list(range(1, len(self.train_loss) + 1))


def train(
    data: SplitDataset,
    embedding: np.ndarray,
    config: ModelConfig,
    spec: OptimizerSpec,
    epochs: int = 20,
    batch_size: int = 32,
    seed: int = 7,
    pair_id: str = "",
) -> Tuple[ModelParameters, TrainingHistory]:
    """Mini-batch training with per-epoch shuffling and test evaluation.

    Epoch metrics: train_loss is the mean of the batch losses, train_accuracy
    aggregates training-mode predictions, test metrics are inference-mode over
    the whole test split. The first non-finite loss or gradient stops the run
    and marks it diverged; recorded epochs stay finite.
    """
    if data.train_x.shape[0] == 0:
        raise EmptyDatasetError("training split is empty")
    if epochs < 1 or batch_size < 1:
        raise ValidationError("epochs and batch_size must be positive")
    params = init_parameters(config, embedding, derive_rng(seed, "init"))
    stepper = make_optimizer(spec, params.flat.size)
    dropout = config.spatial_dropout_rate > 0 or config.dropout_rate > 0
    history = TrainingHistory(
        pair=pair_id, optimizer=spec.kind, learning_rate=spec.learning_rate, seed=seed,
    )
    n = data.train_x.shape[0]
    for epoch in range(1, epochs + 1):
        started = time.perf_counter()
        order = derive_rng(seed, "shuffle", epoch).permutation(n)
        batch_losses: List[float] = []
        correct = 0
        seen = 0
        broke = False
        for bi, start in enumerate(range(0, n, batch_size)):
            idx = order[start:start + batch_size]
            xb = data.train_x[idx]
            yb = data.train_y[idx]
            rng = derive_rng(seed, "dropout", epoch, bi) if dropout else None
            loss, probs, grad = _loss_probs_grad(xb, yb, params, config, rng)
            if not math.isfinite(loss):
                history.diverged = True
                history.diverged_epoch = epoch
                broke = True
                break
            batch_losses.append(loss)
            correct += int((probs.argmax(axis=1) == yb).sum())
            seen += len(yb)
            try:
                stepper.step(params.flat, grad, out=params.flat)
            except NonFiniteGradientError:
                history.diverged = True
                history.diverged_epoch = epoch
                broke = True
                break
        if broke:
            break
        test_loss, test_acc = evaluate(data.test_x, data.test_y, params, config)
        history.train_loss.append(float(np.mean(batch_losses)))
        history.train_accuracy.append(correct / seen)
        history.test_loss.append(test_loss)
        history.test_accuracy.append(test_acc)
        history.epoch_seconds.append(time.perf_counter() - started)
    return params, history


# --- learning-rate range search ---

DEFAULT_LR_GRID = "1e-8:1e-2:log7"


def parse_lr_grid(text: str) -> List[float]:
    """Parse ``lo:hi:logN`` into N log-spaced learning rates, ascending."""
    parts = text.split(":")
    if len(parts) != 3 or not parts[2].startswith("log"):
        raise ValidationError(f"bad learning-rate grid {text!r}; expected lo:hi:logN")
    try:
        lo = float(parts[0])
        hi = float(parts[1])
        count = int(parts[2][3:])
    except ValueError:
        raise ValidationError(f"bad learning-rate grid {text!r}") from None
    if not (0 < lo < hi) or count < 2:
        raise ValidationError(f"bad learning-rate grid {text!r}; need 0 < lo < hi and N >= 2")
    return [float(v) for v in np.logspace(np.log10(lo), np.log10(hi), count)]


@dataclass
class LrProbe:
    learning_rate: float
    epoch_losses: List[float]
    final_loss: float
    diverged: bool


def lr_range_search(
    data: SplitDataset,
    embedding: np.ndarray,
    config: ModelConfig,
    optimizer_kind: str,
    grid: Optional[Sequence[float]] = None,
    epochs: int = 3,
    batch_size: int = 32,
    seed: int = 7,
) -> Tuple[float, List[LrProbe]]:
    """Short training run per learning rate; pick the lowest final train loss.

    Every probe starts from the same seed so only the learning rate varies.
    Diverged probes are kept in the table but excluded from the argmin; ties
    resolve to the smaller rate. Raises if every probe diverged.
    """
    rates = [float(r) for r in (grid if grid is not None else parse_lr_grid(DEFAULT_LR_GRID))]
    if not rates:
        raise ValidationError("learning-rate grid is empty")
    probes: List[LrProbe] = []
    for lr in rates:
        spec = OptimizerSpec(kind=optimizer_kind, learning_rate=lr)
        _, hist = train(
            data, embedding, config, spec,
            epochs=epochs, batch_size=batch_size, seed=seed,
        )
        diverged = hist.diverged or len(hist.train_loss) < epochs
        final = math.inf if diverged else hist.train_loss[-1]
        probes.append(LrProbe(lr, list(hist.train_loss), final, diverged))
    best: Optional[LrProbe] = None
    for probe in probes:
        if probe.diverged:
            continue
        if best is None or probe.final_loss < best.final_loss:
            best = probe
    if best is None:
        raise AllDivergedError("every learning rate in the grid diverged")
    return best.learning_rate, probes


def write_lr_table(probes: Sequence[LrProbe], fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["learning_rate", "final_train_loss", "diverged", "epochs_completed"])
    for p in probes:
        final = "" if p.diverged else repr(p.final_loss)
        writer.writerow([repr(p.learning_rate), final, int(p.diverged), len(p.epoch_losses)])


# --- optimizer-by-embedding sweep ---

def thread_count() -> int:
    """Worker count for sweep cells, from EMBFUSE_THREADS (default 1).

    EMBFUSE_DETERMINISTIC=1 forces serial execution regardless.
    """
    if os.environ.get("EMBFUSE_DETERMINISTIC") == "1":
        return 1
    raw = os.environ.get("EMBFUSE_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ValidationError(f"EMBFUSE_THREADS must be an integer, got {raw!r}") from None
    return max(1, n)


def optimizer_sweep(
    data: SplitDataset,
    config: ModelConfig,
    pairs: Sequence[Tuple[str, np.ndarray]],
    learning_rate: Optional[float] = None,
    kinds: Sequence[str] = OPTIMIZER_KINDS,
    epochs: int = 20,
    batch_size: int = 32,
    seed: int = 7,
    lr_search_epochs: int = 3,
) -> List[TrainingHistory]:
    """Train every optimizer on every embedding pair with a shared seed.

    pairs is a sequence of (pair_id, embedding_matrix). Every cell runs at
    the same single learning rate so that rows differ only in update rule
    and embedding; when learning_rate is None it is chosen by an lr range
    search with sgd on the first pair. Returns one history per cell,
    pair-major, in input order; cell results do not depend on the worker
    count. Runs that diverge keep their partial history and are flagged,
    not dropped.
    """
    if not pairs:
        raise ValidationError("sweep needs at least one embedding pair")
    if learning_rate is None:
        learning_rate, _ = lr_range_search(
            data, pairs[0][1], config, "sgd",
            epochs=lr_search_epochs, batch_size=batch_size, seed=seed,
        )
    cells = [(pair_id, emb, kind) for pair_id, emb in pairs for kind in kinds]

    def run_cell(cell):
        pair_id, emb, kind = cell
        spec = OptimizerSpec(kind=kind, learning_rate=learning_rate)
        _, hist = train(
            data, emb, config, spec,
            epochs=epochs, batch_size=batch_size, seed=seed, pair_id=pair_id,
        )
        return hist

    workers = thread_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_cell, cells))
    return [run_cell(cell) for cell in cells]


_HISTORY_COLUMNS = [
    "pair", "optimizer", "learning_rate", "seed", "epoch",
    "train_loss", "train_accuracy", "test_loss", "test_accuracy", "run_diverged",
]


def write_history_csv(histories: Sequence[TrainingHistory], fh) -> None:
    """One row per recorded epoch; floats via repr so re-parsing is exact.

    A run that diverged before completing its first epoch still appears, as
    a single epoch-0 row with empty metrics and the diverged flag set.
    """
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(_HISTORY_COLUMNS)
    for h in histories:
        flag = int(h.diverged)
        if not h.train_loss:
            writer.writerow([h.pair, h.optimizer, repr(h.learning_rate), h.seed, 0,
                             "", "", "", "", flag])
            continue
        for i, epoch in enumerate(h.epochs):
            writer.writerow([
                h.pair, h.optimizer, repr(h.learning_rate), h.seed, epoch,
                repr(h.train_loss[i]), repr(h.train_accuracy[i]),
                repr(h.test_loss[i]), repr(h.test_accuracy[i]), flag,
            ])


def read_history_csv(fh) -> List[TrainingHistory]:
    """Rebuild histories from write_history_csv output (wall times excluded)."""
    reader = csv.reader(fh)
    header = next(reader, None)
    if header != _HISTORY_COLUMNS:
        raise ValidationError("unrecognized history CSV header")
    out: List[TrainingHistory] = []
    current: Optional[TrainingHistory] = None
    last_key: Optional[Tuple[str, str, str, str]] = None
    for row in reader:
        if not row:
            continue
        pair, optimizer, lr_text, seed_text, epoch_text = row[:5]
        key = (pair, optimizer, lr_text, seed_text)
        if current is None or key != last_key:
            current = TrainingHistory(
                pair=pair, optimizer=optimizer,
                learning_rate=float(lr_text), seed=int(seed_text),
            )
            last_key = key
            out.append(current)
        diverged = row[9] == "1"
        if diverged:
            current.diverged = True
        if int(epoch_text) == 0:
            current.diverged_epoch = 1
            continue
        current.train_loss.append(float(row[5]))
        current.train_accuracy.append(float(row[6]))
        current.test_loss.append(float(row[7]))
        current.test_accuracy.append(float(row[8]))
        if diverged:
            current.diverged_epoch = len(current.train_loss) + 1
    return out
