"""First-order optimizers, the training loop, and the comparison harness.

Five update rules (sgd, sgd with momentum, adagrad, adadelta, adam) share a
flat-vector interface so the whole parameter set is one array. Each rule is
written once, as an in-place update: ``step(w, g)`` overwrites the weights w
and returns w. The training loop steps ``params.flat`` in place, so the
block views of the model's parameters see each update with no copying; the
optimizer's state vectors are allocated once, and only the step's
temporaries are transient.

On top of the rules sits one epoch loop with per-epoch metrics,
``train_runs``, which trains a stack of runs that differ only in update rule
and rate, one optimizer per run, with one forward and backward pass per
batch and a test evaluation of each live run per epoch. A single run
(``train``), a learning-rate range search over a log grid (its probes
stacked) and an optimizer-by-embedding sweep (the cells of each pair
stacked) all go through it. A run whose loss or gradient goes non-finite is
marked diverged and stops stepping in place; its row keeps its weights from
before that batch, and the other runs go on.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .embedding_io import csv_rows
from .errors import AllDivergedError, NonFiniteGradientError, ValidationError
from .model import (  # noqa: F401  from_flat and to_flat are re-exported helpers
    ModelConfig,
    ModelParameters,
    _diverging_quietly,
    _loss_probs_grad,
    classify,
    evaluate,
    from_flat,
    init_parameters,
    stack_size,
    to_flat,
)
from .seeding import check_seed, derive_rng

DEFAULT_LR = {
    "sgd": 0.1,
    "sgd_momentum": 0.05,
    "adagrad": 0.5,
    "adadelta": 1.0,
    "adam": 0.1,
}

# The rules' remaining hyperparameters are fixed, so two runs differ only in
# update rule and learning rate.
MOMENTUM = 0.9
ADAGRAD_EPS = 1e-10
ADADELTA_RHO, ADADELTA_EPS = 0.95, 1e-6
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _check_kind(kind: str) -> None:
    if kind not in OPTIMIZER_KINDS:
        raise ValidationError(
            f"unknown optimizer {kind!r}; expected one of {', '.join(OPTIMIZER_KINDS)}")


@dataclass
class OptimizerSpec:
    kind: str
    learning_rate: float

    def __post_init__(self):
        _check_kind(self.kind)
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValidationError("learning_rate must be positive and finite")


class _Stepper:
    """Shared stepping shell: validates the weights and the gradient, applies the rule in place."""

    state: Tuple[str, ...] = ()  # the rule's state vectors, each zeros(n) at the start

    def __init__(self, spec: OptimizerSpec, n: int):
        self.lr = spec.learning_rate
        self.n = n
        for name in self.state:
            setattr(self, name, np.zeros(n))

    @_diverging_quietly
    def step(self, w: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Update w, a writable float64 vector, in place to the next weights; returns w.

        Any other w is refused, not copied, so no update lands in a copy.
        Optimizer state advances only once w and the gradient pass validation.
        """
        if not (isinstance(w, np.ndarray) and w.dtype == np.float64 and w.flags.writeable):
            raise ValidationError("the weights must be a writable float64 ndarray, "
                                  "which the step updates in place")
        g = np.asarray(g, dtype=np.float64)
        if w.shape != (self.n,) or g.shape != (self.n,):
            raise ValidationError(
                f"expected flat vectors of length {self.n}, got {w.shape} and {g.shape}",
                "shape-mismatch")
        if not np.isfinite(g).all():
            raise NonFiniteGradientError("gradient contains nan or inf")
        self._apply(w, g)
        return w

    def _apply(self, w: np.ndarray, g: np.ndarray) -> None:
        """Update w and the state in place, in the rule's textbook operation
        order, so the result is bit-identical to the textbook formula."""
        raise NotImplementedError


class Sgd(_Stepper):
    def _apply(self, w, g):
        w -= self.lr * g


class SgdMomentum(_Stepper):
    state = ("velocity",)

    def _apply(self, w, g):
        self.velocity *= MOMENTUM
        self.velocity += g
        w -= self.lr * self.velocity


class Adagrad(_Stepper):
    state = ("accum",)

    def _apply(self, w, g):
        # two full-size temporaries, tmp and delta, written in place
        tmp = np.multiply(g, g)
        self.accum += tmp
        np.add(self.accum, ADAGRAD_EPS, out=tmp)
        np.sqrt(tmp, out=tmp)
        # w - lr * g / sqrt(accum + eps), in place
        delta = np.multiply(self.lr, g)
        delta /= tmp
        w -= delta


class Adadelta(_Stepper):
    state = ("sq_grad", "sq_delta")

    def _apply(self, w, g):
        rho, eps = ADADELTA_RHO, ADADELTA_EPS
        # two full-size temporaries, tmp and delta, written in place
        tmp = np.multiply(1.0 - rho, g)
        tmp *= g
        self.sq_grad *= rho
        self.sq_grad += tmp
        # delta = -sqrt(sq_delta + eps) / sqrt(sq_grad + eps) * g
        delta = np.add(self.sq_delta, eps)
        np.sqrt(delta, out=delta)
        np.negative(delta, out=delta)
        np.add(self.sq_grad, eps, out=tmp)
        np.sqrt(tmp, out=tmp)
        delta /= tmp
        delta *= g
        np.multiply(1.0 - rho, delta, out=tmp)
        tmp *= delta
        self.sq_delta *= rho
        self.sq_delta += tmp
        delta *= self.lr
        w += delta


class Adam(_Stepper):
    state = ("m", "v")
    t = 0  # steps taken; the first step sets the stepper's own count

    def _apply(self, w, g):
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        self.t += 1
        # two full-size temporaries, denom and m_hat, written in place
        denom = np.multiply(1.0 - b1, g)
        self.m *= b1
        self.m += denom
        np.multiply(1.0 - b2, g, out=denom)
        denom *= g
        self.v *= b2
        self.v += denom
        np.divide(self.v, 1.0 - b2 ** self.t, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        # w - lr * m_hat / (sqrt(v_hat) + eps), in place
        m_hat = np.divide(self.m, 1.0 - b1 ** self.t)
        m_hat *= self.lr
        m_hat /= denom
        w -= m_hat


_STEPPERS = {
    "sgd": Sgd,
    "sgd_momentum": SgdMomentum,
    "adagrad": Adagrad,
    "adadelta": Adadelta,
    "adam": Adam,
}
OPTIMIZER_KINDS = tuple(_STEPPERS)


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
    def from_examples(cls, train, test, max_len: int) -> "SplitDataset":
        """Build index arrays from encoded-example sequences (.indices/.label);
        each side's x is (len(examples), max_len), an empty side's too."""
        def arrays(examples):
            x = np.array([ex.indices for ex in examples], dtype=np.int64)
            y = np.array([int(ex.label) for ex in examples], dtype=np.int64)
            return x.reshape(len(examples), max_len), y

        train_x, train_y = arrays(train)
        test_x, test_y = arrays(test)
        return cls(train_x, train_y, test_x, test_y)


@dataclass
class TrainingHistory:
    """One run's per-epoch metrics; only ``optimizer_sweep`` sets ``pair``."""
    optimizer: str
    learning_rate: float
    seed: int
    pair: str = ""
    train_loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    test_loss: List[float] = field(default_factory=list)
    test_accuracy: List[float] = field(default_factory=list)
    diverged: bool = False

    @property
    def epochs(self) -> List[int]:
        return list(range(1, len(self.train_loss) + 1))

    @property
    def diverged_epoch(self) -> Optional[int]:
        """The epoch a diverged run stopped in, the one after its last recorded epoch."""
        return len(self.train_loss) + 1 if self.diverged else None


def check_loop(data: SplitDataset, epochs: int, batch_size: int, seed: int) -> None:
    """Reject a training loop with no examples, no epochs, no batch or a bad seed."""
    if data.train_x.shape[0] == 0:
        raise ValidationError("training split is empty", "empty-dataset")
    if epochs < 1 or batch_size < 1:
        raise ValidationError("epochs and batch_size must be positive")
    check_seed(seed)


def _stepped(stepper: _Stepper, w: np.ndarray, g: np.ndarray, loss: float) -> bool:
    """Step w in place unless the loss or the gradient is non-finite; whether it stepped."""
    if not math.isfinite(loss):
        return False
    try:
        stepper.step(w, g)
    except NonFiniteGradientError:
        return False
    return True


def train_runs(
    data: SplitDataset,
    embedding: np.ndarray,
    config: ModelConfig,
    specs: Sequence[OptimizerSpec],
    epochs: int,
    batch_size: int,
    seed: int,
    test: bool = True,
) -> Tuple[ModelParameters, List[TrainingHistory]]:
    """Mini-batch training of one run per spec, as one stack.

    The runs share the init, the per-epoch shuffle and the dropout draws, and
    differ only in update rule and rate, so each batch's forward and backward
    pass serve the whole stack. A batch's gradient and probabilities are
    freed once the stack has stepped, so a step holds one gradient. Returns
    the stacked parameters, row k trained by specs[k], and one history per
    spec (``pair`` empty); each run's weights and history are those it gets
    when trained alone. Callers keep len(specs) within ``stack_size(config, batch_size)``.

    Epoch metrics: train_loss is the mean of the batch losses, train_accuracy
    aggregates training-mode predictions, and test metrics are ``evaluate`` of
    each live run over the whole test split, in inference mode.
    With ``test`` False the test split is not evaluated and the test metric
    lists stay empty; the training itself is the same.
    A run whose loss or gradient goes non-finite is marked diverged, keeps
    its recorded epochs, which stay finite, and stops stepping in place; its
    row keeps its weights from before that batch. The row is not evaluated
    again, but it still costs its share of every later forward and backward
    pass of the stack. The others go on.
    """
    check_loop(data, epochs, batch_size, seed)
    if not specs:
        raise ValidationError("train_runs needs at least one optimizer spec")
    params = init_parameters(config, embedding, derive_rng(seed, "init")).stacked(len(specs))
    steppers = [make_optimizer(spec, params.flat.shape[1]) for spec in specs]
    histories = [TrainingHistory(optimizer=spec.kind, learning_rate=spec.learning_rate, seed=seed)
                 for spec in specs]
    dropout = config.spatial_dropout_rate > 0 or config.dropout_rate > 0
    n = data.train_x.shape[0]
    starts = range(0, n, batch_size)
    live = list(range(len(specs)))  # the runs still stepping: rows of params
    for epoch in range(1, epochs + 1):
        order = derive_rng(seed, "shuffle", epoch).permutation(n)
        batch_losses = np.empty((len(specs), len(starts)))
        correct = np.zeros(len(specs), dtype=np.int64)
        for bi, start in enumerate(starts):
            idx = order[start:start + batch_size]
            xb = data.train_x[idx]
            yb = data.train_y[idx]
            rng = derive_rng(seed, "dropout", epoch, bi) if dropout else None
            losses, probs, grad = _loss_probs_grad(xb, yb, params, config, rng)
            batch_losses[:, bi] = losses
            correct += (classify(probs) == yb).sum(axis=-1)
            for k in live:
                if not _stepped(steppers[k], params.flat[k], grad[k], losses[k]):
                    histories[k].diverged = True
            del probs, grad  # so the next batch's forward and backward do not run beside them
            live = [k for k in live if not histories[k].diverged]
            if not live:
                break
        if not live:
            break
        for k in live:  # each stepped every batch
            history = histories[k]
            history.train_loss.append(float(np.mean(batch_losses[k])))
            history.train_accuracy.append(int(correct[k]) / n)
            if test:
                test_loss, test_acc = evaluate(data.test_x, data.test_y, params.run(k), config)
                history.test_loss.append(test_loss)
                history.test_accuracy.append(test_acc)
    return params, histories


def train(
    data: SplitDataset,
    embedding: np.ndarray,
    config: ModelConfig,
    spec: OptimizerSpec,
    epochs: int = 20,
    batch_size: int = 32,
    seed: int = 7,
) -> Tuple[ModelParameters, TrainingHistory]:
    """One run: ``train_runs`` with a single spec."""
    params, (history,) = train_runs(data, embedding, config, [spec], epochs, batch_size, seed)
    return params.run(0), history


def _stacked_histories(
    data: SplitDataset,
    embedding: np.ndarray,
    config: ModelConfig,
    specs: Sequence[OptimizerSpec],
    epochs: int,
    batch_size: int,
    seed: int,
    test: bool = True,
) -> List[TrainingHistory]:
    """The histories of specs, trained in order as stacks of ``stack_size`` runs."""
    check_loop(data, epochs, batch_size, seed)
    k = stack_size(config, batch_size)
    histories: List[TrainingHistory] = []
    for start in range(0, len(specs), k):
        # bind no name to a stack's parameters, so they are freed before the next stack
        histories += train_runs(data, embedding, config, specs[start:start + k],
                                epochs, batch_size, seed, test)[1]
    return histories


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
    if not (0 < lo < hi < math.inf) or count < 2:
        raise ValidationError(
            f"bad learning-rate grid {text!r}; need finite 0 < lo < hi and N >= 2")
    return [float(v) for v in np.logspace(np.log10(lo), np.log10(hi), count)]


@dataclass
class LrProbe:
    learning_rate: float
    epoch_losses: List[float]
    diverged: bool

    @property
    def final_loss(self) -> float:
        """The last epoch's train loss; inf if the probe diverged."""
        return math.inf if self.diverged else self.epoch_losses[-1]


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
    Probes read only train losses, so the test split is not evaluated.
    Diverged probes are kept in the table but excluded from the argmin; ties
    resolve to the smaller rate. Raises AllDivergedError, carrying the
    probes, if every probe diverged.
    """
    rates = [float(r) for r in (grid if grid is not None else parse_lr_grid(DEFAULT_LR_GRID))]
    if not rates:
        raise ValidationError("learning-rate grid is empty")
    specs = [OptimizerSpec(kind=optimizer_kind, learning_rate=lr) for lr in rates]
    probes = [LrProbe(h.learning_rate, list(h.train_loss), h.diverged)
              for h in _stacked_histories(data, embedding, config, specs, epochs, batch_size, seed,
                                          test=False)]
    best = min((p for p in probes if not p.diverged), key=lambda p: p.final_loss, default=None)
    if best is None:
        raise AllDivergedError("every learning rate in the grid diverged", probes)
    return best.learning_rate, probes


def write_lr_table(probes: Sequence[LrProbe], fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["learning_rate", "final_train_loss", "diverged", "epochs_completed"])
    for p in probes:
        final = "" if p.diverged else repr(p.final_loss)
        writer.writerow([repr(p.learning_rate), final, int(p.diverged), len(p.epoch_losses)])


# --- optimizer-by-embedding sweep ---

def check_sweep_cells(kinds: Sequence[str], pair_ids: Sequence[str] = ()) -> None:
    """Reject a sweep whose update rules are unknown or none, or that repeats a cell.

    A repeated optimizer or pair would write two runs under one key, which
    read back as one.
    """
    for kind in kinds:
        _check_kind(kind)
    if not kinds:
        raise ValidationError("sweep lists no update rules")
    for what, names in (("optimizer", list(kinds)), ("pair", list(pair_ids))):
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValidationError(f"sweep lists {what} {name!r} more than once")


def optimizer_sweep(
    data: SplitDataset,
    config: ModelConfig,
    pairs: Sequence[Tuple[str, np.ndarray]],
    learning_rate: float,
    kinds: Sequence[str] = OPTIMIZER_KINDS,
    epochs: int = 20,
    batch_size: int = 32,
    seed: int = 7,
) -> List[TrainingHistory]:
    """Train every optimizer on every embedding pair with a shared seed.

    pairs is a sequence of (pair_id, embedding_matrix). Every cell runs at
    the same learning rate so that rows differ only in update rule and
    embedding. Returns one history per cell, pair-major, in input order,
    each with ``pair`` set to its pair_id. Runs that diverge keep their
    partial history and are flagged, not dropped.
    """
    if not pairs:
        raise ValidationError("sweep needs at least one embedding pair")
    check_sweep_cells(kinds, [pair_id for pair_id, _ in pairs])
    specs = [OptimizerSpec(kind=kind, learning_rate=learning_rate) for kind in kinds]
    histories: List[TrainingHistory] = []
    for pair_id, emb in pairs:
        for h in _stacked_histories(data, emb, config, specs, epochs, batch_size, seed):
            h.pair = pair_id
            histories.append(h)
    return histories


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
    """Rebuild histories from write_history_csv output, refusing any row the
    writer could not have written."""
    rows = csv_rows(fh, "history CSV line")
    _, header = next(rows, (0, None))
    if header != _HISTORY_COLUMNS:
        raise ValidationError("unrecognized history CSV header")
    out: List[TrainingHistory] = []
    last_key: Optional[Tuple[str, str, str, str]] = None
    last_epoch = 0
    for line_no, row in rows:
        if not row:
            continue
        if len(row) != len(_HISTORY_COLUMNS):
            raise ValidationError(f"history CSV line {line_no}: expected "
                                  f"{len(_HISTORY_COLUMNS)} fields, got {len(row)}")
        try:
            lr, seed, epoch = float(row[2]), int(row[3]), int(row[4])
            metrics = [float(v) for v in row[5:9]] if epoch else []
            OptimizerSpec(row[1], lr)
            check_seed(seed)
            if row[9] not in ("0", "1"):
                raise ValidationError(f"run_diverged must be 0 or 1, not {row[9]!r}")
            if not epoch and (any(row[5:9]) or row[9] == "0"):
                raise ValidationError(
                    "an epoch-0 row stands for a run diverged in its first epoch: "
                    "its metrics are empty and run_diverged is 1")
            for name, value in zip(_HISTORY_COLUMNS[5:9], metrics):
                if name.startswith("test") and math.isnan(value):
                    continue  # an empty test split
                if not math.isfinite(value) or (name.endswith("accuracy") and not 0 <= value <= 1):
                    raise ValidationError(f"{name} {value!r} is out of range")
        except (ValueError, ValidationError) as exc:
            raise ValidationError(f"history CSV line {line_no}: {exc}") from None
        key = tuple(row[:4])
        if key != last_key:
            if epoch not in (0, 1):
                raise ValidationError(
                    f"history CSV line {line_no}: a run starts at epoch 0 or 1, not {epoch}")
            current = TrainingHistory(pair=row[0], optimizer=row[1], learning_rate=lr, seed=seed,
                                      diverged=row[9] == "1")
            out.append(current)
        elif last_epoch == 0 or epoch != last_epoch + 1:
            raise ValidationError(f"history CSV line {line_no}: epoch {epoch} does not "
                                  f"follow epoch {last_epoch} of the same run")
        elif current.diverged != (row[9] == "1"):
            raise ValidationError(f"history CSV line {line_no}: run_diverged {row[9]} differs "
                                  f"from the earlier rows of the same run")
        last_key, last_epoch = key, epoch
        if metrics:
            current.train_loss.append(metrics[0])
            current.train_accuracy.append(metrics[1])
            current.test_loss.append(metrics[2])
            current.test_accuracy.append(metrics[3])
    return out
