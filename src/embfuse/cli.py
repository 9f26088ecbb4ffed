"""Command-line entry point.

Eight subcommands cover the pipeline from raw files to charts: inspect,
prepare, fuse, lr-find, train, sweep, eval, report. Every flag can also be
supplied through a JSON config file (--config); explicit flags win. All
failures print one ``ERROR <code>: <message>`` line to stderr. The exit code
is 1 for any bad input (a flag, a config key, a file's content), whatever its
code; 2 only for ``all-diverged`` (an lr search in which every probe diverged)
and ``io`` (a read or write the operating system refused).
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import charts, corpus, fusion, model, optim
from .embedding_io import FORMATS, csv_rows, decode_line, parse_embedding, write_word2vec_binary
from .errors import AllDivergedError, EmbfuseError, EmptySeriesError, ValidationError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message, "usage")


@dataclass
class _Opt:
    """One option; a flag with no leading dash is positional, a bool one is a switch,
    and one that ``reads`` (``writes``) names a file the command reads (writes)."""
    flag: str
    type: Callable[[str], Any] = str
    default: Any = None
    help: str = ""
    required: bool = False
    choices: Optional[Tuple[str, ...]] = None
    reads: bool = False
    writes: bool = False

    @property
    def dest(self) -> str:  # the option's config key and argparse dest
        return self.flag.lstrip("-").replace("-", "_")


def _split_emb_arg(text: str) -> Tuple[str, str]:
    """``PATH:FORMAT`` as (path, format); the file must exist."""
    path, sep, fmt = text.rpartition(":")
    if not sep or fmt not in FORMATS:
        raise ValidationError(
            f"expected PATH:FORMAT with format one of {', '.join(FORMATS)}, got {text!r}", "usage")
    return _require_file(path, "embedding file"), fmt


def _names(text: str) -> Tuple[str, ...]:
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _stage_list(text: str) -> Tuple[str, ...]:
    order = _names(text)
    fusion.check_fallback_order(order)
    return order


def _kind_list(text: str) -> Tuple[str, ...]:
    kinds = _names(text)
    optim.check_sweep_cells(kinds)
    return kinds


def _out_path(flag: str, path: str) -> None:
    """Refuse flag's file to write unless it is named and its directory exists."""
    if not path:
        raise ValidationError(f"{flag} names no file")
    directory = os.path.dirname(path)
    if directory and not os.path.isdir(directory):
        raise ValidationError(f"output directory not found: {directory}")


def _out_dir(path: str) -> str:
    """A directory to write into, made when missing; what exists of it must be a directory."""
    if not path:
        raise ValidationError("--out-dir names no directory")
    existing = path
    while existing and not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if existing and not os.path.isdir(existing):
        raise ValidationError(f"output directory is not a directory: {existing}")
    return path


@dataclass
class _Command:
    """One subcommand: its --help line, its options and the function that runs it."""
    help: str
    opts: List[_Opt]
    run: Callable[[Dict[str, Any]], None]


_MODEL_OPTS = [
    _Opt("--lstm-units", int, model.ModelConfig.lstm_units, "units per LSTM direction"),
    _Opt("--gru-units", int, model.ModelConfig.gru_units, "units per GRU direction"),
    _Opt("--spatial-dropout", float, model.ModelConfig.spatial_dropout_rate,
         "embedding channel dropout rate"),
    _Opt("--dropout", float, model.ModelConfig.dropout_rate,
         "dropout rate after each recurrent layer"),
]

_TRAIN_COMMON = [
    _Opt("--dataset", str, help="prepared dataset file", required=True, reads=True),
    _Opt("--fused", str, help="fused embedding file (binary)", required=True, reads=True),
    _Opt("--batch", int, 32, "mini-batch size"),
    _Opt("--seed", int, 7, "seed for init, shuffling and dropout"),
]


def _build_parser(command: str) -> _Parser:
    parser = _Parser(prog=f"embfuse {command}", description=_COMMANDS[command].help,
                     add_help=True)
    for opt in _COMMANDS[command].opts:
        if not opt.flag.startswith("-"):
            parser.add_argument(opt.dest, nargs="?", default=None, help=opt.help)
        elif opt.type is bool:
            parser.add_argument(opt.flag, dest=opt.dest, action="store_const",
                                const=True, default=None, help=opt.help)
        else:
            parser.add_argument(opt.flag, dest=opt.dest, type=opt.type, default=None,
                                choices=opt.choices, help=opt.help)
    parser.add_argument("--config", dest="config", type=str, default=None,
                        help="JSON file supplying any of the flags")
    return parser


def _read_lines(path: str, what: str) -> List[str]:
    """A text file's lines, ends kept; a line that is not UTF-8 raises an error naming it."""
    with open(path, "rb") as fh:
        return [decode_line(raw, i, f"{what} line") for i, raw in enumerate(fh, 1)]


def _write(path: str, write: Callable[[Any], Any], binary: bool = False) -> None:
    """Create or replace path and call write on it; text is UTF-8, its "\\n" untranslated."""
    text = {} if binary else {"encoding": "utf-8", "newline": ""}
    with open(path, "wb" if binary else "w", **text) as fh:
        write(fh)


def _load_config(path: str) -> Dict[str, Any]:
    lines = _read_lines(_require_file(path, "config file"), "config file")
    try:
        loaded = json.loads("".join(lines))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(loaded, dict):
        raise ValidationError("config file must hold a JSON object")
    keys = {opt.dest for command in _COMMANDS.values() for opt in command.opts}
    for key in loaded:
        if key not in keys:
            raise ValidationError(f"unknown config key {key!r}")
    return loaded


def _config_value(opt: _Opt, value: Any) -> Any:
    """A config file's value for opt, converted as argparse converts the flag's text."""
    if value is None:
        return value
    if opt.type is bool:
        if type(value) is bool:
            return value
        raise ValidationError(f"config key {opt.dest!r} expects a boolean, got {value!r}")
    if type(value) in (str, int, float):
        try:
            return opt.type(str(value))
        except ValueError:
            pass
    expects = opt.type.__name__ if opt.type in (int, float) else "str"
    raise ValidationError(f"config key {opt.dest!r} expects {expects}, got {value!r}")


def _merge(command: str, ns: argparse.Namespace) -> Dict[str, Any]:
    config = _load_config(ns.config) if ns.config else {}
    merged: Dict[str, Any] = {}
    for opt in _COMMANDS[command].opts:
        value = getattr(ns, opt.dest)
        if value is None and opt.dest in config:
            value = _config_value(opt, config[opt.dest])
        if value is None:
            value = opt.default
        if value is None and opt.required:
            raise ValidationError(f"missing required option {opt.flag}", "usage")
        if opt.choices and value is not None and value not in opt.choices:
            raise ValidationError(f"{opt.flag} must be one of {', '.join(opt.choices)}", "usage")
        merged[opt.dest] = value
    return merged


# the file each --out-dir command writes there besides its charts
_OUT_DIR_FILE = {"sweep": "histories.csv", "report": "summary.csv"}


def _claim(files: Dict[str, Tuple[str, str, bool]], label: str, path: str, writes: bool) -> None:
    """Record in files (real path -> (first label, its path, written)) that label reads or
    writes path. A written file may not be a directory, nor be named by another label."""
    if writes and os.path.isdir(path):
        raise ValidationError(f"output file is a directory: {path}")
    real = os.path.realpath(path)
    if real in files and (writes or files[real][2]):
        earlier, earlier_path, _ = files[real]
        writer, other, shown = (label, earlier, path) if writes else (earlier, label, earlier_path)
        raise ValidationError(f"{writer} names the same file as {other}: {shown}")
    files.setdefault(real, (label, path, writes))


def _check_outputs(command: str, opts: Dict[str, Any],
                   config: Optional[str]) -> Dict[str, Tuple[str, str, bool]]:
    """Apply _out_path to each ``writes`` option, and _claim to it, to each input and to the
    fixed file an --out-dir gets. Returns the claimed files, against which sweep and report
    claim what they learn later: a manifest's tables and the chart files.
    """
    files: Dict[str, Tuple[str, str, bool]] = {}
    if config:
        _claim(files, "--config", config, False)
    for opt in _COMMANDS[command].opts:
        path = opts[opt.dest]
        if path is not None and opt.writes:
            _out_path(opt.flag, path)
        if path is not None and (opt.reads or opt.writes):
            _claim(files, opt.flag, path[0] if isinstance(path, tuple) else path,  # PATH:FORMAT
                   opt.writes)
    if command in _OUT_DIR_FILE:
        _claim(files, "--out-dir", os.path.join(opts["out_dir"], _OUT_DIR_FILE[command]), True)
    return files


def _require_file(path: str, what: str) -> str:
    if not os.path.isfile(path):
        raise ValidationError(f"{what} not found: {path}")
    return path


def _read_dataset(path: str) -> corpus.PreparedDataset:
    _require_file(path, "dataset file")
    return corpus.read_dataset(_read_lines(path, "dataset"))


def _load_fused_matrix(path: str, dicts: corpus.CorpusDictionaries) -> np.ndarray:
    _require_file(path, "fused embedding file")
    with open(path, "rb") as fh:
        table = parse_embedding(fh, "w2v-bin", name=os.path.basename(path))
    return fusion.matrix_from_table(table, dicts)


def _training_inputs(
    opts: Dict[str, Any], paths: Sequence[Tuple[str, str]],
) -> Tuple[optim.SplitDataset, model.ModelConfig, List[Tuple[str, np.ndarray]]]:
    """The split, the model config and each (pair id, fused table path)'s matrix.

    Every flag rule runs, through the library's own check, before any table
    is parsed; the tables must then agree on their dim.
    """
    ds = _read_dataset(opts["dataset"])
    data = optim.SplitDataset.from_examples(ds.train, ds.test, ds.max_len)
    optim.check_loop(data, opts["epochs"], opts["batch"], opts["seed"])
    config = model.ModelConfig(
        max_len=ds.max_len,
        lstm_units=opts["lstm_units"],
        gru_units=opts["gru_units"],
        spatial_dropout_rate=opts["spatial_dropout"],
        dropout_rate=opts["dropout"],
        seed=opts["seed"],
    )
    if opts.get("lr") is not None:  # the rate rule is the same for every kind
        optim.OptimizerSpec(kind=opts.get("optimizer", "sgd"), learning_rate=opts["lr"])
    pairs = [(pair_id, _load_fused_matrix(path, ds.dicts)) for pair_id, path in paths]
    emb_dim = pairs[0][1].shape[1]
    for pair_id, matrix in pairs:
        if matrix.shape[1] != emb_dim:
            raise ValidationError(f"pair {pair_id!r} has dim {matrix.shape[1]}, expected {emb_dim}")
    return data, replace(config, emb_dim=emb_dim), pairs


def _safe_name(text: str) -> str:
    cleaned = re.sub(r"[^A-Za-z0-9._-]+", "_", text).strip("_")
    return cleaned or "pair"


def _chart_paths(pair_ids: Sequence[str], out_dir: str,
                 files: Dict[str, Tuple[str, str, bool]]) -> Dict[str, str]:
    """Each pair's chart file in out_dir, claimed in files; two pairs may not share one."""
    owners: Dict[str, str] = {}  # chart file name -> pair id
    for pair_id in pair_ids:
        name = f"{_safe_name(pair_id)}.svg"
        if name in owners:
            raise ValidationError(
                f"pairs {owners[name]!r} and {pair_id!r} would share the chart file {name}")
        owners[name] = pair_id
        _claim(files, "--out-dir", os.path.join(out_dir, name), True)
    return {pair_id: os.path.join(out_dir, name) for name, pair_id in owners.items()}


# --- command implementations ---

def _run_inspect(opts: Dict[str, Any]) -> None:
    path = _require_file(opts["file"], "embedding file")
    with open(path, "rb") as fh:
        table = parse_embedding(fh, opts["format"], name=os.path.basename(path))
    print(f"name={table.name}")
    print(f"format={opts['format']}")
    print(f"dim={table.dim}")
    print(f"vocab={len(table)}")
    print(f"mean_norm={float(np.linalg.norm(table.mean)):.6f}")
    for warning in table.warnings:
        print(f"WARNING: {warning}")


def _run_prepare(opts: Dict[str, Any]) -> None:
    _require_file(opts["csv"], "review CSV")
    lemmatizer = None
    if opts["lemma_table"]:
        _require_file(opts["lemma_table"], "lemma table")
        with open(opts["lemma_table"], "rb") as fh:
            lemmatizer = corpus.table_lemmatizer(corpus.load_lemma_table(fh))
    with open(opts["csv"], "rb") as fh:
        records, dropped = corpus.load_reviews_csv(fh)
    ds, report = corpus.prepare_corpus(
        records,
        loaded=len(records) + dropped,
        dropped=dropped,
        buckets=opts["buckets"],
        include_title=not opts["no_title"],
        max_len=opts["max_len"],
        train_fraction=opts["train_fraction"],
        seed=opts["seed"],
        lemmatizer=lemmatizer,
    )
    _write(opts["out"], lambda fh: corpus.write_dataset(ds, fh))
    for line in report.lines():
        print(line)
    print(f"wrote {opts['out']}")


def _run_fuse(opts: Dict[str, Any]) -> None:
    fusion.check_unknown_fill(opts["unknown_fill"])
    ds = _read_dataset(opts["dataset"])
    tables = []
    for path, fmt in (opts["emb1"], opts["emb2"]):
        with open(path, "rb") as fh:
            tables.append(parse_embedding(fh, fmt, name=os.path.basename(path)))
    emb1, emb2 = tables
    for table in tables:
        for warning in table.warnings:
            print(f"WARNING: {table.name}: {warning}")
    if len(emb2) > len(emb1):
        print(
            f"WARNING: second table ({len(emb2)} words) is larger than the first "
            f"({len(emb1)} words); the first table is treated as the primary space"
        )
    fused = fusion.build_fused_matrix(
        ds.dicts, emb1, emb2,
        unknown_fill=opts["unknown_fill"],
        fallback_order=opts["fallback_order"],
    )
    payload = write_word2vec_binary(fusion.fused_to_table(fused, ds.dicts))
    _write(opts["out"], lambda fh: fh.write(payload), binary=True)
    for line in fused.lines():
        print(line)
    if opts["report"]:
        _write(opts["report"], lambda fh: csv.writer(fh, lineterminator="\n").writerows(
            [["key", "value"], *fused.rows()]))
    print(f"wrote {opts['out']}")


def _run_lr_find(opts: Dict[str, Any]) -> None:
    data, config, [(_, matrix)] = _training_inputs(opts, [("", opts["fused"])])
    failure = None
    try:
        best, probes = optim.lr_range_search(
            data, matrix, config, opts["optimizer"],
            grid=opts["grid"], epochs=opts["epochs"], batch_size=opts["batch"], seed=opts["seed"],
        )
    except AllDivergedError as exc:  # still report the table, then fail
        failure, probes = exc, exc.probes
    for probe in probes:
        if probe.diverged:
            print(f"lr={probe.learning_rate:.3e} diverged")
        else:
            print(f"lr={probe.learning_rate:.3e} final_train_loss={probe.final_loss:.6f}")
    if failure is None:
        print(f"best_lr={best!r}")
    if opts["out"]:
        _write(opts["out"], lambda fh: optim.write_lr_table(probes, fh))
    if opts["svg"]:
        _write_chart(opts["svg"],
                     lambda: charts.lr_chart(probes, f"{opts['optimizer']} learning-rate search"),
                     "fewer than 2 learning rates completed without diverging")
    if failure is not None:
        raise failure


def _run_train(opts: Dict[str, Any]) -> None:
    data, config, [(_, matrix)] = _training_inputs(opts, [("", opts["fused"])])
    lr = opts["lr"] if opts["lr"] is not None else optim.DEFAULT_LR[opts["optimizer"]]
    spec = optim.OptimizerSpec(kind=opts["optimizer"], learning_rate=lr)
    params, hist = optim.train(
        data, matrix, config, spec,
        epochs=opts["epochs"], batch_size=opts["batch"], seed=opts["seed"],
    )
    for i, epoch in enumerate(hist.epochs):
        print(
            f"epoch {epoch}: train_loss={hist.train_loss[i]:.6f} "
            f"train_acc={hist.train_accuracy[i]:.4f} "
            f"test_loss={hist.test_loss[i]:.6f} test_acc={hist.test_accuracy[i]:.4f}"
        )
    if hist.diverged:
        print(f"diverged at epoch {hist.diverged_epoch}")
    _write(opts["out"], lambda fh: model.save_checkpoint(fh, params, config), binary=True)
    if opts["history"]:
        _write(opts["history"], lambda fh: optim.write_history_csv([hist], fh))
    print(f"wrote {opts['out']}")


def _read_manifest(path: str) -> List[Tuple[str, str]]:
    """The (pair id, fused table path) rows of a pair manifest; each path must exist."""
    _require_file(path, "pair manifest")
    rows = csv_rows(_read_lines(path, "pair manifest"), "pair manifest line")
    _, header = next(rows, (0, None))
    if header is None or [h.strip().lower() for h in header[:2]] != ["pair", "path"]:
        raise ValidationError("pair manifest must start with a 'pair,path' header")
    base = os.path.dirname(os.path.abspath(path))
    pairs: List[Tuple[str, str]] = []
    for line_no, row in rows:
        if not row or not any(cell.strip() for cell in row):
            continue
        if len(row) < 2:
            raise ValidationError(
                f"pair manifest line {line_no}: expected 2 fields (pair,path), got {len(row)}")
        pair_id = row[0].strip()
        emb_path = row[1].strip()
        if not os.path.isabs(emb_path):
            emb_path = os.path.join(base, emb_path)
        pairs.append((pair_id, _require_file(emb_path, "fused embedding file")))
    if not pairs:
        raise ValidationError("pair manifest lists no pairs")
    return pairs


def _write_chart(svg_path: str, render: Callable[[], str], why: str) -> None:
    """Write the chart render() draws, or print one line saying why it was skipped.

    render raises EmptySeriesError when it has fewer than two points to draw.
    """
    try:
        svg = render()
    except EmptySeriesError:
        print(f"skipped chart {svg_path}: {why}")
        return
    _write(svg_path, lambda fh: fh.write(svg))


def _write_history_chart(histories, pair_id: str, svg_path: str) -> None:
    """The per-pair loss chart; it needs some run of the pair with two or more epochs."""
    group = [h for h in histories if h.pair == pair_id]
    shown = pair_id or "(unnamed)"
    _write_chart(svg_path,
                 lambda: charts.history_chart(group, f"train loss by optimizer: {shown}"),
                 f"no run of {shown} recorded 2 or more epochs")


def _run_sweep(opts: Dict[str, Any]) -> None:
    manifest = _read_manifest(opts["pairs"])
    for pair_id, path in manifest:
        _claim(opts["files"], f"pair {pair_id!r} of --pairs", path, False)
    pair_ids = [pair_id for pair_id, _ in manifest]
    kinds = opts["optimizers"]
    optim.check_sweep_cells(kinds, pair_ids)
    svgs = _chart_paths(pair_ids, opts["out_dir"], opts["files"])
    data, config, pairs = _training_inputs(opts, manifest)
    lr = opts["lr"]
    if lr is None:
        lr, _ = optim.lr_range_search(
            data, pairs[0][1], config, "sgd",
            batch_size=opts["batch"], seed=opts["seed"],
        )
        print(f"shared lr from sgd range search on {pairs[0][0]}: {lr!r}")
    histories = optim.optimizer_sweep(
        data, config, pairs,
        learning_rate=lr, kinds=kinds,
        epochs=opts["epochs"], batch_size=opts["batch"], seed=opts["seed"],
    )
    os.makedirs(opts["out_dir"], exist_ok=True)
    csv_path = os.path.join(opts["out_dir"], _OUT_DIR_FILE["sweep"])
    _write(csv_path, lambda fh: optim.write_history_csv(histories, fh))
    for pair_id, svg_path in svgs.items():
        _write_history_chart(histories, pair_id, svg_path)
    for h in histories:
        if h.diverged:
            print(f"{h.pair} {h.optimizer}: diverged at epoch {h.diverged_epoch}")
        else:
            print(
                f"{h.pair} {h.optimizer}: train_loss={h.train_loss[-1]:.6f} "
                f"test_acc={h.test_accuracy[-1]:.4f}"
            )
    print(f"wrote {csv_path}")


def _run_eval(opts: Dict[str, Any]) -> None:
    ds = _read_dataset(opts["dataset"])
    _require_file(opts["ckpt"], "checkpoint")
    with open(opts["ckpt"], "rb") as fh:
        params, config = model.load_checkpoint(fh)
    rows = len(params.embedding)
    if ds.dicts.vocab_size != rows or ds.max_len != config.max_len:
        raise ValidationError(
            f"dataset (vocab_size {ds.dicts.vocab_size}, max_len {ds.max_len}) does not fit the "
            f"checkpoint (embedding rows {rows}, max_len {config.max_len})", "dim-mismatch")
    data = optim.SplitDataset.from_examples(ds.train, ds.test, ds.max_len)
    x, y = (data.train_x, data.train_y) if opts["split"] == "train" else (data.test_x, data.test_y)
    probs = model.predict_proba(x, params, config)
    loss, acc = model.loss_accuracy(probs, y)
    cm = model.confusion_matrix(model.classify(probs), y)
    print(f"split={opts['split']} examples={len(y)} loss={loss:.6f} accuracy={acc:.6f}")
    print("confusion (rows=truth bad/neutral/good, cols=predicted):")
    for row in cm:
        print("  " + " ".join(f"{int(v):5d}" for v in row))
    for label in corpus.SentimentLabel:  # nan where a denominator is 0, as loss_accuracy
        hits, predicted, actual = cm[label, label], cm[:, label].sum(), cm[label].sum()
        precision = hits / predicted if predicted else float("nan")
        recall = hits / actual if actual else float("nan")
        print(f"class={label.name} precision={precision:.6f} recall={recall:.6f}")


def _run_report(opts: Dict[str, Any]) -> None:
    _require_file(opts["history"], "history CSV")
    histories = optim.read_history_csv(_read_lines(opts["history"], "history CSV"))
    if not histories:
        raise ValidationError("history CSV holds no runs")
    pair_ids = list(dict.fromkeys(h.pair for h in histories))
    svgs = _chart_paths(pair_ids, opts["out_dir"], opts["files"])
    os.makedirs(opts["out_dir"], exist_ok=True)
    for pair_id, svg_path in svgs.items():
        _write_history_chart(histories, pair_id, svg_path)
    summary_path = os.path.join(opts["out_dir"], _OUT_DIR_FILE["report"])
    _write(summary_path, lambda fh: csv.writer(fh, lineterminator="\n").writerows([
        ["pair", "optimizer", "learning_rate", "epochs",
         "final_train_loss", "final_test_accuracy", "diverged"],
        *([h.pair, h.optimizer, repr(h.learning_rate), len(h.train_loss),
           repr(h.train_loss[-1]) if h.train_loss else "",
           repr(h.test_accuracy[-1]) if h.test_accuracy else "",
           int(h.diverged)] for h in histories),
    ]))
    for pair_id in pair_ids:
        shown = pair_id or "(unnamed)"
        scored = [h for h in histories if h.pair == pair_id and h.test_accuracy]
        if scored:
            best = max(scored, key=lambda h: h.test_accuracy[-1])
            print(f"{shown}: best={best.optimizer} test_acc={best.test_accuracy[-1]:.4f}")
        else:
            print(f"{shown}: no completed runs")
    print(f"wrote {summary_path}")


# every command, in the order --help lists them
_COMMANDS: Dict[str, _Command] = {
    "inspect": _Command("parse an embedding file and print its stats", [
        _Opt("file", str, help="embedding file to inspect", required=True, reads=True),
        _Opt("--format", str, help="file format", required=True, choices=FORMATS),
    ], _run_inspect),
    "prepare": _Command("build an encoded dataset from a review CSV", [
        _Opt("--csv", str, help="review CSV to ingest", required=True, reads=True),
        _Opt("--out", str, help="dataset file to write", required=True, writes=True),
        _Opt("--seed", int, 0, "seed for the train/test split"),
        _Opt("--buckets", corpus.parse_buckets, corpus.DEFAULT_BUCKETS,
             "star buckets as bad/neutral/good"),
        _Opt("--no-title", bool, False, "ignore the review title column"),
        _Opt("--max-len", int, corpus.MAX_LEN, "encoded sequence length"),
        _Opt("--train-fraction", float, 0.9, "share of examples in train"),
        _Opt("--lemma-table", str, help="token<TAB>lemma file replacing the built-in lemmatizer",
             reads=True),
    ], _run_prepare),
    "fuse": _Command("fuse two embedding tables over a dataset vocabulary", [
        _Opt("--emb1", _split_emb_arg, help="first table as PATH:FORMAT", required=True,
             reads=True),
        _Opt("--emb2", _split_emb_arg, help="second table as PATH:FORMAT", required=True,
             reads=True),
        _Opt("--dataset", str, help="prepared dataset file", required=True, reads=True),
        _Opt("--out", str, help="fused embedding file to write", required=True, writes=True),
        _Opt("--report", str, help="branch-count CSV to write", writes=True),
        _Opt("--unknown-fill", float, 0.0, "value for rows of unknown words"),
        _Opt("--fallback-order", _stage_list, fusion.FALLBACK_STAGES,
             "comma-separated key fallback stages"),
    ], _run_fuse),
    "lr-find": _Command("search a learning-rate grid with short training runs",
                        _TRAIN_COMMON + _MODEL_OPTS + [
        _Opt("--optimizer", str, "adam", "update rule to probe", choices=optim.OPTIMIZER_KINDS),
        _Opt("--grid", optim.parse_lr_grid, help="learning-rate grid lo:hi:logN"),
        _Opt("--epochs", int, 3, "epochs per probe"),
        _Opt("--out", str, help="loss-per-rate CSV to write", writes=True),
        _Opt("--svg", str, help="loss-versus-rate chart to write", writes=True),
    ], _run_lr_find),
    "train": _Command("train the classifier and save a checkpoint", _TRAIN_COMMON + _MODEL_OPTS + [
        _Opt("--optimizer", str, help="update rule", required=True, choices=optim.OPTIMIZER_KINDS),
        _Opt("--lr", float, help="learning rate (default: per-optimizer)"),
        _Opt("--epochs", int, 20, "training epochs"),
        _Opt("--out", str, help="checkpoint file to write", required=True, writes=True),
        _Opt("--history", str, help="per-epoch metrics CSV to write", writes=True),
    ], _run_train),
    "sweep": _Command("train every optimizer on every embedding pair", [
        _Opt("--dataset", str, help="prepared dataset file", required=True, reads=True),
        _Opt("--pairs", str, help="manifest CSV with pair,path rows", required=True, reads=True),
        _Opt("--optimizers", _kind_list, optim.OPTIMIZER_KINDS, "comma-separated update rules"),
        _Opt("--lr", float, help="learning rate shared by every cell (default: sgd range search)"),
        _Opt("--epochs", int, 20, "training epochs per cell"),
        _Opt("--batch", int, 32, "mini-batch size"),
        _Opt("--seed", int, 7, "seed shared by every cell"),
        _Opt("--out-dir", _out_dir, help="directory for histories.csv and charts", required=True),
    ] + _MODEL_OPTS, _run_sweep),
    "eval": _Command("score a checkpoint on a dataset split", [
        _Opt("--dataset", str, help="prepared dataset file", required=True, reads=True),
        _Opt("--ckpt", str, help="checkpoint to evaluate", required=True, reads=True),
        _Opt("--split", str, "test", "which split to score", choices=("train", "test")),
    ], _run_eval),
    "report": _Command("re-render charts and summaries from a history CSV", [
        _Opt("--history", str, help="history CSV from train or sweep", required=True, reads=True),
        _Opt("--out-dir", _out_dir, help="directory for charts and summary.csv", required=True),
    ], _run_report),
}


def _usage() -> str:
    lines = ["usage: embfuse <command> [options]", "", "commands:"]
    for name, command in _COMMANDS.items():
        lines.append(f"  {name:<10} {command.help}")
    lines.append("")
    lines.append("run 'embfuse <command> --help' for the command's options")
    return "\n".join(lines)


def dispatch(argv: Sequence[str]) -> int:
    """Parse and run one invocation; returns the process exit code."""
    try:
        if not argv:
            print(_usage(), file=sys.stderr)
            raise ValidationError("missing command", "usage")
        if argv[0] in ("-h", "--help"):
            print(_usage())
            return 0
        command = argv[0]
        if command not in _COMMANDS:
            raise ValidationError(f"unknown command {command!r}; see 'embfuse --help'",
                                  "unknown-command")
        parser = _build_parser(command)
        ns = parser.parse_args(list(argv[1:]))
        opts = _merge(command, ns)
        opts["files"] = _check_outputs(command, opts, ns.config)
        _COMMANDS[command].run(opts)
        return 0
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return int(code) if code else 0
    except EmbfuseError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"ERROR io: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    return dispatch(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
