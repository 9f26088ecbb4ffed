"""Seeded corruption of the CLI's inputs: every run exits 0, or exits 1 with one ERROR line.

A prepared dataset, a history CSV, a config file, a pair manifest, a review
CSV, a lemma table, the glove and fasttext embedding fixtures and a fused
w2v-bin table each get truncations, byte flips, non-UTF-8 bytes, wrong field
counts and non-numeric fields; a trained checkpoint gets the byte-level
corruptions only. Each case draws from one seeded generator.
Each corrupted file goes through ``cli.dispatch`` in-process, in the command that reads it.
Every numeric flag of prepare, fuse, lr-find, train and sweep (and the
bounds of lr-find's grid) also takes each of -1, 0, nan and inf, on the
command line and through --config. Every text flag that names things (update
rules, fallback stages, tables, star buckets, a split) takes an empty value,
an unknown name, a repeated name and, for a table, a missing ``:FORMAT``, by
both routes. A run with a bad flag value that fails parses no embedding table
and starts no learning-rate search.
A run must exit 0 with nothing on stderr, or exit 1 (the code of every bad
input, whatever its ``<code>``) and print exactly one
``ERROR <code>: <message>`` line; it must never raise or warn.
"""
import json
import math
import os
import re
import warnings

import pytest

from embfuse import cli, optim
from embfuse.cli import _COMMANDS, dispatch
from embfuse.seeding import derive_rng

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
GLOVE = os.path.join(FIXTURES, "vectors_a_glove.txt")
FASTTEXT = os.path.join(FIXTURES, "vectors_b_fasttext.txt")
TINY_MODEL = ["--lstm-units", "6", "--gru-units", "4",
              "--spatial-dropout", "0.0", "--dropout", "0.0"]
SEEDS = range(4)
ERROR_LINE = re.compile(r"ERROR [a-z0-9-]+: [^\n]+\n")
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")

HISTORY = (
    "pair,optimizer,learning_rate,seed,epoch,"
    "train_loss,train_accuracy,test_loss,test_accuracy,run_diverged\n"
    "glove+fasttext,sgd,0.05,3,1,1.0986,0.3333,1.0912,0.25,0\n"
    "glove+fasttext,sgd,0.05,3,2,1.0512,0.4167,1.0804,0.5,0\n"
    "glove+fasttext,adam,0.05,3,1,1.2034,0.3056,1.1021,0.25,0\n"
    "glove+fasttext,adam,0.05,3,2,1.1177,0.3611,1.0466,0.5,0\n"
    "other,sgd,1e+307,3,0,,,,,1\n"
)
CONFIG = ('{"format": "glove", "seed": 3, "max_len": 16, "no_title": false,\n'
          ' "lr": 0.05, "grid": "1e-4:1e-2:log3"}\n')
LEMMAS = "rooms\troom\nvisited\tvisit\n2nd\tsecond\nwas\tbe\n"


# --- corruptions: each maps (data, rng, separators) to corrupted bytes ---

def truncate(data, rng, seps):
    return data[:int(rng.integers(0, len(data)))]


def flip_byte(data, rng, seps):
    i = int(rng.integers(len(data)))
    return data[:i] + bytes([data[i] ^ int(rng.integers(1, 256))]) + data[i + 1:]


def insert_non_utf8(data, rng, seps):
    i = int(rng.integers(len(data) + 1))
    return data[:i] + [b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"][int(rng.integers(4))] + data[i:]


def _edit_fields(data, rng, seps, edit):
    lines = data.split(b"\n")
    candidates = [i for i, line in enumerate(lines) if any(s in line for s in seps)]
    at = candidates[int(rng.integers(len(candidates)))]
    present = [s for s in seps if s in lines[at]]
    sep = present[int(rng.integers(len(present)))]
    fields = lines[at].split(sep)
    edit(fields, int(rng.integers(len(fields))))
    lines[at] = sep.join(fields)
    return b"\n".join(lines)


def drop_field(data, rng, seps):
    return _edit_fields(data, rng, seps, lambda fields, k: fields.pop(k))


def repeat_field(data, rng, seps):
    return _edit_fields(data, rng, seps, lambda fields, k: fields.insert(k, fields[k]))


def non_numeric(data, rng, seps):
    numbers = list(NUMBER.finditer(data))
    m = numbers[int(rng.integers(len(numbers)))]
    text = [b"abc", b"", b"1.5", b"nan", b"-7", b"1e999"][int(rng.integers(6))]
    return data[:m.start()] + text + data[m.end():]


BYTE_CORRUPTIONS = [truncate, flip_byte, insert_non_utf8]
CORRUPTIONS = BYTE_CORRUPTIONS + [drop_field, repeat_field, non_numeric]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The pristine inputs, plus the dataset and checkpoint the commands use."""
    root = tmp_path_factory.mktemp("corruption")
    dataset, fused, ckpt = str(root / "d.ds"), str(root / "f.bin"), str(root / "m.ckpt")
    assert dispatch(["prepare", "--csv", os.path.join(FIXTURES, "reviews_50.csv"),
                     "--out", dataset, "--max-len", "16", "--seed", "0"]) == 0
    assert dispatch(["fuse", "--emb1", GLOVE + ":glove", "--emb2", FASTTEXT + ":fasttext",
                     "--dataset", dataset, "--out", fused]) == 0
    assert dispatch(["train", "--dataset", dataset, "--fused", fused, "--optimizer", "sgd",
                     "--lr", "0.05", "--epochs", "1", "--batch", "8", "--out", ckpt,
                     *TINY_MODEL]) == 0
    def read(path):
        with open(path, "rb") as fh:
            return fh.read()

    manifest = f"pair,path\nglove+fasttext,{fused}\nagain,{fused}\n".encode()
    return {"dataset": dataset, "ckpt": ckpt, "bytes": {
        "dataset": read(dataset), "history": HISTORY.encode(), "config": CONFIG.encode(),
        "manifest": manifest, "reviews": read(os.path.join(FIXTURES, "reviews_50.csv")),
        "lemmas": LEMMAS.encode(),
        "glove": read(GLOVE), "fasttext": read(FASTTEXT), "fused": read(fused),
        "ckpt": read(ckpt)}}


# (input, separators of its fields or None for byte-level corruptions only,
#  argv for the corrupted file at path, scratch dir out)
TARGETS = {
    "dataset-fuse": ("dataset", (b"\t", b" "), lambda inp, path, out: [
        "fuse", "--emb1", GLOVE + ":glove", "--emb2", FASTTEXT + ":fasttext",
        "--dataset", path, "--out", os.path.join(out, "f.bin")]),
    "dataset-eval": ("dataset", (b"\t", b" "), lambda inp, path, out: [
        "eval", "--dataset", path, "--ckpt", inp["ckpt"]]),
    "history-report": ("history", (b",",), lambda inp, path, out: [
        "report", "--history", path, "--out-dir", out]),
    "config-inspect": ("config", (b",", b": "), lambda inp, path, out: [
        "inspect", GLOVE, "--config", path]),
    "reviews-prepare": ("reviews", (b",",), lambda inp, path, out: [
        "prepare", "--csv", path, "--out", os.path.join(out, "d.ds"), "--max-len", "16"]),
    "lemmas-prepare": ("lemmas", (b"\t",), lambda inp, path, out: [
        "prepare", "--csv", os.path.join(FIXTURES, "reviews_50.csv"), "--lemma-table", path,
        "--out", os.path.join(out, "d.ds"), "--max-len", "16"]),
    "manifest-sweep": ("manifest", (b",",), lambda inp, path, out: [
        "sweep", "--dataset", inp["dataset"], "--pairs", path, "--optimizers", "sgd",
        "--lr", "0.05", "--epochs", "1", "--batch", "8", "--out-dir", out, *TINY_MODEL]),
    "glove-inspect": ("glove", (b" ",), lambda inp, path, out: [
        "inspect", path, "--format", "glove"]),
    "fasttext-inspect": ("fasttext", (b" ",), lambda inp, path, out: [
        "inspect", path, "--format", "fasttext"]),
    "fused-inspect": ("fused", (b" ",), lambda inp, path, out: [
        "inspect", path, "--format", "w2v-bin"]),
    "fused-train": ("fused", (b" ",), lambda inp, path, out: [
        "train", "--dataset", inp["dataset"], "--fused", path, "--optimizer", "sgd",
        "--lr", "0.05", "--epochs", "1", "--batch", "8", "--out", os.path.join(out, "m.ckpt"),
        *TINY_MODEL]),
    "ckpt-eval": ("ckpt", None, lambda inp, path, out: [
        "eval", "--dataset", inp["dataset"], "--ckpt", path]),
}
CASES = [(target, corrupt) for target in sorted(TARGETS)
         for corrupt in (CORRUPTIONS if TARGETS[target][1] else BYTE_CORRUPTIONS)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("target,corrupt", CASES, ids=[f"{t}-{c.__name__}" for t, c in CASES])
def test_corrupted_input_ends_in_exit_0_or_one_error_line(
        capsys, tmp_path, inputs, target, corrupt, seed):
    kind, seps, argv = TARGETS[target]
    rng = derive_rng(seed, "corruption", target, corrupt.__name__)
    path = tmp_path / f"corrupt.{kind}"
    path.write_bytes(corrupt(inputs["bytes"][kind], rng, seps))
    (tmp_path / "out").mkdir()
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = dispatch(argv(inputs, str(path), str(tmp_path / "out")))
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    if code == 0:
        assert err == ""
    else:
        assert code == 1
        assert ERROR_LINE.fullmatch(err), err


# --- out-of-range flag values ---

def flag_argv(command, inp, out):
    """A small valid invocation of command whose outputs go to out."""
    fit = ["--epochs", "1", "--batch", "8", "--seed", "3", *TINY_MODEL]
    return {
        "prepare": ["prepare", "--csv", os.path.join(FIXTURES, "reviews_50.csv"),
                    "--out", os.path.join(out, "d.ds"), "--max-len", "16", "--seed", "3",
                    "--train-fraction", "0.9"],
        "fuse": ["fuse", "--emb1", GLOVE + ":glove", "--emb2", FASTTEXT + ":fasttext",
                 "--dataset", inp["dataset"], "--out", os.path.join(out, "f.bin"),
                 "--unknown-fill", "0.5"],
        "lr-find": ["lr-find", "--dataset", inp["dataset"], "--fused", inp["fused"],
                    "--optimizer", "sgd", "--grid", "1e-3:1e-2:log2", *fit],
        "train": ["train", "--dataset", inp["dataset"], "--fused", inp["fused"],
                  "--optimizer", "sgd", "--lr", "0.05", "--out", os.path.join(out, "m.ckpt"),
                  *fit],
        "sweep": ["sweep", "--dataset", inp["dataset"], "--pairs", inp["manifest"],
                  "--optimizers", "sgd", "--lr", "0.05", "--out-dir", out, *fit],
        "eval": ["eval", "--dataset", inp["dataset"], "--ckpt", inp["ckpt"], "--split", "test"],
    }[command]


FLAG_VALUES = {"-1": -1, "0": 0, "nan": math.nan, "inf": math.inf}  # text -> JSON value
GRID_WITH = {"-1": "-1:1e-2:log3", "0": "0:1e-2:log3",
             "nan": "1e-3:nan:log3", "inf": "1e-3:inf:log3"}
FLAGS = [(command, opt) for command in ("prepare", "fuse", "lr-find", "train", "sweep")
         for opt in _COMMANDS[command].opts if opt.type in (int, float) or opt.dest == "grid"]
FLAG_CASES = [(command, opt, value, route) for command, opt in FLAGS
              for value in FLAG_VALUES for route in ("flag", "config")]


@pytest.fixture
def heavy_calls(monkeypatch):
    """The embedding tables parsed and the learning-rate searches started, in order."""
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "parse_embedding", counting(cli.parse_embedding))
    monkeypatch.setattr(optim, "lr_range_search", counting(optim.lr_range_search))
    return calls


@pytest.fixture(scope="module")
def flag_inputs(inputs, tmp_path_factory):
    """inputs plus the fused table and a one-pair manifest the training commands read."""
    root = tmp_path_factory.mktemp("flags")
    fused, manifest = root / "f.bin", root / "pairs.csv"
    fused.write_bytes(inputs["bytes"]["fused"])
    manifest.write_text(f"pair,path\na,{fused}\n")
    return {**inputs, "fused": str(fused), "manifest": str(manifest)}


# text flags: (command, flag, a valid value, the separator between its names)
TEXT_FLAGS = [
    ("sweep", "--optimizers", "sgd", ","),
    ("lr-find", "--optimizer", "sgd", ","),
    ("train", "--optimizer", "sgd", ","),
    ("fuse", "--fallback-order", "exact,lower", ","),
    ("fuse", "--emb1", GLOVE + ":glove", ":"),
    ("fuse", "--emb2", FASTTEXT + ":fasttext", ":"),
    ("prepare", "--buckets", "1-2/3/4-5", "/"),
    ("eval", "--split", "test", ","),
]


def text_values(valid, sep):
    """An empty value, an unknown last name, a repeated last name and, for PATH:FORMAT, no format."""
    names = valid.split(sep)
    values = {"empty": "", "unknown": sep.join(names[:-1] + ["bogus"]),
              "repeated": sep.join(names + names[-1:])}
    if sep == ":":
        values["no-format"] = sep.join(names[:-1])
    return values


TEXT_CASES = [(command, flag, value, text, route) for command, flag, valid, sep in TEXT_FLAGS
              for value, text in text_values(valid, sep).items() for route in ("flag", "config")]


@pytest.mark.parametrize("command", sorted({command for command, _ in FLAGS}
                                           | {command for command, *_ in TEXT_FLAGS}))
def test_flag_invocation_is_valid_as_given(capsys, tmp_path, flag_inputs, command):
    """Each case below changes one flag of an invocation that succeeds."""
    assert dispatch(flag_argv(command, flag_inputs, str(tmp_path))) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command,opt,value,route", FLAG_CASES, ids=[
    f"{command}{opt.flags[0]}={value}-{route}" for command, opt, value, route in FLAG_CASES])
def test_out_of_range_flag_value_ends_in_exit_0_or_one_error_line(
        capsys, tmp_path, heavy_calls, flag_inputs, command, opt, value, route):
    flag = opt.flags[0]
    argv = flag_argv(command, flag_inputs, str(tmp_path))
    if flag in argv:
        at = argv.index(flag)
        del argv[at:at + 2]
    grid = opt.dest == "grid"
    if route == "flag":
        argv.append(f"{flag}={GRID_WITH[value] if grid else value}")
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({opt.dest: GRID_WITH[value] if grid else FLAG_VALUES[value]}))
        argv += ["--config", str(config)]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = dispatch(argv)
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    if code == 0:
        assert err == ""
    else:
        assert code == 1
        assert ERROR_LINE.fullmatch(err), err
        assert heavy_calls == []


@pytest.mark.parametrize("command,flag,value,text,route", TEXT_CASES, ids=[
    f"{command}{flag}={value}-{route}" for command, flag, value, _, route in TEXT_CASES])
def test_bad_text_flag_fails_before_any_table_parse(
        capsys, tmp_path, heavy_calls, flag_inputs, command, flag, value, text, route):
    argv = flag_argv(command, flag_inputs, str(tmp_path))
    if flag in argv:
        at = argv.index(flag)
        del argv[at:at + 2]
    if route == "flag":
        argv.append(f"{flag}={text}")
    else:
        dest = next(opt.dest for opt in _COMMANDS[command].opts if flag in opt.flags)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({dest: text}))
        argv += ["--config", str(config)]
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = dispatch(argv)
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    if code == 0:
        assert err == ""
    else:
        assert code == 1
        assert ERROR_LINE.fullmatch(err), err
        assert heavy_calls == []
