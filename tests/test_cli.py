"""End-to-end command-line tests driven through dispatch()."""
import csv
import json
import os
import shutil
import warnings
from dataclasses import replace

import numpy as np
import pytest

from embfuse import cli, model, optim
from embfuse.cli import dispatch

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_without_warnings(capsys, *argv):
    """run(), failing on any warning the invocation raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(capsys, *argv)


def glove_a():
    return os.path.join(FIXTURES, "vectors_a_glove.txt")


def fasttext_b():
    return os.path.join(FIXTURES, "vectors_b_fasttext.txt")


class TestDispatchBasics:
    def test_no_command_is_usage_error(self, capsys):
        code, out, err = run(capsys)
        assert code == 1
        assert "usage: embfuse" in err
        assert "ERROR usage:" in err

    def test_help_exits_zero(self, capsys):
        code, out, err = run(capsys, "--help")
        assert code == 0
        assert "commands:" in out
        assert "sweep" in out

    def test_subcommand_help_exits_zero(self, capsys):
        code, out, err = run(capsys, "train", "--help")
        assert code == 0

    def test_help_text_is_pinned(self, capsys):
        code, out, err = run(capsys, "--help")
        assert (code, err) == (0, "")
        assert out == (
            "usage: embfuse <command> [options]\n"
            "\n"
            "commands:\n"
            "  inspect    parse an embedding file and print its stats\n"
            "  prepare    build an encoded dataset from a review CSV\n"
            "  fuse       fuse two embedding tables over a dataset vocabulary\n"
            "  lr-find    search a learning-rate grid with short training runs\n"
            "  train      train the classifier and save a checkpoint\n"
            "  sweep      train every optimizer on every embedding pair\n"
            "  eval       score a checkpoint on a dataset split\n"
            "  report     re-render charts and summaries from a history CSV\n"
            "\n"
            "run 'embfuse <command> --help' for the command's options\n"
        )

    @pytest.mark.parametrize("command,description", [
        ("inspect", "parse an embedding file and print its stats"),
        ("prepare", "build an encoded dataset from a review CSV"),
        ("fuse", "fuse two embedding tables over a dataset vocabulary"),
        ("lr-find", "search a learning-rate grid with short training runs"),
        ("train", "train the classifier and save a checkpoint"),
        ("sweep", "train every optimizer on every embedding pair"),
        ("eval", "score a checkpoint on a dataset split"),
        ("report", "re-render charts and summaries from a history CSV"),
    ])
    def test_command_help_shows_its_description(self, capsys, command, description):
        code, out, err = run(capsys, command, "--help")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: embfuse {command} [-h]")
        assert out.split("\n\n")[1] == description

    def test_unknown_command(self, capsys):
        code, out, err = run(capsys, "frobnicate")
        assert code == 1
        assert "ERROR unknown-command:" in err

    def test_missing_required_flag(self, capsys):
        code, out, err = run(capsys, "prepare", "--out", "x.ds")
        assert code == 1
        assert "ERROR usage:" in err

    def test_unknown_flag(self, capsys):
        code, out, err = run(capsys, "inspect", glove_a(), "--format", "glove",
                             "--wat", "1")
        assert code == 1
        assert "ERROR usage:" in err

    def test_missing_input_file(self, capsys):
        code, out, err = run(capsys, "inspect", "/no/such/file.txt",
                             "--format", "glove")
        assert code == 1
        assert "ERROR" in err and "not found" in err

    def test_bad_choice_value(self, capsys):
        code, out, err = run(capsys, "inspect", glove_a(), "--format", "pickle")
        assert code == 1
        assert "ERROR usage:" in err


class TestConfigFile:
    def test_config_supplies_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"format": "glove"}')
        code, out, err = run(capsys, "inspect", glove_a(), "--config", str(cfg))
        assert code == 0
        assert "format=glove" in out

    def test_explicit_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"format": "fasttext"}')
        code, out, err = run(capsys, "inspect", fasttext_b(), "--format", "fasttext",
                             "--config", str(cfg))
        assert code == 0
        assert "vocab=13" in out

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"formatt": "glove"}')
        code, out, err = run(capsys, "inspect", glove_a(), "--config", str(cfg))
        assert code == 1
        assert "unknown config key" in err

    def test_malformed_json_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{nope")
        code, out, err = run(capsys, "inspect", glove_a(), "--config", str(cfg))
        assert code == 1
        assert "not valid JSON" in err

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_config_path_that_is_not_a_file_rejected(self, capsys, tmp_path, kind):
        cfg = tmp_path / "cfg.json"
        if kind == "directory":
            cfg.mkdir()
        code, out, err = run(capsys, "inspect", glove_a(), "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err == f"ERROR invalid: config file not found: {cfg}\n"

    def test_non_object_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('[1, 2]')
        code, out, err = run(capsys, "inspect", glove_a(), "--config", str(cfg))
        assert code == 1
        assert "JSON object" in err

    @pytest.mark.parametrize("value, shown", [('"abc"', "'abc'"), ("[3]", "[3]")])
    def test_config_value_of_wrong_type_rejected(self, capsys, tmp_path, value, shown):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"max_len": %s}' % value)
        code, out, err = run(capsys, "prepare",
                             "--csv", os.path.join(FIXTURES, "reviews_50.csv"),
                             "--out", str(tmp_path / "d.ds"), "--config", str(cfg))
        assert code == 1
        assert err == f"ERROR invalid: config key 'max_len' expects int, got {shown}\n"
        assert not (tmp_path / "d.ds").exists()


    @pytest.mark.parametrize("value, shown", [
        ('"no"', "'no'"), ('"true"', "'true'"), ("0", "0"), ("1", "1")])
    def test_flag_value_must_be_a_boolean(self, capsys, tmp_path, value, shown):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"no_title": %s}' % value)
        code, out, err = run(capsys, "prepare",
                             "--csv", os.path.join(FIXTURES, "reviews_50.csv"),
                             "--out", str(tmp_path / "d.ds"), "--config", str(cfg))
        assert code == 1
        assert err == f"ERROR invalid: config key 'no_title' expects a boolean, got {shown}\n"
        assert not (tmp_path / "d.ds").exists()

    @pytest.mark.parametrize("value, vocab", [("true", 49), ("false", 61)])
    def test_flag_value_boolean_sets_the_flag(self, capsys, tmp_path, value, vocab):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"no_title": %s}' % value)
        code, out, err = run(capsys, "prepare",
                             "--csv", os.path.join(FIXTURES, "reviews_50.csv"),
                             "--out", str(tmp_path / "d.ds"), "--config", str(cfg))
        assert code == 0, err
        assert f"vocab size: {vocab}" in out.splitlines()


class TestMalformedHistory:
    HEADER = ("pair,optimizer,learning_rate,seed,epoch,"
              "train_loss,train_accuracy,test_loss,test_accuracy,run_diverged\n")

    @pytest.mark.parametrize("row, message", [
        ("p,sgd,abc,1,1,0.5,0.5,0.5,0.5,0", "could not convert string to float: 'abc'"),
        ("p,sgd,0.1,1", "expected 10 fields, got 4"),
        ("p,sgd,0.1,x,1,0.5,0.5,0.5,0.5,0", "invalid literal for int() with base 10: 'x'"),
        ("p,sgd,0.1,1,1,0.5,,0.5,0.5,0", "could not convert string to float: ''"),
    ], ids=["rate-not-float", "short-row", "seed-not-int", "empty-metric"])
    def test_report_names_the_line(self, capsys, tmp_path, row, message):
        history = tmp_path / "h.csv"
        history.write_text(self.HEADER + row + "\n")
        code, out, err = run(capsys, "report", "--history", str(history),
                             "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert err == f"ERROR invalid: history CSV line 2: {message}\n"

    @pytest.mark.parametrize("field, value, message", [
        ("run_diverged", "yes", "run_diverged must be 0 or 1, not 'yes'"),
        ("run_diverged", "x", "run_diverged must be 0 or 1, not 'x'"),
        ("optimizer", "rmsprop", "unknown optimizer 'rmsprop'; "
                                 "expected one of sgd, sgd_momentum, adagrad, adadelta, adam"),
        ("learning_rate", "-0.05", "learning_rate must be positive and finite"),
        ("seed", "-1", "seed must be a non-negative integer, got -1"),
        ("train_loss", "inf", "train_loss inf is out of range"),
        ("train_accuracy", "nan", "train_accuracy nan is out of range"),
        ("train_accuracy", "1.5", "train_accuracy 1.5 is out of range"),
        ("test_loss", "inf", "test_loss inf is out of range"),
        ("test_accuracy", "-2", "test_accuracy -2.0 is out of range"),
    ], ids=["flag-yes", "flag-x", "optimizer", "negative-rate", "negative-seed",
            "inf-train-loss", "nan-train-accuracy", "train-accuracy-above-1", "inf-test-loss",
            "negative-test-accuracy"])
    def test_report_refuses_a_row_the_writer_cannot_write(self, capsys, tmp_path, field, value,
                                                          message):
        good = dict(zip(self.HEADER.strip().split(","),
                        ["p", "sgd", "0.05", "7", "1", "1.0", "0.5", "1.0", "0.5", "0"]))
        rows = [dict(good, epoch=str(epoch), **{field: value}) for epoch in (1, 2)]
        history = tmp_path / "h.csv"
        history.write_text(self.HEADER + "".join(",".join(row.values()) + "\n" for row in rows))
        code, out, err = run(capsys, "report", "--history", str(history),
                             "--out-dir", str(tmp_path / "o"))
        assert (code, out) == (1, "")
        assert err == f"ERROR invalid: history CSV line 2: {message}\n"
        assert not (tmp_path / "o").exists()

    EPOCH_0 = ("an epoch-0 row stands for a run diverged in its first epoch: "
               "its metrics are empty and run_diverged is 1")

    @pytest.mark.parametrize("rows, line, message", [
        (["p,sgd,0.05,7,1,1.0,0.5,1.0,0.5,0", "p,sgd,0.05,7,2,1.0,0.5,1.0,0.5,1",
          "q,sgd,0.05,7,0,3,x,y,z,0"], 3,
         "run_diverged 1 differs from the earlier rows of the same run"),
        (["p,sgd,0.05,7,1,1.0,0.5,1.0,0.5,1", "p,sgd,0.05,7,2,1.0,0.5,1.0,0.5,0"], 3,
         "run_diverged 0 differs from the earlier rows of the same run"),
        (["p,sgd,0.05,7,1,1.0,0.5,1.0,0.5,0", "q,sgd,0.05,7,0,3,x,y,z,1"], 3, EPOCH_0),
        (["q,sgd,0.05,7,0,,,,,0"], 2, EPOCH_0),
        (["q,sgd,0.05,7,0,,,1.0,,1"], 2, EPOCH_0),
    ], ids=["flag-turns-on", "flag-turns-off", "epoch-0-metrics", "epoch-0-flag-0",
            "epoch-0-one-metric"])
    def test_report_refuses_a_run_the_writer_never_writes(self, capsys, tmp_path, rows, line,
                                                          message):
        history = tmp_path / "h.csv"
        history.write_text(self.HEADER + "".join(row + "\n" for row in rows))
        code, out, err = run(capsys, "report", "--history", str(history),
                             "--out-dir", str(tmp_path / "o"))
        assert (code, out) == (1, "")
        assert err == f"ERROR invalid: history CSV line {line}: {message}\n"
        assert not (tmp_path / "o").exists()


class TestCsvInput:
    """CSV inputs that the csv module cannot split, or whose values are not usable."""

    def test_lone_carriage_return_in_review_csv(self, capsys, tmp_path):
        with open(os.path.join(FIXTURES, "reviews_50.csv"), "rb") as fh:
            lines = fh.read().split(b"\n")
        lines[4] = lines[4].replace(b" ", b"\r", 1)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(lines))
        code, out, err = run(capsys, "prepare", "--csv", str(bad),
                             "--out", str(tmp_path / "d.ds"), "--max-len", "16")
        assert code == 1
        assert err == "ERROR invalid: CSV line 5: new-line character seen in unquoted field\n"

    def test_lone_carriage_return_in_history_csv(self, capsys, tmp_path):
        history = tmp_path / "h.csv"
        history.write_text(TestMalformedHistory.HEADER + "p,sgd,0.1,1,1,0.5,0\r.5,0.5,0.5,0\n",
                           newline="")
        code, out, err = run(capsys, "report", "--history", str(history),
                             "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert err == ("ERROR invalid: history CSV line 2: "
                       "new-line character seen in unquoted field\n")

    def test_lone_carriage_return_in_pair_manifest(self, capsys, pipeline_dir, tmp_path):
        manifest = tmp_path / "pairs.csv"
        manifest.write_text("pair,path\np,fused\r.bin\n", newline="")
        code, out, err = run(capsys, "sweep", "--dataset", pipeline_dir["dataset"],
                             "--pairs", str(manifest), "--lr", "0.05",
                             "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert err == ("ERROR invalid: pair manifest line 2: "
                       "new-line character seen in unquoted field\n")

    @pytest.mark.parametrize("rate", ["nan", "inf", "1e999"])
    def test_non_finite_star_rate_drops_the_row(self, capsys, tmp_path, rate):
        with open(os.path.join(FIXTURES, "reviews_50.csv"), "rb") as fh:
            lines = fh.read().split(b"\n")
        assert lines[1].endswith(b",1")
        lines[1] = lines[1][:-1] + rate.encode()
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(lines))
        code, out, err = run(capsys, "prepare", "--csv", str(bad),
                             "--out", str(tmp_path / "d.ds"), "--max-len", "16")
        assert code == 0, err
        assert out.splitlines()[0] == "rows loaded: 50 (dropped 1)"


class TestInspect:
    def test_reports_stats(self, capsys):
        code, out, err = run(capsys, "inspect", glove_a(), "--format", "glove")
        assert code == 0
        assert "dim=4" in out
        assert "vocab=12" in out
        assert "mean_norm=" in out

    def test_w2v_header_without_records_is_empty_input(self, capsys, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"0 3\n")
        code, out, err = run_without_warnings(capsys, "inspect", str(path), "--format", "w2v-bin")
        assert code == 1
        assert out == ""
        assert err == "ERROR empty-input: header declares no records\n"

    def test_w2v_records_after_the_declared_count_warn(self, capsys, tmp_path):
        row = np.array([1.0, 2.0], dtype="<f4").tobytes()
        path = tmp_path / "long.bin"
        path.write_bytes(b"1 2\na " + row + b"\nb " + row + b"\n")
        code, out, err = run_without_warnings(capsys, "inspect", str(path), "--format", "w2v-bin")
        assert code == 0
        assert "vocab=1\n" in out
        assert out.endswith("WARNING: count mismatch: header declares 1, bytes follow record 1\n")


class TestNonUtf8Input:
    """A byte that is not UTF-8 ends in one ERROR line naming its line, not a traceback."""

    def test_inspect_glove(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"a 1 2\nb\xff 3 4\n")
        code, out, err = run(capsys, "inspect", str(path), "--format", "glove")
        assert code == 1
        assert err == "ERROR invalid: line 2: byte 2 is not valid UTF-8\n"

    def test_inspect_fasttext_counts_the_header(self, capsys, tmp_path):
        path = tmp_path / "bad.vec"
        path.write_bytes(b"2 2\na 1 2\nb 3 4\xff\n")
        code, out, err = run(capsys, "inspect", str(path), "--format", "fasttext")
        assert code == 1
        assert err == "ERROR invalid: line 3: byte 6 is not valid UTF-8\n"

    def test_prepare_review_csv(self, capsys, tmp_path):
        with open(os.path.join(FIXTURES, "reviews_50.csv"), "rb") as fh:
            lines = fh.read().split(b"\n")
        lines[3] = b"\xff" + lines[3]
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(lines))
        code, out, err = run(capsys, "prepare", "--csv", str(bad),
                             "--out", str(tmp_path / "d.ds"), "--max-len", "16")
        assert code == 1
        assert err == "ERROR invalid: CSV line 4: byte 1 is not valid UTF-8\n"
        assert not (tmp_path / "d.ds").exists()

    def test_prepare_lemma_table(self, capsys, tmp_path):
        table = tmp_path / "lemmas.tsv"
        table.write_bytes(b"cats\tcat\ndogs\tdo\xc3g\n")
        code, out, err = run(capsys, "prepare",
                             "--csv", os.path.join(FIXTURES, "reviews_50.csv"),
                             "--lemma-table", str(table),
                             "--out", str(tmp_path / "d.ds"), "--max-len", "16")
        assert code == 1
        assert err == "ERROR invalid: lemma table line 2: byte 8 is not valid UTF-8\n"

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"seed": "\xff"}')
        code, out, err = run(capsys, "inspect", glove_a(), "--format", "glove",
                             "--config", str(cfg))
        assert code == 1
        assert err == "ERROR invalid: config file line 1: byte 11 is not valid UTF-8\n"

    def test_fuse_dataset(self, capsys, pipeline_dir, tmp_path):
        with open(pipeline_dir["dataset"], "rb") as fh:
            lines = fh.read().split(b"\n")
        lines[3] = b"\xff" + lines[3]
        bad = tmp_path / "bad.ds"
        bad.write_bytes(b"\n".join(lines))
        code, out, err = run(capsys, "fuse", "--emb1", glove_a() + ":glove",
                             "--emb2", fasttext_b() + ":fasttext",
                             "--dataset", str(bad), "--out", str(tmp_path / "f.bin"))
        assert code == 1
        assert err == "ERROR invalid: dataset line 4: byte 1 is not valid UTF-8\n"
        assert not (tmp_path / "f.bin").exists()

    def test_report_history(self, capsys, tmp_path):
        history = tmp_path / "h.csv"
        history.write_bytes(b"pair,optimizer\n\xff,sgd\n")
        code, out, err = run(capsys, "report", "--history", str(history),
                             "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert err == "ERROR invalid: history CSV line 2: byte 1 is not valid UTF-8\n"


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Run prepare and fuse once; later tests reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli_pipeline")
    ds_path = str(root / "reviews.ds")
    fused_path = str(root / "fused.bin")
    report_path = str(root / "fusion_report.csv")
    code = dispatch(["prepare", "--csv", os.path.join(FIXTURES, "reviews_50.csv"),
                     "--out", ds_path, "--max-len", "16", "--seed", "0"])
    assert code == 0
    code = dispatch(["fuse", "--emb1", glove_a() + ":glove",
                     "--emb2", fasttext_b() + ":fasttext",
                     "--dataset", ds_path, "--out", fused_path,
                     "--report", report_path])
    assert code == 0
    return {"root": root, "dataset": ds_path, "fused": fused_path,
            "report": report_path}


TINY_MODEL = ["--lstm-units", "6", "--gru-units", "4",
              "--spatial-dropout", "0.0", "--dropout", "0.0"]


class TestPreparedPipeline:
    def test_prepare_prints_report(self, capsys, tmp_path):
        out_path = str(tmp_path / "d.ds")
        code, out, err = run(capsys, "prepare",
                             "--csv", os.path.join(FIXTURES, "reviews_50.csv"),
                             "--out", out_path, "--max-len", "16")
        assert code == 0
        assert "dominant place: 'Souk Central' (40/50 reviews, share 0.800)" in out
        assert "label counts: bad=12 neutral=12 good=16" in out
        assert "split: train=36 test=4" in out
        assert os.path.isfile(out_path)

    def test_fuse_writes_report_rows(self, pipeline_dir):
        with open(pipeline_dir["report"], "r", encoding="utf-8", newline="") as fh:
            rows = dict(tuple(r) for r in list(csv.reader(fh))[1:])
        assert rows["dim"] == "4"
        assert int(rows["both"]) > 0
        assert int(rows["unknown"]) > 0
        total = sum(int(rows[k]) for k in ("both", "first_only", "second_only", "unknown"))
        assert total == int(rows["words"])

    # the fixture pair's fusion report, as stdout and as the --report CSV
    FUSE_REPORT = [("dim", "4"), ("words", "59"),
                   ("both", "11"), ("both_share", "0.186441"),
                   ("first_only", "5"), ("first_only_share", "0.084746"),
                   ("second_only", "6"), ("second_only_share", "0.101695"),
                   ("unknown", "37"), ("unknown_share", "0.627119"),
                   ("case_hits", "6"), ("lemma_hits", "1")]

    def test_fuse_stdout_and_report_bytes_are_pinned(self, capsys, pipeline_dir, tmp_path):
        out_path, report = tmp_path / "f.bin", tmp_path / "report.csv"
        code, out, err = run(capsys, "fuse", "--emb1", glove_a() + ":glove",
                             "--emb2", fasttext_b() + ":fasttext",
                             "--dataset", pipeline_dir["dataset"], "--out", str(out_path),
                             "--report", str(report))
        assert (code, err) == (0, "")
        assert out == (
            "WARNING: second table (13 words) is larger than the first (12 words); "
            "the first table is treated as the primary space\n"
            + "".join(f"{key}: {value}\n" for key, value in self.FUSE_REPORT)
            + f"wrote {out_path}\n")
        assert report.read_bytes() == "".join(
            f"{key},{value}\n" for key, value in [("key", "value")] + self.FUSE_REPORT).encode()

    def test_lr_find_emits_table_and_chart(self, capsys, pipeline_dir):
        root = pipeline_dir["root"]
        table = str(root / "lr.csv")
        svg = str(root / "lr.svg")
        code, out, err = run(capsys, "lr-find",
                             "--dataset", pipeline_dir["dataset"],
                             "--fused", pipeline_dir["fused"],
                             "--optimizer", "adam", "--grid", "1e-4:1e-2:log3",
                             "--epochs", "1", "--batch", "8", "--seed", "3",
                             "--out", table, "--svg", svg, *TINY_MODEL)
        assert code == 0
        assert "best_lr=" in out
        with open(table) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "learning_rate,final_train_loss,diverged,epochs_completed"
        assert len(lines) == 4
        with open(svg) as fh:
            assert "<polyline" in fh.read()

    def test_train_eval_round_trip(self, capsys, pipeline_dir):
        root = pipeline_dir["root"]
        ckpt = str(root / "model.ckpt")
        hist = str(root / "history.csv")
        code, out, err = run(capsys, "train",
                             "--dataset", pipeline_dir["dataset"],
                             "--fused", pipeline_dir["fused"],
                             "--optimizer", "adam", "--lr", "0.01",
                             "--epochs", "2", "--batch", "8", "--seed", "3",
                             "--out", ckpt, "--history", hist, *TINY_MODEL)
        assert code == 0
        assert "epoch 1: train_loss=" in out
        assert "epoch 2: train_loss=" in out
        assert os.path.isfile(ckpt)
        with open(hist) as fh:
            assert len(fh.read().splitlines()) == 3  # header + 2 epochs

        code, out, err = run(capsys, "eval", "--dataset", pipeline_dir["dataset"],
                             "--ckpt", ckpt, "--split", "train")
        assert code == 0
        assert "split=train examples=36" in out
        assert "confusion" in out

        code, out, err = run(capsys, "eval", "--dataset", pipeline_dir["dataset"],
                             "--ckpt", ckpt)
        assert code == 0
        assert "split=test examples=4" in out

    def test_sweep_and_report(self, capsys, pipeline_dir):
        root = pipeline_dir["root"]
        # second pair: same tables fused with a different unknown fill
        fused2 = str(root / "fused2.bin")
        code = dispatch(["fuse", "--emb1", glove_a() + ":glove",
                         "--emb2", fasttext_b() + ":fasttext",
                         "--dataset", pipeline_dir["dataset"], "--out", fused2,
                         "--unknown-fill", "0.125"])
        assert code == 0
        manifest = str(root / "pairs.csv")
        with open(manifest, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["pair", "path"])
            writer.writerow(["glove+fasttext", pipeline_dir["fused"]])
            writer.writerow(["glove+fasttext fill", os.path.basename(fused2)])
        out_dir = str(root / "sweep_out")
        code, out, err = run(capsys, "sweep", "--dataset", pipeline_dir["dataset"],
                             "--pairs", manifest, "--optimizers", "sgd,adam",
                             "--lr", "0.05", "--epochs", "2", "--batch", "8",
                             "--seed", "3", "--out-dir", out_dir, *TINY_MODEL)
        assert code == 0
        csv_path = os.path.join(out_dir, "histories.csv")
        assert os.path.isfile(csv_path)
        assert os.path.isfile(os.path.join(out_dir, "glove_fasttext.svg"))
        assert os.path.isfile(os.path.join(out_dir, "glove_fasttext_fill.svg"))
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 2 * 2 * 2  # header + pairs x kinds x epochs
        assert "glove+fasttext sgd: train_loss=" in out

        report_dir = str(root / "report_out")
        code, out, err = run(capsys, "report", "--history", csv_path,
                             "--out-dir", report_dir)
        assert code == 0
        assert os.path.isfile(os.path.join(report_dir, "summary.csv"))
        assert os.path.isfile(os.path.join(report_dir, "glove_fasttext.svg"))
        with open(os.path.join(report_dir, "summary.csv")) as fh:
            summary = list(csv.reader(fh))
        assert summary[0][:3] == ["pair", "optimizer", "learning_rate"]
        assert len(summary) == 5  # header + 4 runs

    def test_sweep_one_epoch_skips_chart(self, capsys, pipeline_dir):
        manifest = str(pipeline_dir["root"] / "pairs_one.csv")
        with open(manifest, "w", newline="") as fh:
            fh.write(f"pair,path\nglove+fasttext,{pipeline_dir['fused']}\n")
        out_dir = str(pipeline_dir["root"] / "sweep_one_epoch")
        code, out, err = run(capsys, "sweep", "--dataset", pipeline_dir["dataset"],
                             "--pairs", manifest, "--optimizers", "sgd,adam",
                             "--lr", "0.05", "--epochs", "1", "--batch", "8",
                             "--seed", "3", "--out-dir", out_dir, *TINY_MODEL)
        assert code == 0, err
        csv_path = os.path.join(out_dir, "histories.csv")
        with open(csv_path) as fh:
            assert len(fh.read().splitlines()) == 1 + 2  # header + kinds x 1 epoch
        assert not os.path.exists(os.path.join(out_dir, "glove_fasttext.svg"))
        skipped = [line for line in out.splitlines() if line.startswith("skipped chart")]
        assert len(skipped) == 1 and "2 or more epochs" in skipped[0]
        assert "glove+fasttext sgd: train_loss=" in out
        assert "glove+fasttext adam: train_loss=" in out

        report_dir = str(pipeline_dir["root"] / "report_one_epoch")
        code, out, err = run(capsys, "report", "--history", csv_path, "--out-dir", report_dir)
        assert code == 0, err
        assert os.path.isfile(os.path.join(report_dir, "summary.csv"))
        assert "skipped chart" in out

    def test_eval_rejects_checkpoint_with_unknown_config_key(self, capsys, pipeline_dir,
                                                              tmp_path):
        good = tmp_path / "good.ckpt"
        assert dispatch(["train", "--dataset", pipeline_dir["dataset"],
                         "--fused", pipeline_dir["fused"], "--optimizer", "sgd",
                         "--lr", "0.01", "--epochs", "1", "--batch", "8",
                         "--out", str(good), *TINY_MODEL]) == 0
        capsys.readouterr()
        data = good.read_bytes()
        cfg_len = int.from_bytes(data[12:16], "little")
        cfg = data[16:16 + cfg_len].replace(b'"seed"', b'"sneed"')
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(data[:12] + len(cfg).to_bytes(4, "little") + cfg + data[16 + cfg_len:])
        code, out, err = run(capsys, "eval", "--dataset", pipeline_dir["dataset"],
                             "--ckpt", str(bad))
        assert code == 1
        assert err.startswith("ERROR invalid:") and "sneed" in err
        assert "Traceback" not in err

    def test_eval_runs_inference_once(self, capsys, pipeline_dir, tmp_path, monkeypatch):
        from embfuse import corpus, model, optim
        ckpt = tmp_path / "m.ckpt"
        assert dispatch(["train", "--dataset", pipeline_dir["dataset"],
                         "--fused", pipeline_dir["fused"], "--optimizer", "sgd",
                         "--lr", "0.05", "--epochs", "1", "--batch", "8", "--seed", "4",
                         "--out", str(ckpt), *TINY_MODEL]) == 0
        capsys.readouterr()
        with open(pipeline_dir["dataset"], "r", encoding="utf-8", newline="") as fh:
            ds = corpus.read_dataset(fh)
        data = optim.SplitDataset.from_examples(ds.train, ds.test, ds.max_len)
        with open(ckpt, "rb") as fh:
            params, config = model.load_checkpoint(fh)
        probs, _ = model.forward(data.train_x, params, config, training=False)
        y = data.train_y
        loss = float(-np.log(probs[np.arange(len(y)), y]).sum()) / len(y)
        acc = int((probs.argmax(axis=1) == y).sum()) / len(y)
        cm = model.confusion_matrix(probs.argmax(axis=1), y)
        want = [f"split=train examples={len(y)} loss={loss:.6f} accuracy={acc:.6f}",
                "confusion (rows=truth bad/neutral/good, cols=predicted):"]
        want += ["  " + " ".join(f"{int(v):5d}" for v in row) for row in cm]
        for k, name in enumerate(("bad", "neutral", "good")):
            predicted, actual = cm[:, k].sum(), cm[k].sum()
            precision = cm[k, k] / predicted if predicted else float("nan")
            recall = cm[k, k] / actual if actual else float("nan")
            want.append(f"class={name} precision={precision:.6f} recall={recall:.6f}")

        calls = []
        real_forward = model.forward

        def counting_forward(x, *args, **kwargs):
            calls.append(len(x))
            return real_forward(x, *args, **kwargs)

        monkeypatch.setattr(model, "forward", counting_forward)
        code, out, err = run(capsys, "eval", "--dataset", pipeline_dir["dataset"],
                             "--ckpt", str(ckpt), "--split", "train")
        assert code == 0, err
        assert calls == [len(y)]
        assert out == "\n".join(want) + "\n"

    def test_eval_precision_is_nan_for_a_class_never_predicted(self, capsys, pipeline_dir,
                                                                 tmp_path):
        from embfuse import corpus, model
        ckpt = tmp_path / "m.ckpt"
        assert dispatch(["train", "--dataset", pipeline_dir["dataset"],
                         "--fused", pipeline_dir["fused"], "--optimizer", "sgd",
                         "--lr", "0.05", "--epochs", "1", "--batch", "8", "--seed", "4",
                         "--out", str(ckpt), *TINY_MODEL]) == 0
        with open(ckpt, "rb") as fh:
            params, config = model.load_checkpoint(fh)
        params.blocks["dense_b"][...] = [0.0, 0.0, 1e3]  # every review predicted good
        with open(ckpt, "wb") as fh:
            model.save_checkpoint(fh, params, config)
        with open(pipeline_dir["dataset"], "r", encoding="utf-8", newline="") as fh:
            labels = [int(ex.label) for ex in corpus.read_dataset(fh).train]
        assert 0 < labels.count(2) < len(labels) and labels.count(0) and labels.count(1)
        capsys.readouterr()
        code, out, err = run(capsys, "eval", "--dataset", pipeline_dir["dataset"],
                             "--ckpt", str(ckpt), "--split", "train")
        assert code == 0, err
        assert out.splitlines()[-3:] == [
            "class=bad precision=nan recall=0.000000",
            "class=neutral precision=nan recall=0.000000",
            f"class=good precision={labels.count(2) / len(labels):.6f} recall=1.000000"]

    def test_sweep_rejects_unknown_optimizer(self, capsys, pipeline_dir):
        code, out, err = run(capsys, "sweep", "--dataset", pipeline_dir["dataset"],
                             "--pairs", "/no/such/manifest.csv",
                             "--optimizers", "sgd,newton", "--out-dir", "/tmp/x")
        assert code == 1
        assert "ERROR" in err

    def test_bad_manifest_header(self, capsys, pipeline_dir, tmp_path):
        manifest = tmp_path / "pairs.csv"
        manifest.write_text("a,b\nx,y\n")
        code, out, err = run(capsys, "sweep", "--dataset", pipeline_dir["dataset"],
                             "--pairs", str(manifest), "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert "pair,path" in err

    def test_short_manifest_row_names_its_line(self, capsys, pipeline_dir, tmp_path):
        manifest = tmp_path / "pairs.csv"
        manifest.write_text(f"pair,path\na,{pipeline_dir['fused']}\n\nb\n")
        code, out, err = run(capsys, "sweep", "--dataset", pipeline_dir["dataset"],
                             "--pairs", str(manifest), "--lr", "0.05",
                             "--out-dir", str(tmp_path / "o"))
        assert (code, out) == (1, "")
        assert err == "ERROR invalid: pair manifest line 4: expected 2 fields (pair,path), got 1\n"

    def test_sweep_manifest_not_utf8(self, capsys, pipeline_dir, tmp_path):
        manifest = tmp_path / "pairs.csv"
        manifest.write_bytes(b"pair,path\nglove\xff," + pipeline_dir["fused"].encode() + b"\n")
        code, out, err = run(capsys, "sweep", "--dataset", pipeline_dir["dataset"],
                             "--pairs", str(manifest), "--lr", "0.05",
                             "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert err == "ERROR invalid: pair manifest line 2: byte 6 is not valid UTF-8\n"

    def test_eval_rejects_block_name_not_utf8(self, capsys, pipeline_dir, tmp_path):
        good = tmp_path / "good.ckpt"
        assert dispatch(["train", "--dataset", pipeline_dir["dataset"],
                         "--fused", pipeline_dir["fused"], "--optimizer", "sgd",
                         "--lr", "0.01", "--epochs", "1", "--batch", "8",
                         "--out", str(good), *TINY_MODEL]) == 0
        capsys.readouterr()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(good.read_bytes().replace(b"dense_b", b"dense\xffb"))
        code, out, err = run(capsys, "eval", "--dataset", pipeline_dir["dataset"],
                             "--ckpt", str(bad))
        assert code == 1
        assert err.startswith("ERROR invalid:") and "dense_b" in err

    def test_eval_rejects_malformed_dataset(self, capsys, pipeline_dir, tmp_path):
        with open(pipeline_dir["dataset"], "r", encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
        first = lines.index("[train]") + 1
        lines[first] = "7" + lines[first][1:]
        bad = tmp_path / "bad.ds"
        bad.write_text("\n".join(lines), encoding="utf-8", newline="")
        code, out, err = run(capsys, "eval", "--dataset", str(bad),
                             "--ckpt", str(tmp_path / "unused.ckpt"))
        assert code == 1
        assert err == f"ERROR invalid: dataset line {first + 1}: 7 is not a valid SentimentLabel\n"

    def test_sweep_without_lr_uses_sgd_range_search(self, capsys, pipeline_dir):
        from embfuse import corpus, fusion, model, optim
        from embfuse.embedding_io import parse_embedding
        manifest = str(pipeline_dir["root"] / "pairs_search.csv")
        with open(manifest, "w", newline="") as fh:
            fh.write(f"pair,path\nglove+fasttext,{pipeline_dir['fused']}\n")
        out_dir = str(pipeline_dir["root"] / "sweep_search")
        code, out, err = run(capsys, "sweep", "--dataset", pipeline_dir["dataset"],
                             "--pairs", manifest, "--optimizers", "sgd,adam",
                             "--epochs", "2", "--batch", "8", "--seed", "3",
                             "--out-dir", out_dir, *TINY_MODEL)
        assert code == 0, err

        with open(pipeline_dir["dataset"], "r", encoding="utf-8", newline="") as fh:
            ds = corpus.read_dataset(fh)
        with open(pipeline_dir["fused"], "rb") as fh:
            matrix = fusion.matrix_from_table(parse_embedding(fh, "w2v-bin"), ds.dicts)
        config = model.ModelConfig(max_len=ds.max_len, emb_dim=matrix.shape[1],
                                   lstm_units=6, gru_units=4, spatial_dropout_rate=0.0,
                                   dropout_rate=0.0, seed=3)
        data = optim.SplitDataset.from_examples(ds.train, ds.test, ds.max_len)
        best, _ = optim.lr_range_search(data, matrix, config, "sgd", batch_size=8, seed=3)
        assert f"shared lr from sgd range search on glove+fasttext: {best!r}" in out.splitlines()
        with open(os.path.join(out_dir, "histories.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 2  # kinds x epochs
        assert all(row["learning_rate"] == repr(best) for row in rows)

    def test_fuse_rejects_word_index_outside_vocab(self, capsys, pipeline_dir, tmp_path):
        with open(pipeline_dir["dataset"], "r", encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
        at = lines.index("visit\t3\tvisit")
        lines[at] = "visit\t9999\tvisit"
        bad = tmp_path / "bad.ds"
        bad.write_text("\n".join(lines), encoding="utf-8", newline="")
        code, out, err = run(capsys, "fuse", "--emb1", glove_a() + ":glove",
                             "--emb2", fasttext_b() + ":fasttext",
                             "--dataset", str(bad), "--out", str(tmp_path / "f.bin"))
        assert code == 1
        assert err == f"ERROR invalid: dataset line {at + 1}: word index 9999 outside 2..60\n"

    def test_fuse_rejects_repeated_word_index(self, capsys, pipeline_dir, tmp_path):
        with open(pipeline_dir["dataset"], "r", encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
        at = lines.index("visit\t3\tvisit")
        other = next(i for i, line in enumerate(lines) if line.split("\t")[1:2] == ["4"])
        lines[at] = "visit\t4\tvisit"
        bad = tmp_path / "bad.ds"
        bad.write_text("\n".join(lines), encoding="utf-8", newline="")
        code, out, err = run(capsys, "fuse", "--emb1", glove_a() + ":glove",
                             "--emb2", fasttext_b() + ":fasttext",
                             "--dataset", str(bad), "--out", str(tmp_path / "f.bin"))
        assert code == 1
        first, second = sorted((at, other))
        words = [lines[i].split("\t")[0] for i in (first, second)]
        assert err == (f"ERROR invalid: dataset line {first + 1}: word index 4 of {words[0]!r} "
                       f"is given again on line {second + 1}, to {words[1]!r}\n")

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_example_index_outside_vocab_names_its_line(self, capsys, pipeline_dir, tmp_path,
                                                        command):
        with open(pipeline_dir["dataset"], "r", encoding="utf-8", newline="") as fh:
            lines = fh.read().split("\n")
        at = lines.index("[train]") + 1
        lines[at] = lines[at].rsplit(" ", 1)[0] + " 9999"
        bad = tmp_path / "bad.ds"
        bad.write_text("\n".join(lines), encoding="utf-8", newline="")
        ckpt = str(tmp_path / "m.ckpt")
        argv = {"train": ["train", "--dataset", str(bad), "--fused", pipeline_dir["fused"],
                          "--optimizer", "sgd", "--epochs", "1", "--out", ckpt, *TINY_MODEL],
                "eval": ["eval", "--dataset", str(bad), "--ckpt", ckpt, "--split", "train"]}
        code, out, err = run(capsys, *argv[command])
        assert code == 1
        assert err == f"ERROR invalid: dataset line {at + 1}: token index 9999 outside 0..60\n"

    def test_lr_find_skips_chart_with_one_surviving_probe(self, capsys, pipeline_dir, tmp_path):
        table, svg = tmp_path / "lr.csv", tmp_path / "lr.svg"
        code, out, err = run_without_warnings(
            capsys, "lr-find", "--dataset", pipeline_dir["dataset"],
            "--fused", pipeline_dir["fused"], "--optimizer", "sgd",
            "--grid", "1e-3:1e308:log2", "--epochs", "1", "--batch", "8",
            "--out", str(table), "--svg", str(svg), *TINY_MODEL)
        assert code == 0, err
        assert err == ""
        assert "lr=1.000e+308 diverged" in out
        assert "best_lr=0.001" in out
        assert out.splitlines()[-1] == (
            f"skipped chart {svg}: fewer than 2 learning rates completed without diverging")
        assert len(table.read_text().splitlines()) == 3
        assert not svg.exists()

    def test_diverged_run_trains_and_evaluates_without_warnings(self, capsys, pipeline_dir,
                                                               tmp_path):
        ckpt = tmp_path / "m.ckpt"
        code, out, err = run_without_warnings(
            capsys, "train", "--dataset", pipeline_dir["dataset"],
            "--fused", pipeline_dir["fused"], "--optimizer", "sgd", "--lr", "1e308",
            "--epochs", "2", "--batch", "8", "--out", str(ckpt), *TINY_MODEL)
        assert code == 0, err
        assert err == ""
        assert "diverged at epoch 1" in out
        code, out, err = run_without_warnings(
            capsys, "eval", "--dataset", pipeline_dir["dataset"], "--ckpt", str(ckpt))
        assert code == 0, err
        assert err == ""
        assert "split=test examples=4 loss=nan" in out

    def test_empty_test_split_trains_and_evaluates_to_nan(self, capsys, tmp_path):
        dataset, fused = str(tmp_path / "d.ds"), str(tmp_path / "f.bin")
        ckpt, hist = str(tmp_path / "m.ckpt"), str(tmp_path / "h.csv")
        code, out, err = run(capsys, "prepare",
                             "--csv", os.path.join(FIXTURES, "reviews_50.csv"),
                             "--out", dataset, "--train-fraction", "0.99", "--max-len", "16")
        assert code == 0, err
        assert "split: train=40 test=0" in out
        assert dispatch(["fuse", "--emb1", glove_a() + ":glove",
                         "--emb2", fasttext_b() + ":fasttext",
                         "--dataset", dataset, "--out", fused]) == 0
        code, out, err = run_without_warnings(
            capsys, "train", "--dataset", dataset, "--fused", fused, "--optimizer", "sgd",
            "--lr", "0.05", "--epochs", "2", "--batch", "8", "--out", ckpt,
            "--history", hist, *TINY_MODEL)
        assert (code, err) == (0, "")
        with open(hist, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(row["test_loss"] == row["test_accuracy"] == "nan" for row in rows)
        code, out, err = run_without_warnings(capsys, "eval", "--dataset", dataset,
                                              "--ckpt", ckpt, "--split", "test")
        assert (code, err) == (0, "")
        assert "split=test examples=0 loss=nan accuracy=nan" in out

    def test_sweep_with_diverging_cells_prints_no_warnings(self, capsys, pipeline_dir):
        manifest = str(pipeline_dir["root"] / "pairs_diverge.csv")
        with open(manifest, "w", newline="") as fh:
            fh.write(f"pair,path\nglove+fasttext,{pipeline_dir['fused']}\n")
        code, out, err = run_without_warnings(
            capsys, "sweep", "--dataset", pipeline_dir["dataset"], "--pairs", manifest,
            "--lr", "1e307", "--epochs", "2", "--batch", "8",
            "--out-dir", str(pipeline_dir["root"] / "sweep_diverge"), *TINY_MODEL)
        assert code == 0, err
        assert err == ""
        assert "diverged at epoch" in out

    def test_fuse_rejects_bad_format_suffix(self, capsys, pipeline_dir, tmp_path):
        code, out, err = run(capsys, "fuse", "--emb1", glove_a(),
                             "--emb2", fasttext_b() + ":fasttext",
                             "--dataset", pipeline_dir["dataset"],
                             "--out", str(tmp_path / "f.bin"))
        assert code == 1
        assert "PATH:FORMAT" in err


class TestFlagsBeforeTables:
    """A bad flag value ends the run before any embedding table is parsed or lr searched."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = {"parse_embedding": 0, "lr_range_search": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counted[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "parse_embedding", counting("parse_embedding", cli.parse_embedding))
        monkeypatch.setattr(optim, "lr_range_search",
                            counting("lr_range_search", optim.lr_range_search))
        return counted

    def argv(self, case, pipeline_dir, tmp_path):
        ds, fused = pipeline_dir["dataset"], pipeline_dir["fused"]
        manifest = tmp_path / "pairs.csv"
        manifest.write_text(f"pair,path\na,{fused}\n")
        fuse = ["fuse", "--emb1", glove_a() + ":glove", "--dataset", ds,
                "--out", str(tmp_path / "f.bin")]
        fuse_ok = fuse + ["--emb2", fasttext_b() + ":fasttext"]
        lr_find = ["lr-find", "--dataset", ds, "--fused", fused, "--optimizer", "sgd",
                   "--grid", "1e-3:1e-1:log3", "--epochs", "1", "--batch", "8", *TINY_MODEL]
        train = ["train", "--dataset", ds, "--fused", fused, "--optimizer", "sgd",
                 "--lr", "0.05", "--epochs", "1", "--batch", "8",
                 "--out", str(tmp_path / "m.ckpt"), *TINY_MODEL]
        sweep = ["sweep", "--dataset", ds, "--pairs", str(manifest), "--epochs", "1",
                 "--batch", "8", "--out-dir", str(tmp_path / "o"), *TINY_MODEL]
        nodir = str(tmp_path / "nodir" / "file")
        return {
            "fuse-format": fuse + ["--emb2", fasttext_b() + ":bogus"],
            "fuse-stage": fuse_ok + ["--fallback-order", "exact,bogus"],
            "fuse-fill": fuse_ok + ["--unknown-fill", "nan"],
            "fuse-out-dir": fuse_ok + ["--out", nodir],
            "fuse-report-dir": fuse_ok + ["--report", nodir],
            "lr-find-grid": lr_find + ["--grid", "1e-3:1e-1:log1"],
            "lr-find-epochs": lr_find + ["--epochs", "0"],
            "lr-find-out-dir": lr_find + ["--out", nodir],
            "lr-find-svg-dir": lr_find + ["--svg", nodir],
            "sweep-unknown": sweep + ["--optimizers", "sgd,bogus"],
            "sweep-repeated": sweep + ["--optimizers", "sgd,sgd"],
            "sweep-lr": sweep + ["--optimizers", "sgd", "--lr", "-1"],
            "train-lr": train + ["--lr", "-1"],
            "train-dropout": train + ["--dropout", "1.5"],
            "train-seed": train + ["--seed", "-1"],
            "train-batch": train + ["--batch", "0"],
            "train-out-dir": train + ["--out", nodir],
            "train-history-dir": train + ["--history", nodir],
        }[case]

    @pytest.mark.parametrize("case", [
        "fuse-format", "fuse-stage", "fuse-fill", "fuse-out-dir", "fuse-report-dir",
        "lr-find-grid", "lr-find-epochs", "lr-find-out-dir", "lr-find-svg-dir",
        "sweep-unknown", "sweep-repeated", "sweep-lr",
        "train-lr", "train-dropout", "train-seed", "train-batch", "train-out-dir",
        "train-history-dir"])
    def test_bad_flag_fails_before_any_table_parse(self, capsys, calls, pipeline_dir, tmp_path,
                                                   case):
        code, out, err = run_without_warnings(capsys, *self.argv(case, pipeline_dir, tmp_path))
        assert code == 1
        assert err.startswith("ERROR ") and err.count("\n") == 1
        assert out == ""
        assert calls == {"parse_embedding": 0, "lr_range_search": 0}

    @pytest.mark.parametrize("case", ["fuse-out-dir", "lr-find-svg-dir", "train-history-dir"])
    def test_missing_output_directory_is_named(self, capsys, calls, pipeline_dir, tmp_path,
                                               case):
        code, out, err = run(capsys, *self.argv(case, pipeline_dir, tmp_path))
        assert (code, out) == (1, "")
        assert err == f"ERROR invalid: output directory not found: {tmp_path / 'nodir'}\n"
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("case,flag,kind", [
        ("train", "--out", "dir"), ("train", "--history", "dir"),
        ("sweep", "--out-dir", "file"), ("sweep", "--out-dir", "under-file"),
        ("report", "--out-dir", "file")])
    def test_output_of_the_wrong_kind_fails_before_training(self, capsys, calls, monkeypatch,
                                                            pipeline_dir, tmp_path, case, flag,
                                                            kind):
        trained = []
        real = optim.train_runs
        monkeypatch.setattr(optim, "train_runs", lambda *a, **k: trained.append(1) or real(*a, **k))
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_text("")
        path = {"dir": tmp_path / "adir", "file": tmp_path / "afile",
                "under-file": tmp_path / "afile" / "sub"}[kind]
        argv = {
            "train": self.argv("train-lr", pipeline_dir, tmp_path)[:-2],
            "sweep": self.argv("sweep-unknown", pipeline_dir, tmp_path)[:-2]
            + ["--optimizers", "sgd", "--lr", "0.05"],
            "report": ["report", "--history", str(tmp_path / "h.csv")],
        }[case]
        code, out, err = run(capsys, *argv, flag, str(path))
        assert (code, out) == (1, "")
        what = "output file is a directory" if kind == "dir" else "output directory is not a directory"
        assert err == f"ERROR invalid: {what}: {tmp_path / ('adir' if kind == 'dir' else 'afile')}\n"
        assert calls == {"parse_embedding": 0, "lr_range_search": 0}
        assert trained == []

    @pytest.mark.parametrize("case", [
        "prepare-out-is-csv", "prepare-out-is-lemma-table", "fuse-out-is-dataset",
        "fuse-report-is-emb1", "fuse-report-is-out", "lr-find-svg-is-fused", "lr-find-svg-is-out",
        "train-history-is-out", "train-out-is-config"])
    def test_output_naming_a_file_of_another_flag_is_refused(self, capsys, calls, pipeline_dir,
                                                             tmp_path, case):
        ds, fused = tmp_path / "d.ds", tmp_path / "f.bin"
        glove, csv_in, lemmas = tmp_path / "a.txt", tmp_path / "r.csv", tmp_path / "l.tsv"
        for src, dst in ((pipeline_dir["dataset"], ds), (pipeline_dir["fused"], fused),
                         (glove_a(), glove), (os.path.join(FIXTURES, "reviews_50.csv"), csv_in)):
            shutil.copyfile(src, dst)
        lemmas.write_bytes(b"went\tgo\n")
        (tmp_path / "sub").mkdir()
        same = str(tmp_path / "sub" / ".." / "x.out")  # resolves to x.out
        ckpt, config = tmp_path / "m.ckpt", tmp_path / "c.json"
        config.write_text(json.dumps({"out": str(config)}))
        prepare = ["prepare", "--csv", str(csv_in)]
        fuse = ["fuse", "--emb1", f"{glove}:glove", "--emb2", fasttext_b() + ":fasttext",
                "--dataset", str(ds)]
        lr_find = ["lr-find", "--dataset", str(ds), "--fused", str(fused), "--optimizer", "sgd",
                   "--grid", "1e-3:1e-1:log3", "--epochs", "1", "--batch", "8", *TINY_MODEL]
        train = ["train", "--dataset", str(ds), "--fused", str(fused), "--optimizer", "sgd",
                 "--epochs", "1", "--batch", "8", *TINY_MODEL]
        argv, flag, other, path = {
            "prepare-out-is-csv": (prepare + ["--out", str(csv_in)], "--out", "--csv", csv_in),
            "prepare-out-is-lemma-table": (prepare + ["--lemma-table", str(lemmas),
                                                      "--out", str(lemmas)],
                                           "--out", "--lemma-table", lemmas),
            "fuse-out-is-dataset": (fuse + ["--out", str(ds)], "--out", "--dataset", ds),
            "fuse-report-is-emb1": (fuse + ["--out", str(tmp_path / "o.bin"),
                                            "--report", str(glove)], "--report", "--emb1", glove),
            "fuse-report-is-out": (fuse + ["--out", str(tmp_path / "x.out"), "--report", same],
                                   "--report", "--out", same),
            "lr-find-svg-is-fused": (lr_find + ["--svg", str(fused)], "--svg", "--fused", fused),
            "lr-find-svg-is-out": (lr_find + ["--out", str(tmp_path / "x.out"), "--svg", same],
                                   "--svg", "--out", same),
            "train-history-is-out": (train + ["--out", str(ckpt), "--history", str(ckpt)],
                                     "--history", "--out", ckpt),
            "train-out-is-config": (train + ["--config", str(config)], "--out", "--config", config),
        }[case]
        inputs = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        code, out, err = run_without_warnings(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"ERROR invalid: {flag} names the same file as {other}: {path}\n"
        assert calls == {"parse_embedding": 0, "lr_range_search": 0}
        assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == inputs

    @pytest.mark.parametrize("case", [
        "sweep-histories-is-pairs", "sweep-chart-is-pairs", "sweep-histories-is-table",
        "report-summary-is-history"])
    def test_file_written_into_out_dir_naming_an_input_is_refused(self, capsys, calls,
                                                                 pipeline_dir, tmp_path, case):
        out = tmp_path / "out"
        out.mkdir()
        histories, chart, summary = out / "histories.csv", out / "ab.svg", out / "summary.csv"
        pairs = tmp_path / "pairs.csv"
        sweep = ["sweep", "--dataset", pipeline_dir["dataset"], "--optimizers", "sgd",
                 "--lr", "0.05", "--epochs", "2", "--batch", "8", "--out-dir", str(out),
                 *TINY_MODEL]
        argv, other, path = {
            "sweep-histories-is-pairs": (sweep + ["--pairs", str(histories)], "--pairs", histories),
            "sweep-chart-is-pairs": (sweep + ["--pairs", str(chart)], "--pairs", chart),
            "sweep-histories-is-table": (sweep + ["--pairs", str(pairs)],
                                         "pair 'ab' of --pairs", histories),
            "report-summary-is-history": (["report", "--history", str(summary),
                                           "--out-dir", str(out)], "--history", summary),
        }[case]
        if case == "report-summary-is-history":
            summary.write_text(
                "pair,optimizer,learning_rate,seed,epoch,train_loss,train_accuracy,test_loss,"
                "test_accuracy,run_diverged\n"
                "ab,sgd,0.05,7,1,1.0,0.5,1.0,0.5,0\nab,sgd,0.05,7,2,0.9,0.5,1.0,0.5,0\n")
        elif case == "sweep-histories-is-table":
            shutil.copyfile(pipeline_dir["fused"], histories)
            pairs.write_text(f"pair,path\nab,{histories}\n")
        else:
            path.write_text(f"pair,path\nab,{pipeline_dir['fused']}\n")
        files = [*tmp_path.iterdir(), *out.iterdir()]
        inputs = {f: f.read_bytes() for f in files if f.is_file()}
        code, out_text, err = run_without_warnings(capsys, *argv)
        assert (code, out_text) == (1, "")
        assert err == f"ERROR invalid: --out-dir names the same file as {other}: {path}\n"
        assert calls == {"parse_embedding": 0, "lr_range_search": 0}
        assert sorted(out.iterdir()) == sorted(f for f in files if f.parent == out)
        assert {f: f.read_bytes() for f in files if f.is_file()} == inputs

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_empty_fallback_order_fails_before_any_table_parse(self, capsys, calls,
                                                               pipeline_dir, tmp_path, via):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"fallback_order": ","}))
        given = {"flag": ["--fallback-order", ","], "config": ["--config", str(config)]}[via]
        code, out, err = run(capsys, *self.argv("fuse-stage", pipeline_dir, tmp_path)[:-2], *given)
        assert (code, out) == (1, "")
        assert err == "ERROR invalid: fallback order lists no stages\n"
        assert calls == {"parse_embedding": 0, "lr_range_search": 0}
        assert not (tmp_path / "f.bin").exists()

    def test_sweep_repeated_pair_fails_before_any_table_parse(self, capsys, calls, pipeline_dir,
                                                              tmp_path):
        argv = self.argv("sweep-unknown", pipeline_dir, tmp_path)[:-2]
        (tmp_path / "pairs.csv").write_text(
            f"pair,path\na,{pipeline_dir['fused']}\na,{pipeline_dir['fused']}\n")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == "ERROR invalid: sweep lists pair 'a' more than once\n"
        assert calls == {"parse_embedding": 0, "lr_range_search": 0}

    def test_sweep_missing_table_fails_before_any_table_parse(self, capsys, calls, pipeline_dir,
                                                              tmp_path):
        argv = self.argv("sweep-unknown", pipeline_dir, tmp_path)[:-2]
        (tmp_path / "pairs.csv").write_text(
            f"pair,path\na,{pipeline_dir['fused']}\nb,missing.bin\n")
        code, out, err = run(capsys, *argv, "--optimizers", "sgd", "--lr", "0.05")
        assert (code, out) == (1, "")
        assert err == f"ERROR invalid: fused embedding file not found: {tmp_path / 'missing.bin'}\n"
        assert calls == {"parse_embedding": 0, "lr_range_search": 0}
        assert not (tmp_path / "o").exists()


class TestChartNames:
    """Two pairs whose names clean to one chart file are refused before any work."""

    @pytest.mark.parametrize("first,second,name", [
        ("a b", "a_b", "a_b.svg"), ("", "pair", "pair.svg"), ("x/y", "x:y", "x_y.svg")])
    def test_sweep_refuses_pairs_sharing_a_chart(self, capsys, monkeypatch, pipeline_dir,
                                                 tmp_path, first, second, name):
        parsed = []
        monkeypatch.setattr(cli, "parse_embedding",
                            lambda *args, **kwargs: parsed.append(args) or None)
        fused = pipeline_dir["fused"]
        manifest = tmp_path / "pairs.csv"
        manifest.write_text(f"pair,path\n\"{first}\",{fused}\n\"{second}\",{fused}\n")
        code, out, err = run(capsys, "sweep", "--dataset", pipeline_dir["dataset"],
                             "--pairs", str(manifest), "--optimizers", "sgd", "--lr", "0.05",
                             "--epochs", "1", "--batch", "8", "--out-dir", str(tmp_path / "o"),
                             *TINY_MODEL)
        assert (code, out) == (1, "")
        assert err == (f"ERROR invalid: pairs {first!r} and {second!r} "
                       f"would share the chart file {name}\n")
        assert parsed == []
        assert not (tmp_path / "o").exists()

    def test_report_refuses_pairs_sharing_a_chart(self, capsys, tmp_path):
        history = tmp_path / "h.csv"
        history.write_text(TestMalformedHistory.HEADER + "".join(
            f"{pair},sgd,0.05,7,{epoch},1.0,0.5,1.0,0.5,0\n"
            for pair in ("a b", "a_b") for epoch in (1, 2)))
        code, out, err = run(capsys, "report", "--history", str(history),
                             "--out-dir", str(tmp_path / "o"))
        assert (code, out) == (1, "")
        assert err == "ERROR invalid: pairs 'a b' and 'a_b' would share the chart file a_b.svg\n"
        assert not (tmp_path / "o").exists()


class TestDegenerateValues:
    """Out-of-range flag values end in one ERROR line, and a degenerate run still reports."""

    def argv(self, command, pipeline_dir, tmp_path):
        ds, fused = pipeline_dir["dataset"], pipeline_dir["fused"]
        manifest = tmp_path / "pairs.csv"
        manifest.write_text(f"pair,path\na,{fused}\n")
        return {
            "prepare": ["prepare", "--csv", os.path.join(FIXTURES, "reviews_50.csv"),
                        "--out", str(tmp_path / "d.ds"), "--max-len", "16"],
            "train": ["train", "--dataset", ds, "--fused", fused, "--optimizer", "sgd",
                      "--epochs", "1", "--batch", "8", "--out", str(tmp_path / "m.ckpt"),
                      *TINY_MODEL],
            "lr-find": ["lr-find", "--dataset", ds, "--fused", fused, "--optimizer", "sgd",
                        "--grid", "1e-3:1e-2:log2", "--epochs", "1", "--batch", "8",
                        *TINY_MODEL],
            "sweep": ["sweep", "--dataset", ds, "--pairs", str(manifest), "--optimizers", "sgd",
                      "--epochs", "1", "--batch", "8", "--out-dir", str(tmp_path / "o"),
                      *TINY_MODEL],
        }[command]

    @pytest.mark.parametrize("command", ["prepare", "train", "lr-find", "sweep"])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_negative_seed_rejected(self, capsys, pipeline_dir, tmp_path, command, route):
        argv = self.argv(command, pipeline_dir, tmp_path)
        if route == "flag":
            argv += ["--seed", "-1"]
            seed = -1
        else:
            config = tmp_path / "c.json"
            config.write_text('{"seed": -3}')
            argv += ["--config", str(config)]
            seed = -3
        code, out, err = run_without_warnings(capsys, *argv)
        assert code == 1
        assert err == f"ERROR invalid: seed must be a non-negative integer, got {seed}\n"

    @pytest.mark.parametrize("grid", ["1e-3:inf:log3", "1e-3:nan:log3"])
    def test_lr_find_rejects_non_finite_grid_bound(self, capsys, pipeline_dir, tmp_path, grid):
        argv = self.argv("lr-find", pipeline_dir, tmp_path) + ["--grid", grid]
        code, out, err = run_without_warnings(capsys, *argv)
        assert code == 1
        assert err == (f"ERROR invalid: bad learning-rate grid {grid!r}; "
                       "need finite 0 < lo < hi and N >= 2\n")

    @pytest.mark.parametrize("max_len", ["-3", "0"])
    def test_prepare_rejects_max_len_below_one(self, capsys, tmp_path, max_len):
        out_path = tmp_path / "d.ds"
        code, out, err = run(capsys, "prepare", "--csv", os.path.join(FIXTURES, "reviews_50.csv"),
                             "--out", str(out_path), "--max-len", max_len)
        assert code == 1
        assert err == f"ERROR invalid: max_len must be at least 1, got {max_len}\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("fill", ["nan", "inf"])
    def test_fuse_rejects_non_finite_unknown_fill(self, capsys, pipeline_dir, tmp_path, fill):
        out_path = tmp_path / "f.bin"
        code, out, err = run(capsys, "fuse", "--emb1", glove_a() + ":glove",
                             "--emb2", fasttext_b() + ":fasttext",
                             "--dataset", pipeline_dir["dataset"], "--out", str(out_path),
                             "--unknown-fill", fill)
        assert code == 1
        assert err == f"ERROR invalid: unknown_fill must be finite, got {fill}\n"
        assert not out_path.exists()

    def test_sweep_rejects_repeated_optimizer(self, capsys, pipeline_dir, tmp_path):
        argv = self.argv("sweep", pipeline_dir, tmp_path) + ["--optimizers", "sgd,sgd",
                                                             "--lr", "0.05"]
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err == "ERROR invalid: sweep lists optimizer 'sgd' more than once\n"

    def test_sweep_rejects_repeated_pair(self, capsys, pipeline_dir, tmp_path):
        argv = self.argv("sweep", pipeline_dir, tmp_path) + ["--lr", "0.05"]
        (tmp_path / "pairs.csv").write_text(
            f"pair,path\na,{pipeline_dir['fused']}\nb,{pipeline_dir['fused']}\n"
            f"a,{pipeline_dir['fused']}\n")
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert err == "ERROR invalid: sweep lists pair 'a' more than once\n"

    def test_report_rejects_a_run_written_twice(self, capsys, tmp_path):
        history = tmp_path / "h.csv"
        history.write_text(TestMalformedHistory.HEADER + "".join(
            f"a,sgd,0.05,7,{epoch},1.0,0.5,1.0,0.5,0\n" for epoch in (1, 2, 1, 2)))
        code, out, err = run(capsys, "report", "--history", str(history),
                             "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert err == ("ERROR invalid: history CSV line 4: "
                       "epoch 1 does not follow epoch 2 of the same run\n")

    def test_lr_find_all_diverged_still_reports_its_table(self, capsys, pipeline_dir, tmp_path):
        table, svg = tmp_path / "lr.csv", tmp_path / "lr.svg"
        argv = self.argv("lr-find", pipeline_dir, tmp_path) + [
            "--grid", "5e306:1e307:log2", "--out", str(table), "--svg", str(svg)]
        code, out, err = run_without_warnings(capsys, *argv)
        assert code == 2
        assert out.splitlines() == [
            "lr=5.000e+306 diverged", "lr=1.000e+307 diverged",
            f"skipped chart {svg}: fewer than 2 learning rates completed without diverging"]
        assert err == "ERROR all-diverged: every learning rate in the grid diverged\n"
        lines = table.read_text().splitlines()
        assert lines[0] == "learning_rate,final_train_loss,diverged,epochs_completed"
        assert [line.split(",", 1)[1] for line in lines[1:]] == [",1,0", ",1,0"]
        assert not svg.exists()


@pytest.fixture(scope="module")
def checkpoint(pipeline_dir):
    """A tiny model trained for one epoch on the pipeline's dataset."""
    path = str(pipeline_dir["root"] / "tiny.ckpt")
    assert dispatch(["train", "--dataset", pipeline_dir["dataset"],
                     "--fused", pipeline_dir["fused"], "--optimizer", "sgd",
                     "--lr", "0.01", "--epochs", "1", "--batch", "8",
                     "--out", path, *TINY_MODEL]) == 0
    return path


def resave(src, dst, edit=None, **config_changes):
    """Write the checkpoint src to dst with its blocks passed through edit
    (a function updating a name -> array dict) and its config changed."""
    with open(src, "rb") as fh:
        params, config = model.load_checkpoint(fh)
    arrays = dict(params.blocks, embedding=params.embedding)
    if edit is not None:
        edit(arrays)
    embedding = arrays.pop("embedding")
    with open(dst, "wb") as fh:
        model.save_checkpoint(fh, model.ModelParameters(arrays, embedding, config.train_embedding),
                              replace(config, **config_changes))
    return str(dst)


class TestBadInputExitsOne:
    """A fault in an input file exits 1 under its own ERROR code, as a bad flag does."""

    def argv(self, code, pipeline_dir, checkpoint, tmp_path):
        ds, fused = pipeline_dir["dataset"], pipeline_dir["fused"]

        def write(data):
            path = tmp_path / "bad"
            path.write_bytes(data)
            return str(path)

        def inspect(fmt, data):
            return ["inspect", write(data), "--format", fmt]

        def prepare(data):
            return ["prepare", "--csv", write(data), "--out", str(tmp_path / "d.ds")]

        def empty_train_split():
            empty, fused_empty = str(tmp_path / "empty.ds"), str(tmp_path / "empty.bin")
            assert dispatch(["prepare", "--csv", os.path.join(FIXTURES, "reviews_50.csv"),
                             "--out", empty, "--max-len", "16", "--train-fraction", "0.01"]) == 0
            assert dispatch(["fuse", "--emb1", glove_a() + ":glove", "--emb2",
                             fasttext_b() + ":fasttext", "--dataset", empty,
                             "--out", fused_empty]) == 0
            return ["train", "--dataset", empty, "--fused", fused_empty, "--optimizer", "sgd",
                    "--lr", "0.01", "--epochs", "1", "--out", str(tmp_path / "m.ckpt"),
                    *TINY_MODEL]

        header = b"Name of the shop place,Title of the review,Review,Rate\n"
        return {
            "parse-float": lambda: inspect("glove", b"a 1 2\nb 3 x\n"),
            "bad-header": lambda: inspect("fasttext", b"x y\na 1 2\n"),
            "truncated-record": lambda: inspect("w2v-bin", b"1 2\nabc"),
            "empty-input": lambda: inspect("glove", b""),
            "dim-mismatch": lambda: ["fuse", "--emb1", glove_a() + ":glove",
                                     "--emb2", write(b"a 1 2\n") + ":glove",
                                     "--dataset", ds, "--out", str(tmp_path / "f.bin")],
            "missing-column": lambda: prepare(b"Name of the shop place,Review,Rate\nS,good,5\n"),
            "empty-file": lambda: prepare(b""),
            "too-few-examples": lambda: prepare(header + b"S,T,good stay,5\n" * 3),
            "empty-dataset": empty_train_split,
        }[code]()

    @pytest.mark.parametrize("code", [
        "parse-float", "bad-header", "truncated-record", "empty-input", "dim-mismatch",
        "missing-column", "empty-file", "too-few-examples", "empty-dataset"])
    def test_fault_exits_one_under_its_code(self, capsys, pipeline_dir, checkpoint, tmp_path,
                                            code):
        argv = self.argv(code, pipeline_dir, checkpoint, tmp_path)
        capsys.readouterr()
        exit_code, out, err = run_without_warnings(capsys, *argv)
        assert exit_code == 1
        assert err.startswith(f"ERROR {code}: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("case", ["no-title", "max-len", "short-embedding"])
    def test_eval_refuses_a_dataset_that_does_not_fit_the_checkpoint(self, capsys, pipeline_dir,
                                                                     checkpoint, tmp_path, case):
        ds, ckpt = str(tmp_path / "d.ds"), checkpoint
        prepare = ["prepare", "--csv", os.path.join(FIXTURES, "reviews_50.csv"), "--out", ds]
        flags, shown = {  # the checkpoint fits a dataset of 61 words and max_len 16
            "no-title": (["--max-len", "16", "--no-title"], "vocab_size 49, max_len 16"),
            "max-len": (["--max-len", "12"], "vocab_size 61, max_len 12"),
            "short-embedding": (["--max-len", "16"], "vocab_size 61, max_len 16"),
        }[case]
        assert dispatch(prepare + flags) == 0
        rows = 61
        if case == "short-embedding":
            ckpt = resave(checkpoint, tmp_path / "short.ckpt",
                          lambda a: a.update(embedding=a["embedding"][:3]))
            rows = 3
        capsys.readouterr()
        code, out, err = run_without_warnings(capsys, "eval", "--dataset", ds, "--ckpt", ckpt)
        assert (code, out) == (1, "")
        assert err == (f"ERROR dim-mismatch: dataset ({shown}) does not fit the checkpoint "
                       f"(embedding rows {rows}, max_len 16)\n")

    @pytest.mark.parametrize("name,edit,config_changes", [
        ("dense_b", lambda a: a.update(dense_b=np.zeros(5)), {}),
        ("lstm_fw_b", lambda a: a.update(lstm_fw_b=a["lstm_fw_b"].reshape(2, -1)), {}),
        ("embedding", lambda a: a.update(embedding=a["embedding"][0]), {}),
        ("embedding", lambda a: a.update(embedding=a["embedding"][:, :3]), {}),
        ("gru_bw_U", lambda a: a.update(gru_bw_U=a["gru_bw_U"][:3, :3]), {}),
        ("embedding", None, {"emb_dim": 5}),
        ("gru_fw_W", None, {"gru_units": 5}),
    ], ids=["dense_b-length", "lstm_fw_b-2d", "embedding-1d", "embedding-width",
            "gru_bw_U-3x3", "config-emb_dim", "config-gru_units"])
    def test_checkpoint_block_of_the_wrong_shape_is_named(self, capsys, pipeline_dir, checkpoint,
                                                          tmp_path, name, edit, config_changes):
        ckpt = resave(checkpoint, tmp_path / "bad.ckpt", edit, **config_changes)
        code, out, err = run_without_warnings(capsys, "eval", "--dataset", pipeline_dir["dataset"],
                                              "--ckpt", ckpt)
        assert (code, out) == (1, "")
        assert err.startswith(f"ERROR invalid: checkpoint block {name!r} has shape ")
        assert err.count("\n") == 1, err
