"""End-to-end command-line tests driven through dispatch()."""
import csv
import os

import numpy as np
import pytest

from embfuse.cli import dispatch

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_non_object_config_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('[1, 2]')
        code, out, err = run(capsys, "inspect", glove_a(), "--config", str(cfg))
        assert code == 1
        assert "JSON object" in err


class TestInspect:
    def test_reports_stats(self, capsys):
        code, out, err = run(capsys, "inspect", glove_a(), "--format", "glove")
        assert code == 0
        assert "dim=4" in out
        assert "vocab=12" in out
        assert "mean_norm=" in out


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
        data = optim.SplitDataset.from_examples(ds.train, ds.test)
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

    def test_fuse_rejects_bad_format_suffix(self, capsys, pipeline_dir, tmp_path):
        code, out, err = run(capsys, "fuse", "--emb1", glove_a(),
                             "--emb2", fasttext_b() + ":fasttext",
                             "--dataset", pipeline_dir["dataset"],
                             "--out", str(tmp_path / "f.bin"))
        assert code == 1
        assert "PATH:FORMAT" in err
