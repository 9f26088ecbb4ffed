"""The three benchmark workloads.

Each workload is one single-threaded closed-loop client: it calls the
program's public API, waits for the result, checks it, and calls again.
``setup`` makes the inputs from the seed; ``iteration`` is the timed unit of
work and returns its timings and outputs; ``check`` compares those outputs
with the oracles, outside the timed region. Program functions are always
looked up on their module at call time, so the traced run's wrappers see
every call.
"""
from __future__ import annotations

import os
import time
import tracemalloc
from dataclasses import asdict, dataclass, field
from typing import Dict, List

import gen
import oracles

KINDS = ("sgd", "sgd_momentum", "adagrad", "adadelta", "adam")


@dataclass
class Iteration:
    """Timings of one unit of work plus its outputs for the oracles.

    ``items`` are the workload's headline items (examples trained, embedding
    rows parsed) and ``items_wall`` the wall time spent on them.
    """

    wall: float
    items: float
    items_wall: float
    outputs: tuple = ()
    extra: dict = field(default_factory=dict)


def rate(its) -> float:
    """Items per second over the whole run: total items over total items wall.

    The host's speed drifts over seconds to minutes, so the total over every
    iteration of a run is steadier from run to run than a median of them.
    """
    return sum(i.items for i in its) / sum(i.items_wall for i in its)


def mean_wall(its) -> float:
    return sum(i.wall for i in its) / len(its)


class Workload:
    """Shared constructor and the hooks only some workloads need."""

    def __init__(self, api, seed: int, workdir: str, tally: oracles.Tally):
        self.api, self.seed, self.workdir, self.tally = api, seed, workdir, tally

    def warm_up(self) -> None:
        """Untimed work after set-up that brings the process to a steady state."""

    def check_once(self) -> None:
        """Checks that run once per run, outside the timed region."""

    def parse_peak_mb(self) -> float:
        return 0.0


class PaperSweep(Workload):
    name = "paper_sweep"
    LR = 0.01
    EPOCHS = 1
    BATCH = 32

    ref_probs = None

    def setup(self) -> None:
        model, optim = self.api.model, self.api.optim
        self.inp = gen.paper_inputs(self.seed)
        self.data = optim.SplitDataset(self.inp.train_x, self.inp.train_y,
                                       self.inp.test_x, self.inp.test_y)
        self.config = model.ModelConfig(seed=self.seed)
        self.pairs = [("bench", self.inp.embedding)]

    def warm_up(self) -> None:
        """Start the BLAS threads and size the allocator with a test-set evaluation."""
        model = self.api.model
        model.evaluate(self.inp.test_x, self.inp.test_y,
                       model.init_parameters(self.config, self.inp.embedding), self.config)

    def iteration(self) -> Iteration:
        model, optim = self.api.model, self.api.optim
        ckpt = os.path.join(self.workdir, "model.ckpt")
        x, y = self.inp.heldout_x, self.inp.heldout_y
        t0 = time.perf_counter()
        histories = optim.optimizer_sweep(
            self.data, self.config, self.pairs, learning_rate=self.LR, kinds=KINDS,
            epochs=self.EPOCHS, batch_size=self.BATCH, seed=self.seed)
        t1 = time.perf_counter()
        params = model.init_parameters(self.config, self.inp.embedding)
        with open(ckpt, "wb") as fh:
            model.save_checkpoint(fh, params, self.config)
        t2 = time.perf_counter()
        with open(ckpt, "rb") as fh:
            loaded, loaded_config = model.load_checkpoint(fh)
        loss, accuracy = model.evaluate(x, y, loaded, loaded_config)
        pred = model.predict(x, loaded, loaded_config)
        t3 = time.perf_counter()
        return Iteration(t3 - t0, len(KINDS) * self.EPOCHS * len(self.inp.train_y), t1 - t0,
                         (histories, params, loaded, loaded_config, loss, accuracy, pred),
                         {"infer": 2 * len(y), "infer_wall": t3 - t2})

    def check(self, it: Iteration) -> None:
        histories, params, loaded, loaded_config, loss, accuracy, pred = it.outputs
        by_kind = {h.optimizer: h for h in histories}
        for kind in KINDS:
            self.tally.record(f"cell {kind}", oracles.check_sweep_cell(by_kind.get(kind), kind, self.EPOCHS))
        self.tally.record("checkpoint", oracles.check_checkpoint(
            params.blocks, params.embedding, asdict(self.config),
            loaded.blocks, loaded.embedding, asdict(loaded_config)))
        if self.ref_probs is None:
            self.ref_probs = oracles.reference_probs(self.inp.heldout_x, loaded.blocks, loaded.embedding)
        self.tally.record("inference", oracles.check_inference(
            loss, accuracy, pred, self.ref_probs, self.inp.heldout_y))

    def check_once(self) -> None:
        self.tally.record("gradient spot check", oracles.gradient_spot_check(self.api.model, self.seed))

    def headline(self, its: List[Iteration]) -> Dict[str, tuple]:
        return {
            "train_examples_per_s": (rate(its), "1/s"),
            "infer_examples_per_s": (sum(i.extra["infer"] for i in its)
                                     / sum(i.extra["infer_wall"] for i in its), "1/s"),
        }


class TinyLrFind(Workload):
    name = "tiny_lrfind"
    N = 30
    N_TEST = 3
    EPOCHS = 3

    first = None

    def setup(self) -> None:
        model, optim = self.api.model, self.api.optim
        x, y, self.embedding = gen.tiny_inputs(self.seed, self.N)
        cut = self.N - self.N_TEST
        self.data = optim.SplitDataset(x[:cut], y[:cut], x[cut:], y[cut:])
        self.config = model.ModelConfig(max_len=gen.TINY_MAX_LEN, emb_dim=10, lstm_units=8,
                                        gru_units=6, spatial_dropout_rate=0.0,
                                        dropout_rate=0.0, seed=self.seed)

    def iteration(self) -> Iteration:
        t0 = time.perf_counter()
        best, probes = self.api.optim.lr_range_search(
            self.data, self.embedding, self.config, "sgd_momentum",
            epochs=self.EPOCHS, batch_size=1, seed=self.seed)
        wall = time.perf_counter() - t0
        trained = sum(len(p.epoch_losses) for p in probes) * len(self.data.train_y)
        return Iteration(wall, trained, wall, (best, probes))

    def check(self, it: Iteration) -> None:
        best, probes = it.outputs
        if self.first is None:
            self.first = [oracles.probe_record(p) for p in probes]
        for i, rate in enumerate(oracles.default_grid()):
            probe = probes[i] if i < len(probes) else None
            first = self.first[i] if i < len(self.first) else None
            self.tally.record(f"probe {rate:.0e}", oracles.check_lr_probe(probe, rate, self.EPOCHS, first))
        extra = [f"{len(probes)} probes, expected 7"] if len(probes) != 7 else []
        self.tally.record("lr choice", extra + oracles.check_lr_choice(best, probes))

    def headline(self, its: List[Iteration]) -> Dict[str, tuple]:
        return {"train_examples_per_s": (rate(its), "1/s")}


class IngestFuse(Workload):
    name = "ingest_fuse"

    def __init__(self, api, seed: int, workdir: str, tally: oracles.Tally):
        super().__init__(api, seed, workdir, tally)
        self.paths = [os.path.join(workdir, name) for name in gen.INGEST_FILES]

    def setup(self) -> None:
        self.truth = gen.ingest_inputs(self.seed, self.workdir)

    def warm_up(self) -> None:
        """Parse both tables once, so the allocator holds a parse's worth of memory."""
        for path, fmt in ((self.paths[1], "w2v-bin"), (self.paths[2], "glove")):
            self._parse(path, fmt)

    def _parse(self, path: str, fmt: str):
        with open(path, "rb") as fh:
            return self.api.embedding_io.parse_embedding(fh, fmt, name=os.path.basename(path))

    def iteration(self) -> Iteration:
        corpus, fusion, eio = self.api.corpus, self.api.fusion, self.api.embedding_io
        csv_path, w2v_path, glove_path = self.paths
        ds_path = os.path.join(self.workdir, "dataset.txt")
        fused_path = os.path.join(self.workdir, "fused.w2v.bin")
        t0 = time.perf_counter()
        with open(csv_path, "rb") as fh:
            records, dropped = corpus.load_reviews_csv(fh)
        ds, _ = corpus.prepare_corpus(records, loaded=len(records) + dropped, dropped=dropped,
                                      seed=self.seed)
        with open(ds_path, "w", encoding="utf-8", newline="\n") as fh:
            corpus.write_dataset(ds, fh)
        with open(ds_path, "r", encoding="utf-8", newline="") as fh:
            ds2 = corpus.read_dataset(fh)
        p0 = time.perf_counter()
        emb1 = self._parse(w2v_path, "w2v-bin")
        emb2 = self._parse(glove_path, "glove")
        parse_wall = time.perf_counter() - p0
        fused = fusion.build_fused_matrix(ds2.dicts, emb1, emb2)
        payload = eio.write_word2vec_binary(fusion.fused_to_table(fused, ds2.dicts))
        with open(fused_path, "wb") as fh:
            fh.write(payload)
        p1 = time.perf_counter()
        back = self._parse(fused_path, "w2v-bin")
        parse_wall += time.perf_counter() - p1
        readback = fusion.matrix_from_table(back, ds2.dicts)
        wall = time.perf_counter() - t0
        return Iteration(wall, len(emb1) + len(emb2) + len(back), parse_wall, (
            len(records), dropped, ds, ds2, (len(emb1), emb1.mean), (len(emb2), emb2.mean),
            fused.matrix, fused.branch_counts.as_dict(), readback))

    def check(self, it: Iteration) -> None:
        n_records, dropped, ds, ds2, table1, table2, matrix, counts, readback = it.outputs
        tally, truth = self.tally, self.truth
        csv_fail = []
        if (n_records, dropped) != (truth.records, truth.dropped):
            csv_fail.append(f"kept {n_records} dropped {dropped}, planted {truth.records}/{truth.dropped}")
        tally.record("review csv", csv_fail)
        words, size = ds2.dicts.dict_words, ds2.dicts.vocab_size
        ds_fail = oracles.check_dictionary(words, size, truth)
        if (words, ds2.dicts.lemma_dict, size) != (ds.dicts.dict_words, ds.dicts.lemma_dict, ds.dicts.vocab_size):
            ds_fail.append("dictionary changed in the dataset round trip")
        if [(e.indices, int(e.label)) for e in ds.train + ds.test] != \
                [(e.indices, int(e.label)) for e in ds2.train + ds2.test]:
            ds_fail.append("examples changed in the dataset round trip")
        if len(ds2.train) + len(ds2.test) != truth.kept:
            ds_fail.append(f"{len(ds2.train) + len(ds2.test)} examples, planted {truth.kept}")
        tally.record("dataset", ds_fail)
        tally.record("table 1", oracles.check_table(*table1, truth.rows1, truth.mean1))
        tally.record("table 2", oracles.check_table(*table2, truth.rows2, truth.mean2))
        tally.record("fused matrix", oracles.check_fused_matrix(matrix, words, size, truth))
        tally.record("branch counts", oracles.check_branch_counts(counts, truth))
        tally.record("read-back", oracles.check_readback(readback, matrix))

    def parse_peak_mb(self) -> float:
        """Largest traced allocation peak while parsing either input table."""
        peaks = []
        tracemalloc.start()
        try:
            for path, fmt in ((self.paths[1], "w2v-bin"), (self.paths[2], "glove")):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                table = self._parse(path, fmt)
                peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2 ** 20)
                del table
        finally:
            tracemalloc.stop()
        return max(peaks)

    def headline(self, its: List[Iteration]) -> Dict[str, tuple]:
        return {
            "ingest_rows_per_s": (rate(its), "1/s"),
            "fuse_s": (mean_wall(its), "s"),
        }


WORKLOADS = {w.name: w for w in (PaperSweep, TinyLrFind, IngestFuse)}
