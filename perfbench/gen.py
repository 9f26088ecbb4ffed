"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and returns the inputs together with
the ground truth the output oracles need, so the program under test only
ever sees the generated inputs. The same seed gives byte-identical inputs.
Nothing here imports ``embfuse``: the generators and the truth they return
must not change when the program does.
"""
from __future__ import annotations

import csv
import io
import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

PAPER_VOCAB = 5000
PAPER_DIM = 300
PAPER_MAX_LEN = 60


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """A stream keyed by the workload seed and a fixed tag."""
    key = zlib.crc32(tag.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(key,)))


def left_padded(rng: np.random.Generator, n: int, vocab: int, max_len: int) -> np.ndarray:
    """Index rows whose lengths spread evenly over 1..max_len, left-padded with 0."""
    lengths = 1 + (np.arange(n) * max_len // max(n, 1)) % max_len
    rng.shuffle(lengths)
    x = np.zeros((n, max_len), dtype=np.int64)
    for i, length in enumerate(lengths):
        x[i, max_len - length:] = rng.integers(1, vocab, size=length)
    return x


@dataclass
class PaperInputs:
    embedding: np.ndarray
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    heldout_x: np.ndarray
    heldout_y: np.ndarray


def paper_inputs(seed: int, n_train: int = 64, n_test: int = 8, n_heldout: int = 64,
                 vocab: int = PAPER_VOCAB, dim: int = PAPER_DIM,
                 max_len: int = PAPER_MAX_LEN) -> PaperInputs:
    """A frozen 300-d table and a left-padded corpus at the paper's sizes."""
    rng = rng_for(seed, "paper")
    embedding = rng.normal(0.0, 0.5, size=(vocab, dim))
    embedding[0] = 0.0
    parts = []
    for n in (n_train, n_test, n_heldout):
        parts.append(left_padded(rng, n, vocab, max_len))
        parts.append(rng.integers(0, 3, size=n))
    return PaperInputs(embedding, *parts)


TINY_VOCAB = 30
TINY_MAX_LEN = 12
TINY_SIGNAL = (2, 3, 4)
TINY_FILLER_START = 5


def tiny_inputs(seed: int, n: int = 30) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Token-determined sequences at the acceptance test's lr-search shape.

    Class c is marked by one signal token. In 3 of every 10 rows the raw
    sequence is longer than the window and the signal sits in the head the
    window cuts away, so those rows carry no signal. Returns (x, y, embedding).
    """
    rng = rng_for(seed, "tiny")
    x = np.zeros((n, TINY_MAX_LEN), dtype=np.int64)
    y = np.zeros(n, dtype=np.int64)
    for i in range(n):
        label = i % 3
        if (i // 3) % 10 < 3:
            raw = rng.integers(TINY_FILLER_START, TINY_VOCAB,
                               size=TINY_MAX_LEN + int(rng.integers(2, 5)))
            raw[int(rng.integers(0, 2))] = TINY_SIGNAL[label]
        else:
            raw = rng.integers(TINY_FILLER_START, TINY_VOCAB,
                               size=int(rng.integers(5, TINY_MAX_LEN + 1)))
            raw[int(rng.integers(0, len(raw)))] = TINY_SIGNAL[label]
        window = raw[-TINY_MAX_LEN:]
        x[i, TINY_MAX_LEN - len(window):] = window
        y[i] = label
    embedding = rng.normal(0.0, 4.0, size=(TINY_VOCAB, 10))
    embedding[0] = 0.0
    return x, y, embedding


# --- ingest_fuse: review CSV and two embedding tables on disk ---

# How each dictionary word reaches the tables: (stage that resolves it,
# how the corpus spells the word relative to the table key).
CATEGORIES = ("exact", "lower", "capital", "lemma", "unknown")
BRANCHES = ("both", "first_only", "second_only")

_CONSONANTS = "bcdfghjklmnpqrstvwxz"
_VOWELS = "aeiou"
# A final letter that none of the built-in lemmatizer's suffix rules touch
# (not s, e, d or g), so stem + "s" lemmatizes back to the stem.
_FINALS = "bfklmnprtv"
STEM_LEN = 7

# glove components are dyadic (k / 256) so their decimal text parses exactly.
_GLOVE_DENOM = 256
_GLOVE_RANGE = 384
_GLOVE_OFFSET = 32      # in units of 1/256: shifts the second table's mean
_W2V_OFFSET = np.float32(-0.0625)
_GLOVE_TEXT = ["%.8f" % (k / _GLOVE_DENOM) for k in range(-_GLOVE_RANGE, _GLOVE_RANGE + _GLOVE_OFFSET + 1)]

CSV_HEADER = ["Name of the shop place", "Title of the review", "Review", "Rate"]
DOMINANT_PLACE = "Cafe Dominant"
_BAD_RATES = ("0", "6", "x", "4.5")


@dataclass
class IngestSizes:
    w2v_rows: int = 50000
    glove_rows: int = 12000
    reviews: int = 3000
    bad_rows: int = 40
    words: Dict[str, int] = field(default_factory=lambda: {
        "exact": 900, "lower": 120, "capital": 120, "lemma": 120, "unknown": 100,
    })
    dim: int = PAPER_DIM
    chunk: int = 1000


@dataclass
class IngestTruth:
    """What the generator planted; the ingest_fuse oracles compare against it."""

    plan: Dict[str, Tuple[str, str, bool, bool]]   # corpus token -> (stage, key, in1, in2)
    vec1: Dict[str, np.ndarray]                    # table-1 key -> float64 vector
    vec2: Dict[str, np.ndarray]
    mean1: np.ndarray
    mean2: np.ndarray
    rows1: int
    rows2: int
    counts: Dict[str, int]                         # expected fusion branch counts
    records: int                                   # rows load_reviews_csv keeps
    dropped: int                                   # rows it drops
    kept: int                                      # reviews of the dominant place


def _stems(rng: np.random.Generator, n: int) -> List[str]:
    out: List[str] = []
    seen = set()
    while len(out) < n:
        letters = [
            _CONSONANTS[rng.integers(len(_CONSONANTS))] if i % 2 == 0
            else _VOWELS[rng.integers(len(_VOWELS))]
            for i in range(STEM_LEN - 1)
        ]
        stem = "".join(letters) + _FINALS[rng.integers(len(_FINALS))]
        if stem not in seen:
            seen.add(stem)
            out.append(stem)
    return out


def _plan_words(rng: np.random.Generator, sizes: IngestSizes):
    """Corpus tokens, how each resolves, and the expected branch counts."""
    plan: Dict[str, Tuple[str, str, bool, bool]] = {}
    counts = {"both": 0, "first_only": 0, "second_only": 0, "unknown": 0,
              "case_hits": 0, "lemma_hits": 0}
    stems = _stems(rng, sum(sizes.words.values()))
    pos = 0
    for category in CATEGORIES:
        for _ in range(sizes.words[category]):
            stem = stems[pos]
            pos += 1
            if category == "unknown":
                token = stem.capitalize() if rng.integers(2) else stem
                plan[token] = ("unknown", "", False, False)
                counts["unknown"] += 1
                continue
            branch = BRANCHES[int(rng.integers(len(BRANCHES)))]
            in1, in2 = branch != "second_only", branch != "first_only"
            if category == "exact":
                token, key = stem, stem
            elif category == "lower":
                token, key = stem.capitalize(), stem
            elif category == "capital":
                token, key = stem, stem.capitalize()
            else:
                token, key = stem + "s", stem
            plan[token] = (category, key, in1, in2)
            counts[branch] += 1
            if category in ("lower", "capital"):
                counts["case_hits"] += 1
            elif category == "lemma":
                counts["lemma_hits"] += 1
    return plan, counts


def _row_tokens(rng, keys: List[str], rows: int, prefix: str) -> List[str]:
    fillers = [f"{prefix}{i}" for i in range(rows - len(keys))]
    tokens = keys + fillers
    order = rng.permutation(len(tokens))
    return [tokens[i] for i in order]


def _write_w2v(path: str, rng, tokens: List[str], wanted: set, sizes: IngestSizes):
    vecs: Dict[str, np.ndarray] = {}
    total = np.zeros(sizes.dim)
    with open(path, "wb") as fh:
        fh.write(f"{len(tokens)} {sizes.dim}\n".encode("ascii"))
        for lo in range(0, len(tokens), sizes.chunk):
            block = tokens[lo:lo + sizes.chunk]
            values = rng.standard_normal((len(block), sizes.dim), dtype=np.float32) + _W2V_OFFSET
            total += values.astype(np.float64).sum(axis=0)
            out = bytearray()
            for token, row in zip(block, values):
                out += token.encode("utf-8") + b" " + row.astype("<f4").tobytes()
                if token in wanted:
                    vecs[token] = row.astype(np.float64)
            fh.write(out)
    return vecs, total / len(tokens)


def _write_glove(path: str, rng, tokens: List[str], wanted: set, sizes: IngestSizes):
    vecs: Dict[str, np.ndarray] = {}
    total = np.zeros(sizes.dim)
    with open(path, "wb") as fh:
        for lo in range(0, len(tokens), sizes.chunk):
            block = tokens[lo:lo + sizes.chunk]
            ks = rng.integers(-_GLOVE_RANGE, _GLOVE_RANGE + 1, size=(len(block), sizes.dim)) + _GLOVE_OFFSET
            total += ks.sum(axis=0) / _GLOVE_DENOM
            lines = []
            for token, row in zip(block, ks):
                lines.append(token + " " + " ".join([_GLOVE_TEXT[k + _GLOVE_RANGE] for k in row]))
                if token in wanted:
                    vecs[token] = row / _GLOVE_DENOM
            fh.write(("\n".join(lines) + "\n").encode("utf-8"))
    return vecs, total / len(tokens)


def _write_reviews(path: str, rng, plan_tokens: List[str], sizes: IngestSizes) -> Tuple[int, int, int]:
    """Review CSV: one dominant place whose reviews use every planted token."""
    kept = sizes.reviews * 3 // 5
    others = [f"Place {k}" for k in range(1, 9)]
    rows: List[List[str]] = []
    dominant_words: List[List[str]] = [[] for _ in range(kept)]
    for i, token in enumerate(plan_tokens):
        dominant_words[i % kept].append(token)
    for words in dominant_words:
        extra = rng.integers(4, 40)
        words.extend(plan_tokens[j] for j in rng.integers(0, len(plan_tokens), size=extra))
        rng.shuffle(words)
        title_len = int(rng.integers(1, 4))
        title = " ".join(words[:title_len])
        body = " ".join(words[title_len:]) or words[0]
        rows.append([DOMINANT_PLACE, title, body.replace(" ", ", ", 1) + ".", str(int(rng.integers(1, 6)))])
    for i in range(sizes.reviews - kept):
        words = [plan_tokens[j] for j in rng.integers(0, len(plan_tokens), size=int(rng.integers(3, 30)))]
        rows.append([others[i % len(others)], words[0], " ".join(words), str(int(rng.integers(1, 6)))])
    for i in range(sizes.bad_rows):
        text = "" if i % 5 == 4 else "bad row"
        rows.append([DOMINANT_PLACE, "bad", text, _BAD_RATES[i % len(_BAD_RATES)] if text else "3"])
    order = rng.permutation(len(rows))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows[i] for i in order)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue().encode("utf-8"))
    return sizes.reviews, sizes.bad_rows, kept


INGEST_FILES = ("reviews.csv", "table1.w2v.bin", "table2.glove.txt")


def ingest_inputs(seed: int, workdir: str, sizes: IngestSizes = IngestSizes()) -> IngestTruth:
    """Write the review CSV and both tables under ``workdir``; return the truth.

    Tables are written a chunk of rows at a time and only the planted rows are
    kept in memory, so generation stays far below the parse's peak memory.
    Table 1 (word2vec binary) is the large one; table 2 (glove text) is
    smaller. Both are much larger than the corpus dictionary.
    """
    rng = rng_for(seed, "ingest")
    plan, counts = _plan_words(rng, sizes)
    keys1 = [key for (_, key, in1, _) in plan.values() if in1]
    keys2 = [key for (_, key, _, in2) in plan.values() if in2]
    tokens1 = _row_tokens(rng, keys1, sizes.w2v_rows, "w2v_filler_")
    tokens2 = _row_tokens(rng, keys2, sizes.glove_rows, "glove_filler_")
    csv_path, w2v_path, glove_path = (os.path.join(workdir, name) for name in INGEST_FILES)
    vec1, mean1 = _write_w2v(w2v_path, rng, tokens1, set(keys1), sizes)
    vec2, mean2 = _write_glove(glove_path, rng, tokens2, set(keys2), sizes)
    records, dropped, kept = _write_reviews(csv_path, rng, list(plan), sizes)
    return IngestTruth(plan=plan, vec1=vec1, vec2=vec2, mean1=mean1, mean2=mean2,
                       rows1=len(tokens1), rows2=len(tokens2), counts=counts,
                       records=records, dropped=dropped, kept=kept)
