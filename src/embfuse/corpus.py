"""Review-corpus ingestion and encoding.

Takes a CSV of place reviews to a padded, label-encoded dataset: dominant
place filtering, star-to-class mapping, tokenization, word/lemma dictionary
construction, fixed-length index encoding, and a stratified train/test
split. Index 0 is reserved for padding and index 1 for unknown words.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .embedding_io import csv_rows, decode_line, iter_lines
from .errors import ValidationError
from .seeding import derive_rng

PAD_INDEX = 0
UNK_INDEX = 1

MAX_LEN = 60

# The collected review CSV's columns by their display names, each matched
# case- and whitespace-insensitively, and the record field each fills.
_COLUMNS = {
    "Name of the shop place": "place_name",
    "Title of the review": "title",
    "Review": "review_text",
    "Rate": "rate",
}


class SentimentLabel(IntEnum):
    bad = 0
    neutral = 1
    good = 2


@dataclass
class ReviewRecord:
    place_name: str
    title: str
    review_text: str
    rate: int


@dataclass
class CorpusDictionaries:
    """Token-to-index map plus the lemma map used by the fusion fallback chain.

    Indices are contiguous starting at 2; 0 is padding, 1 is unknown.
    """

    dict_words: Dict[str, int]
    lemma_dict: Dict[str, str]

    @property
    def vocab_size(self) -> int:
        """Rows of an embedding over this dictionary: its words plus padding and unknown."""
        return len(self.dict_words) + 2


@dataclass
class EncodedExample:
    indices: List[int]
    label: SentimentLabel


@dataclass
class FilterReport:
    place: str
    kept: int
    total: int
    tied: bool = False

    @property
    def share(self) -> float:
        return self.kept / self.total


def _normalize_header(name: str) -> str:
    return " ".join(name.split()).lower()


def load_reviews_csv(stream) -> Tuple[List[ReviewRecord], int]:
    """Load review records from a CSV byte stream.

    The header row must name the four collected columns (matched
    order-insensitively after lowercasing and whitespace collapsing); extra
    columns are ignored. Rows violating the record invariants (rate outside
    1..5, blank review text) are dropped and counted, not fatal.

    Returns (records, dropped_row_count).
    """
    lines = (decode_line(raw, no, "CSV line") for no, raw in enumerate(iter_lines(stream), 1))
    rows = csv_rows(lines, "CSV line")
    try:
        _, header = next(rows)
    except StopIteration:
        raise ValidationError("CSV has no header row", "empty-file") from None
    found: Dict[str, int] = {}
    for i, name in enumerate(header):
        found.setdefault(_normalize_header(name), i)
    positions: Dict[str, int] = {}
    for display, key in _COLUMNS.items():
        at = found.get(_normalize_header(display))
        if at is None:
            raise ValidationError(f"required column not found: {display!r}", "missing-column")
        positions[key] = at

    records: List[ReviewRecord] = []
    dropped = 0
    for _, row in rows:
        if not row:
            continue
        if len(row) <= max(positions.values()):
            dropped += 1
            continue
        rate_text = row[positions["rate"]].strip()
        try:
            rate_value = float(rate_text)
        except ValueError:
            dropped += 1
            continue
        if not (1 <= rate_value <= 5 and rate_value == int(rate_value)):
            dropped += 1
            continue
        rate = int(rate_value)
        review_text = row[positions["review_text"]]
        if not review_text.strip():
            dropped += 1
            continue
        records.append(
            ReviewRecord(
                place_name=row[positions["place_name"]],
                title=row[positions["title"]],
                review_text=review_text,
                rate=rate,
            )
        )
    return records, dropped


def filter_dominant_place(records: Sequence[ReviewRecord]) -> Tuple[List[ReviewRecord], FilterReport]:
    """Keep only the reviews of the most-reviewed place.

    Place names are compared byte-exact after whitespace trim. A tie on the
    modal count keeps the lexicographically smallest name and flags the tie.
    """
    if not records:
        raise ValidationError("no records to filter", "empty-input")
    counts: Dict[str, int] = {}
    for rec in records:
        name = rec.place_name.strip()
        counts[name] = counts.get(name, 0) + 1
    top = max(counts.values())
    modal_names = sorted(name for name, c in counts.items() if c == top)
    modal = modal_names[0]
    kept = [rec for rec in records if rec.place_name.strip() == modal]
    report = FilterReport(
        place=modal,
        kept=len(kept),
        total=len(records),
        tied=len(modal_names) > 1,
    )
    return kept, report


# The sentiment class of each star, 1..5 in order.
RateBuckets = Tuple[SentimentLabel, ...]


def parse_buckets(text: str) -> RateBuckets:
    """Parse a ``bad/neutral/good`` bucket spec such as ``1-2/3/4-5``.

    Each group is a star or an inclusive star range; together the three
    groups must cover each star 1..5 exactly once.
    """
    groups = text.split("/")
    if len(groups) != 3:
        raise ValidationError(f"bucket spec {text!r} must have three '/'-separated groups")
    by_star: Dict[int, SentimentLabel] = {}
    for label, group in zip(SentimentLabel, groups):
        m = re.fullmatch(r"(\d)(?:-(\d))?", group.strip())
        if not m:
            raise ValidationError(f"bad bucket group {group!r}")
        lo = int(m.group(1))
        hi = int(m.group(2)) if m.group(2) else lo
        for star in range(lo, hi + 1):
            if not 1 <= star <= 5 or star in by_star:
                raise ValidationError(f"bucket spec {text!r} does not cover stars 1..5 exactly once")
            by_star[star] = label
    if len(by_star) != 5:
        raise ValidationError(f"bucket spec {text!r} does not cover stars 1..5 exactly once")
    return tuple(by_star[s] for s in range(1, 6))


DEFAULT_BUCKETS = parse_buckets("1-2/3/4-5")


def rate_to_label(rate: int, buckets: RateBuckets = DEFAULT_BUCKETS) -> SentimentLabel:
    """Map a star rating to its sentiment class (default buckets 1-2/3/4-5)."""
    if not isinstance(rate, int) or not 1 <= rate <= 5:
        raise ValidationError(f"rate {rate!r} outside 1..5", "out-of-range")
    return buckets[rate - 1]


_TOKEN_RE = re.compile(r"\w+(?:['’]\w+)*")


def tokenize(text: str) -> List[str]:
    """Split on whitespace/punctuation boundaries, keeping original case.

    Punctuation tokens are discarded; apostrophes internal to a word are
    retained ("don't" stays one token).
    """
    return _TOKEN_RE.findall(text)


_VOWELS = "aeiou"


def _undouble(stem: str) -> Optional[str]:
    if len(stem) < 2:
        return None
    if stem[-1] == stem[-2] and stem[-1] not in _VOWELS and stem[-1].isalpha():
        return stem[:-1]
    return stem


def default_lemmatize(token: str) -> str:
    """Rule-based English suffix stripper used as the built-in lemmatizer.

    Handles -s/-es/-ies/-ing/-ed with doubled-consonant undoubling; expects
    a lowercased token and is intentionally approximate (lemmas only serve
    as fallback lookup keys).
    """
    n = len(token)
    if n <= 3:
        return token
    if token.endswith("ies") and n >= 5:
        return token[:-3] + "y"
    if n >= 5 and token.endswith(("sses", "xes", "zes", "ches", "shes")):
        return token[:-2]
    if token.endswith("ss"):
        return token
    if token.endswith("s"):
        return token[:-1]
    # suffix stripping keeps at least a three-letter stem ("thing" stays)
    if token.endswith("ing") and n >= 6:
        return _undouble(token[:-3]) or token
    if token.endswith("ed") and n >= 5:
        return _undouble(token[:-2]) or token
    return token


def load_lemma_table(stream) -> Dict[str, str]:
    """Load a ``token TAB lemma`` lemma table exported from any NLP tool."""
    table: Dict[str, str] = {}
    for line_no, raw in enumerate(iter_lines(stream), start=1):
        line = decode_line(raw, line_no, "lemma table line").rstrip("\n").rstrip("\r")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValidationError(f"lemma table line {line_no}: expected 'token<TAB>lemma'")
        table[parts[0]] = parts[1]
    return table


def table_lemmatizer(table: Dict[str, str]) -> Callable[[str], str]:
    """Lemmatizer backed by an explicit table; unlisted tokens map to themselves."""
    def lemmatize(token: str) -> str:
        return table.get(token, token)
    return lemmatize


def build_dictionaries(
    token_lists: Iterable[Sequence[str]],
    lemmatizer: Optional[Callable[[str], str]] = None,
) -> CorpusDictionaries:
    """Assign indices 2.. in first-seen order over original-case tokens.

    The lemma map stores lemmatizer(lowercase(token)) for every distinct
    token; the default lemmatizer is the built-in suffix stripper.
    """
    if lemmatizer is None:
        lemmatizer = default_lemmatize
    dict_words: Dict[str, int] = {}
    lemma_dict: Dict[str, str] = {}
    for tokens in token_lists:
        for token in tokens:
            if token not in dict_words:
                dict_words[token] = len(dict_words) + 2
                lemma_dict[token] = lemmatizer(token.lower())
    return CorpusDictionaries(dict_words=dict_words, lemma_dict=lemma_dict)


def encode_sequence(tokens: Sequence[str], dicts: CorpusDictionaries, max_len: int = MAX_LEN) -> List[int]:
    """Encode tokens as indices, left-padded with 0, truncated to max_len.

    Unknown tokens map to index 1; sequences longer than max_len keep their
    first max_len tokens.
    """
    idxs = [dicts.dict_words.get(tok, UNK_INDEX) for tok in tokens[:max_len]]
    return [PAD_INDEX] * (max_len - len(idxs)) + idxs


def split_train_test(
    examples: Sequence[EncodedExample],
    train_fraction: float = 0.9,
    seed: int = 0,
) -> Tuple[List[EncodedExample], List[EncodedExample]]:
    """Deterministic stratified split: per label, round(n * fraction) to train."""
    if len(examples) < 10:
        raise ValidationError(f"need at least 10 examples, got {len(examples)}", "too-few-examples")
    if not 0.0 < train_fraction < 1.0:
        raise ValidationError("train_fraction must be in (0, 1)")
    rng = derive_rng(seed, "split")
    by_label: Dict[int, List[int]] = {}
    for pos, ex in enumerate(examples):
        by_label.setdefault(int(ex.label), []).append(pos)
    train: List[EncodedExample] = []
    test: List[EncodedExample] = []
    for label in sorted(by_label):
        group = by_label[label]
        perm = rng.permutation(len(group))
        n_train = int(len(group) * train_fraction + 0.5)
        chosen = [group[i] for i in perm]
        train.extend(examples[i] for i in chosen[:n_train])
        test.extend(examples[i] for i in chosen[n_train:])
    return train, test


# --- prepared dataset container and its on-disk format ---

_DATASET_MAGIC = "embfuse-dataset"
_DATASET_VERSION = 1


@dataclass
class PreparedDataset:
    dicts: CorpusDictionaries
    max_len: int
    train: List[EncodedExample]
    test: List[EncodedExample]


@dataclass
class PrepareReport:
    loaded: int
    dropped: int
    filter: FilterReport
    label_counts: Dict[str, int]
    vocab_size: int
    train_size: int
    test_size: int

    def lines(self) -> List[str]:
        out = [
            f"rows loaded: {self.loaded} (dropped {self.dropped})",
            f"dominant place: {self.filter.place!r} "
            f"({self.filter.kept}/{self.filter.total} reviews, share {self.filter.share:.3f})"
            + (" [tie]" if self.filter.tied else ""),
            "label counts: "
            + " ".join(f"{k}={v}" for k, v in self.label_counts.items()),
            f"vocab size: {self.vocab_size}",
            f"split: train={self.train_size} test={self.test_size}",
        ]
        return out


def prepare_corpus(
    records: Sequence[ReviewRecord],
    loaded: int = 0,
    dropped: int = 0,
    buckets: RateBuckets = DEFAULT_BUCKETS,
    include_title: bool = True,
    max_len: int = MAX_LEN,
    train_fraction: float = 0.9,
    seed: int = 0,
    lemmatizer: Optional[Callable[[str], str]] = None,
) -> Tuple[PreparedDataset, PrepareReport]:
    """Full pipeline from loaded records to a split, encoded dataset.

    Title and review text are joined with one space before tokenization
    unless include_title is false.
    """
    if max_len < 1:
        raise ValidationError(f"max_len must be at least 1, got {max_len}")
    kept, filt = filter_dominant_place(records)
    token_lists: List[List[str]] = []
    labels: List[SentimentLabel] = []
    for rec in kept:
        text = f"{rec.title} {rec.review_text}" if include_title else rec.review_text
        token_lists.append(tokenize(text))
        labels.append(rate_to_label(rec.rate, buckets))
    dicts = build_dictionaries(token_lists, lemmatizer)
    examples = [
        EncodedExample(indices=encode_sequence(toks, dicts, max_len), label=lab)
        for toks, lab in zip(token_lists, labels)
    ]
    train, test = split_train_test(examples, train_fraction, seed)
    label_counts = {lab.name: 0 for lab in SentimentLabel}
    for lab in labels:
        label_counts[lab.name] += 1
    report = PrepareReport(
        loaded=loaded or len(records),
        dropped=dropped,
        filter=filt,
        label_counts=label_counts,
        vocab_size=dicts.vocab_size,
        train_size=len(train),
        test_size=len(test),
    )
    return PreparedDataset(dicts=dicts, max_len=max_len, train=train, test=test), report


def write_dataset(ds: PreparedDataset, fh) -> None:
    """Write the prepared dataset in the versioned flat text format.

    Layout: one magic+version line, one header line with the counts, a
    ``[words]`` section of ``token TAB index TAB lemma`` lines, then
    ``[train]`` and ``[test]`` sections of ``label TAB i1 i2 ...`` lines.
    """
    fh.write(f"{_DATASET_MAGIC} {_DATASET_VERSION}\n")
    fh.write(
        f"vocab_size={ds.dicts.vocab_size} max_len={ds.max_len} "
        f"train={len(ds.train)} test={len(ds.test)}\n"
    )
    fh.write("[words]\n")
    for token, idx in ds.dicts.dict_words.items():
        fh.write(f"{token}\t{idx}\t{ds.dicts.lemma_dict[token]}\n")
    for section, examples in (("train", ds.train), ("test", ds.test)):
        fh.write(f"[{section}]\n")
        for ex in examples:
            fh.write(f"{int(ex.label)}\t{' '.join(str(i) for i in ex.indices)}\n")


def read_dataset(fh) -> PreparedDataset:
    """Read a dataset written by write_dataset, validating counts.

    fh is a text file or any iterable of its lines. A line that does not
    parse raises ValidationError naming its line number.
    """
    text = iter(fh)
    first = next(text, "").split()
    if len(first) != 2 or first[0] != _DATASET_MAGIC:
        raise ValidationError("not an embfuse dataset file")
    if first[1] != str(_DATASET_VERSION):
        raise ValidationError(f"unsupported dataset version {first[1]}")
    header: Dict[str, int] = {}
    for part in next(text, "").split():
        key, _, value = part.partition("=")
        try:
            header[key] = int(value)
        except ValueError:
            raise ValidationError(f"dataset line 2: bad header field {part!r}") from None
    for key in ("vocab_size", "max_len", "train", "test"):
        if key not in header:
            raise ValidationError(f"dataset header missing {key}")
    if header["max_len"] < 1:
        raise ValidationError(f"dataset line 2: max_len must be at least 1, got {header['max_len']}")
    if next(text, "").strip() != "[words]":
        raise ValidationError("expected [words] section")
    vocab_size = header["vocab_size"]
    dict_words: Dict[str, int] = {}
    lemma_dict: Dict[str, str] = {}
    owners: Dict[int, Tuple[str, int]] = {}  # word index -> (its word, its line)
    lines = enumerate(text, 4)
    line_no, line = next(lines, (0, ""))
    while line and not line.startswith("["):
        try:
            token, idx, lemma = line.rstrip("\n").split("\t")
            index = int(idx)
        except ValueError:
            raise ValidationError(f"dataset line {line_no}: expected token<TAB>index<TAB>lemma") from None
        if not 2 <= index < vocab_size:
            raise ValidationError(
                f"dataset line {line_no}: word index {idx} outside 2..{vocab_size - 1}")
        if index in owners:
            owner, owner_line = owners[index]
            raise ValidationError(f"dataset line {owner_line}: word index {index} of {owner!r} "
                                  f"is given again on line {line_no}, to {token!r}")
        owners[index] = (token, line_no)
        dict_words[token] = index
        lemma_dict[token] = lemma
        line_no, line = next(lines, (0, ""))
    if len(dict_words) + 2 != vocab_size:
        raise ValidationError("word section does not match declared vocab_size")
    dicts = CorpusDictionaries(dict_words, lemma_dict)

    sections: Dict[str, List[EncodedExample]] = {"train": [], "test": []}
    current = line.strip().strip("[]") if line else ""
    for line_no, line in lines:
        if line.startswith("["):
            current = line.strip().strip("[]")
        else:
            if current not in sections:
                raise ValidationError(f"unknown dataset section {current!r}")
            label_text, _, idx_text = line.rstrip("\n").partition("\t")
            try:
                indices = [int(v) for v in idx_text.split()]
                label = SentimentLabel(int(label_text))
            except ValueError as exc:
                raise ValidationError(f"dataset line {line_no}: {exc}") from None
            if len(indices) != header["max_len"]:
                raise ValidationError(f"dataset line {line_no}: encoded example length "
                                      f"{len(indices)} differs from max_len={header['max_len']}")
            if indices and not 0 <= min(indices) <= max(indices) < vocab_size:
                bad = next(v for v in indices if not 0 <= v < vocab_size)
                raise ValidationError(
                    f"dataset line {line_no}: token index {bad} outside 0..{vocab_size - 1}")
            sections[current].append(EncodedExample(indices=indices, label=label))
    if len(sections["train"]) != header["train"] or len(sections["test"]) != header["test"]:
        raise ValidationError("example counts do not match the dataset header")
    return PreparedDataset(
        dicts=dicts, max_len=header["max_len"],
        train=sections["train"], test=sections["test"],
    )
