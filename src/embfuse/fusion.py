"""Mean-shift fusion of two pretrained embedding tables over a corpus vocabulary.

For every dictionary word one of four branches applies, chosen by where the
resolved key is found:

* both tables:   (v1 + (v2 + mean1 - mean2)) / 2
* first only:    v1 copied verbatim
* second only:   v2 + mean1 - mean2
* neither:       a constant fill row (zeros by default)

The shift ``mean1 - mean2`` recentres the second table onto the first so the
two vector spaces can be averaged coordinate-wise. Key resolution walks a
fallback chain (exact, lowercase, capital, lemma) and the first candidate
present in either table wins. The capital key upper-cases the first character
and keeps the rest as written ("iPHONE" -> "IPHONE"), unlike str.capitalize().
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .corpus import CorpusDictionaries, PAD_INDEX, UNK_INDEX
from .embedding_io import EmbeddingTable
from .errors import ValidationError

FALLBACK_STAGES = ("exact", "lower", "capital", "lemma")


def fuse_both(v1: np.ndarray, v2: np.ndarray, mean1: np.ndarray, mean2: np.ndarray) -> np.ndarray:
    """Average the first vector with the mean-shifted second vector.

    ``v1`` and ``v2`` may also be matching stacks of rows, one fused row each.
    """
    v1 = np.asarray(v1, dtype=np.float64)
    shifted = fuse_second_only(v2, mean1, mean2)
    if v1.shape != shifted.shape:
        raise ValidationError(f"vector dims differ: {v1.shape} {shifted.shape}", "dim-mismatch")
    return (v1 + shifted) / 2.0


def fuse_second_only(v2: np.ndarray, mean1: np.ndarray, mean2: np.ndarray) -> np.ndarray:
    """Shift a second-table vector (or a stack of rows) into the first table's coordinate frame."""
    v2, mean1, mean2 = (np.asarray(a, dtype=np.float64) for a in (v2, mean1, mean2))
    if not (v2.shape[-1:] == mean1.shape == mean2.shape):
        raise ValidationError(f"vector dims differ: {v2.shape} {mean1.shape} {mean2.shape}",
                              "dim-mismatch")
    return v2 + (mean1 - mean2)


def candidate_keys(
    token: str,
    lemma: Optional[str],
    order: Sequence[str] = FALLBACK_STAGES,
) -> List[Tuple[str, str]]:
    """Ordered, de-duplicated (stage, key) lookup candidates for a token.

    The capital stage upper-cases only the first character ("iPHONE" ->
    "IPHONE"); str.capitalize() would also lower the rest ("Iphone").
    """
    seen = set()
    out: List[Tuple[str, str]] = []
    for stage in order:
        if stage == "exact":
            key = token
        elif stage == "lower":
            key = token.lower()
        elif stage == "capital":
            key = token[:1].upper() + token[1:]
        elif stage == "lemma":
            if lemma is None:
                continue
            key = lemma
        else:
            raise ValidationError(f"unknown fallback stage {stage!r}")
        if key not in seen:
            seen.add(key)
            out.append((stage, key))
    return out


@dataclass
class BranchCounts:
    both: int = 0
    first_only: int = 0
    second_only: int = 0
    unknown: int = 0
    # how often a fallback stage (rather than the exact token) resolved the key
    case_hits: int = 0
    lemma_hits: int = 0

    def total(self) -> int:
        return self.both + self.first_only + self.second_only + self.unknown

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


@dataclass
class FusedMatrix:
    """Dense fused embedding, row w for dictionary index w, and its branch counts.

    Row 0 (padding) is all zeros; row 1 (unknown) is the fill row.
    """

    matrix: np.ndarray
    branch_counts: BranchCounts

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def rows(self) -> List[Tuple[str, str]]:
        """(key, value) report rows: dim, words, each branch's count and share, fallback hits."""
        counts = self.branch_counts
        total = counts.total()
        out = [("dim", str(self.dim)), ("words", str(total))]
        for branch in ("both", "first_only", "second_only", "unknown"):
            n = getattr(counts, branch)
            share = n / total if total else 0.0
            out.append((branch, f"{n}"))
            out.append((branch + "_share", f"{share:.6f}"))
        out.append(("case_hits", str(counts.case_hits)))
        out.append(("lemma_hits", str(counts.lemma_hits)))
        return out

    def lines(self) -> List[str]:
        return [f"{key}: {value}" for key, value in self.rows()]


def check_unknown_fill(unknown_fill: float) -> None:
    """Reject a non-finite fill for the unknown-word rows."""
    if not np.isfinite(unknown_fill):
        raise ValidationError(f"unknown_fill must be finite, got {unknown_fill}")


def build_fused_matrix(
    dicts: CorpusDictionaries,
    emb1: EmbeddingTable,
    emb2: EmbeddingTable,
    unknown_fill: float = 0.0,
    fallback_order: Sequence[str] = FALLBACK_STAGES,
) -> FusedMatrix:
    """Fuse two embedding tables into one matrix over the corpus dictionary.

    Every dictionary word is resolved through the fallback chain against the
    union of both vocabularies; the first candidate found in either table
    decides the branch. Branch counts over dictionary words sum to
    vocab_size - 2 (padding and unknown rows are synthetic).
    """
    check_unknown_fill(unknown_fill)
    if not dicts.dict_words:
        raise ValidationError("corpus dictionary has no words", "empty-dictionaries")
    if emb1.dim != emb2.dim:
        raise ValidationError(f"table dims differ: {emb1.dim} vs {emb2.dim}", "dim-mismatch")
    dim = emb1.dim
    matrix = np.zeros((dicts.vocab_size, dim), dtype=np.float64)
    matrix[UNK_INDEX] = unknown_fill
    counts = BranchCounts()
    # dictionary row and table rows of each word, per branch
    both: List[Tuple[int, int, int]] = []
    first_only: List[Tuple[int, int]] = []
    second_only: List[Tuple[int, int]] = []
    unknown: List[int] = []

    for token, w in dicts.dict_words.items():
        resolved = None
        for stage, key in candidate_keys(token, dicts.lemma_dict.get(token), fallback_order):
            if key in emb1 or key in emb2:
                resolved = (stage, key)
                break
        if resolved is None:
            unknown.append(w)
            continue
        stage, key = resolved
        if stage in ("lower", "capital"):
            counts.case_hits += 1
        elif stage == "lemma":
            counts.lemma_hits += 1
        i1 = emb1.vocab.get(key)
        i2 = emb2.vocab.get(key)
        if i1 is not None and i2 is not None:
            both.append((w, i1, i2))
        elif i1 is not None:
            first_only.append((w, i1))
        else:
            second_only.append((w, i2))

    w, i1, i2 = np.array(both, dtype=np.intp).reshape(-1, 3).T
    matrix[w] = fuse_both(emb1.matrix[i1], emb2.matrix[i2], emb1.mean, emb2.mean)
    w, i1 = np.array(first_only, dtype=np.intp).reshape(-1, 2).T
    matrix[w] = emb1.matrix[i1]
    w, i2 = np.array(second_only, dtype=np.intp).reshape(-1, 2).T
    matrix[w] = fuse_second_only(emb2.matrix[i2], emb1.mean, emb2.mean)
    matrix[unknown] = unknown_fill
    counts.both, counts.first_only = len(both), len(first_only)
    counts.second_only, counts.unknown = len(second_only), len(unknown)

    return FusedMatrix(matrix=matrix, branch_counts=counts)


PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"


def fused_to_table(fused: FusedMatrix, dicts: CorpusDictionaries) -> EmbeddingTable:
    """View the fused matrix as an embedding table, named ``fused``, for binary serialization.

    The padding and unknown rows are stored under the reserved keys
    ``<pad>`` and ``<unk>``.
    """
    vocab: Dict[str, int] = {PAD_TOKEN: PAD_INDEX, UNK_TOKEN: UNK_INDEX}
    for token, w in dicts.dict_words.items():
        vocab[token] = w
    return EmbeddingTable(name="fused", vocab=vocab, matrix=fused.matrix.copy(),
                          mean=fused.matrix.mean(axis=0))


def matrix_from_table(table: EmbeddingTable, dicts: CorpusDictionaries) -> np.ndarray:
    """Rebuild the (vocab_size, dim) matrix from a serialized fused table."""
    matrix = np.zeros((dicts.vocab_size, table.dim), dtype=np.float64)
    for token, w in ((PAD_TOKEN, PAD_INDEX), (UNK_TOKEN, UNK_INDEX)):
        if token in table:
            matrix[w] = table.vector(token)
    for token, w in dicts.dict_words.items():
        if token not in table:
            raise ValidationError(
                f"fused table is missing dictionary word {token!r}; "
                "was it built from a different dataset?"
            )
        matrix[w] = table.vector(token)
    return matrix
