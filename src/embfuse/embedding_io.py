"""Parsers and writers for pretrained word-embedding files.

Three on-disk formats are supported and normalized into one in-memory
:class:`EmbeddingTable`:

* ``glove``    - plain text, one ``token c1 ... cd`` line per word, no header.
* ``fasttext`` - like ``glove`` but with a ``vocab_size dim`` header line.
* ``w2v-bin``  - ASCII ``vocab_size dim\\n`` header, then per record the
  token bytes, one space, and ``dim`` little-endian float32 values; a single
  newline may follow each record's floats and is consumed if present.

A table's matrix keeps the width its values were decoded at: float32 for
``w2v-bin``, whose records store float32, and float64 for the text formats,
which are parsed from decimal text. Its column mean is float64 for every
format. Consumers widen a row to float64 before doing arithmetic on it.
Parsing streams from a binary file object; a bytes object or an iterable of
bytes chunks is also accepted. Text formats are read as the file's own lines
and w2v-bin in chunks. Besides the output table, a parser holds one input
chunk (or the one record that spans chunks, if longer) or one block of text
lines (``_BLOCK_ROWS`` lines or about ``_BLOCK_BYTES``, whichever is less).
Decoded rows are appended to one growing byte buffer, and the matrix is a
view of that buffer, so no second matrix is built from them. A w2v-bin
file's duplicate records are removed at the end by moving the rows after
them down inside the buffer, about ``_BLOCK_BYTES`` at a time, so the matrix
views the buffer's first rows.

A w2v-bin record's float bytes are appended to the buffer as they are read;
every ``_BLOCK_ROWS`` records the newest rows are checked for non-finite
values (the first bad row gives the record number). A block of text lines
has its components decoded by one ``np.loadtxt`` call, which rounds exactly
as ``float()`` does; a block it cannot decode exactly is re-read line by line
with ``float()``, so the accepted syntax and every error (code, message, line
number) are those of the line-by-line parser.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError

_CHUNK = 1 << 16
_BLOCK_ROWS = 4096
_BLOCK_BYTES = 1 << 20


def _chunks(source) -> Iterator[bytes]:
    """Byte chunks of a binary file object, a bytes object or an iterable of bytes."""
    if hasattr(source, "read"):
        return iter(lambda: source.read(_CHUNK), b"")
    if isinstance(source, (bytes, bytearray)):
        return iter((bytes(source),))
    return map(bytes, source)


def _refill(chunks: Iterator[bytes], tail: bytes, need: int) -> Tuple[bytes, bool]:
    """``tail`` plus further chunks until it holds ``need`` bytes; True once the stream ends."""
    pieces = [tail]
    have = len(tail)
    for chunk in chunks:
        pieces.append(chunk)
        have += len(chunk)
        if have >= need:
            return b"".join(pieces), False
    return b"".join(pieces), True


def iter_lines(source) -> Iterator[bytes]:
    """The lines of a byte source, each with its trailing newline where present.

    A binary file object is iterated as it is; lines end at ``b"\\n"`` only,
    so no UTF-8 character is ever split.
    """
    if hasattr(source, "read"):
        return iter(source)
    return iter(io.BytesIO(b"".join(_chunks(source))))


def decode_line(raw: bytes, line_no: int, what: str = "line") -> str:
    """A line decoded as UTF-8; a ValidationError naming the line and byte if it is not UTF-8."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{what} {line_no}: byte {exc.start + 1} is not valid UTF-8") from None


def csv_rows(lines: Iterable[str], what: str) -> Iterator[Tuple[int, List[str]]]:
    """(line number, row) for each CSV row of decoded lines. A row the csv
    module cannot split, such as one with a lone carriage return, raises
    ValidationError naming its line."""
    reader = csv.reader(lines)
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            # drop the module's hint about universal-newline mode, which only a caller can act on
            reason = str(exc).split(" - ", 1)[0]
            raise ValidationError(f"{what} {reader.line_num}: {reason}") from None
        yield reader.line_num, row


@dataclass
class EmbeddingTable:
    """A parsed embedding: vocabulary, dense matrix, and cached column mean.

    ``vocab`` maps each token to its row index in ``matrix``, which must be
    2-D with one row per token (ValidationError ``dim-mismatch`` otherwise);
    ``dim`` is its width. A float32 matrix (as parsed from ``w2v-bin``) stays
    float32; any other is stored as float64. ``mean`` is always float64: the
    arithmetic mean over all rows, accumulated in float64 (zeros for an empty
    table). ``warnings`` collects
    non-fatal parse diagnostics such as duplicate tokens.
    """

    name: str
    vocab: Dict[str, int]
    matrix: np.ndarray
    mean: np.ndarray
    warnings: List[str] = field(default_factory=list)

    def __post_init__(self):
        matrix = np.asarray(self.matrix)
        if matrix.dtype != np.float32:
            matrix = matrix.astype(np.float64, copy=False)
        self.matrix = matrix
        self._check_shape()
        self.mean = np.asarray(self.mean, dtype=np.float64).reshape(self.dim)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def _check_shape(self) -> None:
        """Raise unless the matrix is 2-D with one row per vocab entry."""
        if self.matrix.ndim != 2 or len(self.matrix) != len(self.vocab):
            raise ValidationError(f"matrix shape {self.matrix.shape} != ({len(self.vocab)}, dim)",
                                  "dim-mismatch")

    def __len__(self) -> int:
        return len(self.vocab)

    def __contains__(self, token: str) -> bool:
        return token in self.vocab

    def vector(self, token: str) -> np.ndarray:
        return self.matrix[self.vocab[token]]

    def validate(self) -> None:
        """Check the structural invariants, raising on violation."""
        self._check_shape()
        n = len(self.vocab)
        if sorted(self.vocab.values()) != list(range(n)):
            raise ValidationError("vocab indices are not a permutation of 0..n-1", "dim-mismatch")
        if n and not np.isfinite(self.matrix).all():
            raise ValidationError("matrix contains non-finite entries", "parse-float")


def _admit(vocab: Dict[str, int], warnings: List[str], token: str, unit: str, no: int) -> bool:
    """Give ``token`` the next row unless it was seen before ("keep first", with a warning)."""
    if token in vocab:
        warnings.append(f"duplicate token {token!r} at {unit} {no}, kept first")
        return False
    vocab[token] = len(vocab)
    return True


def _finish_table(name: str, dim: int, vocab: Dict[str, int], rows: bytearray, dtype,
                  warnings: List[str], drop: Sequence[int] = ()) -> EmbeddingTable:
    """The table whose matrix is a view of the decoded rows in ``rows``, less the rows ``drop``.

    The rows drop, ascending, are dropped in place: each run of kept rows
    moves down over them a block of at most ``_BLOCK_BYTES`` at a time, so the
    matrix is the buffer's first rows and holds what ``np.delete`` would. The
    float64 mean of a float32 matrix is bit-identical to the mean of its
    float64 widening; per-block partial means would not be.
    """
    matrix = np.frombuffer(rows, dtype=dtype).reshape(-1, dim)
    if drop:
        step = max(1, _BLOCK_BYTES // max(1, matrix[0].nbytes))
        dst = drop[0]
        for start, stop in zip([d + 1 for d in drop], [*drop[1:], len(matrix)]):
            for src in range(start, stop, step):
                m = min(step, stop - src)
                matrix[dst:dst + m] = matrix[src:src + m]
                dst += m
        matrix = matrix[:dst]
    return EmbeddingTable(name=name, vocab=vocab, matrix=matrix,
                          mean=matrix.mean(axis=0, dtype=np.float64), warnings=warnings)


def _parse_component(text: str, line_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"line {line_no}: cannot parse {text!r} as a float",
                              "parse-float") from None
    if not math.isfinite(value):
        raise ValidationError(f"line {line_no}: non-finite component {text!r}", "parse-float")
    return value


class _TextRows:
    """Rows of the glove/fasttext text formats, decoded a block of lines at a time."""

    def __init__(self, dim: Optional[int], first_line_no: int, warnings: List[str]):
        self.dim = dim
        self.line_no = first_line_no - 1  # number of the last line consumed
        self.n_data = 0
        self.vocab: Dict[str, int] = {}
        self.data = bytearray()  # the float64 rows decoded so far
        self.warnings = warnings

    def add(self, raws: List[bytes]) -> None:
        if not self._add_bulk(raws):
            self._add_each(raws)
        self.line_no += len(raws)

    def _add_bulk(self, raws: List[bytes]) -> bool:
        """Decode the block with one ``np.loadtxt``; False, with no state changed, if it cannot."""
        tokens, texts, line_nos = [], [], []
        for line_no, raw in enumerate(raws, self.line_no + 1):
            try:
                parts = raw.decode("utf-8").split(None, 1)
            except UnicodeDecodeError:
                return False
            if len(parts) == 2:
                tokens.append(parts[0])
                texts.append(parts[1])
                line_nos.append(line_no)
            elif parts:
                return False
        if not texts:
            return True
        try:
            values = np.loadtxt(texts, comments=None, ndmin=2)
        except ValueError:
            return False
        dim = self.dim or values.shape[1]
        if values.shape != (len(texts), dim) or not np.isfinite(values).all():
            return False
        self.dim = dim
        self.n_data += len(texts)
        keep = [i for i, (token, line_no) in enumerate(zip(tokens, line_nos))
                if _admit(self.vocab, self.warnings, token, "line", line_no)]
        self.data += memoryview(values if len(keep) == len(texts) else values[keep])
        return True

    def _add_each(self, raws: List[bytes]) -> None:
        """Decode the block line by line with ``float()``, raising at the first bad line."""
        rows = []
        for line_no, raw in enumerate(raws, self.line_no + 1):
            parts = decode_line(raw, line_no).split()
            if not parts:
                continue
            self.n_data += 1
            if self.dim is None:
                self.dim = len(parts) - 1
                if self.dim < 1:
                    raise ValidationError(
                        f"line {line_no}: expected a token and at least one component",
                        "dim-mismatch")
            if len(parts) - 1 != self.dim:
                raise ValidationError(
                    f"line {line_no}: {len(parts) - 1} components, expected {self.dim}",
                    "dim-mismatch")
            if _admit(self.vocab, self.warnings, parts[0], "line", line_no):
                rows.append([_parse_component(p, line_no) for p in parts[1:]])
        if rows:
            self.data += memoryview(np.array(rows, dtype=np.float64))


def _parse_text_lines(lines: Iterable[bytes], dim: Optional[int], first_line_no: int,
                      warnings: List[str]) -> _TextRows:
    """Shared line loop for the glove and fasttext text formats."""
    rows = _TextRows(dim, first_line_no, warnings)
    block: List[bytes] = []
    size = 0
    for raw in lines:
        block.append(raw)
        size += len(raw)
        if size >= _BLOCK_BYTES or len(block) == _BLOCK_ROWS:
            rows.add(block)
            block, size = [], 0
    if block:
        rows.add(block)
    return rows


def parse_glove_text(stream, name: str = "glove") -> EmbeddingTable:
    """Parse headerless ``token c1 ... cd`` text (the GloVe distribution layout).

    The vector length is fixed by the first line; duplicate tokens keep their
    first occurrence. Raises ValidationError with code ``empty-input`` on a
    zero-line stream, ``dim-mismatch`` when a line's component count differs
    from the first line's, and ``parse-float`` on unparseable or non-finite
    components.
    """
    warnings: List[str] = []
    rows = _parse_text_lines(iter_lines(stream), None, 1, warnings)
    if rows.n_data == 0:
        raise ValidationError("no lines in input", "empty-input")
    return _finish_table(name, rows.dim, rows.vocab, rows.data, np.float64, warnings)


def _header(line: bytes) -> Tuple[int, int]:
    """The ``vocab_size dim`` header line shared by fasttext and w2v-bin."""
    parts = line.split()
    if len(parts) != 2:
        raise ValidationError(f"expected 'vocab_size dim' header, got {line!r}", "bad-header")
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValidationError(f"non-integer header fields in {line!r}", "bad-header") from None
    if count < 0 or dim < 1:
        raise ValidationError(f"invalid header values {count} {dim}", "bad-header")
    return count, dim


def parse_fasttext_text(stream, name: str = "fasttext") -> EmbeddingTable:
    """Parse text with a leading ``vocab_size dim`` header (fastText .vec layout).

    The declared vocab_size is cross-checked against the actual data line
    count; a mismatch is recorded as a warning, not an error, since published
    files are sometimes trimmed.
    """
    lines = iter_lines(stream)
    header = next(lines, b"")
    if not header:
        raise ValidationError("no lines in input", "empty-input")
    declared, dim = _header(header)
    warnings: List[str] = []
    rows = _parse_text_lines(lines, dim, 2, warnings)
    if rows.n_data == 0:
        raise ValidationError("header but no vector lines", "empty-input")
    if rows.n_data != declared:
        warnings.append(f"count mismatch: header declares {declared}, found {rows.n_data} lines")
    return _finish_table(name, dim, rows.vocab, rows.data, np.float64, warnings)


def _check_finite(rows: bytearray, dim: int, done: int) -> None:
    """Raise at the first record after the first ``done`` whose float32 values are not all finite."""
    finite = np.isfinite(np.frombuffer(rows, dtype="<f4", offset=4 * dim * done)
                         .reshape(-1, dim)).all(axis=1)
    if not finite.all():
        raise ValidationError(f"record {done + 1 + int(np.argmin(finite))}: non-finite component",
                              "parse-float")


def parse_word2vec_binary(stream, name: str = "w2v") -> EmbeddingTable:
    """Parse the word2vec binary layout (the GoogleNews distribution format).

    Header is ASCII ``vocab_size dim\\n``; each record is the token bytes, a
    single space, then dim little-endian float32 values, optionally followed
    by one newline. The matrix holds the float32 values as stored; the mean
    is float64 and exact, the same bits as the mean of the widened rows.
    Duplicate tokens keep the first occurrence and record a warning. The
    declared vocab_size bounds the number of records read but sizes no
    allocation: a header declaring 0 records raises ``empty-input``, and bytes
    after the last declared record are not read but warned of as a count
    mismatch.
    """
    chunks = _chunks(stream)
    buf, eof = b"", False
    while True:
        nl = buf.find(b"\n")
        if nl >= 0 or eof:
            break
        buf, eof = _refill(chunks, buf, 2 * len(buf) + 1)
    if nl < 0:
        raise ValidationError("missing header line", "bad-header")
    count, dim = _header(buf[:nl + 1])
    if count == 0:
        raise ValidationError("header declares no records", "empty-input")

    vocab: Dict[str, int] = {}
    warnings: List[str] = []
    nbytes = 4 * dim
    rows = bytearray()  # every record's float bytes, duplicates included
    checked, dups = 0, []  # records checked for non-finite values; duplicate records' rows
    pos, view = nl + 1, memoryview(buf)
    error = None
    rec = 0
    while rec < count:
        sp = buf.find(b" ", pos)
        end = sp + 1 + nbytes
        # Decode a record once its floats and the byte after them are in hand.
        if (sp < 0 or end >= len(buf)) and not eof:
            need = 2 * (len(buf) - pos) + 1 if sp < 0 else end + 1 - pos
            buf, eof = _refill(chunks, buf[pos:], need)
            pos, view = 0, memoryview(buf)
            continue
        rec += 1
        if sp <= pos:
            error = ValidationError(f"record {rec}: stream ended in token", "truncated-record")
            break
        if end > len(buf):
            error = ValidationError(f"record {rec}: stream ended in floats", "truncated-record")
            break
        try:
            token = buf[pos:sp].decode("utf-8")
        except UnicodeDecodeError:
            token = buf[pos:sp].decode("utf-8", errors="replace")
            warnings.append(f"record {rec}: token is not valid UTF-8, replaced")
        rows += view[sp + 1:end]
        pos = end + 1 if end < len(buf) and buf[end] == 0x0A else end
        if not _admit(vocab, warnings, token, "record", rec):
            dups.append(rec - 1)
        if rec - checked == _BLOCK_ROWS:
            _check_finite(rows, dim, checked)
            checked = rec
    _check_finite(rows, dim, checked)
    if error is not None:
        raise error
    if pos < len(buf) or _refill(chunks, b"", 1)[0]:
        warnings.append(f"count mismatch: header declares {count}, bytes follow record {count}")
    return _finish_table(name, dim, vocab, rows, "<f4", warnings, dups)


def write_word2vec_binary(table: EmbeddingTable) -> bytes:
    """Serialize a table to the word2vec binary layout accepted above.

    Floats are narrowed to little-endian float32. Tokens must not contain
    whitespace bytes, which would corrupt the record framing.
    """
    table.validate()
    out = bytearray()
    out += f"{len(table.vocab)} {table.dim}\n".encode("ascii")
    rows = table.matrix.astype("<f4", copy=False)
    by_row = sorted(table.vocab.items(), key=lambda kv: kv[1])
    for token, row in by_row:
        data = token.encode("utf-8")
        if b" " in data or b"\n" in data:
            raise ValidationError(f"token {token!r} contains whitespace, not writable")
        out += data
        out += b" "
        out += rows[row].tobytes()
    return bytes(out)


_PARSERS = {
    "glove": parse_glove_text,
    "w2v-bin": parse_word2vec_binary,
    "fasttext": parse_fasttext_text,
}
FORMATS = tuple(_PARSERS)


def parse_embedding(stream, fmt: str, name: str = "") -> EmbeddingTable:
    """Dispatch to the parser for ``fmt`` (one of FORMATS)."""
    if fmt not in _PARSERS:
        raise ValidationError(f"unknown embedding format {fmt!r}; expected one of {', '.join(FORMATS)}")
    return _PARSERS[fmt](stream, name or fmt)
