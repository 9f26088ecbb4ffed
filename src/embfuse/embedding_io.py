"""Parsers and writers for pretrained word-embedding files.

Three on-disk formats are supported and normalized into one in-memory
:class:`EmbeddingTable`:

* ``glove``    - plain text, one ``token c1 ... cd`` line per word, no header.
* ``fasttext`` - like ``glove`` but with a ``vocab_size dim`` header line.
* ``w2v-bin``  - ASCII ``vocab_size dim\\n`` header, then per record the
  token bytes, one space, and ``dim`` little-endian float32 values; a single
  newline may follow each record's floats and is consumed if present.

Values are widened to float64 internally regardless of the storage width.
Parsing is streaming: sources may be binary file objects or iterables of
bytes chunks. Besides the output table, a parser holds one input chunk (or
the one line or record that spans chunks, if longer) and the rows decoded so
far, in blocks of up to ``_BLOCK_ROWS`` rows: float32 for ``w2v-bin``,
float64 for text. The blocks are copied into the float64 matrix once, at the
end, and each is freed as soon as it is copied.

Decoding is done a block at a time. A w2v-bin record's float bytes are
appended to a float32 block and checked for non-finite values when the block
is full. A block of text lines has its components decoded by one
``np.loadtxt`` call, which rounds exactly as ``float()`` does; a block it
cannot decode exactly is re-read line by line with ``float()``, so the
accepted syntax and every error (type, message, line number) are those of
the line-by-line parser.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .errors import (
    BadHeaderError,
    DimMismatchError,
    EmptyInputError,
    EmptyTableError,
    InvalidUtf8Error,
    ParseFloatError,
    TruncatedRecordError,
    ValidationError,
)

FORMATS = ("glove", "w2v-bin", "fasttext")

_CHUNK = 1 << 16
_BLOCK_ROWS = 4096


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
    """Yield the lines of a byte source, each with its trailing newline where present.

    Lines are split on ``b"\\n"`` before anything is decoded, so a chunk edge
    never splits a UTF-8 character.
    """
    pending: List[bytes] = []
    for chunk in _chunks(source):
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            pending.append(chunk)
            continue
        pending.append(chunk[:cut])
        lines = b"".join(pending).split(b"\n")
        lines.pop()
        for line in lines:
            yield line + b"\n"
        pending = [chunk[cut:]]
    tail = b"".join(pending)
    if tail:
        yield tail


def decode_line(raw: bytes, line_no: int, what: str = "line") -> str:
    """A line decoded as UTF-8; an InvalidUtf8Error naming the line if it is not UTF-8."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidUtf8Error(
            f"{what} {line_no}: byte {exc.start + 1} is not valid UTF-8", exc) from None


@dataclass
class EmbeddingTable:
    """A parsed embedding: vocabulary, dense matrix, and cached column mean.

    ``vocab`` maps each token to its row index in ``matrix``; ``mean`` is the
    arithmetic mean over all rows (zeros for an empty table). ``warnings``
    collects non-fatal parse diagnostics such as duplicate tokens.
    """

    name: str
    dim: int
    vocab: Dict[str, int]
    matrix: np.ndarray
    mean: np.ndarray
    warnings: List[str] = field(default_factory=list)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64).reshape(len(self.vocab), self.dim)
        self.mean = np.asarray(self.mean, dtype=np.float64).reshape(self.dim)

    def __len__(self) -> int:
        return len(self.vocab)

    def __contains__(self, token: str) -> bool:
        return token in self.vocab

    def vector(self, token: str) -> np.ndarray:
        return self.matrix[self.vocab[token]]

    def validate(self) -> None:
        """Check the structural invariants, raising on violation."""
        n = len(self.vocab)
        if self.matrix.shape != (n, self.dim):
            raise DimMismatchError(
                f"matrix shape {self.matrix.shape} != ({n}, {self.dim})"
            )
        if sorted(self.vocab.values()) != list(range(n)):
            raise DimMismatchError("vocab indices are not a permutation of 0..n-1")
        if n and not np.isfinite(self.matrix).all():
            raise ParseFloatError("matrix contains non-finite entries")


def _admit(vocab: Dict[str, int], warnings: List[str], token: str, unit: str, no: int) -> bool:
    """Give ``token`` the next row unless it was seen before ("keep first", with a warning)."""
    if token in vocab:
        warnings.append(f"duplicate token {token!r} at {unit} {no}, kept first")
        return False
    vocab[token] = len(vocab)
    return True


def _finish_table(name: str, dim: int, vocab: Dict[str, int], blocks: List[np.ndarray],
                  warnings: List[str]) -> EmbeddingTable:
    """Stack the row blocks (emptying ``blocks``) into one float64 matrix."""
    if len(blocks) == 1 and blocks[0].dtype == np.float64:
        matrix = blocks.pop()
    else:
        matrix = np.empty((len(vocab), dim))
        row = 0
        blocks.reverse()
        while blocks:
            block = blocks.pop()
            matrix[row:row + len(block)] = block
            row += len(block)
    mean = matrix.mean(axis=0) if len(vocab) else np.zeros(dim)
    return EmbeddingTable(name=name, dim=dim, vocab=vocab, matrix=matrix,
                          mean=mean, warnings=warnings)


def _parse_component(text: str, line_no: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ParseFloatError(
            f"line {line_no}: cannot parse {text!r} as a float", line_no
        ) from None
    if not math.isfinite(value):
        raise ParseFloatError(
            f"line {line_no}: non-finite component {text!r}", line_no
        )
    return value


class _TextRows:
    """Rows of the glove/fasttext text formats, decoded a block of lines at a time."""

    def __init__(self, dim: Optional[int], first_line_no: int, warnings: List[str]):
        self.dim = dim
        self.line_no = first_line_no - 1  # number of the last line consumed
        self.n_data = 0
        self.vocab: Dict[str, int] = {}
        self.blocks: List[np.ndarray] = []
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
        self.blocks.append(values if len(keep) == len(texts) else values[keep])
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
                    raise DimMismatchError(
                        f"line {line_no}: expected a token and at least one component",
                        line_no,
                    )
            if len(parts) - 1 != self.dim:
                raise DimMismatchError(
                    f"line {line_no}: {len(parts) - 1} components, expected {self.dim}",
                    line_no,
                )
            if _admit(self.vocab, self.warnings, parts[0], "line", line_no):
                rows.append([_parse_component(p, line_no) for p in parts[1:]])
        if rows:
            self.blocks.append(np.array(rows))


def _parse_text_lines(lines: Iterable[bytes], dim: Optional[int], first_line_no: int,
                      warnings: List[str]) -> _TextRows:
    """Shared line loop for the glove and fasttext text formats."""
    rows = _TextRows(dim, first_line_no, warnings)
    block: List[bytes] = []
    for raw in lines:
        block.append(raw)
        if len(block) == _BLOCK_ROWS:
            rows.add(block)
            block = []
    if block:
        rows.add(block)
    return rows


def parse_glove_text(stream, name: str = "glove") -> EmbeddingTable:
    """Parse headerless ``token c1 ... cd`` text (the GloVe distribution layout).

    The vector length is fixed by the first line; duplicate tokens keep their
    first occurrence. Raises EmptyInputError on a zero-line stream,
    DimMismatchError when a line's component count differs from the first
    line's, and ParseFloatError on unparseable or non-finite components.
    """
    warnings: List[str] = []
    rows = _parse_text_lines(iter_lines(stream), None, 1, warnings)
    if rows.n_data == 0:
        raise EmptyInputError("no lines in input")
    return _finish_table(name, rows.dim, rows.vocab, rows.blocks, warnings)


def parse_fasttext_text(stream, name: str = "fasttext") -> EmbeddingTable:
    """Parse text with a leading ``vocab_size dim`` header (fastText .vec layout).

    The declared vocab_size is cross-checked against the actual data line
    count; a mismatch is recorded as a warning, not an error, since published
    files are sometimes trimmed.
    """
    lines = iter_lines(stream)
    header = next(lines, b"")
    if not header:
        raise EmptyInputError("no lines in input")
    parts = header.split()
    if len(parts) != 2:
        raise BadHeaderError(f"expected 'vocab_size dim' header, got {header!r}")
    try:
        declared, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise BadHeaderError(f"non-integer header fields in {header!r}") from None
    if declared < 0 or dim < 1:
        raise BadHeaderError(f"invalid header values {declared} {dim}")
    warnings: List[str] = []
    rows = _parse_text_lines(lines, dim, 2, warnings)
    if rows.n_data == 0:
        raise EmptyInputError("header but no vector lines")
    if rows.n_data != declared:
        warnings.append(f"count mismatch: header declares {declared}, found {rows.n_data} lines")
    return _finish_table(name, dim, rows.vocab, rows.blocks, warnings)


def _float32_block(data: bytearray, dim: int, first_rec: int, dups: List[int]) -> np.ndarray:
    """View a block of records' float bytes as rows, check them, and drop duplicate rows."""
    rows = np.frombuffer(data, dtype="<f4").reshape(-1, dim)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise ParseFloatError(f"record {first_rec + int(np.argmin(finite))}: non-finite component")
    return np.delete(rows, dups, axis=0) if dups else rows


def parse_word2vec_binary(stream, name: str = "w2v") -> EmbeddingTable:
    """Parse the word2vec binary layout (the GoogleNews distribution format).

    Header is ASCII ``vocab_size dim\\n``; each record is the token bytes, a
    single space, then dim little-endian float32 values, optionally followed
    by one newline. Floats are widened to float64. Duplicate tokens keep the
    first occurrence and record a warning. The declared vocab_size bounds the
    number of records read but sizes no allocation.
    """
    chunks = _chunks(stream)
    buf, eof = b"", False
    while True:
        nl = buf.find(b"\n")
        if nl >= 0 or eof:
            break
        buf, eof = _refill(chunks, buf, 2 * len(buf) + 1)
    if nl < 0:
        raise BadHeaderError("missing header line")
    header = buf[:nl + 1]
    parts = header.split()
    if len(parts) != 2:
        raise BadHeaderError(f"expected 'vocab_size dim' header, got {header!r}")
    try:
        count, dim = int(parts[0]), int(parts[1])
    except ValueError:
        raise BadHeaderError(f"non-integer header fields in {header!r}") from None
    if count < 0 or dim < 1:
        raise BadHeaderError(f"invalid header values {count} {dim}")

    vocab: Dict[str, int] = {}
    warnings: List[str] = []
    blocks: List[np.ndarray] = []
    nbytes = 4 * dim
    block, block_first, dups = bytearray(), 1, []
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
            error = TruncatedRecordError(f"record {rec}: stream ended in token", rec)
            break
        if end > len(buf):
            error = TruncatedRecordError(f"record {rec}: stream ended in floats", rec)
            break
        try:
            token = buf[pos:sp].decode("utf-8")
        except UnicodeDecodeError:
            token = buf[pos:sp].decode("utf-8", errors="replace")
            warnings.append(f"record {rec}: token is not valid UTF-8, replaced")
        block += view[sp + 1:end]
        pos = end + 1 if end < len(buf) and buf[end] == 0x0A else end
        if not _admit(vocab, warnings, token, "record", rec):
            dups.append(rec - block_first)
        if rec - block_first + 1 == _BLOCK_ROWS:
            blocks.append(_float32_block(block, dim, block_first, dups))
            block, block_first, dups = bytearray(), rec + 1, []
    if block:
        blocks.append(_float32_block(block, dim, block_first, dups))
    if error is not None:
        raise error
    return _finish_table(name, dim, vocab, blocks, warnings)


def write_word2vec_binary(table: EmbeddingTable) -> bytes:
    """Serialize a table to the word2vec binary layout accepted above.

    Floats are narrowed to little-endian float32. Tokens must not contain
    whitespace bytes, which would corrupt the record framing.
    """
    table.validate()
    out = bytearray()
    out += f"{len(table.vocab)} {table.dim}\n".encode("ascii")
    by_row = sorted(table.vocab.items(), key=lambda kv: kv[1])
    for token, row in by_row:
        data = token.encode("utf-8")
        if b" " in data or b"\n" in data:
            raise ValidationError(f"token {token!r} contains whitespace, not writable")
        out += data
        out += b" "
        out += table.matrix[row].astype("<f4").tobytes()
    return bytes(out)


def mean_vector(table: EmbeddingTable) -> np.ndarray:
    """Component-wise arithmetic mean over all rows of the table (a copy of ``table.mean``)."""
    if len(table.vocab) == 0:
        raise EmptyTableError("cannot take the mean of an empty table")
    return table.mean.copy()


def parse_embedding(stream, fmt: str, name: str = "") -> EmbeddingTable:
    """Dispatch to the parser for ``fmt`` (one of FORMATS)."""
    if fmt == "glove":
        return parse_glove_text(stream, name or fmt)
    if fmt == "w2v-bin":
        return parse_word2vec_binary(stream, name or fmt)
    if fmt == "fasttext":
        return parse_fasttext_text(stream, name or fmt)
    raise ValidationError(f"unknown embedding format {fmt!r}; expected one of {', '.join(FORMATS)}")
