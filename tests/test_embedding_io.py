"""Parser tests: hand-written expected tables, round-trips, error paths."""
import io
import math
import struct

import numpy as np
import pytest

from embfuse import embedding_io
from embfuse.embedding_io import (
    EmbeddingTable,
    FORMATS,
    parse_embedding,
    parse_fasttext_text,
    parse_glove_text,
    parse_word2vec_binary,
    write_word2vec_binary,
)
from embfuse.errors import ValidationError
from embfuse.seeding import derive_rng
from synthetic import traced_peak


def make_table(tokens, matrix, name="t"):
    matrix = np.asarray(matrix, dtype=np.float64)
    vocab = {tok: i for i, tok in enumerate(tokens)}
    return EmbeddingTable(
        name=name,
        vocab=vocab,
        matrix=matrix,
        mean=matrix.mean(axis=0),
    )


def random_table(rng, n_words, dim, name="t"):
    tokens = [f"w{k}" for k in range(n_words)]
    return make_table(tokens, rng.normal(size=(n_words, dim)), name=name)


# --- glove text ---

class TestGlove:
    def test_two_line_fixture_matches_expected_table(self):
        table = parse_glove_text(b"a 1.0 2.0\nb 3.0 4.0\n")
        assert table.dim == 2
        assert table.vocab == {"a": 0, "b": 1}
        assert np.array_equal(table.matrix, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(table.mean, [2.0, 3.0])
        assert table.warnings == []

    def test_dim_fixed_by_first_line(self):
        table = parse_glove_text(b"x 1 2 3\n")
        assert table.dim == 3 and len(table) == 1

    def test_missing_trailing_newline_ok(self):
        table = parse_glove_text(b"a 1 2\nb 3 4")
        assert len(table) == 2

    def test_blank_lines_skipped(self):
        table = parse_glove_text(b"a 1 2\n\nb 3 4\n\n")
        assert table.vocab == {"a": 0, "b": 1}

    def test_duplicate_token_keeps_first_and_warns(self):
        table = parse_glove_text(b"a 1 2\na 9 9\nb 3 4\n")
        assert np.array_equal(table.vector("a"), [1.0, 2.0])
        assert len(table) == 2
        assert any("duplicate" in w for w in table.warnings)

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError) as exc:
            parse_glove_text(b"")
        assert exc.value.code == "empty-input"
        with pytest.raises(ValidationError) as exc:
            parse_glove_text(b"\n\n")
        assert exc.value.code == "empty-input"

    def test_dim_mismatch_reports_line_number(self):
        with pytest.raises(ValidationError) as exc:
            parse_glove_text(b"a 1 2\nb 3\n")
        assert exc.value.code == "dim-mismatch"
        assert str(exc.value).startswith("line 2: ")

    def test_bad_float_reports_line_number(self):
        with pytest.raises(ValidationError) as exc:
            parse_glove_text(b"a 1 2\nb x 4\n")
        assert exc.value.code == "parse-float"
        assert str(exc.value).startswith("line 2: ")

    def test_non_finite_component_rejected(self):
        for bad in (b"a inf 2\n", b"a 1 nan\n"):
            with pytest.raises(ValidationError) as exc:
                parse_glove_text(bad)
            assert exc.value.code == "parse-float"

    def test_token_only_line_rejected(self):
        with pytest.raises(ValidationError) as exc:
            parse_glove_text(b"loneword\n")
        assert exc.value.code == "dim-mismatch"

    def test_accepts_chunked_byte_iterable(self):
        data = b"alpha 1.5 -2.5\nbeta 0.25 8.0\n"
        whole = parse_glove_text(data)
        chunked = parse_glove_text(iter([data[:7], data[7:13], data[13:]]))
        assert whole.vocab == chunked.vocab
        assert np.array_equal(whole.matrix, chunked.matrix)

    def test_accepts_binary_file_object(self, tmp_path):
        p = tmp_path / "v.txt"
        p.write_bytes(b"a 1 2\nb 3 4\n")
        with open(p, "rb") as fh:
            table = parse_glove_text(fh)
        assert len(table) == 2


# --- fasttext text ---

class TestFasttext:
    def test_header_fixture_matches_expected_table(self):
        table = parse_fasttext_text(b"2 3\nw 1 2 3\nv 4 5 6\n")
        assert table.dim == 3
        assert table.vocab == {"w": 0, "v": 1}
        assert np.array_equal(table.matrix, [[1, 2, 3], [4, 5, 6]])
        assert np.array_equal(table.mean, [2.5, 3.5, 4.5])

    def test_bad_header_rejected(self):
        with pytest.raises(ValidationError) as exc:
            parse_fasttext_text(b"x y\na 1 2\n")
        assert exc.value.code == "bad-header"
        with pytest.raises(ValidationError) as exc:
            parse_fasttext_text(b"3\na 1 2\n")
        assert exc.value.code == "bad-header"

    def test_header_without_rows_rejected(self):
        with pytest.raises(ValidationError) as exc:
            parse_fasttext_text(b"0 300\n")
        assert exc.value.code == "empty-input"

    def test_count_mismatch_warns_but_parses(self):
        table = parse_fasttext_text(b"5 2\na 1 2\nb 3 4\n")
        assert len(table) == 2
        assert any("count mismatch" in w for w in table.warnings)

    def test_dim_mismatch_against_header(self):
        with pytest.raises(ValidationError) as exc:
            parse_fasttext_text(b"1 3\na 1 2\n")
        assert exc.value.code == "dim-mismatch"


# --- word2vec binary ---

class TestWord2vecBinary:
    def test_write_parse_identity_bit_exact_at_f32(self):
        rng = derive_rng(99, "w2v-roundtrip")
        for trial in range(20):
            n = int(rng.integers(1, 20))
            dim = int(rng.integers(1, 9))
            table = random_table(rng, n, dim, name="orig")
            data = write_word2vec_binary(table)
            back = parse_word2vec_binary(data, name="orig")
            assert back.vocab == table.vocab
            assert back.dim == table.dim
            stored = table.matrix.astype("<f4").astype(np.float64)
            assert np.array_equal(back.matrix, stored)

    def test_hand_built_record_bytes(self):
        payload = np.array([1.0, -2.0], dtype="<f4").tobytes()
        data = b"1 2\n" + b"tok " + payload
        table = parse_word2vec_binary(data)
        assert table.vocab == {"tok": 0}
        assert np.array_equal(table.matrix, [[1.0, -2.0]])

    def test_optional_newline_between_records(self):
        row = np.array([0.5], dtype="<f4").tobytes()
        with_nl = b"2 1\na " + row + b"\nb " + row + b"\n"
        without = b"2 1\na " + row + b"b " + row
        t1 = parse_word2vec_binary(with_nl)
        t2 = parse_word2vec_binary(without)
        assert t1.vocab == t2.vocab == {"a": 0, "b": 1}
        assert np.array_equal(t1.matrix, t2.matrix)

    def test_unicode_token_round_trip(self):
        table = make_table(["café", "ночь"], [[1.0, 2.0], [3.0, 4.0]])
        back = parse_word2vec_binary(write_word2vec_binary(table))
        assert set(back.vocab) == {"café", "ночь"}

    def test_truncated_floats_reports_record(self):
        row = np.array([0.5, 1.5], dtype="<f4").tobytes()
        data = b"2 2\na " + row + b"b " + row[:5]
        with pytest.raises(ValidationError) as exc:
            parse_word2vec_binary(data)
        assert exc.value.code == "truncated-record"
        assert str(exc.value).startswith("record 2: ")

    def test_truncated_token_reports_record(self):
        with pytest.raises(ValidationError) as exc:
            parse_word2vec_binary(b"1 2\nabc")
        assert exc.value.code == "truncated-record"
        assert str(exc.value).startswith("record 1: ")

    def test_missing_header_rejected(self):
        with pytest.raises(ValidationError) as exc:
            parse_word2vec_binary(b"12 3")
        assert exc.value.code == "bad-header"

    def test_header_without_records_rejected(self):
        for data in (b"0 3\n", b"0 3\n" + b"a " + np.ones(3, dtype="<f4").tobytes()):
            with pytest.raises(ValidationError) as exc:
                parse_word2vec_binary(data)
            assert exc.value.code == "empty-input"

    def test_bytes_after_the_declared_records_warn(self):
        row = np.array([1.5], dtype="<f4").tobytes()
        mismatch = ["count mismatch: header declares 1, bytes follow record 1"]
        for tail, want in ((b"", []), (b"\n", []), (b"b " + row, mismatch),
                           (b"\nb " + row, mismatch), (b"\n\n", mismatch)):
            data = b"1 1\na " + row + tail
            # the last split puts the trailing bytes, or the one newline, in a chunk of their own
            for chunks in ([data], chunked(data, 1), iter([data[:10], data[10:]])):
                table = parse_word2vec_binary(chunks)
                assert table.vocab == {"a": 0}
                assert table.matrix.tolist() == [[1.5]]
                assert table.warnings == want

    def test_non_utf8_token_replaced_with_warning(self):
        row = np.array([1.0], dtype="<f4").tobytes()
        data = b"1 1\n\xff\xfe " + row
        table = parse_word2vec_binary(data)
        assert len(table) == 1
        assert any("UTF-8" in w for w in table.warnings)

    def test_writer_rejects_whitespace_token(self):
        table = make_table(["a b"], [[1.0]])
        with pytest.raises(ValidationError):
            write_word2vec_binary(table)

    def test_chunked_stream_equals_whole(self):
        rng = derive_rng(7, "w2v-chunks")
        table = random_table(rng, 9, 5)
        data = write_word2vec_binary(table)
        chunks = [data[i:i + 13] for i in range(0, len(data), 13)]
        back = parse_word2vec_binary(iter(chunks))
        assert back.vocab == table.vocab
        assert np.array_equal(back.matrix, table.matrix.astype("<f4").astype(np.float64))


# --- mean, validate, dispatch ---

class TestTableOps:
    def test_mean_matches_compensated_sum_oracle(self):
        rng = derive_rng(5, "mean-oracle")
        table = random_table(rng, 17, 6)
        expected = np.array(
            [math.fsum(table.matrix[:, d]) / 17 for d in range(6)]
        )
        assert np.allclose(table.mean, expected, rtol=0, atol=1e-12)

    def test_matrix_width_by_format(self):
        w2v = parse_word2vec_binary(b"1 2\na " + np.array([0.1, 2.0], dtype="<f4").tobytes())
        glove = parse_glove_text(b"a 0.1 2\n")
        fasttext = parse_fasttext_text(b"1 2\na 0.1 2\n")
        assert w2v.matrix.dtype == np.float32
        assert glove.matrix.dtype == fasttext.matrix.dtype == np.float64
        for table in (w2v, glove, fasttext):
            assert table.mean.dtype == np.float64
        half = EmbeddingTable("h", {"a": 0}, np.ones((1, 2), dtype=np.float16), np.ones(2))
        assert half.matrix.dtype == np.float64

    def test_float32_mean_is_the_widened_mean(self):
        rng = derive_rng(6, "f32-mean")
        values = rng.normal(size=(3 * BLOCK_ROWS + 5, 4)) * 10.0 ** rng.integers(-30, 31, size=4)
        values[:, 2] = -0.0
        one_row = np.array([[0.1, -0.0, 3.4e38]], dtype="<f4")
        for matrix in (one_row, values.astype("<f4"), np.full((7, 3), -0.0, dtype="<f4")):
            n, dim = matrix.shape
            data = f"{n} {dim}\n".encode("ascii") + b"".join(
                f"w{i} ".encode("ascii") + matrix[i].tobytes() for i in range(n))
            table = parse_word2vec_binary(data)
            assert table.matrix.tobytes() == matrix.tobytes()
            assert table.mean.tobytes() == matrix.astype(np.float64).mean(axis=0).tobytes()

    def test_contains_len_vector(self):
        table = make_table(["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
        assert "a" in table and "z" not in table
        assert len(table) == 2
        assert np.array_equal(table.vector("b"), [3.0, 4.0])

    def test_validate_catches_bad_indices(self):
        table = make_table(["a", "b"], [[1.0], [2.0]])
        table.vocab["b"] = 5
        with pytest.raises(ValidationError) as exc:
            table.validate()
        assert exc.value.code == "dim-mismatch"

    def test_matrix_must_give_one_row_to_each_token(self):
        vocab = {"a": 0, "b": 1}
        for matrix in (np.ones(4), np.ones((3, 2)), np.ones((2, 2, 1)), np.ones((1, 4))):
            with pytest.raises(ValidationError) as exc:
                EmbeddingTable("t", vocab, matrix, np.zeros(2))
            assert exc.value.code == "dim-mismatch"
            assert str(exc.value) == f"matrix shape {matrix.shape} != (2, dim)"
        table = make_table(["a", "b"], [[1.0], [2.0]])
        table.matrix = np.ones(2)
        with pytest.raises(ValidationError) as exc:
            table.validate()
        assert exc.value.code == "dim-mismatch"

    def test_dispatch_routes_all_formats(self, tmp_path):
        glove = parse_embedding(b"a 1 2\n", "glove")
        assert glove.dim == 2
        ft = parse_embedding(b"1 2\na 1 2\n", "fasttext")
        assert ft.dim == 2
        data = write_word2vec_binary(make_table(["a"], [[1.0, 2.0]]))
        w2v = parse_embedding(data, "w2v-bin")
        assert w2v.dim == 2
        assert set(FORMATS) == {"glove", "w2v-bin", "fasttext"}

    def test_dispatch_rejects_unknown_format(self):
        with pytest.raises(ValidationError):
            parse_embedding(b"a 1\n", "pickle")

    def test_dispatch_accepts_text_file_object(self, tmp_path):
        p = tmp_path / "v.vec"
        p.write_bytes(b"1 2\na 1 2\n")
        with open(p, "rb") as fh:
            table = parse_embedding(fh, "fasttext", name="mine")
        assert table.name == "mine"


# --- block decoding against line-by-line oracles ---

BLOCK_ROWS = embedding_io._BLOCK_ROWS

# component spellings whose float() value the block decoder must reproduce bit for bit
TRICKY = ["0.1", "0.3", "2.675", "1.0000000000000002", "-0.0", "0.0", "1e5", "-2.5E-3",
          "6.02e+23", "4.9e-324", "1e-320", "2.2250738585072009e-308", "+.5", "7.", "00012"]


def text_oracle(data, header=False):
    """Reference text parse: split on b"\\n", decode, str.split, float() each component."""
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    first = 1
    if header:
        lines, first = lines[1:], 2
    vocab, rows, warnings = {}, [], []
    for line_no, raw in enumerate(lines, first):
        parts = raw.decode("utf-8").split()
        if not parts:
            continue
        if parts[0] in vocab:
            warnings.append(f"duplicate token {parts[0]!r} at line {line_no}, kept first")
            continue
        vocab[parts[0]] = len(rows)
        rows.append([float(p) for p in parts[1:]])
    return vocab, np.array(rows), warnings


def w2v_oracle(data):
    """Reference w2v-bin parse: one record at a time with struct.unpack."""
    header, _, rest = data.partition(b"\n")
    count, dim = (int(p) for p in header.split())
    vocab, rows, warnings = {}, [], []
    pos = 0
    for rec in range(1, count + 1):
        sp = rest.index(b" ", pos)
        try:
            token = rest[pos:sp].decode("utf-8")
        except UnicodeDecodeError:
            token = rest[pos:sp].decode("utf-8", errors="replace")
            warnings.append(f"record {rec}: token is not valid UTF-8, replaced")
        row = struct.unpack(f"<{dim}f", rest[sp + 1:sp + 1 + 4 * dim])
        pos = sp + 1 + 4 * dim
        if rest[pos:pos + 1] == b"\n":
            pos += 1
        if token in vocab:
            warnings.append(f"duplicate token {token!r} at record {rec}, kept first")
            continue
        vocab[token] = len(rows)
        rows.append(row)
    return vocab, np.array(rows, dtype="<f4"), warnings


def assert_same_table(table, oracle):
    vocab, matrix, warnings = oracle
    assert table.vocab == vocab
    assert table.matrix.dtype == matrix.dtype
    assert table.matrix.shape == matrix.shape
    assert table.matrix.tobytes() == matrix.tobytes()  # bit-identical, -0.0 included
    assert table.mean.dtype == np.float64
    assert table.mean.tobytes() == matrix.astype(np.float64).mean(axis=0).tobytes()
    assert table.warnings == warnings


def chunked(data, size):
    return iter([data[i:i + size] for i in range(0, len(data), size)])


def varied_text_lines(n, dim, seed):
    """n glove lines with tricky spellings, mixed separators and non-ASCII tokens."""
    rng = derive_rng(seed, "varied-text")
    tokens = ["café", "ночь", "東京", "naïve"]
    seps = [" ", " ", " ", "  ", "\t", " \t  "]
    lines = []
    for i in range(n):
        token = tokens[i] if i < len(tokens) else f"w{i}"
        comps = []
        for _ in range(dim):
            if rng.random() < 0.2:
                comps.append(TRICKY[int(rng.integers(len(TRICKY)))])
            else:
                comps.append(repr(float(rng.normal())))
        line = token + "".join(seps[int(rng.integers(len(seps)))] + c for c in comps)
        lines.append(line + ("\r" if rng.random() < 0.1 else ""))
    return lines


class TestBlockDecoding:
    def test_text_cases_bit_identical_to_float_oracle(self):
        lines = varied_text_lines(40, 4, seed=1)
        lines[7] = "dup 1 2 3 4"
        lines[9] = "dup 5 6 x 8"  # a duplicate is skipped before its components are read
        lines[12] = ""
        data = ("\n".join(lines) + "\n").encode("utf-8")
        assert_same_table(parse_glove_text(data), text_oracle(data))
        ft = f"{len(lines) - 1} 4\n".encode("ascii") + data
        assert_same_table(parse_fasttext_text(ft), text_oracle(ft, header=True))

    def test_float_only_spellings_fall_back_line_by_line(self):
        # float() accepts underscores, non-ASCII digits and Unicode spaces
        data = "a 1_0 0.5\nb \u0663.\u0665 2\nc 1\u00a02.5\nd 4\u2003-0.0\n".encode("utf-8")
        table = parse_glove_text(data)
        assert_same_table(table, text_oracle(data))
        assert np.array_equal(table.matrix, [[10.0, 0.5], [3.5, 2.0], [1.0, 2.5], [4.0, -0.0]])

    def test_multi_block_text_in_odd_chunks(self):
        n = 3 * BLOCK_ROWS + 7
        lines = varied_text_lines(n, 3, seed=2)
        lines[BLOCK_ROWS + 11] = f"w{BLOCK_ROWS + 11} 1_0 2 3"  # one block decodes line by line
        lines[2 * BLOCK_ROWS + 3] = "w5 9 9 9"  # a duplicate in a later block
        data = ("\r\n".join(lines) + "\r\n").encode("utf-8")
        want = text_oracle(data)
        assert_same_table(parse_glove_text(data), want)
        for size in (1, 13, 4099):
            assert_same_table(parse_glove_text(chunked(data, size)), want)

    def test_w2v_bit_identical_to_struct_oracle(self):
        rng = derive_rng(3, "w2v-oracle")
        tricky = np.array([0.1, -0.0, 1e-40, 3.4e38, 1.17549435e-38, 2.5], dtype="<f4")
        for newline in (b"", b"\n"):
            out = bytearray(b"9 6\n")
            for i, token in enumerate(["café", "ночь", "b", "b", "x", "y", "z", "q", "\xff"]):
                row = tricky if i == 0 else rng.normal(size=6).astype("<f4")
                raw = b"\xff\xfe" if token == "\xff" else token.encode("utf-8")
                out += raw + b" " + row.tobytes() + newline
            data = bytes(out)
            table = parse_word2vec_binary(data)
            assert_same_table(table, w2v_oracle(data))
            assert any("duplicate token 'b' at record 4" in w for w in table.warnings)

    def test_multi_block_w2v_in_odd_chunks(self):
        rng = derive_rng(4, "w2v-blocks")
        n, dim = 3 * BLOCK_ROWS + 5, 3
        values = rng.normal(size=(n, dim)).astype("<f4")
        out = bytearray(f"{n} {dim}\n".encode("ascii"))
        for i in range(n):
            token = "w7" if i == 2 * BLOCK_ROWS + 1 else f"w{i}"
            out += token.encode("ascii") + b" " + values[i].tobytes() + (b"\n" if i % 3 else b"")
        data = bytes(out)
        want = w2v_oracle(data)
        assert_same_table(parse_word2vec_binary(data), want)
        for size in (1, 13, 4099):
            assert_same_table(parse_word2vec_binary(chunked(data, size)), want)

    def test_w2v_duplicates_on_both_sides_of_a_check_boundary(self):
        # records BLOCK_ROWS - 1 to BLOCK_ROWS + 2 repeat earlier tokens; records
        # BLOCK_ROWS and BLOCK_ROWS + 1 end one non-finite check window and start the next
        rng = derive_rng(5, "w2v-boundary-dups")
        n, dim = 2 * BLOCK_ROWS + 3, 3
        values = rng.normal(size=(n, dim)).astype("<f4")
        tokens = [f"w{i}" for i in range(n)]
        for rec, first in ((BLOCK_ROWS - 1, 2), (BLOCK_ROWS, 1), (BLOCK_ROWS + 1, 2),
                           (BLOCK_ROWS + 2, BLOCK_ROWS - 2)):
            tokens[rec - 1] = f"w{first - 1}"
        out = bytearray(f"{n} {dim}\n".encode("ascii"))
        for i in range(n):
            out += tokens[i].encode("ascii") + b" " + values[i].tobytes() + (b"\n" if i % 2 else b"")
        data = bytes(out)
        want = w2v_oracle(data)
        assert len(want[0]) == n - 4 and len(want[2]) == 4
        assert_same_table(parse_word2vec_binary(data), want)
        for size in (1, 13, 4099):
            assert_same_table(parse_word2vec_binary(chunked(data, size)), want)


class TestErrorsDeepInFile:
    N = 6000

    def glove_bytes(self, bad_line, bad_text):
        lines = [f"w{i} {i}.5 -{i}.25" for i in range(1, self.N + 1)]
        lines[bad_line - 1] = bad_text
        return ("\n".join(lines) + "\n").encode("ascii")

    def test_bad_float_reports_its_line(self):
        with pytest.raises(ValidationError) as exc:
            parse_glove_text(self.glove_bytes(5000, "bad 1.5 x"))
        assert exc.value.code == "parse-float"
        assert str(exc.value) == "line 5000: cannot parse 'x' as a float"

    def test_non_finite_reports_its_line(self):
        with pytest.raises(ValidationError) as exc:
            parse_glove_text(chunked(self.glove_bytes(5001, "bad nan 2"), 4099))
        assert exc.value.code == "parse-float"
        assert str(exc.value) == "line 5001: non-finite component 'nan'"

    def test_dim_mismatch_reports_its_line(self):
        with pytest.raises(ValidationError) as exc:
            parse_glove_text(self.glove_bytes(4999, "bad 1 2 3"))
        assert exc.value.code == "dim-mismatch"
        assert str(exc.value) == "line 4999: 3 components, expected 2"
        ft = f"{self.N} 2\n".encode("ascii") + self.glove_bytes(4999, "bad 1 2 3")
        with pytest.raises(ValidationError) as exc:
            parse_fasttext_text(ft)
        assert exc.value.code == "dim-mismatch"
        assert str(exc.value).startswith("line 5000: ")

    def test_width_change_at_a_block_edge_reports_its_line(self):
        lines = [f"w{i} 1 2" if i <= BLOCK_ROWS else f"w{i} 1 2 3" for i in range(1, self.N + 1)]
        with pytest.raises(ValidationError) as exc:
            parse_glove_text(("\n".join(lines) + "\n").encode("ascii"))
        assert exc.value.code == "dim-mismatch"
        assert str(exc.value).startswith(f"line {BLOCK_ROWS + 1}: ")

    def test_first_error_wins_across_a_block(self):
        data = self.glove_bytes(5200, "bad 1 2 3")
        data = data.replace(b"\nw4100 ", b"\nw4100 \xff", 1)  # invalid UTF-8 earlier in the block
        with pytest.raises(ValidationError) as exc:
            parse_glove_text(data)
        assert str(exc.value).startswith("line 4100: ")

    def w2v_bytes(self, nan_record=None):
        values = np.arange(2 * self.N, dtype="<f4").reshape(self.N, 2)
        if nan_record is not None:
            values[nan_record - 1, 1] = np.nan
        out = bytearray(f"{self.N} 2\n".encode("ascii"))
        for i in range(self.N):
            out += f"w{i} ".encode("ascii") + values[i].tobytes()
        return bytes(out)

    def test_w2v_non_finite_reports_its_record(self):
        with pytest.raises(ValidationError) as exc:
            parse_word2vec_binary(self.w2v_bytes(nan_record=5000))
        assert exc.value.code == "parse-float"
        assert str(exc.value) == "record 5000: non-finite component"

    def test_w2v_non_finite_before_truncation_wins(self):
        data = self.w2v_bytes(nan_record=4990)
        cut = data.index(b"w5000 ") + 8
        with pytest.raises(ValidationError) as exc:
            parse_word2vec_binary(data[:cut])
        assert exc.value.code == "parse-float"
        assert str(exc.value) == "record 4990: non-finite component"

    def test_w2v_truncation_reports_its_record(self):
        data = self.w2v_bytes()
        cut = data.index(b"w4999 ") + 8
        with pytest.raises(ValidationError) as exc:
            parse_word2vec_binary(chunked(data[:cut], 4099))
        assert exc.value.code == "truncated-record"
        assert str(exc.value) == "record 5000: stream ended in floats"

    @pytest.mark.parametrize("nan_record", [BLOCK_ROWS, BLOCK_ROWS + 1])
    @pytest.mark.parametrize("size", [None, 1, 13, 4099])
    def test_w2v_non_finite_at_a_check_boundary_reports_its_record(self, nan_record, size):
        data = self.w2v_bytes(nan_record=nan_record)
        # a duplicate token before the bad record and the bad record itself a duplicate
        data = data.replace(b"w9 ", b"w1 ", 1).replace(f"w{nan_record - 1} ".encode("ascii"),
                                                       b"w2 ", 1)
        with pytest.raises(ValidationError) as exc:
            parse_word2vec_binary(data if size is None else chunked(data, size))
        assert exc.value.code == "parse-float"
        assert str(exc.value) == f"record {nan_record}: non-finite component"

    def test_w2v_parse_peak_is_within_1_3x_the_float32_table(self):
        # The rows go into one buffer that becomes the matrix; the stream's
        # chunks, the tokens and one check window's temporaries come on top.
        n, dim = 3 * BLOCK_ROWS + 5, 300
        values = np.arange(n * dim, dtype="<f4").reshape(n, dim)
        stream = io.BytesIO(f"{n} {dim}\n".encode("ascii") + b"".join(
            f"w{i} ".encode("ascii") + values[i].tobytes() for i in range(n)))
        with traced_peak() as peak:
            table = parse_word2vec_binary(stream)
        assert table.matrix.tobytes() == values.tobytes()
        assert peak.bytes <= 1.3 * values.nbytes

    @pytest.mark.parametrize("where", ["early", "late", "100"])
    def test_w2v_parse_peak_with_duplicates_is_within_1_3x_the_float32_table(self, where):
        # Duplicate records' rows are dropped inside the buffer, so dropping
        # them costs at most about _BLOCK_BYTES on top of the table.
        n, dim = 3 * BLOCK_ROWS + 5, 300
        values = np.arange(n * dim, dtype="<f4").reshape(n, dim)
        records = [(f"w{i}", values[i]) for i in range(n)]
        at = {"early": [1], "late": [n], "100": list(range(7, n, n // 100))[:100]}[where]
        for pos in at:  # a record repeating the token before it, with other values
            records.insert(pos, (records[pos - 1][0], np.full(dim, -1 - pos, dtype="<f4")))
        stream = io.BytesIO(f"{len(records)} {dim}\n".encode("ascii") + b"".join(
            f"{token} ".encode("ascii") + row.tobytes() for token, row in records))
        with traced_peak() as peak:
            table = parse_word2vec_binary(stream)
        every = np.array([row for _, row in records])
        assert table.matrix.tobytes() == np.delete(every, at, axis=0).tobytes()
        assert table.matrix.tobytes() == values.tobytes()
        assert table.mean.tobytes() == values.mean(axis=0, dtype=np.float64).tobytes()
        assert len(table.warnings) == len(at)
        assert peak.bytes <= 1.3 * values.nbytes

    @pytest.mark.parametrize("fmt", ["glove", "fasttext"])
    def test_text_parse_peak_is_within_1_5x_the_float64_table(self, fmt):
        # The float64 rows go into one buffer that becomes the matrix; one
        # block of lines, about 1 MiB, and its decoding come on top.
        n, dim = 6000, 300
        values = (np.arange(n * dim) % 1021 - 510).reshape(n, dim) / 256.0  # exact in decimal
        text = "".join(f"w{i} " + " ".join(map(repr, row)) + "\n"
                       for i, row in enumerate(values.tolist())).encode("ascii")
        if fmt == "fasttext":
            text = f"{n} {dim}\n".encode("ascii") + text
        stream = io.BytesIO(text)
        with traced_peak() as peak:
            table = parse_embedding(stream, fmt)
        assert table.matrix.tobytes() == values.tobytes()
        assert peak.bytes <= 1.5 * values.nbytes

    def test_w2v_huge_declared_count_allocates_nothing_for_it(self):
        row = np.ones(300, dtype="<f4").tobytes()
        data = b"1000000000 300\nonly " + row
        with traced_peak() as peak:
            with pytest.raises(ValidationError) as exc:
                parse_word2vec_binary(data)
        assert exc.value.code == "truncated-record"
        assert str(exc.value) == "record 2: stream ended in token"
        assert peak.bytes < 1 << 20
