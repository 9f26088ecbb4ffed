"""Fusion tests against an independent scalar reference implementation."""
import numpy as np
import pytest

from embfuse.corpus import CorpusDictionaries, build_dictionaries
from embfuse.embedding_io import EmbeddingTable, parse_word2vec_binary, write_word2vec_binary
from embfuse.errors import ValidationError
from embfuse.fusion import (
    FALLBACK_STAGES,
    BranchCounts,
    build_fused_matrix,
    candidate_keys,
    fuse_both,
    fuse_second_only,
    fused_to_table,
    matrix_from_table,
)
from embfuse.seeding import derive_rng


def make_table(tokens, matrix, name="t"):
    matrix = np.asarray(matrix, dtype=np.float64)
    return EmbeddingTable(
        name=name,
        vocab={tok: i for i, tok in enumerate(tokens)},
        matrix=matrix,
        mean=matrix.mean(axis=0),
    )


def dicts_for(tokens, lemmas=None):
    lemmas = lemmas or {}
    dict_words = {tok: i + 2 for i, tok in enumerate(tokens)}
    lemma_dict = {tok: lemmas.get(tok, tok.lower()) for tok in tokens}
    return CorpusDictionaries(dict_words, lemma_dict)


# --- independent scalar reference ---
# Pure-Python floats, one coordinate at a time, in the same operation order
# as the vectorized implementation, so results must agree bit for bit.

def ref_fuse_row(token, lemma, t1, t2, unknown_fill, order):
    keys = []
    seen = set()
    for stage in order:
        if stage == "exact":
            key = token
        elif stage == "lower":
            key = token.lower()
        elif stage == "capital":
            key = token[:1].upper() + token[1:]
        else:
            if lemma is None:
                continue
            key = lemma
        if key not in seen:
            seen.add(key)
            keys.append((stage, key))
    for stage, key in keys:
        in1, in2 = key in t1.vocab, key in t2.vocab
        if not (in1 or in2):
            continue
        if in1 and in2:
            row = [
                (float(t1.vector(key)[d])
                 + (float(t2.vector(key)[d])
                    + (float(t1.mean[d]) - float(t2.mean[d])))) / 2.0
                for d in range(t1.dim)
            ]
            return "both", stage, row
        if in1:
            return "first_only", stage, [float(v) for v in t1.vector(key)]
        row = [
            float(t2.vector(key)[d]) + (float(t1.mean[d]) - float(t2.mean[d]))
            for d in range(t1.dim)
        ]
        return "second_only", stage, row
    return "unknown", None, [float(unknown_fill)] * t1.dim


class TestVectorOps:
    def test_fuse_both_on_hand_numbers(self):
        out = fuse_both([2.0, 4.0], [10.0, 20.0], [1.0, 1.0], [7.0, 13.0])
        # shift = (-6, -12); second becomes (4, 8); average with (2, 4)
        assert np.array_equal(out, [3.0, 6.0])

    def test_fuse_second_only_on_hand_numbers(self):
        out = fuse_second_only([10.0, 20.0], [1.0, 1.0], [7.0, 13.0])
        assert np.array_equal(out, [4.0, 8.0])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValidationError) as exc:
            fuse_both([1.0], [1.0, 2.0], [0.0], [0.0])
        assert exc.value.code == "dim-mismatch"
        with pytest.raises(ValidationError) as exc:
            fuse_second_only([1.0], [0.0, 1.0], [0.0])
        assert exc.value.code == "dim-mismatch"


class TestCandidateKeys:
    def test_order_and_dedup_for_capitalized_token(self):
        keys = candidate_keys("Cats", "cat")
        assert keys == [("exact", "Cats"), ("lower", "cats"), ("lemma", "cat")]

    def test_lowercase_token_dedups_exact_and_lower(self):
        keys = candidate_keys("cats", "cat")
        assert keys == [("exact", "cats"), ("capital", "Cats"), ("lemma", "cat")]

    def test_lemma_none_skipped(self):
        assert all(stage != "lemma" for stage, _ in candidate_keys("Cats", None))

    def test_custom_order_respected(self):
        keys = candidate_keys("Cats", "cat", order=("lemma", "exact"))
        assert keys == [("lemma", "cat"), ("exact", "Cats")]

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValidationError):
            candidate_keys("x", "x", order=("exact", "soundex"))


class TestBuildFusedMatrix:
    def test_matches_scalar_reference_bit_exact(self):
        rng = derive_rng(2024, "fusion-oracle")
        pool = [f"w{k}" for k in range(30)] + [f"W{k}" for k in range(10)]
        for trial in range(200):
            dim = int(rng.integers(1, 9))
            vocab_n = int(rng.integers(1, 15))
            n1 = int(rng.integers(1, 21))
            n2 = int(rng.integers(1, 21))
            words1 = list(rng.choice(pool, size=n1, replace=False))
            words2 = list(rng.choice(pool, size=n2, replace=False))
            t1 = make_table(words1, rng.normal(size=(n1, dim)), "t1")
            t2 = make_table(words2, rng.normal(size=(n2, dim)), "t2")
            corpus_tokens = list(rng.choice(pool, size=vocab_n, replace=False))
            lemmas = {
                tok: tok.lower().rstrip("0123456789") or tok.lower()
                for tok in corpus_tokens
            }
            dicts = dicts_for(corpus_tokens, lemmas)
            fill = float(rng.normal())
            fused = build_fused_matrix(dicts, t1, t2, unknown_fill=fill)

            expect_counts = BranchCounts()
            for token, w in dicts.dict_words.items():
                branch, stage, row = ref_fuse_row(
                    token, dicts.lemma_dict.get(token), t1, t2, fill, FALLBACK_STAGES
                )
                setattr(expect_counts, branch, getattr(expect_counts, branch) + 1)
                if stage in ("lower", "capital"):
                    expect_counts.case_hits += 1
                elif stage == "lemma":
                    expect_counts.lemma_hits += 1
                assert fused.matrix[w].tolist() == row, (trial, token)
            assert fused.branch_counts == expect_counts, trial
            assert np.array_equal(fused.matrix[0], np.zeros(dim))
            assert np.array_equal(fused.matrix[1], np.full(dim, fill))

    def test_translation_invariance_on_dyadic_grid(self):
        # Values are multiples of 1/8 and row counts are powers of two, so
        # means, shifts, and sums stay exact in float64 and shifting the
        # second table by a constant must cancel out bit for bit.
        rng = derive_rng(77, "fusion-shift")
        for trial in range(50):
            dim = int(rng.integers(1, 9))
            n1 = int(2 ** rng.integers(0, 5))
            n2 = int(2 ** rng.integers(0, 5))
            words1 = [f"w{k}" for k in range(n1)]
            words2 = [f"w{k}" for k in range(0, 2 * n2, 2)]
            m1 = rng.integers(-64, 65, size=(n1, dim)) / 8.0
            m2 = rng.integers(-64, 65, size=(n2, dim)) / 8.0
            c = float(rng.integers(-64, 65)) / 8.0
            t1 = make_table(words1, m1, "t1")
            t2 = make_table(words2, m2, "t2")
            t2_shifted = make_table(words2, m2 + c, "t2c")
            dicts = dicts_for([f"w{k}" for k in range(max(n1, 2 * n2))])
            a = build_fused_matrix(dicts, t1, t2)
            b = build_fused_matrix(dicts, t1, t2_shifted)
            assert np.array_equal(a.matrix, b.matrix), trial
            assert a.branch_counts == b.branch_counts

    def test_self_fusion_returns_own_rows_exactly(self):
        rng = derive_rng(13, "fusion-self")
        words = [f"w{k}" for k in range(12)]
        table = make_table(words, rng.normal(size=(12, 5)))
        dicts = dicts_for(words + ["missing1", "missing2"])
        fused = build_fused_matrix(dicts, table, table, unknown_fill=0.25)
        for token in words:
            w = dicts.dict_words[token]
            assert np.array_equal(fused.matrix[w], table.vector(token)), token
        assert fused.branch_counts.both == 12
        assert fused.branch_counts.unknown == 2

    def test_branch_counts_sum_to_vocab(self):
        t1 = make_table(["a", "b"], [[1.0], [2.0]])
        t2 = make_table(["b", "c"], [[3.0], [4.0]])
        dicts = dicts_for(["a", "b", "c", "zzz"])
        fused = build_fused_matrix(dicts, t1, t2)
        counts = fused.branch_counts
        assert counts.both == 1
        assert counts.first_only == 1
        assert counts.second_only == 1
        assert counts.unknown == 1
        assert counts.total() == len(dicts.dict_words)

    def test_case_fallback_branches_on_either_table(self):
        # "Cats" itself is absent; lowercase "cats" exists only in the
        # second table, so the row is the shifted second-table vector.
        t1 = make_table(["dog"], [[0.0, 0.0]])
        t2 = make_table(["cats"], [[1.0, 2.0]])
        dicts = dicts_for(["Cats"], {"Cats": "cat"})
        fused = build_fused_matrix(dicts, t1, t2)
        assert fused.branch_counts.second_only == 1
        assert fused.branch_counts.case_hits == 1
        expected = fuse_second_only(t2.vector("cats"), t1.mean, t2.mean)
        assert np.array_equal(fused.matrix[2], expected)

    def test_capital_fallback(self):
        t1 = make_table(["Paris"], [[1.0]])
        t2 = make_table(["tokyo"], [[2.0]])
        dicts = dicts_for(["paris"], {"paris": "pari"})
        fused = build_fused_matrix(dicts, t1, t2)
        assert fused.branch_counts.first_only == 1
        assert fused.branch_counts.case_hits == 1
        assert fused.matrix[2].tolist() == [1.0]

    def test_capital_upper_cases_only_the_first_character(self):
        # str.capitalize() would pick "Iphone"; the capital stage keeps the
        # rest of the token as written and picks "IPHONE".
        assert candidate_keys("iPHONE", None) == [
            ("exact", "iPHONE"), ("lower", "iphone"), ("capital", "IPHONE")]
        t1 = make_table(["IPHONE", "Iphone"], [[1.0], [2.0]])
        t2 = make_table(["tokyo"], [[3.0]])
        dicts = dicts_for(["iPHONE"], {"iPHONE": "iPHONE"})
        fused = build_fused_matrix(dicts, t1, t2)
        assert fused.branch_counts.case_hits == 1
        assert fused.matrix[2].tolist() == [1.0]

    def test_lemma_fallback_last(self):
        t1 = make_table(["cat"], [[4.0]])
        t2 = make_table(["felines"], [[8.0]])
        dicts = dicts_for(["cats"], {"cats": "cat"})
        fused = build_fused_matrix(dicts, t1, t2)
        assert fused.branch_counts.lemma_hits == 1
        assert fused.branch_counts.first_only == 1
        assert fused.matrix[2].tolist() == [4.0]

    def test_exact_hit_in_either_table_stops_fallback(self):
        # exact key found in table two only; lowercase exists in table one
        # but must not be consulted because the first stage already hit.
        t1 = make_table(["cats"], [[1.0]])
        t2 = make_table(["Cats"], [[5.0]])
        dicts = dicts_for(["Cats"], {"Cats": "cat"})
        fused = build_fused_matrix(dicts, t1, t2)
        assert fused.branch_counts.second_only == 1
        assert fused.branch_counts.case_hits == 0
        expected = fuse_second_only(np.array([5.0]), t1.mean, t2.mean)
        assert np.array_equal(fused.matrix[2], expected)

    def test_dim_mismatch_rejected(self):
        t1 = make_table(["a"], [[1.0, 2.0]])
        t2 = make_table(["a"], [[1.0]])
        with pytest.raises(ValidationError) as exc:
            build_fused_matrix(dicts_for(["a"]), t1, t2)
        assert exc.value.code == "dim-mismatch"

    def test_empty_dictionary_rejected(self):
        t = make_table(["a"], [[1.0]])
        with pytest.raises(ValidationError) as exc:
            build_fused_matrix(CorpusDictionaries({}, {}), t, t)
        assert exc.value.code == "empty-dictionaries"

    @pytest.mark.parametrize("fill", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_unknown_fill_rejected(self, fill):
        t = make_table(["a"], [[1.0]])
        with pytest.raises(ValidationError, match=f"unknown_fill must be finite, got {fill}"):
            build_fused_matrix(dicts_for(["a", "b"]), t, t, unknown_fill=fill)


class TestReportAndTable:
    def build(self):
        t1 = make_table(["a", "b"], [[1.0, 0.0], [2.0, 2.0]])
        t2 = make_table(["b", "c"], [[0.5, 1.5], [1.0, 1.0]])
        dicts = dicts_for(["a", "b", "c", "zzz"])
        return dicts, build_fused_matrix(dicts, t1, t2)

    def test_report_rates_and_rows(self):
        dicts, fused = self.build()
        assert dict(fused.rows())["unknown_share"] == "0.250000"
        keys = [k for k, _ in fused.rows()]
        assert "both" in keys and "unknown" in keys
        assert len(fused.lines()) == len(fused.rows())

    def test_round_trip_through_embedding_table(self):
        dicts, fused = self.build()
        table = fused_to_table(fused, dicts)
        assert table.name == "fused" and "<pad>" in table and "<unk>" in table
        back = matrix_from_table(table, dicts)
        assert np.array_equal(back, fused.matrix)

    def test_matrix_from_table_names_missing_word(self):
        dicts, fused = self.build()
        table = fused_to_table(fused, dicts)
        del table.vocab["b"]
        table.matrix = table.matrix[:-1]
        table.mean = table.matrix.mean(axis=0)
        with pytest.raises(ValidationError) as exc:
            matrix_from_table(table, dicts)
        assert "b" in str(exc.value)


class TestFloat32Table:
    """A float32 table (as parsed from w2v-bin) fuses to the bits of its float64 widening."""

    def tables(self):
        rng = derive_rng(17, "f32-fusion")
        words1 = [f"w{k}" for k in range(12)] + ["Cap"]
        words2 = [f"w{k}" for k in range(6, 18)]
        t1 = parse_word2vec_binary(write_word2vec_binary(
            make_table(words1, rng.normal(size=(len(words1), 5)) * 1e3)))
        wide = EmbeddingTable(t1.name, t1.vocab, t1.matrix.astype(np.float64), t1.mean)
        t2 = make_table(words2, rng.normal(size=(len(words2), 5)))
        dicts = dicts_for([f"w{k}" for k in range(0, 20, 2)] + ["cap", "zzz"])
        return dicts, t1, wide, t2

    def test_fused_matrix_written_bytes_and_read_back_match_the_widening(self):
        dicts, t1, wide, t2 = self.tables()
        assert t1.matrix.dtype == np.float32 and wide.matrix.dtype == np.float64
        assert t1.mean.tobytes() == wide.mean.tobytes()
        fused = build_fused_matrix(dicts, t1, t2, unknown_fill=0.25)
        fused_wide = build_fused_matrix(dicts, wide, t2, unknown_fill=0.25)
        counts = fused.branch_counts
        assert min(counts.both, counts.first_only, counts.second_only, counts.unknown) > 0
        assert counts == fused_wide.branch_counts
        assert fused.matrix.dtype == np.float64
        assert fused.matrix.tobytes() == fused_wide.matrix.tobytes()
        payload = write_word2vec_binary(fused_to_table(fused, dicts))
        assert payload == write_word2vec_binary(fused_to_table(fused_wide, dicts))
        back = parse_word2vec_binary(payload)
        back_wide = EmbeddingTable(back.name, back.vocab,
                                   back.matrix.astype(np.float64), back.mean)
        matrix = matrix_from_table(back, dicts)
        assert matrix.dtype == np.float64
        assert matrix.tobytes() == matrix_from_table(back_wide, dicts).tobytes()
