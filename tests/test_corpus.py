"""Corpus pipeline tests: CSV loading, filtering, encoding, splitting."""
import io
import re

import pytest

from embfuse.corpus import (
    DEFAULT_BUCKETS,
    CorpusDictionaries,
    EncodedExample,
    PreparedDataset,
    ReviewRecord,
    SentimentLabel,
    build_dictionaries,
    default_lemmatize,
    encode_sequence,
    filter_dominant_place,
    load_lemma_table,
    load_reviews_csv,
    parse_buckets,
    prepare_corpus,
    rate_to_label,
    read_dataset,
    split_train_test,
    table_lemmatizer,
    tokenize,
    write_dataset,
)
from embfuse.errors import ValidationError

HEADER = "Name of the shop place,Title of the review,Review,Rate\n"


def csv_bytes(*rows):
    return (HEADER + "".join(r + "\n" for r in rows)).encode("utf-8")


def record(place="P", title="T", text="some text", rate=4):
    return ReviewRecord(place_name=place, title=title, review_text=text, rate=rate)


class TestCsvLoader:
    def test_loads_all_columns(self):
        records, dropped = load_reviews_csv(
            io.BytesIO(csv_bytes("Shop A,Great,Loved the tea,5"))
        )
        assert dropped == 0
        assert records == [
            ReviewRecord("Shop A", "Great", "Loved the tea", 5)
        ]

    def test_header_match_is_case_and_space_insensitive(self):
        data = (
            "RATE, review ,  name OF the   shop place ,Title of the Review\n"
            "4,nice place,Shop B,ok\n"
        ).encode()
        records, _ = load_reviews_csv(io.BytesIO(data))
        assert records[0].place_name == "Shop B"
        assert records[0].rate == 4
        assert records[0].review_text == "nice place"

    def test_extra_columns_ignored(self):
        data = (
            "id,Name of the shop place,Title of the review,Review,Rate,junk\n"
            "7,S,T,R,3,x\n"
        ).encode()
        records, _ = load_reviews_csv(io.BytesIO(data))
        assert records[0].rate == 3

    def test_missing_column_named_in_error(self):
        data = "Name of the shop place,Title of the review,Review\nS,T,R\n".encode()
        with pytest.raises(ValidationError) as exc:
            load_reviews_csv(io.BytesIO(data))
        assert exc.value.code == "missing-column"
        assert "Rate" in str(exc.value)

    def test_empty_file_rejected(self):
        with pytest.raises(ValidationError) as exc:
            load_reviews_csv(io.BytesIO(b""))
        assert exc.value.code == "empty-file"

    def test_bad_rows_dropped_and_counted(self):
        records, dropped = load_reviews_csv(io.BytesIO(csv_bytes(
            "S,T,fine,4",
            "S,T,fractional,4.5",
            "S,T,zero,0",
            "S,T,six,6",
            "S,T,not a number,abc",
            "S,T,,3",
            "S,T,   ,3",
            "S,T,integral float,3.0",
        )))
        assert dropped == 6
        assert [r.rate for r in records] == [4, 3]

    def test_quoted_commas_and_newlines(self):
        data = (HEADER + '"Shop, Inc",T,"line one\nline two",5\n').encode()
        records, _ = load_reviews_csv(io.BytesIO(data))
        assert records[0].place_name == "Shop, Inc"
        assert "line two" in records[0].review_text


class TestDominantPlace:
    def test_keeps_modal_place_only(self):
        records = [record(place="A")] * 3 + [record(place="B")] * 2
        kept, report = filter_dominant_place(records)
        assert len(kept) == 3
        assert report.place == "A"
        assert report.kept == 3 and report.total == 5
        assert report.share == pytest.approx(0.6)
        assert not report.tied

    def test_tie_prefers_lexicographically_smallest(self):
        records = [record(place="zeta"), record(place="alpha")]
        kept, report = filter_dominant_place(records)
        assert report.place == "alpha"
        assert report.tied

    def test_place_names_trimmed_before_counting(self):
        records = [record(place=" A "), record(place="A"), record(place="B")]
        _, report = filter_dominant_place(records)
        assert report.place == "A" and report.kept == 2

    def test_empty_rejected(self):
        with pytest.raises(ValidationError) as exc:
            filter_dominant_place([])
        assert exc.value.code == "empty-input"


class TestBuckets:
    def test_default_buckets(self):
        assert rate_to_label(1) is SentimentLabel.bad
        assert rate_to_label(2) is SentimentLabel.bad
        assert rate_to_label(3) is SentimentLabel.neutral
        assert rate_to_label(4) is SentimentLabel.good
        assert rate_to_label(5) is SentimentLabel.good

    def test_parse_matches_default(self):
        assert parse_buckets("1-2/3/4-5") == DEFAULT_BUCKETS

    def test_parse_custom_grouping(self):
        buckets = parse_buckets("1/2-4/5")
        assert rate_to_label(2, buckets) is SentimentLabel.neutral
        assert rate_to_label(4, buckets) is SentimentLabel.neutral
        assert rate_to_label(5, buckets) is SentimentLabel.good

    def test_parse_rejects_gaps_overlaps_and_noise(self):
        for bad in ("1-2/3", "1-3/3/4-5", "1-2/3/4", "1-2/x/4-5", "2-1/3/4-5"):
            with pytest.raises(ValidationError):
                parse_buckets(bad)

    def test_out_of_range_rate_rejected(self):
        for rate in (0, 6, "3"):
            with pytest.raises(ValidationError) as exc:
                rate_to_label(rate)
            assert exc.value.code == "out-of-range"


class TestTokenizeAndLemma:
    def test_tokenize_strips_punctuation_keeps_case(self):
        assert tokenize("Cats, cats RUN!") == ["Cats", "cats", "RUN"]

    def test_tokenize_keeps_internal_apostrophe(self):
        assert tokenize("don't stop") == ["don't", "stop"]
        assert tokenize("l’avis était bon") == ["l’avis", "était", "bon"]

    def test_tokenize_empty(self):
        assert tokenize("...") == []

    @pytest.mark.parametrize("token,lemma", [
        ("was", "was"),          # short tokens untouched
        ("cats", "cat"),
        ("cities", "city"),
        ("glasses", "glass"),
        ("boxes", "box"),
        ("churches", "church"),
        ("dishes", "dish"),
        ("press", "press"),      # -ss is not a plural
        ("running", "run"),      # doubled consonant undone
        ("reading", "read"),
        ("stopped", "stop"),
        ("walked", "walk"),
        ("tables", "table"),
        ("thing", "thing"),      # too short for -ing stripping
    ])
    def test_default_lemmatizer_rules(self, token, lemma):
        assert default_lemmatize(token) == lemma

    def test_lemma_table_loader_and_lookup(self):
        table = load_lemma_table(io.BytesIO(b"went\tgo\nbetter\tgood\n"))
        lemmatize = table_lemmatizer(table)
        assert lemmatize("went") == "go"
        assert lemmatize("unlisted") == "unlisted"

    def test_lemma_table_rejects_bad_line(self):
        with pytest.raises(ValidationError):
            load_lemma_table(io.BytesIO(b"went go\n"))


class TestDictionaries:
    def test_first_seen_order_from_index_two(self):
        dicts = build_dictionaries([["Cats", "cats"], ["run", "Cats", "RUN"]])
        assert dicts.dict_words == {"Cats": 2, "cats": 3, "run": 4, "RUN": 5}
        assert dicts.vocab_size == 6

    def test_lemma_map_lowercases_before_lemmatizing(self):
        dicts = build_dictionaries([["Cats", "RUNNING"]])
        assert dicts.lemma_dict == {"Cats": "cat", "RUNNING": "run"}

    def test_custom_lemmatizer_used(self):
        dicts = build_dictionaries([["went"]], table_lemmatizer({"went": "go"}))
        assert dicts.lemma_dict["went"] == "go"

    def test_encode_maps_unknown_to_one_and_left_pads(self):
        dicts = build_dictionaries([["a", "b"]])
        assert encode_sequence(["a", "zzz", "b"], dicts, max_len=5) == [0, 0, 2, 1, 3]

    def test_encode_truncates_keeping_first_tokens(self):
        dicts = build_dictionaries([["a", "b", "c"]])
        assert encode_sequence(["a", "b", "c"], dicts, max_len=2) == [2, 3]


class TestSplit:
    def examples(self, counts):
        out = []
        for label, n in counts.items():
            out.extend(
                EncodedExample(indices=[0, 2], label=SentimentLabel(label))
                for _ in range(n)
            )
        return out

    def test_per_label_rounded_sizes(self):
        train, test = split_train_test(self.examples({0: 18, 1: 18, 2: 40}), 0.9, 0)
        def count(split, label):
            return sum(1 for ex in split if int(ex.label) == label)
        assert count(train, 0) == 16 and count(test, 0) == 2
        assert count(train, 1) == 16 and count(test, 1) == 2
        assert count(train, 2) == 36 and count(test, 2) == 4

    def test_examples_partitioned_exactly(self):
        examples = self.examples({0: 7, 1: 6, 2: 7})
        train, test = split_train_test(examples, 0.8, 3)
        assert len(train) + len(test) == len(examples)

    def test_same_seed_same_split(self):
        examples = self.examples({0: 10, 1: 10, 2: 10})
        a = split_train_test(examples, 0.9, 5)
        b = split_train_test(examples, 0.9, 5)
        assert [id(e) for e in a[0]] == [id(e) for e in b[0]]

    def test_different_seed_different_split(self):
        examples = self.examples({0: 30, 1: 30, 2: 30})
        a = split_train_test(examples, 0.5, 1)
        b = split_train_test(examples, 0.5, 2)
        assert [id(e) for e in a[0]] != [id(e) for e in b[0]]

    def test_too_few_examples_rejected(self):
        with pytest.raises(ValidationError) as exc:
            split_train_test(self.examples({0: 9}), 0.9, 0)
        assert exc.value.code == "too-few-examples"

    def test_bad_fraction_rejected(self):
        for frac in (0.0, 1.0, -0.5):
            with pytest.raises(ValidationError):
                split_train_test(self.examples({0: 20}), frac, 0)


class TestPrepare:
    def records(self):
        rows = []
        for i in range(30):
            rate = (i % 5) + 1
            rows.append(record(place="Main", title=f"t{i}", text=f"review body {i}", rate=rate))
        rows.extend(record(place="Other") for _ in range(5))
        return rows

    def test_title_joined_before_review(self):
        ds, _ = prepare_corpus(self.records(), max_len=8, seed=0)
        title_token = "t0"
        assert title_token in ds.dicts.dict_words

    def test_title_excluded_when_disabled(self):
        ds, _ = prepare_corpus(self.records(), include_title=False, max_len=8, seed=0)
        assert "t0" not in ds.dicts.dict_words
        assert "review" in ds.dicts.dict_words

    def test_report_counts(self):
        ds, report = prepare_corpus(self.records(), loaded=40, dropped=5, max_len=8, seed=0)
        assert report.loaded == 40 and report.dropped == 5
        assert report.filter.place == "Main"
        assert report.label_counts == {"bad": 12, "neutral": 6, "good": 12}
        assert report.train_size == len(ds.train)
        assert report.test_size == len(ds.test)
        assert report.vocab_size == ds.dicts.vocab_size
        assert any("dominant place" in line for line in report.lines())

    def test_examples_encoded_to_max_len(self):
        ds, _ = prepare_corpus(self.records(), max_len=8, seed=0)
        assert all(len(ex.indices) == 8 for ex in ds.train + ds.test)

    @pytest.mark.parametrize("max_len", [0, -3])
    def test_max_len_below_one_rejected(self, max_len):
        with pytest.raises(ValidationError, match=f"max_len must be at least 1, got {max_len}"):
            prepare_corpus(self.records(), max_len=max_len, seed=0)


class TestDatasetFile:
    def test_round_trip_preserves_everything(self, tmp_path):
        ds, _ = prepare_corpus(TestPrepare().records(), max_len=8, seed=1)
        path = tmp_path / "data.txt"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            write_dataset(ds, fh)
        with open(path, "r", encoding="utf-8") as fh:
            back = read_dataset(fh)
        assert back.dicts.dict_words == ds.dicts.dict_words
        assert back.dicts.lemma_dict == ds.dicts.lemma_dict
        assert back.dicts.vocab_size == ds.dicts.vocab_size
        assert back.max_len == ds.max_len
        assert [(e.indices, e.label) for e in back.train] == \
               [(e.indices, e.label) for e in ds.train]
        assert [(e.indices, e.label) for e in back.test] == \
               [(e.indices, e.label) for e in ds.test]

    def test_rejects_foreign_file(self):
        with pytest.raises(ValidationError):
            read_dataset(io.StringIO("not a dataset\n"))

    def test_rejects_wrong_version(self):
        with pytest.raises(ValidationError):
            read_dataset(io.StringIO("embfuse-dataset 99\n"))

    def test_rejects_vocab_count_mismatch(self):
        text = (
            "embfuse-dataset 1\n"
            "vocab_size=9 max_len=4 train=0 test=0\n"
            "[words]\n"
            "a\t2\ta\n"
            "[train]\n[test]\n"
        )
        with pytest.raises(ValidationError):
            read_dataset(io.StringIO(text))

    @pytest.mark.parametrize("field, value, message", [
        ("header", "vocab_size=abc max_len=2 train=1 test=0",
         "line 2: bad header field 'vocab_size=abc'"),
        ("word", "a 2 a", "line 4: expected token<TAB>index<TAB>lemma"),
        ("example", "7\t0 2", "line 6: 7 is not a valid SentimentLabel"),
        ("word", "a\t9999\ta", "line 4: word index 9999 outside 2..2"),
        ("word", "a\t1\ta", "line 4: word index 1 outside 2..2"),
        ("word", "a\t-1\ta", "line 4: word index -1 outside 2..2"),
        ("word", "a\t2\ta\nb\t2\tb", "line 4: word index 2 of 'a' is given again on line 5, to 'b'"),
        ("example", "0\t0 3", "line 6: token index 3 outside 0..2"),
        ("example", "0\t-1 2", "line 6: token index -1 outside 0..2"),
    ], ids=["header-not-int", "word-without-tabs", "unknown-label",
            "word-index-past-vocab", "word-index-unknown-slot", "word-index-negative",
            "word-index-repeated", "token-index-past-vocab", "token-index-negative"])
    def test_rejects_malformed_line(self, field, value, message):
        lines = {"header": "vocab_size=3 max_len=2 train=1 test=0",
                 "word": "a\t2\ta", "example": "0\t0 2"}
        lines[field] = value
        text = ("embfuse-dataset 1\n{header}\n[words]\n{word}\n"
                "[train]\n{example}\n[test]\n").format(**lines)
        with pytest.raises(ValidationError, match=re.escape(message)):
            read_dataset(io.StringIO(text))

    @pytest.mark.parametrize("header, example, message", [
        ("max_len=0", "0\t", "line 2: max_len must be at least 1, got 0"),
        ("max_len=-3", "0\t0 2", "line 2: max_len must be at least 1, got -3"),
        ("max_len=2", "0\t2", "line 6: encoded example length 1 differs from max_len=2"),
        ("max_len=2", "0\t0 0 2", "line 6: encoded example length 3 differs from max_len=2"),
    ], ids=["zero", "negative", "short-example", "long-example"])
    def test_rejects_bad_max_len(self, header, example, message):
        text = (f"embfuse-dataset 1\nvocab_size=3 {header} train=1 test=0\n[words]\na\t2\ta\n"
                f"[train]\n{example}\n[test]\n")
        with pytest.raises(ValidationError, match=re.escape(message)):
            read_dataset(io.StringIO(text))
