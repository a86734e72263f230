"""tc/df aggregation, table invariants, merge, and the stats file format."""

import numpy as np
import pytest

from corpusstats import (
    Document,
    FrequencyListEntry,
    ParseError,
    TermStatsTable,
    ValidationError,
    compute_tc_df,
    frequency_of_frequencies,
    merge,
    read_stats,
    read_stats_columns,
    Rounding,
    align_ranks,
    ranked_by,
    ratio_histogram,
    write_stats,
)
from corpusstats import stats
from corpusstats.stats import count_corpus
from conftest import SONG_TC_DF


class TestComputeTcDf:
    def test_song_corpus_matches_hand_tally(self, song_docs):
        table = compute_tc_df(song_docs)
        assert table.doc_count == 5
        assert table.as_mapping() == SONG_TC_DF

    def test_within_document_repeats_count_once_for_df(self):
        table = compute_tc_df([Document("a", ["x", "x", "x"])])
        assert table.as_mapping() == {"x": (3, 1)}

    def test_df_never_exceeds_tc_or_doc_count(self):
        rng = np.random.default_rng(42)
        vocab = [f"t{i}" for i in range(30)]
        for _ in range(50):
            docs = []
            for d in range(int(rng.integers(1, 12))):
                size = int(rng.integers(0, 40))
                tokens = [vocab[int(i)] for i in rng.integers(0, len(vocab), size)]
                docs.append(Document(f"d{d}", tokens))
            table = compute_tc_df(docs)
            table.validate()
            assert table.doc_count == len(docs)
            for term, (tc, df) in table.as_mapping().items():
                assert 1 <= df <= tc
                assert df <= table.doc_count

    def test_empty_documents_bump_doc_count_only(self):
        table = compute_tc_df([Document("a", []), Document("b", ["x"])])
        assert table.doc_count == 2
        assert table.as_mapping() == {"x": (1, 1)}

    def test_empty_corpus_gives_empty_table(self):
        table = compute_tc_df([])
        assert table.doc_count == 0
        assert table.as_mapping() == {}

    def test_duplicate_doc_id_rejected(self):
        docs = [Document("a", ["x"]), Document("a", ["y"])]
        with pytest.raises(ValidationError):
            compute_tc_df(docs)

    def test_empty_doc_id_rejected(self):
        with pytest.raises(ValidationError):
            compute_tc_df([Document("", ["x"])])

    # count_corpus(..., jobs=N) replaced compute_tc_df(..., jobs=N); these
    # two keep their assertions against it (more in test_count.py).
    def test_jobs_parameter_changes_nothing(self, song_docs, song_corpus_dir, monkeypatch):
        monkeypatch.setattr(stats, "_usable_cpus", lambda: 4)
        sequential = compute_tc_df(song_docs)
        sharded = count_corpus(song_corpus_dir, jobs=4)
        assert sharded.as_mapping() == sequential.as_mapping()
        assert sharded.doc_count == sequential.doc_count

    def test_jobs_on_larger_random_corpus(self, tmp_path, monkeypatch):
        monkeypatch.setattr(stats, "_usable_cpus", lambda: 3)
        rng = np.random.default_rng(7)
        docs = []
        for d in range(700):  # enough documents to span several shards
            size = int(rng.integers(0, 25))
            tokens = [f"w{int(i)}" for i in rng.integers(0, 80, size)]
            docs.append(Document(f"d{d}", tokens))
        path = tmp_path / "corpus.txt"
        path.write_text("\n%%DOC%%\n".join(" ".join(d.tokens) for d in docs) + "\n", encoding="utf-8")
        a = compute_tc_df(iter(docs))
        b = count_corpus(path, jobs=3)
        assert a.as_mapping() == b.as_mapping() and a.doc_count == b.doc_count


class TestMerge:
    def test_merge_equals_whole_corpus_count(self, song_docs):
        whole = compute_tc_df(song_docs)
        for cut in range(len(song_docs) + 1):
            left = compute_tc_df(song_docs[:cut])
            right = compute_tc_df(song_docs[cut:])
            combined = merge(left, right)
            assert combined.as_mapping() == whole.as_mapping()
            assert combined.doc_count == whole.doc_count

    def test_merge_is_commutative(self, song_docs):
        a = compute_tc_df(song_docs[:2])
        b = compute_tc_df(song_docs[2:])
        ab, ba = merge(a, b), merge(b, a)
        assert ab.as_mapping() == ba.as_mapping() and ab.doc_count == ba.doc_count

    def test_merge_overflow_guard(self):
        big = 2**62  # each fits int64, the sum 2**63 does not
        a = TermStatsTable.from_mapping({"x": (big, 1)}, 1)
        b = TermStatsTable.from_mapping({"x": (big, 1)}, 1)
        with pytest.raises(ValidationError):
            merge(a, b)


class TestTableBasics:
    def test_lookups_and_membership(self, song_table):
        assert song_table.tc("long") == 3
        assert song_table.df("long") == 1
        assert song_table.tc("absent") == 0
        assert "love" in song_table and "absent" not in song_table
        assert len(song_table) == 12

    def test_terms_sorted(self, song_table):
        assert song_table.terms() == sorted(SONG_TC_DF)

    def test_count_arrays_align_with_sorted_terms(self, song_table):
        tc, df = song_table.count_arrays()
        terms = song_table.terms()
        assert tc.dtype == np.int64 and df.dtype == np.int64
        for i, term in enumerate(terms):
            assert (int(tc[i]), int(df[i])) == SONG_TC_DF[term]

    def test_validate_catches_violations(self):
        with pytest.raises(ValidationError):
            TermStatsTable.from_mapping({"x": (1, 2)}, 5).validate()  # df > tc
        with pytest.raises(ValidationError):
            TermStatsTable.from_mapping({"x": (3, 0)}, 5).validate()  # df < 1
        with pytest.raises(ValidationError):
            TermStatsTable.from_mapping({"x": (3, 2)}, 1).validate()  # df > doc_count


class TestTcOnlyTable:
    """A frequency list's table has no df column: every reader of it refuses."""

    @pytest.fixture
    def tc_only(self):
        return TermStatsTable.from_entries([FrequencyListEntry("a", 5), FrequencyListEntry("b", 2)])

    @pytest.mark.parametrize("use", [
        pytest.param(lambda t, tmp: write_stats(t, tmp / "t.stats"), id="write_stats"),
        pytest.param(lambda t, tmp: merge(t, t), id="merge"),
        pytest.param(lambda t, tmp: ranked_by(t, "df"), id="ranked_by_df"),
        pytest.param(lambda t, tmp: align_ranks(t), id="align_ranks"),
        pytest.param(lambda t, tmp: ratio_histogram(t, Rounding.INTEGER), id="ratio_histogram"),
        pytest.param(lambda t, tmp: t.as_mapping(), id="as_mapping"),
        pytest.param(lambda t, tmp: t.validate(), id="validate"),
    ])
    def test_df_readers_raise_validation_error(self, tc_only, use, tmp_path):
        with pytest.raises(ValidationError, match="tc-only table has no df column"):
            use(tc_only, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_tc_readers_still_work(self, tc_only):
        assert list(ranked_by(tc_only, "tc")) == [("a", 5, 1), ("b", 2, 2)]
        assert tc_only.count_arrays()[1] is None


class TestFrequencyOfFrequencies:
    def test_song_table_tc_histogram(self, song_table):
        assert frequency_of_frequencies(song_table, "tc") == {1: 7, 2: 4, 3: 1}

    def test_song_table_df_histogram(self, song_table):
        assert frequency_of_frequencies(song_table, "df") == {1: 9, 2: 3}

    def test_values_sum_to_term_count(self, song_table):
        for which in ("tc", "df"):
            histogram = frequency_of_frequencies(song_table, which)
            assert sum(histogram.values()) == len(song_table)

    def test_from_frequency_entries(self):
        entries = [FrequencyListEntry("a", 5), FrequencyListEntry("b", 5),
                   FrequencyListEntry("c", 2)]
        tc_only = TermStatsTable.from_entries(entries)
        assert frequency_of_frequencies(tc_only, "tc") == {5: 2, 2: 1}

    def test_df_needs_a_df_column(self):
        with pytest.raises(ValidationError):
            frequency_of_frequencies(TermStatsTable.from_entries([FrequencyListEntry("a", 5)]), "df")

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            frequency_of_frequencies(TermStatsTable.from_mapping({}, 0), "tc")

    def test_unknown_column_rejected(self, song_table):
        with pytest.raises(ValidationError):
            frequency_of_frequencies(song_table, "idf")


class TestStatsFileFormat:
    def test_roundtrip_preserves_everything(self, song_table, tmp_path):
        path = tmp_path / "stats.tsv"
        write_stats(song_table, path)
        again = read_stats(path)
        assert again.as_mapping() == song_table.as_mapping()
        assert again.doc_count == song_table.doc_count

    def test_written_layout_is_sorted_with_header(self, song_table, tmp_path):
        path = tmp_path / "stats.tsv"
        write_stats(song_table, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "#N=5"
        assert lines[1] == "all\t2\t2"
        assert lines[-1] == "you\t1\t1"
        terms = [line.split("\t")[0] for line in lines[1:]]
        assert terms == sorted(terms)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("all\t2\t2\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_stats(path)
        assert ":1:" in str(err.value)

    def test_invariant_violations_rejected_with_line(self, tmp_path):
        cases = [
            "#N=5\nx\t1\t2\n",      # df > tc
            "#N=5\nx\t1\t0\n",      # df < 1
            "#N=1\nx\t5\t2\n",      # df > N
            "#N=5\nx\t1\n",         # missing field
            "#N=5\nx\t1.0\t1\n",    # non-integer
            "#N=5\nx\t1\t1\nx\t2\t1\n",  # duplicate term
        ]
        for text in cases:
            path = tmp_path / "bad.tsv"
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ParseError) as err:
                read_stats(path)
            assert ":2:" in str(err.value) or ":3:" in str(err.value)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError):
            read_stats(path)

    def test_empty_table_roundtrip(self, tmp_path):
        path = tmp_path / "stats.tsv"
        write_stats(TermStatsTable.from_mapping({}, 0), path)
        again = read_stats(path)
        assert again.as_mapping() == {} and again.doc_count == 0

    def test_columns_fast_path_matches_full_read(self, song_table, tmp_path):
        path = tmp_path / "stats.tsv"
        write_stats(song_table, path)
        tc, df, n = read_stats_columns(path)
        tc_full, df_full = read_stats(path).count_arrays()
        assert n == 5
        assert np.array_equal(tc, tc_full)
        assert np.array_equal(df, df_full)

    def test_unsorted_rows_are_accepted_and_sorted(self, tmp_path):
        path = tmp_path / "unsorted.tsv"
        path.write_text("#N=5\nzebra\t2\t1\napple\t1\t1\n", encoding="utf-8")
        table = read_stats(path)
        assert table.terms() == ["apple", "zebra"]
        assert table.as_mapping() == {"apple": (1, 1), "zebra": (2, 1)}
        tc, df, n = read_stats_columns(path)
        assert tc.tolist() == [1, 2] and df.tolist() == [1, 1] and n == 5

    def test_duplicate_after_unsorted_rows_names_its_line(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("#N=5\nb\t1\t1\na\t1\t1\n\nc\t1\t1\nb\t2\t1\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_stats(path)
        assert ":6: duplicate term 'b'" in str(err.value)

    @pytest.mark.parametrize("term", ["a\tb", "a\rb"])
    def test_writers_refuse_a_term_that_would_split_its_row(self, term, tmp_path):
        table = TermStatsTable.from_mapping({term: (2, 1), "c": (1, 1)}, 3)
        with pytest.raises(ValidationError):
            write_stats(table, tmp_path / "t.stats")
        assert list(tmp_path.iterdir()) == []

    def test_a_newline_in_a_term_is_refused_when_the_table_is_built(self):
        with pytest.raises(ValidationError):
            TermStatsTable.from_mapping({"a\nb": (2, 1)}, 3)

    def test_count_limit_is_two_to_the_63_minus_one(self, tmp_path):
        path = tmp_path / "big.tsv"
        path.write_text(f"#N=5\nx\t{2**63 - 1}\t1\n", encoding="utf-8")
        assert read_stats(path).tc("x") == 2**63 - 1
        path.write_text(f"#N=5\nx\t{2**63}\t1\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_stats(path)
        assert ":2: tc exceeds 2**63 - 1" in str(err.value)


class TestRepeatsAmongUnsortedRows:
    """A term repeated among rows that do not ascend is found by the sort that
    orders them, after the file, or its rows before a bad line, has been read;
    the error named is still the first in file order, at every block size."""

    CASES = {
        "repeat_before_a_bad_comment": (b"b\t1\na\t1\nb\t2\n# caf\xe9\n", False,
                                        "3: duplicate term 'b'"),
        "bad_line_before_a_repeat": (b"b\t1\na\t1\nx\t0\nb\t2\n", False, "3: count must be >= 1, got 0"),
        "table_repeat_before_a_lemma_repeat": (b"b\t1\na\t1\nb\t2\nc\t1\tL\nc\t1\tL\n", False,
                                               "3: duplicate term 'b'"),
        "lemma_repeat_before_a_table_repeat": (b"c\t1\tL\na\t1\tL\nc\t1\tL\nb\t1\na\t2\nb\t1\n", False,
                                               "3: duplicate term 'c' (lemma row)"),
        "lemma_repeat_on_the_table_repeat_line": (b"b\t1\tL\na\t1\tL\nb\t1\tL\n", True,
                                                  "3: duplicate term 'b' (lemma row)"),
    }

    @pytest.mark.parametrize("size", [1, 7, 64, 2**20])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_the_first_error_in_file_order_is_raised(self, case, size, tmp_path, monkeypatch):
        data, keep_lemmatized, message = self.CASES[case]
        path = tmp_path / "words.freq"
        path.write_bytes(data)
        monkeypatch.setattr(stats, "_BLOCK_SIZE", size)
        with pytest.raises(ParseError) as err:
            stats.read_frequency_table(path, keep_lemmatized)
        assert str(err.value).startswith(f"{path}:{message}")

    def test_a_sorted_repeat_is_found_as_an_unsorted_one(self, tmp_path):
        path = tmp_path / "dup.stats"
        path.write_text("#N=5\na\t1\t1\nb\t1\t1\nb\t2\t1\nc\t1\t1\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":4: duplicate term 'b'"):
            read_stats(path)
