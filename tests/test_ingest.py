"""Tokenizer, corpus readers, and frequency-list parsers."""

import pytest

from corpusstats import (
    Document,
    FrequencyListEntry,
    ParseError,
    TokenizerConfig,
    ValidationError,
    parse_frequency_list,
    parse_ngram_counts,
    read_corpus,
    tokenize,
    write_frequency_list,
)


class TestTokenize:
    def test_lowercases_and_splits_on_whitespace(self):
        assert tokenize("Please Please\tMe\n") == ["please", "please", "me"]

    def test_strips_edge_punctuation_only(self):
        assert tokenize("Long, Long, Long") == ["long", "long", "long"]
        assert tokenize('"quoted" (parens) end.') == ["quoted", "parens", "end"]

    def test_internal_apostrophes_survive(self):
        assert tokenize("Can't stop") == ["can't", "stop"]
        assert tokenize("isn't 'n't'") == ["isn't", "n't"]

    def test_pure_punctuation_tokens_vanish(self):
        assert tokenize("... -- !?") == []

    def test_empty_and_whitespace_input(self):
        assert tokenize("") == []
        assert tokenize("   \n\t ") == []

    def test_no_stemming(self):
        assert tokenize("Love Loving") == ["love", "loving"]

    def test_config_switches(self):
        keep_case = TokenizerConfig(lowercase=False)
        assert tokenize("Love,", keep_case) == ["Love"]
        keep_punct = TokenizerConfig(strip_edge_punctuation=False)
        assert tokenize("Love,", keep_punct) == ["love,"]
        raw = TokenizerConfig(lowercase=False, strip_edge_punctuation=False)
        assert tokenize("Love,", raw) == ["Love,"]

    def test_unicode_punctuation_categories(self):
        # em-dash and guillemets are category P*, so they strip
        assert tokenize("«word» —") == ["word"]


class TestReadCorpusDirectory:
    def test_reads_txt_files_in_sorted_order(self, song_corpus_dir):
        docs = list(read_corpus(song_corpus_dir))
        assert [d.id for d in docs] == ["d1", "d2", "d3", "d4", "d5"]
        assert docs[0].tokens == ["please", "please", "me"]
        assert docs[4].tokens == ["long", "long", "long"]

    def test_ignores_non_txt_files(self, song_corpus_dir):
        (song_corpus_dir / "notes.md").write_text("ignored", encoding="utf-8")
        docs = list(read_corpus(song_corpus_dir))
        assert len(docs) == 5

    def test_empty_file_is_an_empty_document(self, tmp_path):
        corpus = tmp_path / "c"
        corpus.mkdir()
        (corpus / "a.txt").write_text("", encoding="utf-8")
        (corpus / "b.txt").write_text("word", encoding="utf-8")
        docs = list(read_corpus(corpus))
        assert [(d.id, d.tokens) for d in docs] == [("a", []), ("b", ["word"])]

    def test_missing_source_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            list(read_corpus(tmp_path / "nope"))


class TestReadCorpusStream:
    def _write(self, tmp_path, text):
        path = tmp_path / "stream.txt"
        path.write_text(text, encoding="utf-8")
        return path

    def test_separator_splits_documents(self, tmp_path):
        path = self._write(tmp_path, "a b\n%%DOC%%\nc\n")
        docs = list(read_corpus(path))
        assert [(d.id, d.tokens) for d in docs] == [
            ("doc000001", ["a", "b"]),
            ("doc000002", ["c"]),
        ]

    def test_trailing_separator_adds_no_document(self, tmp_path):
        path = self._write(tmp_path, "a\n%%DOC%%\n")
        assert len(list(read_corpus(path))) == 1

    def test_adjacent_separators_make_empty_document(self, tmp_path):
        path = self._write(tmp_path, "a\n%%DOC%%\n%%DOC%%\nb\n")
        docs = list(read_corpus(path))
        assert [d.tokens for d in docs] == [["a"], [], ["b"]]

    def test_lone_separator_is_one_empty_document(self, tmp_path):
        path = self._write(tmp_path, "%%DOC%%\n")
        docs = list(read_corpus(path))
        assert [d.tokens for d in docs] == [[]]

    def test_empty_file_has_no_documents(self, tmp_path):
        path = self._write(tmp_path, "")
        assert list(read_corpus(path)) == []

    def test_multiline_documents_keep_all_tokens(self, tmp_path):
        path = self._write(tmp_path, "a b\nc d\n%%DOC%%\ne\n")
        docs = list(read_corpus(path))
        assert docs[0].tokens == ["a", "b", "c", "d"]

    def test_separator_with_trailing_junk_is_malformed(self, tmp_path):
        path = self._write(tmp_path, "a\n%%DOC%% oops\nb\n")
        with pytest.raises(ParseError) as err:
            list(read_corpus(path))
        assert ":2:" in str(err.value)

    def test_custom_separator(self, tmp_path):
        path = self._write(tmp_path, "a\n==8<==\nb\n")
        docs = list(read_corpus(path, separator="==8<=="))
        assert [d.tokens for d in docs] == [["a"], ["b"]]

    def test_empty_separator_rejected(self, tmp_path):
        path = self._write(tmp_path, "a\n")
        with pytest.raises(ValidationError):
            list(read_corpus(path, separator=""))


class TestParseFrequencyList:
    def _write(self, tmp_path, text):
        path = tmp_path / "freq.tsv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_basic_rows(self, tmp_path):
        path = self._write(tmp_path, "the\t100\nof\t50\n")
        assert list(parse_frequency_list(path)) == [
            FrequencyListEntry("the", 100),
            FrequencyListEntry("of", 50),
        ]

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = self._write(tmp_path, "# header\nthe\t100\n\n# more\nof\t50\n")
        assert len(list(parse_frequency_list(path))) == 2

    def test_lemma_rows_dropped_by_default(self, tmp_path):
        path = self._write(tmp_path, "run\t10\nrun\t25\tL\n")
        assert list(parse_frequency_list(path)) == [FrequencyListEntry("run", 10)]

    def test_lemma_rows_kept_on_request(self, tmp_path):
        path = self._write(tmp_path, "run\t10\nrun\t25\tL\n")
        entries = list(parse_frequency_list(path, keep_lemmatized=True))
        assert entries == [
            FrequencyListEntry("run", 10),
            FrequencyListEntry("run", 25, lemmatized=True),
        ]

    def test_duplicate_term_same_flag_rejected(self, tmp_path):
        path = self._write(tmp_path, "the\t100\nthe\t50\n")
        with pytest.raises(ParseError) as err:
            list(parse_frequency_list(path))
        assert ":2:" in str(err.value)
        # duplicates among dropped lemma rows are still duplicates
        path2 = self._write(tmp_path, "run\t10\tL\nrun\t20\tL\n")
        with pytest.raises(ParseError):
            list(parse_frequency_list(path2))

    def test_non_integer_count_rejected(self, tmp_path):
        for bad in ("x\tten\n", "x\t1.5\n", "x\t-3\n", "x\t+3\n", "x\t 3\n"):
            path = self._write(tmp_path, bad)
            with pytest.raises(ParseError):
                list(parse_frequency_list(path))

    def test_zero_count_rejected(self, tmp_path):
        path = self._write(tmp_path, "x\t0\n")
        with pytest.raises(ParseError):
            list(parse_frequency_list(path))

    def test_count_beyond_int64_rejected(self, tmp_path):
        path = self._write(tmp_path, f"x\t{2**63}\n")
        with pytest.raises(ParseError):
            list(parse_frequency_list(path))
        # more digits than int() converts: a ParseError, not int()'s ValueError
        path = self._write(tmp_path, "x\t" + "1" * 5000 + "\n")
        for parse in (parse_frequency_list, parse_ngram_counts):
            with pytest.raises(ParseError, match=":1: a count has too many digits"):
                list(parse(path))
        path2 = self._write(tmp_path, f"x\t{2**63 - 1}\n")
        assert list(parse_frequency_list(path2))[0].count == 2**63 - 1

    def test_wrong_field_count_rejected(self, tmp_path):
        for bad in ("justterm\n", "a\t1\tL\textra\n", "a\t1\tX\n"):
            path = self._write(tmp_path, bad)
            with pytest.raises(ParseError):
                list(parse_frequency_list(path))

    def test_empty_term_rejected(self, tmp_path):
        path = self._write(tmp_path, "\t5\n")
        with pytest.raises(ParseError):
            list(parse_frequency_list(path))

    def test_roundtrip_is_lossless(self, tmp_path):
        entries = [
            FrequencyListEntry("the", 100),
            FrequencyListEntry("run", 25, lemmatized=True),
            FrequencyListEntry("of", 50),
        ]
        path = tmp_path / "out.tsv"
        write_frequency_list(entries, path)
        assert list(parse_frequency_list(path, keep_lemmatized=True)) == entries

    def test_write_rejects_tab_in_term(self, tmp_path):
        with pytest.raises(ValidationError):
            write_frequency_list([FrequencyListEntry("a\tb", 1)], tmp_path / "o.tsv")


class TestParseNgramCounts:
    def _write(self, tmp_path, text):
        path = tmp_path / "ngrams.tsv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_basic_rows(self, tmp_path):
        path = self._write(tmp_path, "the\t23135851162\nof\t13151942776\n")
        entries = list(parse_ngram_counts(path))
        assert entries[0] == FrequencyListEntry("the", 23135851162)
        assert len(entries) == 2

    def test_min_count_filters_after_validation(self, tmp_path):
        path = self._write(tmp_path, "a\t300\nb\t150\nc\t200\n")
        kept = [e.term for e in parse_ngram_counts(path, min_count=200)]
        assert kept == ["a", "c"]
        # malformed row still errors even though its count is under the bar
        bad = self._write(tmp_path, "a\t300\nb\tnope\n")
        with pytest.raises(ParseError):
            list(parse_ngram_counts(bad, min_count=1000))

    def test_no_lemma_field_allowed(self, tmp_path):
        path = self._write(tmp_path, "run\t10\tL\n")
        with pytest.raises(ParseError):
            list(parse_ngram_counts(path))

    def test_hash_rows_are_not_comments(self, tmp_path):
        # '#' is a legitimate token in n-gram lists
        path = self._write(tmp_path, "#1\t500\n")
        assert list(parse_ngram_counts(path)) == [FrequencyListEntry("#1", 500)]

    def test_negative_min_count_rejected(self, tmp_path):
        path = self._write(tmp_path, "a\t1\n")
        with pytest.raises(ValidationError):
            list(parse_ngram_counts(path, min_count=-1))
