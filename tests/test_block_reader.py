"""The block reader of stats tables, frequency lists and n-gram files
against reference parsers, at several block sizes.

``read_stats``, ``read_frequency_table`` and ``read_ngram_table`` read
every layout in one pass, in blocks of whole lines, and name the first bad
line in file order, as the line loop of ``reference_reader``, which reads a
file one line at a time, does. These tests shrink the block size so
that block boundaries fall inside rows, inside multi-byte characters,
inside CRLF line ends and between out-of-order rows, and require the same
table, or the same ``path:line: message``, at every size.
"""

import io
import itertools
import json
import os
import re
import threading
from collections import Counter
from contextlib import contextmanager, redirect_stderr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusstats import CorpusStatsError, ParseError, ValidationError, read_stats, stats
from corpusstats.cli import main
from corpusstats.ingest import LIST_ROWS, NGRAM_ROWS, UTF8_BOM
from reference_reader import kept_rows, reference_table

MAX_COUNT = 2**63 - 1
BLOCK_SIZES = [1, 7, 64, 2**20]

# ASCII, two-, three- and four-byte UTF-8, and characters that str.splitlines
# would treat as line breaks but a file's lines do not.
ALPHABET = ["a", "b", "z", " ", "\x00", "\xe9", "\u0436", "\u20ac", "\u2028", "\x85",
            "\U0001d11e", "\U0001f600"]
terms_st = st.text(alphabet=st.sampled_from(ALPHABET), min_size=1, max_size=5)
counts_st = st.one_of(
    st.integers(1, 12),
    st.sampled_from([10**18, 10**18 + 7, 9_999_999_999_999_999, MAX_COUNT]),
    st.integers(1, MAX_COUNT),
)


def reference(data: bytes):
    """Sorted terms, tc, df and N of a valid table, by the documented format."""
    header, *lines = re.split("\r\n|\r|\n", data.decode("utf-8"))
    doc_count = int(header.removeprefix("#N="))
    rows = {}
    for line in lines:
        if line:
            term, tc, df = line.split("\t")
            assert term not in rows
            rows[term] = (int(tc), int(df))
    terms = sorted(rows)
    return terms, [rows[t][0] for t in terms], [rows[t][1] for t in terms], doc_count


@contextmanager
def block_size(size):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_BLOCK_SIZE", size)
        yield


def columns_of(table):
    tc, df = table.count_arrays()
    return table.terms(), tc.tolist(), df.tolist(), table.doc_count


def read_at(path, size):
    with block_size(size):
        return columns_of(read_stats(path))


def blocks_at(path, size):
    with block_size(size):
        return columns_of(stats.TermStatsTable(*stats._read_blocks(path)[0]))


def error_at(path, size) -> ParseError:
    with block_size(size), pytest.raises(ParseError) as err:
        read_stats(path)
    return err.value


@st.composite
def tables(draw):
    """A valid table: distinct terms, 1 <= df <= tc, df <= N, and a list of rows."""
    terms = draw(st.lists(terms_st, min_size=0, max_size=12, unique=True))
    rows = []
    for term in sorted(terms):
        tc = draw(counts_st)
        rows.append((term, tc, draw(st.integers(1, tc))))
    doc_count = max([df for _, _, df in rows], default=0)
    doc_count = draw(st.sampled_from([doc_count, min(doc_count + 3, MAX_COUNT), MAX_COUNT]))
    return doc_count, rows


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("block_reader")


@settings(max_examples=150, deadline=None)
@given(
    table=tables(),
    shuffle=st.randoms(use_true_random=False),
    unsorted=st.booleans(),
    eol=st.sampled_from(["\n", "\r\n", "\r"]),
    blank=st.booleans(),
    final_newline=st.booleans(),
    bom=st.booleans(),
)
def test_every_block_size_reads_the_reference_table(
    table_dir, table, shuffle, unsorted, eol, blank, final_newline, bom
):
    doc_count, rows = table
    if unsorted:
        shuffle.shuffle(rows)
    lines = [f"#N={doc_count}"] + [f"{t}\t{tc}\t{df}" for t, tc, df in rows]
    if blank:
        lines.insert(len(lines) // 2 + 1, "")
    text = eol.join(lines) + (eol if final_newline else "")
    path = table_dir / "table.stats"
    path.write_bytes((UTF8_BOM if bom else b"") + text.encode("utf-8"))
    want = reference(text.encode("utf-8"))
    for size in BLOCK_SIZES:
        assert read_at(path, size) == want, size
        assert blocks_at(path, size) == want, size


# Faults for one row; each must be reported as the line loop reports it,
# whichever block the row falls in.
FAULTS = {
    "df_not_digits": (lambda t: f"{t}\t{10**18}\t1 ", "df is not a plain integer: '1 '"),
    "df_sign": (lambda t: f"{t}\t{10**18}\t+9", "df is not a plain integer: '+9'"),
    "tc_not_digits": (lambda t: f"{t}\t1_0\t1", "tc is not a plain integer: '1_0'"),
    "tc_arabic_digit": (lambda t: f"{t}\t\u0663\t1", "tc is not a plain integer: '\u0663'"),
    "tc_two_to_the_63": (lambda t: f"{t}\t{2**63}\t1", "tc exceeds 2**63 - 1"),
    "tc_twenty_digits": (lambda t: f"{t}\t{10**19}\t1", "tc exceeds 2**63 - 1"),
    "df_above_tc": (lambda t: f"{t}\t3\t4", "need 1 <= df <= tc, got tc=3 df=4"),
    "df_zero": (lambda t: f"{t}\t3\t0", "need 1 <= df <= tc, got tc=3 df=0"),
    "df_above_n": (lambda t: f"{t}\t{10**7}\t{10**6 + 1}", f"df={10**6 + 1} exceeds doc_count={10**6}"),
    "empty_term": (lambda t: "\t3\t1", "empty term"),
    "two_fields": (lambda t: f"{t}\t3", "expected term<TAB>tc<TAB>df, got 2 fields"),
    "four_fields": (lambda t: f"{t}\t3\t1\t1", "expected term<TAB>tc<TAB>df, got 4 fields"),
    "duplicate": (None, "duplicate term"),
}


@settings(max_examples=60, deadline=None)
@given(
    terms=st.lists(terms_st, min_size=4, max_size=12, unique=True),
    data=st.data(),
    fault=st.sampled_from(sorted(FAULTS)),
)
def test_a_bad_row_in_a_later_block_names_its_line_at_every_size(table_dir, terms, data, fault):
    terms.sort()
    rows = [f"{t}\t{data.draw(counts_st)}\t1" for t in terms]
    at = data.draw(st.integers(len(rows) // 2, len(rows) - 1))
    make_row, message = FAULTS[fault]
    if make_row is None:
        rows.insert(at, rows[at - 1])
    else:
        rows[at] = make_row(terms[at])
    path = table_dir / "bad.stats"
    path.write_bytes(("\n".join([f"#N={10**6}"] + rows) + "\n").encode("utf-8"))
    errors = {str(error_at(path, size)) for size in BLOCK_SIZES}
    line = at + 2  # after the header, 1-based
    assert len(errors) == 1, errors
    assert errors.pop().startswith(f"{path}:{line}: {message}")


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_invalid_utf8_in_a_later_block_names_its_line(table_dir, size):
    rows = [f"t{i:03d}\t5\t1".encode() for i in range(40)]
    rows[30] = b"t030\xe9\t5\t1"
    path = table_dir / "latin1.stats"
    path.write_bytes(b"\n".join([b"#N=5"] + rows) + b"\n")
    assert str(error_at(path, size)) == f"{path}:32: not valid UTF-8"


@pytest.mark.parametrize("inside", [1, 2, 3])
def test_a_character_cut_by_the_block_boundary(table_dir, inside):
    # The first 64-byte block ends after ``inside`` bytes of the four-byte
    # character in the second row.
    path = table_dir / "cut.stats"
    path.write_bytes(f"#N=5\n{'a' * (54 - inside)}\t1\t1\n\U0001d11ex\t2\t1\n".encode("utf-8"))
    assert path.read_bytes().index("\U0001d11e".encode()) == 64 - inside
    assert read_at(path, 64) == reference(path.read_bytes())
    assert blocks_at(path, 64) == reference(path.read_bytes())


def test_a_pipe_is_read_in_one_pass(tmp_path):
    # A pipe can be read only once, so an unsorted CRLF table with a blank
    # line read from one shows that no layout makes the reader start again.
    fifo = tmp_path / "table.fifo"
    os.mkfifo(fifo)
    text = "#N=5\r\nb\t2\t1\r\n\r\na\t1\t1\r\n"
    writer = threading.Thread(target=fifo.write_bytes, args=(text.encode(),), daemon=True)
    writer.start()
    try:
        table = read_stats(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert table.as_mapping() == {"a": (1, 1), "b": (2, 1)}


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_the_first_bad_line_in_file_order_is_named(table_dir, size):
    # a bad count on line 2 before a byte that is not UTF-8 on line 3
    path = table_dir / "order.stats"
    path.write_bytes(b"#N=5\nx\t1.0\t1\nb\xff\t1\t1\n")
    assert str(error_at(path, size)) == f"{path}:2: tc is not a plain integer: '1.0'"
    # a repeated term on line 4 before a bad count on line 5
    path.write_bytes(b"#N=5\nb\t1\t1\na\t1\t1\nb\t2\t1\nc\tx\t1\n")
    assert str(error_at(path, size)) == f"{path}:4: duplicate term 'b'"


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_a_count_of_more_than_19_digits_with_leading_zeros(table_dir, size):
    path = table_dir / "zeros.stats"
    path.write_bytes(b"#N=5\na\t000000000000000000001\t1\nb\t2\t01\n")
    assert read_at(path, size) == (["a", "b"], [1, 2], [1, 1], 5)


# Frequency lists and n-gram count files: the same block reader with one
# count column, read into a tc-only table. Every layout is read in one
# pass, with the rows and the errors of the line loop (reference_reader),
# which reads a file in order.


def list_reference(data: bytes, keep_lemmatized: bool, ngram: bool = False, min_count: int = 0):
    """Sorted terms and counts of a valid list or n-gram file, by the documented format."""
    rows = {}
    for line in re.split("\r\n|\r|\n", data.decode("utf-8")):
        if not line or (line.startswith("#") and not ngram):
            continue
        term, count, *flag = line.split("\t")
        if flag and not keep_lemmatized:
            continue
        assert term not in rows
        if int(count) >= min_count:
            rows[term] = int(count)
    terms = sorted(rows)
    return terms, [rows[t] for t in terms]


def list_columns(table):
    tc, df = table.count_arrays()
    assert df is None and table.doc_count == 0
    return table.terms(), tc.tolist()


def read_list_at(path, size, keep_lemmatized=False):
    with block_size(size):
        return list_columns(stats.read_frequency_table(path, keep_lemmatized))


def list_blocks_at(path, size, layout, **options):
    with block_size(size):
        return list_columns(stats.TermStatsTable(*stats._read_blocks(path, layout, **options)[0]))


@settings(max_examples=150, deadline=None)
@given(
    terms=st.lists(terms_st, min_size=0, max_size=12, unique=True),
    data=st.data(),
    shuffle=st.randoms(use_true_random=False),
    unsorted=st.booleans(),
    eol=st.sampled_from(["\n", "\r\n", "\r"]),
    ngram=st.booleans(),
    lemmas=st.booleans(),
    keep_lemmatized=st.booleans(),
    min_count=st.sampled_from([0, 2, 10**18]),
    final_newline=st.booleans(),
)
def test_every_block_size_reads_the_reference_list(
    table_dir, terms, data, shuffle, unsorted, eol, ngram, lemmas, keep_lemmatized, min_count,
    final_newline,
):
    rows = [f"{t}\t{data.draw(counts_st)}" for t in sorted(terms)]
    if unsorted:
        shuffle.shuffle(rows)
    # '#x\t5' is a comment in a list and a row of an n-gram file
    middle = data.draw(st.sampled_from([None, "", "#x\t5"] + ([] if ngram else ["# a comment"])))
    leading = "" if ngram else data.draw(
        st.sampled_from(["", "# term<TAB>count\n", "#\n# two lines, café\n"]))
    if lemmas and not ngram:  # a lemma row of a term no surface row has
        rows.append(f"{'L' + (terms[0] if terms else '')}\t7\tL")
    if middle is not None and rows:  # after the first row: a line that is not at the top
        rows.insert(max(1, len(rows) // 2), middle)
    text = leading.replace("\n", eol) + eol.join(rows) + (eol if final_newline and rows else "")
    path = table_dir / "words.freq"
    path.write_bytes(text.encode("utf-8"))
    if not ngram:
        min_count = 0  # a list has no count filter
    want = list_reference(path.read_bytes(), keep_lemmatized, ngram, min_count)
    assert reference_table(path, ngram, keep_lemmatized, min_count) == want
    layout = NGRAM_ROWS if ngram else LIST_ROWS
    for size in BLOCK_SIZES:
        if ngram:
            with block_size(size):
                assert list_columns(stats.read_ngram_table(path, min_count)) == want, size
        else:
            assert read_list_at(path, size, keep_lemmatized) == want, size
        assert list_blocks_at(path, size, layout, keep_lemmatized=keep_lemmatized,
                              min_count=min_count) == want, size


# Lines of lists and n-gram files with every fault the line loop reports:
# repeated terms (as surface and as lemma rows), bad counts and flags,
# comments, blank lines and bytes that are not UTF-8.
good_rows_st = st.builds(
    "{}\t{}{}".format,
    st.sampled_from(["a", "b", "#c", "d\xe9"]),
    st.sampled_from(["1", "7", "300"]),
    st.sampled_from(["", "\tL"]),
)
list_lines_st = st.one_of(
    good_rows_st,
    good_rows_st,
    st.builds(
        "{}\t{}{}".format,
        st.sampled_from(["a", "", "e f"]),
        st.sampled_from(["7", "0", "1.0", "", str(2**63)]),
        st.sampled_from(["", "\tl", "\tL\t1"]),
    ),
    st.sampled_from(["", "# a comment", "x", "\udcff\t1"]),
)


@settings(max_examples=200, deadline=None)
@given(
    # lines of any kind, or only good rows of distinct terms, which ffreq mostly histograms
    lines=st.lists(list_lines_st, max_size=10)
    | st.lists(good_rows_st, max_size=10, unique_by=lambda row: row.split("\t", 1)[0]),
    ngram=st.booleans(),
    keep_lemmatized=st.booleans(),
    min_count=st.sampled_from([0, 7, 10**18]),
    fmt=st.sampled_from(["tsv", "json"]),
)
def test_ffreq_writes_the_histogram_of_the_line_loop(table_dir, lines, ngram, keep_lemmatized,
                                                     min_count, fmt):
    # A lone surrogate stands for a byte that is not UTF-8. With
    # --keep-lemmatized a term's surface row and lemma row both count.
    path = table_dir / "ffreq.freq"
    path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape") + b"\n")
    if ngram:
        args = ["ffreq", "--ngram", str(path), "--min-count", str(min_count)]
    else:
        args = ["ffreq", "--freq-list", str(path)] + (["--keep-lemmatized"] if keep_lemmatized else [])
        min_count = 0  # a list has no count filter
    want = line_loop_ffreq(path, fmt, ngram, keep_lemmatized, min_count)
    for size in BLOCK_SIZES:
        assert run_ffreq(args, fmt, size, table_dir / "ffreq.out") == want, size


def line_loop_ffreq(path, fmt, ngram=False, keep_lemmatized=False, min_count=0):
    """Exit code, stderr and output bytes (None: no file) that ``ffreq`` should give for
    the rows the line loop keeps, a term's surface row and lemma row apart."""
    try:
        histogram = sorted(Counter(count for _, count in kept_rows(path, ngram, keep_lemmatized,
                                                                   min_count)).items())
    except CorpusStatsError as exc:
        return 2, f"error: {exc}\n", None
    if not histogram:
        return 2, "error: no terms to histogram\n", None
    if fmt == "json":
        body = json.dumps({str(k): v for k, v in histogram}, sort_keys=True, indent=2) + "\n"
    else:
        body = "".join(f"{k}\t{v}\n" for k, v in histogram)
    return 0, "", body.encode("utf-8")


def run_ffreq(args, fmt, size, out):
    """Exit code, stderr and output bytes (None: no file) of ``ffreq`` at one block size."""
    out.unlink(missing_ok=True)
    stderr = io.StringIO()
    with block_size(size), redirect_stderr(stderr):
        code = main([*args, "--format", fmt, "--out", str(out)])
    return code, stderr.getvalue(), out.read_bytes() if out.exists() else None


def test_ffreq_counts_a_terms_lemma_and_surface_rows_apart(table_dir):
    # lemma rows have a key space of their own: the block reader counts both rows
    path = table_dir / "lemma.freq"
    path.write_text("a\t7\nb\t3\na\t7\tL\n", encoding="utf-8")
    out = table_dir / "ffreq.out"
    assert main(["ffreq", "--freq-list", str(path), "--keep-lemmatized", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "3\t1\n7\t2\n"


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_a_hash_row_in_sorted_position_is_still_a_comment(table_dir, size):
    # ' ' sorts before '#', so this row is in term order, but the line loop
    # skips any line that starts with '#'
    path = table_dir / "hash.freq"
    path.write_text(" a\t1\n#x\t5\nb\t2\n", encoding="utf-8")
    assert read_list_at(path, size) == ([" a", "b"], [1, 2])


# Faults for one list row, with the message the line loop gives.
LIST_FAULTS = {
    "count_not_digits": (lambda t: f"{t}\t1_0", "count is not a plain integer: '1_0'"),
    "count_arabic_digit": (lambda t: f"{t}\t٣", "count is not a plain integer: '٣'"),
    "count_empty": (lambda t: f"{t}\t", "count is not a plain integer: ''"),
    "count_zero": (lambda t: f"{t}\t0", "count must be >= 1, got 0"),
    "count_two_to_the_63": (lambda t: f"{t}\t{2**63}", f"count exceeds 2**63 - 1: {2**63}"),
    "count_twenty_digits": (lambda t: f"{t}\t{10**19}", f"count exceeds 2**63 - 1: {10**19}"),
    "empty_term": (lambda t: "\t3", "empty term"),
    "one_field": (lambda t: t, "expected term<TAB>count<TAB>[L], got 1 fields"),
    "four_fields": (lambda t: f"{t}\t3\tL\t1", "expected term<TAB>count<TAB>[L], got 4 fields"),
    "unknown_flag": (lambda t: f"{t}\t3\tl", "unknown row flag 'l' (only 'L' is defined)"),
    "duplicate": (None, "duplicate term"),
}


def lexsig_error(path, tmp_dir, keep_lemmatized=False):
    """Exit code and stderr of ``lexsig --freq-list path``."""
    doc = tmp_dir / "doc.txt"
    doc.write_text("a b\n", encoding="utf-8")
    args = ["lexsig", "--freq-list", str(path), "--n-hat", "9", "--doc", str(doc),
            "--out", str(tmp_dir / "sig.tsv")]
    if keep_lemmatized:
        args.append("--keep-lemmatized")
    stderr = io.StringIO()
    with redirect_stderr(stderr):
        code = main(args)
    return code, stderr.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    terms=st.lists(terms_st, min_size=4, max_size=12, unique=True),
    data=st.data(),
    fault=st.sampled_from(sorted(LIST_FAULTS)),
)
def test_a_bad_list_row_in_a_later_block_names_its_line_at_every_size(table_dir, terms, data, fault):
    terms.sort()
    rows = [f"{t}\t{data.draw(counts_st)}" for t in terms]
    at = data.draw(st.integers(len(rows) // 2, len(rows) - 1))
    make_row, message = LIST_FAULTS[fault]
    if make_row is None:
        rows.insert(at, rows[at - 1])
    else:
        rows[at] = make_row(terms[at])
    path = table_dir / "bad.freq"
    path.write_bytes(("\n".join(["# words"] + rows) + "\n").encode("utf-8"))
    line = at + 2  # after the comment, 1-based
    for size in BLOCK_SIZES:
        with block_size(size):
            code, stderr = lexsig_error(path, table_dir)
            with pytest.raises(ParseError) as err:
                stats.read_frequency_table(path)
        assert code == 2
        assert stderr == f"error: {err.value}\n"
        assert str(err.value).startswith(f"{path}:{line}: {message}")


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_invalid_utf8_in_a_later_list_block_names_its_line(table_dir, size):
    rows = [f"t{i:03d}\t5".encode() for i in range(40)]
    rows[30] = b"t030\xe9\t5"
    path = table_dir / "latin1.freq"
    path.write_bytes(b"\n".join([b"# words"] + rows) + b"\n")
    with block_size(size):
        code, stderr = lexsig_error(path, table_dir)
    assert (code, stderr) == (2, f"error: {path}:32: not valid UTF-8\n")


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_invalid_utf8_in_a_leading_comment_names_its_line(table_dir, size):
    path = table_dir / "latin1_comment.freq"
    path.write_bytes(b"# words\n# caf\xe9\na\t5\n")
    with block_size(size):
        code, stderr = lexsig_error(path, table_dir)
    assert (code, stderr) == (2, f"error: {path}:2: not valid UTF-8\n")


def test_a_lemma_row_of_a_surface_term_is_a_duplicate_when_kept(table_dir):
    path = table_dir / "lemma.freq"
    path.write_text("a\t5\nb\t3\na\t2\tL\nb\t1\n", encoding="utf-8")
    assert lexsig_error(path, table_dir) == (
        2, f"error: {path}:4: duplicate term 'b'; refusing to re-aggregate\n")
    # kept, the lemma row of line 3 is a second 'a' in the table, before line 4
    assert lexsig_error(path, table_dir, keep_lemmatized=True) == (
        2, f"error: {path}:3: duplicate term 'a'; refusing to re-aggregate\n")


@pytest.mark.parametrize("size", BLOCK_SIZES)
def test_the_first_bad_list_line_in_file_order_is_named(table_dir, size):
    # a bad count on line 1 before a byte that is not UTF-8 on line 2
    path = table_dir / "order.freq"
    path.write_bytes(b"a\t1.0\nb\xff\t1\n")
    message = f"{path}:1: count is not a plain integer: '1.0'"
    with pytest.raises(ParseError) as err:
        list(kept_rows(path))
    assert str(err.value) == message
    with block_size(size):
        with pytest.raises(ParseError) as err:
            stats.read_frequency_table(path)
        assert str(err.value) == message
        assert lexsig_error(path, table_dir) == (2, f"error: {message}\n")
        assert main(["ffreq", "--freq-list", str(path), "--out", str(table_dir / "o")]) == 2


def test_a_list_from_a_pipe_is_read_in_one_pass(tmp_path):
    # A pipe can be read only once: an unsorted CRLF list with a comment, a
    # blank line and a lemma row after its first row is read by the block reader.
    fifo = tmp_path / "words.fifo"
    os.mkfifo(fifo)
    text = "# w\r\nb\t2\r\n\r\n# more\r\nc\t5\tL\r\na\t1\r\n"
    writer = threading.Thread(target=fifo.write_text, args=(text,), daemon=True)
    writer.start()
    try:
        table = stats.read_frequency_table(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert (table.terms(), table.count_arrays()[0].tolist()) == (["a", "b"], [1, 2])


def test_a_negative_min_count_is_refused_before_the_file_is_opened(tmp_path):
    # the file does not exist, so the ValidationError shows that nothing was read first
    missing = tmp_path / "missing.ngram"
    with pytest.raises(ValidationError, match=re.escape("min_count must be >= 0, got -5")):
        stats.read_ngram_table(missing, -5)


# Lists with lemma rows ('term<TAB>count<TAB>L'). Lemma rows have a key space
# of their own: a term may have one surface row and one lemma row. Without
# --keep-lemmatized they leave the table, and ffreq --keep-lemmatized counts
# them beside it; with it, lexsig's table holds them too, so a lemma row of a
# surface term is a duplicate term there.


@st.composite
def lemma_lists(draw):
    """The rows of a list in term order: each term has a surface row, a lemma row or
    both, in either order, or, in a list of only lemma rows, a lemma row; and
    maybe one lemma row is repeated further on."""
    terms = sorted(draw(st.lists(terms_st, max_size=10, unique=True)))
    only_lemmas = draw(st.booleans())
    rows = []
    for term in terms:
        kinds = "L" if only_lemmas else draw(st.sampled_from(["S", "L", "SL", "LS"]))
        rows += [f"{term}\t{draw(counts_st)}" + ("\tL" if kind == "L" else "") for kind in kinds]
    lemma_rows = [row for row in rows if row.endswith("\tL")]
    if lemma_rows and draw(st.booleans()):
        row = draw(st.sampled_from(lemma_rows))
        rows.insert(draw(st.integers(rows.index(row) + 1, len(rows))), row)
    return rows


def outcome(read):
    """What ``read()`` returns, or the message of the data error it raises."""
    try:
        return read()
    except CorpusStatsError as exc:
        return f"error: {exc}"


@settings(max_examples=100, deadline=None)
@given(rows=lemma_lists(), eol=st.sampled_from(["\n", "\r\n"]), fmt=st.sampled_from(["tsv", "json"]))
def test_lemma_rows_read_as_the_line_loop_reads_them(table_dir, rows, eol, fmt):
    path = table_dir / "lemmas.freq"
    path.write_bytes("".join(row + eol for row in rows).encode("utf-8"))
    for keep in (False, True):
        flag = ["--keep-lemmatized"] if keep else []
        want_ffreq = line_loop_ffreq(path, fmt, keep_lemmatized=keep)
        want_table = outcome(lambda: reference_table(path, keep_lemmatized=keep))
        want_lexsig = (2, want_table + "\n") if isinstance(want_table, str) else (0, "")
        for size in BLOCK_SIZES:
            got = run_ffreq(["ffreq", "--freq-list", str(path), *flag], fmt, size, table_dir / "o")
            assert got == want_ffreq, (keep, size)
            with block_size(size):
                assert outcome(lambda: read_list_at(path, size, keep)) == want_table, (keep, size)
                assert lexsig_error(path, table_dir, keep) == want_lexsig, (keep, size)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(st.tuples(st.sampled_from(["a", "b", "c\xe9", "#d"]), st.sampled_from(["1", "20", "2x"]),
                            st.sampled_from(["", "\tL", "\tl", "\tL\t", "\t\tL", "L"])),
                  min_size=1, max_size=8),
    keep=st.booleans(),
)
def test_the_scan_takes_a_list_block_exactly_when_its_rows_are_clean(table_dir, rows, keep):
    # Clean rows, lemma rows among them, in any term order, and repeated or
    # not, take the scan; one line that is not a clean row sends the block
    # (here the whole list) to the per-line parser. Comments at the top of a
    # block are skipped before the scan.
    body = list(itertools.dropwhile(lambda row: row[0].startswith("#"), rows))
    clean = all(not term.startswith("#") and count.isdigit() and flag in ("", "\tL")
                for term, count, flag in body)
    path = table_dir / "scan.freq"
    path.write_text("".join(f"{term}\t{count}{flag}\n" for term, count, flag in rows), encoding="utf-8")
    parsed = []
    parse_lines = stats._parse_lines
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_parse_lines", lambda *args: parsed.append(1) or parse_lines(*args))
        outcome(lambda: read_list_at(path, 2**20, keep))
    assert bool(parsed) == (not clean)


def test_ffreq_builds_no_table(table_dir, monkeypatch):
    # ffreq histograms a count column; no source needs the terms indexed into a table
    def build(*args):
        raise AssertionError("ffreq built a table")

    monkeypatch.setattr(stats, "TermStatsTable", build)
    freq = table_dir / "no_table.freq"
    freq.write_text("# words\nb\t3\nc\t2\tL\nd\t7\n\ne\t3\tL\n", encoding="utf-8")
    ngram = table_dir / "no_table.ngram"
    ngram.write_text("#\t3\nb\t1\nd\t7\n", encoding="utf-8")
    table = table_dir / "no_table.stats"
    table.write_text("#N=4\nb\t3\t2\nd\t7\t3\n", encoding="utf-8")
    out = table_dir / "no_table.out"
    for args, want in (
        (["--freq-list", str(freq)], "3\t1\n7\t1\n"),
        (["--freq-list", str(freq), "--keep-lemmatized"], "2\t1\n3\t2\n7\t1\n"),
        (["--ngram", str(ngram)], "1\t1\n3\t1\n7\t1\n"),
        (["--ngram", str(ngram), "--min-count", "2"], "3\t1\n7\t1\n"),
        (["--stats", str(table), "--which", "df"], "2\t1\n3\t1\n"),
    ):
        assert main(["ffreq", *args, "--out", str(out)]) == 0, args
        assert out.read_text(encoding="utf-8") == want, args
