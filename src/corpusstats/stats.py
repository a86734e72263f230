"""Per-term totals (tc) and document frequencies (df) over a corpus.

tc counts every occurrence of a term corpus-wide; df counts the documents
containing it at least once. For every stored term 1 <= df <= tc and
df <= doc_count, which downstream modules rely on (ratios are >= 1, the
tc-as-df proxy never overshoots the document count). Every count fits a
signed 64-bit integer (at most ``ingest.MAX_COUNT`` = 2**63 - 1).

:func:`read_stats` is the one parser of the stats file format; every
reader of a stats table, whatever it goes on to compute, applies the same
checks.
"""

from __future__ import annotations

import array
import functools
import io
import itertools
import operator
import os
from bisect import bisect_left
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import ParseError, ValidationError
from .ingest import (
    DEFAULT_SEPARATOR,
    MAX_COUNT,
    Document,
    FrequencyListEntry,
    ShardFault,
    TokenizerConfig,
    check_field,
    corpus_shards,
    open_utf8,
    parse_frequency_list,
    read_corpus,
    write_utf8,
)

_ROWS_PER_CHUNK = 1 << 13  # rows a writer converts to Python values at a time
_BLOCK_SIZE = 1 << 16  # bytes the stats reader reads at a time
_MAX_DIGITS = 19  # every 19-digit count fits uint64; 2**63 - 1 has 19 digits
_POW10 = 10 ** np.arange(_MAX_DIGITS, dtype=np.uint64)
_TAB, _LF, _CR, _ZERO, _HASH = b"\t\n\r0#"
_INT32_MAX = 2**31 - 1  # term buffers up to this size index their newlines with int32


class TermStatsTable:
    """Columnar tc/df table plus the corpus document count.

    Three aligned columns: the terms in strictly ascending order, and
    their tc and df as int64 arrays. The terms are one UTF-8 buffer in
    which every term is followed by a newline; UTF-8 byte order is
    code-point order, so the buffer sorts exactly as the ``str`` terms do.
    The constructor takes the term buffer and the count columns as they
    are; :meth:`from_mapping` builds them from ``term -> (tc, df)``.
    A frequency list gives a tc-only table (:meth:`from_entries`,
    :func:`read_frequency_table`): its df column is None and its
    doc_count 0, since a list carries neither.
    Treated as immutable once built; reads are safe to share across threads.
    """

    __slots__ = ("_terms", "_ends", "_tc", "_df", "doc_count")

    def __init__(self, terms: bytes, tc: np.ndarray, df: np.ndarray | None, doc_count: int):
        self._terms = terms
        ends = np.flatnonzero(np.frombuffer(terms, dtype=np.uint8) == _LF)
        self._ends = ends.astype(np.int32) if len(terms) <= _INT32_MAX else ends
        df_size = tc.size if df is None else df.size
        if not self._ends.size == tc.size == df_size:
            raise ValidationError(
                f"columns differ in length: {self._ends.size} terms, {tc.size} tc, {df_size} df"
            )
        self._tc = tc
        self._df = df
        self.doc_count = doc_count

    @classmethod
    def from_mapping(cls, counts: Mapping[str, tuple[int, int]], doc_count: int) -> TermStatsTable:
        """Build the sorted columns from a ``term -> (tc, df)`` mapping."""
        terms = sorted(counts)
        tc = (counts[t][0] for t in terms)
        df = (counts[t][1] for t in terms)
        return cls._from_sorted(terms, tc, df, doc_count)

    @classmethod
    def from_entries(cls, entries: Iterable[FrequencyListEntry]) -> TermStatsTable:
        """The tc-only table of frequency-list entries; a term may appear only once.

        Entries are consumed one at a time, so a duplicate term raises
        ValidationError before any later entry is read. They are sorted
        once at the end if they did not come in ascending order.
        """
        terms: list[str] = []
        counts: list[int] = []
        seen: set[str] | None = None  # built once terms stop being ascending
        for entry in entries:
            term = entry.term
            if seen is not None or (terms and term <= terms[-1]):
                if seen is None:
                    seen = set(terms)
                if term in seen:
                    raise ValidationError(f"duplicate term in entries: {term!r}")
                seen.add(term)
            terms.append(term)
            counts.append(entry.count)
        if seen is not None:
            order = sorted(range(len(terms)), key=terms.__getitem__)
            terms = [terms[i] for i in order]
            counts = [counts[i] for i in order]
        return cls._from_sorted(terms, counts, None, 0)

    @classmethod
    def _from_sorted(cls, terms: list[str], tc: Iterable[int], df: Iterable[int] | None,
                     doc_count: int) -> TermStatsTable:
        """Build the table from sorted ``terms`` and their counts, in that order.

        ``df`` None gives a tc-only table.
        """
        try:
            tc_col = np.fromiter(tc, dtype=np.int64, count=len(terms))
            df_col = None if df is None else np.fromiter(df, dtype=np.int64, count=len(terms))
        except OverflowError:
            raise ValidationError("a count exceeds 2**63 - 1") from None
        return cls(_pack_terms(terms), tc_col, df_col, doc_count)

    def __len__(self) -> int:
        return self._ends.size

    def _index(self, term: str) -> int | None:
        try:
            key = term.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate: no stored term has one
            return None
        ends = memoryview(self._ends)  # yields Python ints, twice as fast as numpy scalars

        def term_bytes(i: int) -> bytes:
            return self._terms[ends[i - 1] + 1 if i else 0:ends[i]]

        i = bisect_left(range(len(ends)), key, key=term_bytes)
        return i if i < len(ends) and term_bytes(i) == key else None

    def __contains__(self, term: str) -> bool:
        return self._index(term) is not None

    def tc(self, term: str) -> int:
        """Total occurrences of ``term``, 0 if unseen."""
        i = self._index(term)
        return 0 if i is None else int(self._tc[i])

    def df(self, term: str) -> int:
        """Number of documents containing ``term``, 0 if unseen."""
        if self._df is None:
            raise ValidationError("a tc-only table has no df column")
        i = self._index(term)
        return 0 if i is None else int(self._df[i])

    def terms(self) -> list[str]:
        """All stored terms in sorted order, decoded into a new list on every call."""
        terms = self._terms.decode("utf-8").split("\n")
        terms.pop()  # the empty string after the last term's newline
        return terms

    def terms_at(self, rows: np.ndarray) -> list[str]:
        """The terms of the row indices ``rows``, in that order.

        Decodes one chunk of rows at a time, so unlike reordering
        :meth:`terms` it never holds the whole table's terms twice.
        """
        data = np.frombuffer(self._terms, dtype=np.uint8)
        terms: list[str] = [""] * len(rows)
        for lo in range(0, len(rows), _ROWS_PER_CHUNK):
            chunk = rows[lo:lo + _ROWS_PER_CHUNK]
            ends = self._ends[chunk] + 1  # past each term's newline
            starts = np.where(chunk > 0, self._ends[chunk - 1] + 1, 0)
            lengths = ends - starts
            # every byte of every chosen term, term after term
            where = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
            where += np.arange(where.size)
            decoded = data[where].tobytes().decode("utf-8").split("\n")
            terms[lo:lo + chunk.size] = decoded[:-1]  # the last is empty: after the final newline
        return terms

    def count_arrays(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(tc, df) as parallel int64 arrays in sorted-term order (the stored
        columns); df is None for a tc-only table."""
        return self._tc, self._df

    def tc_df_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`count_arrays` for a caller that reads the df column; a
        tc-only table raises ValidationError."""
        tc, df = self.count_arrays()
        if df is None:
            raise ValidationError("a tc-only table has no df column")
        return tc, df

    def as_mapping(self) -> dict[str, tuple[int, int]]:
        """``term -> (tc, df)``, the inverse of :meth:`from_mapping`."""
        tc, df = self.tc_df_arrays()
        return dict(zip(self.terms(), zip(tc.tolist(), df.tolist())))

    def validate(self) -> None:
        """Check the table invariants; raises ValidationError on the first hole."""
        if self.doc_count < 0:
            raise ValidationError(f"doc_count must be >= 0, got {self.doc_count}")
        tc, df = self.tc_df_arrays()
        bad = np.flatnonzero((df < 1) | (df > tc) | (df > self.doc_count))
        if bad.size:
            i = int(bad[0])
            raise ValidationError(
                f"term {self.terms_at(bad[:1])[0]!r}: need 1 <= df <= tc and"
                f" df <= doc_count, got tc={tc[i]} df={df[i]} doc_count={self.doc_count}"
            )


def _pack_terms(terms: list[str]) -> bytes:
    """The term buffer of sorted ``terms``: UTF-8, each term followed by a newline."""
    text = "\n".join([*terms, ""])
    if text.count("\n") != len(terms):
        bad = next(term for term in terms if "\n" in term)
        raise ValidationError(f"term contains a newline: {bad!r}")
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError("a term is not valid Unicode (lone surrogate)") from None


def compute_tc_df(documents: Iterable[Document]) -> TermStatsTable:
    """Aggregate tc and df for every term across ``documents``.

    A term occurring k times in one document adds k to its tc and exactly 1
    to its df. Duplicate or empty document ids are refused.
    """
    return _tally(doc.tokens for doc in _checked_ids(documents))


def count_corpus(source, config: TokenizerConfig | None = None,
                 separator: str = DEFAULT_SEPARATOR, jobs: int = 1) -> TermStatsTable:
    """The tc/df table of the corpus :func:`ingest.read_corpus` reads from ``source``.

    The corpus is cut into at most ``jobs`` shards of whole documents
    (:func:`ingest.corpus_shards`), and no more than there are usable
    CPUs. :func:`_count_shard` reads, tokenizes and tallies each one: in
    this process if there is one, else in a pool of one forked worker
    process per shard. The shard tables are added up in shard order. If
    a shard meets input that only the serial reader can report (see
    :class:`ingest.ShardFault`), the corpus is read again by
    :func:`compute_tc_df` over :func:`ingest.read_corpus`, which raises
    its error, so every ``jobs`` value gives the same table or the same
    error.
    """
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    cfg = config or TokenizerConfig()
    shards = corpus_shards(source, separator, min(jobs, _usable_cpus()))
    count = functools.partial(_count_shard, config=cfg)
    if len(shards) <= 1:
        tables = list(map(count, shards))
    else:
        import multiprocessing  # here, not at the top: it would slow every CLI start

        # fork, not spawn: a spawned worker imports numpy and this package
        # again, which costs more than a shard of the benchmark corpus takes.
        # The workers only read, tokenize and count: they call no BLAS
        # routine, whose idle threads are the only ones a fork can meet here.
        with multiprocessing.get_context("fork").Pool(len(shards)) as pool:
            tables = []
            for table in pool.imap(count, shards):
                tables.append(table)
                if table is None:
                    break
    if tables and tables[-1] is None:
        return compute_tc_df(read_corpus(source, cfg, separator))
    return tables[0] if len(tables) == 1 else _add_tables(tables)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13+
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _count_shard(shard, config: TokenizerConfig) -> TermStatsTable | None:
    """The tc/df table of one shard; None if it meets a ShardFault."""
    try:
        return _tally(shard.token_lists(config))
    except ShardFault:
        return None


def _checked_ids(documents: Iterable[Document]) -> Iterator[Document]:
    seen: set[str] = set()
    for doc in documents:
        if not doc.id:
            raise ValidationError("document id must be non-empty")
        if doc.id in seen:
            raise ValidationError(f"duplicate document id: {doc.id!r}")
        seen.add(doc.id)
        yield doc


def _tally(token_lists: Iterable[list[str]]) -> TermStatsTable:
    """The tc/df table of documents given as their token lists."""
    tc: Counter = Counter()
    df: Counter = Counter()
    n_docs = 0
    for tokens in token_lists:
        n_docs += 1
        tc.update(tokens)
        df.update(set(tokens))
    terms = sorted(tc)
    return TermStatsTable._from_sorted(
        terms, map(tc.__getitem__, terms), map(df.__getitem__, terms), n_docs
    )


def merge(a: TermStatsTable, b: TermStatsTable) -> TermStatsTable:
    """Combine two disjointly-counted tables: counts add, doc_count adds.

    Commutative and associative. A sum above 2**63 - 1 raises ValidationError.
    """
    return _add_tables([a, b])


def _add_tables(tables: list[TermStatsTable]) -> TermStatsTable:
    """The sum of tables counted over disjoint documents, as :func:`merge` adds two."""
    counts = [table.tc_df_arrays() for table in tables]
    # The terms as UTF-8 bytes, which sort as the str terms do, take half
    # the memory of decoded ones and compare faster.
    keys = np.array([key for table in tables for key in table._terms.split(b"\n")[:-1]], dtype=object)
    # Each table's keys are one ascending run, and a stable sort (timsort) merges runs.
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)  # the first copy of each term
    first[1:] = keys[1:] != keys[:-1]
    packed = io.BytesIO()  # bytes.join would hold an 80-byte buffer record per term
    packed.writelines(itertools.chain.from_iterable(zip(keys[first], itertools.repeat(b"\n"))))
    del keys  # one object per input row: not kept while the counts are added
    where = np.empty(len(order), dtype=np.intp)  # each input row's merged row
    where[order] = np.cumsum(first) - 1
    totals = [np.zeros(int(first.sum()), dtype=np.uint64) for _ in range(2)]
    for rows, columns in zip(np.split(where, np.cumsum([len(table) for table in tables])[:-1]), counts):
        for total, column in zip(totals, columns):
            total[rows] += column.astype(np.uint64)  # below 2**64: both addends are below 2**63
            if int(total.max(initial=0)) > MAX_COUNT:
                raise ValidationError("a merged count exceeds 2**63 - 1")
    return TermStatsTable(packed.getvalue(), *(total.astype(np.int64) for total in totals),
                          sum(table.doc_count for table in tables))


def frequency_of_frequencies(source, which: str = "tc") -> dict[int, int]:
    """Map count value -> number of distinct terms having that value.

    ``source`` is a TermStatsTable (``which`` selects the tc or df column)
    or an iterable of FrequencyListEntry (``which`` must then be "tc",
    since lists carry no df). The sum over the result's values equals the
    number of distinct terms.
    """
    if which not in ("tc", "df"):
        raise ValidationError(f"which must be 'tc' or 'df', got {which!r}")
    if isinstance(source, TermStatsTable):
        if len(source) == 0:
            raise ValidationError("no terms to histogram")
        column = source.count_arrays()[0 if which == "tc" else 1]
        if column is None:
            raise ValidationError("a tc-only table has no df column; use which='tc'")
        values, counts = np.unique(column, return_counts=True)
        return dict(zip(values.tolist(), counts.tolist()))
    if which != "tc":
        raise ValidationError("frequency lists carry no df column; use which='tc'")
    histogram = Counter(entry.count for entry in source)
    if not histogram:
        raise ValidationError("no terms to histogram")
    return dict(histogram)


def iter_rows(*columns) -> Iterator[tuple]:
    """Aligned rows of ``columns`` (lists or numpy arrays) as tuples of Python values.

    Arrays are converted with ``tolist`` one chunk of rows at a time, so the
    Python ints of a whole column never exist at once.
    """
    for lo in range(0, len(columns[0]), _ROWS_PER_CHUNK):
        chunk = [column[lo:lo + _ROWS_PER_CHUNK] for column in columns]
        yield from zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in chunk))


def write_stats(table: TermStatsTable, path) -> None:
    """Serialize a table as ``#N=<doc_count>`` then term-sorted tc/df rows."""
    tc, df = table.tc_df_arrays()
    terms = table.terms()
    if b"\t" in table._terms or b"\r" in table._terms:
        for term in terms:
            check_field(term)
    with write_utf8(path) as fh:
        fh.write(f"#N={table.doc_count}\n")
        fh.writelines(f"{term}\t{tc_i}\t{df_i}\n" for term, tc_i, df_i in iter_rows(terms, tc, df))


def read_stats(path) -> TermStatsTable:
    """Parse a stats file written by :func:`write_stats`.

    Round-trips losslessly. Counts are plain ASCII digits up to 2**63 - 1;
    every row needs a non-empty term and 1 <= df <= tc, df <= doc_count.
    Rows may come in any order (they are sorted once if they are not
    ascending) but a term may appear only once. Any violation raises
    ParseError with the line number.

    A table as :func:`write_stats` writes it is read in blocks of whole
    lines (:func:`_read_blocks`). Any other file, faulty ones included,
    is read again from the start one line at a time (:func:`_read_lines`),
    which sorts unsorted rows and names the first bad line.
    """
    path = Path(path)
    table = _read_blocks(path)
    return table if table is not None else _read_lines(path)


def read_frequency_table(path, keep_lemmatized: bool = False) -> TermStatsTable:
    """A frequency list as a tc-only table: the rows :func:`parse_frequency_list` yields.

    A list of term-sorted ``term<TAB>count`` rows with LF line ends, a
    final newline and ``#`` lines only before the first row is read in
    blocks (:func:`_read_blocks`). Any other list, faulty ones included,
    goes through the line loop of :func:`parse_frequency_list` and is
    sorted once, which gives the same table and the same errors.
    """
    path = Path(path)
    table = _read_blocks(path, columns=1)
    if table is not None:
        return table
    return TermStatsTable.from_entries(parse_frequency_list(path, keep_lemmatized))


def _read_blocks(path: Path, columns: int = 2) -> TermStatsTable | None:
    """Read a clean file in blocks of whole lines; None if any block is not clean.

    ``columns`` is 2 for a stats table (a ``#N=`` header, then
    ``term<TAB>tc<TAB>df`` rows) and 1 for a frequency list (leading ``#``
    lines, then ``term<TAB>count`` rows, read into a tc-only table).
    Clean means: LF line ends, no blank line, a final newline, exactly
    ``columns`` tabs per row, a non-empty term, valid UTF-8, counts of 1
    to 19 ASCII digits no larger than 2**63 - 1 (a list's counts >= 1, a
    table's 1 <= df <= tc and df <= N), and terms strictly ascending, also
    from one block to the next. The blocks are read into one reused
    buffer; a line longer than the buffer doubles it. Only regular files
    are read this way, since the line loop reads again from the start.
    """
    if not path.is_file():  # a pipe cannot be read again by the line loop
        return None
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        doc_count = _read_header(fh) if columns == 2 else _skip_comments(fh)
        if doc_count is None:
            return None
        terms = bytearray()
        cols = [np.zeros(0, dtype=np.int64) for _ in range(columns)]
        rows = 0
        last = b""  # sorts before every term, which is non-empty
        buf = bytearray(_BLOCK_SIZE)
        view = memoryview(buf)
        kept = 0  # bytes of an unfinished line at the front of buf
        while got := fh.readinto(view[kept:]):
            end = kept + got
            cut = buf.rfind(b"\n", 0, end) + 1
            if not cut:
                if end == len(buf):
                    buf = bytearray(2 * len(buf))
                    buf[:end] = view[:end]
                    view = memoryview(buf)
                kept = end
                continue
            block = _scan_block(np.frombuffer(buf, dtype=np.uint8, count=cut), doc_count, last, columns)
            if block is None:
                return None
            block_terms, counts, last = block
            terms += block_terms
            n = counts[0].size
            if rows + n > cols[0].size:
                # room for the rows the rest of the file holds at this block's density
                unread = max(file_size - fh.tell(), 0) + end - cut  # the file may have grown
                capacity = rows + n + int(n * unread / cut * 1.05)
                for col in cols:
                    col.resize(capacity, refcheck=False)
            for col, count in zip(cols, counts):
                col[rows:rows + n] = count
            rows += n
            buf[:end - cut] = buf[cut:end]  # a copy: the two ranges may overlap
            kept = end - cut
        if kept:  # no final newline
            return None
    for col in cols:
        col.resize(rows, refcheck=False)
    terms = bytes(terms)  # the bytearray is freed before the table indexes the copy
    return TermStatsTable(terms, cols[0], cols[1] if columns == 2 else None, doc_count)


def _read_header(fh) -> int | None:
    """A stats table's doc_count from its ``#N=`` line, or None if the line is not clean."""
    header = fh.readline(len(b"#N=") + _MAX_DIGITS + 1)
    digits = header[3:-1]
    if not (header.startswith(b"#N=") and header.endswith(b"\n") and digits.isdigit()):
        return None
    doc_count = int(digits)
    return doc_count if doc_count <= MAX_COUNT else None


def _skip_comments(fh) -> int | None:
    """Skip a frequency list's leading ``#`` lines; 0, the doc_count of a
    tc-only table, or None if one of them is not clean."""
    while fh.peek(1)[:1] == b"#":
        line = fh.readline()
        if not line.endswith(b"\n") or b"\r" in line:
            return None
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return None
    return 0


def _scan_block(data: np.ndarray, doc_count: int, last: bytes, columns: int):
    """Check and parse one block of whole lines with ``columns`` counts per row.

    Returns the block's term buffer, its count columns as int64 and its
    last term, or None if :func:`_read_blocks` must leave the file to the
    line loop. ``last`` is the previous block's last term.
    """
    ends = np.flatnonzero(data == _LF)
    tabs = np.flatnonzero(data == _TAB)
    if tabs.size != columns * ends.size or (data == _CR).any():
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    row_tabs = [tabs[k::columns] for k in range(columns)]  # each row's k-th tab
    # A row's fields: the term, then the counts, each ended by a tab or the newline.
    field_starts = [starts, *(tab + 1 for tab in row_tabs)]
    field_ends = [*row_tabs, ends]
    # Each line holds its own tabs, and no field is empty.
    if not all((end > start).all() for start, end in zip(field_starts, field_ends)):
        return None
    counts = [_parse_counts(data, start, end) for start, end in zip(field_starts[1:], field_ends[1:])]
    if any(count is None for count in counts):
        return None
    tc = counts[0]
    if columns == 2:
        df = counts[1]
        clean = (df >= 1).all() and (df <= tc).all() and (df <= doc_count).all()
    else:  # a frequency list, whose line loop skips any line starting with '#'
        clean = (tc >= 1).all() and not (data[starts] == _HASH).any()
    if not (clean and (tc <= MAX_COUNT).all()):
        return None
    # Keep each term and the tab after it, then turn those tabs into newlines.
    marks = np.zeros(data.size, dtype=np.int8)
    marks[starts] = 1
    marks[row_tabs[0] + 1] = -1
    packed = data[np.cumsum(marks, dtype=np.int8).view(np.bool_)]
    packed[packed == _TAB] = _LF
    terms = packed.tobytes()
    if not terms.isascii():
        try:
            terms.decode("utf-8")
        except UnicodeDecodeError:
            return None
    rows = terms.split(b"\n")
    rows.pop()
    if not (last < rows[0] and all(map(operator.lt, rows, itertools.islice(rows, 1, None)))):
        return None
    return terms, [count.view(np.int64) for count in counts], rows[-1]


def _parse_counts(data: np.ndarray, first: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """The digit fields ``data[first:end]`` as uint64, or None if a field has
    more than 19 digits or a byte that is not an ASCII digit."""
    width = end - first
    widest = int(width.max())
    if widest > _MAX_DIGITS:
        return None
    narrowest = int(width.min())
    value = np.zeros(width.size, dtype=np.uint64)
    for k in range(widest):  # the k-th digit from the right
        digit = data[end - 1 - k] - _ZERO  # uint8: bytes below '0' wrap above 9
        if k >= narrowest:  # mask fields with fewer digits (their index may wrap)
            digit[width <= k] = 0
        if (digit > 9).any():
            return None
        value += digit.astype(np.uint64) * _POW10[k]
    return value


def _read_lines(path: Path) -> TermStatsTable:
    """Parse a stats file one line at a time, with every check of :func:`read_stats`."""
    terms: list[str] = []
    tc_col = array.array("q")
    df_col = array.array("q")
    prev = ""  # sorts before every term, which is non-empty
    seen: set[str] | None = None  # built once rows stop being ascending
    with open_utf8(path) as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith("#N="):
            raise ParseError(path, 1, "missing #N=<doc_count> header")
        count_text = header[3:]
        if not (count_text.isascii() and count_text.isdigit()):
            raise ParseError(path, 1, f"doc_count is not a plain integer: {count_text!r}")
        try:
            doc_count = int(count_text)
        except ValueError:  # more digits than int() converts
            raise ParseError(path, 1, "doc_count has too many digits") from None
        if doc_count > MAX_COUNT:
            raise ParseError(path, 1, "doc_count exceeds 2**63 - 1")
        add_term, add_tc, add_df = terms.append, tc_col.append, df_col.append
        for line_no, raw in enumerate(fh, start=2):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(path, line_no, f"expected term<TAB>tc<TAB>df, got {len(parts)} fields")
            term, tc_text, df_text = parts
            if not (term and tc_text.isdigit() and df_text.isdigit()
                    and tc_text.isascii() and df_text.isascii()):
                raise ParseError(path, line_no, _field_fault(term, tc_text, df_text))
            try:
                tc, df = int(tc_text), int(df_text)
            except ValueError:  # more digits than int() converts
                raise ParseError(path, line_no, "a count has too many digits") from None
            if tc > MAX_COUNT:
                raise ParseError(path, line_no, "tc exceeds 2**63 - 1")
            if not 1 <= df <= tc:
                raise ParseError(path, line_no, f"need 1 <= df <= tc, got tc={tc} df={df}")
            if df > doc_count:
                raise ParseError(path, line_no, f"df={df} exceeds doc_count={doc_count}")
            if seen is not None or term <= prev:
                if seen is None:
                    seen = set(terms)
                if term in seen:
                    raise ParseError(path, line_no, f"duplicate term {term!r}")
                seen.add(term)
            prev = term
            add_term(term)
            add_tc(tc)
            add_df(df)
    tc_arr = np.frombuffer(tc_col, dtype=np.int64).copy()
    df_arr = np.frombuffer(df_col, dtype=np.int64).copy()
    if seen is not None:
        order = sorted(range(len(terms)), key=terms.__getitem__)
        terms = [terms[i] for i in order]
        tc_arr, df_arr = tc_arr[order], df_arr[order]
    return TermStatsTable(_pack_terms(terms), tc_arr, df_arr, doc_count)


def _field_fault(term: str, tc_text: str, df_text: str) -> str:
    """Name the first fault of a row that failed the combined field check."""
    if not term:
        return "empty term"
    if tc_text.isascii() and tc_text.isdigit():
        return f"df is not a plain integer: {df_text!r}"
    return f"tc is not a plain integer: {tc_text!r}"


def read_stats_columns(path) -> tuple[np.ndarray, np.ndarray, int]:
    """(tc, df, doc_count) of :func:`read_stats`, for callers that need no terms."""
    table = read_stats(path)
    return (*table.count_arrays(), table.doc_count)
