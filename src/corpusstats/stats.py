"""Per-term totals (tc) and document frequencies (df) over a corpus.

tc counts every occurrence of a term corpus-wide; df counts the documents
containing it at least once. For every stored term 1 <= df <= tc and
df <= doc_count, which downstream modules rely on (ratios are >= 1, the
tc-as-df proxy never overshoots the document count). Every count fits a
signed 64-bit integer (at most ``ingest.MAX_COUNT`` = 2**63 - 1).

:func:`read_stats` is the one parser of the stats file format; every
reader of a stats table, whatever it goes on to compute, applies the same
checks. It reads a table of any valid layout in one pass, in blocks of
whole lines, and names the first bad line in file order.
"""

from __future__ import annotations

import itertools
import operator
import os
from array import array
from bisect import bisect_left
from collections import Counter
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping

import numpy as np

from .errors import ParseError, ValidationError
from .ingest import (
    DEFAULT_SEPARATOR,
    LIST_ROWS,
    MAX_COUNT,
    NGRAM_ROWS,
    STATS_ROWS,
    Document,
    FrequencyListEntry,
    RowLayout,
    TokenizerConfig,
    check_field,
    corpus_shards,
    decode_lines,
    line_blocks,
    parse_row,
    write_utf8,
)

_ROWS_PER_CHUNK = 1 << 13  # rows a writer encodes, or a term reader decodes, at a time
_TALLY_ROWS = 1 << 16  # token rows the tally buffers at least before it counts them
_BLOCK_SIZE = 1 << 16  # bytes the stats reader reads at a time
_MAX_DIGITS = 19  # every 19-digit count fits uint64; 2**63 - 1 has 19 digits
_POW10 = 10 ** np.arange(_MAX_DIGITS, dtype=np.uint64)
_TAB, _LF, _ZERO, _HASH, _L = b"\t\n0#L"
_INT32_MAX = 2**31 - 1  # term buffers up to this size index their newlines with int32


class TermStatsTable:
    """Columnar tc/df table plus the corpus document count.

    Three aligned columns: the terms in strictly ascending order, and
    their tc and df as int64 arrays. The terms are one UTF-8 buffer in
    which every term is followed by a newline; UTF-8 byte order is
    code-point order, so the buffer sorts exactly as the ``str`` terms do.
    The constructor takes the term buffer, which may be the stats reader's
    ``bytearray`` (never written after the read), and the count columns as
    they are; :meth:`from_mapping` builds them from ``term -> (tc, df)``.
    A frequency list gives a tc-only table (:meth:`from_entries`,
    :func:`read_frequency_table`, :func:`read_ngram_table`): its df
    column is None and its doc_count 0, since a list carries neither.
    Treated as immutable once built; reads are safe to share across
    threads, except while :func:`~corpusstats.ranking.ranked_by` sorts a
    count column, which it inverts in place and then restores.
    """

    __slots__ = ("_terms", "_ends", "_tc", "_df", "doc_count")

    def __init__(self, terms: bytes | bytearray, tc: np.ndarray, df: np.ndarray | None, doc_count: int):
        self._terms = terms
        self._ends = _line_ends(terms)
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
        tc, df = (_count_column((pair[k] for pair in counts.values()), len(counts)) for k in (0, 1))
        return cls._from_unsorted(_pack_terms(counts), tc, df, doc_count)

    @classmethod
    def from_entries(cls, entries: Iterable[FrequencyListEntry]) -> TermStatsTable:
        """The tc-only table of frequency-list entries; a term may appear only once.

        Entries are consumed one at a time, so a duplicate term raises
        ValidationError before any later entry is read; they are sorted once.
        """
        counts: dict[str, int] = {}
        for entry in entries:
            if entry.term in counts:
                raise ValidationError(f"duplicate term in entries: {entry.term!r}")
            counts[entry.term] = entry.count
        tc = _count_column(counts.values(), len(counts))
        return cls._from_unsorted(_pack_terms(counts), tc, None, 0)

    @classmethod
    def _from_unsorted(cls, terms: bytes, tc: np.ndarray, df: np.ndarray | None,
                       doc_count: int) -> TermStatsTable:
        """The table of a buffer of distinct ``terms`` in any order and their
        count columns in that order; ``df`` None gives a tc-only table."""
        packed, order, _ = _term_order(terms)
        return cls(packed, tc[order], None if df is None else df[order], doc_count)

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
        return str(self._terms, "utf-8").split("\n")[:-1]  # the last is empty: after the final newline

    def terms_at(self, rows: np.ndarray) -> list[str]:
        """The terms of the row indices ``rows``, in that order.

        Decodes one chunk of rows at a time, so unlike reordering
        :meth:`terms` it never holds the whole table's terms twice.
        """
        data = np.frombuffer(self._terms, dtype=np.uint8)
        terms: list[str] = [""] * len(rows)
        for lo in range(0, len(rows), _ROWS_PER_CHUNK):
            chunk = rows[lo:lo + _ROWS_PER_CHUNK]
            decoded = _pick(data, self._ends, chunk).tobytes().decode("utf-8").split("\n")
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

    def _one_column(self, which: str) -> TermStatsTable:
        """The tc-only table of these terms with the ``which`` column as its
        counts. It shares the term buffer and its newline index, so a caller
        that reads one column can drop this table, and with it the other."""
        one = object.__new__(TermStatsTable)
        one._terms, one._ends, one._df, one.doc_count = self._terms, self._ends, None, 0
        one._tc = self.count_arrays()[0] if which == "tc" else self.tc_df_arrays()[1]
        return one

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


class _Keys:
    """The terms of one key space of a file in file order, in one buffer.

    While they strictly ascend they are distinct: each batch is compared
    with the term before it. From the first batch that does not ascend on,
    each term's line is kept, and the sort that orders the terms finds their
    first repeat too.
    """

    def __init__(self):
        self.terms = bytearray()
        self._last = b""  # the last term, while they ascend; no term is empty
        self._lines: array | None = None  # from the first batch that does not ascend on

    def add(self, terms: bytes, lines, rows: np.ndarray | None = None) -> None:
        """Append ``terms``, each followed by a newline, from ``lines`` (those ``rows`` selects)."""
        keys = terms.split(b"\n")[:-1]
        if keys and self._lines is None and not (
                self._last < keys[0] and all(map(operator.lt, keys, itertools.islice(keys, 1, None)))):
            self._lines = array("q")
        if self._lines is not None:
            lines = np.asarray(lines, dtype=np.int64)
            self._lines.frombytes((lines if rows is None else lines[rows]).tobytes())
        elif keys:
            self._last = keys[-1]
        self.terms += terms

    def sort(self, path: Path, layout: RowLayout, lemma: bool = False):
        """The terms sorted, and the rows in that order (every row, if they ascend);
        and the ParseError of the first row in file order that repeats a term, or None."""
        if self._lines is None:
            return self.terms, slice(None), None
        packed, order, first = _term_order(self.terms)
        if first.all():
            return packed, order, None
        row = int(order[~first].min())  # a stable sort puts a term's first row first
        ends = _line_ends(self.terms)
        term = self.terms[ends[row - 1] + 1 if row else 0:ends[row]].decode("utf-8")
        line = self._lines[row - ends.size + len(self._lines)]
        return packed, order, layout.duplicate_error(path, line, term, lemma)


def _term_order(buffer) -> tuple[bytearray, np.ndarray, np.ndarray]:
    """The term buffer of the distinct terms of a term ``buffer``, sorted; the
    stable order that sorts all its terms; and which sorted term is a first copy.

    UTF-8 byte order is str order, so the terms sort as bytes, in passes. A
    bucket holds the rows whose terms agree so far, and stays open while two
    of them have bytes left. Each pass sorts the open rows by one unstable
    argsort of a uint64 key: the bucket's dense id, the next bytes of the
    term (zero past its end) and, in the low 4 bits, the bytes left, capped at
    one more than the pass reads, so a term sorts before the longer ones it
    starts, NUL bytes or not. A pass reads as many bytes as the id leaves room
    for. A row's rank is the final position of the first row of its bucket, so
    equal terms share one, and a last argsort keeps them in file order.
    """
    data = np.frombuffer(buffer, dtype=np.uint8)
    if data.size < 8:  # the view below reads 8 bytes
        data = np.append(data, np.zeros(8, dtype=np.uint8))
    words = np.ndarray((data.size - 7,), ">u8", data, strides=(1,))  # the 8 bytes from each offset
    ends = _line_ends(buffer)
    index = ends.dtype
    n = ends.size
    rank = np.zeros(n, dtype=index)
    rows = np.arange(n, dtype=index)  # the open rows, in their order so far
    at = rows.copy()  # each open row's final position, were its bucket in order
    key = np.zeros(n, dtype=np.uint64)  # scratch; each pass starts with the bucket ids
    width, depth = 7, 0  # the bytes a pass reads, and those read before it
    while rows.size:
        pos = np.where(rows > 0, ends[rows - 1] + 1, 0) + depth
        left = np.minimum(ends[rows] - pos, width + 1).astype(np.uint8)
        clip = np.minimum(pos, words.size - 1)  # near the end: the last 8 bytes, shifted left
        word = words[clip] << (8 * (pos - clip)).astype(np.uint64) >> np.uint64(64 - 8 * width)
        del pos, clip
        past = 8 * (width - np.minimum(left, width))  # bits read past the term's end
        part = key[:rows.size]
        part |= word >> past << past + 4 | left
        del word, past
        order = np.argsort(part)
        part[:] = part[order]
        rows, more = rows[order], left[order] > width
        del order, left
        new = np.ones(rows.size + 1, dtype=bool)  # where a run of equal keys starts, and the end
        np.not_equal(part[1:], part[:-1], out=new[1:-1])
        rank[rows] = np.maximum.accumulate(np.where(new[:-1], at, 0))
        more &= ~(new[:-1] & new[1:])  # a run of one row is in place
        rows, at, new = rows[more], at[more], new[:-1][more]
        del more
        depth += width
        width = (60 - int(np.count_nonzero(new) - 1).bit_length()) // 8
        key[:rows.size] = np.cumsum(new, dtype=np.uint64) - np.uint64(1) << np.uint64(8 * width + 4)
    del key, rows, at
    order = np.argsort(rank.astype(np.int64) * n + np.arange(n)).astype(index)
    first = np.diff(rank[order], prepend=-1) != 0
    del rank
    packed = bytearray()
    distinct = order[first]
    for lo in range(0, distinct.size, _ROWS_PER_CHUNK):
        packed.extend(_pick(data, ends, distinct[lo:lo + _ROWS_PER_CHUNK]))
    return packed, order, first


def _line_ends(buffer: bytes | bytearray) -> np.ndarray:
    """The offsets of the newlines of a term ``buffer``: int32 up to 2**31 - 1
    bytes, int64 above. Scans a block at a time, so no whole-buffer mask is made."""
    data = np.frombuffer(buffer, dtype=np.uint8)
    ends = np.empty(buffer.count(b"\n"), dtype=np.int32 if data.size <= _INT32_MAX else np.int64)
    found = 0
    for lo in range(0, data.size, _BLOCK_SIZE):
        block_ends = np.flatnonzero(data[lo:lo + _BLOCK_SIZE] == _LF)
        np.add(block_ends, lo, out=ends[found:found + block_ends.size], casting="unsafe")
        found += block_ends.size
    return ends


def _pick(data: np.ndarray, ends: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The terms ``rows`` of the term buffer ``data`` whose newlines are at
    ``ends``, in that order, each followed by its newline."""
    starts = np.where(rows > 0, ends[rows - 1] + 1, 0)
    lengths = ends[rows] + 1 - starts
    # every byte of every chosen term, term after term
    where = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    where += np.arange(where.size)
    return data[where]


def _count_column(counts: Iterable[int], n: int) -> np.ndarray:
    """``n`` counts as an int64 column; a count above 2**63 - 1 raises ValidationError."""
    try:
        return np.fromiter(counts, dtype=np.int64, count=n)
    except OverflowError:
        raise ValidationError("a count exceeds 2**63 - 1") from None


def _pack_terms(terms: Collection[str]) -> bytes:
    """The term buffer of ``terms``: UTF-8, each term followed by a newline."""
    text = "\n".join([*terms, ""])
    if text.count("\n") != len(terms):
        bad = min(term for term in terms if "\n" in term)
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
    process per shard. The shard tables are added up in shard order. A
    shard raises what :func:`ingest.read_corpus` raises at its first bad
    line, and the first error in shard order is raised once every shard
    has finished, so every ``jobs`` value gives the same table or the same
    error, and a fault does not make the corpus be read again. A shard
    after one that has faulted stops at its next document, since its table
    would not be used.
    """
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    cfg = config or TokenizerConfig()
    shards = corpus_shards(source, separator, min(jobs, _usable_cpus()))
    if len(shards) <= 1:
        tables = [_count_shard(shard, cfg) for shard in shards]
    else:
        import multiprocessing  # here, not at the top: it would slow every CLI start

        # fork, not spawn: a spawned worker imports numpy and this package
        # again, which costs more than a shard of the benchmark corpus takes.
        # The workers only read, tokenize and count: they call no BLAS
        # routine, whose idle threads are the only ones a fork can meet here.
        context = multiprocessing.get_context("fork")
        # The lowest index of a shard that has faulted, shared with each worker
        # at its fork and written by this process's result thread alone.
        first_fault = context.Value("q", len(shards), lock=False)

        def on_fault(index: int):
            def record(error: BaseException) -> None:
                first_fault.value = min(first_fault.value, index)
            return record

        with context.Pool(len(shards), _share_first_fault, (first_fault,)) as pool:
            results = [pool.apply_async(_count_shard, (shard, cfg, index), error_callback=on_fault(index))
                       for index, shard in enumerate(shards)]
            # Every shard finishes before the pool is left, even after a
            # fault: leaving it with shards in flight calls terminate(),
            # which can block forever in a long-lived process.
            pool.close()
            pool.join()
        tables = [result.get() for result in results]  # raises the first error in shard order
    return tables[0] if len(tables) == 1 else _add_tables(tables)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13+
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_first_fault = None  # in a count's pool worker: the shared index of the first shard that has faulted


class _ShardStopped(Exception):
    """Raised by a pool worker's shard after an earlier shard faulted; the earlier error wins."""


def _share_first_fault(value) -> None:
    """Pool initializer: keep the shared first-fault index inherited at the fork."""
    global _first_fault
    _first_fault = value


def _count_shard(shard, config: TokenizerConfig, index: int | None = None) -> TermStatsTable:
    """The tc/df table of one shard; in a pool, shard ``index`` raises
    :class:`_ShardStopped` at its next document once an earlier shard has faulted."""
    token_lists = shard.token_lists(config)
    return _tally(token_lists if index is None else _until_earlier_fault(token_lists, index))


def _until_earlier_fault(token_lists: Iterator[list[str]], index: int) -> Iterator[list[str]]:
    for tokens in token_lists:
        if _first_fault.value < index:
            raise _ShardStopped(index)
        yield tokens


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
    """The tc/df table of documents given as their token lists.

    One dict gives each term a row the first time it is seen; the rows of
    every token and of each document's distinct terms are buffered and
    counted by :func:`_add_rows`, so no second dict of the terms is kept.
    """
    rows: dict[str, int] = {}  # term -> its row, in order of first use
    counts = [np.zeros(0, dtype=np.int64)] * 2  # tc and df
    buffers = [array("i"), array("i")]  # the rows of every token, and of each document's distinct terms
    n_docs = 0
    for n_docs, tokens in enumerate(token_lists, 1):
        distinct = set(tokens)
        rows.update(zip(distinct.difference(rows), itertools.count(len(rows))))
        buffers[0].extend(map(rows.__getitem__, tokens))
        buffers[1].extend(map(rows.__getitem__, distinct))
        if len(buffers[0]) >= max(len(rows), _TALLY_ROWS):  # a count costs one pass over the rows
            _add_rows(counts, buffers, len(rows))
    terms = list(rows)
    del rows  # the dict and its row numbers go before the columns are counted
    _add_rows(counts, buffers, len(terms))
    packed = _pack_terms(terms)
    del terms  # the sort needs no str of the terms
    return TermStatsTable._from_unsorted(packed, *counts, n_docs)


def _add_rows(counts: list[np.ndarray], buffers: list[array], n: int) -> None:
    """Add one to each column of ``counts`` for each row in its buffer, as ``n`` rows; empty the buffers."""
    for k, rows in enumerate(buffers):
        total = np.bincount(np.frombuffer(rows, dtype=np.intc), minlength=n)
        total[:counts[k].size] += counts[k]
        counts[k] = total
        del rows[:]


def merge(a: TermStatsTable, b: TermStatsTable) -> TermStatsTable:
    """Combine two disjointly-counted tables: counts add, doc_count adds.

    Commutative and associative. A sum above 2**63 - 1 raises ValidationError.
    """
    return _add_tables([a, b])


def _add_tables(tables: list[TermStatsTable]) -> TermStatsTable:
    """The sum of tables counted over disjoint documents, as :func:`merge` adds two."""
    counts = [table.tc_df_arrays() for table in tables]
    packed, order, first = _term_order(b"".join(table._terms for table in tables))
    where = np.empty(len(order), dtype=np.intp)  # each input row's merged row
    where[order] = np.cumsum(first) - 1
    totals = [np.zeros(int(first.sum()), dtype=np.uint64) for _ in range(2)]
    for rows, columns in zip(np.split(where, np.cumsum([len(table) for table in tables])[:-1]), counts):
        for total, column in zip(totals, columns):
            total[rows] += column.astype(np.uint64)  # below 2**64: both addends are below 2**63
            if int(total.max(initial=0)) > MAX_COUNT:
                raise ValidationError("a merged count exceeds 2**63 - 1")
    return TermStatsTable(packed, *(total.astype(np.int64) for total in totals),
                          sum(table.doc_count for table in tables))


def frequency_of_frequencies(table: TermStatsTable, which: str = "tc") -> dict[int, int]:
    """Map count value -> number of distinct terms having that value.

    ``which`` selects the tc or df column; a tc-only table, such as
    :func:`read_frequency_table` gives, has only "tc". The sum over the
    result's values equals the number of distinct terms.
    """
    if which not in ("tc", "df"):
        raise ValidationError(f"which must be 'tc' or 'df', got {which!r}")
    column = table.count_arrays()[0 if which == "tc" else 1]
    if column is None:
        raise ValidationError("a tc-only table has no df column; use which='tc'")
    return _count_histogram(column)


def _count_histogram(column: np.ndarray) -> dict[int, int]:
    """Map each value of a count column to the number of rows that hold it."""
    if not column.size:
        raise ValidationError("no terms to histogram")
    values, counts = np.unique(column, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def write_stats(table: TermStatsTable, path) -> None:
    """Serialize a table as ``#N=<doc_count>`` then term-sorted tc/df rows."""
    tc, df = table.tc_df_arrays()
    _check_fields(table)
    data = np.frombuffer(table._terms, dtype=np.uint8)
    with write_utf8(path) as fh:
        fh.buffer.write(b"#N=%d\n" % table.doc_count)
        for lo in range(0, len(table), _ROWS_PER_CHUNK):
            hi = min(lo + _ROWS_PER_CHUNK, len(table))
            terms = data[int(table._ends[lo - 1]) + 1 if lo else 0:int(table._ends[hi - 1]) + 1]
            fh.buffer.write(_encode_rows([tc[lo:hi], df[lo:hi]], terms))


def _check_fields(table: TermStatsTable) -> None:
    """Refuse a table with a term that would not read back as one field (:func:`check_field`)."""
    if b"\t" in table._terms or b"\r" in table._terms:
        for term in table.terms():
            check_field(term)


def _encode_rows(columns: list[np.ndarray], terms: np.ndarray | None = None) -> bytes:
    """One chunk of rows as UTF-8: each row's term, if ``terms`` is given, then
    its value in each of ``columns``, tab-separated and ended by a newline.

    ``columns`` are non-negative int64 arrays of one length; ``terms`` is a
    uint8 term buffer of as many terms, each followed by its newline, which
    becomes the tab after it. The digits go in one decimal place per pass;
    a place that a narrower value lacks goes to one spare byte at the end.
    """
    widths = [np.searchsorted(_POW10, column.view(np.uint64), side="right").clip(1) for column in columns]
    term_lengths = 0 if terms is None else np.diff(np.flatnonzero(terms == _LF), prepend=-1)
    lengths = sum(widths) + len(columns) + term_lengths  # a tab or newline follows each value
    starts = np.cumsum(lengths) - lengths
    out = np.empty(int(lengths.sum()) + 1, dtype=np.uint8)
    spare = out.size - 1
    at = starts + term_lengths  # where each row's next field starts
    if terms is not None:
        where = np.repeat(starts - np.cumsum(term_lengths) + term_lengths, term_lengths)
        where += np.arange(where.size)
        out[where] = terms
        out[at - 1] = _TAB
    ten = np.uint64(10)
    for k, (column, width) in enumerate(zip(columns, widths)):
        value, last = column.view(np.uint64), at + width - 1
        for place in range(int(width.max(initial=1))):
            quotient = value // ten  # by a scalar numpy divides with a multiply, unlike divmod
            digit = (value - quotient * ten).astype(np.uint8)
            out[np.where(place < width, last - place, spare)] = digit + _ZERO
            value = quotient
        at = last + 2
        out[at - 1] = _LF if k == len(columns) - 1 else _TAB
    return out[:spare].tobytes()


def read_stats(path) -> TermStatsTable:
    """Parse a stats file written by :func:`write_stats`.

    Round-trips losslessly. Counts are plain ASCII digits up to 2**63 - 1;
    every row needs a non-empty term and 1 <= df <= tc, df <= doc_count.
    Rows may come in any order (they are sorted once if they are not
    ascending) but a term may appear only once. CRLF and CR line ends,
    blank lines and a missing final newline are accepted. The file, or
    pipe, is read once (:func:`_read_blocks`); any violation raises
    ParseError naming the first bad line in file order.
    """
    return TermStatsTable(*_read_blocks(Path(path))[0])


def read_frequency_table(path, keep_lemmatized: bool = False) -> TermStatsTable:
    """A frequency list, ``term<TAB>count[<TAB>L]`` rows, as a tc-only table.

    Lines starting with ``#`` and blank lines are skipped. Counts are plain
    ASCII digits in [1, 2**63 - 1]. A surface term and a lemma term (an
    ``L`` row) may each appear only once, since two counts of one term
    could not be combined without guessing the producer's intent. Lemma
    rows are dropped unless ``keep_lemmatized``; a table holds one row per
    term, so then a lemma row and a surface row of one term are a
    duplicate too. Any violation raises ParseError naming the first bad
    line in file order.
    """
    return TermStatsTable(*_read_blocks(Path(path), LIST_ROWS, keep_lemmatized)[0])


def read_ngram_table(path, min_count: int = 0) -> TermStatsTable:
    """An n-gram count file, ``token<TAB>count`` rows, as a tc-only table.

    Blank lines are skipped; there are no comments (``#`` is a token) and
    no ``L`` field. Rows with a count below ``min_count`` are dropped after
    every check, so a malformed row is an error even where it would have
    been dropped. Errors are those of :func:`read_frequency_table`.
    """
    if min_count < 0:
        raise ValidationError(f"min_count must be >= 0, got {min_count}")
    return TermStatsTable(*_read_blocks(Path(path), NGRAM_ROWS, min_count=min_count)[0])


def _list_histogram(path, keep_lemmatized: bool) -> dict[int, int]:
    """Map each count of a frequency list to its number of rows; with
    ``keep_lemmatized`` a term's surface row and lemma row count apart."""
    (_, tc, _, _), lemma_counts = _read_blocks(Path(path), LIST_ROWS)
    histogram = Counter(lemma_counts.tolist() if keep_lemmatized else ())
    if tc.size or not histogram:  # no count at all raises "no terms to histogram"
        histogram.update(_count_histogram(tc))
    return dict(histogram)


def _read_blocks(path: Path, layout: RowLayout = STATS_ROWS, keep_lemmatized: bool = False,
                 min_count: int = 0) -> tuple[tuple, np.ndarray]:
    """Read a stats table, or a list or n-gram file's rows (``layout``) as a tc-only table, in one pass.

    Returns the :class:`TermStatsTable` arguments ``(terms, tc, df, doc_count)``,
    so that a caller that reads only the count columns never indexes the terms.
    Lemma rows have a key space of their own and join the table's only with
    ``keep_lemmatized``; the counts of those left out come with the table.
    Counts below ``min_count`` are dropped after every check. Each block is
    parsed by :func:`_scan_block`, or else :func:`_parse_lines`. Terms that
    did not ascend are sorted once, at the end or at a bad line, and that
    sort finds a repeated term too. Raises at the first bad line in file order.
    """
    columns = len(layout.counts)
    doc_count = None if columns == 2 else 0  # a table's comes from its header
    keys, lemma_keys = _Keys(), _Keys()  # the table's terms and those of a list's lemma rows
    cols = [array("q") for _ in range(columns)]
    lemma_counts = [np.zeros(0, dtype=np.int64)]  # those of the lemma rows left out
    line_no = 0  # lines before the block
    with open(path, "rb") as fh:
        for block in line_blocks(fh, _BLOCK_SIZE, skip_bom=True):
            data = np.frombuffer(block, dtype=np.uint8)
            if doc_count is None:
                header, data = _first_line(data)
                doc_count = _parse_header(path, header)
                line_no = 1
            while layout.comments and data.size and data[0] == _HASH:  # the scan takes no comment
                comment, data = _first_line(data)
                _, fault = decode_lines(path, comment, line_no)
                if fault is not None:
                    _sort_keys(path, layout, keys, lemma_keys, fault)
                line_no += 1
            if not data.size:
                continue
            scanned = _scan_block(data, line_no, doc_count, layout)
            block_terms, counts, lemma, lines, fault = scanned or _parse_lines(
                path, data, line_no, layout, doc_count)
            line_no += len(lines) if scanned else int(np.count_nonzero(data == _LF))
            rows = None  # the block's rows that the table holds, if not all
            if lemma is not None and lemma.any():  # a list block with lemma rows
                buf = np.frombuffer(block_terms, dtype=np.uint8)
                in_lemmas = np.repeat(lemma, np.diff(_line_ends(block_terms), prepend=-1))
                lemma_keys.add(buf[in_lemmas].tobytes(), lines, lemma)
                if not keep_lemmatized:
                    lemma_counts.append(counts[0][lemma])
                    block_terms, counts, rows = buf[~in_lemmas].tobytes(), [c[~lemma] for c in counts], ~lemma
            keys.add(block_terms, lines, rows)
            for col, count in zip(cols, counts):
                col.frombytes(count.tobytes())
            if fault is not None:
                _sort_keys(path, layout, keys, lemma_keys, fault)
    if doc_count is None:  # an empty file
        raise ParseError(path, 1, "missing #N=<doc_count> header")
    terms, order = _sort_keys(path, layout, keys, lemma_keys)
    del keys  # an unsorted buffer and its lines are freed before the columns are sorted
    cols = [np.frombuffer(col, dtype=np.int64)[order] for col in cols]
    if min_count > 1:
        keep = cols[0] >= min_count
        lengths = np.diff(_line_ends(terms), prepend=-1)
        terms = np.frombuffer(terms, dtype=np.uint8)[np.repeat(keep, lengths)].tobytes()
        cols = [col[keep] for col in cols]
    return (terms, cols[0], cols[1] if columns == 2 else None, doc_count), np.concatenate(lemma_counts)


def _sort_keys(path: Path, layout: RowLayout, keys: _Keys, lemma_keys: _Keys, fault=None):
    """:meth:`_Keys.sort` of the table's ``keys``, after raising the first in file order of
    a repeat among ``lemma_keys``, one among ``keys`` and ``fault`` (on one line, in that order)."""
    lemma_repeat = lemma_keys.sort(path, layout, True)[2]
    terms, order, repeat = keys.sort(path, layout)
    errors = [error for error in (lemma_repeat, repeat, fault) if error is not None]
    if errors:
        raise min(errors, key=operator.attrgetter("line_no"))
    return terms, order


def _first_line(data: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The first line of a block, without its LF, and the rest of the block."""
    eol = int(np.argmax(data == _LF))
    return data[:eol].tobytes(), data[eol + 1:]


def _parse_header(path: Path, line: bytes) -> int:
    """A stats table's doc_count from its ``#N=`` line; raises ParseError naming line 1."""
    header, fault = decode_lines(path, line)
    if fault is not None:
        raise fault
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
    return doc_count


def _scan_block(data: np.ndarray, line_no: int, doc_count: int, layout: RowLayout):
    """Check and parse one block of whole lines in ``layout``, the lines after line ``line_no``.

    Returns what :func:`_parse_lines` does for a block without a bad line (lemma
    flags None if no row ends in the lemma field ``\\tL``), or None if a line is
    blank, is not a valid row, or is one that the scan does not parse: a count of
    more than 19 digits, or a row that starts with ``#`` where that is a comment.
    """
    columns = len(layout.counts)
    ends = np.flatnonzero(data == _LF)
    tabs = np.flatnonzero(data == _TAB)
    lemma = None
    if layout.lemma_field and tabs.size != columns * ends.size:  # rows that end in '\tL' are lemma rows
        # a row under two bytes is none: -1 reads the final newline, a clipped -2 the row's own byte
        lemma = (data[ends - 1] == _L) & (data.take(ends - 2, mode="clip") == _TAB)
        tabs = np.delete(tabs, np.searchsorted(tabs, ends[lemma] - 2))  # a flag's tab ends no field
    if tabs.size != columns * ends.size:
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    row_tabs = [tabs[k::columns] for k in range(columns)]  # each row's k-th tab
    # A row's fields: the term, then the counts, each ended by a tab, the newline or a '\tL'.
    field_starts = [starts, *(tab + 1 for tab in row_tabs)]
    field_ends = [*row_tabs, ends if lemma is None else ends - 2 * lemma]
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
    else:  # a list's comment lines start with '#'
        clean = (tc >= 1).all() and not (layout.comments and (data[starts] == _HASH).any())
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
    return terms, [c.view(np.int64) for c in counts], lemma, line_no + 1 + np.arange(ends.size), None


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


def _parse_lines(path: Path, data: np.ndarray, line_no: int, layout: RowLayout, doc_count: int):
    """The term buffer, count columns as int64 and lemma flags of the rows
    before a block's first bad line by :func:`ingest.parse_row`, their line
    numbers, and that line's ParseError or None."""
    text, fault = decode_lines(path, data, line_no)
    rows: list[tuple[str, list[int], bool]] = []
    lines: list[int] = []
    for line_no, line in enumerate(text.split("\n")[:-1], line_no + 1):
        try:
            row = parse_row(path, line_no, line, layout, doc_count)
        except ParseError as exc:
            fault = exc
            break
        if row is not None:
            rows.append(row)
            lines.append(line_no)
    terms = "".join(term + "\n" for term, _, _ in rows).encode("utf-8")
    counts = [np.array([row[1][k] for row in rows], dtype=np.int64) for k in range(len(layout.counts))]
    return terms, counts, np.array([row[2] for row in rows], dtype=bool), lines, fault


def read_stats_columns(path) -> tuple[np.ndarray, np.ndarray, int]:
    """(tc, df, doc_count) of :func:`read_stats`, for callers that need no terms.

    The terms are checked as :func:`read_stats` checks them, then freed, and
    never indexed. The ``correlate``, ``ratio`` and ``ffreq --stats``
    commands read their tables through it.
    """
    _, tc, df, doc_count = _read_blocks(Path(path))[0]
    return tc, df, doc_count
