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

import io
import itertools
import operator
import os
import stat
from bisect import bisect_left
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

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

_ROWS_PER_CHUNK = 1 << 13  # rows a writer converts to Python values at a time
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
    The constructor takes the term buffer and the count columns as they
    are; :meth:`from_mapping` builds them from ``term -> (tc, df)``.
    A frequency list gives a tc-only table (:meth:`from_entries`,
    :func:`read_frequency_table`, :func:`read_ngram_table`): its df
    column is None and its doc_count 0, since a list carries neither.
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
        distinct = _Distinct(lambda: terms)
        for entry in entries:
            if distinct.repeat([entry.term]) is not None:
                raise ValidationError(f"duplicate term in entries: {entry.term!r}")
            terms.append(entry.term)
            counts.append(entry.count)
        if not distinct.ascending:
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
        return self.terms_between(0, len(self))

    def terms_between(self, lo: int, hi: int) -> list[str]:
        """The terms of rows ``lo`` to ``hi - 1``, decoded from one slice of the buffer."""
        hi = min(hi, len(self))
        if lo >= hi:
            return []
        start = int(self._ends[lo - 1]) + 1 if lo else 0
        return str(memoryview(self._terms)[start:int(self._ends[hi - 1])], "utf-8").split("\n")

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


class _Distinct:
    """Spots a repeated term among terms given in batches, in their order.

    While the terms ascend, each is compared with the one before it. From
    the first batch that does not ascend on, they go into a set, which
    starts with ``earlier()``, the terms of the batches before.
    """

    def __init__(self, earlier: Callable[[], Iterable]):
        self._earlier = earlier
        self._last = None  # the last term, while they ascend
        self._seen: set | None = None

    @property
    def ascending(self) -> bool:
        return self._seen is None

    def repeat(self, terms: list) -> int | None:
        """The index of the first of ``terms`` that came before it, or None."""
        if not terms:
            return None
        if self._seen is None:
            if ((self._last is None or self._last < terms[0])
                    and all(map(operator.lt, terms, itertools.islice(terms, 1, None)))):
                self._last = terms[-1]
                return None
            self._seen = set(self._earlier())
        for i, term in enumerate(terms):
            if term in self._seen:
                return i
            self._seen.add(term)
        return None


def _sorted_terms(buffers: list) -> tuple[bytes, np.ndarray, np.ndarray]:
    """The term buffer of the distinct terms of term ``buffers``, sorted; the
    order that sorts all their terms; and which sorted term is a first copy.

    The terms are kept as UTF-8 bytes, which sort as the str terms do, take
    half the memory of decoded ones and compare faster. A stable sort
    (timsort) merges ascending runs, such as the terms of one buffer.
    """
    keys = np.array([key for buf in buffers for key in bytes(buf).split(b"\n")[:-1]], dtype=object)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    packed = io.BytesIO()  # bytes.join would hold an 80-byte buffer record per term
    packed.writelines(itertools.chain.from_iterable(zip(keys[first], itertools.repeat(b"\n"))))
    return packed.getvalue(), order, first


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
    process per shard. The shard tables are added up in shard order. A
    shard raises what :func:`ingest.read_corpus` raises at its first bad
    line, and the first error in shard order is raised once every shard
    has finished, so every ``jobs`` value gives the same table or the same
    error, and a fault does not make the corpus be read again.
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
        with multiprocessing.get_context("fork").Pool(len(shards)) as pool:
            results = [pool.apply_async(_count_shard, (shard, cfg)) for shard in shards]
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


def _count_shard(shard, config: TokenizerConfig) -> TermStatsTable:
    """The tc/df table of one shard."""
    return _tally(shard.token_lists(config))


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
    packed, order, first = _sorted_terms([table._terms for table in tables])
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


def write_stats(table: TermStatsTable, path) -> None:
    """Serialize a table as ``#N=<doc_count>`` then term-sorted tc/df rows."""
    tc, df = table.tc_df_arrays()
    if b"\t" in table._terms or b"\r" in table._terms:
        for term in table.terms():
            check_field(term)
    with write_utf8(path) as fh:
        fh.write(f"#N={table.doc_count}\n")
        for lo in range(0, len(table), _ROWS_PER_CHUNK):
            hi = lo + _ROWS_PER_CHUNK
            rows = zip(table.terms_between(lo, hi), tc[lo:hi].tolist(), df[lo:hi].tolist())
            fh.writelines(f"{term}\t{tc_i}\t{df_i}\n" for term, tc_i, df_i in rows)


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
    return _read_blocks(Path(path))[0]


def read_frequency_table(path, keep_lemmatized: bool = False) -> TermStatsTable:
    """A frequency list as a tc-only table: the rows :func:`parse_frequency_list` yields,
    with its errors. A table holds one row per term, so with ``keep_lemmatized``
    a lemma row and a surface row of one term are a duplicate too."""
    return _read_blocks(Path(path), LIST_ROWS, keep_lemmatized)[0]


def read_ngram_table(path, min_count: int = 0) -> TermStatsTable:
    """An n-gram count file as a tc-only table: the rows :func:`parse_ngram_counts` yields."""
    if min_count < 0:
        raise ValidationError(f"min_count must be >= 0, got {min_count}")
    return _read_blocks(Path(path), NGRAM_ROWS, min_count=min_count)[0]


def _list_histogram(path, keep_lemmatized: bool) -> dict[int, int]:
    """:func:`frequency_of_frequencies` of ``parse_frequency_list(path, keep_lemmatized)``."""
    table, lemma_counts = _read_blocks(Path(path), LIST_ROWS)
    histogram = Counter(lemma_counts.tolist() if keep_lemmatized else ())
    if len(table) or not histogram:  # an empty table raises "no terms to histogram"
        histogram.update(frequency_of_frequencies(table))
    return dict(histogram)


def _read_blocks(path: Path, layout: RowLayout = STATS_ROWS, keep_lemmatized: bool = False,
                 min_count: int = 0) -> tuple[TermStatsTable, np.ndarray]:
    """Read a stats table, or a list or n-gram file's rows (``layout``) as a tc-only table, in one pass.

    Lemma rows have a key space of their own and join the table's only with
    ``keep_lemmatized``; the counts of those left out come with the table.
    Counts below ``min_count`` are dropped after every check. Each block is
    parsed by :func:`_scan_block`, or else :func:`_parse_lines`. Terms that
    did not ascend are sorted once at the end. Raises at the first bad line in file order.
    """
    columns = len(layout.counts)
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        doc_count = None if columns == 2 else 0  # a table's comes from its header
        terms = bytearray()
        cols = [np.zeros(0, dtype=np.int64) for _ in range(columns)]
        rows = 0
        line_no = 0  # lines before the block
        lemma_terms = bytearray()  # the terms of a list's lemma rows
        lemma_counts = [np.zeros(0, dtype=np.int64)]  # those of the lemma rows left out
        distinct = _Distinct(lambda: bytes(terms).split(b"\n")[:-1])
        lemma_distinct = _Distinct(lambda: bytes(lemma_terms).split(b"\n")[:-1])
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
                    raise fault
                line_no += 1
            if not data.size:
                continue
            scanned = _scan_block(data, line_no, doc_count, layout)
            block_terms, counts, lemma, lines, fault = scanned or _parse_lines(
                path, data, line_no, layout, doc_count)
            line_no += len(lines) if scanned else int(np.count_nonzero(data == _LF))
            if lemma is not None and lemma.any():  # a list block with lemma rows
                buf = np.frombuffer(block_terms, dtype=np.uint8)
                in_lemmas = np.repeat(lemma, np.diff(np.flatnonzero(buf == _LF), prepend=-1))
                lemma_block = buf[in_lemmas].tobytes()
                j = lemma_distinct.repeat(lemma_block.split(b"\n")[:-1])
                if j is not None:  # raised as a bad line is, after any repeat in the table before it
                    fault = layout.duplicate_error(path, lines[np.flatnonzero(lemma)[j]],
                                                   lemma_block.split(b"\n")[j].decode("utf-8"), True)
                lemma_terms += lemma_block
                if not keep_lemmatized:
                    lemma_counts.append(counts[0][lemma])
                    block_terms, counts = buf[~in_lemmas].tobytes(), [count[~lemma] for count in counts]
            keys = block_terms.split(b"\n")[:-1]
            i = distinct.repeat(keys)
            if i is not None:  # the table holds every row, or the rows that are not lemma rows
                line = lines[i if lemma is None or keep_lemmatized else np.flatnonzero(~lemma)[i]]
                if fault is None or line < fault.line_no:
                    raise layout.duplicate_error(path, line, keys[i].decode("utf-8"))
            if fault is not None:
                raise fault
            n = len(keys)
            if rows + n > cols[0].size:
                if stat.S_ISREG(info.st_mode):
                    # room for the rows the rest of the file holds at this block's density
                    capacity = rows + n + int(n * max(info.st_size - fh.tell(), 0) / data.size * 1.05)
                else:  # a pipe, whose size is unknown
                    capacity = 2 * (rows + n)
                for col in cols:
                    col.resize(capacity, refcheck=False)
            for col, count in zip(cols, counts):
                col[rows:rows + n] = count
            rows += n
            terms += block_terms
    if doc_count is None:  # an empty file
        raise ParseError(path, 1, "missing #N=<doc_count> header")
    for col in cols:
        col.resize(rows, refcheck=False)
    if min_count > 1:
        keep = cols[0] >= min_count
        ends = np.flatnonzero(np.frombuffer(terms, dtype=np.uint8) == _LF)
        terms = np.frombuffer(terms, dtype=np.uint8)[np.repeat(keep, np.diff(ends, prepend=-1))]
        cols = [col[keep] for col in cols]
    if distinct.ascending:
        terms = bytes(terms)  # the bytearray is freed before the table indexes the copy
    else:
        terms, order, _ = _sorted_terms([terms])
        cols = [col[order] for col in cols]
    table = TermStatsTable(terms, cols[0], cols[1] if columns == 2 else None, doc_count)
    return table, np.concatenate(lemma_counts)


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
    """(tc, df, doc_count) of :func:`read_stats`, for callers that need no terms."""
    table = read_stats(path)
    return (*table.count_arrays(), table.doc_count)
