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
import itertools
from bisect import bisect_left
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import ParseError, ValidationError
from .ingest import MAX_COUNT, Document, open_utf8

_SHARD_SIZE = 256  # documents per worker batch when jobs > 1


class TermStatsTable:
    """Columnar tc/df table plus the corpus document count.

    Three aligned columns: the terms in strictly ascending order, and
    their tc and df as int64 arrays. The constructor takes the columns as
    they are; :meth:`from_mapping` builds them from ``term -> (tc, df)``.
    Treated as immutable once built; reads are safe to share across threads.
    """

    __slots__ = ("_terms", "_tc", "_df", "doc_count")

    def __init__(self, terms: list[str], tc: np.ndarray, df: np.ndarray, doc_count: int):
        self._terms = terms
        self._tc = tc
        self._df = df
        self.doc_count = doc_count

    @classmethod
    def from_mapping(cls, counts: Mapping[str, tuple[int, int]], doc_count: int) -> TermStatsTable:
        """Build the sorted columns from a ``term -> (tc, df)`` mapping."""
        terms = sorted(counts)
        try:
            tc = np.fromiter((counts[t][0] for t in terms), dtype=np.int64, count=len(terms))
            df = np.fromiter((counts[t][1] for t in terms), dtype=np.int64, count=len(terms))
        except OverflowError:
            raise ValidationError("a count exceeds 2**63 - 1") from None
        return cls(terms, tc, df, doc_count)

    def __len__(self) -> int:
        return len(self._terms)

    def _index(self, term: str) -> int | None:
        i = bisect_left(self._terms, term)
        return i if i < len(self._terms) and self._terms[i] == term else None

    def __contains__(self, term: str) -> bool:
        return self._index(term) is not None

    def tc(self, term: str) -> int:
        """Total occurrences of ``term``, 0 if unseen."""
        i = self._index(term)
        return 0 if i is None else int(self._tc[i])

    def df(self, term: str) -> int:
        """Number of documents containing ``term``, 0 if unseen."""
        i = self._index(term)
        return 0 if i is None else int(self._df[i])

    def terms(self) -> list[str]:
        """All stored terms in sorted order (the stored column; do not mutate)."""
        return self._terms

    def count_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(tc, df) as parallel int64 arrays in sorted-term order (the stored columns)."""
        return self._tc, self._df

    def as_mapping(self) -> dict[str, tuple[int, int]]:
        """``term -> (tc, df)``, the inverse of :meth:`from_mapping`."""
        return dict(zip(self._terms, zip(self._tc.tolist(), self._df.tolist())))

    def validate(self) -> None:
        """Check the table invariants; raises ValidationError on the first hole."""
        if self.doc_count < 0:
            raise ValidationError(f"doc_count must be >= 0, got {self.doc_count}")
        tc, df = self._tc, self._df
        bad = np.flatnonzero((df < 1) | (df > tc) | (df > self.doc_count))
        if bad.size:
            i = int(bad[0])
            raise ValidationError(
                f"term {self._terms[i]!r}: need 1 <= df <= tc and df <= doc_count,"
                f" got tc={tc[i]} df={df[i]} doc_count={self.doc_count}"
            )


def compute_tc_df(documents: Iterable[Document], jobs: int | None = None) -> TermStatsTable:
    """Aggregate tc and df for every term across ``documents``.

    A term occurring k times in one document adds k to its tc and exactly 1
    to its df. Duplicate or empty document ids are refused. With jobs > 1
    the stream is cut into shards that are tallied concurrently and folded
    into one tally; results are identical to the single pass because
    addition is commutative.
    """
    checked = _checked_ids(documents)
    if jobs is None or jobs <= 1:
        tc, df, n_docs = _tally(checked)
    else:
        tc, df, n_docs = Counter(), Counter(), 0
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            pending = []  # at most jobs * 2 shards in flight, never the whole corpus
            for shard in _shards(checked, _SHARD_SIZE):
                pending.append(pool.submit(_tally, shard))
                if len(pending) >= jobs * 2:
                    n_docs += _fold(tc, df, pending.pop(0).result())
            for fut in pending:
                n_docs += _fold(tc, df, fut.result())
    return TermStatsTable.from_mapping({t: (k, df[t]) for t, k in tc.items()}, n_docs)


def _checked_ids(documents: Iterable[Document]) -> Iterator[Document]:
    seen: set[str] = set()
    for doc in documents:
        if not doc.id:
            raise ValidationError("document id must be non-empty")
        if doc.id in seen:
            raise ValidationError(f"duplicate document id: {doc.id!r}")
        seen.add(doc.id)
        yield doc


def _shards(documents: Iterator[Document], size: int) -> Iterator[list[Document]]:
    while True:
        shard = list(itertools.islice(documents, size))
        if not shard:
            return
        yield shard


def _tally(documents: Iterable[Document]) -> tuple[Counter, Counter, int]:
    tc: Counter = Counter()
    df: Counter = Counter()
    n_docs = 0
    for doc in documents:
        n_docs += 1
        tc.update(doc.tokens)
        df.update(set(doc.tokens))
    return tc, df, n_docs


def _fold(tc: Counter, df: Counter, shard: tuple[Counter, Counter, int]) -> int:
    """Add one shard's tally to ``tc`` and ``df``; returns its document count."""
    tc.update(shard[0])
    df.update(shard[1])
    return shard[2]


def merge(a: TermStatsTable, b: TermStatsTable) -> TermStatsTable:
    """Combine two disjointly-counted tables: counts add, doc_count adds.

    Commutative and associative. A sum above 2**63 - 1 raises ValidationError.
    """
    terms, where = np.unique(np.array(a.terms() + b.terms(), dtype=object), return_inverse=True)
    columns = []
    for col_a, col_b in zip(a.count_arrays(), b.count_arrays()):
        total = np.zeros(len(terms), dtype=np.uint64)  # holds any sum of two int64 counts
        np.add.at(total, where, np.concatenate([col_a, col_b]).astype(np.uint64))
        if total.size and int(total.max()) > MAX_COUNT:
            raise ValidationError("a merged count exceeds 2**63 - 1")
        columns.append(total.astype(np.int64))
    return TermStatsTable(terms.tolist(), *columns, a.doc_count + b.doc_count)


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
    tc, df = table.count_arrays()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"#N={table.doc_count}\n")
        for term, tc_i, df_i in zip(table.terms(), tc.tolist(), df.tolist()):
            if "\t" in term or "\n" in term:
                raise ValidationError(f"term contains a tab or newline: {term!r}")
            fh.write(f"{term}\t{tc_i}\t{df_i}\n")


def read_stats(path) -> TermStatsTable:
    """Parse a stats file written by :func:`write_stats`.

    Round-trips losslessly. Counts are plain ASCII digits up to 2**63 - 1;
    every row needs a non-empty term and 1 <= df <= tc, df <= doc_count.
    Rows may come in any order (they are sorted once if they are not
    ascending) but a term may appear only once. Any violation raises
    ParseError with the line number.
    """
    path = Path(path)
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
    return TermStatsTable(terms, tc_arr, df_arr, doc_count)


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
