"""Standard competition ("sports") ranking and ranking comparisons.

rank(item) = 1 + number of items with a strictly greater value, so tied
values share the minimum rank of their group and the sequence looks like
1, 2, 2, 4. Ranking is always by value descending. Competition ranks,
mid-ranks and Kendall's tie counts all come from :func:`_runs`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import ValidationError
from .ingest import FrequencyListEntry, write_utf8
from .stats import _INT32_MAX, _ROWS_PER_CHUNK, TermStatsTable, _check_fields, _encode_rows, _pick


class RankedList:
    """Terms ranked by one count column, value descending.

    Presentation order is value descending with ties broken by term
    ascending; the rank numbers carry all semantics, the tie-break only
    stabilizes output. The list holds the table whose terms it ranks, the
    ranked column in table row order, the table row of each position
    (int32 up to 2**31 - 1 rows) and the position at which each run of
    equal values starts. Everything else is derived a chunk of positions at
    a time: a position's value is the column at its row, and its
    competition rank is one more than the start of its run. The terms are
    decoded only when read. :attr:`terms`, :attr:`values` and :attr:`ranks`
    build whole columns on each access; iterating yields (term, value,
    rank) tuples, one chunk of rows at a time.
    """

    def __init__(self, table: TermStatsTable, column: np.ndarray, rows: np.ndarray, starts: np.ndarray):
        self._table = table  # the source of the terms
        self._column = column  # the ranked values, in table row order
        self._rows = rows  # the table row of each position
        self._starts = starts  # the first position of each run of equal values

    def __len__(self) -> int:
        return self._rows.size

    @property
    def terms(self) -> list[str]:
        return self.terms_at(slice(None))

    @property
    def values(self) -> np.ndarray:
        return self._column[self._rows]

    @property
    def ranks(self) -> np.ndarray:
        return self._ranks_at(0, len(self))

    def terms_at(self, positions) -> list[str]:
        """The terms at the presentation ``positions`` (indices or a slice), in order."""
        return self._table.terms_at(self._rows[positions])

    def _ranks_at(self, lo: int, hi: int) -> np.ndarray:
        """The competition ranks of positions lo .. hi - 1: one more than the
        start of each one's run, repeated over the run's positions in the range."""
        first, end = np.searchsorted(self._starts, [lo, hi], side="right")
        starts = self._starts[first - 1:end]  # the run holding lo, and every run after it up to hi
        return np.repeat(starts + 1, np.diff(np.append(starts.clip(lo), hi)))

    def _chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The (rows, values, ranks) of each ``_ROWS_PER_CHUNK`` positions, in order."""
        for lo in range(0, len(self), _ROWS_PER_CHUNK):
            rows = self._rows[lo:lo + _ROWS_PER_CHUNK]
            yield rows, self._column[rows], self._ranks_at(lo, lo + rows.size)

    def __iter__(self) -> Iterator[tuple[str, int, int]]:
        for rows, values, ranks in self._chunks():
            yield from zip(self._table.terms_at(rows), values.tolist(), ranks.tolist())


class OverlapCounts(NamedTuple):
    union_size: int
    intersection_size: int


def _as_vector(values, name: str) -> np.ndarray:
    """``values`` as a one-dimensional float64 or int64 array, validated.

    The result is ``values`` itself when it already is such an array, so
    callers only read it.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional")
    if arr.dtype.kind == "f":
        if arr.size and not np.isfinite(arr).all():
            raise ValidationError(f"{name} contains non-finite values")
        return arr.astype(np.float64, copy=False)
    if arr.size and arr.dtype.kind == "u" and int(arr.max()) > 2**63 - 1:
        raise ValidationError(f"{name} exceeds the int64 limit")
    if arr.dtype.kind not in "iuO":
        raise ValidationError(f"{name} must be numeric, got dtype {arr.dtype}")
    try:
        ints = arr.astype(np.int64, copy=False)
    except (OverflowError, TypeError, ValueError):
        ints = None
    if ints is None or (arr.dtype.kind == "O" and (ints != arr).any()):  # a truncated Decimal or Fraction
        raise ValidationError(f"{name} must hold integers within int64 range")
    return ints


def _runs(sorted_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start offsets and lengths of the runs of equal values in a sorted vector."""
    n = sorted_values.size
    is_start = np.empty(n, dtype=bool)
    is_start[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=is_start[1:])
    starts = np.flatnonzero(is_start)
    return starts, np.diff(starts, append=n)


def _competition_ranks(v: np.ndarray) -> np.ndarray:
    """Competition rank of each entry of a vector from :func:`_as_vector`, by value descending."""
    # numpy's argsort slows down about tenfold when many keys tie at the least key, so values with
    # at least as many ties at the top as at the bottom, as ranks have, are sorted ascending
    if v.size and np.count_nonzero(v == v.max()) >= np.count_nonzero(v == v.min()):
        order = np.argsort(v)[::-1]
    else:  # counts, whose ties gather at the bottom
        order = np.argsort(~v if v.dtype.kind == "i" else -v)  # ~v is -v - 1 and never wraps
    starts, lengths = _runs(v[order])  # tied entries get one rank in any order
    ranks = np.empty(v.size, dtype=np.int64)
    ranks[order] = np.repeat(starts + 1, lengths)
    return ranks


def _mid_ranks(ranks: np.ndarray) -> np.ndarray:
    """Mid-ranks from competition ranks: a tie group of L entries at rank r holds r .. r+L-1."""
    mid = ((np.bincount(ranks) - 1) / 2)[ranks]  # half the rest of each entry's tie group
    mid += ranks
    return mid


def rank_values(values) -> np.ndarray:
    """Competition rank of each entry of a non-negative integer vector.

    Vectorized; ranks correspond positionally to the input.
    """
    v = _as_vector(values, "values")
    if v.size and (v.dtype.kind == "f" or v.min() < 0):
        raise ValidationError("values must be non-negative integers")
    return _competition_ranks(v)


def fractional_rank(values) -> np.ndarray:
    """Mid-rank (average) ranks, descending: each tie group gets the mean
    of the positions it occupies: its competition rank plus (L - 1) / 2 for
    a group of L. Useful as an alternative re-ranking in front of the
    correlation functions; rankings elsewhere in the package stay
    competition-style.
    """
    return _mid_ranks(_competition_ranks(_as_vector(values, "values")))


def _sorted_pair_keys(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, int]:
    """The (x, y) pairs of two non-negative integer vectors as keys x * span + y,
    sorted ascending, and span, the largest y + 1: a key's x is ``key // span``
    and its y ``key % span``. The one code that orders rank pairs.
    """
    span = int(y.max()) + 1 if y.size else 1
    if y.size and (min(x.min(), y.min()) < 0 or (int(x.max()) + 1) * span > 2**63):
        raise ValidationError("pair keys need non-negative values whose keys fit in int64")
    keys = x.astype(np.int64)
    keys *= span
    keys += y
    keys.sort()
    return keys, span


def sports_rank(pairs: Iterable[tuple[str, int]]) -> RankedList:
    """Rank (term, value) pairs by value descending.

    Values must be non-negative integers up to 2**63 - 1. The terms are
    refused as :meth:`TermStatsTable.from_entries` refuses them: a repeat,
    a newline or a lone surrogate. Deterministic: equal inputs give
    byte-equal exports.
    """
    def entry(term: str, value) -> FrequencyListEntry:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValidationError(f"value for {term!r} is not an integer: {value!r}")
        if value < 0:
            raise ValidationError(f"value for {term!r} is negative: {value}")
        return FrequencyListEntry(term, int(value))

    table = TermStatsTable.from_entries(entry(term, value) for term, value in pairs)
    return _rank_sorted_rows(table.count_arrays()[0], table)


def ranked_by(table: TermStatsTable, by: str = "tc") -> RankedList:
    """Rank a stats table's terms by its tc or df column; an empty table
    raises ValidationError, as it does for :func:`align_ranks`. The column
    is inverted in place while it is sorted, and restored."""
    if by not in ("tc", "df"):
        raise ValidationError(f"by must be 'tc' or 'df', got {by!r}")
    if len(table) == 0:
        raise ValidationError("empty table: nothing to rank")
    column = table.count_arrays()[0] if by == "tc" else table.tc_df_arrays()[1]
    return _rank_sorted_rows(column, table)


def _rank_sorted_rows(column: np.ndarray, table: TermStatsTable) -> RankedList:
    """The :class:`RankedList` of the rows of ``table`` ranked by ``column``,
    an int64 count column in row order.

    A stable sort on ~value (-value - 1, which never wraps) orders the rows
    by value descending and keeps tied terms in ascending term order. The
    column is inverted in place for that sort and restored after it, so no
    n-row copy of it is made (a read-only column is copied). The list keeps
    the column, the int32 row order and the run starts; the sorted values
    are read once, to find the runs, and never kept.
    """
    keys = column if column.flags.writeable else column.copy()
    np.invert(keys, out=keys)
    try:
        order = np.argsort(keys, kind="stable")
    finally:
        np.invert(keys, out=keys)
    if order.size <= _INT32_MAX:
        order = order.astype(np.int32)  # the list keeps these rows: half the bytes
    starts, _ = _runs(column[order])
    return RankedList(table, column, order, starts)


def ranking_overlap(
    list_a: RankedList,
    list_b: RankedList,
    from_rank: int = 1,
    to_rank: int | None = None,
) -> OverlapCounts:
    """Union and intersection sizes of two rank windows.

    The window [from_rank, to_rank] selects every term whose rank falls in
    the closed interval, so a tie group straddling the boundary is included
    whenever its shared rank is. Window bounds must satisfy
    1 <= from_rank <= to_rank.
    """
    if to_rank is None:
        to_rank = max(len(list_a), len(list_b))
    if not 1 <= from_rank <= to_rank:
        raise ValidationError(f"need 1 <= from_rank <= to_rank, got [{from_rank}, {to_rank}]")
    sel_a = _window_terms(list_a, from_rank, to_rank)
    sel_b = _window_terms(list_b, from_rank, to_rank)
    return OverlapCounts(len(sel_a | sel_b), len(sel_a & sel_b))


def _window_terms(ranked: RankedList, lo: int, hi: int) -> set[str]:
    """The terms ranked lo .. hi: one range of positions, from the first run
    that starts at or after position lo - 1 to the first that starts after hi - 1."""
    n = len(ranked)
    bounds = np.append(ranked._starts, n)
    first, end = bounds[np.searchsorted(ranked._starts, [min(lo - 1, n), min(hi, n)])]
    return set(ranked.terms_at(slice(first, end)))


class AlignedRanks:
    """Per-term tc-rank and df-rank for one table, positionally aligned.

    Terms are in sorted order; tc_ranks[i] and df_ranks[i] belong to
    terms[i]. This is the paired input that rank correlation consumes.
    :attr:`terms` decodes the table's terms on each access.
    """

    def __init__(self, table: TermStatsTable, tc_ranks: np.ndarray, df_ranks: np.ndarray):
        self._table = table
        self.tc_ranks = tc_ranks
        self.df_ranks = df_ranks

    def __len__(self) -> int:
        return self.tc_ranks.size

    @property
    def terms(self) -> list[str]:
        return self._table.terms()


def align_ranks(table: TermStatsTable) -> AlignedRanks:
    """Rank every term by tc and by df and pair the two ranks per term.

    Both rankings are over the same term set, so no term is dropped and
    the two rank vectors have equal length. Ties are resolved by the
    competition rule independently in each column.
    """
    if len(table) == 0:
        raise ValidationError("empty table: nothing to rank")
    tc, df = table.tc_df_arrays()
    return AlignedRanks(table, rank_values(tc), rank_values(df))


def write_ranked_list(ranked: RankedList, path) -> None:
    """Export ``term<TAB>value<TAB>rank`` rows in presentation order."""
    table = ranked._table
    _check_fields(table)
    data = np.frombuffer(table._terms, dtype=np.uint8)
    with write_utf8(path) as fh:
        for rows, values, ranks in ranked._chunks():
            fh.buffer.write(_encode_rows([values, ranks], _pick(data, table._ends, rows)))


def write_rank_scatter(aligned: AlignedRanks, path) -> None:
    """Export ``rank_tc<TAB>rank_df`` rows, sorted by (rank_tc, rank_df).

    One row per term; terms themselves are omitted, matching what a
    scatter plot of the two rankings needs. A negative rank is refused.
    """
    _write_rank_pairs(aligned.tc_ranks, aligned.df_ranks, path)


def _write_rank_pairs(tc_ranks: np.ndarray, df_ranks: np.ndarray, path) -> None:
    """:func:`write_rank_scatter` of two aligned rank vectors, for a caller that holds no terms."""
    keys, span = _sorted_pair_keys(tc_ranks, df_ranks)
    with write_utf8(path) as fh:
        for lo in range(0, keys.size, _ROWS_PER_CHUNK):
            fh.buffer.write(_encode_rows(np.divmod(keys[lo:lo + _ROWS_PER_CHUNK], span)))
