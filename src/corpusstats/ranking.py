"""Standard competition ("sports") ranking and ranking comparisons.

rank(item) = 1 + number of items with a strictly greater value, so tied
values share the minimum rank of their group and the sequence looks like
1, 2, 2, 4. Ranking is always by value descending. Competition ranks,
mid-ranks and Kendall's tie counts all come from :func:`_runs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import ValidationError
from .ingest import write_utf8
from .stats import TermStatsTable, iter_rows


@dataclass
class RankedList:
    """Terms with their values and competition ranks, stored columnar.

    Presentation order is value descending with ties broken by term
    ascending; the rank numbers carry all semantics, the tie-break only
    stabilizes output. Iterating yields (term, value, rank) tuples.
    """

    terms: list[str]
    values: np.ndarray
    ranks: np.ndarray

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter_rows(self.terms, self.values, self.ranks)


class OverlapCounts(NamedTuple):
    union_size: int
    intersection_size: int


def _as_vector(values, name: str) -> np.ndarray:
    """A one-dimensional float64 or int64 copy of ``values``, validated."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional")
    if arr.dtype.kind == "f":
        if arr.size and not np.isfinite(arr).all():
            raise ValidationError(f"{name} contains non-finite values")
        return arr.astype(np.float64)
    if arr.size and arr.dtype.kind == "u" and int(arr.max()) > 2**63 - 1:
        raise ValidationError(f"{name} exceeds the int64 limit")
    if arr.dtype.kind not in "iuO":
        raise ValidationError(f"{name} must be numeric, got dtype {arr.dtype}")
    try:
        return arr.astype(np.int64)
    except (OverflowError, TypeError, ValueError):
        raise ValidationError(f"{name} must hold integers within int64 range") from None


def _runs(sorted_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start offsets and lengths of the runs of equal values in a sorted vector."""
    n = sorted_values.size
    is_start = np.empty(n, dtype=bool)
    is_start[:1] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=is_start[1:])
    starts = np.flatnonzero(is_start)
    return starts, np.diff(starts, append=n)


def rank_values(values) -> np.ndarray:
    """Competition rank of each entry of a non-negative integer vector.

    Vectorized; ranks correspond positionally to the input.
    """
    v = _as_vector(values, "values")
    if v.size and (v.dtype.kind == "f" or v.min() < 0):
        raise ValidationError("values must be non-negative integers")
    order = np.argsort(-v, kind="stable")
    starts, lengths = _runs(v[order])
    ranks = np.empty(v.size, dtype=np.int64)
    ranks[order] = np.repeat(starts + 1, lengths)
    return ranks


def fractional_rank(values) -> np.ndarray:
    """Mid-rank (average) ranks, descending: each tie group gets the mean
    of the positions it occupies. Useful as an alternative re-ranking in
    front of the correlation functions; rankings elsewhere in the package
    stay competition-style.
    """
    v = _as_vector(values, "values")
    order = np.argsort(-v, kind="stable")
    starts, lengths = _runs(v[order])
    ranks = np.empty(v.size, dtype=np.float64)
    ranks[order] = np.repeat(starts + (lengths + 1) / 2, lengths)
    return ranks


def sports_rank(pairs: Iterable[tuple[str, int]]) -> RankedList:
    """Rank (term, value) pairs by value descending.

    Values must be non-negative integers up to 2**63 - 1; duplicate terms
    are refused. Deterministic: equal inputs give byte-equal exports.
    """
    values: dict[str, int] = {}
    for term, value in pairs:
        if term in values:
            raise ValidationError(f"duplicate term: {term!r}")
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValidationError(f"value for {term!r} is not an integer: {value!r}")
        if value < 0:
            raise ValidationError(f"value for {term!r} is negative: {value}")
        values[term] = int(value)
    terms = sorted(values)
    try:
        column = np.fromiter((values[t] for t in terms), dtype=np.int64, count=len(terms))
    except OverflowError:
        raise ValidationError("values exceed the int64 limit of 2**63 - 1") from None
    return _rank_sorted_rows(column, lambda order: list(map(terms.__getitem__, order)))


def ranked_by(table: TermStatsTable, by: str = "tc") -> RankedList:
    """Rank a stats table's terms by its tc or df column."""
    if by not in ("tc", "df"):
        raise ValidationError(f"by must be 'tc' or 'df', got {by!r}")
    column = table.count_arrays()[0] if by == "tc" else table.tc_df_arrays()[1]
    return _rank_sorted_rows(column, table.terms_at)


def _rank_sorted_rows(values: np.ndarray, terms_at) -> RankedList:
    """Competition-rank term-sorted rows into presentation order.

    ``terms_at(order)`` gives the terms of the rows ``order`` names. The
    stable sort on -value keeps tied terms in ascending term order.
    """
    order = np.argsort(-values, kind="stable")
    terms = terms_at(order)
    ordered = values[order]
    del order  # freed before the ranks take as much memory again
    starts, lengths = _runs(ordered)
    return RankedList(terms, ordered, np.repeat(starts + 1, lengths))


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
    inside = (ranked.ranks >= lo) & (ranked.ranks <= hi)
    return {ranked.terms[i] for i in np.flatnonzero(inside)}


@dataclass
class AlignedRanks:
    """Per-term tc-rank and df-rank for one table, positionally aligned.

    Terms are in sorted order; tc_ranks[i] and df_ranks[i] belong to
    terms[i]. This is the paired input that rank correlation consumes.
    """

    terms: list[str]
    tc_ranks: np.ndarray
    df_ranks: np.ndarray

    def __len__(self) -> int:
        return len(self.terms)


def align_ranks(table: TermStatsTable) -> AlignedRanks:
    """Rank every term by tc and by df and pair the two ranks per term.

    Both rankings are over the same term set, so no term is dropped and
    the two rank vectors have equal length. Ties are resolved by the
    competition rule independently in each column.
    """
    if len(table) == 0:
        raise ValidationError("empty table: nothing to rank")
    tc, df = table.tc_df_arrays()
    terms = table.terms()
    return AlignedRanks(terms, rank_values(tc), rank_values(df))


def write_ranked_list(ranked: RankedList, path) -> None:
    """Export ``term<TAB>value<TAB>rank`` rows in presentation order."""
    with write_utf8(path) as fh:
        fh.writelines(f"{term}\t{value}\t{rank}\n" for term, value, rank in ranked)


def write_rank_scatter(aligned: AlignedRanks, path) -> None:
    """Export ``rank_tc<TAB>rank_df`` rows, sorted by (rank_tc, rank_df).

    One row per term; terms themselves are omitted, matching what a
    scatter plot of the two rankings needs.
    """
    order = np.lexsort((aligned.df_ranks, aligned.tc_ranks))
    rows = iter_rows(aligned.tc_ranks[order], aligned.df_ranks[order])
    with write_utf8(path) as fh:
        fh.writelines(f"{tc_rank}\t{df_rank}\n" for tc_rank, df_rank in rows)
