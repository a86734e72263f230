"""``stats._encode_rows``, the one row encoder of every table writer,
against the per-row f-strings it replaced.

The encoder is checked on its own, with one to three count columns, with
and without terms, and through ``write_stats``, ``write_ranked_list`` and
``write_rank_scatter`` with chunks of one and three rows, so that rows
straddle chunk edges. Terms mix 1- to 4-byte UTF-8 characters, NUL among
them; counts cover every digit width from 1 to 19.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpusstats import (
    TermStatsTable,
    align_ranks,
    ranked_by,
    sports_rank,
    write_rank_scatter,
    write_ranked_list,
    write_stats,
)
from corpusstats import ranking, stats
from corpusstats.stats import _encode_rows

EDGES = [0, 1, 9, 10, 10**18 - 1, 10**18, 2**63 - 1]
EVERY_WIDTH = [0, *(10**k for k in range(19)), *(10**k - 1 for k in range(2, 19)), 2**63 - 1]

terms = st.text("ab\0é€𝄞", max_size=6)


def of_width(k):
    """The counts of ``k`` digits."""
    return st.integers(10 ** (k - 1) if k > 1 else 0, min(10**k - 1, 2**63 - 1))


counts = st.one_of(st.sampled_from(EDGES), st.integers(1, 19).flatmap(of_width))


def reference(rows, with_terms: bool) -> bytes:
    """The rows as the writers formatted them before the encoder: one f-string per row."""
    return "".join(
        (f"{term}\t" if with_terms else "") + "\t".join(f"{value}" for value in values) + "\n"
        for term, values in rows
    ).encode("utf-8")


@st.composite
def chunks(draw):
    """A chunk of rows: a term and one to three counts each."""
    n_columns = draw(st.integers(1, 3))
    return draw(st.lists(st.tuples(terms, st.lists(counts, min_size=n_columns, max_size=n_columns)),
                         min_size=1, max_size=30))


@settings(max_examples=500, deadline=None)
@given(chunks(), st.booleans())
@example([(term, [value]) for term, value in zip("a\0é€𝄞" * 8, EVERY_WIDTH)], True)
@example([("", [value, value, 2**63 - 1 - value]) for value in EVERY_WIDTH], False)
def test_encoder_matches_f_strings(rows, with_terms):
    columns = [np.array(column, dtype=np.int64) for column in zip(*(values for _, values in rows))]
    term_buffer = np.frombuffer("".join(term + "\n" for term, _ in rows).encode("utf-8"), dtype=np.uint8)
    encoded = _encode_rows(columns, term_buffer if with_terms else None)
    assert encoded == reference(rows, with_terms)


# terms a table can hold: no tab, CR or newline, and a count pair with 1 <= df <= tc
tables = st.dictionaries(
    st.text("ab\0é€𝄞", min_size=1, max_size=6),
    st.tuples(counts, counts).map(lambda pair: (max(pair) or 1, min(pair) or 1)),
    max_size=12,
)


@settings(max_examples=150, deadline=None)
@given(tables, st.sampled_from([1, 3]))
@example({}, 1)
def test_writers_match_f_strings_at_chunk_edges(counts_by_term, rows_per_chunk):
    doc_count = max((df for _, df in counts_by_term.values()), default=0)
    table = TermStatsTable.from_mapping(counts_by_term, doc_count)
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
        for module in (stats, ranking):
            patch.setattr(module, "_ROWS_PER_CHUNK", rows_per_chunk)
        out = Path(tmp)
        write_stats(table, out / "t.stats")
        rows = [(term, list(pair)) for term, pair in table.as_mapping().items()]
        assert (out / "t.stats").read_bytes() == f"#N={table.doc_count}\n".encode() + reference(rows, True)
        ranked_lists = [ranked_by(table, by) for by in ("tc", "df")] if len(table) else [sports_rank([])]
        for ranked in ranked_lists:
            write_ranked_list(ranked, out / "t.rank")
            rows = [(term, [value, rank]) for term, value, rank in ranked]
            assert (out / "t.rank").read_bytes() == reference(rows, True)
        if len(table):
            aligned = align_ranks(table)
            write_rank_scatter(aligned, out / "t.scatter")
            pairs = sorted(zip(aligned.tc_ranks.tolist(), aligned.df_ranks.tolist()))
            assert (out / "t.scatter").read_bytes() == reference([("", pair) for pair in pairs], False)
