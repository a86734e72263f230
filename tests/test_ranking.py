"""Competition ranking, overlap windows, and rank alignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusstats import (
    AlignedRanks,
    TermStatsTable,
    ValidationError,
    align_ranks,
    rank_values,
    ranked_by,
    ranking_overlap,
    sports_rank,
    write_rank_scatter,
    write_ranked_list,
)
from corpusstats import ranking
from conftest import (
    RANKS_101_120_DF,
    RANKS_101_120_TC,
    SONG_ALIGNED_RANKS,
    TOP20_DF,
    TOP20_TC,
)


def quadratic_ranks(values):
    """Independent oracle: rank = 1 + count of strictly greater values."""
    return [1 + sum(1 for w in values if w > v) for v in values]


class TestSportsRank:
    def test_documented_example(self):
        ranked = sports_rank([("a", 10), ("b", 7), ("c", 7), ("d", 3)])
        assert [(t, v, r) for t, v, r in ranked] == [
            ("a", 10, 1), ("b", 7, 2), ("c", 7, 2), ("d", 3, 4),
        ]

    def test_all_tied(self):
        ranked = sports_rank([("a", 5), ("b", 5), ("c", 5)])
        assert list(ranked.ranks) == [1, 1, 1]

    def test_rank_after_tie_group_skips(self):
        ranked = sports_rank([("a", 9), ("b", 9), ("c", 9), ("d", 1)])
        assert list(ranked.ranks) == [1, 1, 1, 4]

    def test_tied_terms_presented_alphabetically(self):
        ranked = sports_rank([("zeta", 7), ("alpha", 7), ("mid", 9)])
        assert ranked.terms == ["mid", "alpha", "zeta"]

    def test_empty_input(self):
        assert len(sports_rank([])) == 0

    def test_duplicate_term_rejected(self):
        with pytest.raises(ValidationError):
            sports_rank([("a", 1), ("a", 2)])

    @pytest.mark.parametrize("term, message", [("a\nb", r"term contains a newline: 'a\\nb'"),
                                               ("\ud800", r"a term is not valid Unicode \(lone surrogate\)")],
                             ids=["newline", "lone_surrogate"])
    def test_terms_a_table_refuses_are_rejected(self, term, message):
        """A newline would split the exported row in two; a lone surrogate cannot be written."""
        with pytest.raises(ValidationError, match=message):
            sports_rank([(term, 2), ("c", 1)])

    def test_negative_and_non_integer_values_rejected(self):
        with pytest.raises(ValidationError):
            sports_rank([("a", -1)])
        with pytest.raises(ValidationError):
            sports_rank([("a", 1.5)])
        with pytest.raises(ValidationError):
            sports_rank([("a", True)])

    def test_random_lists_match_quadratic_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 120))
            alphabet = max(1, int(rng.integers(1, n + 1)))  # force ties often
            values = [int(v) for v in rng.integers(0, alphabet, n)]
            terms = [f"t{i}" for i in range(n)]
            ranked = sports_rank(zip(terms, values))
            by_term = {t: r for t, _, r in ranked}
            oracle = quadratic_ranks(values)
            assert [by_term[f"t{i}"] for i in range(n)] == oracle


class TestRankValues:
    def test_matches_quadratic_oracle_on_random_vectors(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 200))
            values = rng.integers(0, max(1, n // 2), n)
            assert rank_values(values).tolist() == quadratic_ranks(values.tolist())

    def test_positions_follow_input_order(self):
        assert rank_values([3, 10, 7, 7]).tolist() == [4, 1, 2, 2]

    def test_empty(self):
        assert rank_values([]).size == 0

    def test_rejects_negatives_floats_and_overflow(self):
        with pytest.raises(ValidationError):
            rank_values([-1, 2])
        with pytest.raises(ValidationError):
            rank_values(np.array([1.5, 2.0]))
        with pytest.raises(ValidationError):
            rank_values([2**63, 1])
        with pytest.raises(ValidationError):
            rank_values(np.array([[1, 2]]))


class TestRankedBy:
    def test_by_tc_and_df_use_the_right_column(self, song_table):
        by_tc = ranked_by(song_table, "tc")
        by_df = ranked_by(song_table, "df")
        tc_rank = {t: r for t, _, r in by_tc}
        df_rank = {t: r for t, _, r in by_df}
        assert tc_rank["long"] == 1 and df_rank["long"] == 4
        assert tc_rank["love"] == 2 and df_rank["love"] == 1

    def test_unknown_column_rejected(self, song_table):
        with pytest.raises(ValidationError):
            ranked_by(song_table, "idf")


def _with_fillers(column, n_fillers=100):
    """Prepend n_fillers dummy terms with strictly larger values, pushing
    the given column down to ranks n_fillers+1 .. n_fillers+len(column)."""
    top = column[0][1]
    fillers = [(f"filler{i:03d}", top + n_fillers - i) for i in range(n_fillers)]
    return fillers + list(column)


def reference_ranking(terms, column):
    """Terms, values and competition ranks of a stable argsort on -value."""
    order = np.argsort(-np.array(column, dtype=np.int64), kind="stable")
    values = [column[i] for i in order]
    return [terms[i] for i in order], values, quadratic_ranks(values)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.text("abc", min_size=1, max_size=4),
                       st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=30),
       st.sampled_from([1, 3]), st.integers(1, 35), st.integers(0, 35))
def test_lazy_columns_and_windows_match_a_stable_argsort(counts, rows_per_chunk, lo, width):
    """The values and ranks a list derives from its row order and run starts,
    one chunk or all at once, and the windows taken from the run starts."""
    table = TermStatsTable.from_mapping({t: (max(a, b), min(a, b)) for t, (a, b) in counts.items()}, 4)
    columns = [column.copy() for column in table.count_arrays()]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ranking, "_ROWS_PER_CHUNK", rows_per_chunk)
        lists = [ranked_by(table, by) for by in ("tc", "df")]
        windows = []
        for ranked, column in zip(lists, columns):
            terms, values, ranks = reference_ranking(table.terms(), column.tolist())
            assert ranked.values.tolist() == values and ranked.ranks.tolist() == ranks
            assert ranked.terms == terms and list(ranked) == list(zip(terms, values, ranks))
            windows.append({t for t, r in zip(terms, ranks) if lo <= r <= lo + width})
        overlap = ranking_overlap(*lists, lo, lo + width)
    assert overlap == (len(windows[0] | windows[1]), len(windows[0] & windows[1]))
    # the sort inverted each column in place and restored it
    assert all(np.array_equal(a, b) for a, b in zip(table.count_arrays(), columns))


class TestRankingOverlap:
    def test_top20_window(self):
        overlap = ranking_overlap(sports_rank(TOP20_TC), sports_rank(TOP20_DF), 1, 20)
        assert overlap.union_size == 22
        assert overlap.intersection_size == 18

    def test_window_101_to_120(self):
        list_tc = sports_rank(_with_fillers(RANKS_101_120_TC))
        list_df = sports_rank(_with_fillers(RANKS_101_120_DF))
        overlap = ranking_overlap(list_tc, list_df, 101, 120)
        assert overlap.union_size == 33
        assert overlap.intersection_size == 7

    def test_tie_group_straddles_window_edge(self):
        # b and c share rank 2; a window ending at 2 includes both
        left = sports_rank([("a", 10), ("b", 7), ("c", 7), ("d", 3)])
        right = sports_rank([("a", 10), ("b", 7), ("x", 7), ("d", 3)])
        overlap = ranking_overlap(left, right, 1, 2)
        assert overlap.union_size == 4  # a, b, c, x
        assert overlap.intersection_size == 2  # a, b

    def test_disjoint_windows(self):
        left = sports_rank([("a", 3), ("b", 2)])
        right = sports_rank([("c", 3), ("d", 2)])
        overlap = ranking_overlap(left, right, 1, 2)
        assert overlap.union_size == 4 and overlap.intersection_size == 0

    def test_default_window_covers_everything(self):
        left = sports_rank([("a", 3), ("b", 2)])
        right = sports_rank([("b", 9), ("c", 2)])
        overlap = ranking_overlap(left, right)
        assert overlap.union_size == 3 and overlap.intersection_size == 1

    def test_bad_window_rejected(self):
        ranked = sports_rank([("a", 1)])
        with pytest.raises(ValidationError):
            ranking_overlap(ranked, ranked, 0, 5)
        with pytest.raises(ValidationError):
            ranking_overlap(ranked, ranked, 5, 2)


class TestAlignRanks:
    def test_song_table_oracle(self, song_table):
        aligned = align_ranks(song_table)
        got = {
            term: (int(aligned.tc_ranks[i]), int(aligned.df_ranks[i]))
            for i, term in enumerate(aligned.terms)
        }
        assert got == SONG_ALIGNED_RANKS

    def test_long_outranks_on_tc_but_not_df(self, song_table):
        aligned = align_ranks(song_table)
        i = aligned.terms.index("long")
        assert aligned.tc_ranks[i] == 1
        assert aligned.df_ranks[i] == 4

    def test_vectors_are_aligned_and_complete(self, song_table):
        aligned = align_ranks(song_table)
        assert len(aligned) == len(song_table)
        assert len(aligned.terms) == aligned.tc_ranks.size == aligned.df_ranks.size

    def test_empty_table_rejected(self):
        empty = TermStatsTable.from_mapping({}, 0)
        with pytest.raises(ValidationError):
            align_ranks(empty)
        for by in ("tc", "df"):
            with pytest.raises(ValidationError, match="empty table: nothing to rank"):
                ranked_by(empty, by)


class TestExports:
    def test_ranked_list_file_layout(self, tmp_path):
        ranked = sports_rank([("a", 10), ("b", 7), ("c", 7), ("d", 3)])
        path = tmp_path / "ranked.tsv"
        write_ranked_list(ranked, path)
        assert path.read_text(encoding="utf-8") == (
            "a\t10\t1\nb\t7\t2\nc\t7\t2\nd\t3\t4\n"
        )

    @pytest.mark.parametrize("term", ["a\tb", "c\rd"])
    def test_ranked_list_refuses_a_term_that_would_split_its_row(self, term, tmp_path):
        ranked = sports_rank([(term, 2), ("e", 1)])
        with pytest.raises(ValidationError):
            write_ranked_list(ranked, tmp_path / "ranked.tsv")
        assert list(tmp_path.iterdir()) == []

    def test_scatter_file_layout(self, song_table, tmp_path):
        path = tmp_path / "scatter.tsv"
        write_rank_scatter(align_ranks(song_table), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 12
        pairs = [tuple(map(int, line.split("\t"))) for line in lines]
        assert pairs == sorted(pairs)
        assert pairs[0] == (1, 4)   # the tc-rank-1 term
        assert pairs.count((6, 4)) == 7

    @pytest.mark.parametrize("rows_per_chunk", [1, 3])
    def test_scatter_pairs_follow_lexsort(self, rows_per_chunk, monkeypatch, tmp_path):
        monkeypatch.setattr(ranking, "_ROWS_PER_CHUNK", rows_per_chunk)
        rng = np.random.default_rng(rows_per_chunk)
        cases = []
        for n, distinct in ((1, 1), (2, 1), (7, 3), (50, 6), (50, 50)):
            tc = rng.integers(1, distinct + 1, n)
            df = np.minimum(tc, rng.integers(1, distinct + 1, n))
            table = TermStatsTable.from_mapping(
                {f"t{i:03d}": (int(a), int(b)) for i, (a, b) in enumerate(zip(tc, df))}, int(df.max()))
            cases.append(align_ranks(table))
        # a hand-built pair of rankings whose ranks exceed n; the keys' span comes from the data
        cases.append(AlignedRanks(table, rng.integers(1, 10**9, 50), rng.integers(1, 10**9, 50)))
        cases.append(AlignedRanks(table, rng.integers(1, 4, 50) * 10**6, rng.integers(1, 4, 50)))
        path = tmp_path / "scatter.tsv"
        for aligned in cases:
            write_rank_scatter(aligned, path)
            order = np.lexsort((aligned.df_ranks, aligned.tc_ranks))
            pairs = zip(aligned.tc_ranks[order].tolist(), aligned.df_ranks[order].tolist())
            assert path.read_text(encoding="utf-8") == "".join(f"{x}\t{y}\n" for x, y in pairs)

    @pytest.mark.parametrize("tc_ranks, df_ranks", [([1, -2], [1, 2]), ([1, 2], [-1, 2]),
                                                    ([2**32, 1], [1, 2**31])],
                             ids=["negative_tc", "negative_df", "keys_beyond_int64"])
    def test_scatter_refuses_pairs_it_cannot_key(self, tc_ranks, df_ranks, song_table, tmp_path):
        aligned = AlignedRanks(song_table, np.array(tc_ranks), np.array(df_ranks))
        with pytest.raises(ValidationError):
            write_rank_scatter(aligned, tmp_path / "scatter.tsv")
        assert list(tmp_path.iterdir()) == []
