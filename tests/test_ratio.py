"""tc/df ratio histograms and the three display roundings."""

import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusstats import (
    RatioHistogram,
    Rounding,
    TermStatsTable,
    ValidationError,
    compute_ratios,
    ratio_histogram,
    round_ratio,
    write_stats,
)
from corpusstats.cli import main
from corpusstats.ratio import _ratio_histograms, write_histogram, write_ratio_summary


def random_table(rng, max_terms=60):
    n = int(rng.integers(1, max_terms))
    entries = {}
    for i in range(n):
        df = int(rng.integers(1, 40))
        tc = df + int(rng.integers(0, 200))
        entries[f"t{i:03d}"] = (tc, df)
    return TermStatsTable.from_mapping(entries, doc_count=50)


class TestRoundRatio:
    def test_two_decimals_rounds_half_up_on_the_decimal_string(self):
        # repr(1.225) == '1.225' even though the double is slightly below;
        # the string is what gets rounded, so the .5 goes up
        assert round_ratio(1.225, Rounding.TWO_DECIMALS) == 1.23
        assert round_ratio(1.2249, Rounding.TWO_DECIMALS) == 1.22
        assert round_ratio(29 / 20, Rounding.TWO_DECIMALS) == 1.45

    def test_one_decimal_rounds_half_up(self):
        assert round_ratio(1.45, Rounding.ONE_DECIMAL) == 1.5
        assert round_ratio(1.44, Rounding.ONE_DECIMAL) == 1.4
        assert round_ratio(2.25, Rounding.ONE_DECIMAL) == 2.3
        assert round_ratio(3.0, Rounding.ONE_DECIMAL) == 3.0

    def test_integer_rounds_half_to_even(self):
        assert round_ratio(1.5, Rounding.INTEGER) == 2.0
        assert round_ratio(2.5, Rounding.INTEGER) == 2.0
        assert round_ratio(3.5, Rounding.INTEGER) == 4.0
        assert round_ratio(1.49, Rounding.INTEGER) == 1.0

    def test_accepts_plain_strings_for_mode(self):
        assert round_ratio(1.006, "two_decimals") == 1.01


class TestRatioHistogram:
    def test_song_table_integer_bins(self, song_table):
        hist = ratio_histogram(song_table, Rounding.INTEGER)
        assert hist.bins == {1.0: 10, 2.0: 1, 3.0: 1}
        assert hist.mean == 1.25
        assert hist.median == 1.0
        assert hist.stddev == statistics.pstdev([1.0] * 10 + [2.0, 3.0])
        assert hist.mode == 1.0

    def test_song_table_decimal_bins(self, song_table):
        hist = ratio_histogram(song_table, Rounding.TWO_DECIMALS)
        assert hist.bins == {1.0: 10, 2.0: 1, 3.0: 1}

    def test_every_bin_key_at_least_one(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            table = random_table(rng)
            for mode in Rounding:
                hist = ratio_histogram(table, mode)
                assert min(hist.bins) >= 1.0

    def test_bin_counts_sum_to_term_count(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            table = random_table(rng)
            for mode in Rounding:
                hist = ratio_histogram(table, mode)
                assert hist.term_total == len(table)

    def test_summary_stats_identical_across_modes(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            table = random_table(rng)
            summaries = {
                (h.mean, h.stddev, h.median)
                for h in (ratio_histogram(table, mode) for mode in Rounding)
            }
            assert len(summaries) == 1

    def test_summary_matches_definitional_oracle(self):
        rng = np.random.default_rng(23)
        table = random_table(rng, max_terms=40)
        ratios = [tc / df for tc, df in table.as_mapping().values()]
        hist = ratio_histogram(table, Rounding.INTEGER)
        assert hist.mean == pytest.approx(statistics.fmean(ratios), abs=1e-12)
        assert hist.stddev == pytest.approx(statistics.pstdev(ratios), abs=1e-12)
        assert hist.median == pytest.approx(statistics.median(ratios), abs=1e-12)

    def test_integer_bins_regroup_one_decimal_bins_away_from_halves(self):
        # Integer binning of a value and integer binning of its one-decimal
        # binning agree except inside [k+0.44, k+0.56), where the two
        # documented rules (half-up on the string, then half-even) can
        # disagree with direct half-even rounding. Stay clear of that strip
        # and the regrouping identity must hold exactly.
        rng = np.random.default_rng(31)
        entries = {}
        i = 0
        while len(entries) < 200:
            df = int(rng.integers(1, 30))
            tc = df + int(rng.integers(0, 400))
            frac = (tc / df) % 1.0
            if 0.44 <= frac < 0.56:
                continue
            entries[f"t{i:04d}"] = (tc, df)
            i += 1
        table = TermStatsTable.from_mapping(entries, doc_count=30)
        one_decimal = ratio_histogram(table, Rounding.ONE_DECIMAL)
        integer = ratio_histogram(table, Rounding.INTEGER)
        regrouped = {}
        for key, count in one_decimal.bins.items():
            target = round_ratio(key, Rounding.INTEGER)
            regrouped[target] = regrouped.get(target, 0) + count
        assert regrouped == integer.bins

    def test_mode_tie_break_is_smallest_key(self):
        table = TermStatsTable.from_mapping({"a": (2, 1), "b": (3, 1)}, 5)
        hist = ratio_histogram(table, Rounding.INTEGER)
        assert hist.bins == {2.0: 1, 3.0: 1}
        assert hist.mode == 2.0

    def test_empty_table_rejected(self):
        with pytest.raises(ValidationError):
            ratio_histogram(TermStatsTable.from_mapping({}, 0), Rounding.INTEGER)

    def test_compute_ratios_validates_invariants(self):
        with pytest.raises(ValidationError):
            compute_ratios(TermStatsTable.from_mapping({"x": (1, 2)}, 5))


class TestRatioExports:
    def test_histogram_file_uses_mode_precision(self, song_table, tmp_path):
        hist2 = ratio_histogram(song_table, Rounding.TWO_DECIMALS)
        hist1 = ratio_histogram(song_table, Rounding.ONE_DECIMAL)
        hist0 = ratio_histogram(song_table, Rounding.INTEGER)
        p2, p1, p0 = (tmp_path / f"h{i}.tsv" for i in range(3))
        write_histogram(hist2, p2)
        write_histogram(hist1, p1)
        write_histogram(hist0, p0)
        assert p2.read_text(encoding="utf-8") == "1.00\t10\n2.00\t1\n3.00\t1\n"
        assert p1.read_text(encoding="utf-8") == "1.0\t10\n2.0\t1\n3.0\t1\n"
        assert p0.read_text(encoding="utf-8") == "1\t10\n2\t1\n3\t1\n"

    def test_summary_file_layout(self, song_table, tmp_path):
        hist = ratio_histogram(song_table, Rounding.INTEGER)
        path = tmp_path / "summary.tsv"
        write_ratio_summary(hist, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "mean\t1.25"
        assert lines[2] == "median\t1.0"
        assert lines[3] == "mode\t1"
        assert lines[4] == "terms\t12"


# --- the one-pass histograms against the per-rounding reference ---------------

def reference_histogram(table, rounding):
    """The histogram as it was built once per rounding: ``np.median`` and
    ``np.unique`` of the unsorted ratios, and ``round_ratio`` per distinct value."""
    rounding = Rounding(rounding)
    tc, df = table.tc_df_arrays()
    ratios = tc.astype(np.float64) / df.astype(np.float64)
    mean = float(ratios.mean())
    stddev = float(np.sqrt(np.mean((ratios - mean) ** 2)))
    median = float(np.median(ratios))
    distinct, counts = np.unique(ratios, return_counts=True)
    binned = {}
    for value, count in zip(distinct.tolist(), counts.tolist()):
        key = round_ratio(value, rounding)
        binned[key] = binned.get(key, 0) + count
    return RatioHistogram(rounding, dict(sorted(binned.items())), mean, stddev, median)


# Half-way ratios (1.005, 1.225, 2.5, 1.5, 3.5), and 1.001 and 1.002, which share every bin.
SPECIAL_PAIRS = [(201, 200), (49, 40), (5, 2), (3, 2), (7, 2), (1001, 1000), (1002, 1000)]

count_pairs = st.one_of(
    st.sampled_from(SPECIAL_PAIRS),
    st.integers(1, 60).flatmap(lambda df: st.tuples(st.integers(df, 30 * df), st.just(df))),
    st.integers(1, 2**62).flatmap(lambda df: st.tuples(st.integers(df, 2**63 - 1), st.just(df))),
)
count_columns = st.one_of(
    st.lists(count_pairs, min_size=1, max_size=40),
    st.tuples(count_pairs, st.integers(1, 9)).map(lambda pair_n: [pair_n[0]] * pair_n[1]),  # one ratio
)


def pairs_table(pairs):
    return TermStatsTable.from_mapping({f"t{i:03d}": pair for i, pair in enumerate(pairs)},
                                       doc_count=max(df for _, df in pairs))


@settings(max_examples=300, deadline=None)
@given(pairs=count_columns)
def test_one_pass_histograms_equal_the_per_rounding_reference(pairs):
    table = pairs_table(pairs)
    want = [reference_histogram(table, mode) for mode in Rounding]
    for got in (_ratio_histograms(compute_ratios(table), list(Rounding)),
                [ratio_histogram(table, mode) for mode in Rounding]):
        assert got == want
        assert [list(hist.bins.items()) for hist in got] == [list(hist.bins.items()) for hist in want]


@pytest.mark.parametrize("pairs", [[(5, 2)], [(201, 200), (49, 40)], [(1001, 1000), (1002, 1000), (3, 1)],
                                   [(49, 40)] * 4], ids=["one-row", "even", "one-bin", "all-equal"])
def test_one_pass_histograms_on_the_named_cases(pairs):
    table = pairs_table(pairs)
    assert _ratio_histograms(compute_ratios(table), list(Rounding)) == [
        reference_histogram(table, mode) for mode in Rounding]


def test_rounding_all_writes_the_files_of_each_single_rounding(tmp_path):
    rng = np.random.default_rng(3)
    df = rng.integers(1, 300, 5_000)
    tc = df + rng.integers(0, 900, df.size) * (rng.random(df.size) < 0.6)
    stats = tmp_path / "table.stats"
    terms = "".join(f"t{i:05d}\n" for i in range(df.size)).encode("ascii")
    write_stats(TermStatsTable(terms, tc, df, 300), stats)
    assert main(["ratio", "--stats", str(stats), "--out-prefix", str(tmp_path / "all")]) == 0
    for mode in Rounding:
        assert main(["ratio", "--stats", str(stats), "--rounding", mode.value,
                     "--out-prefix", str(tmp_path / mode.value)]) == 0
        for ext in (".tsv", ".summary.tsv"):
            alone = (tmp_path / f"{mode.value}.{mode.value}{ext}").read_bytes()
            assert (tmp_path / f"all.{mode.value}{ext}").read_bytes() == alone, (mode, ext)
    assert len(list(tmp_path.glob("*.tsv"))) == 12
