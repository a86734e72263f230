"""Spearman, Kendall (both kernels), conversion, and significance."""

import math
import statistics
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from corpusstats import (
    CurvePoint,
    DegenerateInputError,
    ValidationError,
    correlation_report,
    fractional_rank,
    kendall_tau_fast,
    kendall_tau_naive,
    prefix_correlation_curve,
    rank_values,
    rho_significance,
    spearman_rho,
    spearman_rho_shortcut,
    tau_to_rho,
)
from corpusstats import correlation
from corpusstats.correlation import write_curve
from conftest import SONG_ALIGNED_RANKS

SONG_TC_RANKS = [pair[0] for pair in SONG_ALIGNED_RANKS.values()]
SONG_DF_RANKS = [pair[1] for pair in SONG_ALIGNED_RANKS.values()]

# frozen oracle values for the song-corpus rank pairs (12 terms)
SONG_RHO = 0.6225430174794672          # statistics.correlation on the ranks
SONG_TAU_B = 0.5547001962252291        # 2/sqrt(13)
SONG_TAU_A = 0.2727272727272727        # 18/66
SONG_PAIR_COUNTS = (21, 3, 3, 15, 24)  # C, D, TX, TY, TXY (sum 66)


def random_tied_pairs(rng, max_n=300):
    n = int(rng.integers(2, max_n))
    alphabet = max(1, int(rng.integers(1, n + 1)))
    x = rng.integers(0, alphabet, n)
    y = rng.integers(0, alphabet, n)
    return x, y


def double_loop_counts(x, y):
    """C, D, TX, TY and TXY of the pairs i < j, each pair compared in Python."""
    counts = [0] * 5
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            dx = (x[i] > x[j]) - (x[i] < x[j])
            dy = (y[i] > y[j]) - (y[i] < y[j])
            if dx and dy:
                counts[0 if dx == dy else 1] += 1
            else:
                counts[2 if dy else 3 if dx else 4] += 1
    return tuple(counts)


class TestSpearman:
    def test_identical_vectors_give_exactly_one(self):
        ranks = [1, 2, 2, 4, 5, 5, 5, 8]
        assert spearman_rho(ranks, ranks) == 1.0

    def test_tie_free_reversal_gives_exactly_minus_one(self):
        x = list(range(1, 11))
        assert spearman_rho(x, x[::-1]) == -1.0

    def test_song_ranks_frozen_value(self):
        assert spearman_rho(SONG_TC_RANKS, SONG_DF_RANKS) == SONG_RHO

    def test_matches_pearson_on_ranks_oracle(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 200:
            x, y = random_tied_pairs(rng)
            if len(set(x.tolist())) < 2 or len(set(y.tolist())) < 2:
                continue
            want = statistics.correlation(
                [float(v) for v in x], [float(v) for v in y]
            )
            assert abs(spearman_rho(x, y) - want) <= 1e-12
            checked += 1

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateInputError):
            spearman_rho([1, 1, 1], [1, 2, 3])
        with pytest.raises(DegenerateInputError):
            spearman_rho([1, 2, 3], [7, 7, 7])

    def test_too_short_rejected(self):
        with pytest.raises(DegenerateInputError):
            spearman_rho([1], [1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            spearman_rho([1, 2], [1, 2, 3])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            spearman_rho([1.0, float("nan")], [1.0, 2.0])

    def test_non_integer_objects_are_refused_not_truncated(self):
        # astype(np.int64) would truncate these, so they are refused
        decimals = [Decimal("1.2"), Decimal("1.7"), Decimal("3")]
        for call in (lambda: kendall_tau_fast(decimals, [1, 2, 3]),
                     lambda: spearman_rho(decimals, [1, 2, 3]),
                     lambda: rank_values([Decimal("1.5"), 1]),
                     lambda: fractional_rank([Fraction(1, 3), Fraction(2, 3), 5])):
            with pytest.raises(ValidationError, match="must hold integers within int64 range"):
                call()
        assert fractional_rank([Fraction(4, 2), 5]).tolist() == [2.0, 1.0]

    def test_result_always_within_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x, y = random_tied_pairs(rng)
            try:
                rho = spearman_rho(x, y)
            except DegenerateInputError:
                continue
            assert -1.0 <= rho <= 1.0


class TestSpearmanShortcut:
    def test_agrees_with_pearson_when_tie_free(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 100))
            x = rng.permutation(n) + 1
            y = rng.permutation(n) + 1
            assert abs(spearman_rho_shortcut(x, y) - spearman_rho(x, y)) <= 1e-9

    def test_biased_under_ties(self):
        # the shortcut visibly diverges on the tied song ranks
        shortcut = spearman_rho_shortcut(SONG_TC_RANKS, SONG_DF_RANKS)
        assert abs(shortcut - SONG_RHO) > 0.01


class TestFractionalRank:
    def test_documented_example(self):
        assert fractional_rank([10, 7, 7, 3]).tolist() == [1.0, 2.5, 2.5, 4.0]

    def test_all_tied_get_midpoint(self):
        assert fractional_rank([5, 5, 5]).tolist() == [2.0, 2.0, 2.0]

    def test_matches_rankdata_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 150))
            half = max(1, n // 2)
            # tied non-negative and negative integers, tied floats and untied floats, and
            # integers whose largest tie group is at the bottom, as counts have, or at the
            # top, as ranks have, which sort in opposite directions
            for v in (rng.integers(0, half, n), rng.integers(-half, half, n),
                      rng.integers(-half, half, n) / 4, rng.normal(size=n),
                      np.maximum(rng.integers(0, n, n), n // 2), np.minimum(rng.integers(0, n, n), n // 2)):
                want = sps.rankdata(-v, method="average")
                assert np.array_equal(fractional_rank(v), want)

    def test_the_least_int64_ranks_last(self):
        # -v wraps at -2**63 and would put it first
        assert fractional_rank([-2**63, 0, 5]).tolist() == [3.0, 2.0, 1.0]
        assert fractional_rank([2**63 - 1, -2**63, -2**63]).tolist() == [1.0, 2.5, 2.5]

    def test_empty(self):
        assert fractional_rank([]).size == 0


class TestKendallKernels:
    def test_perfect_agreement(self):
        for kernel in (kendall_tau_naive, kendall_tau_fast):
            counts = kernel([1, 2, 3, 4], [10, 20, 30, 40])
            assert counts.concordant == 6 and counts.discordant == 0
            assert counts.tau_a == 1.0 and counts.tau_b == 1.0

    def test_perfect_reversal(self):
        for kernel in (kendall_tau_naive, kendall_tau_fast):
            counts = kernel([1, 2, 3, 4], [9, 7, 5, 3][: 4])
            assert counts.tau_a == -1.0 and counts.tau_b == -1.0

    def test_song_ranks_frozen_counts(self):
        for kernel in (kendall_tau_naive, kendall_tau_fast):
            c = kernel(SONG_TC_RANKS, SONG_DF_RANKS)
            got = (c.concordant, c.discordant, c.ties_x, c.ties_y, c.ties_xy)
            assert got == SONG_PAIR_COUNTS
            assert c.tau_b == SONG_TAU_B
            assert abs(c.tau_a - SONG_TAU_A) <= 1e-15

    def test_pair_categories_partition_all_pairs(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            x, y = random_tied_pairs(rng)
            try:
                c = kendall_tau_fast(x, y)
            except DegenerateInputError:
                continue
            total = c.concordant + c.discordant + c.ties_x + c.ties_y + c.ties_xy
            assert total == c.total_pairs == len(x) * (len(x) - 1) // 2

    def test_kernels_agree_everywhere(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            ints = random_tied_pairs(rng)
            # correlate --fractional feeds float mid-ranks to the kernels
            mid_ranks = (fractional_rank(ints[0]), fractional_rank(ints[1]))
            for x, y in (ints, mid_ranks):
                try:
                    a = kendall_tau_naive(x, y)
                except DegenerateInputError:
                    with pytest.raises(DegenerateInputError):
                        kendall_tau_fast(x, y)
                    continue
                b = kendall_tau_fast(x, y)
                assert (a.concordant, a.discordant, a.ties_x, a.ties_y, a.ties_xy) == (
                    b.concordant, b.discordant, b.ties_x, b.ties_y, b.ties_xy
                )
                assert a.tau_a == b.tau_a
                assert a.tau_b == b.tau_b

    def test_against_scipy(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            x, y = random_tied_pairs(rng)
            try:
                c = kendall_tau_fast(x, y)
            except DegenerateInputError:
                continue
            want = sps.kendalltau(x, y).statistic
            assert abs(c.tau_b - want) <= 1e-12

    def test_against_scipy_at_one_million(self):
        # a third tau-b oracle at a size the naive kernel cannot reach;
        # about 3,000 distinct x values and 1,200 distinct y values
        rng = np.random.default_rng(2008)
        n = 1_000_000
        x = rng.integers(0, 3000, n)
        y = x // 3 + rng.integers(0, 200, n)
        # and their float mid-ranks, as correlate --fractional passes them
        for xs, ys in ((x, y), (fractional_rank(x), fractional_rank(y))):
            got = kendall_tau_fast(xs, ys).tau_b
            want = sps.kendalltau(xs, ys).statistic
            assert abs(got - want) <= 1e-12

    # (n, n_x, n_y) with n_x * n_y just below, at and just above 4n
    @pytest.mark.parametrize("n, n_x, n_y", [(86, 7, 49), (86, 8, 43), (86, 15, 23),
                                             (86, 49, 7), (86, 23, 15)])
    def test_histogram_and_merge_counters_agree(self, n, n_x, n_y, monkeypatch):
        histogram = []
        counter = correlation._histogram_counts
        monkeypatch.setattr(correlation, "_histogram_counts",
                            lambda *args: histogram.append(args) or counter(*args))
        rng = np.random.default_rng(n_x * n_y)
        for _ in range(20):
            # every code occurs at least once, so the codes are dense
            x_code = rng.permutation(np.append(np.arange(n_x), rng.integers(0, n_x, n - n_x)))
            y_code = rng.permutation(np.append(np.arange(n_y), rng.integers(0, n_y, n - n_y)))
            assert correlation._histogram_counts(x_code, y_code, n_x, n_y) == (
                correlation._merge_counts(x_code, y_code)
            )
            # competition ranks are coded from their counts directly; mid-ranks,
            # other floats and integers outside [0, n] are ranked first
            for x, y, sign in ((rank_values(x_code), rank_values(y_code), -1),
                               (fractional_rank(x_code), fractional_rank(y_code), -1),
                               (x_code * 0.37 - 5, y_code * 1.9 + 0.1, 1),
                               (x_code * 1000 - 7, y_code * 1000 - 7, 1)):
                for values, want in ((x, sign * x_code), (y, sign * y_code)):
                    codes, k, tied = correlation._dense_codes(values)
                    _, want_codes, want_lengths = np.unique(want, return_inverse=True,
                                                            return_counts=True)
                    assert np.array_equal(codes, want_codes)
                    assert k == want_lengths.size
                    assert tied == int((want_lengths * (want_lengths - 1) // 2).sum())
                histogram.clear()
                x_before, y_before = x.copy(), y.copy()
                assert kendall_tau_fast(x, y) == kendall_tau_naive(x, y)
                assert len(histogram) == (n_x * n_y <= 4 * n)
                # the kernel's in-place steps work on its own arrays only
                assert np.array_equal(x, x_before) and x.dtype == x_before.dtype
                assert np.array_equal(y, y_before) and y.dtype == y_before.dtype

    def test_counters_on_empty_and_one_group_codes(self):
        empty = np.zeros(0, dtype=np.int64)
        assert correlation._histogram_counts(empty, empty, 0, 0) == (0, 0)
        assert correlation._merge_counts(empty, empty) == (0, 0)
        one_group = np.zeros(5, dtype=np.int64)
        spread = np.array([3, 0, 4, 1, 2])
        for x_code, y_code, n_x, n_y in ((one_group, one_group, 1, 1), (one_group, spread, 1, 5),
                                         (spread, one_group, 5, 1)):
            tied_both = 10 if n_x == n_y else 0  # all 5 * 4 / 2 pairs, or none
            assert correlation._histogram_counts(x_code, y_code, n_x, n_y) == (0, tied_both)
            assert correlation._merge_counts(x_code, y_code) == (0, tied_both)
        up = np.arange(5)
        assert correlation._histogram_counts(up, up[::-1], 5, 5) == (10, 0)
        assert correlation._merge_counts(up, up[::-1]) == (10, 0)

    def test_naive_block_size_is_irrelevant(self):
        rng = np.random.default_rng(13)
        x, y = random_tied_pairs(rng, max_n=120)
        reference = kendall_tau_naive(x, y)
        for block in (1, 3, 17, 1000):
            got = kendall_tau_naive(x, y, block=block)
            assert got == reference

    @pytest.mark.parametrize("n, block", [(1, 256), (9, 2), (300, 256), (1000, 256), (1300, 500)])
    def test_naive_tiles_meet_each_pair_once_and_only_squares_twice(self, n, block):
        met, squares = np.zeros((n, n), dtype=np.int64), np.zeros((n, n), dtype=np.int64)
        for i0, i1, j0, j1, square in correlation._naive_tiles(n, block):
            met[i0:i1, j0:j1] += 1
            if square:
                assert (i0, i1) == (j0, j1)
                squares[i0:i1, j0:j1] += 1
        assert (np.triu(met, 1) == np.triu(np.ones_like(met), 1)).all()  # each pair i < j once
        assert (np.tril(met) == np.tril(squares)).all()  # met both ways only inside a square
        assert np.count_nonzero(squares) <= n * correlation._NAIVE_STRIP

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(2, 60), alphabets=st.tuples(st.integers(1, 8), st.integers(1, 8)),
           mid_ranks=st.booleans(), block=st.sampled_from([1, 2, 3, 7, None]))
    def test_naive_kernel_matches_a_double_loop(self, data, n, alphabets, mid_ranks, block):
        # a third count, independent of both kernels; blocks below, at and
        # not dividing n, and the default, which exceeds every n drawn here
        x, y = (data.draw(st.lists(st.integers(0, top), min_size=n, max_size=n)) for top in alphabets)
        if mid_ranks:  # correlate --fractional feeds float mid-ranks to the kernels
            x, y = fractional_rank(x).tolist(), fractional_rank(y).tolist()
        conc, disc, tx, ty, txy = want = double_loop_counts(x, y)
        try:
            got = kendall_tau_naive(x, y, block=block)
        except DegenerateInputError:
            assert conc + disc + ty == 0 or conc + disc + tx == 0  # every pair tied in x, or in y
            return
        assert (got.concordant, got.discordant, got.ties_x, got.ties_y, got.ties_xy) == want
        assert got.tau_a == (conc - disc) / (n * (n - 1) // 2)

    def test_naive_kernel_compares_values_whose_difference_overflows(self):
        # 2**62 + 5 - (-2**62 - 5) exceeds int64: the pair must stay concordant
        x, y = np.array([-2**62 - 5, 2**62 + 5, 0]), np.array([1, 2, 3])
        got = kendall_tau_naive(x, y)
        assert (got.concordant, got.discordant) == (2, 1)
        assert got == kendall_tau_fast(x, y)

    def test_entirely_tied_vector_rejected(self):
        for kernel in (kendall_tau_naive, kendall_tau_fast):
            with pytest.raises(DegenerateInputError):
                kernel([5, 5, 5], [1, 2, 3])

    def test_minimal_n(self):
        for kernel in (kendall_tau_naive, kendall_tau_fast):
            assert kernel([1, 2], [3, 9]).tau_b == 1.0
            with pytest.raises(DegenerateInputError):
                kernel([1], [1])

    def test_float_rank_inputs_supported(self):
        # fractional ranks are floats; both kernels must accept them
        x = fractional_rank([10, 7, 7, 3])
        y = fractional_rank([9, 9, 2, 1])
        a = kendall_tau_naive(x, y)
        b = kendall_tau_fast(x, y)
        assert a == b

    def test_fast_kernel_larger_sample(self):
        rng = np.random.default_rng(99)
        x = rng.integers(0, 2000, 5000)
        y = x + rng.integers(0, 500, 5000)
        a = kendall_tau_naive(x, y)
        b = kendall_tau_fast(x, y)
        assert a == b
        assert b.tau_b > 0.5  # construction is strongly concordant


class TestTauToRho:
    def test_anchor_near_094(self):
        assert abs(tau_to_rho(0.8) - 0.94) <= 0.005

    def test_fixed_points_exact(self):
        assert tau_to_rho(0.0) == 0.0
        assert tau_to_rho(1.0) == 1.0
        assert tau_to_rho(-1.0) == -1.0

    def test_odd_symmetry(self):
        for t in np.linspace(0, 1, 51):
            assert tau_to_rho(-float(t)) == -tau_to_rho(float(t))

    def test_monotone_on_grid(self):
        grid = np.linspace(-1.0, 1.0, 99)
        values = [tau_to_rho(float(t)) for t in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_magnitude_never_shrinks(self):
        for t in np.linspace(-1.0, 1.0, 41):
            assert abs(tau_to_rho(float(t))) >= abs(float(t)) - 1e-15

    def test_domain_errors(self):
        for bad in (1.5, -1.0000001, float("nan")):
            with pytest.raises(ValidationError):
                tau_to_rho(bad)
        with pytest.raises(ValidationError):
            tau_to_rho("0.5")


def brute_force_exact_p(rho, n):
    """Independent oracle: fraction of rank permutations at least as
    extreme, via the tie-free shortcut formula and exact fractions."""
    from itertools import permutations

    denominator = n * (n * n - 1)
    hits = total = 0
    for perm in permutations(range(1, n + 1)):
        ssd = sum((i + 1 - v) ** 2 for i, v in enumerate(perm))
        rho_perm = 1 - Fraction(6 * ssd, denominator)
        if abs(rho_perm) >= abs(rho) - 1e-12:
            hits += 1
        total += 1
    return hits / total


def brute_force_tied_exact_p(x, y):
    """Independent oracle: fraction of orderings of the observed y ranks
    whose covariance with x is at least as extreme, in exact fractions."""
    from itertools import permutations

    x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
    mean_x, mean_y = sum(x) / len(x), sum(y) / len(y)

    def covariance(ys):
        return abs(sum((a - mean_x) * (b - mean_y) for a, b in zip(x, ys)))

    observed = covariance(y)
    orderings = list(permutations(y))
    return sum(covariance(ys) >= observed for ys in orderings) / len(orderings)


class TestRhoSignificance:
    def test_exact_n8_frozen_case(self):
        # y = [1,3,2,5,4,7,6,8] against identity: ssd = 6, rho = 13/14
        rho = 1 - 6 * 6 / (8 * 63)
        assert rho_significance(rho, 8, method="exact") == 90 / 40320

    def test_exact_matches_brute_force_small_n(self):
        for n, rho in [(4, 0.9), (5, -0.7), (6, 0.371428), (7, 1.0)]:
            want = brute_force_exact_p(rho, n)
            assert rho_significance(rho, n, method="exact") == pytest.approx(want, abs=1e-15)

    def test_exact_null_keeps_the_observed_ties(self):
        # competition ranks with ties in both vectors; the tie-free null of
        # 1..8 gives 0.0022 here, the orderings of these y ranks 24/5040
        x = (1, 2, 2, 4, 4, 4, 7, 8)
        y = (1, 1, 3, 3, 5, 5, 7, 7)
        report = correlation_report(x, y)
        assert report.p_value_rho == 24 / 5040
        assert report.p_value_rho == brute_force_tied_exact_p(x, y)
        assert rho_significance(report.spearman_rho, 8, ranks=(x, y)) == 24 / 5040

    def test_exact_matches_brute_force_on_tied_ranks(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(3, 8))
            x = fractional_rank(rng.integers(0, 3, n)).tolist()
            y = rank_values(rng.integers(0, 4, n)).tolist()
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            rho = spearman_rho(x, y)
            got = rho_significance(rho, n, ranks=(x, y))
            assert got == pytest.approx(brute_force_tied_exact_p(x, y), abs=1e-15), (x, y)

    def test_ranks_must_hold_n_pairs(self):
        with pytest.raises(ValidationError):
            rho_significance(0.5, 5, ranks=([1, 2, 3], [3, 2, 1]))

    def test_auto_dispatch(self):
        assert rho_significance(0.5, 10) == rho_significance(0.5, 10, method="exact")
        assert rho_significance(0.5, 11) == rho_significance(0.5, 11, method="approx")

    def test_approx_matches_t_distribution(self):
        rho, n = 0.62, 30
        t = rho * math.sqrt((n - 2) / (1 - rho * rho))
        want = 2 * float(sps.t.sf(t, n - 2))
        assert rho_significance(rho, n, method="approx") == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [11, 30, 1_000, 82_160, 11_300_000])
    def test_approx_is_the_t_tail_bit_for_bit(self, n):
        # the correlate report prints repr(p), so its bytes depend on every bit;
        # half the grid is on the t scale, where p is above the 2.2e-16 floor
        rng = np.random.default_rng(n)
        t_scale = np.clip(rng.uniform(-8.0, 8.0, 100) / math.sqrt(n), -0.999, 0.999)
        grid = np.concatenate((rng.uniform(-1.0, 1.0, 100), t_scale, [0.0, 0.8, -0.8, 1e-9]))
        for r in grid.tolist():
            t = r * math.sqrt((n - 2) / (1 - r * r))
            want = max(min(2 * float(sps.t.sf(abs(t), n - 2)), 1.0), 2.2e-16)
            assert rho_significance(r, n, method="approx") == want, (r, n)

    @pytest.mark.parametrize("n", [11, 12, 30, 1_000, 82_134, 400_000, 11_300_000])
    def test_floor_shortcut_is_the_t_tail_bit_for_bit(self, n):
        # a dense grid of t from p = 1e-13, through the floor, to where the
        # tail bound lets the p-value skip scipy, and past that
        from scipy.special import stdtr

        df = n - 2
        t_bounded = float(next(t for t in np.geomspace(1.0, 1e12, 20_000)
                               if correlation._log_t_tail_bound(t, df)
                               < correlation._LOG_CERTAINLY_FLOORED))
        t_low = float(next(t for t in np.geomspace(1.0, 1e12, 20_000) if 2 * stdtr(df, -t) < 1e-13))
        t_grid = np.geomspace(t_low, 4 * t_bounded, 2_000)
        rhos = np.append(t_grid / np.sqrt(df + t_grid * t_grid), np.nextafter(1.0, 0.0))
        for r in (*rhos.tolist(), *(-rhos).tolist()):
            t = r * math.sqrt(df / (1 - r * r))
            want = max(min(2.0 * float(stdtr(df, -abs(t))), 1.0), correlation.P_VALUE_FLOOR)
            assert rho_significance(r, n, method="approx") == want, (r, n)

    def test_exact_and_approx_stay_close_at_the_boundary(self):
        for rho in (0.3, 0.6, 0.9):
            exact = rho_significance(rho, 10, method="exact")
            approx = rho_significance(rho, 10, method="approx")
            assert abs(exact - approx) <= 0.05

    def test_two_sided_symmetry(self):
        for n in (6, 25):
            assert rho_significance(0.7, n) == rho_significance(-0.7, n)

    def test_floor_applied(self):
        assert rho_significance(1.0, 1000) == 2.2e-16
        assert rho_significance(0.9999, 500, method="approx") == 2.2e-16

    def test_never_above_one(self):
        assert rho_significance(0.0, 9) <= 1.0
        assert rho_significance(0.0, 50) <= 1.0

    def test_errors(self):
        with pytest.raises(ValidationError):
            rho_significance(1.5, 10)
        with pytest.raises(ValidationError):
            rho_significance(float("nan"), 10)
        with pytest.raises(DegenerateInputError):
            rho_significance(0.5, 1)
        with pytest.raises(ValidationError):
            rho_significance(0.5, 11, method="exact")
        with pytest.raises(DegenerateInputError):
            rho_significance(0.5, 3, method="approx")
        with pytest.raises(ValidationError):
            rho_significance(0.5, 10, method="bayes")


class TestPrefixCurve:
    def test_points_match_direct_computation(self):
        rng = np.random.default_rng(17)
        x = np.sort(rng.integers(0, 100, 400))
        y = x + rng.integers(0, 40, 400)
        checkpoints = [10, 50, 200, 400]
        points = prefix_correlation_curve(x, y, checkpoints)
        assert [p.checkpoint for p in points] == checkpoints
        for p in points:
            assert p.rho == spearman_rho(x[: p.checkpoint], y[: p.checkpoint])
            assert p.tau_b == kendall_tau_fast(x[: p.checkpoint], y[: p.checkpoint]).tau_b

    def test_degenerate_prefix_skipped_with_warning(self):
        x = [1, 1, 1, 1, 2, 3]
        y = [4, 5, 6, 7, 8, 9]
        with pytest.warns(UserWarning):
            points = prefix_correlation_curve(x, y, [4, 6])
        assert [p.checkpoint for p in points] == [6]

    def test_tiny_checkpoint_skipped_with_warning(self):
        with pytest.warns(UserWarning):
            points = prefix_correlation_curve([1, 2, 3], [1, 2, 3], [1, 3])
        assert [p.checkpoint for p in points] == [3]

    def test_checkpoint_validation(self):
        with pytest.raises(ValidationError):
            prefix_correlation_curve([1, 2, 3], [1, 2, 3], [3, 2])
        with pytest.raises(ValidationError):
            prefix_correlation_curve([1, 2, 3], [1, 2, 3], [2, 9])

    def test_curve_export_layout(self, tmp_path):
        points = [CurvePoint(2, 0.5, 0.25), CurvePoint(4, -1.0, -1.0)]
        path = tmp_path / "curve.tsv"
        write_curve(points, path)
        assert path.read_text(encoding="utf-8") == "2\t0.5\t0.25\n4\t-1.0\t-1.0\n"


class TestCorrelationReport:
    def test_song_ranks_report(self):
        report = correlation_report(SONG_TC_RANKS, SONG_DF_RANKS)
        assert report.n == 12
        assert report.spearman_rho == SONG_RHO
        assert report.kendall_tau_b == SONG_TAU_B
        assert abs(report.kendall_tau_a - SONG_TAU_A) <= 1e-15
        assert (report.concordant, report.discordant) == (21, 3)
        assert (report.ties_x, report.ties_y, report.ties_xy) == (3, 15, 24)
        assert report.rho_estimated_from_tau == tau_to_rho(SONG_TAU_B)
        assert report.p_value_rho == rho_significance(SONG_RHO, 12)
        assert report.spearman_rho_shortcut is None

    def test_diagnostic_shortcut_included_on_request(self):
        report = correlation_report(SONG_TC_RANKS, SONG_DF_RANKS, diagnostic_shortcut=True)
        assert report.spearman_rho_shortcut == spearman_rho_shortcut(
            SONG_TC_RANKS, SONG_DF_RANKS
        )


class TestFractionalSwitch:
    """``fractional=True`` on competition ranks gives what the mid-ranks themselves give."""

    @settings(max_examples=150, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 40)), min_size=2, max_size=60),
           data=st.data())
    def test_report_and_curve_equal_those_of_the_mid_ranks(self, pairs, data):
        x, y = (rank_values(column) for column in zip(*pairs))
        mid_x, mid_y = fractional_rank([-r for r in x]), fractional_rank([-r for r in y])
        assert np.array_equal(mid_x, correlation._mid_ranks(x))

        def report(*args, **kwargs):
            return outcome(lambda a, b: correlation_report(a, b, True, **kwargs), *args)
        assert report(x, y, fractional=True) == report(mid_x, mid_y)

        order = np.lexsort((y, x))  # the curve's pairs ascend in x
        cps = data.draw(st.lists(st.integers(0, len(pairs)), unique=True).map(sorted))

        def curve(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                points = prefix_correlation_curve(*args, cps, **kwargs)
            return points, [str(w.message) for w in caught]
        assert curve(x[order], y[order], fractional=True) == curve(mid_x[order], mid_y[order])

    @pytest.mark.parametrize("x", [[1.0, 2.0, 3.0], [0, 1, 2], [1, 2, 4]], ids=["floats", "zero", "above-n"])
    def test_only_competition_ranks_are_taken(self, x):
        with pytest.raises(ValidationError, match="competition ranks"):
            correlation_report(x, [1, 2, 3], fractional=True)
        with pytest.raises(ValidationError, match="competition ranks"):
            prefix_correlation_curve([1, 2, 3], x, [3], fractional=True)


# Every function that takes value vectors, called with (x, y). The vectors
# may come back from _as_vector uncopied, so none of them may write into its input.
READ_ONLY_CALLS = {
    "rank_values": lambda x, y: rank_values(x),
    "fractional_rank": lambda x, y: fractional_rank(x),
    "spearman_rho": spearman_rho,
    "spearman_rho_shortcut": spearman_rho_shortcut,
    "kendall_tau_fast": kendall_tau_fast,
    "kendall_tau_naive": kendall_tau_naive,
    "prefix_correlation_curve": lambda x, y: prefix_correlation_curve(
        x, y, sorted({2, len(x) // 2, len(x)} - {0, 1})),
    "correlation_report": lambda x, y: correlation_report(x, y, diagnostic_shortcut=True),
    "correlation_report_fractional": lambda x, y: correlation_report(x, y, True, fractional=True),
    "prefix_correlation_curve_fractional": lambda x, y: prefix_correlation_curve(
        x, y, sorted({2, len(x) // 2, len(x)} - {0, 1}), fractional=True),
    "rho_significance": lambda x, y: rho_significance(0.5, len(x), "exact", ranks=(x, y)),
}


def outcome(call, x, y):
    """What ``call`` returns, as comparable values, or the error it raises."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # degenerate curve prefixes
            result = call(x, y)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(result, np.ndarray):
        return result.dtype, result.tolist()
    return result


def read_only(values, dtype):
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False  # a write raises ValueError
    return arr


class TestInputsAreOnlyRead:
    @settings(max_examples=60, deadline=None)
    @given(pairs=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=2, max_size=8),
           dtype=st.sampled_from([np.int64, np.float64]))
    def test_read_only_arrays_give_what_lists_and_int32_copies_give(self, pairs, dtype):
        xs, ys = (list(column) for column in zip(*pairs))
        x, y = read_only(xs, dtype), read_only(ys, dtype)
        for name, call in READ_ONLY_CALLS.items():
            got = outcome(call, x, y)
            assert got == outcome(call, x.tolist(), y.tolist()), name
            if dtype is np.int64:
                assert got == outcome(call, x.astype(np.int32), y.astype(np.int32)), name
