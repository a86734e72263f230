"""Acceptance gate: eleven end-to-end checks, one test per criterion.

Each test prints a single ``criterion NN PASS`` line (visible with -s or in
captured output); a failing assertion surfaces as the usual pytest FAILED
line for that criterion. Stated runtime budgets are asserted, not assumed.
"""

import math
import os
import statistics
import time

import numpy as np
import pytest

from corpusstats import (
    DfMode,
    kendall_tau_fast,
    kendall_tau_naive,
    model_from_table,
    idf,
    lexical_signature,
    rank_values,
    ranking_overlap,
    read_stats,
    sports_rank,
    spearman_rho,
    tau_to_rho,
    tf_idf,
    top_terms_by_weight,
    ratio_histogram,
    Rounding,
    TermStatsTable,
    Document,
)
from corpusstats.bench import extrapolate, generate_pairs, time_kernel
from corpusstats.cli import main
from corpusstats.errors import DegenerateInputError

from conftest import SONG_TC_DF, TOP20_TC, TOP20_DF


def _report(num, detail):
    print(f"criterion {num:02d} PASS — {detail}", flush=True)


def quadratic_ranks(values):
    """Reference ranking: 1 + the number of strictly greater values."""
    return [1 + sum(1 for w in values if w > v) for v in values]


def random_table(rng, max_terms=80):
    n_docs = int(rng.integers(2, 41))
    n_terms = int(rng.integers(1, max_terms + 1))
    entries = {}
    for i in range(n_terms):
        tc = int(rng.integers(1, 500))
        df = int(rng.integers(1, min(tc, n_docs) + 1))
        entries[f"t{i:04d}"] = (tc, df)
    return TermStatsTable.from_mapping(entries, n_docs)


def test_criterion_01_count_reproduces_song_table(song_corpus_dir, tmp_path):
    start = time.perf_counter()
    out = tmp_path / "stats.tsv"
    assert main(["count", "--corpus", str(song_corpus_dir), "--out", str(out)]) == 0
    table = read_stats(out)
    elapsed = time.perf_counter() - start
    assert table.doc_count == 5
    assert len(table) == 12
    assert {t: (table.tc(t), table.df(t)) for t in table.terms()} == SONG_TC_DF
    assert elapsed < 1.0
    _report(1, f"count reproduced all 12 tc/df pairs, N=5 ({elapsed:.3f}s)")


def test_criterion_02_sports_ranking_vs_quadratic_oracle():
    start = time.perf_counter()
    assert rank_values(np.array([10, 7, 7, 3])).tolist() == [1, 2, 2, 4]
    ranked = sports_rank([("a", 10), ("b", 7), ("c", 7), ("d", 3)])
    assert list(ranked.ranks) == [1, 2, 2, 4]
    rng = np.random.default_rng(2001)
    for _ in range(1000):
        n = int(rng.integers(1, 501))
        values = rng.integers(0, max(2, n // 3), size=n)
        assert rank_values(values).tolist() == quadratic_ranks(values.tolist())
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"(10,7,7,3)->(1,2,2,4); 1000 random lists matched oracle "
               f"({elapsed:.2f}s)")


def test_criterion_03_top20_overlap():
    by_tc = sports_rank(TOP20_TC)
    by_df = sports_rank(TOP20_DF)
    counts = ranking_overlap(by_tc, by_df, 1, 20)
    assert counts.union_size == 22
    assert counts.intersection_size == 18
    _report(3, "top-20 tc vs df columns: union 22, intersection 18, exact")


def test_criterion_04_kendall_kernels_agree():
    start = time.perf_counter()
    rng = np.random.default_rng(4001)
    trials = 10_000
    degenerate = 0
    for i in range(trials):
        n = int(rng.integers(2, 2001))
        tie_density = (i % 10) * 0.1  # swept 0.0 .. 0.9
        distinct = max(1, int(round(n * (1.0 - tie_density))))
        x = rng.integers(0, distinct + 1, size=n)
        y = rng.integers(0, distinct + 1, size=n)
        try:
            fast = kendall_tau_fast(x, y)
        except DegenerateInputError:
            with pytest.raises(DegenerateInputError):
                kendall_tau_naive(x, y)
            degenerate += 1
            continue
        naive = kendall_tau_naive(x, y)
        assert (fast.concordant, fast.discordant, fast.ties_x, fast.ties_y,
                fast.ties_xy) == (naive.concordant, naive.discordant,
                                  naive.ties_x, naive.ties_y, naive.ties_xy)
        assert abs(fast.tau_a - naive.tau_a) <= 1e-12
        assert abs(fast.tau_b - naive.tau_b) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(4, f"{trials} trials, n<=2000, tie density 0-90%: kernels agreed "
               f"({degenerate} mutually degenerate) ({elapsed:.1f}s)")


def test_criterion_05_spearman_definitional():
    rng = np.random.default_rng(5001)
    # identical vectors -> exactly 1.0
    x = rng.integers(0, 10, size=50)
    x[0], x[1] = 0, 1  # guarantee variance
    assert spearman_rho(rank_values(x), rank_values(x.copy())) == 1.0
    # tie-free reversal -> exactly -1.0
    vals = rng.permutation(np.arange(100))
    flipped = vals.max() + vals.min() - vals
    assert spearman_rho(rank_values(vals), rank_values(flipped)) == -1.0
    # random tied inputs vs the definitional Pearson-on-ranks oracle
    for _ in range(1000):
        n = int(rng.integers(3, 301))
        a = rng.integers(0, max(2, n // 2), size=n)
        b = rng.integers(0, max(2, n // 2), size=n)
        if len(set(a.tolist())) < 2 or len(set(b.tolist())) < 2:
            continue
        oracle = statistics.correlation(
            quadratic_ranks(a.tolist()), quadratic_ranks(b.tolist())
        )
        got = spearman_rho(rank_values(a), rank_values(b))
        assert abs(got - oracle) <= 1e-12
    _report(5, "identical -> 1.0, reversal -> -1.0, 1000 tied inputs within "
               "1e-12 of Pearson-on-ranks")


def test_criterion_06_tau_to_rho_anchor():
    assert abs(tau_to_rho(0.8) - 0.94) <= 0.005
    assert tau_to_rho(0.0) == 0.0
    assert tau_to_rho(1.0) == 1.0
    grid = np.linspace(-1.0, 1.0, 99)
    mapped = [tau_to_rho(float(t)) for t in grid]
    assert all(lo < hi for lo, hi in zip(mapped, mapped[1:]))
    _report(6, f"tau_to_rho(0.8)={tau_to_rho(0.8):.4f} within 0.94±0.005; "
               "fixed points exact; monotone on 99-point grid")


def test_criterion_07_ratio_properties(song_table):
    rng = np.random.default_rng(7001)
    for _ in range(200):
        table = random_table(rng)
        for rounding in Rounding:
            hist = ratio_histogram(table, rounding)
            assert all(float(k) >= 1.0 for k in hist.bins)
    hist_int = ratio_histogram(song_table, Rounding.INTEGER)
    assert hist_int.bins == {1.0: 10, 2.0: 1, 3.0: 1}
    assert hist_int.mean == 1.25
    assert hist_int.median == 1.0
    summaries = {
        (ratio_histogram(song_table, r).mean,
         ratio_histogram(song_table, r).stddev,
         ratio_histogram(song_table, r).median)
        for r in Rounding
    }
    assert len(summaries) == 1
    _report(7, "all bin keys >= 1.0; integer bins {1:10,2:1,3:1}, mean 1.25, "
               "median 1.0; summary stats identical across roundings")


def test_criterion_08_complexity_reproduction():
    naive_curve = time_kernel("naive", [1_000, 2_000, 4_000, 8_000], trials=3)
    assert 1.8 <= naive_curve.fit.exponent <= 2.2

    fast_curve = time_kernel(
        "fast", [100_000, 200_000, 400_000, 800_000], trials=3
    )
    assert 0.9 <= fast_curve.fit.exponent <= 1.3

    x, y = generate_pairs(1_000_000)
    start = time.perf_counter()
    kendall_tau_fast(x, y)
    one_million = time.perf_counter() - start
    assert one_million < 60.0

    x, y = generate_pairs(11_300_000)
    start = time.perf_counter()
    kendall_tau_fast(x, y)
    fast_at_target = time.perf_counter() - start
    naive_at_target = extrapolate(naive_curve, 11_300_000)
    assert naive_at_target >= 1e3 * fast_at_target
    _report(8, f"naive exponent {naive_curve.fit.exponent:.2f} in [1.8,2.2]; "
               f"fast exponent {fast_curve.fit.exponent:.2f} in [0.9,1.3]; "
               f"fast 1e6 in {one_million:.1f}s; naive extrapolated "
               f"{naive_at_target:.0f}s vs fast measured {fast_at_target:.1f}s "
               f"at 11.3M ({naive_at_target / fast_at_target:.0f}x)")


def test_criterion_09_idf_and_signature_properties():
    rng = np.random.default_rng(9001)

    # idf non-increasing in df-hat
    for n_docs in (1, 5, 50):
        values = [
            idf("t", model_from_table(
                TermStatsTable.from_mapping({"t": (1000, d)}, n_docs), DfMode.MEASURED_DF))
            for d in range(1, n_docs + 1)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    # proxy idf never exceeds measured idf on in-vocabulary terms
    for _ in range(1000):
        table = random_table(rng, max_terms=30)
        measured = model_from_table(table, DfMode.MEASURED_DF)
        proxy = model_from_table(table, DfMode.TC_AS_DF)
        for term in table.terms():
            assert idf(term, proxy) <= idf(term, measured)

    # top-k signature equals a full-sort oracle; scaling leaves it unchanged
    for _ in range(1000):
        table = random_table(rng, max_terms=40)
        model = model_from_table(table, DfMode.MEASURED_DF)
        vocab = table.terms()
        tokens = [vocab[i] for i in rng.integers(0, len(vocab),
                                                 size=int(rng.integers(1, 60)))]
        doc = Document("d", tokens)
        k = int(rng.integers(1, 8))
        sig = lexical_signature(doc, model, k)
        weights = {t: tf_idf(t, doc, model) for t in set(tokens)}
        oracle = tuple(
            t for t, _ in sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
        )[:k]
        assert tuple(t for t, _ in sig.terms) == oracle
        plain = [t for t, _ in top_terms_by_weight(weights, k)]
        for scale in (1e-3, 7.25, 1e6):
            scaled = {t: w * scale for t, w in weights.items()}
            assert [t for t, _ in top_terms_by_weight(scaled, k)] == plain
    _report(9, "idf non-increasing in df-hat; proxy <= measured on 1000 "
               "tables; top-k == full sort on 1000 docs; positive scaling "
               "leaves signatures unchanged")


def test_criterion_10_cli_determinism(song_corpus_dir, tmp_path):
    stats = tmp_path / "stats.tsv"
    assert main(["count", "--corpus", str(song_corpus_dir),
                 "--out", str(stats)]) == 0
    doc = tmp_path / "doc.txt"
    doc.write_text("All You Need Is Love\n", encoding="utf-8")

    runs = {
        "count": ["count", "--corpus", str(song_corpus_dir)],
        "rank": ["rank", "--stats", str(stats), "--by", "tc"],
        "correlate": ["correlate", "--stats", str(stats)],
        "ffreq": ["ffreq", "--stats", str(stats)],
        "lexsig": ["lexsig", "--doc", str(doc), "--stats", str(stats),
                   "--k", "3"],
        "compare-sig": ["compare-sig", "--doc", str(doc), "--stats",
                        str(stats), "--k", "3"],
    }
    for name, argv in runs.items():
        first = tmp_path / f"{name}.a"
        second = tmp_path / f"{name}.b"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), name

    for rounding in ("two_decimals", "one_decimal", "integer"):
        a = tmp_path / "ra"
        b = tmp_path / "rb"
        for prefix in (a, b):
            assert main(["ratio", "--stats", str(stats), "--rounding",
                         rounding, "--out-prefix", str(prefix)]) == 0
        assert (tmp_path / f"ra.{rounding}.tsv").read_bytes() == \
               (tmp_path / f"rb.{rounding}.tsv").read_bytes()
        assert (tmp_path / f"ra.{rounding}.summary.tsv").read_bytes() == \
               (tmp_path / f"rb.{rounding}.summary.tsv").read_bytes()

    # bench writes wall-clock measurements, which legitimately differ between
    # runs; its deterministic surface is the generated input data and the
    # file structure (sizes measured, fit/extrapolation lines present).
    xa, ya = generate_pairs(5_000)
    xb, yb = generate_pairs(5_000)
    assert np.array_equal(xa, xb) and np.array_equal(ya, yb)
    for prefix in ("ba", "bb"):
        assert main(["bench", "--kernel", "fast", "--sizes", "500,1000",
                     "--trials", "1",
                     "--out-prefix", str(tmp_path / prefix)]) == 0
    def curve_shape(path):
        lines = path.read_text(encoding="utf-8").splitlines()
        data = [ln.split("\t")[0] for ln in lines if not ln.startswith("#")]
        meta = [ln.split()[0] for ln in lines if ln.startswith("#")]
        return data, meta

    assert curve_shape(tmp_path / "ba.fast.tsv") == \
           curve_shape(tmp_path / "bb.fast.tsv")
    _report(10, "all report-producing commands byte-identical on re-run; "
                "bench inputs and file structure deterministic (timings are "
                "wall-clock)")


@pytest.mark.skipif(
    "CORPUSSTATS_FULL_SCALE_TABLE" not in os.environ,
    reason="optional full-scale check; set CORPUSSTATS_FULL_SCALE_TABLE to a "
           "frequency/DF table of >= 10M terms to run it",
)
def test_criterion_11_full_scale_hook(tmp_path):
    source = os.environ["CORPUSSTATS_FULL_SCALE_TABLE"]
    start = time.perf_counter()
    out = tmp_path / "report.tsv"
    assert main(["correlate", "--stats", source, "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start
    rows = dict(
        line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()
    )
    assert elapsed < 3600.0
    rho = float(rows["spearman_rho"])
    tau_b = float(rows["kendall_tau_b"])
    _report(11, f"n={rows['n']}: rho={rho:.4f}, tau_b={tau_b:.4f} in "
                f"{elapsed:.0f}s; rho >= 0.8 expected for a full-scale "
                f"frequency table but recorded, not asserted "
                f"(observed {'>=' if rho >= 0.8 else '<'} 0.8)")
