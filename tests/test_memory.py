"""A memory budget for each stage that reads a whole stats table or frequency list.

Each stage runs through ``cli.main`` under ``tracemalloc``, which numpy
reports its array buffers to, and its traced peak is measured in int64
columns of the table's n rows (n * 8 bytes). The table is heavily tied,
as rank columns of real corpora are, so that ``kendall_tau_fast`` counts
from the (x, y) histogram. A bound sits a little above what the stage
holds today; a change that keeps one more n-row array alive than a later
step reads crosses it.
"""

import tracemalloc

import numpy as np
import pytest

from corpusstats import TermStatsTable, fractional_rank, kendall_tau_fast, write_stats
from corpusstats.bench import generate_pairs
from corpusstats.cli import main

N = 200_000

# stage -> (arguments after --stats TABLE, peak bound in int64 columns of n)
BUDGETS = {
    "correlate": (["correlate", "--out", "{out}/report.tsv"], 4.2),
    "correlate_curve": (["correlate", "--out", "{out}/report.tsv", "--curve-out", "{out}/curve.tsv",
                         "--checkpoints", "1000,10000,100000,200000"], 4.2),
    "correlate_fractional": (["correlate", "--fractional", "--out", "{out}/report.tsv"], 4.2),
    "correlate_fractional_curve": (["correlate", "--fractional", "--out", "{out}/report.tsv",
                                    "--curve-out", "{out}/curve.tsv",
                                    "--checkpoints", "1000,10000,100000,200000"], 5.2),
    "rank_by": (["rank", "--by", "tc", "--out", "{out}/rank.tsv"], 4.6),
    "rank_by_df": (["rank", "--by", "df", "--out", "{out}/rank.tsv"], 4.6),
    "rank_overlap": (["rank", "--overlap", "1", "20", "--out", "{out}/overlap.tsv"], 5.6),
    # a window of every rank: one mask of the table's rows, where sets of its terms took 45 columns
    "rank_overlap_wide": (["rank", "--overlap", "1", str(N), "--out", "{out}/overlap.tsv"], 5.6),
    "rank_scatter": (["rank", "--scatter", "--out", "{out}/scatter.tsv"], 4.2),
    "ratio": (["ratio", "--out-prefix", "{out}/ratio"], 3.9),
    "ffreq": (["ffreq", "--out", "{out}/ffreq.tsv"], 3.9),
}


def tied_counts():
    """tc and df of N rows, with at most 500 distinct values each."""
    rng = np.random.default_rng(7)
    tc = np.minimum(np.floor(rng.pareto(1.1, N) + 1).astype(np.int64), 500)
    df = np.maximum(np.floor(tc / (1.0 + rng.pareto(1.2, N))).astype(np.int64), 1)
    return tc, df


@pytest.fixture(scope="module")
def tied_table(tmp_path_factory):
    """A term-sorted table of N rows with at most 500 distinct tc and df values."""
    tc, df = tied_counts()
    terms = "".join(f"t{i:07d}\n" for i in range(N)).encode("ascii")
    path = tmp_path_factory.mktemp("memory") / "tied.stats"
    write_stats(TermStatsTable(terms, tc, df, 500), path)
    return path


def call_peak(call) -> int:
    """Bytes traced at the peak of ``call()`` above what was traced before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def traced_peak(argv) -> int:
    """Bytes traced at the peak of ``main(argv)`` above what was traced before it."""
    def run():
        assert main(argv) == 0
    return call_peak(run)


@pytest.mark.parametrize("stage", sorted(BUDGETS))
def test_stage_peak_within_budget(stage, tied_table, tmp_path):
    args, bound = BUDGETS[stage]
    argv = [args[0], "--stats", str(tied_table), *(arg.format(out=tmp_path) for arg in args[1:])]
    columns = traced_peak(argv) / (N * 8)
    assert columns <= bound, f"{stage} peaked at {columns:.2f} int64 columns of n, above {bound}"


def tie_free_pairs():
    """A tie-free permutation of range(N) against a noisy copy of it."""
    rng = np.random.default_rng(5)
    x = rng.permutation(N)
    return x, np.argsort(np.argsort(x + rng.integers(0, N // 8, N), kind="stable"))


def test_tie_free_correlate_peak_within_budget(tmp_path):
    """``correlate`` of a table without ties, whose Kendall counts take the merge path."""
    x, y = tie_free_pairs()
    terms = "".join(f"t{i:07d}\n" for i in range(N)).encode("ascii")
    table = tmp_path / "tie_free.stats"
    write_stats(TermStatsTable(terms, N + x, 1 + y, N), table)
    columns = traced_peak(["correlate", "--stats", str(table), "--out", str(tmp_path / "report.tsv")]) / (N * 8)
    assert columns <= 6.3, f"tie-free correlate peaked at {columns:.2f} int64 columns of n, above 6.3"


# kendall_tau_fast's inputs -> peak bound in int64 columns of n
KERNEL_BUDGETS = {"tie_free_ints": 3.4, "tie_free_floats": 4.6, "generate_pairs_mid_ranks": 3.4}


def kernel_pairs(case):
    """N pairs on which kendall_tau_fast merges: a tie-free permutation against a
    noisy copy of it, the same as floats, and the mid-ranks of generate_pairs."""
    x, y = tie_free_pairs()
    if case == "tie_free_ints":
        return x, y
    if case == "tie_free_floats":
        return x / N, y * 0.5 + 0.25
    return tuple(fractional_rank(v) for v in generate_pairs(N))


@pytest.mark.parametrize("case", sorted(KERNEL_BUDGETS))
def test_kendall_merge_peak_within_budget(case):
    """The fast kernel alone; the tied table above only takes its histogram path."""
    x, y = kernel_pairs(case)
    bound = KERNEL_BUDGETS[case]
    columns = call_peak(lambda: kendall_tau_fast(x, y)) / (N * 8)
    assert columns <= bound, f"kendall_tau_fast on {case} peaked at {columns:.2f} int64 columns of n, above {bound}"


# ffreq flags after --freq-list LIST -> peak bound in int64 columns of n. The
# block reader holds the list's terms, tc column and the lemma rows' counts,
# and indexes no term; the line loop held a set of every surface term, near
# 16 columns with --keep-lemmatized.
LIST_BUDGETS = {
    "ffreq_freq_list": ([], 3.1),
    "ffreq_freq_list_keep_lemmatized": (["--keep-lemmatized"], 3.1),
}


@pytest.fixture(scope="module")
def lemma_list(tmp_path_factory):
    """A term-sorted list of N surface rows, a tenth of them followed by a lemma row of their term."""
    rng = np.random.default_rng(7)
    tc = np.minimum(np.floor(rng.pareto(1.1, N) + 1).astype(np.int64), 500)
    lemma = rng.random(N) < 0.1
    path = tmp_path_factory.mktemp("memory") / "lemmas.freq"
    with open(path, "w", encoding="utf-8") as fh:
        for i, (count, flag) in enumerate(zip(tc.tolist(), lemma.tolist())):
            fh.write(f"t{i:07d}\t{count}\n" + (f"t{i:07d}\t{count}\tL\n" if flag else ""))
    return path


@pytest.mark.parametrize("stage", sorted(LIST_BUDGETS))
def test_list_stage_peak_within_budget(stage, lemma_list, tmp_path):
    flags, bound = LIST_BUDGETS[stage]
    argv = ["ffreq", "--freq-list", str(lemma_list), *flags, "--out", str(tmp_path / "ffreq.tsv")]
    columns = traced_peak(argv) / (N * 8)
    assert columns <= bound, f"{stage} peaked at {columns:.2f} int64 columns of n, above {bound}"


@pytest.fixture(scope="module")
def tied_ngrams(tmp_path_factory):
    """The N rows of the tied table as an n-gram file: ``token<TAB>tc``."""
    tc, _ = tied_counts()
    path = tmp_path_factory.mktemp("memory") / "tied.ngram"
    path.write_text("".join(f"t{i:07d}\t{count}\n" for i, count in enumerate(tc.tolist())), encoding="utf-8")
    return path


def test_ngram_min_count_peak_within_budget(tied_ngrams, tmp_path):
    """The ``--min-count`` cut finds the kept terms' bytes without an int64 index of every newline."""
    columns = traced_peak(["ffreq", "--ngram", str(tied_ngrams), "--min-count", "3",
                           "--out", str(tmp_path / "ffreq.tsv")]) / (N * 8)
    assert columns <= 5.4, f"ffreq --ngram --min-count peaked at {columns:.2f} int64 columns of n, above 5.4"


# Stages of out-of-order input -> peak bound in int64 columns of n. The
# reader keeps each row's line from the first block whose rows do not
# ascend, and the one sort that orders the terms finds a repeated term too;
# a set of every term beside that sort peaked above 22 columns.
SHUFFLED_BUDGETS = {
    "ffreq_stats": (["ffreq", "--stats", "{table}", "--out", "{out}/ffreq.tsv"], 15.0),
    "rank_by": (["rank", "--stats", "{table}", "--by", "tc", "--out", "{out}/rank.tsv"], 15.0),
    "ffreq_freq_list": (["ffreq", "--freq-list", "{list}", "--out", "{out}/ffreq.tsv"], 15.0),
}


@pytest.fixture(scope="module")
def shuffled_inputs(tmp_path_factory):
    """The N rows of the tied table, in a seeded random order, as a table and as a list."""
    tc, df = tied_counts()
    order = np.random.default_rng(11).permutation(N).tolist()
    directory = tmp_path_factory.mktemp("memory")
    table, words = directory / "shuffled.stats", directory / "shuffled.freq"
    table.write_text("#N=500\n" + "".join(f"t{i:07d}\t{tc[i]}\t{df[i]}\n" for i in order), encoding="utf-8")
    words.write_text("".join(f"t{i:07d}\t{tc[i]}\n" for i in order), encoding="utf-8")
    return {"table": table, "list": words}


@pytest.mark.parametrize("stage", sorted(SHUFFLED_BUDGETS))
def test_shuffled_stage_peak_within_budget(stage, shuffled_inputs, tmp_path):
    args, bound = SHUFFLED_BUDGETS[stage]
    argv = [arg.format(out=tmp_path, **shuffled_inputs) for arg in args]
    columns = traced_peak(argv) / (N * 8)
    assert columns <= bound, f"{stage} peaked at {columns:.2f} int64 columns of n, above {bound}"


# count --jobs 1 on a stream of about N distinct terms. The tally's dict of
# the terms holds most of the peak, at its last resize; two Counters of the
# terms took it to 23.8 columns on Python 3.11, and above 23 on 3.10's
# larger dict entries even when dropped one at a time before the sort.
@pytest.fixture(scope="module")
def wide_stream(tmp_path_factory):
    """A seeded stream of 400 documents of 500 tokens ``w%09d``: about N distinct terms."""
    numbers = np.random.default_rng(13).integers(0, 10**9, (400, 500)).tolist()
    path = tmp_path_factory.mktemp("memory") / "wide.txt"
    path.write_text("".join(" ".join(f"w{k:09d}" for k in doc) + "\n%%DOC%%\n" for doc in numbers),
                    encoding="utf-8")
    return path


def test_count_peak_within_budget(wide_stream, tmp_path):
    """``count --jobs 1`` keeps one dict of the terms and frees it before the sort."""
    columns = traced_peak(["count", "--corpus", str(wide_stream), "--jobs", "1",
                           "--out", str(tmp_path / "wide.stats")]) / (N * 8)
    assert columns <= 22.0, f"count peaked at {columns:.2f} int64 columns of n, above 22.0"
