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

from corpusstats import TermStatsTable, write_stats
from corpusstats.cli import main

N = 200_000

# stage -> (arguments after --stats TABLE, peak bound in int64 columns of n)
BUDGETS = {
    "correlate": (["correlate", "--out", "{out}/report.tsv"], 8.0),
    "correlate_curve": (["correlate", "--out", "{out}/report.tsv", "--curve-out", "{out}/curve.tsv",
                         "--checkpoints", "1000,10000,100000,200000"], 8.0),
    "rank_by": (["rank", "--by", "tc", "--out", "{out}/rank.tsv"], 7.5),
    "rank_scatter": (["rank", "--scatter", "--out", "{out}/scatter.tsv"], 8.0),
    "ratio": (["ratio", "--out-prefix", "{out}/ratio"], 7.0),
    "ffreq": (["ffreq", "--out", "{out}/ffreq.tsv"], 6.0),
}


@pytest.fixture(scope="module")
def tied_table(tmp_path_factory):
    """A term-sorted table of N rows with at most 500 distinct tc and df values."""
    rng = np.random.default_rng(7)
    tc = np.minimum(np.floor(rng.pareto(1.1, N) + 1).astype(np.int64), 500)
    df = np.maximum(np.floor(tc / (1.0 + rng.pareto(1.2, N))).astype(np.int64), 1)
    terms = "".join(f"t{i:07d}\n" for i in range(N)).encode("ascii")
    path = tmp_path_factory.mktemp("memory") / "tied.stats"
    write_stats(TermStatsTable(terms, tc, df, 500), path)
    return path


def traced_peak(argv) -> int:
    """Bytes traced at the peak of ``main(argv)`` above what was traced before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize("stage", sorted(BUDGETS))
def test_stage_peak_within_budget(stage, tied_table, tmp_path):
    args, bound = BUDGETS[stage]
    argv = [args[0], "--stats", str(tied_table), *(arg.format(out=tmp_path) for arg in args[1:])]
    columns = traced_peak(argv) / (N * 8)
    assert columns <= bound, f"{stage} peaked at {columns:.2f} int64 columns of n, above {bound}"


# ffreq flags after --freq-list LIST -> peak bound in int64 columns of n. The
# block reader holds the list's table and the lemma rows' counts; the line
# loop held a set of every surface term, near 16 columns with --keep-lemmatized.
LIST_BUDGETS = {
    "ffreq_freq_list": ([], 5.5),
    "ffreq_freq_list_keep_lemmatized": (["--keep-lemmatized"], 5.5),
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
