"""Run one CLI call in-process, with timing wrappers on the library's layers.

    python3 perfbench/tracer.py --src SRC --spans OUT.json [--off] -- <cli args>

Imports ``corpusstats.cli`` from SRC, replaces the public functions that
``install`` lists at the module attributes their callers look them up
through, calls ``cli.main(args)`` and writes the spans and counters it
recorded to OUT.json. Spans stay in memory until the call returns. With
``--off`` nothing is wrapped and only the duration of ``cli.main`` is
written, which is the untraced reference for the tracing overhead.

A span is ``[name, start, end, parent]``, where ``parent`` indexes the
enclosing span (-1 for none). Generators (the corpus reader and the
frequency-list parser) get one span per item they yield, so their time is
counted where it is spent, not where the consumer happens to be.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import resource
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks[name], value)


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def span(rec: Recorder, fn, name, rss: str | None = None, after=None):
    """Wrap ``fn`` in a span; ``name`` may be a function of the arguments.

    ``after(result, args, kwargs)`` runs outside the span to record counts.
    ``rss`` names a peak metric for how far the call raised ru_maxrss.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(*args, **kwargs) if callable(name) else name
        before = _maxrss_mb() if rss else 0.0
        index = rec.open(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if rss:
            rec.peak(rss, _maxrss_mb() - before)
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


def span_items(rec: Recorder, fn, name: str, items: str):
    """Wrap a generator function: one span per ``next()``, counting items."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            index = rec.open(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                rec.close(index)
            rec.count(items)
            yield item

    return wrapper


def counted(rec: Recorder, fn, name: str):
    """Count calls only; for per-term functions where a span would cost more than the call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap the public functions of every layer, at the attributes callers use."""
    cli = importlib.import_module("corpusstats.cli")
    ingest = importlib.import_module("corpusstats.ingest")
    stats = importlib.import_module("corpusstats.stats")
    ranking = importlib.import_module("corpusstats.ranking")
    correlation = importlib.import_module("corpusstats.correlation")
    ratio = importlib.import_module("corpusstats.ratio")
    lexsig = importlib.import_module("corpusstats.lexsig")

    def tokens(result, args, kwargs):
        rec.count("ingest.tokenize_calls")
        rec.count("ingest.tokens", len(result))

    tokenize = span(rec, ingest.tokenize, "ingest.tokenize", after=tokens)
    ingest.tokenize = tokenize  # read_corpus's own lookups
    cli.tokenize = tokenize  # lexsig document loading
    cli.read_corpus = span_items(rec, cli.read_corpus, "ingest.read_corpus", "ingest.docs")
    cli.parse_frequency_list = span_items(
        rec, cli.parse_frequency_list, "ingest.parse_frequency_list", "ingest.freq_list_rows"
    )

    def jobs_label(documents, jobs=None):
        return "stats.compute_tc_df_jobs2" if jobs and jobs > 1 else "stats.compute_tc_df"

    def vocabulary(result, args, kwargs):
        rec.peak("stats.final_vocabulary", len(result))

    def merged(result, args, kwargs):
        rec.count("stats.merge_calls")
        rec.count("stats.merge_entries_copied", len(args[0].entries) + len(args[1].entries))

    def rows(metric):
        return lambda result, args, kwargs: rec.count(metric, len(result))

    stats.compute_tc_df = span(rec, stats.compute_tc_df, jobs_label, after=vocabulary)
    stats.merge = span(rec, stats.merge, "stats.merge", after=merged)
    stats.write_stats = span(rec, stats.write_stats, "stats.write_stats")
    stats.read_stats = span(rec, stats.read_stats, "stats.read_stats",
                            rss="stats.read_stats_rss_delta_mb", after=rows("stats.read_stats_rows"))
    stats.read_stats_columns = span(rec, stats.read_stats_columns, "stats.read_stats_columns",
                                    rss="stats.read_stats_columns_rss_delta_mb")
    stats.TermStatsTable.count_arrays = span(
        rec, stats.TermStatsTable.count_arrays, "stats.count_arrays",
        after=lambda result, args, kwargs: rec.count("stats.count_arrays_calls"),
    )
    stats.frequency_of_frequencies = span(rec, stats.frequency_of_frequencies,
                                          "stats.frequency_of_frequencies")

    ranking.ranked_by = span(rec, ranking.ranked_by, "ranking.ranked_by")
    ranking.sports_rank = span(rec, ranking.sports_rank, "ranking.sports_rank",
                               rss="ranking.sports_rank_rss_delta_mb")
    ranking.write_ranked_list = span(rec, ranking.write_ranked_list, "ranking.write_ranked_list",
                                     after=lambda result, args, kwargs: rec.count(
                                         "ranking.rows_written", len(args[0])))
    ranking.rank_values = span(rec, ranking.rank_values, "ranking.rank_values",
                               after=lambda result, args, kwargs: rec.count("ranking.rank_values_calls"))

    def tau_label(x, y):
        return "correlation.kendall_tau_fast.small" if len(x) <= 100 else "correlation.kendall_tau_fast"

    correlation.kendall_tau_fast = span(rec, correlation.kendall_tau_fast, tau_label)
    for fn in ("prefix_correlation_curve", "correlation_report", "spearman_rho",
               "rho_significance", "write_curve"):
        setattr(correlation, fn, span(rec, getattr(correlation, fn), f"correlation.{fn}"))

    def ratio_label(table, rounding):
        return f"ratio.ratio_histogram_{ratio.Rounding(rounding).value}"

    ratio.ratio_histogram = span(rec, ratio.ratio_histogram, ratio_label)
    ratio.compute_ratios = span(rec, ratio.compute_ratios, "ratio.compute_ratios")
    ratio.write_histogram = span(rec, ratio.write_histogram, "ratio.write")
    ratio.write_ratio_summary = span(rec, ratio.write_ratio_summary, "ratio.write")

    for fn in ("model_from_table", "model_from_entries", "compare_signatures"):
        setattr(lexsig, fn, span(rec, getattr(lexsig, fn), f"lexsig.{fn}"))
    lexsig.lexical_signature = span(
        rec, lexsig.lexical_signature, "lexsig.lexical_signature",
        after=lambda result, args, kwargs: rec.count("lexsig.lexical_signature_calls"),
    )
    lexsig.idf = counted(rec, lexsig.idf, "lexsig.idf_calls")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path)
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("--off", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    sys.path.insert(0, str(args.src))
    cli = importlib.import_module("corpusstats.cli")
    rec = Recorder()
    if not args.off:
        install(rec)
    index = rec.open("cli.main")
    code = cli.main(cli_args)
    rec.close(index)
    span_list = rec.spans
    payload = {
        "code": code,
        "main_s": span_list[index][2] - span_list[index][1],
        "spans": [] if args.off else span_list,
        "counters": dict(rec.counters),
        "peaks": dict(rec.peaks),
    }
    args.spans.write_text(json.dumps(payload), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
