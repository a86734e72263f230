"""Command-line front end.

Thin by design: argparse hands each subcommand's parsed arguments straight
to its handler, which loads inputs with the library's readers, calls one
library operation, and writes with the library's exporters, so any CLI
result is reproducible from the Python API. Exit codes: 0 success, 1
usage error, 2 data error (parse, validation, degenerate input), 3 I/O
failure.

Outputs are deterministic: rows come out in documented sort orders and
floats are printed with repr, so identical inputs give byte-identical
files. The one exception is bench, whose numbers are wall-clock readings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import correlation, lexsig, ranking, ratio, stats
from .errors import EXIT_DATA, EXIT_IO, EXIT_OK, EXIT_USAGE, CorpusStatsError, UsageError, ValidationError
from .ingest import (
    DEFAULT_SEPARATOR,
    Document,
    TokenizerConfig,
    outputs_together,
    read_corpus,  # noqa: F401 (count no longer calls it; perfbench/tracer.py wraps cli.read_corpus)
    read_utf8,
    tokenize,
    write_utf8,
)

# Never called: perfbench/tracer.py wraps cli.parse_frequency_list, so the name stays.
parse_frequency_list = stats.read_frequency_table

JOBS_ENV_VAR = "CORPUSSTATS_JOBS"

DEFAULT_SEED = 42


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns exit codes."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _comma_ints(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
        if all(a < b for a, b in zip(values, values[1:])):
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expects comma-separated integers in ascending order, got {text!r}"
    )


def _sample_sizes(text: str) -> list[int]:
    """argparse type for ``bench --sizes`` and ``correlate --checkpoints``:
    at least one size, ascending, each >= 2."""
    values = _comma_ints(text)
    if not values or values[0] < 2:
        raise argparse.ArgumentTypeError(f"expects sample sizes >= 2, got {text!r}")
    return values


def _above(low: int, convert=int):
    """argparse type: a number, parsed by ``convert``, greater than ``low``."""

    def parse(text: str):
        try:
            value = convert(text)
            if value > low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expects {convert.__name__} > {low}, got {text!r}")

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="corpusstats", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add_tokenizer_flags(p):
        p.add_argument("--no-lowercase", dest="lowercase", action="store_false",
                       help="keep original letter case")
        p.add_argument("--keep-edge-punctuation", dest="strip_edge_punctuation",
                       action="store_false",
                       help="do not strip leading/trailing punctuation from tokens")

    p = sub.add_parser("count", help="count tc/df over a corpus into a stats table")
    p.set_defaults(handler=_cmd_count)
    p.add_argument("--corpus", required=True, type=Path,
                   help="directory of *.txt files, or one %%%%DOC%%%%-separated stream file")
    p.add_argument("--out", required=True, type=Path, help="stats table to write")
    p.add_argument("--separator", default=DEFAULT_SEPARATOR,
                   help="document separator line for stream mode")
    p.add_argument("--jobs", type=int, default=None,
                   help=f"counting processes (default: ${JOBS_ENV_VAR} or 1), at most one "
                        "per usable CPU; output is identical for any N")
    add_tokenizer_flags(p)

    p = sub.add_parser("rank", help="rank a stats table's terms")
    p.set_defaults(handler=_cmd_rank)
    p.add_argument("--stats", required=True, type=Path, dest="stats_path")
    p.add_argument("--by", choices=["tc", "df"],
                   help="write the full ranking by this column")
    p.add_argument("--scatter", action="store_true",
                   help="write aligned (rank_tc, rank_df) pairs instead")
    p.add_argument("--overlap", nargs=2, type=int, metavar=("FROM", "TO"),
                   help="report tc-vs-df overlap within this closed rank window")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv",
                   help="output format for --overlap reports")

    p = sub.add_parser("correlate", help="rank correlation between the tc and df rankings")
    p.set_defaults(handler=_cmd_correlate)
    p.add_argument("--stats", required=True, type=Path, dest="stats_path")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--fractional", action="store_true",
                   help="use mid-rank (average) ranks instead of competition ranks")
    p.add_argument("--diagnostic", action="store_true",
                   help="also report the tie-naive 6*sum(d^2) Spearman shortcut")
    p.add_argument("--curve-out", type=Path, dest="curve_out",
                   help="also write a prefix-correlation curve here")
    p.add_argument("--checkpoints", type=_sample_sizes, default=[],
                   help="comma-separated prefix sizes for --curve-out")
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")

    p = sub.add_parser("ratio", help="histogram the per-term tc/df ratios")
    p.set_defaults(handler=_cmd_ratio)
    p.add_argument("--stats", required=True, type=Path, dest="stats_path")
    p.add_argument("--out-prefix", required=True, dest="out_prefix",
                   help="write PREFIX.<rounding>.tsv and PREFIX.<rounding>.summary.tsv")
    p.add_argument("--rounding", default="all",
                   choices=["two_decimals", "one_decimal", "integer", "all"])

    p = sub.add_parser("ffreq", help="frequency-of-frequencies for one input")
    p.set_defaults(handler=_cmd_ffreq)
    p.add_argument("--stats", type=Path, dest="stats_path", help="input: a stats table")
    p.add_argument("--freq-list", type=Path, dest="freq_list", help="input: a frequency list")
    p.add_argument("--ngram", type=Path, help="input: an n-gram count file")
    p.add_argument("--which", choices=["tc", "df"], default="tc",
                   help="which column to histogram (df: --stats input only)")
    p.add_argument("--min-count", type=_above(-1), dest="min_count",
                   help="drop rows below this count (--ngram input only)")
    p.add_argument("--keep-lemmatized", action="store_true", dest="keep_lemmatized",
                   help="count lemma rows too (--freq-list input only)")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")

    p = sub.add_parser("lexsig", help="top-k tf-idf signature of each document")
    p.set_defaults(handler=_cmd_lexsig)
    p.add_argument("--doc", action="append", type=Path, default=[], dest="docs",
                   help="document text file (repeatable)")
    p.add_argument("--stats", type=Path, dest="stats_path",
                   help="background model from a stats table")
    p.add_argument("--freq-list", type=Path, dest="freq_list",
                   help="background model from a tc-only frequency list")
    p.add_argument("--n-hat", type=_above(0), dest="n_hat",
                   help="document-count estimate behind the background counts")
    p.add_argument("--tc-as-df", action="store_true", dest="tc_as_df",
                   help="ignore measured df and use min(tc, n) instead")
    p.add_argument("--k", type=_above(0), default=5)
    p.add_argument("--normalized-tf", action="store_true", dest="normalized_tf")
    p.add_argument("--keep-lemmatized", action="store_true", dest="keep_lemmatized")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    add_tokenizer_flags(p)

    p = sub.add_parser("compare-sig",
                       help="signatures under measured df vs the tc-as-df proxy")
    p.set_defaults(handler=_cmd_compare_sig)
    p.add_argument("--doc", action="append", type=Path, default=[], dest="docs",
                   required=True, help="document text file (repeatable)")
    p.add_argument("--stats", required=True, type=Path, dest="stats_path")
    p.add_argument("--n-hat", type=_above(0), dest="n_hat",
                   help="document-count estimate for the proxy model")
    p.add_argument("--k", type=_above(0), default=5)
    p.add_argument("--normalized-tf", action="store_true", dest="normalized_tf")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    add_tokenizer_flags(p)

    p = sub.add_parser("bench", help="time the Kendall kernels and fit growth")
    p.set_defaults(handler=_cmd_bench)
    p.add_argument("--kernel", choices=["naive", "fast", "both"], default="both")
    p.add_argument("--sizes", type=_sample_sizes, required=True,
                   help="comma-separated ascending sample sizes")
    p.add_argument("--trials", type=_above(0), default=bench_mod.DEFAULT_TRIALS)
    p.add_argument("--budget", type=_above(0, float), default=bench_mod.DEFAULT_BUDGET_SECONDS,
                   help="wall-clock budget per size cell, seconds")
    p.add_argument("--extrapolate", action="append", type=_above(0), default=[],
                   help="predict seconds at this n from the fit (repeatable)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out-prefix", required=True, dest="out_prefix",
                   help="write PREFIX.<kernel>.tsv per kernel")

    return parser


def _effective_jobs(args: argparse.Namespace) -> int:
    if args.jobs is not None:
        jobs = args.jobs
    else:
        raw = os.environ.get(JOBS_ENV_VAR, "1")
        try:
            jobs = int(raw)
        except ValueError:
            raise UsageError(f"{JOBS_ENV_VAR} must be an integer, got {raw!r}") from None
    if jobs < 1:
        raise UsageError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _write_json(payload, path: Path) -> None:
    with write_utf8(path) as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2))
        fh.write("\n")


def _write_tsv_rows(rows, path: Path) -> None:
    with write_utf8(path) as fh:
        for row in rows:
            fh.write("\t".join(str(cell) for cell in row))
            fh.write("\n")


def _write_report(rows, path: Path, fmt: str) -> None:
    """Write ``(key, value)`` rows as TSV lines, or as one JSON object keyed by ``str(key)``."""
    if fmt == "json":
        _write_json({str(key): value for key, value in rows}, path)
    else:
        _write_tsv_rows(rows, path)


def _cmd_count(args: argparse.Namespace) -> None:
    if not args.separator:
        raise UsageError("--separator must be non-empty")
    tokenizer = TokenizerConfig(args.lowercase, args.strip_edge_punctuation)
    table = stats.count_corpus(args.corpus, tokenizer, args.separator, _effective_jobs(args))
    stats.write_stats(table, args.out)


def _cmd_rank(args: argparse.Namespace) -> None:
    modes = sum([args.by is not None, args.scatter, args.overlap is not None])
    if modes != 1:
        raise UsageError("choose exactly one of --by, --scatter, --overlap")
    if args.overlap is not None and not 1 <= args.overlap[0] <= args.overlap[1]:
        raise UsageError("--overlap needs 1 <= FROM <= TO")
    if args.format == "json" and args.overlap is None:
        raise UsageError("--format applies to --overlap reports only")
    if args.scatter:
        tc, df, _ = stats.read_stats_columns(args.stats_path)
        if tc.size == 0:
            raise ValidationError("empty table: nothing to rank")
        tc_ranks = ranking.rank_values(tc)
        del tc  # each count column is freed once it is ranked
        df_ranks = ranking.rank_values(df)
        del df
        ranking._write_rank_pairs(tc_ranks, df_ranks, args.out)
        return
    table = stats.read_stats(args.stats_path)
    if args.by is not None:
        # the terms and the ranked column, as a list's counts: the other column is freed before the sort
        table = table._one_column(args.by)
        ranking.write_ranked_list(ranking.ranked_by(table, "tc"), args.out)
        return
    lo, hi = args.overlap
    by_tc = ranking.ranked_by(table, "tc")
    by_df = ranking.ranked_by(table, "df")
    counts = ranking.ranking_overlap(by_tc, by_df, lo, hi)
    rows = [
        ("from_rank", lo),
        ("to_rank", hi),
        ("union", counts.union_size),
        ("intersection", counts.intersection_size),
    ]
    _write_report(rows, args.out, args.format)


def _report_rows(report: correlation.CorrelationReport) -> list[tuple[str, object]]:
    rows: list[tuple[str, object]] = [
        ("n", report.n),
        ("spearman_rho", report.spearman_rho),
        ("kendall_tau_a", report.kendall_tau_a),
        ("kendall_tau_b", report.kendall_tau_b),
        ("rho_estimated_from_tau", report.rho_estimated_from_tau),
        ("p_value_rho", report.p_value_rho),
        ("concordant", report.concordant),
        ("discordant", report.discordant),
        ("ties_x", report.ties_x),
        ("ties_y", report.ties_y),
        ("ties_xy", report.ties_xy),
    ]
    if report.spearman_rho_shortcut is not None:
        rows.append(("spearman_rho_shortcut", report.spearman_rho_shortcut))
    return rows


def _cmd_correlate(args: argparse.Namespace) -> None:
    if bool(args.checkpoints) != (args.curve_out is not None):
        raise UsageError("--curve-out and --checkpoints go together")
    if args.curve_out is not None and os.path.realpath(args.out) == os.path.realpath(args.curve_out):
        raise UsageError("--out and --curve-out name the same file")
    tc, df, _ = stats.read_stats_columns(args.stats_path)
    x = ranking.rank_values(tc)
    del tc  # each n-row array is held only while a later step reads it
    y = ranking.rank_values(df)
    del df
    report = correlation.correlation_report(x, y, diagnostic_shortcut=args.diagnostic,
                                            fractional=args.fractional)
    points = None
    if args.curve_out is not None:
        keys, span = ranking._sorted_pair_keys(x, y)  # after the report, so never beside its arrays
        np.divmod(keys, span, out=(x, y), casting="unsafe")  # x and y take the pairs in key order
        del keys
        with warnings.catch_warnings(record=True) as skipped:  # degenerate prefixes
            warnings.simplefilter("always")
            points = correlation.prefix_correlation_curve(x, y, args.checkpoints, args.fractional)
        for warning in skipped:
            print(f"warning: {warning.message}", file=sys.stderr)
    _write_report(_report_rows(report), args.out, args.format)
    if points is not None:
        correlation.write_curve(points, args.curve_out)


def _cmd_ratio(args: argparse.Namespace) -> None:
    if args.rounding == "all":
        roundings = list(ratio.Rounding)
    else:
        roundings = [ratio.Rounding(args.rounding)]
    tc, df, _ = stats.read_stats_columns(args.stats_path)
    ratios = ratio._ratios(tc, df)
    del tc, df  # the ratios are all the histograms read
    for hist in ratio._ratio_histograms(ratios, roundings):
        mode = hist.rounding
        ratio.write_histogram(hist, Path(f"{args.out_prefix}.{mode.value}.tsv"))
        ratio.write_ratio_summary(hist, Path(f"{args.out_prefix}.{mode.value}.summary.tsv"))


def _cmd_ffreq(args: argparse.Namespace) -> None:
    sources = [
        ("--stats", args.stats_path),
        ("--freq-list", args.freq_list),
        ("--ngram", args.ngram),
    ]
    given = [(flag, path) for flag, path in sources if path is not None]
    if len(given) != 1:
        raise UsageError("choose exactly one of --stats, --freq-list, --ngram")
    flag, path = given[0]
    if args.which != "tc" and flag != "--stats":
        raise UsageError(f"--which df needs a stats table, not {flag}")
    if args.min_count is not None and flag != "--ngram":
        raise UsageError(f"--min-count applies to --ngram input, not {flag}")
    if args.keep_lemmatized and flag != "--freq-list":
        raise UsageError(f"--keep-lemmatized applies to --freq-list input, not {flag}")
    if flag == "--stats":
        histogram = stats._count_histogram(stats.read_stats_columns(path)[0 if args.which == "tc" else 1])
    elif flag == "--ngram":
        tc = stats.read_ngram_table(path, args.min_count or 0).count_arrays()[0]  # frees the terms
        histogram = stats._count_histogram(tc)
    else:  # with --keep-lemmatized, a term's surface row and lemma row count apart
        histogram = stats._list_histogram(path, args.keep_lemmatized)
    _write_report(sorted(histogram.items()), args.out, args.format)


def _load_docs(args: argparse.Namespace) -> list[Document]:
    if not args.docs:
        raise UsageError("at least one --doc is required")
    first: dict[str, Path] = {}  # a document's id is its file's stem
    for path in args.docs:
        if (other := first.setdefault(path.stem, path)) is not path:
            raise UsageError(f"--doc {other} and --doc {path} have the same document id {path.stem!r}")
    tokenizer = TokenizerConfig(args.lowercase, args.strip_edge_punctuation)
    return [Document(path.stem, tokenize(read_utf8(path), tokenizer)) for path in args.docs]


def _background_model(args: argparse.Namespace) -> lexsig.BackgroundModel:
    if args.stats_path is not None:
        table = stats.read_stats(args.stats_path)
        mode = lexsig.DfMode.TC_AS_DF if args.tc_as_df else lexsig.DfMode.MEASURED_DF
        return lexsig.model_from_table(table, mode, args.n_hat)
    table = stats.read_frequency_table(args.freq_list, keep_lemmatized=args.keep_lemmatized)
    return lexsig.model_from_table(table, lexsig.DfMode.TC_AS_DF, args.n_hat)


def _cmd_lexsig(args: argparse.Namespace) -> None:
    if (args.stats_path is None) == (args.freq_list is None):
        raise UsageError("choose exactly one of --stats, --freq-list")
    if args.stats_path is None and args.n_hat is None:
        raise UsageError("--freq-list models need --n-hat (lists carry no document count)")
    if args.keep_lemmatized and args.stats_path is not None:
        raise UsageError("--keep-lemmatized applies to --freq-list input, not --stats")
    docs = _load_docs(args)
    model = _background_model(args)
    signatures = [lexsig.lexical_signature(d, model, args.k, args.normalized_tf) for d in docs]
    if args.format == "json":
        payload = {
            sig.doc_id: [[term, weight] for term, weight in sig.terms] for sig in signatures
        }
        _write_json(payload, args.out)
    else:
        rows = []
        for sig in signatures:
            for term, weight in sig.terms:
                rows.append((sig.doc_id, term, repr(weight)))
        _write_tsv_rows(rows, args.out)


def _cmd_compare_sig(args: argparse.Namespace) -> None:
    docs = _load_docs(args)
    table = stats.read_stats(args.stats_path)
    measured = lexsig.model_from_table(table, lexsig.DfMode.MEASURED_DF, args.n_hat)
    proxy = lexsig.model_from_table(table, lexsig.DfMode.TC_AS_DF, args.n_hat)
    rows = lexsig.compare_signatures(docs, measured, proxy, args.k, args.normalized_tf)
    if args.format == "json":
        payload = [
            {
                "doc": r.doc_id,
                "size_measured": r.size_a,
                "size_proxy": r.size_b,
                "overlap": r.overlap,
                "tau_b_shared": r.tau_b_shared,
                "displaced": r.displaced,
            }
            for r in rows
        ]
        _write_json(payload, args.out)
    else:
        _write_tsv_rows(
            [
                (
                    r.doc_id,
                    r.size_a,
                    r.size_b,
                    r.overlap,
                    "NA" if r.tau_b_shared is None else repr(r.tau_b_shared),
                    "true" if r.displaced else "false",
                )
                for r in rows
            ],
            args.out,
        )


def _cmd_bench(args: argparse.Namespace) -> None:
    if args.extrapolate and len(args.sizes) < 2:
        raise UsageError("--extrapolate needs at least two --sizes to fit")
    kernels = ["naive", "fast"] if args.kernel == "both" else [args.kernel]
    for kernel in kernels:
        curve = bench_mod.time_kernel(
            kernel,
            args.sizes,
            trials=args.trials,
            seed=args.seed,
            budget_seconds=args.budget,
        )
        if curve.fit is not None:
            for target in args.extrapolate:
                bench_mod.extrapolate(curve, target)
        bench_mod.write_curve(curve, Path(f"{args.out_prefix}.{kernel}.tsv"))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with outputs_together():  # a failed run changes no output file
            args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CorpusStatsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
