"""Corpus statistics: tc/df tables, rank correlation, ratios, signatures.

The package is organized as a pipeline of small modules:

- ingest: tokenization, corpora, the rows of count files
- stats: tc/df counting, the stats-table file format and the list readers
- ranking: competition ranks, mid-ranks, overlap windows, rank alignment
- correlation: Spearman rho, Kendall tau (naive and fast), significance
- ratio: tc/df ratio histograms
- lexsig: tf-idf lexical signatures, measured df vs tc-as-df proxy
- bench: kernel timing and power-law growth fits
- cli: the corpusstats command
"""

from .errors import (
    CorpusStatsError,
    DegenerateInputError,
    ParseError,
    UsageError,
    ValidationError,
)
from .ingest import (
    DEFAULT_SEPARATOR,
    Document,
    FrequencyListEntry,
    TokenizerConfig,
    read_corpus,
    tokenize,
)
from .stats import (
    TermStatsTable,
    compute_tc_df,
    count_corpus,
    frequency_of_frequencies,
    merge,
    read_frequency_table,
    read_ngram_table,
    read_stats,
    read_stats_columns,
    write_stats,
)
from .ranking import (
    AlignedRanks,
    OverlapCounts,
    RankedList,
    align_ranks,
    fractional_rank,
    rank_values,
    ranked_by,
    ranking_overlap,
    sports_rank,
    write_rank_scatter,
    write_ranked_list,
)
from .correlation import (
    CorrelationReport,
    CurvePoint,
    KendallCounts,
    correlation_report,
    kendall_tau_fast,
    kendall_tau_naive,
    prefix_correlation_curve,
    rho_significance,
    spearman_rho,
    spearman_rho_shortcut,
    tau_to_rho,
)
from .ratio import RatioHistogram, Rounding, compute_ratios, ratio_histogram, round_ratio
from .lexsig import (
    BackgroundModel,
    DfMode,
    LexicalSignature,
    SignatureComparison,
    compare_signatures,
    idf,
    lexical_signature,
    model_from_entries,
    model_from_table,
    tf,
    tf_idf,
    top_terms_by_weight,
)
from .bench import (
    PowerLawFit,
    TimingCurve,
    TimingPoint,
    extrapolate,
    fit_power_law,
    generate_pairs,
    time_kernel,
)

__version__ = "0.1.0"
