"""Distributions of the per-term tc/df ratio.

Every ratio is >= 1 because tc >= df for every stored term. The histogram
bins are a display decision, so three roundings are offered; the summary
statistics are always computed from the unrounded ratios and therefore
agree across roundings for the same table. Every rounding is binned from
one sort of the ratios, which the ``ratio`` command computes from the
table's count columns alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum

import numpy as np

from .errors import ValidationError
from .ingest import write_utf8
from .ranking import _runs
from .stats import TermStatsTable


class Rounding(str, Enum):
    TWO_DECIMALS = "two_decimals"
    ONE_DECIMAL = "one_decimal"
    INTEGER = "integer"


_QUANTA = {
    Rounding.TWO_DECIMALS: Decimal("0.01"),
    Rounding.ONE_DECIMAL: Decimal("0.1"),
}

_KEY_FORMATS = {
    Rounding.TWO_DECIMALS: "{:.2f}",
    Rounding.ONE_DECIMAL: "{:.1f}",
    Rounding.INTEGER: "{:.0f}",
}


@dataclass(frozen=True)
class RatioHistogram:
    """Binned tc/df ratios plus rounding-independent summary statistics."""

    rounding: Rounding
    bins: dict[float, int]
    mean: float
    stddev: float
    median: float

    @property
    def mode(self) -> float:
        """Bin key with the largest count; the smallest key wins a tie."""
        best = max(self.bins.items(), key=lambda kv: (kv[1], -kv[0]))
        return best[0]

    @property
    def term_total(self) -> int:
        return sum(self.bins.values())


def round_ratio(value: float, rounding: Rounding) -> float:
    """Round one ratio for binning.

    Decimal modes round half away from zero on the shortest decimal string
    of the double (so 1.225 -> 1.23 even though the stored double sits a
    hair below); integer mode uses Python's round, i.e. half to even on
    the unrounded double.
    """
    if rounding is Rounding.INTEGER:
        return float(round(value))
    quantum = _QUANTA[Rounding(rounding)]
    return float(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def compute_ratios(table: TermStatsTable) -> np.ndarray:
    """Per-term tc/df as float64, in sorted-term order."""
    return _ratios(*table.tc_df_arrays())


def _ratios(tc: np.ndarray, df: np.ndarray) -> np.ndarray:
    """tc/df of two aligned count columns as a new float64 array, after the
    checks every ratio needs: at least one row, and 1 <= df <= tc."""
    if tc.size == 0:
        raise ValidationError("empty table: no ratios to compute")
    if (df < 1).any():
        raise ValidationError("df must be >= 1 for every term")
    if (tc < df).any():
        raise ValidationError("tc must be >= df for every term")
    ratios = tc.astype(np.float64)
    np.divide(ratios, df, out=ratios)  # df is cast a buffer at a time, never as a whole column
    return ratios


def ratio_histogram(table: TermStatsTable, rounding: Rounding) -> RatioHistogram:
    """Bin the table's ratios under ``rounding``: :func:`_ratio_histograms` of one rounding."""
    rounding = Rounding(rounding)
    return _ratio_histograms(compute_ratios(table), [rounding])[0]


def _ratio_histograms(ratios: np.ndarray, roundings: list[Rounding]) -> list[RatioHistogram]:
    """The histogram of ``ratios`` under each of ``roundings``, from one pass.

    The mean and population standard deviation come from the unrounded
    ratios in their given order (two-pass, definitional formulas), so they
    are identical whichever rounding is chosen. ``ratios`` is then sorted in
    place: the median is read from its middle, and each rounding bins its
    runs of equal values, rounding each distinct ratio once by
    :func:`round_ratio`.
    """
    mean = float(ratios.mean())
    deviations = ratios - mean
    np.square(deviations, out=deviations)
    stddev = float(np.sqrt(np.mean(deviations)))
    del deviations
    ratios.sort()
    n = ratios.size
    median = float(np.median(ratios[(n - 1) // 2:n // 2 + 1]))
    starts, counts = _runs(ratios)
    distinct, counts = ratios[starts].tolist(), counts.tolist()
    histograms = []
    for rounding in roundings:
        binned: dict[float, int] = {}
        for value, count in zip(distinct, counts):
            key = round_ratio(value, rounding)
            binned[key] = binned.get(key, 0) + count
        histograms.append(RatioHistogram(rounding, dict(sorted(binned.items())), mean, stddev, median))
    return histograms


def write_histogram(hist: RatioHistogram, path) -> None:
    """Export ``ratio<TAB>term_count`` rows, keys ascending.

    Keys are printed with the precision of the histogram's rounding
    (1.50 under two_decimals, 1.5 under one_decimal, 2 under integer).
    """
    fmt = _KEY_FORMATS[hist.rounding]
    with write_utf8(path) as fh:
        for key in sorted(hist.bins):
            fh.write(f"{fmt.format(key)}\t{hist.bins[key]}\n")


def write_ratio_summary(hist: RatioHistogram, path) -> None:
    """Export the rounding-independent summary plus the modal bin."""
    with write_utf8(path) as fh:
        fh.write(f"mean\t{hist.mean!r}\n")
        fh.write(f"stddev\t{hist.stddev!r}\n")
        fh.write(f"median\t{hist.median!r}\n")
        fh.write(f"mode\t{_KEY_FORMATS[hist.rounding].format(hist.mode)}\n")
        fh.write(f"terms\t{hist.term_total}\n")
