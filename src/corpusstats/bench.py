"""Timing harness for the Kendall kernels, with power-law fits.

Timings use time.perf_counter around the kernel call alone (no input
generation inside the window) and report the median over trials, which is
robust to the odd scheduling hiccup. Synthetic inputs are a pure function
of (seed, n), so any two runs time the kernels on identical data.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .correlation import kendall_tau_fast, kendall_tau_naive
from .errors import ValidationError
from .ingest import write_utf8

KERNELS = {
    "naive": kendall_tau_naive,
    "fast": kendall_tau_fast,
}

DEFAULT_TRIALS = 5
DEFAULT_BUDGET_SECONDS = 300.0


def generate_pairs(n: int, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic synthetic rank pairs of size n with realistic ties.

    y follows x plus noise, so the sample is positively correlated with
    tie groups in both coordinates, which keeps every branch of the
    kernels busy. Seeding with [seed, n] makes each size its own stream:
    growing n does not merely extend the smaller sample. Neither vector is
    entirely tied, so tau-b is defined for every n and seed: a small
    sample that draws one value n times gets its first value raised by 1.
    """
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    rng = np.random.default_rng([seed, n])
    x = rng.integers(0, max(2, n // 2), size=n, dtype=np.int64)
    noise = rng.integers(0, max(2, n // 8), size=n, dtype=np.int64)
    x[0] += np.all(x == x[0])
    y = x + noise
    y[0] += np.all(y == y[0])
    return x, y


@dataclass(frozen=True)
class TimingPoint:
    n: int
    seconds: float


@dataclass(frozen=True)
class PowerLawFit:
    """t approximately equals coefficient * n ** exponent."""

    exponent: float
    coefficient: float
    r_squared: float


@dataclass
class TimingCurve:
    kernel: str
    points: list[TimingPoint]
    fit: PowerLawFit | None
    extrapolations: dict[int, float] = field(default_factory=dict)
    truncated: bool = False


def fit_power_law(points: list[TimingPoint]) -> PowerLawFit:
    """Least-squares line through the log-log points.

    The slope is the growth exponent, exp(intercept) the coefficient.
    r_squared reports how well a pure power law explains the timings.
    """
    if len(points) < 2:
        raise ValidationError(f"need at least 2 points to fit, got {len(points)}")
    log_n = np.log([p.n for p in points])
    log_t = np.log([p.seconds for p in points])
    slope, intercept = np.polyfit(log_n, log_t, 1)
    predicted = slope * log_n + intercept
    ss_res = float(((log_t - predicted) ** 2).sum())
    ss_tot = float(((log_t - log_t.mean()) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(float(slope), float(math.exp(intercept)), r_squared)


def time_kernel(
    kernel: str,
    sizes: list[int],
    trials: int = DEFAULT_TRIALS,
    seed: int = 42,
    budget_seconds: float = DEFAULT_BUDGET_SECONDS,
) -> TimingCurve:
    """Median-of-trials wall time of one kernel across ascending sizes.

    Each size cell has ``budget_seconds`` of wall clock; once a cell
    exhausts it the cell keeps whatever trials it completed and the curve
    stops there, marked truncated, so a runaway quadratic cannot hang the
    harness. Timed sections contain nothing but the kernel call.
    """
    if kernel not in KERNELS:
        raise ValidationError(f"unknown kernel {kernel!r}; choose from {sorted(KERNELS)}")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if budget_seconds <= 0:
        raise ValidationError(f"budget_seconds must be positive, got {budget_seconds}")
    if not sizes:
        raise ValidationError("sizes must be non-empty")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValidationError("sizes must be strictly ascending")
    fn = KERNELS[kernel]
    points: list[TimingPoint] = []
    truncated = False
    for n in sizes:
        x, y = generate_pairs(n, seed)
        cell_start = time.perf_counter()
        durations: list[float] = []
        for _ in range(trials):
            t0 = time.perf_counter()
            fn(x, y)
            durations.append(max(time.perf_counter() - t0, 1e-9))
            if time.perf_counter() - cell_start > budget_seconds:
                truncated = True
                break
        points.append(TimingPoint(int(n), float(statistics.median(durations))))
        if truncated:
            break
    fit = fit_power_law(points) if len(points) >= 2 else None
    return TimingCurve(kernel, points, fit, {}, truncated)


def extrapolate(curve: TimingCurve, target_n: int) -> float:
    """Predicted seconds at ``target_n`` from the fitted power law.

    Records the prediction in curve.extrapolations as a side effect so
    exported curves carry their projections with them.
    """
    if curve.fit is None:
        raise ValidationError("curve has no fit (needs at least 2 timed sizes)")
    if target_n < 1:
        raise ValidationError(f"target_n must be >= 1, got {target_n}")
    predicted = curve.fit.coefficient * float(target_n) ** curve.fit.exponent
    curve.extrapolations[int(target_n)] = predicted
    return predicted


def write_curve(curve: TimingCurve, path) -> None:
    """Export ``n<TAB>seconds`` rows, then the fit and projections stanza."""
    with write_utf8(path) as fh:
        for p in curve.points:
            fh.write(f"{p.n}\t{p.seconds!r}\n")
        if curve.fit is not None:
            fh.write(f"#fit exponent={curve.fit.exponent!r} ")
            fh.write(f"coefficient={curve.fit.coefficient!r} ")
            fh.write(f"r_squared={curve.fit.r_squared!r}\n")
        for target in sorted(curve.extrapolations):
            fh.write(f"#extrapolate {target}\t{curve.extrapolations[target]!r}\n")
        if curve.truncated:
            fh.write("#truncated\n")
