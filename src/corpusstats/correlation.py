"""Tie-aware rank correlation: Spearman's rho and Kendall's tau.

Two independent Kendall kernels are provided on purpose. The blocked
quadratic kernel (:func:`kendall_tau_naive`) counts every pair literally
and serves as the ground truth; the fast kernel (:func:`kendall_tau_fast`)
reproduces the same five pair counts from a tie histogram or a merge sort
in O(n log n) style time and is the one to use beyond a few thousand
pairs. They must never be collapsed into one: each checks the other.

Pair vocabulary used throughout, for a sample of n points:

    n0 = n*(n-1)/2            all unordered pairs
    C / D                     concordant / discordant pairs
    TX / TY                   pairs tied in x only / in y only
    TXY                       pairs tied in both

with C + D + TX + TY + TXY == n0. Then

    tau_a = (C - D) / n0
    tau_b = (C - D) / sqrt((C + D + TX) * (C + D + TY))

where the tau_b denominator factors are exactly the pairs not tied in y
and not tied in x respectively.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DegenerateInputError, ValidationError
from .ingest import write_utf8
from .ranking import _as_vector, _competition_ranks, _mid_ranks, _runs, _sorted_pair_keys

#: Reported p-values never go below this floor.
P_VALUE_FLOOR = 2.2e-16

#: A t tail whose log bound lies below this is under the floor by a factor
#: of e^8, far beyond the error of the bound or of scipy's stdtr, so the
#: p-value is the floor without computing the tail.
_LOG_CERTAINLY_FLOORED = math.log(P_VALUE_FLOOR) - 8.0

#: Largest n for which the exact permutation null of rho is enumerated.
EXACT_P_MAX_N = 10

_NAIVE_BLOCK = 512
_NAIVE_STRIP = 128  # rows of a diagonal block that kendall_tau_naive compares at a time

#: kendall_tau_fast counts from the (x, y) histogram while it has at most
#: this many cells per pair, and merges otherwise.
_HISTOGRAM_CELLS_PER_PAIR = 4


def _as_pair_vectors(x, y, min_n: int = 2) -> tuple[np.ndarray, np.ndarray]:
    xv = _as_vector(x, "x")
    yv = _as_vector(y, "y")
    if xv.size != yv.size:
        raise ValidationError(f"length mismatch: {xv.size} x values vs {yv.size} y values")
    if xv.size < min_n:
        raise DegenerateInputError(f"need at least {min_n} pairs, got {xv.size}")
    return xv, yv


def spearman_rho(x, y) -> float:
    """Spearman's rho: the Pearson correlation of the two rank vectors.

    Computing Pearson on the ranks is the definition that stays correct
    under ties, unlike the classic 1 - 6*sum(d^2)/(n(n^2-1)) shortcut.
    Raises DegenerateInputError when either vector has zero variance
    (every rank tied), since rho is undefined there.
    """
    xv, yv = _as_pair_vectors(x, y)
    dx, dy = xv.astype(np.float64), yv.astype(np.float64)  # copies, so the means go in place
    dx -= xv.mean(dtype=np.float64)
    dy -= yv.mean(dtype=np.float64)
    sxx = float(np.dot(dx, dx))
    syy = float(np.dot(dy, dy))
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateInputError("zero variance: one vector is entirely tied")
    rho = float(np.dot(dx, dy)) / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, rho))


def spearman_rho_shortcut(x, y) -> float:
    """The 1 - 6*sum(d^2)/(n(n^2-1)) formula, kept as a diagnostic only.

    Exact for tie-free rank vectors and biased under ties; the deviation
    from :func:`spearman_rho` is a quick measure of how much the ties
    matter in a given sample. Never use this as the primary estimate.
    """
    xv, yv = _as_pair_vectors(x, y)
    n = xv.size
    d = xv.astype(np.float64) - yv.astype(np.float64)
    ssd = float(np.dot(d, d))
    return 1.0 - 6.0 * ssd / (n * (float(n) * n - 1.0))


@dataclass(frozen=True)
class KendallCounts:
    """Complete all-pairs bookkeeping for one paired sample."""

    n: int
    concordant: int
    discordant: int
    ties_x: int
    ties_y: int
    ties_xy: int
    tau_a: float
    tau_b: float

    @property
    def total_pairs(self) -> int:
        return self.n * (self.n - 1) // 2


def _counts_to_taus(n: int, conc: int, disc: int, tx: int, ty: int, txy: int) -> KendallCounts:
    n0 = n * (n - 1) // 2
    if conc + disc + tx + ty + txy != n0:
        raise AssertionError("pair categories do not partition all pairs")
    numer = conc - disc
    tau_a = numer / n0
    not_tied_y = conc + disc + tx
    not_tied_x = conc + disc + ty
    if not_tied_x == 0 or not_tied_y == 0:
        raise DegenerateInputError("tau-b undefined: one vector is entirely tied")
    tau_b = numer / math.sqrt(not_tied_x * not_tied_y)
    tau_b = max(-1.0, min(1.0, tau_b))
    return KendallCounts(n, conc, disc, tx, ty, txy, tau_a, tau_b)


def kendall_tau_naive(x, y, block: int | None = None) -> KendallCounts:
    """Count all n(n-1)/2 pairs literally. O(n^2), the reference kernel.

    Blocked so the pair matrices stay cache-sized; usable to a few tens of
    thousands of points, after which :func:`kendall_tau_fast` (which this
    function exists to check) is the only practical option. Each of the
    five pair classes is counted from its own bool mask of a block. A
    diagonal block is compared a strip of rows at a time: each strip meets
    the rows after it in the block once, and only its own small square is
    counted in full, each pair twice and each point once.

    The default block grows with n (within fixed bounds), and the squares
    cover at most ``_NAIVE_STRIP`` cells per point, so measured cost tracks
    the true pair count.
    """
    xv, yv = _as_pair_vectors(x, y)
    n = xv.size
    if block is None:
        block = min(_NAIVE_BLOCK, max(256, n // 8))
    if block < 1:
        raise ValidationError(f"block must be >= 1, got {block}")
    # C, D, TX, TY and TXY: off the squares, then on them, where each pair is met both ways
    counts = np.zeros((2, 5), dtype=np.int64)
    for i0, i1, j0, j1, square in _naive_tiles(n, block):
        xi, yi = xv[i0:i1, None], yv[i0:i1, None]
        x_gt, x_lt = xi > xv[j0:j1], xi < xv[j0:j1]
        y_gt, y_lt = yi > yv[j0:j1], yi < yv[j0:j1]
        x_tied, y_tied = x_gt == x_lt, y_gt == y_lt  # neither greater nor less
        classes = ((x_gt & y_gt) | (x_lt & y_lt), (x_gt & y_lt) | (x_lt & y_gt),
                   x_tied > y_tied, y_tied > x_tied, x_tied & y_tied)
        counts[square] += [np.count_nonzero(mask) for mask in classes]
    off, squares = counts.tolist()
    squares[4] -= n  # each point met itself once, tied in both
    return _counts_to_taus(n, *(c + d // 2 for c, d in zip(off, squares)))


def _naive_tiles(n: int, block: int) -> Iterator[tuple[int, int, int, int, int]]:
    """The (row start, row end, column start, column end, square) tiles that
    cover each pair of n points once, or twice where ``square`` is 1."""
    for i0 in range(0, n, block):
        i1 = min(i0 + block, n)
        for r0 in range(i0, i1, _NAIVE_STRIP):  # the diagonal block
            r1 = min(r0 + _NAIVE_STRIP, i1)
            yield r0, r1, r0, r1, 1
            if r1 < i1:
                yield r0, r1, r1, i1, 0
        for j0 in range(i1, n, block):
            yield i0, i1, j0, j0 + block, 0


def kendall_tau_fast(x, y) -> KendallCounts:
    """Pair counting from dense codes, near O(n log n); handles tens of millions.

    Codes x and y densely by counting (a side that is not ranks is ranked
    first), and takes each side's tied pairs from the same counts. When the
    (x code, y code) histogram has at most 4 cells per pair, as on heavily
    tied rank data, the discordant pairs and the pairs tied in both come
    from that histogram; otherwise from one sort on the combined key
    x_code * n_y + y_code, counting discordant pairs as strict inversions
    of y_code in that order (Knight 1966). Produces exactly the same
    KendallCounts as :func:`kendall_tau_naive`.
    """
    xv, yv = _as_pair_vectors(x, y)
    n = xv.size
    x_code, n_x, tie_x = _dense_codes(xv)
    y_code, n_y, tie_y = _dense_codes(yv)
    if n_x * n_y <= _HISTOGRAM_CELLS_PER_PAIR * n:
        disc, tie_xy = _histogram_counts(x_code, y_code, n_x, n_y)
    else:
        disc, tie_xy = _merge_counts(x_code, y_code)
    conc = n * (n - 1) // 2 - tie_x - tie_y + tie_xy - disc
    return _counts_to_taus(n, conc, disc, tie_x - tie_xy, tie_y - tie_xy, tie_xy)


def _dense_codes(values: np.ndarray) -> tuple[np.ndarray, int, int]:
    """The code 0..k-1 of each value's rank among the k distinct values, k,
    and the number of pairs of equal values.

    Integers in [0, n], such as ranks, are coded from their counts with no
    sort. Any other values, such as mid-ranks, are first mapped to n minus
    their competition rank, integers in [0, n) in the same order and with
    the same ties, and coded from those counts.
    """
    n = values.size
    if not (values.dtype.kind == "i" and n and values.min() >= 0 and values.max() <= n):
        values = _competition_ranks(values)
        np.subtract(n, values, out=values)
    counts = np.bincount(values)
    tied = _tied_pairs(counts)
    present = counts > 0
    code_of = np.cumsum(present, out=counts)  # the counts are read, so their array takes the codes
    code_of -= 1
    return code_of[values], int(code_of[-1]) + 1, tied


def _histogram_counts(x_code: np.ndarray, y_code: np.ndarray, n_x: int,
                      n_y: int) -> tuple[int, int]:
    """Discordant pairs and pairs tied in both, from the n_x * n_y histogram
    of the (x code, y code) pairs.

    A cell's points are discordant with every point of an earlier x group
    that has a higher y code. Walks the groups of the shorter side, which
    is safe because both counts are symmetric in x and y.
    """
    if n_x > n_y:
        x_code, y_code, n_x, n_y = y_code, x_code, n_y, n_x
    key = x_code * n_y
    key += y_code
    hist = np.bincount(key, minlength=n_x * n_y).reshape(n_x, n_y)
    del key  # n cells, freed before the walk
    tie_xy = _tied_pairs(hist)
    disc = 0
    at_most = np.zeros(n_y, dtype=np.int64)  # points of earlier groups with y code <= b
    for row in hist:
        disc += int(np.dot(row, at_most[-1] - at_most))
        at_most += np.cumsum(row)
    return disc, tie_xy


def _merge_counts(x_code: np.ndarray, y_code: np.ndarray) -> tuple[int, int]:
    """Discordant pairs and pairs tied in both, from one sort of the pair keys."""
    keys, span = _sorted_pair_keys(x_code, y_code)
    _, xy_lengths = _runs(keys)
    keys %= span  # the y codes in (x, y) order
    return _count_strict_inversions(keys), _tied_pairs(xy_lengths)


def _tied_pairs(counts: np.ndarray) -> int:
    """Sum of c*(c-1)/2 over counts c of equal values, as (sum of c*c - sum of c) / 2."""
    return (int(np.vdot(counts, counts)) - int(counts.sum())) // 2


def _count_strict_inversions(codes: np.ndarray) -> int:
    """Number of index pairs i < j with codes[i] > codes[j]; sorts the int64 codes in place.

    Bottom-up merge passes, fully vectorized: at each pass every pair of
    adjacent width-blocks is counted at once. The codes of different rows
    are pushed into disjoint value ranges (row * span) so one flat
    searchsorted call resolves every block pair simultaneously; a stable
    row-wise sort then merges the blocks for the next pass.
    """
    n = codes.size
    if n < 2:
        return 0
    span = n  # dense codes live in [0, n), so row offsets never collide
    total = 0
    width = 1
    while width < n:
        two = width * 2
        npairs = n // two
        m = npairs * two
        if npairs:
            mat = codes[:m].reshape(npairs, two)
            offset = np.arange(0, npairs * span, span, dtype=np.int64)[:, None]
            pos = np.searchsorted((mat[:, :width] + offset).ravel(), (mat[:, width:] + offset).ravel(),
                                  side="right")
            # pos counts, for each right element, the left elements <= it in its own
            # row and all width left elements of each earlier row
            total += width * width * (npairs * (npairs + 1) // 2) - int(pos.sum(dtype=np.int64))
            mat.sort(axis=1, kind="stable")
        remainder = n - m
        if remainder > width:
            left_tail = codes[m : m + width]
            right_tail = codes[m + width :]
            pos = np.searchsorted(left_tail, right_tail, side="right")
            total += width * right_tail.size - int(pos.sum(dtype=np.int64))
            codes[m:] = np.sort(codes[m:], kind="stable")
        width = two
    return total


def tau_to_rho(tau: float) -> float:
    """Estimate Spearman's rho from Kendall's tau-b.

    Uses the odd cubic rho_est = (3*tau - tau^3) / 2: exact at -1, 0, +1,
    strictly monotone on [-1, 1], and |rho_est| >= |tau| everywhere, which
    matches the empirical regularity that rho runs above tau in magnitude
    on real rank data (0.8 maps to 0.944).
    """
    if isinstance(tau, bool) or not isinstance(tau, (int, float, np.floating, np.integer)):
        raise ValidationError(f"tau must be a number, got {type(tau).__name__}")
    t = float(tau)
    if math.isnan(t) or not -1.0 <= t <= 1.0:
        raise ValidationError(f"tau must lie in [-1, 1], got {tau!r}")
    return (3.0 * t - t**3) / 2.0


def _permutations(n: int) -> np.ndarray:
    """All n! permutations of range(n), one per row of an int8 matrix."""
    perms = np.zeros((1, 0), dtype=np.int8)
    for k in range(n):  # insert k at each column of every permutation of range(k)
        m = len(perms)
        grown = np.empty((m * (k + 1), k + 1), dtype=np.int8)
        for pos in range(k + 1):
            rows = grown[pos * m:(pos + 1) * m]
            rows[:, :pos] = perms[:, :pos]
            rows[:, pos] = k
            rows[:, pos + 1:] = perms[:, pos:]
        perms = grown
    return perms


def _permutation_null(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|rho| of the x ranks against every one of the n! orderings of the y ranks.

    Ties stay as observed: the null is over the y ranks that were seen, not
    over a tie-free 1..n. n = 10 (3.6M orderings) takes about 100 MB.
    """
    dx = x.astype(np.float64) - x.mean(dtype=np.float64)
    dy = y.astype(np.float64) - y.mean(dtype=np.float64)
    scale = math.sqrt(float(np.dot(dx, dx)) * float(np.dot(dy, dy)))
    if scale == 0.0:
        raise DegenerateInputError("zero variance: one vector is entirely tied")
    perms = _permutations(x.size)
    total = np.zeros(len(perms))
    for i, weight in enumerate(dx.tolist()):
        total += (weight * dy)[perms[:, i]]
    return np.abs(total) / scale


def rho_significance(rho: float, n: int, method: str = "auto", ranks=None) -> float:
    """Two-sided p-value for an observed Spearman rho over n pairs.

    method="exact" pairs the x ranks with every ordering of the y ranks
    and returns the share of the n! orderings whose |rho| is at least the
    observed one (only for n <= 10; above that the factorial blows up).
    ``ranks`` is the (x, y) pair of rank vectors rho was computed from, so
    that the null keeps their ties; without it the ranks are taken to be
    tie-free (1..n), which is exact only for untied data. method="approx"
    uses the t statistic rho*sqrt((n-2)/(1-rho^2)) against Student's t
    with n-2 degrees of freedom, and ignores ``ranks``. method="auto"
    picks exact when n <= 10. The returned value is floored at 2.2e-16
    because tinier tail claims are numerically meaningless here; a t tail
    whose upper bound is already far below that floor is not computed.
    """
    if isinstance(rho, bool) or not isinstance(rho, (int, float, np.floating, np.integer)):
        raise ValidationError(f"rho must be a number, got {type(rho).__name__}")
    r = float(rho)
    if math.isnan(r) or not -1.0 <= r <= 1.0:
        raise ValidationError(f"rho must lie in [-1, 1], got {rho!r}")
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValidationError(f"n must be an integer, got {n!r}")
    n = int(n)
    if n < 2:
        raise DegenerateInputError(f"need n >= 2 pairs, got {n}")
    if method == "auto":
        method = "exact" if n <= EXACT_P_MAX_N else "approx"
    if method == "exact":
        if n > EXACT_P_MAX_N:
            raise ValidationError(f"exact method supports n <= {EXACT_P_MAX_N}, got {n}")
        if ranks is None:
            x = y = np.arange(1, n + 1)
        else:
            x, y = _as_pair_vectors(*ranks)
            if x.size != n:
                raise ValidationError(f"ranks hold {x.size} pairs, not n={n}")
        abs_rho = _permutation_null(x, y)
        # two-sided: mass at |rho_perm| >= |observed|, tolerant of float fuzz
        p = np.count_nonzero(abs_rho >= abs(r) - 1e-12) / abs_rho.size
    elif method == "approx":
        if n < 4:
            raise DegenerateInputError(f"t approximation needs n >= 4, got {n}")
        denom = 1.0 - r * r
        t = abs(r) * math.sqrt((n - 2) / denom) if denom > 0.0 else math.inf
        if t == math.inf or (t > 0.0 and _log_t_tail_bound(t, n - 2) < _LOG_CERTAINLY_FLOORED):
            p = 0.0
        else:
            # The one use of scipy, imported here so that no call whose
            # p-value is certainly at the floor, and no other subcommand,
            # pays for loading it. scipy.stats.t.sf(t, df) is stdtr(df, -t).
            from scipy.special import stdtr

            p = 2.0 * float(stdtr(n - 2, -t))
    else:
        raise ValidationError(f"method must be 'auto', 'exact', or 'approx', got {method!r}")
    return max(min(p, 1.0), P_VALUE_FLOOR)


def _log_t_tail_bound(t: float, df: int) -> float:
    """An upper bound on log P(|T| >= t) for Student's t with df > 1 and t > 0.

    The tail integral of the density f is at most that of (s/t) f(s), which
    has the closed form c * df / ((df - 1) * t) * (1 + t^2/df)^(-(df-1)/2);
    the density's constant c is below the normal's 1/sqrt(2 pi).
    """
    return (math.log(2.0 / math.sqrt(2.0 * math.pi)) + math.log(df / (df - 1))
            - math.log(t) - (df - 1) / 2 * math.log1p(t * t / df))


@dataclass(frozen=True)
class CurvePoint:
    checkpoint: int
    rho: float
    tau_b: float


def prefix_correlation_curve(x, y, checkpoints, fractional: bool = False) -> list[CurvePoint]:
    """Correlations over the first k pairs for each checkpoint k.

    The pairs must already be ordered by the primary ranking (ascending x
    rank), so each prefix is "the top k". Checkpoints must be strictly
    ascending and at most n; a checkpoint whose prefix is degenerate
    (fewer than 2 pairs, or zero variance) is skipped with a warning
    instead of failing the whole curve. With ``fractional``, x and y are
    competition ranks, and rho reads the mid-ranks of all n pairs
    (:func:`_spearman_ranks`), so a prefix keeps the whole sample's
    mid-ranks; tau_b counts the competition ranks, whose pairs order and
    tie as the mid-ranks' do.
    """
    xv, yv = _as_pair_vectors(x, y, min_n=0)
    n = xv.size
    cps = [int(k) for k in checkpoints]
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValidationError("checkpoints must be strictly ascending")
    if cps and cps[-1] > n:
        raise ValidationError(f"checkpoint {cps[-1]} exceeds the {n} available pairs")
    rx, ry = _spearman_ranks(xv, yv, fractional)
    rhos: list[tuple[int, float]] = []
    for k in cps:
        if k < 2:
            warnings.warn(f"checkpoint {k} skipped: needs at least 2 pairs")
            continue
        try:
            rhos.append((k, spearman_rho(rx[:k], ry[:k])))
        except DegenerateInputError as exc:
            warnings.warn(f"checkpoint {k} skipped: {exc}")
    del rx, ry  # any mid-ranks are freed before Kendall counts
    points: list[CurvePoint] = []
    for k, rho in rhos:
        try:  # after rho found variance on both sides, only floats with an inexact mean raise
            points.append(CurvePoint(k, rho, kendall_tau_fast(xv[:k], yv[:k]).tau_b))
        except DegenerateInputError as exc:
            warnings.warn(f"checkpoint {k} skipped: {exc}")
    return points


def _spearman_ranks(x: np.ndarray, y: np.ndarray, fractional: bool) -> tuple[np.ndarray, np.ndarray]:
    """The rank vectors rho reads: ``x`` and ``y`` themselves, or with
    ``fractional`` the mid-ranks of those competition ranks, one side at a time."""
    if not fractional:
        return x, y
    for v in (x, y):
        if v.dtype.kind != "i" or (v.size and (v.min() < 1 or v.max() > v.size)):
            raise ValidationError("fractional ranks are made from competition ranks: integers in [1, n]")
    return _mid_ranks(x), _mid_ranks(y)


@dataclass(frozen=True)
class CorrelationReport:
    """Everything the correlate pipeline reports for one paired sample."""

    n: int
    spearman_rho: float
    kendall_tau_a: float
    kendall_tau_b: float
    rho_estimated_from_tau: float
    p_value_rho: float
    concordant: int
    discordant: int
    ties_x: int
    ties_y: int
    ties_xy: int
    spearman_rho_shortcut: float | None = None


def correlation_report(x, y, diagnostic_shortcut: bool = False,
                       fractional: bool = False) -> CorrelationReport:
    """Bundle rho, tau-a/b, the tau-derived rho estimate, significance,
    and the raw pair counts for one paired rank sample.

    With ``fractional``, x and y are competition ranks: Kendall counts them
    as they are, since mid-ranks order and tie pairs as they do, and rho,
    its shortcut and its p-value read their mid-ranks (:func:`_spearman_ranks`).
    """
    counts = kendall_tau_fast(x, y)
    rx, ry = _spearman_ranks(*_as_pair_vectors(x, y), fractional)
    rho = spearman_rho(rx, ry)
    shortcut = spearman_rho_shortcut(rx, ry) if diagnostic_shortcut else None
    return CorrelationReport(
        n=counts.n,
        spearman_rho=rho,
        kendall_tau_a=counts.tau_a,
        kendall_tau_b=counts.tau_b,
        rho_estimated_from_tau=tau_to_rho(counts.tau_b),
        p_value_rho=rho_significance(rho, counts.n, ranks=(rx, ry)),
        concordant=counts.concordant,
        discordant=counts.discordant,
        ties_x=counts.ties_x,
        ties_y=counts.ties_y,
        ties_xy=counts.ties_xy,
        spearman_rho_shortcut=shortcut,
    )


def write_curve(points: list[CurvePoint], path) -> None:
    """Export ``checkpoint<TAB>rho<TAB>tau_b`` rows."""
    with write_utf8(path) as fh:
        for p in points:
            fh.write(f"{p.checkpoint}\t{p.rho!r}\t{p.tau_b!r}\n")
