"""Output checks for the pipeline benchmark.

Each check recomputes a CLI output with a different implementation than
the program's (scipy/numpy routines, integer or string arithmetic, the
generator's own tallies) and returns ``(name, ok, detail)`` tuples. The
benchmark counts every tuple as one check attempted and every ``ok ==
False`` as one failure.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats as sps

Check = tuple[str, bool, str]

REL = 1e-9  # float agreement between the program and an oracle


@dataclass
class Table:
    terms: np.ndarray  # unicode, in file order
    tc: np.ndarray
    df: np.ndarray
    docs: int

    def lookup(self) -> dict[str, tuple[int, int]]:
        return dict(zip(self.terms.tolist(), zip(self.tc.tolist(), self.df.tolist())))


def load_table(path: Path) -> Table:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    docs = int(lines[0][3:])
    cols = list(zip(*(line.split("\t") for line in lines[1:]))) or [(), (), ()]
    return Table(
        np.array(cols[0], dtype=str),
        np.array(cols[1], dtype=np.int64),
        np.array(cols[2], dtype=np.int64),
        docs,
    )


def load_freq_list(path: Path) -> dict[str, int]:
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            term, count = line.split("\t")
            out[term] = int(count)
    return out


def digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def close(a: float, b: float, rel: float = REL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


def _rows(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in Path(path).read_text(encoding="utf-8").splitlines()]


def competition_ranks(values: np.ndarray) -> np.ndarray:
    return sps.rankdata(-np.asarray(values, dtype=np.float64), method="min").astype(np.int64)


# --- count ---------------------------------------------------------------

def check_count(j1: Path, j2: Path, expected: Path) -> list[Check]:
    got = Path(j1).read_bytes()
    want = Path(expected).read_bytes()
    detail = "" if got == want else f"{j1.name} differs from the generator's tc/df table"
    return [
        ("count.expected_table", got == want, detail),
        ("count.jobs_identical", got == Path(j2).read_bytes(), "--jobs 1 and --jobs 2 differ"),
    ]


# --- rank ----------------------------------------------------------------

def check_rank(path: Path, table: Table) -> list[Check]:
    rows = _rows(path)
    order = np.lexsort((table.terms, -table.tc))
    want_terms = table.terms[order].tolist()
    want_values = table.tc[order]
    terms = [r[0] for r in rows]
    values = np.array([int(r[1]) for r in rows], dtype=np.int64)
    ranks = np.array([int(r[2]) for r in rows], dtype=np.int64)
    same_order = terms == want_terms and np.array_equal(values, want_values)
    good_ranks = same_order and np.array_equal(ranks, competition_ranks(values))
    return [
        ("rank.order", same_order, "" if same_order else "rows not in (value desc, term asc) order"),
        ("rank.ranks", good_ranks, "" if good_ranks else "ranks differ from rankdata(method='min')"),
    ]


# --- correlate -----------------------------------------------------------

def _kv(path: Path) -> dict[str, str]:
    return {r[0]: r[1] for r in _rows(path)}


def _pearson_and_tau(x: np.ndarray, y: np.ndarray) -> tuple[float, float] | None:
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        return None
    return float(sps.pearsonr(x, y).statistic), float(sps.kendalltau(x, y).statistic)


def check_correlate(report: Path, curve: Path, checkpoints: list[int], table: Table) -> list[Check]:
    x = competition_ranks(table.tc)
    y = competition_ranks(table.df)
    n = x.size
    got = _kv(report)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rho, tau_b = _pearson_and_tau(x, y)
    pairs = sum(int(got[k]) for k in ("concordant", "discordant", "ties_x", "ties_y", "ties_xy"))
    n0 = n * (n - 1) // 2
    tau_a = (int(got["concordant"]) - int(got["discordant"])) / n0
    checks = [
        ("correlate.n", int(got["n"]) == n, f"n={got['n']} want {n}"),
        ("correlate.rho", close(float(got["spearman_rho"]), rho), f"rho {got['spearman_rho']} vs {rho!r}"),
        ("correlate.tau_b", close(float(got["kendall_tau_b"]), tau_b),
         f"tau_b {got['kendall_tau_b']} vs {tau_b!r}"),
        ("correlate.tau_a", close(float(got["kendall_tau_a"]), tau_a),
         f"tau_a {got['kendall_tau_a']} vs {tau_a!r}"),
        ("correlate.pair_counts", pairs == n0, f"pair counts sum to {pairs}, want {n0}"),
    ]
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    want = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k in checkpoints:
            point = _pearson_and_tau(xs[:k], ys[:k]) if k >= 2 else None
            if point is not None:
                want[k] = point
    rows = _rows(curve)
    got_curve = {int(r[0]): (float(r[1]), float(r[2])) for r in rows}
    curve_ok = got_curve.keys() == want.keys() and all(
        close(got_curve[k][0], want[k][0]) and close(got_curve[k][1], want[k][1]) for k in want
    )
    checks.append(("correlate.curve", curve_ok, "" if curve_ok else "prefix curve disagrees"))
    return checks


def check_kernels(table: Table, prefix: int, naive, fast) -> list[Check]:
    """The program's two Kendall kernels agree on a fixed prefix."""
    x = competition_ranks(table.tc)[:prefix]
    y = competition_ranks(table.df)[:prefix]
    a, b = naive(x, y), fast(x, y)
    return [("correlate.naive_equals_fast", a == b, f"naive {a} vs fast {b}")]


# --- ratio ---------------------------------------------------------------

ROUNDINGS = ("two_decimals", "one_decimal", "integer")


def half_up_key(value: float, places: int) -> str:
    """Round the shortest decimal string of ``value`` half away from zero."""
    text = repr(value)
    whole, _, frac = text.partition(".")
    if not whole.isdigit():
        raise ValueError(f"unexpected ratio {text}")
    frac = frac + "0" * (places + 1)
    units = int(whole + frac[:places]) + (frac[places] >= "5")
    scale = 10**places
    return f"{units // scale}.{units % scale:0{places}d}"


def half_even_key(value: float) -> str:
    whole = math.floor(value)
    rest = value - whole  # exact for doubles >= 1
    if rest > 0.5 or (rest == 0.5 and whole % 2 == 1):
        whole += 1
    return str(whole)


def expected_bins(table: Table, rounding: str) -> dict[str, int]:
    ratios, counts = np.unique(table.tc / table.df, return_counts=True)
    bins: Counter = Counter()
    for r, c in zip(ratios.tolist(), counts.tolist()):
        if rounding == "integer":
            key = half_even_key(r)
        else:
            key = half_up_key(r, 2 if rounding == "two_decimals" else 1)
        bins[key] += c
    return dict(bins)


def check_ratio(prefix: str, table: Table) -> list[Check]:
    checks = []
    ratios = table.tc / table.df
    n = ratios.size
    mean = math.fsum(ratios.tolist()) / n
    stddev = math.sqrt(math.fsum(((ratios - mean) ** 2).tolist()) / n)
    median = float(np.median(ratios))
    summaries = []
    for mode in ROUNDINGS:
        rows = _rows(Path(f"{prefix}.{mode}.tsv"))
        got = {r[0]: int(r[1]) for r in rows}
        keys = [float(r[0]) for r in rows]
        want = expected_bins(table, mode)
        total_ok = sum(got.values()) == n
        checks.append((f"ratio.{mode}.total", total_ok, f"bins sum to {sum(got.values())}, want {n}"))
        bins_ok = got == want and keys == sorted(keys)
        checks.append((f"ratio.{mode}.bins", bins_ok, "" if bins_ok else "bins differ from half-up rounding"))
        summary = _kv(Path(f"{prefix}.{mode}.summary.tsv"))
        best = max(want.items(), key=lambda kv: (kv[1], -float(kv[0])))[0]
        stats_ok = (
            close(float(summary["mean"]), mean, 1e-12)
            and close(float(summary["stddev"]), stddev)
            and float(summary["median"]) == median
            and summary["mode"] == best
            and int(summary["terms"]) == n
        )
        checks.append((f"ratio.{mode}.summary", stats_ok, f"summary {summary}"))
        summaries.append((summary["mean"], summary["stddev"], summary["median"]))
    same = len(set(summaries)) == 1
    checks.append(("ratio.summary_identical", same, "" if same else "summaries differ across roundings"))
    return checks


# --- ffreq ---------------------------------------------------------------

def check_ffreq(path: Path, table: Table) -> list[Check]:
    values, counts = np.unique(table.tc, return_counts=True)
    want = [[str(v), str(c)] for v, c in zip(values.tolist(), counts.tolist())]
    ok = _rows(path) == want
    return [("ffreq.counts", ok, "" if ok else "differs from np.unique(tc, return_counts=True)")]


# --- lexsig / compare-sig ------------------------------------------------

@dataclass
class Background:
    tc: dict[str, int]
    df: dict[str, int] | None  # None: tc-as-df
    docs: int

    def weight(self, term: str, count: int) -> float:
        seen = self.tc.get(term, 0) if self.df is None else self.df.get(term, 0)
        if self.df is None:
            seen = min(seen, self.docs)
        return float(count) * max(0.0, math.log10((self.docs + 1) / (seen + 1)))

    def signature(self, tokens: list[str], k: int) -> list[tuple[str, float]]:
        weights = {t: self.weight(t, c) for t, c in Counter(tokens).items()}
        return sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def background_models(table: Table, freq: dict[str, int], n_hat: int):
    lookup = table.lookup()
    tc = {t: v[0] for t, v in lookup.items()}
    return {
        "measured": Background(tc, {t: v[1] for t, v in lookup.items()}, table.docs),
        "tc_as_df": Background(tc, None, table.docs),
        "freq_list": Background(freq, None, n_hat),
    }


def check_signatures(path: Path, docs: list[dict], model: Background, k: int, label: str) -> list[Check]:
    got: dict[str, list[tuple[str, float]]] = {d["id"]: [] for d in docs}
    for doc_id, term, weight in _rows(path):
        got.setdefault(doc_id, []).append((term, float(weight)))
    ok = list(got) == [d["id"] for d in docs]
    for d in docs:
        want = model.signature(d["tokens"], k)
        have = got.get(d["id"], [])
        ok = ok and [t for t, _ in have] == [t for t, _ in want] and all(
            close(a[1], b[1], 1e-12) for a, b in zip(have, want)
        )
    return [(f"{label}.signature", ok, "" if ok else f"{path.name}: signature differs")]


def check_compare(path: Path, docs: list[dict], measured: Background, proxy: Background, k: int) -> list[Check]:
    rows = _rows(path)
    ok = [r[0] for r in rows] == [d["id"] for d in docs]
    for row, d in zip(rows, docs):
        a = [t for t, _ in measured.signature(d["tokens"], k)]
        b = [t for t, _ in proxy.signature(d["tokens"], k)]
        shared = sorted(set(a) & set(b))
        tau = None
        if len(shared) >= 2:
            tau = float(sps.kendalltau([a.index(t) for t in shared], [b.index(t) for t in shared]).statistic)
        same_order = [t for t in a if t in shared] == [t for t in b if t in shared]
        displaced = set(a) != set(b) or not same_order
        tau_ok = row[4] == "NA" if tau is None else row[4] != "NA" and close(float(row[4]), tau, 1e-12)
        ok = ok and row[1:4] == [str(len(a)), str(len(b)), str(len(shared))] and tau_ok
        ok = ok and row[5] == ("true" if displaced else "false")
    return [("compare-sig.overlap", ok, "" if ok else f"{path.name}: comparison differs")]


def load_docs(path: Path) -> list[list[dict]]:
    return json.loads(Path(path).read_text(encoding="utf-8"))
