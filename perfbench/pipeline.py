"""Pipeline benchmark for corpusstats: wall time and peak RSS per CLI stage.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs ``src/corpusstats``). The
benchmark generates its inputs from ``--seed`` (``perfbench/gen.py``), runs
the real CLI as a user would (``python -m corpusstats.cli <stage> ...``, one
child process per call, one call at a time), and checks every output
against an independent oracle (``perfbench/oracle.py``).

With ``--trace 0`` it prints the end-to-end metrics: set-up time, the wall
time of a stage pass and of a lexsig call, and each stage's peak RSS
(``os.wait4`` rusage of the child), then, outside the JSON result, each
stage's own wall time. With ``--trace 1`` it reruns one round of the same calls through
``perfbench/tracer.py``, which calls ``cli.main`` in-process with timing
wrappers around each module's public functions, and prints per-layer
metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted``
counts CLI calls plus output checks and ``failed`` counts nonzero exits
plus failed checks (their ratio is the error rate).

Scratch files go to ``.perfbench_work/`` in the current directory, which
is removed at the end except for ``digests/``: output digests per seed, so
every later run of the same seed must reproduce the same bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import gen
import oracle

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
SIG_KINDS = ("lexsig", "compare_sig", "lexsig_tc_as_df", "lexsig_freq_list")
SIG_ROTATIONS = 2  # rotations through SIG_KINDS inside each stage pass
CALL_TIMEOUT_S = 170.0
WORK_DIR = ".perfbench_work"
KERNEL_PREFIX = 3000  # naive-vs-fast Kendall check, O(prefix^2) pairs
SIG_K = 5


@dataclass(frozen=True)
class Workload:
    kind: str  # which gen.generate input set
    corpus: str  # count input: stream file or docs directory
    expected: str  # the generator's tc/df table for that corpus
    table: str | None  # input of rank/correlate/ratio/ffreq; None: count's output
    sig_table: str  # background of the lexsig calls
    sig_freq: str


# Why each workload exists, and which layers it loads: README.md.
WORKLOADS = {
    "zipf_pipeline": Workload("zipf", "corpus.txt", "corpus.stats", None, "corpus.stats", "corpus.freq"),
    "pareto_table": Workload("pareto", "docs", "docs.stats", "pareto.stats", "docs.stats", "docs.freq"),
}

STAGES = ("count", "count_jobs2", "rank", "correlate", "ratio", "ffreq")
RSS_GROUPS = {
    "count_rss_mb": ("count", "count_jobs2"),
    "rank_rss_mb": ("rank",),
    "correlate_rss_mb": ("correlate",),
    "ratio_rss_mb": ("ratio",),
}


@dataclass
class Call:
    wall: float
    rss_mb: float
    code: int


@dataclass
class Tally:
    """Calls and checks attempted and failed, with failure details."""

    calls: int = 0
    checks: int = 0
    problems: list[str] = field(default_factory=list)

    def call(self, label: str, result: Call) -> None:
        self.calls += 1
        if result.code != 0:
            self.problems.append(f"call {label} exited with {result.code}")

    def add(self, checks) -> None:
        for name, ok, detail in checks:
            self.checks += 1
            if not ok:
                self.problems.append(f"check {name} failed: {detail}")

    def guarded(self, name: str, fn, *args) -> None:
        """Run a check group; an exception (say, a missing output) is one failure."""
        try:
            self.add(fn(*args))
        except Exception as exc:  # the benchmark must report, not crash
            self.add([(name, False, f"{type(exc).__name__}: {exc}")])

    @property
    def attempted(self) -> int:
        return self.calls + self.checks

    @property
    def failed(self) -> int:
        return len(self.problems)


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"  # same dict layouts, so the same work, on every run
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Context:
    """Where a run works and how it starts children (through launcher.py)."""

    root: Path  # the source checkout
    work: Path  # scratch directory of this run
    launcher: subprocess.Popen

    def __post_init__(self):
        self.env = child_env(self.root)
        self.log = self.work / "stderr.log"

    def run(self, argv: list[str]) -> Call:
        """Run one child to completion; wall time and os.wait4 peak RSS."""
        request = {"argv": argv, "env": self.env, "log": str(self.log), "timeout": CALL_TIMEOUT_S}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        got = json.loads(reply)
        return Call(got["wall"], got["rss_mb"], got["code"])


def cli_argv(args: list) -> list[str]:
    return [sys.executable, "-m", "corpusstats.cli", *map(str, args)]


def checkpoints(n: int) -> list[int]:
    out, k = [], 10
    while k <= n:
        out.append(k)
        k *= 10
    return out


class Plan:
    """The CLI calls of one workload, with their inputs and output paths."""

    def __init__(self, wl: Workload, ctx: Context, size: gen.Size):
        self.wl = wl
        self.ctx = ctx
        self.inputs = ctx.work / "inputs"
        self.outputs = ctx.work / "outputs"
        self.size = size

    def setup(self, seed: int) -> float:
        """Generate inputs, read every file once, import the CLI once; seconds."""
        start = time.perf_counter()
        shutil.rmtree(self.inputs, ignore_errors=True)
        gen.generate(self.wl.kind, self.inputs, seed, self.size)
        for path in sorted(self.inputs.rglob("*")):
            if path.is_file():
                path.read_bytes()
        code = subprocess.run([sys.executable, "-c", "import corpusstats.cli"], env=self.ctx.env).returncode
        if code != 0:
            raise SystemExit(f"importing corpusstats.cli failed with exit code {code}")
        return time.perf_counter() - start

    def load(self) -> None:
        """Oracle-side copies of the inputs, for checkpoints and checks."""
        inp = self.inputs
        self.table = oracle.load_table(inp / (self.wl.table or self.wl.expected))
        sig_table = oracle.load_table(inp / self.wl.sig_table)
        self.n_hat = sig_table.docs
        self.models = oracle.background_models(sig_table, oracle.load_freq_list(inp / self.wl.sig_freq),
                                               self.n_hat)
        self.batches = oracle.load_docs(inp / "docs.json")

    def stage_calls(self, out: Path) -> list[tuple[str, list]]:
        inp = self.inputs
        table = out / "count.j1.stats" if self.wl.table is None else inp / self.wl.table
        cps = ",".join(map(str, checkpoints(self.table.tc.size)))
        return [
            ("count", ["count", "--corpus", inp / self.wl.corpus, "--out", out / "count.j1.stats",
                       "--jobs", 1]),
            ("count_jobs2", ["count", "--corpus", inp / self.wl.corpus, "--out",
                             out / "count.j2.stats", "--jobs", 2]),
            ("rank", ["rank", "--stats", table, "--by", "tc", "--out", out / "rank.tsv"]),
            ("correlate", ["correlate", "--stats", table, "--out", out / "correlate.tsv",
                           "--curve-out", out / "curve.tsv", "--checkpoints", cps]),
            ("ratio", ["ratio", "--stats", table, "--out-prefix", out / "ratio"]),
            ("ffreq", ["ffreq", "--stats", table, "--out", out / "ffreq.tsv"]),
        ]

    def sig_call(self, i: int, out: Path) -> tuple[str, list, Path]:
        """The i-th call of the lexsig rotation: (digest label, args, output)."""
        kind = SIG_KINDS[i % len(SIG_KINDS)]
        b = i // len(SIG_KINDS) % len(self.batches)
        docs = []
        for doc in self.batches[b]:
            docs += ["--doc", self.inputs / "docs" / f"{doc['id']}.txt"]
        table = self.inputs / self.wl.sig_table
        path = out / f"sig{i:04d}.tsv"
        args = {
            "lexsig": ["lexsig", "--stats", table],
            "lexsig_tc_as_df": ["lexsig", "--stats", table, "--tc-as-df"],
            "lexsig_freq_list": ["lexsig", "--freq-list", self.inputs / self.wl.sig_freq,
                                 "--n-hat", self.n_hat],
            "compare_sig": ["compare-sig", "--stats", table],
        }[kind]
        return f"{kind}.b{b}", [*args, *docs, "--k", SIG_K, "--out", path], path

    def check_stages(self, tally: Tally, out: Path) -> None:
        table = self.table
        tally.guarded("count", oracle.check_count, out / "count.j1.stats", out / "count.j2.stats",
                      self.inputs / self.wl.expected)
        tally.guarded("rank", oracle.check_rank, out / "rank.tsv", table)
        tally.guarded("correlate", oracle.check_correlate, out / "correlate.tsv", out / "curve.tsv",
                      checkpoints(table.tc.size), table)
        tally.guarded("ratio", oracle.check_ratio, str(out / "ratio"), table)
        tally.guarded("ffreq", oracle.check_ffreq, out / "ffreq.tsv", table)

    def check_sig(self, tally: Tally, label: str, path: Path) -> None:
        kind, batch = label.split(".b")
        docs = self.batches[int(batch)]
        if kind == "compare_sig":
            tally.guarded("compare-sig", oracle.check_compare, path, docs,
                          self.models["measured"], self.models["tc_as_df"], SIG_K)
        else:
            model = {"lexsig": "measured", "lexsig_tc_as_df": "tc_as_df",
                     "lexsig_freq_list": "freq_list"}[kind]
            tally.guarded(kind, oracle.check_signatures, path, docs, self.models[model], SIG_K, kind)

    def check_kernels(self, tally: Tally) -> float:
        """naive == fast on a fixed prefix; returns the naive kernel's seconds."""
        sys.path.insert(0, str(self.ctx.root / "src"))
        from corpusstats import correlation

        spent = []

        def naive(x, y):
            start = time.perf_counter()
            try:
                return correlation.kendall_tau_naive(x, y)
            finally:
                spent.append(time.perf_counter() - start)

        tally.guarded("correlate.kernels", oracle.check_kernels, self.table, KERNEL_PREFIX,
                      naive, correlation.kendall_tau_fast)
        return spent[0] if spent else float("nan")


STAGE_OUTPUTS = ("count.j1.stats", "count.j2.stats", "rank.tsv", "correlate.tsv", "curve.tsv",
                 *(f"ratio.{m}{ext}" for m in oracle.ROUNDINGS for ext in (".tsv", ".summary.tsv")),
                 "ffreq.tsv")


class Digests:
    """Output digests: every copy of an output must match the first one seen.

    The first copy of each label is also kept on disk per (workload, size,
    seed), so a later run of the same seed, traced or not, is held to it.
    """

    def __init__(self, path: Path):
        self.path = path
        self.known = json.loads(path.read_text()) if path.is_file() else {}
        self.seen: dict[str, list[str]] = defaultdict(list)

    def add(self, label: str, path: Path) -> None:
        self.seen[label].append(oracle.digest(path) if path.is_file() else "missing")

    def checks(self):
        out = []
        for label, digests in sorted(self.seen.items()):
            want = self.known.setdefault(label, digests[0])
            out.append((f"digest.{label}", all(d == want for d in digests),
                        f"{len(set(digests + [want]))} distinct digests"))
        return out

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.known, sort_keys=True, indent=1))


def timed_run(plan: Plan, seed: int, seconds: float, tally: Tally, digests: Digests):
    setups = [plan.setup(seed) for _ in range(SETUP_REPEATS)]
    plan.load()
    walls: dict[str, list[float]] = defaultdict(list)
    rss: dict[str, list[float]] = defaultdict(list)
    sig_walls: list[float] = []
    sig_rss: list[float] = []
    sig_outputs: list[tuple[str, Path]] = []
    passes = 0
    start = time.perf_counter()
    (plan.outputs / "sig").mkdir(parents=True)
    # The lexsig calls of a pass are spread over it, so that they sample the
    # machine's speed at different moments, as the stage calls do.
    sig_per_pass = SIG_ROTATIONS * len(SIG_KINDS)
    while passes == 0 or time.perf_counter() - start < seconds:
        out = plan.outputs / f"pass{passes}"
        out.mkdir()
        for i, (stage, args) in enumerate(plan.stage_calls(out)):
            result = plan.ctx.run(cli_argv(args))
            tally.call(stage, result)
            walls[stage].append(result.wall)
            rss[stage].append(result.rss_mb)
            for _ in range(sig_per_pass * (i + 1) // len(STAGES) - sig_per_pass * i // len(STAGES)):
                label, args, path = plan.sig_call(len(sig_outputs), plan.outputs / "sig")
                result = plan.ctx.run(cli_argv(args))
                tally.call(label, result)
                sig_walls.append(result.wall)
                sig_rss.append(result.rss_mb)
                sig_outputs.append((label, path))
        passes += 1

    measured = time.perf_counter() - start
    plan.check_stages(tally, plan.outputs / "pass0")
    plan.check_kernels(tally)
    for p in range(passes):
        for name in STAGE_OUTPUTS:
            digests.add(name, plan.outputs / f"pass{p}" / name)
    checked = set()
    for label, path in sig_outputs:
        if label not in checked:
            plan.check_sig(tally, label, path)
            checked.add(label)
        digests.add(label, path)
    tally.add(digests.checks())

    pass_walls = [sum(walls[stage][p] for stage in STAGES) for p in range(passes)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "stages_s": (statistics.median(pass_walls), "s"),
        # The call kinds differ in cost (a frequency list parses slower than
        # a stats table loads), so a median over a few mixed calls jumps
        # between kinds; a rotation weighs each kind once.
        "sig_call_s": (statistics.median(
            statistics.fmean(sig_walls[i : i + len(SIG_KINDS)])
            for i in range(0, len(sig_walls), len(SIG_KINDS))), "s"),
    }
    for name, stages in RSS_GROUPS.items():
        per_pass = [max(rss[s][p] for s in stages) for p in range(passes)]
        metrics[name] = (statistics.median(per_pass), "MB")
    metrics["sig_rss_mb"] = (max(sig_rss), "MB")
    # Single samples per run: printed for reading, too noisy to bound.
    extra = {f"{stage}_s": (statistics.median(walls[stage]), "s") for stage in STAGES}
    extra["sig_call_p50_s"] = (statistics.median(sig_walls), "s")
    tail = tail_percentile(sig_walls)
    extra["sig_call_tail_s"] = (tail[0], f"s (p{tail[1]:.0f} of {len(sig_walls)} calls)") if tail else (
        float("nan"), f"s (needs 11 calls, had {len(sig_walls)})")
    info = {"passes": passes, "sig_calls": len(sig_walls), "setup_runs_s": setups,
            "measured_s": measured, "checks_s": time.perf_counter() - start - measured}
    return metrics, extra, info


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest nearest-rank percentile with ten samples above it, if any."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


# --- traced run ------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children[i]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def import_times(env: dict) -> tuple[float, float]:
    """Import seconds of corpusstats.cli, and the scipy part of it, from -X importtime.

    scipy loads ``scipy.stats`` lazily, so no line carries that name; the
    scipy share is the sum over scipy modules imported by a non-scipy module.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import corpusstats.cli"],
                          env=env, capture_output=True, text=True, check=True)
    rows = []  # (depth, name, cumulative seconds), children before parents
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[0].startswith("import time:") and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            depth = len(name) - len(name.lstrip())
            rows.append((depth, name.strip(), int(parts[1]) / 1e6))
    cli_s = scipy_s = 0.0
    for i, (depth, name, cumulative) in enumerate(rows):
        if name == "corpusstats.cli":
            cli_s = cumulative
        if name.startswith("scipy"):
            parent = next((n for d, n, _ in rows[i + 1:] if d < depth), "")
            if not parent.startswith("scipy"):
                scipy_s += cumulative
    return cli_s, scipy_s


def traced_run(plan: Plan, seed: int, tally: Tally, digests: Digests):
    ctx = plan.ctx
    plan.setup(seed)
    plan.load()
    imports = [import_times(ctx.env) for _ in range(SETUP_REPEATS)]
    calls = []
    for mode in ("untraced", "traced"):
        out = plan.outputs / mode
        out.mkdir(parents=True)
        calls += [(mode, stage, args) for stage, args in plan.stage_calls(out)]
        for i in range(len(SIG_KINDS)):
            label, args, _ = plan.sig_call(i, out)
            calls.append((mode, label, args))
    total = defaultdict(float)
    own = defaultdict(float)
    spans_n = defaultdict(int)
    small_tau: list[float] = []
    counters: dict[str, float] = defaultdict(float)
    peaks: dict[str, float] = defaultdict(float)
    main_s = defaultdict(float)
    stage_main: dict[str, list[float]] = defaultdict(list)  # untraced cli.main seconds
    worst_gap = 0.0
    # Interleave untraced and traced children of the same call.
    half = len(calls) // 2
    for pair in zip(calls[:half], calls[half:]):
        for mode, label, args in pair:
            spans_file = ctx.work / "spans.json"
            argv = [sys.executable, str(HERE / "tracer.py"), "--src", str(ctx.root / "src"),
                    "--spans", str(spans_file), *(["--off"] if mode == "untraced" else []), "--",
                    *map(str, args)]
            result = ctx.run(argv)
            data = json.loads(spans_file.read_text()) if spans_file.is_file() else {"code": -1}
            tally.call(f"{mode}:{label}", Call(result.wall, result.rss_mb, result.code or data["code"]))
            if data["code"] != 0:
                continue
            main_s[mode] += data["main_s"]
            if mode == "untraced":
                stage_main[label if label in STAGES else "sig_call"].append(data["main_s"])
                continue
            spans = data["spans"]
            mine = self_times(spans)
            worst_gap = max(worst_gap, abs(sum(mine) - data["main_s"]))
            for (name, start, end, _), s in zip(spans, mine):
                total[name] += end - start
                own[name] += s
                spans_n[name] += 1
                if name.endswith(".small"):
                    small_tau.append(end - start)
            for key, value in data["counters"].items():
                counters[key] += value
            for key, value in data["peaks"].items():
                peaks[key] = max(peaks[key], value)
            spans_file.unlink()

    out = plan.outputs / "traced"
    plan.check_stages(tally, out)
    naive_s = plan.check_kernels(tally)
    for name in STAGE_OUTPUTS:
        digests.add(name, plan.outputs / "untraced" / name)
        digests.add(name, out / name)
    for i in range(len(SIG_KINDS)):
        for mode in ("untraced", "traced"):
            label, _, path = plan.sig_call(i, plan.outputs / mode)
            digests.add(label, path)
        plan.check_sig(tally, label, path)
    tally.add(digests.checks())

    tau = "correlation.kendall_tau_fast"
    ratios = plan.table.tc / plan.table.df
    distinct = int(len(set(ratios.tolist())))
    import_s, scipy_s = (statistics.median(v) for v in zip(*imports))
    m = {
        "ingest.tokenize_s": (total["ingest.tokenize"], "s"),
        "ingest.tokenize_calls": (counters["ingest.tokenize_calls"], "count"),
        "ingest.tokens": (counters["ingest.tokens"], "count"),
        "ingest.read_corpus_self_s": (own["ingest.read_corpus"], "s"),
        "ingest.docs": (counters["ingest.docs"], "count"),
        "ingest.parse_frequency_list_s": (total["ingest.parse_frequency_list"], "s"),
        "ingest.freq_list_rows": (counters["ingest.freq_list_rows"], "count"),
        "stats.compute_tc_df_self_s": (own["stats.compute_tc_df"], "s"),
        "stats.compute_tc_df_jobs2_self_s": (own["stats.compute_tc_df_jobs2"], "s"),
        "stats.merge_s": (total["stats.merge"], "s"),
        "stats.merge_calls": (counters["stats.merge_calls"], "count"),
        "stats.merge_entries_copied": (counters["stats.merge_entries_copied"], "count"),
        "stats.merge_copies_per_term": (
            counters["stats.merge_entries_copied"] / max(peaks["stats.final_vocabulary"], 1), "ratio"),
        "stats.write_stats_s": (total["stats.write_stats"], "s"),
        "stats.read_stats_s": (total["stats.read_stats"], "s"),
        "stats.read_stats_rows": (counters["stats.read_stats_rows"], "count"),
        "stats.read_stats_rss_delta_mb": (peaks["stats.read_stats_rss_delta_mb"], "MB"),
        "stats.read_stats_columns_s": (total["stats.read_stats_columns"], "s"),
        "stats.read_stats_columns_rss_delta_mb": (peaks["stats.read_stats_columns_rss_delta_mb"], "MB"),
        "stats.count_arrays_s": (total["stats.count_arrays"], "s"),
        "stats.count_arrays_calls": (counters["stats.count_arrays_calls"], "count"),
        "stats.frequency_of_frequencies_s": (total["stats.frequency_of_frequencies"], "s"),
        "ranking.sports_rank_s": (total["ranking.sports_rank"], "s"),
        "ranking.sports_rank_rss_delta_mb": (peaks["ranking.sports_rank_rss_delta_mb"], "MB"),
        "ranking.ranked_by_self_s": (own["ranking.ranked_by"], "s"),
        "ranking.write_ranked_list_s": (total["ranking.write_ranked_list"], "s"),
        "ranking.rows_written": (counters["ranking.rows_written"], "count"),
        "ranking.rank_values_s": (total["ranking.rank_values"], "s"),
        "ranking.rank_values_calls": (counters["ranking.rank_values_calls"], "count"),
        f"{tau}_s": (total[tau] + total[f"{tau}.small"], "s"),
        f"{tau}_calls": (spans_n[tau] + spans_n[f"{tau}.small"], "count"),
        f"{tau}_small_call_us": (1e6 * statistics.fmean(small_tau) if small_tau else 0.0, "us"),
        "correlation.prefix_correlation_curve_self_s": (own["correlation.prefix_correlation_curve"], "s"),
        "correlation.correlation_report_self_s": (own["correlation.correlation_report"], "s"),
        "correlation.spearman_rho_s": (total["correlation.spearman_rho"], "s"),
        "correlation.rho_significance_s": (total["correlation.rho_significance"], "s"),
        "correlation.kendall_tau_naive_s": (naive_s, "s"),
        "ratio.ratio_histogram_two_decimals_s": (total["ratio.ratio_histogram_two_decimals"], "s"),
        "ratio.ratio_histogram_one_decimal_s": (total["ratio.ratio_histogram_one_decimal"], "s"),
        "ratio.ratio_histogram_integer_s": (total["ratio.ratio_histogram_integer"], "s"),
        "ratio.compute_ratios_self_s": (own["ratio.compute_ratios"], "s"),
        "ratio.write_s": (total["ratio.write"], "s"),
        "ratio.rows": (ratios.size, "count"),
        "ratio.distinct_ratios": (distinct, "count"),
        "ratio.distinct_share": (distinct / ratios.size, "ratio"),
        "lexsig.model_from_table_s": (total["lexsig.model_from_table"], "s"),
        "lexsig.model_from_entries_s": (total["lexsig.model_from_entries"], "s"),
        "lexsig.lexical_signature_s": (total["lexsig.lexical_signature"], "s"),
        "lexsig.lexical_signature_calls": (counters["lexsig.lexical_signature_calls"], "count"),
        "lexsig.idf_calls": (counters["lexsig.idf_calls"], "count"),
        "lexsig.compare_signatures_self_s": (own["lexsig.compare_signatures"], "s"),
        "cli.import_s": (import_s, "s"),
        "cli.import_scipy_stats_s": (scipy_s, "s"),
        "cli.main_self_s": (own["cli.main"], "s"),
        **{f"cli.{stage}_main_s": (statistics.fmean(stage_main[stage] or [float("nan")]), "s")
           for stage in (*STAGES, "sig_call")},
        "trace.overhead_frac": (main_s["traced"] / main_s["untraced"] - 1.0, "ratio"),
    }
    info = {"traced_main_s": main_s["traced"], "untraced_main_s": main_s["untraced"],
            "self_time_gap_s": worst_gap}
    return m, info


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def main(launcher: subprocess.Popen, argv=None) -> int:
    """Entry point behind run.py, which starts ``launcher`` first."""
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=_seed)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(gen.SIZES), default="bench",
                        help="input scale; 'tiny' for smoke tests, 'paper' for ROADMAP scale")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "corpusstats" / "cli.py").is_file():
        print(f"no corpusstats source under {root / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = Plan(WORKLOADS[args.workload], Context(root, work, launcher), gen.SIZES[args.size])
    digests = Digests(root / WORK_DIR / "digests" / f"{args.workload}-{args.size}-{args.seed}.json")
    tally = Tally()
    try:
        if args.trace:
            metrics, info = traced_run(plan, args.seed, tally, digests)
            extra = {}
        else:
            metrics, extra, info = timed_run(plan, args.seed, args.seconds, tally, digests)
        if not tally.problems:
            digests.save()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in tally.problems:
        print(problem)
    print(f"# {args.workload} seed={args.seed} size={args.size} {json.dumps(info)}")
    print(f"error_rate\t{tally.failed / tally.attempted!r}\tfraction"
          f"\t({tally.failed} of {tally.calls} calls + {tally.checks} checks)")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name}\t{value!r}\t{unit}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0
