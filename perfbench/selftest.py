"""Self-test of the benchmark's output checker.

    python3 perfbench/selftest.py [--seed N]

Run from the root of a source checkout. First it makes one clean round of
CLI calls on tiny inputs and requires every check to pass. Then it plants
one seeded corruption per output kind in a copy of those outputs and
requires the checker to flag each one:

- one rank off by one (``rank --by tc``);
- one tc off by one (``count``);
- one histogram bin moved (``ratio``, two decimals);
- one signature weight changed (``lexsig``).

Finally it runs the benchmark itself on tiny inputs for every workload,
untraced and traced, and requires ``correct`` with no failures. Exits 0
only when all of this holds.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import gen
import pipeline

HERE = Path(__file__).resolve().parent


def _rewrite_line(path: Path, rng: random.Random, edit, skip_header: bool = False) -> str:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    first = 1 if skip_header else 0
    i = rng.randrange(first, len(lines))
    before = lines[i]
    lines[i] = edit(lines[i].rstrip("\n").split("\t")) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    return f"line {i + 1}: {before.strip()!r} -> {lines[i].strip()!r}"


def corrupt_rank(out: Path, rng: random.Random) -> str:
    return _rewrite_line(out / "rank.tsv", rng, lambda f: "\t".join([f[0], f[1], str(int(f[2]) + 1)]))


def corrupt_tc(out: Path, rng: random.Random) -> str:
    return _rewrite_line(out / "count.j1.stats", rng,
                         lambda f: "\t".join([f[0], str(int(f[1]) + 1), f[2]]), skip_header=True)


def corrupt_bin(out: Path, rng: random.Random) -> str:
    path = out / "ratio.two_decimals.tsv"
    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
    i = rng.randrange(len(rows) - 1)
    what = f"one term moved from bin {rows[i][0]} to bin {rows[i + 1][0]}"
    rows[i][1] = str(int(rows[i][1]) - 1)
    rows[i + 1][1] = str(int(rows[i + 1][1]) + 1)
    if rows[i][1] == "0":
        del rows[i]
    path.write_text("".join("\t".join(r) + "\n" for r in rows), encoding="utf-8")
    return what


def corrupt_weight(out: Path, rng: random.Random) -> str:
    return _rewrite_line(out / "sig0000.tsv", rng,
                         lambda f: "\t".join([f[0], f[1], repr(float(f[2]) * 1.001 + 1e-6)]))


CORRUPTIONS = {
    "rank off by one": corrupt_rank,
    "tc off by one": corrupt_tc,
    "histogram bin moved": corrupt_bin,
    "signature weight changed": corrupt_weight,
}


def check_all(plan: pipeline.Plan, out: Path) -> pipeline.Tally:
    tally = pipeline.Tally()
    plan.check_stages(tally, out)
    label, _, _ = plan.sig_call(0, out)
    plan.check_sig(tally, label, out / "sig0000.tsv")
    return tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "corpusstats" / "cli.py").is_file():
        print("run from the root of a source checkout", file=sys.stderr)
        return 2
    work = root / pipeline.WORK_DIR / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    failures = []
    launcher = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        ctx = pipeline.Context(root, work, launcher)
        plan = pipeline.Plan(pipeline.WORKLOADS["zipf_pipeline"], ctx, gen.SIZES["tiny"])
        plan.setup(args.seed)
        plan.load()
        clean = plan.outputs / "clean"
        clean.mkdir(parents=True)
        calls = plan.stage_calls(clean) + [plan.sig_call(0, clean)[:2]]
        for label, argv_ in calls:
            result = ctx.run(pipeline.cli_argv(argv_))
            if result.code != 0:
                failures.append(f"clean call {label} exited with {result.code}")
        tally = check_all(plan, clean)
        print(f"clean outputs: {tally.failed} of {tally.checks} checks failed")
        failures += [f"clean: {p}" for p in tally.problems]
        rng = random.Random(args.seed)
        for name, corrupt in CORRUPTIONS.items():
            bad = plan.outputs / name.replace(" ", "_")
            shutil.copytree(clean, bad)
            what = corrupt(bad, rng)
            tally = check_all(plan, bad)
            rate = tally.failed / tally.attempted
            print(f"{name}: {what}; error_rate {rate:.4f} ({tally.failed} failed)")
            if rate <= 0:
                failures.append(f"corruption not caught: {name}")
    finally:
        launcher.stdin.close()
        launcher.wait()
        shutil.rmtree(work, ignore_errors=True)

    for workload in pipeline.WORKLOADS:
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", "1", "--trace", trace, "--size", "tiny"],
                capture_output=True, text=True,
            )
            last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
            result = json.loads(last[0]) if last[0].startswith("{") else {}
            ok = proc.returncode == 0 and result.get("correct") and result.get("failed") == 0
            print(f"smoke {workload} trace={trace}: "
                  f"{'ok' if ok else 'FAILED'} ({result.get('attempted')} attempted)")
            if not ok:
                failures.append(f"smoke run {workload} trace={trace}: {proc.stdout[-2000:]}"
                                f"{proc.stderr[-2000:]}")
    for failure in failures:
        print(failure)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
