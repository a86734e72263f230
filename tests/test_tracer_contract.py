"""The benchmark tracer wraps library functions by module attribute.

``perfbench/tracer.py`` replaces names such as ``stats.read_stats`` or
``ranking.sports_rank`` before it calls ``cli.main``. A renamed or removed
name makes every traced call fail, so each subcommand is run here through
the tracer exactly as the benchmark runs it: as a subprocess, because the
wrappers stay installed for the rest of the process.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from corpusstats.cli import main
from conftest import SONG_TITLES

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

CALLS = {
    "count": ["count", "--corpus", "{corpus}", "--out", "{out}", "--jobs", "1"],
    "count_jobs2": ["count", "--corpus", "{corpus}", "--out", "{out}", "--jobs", "2"],
    "rank_by": ["rank", "--stats", "{stats}", "--by", "tc", "--out", "{out}"],
    "rank_scatter": ["rank", "--stats", "{stats}", "--scatter", "--out", "{out}"],
    "correlate": ["correlate", "--stats", "{stats}", "--out", "{out}",
                  "--curve-out", "{out}.curve", "--checkpoints", "4,12"],
    "ratio": ["ratio", "--stats", "{stats}", "--out-prefix", "{out}"],
    "ffreq": ["ffreq", "--stats", "{stats}", "--out", "{out}"],
    "lexsig": ["lexsig", "--stats", "{stats}", "--doc", "{doc}", "--out", "{out}"],
    "lexsig_tc_as_df": ["lexsig", "--stats", "{stats}", "--tc-as-df", "--doc", "{doc}",
                        "--out", "{out}"],
    "lexsig_freq_list": ["lexsig", "--freq-list", "{freq}", "--n-hat", "5", "--doc", "{doc}",
                         "--out", "{out}"],
    "compare_sig": ["compare-sig", "--stats", "{stats}", "--doc", "{doc}", "--out", "{out}"],
}


@pytest.fixture(scope="module")
def song_inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("traced")
    corpus = base / "corpus"
    corpus.mkdir()
    for doc_id, text in SONG_TITLES:
        (corpus / f"{doc_id}.txt").write_text(text + "\n", encoding="utf-8")
    stats = base / "song.stats"
    assert main(["count", "--corpus", str(corpus), "--out", str(stats)]) == 0
    freq = base / "song.freq"
    rows = (line.split("\t") for line in stats.read_text(encoding="utf-8").splitlines()[1:])
    freq.write_text("".join(f"{term}\t{tc}\n" for term, tc, _ in rows), encoding="utf-8")
    return {"corpus": corpus, "stats": stats, "freq": freq, "doc": corpus / "d3.txt"}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_traced_call_succeeds(name, song_inputs, tmp_path):
    paths = {key: str(value) for key, value in song_inputs.items()}
    paths["out"] = str(tmp_path / name)
    args = [arg.format(**paths) for arg in CALLS[name]]
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(TRACER), "--src", str(ROOT / "src"), "--spans", str(spans),
         "--", *args],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(spans.read_text(encoding="utf-8"))
    assert payload["code"] == 0, proc.stderr
    assert payload["spans"], "the tracer recorded no spans"
