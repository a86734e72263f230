"""count_corpus: the sharded count behind ``count --jobs N``.

Every ``--jobs`` value must write the bytes of the serial reference,
``write_stats(compute_tc_df(read_corpus(...)))``, or fail with its exit
code and message. The shard planner caps itself at the usable CPUs, so
the tests that need more shards than this machine has CPUs raise that
cap; the shard block size is lowered too, so that documents, lines and
CRLF pairs straddle block ends.
"""

import multiprocessing
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusstats import ParseError, TokenizerConfig, compute_tc_df, read_corpus, write_stats
from corpusstats import ingest, stats
from corpusstats.cli import main
from corpusstats.ingest import FileShard, StreamShard, corpus_shards
from corpusstats.stats import count_corpus

ROOT = Path(__file__).resolve().parents[1]
JOBS = (1, 2, 3, 4)


@contextmanager
def shard_limits(cpus=4, block=None):
    """Let the planner cut up to ``cpus`` shards, read in ``block``-byte blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "_usable_cpus", lambda: cpus)
        if block is not None:
            mp.setattr(ingest, "_STREAM_BLOCK", block)
        yield


def reference_bytes(corpus, tmp, separator=ingest.DEFAULT_SEPARATOR):
    out = tmp / "serial.stats"
    write_stats(compute_tc_df(read_corpus(corpus, separator=separator)), out)
    return out.read_bytes()


def count_bytes(corpus, tmp, jobs, separator=ingest.DEFAULT_SEPARATOR):
    out = tmp / f"jobs{jobs}.stats"
    assert main(["count", "--corpus", str(corpus), "--out", str(out), "--jobs", str(jobs),
                 "--separator", separator]) == 0
    return out.read_bytes()


SEPARATORS = ["%%DOC%%", "§—DOC—§"]
LINE_ENDS = ["\n", "\r\n", "\r"]
WORDS = ["a", "Word", "ÉTÉ", "σΣ", "x,", "(y)", "—", "%%DOC%%x", "x%%DOC%%", "§—DOC—§x", "  ", "\t",
         "can't", "_", "İ"]

lines = st.lists(st.sampled_from(WORDS), max_size=5).map(" ".join)
documents = st.lists(lines, max_size=4)


@st.composite
def stream_corpora(draw):
    """(text, separator) of a stream corpus with every line-end and edge case.

    A line equal to the separator ends a document, and a line that starts
    with it but is longer is a fault, so content lines that start with one
    separator appear only in corpora that use the other.
    """
    separator = draw(st.sampled_from(SEPARATORS))
    docs = draw(st.lists(documents, max_size=12))
    docs = [[line for line in doc if not line.startswith(separator)] for doc in docs]
    pieces = []
    for i, doc in enumerate(docs):
        if i:
            pieces.append(separator + draw(st.sampled_from(LINE_ENDS)))
        for line in doc:
            pieces.append(line + draw(st.sampled_from(LINE_ENDS)))
    if draw(st.booleans()):
        pieces.append(separator + draw(st.sampled_from(LINE_ENDS)))  # a trailing separator
    text = "".join(pieces)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final newline
    return text, separator


@settings(max_examples=60, deadline=None)
@given(corpus=stream_corpora(), block=st.sampled_from([1, 3, 8, 64, 1 << 20]))
def test_stream_counts_match_serial_for_every_jobs(corpus, block, tmp_path_factory):
    text, separator = corpus
    tmp = tmp_path_factory.mktemp("stream")
    path = tmp / "corpus.txt"
    path.write_bytes(text.encode("utf-8"))
    want = reference_bytes(path, tmp, separator)
    with shard_limits(block=block):
        for jobs in JOBS:
            assert count_bytes(path, tmp, jobs, separator) == want, jobs


@settings(max_examples=20, deadline=None)
@given(docs=st.lists(documents, max_size=6))
def test_directory_counts_match_serial_for_every_jobs(docs, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("dir")
    corpus = tmp / "docs"
    corpus.mkdir()
    for i, doc in enumerate(docs):
        (corpus / f"d{i:02d}.txt").write_bytes("\r\n".join(doc).encode("utf-8"))
    (corpus / "notes.md").write_text("not a document", encoding="utf-8")
    want = reference_bytes(corpus, tmp)
    with shard_limits():
        for jobs in JOBS:
            assert count_bytes(corpus, tmp, jobs) == want, jobs


def test_shards_start_after_separator_lines(tmp_path):
    path = tmp_path / "corpus.txt"
    data = b"a\n%%DOC%%\r\nb\r%%DOC%%\nc\n%%DOC%%\rd\n%%DOC%%\n"
    path.write_bytes(data)
    starts = set()
    for parts in range(1, 45):
        shards = corpus_shards(path, parts=parts)
        assert len(shards) <= parts
        assert shards[0].start == 0 and shards[-1].end == len(data)
        for left, right in zip(shards, shards[1:]):
            assert left.end == right.start
        starts.update(shard.start for shard in shards)
    # after the CRLF and the LF separator lines; not after the one ended by
    # a lone \r (offset 31), nor at the end of the file
    assert sorted(starts) == [0, 11, 21]


def test_directory_shards_are_runs_of_sorted_files(tmp_path):
    for name in ("c.txt", "a.txt", "b.txt", "skip.md"):
        (tmp_path / name).write_text("x", encoding="utf-8")
    shards = corpus_shards(tmp_path, parts=2)
    assert [[f.name for f in s.files] for s in shards] == [["a.txt"], ["b.txt", "c.txt"]]
    assert all(isinstance(s, FileShard) for s in shards)
    assert len(corpus_shards(tmp_path, parts=10)) == 3


def test_more_jobs_than_documents(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("one\n%%DOC%%\ntwo two\n", encoding="utf-8")
    want = reference_bytes(path, tmp_path)
    with shard_limits(cpus=8):
        assert len(corpus_shards(path, parts=8)) == 2
        for jobs in (1, 2, 8, 50):
            assert count_bytes(path, tmp_path, jobs) == want


# --- faults ----------------------------------------------------------------

def stream_with_faults(path, faults):
    """40 one-line documents; ``faults`` maps a document index to the line it gets."""
    lines = []
    for i in range(40):
        if i:
            lines.append(b"%%DOC%%")
        lines.append(faults.get(i, f"doc {i} text".encode()))
    path.write_bytes(b"\n".join(lines) + b"\n")


@pytest.mark.parametrize("faults", [
    {39: b"bad \xff byte"},
    {38: b"%%DOC%%x"},
    {8: b"%%DOC%% trailing", 33: b"bad \xc3 byte"},
    {5: b"bad \xe9", 36: b"bad \xff"},
], ids=["bad-utf8-last-shard", "malformed-separator-last-shard", "two-shards", "two-bad-bytes"])
def test_stream_faults_report_as_serial_for_every_jobs(faults, tmp_path, capsys):
    path = tmp_path / "corpus.txt"
    stream_with_faults(path, faults)
    assert len(corpus_shards(path, parts=4)) == 4
    with shard_limits(block=16):
        reports = []
        for jobs in JOBS:
            code = main(["count", "--corpus", str(path), "--out", str(tmp_path / "x"),
                         "--jobs", str(jobs)])
            reports.append((code, capsys.readouterr().err))
    with pytest.raises(ParseError) as serial:
        list(read_corpus(path))
    assert reports == [(2, f"error: {serial.value}\n")] * len(JOBS)
    assert not (tmp_path / "x").exists()


def test_directory_faults_report_as_serial_for_every_jobs(tmp_path, capsys):
    for i in range(6):
        (tmp_path / f"d{i}.txt").write_bytes(b"caf\xe9\n" if i in (2, 5) else b"ok\n")
    with shard_limits():
        reports = []
        for jobs in JOBS:
            code = main(["count", "--corpus", str(tmp_path), "--out", str(tmp_path / "x.stats"),
                         "--jobs", str(jobs)])
            reports.append((code, capsys.readouterr().err))
    assert reports == [(2, f"error: {tmp_path / 'd2.txt'}:1: not valid UTF-8\n")] * len(JOBS)


def test_separator_spanning_lines_reads_one_document(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a\nb\na\nb\n", encoding="utf-8")
    with shard_limits(block=2):
        table = count_corpus(path, separator="a\nb", jobs=2)
    assert table.doc_count == 1 and table.as_mapping() == {"a": (2, 1), "b": (2, 1)}


# --- workers ---------------------------------------------------------------

class RecordingContext:
    """A multiprocessing context whose pool records its size and runs in-process."""

    def __init__(self):
        self.pools = []

    def Pool(self, processes):
        self.pools.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, items):
        return map(fn, items)


@pytest.fixture
def recorded_pools(monkeypatch):
    context = RecordingContext()
    methods = []
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: methods.append(method) or context)
    yield context.pools
    assert set(methods) <= {"fork"}


def test_workers_are_capped_by_cpus_and_shards(recorded_pools, song_corpus_dir, tmp_path, monkeypatch):
    out = tmp_path / "out.stats"
    args = ["count", "--corpus", str(song_corpus_dir), "--out", str(out)]
    monkeypatch.setattr(stats, "_usable_cpus", lambda: 3)
    assert main([*args, "--jobs", "10000"]) == 0
    monkeypatch.setenv("CORPUSSTATS_JOBS", "10000")
    assert main(args) == 0
    monkeypatch.setattr(stats, "_usable_cpus", lambda: 64)
    assert main([*args, "--jobs", "10000"]) == 0  # five documents, five shards
    assert recorded_pools == [3, 3, 5]


def test_one_job_or_one_cpu_starts_no_pool(recorded_pools, song_corpus_dir, tmp_path, monkeypatch):
    out = tmp_path / "out.stats"
    assert main(["count", "--corpus", str(song_corpus_dir), "--out", str(out), "--jobs", "1"]) == 0
    monkeypatch.setattr(stats, "_usable_cpus", lambda: 1)
    assert main(["count", "--corpus", str(song_corpus_dir), "--out", str(out), "--jobs", "8"]) == 0
    assert recorded_pools == []


def test_zero_jobs_is_a_usage_error(recorded_pools, song_corpus_dir, tmp_path, monkeypatch):
    out = tmp_path / "out.stats"
    assert main(["count", "--corpus", str(song_corpus_dir), "--out", str(out), "--jobs", "0"]) == 1
    monkeypatch.setenv("CORPUSSTATS_JOBS", "0")
    assert main(["count", "--corpus", str(song_corpus_dir), "--out", str(out)]) == 1
    assert recorded_pools == [] and not out.exists()


def test_usable_cpus_is_positive():
    assert stats._usable_cpus() >= 1


def test_cli_import_loads_no_process_pool():
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import corpusstats.cli"],
                          capture_output=True, text=True, check=True, cwd=ROOT,
                          env={"PYTHONPATH": str(ROOT / "src")})
    modules = [line.split("|")[-1].strip() for line in proc.stderr.splitlines()]
    assert "corpusstats.cli" in modules
    assert [m for m in modules if m.split(".")[0] in ("multiprocessing", "concurrent")] == []


def test_one_job_never_imports_multiprocessing(song_corpus_dir, tmp_path):
    code = (
        "import sys\n"
        "from corpusstats.cli import main\n"
        f"assert main(['count', '--corpus', {str(song_corpus_dir)!r}, '--out', "
        f"{str(tmp_path / 'out.stats')!r}, '--jobs', '1']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env={"PYTHONPATH": str(ROOT / "src")})
    assert proc.stdout.strip() == "[]"


def test_stream_shard_tokens_match_read_corpus(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes("Α ΣΑΣ.\r\n%%DOC%%\r\n\r\n%%DOC%%\rLong, long\rday".encode("utf-8"))
    cfg = TokenizerConfig()
    want = [doc.tokens for doc in read_corpus(path, cfg)]
    for block in (1, 2, 5, 1 << 20):
        with shard_limits(block=block):
            got = [tokens for shard in corpus_shards(path, parts=3) for tokens in shard.token_lists(cfg)]
        assert got == want == [["α", "σας"], [], ["long", "long", "day"]]
    assert all(isinstance(s, StreamShard) for s in corpus_shards(path, parts=3))
