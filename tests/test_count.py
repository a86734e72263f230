"""count_corpus: the sharded count behind ``count --jobs N``.

Every ``--jobs`` value must write the bytes of the serial reference, or
fail with its exit code and message. The reference is independent of the
shard reader that ``read_corpus`` and ``count`` share: :func:`line_loop_documents`
splits a stream line by line over ``ingest.read_lines``. The shard planner
caps itself at the usable CPUs, so the tests that need more shards than
this machine has CPUs raise that cap; the shard block size is lowered
too, so that documents, lines and CRLF pairs straddle block ends.
"""

import io
import multiprocessing
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusstats import (
    Document,
    ParseError,
    TokenizerConfig,
    compute_tc_df,
    read_corpus,
    tokenize,
    write_stats,
)
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


def line_loop_documents(corpus, separator=ingest.DEFAULT_SEPARATOR, cfg=TokenizerConfig()):
    """The documents of a corpus, read one line at a time: the oracle.

    A directory's ``*.txt`` files are its documents, in name order. In a
    stream a line equal to ``separator`` ends a document, the lines after
    the last one are a document, and a line that starts with it but is
    longer raises ParseError once the documents before it are yielded.
    """
    corpus = Path(corpus)
    if corpus.is_dir():
        for file in sorted(corpus.glob("*.txt")):
            yield Document(file.stem, tokenize(ingest.read_utf8(file), cfg))
        return
    index = 0
    segment = None  # the lines of the document being read; None before its first line
    for line_no, line in enumerate(ingest.read_lines(corpus), 1):
        if line == separator:
            index += 1
            yield Document(f"doc{index:06d}", tokenize("\n".join(segment or []), cfg))
            segment = None
        elif line.startswith(separator):
            raise ParseError(corpus, line_no, f"malformed document separator: {line!r}")
        elif segment is None:
            segment = [line]
        else:
            segment.append(line)
    if segment is not None:
        yield Document(f"doc{index + 1:06d}", tokenize("\n".join(segment), cfg))


def reference_bytes(corpus, tmp, separator=ingest.DEFAULT_SEPARATOR):
    out = tmp / "serial.stats"
    write_stats(compute_tc_df(line_loop_documents(corpus, separator)), out)
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
        want_docs = list(line_loop_documents(path, separator))
        assert list(read_corpus(path, separator=separator)) == want_docs
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
        list(line_loop_documents(path))
    assert reports == [(2, f"error: {serial.value}\n")] * len(JOBS)
    assert not (tmp_path / "x").exists()


FAULTS = [b"\xff", b"\xc3", b"\xe2\x80", b"%%DOC%%x", b"\n%%DOC%% y\n", "\r§—DOC—§z\r\n".encode(),
          b"\r\xfe\r\n"]


@st.composite
def faulty_stream_corpora(draw):
    """(data, separator) of a stream corpus with bad bytes or lines put in at any offsets."""
    text, separator = draw(stream_corpora())
    data = text.encode("utf-8")
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(FAULTS)) + data[at:]
    return data, separator


def documents_or_error(documents):
    """The documents yielded, and the message of the ParseError that ended them, or None."""
    got = []
    try:
        for doc in documents:
            got.append(doc)
    except ParseError as exc:
        return got, str(exc)
    return got, None


@settings(max_examples=40, deadline=None)
@given(corpus=faulty_stream_corpora(), block=st.sampled_from([1, 3, 16, 1 << 20]))
def test_faulty_streams_read_and_count_as_the_line_loop_for_every_jobs(corpus, block,
                                                                     tmp_path_factory):
    data, separator = corpus
    tmp = tmp_path_factory.mktemp("faulty")
    path = tmp / "corpus.txt"
    path.write_bytes(data)
    docs, error = documents_or_error(line_loop_documents(path, separator))
    want = (2, f"error: {error}\n") if error else (0, reference_bytes(path, tmp, separator))
    out = tmp / "out.stats"
    with shard_limits(block=block):
        assert documents_or_error(read_corpus(path, separator=separator)) == (docs, error)
        for jobs in JOBS:
            with redirect_stderr(io.StringIO()) as err:
                code = main(["count", "--corpus", str(path), "--out", str(out), "--jobs", str(jobs),
                             "--separator", separator])
            assert (code, out.read_bytes() if code == 0 else err.getvalue()) == want, jobs


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


@pytest.mark.parametrize("block", [None, 4])
def test_a_bad_separator_before_a_bad_byte_is_named_for_every_jobs(block, tmp_path, capsys):
    # line 1 is the first bad line, although the byte on line 2 does not decode
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"%%DOC%%x\nb\xff\n")
    with shard_limits(block=block):
        reports = []
        for jobs in JOBS:
            code = main(["count", "--corpus", str(path), "--out", str(tmp_path / "x"),
                         "--jobs", str(jobs)])
            reports.append((code, capsys.readouterr().err))
    message = f"error: {path}:1: malformed document separator: '%%DOC%%x'\n"
    assert reports == [(2, message)] * len(JOBS)


def test_separator_spanning_lines_reads_one_document(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("a\nb\na\nb\n", encoding="utf-8")
    with shard_limits(block=2):
        table = count_corpus(path, separator="a\nb", jobs=2)
        assert [doc.tokens for doc in read_corpus(path, separator="a\nb")] == [["a", "b", "a", "b"]]
    assert table.doc_count == 1 and table.as_mapping() == {"a": (2, 1), "b": (2, 1)}


def test_a_stream_that_shrank_after_it_was_cut_is_an_io_error(tmp_path):
    path = tmp_path / "corpus.txt"
    stream_with_faults(path, {})
    shards = corpus_shards(path, parts=2)
    path.write_bytes(path.read_bytes()[:shards[-1].start + 3])
    with pytest.raises(OSError, match="shorter than when it was cut"):
        list(shards[-1].token_lists(TokenizerConfig()))


# --- workers ---------------------------------------------------------------

class RecordingContext:
    """A multiprocessing context whose pool records its size and the calls
    made on it, and runs each task in-process when it is submitted."""

    def __init__(self):
        self.pools = []
        self.calls = []

    def Pool(self, processes):
        self.pools.append(processes)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.calls.append("exit")
        return False

    def apply_async(self, fn, args):
        self.calls.append("apply_async")
        return Done(fn, args)

    def close(self):
        self.calls.append("close")

    def join(self):
        self.calls.append("join")


class Done:
    """A task that has run: get() returns its value or raises its error."""

    def __init__(self, fn, args):
        try:
            self.value, self.error = fn(*args), None
        except Exception as exc:
            self.value, self.error = None, exc

    def get(self):
        if self.error is not None:
            raise self.error
        return self.value


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


def test_every_shard_finishes_before_the_pool_is_left(monkeypatch, tmp_path):
    context = RecordingContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: context)
    path = tmp_path / "corpus.txt"
    stream_with_faults(path, {5: b"bad \xff", 30: b"%%DOC%%x"})  # in the first and the last shard
    with shard_limits(block=16), pytest.raises(ParseError, match=r":11: not valid UTF-8$"):
        count_corpus(path, jobs=4)
    assert context.pools == [4]
    assert context.calls == ["apply_async"] * 4 + ["close", "join", "exit"]


STRESS = """
import sys
from pathlib import Path
from corpusstats import ParseError, ingest, stats

stats._usable_cpus = lambda: 4
ingest._STREAM_BLOCK = 16
path = Path(sys.argv[1])
faults = 0
for i in range(200):
    lines = [b"doc %d text" % d for d in range(40)]
    lines[i % 10] = b"bad \\xff byte" if i % 2 else b"%%DOC%%x"
    path.write_bytes(b"\\n%%DOC%%\\n".join(lines) + b"\\n")
    for jobs in (2, 3, 4):
        try:
            stats.count_corpus(path, jobs=jobs)
        except ParseError:
            faults += 1
print(faults)
"""


def test_many_faulty_pool_counts_in_one_process_finish(tmp_path):
    # Each corpus has its bad line in the first shard, so the other shards
    # are still in flight when it fails. Leaving a pool while they are
    # could hang a long-lived process within a few hundred such counts.
    proc = subprocess.run([sys.executable, "-c", STRESS, str(tmp_path / "corpus.txt")],
                          capture_output=True, text=True, timeout=60, cwd=ROOT,
                          env={"PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "600"


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
    want = [doc.tokens for doc in line_loop_documents(path)]
    for block in (1, 2, 5, 1 << 20):
        with shard_limits(block=block):
            got = [tokens for shard in corpus_shards(path, parts=3) for tokens in shard.token_lists(cfg)]
            assert [doc.tokens for doc in read_corpus(path, cfg)] == want
        assert got == want == [["α", "σας"], [], ["long", "long", "day"]]
    assert all(isinstance(s, StreamShard) for s in corpus_shards(path, parts=3))


def test_only_a_byte_order_mark_at_the_start_of_a_stream_is_skipped(tmp_path):
    # One mark at offset 0, and one that starts the document after a
    # separator line, where a shard may start: that one is text for every N.
    body = "The cat\n%%DOC%%\n\ufeffthe dog\r\n%%DOC%%\nthe\n".encode("utf-8")
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(body)
    marked.write_bytes(ingest.UTF8_BOM + body)
    want = count_bytes(plain, tmp_path, 1)
    assert want == "#N=3\ncat\t1\t1\ndog\t1\t1\nthe\t2\t2\n\ufeffthe\t1\t1\n".encode("utf-8")
    assert reference_bytes(marked, tmp_path) == want
    for block in (1, 2, 1 << 20):
        with shard_limits(block=block):
            for parts in range(1, 5):  # shards that start at each separator line
                shards = corpus_shards(marked, parts=parts)
                got = [tokens for shard in shards for tokens in shard.token_lists(TokenizerConfig())]
                assert got == [["the", "cat"], ["\ufeffthe", "dog"], ["the"]], (block, parts)
            for jobs in JOBS:
                assert count_bytes(marked, tmp_path, jobs) == want, (block, jobs)
