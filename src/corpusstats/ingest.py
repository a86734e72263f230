"""Corpus ingestion and the row format of count files.

Turns raw document containers into normalized streams of ``Document``
values, and defines the rows of stats tables, frequency lists and n-gram
count files (:class:`RowLayout`, :func:`parse_row`), which the block
reader in ``stats`` reads. The readers hold no shared mutable state, so
distinct sources can be parsed concurrently.
"""

from __future__ import annotations

import itertools
import os
import re
import stat
import unicodedata
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, TextIO

from .errors import ParseError, ValidationError

#: Largest count any parser accepts (signed 64-bit, so numpy int64 paths are safe).
MAX_COUNT = 2**63 - 1

#: Line that separates documents in single-stream corpus files.
DEFAULT_SEPARATOR = "%%DOC%%"

_STREAM_BLOCK = 1 << 18  # bytes a stream corpus reader reads at a time

#: The UTF-8 byte-order mark. Every reader skips one at the start of a file,
#: and only there: anywhere else it is text.
UTF8_BOM = b"\xef\xbb\xbf"


@dataclass(frozen=True)
class TokenizerConfig:
    """Normalization switches applied by :func:`tokenize`.

    Defaults: split on Unicode whitespace, strip leading/trailing punctuation
    from each raw token (internal apostrophes survive, so "can't" and "n't"
    stay whole), lowercase everything, no stemming. Tokens that become empty
    after stripping (a bare "..." for instance) are dropped.
    """

    lowercase: bool = True
    strip_edge_punctuation: bool = True


def _strip_edges(token: str) -> str:
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start])[0] == "P":
        start += 1
    while end > start and unicodedata.category(token[end - 1])[0] == "P":
        end -= 1
    return token[start:end]


def tokenize(text: str, config: TokenizerConfig | None = None) -> list[str]:
    """Split ``text`` into normalized tokens. Pure and deterministic."""
    cfg = config or TokenizerConfig()
    if cfg.lowercase:
        # The same tokens as lowering each token after stripping it: lower()
        # keeps punctuation (P*) as it is and puts none at either end of what
        # it returns for another character; punctuation is never cased, and
        # whitespace is neither cased nor case-ignorable, so the context of
        # a final sigma ends at the token's edges either way.
        text = text.lower()
    tokens = text.split()
    if not cfg.strip_edge_punctuation:
        return tokens
    for i, raw in enumerate(tokens):
        # No character is both alphanumeric and punctuation (category P*),
        # so a token with alphanumeric ends has nothing to strip.
        if not raw.isalnum() and not (raw[0].isalnum() and raw[-1].isalnum()):
            tokens[i] = _strip_edges(raw)
    if "" in tokens:
        tokens = [tok for tok in tokens if tok]
    return tokens


def read_utf8(path) -> str:
    """The text of the file at ``path``, after a byte-order mark; a byte that is
    not UTF-8 raises ParseError naming its line."""
    text, fault = decode_lines(path, Path(path).read_bytes().removeprefix(UTF8_BOM))
    if fault is not None:
        raise fault
    return text


def decode_lines(path, data, line_no: int = 0) -> tuple[str, ParseError | None]:
    """``data``, the lines of ``path`` after line ``line_no``, decoded, and None;
    or, if a byte is not UTF-8, the lines before its line and a ParseError naming it."""
    try:
        return str(data, "utf-8"), None
    except UnicodeDecodeError as exc:
        head = _lf_ends(memoryview(data)[:exc.start])
        text = str(head[:head.rfind(b"\n") + 1], "utf-8")
        return text, ParseError(path, line_no + head.count(b"\n") + 1, "not valid UTF-8")


@contextmanager
def write_utf8(path) -> Iterator[TextIO]:
    """Open ``path`` for writing UTF-8 text with LF line ends, all or nothing.

    The text goes to a temporary file in the same directory, which replaces
    ``path`` only when the ``with`` block ends without an exception, or,
    inside :func:`outputs_together`, when that block does. On any
    exception the temporary file is removed, so a failed or interrupted
    write leaves neither a partial file nor a changed one at ``path``. An
    error opening the temporary file names ``path``.

    A symlink keeps its link: the file it resolves to is the one replaced.
    A path that resolves through ``/proc/self/fd/N`` or ``/dev/fd/N``, as
    ``/dev/stdout`` does, names an open descriptor, which is written to as
    it is and left open: the shell's redirect keeps its file and its
    offset. Any other path that exists and is not a regular file (a pipe,
    a terminal) cannot be replaced and is written to directly. Neither
    kind is all or nothing.
    """
    path = Path(path)
    descriptor = _open_descriptor(path)
    try:
        special = descriptor is not None or not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        special = False
    if special:
        try:
            fh = open(path if descriptor is None else descriptor, "w", encoding="utf-8", newline="\n",
                      closefd=descriptor is None)
        except OSError as exc:
            exc.filename = str(path)
            raise
        with fh:
            yield fh
        return
    target = Path(os.path.realpath(path))
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        fh = open(tmp, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        exc.filename = str(path)
        raise
    pending = _pending.get()
    try:
        with fh:
            yield fh
        if pending is None:
            os.replace(tmp, target)
        elif (tmp, target) not in pending:  # a second write to a target replaces the first
            pending.append((tmp, target))
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_rows(rows, path) -> None:
    """Write each row as one line of its cells' ``str``, tab-separated, all or
    nothing through :func:`write_utf8`. Every text report is written here; a
    float's cell is its repr, the shortest text that reads back as that float."""
    with write_utf8(path) as fh:
        for row in rows:
            fh.write("\t".join(map(str, row)) + "\n")


def _open_descriptor(path: Path) -> int | None:
    """The descriptor N if ``path``, after its symlinks, is entry N of this
    process's descriptor directory (``/proc/self/fd`` or ``/dev/fd``)."""
    own = os.path.realpath(f"/proc/{os.getpid()}/fd")
    for _ in range(40):  # the kernel's own limit on symlinks in one path
        if path.name.isdigit() and os.path.realpath(path.parent) in (own, "/dev/fd"):
            return int(path.name)
        if not path.is_symlink():
            return None
        path = path.parent / os.readlink(path)
    return None


# The (temporary file, target) pairs of the innermost outputs_together block.
_pending: ContextVar[list[tuple[Path, Path]] | None] = ContextVar("_pending", default=None)


@contextmanager
def outputs_together() -> Iterator[None]:
    """Make the files :func:`write_utf8` writes inside the block land together.

    Each stays in its temporary file until the block ends without an
    exception; then they replace their targets, in the order written. On
    an exception every temporary file left is removed, so a failed block
    changes no target.
    """
    pending: list[tuple[Path, Path]] = []
    token = _pending.set(pending)
    try:
        yield
        while pending:
            os.replace(*pending[0])
            pending.pop(0)
    finally:
        _pending.reset(token)
        for tmp, _ in pending:
            tmp.unlink(missing_ok=True)


@dataclass
class Document:
    """One corpus document: an opaque id plus its token sequence in order."""

    id: str
    tokens: list[str]


@dataclass(frozen=True)
class FrequencyListEntry:
    """One row of a frequency list: a term and its count."""

    term: str
    count: int


def read_corpus(
    source,
    config: TokenizerConfig | None = None,
    separator: str = DEFAULT_SEPARATOR,
) -> Iterator[Document]:
    """Yield documents from ``source`` in a deterministic order.

    ``source`` is either a directory (every ``*.txt`` file is one document,
    read in sorted name order, id = file stem) or a single text file whose
    documents are delimited by lines equal to ``separator`` (ids doc000001,
    doc000002, ... in stream order). Empty documents are legal and are
    yielded like any other. The documents are those of the corpus read as
    one shard (:func:`corpus_shards`), and a bad line raises as that shard's
    reader does. A missing or unreadable source raises the underlying
    OSError naming the path.
    """
    cfg = config or TokenizerConfig()
    for shard in corpus_shards(source, separator):  # one, or none for an empty directory
        ids = ([file.stem for file in shard.files] if isinstance(shard, FileShard)
               else map("doc{:06d}".format, itertools.count(1)))
        yield from map(Document, ids, shard.token_lists(cfg))


@dataclass(frozen=True)
class FileShard:
    """A run of consecutive files of a directory corpus."""

    files: tuple[Path, ...]

    def token_lists(self, config: TokenizerConfig) -> Iterator[list[str]]:
        """The tokens of each document, in corpus order; a byte that is not
        UTF-8 raises ParseError naming its file and line."""
        for file in self.files:
            yield tokenize(read_utf8(file), config)


@dataclass(frozen=True)
class StreamShard:
    """The bytes [start, end) of a stream corpus: whole documents.

    ``start`` is 0 or the offset just after a separator line, and ``end``
    the file size or the start of the next shard, so the documents of a
    file's shards, in shard order, are the documents of the file.
    """

    path: Path
    start: int
    end: int
    separator: str

    def token_lists(self, config: TokenizerConfig) -> Iterator[list[str]]:
        """The tokens of each document, in corpus order.

        A line equal to the separator ends a document, and the lines after
        the last one are a document (none is not). ``\\r\\n`` and a lone
        ``\\r`` are read as ``\\n``, so a separator that holds a line break
        matches no line. A line that starts with the separator but is
        longer, or a byte that is not UTF-8, raises ParseError naming its
        line once the documents before it are yielded; the text before a
        bad byte is split first, so the first bad line wins. The text after
        the last separator line of a block waits in ``pieces`` for the next.
        """
        marker = None if "\n" in self.separator or "\r" in self.separator else "\n" + self.separator
        pieces: list[str] = []  # the text of the unfinished document
        lines = 0  # the lines of the shard before the block
        with open(self.path, "rb") as fh:
            fh.seek(self.start)
            # a shard that starts past the file's start keeps a mark there as text
            for block in line_blocks(fh, _STREAM_BLOCK, self.end - self.start,
                                     skip_bom=self.start == 0):
                text, fault = decode_lines(self.path, block, lines)
                text = "\n" + text  # every line, the first one too, follows a newline
                start = 0
                pos = text.find(marker) if marker else -1
                while pos >= 0:
                    end = pos + len(marker)
                    if text[end] != "\n":
                        line = text[pos + 1:text.index("\n", end)]
                        raise self._fault(lines + text.count("\n", 0, pos + 1),
                                          f"malformed document separator: {line!r}")
                    pieces.append(text[start:pos])
                    yield tokenize("".join(pieces), config)
                    pieces = []
                    start = end + 1
                    pos = text.find(marker, end)
                if start < len(text):
                    pieces.append(text[start:])
                if fault is not None:
                    raise self._fault(fault.line_no, fault.message)
                lines += text.count("\n") - 1
            if fh.tell() < self.end:
                raise OSError(f"{self.path} is shorter than when it was cut into shards")
        if pieces:
            yield tokenize("".join(pieces), config)

    def _fault(self, line_no: int, message: str) -> ParseError:
        """A ParseError for line ``line_no`` of the shard, named by its line in the file."""
        with open(self.path, "rb") as fh:
            before = sum(bytes(block).count(b"\n")
                         for block in line_blocks(fh, _STREAM_BLOCK, self.start))
        return ParseError(self.path, before + line_no, message)


def line_blocks(fh, size: int, limit: int | None = None,
                skip_bom: bool = False) -> Iterator[memoryview | bytes]:
    """The binary file ``fh`` from where it stands, in blocks of whole lines ended by LF.

    Reads to the end of the file, or ``limit`` bytes; with ``skip_bom``, for
    a file read from its start, a leading :data:`UTF8_BOM` is dropped.
    ``\\r\\n`` and a lone ``\\r`` become ``\\n``, and a last line without a
    line end gets one. The bytes are read into one reused buffer of
    ``size`` bytes, which a line longer than it doubles, so a block holds
    only until the next is read.
    Line ends are bytes below 0x80, which no multi-byte UTF-8 sequence
    contains, so each block decodes on its own.
    """
    head = b""
    if skip_bom:
        head = fh.read(len(UTF8_BOM) if limit is None else min(len(UTF8_BOM), limit))
        if limit is not None:
            limit -= len(head)
        if head == UTF8_BOM:
            head = b""
    kept = len(head)  # bytes of an unfinished line at the front of buf
    buf = bytearray(kept + size)
    buf[:kept] = head
    view = memoryview(buf)
    while True:
        room = len(buf) - kept
        got = fh.readinto(view[kept:kept + (room if limit is None else min(room, limit))])
        if not got:
            if kept:
                tail = _lf_ends(view[:kept])
                yield tail if tail.endswith(b"\n") else tail + b"\n"
            return
        if limit is not None:
            limit -= got
        end = kept + got
        # A \r ends a line once the next byte is known not to be \n.
        cut = max(buf.rfind(b"\n", 0, end), buf.rfind(b"\r", 0, end - 1)) + 1
        if not cut:
            if end == len(buf):
                buf = bytearray(2 * len(buf))
                buf[:end] = view[:end]
                view = memoryview(buf)
            kept = end
            continue
        yield _lf_ends(view[:cut]) if buf.find(b"\r", 0, cut) >= 0 else view[:cut]
        buf[:end - cut] = buf[cut:end]  # a copy: the two ranges may overlap
        kept = end - cut


def _lf_ends(data: memoryview) -> bytes:
    """``data`` with ``\\r\\n`` and each lone ``\\r`` turned into ``\\n``."""
    return data.tobytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")


def corpus_shards(source, separator: str = DEFAULT_SEPARATOR,
                  parts: int = 1) -> list[FileShard] | list[StreamShard]:
    """Cut a corpus into at most ``parts`` shards of whole documents.

    A directory gives :class:`FileShard` runs of its sorted ``*.txt``
    files, a stream file :class:`StreamShard` byte ranges, each starting
    just after a separator line with an LF or CRLF end found by scanning
    forward from ``size * k / parts``. An empty directory gives none.
    A missing source raises FileNotFoundError, and an empty separator
    ValidationError.
    """
    path = Path(source)
    if path.is_dir():
        files = [file for file in sorted(path.glob("*.txt")) if file.is_file()]
        cuts = sorted({len(files) * k // parts for k in range(parts + 1)})
        return [FileShard(tuple(files[a:b])) for a, b in zip(cuts, cuts[1:])]
    if not path.is_file():
        raise FileNotFoundError(f"corpus source does not exist: {path}")
    if not separator:
        raise ValidationError("document separator must be non-empty")
    size = path.stat().st_size
    cuts = [0]
    if parts > 1 and "\n" not in separator and "\r" not in separator:
        sep = separator.encode("utf-8", "surrogatepass")
        line = re.compile(rb"[\r\n]" + re.escape(sep) + rb"\r?\n")
        with open(path, "rb") as fh:
            for k in range(1, parts):
                after = max(size * k // parts, cuts[-1])
                cut = _separator_line_end(fh, line, len(sep) + 2, after - 1)
                if cut is None or cut >= size:
                    break
                cuts.append(cut)
    cuts.append(size)
    return [StreamShard(path, a, b, separator) for a, b in zip(cuts, cuts[1:])]


def _separator_line_end(fh, line: re.Pattern, keep: int, offset: int) -> int | None:
    """The offset just past the first match of ``line`` at or after
    ``offset``, or None; ``keep`` is one byte less than its longest match.
    ``line`` matches a separator line with the line end before it, and
    offset -1 stands for the file's start, which acts as a line end."""
    window = b"\n" if offset < 0 else b""
    fh.seek(max(offset, 0))
    at = offset  # the file offset of window[0]
    while chunk := fh.read(_STREAM_BLOCK):
        window += chunk
        found = line.search(window)
        if found:
            return at + found.end()
        drop = max(len(window) - keep, 0)
        at += drop
        window = window[drop:]
    return None


@dataclass(frozen=True)
class RowLayout:
    """The rows of a tab-separated count file, as :func:`parse_row` reads them."""

    fields: str  # as an error message names them
    counts: tuple[str, ...]  # the names of the count fields after the term
    duplicate: str  # the message for a repeated term {}
    comments: bool = False  # a line that starts with '#' is skipped
    lemma_field: bool = False  # an optional last field 'L' marks a lemma row

    def duplicate_error(self, path, line_no: int, term: str, lemma: bool = False) -> ParseError:
        label = f"{term!r} (lemma row)" if lemma else repr(term)
        return ParseError(path, line_no, self.duplicate.format(label))


# The rows of a stats table (after its header), a frequency list and an n-gram count file.
STATS_ROWS = RowLayout("term<TAB>tc<TAB>df", ("tc", "df"), "duplicate term {}")
LIST_ROWS = RowLayout("term<TAB>count<TAB>[L]", ("count",),
                      "duplicate term {}; refusing to re-aggregate", comments=True, lemma_field=True)
NGRAM_ROWS = RowLayout("token<TAB>count", ("count",), LIST_ROWS.duplicate)


def parse_row(path, line_no: int, line: str, layout: RowLayout,
              doc_count: int = 0) -> tuple[str, list[int], bool] | None:
    """The term, counts and lemma flag of line ``line_no``, or None for a blank line or a comment.

    Applies each check that needs no other row in turn, a table's df <=
    ``doc_count`` too, and raises ParseError naming ``line_no`` at the
    first that fails.
    """
    if not line or layout.comments and line[0] == "#":
        return None
    parts = line.split("\t")
    lemma = layout.lemma_field and len(parts) == len(layout.counts) + 2
    if lemma:
        if parts[-1] != "L":
            raise ParseError(path, line_no, f"unknown row flag {parts[-1]!r} (only 'L' is defined)")
        parts.pop()
    elif len(parts) != len(layout.counts) + 1:
        raise ParseError(path, line_no, f"expected {layout.fields}, got {len(parts)} fields")
    term = parts[0]
    if not term:
        raise ParseError(path, line_no, "empty term")
    counts = parts[1:]
    for i, digits in enumerate(counts):
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError(path, line_no, f"{layout.counts[i]} is not a plain integer: {digits!r}")
        try:
            counts[i] = int(digits)
        except ValueError:  # more digits than int() converts
            raise ParseError(path, line_no, "a count has too many digits") from None
    if len(counts) == 2:  # a table's tc and df
        tc, df = counts
        if tc > MAX_COUNT:
            raise ParseError(path, line_no, "tc exceeds 2**63 - 1")
        if not 1 <= df <= tc:
            raise ParseError(path, line_no, f"need 1 <= df <= tc, got tc={tc} df={df}")
        if df > doc_count:
            raise ParseError(path, line_no, f"df={df} exceeds doc_count={doc_count}")
    elif counts[0] < 1:
        raise ParseError(path, line_no, f"count must be >= 1, got {counts[0]}")
    elif counts[0] > MAX_COUNT:
        raise ParseError(path, line_no, f"count exceeds 2**63 - 1: {counts[0]}")
    return term, counts, lemma


def check_field(term: str) -> None:
    """Refuse a term that would not read back as one tab-separated field.

    Text-mode readers end a line at a carriage return as well as at a
    newline, so a ``\r`` would split the row.
    """
    if "\t" in term or "\r" in term or "\n" in term:
        raise ValidationError(f"term contains a tab, carriage return or newline: {term!r}")
