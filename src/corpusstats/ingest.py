"""Corpus and frequency-list ingestion.

Turns raw document containers and pre-aggregated term/count files into
normalized streams of ``Document`` and ``FrequencyListEntry`` values. All
readers are streaming iterators that hold no shared mutable state, so
distinct sources can be parsed concurrently.
"""

from __future__ import annotations

import os
import re
import stat
import unicodedata
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .errors import ParseError, ValidationError

#: Largest count any parser accepts (signed 64-bit, so numpy int64 paths are safe).
MAX_COUNT = 2**63 - 1

#: Line that separates documents in single-stream corpus files.
DEFAULT_SEPARATOR = "%%DOC%%"

_STREAM_BLOCK = 1 << 18  # bytes a stream shard reads at a time


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


@contextmanager
def open_utf8(path) -> Iterator[TextIO]:
    """Open ``path`` as UTF-8 text; a byte that does not decode raises
    ParseError naming the first line that is not valid UTF-8.

    The line is found by re-reading the file as bytes, one line at a time:
    the text decoder works on chunks, so the reader's own line counter may
    still be several lines short of the bad byte when the error fires.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            for line_no, raw in enumerate(fh, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError:
                    raise ParseError(path, line_no, "not valid UTF-8") from None
        raise


@contextmanager
def write_utf8(path) -> Iterator[TextIO]:
    """Open ``path`` for writing UTF-8 text with LF line ends, all or nothing.

    The text goes to a temporary file in the same directory, which replaces
    ``path`` only when the ``with`` block ends without an exception. On any
    exception the temporary file is removed, so a failed or interrupted
    write leaves neither a partial file nor a changed one at ``path``.

    A symlink keeps its link: the file it resolves to is the one replaced.
    A path that exists and is not a regular file (a pipe, a terminal,
    ``/dev/stdout``) cannot be replaced and is written to directly.
    """
    path = Path(path)
    try:
        special = not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        special = False
    if special:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        return
    target = Path(os.path.realpath(path))
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass
class Document:
    """One corpus document: an opaque id plus its token sequence in order."""

    id: str
    tokens: list[str]


@dataclass(frozen=True)
class FrequencyListEntry:
    """One row of a frequency list: a term, its count, and whether the row
    was marked as a lemma rather than a surface form."""

    term: str
    count: int
    lemmatized: bool = False


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
    yielded like any other. A missing or unreadable source raises the
    underlying OSError naming the path.
    """
    path = Path(source)
    cfg = config or TokenizerConfig()
    if path.is_dir():
        yield from _read_directory(path, cfg)
    elif path.is_file():
        yield from _read_stream(path, cfg, separator)
    else:
        raise FileNotFoundError(f"corpus source does not exist: {path}")


def _corpus_files(path: Path) -> list[Path]:
    """The documents of a directory corpus, in reading order."""
    return [file for file in sorted(path.glob("*.txt")) if file.is_file()]


def _read_directory(path: Path, cfg: TokenizerConfig) -> Iterator[Document]:
    for file in _corpus_files(path):
        with open_utf8(file) as fh:
            text = fh.read()
        yield Document(file.stem, tokenize(text, cfg))


def _read_stream(path: Path, cfg: TokenizerConfig, separator: str) -> Iterator[Document]:
    if not separator:
        raise ValidationError("document separator must be non-empty")
    index = 0
    segment: list[str] = []
    ended_on_separator = False
    saw_any_line = False
    with open_utf8(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            saw_any_line = True
            line = raw.rstrip("\n")
            if line == separator:
                index += 1
                yield _stream_doc(index, segment, cfg)
                segment = []
                ended_on_separator = True
            elif line.startswith(separator):
                raise ParseError(path, line_no, f"malformed document separator: {line!r}")
            else:
                segment.append(line)
                ended_on_separator = False
    # n separators make n+1 segments, but a zero-line final segment (the
    # file ended right after a separator) is not a document.
    if saw_any_line and (segment or not ended_on_separator):
        yield _stream_doc(index + 1, segment, cfg)


def _stream_doc(index: int, lines: list[str], cfg: TokenizerConfig) -> Document:
    return Document(f"doc{index:06d}", tokenize("\n".join(lines), cfg))


class ShardFault(Exception):
    """A corpus shard holds what only :func:`read_corpus` reads or reports
    exactly: bytes that are not UTF-8 (reported with their line number), a
    line that starts with the separator but is longer, an unreadable or
    shrunken file, or a separator that spans lines."""


@dataclass(frozen=True)
class FileShard:
    """A run of consecutive files of a directory corpus."""

    files: tuple[Path, ...]

    def token_lists(self, config: TokenizerConfig) -> Iterator[list[str]]:
        """The tokens of each document, in corpus order; raises ShardFault."""
        for file in self.files:
            try:
                text = file.read_bytes().decode("utf-8")
            except (OSError, UnicodeDecodeError):
                raise ShardFault(file) from None
            yield tokenize(text, config)


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
        """The tokens of each document, in corpus order; raises ShardFault.

        Documents are split as :func:`read_corpus` splits them, with
        ``\\r\\n`` and a lone ``\\r`` read as ``\\n``. The text after the
        last separator line of a block waits in ``pieces`` for the next one.
        """
        if "\n" in self.separator or "\r" in self.separator:
            raise ShardFault(f"separator {self.separator!r} spans lines")  # no line can equal it
        marker = "\n" + self.separator
        pieces: list[str] = []  # the text of the unfinished document
        for text in self._line_blocks():
            text = "\n" + text  # every line, the first one too, follows a newline
            start = 0
            pos = text.find(marker)
            while pos >= 0:
                end = pos + len(marker)
                if end < len(text) and text[end] != "\n":
                    raise ShardFault(f"a line starts with {self.separator!r} but is longer")
                pieces.append(text[start:pos])
                yield tokenize("".join(pieces), config)
                pieces = []
                start = end + 1
                pos = text.find(marker, end)
            if start < len(text):
                pieces.append(text[start:])
        # The lines after the last separator are a document; none is not.
        if pieces:
            yield tokenize("".join(pieces), config)

    def _line_blocks(self) -> Iterator[str]:
        """The shard's text in blocks of whole lines, each line ended by ``\\n``.

        A block is read up to its last line end; the rest of it starts the
        next block. Line ends are bytes below 0x80, which no multi-byte
        UTF-8 sequence contains, so each block decodes on its own.
        """
        buf = bytearray()
        try:
            with open(self.path, "rb") as fh:
                fh.seek(self.start)
                left = self.end - self.start
                while left > 0:
                    chunk = fh.read(min(_STREAM_BLOCK, left))
                    if not chunk:
                        raise ShardFault(f"{self.path} is shorter than when it was cut")
                    left -= len(chunk)
                    searched = max(len(buf) - 1, 0)  # a \r there may be part of a \r\n
                    buf += chunk
                    if left > 0:
                        # A \r ends a line once the next byte is known not to be \n.
                        cut = max(buf.rfind(b"\n", searched), buf.rfind(b"\r", searched, len(buf) - 1)) + 1
                    else:
                        cut = len(buf)
                    if cut:
                        text = buf[:cut].decode("utf-8")
                        del buf[:cut]
                        if "\r" in text:
                            text = text.replace("\r\n", "\n").replace("\r", "\n")
                        yield text
        except (OSError, UnicodeDecodeError):
            raise ShardFault(self.path) from None


def corpus_shards(source, separator: str = DEFAULT_SEPARATOR,
                  parts: int = 1) -> list[FileShard] | list[StreamShard]:
    """Cut a corpus into at most ``parts`` shards of whole documents.

    A directory gives :class:`FileShard` runs of its sorted ``*.txt``
    files, a stream file :class:`StreamShard` byte ranges, each starting
    just after a separator line with an LF or CRLF end found by scanning
    forward from ``size * k / parts``. An empty directory gives none.
    Raises as :func:`read_corpus` does for a missing source or an empty
    separator.
    """
    path = Path(source)
    if path.is_dir():
        files = _corpus_files(path)
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


def parse_frequency_list(source, keep_lemmatized: bool = False) -> Iterator[FrequencyListEntry]:
    """Yield entries from a tab-separated frequency list.

    Row format is ``term<TAB>count`` with an optional third field ``L``
    marking a lemma row. Lines starting with ``#`` and blank lines are
    skipped. Counts must be plain ASCII digits in [1, 2**63 - 1]. A
    (term, lemma-flag) key may appear at most once; duplicates raise
    ParseError rather than being re-aggregated, since the two counts could
    not be combined without guessing the producer's intent. Lemma rows are
    dropped unless ``keep_lemmatized`` is true (they still participate in
    duplicate detection either way).
    """
    yield from _parse_count_rows(
        Path(source),
        lemma_field=True,
        comments=True,
        keep_lemmatized=keep_lemmatized,
        min_count=1,
    )


def parse_ngram_counts(source, min_count: int = 0) -> Iterator[FrequencyListEntry]:
    """Yield entries from a two-column ``token<TAB>count`` file.

    No comment lines and no lemma field, matching the n-gram export format.
    Rows with count below ``min_count`` are filtered out after validation,
    so a malformed row is an error even when it would have been filtered.
    """
    if min_count < 0:
        raise ValidationError(f"min_count must be >= 0, got {min_count}")
    yield from _parse_count_rows(
        Path(source),
        lemma_field=False,
        comments=False,
        keep_lemmatized=False,
        min_count=min_count,
    )


def _parse_count_rows(
    path: Path,
    *,
    lemma_field: bool,
    comments: bool,
    keep_lemmatized: bool,
    min_count: int,
) -> Iterator[FrequencyListEntry]:
    layout = "term<TAB>count<TAB>[L]" if lemma_field else "token<TAB>count"
    seen: set[tuple[str, bool]] = set()
    with open_utf8(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            if comments and line.startswith("#"):
                continue
            parts = line.split("\t")
            lemmatized = False
            if len(parts) == 3 and lemma_field:
                if parts[2] != "L":
                    raise ParseError(path, line_no, f"unknown row flag {parts[2]!r} (only 'L' is defined)")
                lemmatized = True
            elif len(parts) != 2:
                raise ParseError(path, line_no, f"expected {layout}, got {len(parts)} fields")
            term, count_text = parts[0], parts[1]
            if not term:
                raise ParseError(path, line_no, "empty term")
            if not (count_text.isascii() and count_text.isdigit()):
                raise ParseError(path, line_no, f"count is not a plain integer: {count_text!r}")
            try:
                count = int(count_text)
            except ValueError:  # more digits than int() converts
                raise ParseError(path, line_no, "a count has too many digits") from None
            if count < 1:
                raise ParseError(path, line_no, f"count must be >= 1, got {count}")
            if count > MAX_COUNT:
                raise ParseError(path, line_no, f"count exceeds 2**63 - 1: {count}")
            key = (term, lemmatized)
            if key in seen:
                label = f"{term!r} (lemma row)" if lemmatized else repr(term)
                raise ParseError(path, line_no, f"duplicate term {label}; refusing to re-aggregate")
            seen.add(key)
            if lemmatized and not keep_lemmatized:
                continue
            if count < min_count:
                continue
            yield FrequencyListEntry(term, count, lemmatized)


def check_field(term: str) -> None:
    """Refuse a term that would not read back as one tab-separated field.

    Text-mode readers end a line at a carriage return as well as at a
    newline, so a ``\r`` would split the row.
    """
    if "\t" in term or "\r" in term or "\n" in term:
        raise ValidationError(f"term contains a tab, carriage return or newline: {term!r}")


def write_frequency_list(entries: Iterable[FrequencyListEntry], path) -> None:
    """Write entries back out in the ``term<TAB>count[<TAB>L]`` format.

    Entries are written in the order given; parse -> write -> parse is
    lossless for the entry sequence.
    """
    with write_utf8(path) as fh:
        for entry in entries:
            check_field(entry.term)
            if entry.lemmatized:
                fh.write(f"{entry.term}\t{entry.count}\tL\n")
            else:
                fh.write(f"{entry.term}\t{entry.count}\n")
