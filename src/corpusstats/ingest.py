"""Corpus and frequency-list ingestion.

Turns raw document containers and pre-aggregated term/count files into
normalized streams of ``Document`` and ``FrequencyListEntry`` values. All
readers are streaming iterators that hold no shared mutable state, so
distinct sources can be parsed concurrently.
"""

from __future__ import annotations

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
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def tokenize(text: str, config: TokenizerConfig | None = None) -> list[str]:
    """Split ``text`` into normalized tokens. Pure and deterministic."""
    cfg = config or TokenizerConfig()
    tokens = []
    for raw in text.split():
        tok = _strip_edges(raw) if cfg.strip_edge_punctuation else raw
        if cfg.lowercase:
            tok = tok.lower()
        if tok:
            tokens.append(tok)
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


def _read_directory(path: Path, cfg: TokenizerConfig) -> Iterator[Document]:
    for file in sorted(path.glob("*.txt")):
        if file.is_file():
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


def write_frequency_list(entries: Iterable[FrequencyListEntry], path) -> None:
    """Write entries back out in the ``term<TAB>count[<TAB>L]`` format.

    Entries are written in the order given; parse -> write -> parse is
    lossless for the entry sequence.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for entry in entries:
            if "\t" in entry.term or "\n" in entry.term:
                raise ValidationError(f"term contains a tab or newline: {entry.term!r}")
            if entry.lemmatized:
                fh.write(f"{entry.term}\t{entry.count}\tL\n")
            else:
                fh.write(f"{entry.term}\t{entry.count}\n")
