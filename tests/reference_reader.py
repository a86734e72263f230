"""Reference readers of stream lines, frequency lists and n-gram count files.

They read a file one line at a time, by the documented format, and are the
oracles of the library's block readers. They call neither
``ingest.parse_row`` nor ``ingest.line_blocks``, which those readers use.
"""

import re
from pathlib import Path

from corpusstats import ParseError

MAX_COUNT = 2**63 - 1
BOM = b"\xef\xbb\xbf"


def reference_lines(path):
    """The lines of the file at ``path``, without their ends, after a leading
    byte-order mark. ``\\r\\n``, a lone ``\\r`` and ``\\n`` each end a line, and
    the last line needs no end. A byte that is not UTF-8 raises ParseError
    naming its line once the lines before it are yielded."""
    lines = re.split(rb"\r\n|\r|\n", Path(path).read_bytes().removeprefix(BOM))
    if lines[-1] == b"":  # what follows the last line end
        lines.pop()
    for line_no, line in enumerate(lines, 1):
        try:
            yield line.decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(path, line_no, "not valid UTF-8") from None


def list_rows(path, ngram=False):
    """(line number, term, count, lemma flag) of each row of a frequency list, or
    with ``ngram`` of an n-gram count file, in file order. The first line that is
    not a valid row raises ParseError; repeated terms are the caller's to find."""
    for line_no, line in enumerate(reference_lines(path), 1):
        if not line or line.startswith("#") and not ngram:  # a list's comment
            continue
        try:
            row = _row(line, ngram)
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from None
        yield line_no, *row


def _row(line, ngram):
    """The term, count and lemma flag of a row; a line that is not one raises
    ValueError with the message the library gives."""
    term, *rest = line.split("\t")
    lemma = not ngram and len(rest) == 2
    if lemma and rest[1] != "L":
        raise ValueError(f"unknown row flag {rest[1]!r} (only 'L' is defined)")
    if not lemma and len(rest) != 1:
        fields = "token<TAB>count" if ngram else "term<TAB>count<TAB>[L]"
        raise ValueError(f"expected {fields}, got {len(rest) + 1} fields")
    if not term:
        raise ValueError("empty term")
    if not re.fullmatch("[0-9]+", rest[0]):
        raise ValueError(f"count is not a plain integer: {rest[0]!r}")
    try:
        count = int(rest[0])
    except ValueError:  # more digits than int() converts
        raise ValueError("a count has too many digits") from None
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count > MAX_COUNT:
        raise ValueError(f"count exceeds 2**63 - 1: {count}")
    return term, count, lemma


def kept_rows(path, ngram=False, keep_lemmatized=False, min_count=0, one_key_space=False):
    """(term, count) of each row a reader keeps, in file order.

    A term may have one surface row and one lemma row; a second of either
    raises ParseError at its line. Lemma rows are kept only with
    ``keep_lemmatized``, and then, with ``one_key_space`` (a table holds
    one row per term), a lemma row and a surface row of one term are a
    duplicate too. Counts below ``min_count`` are dropped after every check.
    """
    surface, lemmas = set(), set()
    for line_no, term, count, lemma in list_rows(path, ngram):
        seen, other = (lemmas, surface) if lemma else (surface, lemmas)
        if term in seen or one_key_space and keep_lemmatized and term in other:
            label = f"{term!r} (lemma row)" if lemma and term in seen else repr(term)
            raise ParseError(path, line_no, f"duplicate term {label}; refusing to re-aggregate")
        seen.add(term)
        if count >= min_count and (keep_lemmatized or not lemma):
            yield term, count


def reference_table(path, ngram=False, keep_lemmatized=False, min_count=0):
    """The terms, in term order, and the counts of the tc-only table that
    ``read_frequency_table`` or, with ``ngram``, ``read_ngram_table`` reads."""
    rows = sorted(kept_rows(path, ngram, keep_lemmatized, min_count, one_key_space=True))
    return [term for term, _ in rows], [count for _, count in rows]
