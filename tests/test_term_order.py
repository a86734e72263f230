"""``stats._term_order`` against the object-array sort it replaced.

The oracle splits the buffer into one ``bytes`` per term, argsorts them
stably as a numpy object array, marks each first copy and joins the
distinct terms again. The terms mix 1- to 4-byte UTF-8 characters, NUL
among them, and share prefixes of 7, 8, 11 and 12 bytes, around the
widths that a pass reads. ``stats._line_ends``, which finds the newlines
of every term buffer, is checked against one whole-buffer scan.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpusstats import stats
from corpusstats.stats import _line_ends, _term_order

ALPHABET = "\0é€𝄞"
PREFIXES = ["", "\0€€", "𝄞𝄞", "𝄞€éé", "€€€€"]  # 0, 7, 8, 11 and 12 bytes
assert [len(p.encode()) for p in PREFIXES] == [0, 7, 8, 11, 12]

terms = st.builds(str.__add__, st.sampled_from(PREFIXES), st.text(ALPHABET, min_size=1, max_size=26))


def sorted_terms(buffer: bytes):
    """The distinct terms of ``buffer`` sorted and packed, the stable order of all, and the first-copy mask."""
    keys = np.array(buffer.split(b"\n")[:-1], dtype=object)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return b"".join(key + b"\n" for key in keys[first]), order, first


def check(buffer: bytes) -> None:
    packed, order, first = _term_order(buffer)
    want_packed, want_order, want_first = sorted_terms(buffer)
    assert bytes(packed) == want_packed
    assert order.tolist() == want_order.tolist()
    assert first.tolist() == want_first.tolist()


@st.composite
def term_buffers(draw):
    """A term buffer in any order, in which some terms repeat."""
    drawn = draw(st.lists(terms, max_size=40))
    if drawn:
        drawn += draw(st.lists(st.sampled_from(drawn), max_size=10))
    return "".join(term + "\n" for term in draw(st.permutations(drawn))).encode()


@settings(max_examples=300, deadline=None)
@given(term_buffers())
@example(b"")
@example("𝄞\n".encode())
def test_matches_object_array_sort(buffer):
    check(buffer)


def test_many_open_buckets():
    """70k shuffled 9-digit prefixes, each shared by 2 or 3 terms: over 2**13
    buckets stay open after the first pass, so the next one reads fewer bytes."""
    rng = np.random.default_rng(5)
    prefixes = rng.choice(10**9, 70_000, replace=False)
    copies = rng.integers(2, 4, prefixes.size)
    suffixes = rng.integers(0, 100, int(copies.sum()))
    rows = [f"{p:09d}{s}\n" for p, s in zip(np.repeat(prefixes, copies).tolist(), suffixes.tolist())]
    rng.shuffle(rows)
    buffer = "".join(rows).encode()
    assert len(set(rows)) < len(rows)  # repeats
    check(buffer)


@settings(max_examples=100, deadline=None)
@given(term_buffers())
@example(b"")
@example(b"\n\n")
def test_line_ends_match_one_whole_buffer_scan(buffer):
    want = np.flatnonzero(np.frombuffer(buffer, dtype=np.uint8) == ord("\n")).tolist()
    for size in (1, 3, 8, stats._BLOCK_SIZE):  # blocks that cut terms, newlines at their edges
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stats, "_BLOCK_SIZE", size)
            for data in (buffer, bytearray(buffer)):
                ends = _line_ends(data)
                assert ends.dtype == np.int32
                assert ends.tolist() == want
