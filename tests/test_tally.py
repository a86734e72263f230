"""``stats._tally`` against a Counter of every token and of each document's set.

The tally counts buffered term rows whenever the buffer holds as many rows
as there are terms, and at least ``_TALLY_ROWS``; that floor is patched
down here so that small documents cross several counts.
"""

from collections import Counter
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from corpusstats import stats

documents = st.lists(st.lists(st.sampled_from(["a", "b", "é", "𝄞", "a b", "z" * 9]), max_size=12), max_size=12)


@settings(max_examples=200, deadline=None)
@given(documents, st.integers(1, 8))
def test_matches_counters(token_lists, floor):
    tc, df = Counter(), Counter()
    for tokens in token_lists:
        tc.update(tokens)
        df.update(set(tokens))
    with mock.patch.object(stats, "_TALLY_ROWS", floor):
        table = stats._tally(iter(token_lists))
    assert table.as_mapping() == {term: (tc[term], df[term]) for term in sorted(tc)}
    assert table.doc_count == len(token_lists)
