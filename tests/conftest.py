"""Shared fixtures: the twelve-term song corpus and two published-style
top-20 ranking columns used by the overlap tests."""

import pytest

from corpusstats import Document, TermStatsTable, tokenize

# Five one-line documents (song titles). Small enough to hand-check every
# statistic: 12 distinct terms after lowercasing and edge-punctuation
# stripping, with tc == df for 8 of them.
SONG_TITLES = [
    ("d1", "Please Please Me"),
    ("d2", "Can't Buy Me Love"),
    ("d3", "All You Need Is Love"),
    ("d4", "All My Loving"),
    ("d5", "Long, Long, Long"),
]

# Hand-tallied tc/df for the corpus above.
SONG_TC_DF = {
    "all": (2, 2),
    "buy": (1, 1),
    "can't": (1, 1),
    "is": (1, 1),
    "love": (2, 2),
    "me": (2, 2),
    "need": (1, 1),
    "please": (2, 1),
    "you": (1, 1),
    "my": (1, 1),
    "loving": (1, 1),
    "long": (3, 1),
}

# Competition ranks implied by SONG_TC_DF, aligned per sorted term.
# tc values give groups {3} -> 1, {2,2,2,2} -> 2, {1 x7} -> 6;
# df values give groups {2,2,2} -> 1, {1 x9} -> 4.
SONG_ALIGNED_RANKS = {
    "all": (2, 1),
    "buy": (6, 4),
    "can't": (6, 4),
    "is": (6, 4),
    "long": (1, 4),
    "love": (2, 1),
    "loving": (6, 4),
    "me": (2, 1),
    "my": (6, 4),
    "need": (6, 4),
    "please": (2, 4),
    "you": (6, 4),
}

# Top-20 term columns of a large web-corpus ranking, by tc and by df.
# The two columns share 18 terms (union 22), which the overlap tests pin.
TOP20_TC = [
    ("the", 116448129), ("of", 59869301), ("and", 58521777), ("to", 53923142),
    ("a", 40940103), ("in", 36463498), ("is", 22389310), ("for", 21754176),
    ("that", 16665399), ("on", 15636014), ("with", 13985141), ("it", 13518855),
    ("be", 13007008), ("as", 11943257), ("are", 11571176), ("you", 11298405),
    ("this", 11218852), ("by", 10639772), ("at", 9907466), ("i", 9855628),
]
TOP20_DF = [
    ("the", 2662742), ("and", 2635683), ("to", 2620998), ("of", 2613789),
    ("a", 2582936), ("in", 2533431), ("for", 2427073), ("is", 2321630),
    ("on", 2261602), ("with", 2221913), ("are", 1996578), ("this", 1981575),
    ("from", 1964174), ("be", 1951862), ("by", 1947784), ("as", 1947590),
    ("that", 1943238), ("at", 1927033), ("it", 1857296), ("an", 1788905),
]

# The same corpus's terms ranked 101-120: 7 shared terms, union 33.
RANKS_101_120_TC = [
    ("...", 1667105), ("get", 1639959), ("good", 1623519), ("her", 1594657),
    ("me", 1578177), ("back", 1547902), ("uk", 1538433), ("made", 1524567),
    ("way", 1498196), ("need", 1498142), ("those", 1489151), ("between", 1484492),
    ("she", 1482487), ("2", 1465266), ("1", 1462262), ("day", 1451911),
    ("service", 1439068), ("world", 1437539), ("here", 1436429), ("used", 1429151),
]
RANKS_101_120_DF = [
    ("he", 695825), ("get", 689949), ("part", 686865), ("need", 684872),
    ("his", 683221), ("could", 680212), ("those", 678384), ("before", 671783),
    ("between", 671402), ("here", 667614), ("available", 660078), ("each", 659960),
    ("n't", 655339), ("back", 644124), ("much", 638500), ("used", 634636),
    ("including", 633138), ("help", 632119), ("number", 616825), ("own", 614981),
]


@pytest.fixture
def song_docs():
    return [Document(doc_id, tokenize(text)) for doc_id, text in SONG_TITLES]


@pytest.fixture
def song_table():
    return TermStatsTable.from_mapping(dict(SONG_TC_DF), doc_count=5)


@pytest.fixture
def song_corpus_dir(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for doc_id, text in SONG_TITLES:
        (corpus / f"{doc_id}.txt").write_text(text + "\n", encoding="utf-8")
    return corpus
