"""TF-IDF lexical signatures with measured or tc-approximated df.

The point of the tc-as-df mode: large frequency lists often publish only
total counts (tc). Clamping tc at the estimated document count gives a
usable stand-in for df, because tc >= df always and a term cannot appear
in more documents than exist.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

import numpy as np

from .errors import ValidationError
from .ingest import Document, FrequencyListEntry
from .stats import TermStatsTable
from . import correlation


class DfMode(str, Enum):
    MEASURED_DF = "measured_df"
    TC_AS_DF = "tc_as_df"


@dataclass(frozen=True)
class BackgroundModel:
    """Corpus-level statistics backing idf: a view over a stats table.

    ``doc_count`` is the (possibly estimated) number of documents behind
    the counts. In MEASURED_DF mode df_hat is the table's df; in TC_AS_DF
    mode it is min(tc, doc_count), the df column is never read and the
    table may be a tc-only one. Only the terms idf is asked about are
    looked up, each by a binary search of the table's sorted terms.
    """

    table: TermStatsTable
    doc_count: int
    df_mode: DfMode

    def __post_init__(self):
        if self.doc_count < 1:
            raise ValidationError(f"doc_count must be >= 1, got {self.doc_count}")
        if self.df_mode is DfMode.MEASURED_DF:
            df = self.table.count_arrays()[1]
            if df is None:
                raise ValidationError("a tc-only table has no df column; use tc_as_df")
            over = np.flatnonzero(df > self.doc_count)
            if over.size:
                raise ValidationError(
                    f"term {self.table.terms_at(over[:1])[0]!r}: df={int(df[over[0]])}"
                    f" exceeds doc_count={self.doc_count}"
                )

    @classmethod
    def from_mapping(cls, tc: Mapping[str, int], df: Mapping[str, int], doc_count: int,
                     df_mode: DfMode) -> BackgroundModel:
        """A model over ``term -> tc`` and ``term -> df`` mappings, for building one by hand.

        A term missing from one mapping counts 0 there.
        """
        counts = {term: (tc.get(term, 0), df.get(term, 0)) for term in {*tc, *df}}
        return cls(TermStatsTable.from_mapping(counts, doc_count), doc_count, DfMode(df_mode))

    def df_hat(self, term: str) -> int:
        """The df value idf will use for ``term``; 0 when unseen."""
        if self.df_mode is DfMode.MEASURED_DF:
            return self.table.df(term)
        return min(self.table.tc(term), self.doc_count)


def model_from_table(
    table: TermStatsTable,
    df_mode: DfMode = DfMode.MEASURED_DF,
    doc_count: int | None = None,
) -> BackgroundModel:
    """A background model that views ``table``; nothing is copied.

    With MEASURED_DF the table's df column and doc_count are used as-is
    (doc_count may be overridden upward, never below the largest df).
    With TC_AS_DF the df column is deliberately ignored so the model
    behaves exactly like one built from a tc-only list.
    """
    n_hat = table.doc_count if doc_count is None else doc_count
    return BackgroundModel(table, n_hat, DfMode(df_mode))


def model_from_entries(entries: Iterable[FrequencyListEntry], doc_count: int) -> BackgroundModel:
    """Build a tc-only background model from frequency-list entries.

    ``doc_count`` must be supplied because a bare list does not know how
    many documents produced it. The model is always TC_AS_DF.
    """
    return BackgroundModel(TermStatsTable.from_entries(entries), doc_count, DfMode.TC_AS_DF)


def idf(term: str, model: BackgroundModel) -> float:
    """Smoothed inverse document frequency, never negative.

    log10((doc_count + 1) / (df_hat + 1)), clamped at 0. A term the model
    has never seen gets the maximum, log10(doc_count + 1); a term in every
    document gets 0.
    """
    value = math.log10((model.doc_count + 1) / (model.df_hat(term) + 1))
    return max(0.0, value)


def tf(term: str, document: Document) -> int:
    """Occurrences of ``term`` in ``document``."""
    return document.tokens.count(term)


def tf_idf(
    term: str,
    document: Document,
    model: BackgroundModel,
    normalized_tf: bool = False,
) -> float:
    """tf * idf for one term of one document.

    With ``normalized_tf`` the raw count is divided by document length,
    which only rescales all of a document's weights by one positive
    constant (empty documents have no terms, so no division by zero).
    """
    return _weight(term, tf(term, document), len(document.tokens), model, normalized_tf)


def _weight(term: str, count: int, length: int, model: BackgroundModel, normalized_tf: bool) -> float:
    """The tf-idf weight of a term seen ``count`` times in a ``length``-token document."""
    scaled = count / length if normalized_tf and count else float(count)
    return scaled * idf(term, model)


@dataclass(frozen=True)
class LexicalSignature:
    """Top-k terms of one document by tf-idf weight, heaviest first."""

    doc_id: str
    terms: tuple[tuple[str, float], ...]

    def term_set(self) -> set[str]:
        return {term for term, _ in self.terms}


def top_terms_by_weight(weights: dict[str, float], k: int) -> list[tuple[str, float]]:
    """Order terms by weight descending, term ascending; keep the first k.

    The deterministic tie-break is what makes signatures reproducible
    run-to-run; every signature selection funnels through here.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    ordered = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
    return ordered[:k]


def lexical_signature(
    document: Document,
    model: BackgroundModel,
    k: int,
    normalized_tf: bool = False,
) -> LexicalSignature:
    """The document's top-k terms by tf-idf against ``model``.

    Fewer than k distinct terms simply give a shorter signature. Weights
    use each term's count within the document times its model idf.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    length = len(document.tokens)
    weights = {
        term: _weight(term, count, length, model, normalized_tf)
        for term, count in Counter(document.tokens).items()
    }
    return LexicalSignature(document.id, tuple(top_terms_by_weight(weights, k)))


@dataclass(frozen=True)
class SignatureComparison:
    """How one document's signatures under two models relate."""

    doc_id: str
    size_a: int
    size_b: int
    overlap: int
    tau_b_shared: float | None
    displaced: bool


def compare_signatures(
    documents: Iterable[Document],
    model_a: BackgroundModel,
    model_b: BackgroundModel,
    k: int,
    normalized_tf: bool = False,
) -> list[SignatureComparison]:
    """Per-document signature agreement between two background models.

    overlap counts shared signature terms; tau_b_shared is Kendall's tau-b
    between the two orderings of the shared terms (None when fewer than
    two are shared); displaced flags any difference at all, either in
    membership or in the ordering of what is shared.
    """
    out: list[SignatureComparison] = []
    for doc in documents:
        sig_a = lexical_signature(doc, model_a, k, normalized_tf)
        sig_b = lexical_signature(doc, model_b, k, normalized_tf)
        pos_a = {term: i for i, (term, _) in enumerate(sig_a.terms)}
        pos_b = {term: i for i, (term, _) in enumerate(sig_b.terms)}
        shared = sorted(set(pos_a) & set(pos_b))
        tau_b = None
        if len(shared) >= 2:
            ranks_a = [pos_a[t] for t in shared]
            ranks_b = [pos_b[t] for t in shared]
            tau_b = correlation.kendall_tau_fast(ranks_a, ranks_b).tau_b
        same_membership = set(pos_a) == set(pos_b)
        same_order = tau_b is None or tau_b == 1.0
        displaced = not (same_membership and same_order)
        out.append(
            SignatureComparison(
                doc_id=doc.id,
                size_a=len(sig_a.terms),
                size_b=len(sig_b.terms),
                overlap=len(shared),
                tau_b_shared=tau_b,
                displaced=displaced,
            )
        )
    return out
