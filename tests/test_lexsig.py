"""idf, tf-idf, signatures, and the measured-vs-proxy comparison."""

import io
import json
import math
from contextlib import redirect_stderr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusstats import (
    BackgroundModel,
    DfMode,
    Document,
    ParseError,
    TermStatsTable,
    ValidationError,
    compare_signatures,
    idf,
    lexical_signature,
    model_from_entries,
    model_from_table,
    tf,
    tf_idf,
    top_terms_by_weight,
)
from corpusstats.cli import main
from corpusstats.ingest import FrequencyListEntry

LOG2 = math.log10(2.0)   # idf of a df=2 term when N=5
LOG3 = math.log10(3.0)   # idf of a df=1 term when N=5


@pytest.fixture
def song_model(song_table):
    return model_from_table(song_table)


@pytest.fixture
def song_proxy_model(song_table):
    return model_from_table(song_table, DfMode.TC_AS_DF)


class TestIdf:
    def test_song_corpus_values(self, song_model):
        assert idf("love", song_model) == LOG2
        assert idf("long", song_model) == LOG3
        assert idf("please", song_model) == LOG3

    def test_unseen_term_gets_maximum(self, song_model):
        assert idf("zcareer", song_model) == math.log10(6.0)

    def test_term_in_every_document_gets_zero(self):
        table = TermStatsTable.from_mapping({"the": (9, 3)}, 3)
        model = model_from_table(table)
        assert idf("the", model) == 0.0

    def test_proxy_clamps_tc_at_doc_count(self, song_table):
        model = model_from_table(song_table, DfMode.TC_AS_DF, doc_count=2)
        # long has tc 3 > 2 documents, so df_hat clamps to 2
        assert model.df_hat("long") == 2
        assert idf("long", model) == math.log10(3.0 / 3.0)

    def test_non_increasing_in_df(self):
        previous = math.inf
        for df in range(1, 21):
            model = BackgroundModel.from_mapping({"t": 100}, {"t": df}, 20, DfMode.MEASURED_DF)
            value = idf("t", model)
            assert value <= previous
            previous = value

    def test_proxy_never_exceeds_measured(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            doc_count = int(rng.integers(1, 50))
            n_terms = int(rng.integers(1, 40))
            entries = {}
            for i in range(n_terms):
                df = int(rng.integers(1, doc_count + 1))
                tc = df + int(rng.integers(0, 100))
                entries[f"t{i}"] = (tc, df)
            table = TermStatsTable.from_mapping(entries, doc_count)
            measured = model_from_table(table, DfMode.MEASURED_DF)
            proxy = model_from_table(table, DfMode.TC_AS_DF)
            for term in entries:
                assert idf(term, proxy) <= idf(term, measured) + 1e-15

    def test_measured_df_above_doc_count_rejected(self, song_table):
        with pytest.raises(ValidationError):
            model_from_table(song_table, DfMode.MEASURED_DF, doc_count=1)

    def test_doc_count_below_one_rejected(self):
        with pytest.raises(ValidationError):
            BackgroundModel.from_mapping({}, {}, 0, DfMode.TC_AS_DF)

    def test_negative_counts_rejected(self):
        # idf divided by df_hat + 1 = 0, or took the log of a negative, before
        for count in (-1, -5):
            with pytest.raises(ValidationError, match=f"term 'a': tc={count} is negative"):
                model_from_entries([FrequencyListEntry("a", count)], 4)
        with pytest.raises(ValidationError, match="term 'a': df=-1 is negative"):
            BackgroundModel.from_mapping({"a": 3}, {"a": -1}, 4, DfMode.MEASURED_DF)
        # the first such term in term order, whichever column holds its count
        with pytest.raises(ValidationError, match="term 'b': tc=-2 is negative"):
            BackgroundModel.from_mapping({"b": -2, "c": 1}, {"c": -1, "b": 1}, 4, DfMode.MEASURED_DF)
        # the proxy reads no df, and 0 is the count of a term missing from one mapping
        proxy = BackgroundModel.from_mapping({"a": 3}, {"a": -1, "b": 2}, 4, DfMode.TC_AS_DF)
        assert (idf("a", proxy), idf("b", proxy)) == (math.log10(5 / 4), math.log10(5))
        measured = BackgroundModel.from_mapping({"a": 3}, {"b": 2}, 4, DfMode.MEASURED_DF)
        assert (idf("a", measured), idf("b", measured)) == (math.log10(5), math.log10(5 / 3))


class TestTf:
    def test_counts_occurrences(self, song_docs):
        d5 = song_docs[4]
        assert tf("long", d5) == 3
        assert tf("love", d5) == 0

    def test_tf_idf_song_values(self, song_docs, song_model):
        d5 = song_docs[4]
        assert tf_idf("long", d5, song_model) == 3 * LOG3
        assert tf_idf("long", d5, song_model, normalized_tf=True) == pytest.approx(LOG3)
        assert tf_idf("absent", d5, song_model) == 0.0

    def test_tf_idf_on_empty_document(self, song_model):
        empty = Document("e", [])
        assert tf_idf("love", empty, song_model, normalized_tf=True) == 0.0


class TestModelBuilders:
    def test_from_entries_requires_doc_count(self):
        entries = [FrequencyListEntry("a", 10)]
        model = model_from_entries(entries, 4)
        assert model.df_mode is DfMode.TC_AS_DF
        assert model.df_hat("a") == 4  # min(10, 4)

    def test_from_entries_duplicate_rejected(self):
        entries = [FrequencyListEntry("a", 10), FrequencyListEntry("a", 2)]
        with pytest.raises(ValidationError):
            model_from_entries(entries, 4)

    def test_table_proxy_ignores_measured_df(self, song_table):
        proxy = model_from_table(song_table, DfMode.TC_AS_DF)
        # please: measured df 1, but tc 2 drives the proxy
        assert proxy.df_hat("please") == 2


class TestTopTermsByWeight:
    def test_orders_by_weight_then_term(self):
        weights = {"b": 2.0, "a": 2.0, "c": 5.0, "d": 1.0}
        assert top_terms_by_weight(weights, 3) == [("c", 5.0), ("a", 2.0), ("b", 2.0)]

    def test_k_larger_than_vocabulary(self):
        assert len(top_terms_by_weight({"a": 1.0}, 10)) == 1

    def test_k_below_one_rejected(self):
        with pytest.raises(ValidationError):
            top_terms_by_weight({"a": 1.0}, 0)

    def test_matches_full_sort_oracle_on_random_weights(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 60))
            weights = {
                f"t{i}": float(w)
                for i, w in enumerate(rng.integers(0, 10, n))  # integer weights force ties
            }
            k = int(rng.integers(1, n + 1))
            oracle = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
            assert top_terms_by_weight(weights, k) == oracle

    def test_positive_scaling_changes_nothing(self):
        rng = np.random.default_rng(11)
        for scale in (0.001, 0.5, 3.0, 1e6):
            n = int(rng.integers(2, 40))
            weights = {f"t{i}": float(w) for i, w in enumerate(rng.integers(0, 8, n))}
            scaled = {t: w * scale for t, w in weights.items()}
            k = int(rng.integers(1, n + 1))
            base_terms = [t for t, _ in top_terms_by_weight(weights, k)]
            scaled_terms = [t for t, _ in top_terms_by_weight(scaled, k)]
            assert base_terms == scaled_terms


class TestLexicalSignature:
    def test_song_d3_signature(self, song_docs, song_model):
        d3 = song_docs[2]  # all you need is love
        sig = lexical_signature(d3, song_model, k=3)
        assert sig.terms == (("is", LOG3), ("need", LOG3), ("you", LOG3))
        full = lexical_signature(d3, song_model, k=5)
        assert [t for t, _ in full.terms] == ["is", "need", "you", "all", "love"]

    def test_repeated_term_weight_accumulates(self, song_docs, song_model):
        d1 = song_docs[0]  # please please me
        sig = lexical_signature(d1, song_model, k=2)
        assert sig.terms[0] == ("please", 2 * LOG3)
        assert sig.terms[1] == ("me", LOG2)

    def test_shorter_when_vocabulary_is_small(self, song_docs, song_model):
        sig = lexical_signature(song_docs[0], song_model, k=10)
        assert len(sig.terms) == 2

    def test_normalized_tf_rescales_but_keeps_order(self, song_docs, song_model):
        for doc in song_docs:
            raw = lexical_signature(doc, song_model, k=5)
            norm = lexical_signature(doc, song_model, k=5, normalized_tf=True)
            assert [t for t, _ in raw.terms] == [t for t, _ in norm.terms]
            for (_, w_raw), (_, w_norm) in zip(raw.terms, norm.terms):
                assert w_norm == pytest.approx(w_raw / len(doc.tokens))

    def test_matches_full_sort_oracle_on_random_documents(self):
        rng = np.random.default_rng(23)
        vocab = [f"w{i}" for i in range(50)]
        entries = {}
        for i, term in enumerate(vocab):
            df = int(rng.integers(1, 20))
            entries[term] = (df + int(rng.integers(0, 50)), df)
        model = model_from_table(TermStatsTable.from_mapping(entries, 20))
        for trial in range(300):
            size = int(rng.integers(1, 80))
            tokens = [vocab[int(i)] for i in rng.integers(0, len(vocab), size)]
            doc = Document(f"doc{trial}", tokens)
            k = int(rng.integers(1, 12))
            sig = lexical_signature(doc, model, k)
            weights = {
                term: tokens.count(term) * idf(term, model) for term in set(tokens)
            }
            oracle = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
            assert list(sig.terms) == oracle

    def test_k_below_one_rejected(self, song_docs, song_model):
        with pytest.raises(ValidationError):
            lexical_signature(song_docs[0], song_model, 0)


class TestCompareSignatures:
    def test_song_corpus_mostly_stable(self, song_docs, song_model, song_proxy_model):
        rows = compare_signatures(song_docs, song_model, song_proxy_model, k=3)
        by_id = {r.doc_id: r for r in rows}
        assert len(rows) == 5
        # d3's terms have identical idf under both modes
        assert by_id["d3"].displaced is False
        assert by_id["d3"].overlap == 3

    def test_rank_displacement_is_flagged(self, song_model, song_proxy_model):
        # measured: please and long tie at log10(3) -> [long, please]
        # proxy: please 0.301, long 0.176 -> [please, long]
        doc = Document("adv", ["please", "long"])
        row = compare_signatures([doc], song_model, song_proxy_model, k=2)[0]
        assert row.overlap == 2
        assert row.tau_b_shared == -1.0
        assert row.displaced is True

    def test_membership_displacement_is_flagged(self, song_model, song_proxy_model):
        # k=1: measured picks please (0.477 > 0.301), proxy ties at 0.301
        # and the alphabetical tie-break picks me
        doc = Document("adv2", ["please", "me"])
        row = compare_signatures([doc], song_model, song_proxy_model, k=1)[0]
        assert row.overlap == 0
        assert row.tau_b_shared is None
        assert row.displaced is True

    def test_identical_models_never_displace(self, song_docs, song_model):
        rows = compare_signatures(song_docs, song_model, song_model, k=4)
        assert all(r.displaced is False for r in rows)
        assert all(r.overlap == r.size_a == r.size_b for r in rows)


class DictModel:
    """Reference background model: the tc and df columns copied into dicts.

    Duck-types BackgroundModel for idf (``doc_count`` and ``df_hat``), so the
    library's signature code can score documents against it.
    """

    def __init__(self, tc, df, doc_count, df_mode):
        if doc_count < 1:
            raise ValidationError(f"doc_count must be >= 1, got {doc_count}")
        if df_mode is DfMode.MEASURED_DF:
            for term in sorted(df):
                if df[term] > doc_count:
                    raise ValidationError(f"term {term!r}: df={df[term]} exceeds doc_count={doc_count}")
        self.tc, self.df, self.doc_count, self.df_mode = tc, df, doc_count, df_mode

    def df_hat(self, term):
        if self.df_mode is DfMode.MEASURED_DF:
            return self.df.get(term, 0)
        return min(self.tc.get(term, 0), self.doc_count)


# ASCII, two-, three- and four-byte UTF-8 letters, each its own lowercase form
LETTERS = ["a", "b", "z", "\xe9", "\xdf", "ж", "日", "\U0001d51e"]
words_st = st.text(alphabet=st.sampled_from(LETTERS), min_size=1, max_size=4)
MISSING = ["zzzzz", "жжжжж", "\U0001d51e\U0001d51e\U0001d51e\U0001d51e\U0001d51e"]


@st.composite
def backgrounds(draw):
    """Terms with 1 <= df <= tc, N >= every df, and an --n-hat above or below the largest df."""
    terms = sorted(draw(st.lists(words_st, max_size=10, unique=True)))
    counts = {}
    for term in terms:
        df = draw(st.integers(1, 12))
        counts[term] = (df + draw(st.integers(0, 20)), df)
    top = max([df for _, df in counts.values()], default=1)
    doc_count = top + draw(st.integers(0, 3))
    n_hat = draw(st.one_of(st.none(), st.integers(1, top + 4)))
    return counts, doc_count, n_hat


def signature_output(signatures, fmt):
    if fmt == "json":
        payload = {s.doc_id: [[t, w] for t, w in s.terms] for s in signatures}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return "".join(f"{s.doc_id}\t{t}\t{w!r}\n" for s in signatures for t, w in s.terms)


def comparison_output(rows, fmt):
    if fmt == "json":
        payload = [{"doc": r.doc_id, "size_measured": r.size_a, "size_proxy": r.size_b,
                    "overlap": r.overlap, "tau_b_shared": r.tau_b_shared,
                    "displaced": r.displaced} for r in rows]
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    return "".join(
        f"{r.doc_id}\t{r.size_a}\t{r.size_b}\t{r.overlap}\t"
        f"{'NA' if r.tau_b_shared is None else repr(r.tau_b_shared)}\t"
        f"{'true' if r.displaced else 'false'}\n"
        for r in rows
    )


def expected(reference):
    """What the CLI prints for ``reference()``: (exit code, stdout file text, stderr)."""
    try:
        return 0, reference(), ""
    except (ParseError, ValidationError) as exc:
        return 2, None, f"error: {exc}\n"


def run_cli(args, out):
    out.unlink(missing_ok=True)
    stderr = io.StringIO()
    with redirect_stderr(stderr):
        code = main([*args, "--out", str(out)])
    return code, out.read_text(encoding="utf-8") if out.exists() else None, stderr.getvalue()


@pytest.fixture(scope="module")
def view_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("view")


@settings(max_examples=120, deadline=None)
@given(
    background=backgrounds(),
    data=st.data(),
    tc_as_df=st.booleans(),
    normalized_tf=st.booleans(),
    keep_lemmatized=st.booleans(),
    k=st.integers(1, 6),
    fmt=st.sampled_from(["tsv", "json"]),
)
def test_cli_signatures_match_the_dict_model(view_dir, background, data, tc_as_df, normalized_tf,
                                             keep_lemmatized, k, fmt):
    counts, doc_count, n_hat = background
    vocabulary = sorted(counts) + MISSING
    docs = [
        Document(f"d{i}", data.draw(st.lists(st.sampled_from(vocabulary), max_size=12)))
        for i in range(data.draw(st.integers(1, 3)))
    ]
    doc_args = []
    for doc in docs:
        path = view_dir / f"{doc.id}.txt"
        path.write_text(" ".join(doc.tokens) + "\n", encoding="utf-8")
        doc_args += ["--doc", str(path)]
    stats_path = view_dir / "background.stats"
    stats_path.write_text(
        f"#N={doc_count}\n" + "".join(f"{t}\t{tc}\t{df}\n" for t, (tc, df) in counts.items()),
        encoding="utf-8",
    )
    # a tc-only list of the same terms, plus lemma rows of some of them and of a missing term
    lemmas = data.draw(st.lists(st.sampled_from(vocabulary), max_size=2, unique=True))
    list_rows = [(t, tc, False) for t, (tc, _) in counts.items()] + [(t, 3, True) for t in lemmas]
    list_path = view_dir / "background.freq"
    list_path.write_text("# term<TAB>count\n" + "".join(
        f"{t}\t{c}\tL\n" if lemma else f"{t}\t{c}\n" for t, c, lemma in list_rows
    ), encoding="utf-8")

    tc = {t: c for t, (c, _) in counts.items()}
    df = {t: d for t, (_, d) in counts.items()}
    n = doc_count if n_hat is None else n_hat
    mode = DfMode.TC_AS_DF if tc_as_df else DfMode.MEASURED_DF
    flags = [*doc_args, "--k", str(k), "--format", fmt]
    flags += ["--normalized-tf"] if normalized_tf else []
    n_flag = [] if n_hat is None else ["--n-hat", str(n_hat)]
    out = view_dir / "out"

    def signatures(model):
        return signature_output([lexical_signature(d, model, k, normalized_tf) for d in docs], fmt)

    args = ["lexsig", "--stats", str(stats_path), *n_flag, *flags] + (["--tc-as-df"] if tc_as_df else [])
    assert run_cli(args, out) == expected(lambda: signatures(DictModel(tc, df, n, mode)))

    def comparison():
        measured = DictModel(tc, df, n, DfMode.MEASURED_DF)
        proxy = DictModel(tc, {}, n, DfMode.TC_AS_DF)
        return comparison_output(compare_signatures(docs, measured, proxy, k, normalized_tf), fmt)

    args = ["compare-sig", "--stats", str(stats_path), *n_flag, *flags]
    assert run_cli(args, out) == expected(comparison)

    def freq_list_signatures():
        list_tc = {}
        for line, (term, count, lemma) in enumerate(list_rows, 2):  # after the comment line
            if lemma and not keep_lemmatized:
                continue
            if term in list_tc:  # kept, a lemma row of a term with a surface row
                raise ParseError(list_path, line, f"duplicate term {term!r}; refusing to re-aggregate")
            list_tc[term] = count
        return signatures(DictModel(list_tc, {}, n, DfMode.TC_AS_DF))

    args = ["lexsig", "--freq-list", str(list_path), "--n-hat", str(n), *flags]
    args += ["--keep-lemmatized"] if keep_lemmatized else []
    assert run_cli(args, out) == expected(freq_list_signatures)
