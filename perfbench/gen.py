"""Seeded input generator for the pipeline benchmark.

Every input the benchmark hands to the program comes from here, and the
same (seed, size) always gives byte-identical files. Next to each input
the generator keeps what it knows by construction, so the checker does
not have to trust the program:

- a Zipf corpus as a ``%%DOC%%`` stream file, with the tc/df table and
  document count that its normalized tokens imply (tallied from the word
  ids the generator drew, not by tokenizing the text);
- a term-sorted Pareto stats table and its tc-only frequency list;
- small document batches for lexsig / compare-sig calls, with the
  normalized token list of every document.

Run on its own to build inputs, for instance the paper-scale ones:

    python3 perfbench/gen.py --out DIR --seed 7 --size paper

(``paper`` is the 4M-token corpus and the 11.3M-row table of ROADMAP.md;
it is not a benchmark workload.)
"""

from __future__ import annotations

import argparse
import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SEPARATOR = "%%DOC%%"

# Letters whose lower() maps back to themselves after upper()/capitalize(),
# so a case-mangled token normalizes to its vocabulary word. No sharp s,
# dotless i or sigma: their case maps are not one-to-one or depend on context.
ALPHABET = "abcdefghijklmnoprstuvwyzéèöüñçåøждлк"

# Edge punctuation, all of Unicode category P*, which the tokenizer strips.
PREFIXES = ["(", "«", "—", "“"]
SUFFIXES = ["),", ".", "»", "—", "”", ",", ")."]
# A token made only of punctuation; the tokenizer drops it.
BARE_PUNCT = "—"

TOKENS_PER_LINE = 14


@dataclass(frozen=True)
class Size:
    corpus_tokens: int  # zipf_pipeline corpus
    corpus_docs: int
    vocab: int
    table_rows: int  # Pareto table
    batches: int  # lexsig doc batches
    batch_docs: int
    doc_tokens: int


SIZES = {
    "tiny": Size(30_000, 80, 8_000, 20_000, 4, 2, 60),
    "bench": Size(800_000, 2_000, 150_000, 400_000, 8, 3, 150),
    "paper": Size(4_000_000, 20_000, 400_000, 11_300_000, 8, 3, 150),
}


def encode_terms(numbers: np.ndarray) -> np.ndarray:
    """Distinct non-negative ints -> distinct words over ALPHABET.

    Bijective base-len(ALPHABET) numbering, so distinct numbers give
    distinct strings. Returns a numpy unicode array.
    """
    base = len(ALPHABET)
    codes = np.array([ord(c) for c in ALPHABET], dtype=np.uint32)
    n = numbers.astype(np.int64) + 1
    digits = []
    while (n > 0).any():
        live = n > 0
        digits.append(np.where(live, codes[(n - 1) % base], 0).astype(np.uint32))
        n = np.where(live, (n - 1) // base, 0)
    mat = np.ascontiguousarray(np.stack(digits, axis=1))
    return mat.view(f"<U{len(digits)}").reshape(-1)


def zipf_vocab(rng: np.random.Generator, vocab: int) -> list[str]:
    """A vocabulary in frequency-rank order; frequent words are short."""
    numbers = np.sort(rng.choice(vocab * 40, size=vocab, replace=False))
    return encode_terms(numbers).tolist()


def zipf_ids(rng: np.random.Generator, vocab: int, count: int, exponent: float = 1.05) -> np.ndarray:
    cdf = np.cumsum(1.0 / np.arange(1, vocab + 1, dtype=np.float64) ** exponent)
    cdf /= cdf[-1]
    return np.minimum(np.searchsorted(cdf, rng.random(count)), vocab - 1)


def decorate(rng: np.random.Generator, words: list[str], ids: np.ndarray) -> list[str]:
    """Surface forms: 12% edge punctuation, 9% case changes, the rest bare."""
    n = ids.size
    tokens = [words[i] for i in ids.tolist()]
    u = rng.random(n)
    pre = rng.integers(0, len(PREFIXES), n).tolist()
    suf = rng.integers(0, len(SUFFIXES), n).tolist()
    for i in np.flatnonzero(u < 0.12).tolist():
        kind = i % 3
        if kind == 0:
            tokens[i] = PREFIXES[pre[i]] + tokens[i]
        elif kind == 1:
            tokens[i] = tokens[i] + SUFFIXES[suf[i]]
        else:
            tokens[i] = PREFIXES[pre[i]] + tokens[i] + SUFFIXES[suf[i]]
    for i in np.flatnonzero((u >= 0.12) & (u < 0.20)).tolist():
        tokens[i] = tokens[i].capitalize()
    for i in np.flatnonzero((u >= 0.20) & (u < 0.21)).tolist():
        tokens[i] = tokens[i].upper()
    return tokens


def doc_lengths(rng: np.random.Generator, tokens: int, docs: int) -> np.ndarray:
    cuts = np.sort(rng.choice(np.arange(1, tokens), size=docs - 1, replace=False))
    return np.diff(np.concatenate(([0], cuts, [tokens])))


def doc_text(tokens: list[str]) -> str:
    step = TOKENS_PER_LINE
    return "\n".join(" ".join(tokens[i : i + step]) for i in range(0, len(tokens), step))


def write_table(path: Path, terms, tc, df, docs: int) -> None:
    """Rows in write_stats layout; ``terms`` must already be sorted."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"#N={docs}\n")
        fh.writelines(f"{t}\t{a}\t{b}\n" for t, a, b in zip(terms, tc.tolist(), df.tolist()))


def write_freq_list(path: Path, terms, tc) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# term<TAB>count, tc only\n")
        fh.writelines(f"{t}\t{c}\n" for t, c in zip(terms, tc.tolist()))


def _tally(words: list[str], ids: np.ndarray, lengths: np.ndarray):
    """Sorted terms with their tc/df, from word ids and document lengths."""
    vocab = len(words)
    doc_of = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
    tc = np.bincount(ids, minlength=vocab)
    df = np.bincount(np.unique(doc_of * vocab + ids) % vocab, minlength=vocab)
    seen = np.flatnonzero(tc)
    terms = [words[i] for i in seen.tolist()]
    order = sorted(range(len(terms)), key=terms.__getitem__)
    return [terms[i] for i in order], tc[seen][order], df[seen][order]


def zipf_corpus(out: Path, seed: int, size: Size) -> list[str]:
    """corpus.txt plus corpus.stats (its expected tc/df) and corpus.freq.

    About 0.4% of tokens are followed by a bare dash, which the tokenizer
    drops. Returns the vocabulary in frequency-rank order.
    """
    rng = np.random.default_rng([seed, 1])
    words = zipf_vocab(rng, size.vocab)
    ids = zipf_ids(rng, size.vocab, size.corpus_tokens)
    surface = decorate(rng, words, ids)
    for i in np.flatnonzero(rng.random(ids.size) < 0.004).tolist():
        surface[i] += " " + BARE_PUNCT
    lengths = doc_lengths(rng, size.corpus_tokens, size.corpus_docs)
    bounds = np.concatenate(([0], np.cumsum(lengths))).tolist()
    texts = (doc_text(surface[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
    with open(out / "corpus.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"\n{SEPARATOR}\n".join(texts))
        fh.write("\n")
    terms, tc, df = _tally(words, ids, lengths)
    write_table(out / "corpus.stats", terms, tc, df, size.corpus_docs)
    write_freq_list(out / "corpus.freq", terms, tc)
    return words


def pareto_table(out: Path, seed: int, size: Size) -> list[str]:
    """pareto.stats (term-sorted, Pareto tc, 1 <= df <= tc <= N) and pareto.freq.

    Returns the terms in descending tc order, for drawing lexsig documents.
    """
    rng = np.random.default_rng([seed, 2])
    rows = size.table_rows
    numbers = np.arange(rows, dtype=np.int64) * 40 + rng.integers(0, 40, rows)
    terms = np.sort(encode_terms(numbers))
    docs = 1_000_000
    tc = np.minimum(np.floor(rng.pareto(1.1, rows) + 1).astype(np.int64), 50_000_000)
    # Most terms occur once in each document that has them; the rest repeat.
    repeat = rng.random(rows) < 0.4
    spread = np.floor(tc / (1.0 + rng.pareto(1.2, rows))).astype(np.int64)
    df = np.minimum(np.where(repeat, np.clip(spread, 1, tc), tc), docs)
    terms = terms.tolist()
    write_table(out / "pareto.stats", terms, tc, df, docs)
    write_freq_list(out / "pareto.freq", terms, tc)
    return [terms[i] for i in np.argsort(-tc, kind="stable").tolist()]


def doc_batches(out: Path, seed: int, size: Size, words: list[str]) -> None:
    """docs/*.txt in batches for lexsig calls, plus docs.json (normalized tokens).

    Words are drawn Zipf-wise from ``words``; about 5% are words no other
    table holds. The docs directory doubles as a small directory-mode
    corpus, so its own tc/df table and tc-only list are written too
    (docs.stats, docs.freq).
    """
    rng = np.random.default_rng([seed, 4])
    docs_dir = out / "docs"
    docs_dir.mkdir(exist_ok=True)
    unseen = encode_terms(np.arange(len(words) * 41, len(words) * 41 + 500)).tolist()
    batches = []
    for b in range(size.batches):
        batch = []
        for d in range(size.batch_docs):
            n = size.doc_tokens
            ids = zipf_ids(rng, len(words), n, exponent=0.9)
            surface = decorate(rng, words, ids)
            normal = [words[i] for i in ids.tolist()]
            for i in np.flatnonzero(rng.random(n) < 0.05).tolist():
                surface[i] = normal[i] = unseen[int(rng.integers(0, len(unseen)))]
            name = f"b{b}d{d}"
            (docs_dir / f"{name}.txt").write_text(doc_text(surface) + "\n", encoding="utf-8")
            batch.append({"id": name, "tokens": normal})
        batches.append(batch)
    tc: Counter = Counter()
    df: Counter = Counter()
    for batch in batches:
        for doc in batch:
            tc.update(doc["tokens"])
            df.update(set(doc["tokens"]))
    terms = sorted(tc)
    tc_col = np.array([tc[t] for t in terms])
    write_table(out / "docs.stats", terms, tc_col, np.array([df[t] for t in terms]),
                size.batches * size.batch_docs)
    write_freq_list(out / "docs.freq", terms, tc_col)
    (out / "docs.json").write_text(json.dumps(batches, ensure_ascii=False), encoding="utf-8")


def generate(kind: str, out: Path, seed: int, size: Size) -> None:
    """All inputs of one workload kind: ``zipf`` or ``pareto``."""
    out.mkdir(parents=True, exist_ok=True)
    make = {"zipf": zipf_corpus, "pareto": pareto_table}[kind]
    doc_batches(out, seed, size, make(out, seed, size))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="bench")
    args = parser.parse_args(argv)
    for kind in ("zipf", "pareto"):
        generate(kind, args.out / kind, args.seed, SIZES[args.size])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
