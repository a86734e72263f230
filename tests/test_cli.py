"""End-to-end runs of every subcommand through main(), plus exit codes."""

import json
import os
import subprocess
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import corpusstats
from corpusstats import (TermStatsTable, cli, correlation_report, fractional_rank, prefix_correlation_curve,
                         ranking, ratio, read_stats, write_stats)
from corpusstats.cli import main
from corpusstats.correlation import write_curve
from corpusstats.ingest import UTF8_BOM
from conftest import SONG_TITLES


@pytest.fixture
def song_stats_file(song_corpus_dir, tmp_path):
    out = tmp_path / "song.stats.tsv"
    assert main(["count", "--corpus", str(song_corpus_dir), "--out", str(out)]) == 0
    return out


def run_ok(argv):
    code = main(argv)
    assert code == 0, f"expected success, got exit {code} for {argv}"


class TestCount:
    def test_writes_expected_table(self, song_stats_file):
        table = read_stats(song_stats_file)
        assert table.doc_count == 5
        assert table.tc("long") == 3 and table.df("long") == 1
        assert len(table) == 12

    def test_stream_and_directory_agree(self, song_corpus_dir, tmp_path):
        stream = tmp_path / "stream.txt"
        stream.write_text(
            "\n%%DOC%%\n".join(text for _, text in SONG_TITLES) + "\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "dir.tsv"
        out_stream = tmp_path / "stream.tsv"
        run_ok(["count", "--corpus", str(song_corpus_dir), "--out", str(out_dir)])
        run_ok(["count", "--corpus", str(stream), "--out", str(out_stream)])
        # ids differ but the counted rows must match line for line
        body_dir = out_dir.read_text(encoding="utf-8")
        body_stream = out_stream.read_text(encoding="utf-8")
        assert body_dir == body_stream

    def test_tokenizer_flags_change_output(self, song_corpus_dir, tmp_path):
        out = tmp_path / "cased.tsv"
        run_ok(["count", "--corpus", str(song_corpus_dir), "--out", str(out),
                "--no-lowercase"])
        table = read_stats(out)
        assert "Love" in table and "love" not in table

    def test_jobs_flag_and_env(self, song_corpus_dir, tmp_path, monkeypatch):
        base = tmp_path / "a.tsv"
        run_ok(["count", "--corpus", str(song_corpus_dir), "--out", str(base)])
        flagged = tmp_path / "b.tsv"
        run_ok(["count", "--corpus", str(song_corpus_dir), "--out", str(flagged),
                "--jobs", "3"])
        monkeypatch.setenv("CORPUSSTATS_JOBS", "2")
        from_env = tmp_path / "c.tsv"
        run_ok(["count", "--corpus", str(song_corpus_dir), "--out", str(from_env)])
        assert base.read_bytes() == flagged.read_bytes() == from_env.read_bytes()

    def test_bad_jobs_env_is_usage_error(self, song_corpus_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("CORPUSSTATS_JOBS", "many")
        out = tmp_path / "x.tsv"
        assert main(["count", "--corpus", str(song_corpus_dir), "--out", str(out)]) == 1


class TestRank:
    def test_by_tc_layout(self, song_stats_file, tmp_path):
        out = tmp_path / "by_tc.tsv"
        run_ok(["rank", "--stats", str(song_stats_file), "--by", "tc",
                "--out", str(out)])
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "long\t3\t1"
        assert lines[1] == "all\t2\t2"
        assert len(lines) == 12

    def test_scatter(self, song_stats_file, tmp_path):
        out = tmp_path / "scatter.tsv"
        run_ok(["rank", "--stats", str(song_stats_file), "--scatter",
                "--out", str(out)])
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 12
        assert lines[0] == "1\t4"

    def test_overlap_tsv_and_json(self, song_stats_file, tmp_path):
        out = tmp_path / "overlap.tsv"
        run_ok(["rank", "--stats", str(song_stats_file), "--overlap", "1", "2",
                "--out", str(out)])
        text = out.read_text(encoding="utf-8")
        # tc window [1,2]: long + the four rank-2 terms; df window [1,2]:
        # all, love, me (a subset) -> union 5, intersection 3
        assert "union\t5" in text and "intersection\t3" in text
        out_json = tmp_path / "overlap.json"
        run_ok(["rank", "--stats", str(song_stats_file), "--overlap", "1", "2",
                "--out", str(out_json), "--format", "json"])
        payload = json.loads(out_json.read_text(encoding="utf-8"))
        assert payload == {"from_rank": 1, "to_rank": 2, "union": 5, "intersection": 3}

    def test_exactly_one_mode_required(self, song_stats_file, tmp_path):
        out = tmp_path / "bad.tsv"
        assert main(["rank", "--stats", str(song_stats_file),
                     "--out", str(out)]) == 1
        assert main(["rank", "--stats", str(song_stats_file), "--by", "tc",
                     "--scatter", "--out", str(out)]) == 1

    @pytest.mark.parametrize("mode", [["--by", "tc"], ["--overlap", "1", "2"]])
    def test_a_table_with_no_rows_is_a_data_error(self, mode, tmp_path, capsys):
        # as for --scatter, correlate, ratio and ffreq: nothing to rank
        empty = tmp_path / "empty.stats"
        empty.write_text("#N=5\n", encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        assert main(["rank", "--stats", str(empty), *mode, "--out", str(out / "o")]) == 2
        assert capsys.readouterr().err == "error: empty table: nothing to rank\n"
        assert list(out.iterdir()) == []


class TestCorrelate:
    def test_report_values(self, song_stats_file, tmp_path):
        out = tmp_path / "report.tsv"
        run_ok(["correlate", "--stats", str(song_stats_file), "--out", str(out)])
        rows = dict(
            line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()
        )
        assert rows["n"] == "12"
        assert rows["spearman_rho"] == "0.6225430174794672"
        assert rows["kendall_tau_b"] == "0.5547001962252291"
        assert rows["concordant"] == "21" and rows["discordant"] == "3"
        assert "spearman_rho_shortcut" not in rows

    def test_exact_p_value_keeps_the_ties(self, tmp_path):
        # competition ranks tc (1,2,2,4,4,4,7,8) and df (1,1,3,3,5,5,7,7): the
        # orderings of the tied df ranks give p = 24/5040, not the tie-free 0.00223
        tc = [100, 90, 90, 80, 80, 80, 70, 60]
        df = [50, 50, 40, 40, 30, 30, 20, 20]
        table = tmp_path / "tied.stats"
        table.write_text("#N=50\n" + "".join(
            f"t{i}\t{a}\t{b}\n" for i, (a, b) in enumerate(zip(tc, df))), encoding="utf-8")
        out = tmp_path / "report.tsv"
        run_ok(["correlate", "--stats", str(table), "--out", str(out)])
        rows = dict(line.split("\t") for line in out.read_text(encoding="utf-8").splitlines())
        assert rows["n"] == "8"
        assert rows["p_value_rho"] == repr(24 / 5040)

    def test_json_report(self, song_stats_file, tmp_path):
        out = tmp_path / "report.json"
        run_ok(["correlate", "--stats", str(song_stats_file), "--out", str(out),
                "--format", "json", "--diagnostic"])
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["spearman_rho"] == 0.6225430174794672
        assert payload["n"] == 12
        assert "spearman_rho_shortcut" in payload

    def test_fractional_flag(self, song_stats_file, tmp_path):
        out = tmp_path / "frac.tsv"
        run_ok(["correlate", "--stats", str(song_stats_file), "--out", str(out),
                "--fractional"])
        rows = dict(
            line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()
        )
        # mid-ranks change rho but tau is rank-order invariant
        assert rows["kendall_tau_b"] == "0.5547001962252291"
        assert rows["spearman_rho"] != "0.6225430174794672"

    @pytest.mark.parametrize("fmt, diagnostic", [("tsv", False), ("json", True)])
    def test_fractional_equals_mid_ranks_ordered_by_lexsort(self, fmt, diagnostic, tmp_path):
        rng = np.random.default_rng(17)
        flags = ["--fractional", "--format", fmt] + (["--diagnostic"] if diagnostic else [])
        # few distinct counts take the histogram kernel, many the merge kernel
        for n, distinct in ((60, 4), (60, 60), (400, 15), (400, 400)):
            tc = rng.integers(1, distinct + 1, n)
            df = np.minimum(tc, rng.integers(1, distinct + 1, n))
            table = TermStatsTable.from_mapping(
                {f"t{i:03d}": (int(a), int(b)) for i, (a, b) in enumerate(zip(tc, df))}, int(df.max()))
            write_stats(table, tmp_path / "t.stats")
            checkpoints = [2, 10, n // 2, n]
            run_ok(["correlate", "--stats", str(tmp_path / "t.stats"), "--out", str(tmp_path / "r"),
                    "--curve-out", str(tmp_path / "c"), "--checkpoints", ",".join(map(str, checkpoints)),
                    *flags])
            x, y = (fractional_rank(column) for column in table.tc_df_arrays())
            report = correlation_report(x, y, diagnostic_shortcut=diagnostic)
            order = np.lexsort((y, x))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a degenerate prefix is skipped
                points = prefix_correlation_curve(x[order], y[order], checkpoints)
            cli._write_report(cli._report_rows(report), tmp_path / "want_r", fmt)
            write_curve(points, tmp_path / "want_c")
            assert (tmp_path / "r").read_bytes() == (tmp_path / "want_r").read_bytes()
            assert (tmp_path / "c").read_bytes() == (tmp_path / "want_c").read_bytes()

    def test_curve_output(self, song_stats_file, tmp_path):
        report = tmp_path / "r.tsv"
        curve = tmp_path / "curve.tsv"
        run_ok(["correlate", "--stats", str(song_stats_file), "--out", str(report),
                "--curve-out", str(curve), "--checkpoints", "4,12"])
        lines = curve.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("4\t") and lines[1].startswith("12\t")

    def test_curve_needs_both_flags(self, song_stats_file, tmp_path):
        assert main(["correlate", "--stats", str(song_stats_file),
                     "--out", str(tmp_path / "r.tsv"),
                     "--curve-out", str(tmp_path / "c.tsv")]) == 1

    def test_checkpoints_without_curve_out_fails_before_writing(self, song_stats_file, tmp_path):
        out = tmp_path / "r.tsv"
        assert main(["correlate", "--stats", str(song_stats_file), "--out", str(out),
                     "--checkpoints", "2,3"]) == 1
        assert not out.exists()

    def test_failed_curve_writes_neither_file(self, song_stats_file, tmp_path):
        # 13 exceeds the song table's 12 pairs, a data error found only
        # after the table is read
        out, curve = tmp_path / "r.tsv", tmp_path / "c.tsv"
        argv = ["correlate", "--stats", str(song_stats_file), "--out", str(out),
                "--curve-out", str(curve), "--checkpoints", "4,13"]
        assert main(argv) == 2
        assert not out.exists() and not curve.exists()
        out.write_bytes(b"old report\n")
        assert main(argv) == 2
        assert out.read_bytes() == b"old report\n"
        assert not curve.exists()

    def test_an_unwritable_curve_leaves_no_report(self, song_stats_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out, curve = out_dir / "r.tsv", tmp_path / "missing" / "c.tsv"
        capsys.readouterr()
        assert main(["correlate", "--stats", str(song_stats_file), "--out", str(out),
                     "--curve-out", str(curve), "--checkpoints", "3"]) == 3
        assert list(out_dir.iterdir()) == []
        assert capsys.readouterr().err == f"i/o error: [Errno 2] No such file or directory: '{curve}'\n"


    def test_a_degenerate_prefix_is_skipped_with_the_tools_warning(self, tmp_path, capsys):
        # the two top tc terms share their df, so the first 2 pairs tie in y
        table = tmp_path / "tied.stats"
        table.write_text("#N=9\na\t100\t5\nb\t90\t5\nc\t80\t3\nd\t70\t2\n", encoding="utf-8")
        out, curve = tmp_path / "r.tsv", tmp_path / "c.tsv"
        capsys.readouterr()
        run_ok(["correlate", "--stats", str(table), "--out", str(out),
                "--curve-out", str(curve), "--checkpoints", "2,4"])
        err = capsys.readouterr().err
        assert err.startswith("warning: checkpoint 2 skipped: ") and err.count("\n") == 1
        assert [line.split("\t")[0] for line in curve.read_text(encoding="utf-8").splitlines()] == ["4"]


class TestRatio:
    def test_all_roundings_written(self, song_stats_file, tmp_path):
        prefix = tmp_path / "ratios"
        run_ok(["ratio", "--stats", str(song_stats_file),
                "--out-prefix", str(prefix)])
        integer = (tmp_path / "ratios.integer.tsv").read_text(encoding="utf-8")
        assert integer == "1\t10\n2\t1\n3\t1\n"
        summary = (tmp_path / "ratios.integer.summary.tsv").read_text(encoding="utf-8")
        assert summary.splitlines()[0] == "mean\t1.25"
        assert (tmp_path / "ratios.two_decimals.tsv").exists()
        assert (tmp_path / "ratios.one_decimal.summary.tsv").exists()

    def test_single_rounding(self, song_stats_file, tmp_path):
        prefix = tmp_path / "r"
        run_ok(["ratio", "--stats", str(song_stats_file),
                "--out-prefix", str(prefix), "--rounding", "integer"])
        assert (tmp_path / "r.integer.tsv").exists()
        assert not (tmp_path / "r.one_decimal.tsv").exists()

    def test_a_failed_fourth_file_leaves_none_of_the_six(self, song_stats_file, tmp_path,
                                                         monkeypatch):
        write_utf8 = ratio.write_utf8
        opened = []

        @contextmanager
        def disk_full_in_the_fourth(path):
            opened.append(path)
            with write_utf8(path) as fh:
                if len(opened) == 4:
                    raise OSError(28, "No space left on device")
                yield fh

        monkeypatch.setattr(ratio, "write_utf8", disk_full_in_the_fourth)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        assert main(["ratio", "--stats", str(song_stats_file), "--rounding", "all",
                     "--out-prefix", str(out_dir / "r")]) == 3
        assert len(opened) == 4
        assert list(out_dir.iterdir()) == []


class TestFfreq:
    def test_from_stats_tc_and_df(self, song_stats_file, tmp_path):
        out = tmp_path / "ffreq.tsv"
        run_ok(["ffreq", "--stats", str(song_stats_file), "--out", str(out)])
        assert out.read_text(encoding="utf-8") == "1\t7\n2\t4\n3\t1\n"
        run_ok(["ffreq", "--stats", str(song_stats_file), "--which", "df",
                "--out", str(out)])
        assert out.read_text(encoding="utf-8") == "1\t9\n2\t3\n"

    def test_from_frequency_list(self, tmp_path):
        freq = tmp_path / "list.tsv"
        freq.write_text("# comment\na\t5\nb\t5\nc\t2\nd\t9\tL\n", encoding="utf-8")
        out = tmp_path / "out.tsv"
        run_ok(["ffreq", "--freq-list", str(freq), "--out", str(out)])
        assert out.read_text(encoding="utf-8") == "2\t1\n5\t2\n"

    def test_from_ngram_with_min_count(self, tmp_path):
        ngrams = tmp_path / "ngrams.tsv"
        ngrams.write_text("a\t300\nb\t120\nc\t300\n", encoding="utf-8")
        out = tmp_path / "out.tsv"
        run_ok(["ffreq", "--ngram", str(ngrams), "--min-count", "200",
                "--out", str(out)])
        assert out.read_text(encoding="utf-8") == "300\t2\n"

    def test_json_format(self, song_stats_file, tmp_path):
        out = tmp_path / "ffreq.json"
        run_ok(["ffreq", "--stats", str(song_stats_file), "--out", str(out),
                "--format", "json"])
        assert json.loads(out.read_text(encoding="utf-8")) == {"1": 7, "2": 4, "3": 1}

    def test_df_needs_stats_input(self, tmp_path):
        freq = tmp_path / "list.tsv"
        freq.write_text("a\t5\n", encoding="utf-8")
        assert main(["ffreq", "--freq-list", str(freq), "--which", "df",
                     "--out", str(tmp_path / "o.tsv")]) == 1

    def test_exactly_one_source(self, song_stats_file, tmp_path):
        freq = tmp_path / "list.tsv"
        freq.write_text("a\t5\n", encoding="utf-8")
        assert main(["ffreq", "--stats", str(song_stats_file),
                     "--freq-list", str(freq),
                     "--out", str(tmp_path / "o.tsv")]) == 1
        assert main(["ffreq", "--out", str(tmp_path / "o.tsv")]) == 1

    @pytest.mark.parametrize("argv, flag", [
        (["--stats", "{missing}", "--min-count", "3"], "--min-count"),
        (["--stats", "{missing}", "--min-count", "0"], "--min-count"),
        (["--freq-list", "{missing}", "--min-count", "3"], "--min-count"),
        (["--stats", "{missing}", "--keep-lemmatized"], "--keep-lemmatized"),
        (["--ngram", "{missing}", "--keep-lemmatized"], "--keep-lemmatized"),
    ], ids=["min_count_stats", "min_count_zero_stats", "min_count_freq_list",
            "keep_lemmatized_stats", "keep_lemmatized_ngram"])
    def test_a_flag_of_another_input_is_a_usage_error_before_reading(self, argv, flag, tmp_path,
                                                                     capsys):
        # the input does not exist, so exit 1 (not 3) shows that nothing was read first
        argv = [arg.format(missing=tmp_path / "missing") for arg in argv]
        capsys.readouterr()
        assert main(["ffreq", *argv, "--out", str(tmp_path / "o.tsv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and flag in err
        assert not (tmp_path / "o.tsv").exists()

    def test_min_count_zero_keeps_every_ngram_row(self, tmp_path):
        ngrams = tmp_path / "ngrams.tsv"
        ngrams.write_text("a\t1\nb\t3\n", encoding="utf-8")
        out = tmp_path / "out.tsv"
        run_ok(["ffreq", "--ngram", str(ngrams), "--min-count", "0", "--out", str(out)])
        assert out.read_text(encoding="utf-8") == "1\t1\n3\t1\n"


class TestLexsig:
    def test_signature_from_stats(self, song_stats_file, tmp_path):
        doc = tmp_path / "d3.txt"
        doc.write_text("All You Need Is Love\n", encoding="utf-8")
        out = tmp_path / "sig.tsv"
        run_ok(["lexsig", "--doc", str(doc), "--stats", str(song_stats_file),
                "--k", "3", "--out", str(out)])
        lines = out.read_text(encoding="utf-8").splitlines()
        assert [line.split("\t")[1] for line in lines] == ["is", "need", "you"]
        assert all(line.split("\t")[0] == "d3" for line in lines)

    def test_signature_json(self, song_stats_file, tmp_path):
        doc = tmp_path / "d5.txt"
        doc.write_text("Long, Long, Long\n", encoding="utf-8")
        out = tmp_path / "sig.json"
        run_ok(["lexsig", "--doc", str(doc), "--stats", str(song_stats_file),
                "--k", "2", "--out", str(out), "--format", "json"])
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert list(payload) == ["d5"]
        assert payload["d5"][0][0] == "long"

    def test_freq_list_model_needs_n_hat(self, tmp_path):
        doc = tmp_path / "d.txt"
        doc.write_text("alpha beta\n", encoding="utf-8")
        freq = tmp_path / "bg.tsv"
        freq.write_text("alpha\t5\nbeta\t2\n", encoding="utf-8")
        out = tmp_path / "sig.tsv"
        assert main(["lexsig", "--doc", str(doc), "--freq-list", str(freq),
                     "--out", str(out)]) == 1
        run_ok(["lexsig", "--doc", str(doc), "--freq-list", str(freq),
                "--n-hat", "4", "--out", str(out)])
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].split("\t")[1] == "beta"  # rarer term wins

    def test_needs_exactly_one_model_source(self, song_stats_file, tmp_path):
        doc = tmp_path / "d.txt"
        doc.write_text("love\n", encoding="utf-8")
        assert main(["lexsig", "--doc", str(doc),
                     "--out", str(tmp_path / "s.tsv")]) == 1

    def test_needs_at_least_one_doc(self, song_stats_file, tmp_path):
        assert main(["lexsig", "--stats", str(song_stats_file),
                     "--out", str(tmp_path / "s.tsv")]) == 1


class TestCompareSig:
    def test_adversarial_doc_is_displaced(self, song_stats_file, tmp_path):
        doc = tmp_path / "adv.txt"
        doc.write_text("please long\n", encoding="utf-8")
        out = tmp_path / "cmp.tsv"
        run_ok(["compare-sig", "--doc", str(doc), "--stats", str(song_stats_file),
                "--k", "2", "--out", str(out)])
        fields = out.read_text(encoding="utf-8").splitlines()[0].split("\t")
        assert fields[0] == "adv"
        assert fields[3] == "2"        # overlap
        assert fields[4] == "-1.0"     # tau over shared terms
        assert fields[5] == "true"     # displaced

    def test_json_format(self, song_stats_file, tmp_path):
        doc = tmp_path / "d1.txt"
        doc.write_text("Please Please Me\n", encoding="utf-8")
        out = tmp_path / "cmp.json"
        run_ok(["compare-sig", "--doc", str(doc), "--stats", str(song_stats_file),
                "--k", "2", "--out", str(out), "--format", "json"])
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload[0]["doc"] == "d1"
        assert payload[0]["displaced"] is False


class TestBench:
    def test_writes_curves_per_kernel(self, tmp_path):
        prefix = tmp_path / "bench"
        run_ok(["bench", "--kernel", "both", "--sizes", "200,400",
                "--trials", "1", "--out-prefix", str(prefix),
                "--extrapolate", "10000"])
        for kernel in ("naive", "fast"):
            lines = (tmp_path / f"bench.{kernel}.tsv").read_text(
                encoding="utf-8"
            ).splitlines()
            assert lines[0].startswith("200\t")
            assert lines[1].startswith("400\t")
            assert any(line.startswith("#fit exponent=") for line in lines)
            assert any(line.startswith("#extrapolate 10000\t") for line in lines)

    def test_two_pairs_are_timed(self, tmp_path):
        prefix = tmp_path / "bench"
        run_ok(["bench", "--kernel", "both", "--sizes", "2", "--trials", "1",
                "--out-prefix", str(prefix)])
        for kernel in ("naive", "fast"):
            assert (tmp_path / f"bench.{kernel}.tsv").read_text(encoding="utf-8").startswith("2\t")

    @pytest.mark.parametrize("argv", [
        ["bench", "--sizes", "ten,20", "--out-prefix", "{out}/b"],
        ["correlate", "--stats", "{stats}", "--out", "{out}/r.tsv",
         "--curve-out", "{out}/c.tsv", "--checkpoints", "10,x"],
    ])
    def test_bad_sizes_are_usage_error(self, argv, song_stats_file, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        argv = [arg.format(out=out, stats=song_stats_file) for arg in argv]
        assert main(argv) == 1
        assert "expects comma-separated integers" in capsys.readouterr().err
        assert list(out.iterdir()) == []


# Flag values that are wrong whatever the input. The input paths do not
# exist, so exit 1 (not 3) also shows that nothing was read first.
BAD_FLAG_VALUES = {
    "overlap_reversed": (["rank", "--stats", "{missing}", "--overlap", "5", "2"], "--overlap"),
    "overlap_from_zero": (["rank", "--stats", "{missing}", "--overlap", "0", "2"], "--overlap"),
    "lexsig_k": (["lexsig", "--stats", "{missing}", "--doc", "{missing}", "--k", "0"], "--k"),
    "compare_sig_k": (["compare-sig", "--stats", "{missing}", "--doc", "{missing}",
                       "--k", "0"], "--k"),
    "lexsig_n_hat": (["lexsig", "--freq-list", "{missing}", "--doc", "{missing}",
                      "--n-hat", "0"], "--n-hat"),
    "lexsig_keep_lemmatized_stats": (["lexsig", "--stats", "{missing}", "--doc", "{missing}",
                                      "--keep-lemmatized"], "--keep-lemmatized"),
    "lexsig_no_background": (["lexsig", "--doc", "{missing}"], "--freq-list"),
    "lexsig_freq_list_no_n_hat": (["lexsig", "--freq-list", "{missing}", "--doc", "{missing}"],
                                  "--n-hat"),
    "ffreq_min_count": (["ffreq", "--ngram", "{missing}", "--min-count", "-1"], "--min-count"),
    "bench_trials": (["bench", "--sizes", "200,400", "--trials", "0"], "--trials"),
    "bench_budget": (["bench", "--sizes", "200,400", "--budget", "0"], "--budget"),
    "bench_sizes_descending": (["bench", "--sizes", "20,10"], "--sizes"),
    "bench_sizes_below_two": (["bench", "--sizes", "1,2"], "--sizes"),
    "bench_sizes_empty": (["bench", "--sizes", ""], "--sizes"),
    "bench_extrapolate": (["bench", "--sizes", "200,400", "--trials", "1",
                           "--extrapolate", "0"], "--extrapolate"),
    "bench_extrapolate_one_size": (["bench", "--sizes", "10", "--extrapolate", "100"], "--extrapolate"),
    "count_separator_empty": (["count", "--corpus", "{missing}", "--separator", ""], "--separator"),
    "rank_by_format_json": (["rank", "--stats", "{missing}", "--by", "tc", "--format", "json"], "--format"),
    "rank_scatter_format_json": (["rank", "--stats", "{missing}", "--scatter", "--format", "json"],
                                 "--format"),
    "checkpoints_descending": (["correlate", "--stats", "{missing}", "--curve-out", "{out}/c",
                                "--checkpoints", "100,10"], "--checkpoints"),
    "checkpoints_negative": (["correlate", "--stats", "{missing}", "--curve-out", "{out}/c",
                              "--checkpoints=-5,3"], "--checkpoints"),
    "checkpoints_zero": (["correlate", "--stats", "{missing}", "--curve-out", "{out}/c",
                          "--checkpoints", "0,3"], "--checkpoints"),
    "checkpoints_one": (["correlate", "--stats", "{missing}", "--curve-out", "{out}/c",
                         "--checkpoints", "1"], "--checkpoints"),
    "curve_out_is_out": (["correlate", "--stats", "{missing}", "--curve-out", "{out}/o",
                          "--checkpoints", "3"], "--curve-out"),
    "curve_out_links_to_out": (["correlate", "--stats", "{missing}", "--curve-out",
                                "{out}/../out/./o", "--checkpoints", "3"], "--curve-out"),
}


class TestBadFlagValues:
    @pytest.mark.parametrize("case", sorted(BAD_FLAG_VALUES))
    def test_is_a_usage_error_before_any_input_is_read(self, case, tmp_path, capsys):
        argv, flag = BAD_FLAG_VALUES[case]
        out = tmp_path / "out"
        out.mkdir()
        argv = [arg.format(missing=tmp_path / "missing", out=out) for arg in argv]
        out_flag = "--out-prefix" if argv[0] == "bench" else "--out"
        assert main(argv + [out_flag, str(out / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and flag in err
        assert list(out.iterdir()) == []


class TestDocumentIds:
    @pytest.mark.parametrize("command", ["lexsig", "compare-sig"])
    def test_two_docs_with_one_stem_are_a_usage_error(self, command, tmp_path, capsys):
        # A document's id is its file's stem, so one of the two would be lost
        # or share its id. No input exists, so exit 1 (not 3) also shows that
        # nothing was read first.
        first, second = tmp_path / "a" / "x.txt", tmp_path / "b" / "x.txt"
        out = tmp_path / "out"
        out.mkdir()
        argv = [command, "--doc", str(first), "--doc", str(tmp_path / "y.txt"), "--doc", str(second),
                "--stats", str(tmp_path / "missing.stats"), "--out", str(out / "o")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"usage error: --doc {first} and --doc {second} have the same document id 'x'\n")
        assert list(out.iterdir()) == []


class TestReportFormats:
    @pytest.mark.parametrize("argv", [
        ["rank", "--overlap", "1", "2"],
        ["correlate", "--diagnostic"],
        ["ffreq"],
    ])
    def test_json_object_holds_the_tsv_rows(self, argv, song_stats_file, tmp_path):
        argv = [argv[0], "--stats", str(song_stats_file), *argv[1:]]
        tsv, js = tmp_path / "r.tsv", tmp_path / "r.json"
        run_ok(argv + ["--out", str(tsv)])
        run_ok(argv + ["--out", str(js), "--format", "json"])
        rows = dict(line.split("\t") for line in tsv.read_text(encoding="utf-8").splitlines())
        payload = json.loads(js.read_text(encoding="utf-8"))
        assert sorted(payload) == sorted(rows)
        for key, value in payload.items():
            if isinstance(value, int):
                assert rows[key] == str(value)
            else:
                assert float(rows[key]) == value


class TestExitCodes:
    def test_missing_required_flag(self):
        assert main(["count"]) == 1

    def test_unknown_command(self):
        assert main(["transmogrify"]) == 1

    def test_malformed_input_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("no header here\n", encoding="utf-8")
        assert main(["rank", "--stats", str(bad), "--by", "tc",
                     "--out", str(tmp_path / "o.tsv")]) == 2

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["count", "--corpus", str(tmp_path / "ghost"),
                     "--out", str(tmp_path / "o.tsv")]) == 3

    def test_unwritable_output_is_io_error(self, song_corpus_dir, tmp_path):
        assert main(["count", "--corpus", str(song_corpus_dir),
                     "--out", str(tmp_path / "no" / "such" / "dir.tsv")]) == 3

    def test_failed_write_keeps_the_old_output(self, song_stats_file, tmp_path, monkeypatch):
        encode_rows = ranking._encode_rows
        calls = []

        def disk_full_after_one_row(*args):
            calls.append(args)
            if len(calls) == 2:
                raise OSError(28, "No space left on device")
            return encode_rows(*args)

        monkeypatch.setattr(ranking, "_ROWS_PER_CHUNK", 1)
        monkeypatch.setattr(ranking, "_encode_rows", disk_full_after_one_row)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "ranked.tsv"
        out.write_bytes(b"old output\n")
        assert main(["rank", "--stats", str(song_stats_file), "--by", "tc",
                     "--out", str(out)]) == 3
        assert len(calls) == 2  # one row was written before the fault
        assert list(out_dir.iterdir()) == [out]
        assert out.read_bytes() == b"old output\n"


# One malformed row in an otherwise valid table, and the message every
# subcommand must report for it (the row sits on line 3).
BAD_ROWS = {
    "empty_term": ("\t3\t1", "empty term"),
    "plus_sign": ("x\t+5\t1", "tc is not a plain integer: '+5'"),
    "underscore": ("x\t1_0\t1", "tc is not a plain integer: '1_0'"),
    "non_ascii_digit": ("x\t \u0663\t1", "tc is not a plain integer: ' \u0663'"),
    "above_int64": (f"x\t{2**63}\t1", "tc exceeds 2**63 - 1"),
    "too_many_digits": ("x\t" + "1" * 5000 + "\t1", "a count has too many digits"),
    "non_utf8": (b"x\xe9\t3\t1", "not valid UTF-8"),
}

TABLE_READERS = {
    "rank_by": lambda stats, doc, out: ["rank", "--stats", stats, "--by", "tc", "--out", out / "o"],
    "rank_scatter": lambda stats, doc, out: ["rank", "--stats", stats, "--scatter", "--out", out / "o"],
    "correlate": lambda stats, doc, out: ["correlate", "--stats", stats, "--out", out / "o"],
    "ratio": lambda stats, doc, out: ["ratio", "--stats", stats, "--out-prefix", out / "o"],
    "ffreq": lambda stats, doc, out: ["ffreq", "--stats", stats, "--out", out / "o"],
    "lexsig": lambda stats, doc, out: ["lexsig", "--stats", stats, "--doc", doc, "--out", out / "o"],
    "compare_sig": lambda stats, doc, out: ["compare-sig", "--stats", stats, "--doc", doc,
                                            "--out", out / "o"],
}


class TestOneStrictReader:
    @pytest.mark.parametrize("command", sorted(TABLE_READERS))
    @pytest.mark.parametrize("case", sorted(BAD_ROWS))
    def test_malformed_row_is_the_same_data_error_everywhere(self, command, case, tmp_path, capsys):
        row, message = BAD_ROWS[case]
        stats = tmp_path / "bad.stats"
        if isinstance(row, str):
            row = row.encode("utf-8")
        stats.write_bytes(b"#N=5\na\t2\t1\n" + row + b"\n")
        doc = tmp_path / "d.txt"
        doc.write_text("a b\n", encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        argv = [str(arg) for arg in TABLE_READERS[command](stats, doc, out)]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {stats}:3: {message}\n"
        assert list(out.iterdir()) == []


# Table layouts the reader accepts besides the sorted LF layout that
# write_stats writes. Each must give every subcommand the exit code, stderr
# and output files of the clean table; a duplicate after unsorted rows is
# the same error everywhere.
CLEAN_ROWS = ["a\t2\t1", "b\t5\t3", "\xe9\t1\t1", "\u0436\t4\t2", "\U0001d11e\t3\t3"]
CLEAN_TABLE = "#N=5\n" + "".join(row + "\n" for row in CLEAN_ROWS)
ACCEPTED_SHAPES = {
    "crlf": ("#N=5\r\n" + "".join(row + "\r\n" for row in CLEAN_ROWS), CLEAN_TABLE),
    "blank_lines": ("#N=5\n\n" + "\n\n".join(CLEAN_ROWS) + "\n\n\n", CLEAN_TABLE),
    "no_final_newline": ("#N=5\n" + "\n".join(CLEAN_ROWS), CLEAN_TABLE),
    "header_only": ("#N=5", "#N=5\n"),
    "unsorted": ("#N=5\n" + "".join(row + "\n" for row in reversed(CLEAN_ROWS)), CLEAN_TABLE),
    "byte_order_mark": ("\ufeff" + CLEAN_TABLE, CLEAN_TABLE),
    "byte_order_mark_crlf": ("\ufeff#N=5\r\n" + "".join(row + "\r\n" for row in CLEAN_ROWS),
                             CLEAN_TABLE),
    "duplicate_after_unsorted": ("#N=5\nb\t1\t1\na\t1\t1\n\nc\t1\t1\nb\t2\t1\n", None),
}


def run_table_reader(command, text, tmp_path, name, capsys):
    """Exit code, stderr (the table path as STATS) and output files of one call."""
    stats = tmp_path / f"{name}.stats"
    stats.write_text(text, encoding="utf-8", newline="")
    doc = tmp_path / "d.txt"
    doc.write_text("a b \u0436 z\n", encoding="utf-8")
    out = tmp_path / name
    out.mkdir()
    capsys.readouterr()
    code = main([str(arg) for arg in TABLE_READERS[command](stats, doc, out)])
    err = capsys.readouterr().err.replace(str(stats), "STATS")
    return code, err, {path.name: path.read_bytes() for path in sorted(out.iterdir())}


class TestAcceptedTableShapes:
    @pytest.mark.parametrize("command", sorted(TABLE_READERS))
    @pytest.mark.parametrize("shape", sorted(ACCEPTED_SHAPES))
    def test_reads_like_the_clean_table(self, command, shape, tmp_path, capsys):
        text, clean = ACCEPTED_SHAPES[shape]
        got = run_table_reader(command, text, tmp_path, "shape", capsys)
        if clean is None:
            assert got == (2, "error: STATS:6: duplicate term 'b'\n", {})
        else:
            assert got == run_table_reader(command, clean, tmp_path, "clean", capsys)


# Valid rows on lines 1-2 and a Latin-1 byte on line 3. The text decoder
# reads in chunks, so it trips over the byte while the reader is on line 1.
UNDECODABLE = b"a\t5\nb\t2\nx\xe9\t3\n"

UTF8_READERS = {
    "count_directory": ("corpus/b.txt", lambda bad, tmp: ["count", "--corpus", bad.parent]),
    "count_stream": ("stream.txt", lambda bad, tmp: ["count", "--corpus", bad]),
    "ffreq_freq_list": ("list.tsv", lambda bad, tmp: ["ffreq", "--freq-list", bad]),
    "lexsig_doc": ("doc.txt", lambda bad, tmp: ["lexsig", "--doc", bad, "--stats", tmp / "good.stats"]),
}


class TestUndecodableInput:
    @pytest.mark.parametrize("case", sorted(UTF8_READERS))
    def test_non_utf8_is_a_data_error_naming_the_line(self, case, tmp_path, capsys):
        name, make_argv = UTF8_READERS[case]
        bad = tmp_path / name
        bad.parent.mkdir(exist_ok=True)
        (bad.parent / "a.txt").write_text("a b\n", encoding="utf-8")
        bad.write_bytes(UNDECODABLE)
        (tmp_path / "good.stats").write_text("#N=5\na\t2\t1\n", encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        assert main([str(arg) for arg in make_argv(bad, tmp_path) + ["--out", out / "o"]]) == 2
        assert capsys.readouterr().err == f"error: {bad}:3: not valid UTF-8\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("case", sorted(UTF8_READERS))
    def test_a_byte_order_mark_keeps_the_line_number(self, case, tmp_path, capsys):
        name, make_argv = UTF8_READERS[case]
        bad = tmp_path / name
        bad.parent.mkdir(exist_ok=True)
        bad.write_bytes(UTF8_BOM + UNDECODABLE)
        (tmp_path / "good.stats").write_text("#N=5\na\t2\t1\n", encoding="utf-8")
        capsys.readouterr()
        assert main([str(arg) for arg in make_argv(bad, tmp_path) + ["--out", tmp_path / "o"]]) == 2
        assert capsys.readouterr().err == f"error: {bad}:3: not valid UTF-8\n"


# Each reader of a file, with the file's name and contents. A UTF-8
# byte-order mark before the contents must change nothing the reader
# gives. Each file's first line reads differently with the mark in it: a
# comment or a blank line becomes a bad row, and a word another term. The
# table reader is covered for every subcommand above.
BOM_READERS = {
    "freq_list": ("list.tsv", "# c\nthe\t3\nx\t1\n",
                  lambda path: ["ffreq", "--freq-list", path]),
    "freq_list_lemmas": ("list.tsv", "# c\nthe\t3\tL\nthe\t2\nx\t1\n",
                         lambda path: ["ffreq", "--freq-list", path, "--keep-lemmatized"]),
    "ngram": ("ngrams.tsv", "\nthe cat\t3\nx y\t1\n", lambda path: ["ffreq", "--ngram", path]),
    "lexsig_freq_list": ("list.tsv", "the\t3\nx\t1\n",
                         lambda path: ["lexsig", "--freq-list", path, "--n-hat", "5",
                                       "--doc", path.parent / "d.txt"]),
    "count_stream_jobs1": ("stream.txt", "the cat\n%%DOC%%\nthe\n",
                           lambda path: ["count", "--corpus", path, "--jobs", "1"]),
    "count_stream_jobs2": ("stream.txt", "the cat\n%%DOC%%\nthe\n",
                           lambda path: ["count", "--corpus", path, "--jobs", "2"]),
    "count_directory": ("corpus/a.txt", "the cat\n",
                        lambda path: ["count", "--corpus", path.parent, "--jobs", "2"]),
    "lexsig_doc": ("a.txt", "the cat the\n",
                   lambda path: ["lexsig", "--doc", path, "--stats", path.parent / "t.stats"]),
}


class TestByteOrderMark:
    def run(self, case, bom, tmp_path, capsys):
        """Exit code, stderr and output bytes of one reader, on its file with or without a mark."""
        name, text, make_argv = BOM_READERS[case]
        base = tmp_path / ("bom" if bom else "plain")
        path = base / name
        path.parent.mkdir(parents=True)
        path.write_bytes(bom + text.encode("utf-8"))
        (base / "d.txt").write_text("the x y\n", encoding="utf-8")
        (base / "t.stats").write_text("#N=5\nthe\t4\t2\ncat\t1\t1\n", encoding="utf-8")
        (path.parent / "b.txt").write_text("the\n", encoding="utf-8")  # a directory's second shard
        capsys.readouterr()
        code = main([str(arg) for arg in make_argv(path) + ["--out", base / "out"]])
        return code, capsys.readouterr().err, (base / "out").read_bytes()

    @pytest.mark.parametrize("case", sorted(BOM_READERS))
    def test_is_skipped_at_the_start_of_a_file(self, case, tmp_path, capsys):
        got = self.run(case, UTF8_BOM, tmp_path, capsys)
        assert got == self.run(case, b"", tmp_path, capsys)
        assert got[0] == 0 and "\ufeff".encode("utf-8") not in got[2]


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, song_corpus_dir, tmp_path):
        first = tmp_path / "first.tsv"
        second = tmp_path / "second.tsv"
        run_ok(["count", "--corpus", str(song_corpus_dir), "--out", str(first)])
        run_ok(["count", "--corpus", str(song_corpus_dir), "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()


# Each call runs in a fresh interpreter, which prints its exit code and the
# scipy modules that the call loaded.
PROBE = """
import json, sys
from corpusstats.cli import main
code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""

SRC = Path(corpusstats.__file__).resolve().parents[1]

SCIPY_FREE = {
    "count": lambda corpus, stats, doc, out: ["count", "--corpus", corpus, "--out", out / "o"],
    "rank": lambda corpus, stats, doc, out: ["rank", "--stats", stats, "--by", "tc",
                                             "--out", out / "o"],
    "ratio": lambda corpus, stats, doc, out: ["ratio", "--stats", stats, "--out-prefix", out / "o"],
    "ffreq": lambda corpus, stats, doc, out: ["ffreq", "--stats", stats, "--out", out / "o"],
    "lexsig": lambda corpus, stats, doc, out: ["lexsig", "--stats", stats, "--doc", doc,
                                               "--out", out / "o"],
    "compare_sig": lambda corpus, stats, doc, out: ["compare-sig", "--stats", stats, "--doc", doc,
                                                    "--out", out / "o"],
    "bench": lambda corpus, stats, doc, out: ["bench", "--kernel", "both", "--sizes", "50,100",
                                              "--trials", "1", "--out-prefix", out / "o"],
}


def run_fresh(argv) -> tuple[int, list[str]]:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps([str(arg) for arg in argv])],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    code, loaded = json.loads(proc.stdout)
    return code, loaded


class TestStartUp:
    @pytest.mark.parametrize("command", sorted(SCIPY_FREE))
    def test_subcommand_loads_no_scipy(self, command, song_corpus_dir, song_stats_file, tmp_path):
        doc = song_corpus_dir / "d1.txt"
        out = tmp_path / "out"
        out.mkdir()
        code, loaded = run_fresh(SCIPY_FREE[command](song_corpus_dir, song_stats_file, doc, out))
        assert code == 0
        assert loaded == []

    def test_correlate_loads_scipy_special_only(self, song_stats_file, tmp_path):
        # twelve terms: above the exact-null limit of 10, so the p-value
        # comes from the t approximation
        code, loaded = run_fresh(["correlate", "--stats", song_stats_file,
                                  "--out", tmp_path / "r.tsv"])
        assert code == 0
        assert "scipy.special" in loaded
        assert [m for m in loaded if m.startswith("scipy.stats")] == []

    def test_correlate_at_the_p_value_floor_loads_no_scipy(self, tmp_path):
        # 200 terms whose df falls with tc in groups of five: rho is just
        # below 1, and the t tail is far below the 2.2e-16 floor
        stats_path = tmp_path / "t.stats"
        stats_path.write_text("#N=1000\n" + "".join(
            f"t{i:03d}\t{1000 - i}\t{(1000 - i) // 5}\n" for i in range(200)
        ))
        out = tmp_path / "r.tsv"
        code, loaded = run_fresh(["correlate", "--stats", stats_path, "--out", out])
        assert code == 0
        assert loaded == []
        report = dict(line.split("\t") for line in out.read_text().splitlines())
        assert 0.99 < float(report["spearman_rho"]) < 1.0
        assert report["p_value_rho"] == "2.2e-16"
