"""End-to-end runs of every subcommand through main(), plus exit codes."""

import json

import pytest

from corpusstats import read_stats
from corpusstats.cli import main
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


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, song_corpus_dir, tmp_path):
        first = tmp_path / "first.tsv"
        second = tmp_path / "second.tsv"
        run_ok(["count", "--corpus", str(song_corpus_dir), "--out", str(first)])
        run_ok(["count", "--corpus", str(song_corpus_dir), "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()
