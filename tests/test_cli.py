"""End-to-end tests of the command-line interface."""

import contextlib
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from kendalltrans import DomainError, kendall_transform, merge_transformed, simulate_multivariate
from kendalltrans.cli import main
from kendalltrans import tableio


# body bytes of the robustness test: state letters, both delimiters, blanks,
# line ends, a quote, a lone non-ASCII byte and a UTF-8 encoded one
BODY_BYTES = [b"A", b"D", b"T", b"N", b",", b"\t", b" ", b"\r", b"\n", b'"', b"\xe9", b"\xc3\xa9"]


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def numeric_csv(tmp_path):
    path = tmp_path / "data.csv"
    write_csv(
        path,
        ["alpha", "beta", "gamma"],
        [
            [3.0, 1.0, 2.0],
            [1.0, 2.0, 2.0],
            [2.0, 3.0, 2.0],
            [4.0, 0.5, 2.5],
        ],
    )
    return path


class TestTransformCommand:
    def test_shape_and_determinism(self, tmp_path, numeric_csv):
        out1 = tmp_path / "enc1.csv"
        out2 = tmp_path / "enc2.csv"
        assert main(["transform", str(numeric_csv), str(out1)]) == 0
        assert main(["transform", str(numeric_csv), str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "#kendall n=4 scheme=rowmajor-v1"
        assert lines[1] == "alpha,beta,gamma"
        assert len(lines) == 2 + 12

    def test_missing_value_propagates(self, tmp_path):
        src = tmp_path / "gap.csv"
        write_csv(src, ["x"], [[1.0], ["NA"], [3.0]])
        out = tmp_path / "enc.csv"
        assert main(["transform", str(src), str(out)]) == 0
        rows = out.read_text().splitlines()[2:]
        # pairs in scheme order: (0,1) (0,2) (1,0) (1,2) (2,0) (2,1)
        assert rows == ["NA", "A", "NA", "NA", "D", "NA"]

    def test_categorical_requires_flag(self, tmp_path):
        src = tmp_path / "cat.csv"
        write_csv(src, ["color", "v"], [["red", 1.0], ["blue", 2.0], ["red", 3.0]])
        out = tmp_path / "enc.csv"
        assert main(["transform", str(src), str(out)]) == 1
        assert main(["transform", "--expand-categorical", str(src), str(out)]) == 0
        header = out.read_text().splitlines()[1]
        assert header == "color=red,v"

    def test_jitter_removes_ties_deterministically(self, tmp_path):
        src = tmp_path / "tied.csv"
        write_csv(src, ["x"], [[1.0], [1.0], [2.0]])
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["transform", "--jitter", "5:0.5", str(src), str(out1)]) == 0
        assert main(["transform", "--jitter", "5:0.5", str(src), str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        body = out1.read_text().splitlines()[2:]
        assert "T" not in body
        assert main(["transform", "--jitter", "nope", str(src), str(out1)]) == 1

    def test_jitter_below_resolution_fails_cleanly(self, tmp_path, capsys):
        src = tmp_path / "tied.csv"
        write_csv(src, ["x"], [[1e10], [1e10], [2.0]])
        out = tmp_path / "enc.csv"
        assert main(["transform", "--jitter", "1:1e-300", str(src), str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        # with several numeric columns, the message names the one that failed
        write_csv(src, ["a", "b"], [[1.0, 1e10], [2.0, 1e10], [3.0, 2.0]])
        assert main(["transform", "--jitter", "1:1e-300", str(src), str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {src}: column 'b': "
            "jitter scale 1e-300 failed to separate ties after 100 redraws\n"
        )
        assert not out.exists()

    def test_jitter_names_tied_infinity_before_drawing(self, tmp_path, capsys):
        src = tmp_path / "inf.csv"
        write_csv(src, ["x"], [["inf"], ["inf"], [1.0]])
        out = tmp_path / "enc.csv"
        assert main(["transform", "--jitter", "1:0.5", str(src), str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: {src}: column 'x': jitter cannot separate the tied infinite value inf\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["inf", "1e400", "0", "nan"])
    def test_jitter_scale_must_be_positive_and_finite(self, tmp_path, capsys, scale):
        src = tmp_path / "tied.csv"
        write_csv(src, ["x"], [[1.0], [1.0], [2.0]])
        out = tmp_path / "enc.csv"
        assert main(["transform", str(src), str(out), "--jitter", f"7:{scale}"]) == 1
        assert capsys.readouterr().err == (
            f"error: jitter scale must be positive and finite, got {float(scale)}\n"
        )
        assert not out.exists()

    def test_jitter_seed_must_be_non_negative(self, tmp_path, capsys):
        src = tmp_path / "tied.csv"
        write_csv(src, ["x"], [[1.0], [1.0], [2.0]])
        out = tmp_path / "enc.csv"
        assert main(["transform", str(src), str(out), "--jitter=-1:1e-6"]) == 1
        assert capsys.readouterr().err == "error: --jitter seed must be non-negative, got -1\n"
        assert not out.exists()

    def test_indicator_name_clash_rejected(self, tmp_path, capsys):
        out = tmp_path / "enc.csv"
        clashes = {
            "column": (["c", "c=red"], [["red", 1.0], ["blue", 2.0], ["red", 3.0]]),
            "indicator": (["c", "c=r"], [["r=x", "x"], ["b", "y"], ["r=x", "x"]]),
        }
        for header, rows in clashes.values():
            src = tmp_path / "clash.csv"
            write_csv(src, header, rows)
            argv = ["transform", "--expand-categorical", str(src), str(out)]
            assert main(argv) == 1
            assert "'c=r" in capsys.readouterr().err
        assert not out.exists()

    def test_jitter_leaves_indicators_alone(self, tmp_path):
        src = tmp_path / "mixed.csv"
        write_csv(
            src,
            ["color", "v"],
            [["red", 1.0], ["blue", 1.0], ["red", 2.0], ["red", 2.0], ["blue", 3.0]],
        )
        plain, jittered = tmp_path / "plain.csv", tmp_path / "jit.csv"
        assert main(["transform", "--expand-categorical", str(src), str(plain)]) == 0
        argv = ["transform", "--expand-categorical", "--jitter", "3:0.5"]
        assert main(argv + [str(src), str(jittered)]) == 0
        before = tableio.read_transformed(plain)
        after = tableio.read_transformed(jittered)
        # 3 red and 2 blue objects: 3*2 + 2*1 within-class ordered pairs tie
        assert after["color=red"].counts()[2] == 8
        assert after["color=red"] == before["color=red"]
        assert before["v"].counts()[2] == 4 and after["v"].counts()[2] == 0
        # an out-of-range scale fails even when no numeric column needs it
        write_csv(src, ["color"], [["red"], ["blue"], ["red"]])
        for bad in ("3:0", "3:nan"):
            assert main(argv[:3] + [bad, str(src), str(jittered)]) == 1

    def test_unreadable_and_ragged_inputs_fail(self, tmp_path, capsys):
        out = tmp_path / "enc.csv"
        assert main(["transform", str(tmp_path / "absent.csv"), str(out)]) == 1
        bad = tmp_path / "ragged.csv"
        bad.write_text("a,b\n1.0,2.0\n3.0\n", encoding="utf-8")
        assert main(["transform", str(bad), str(out)]) == 1
        err = capsys.readouterr().err
        assert "row 3" in err


class TestInverseCommand:
    def test_round_trip_recovers_ranks(self, tmp_path, numeric_csv):
        enc = tmp_path / "enc.csv"
        ranks = tmp_path / "ranks.csv"
        assert main(["transform", str(numeric_csv), str(enc)]) == 0
        assert main(["inverse", str(enc), str(ranks)]) == 0
        got = tableio.read_table(ranks)
        table = tableio.read_table(numeric_csv)
        for name, values in table.items():
            np.testing.assert_array_equal(got[name], rankdata(values))

    def test_three_cycle_yields_shared_ranks(self, tmp_path):
        enc = tmp_path / "cycle.csv"
        enc.write_text(
            "#kendall n=3 scheme=rowmajor-v1\nloop\nA\nD\nD\nA\nA\nD\n",
            encoding="utf-8",
        )
        ranks = tmp_path / "ranks.csv"
        assert main(["inverse", str(enc), str(ranks)]) == 0
        got = tableio.read_table(ranks)["loop"]
        np.testing.assert_array_equal(got, [2.0, 2.0, 2.0])

    def test_missing_only_column_ties_everything(self, tmp_path):
        enc = tmp_path / "na.csv"
        enc.write_text(
            "#kendall n=3 scheme=rowmajor-v1\nvoid\n" + "NA\n" * 6,
            encoding="utf-8",
        )
        ranks = tmp_path / "ranks.csv"
        assert main(["inverse", str(enc), str(ranks)]) == 0
        got = tableio.read_table(ranks)["void"]
        assert np.unique(got).size == 1

    def test_malformed_symbol_and_row_count(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "#kendall n=3 scheme=rowmajor-v1\nx\nA\nD\nQ\nA\nA\nD\n",
            encoding="utf-8",
        )
        assert main(["inverse", str(bad), str(tmp_path / "r.csv")]) == 1
        assert "unknown state" in capsys.readouterr().err
        short = tmp_path / "short.csv"
        short.write_text(
            "#kendall n=3 scheme=rowmajor-v1\nx\nA\nD\n", encoding="utf-8"
        )
        assert main(["inverse", str(short), str(tmp_path / "r.csv")]) == 1
        foreign = tmp_path / "foreign.csv"
        foreign.write_text(
            "#kendall n=3 scheme=colmajor-v9\nx\n" + "A\n" * 6, encoding="utf-8"
        )
        assert main(["inverse", str(foreign), str(tmp_path / "r.csv")]) == 1

    def test_weighted_votes(self, tmp_path):
        x = np.array([3.0, 1.0, 2.0, 4.0])
        seq = kendall_transform(x)
        votes = np.zeros((seq.m, 3))
        for j, code in enumerate(seq.codes):
            votes[j, code] = 1.0
        wfile = tmp_path / "weights.csv"
        tableio.write_weights(wfile, {"x": votes}, 4)
        ranks = tmp_path / "ranks.csv"
        assert main(["inverse", "--weighted", str(wfile), str(ranks)]) == 0
        got = tableio.read_table(ranks)["x"]
        np.testing.assert_array_equal(got, rankdata(x))

    def test_weighted_non_finite_rejected(self, tmp_path, capsys):
        wfile = tmp_path / "weights.csv"
        wfile.write_text(
            "#kendall n=2 scheme=rowmajor-v1\nx:asc,x:desc,x:tie\n1,0,0\ninf,inf,0\n",
            encoding="utf-8",
        )
        ranks = tmp_path / "ranks.csv"
        assert main(["inverse", "--weighted", str(wfile), str(ranks)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "row 4, column 'x:asc'" in captured.err
        assert not ranks.exists()


class TestScoreCommand:
    def test_self_decision_scores_log2(self, tmp_path, capsys):
        src = tmp_path / "t.csv"
        rng = np.random.default_rng(0)
        y = rng.permutation(10).astype(float)
        write_csv(
            src,
            ["copy", "noise", "y"],
            list(zip(y, rng.normal(size=10), y)),
        )
        assert main(["score", str(src), "--decision", "y"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "feature,score"
        first_name, first_score = out[1].split(",")
        assert first_name == "copy"
        assert float(first_score) == pytest.approx(math.log(2), abs=1e-15)

        assert main(["score", str(src), "--decision", "y", "--base", "2"]) == 0
        out2 = capsys.readouterr().out.splitlines()
        assert float(out2[1].split(",")[1]) == pytest.approx(1.0, abs=1e-15)

    def test_binned_method_may_reorder(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        y = rng.normal(size=40)
        mono = np.interp(y, np.sort(y), np.linspace(0, 1, 40))
        mono[0] += 1e4
        noisy = y + 0.4 * rng.normal(size=40)
        src = tmp_path / "t.csv"
        write_csv(src, ["mono", "noisy", "y"], list(zip(mono, noisy, y)))
        assert main(["score", str(src), "--decision", "y"]) == 0
        kendall_first = capsys.readouterr().out.splitlines()[1].split(",")[0]
        assert main(["score", str(src), "--decision", "y", "--method", "width:3"]) == 0
        width_first = capsys.readouterr().out.splitlines()[1].split(",")[0]
        assert kendall_first == "mono"
        assert width_first == "noisy"

    def test_unknown_column_fails(self, tmp_path, numeric_csv, capsys):
        assert main(["score", str(numeric_csv), "--decision", "zzz"]) == 1
        assert "zzz" in capsys.readouterr().err

    def test_non_numeric_feature_fails_naming_column(self, tmp_path, capsys):
        src = tmp_path / "t.csv"
        write_csv(src, ["word", "y"], [["x", 1.0], ["w", 2.0], ["v", 3.0]])
        assert main(["score", str(src), "--decision", "y"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'word'" in err

    def test_feature_observed_once_fails_naming_column(self, tmp_path, capsys):
        src = tmp_path / "t.csv"
        write_csv(src, ["a", "once", "y"], [[1.0, 5.0, 1.0], [2.0, "NA", 3.0], [3.0, "NA", 2.0]])
        assert main(["score", str(src), "--decision", "y"]) == 1
        err = capsys.readouterr().err
        assert err == "error: feature column 'once': no jointly complete positions\n"

    @pytest.mark.parametrize("method", ["width:3", "freq:3"])
    def test_binned_constant_and_infinite_features_score(self, tmp_path, capsys, method):
        src = tmp_path / "t.csv"
        write_csv(
            src,
            ["flat", "wild", "y"],
            [[2.0, "inf", 1.0], [2.0, 1.0, 3.0], [2.0, "-inf", 2.0], [2.0, 1e308, 4.0]],
        )
        assert main(["score", str(src), "--decision", "y", "--method", method]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "feature,score"
        assert out[2] == "flat,0.0"


class TestMergeCommand:
    def test_two_tiny_batches(self, tmp_path):
        batch1 = tmp_path / "b1.csv"
        batch2 = tmp_path / "b2.csv"
        write_csv(batch1, ["x"], [[1.0], [2.0]])
        write_csv(batch2, ["x"], [[5.0], [3.0]])
        enc1, enc2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
        assert main(["transform", str(batch1), str(enc1)]) == 0
        assert main(["transform", str(batch2), str(enc2)]) == 0
        merged = tmp_path / "merged.csv"
        assert main(["merge", str(enc1), str(enc2), str(merged)]) == 0
        lines = merged.read_text().splitlines()
        assert lines[0] == "#kendall n=4 scheme=rowmajor-v1"
        body = lines[2:]
        assert len(body) == 12
        assert sum(1 for row in body if row == "NA") == 8

    def test_feature_set_mismatch(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("#kendall n=2 scheme=rowmajor-v1\nx\nA\nD\n", encoding="utf-8")
        b.write_text("#kendall n=2 scheme=rowmajor-v1\nz\nA\nD\n", encoding="utf-8")
        assert main(["merge", str(a), str(b), str(tmp_path / "m.csv")]) == 1
        assert "feature set" in capsys.readouterr().err


class TestSimulateCommand:
    def test_bivariate_table_and_summary(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        args = [
            "simulate", "bivariate", str(out),
            "--r", "0.9", "--n", "20", "--reps", "10", "--seed", "1",
        ]
        assert main(args) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "replicate,estimator,value"
        assert len(lines) == 1 + 10 * 4
        summary = capsys.readouterr().out.splitlines()
        assert summary[0] == "estimator,p5,p25,p50,p75,p95"
        assert len(summary) == 5

        rerun = tmp_path / "sim2.csv"
        assert main(args[:2] + [str(rerun)] + args[3:]) == 0
        assert out.read_bytes() == rerun.read_bytes()

    def test_multivariate_tidy_table(self, tmp_path):
        out = tmp_path / "multi.csv"
        assert main([
            "simulate", "multivariate", str(out),
            "--lambdas", "0,1", "--n", "25", "--reps", "2", "--seed", "3",
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "replicate,lambda,score,value"
        assert len(lines) == 1 + 2 * 2 * 6

    @pytest.mark.parametrize("reps", ["0", "-2"])
    def test_multivariate_needs_a_replicate(self, tmp_path, capsys, reps):
        out = tmp_path / "multi.csv"
        assert main(["simulate", "multivariate", str(out), "--reps", reps]) == 1
        assert capsys.readouterr().err == f"error: need at least 1 replicate, got {reps}\n"
        assert not out.exists()

    def test_multivariate_rows_follow_the_api_stream(self, tmp_path):
        # stream [seed, lambda index, replicate], whatever the other lambdas
        out = tmp_path / "multi.csv"
        assert main([
            "simulate", "multivariate", str(out), "--lambdas", "0.2,0.8",
            "--n", "20", "--reps", "3", "--seed", "4", "--mixture", "max",
        ]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        expected = [
            [str(rep), str(lam), name, repr(float(value))]
            for li, lam in enumerate((0.2, 0.8))
            for rep in range(3)
            for name, value in simulate_multivariate(lam, "max", 20, seed=[4, li, rep]).items()
        ]
        assert rows == expected

    def test_multivariate_lambdas_error_names_the_flag(self, tmp_path, capsys):
        out = tmp_path / "multi.csv"
        assert main(["simulate", "multivariate", str(out), "--lambdas", "0,x"]) == 1
        assert capsys.readouterr().err == "error: --lambdas: 'x' is not a number\n"
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["nan", "inf", "-1"])
    def test_integration_scale_must_be_positive_and_finite(self, tmp_path, capsys, scale):
        out = tmp_path / "integ.csv"
        argv = ["simulate", "integration", str(out), "--reps", "2", "--scale", scale]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: scale must be positive and finite, got {float(scale)}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["bivariate", "multivariate", "integration"])
    def test_negative_seed_exits_2_naming_the_flag(self, tmp_path, capsys, kind):
        out = tmp_path / "sim.csv"
        with pytest.raises(SystemExit) as info:
            main(["simulate", kind, str(out), "--reps", "2", "--seed", "-1"])
        assert info.value.code == 2
        assert "argument --seed: seed must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_integration_synthetic_default(self, tmp_path, capsys):
        out = tmp_path / "integ.csv"
        assert main([
            "simulate", "integration", str(out),
            "--reps", "3", "--seed", "2", "--scale", "3",
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "replicate,method,agreement"
        assert len(lines) == 1 + 3 * 2
        summary = capsys.readouterr().out.splitlines()
        assert summary[0] == "method,p25,p50,p75"

    def test_integration_takes_a_categorical_decision(self, tmp_path, capsys):
        src = tmp_path / "labels.csv"
        rng = np.random.default_rng(4)
        f, g = rng.normal(size=(2, 20))
        colors = np.array(["red", "blue", "green"])[np.digitize(f, [0.0, 1.0])]
        rows = [[f"{a:.4f}", f"{b:.4f}", c] for a, b, c in zip(f, g, colors)]
        rows[3][2] = ""  # a missing label
        write_csv(src, ["f", "g", "y"], rows)
        out = tmp_path / "integ.csv"
        assert main([
            "simulate", "integration", str(out),
            "--input", str(src), "--reps", "3", "--seed", "1",
        ]) == 0
        assert len(out.read_text().splitlines()) == 1 + 3 * 2
        assert capsys.readouterr().out.splitlines()[0] == "method,p25,p50,p75"


class TestFileFormats:
    def test_tab_delimited_input(self, tmp_path):
        src = tmp_path / "tabbed.tsv"
        src.write_text("a\tb\n1.0\t2.0\n3.0\t4.0\n", encoding="utf-8")
        table = tableio.read_table(src)
        assert list(table) == ["a", "b"]
        np.testing.assert_array_equal(table["a"], [1.0, 3.0])

    def test_utf8_byte_order_mark_does_not_rename_first_column(self, tmp_path, capsys):
        src = tmp_path / "excel.csv"
        src.write_bytes(b"\xef\xbb\xbfy,a\n1,2\n2,1\n3,5\n")
        assert main(["score", str(src), "--decision", "y"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("a,")
        enc = tmp_path / "enc.csv"
        assert main(["transform", str(src), str(enc)]) == 0
        assert enc.read_bytes().splitlines()[1] == b"y,a"

    def test_leading_comment_line_is_not_the_header(self, tmp_path):
        src = tmp_path / "commented.csv"
        src.write_text("# units\na,b\n1,2\n", encoding="utf-8")
        table = tableio.read_table(src)
        assert list(table) == ["a", "b"]
        np.testing.assert_array_equal(table["b"], [2.0])

    def test_weights_reject_first_non_finite_cell(self, tmp_path):
        path = tmp_path / "weights.csv"
        path.write_text(
            "#kendall n=2 scheme=rowmajor-v1\nx:asc,x:desc,x:tie\n1,0,nan\n0,-inf,1\n",
            encoding="utf-8",
        )
        with pytest.raises(DomainError) as info:
            tableio.read_weights(path)
        message = str(info.value)
        assert str(path) in message
        assert "row 3, column 'x:tie'" in message
        assert "'nan'" in message

    def test_weights_reject_first_negative_cell(self, tmp_path):
        path = tmp_path / "weights.csv"
        path.write_text(
            "#kendall n=2 scheme=rowmajor-v1\nx:asc,x:desc,x:tie\n1,0,0\n0,-1,inf\n",
            encoding="utf-8",
        )
        with pytest.raises(DomainError) as info:
            tableio.read_weights(path)
        assert str(info.value) == f"{path}: row 4, column 'x:desc': weight is negative: '-1'"

    def test_transformed_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        system = {
            "u": kendall_transform(rng.normal(size=6)),
            "v": kendall_transform(rng.integers(0, 3, 6).astype(float)),
        }
        path = tmp_path / "enc.csv"
        tableio.write_transformed(path, system)
        back = tableio.read_transformed(path)
        assert back == system

    @pytest.mark.parametrize("delimiter", [",", "\t"])
    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    @pytest.mark.parametrize("layout", ["bare", "padded", "blank lines"])
    def test_transformed_file_contract(self, tmp_path, delimiter, eol, layout):
        rng = np.random.default_rng(8)
        x = rng.integers(0, 3, 5).astype(float)
        x[1] = np.nan
        system = {"a,b": kendall_transform(x), 'q"x': kendall_transform(rng.normal(size=5))}
        letters = np.array(["A", "D", "T", "NA"])
        pad = " " if layout == "padded" else ""
        rows = [
            delimiter.join(f"{pad}{cell}{pad}" for cell in row)
            for row in zip(*(letters[seq.codes] for seq in system.values()))
        ]
        if layout == "blank lines":
            rows = [line for row in rows for line in (row, "")]
        text = "#kendall n=5 scheme=rowmajor-v1\n" + eol.join(
            [delimiter.join(['"a,b"', '"q""x"']), *rows]
        ) + eol
        path = tmp_path / "enc.csv"
        path.write_bytes(text.encode())
        assert tableio.read_transformed(path) == system
        if (delimiter, eol, layout) == (",", "\r\n", "bare"):
            written = tmp_path / "written.csv"
            tableio.write_transformed(written, system)
            assert written.read_bytes() == text.encode()

    @pytest.mark.parametrize(
        "layout", ["bare", "tab", "crlf", "blank lines", "bom", "comment", "padded"]
    )
    def test_read_transformed_returns_the_written_system(self, tmp_path, monkeypatch, layout):
        # only a padded body needs the per-cell path; every other layout decodes in bulk
        if layout != "padded":
            def per_cell(*args):
                raise AssertionError("bare-token body took the per-cell path")
            monkeypatch.setattr(tableio, "_convert_cells", per_cell)
        rng = np.random.default_rng(19)
        delimiter = "\t" if layout == "tab" else ","
        eol = "\r\n" if layout == "crlf" else "\n"
        pad = " " if layout == "padded" else ""
        letters = np.array(["A", "D", "T", "NA"])
        for n in range(2, 13):
            values = rng.integers(0, 3, (rng.integers(1, 5), n)).astype(float)
            values[rng.random(values.shape) < 0.2] = np.nan
            system = {f"c{j}": kendall_transform(x) for j, x in enumerate(values)}
            rows = [
                delimiter.join(f"{pad}{cell}{pad}" for cell in row)
                for row in zip(*(letters[seq.codes] for seq in system.values()))
            ]
            if layout == "blank lines":
                rows = [line for row in rows for line in ("", row)]
            lines = [f"#kendall n={n} scheme=rowmajor-v1", delimiter.join(system), *rows]
            if layout == "comment":
                lines.insert(0, "# exported by hand")
            text = ("\ufeff" if layout == "bom" else "") + eol.join(lines) + eol
            path = tmp_path / f"enc{n}.csv"
            path.write_bytes(text.encode())
            assert tableio.read_transformed(path) == system

    @pytest.mark.parametrize(
        "body, message",
        [
            pytest.param(
                "A,D\nD,N\n", "row 4, column 'y': unknown state 'N' (expected A, D, T or NA)",
                id="lone-N",
            ),
            pytest.param(
                "A,ND\nD,A\n", "row 3, column 'y': unknown state 'ND' (expected A, D, T or NA)",
                id="N-then-letter",
            ),
            pytest.param(
                "A,NAA\nD,A\n", "row 3, column 'y': unknown state 'NAA' (expected A, D, T or NA)",
                id="NAA",
            ),
            pytest.param(
                "A,\nD,A\n", "row 3, column 'y': unknown state '' (expected A, D, T or NA)",
                id="empty-cell",
            ),
            pytest.param(
                "A,D\na,A\n", "row 4, column 'x': unknown state 'a' (expected A, D, T or NA)",
                id="lowercase",
            ),
            pytest.param(
                'A,D\n"D",A\n',
                "row 4, column 'x': unknown state '\"D\"' (expected A, D, T or NA)",
                id="quoted-cell",
            ),
            pytest.param("A,D\nD,A,T\n", "row 4 has 3 fields, expected 2", id="extra-field"),
            pytest.param("A,D\nD\n", "row 4 has 1 fields, expected 2", id="missing-field"),
            pytest.param("A\tD\nD,A\n", "row 4 has 1 fields, expected 2", id="comma-in-tab-file"),
            pytest.param(
                "A,D\nD,\u00c5\n",
                "row 4, column 'y': unknown state '\u00c5' (expected A, D, T or NA)",
                id="non-ascii",
            ),
        ],
    )
    def test_corrupt_state_body_names_first_bad_cell(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        header = "x\ty" if "\t" in body else "x,y"
        path.write_text(f"#kendall n=2 scheme=rowmajor-v1\n{header}\n{body}", encoding="utf-8")
        with pytest.raises(DomainError) as info:
            tableio.read_transformed(path)
        assert str(info.value) == f"{path}: {message}"

    def test_read_transformed_peak_memory_per_state(self, tmp_path):
        rng = np.random.default_rng(23)
        batches = [rng.normal(size=(4, 100)) for _ in range(2)]
        merged = {
            f"c{j}": merge_transformed([kendall_transform(b[j]) for b in batches])
            for j in range(4)
        }
        path = tmp_path / "merged.csv"
        tableio.write_transformed(path, merged)
        states = 4 * 200 * 199
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            back = tableio.read_transformed(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back == merged
        assert (peak - base) / states < 40.0

    # six rows of two cells fit the header; a cell is a state or up to three
    # body bytes, which can also change the row's width or the row count
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        rows=st.lists(
            st.lists(
                st.one_of(
                    st.sampled_from([b"A", b"D", b"T", b"NA"]),
                    st.lists(st.sampled_from(BODY_BYTES), max_size=3).map(b"".join),
                ),
                min_size=2, max_size=2,
            ).map(b",".join),
            min_size=6, max_size=6,
        ).map(b"\n".join)
    )
    def test_inverse_of_any_body_ends_in_a_result_or_an_error_line(self, tmp_path_factory, rows):
        folder = tmp_path_factory.mktemp("body")
        src, out = folder / "enc.csv", folder / "ranks.csv"
        src.write_bytes(b"#kendall n=3 scheme=rowmajor-v1\nx,y\n" + rows)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["inverse", str(src), str(out)])
        assert code in (0, 1)
        assert (code == 0) == out.exists()
        assert err.getvalue().startswith("error: ") if code else err.getvalue() == ""

    def test_weights_round_trip_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(9)
        weights = {"x": rng.random((12, 3)), "a,b": rng.random((12, 3)) * 1e-300}
        weights["x"][:3] = [[-0.0, 5e-324, 1e308], [0.0, 1.0, 0.1], [2.0**-1074, 1e-5, 7.0]]
        path = tmp_path / "weights.csv"
        tableio.write_weights(path, weights, 4)
        back, n = tableio.read_weights(path)
        assert n == 4 and list(back) == list(weights)
        for name, w in weights.items():
            assert back[name].tobytes() == w.tobytes()

    @pytest.mark.parametrize(
        "kind, body, where",
        [
            pytest.param(
                "state", "x,y\nA,D\nD,Q\n", "row 4, column 'y': unknown state 'Q'",
                id="unknown-state",
            ),
            pytest.param(
                "weight", "x:asc,x:desc,x:tie\n1,0,0\n0,1e,0\n",
                "row 4, column 'x:desc': not a number: '1e'",
                id="non-number-weight",
            ),
            pytest.param(
                "state", "x,y\nA,D,T\nD,A\n", "row 3 has 3 fields, expected 2",
                id="row-width",
            ),
            pytest.param(
                "state", "x,y\nA,D\n\"D\",A\n", "row 4, column 'x': unknown state '\"D\"'",
                id="quoted-cell",
            ),
        ],
    )
    def test_pair_row_files_name_first_bad_cell(self, tmp_path, kind, body, where):
        path = tmp_path / "bad.csv"
        path.write_text("#kendall n=2 scheme=rowmajor-v1\n" + body, encoding="utf-8")
        reader = tableio.read_transformed if kind == "state" else tableio.read_weights
        with pytest.raises(DomainError) as info:
            reader(path)
        assert str(info.value).startswith(f"{path}: {where}")

    @pytest.mark.parametrize(
        "command, text",
        [
            pytest.param(
                "inverse", "#kendall n=2 scheme=rowmajor-v1\nx,x\nA,D\nD,A\n",
                id="encoded",
            ),
            pytest.param(
                "inverse --weighted",
                "#kendall n=2 scheme=rowmajor-v1\nx:asc,x:desc,x:tie,x:asc\n"
                "1,0,0,1\n0,1,0,0\n",
                id="weights",
            ),
            pytest.param("transform", "a,a,y\n1,2,3\n4,5,6\n", id="table"),
        ],
    )
    def test_repeated_header_name_fails(self, tmp_path, capsys, command, text):
        src = tmp_path / "in.csv"
        src.write_text(text, encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main([*command.split(), str(src), str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}: column ") and "appears more than once" in err
        assert not out.exists()

    def test_oversized_cell_fails_cleanly(self, tmp_path, capsys):
        src = tmp_path / "wide.csv"
        src.write_text("a,b\n1,2\n3," + "x" * 200_000 + "\n", encoding="utf-8")
        assert main(["transform", str(src), str(tmp_path / "enc.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {src}: row 3: field larger than field limit")


# Every option that a command accepted at one time without reading it.
IGNORED_FLAGS = [
    *[("transform in.csv out.csv", flag) for flag in ("--seed 3", "--log-base 2")],
    *[("inverse in.csv out.csv", flag) for flag in ("--seed 3", "--log-base 2")],
    ("score in.csv --decision y", "--seed 3"),
    *[("merge a.csv b.csv out.csv", flag) for flag in ("--seed 3", "--log-base 2")],
    *[
        ("simulate bivariate out.csv", flag)
        for flag in ("--lambdas 0,1", "--mixture max", "--input in.csv", "--decision y", "--scale 3")
    ],
    *[
        ("simulate multivariate out.csv", flag)
        for flag in ("--r 0.5", "--input in.csv", "--decision y", "--scale 3")
    ],
    *[
        ("simulate integration out.csv", flag)
        for flag in ("--r 0.5", "--n 500", "--lambdas 0,1", "--mixture max", "--log-base 2")
    ],
]


@pytest.mark.parametrize("command, flag", IGNORED_FLAGS, ids=[f"{c} {f}" for c, f in IGNORED_FLAGS])
def test_option_the_command_does_not_read_exits_2(capsys, command, flag):
    with pytest.raises(SystemExit) as info:
        main([*command.split(), *flag.split()])
    assert info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
