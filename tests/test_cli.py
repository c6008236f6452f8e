"""End-to-end CLI tests via subprocess: outputs, exit codes, determinism."""
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randpivot import PivotKind, coverage_study, mc, parse_dist
from randpivot.bigdata import write_dataset
from randpivot.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_help.txt"
GOLDEN_OUTPUTS = Path(__file__).parent / "golden" / "cli_outputs.json"
# Draws and sums are byte-identical at a fixed numpy version; a failure
# under another one names both.
RECORDED_NUMPY = "2.4.6"
NUMPY_NOTE = f"recorded with numpy {RECORDED_NUMPY}, running numpy {np.__version__}"


def run_cli(*args, expect=0):
    # a numpy warning in the child is an error, as it is in-process
    env = {**os.environ, "COLUMNS": "80", "PYTHONWARNINGS": "error::RuntimeWarning"}
    out = subprocess.run([sys.executable, "-m", "randpivot.cli", *args],
                         capture_output=True, text=True, env=env)
    assert out.returncode == expect, (args, out.stdout, out.stderr)
    assert "Traceback" not in out.stderr, (args, out.stderr)
    return out


@pytest.fixture
def sample_csv(tmp_path):
    p = tmp_path / "sample.csv"
    p.write_text("1.2\n3.4\n2.2\n5.0\n0.7\n4.1\n2.9\n3.3\n1.8\n2.6\n")
    return p


class TestCommands:
    def test_sizing_power_delta(self):
        out = run_cli("sizing", "--n", "1000000", "--policy", "power-delta:0.25",
                      "--no-timestamp")
        assert json.loads(out.stdout)["m"] == 31623

    def test_sizing_loglog(self):
        out = run_cli("sizing", "--n", "1000000", "--policy", "loglog", "--no-timestamp")
        assert json.loads(out.stdout)["m"] == 2626

    def test_ci_mean_json(self, sample_csv):
        out = run_cli("ci-mean", "--data", str(sample_csv), "--alpha", "0.05",
                      "--variant", "g1", "--m", "equal-n", "--seed", "7",
                      "--no-timestamp")
        payload = json.loads(out.stdout)
        assert payload["kind"] == "ci"
        assert payload["target"] == "population_mean"
        assert payload["lower"] < payload["center"] < payload["upper"]

    def test_rate_csv_format(self):
        out = run_cli("rate", "--n", "1000000", "--m", "31623", "--kind", "d",
                      "--format", "csv", "--no-timestamp")
        header, row = out.stdout.strip().split("\n")
        assert "rate" in header.split(",")
        value = float(dict(zip(header.split(","), row.split(","))) ["rate"])
        assert abs(value - 1e-3) < 1e-5

    def test_coverage_report(self):
        out = run_cli("coverage", "--dist", "normal:0,1", "--n", "20", "--pivot", "g1",
                      "--reps", "100", "--alpha", "0.05", "--sided", "upper",
                      "--seed", "1", "--no-timestamp")
        payload = json.loads(out.stdout)
        assert payload["kind"] == "coverage"
        assert 0.8 <= payload["coverage"] <= 1.0
        assert "classical_coverage" in payload

    def test_ingest_then_bigdata(self, tmp_path, sample_csv):
        big = tmp_path / "big.csv"
        big.write_text("".join(f"{0.1 * i}\n" for i in range(200)))
        out = run_cli("ingest", "--csv", str(big), "--out", str(tmp_path / "d.rpv"),
                      "--no-timestamp")
        assert json.loads(out.stdout)["count"] == 200
        out = run_cli("ci-bigdata", "--data", str(tmp_path / "d.rpv"),
                      "--policy", "fixed:50", "--seed", "2", "--no-timestamp")
        payload = json.loads(out.stdout)
        assert payload["target"] == "sample_mean"
        assert payload["report_records_read"] <= 50

    def test_bound_command(self):
        out = run_cli("bound", "--n", "100", "--m", "100", "--delta", "0.5",
                      "--eps", "0.1", "--eps1", "0.01", "--eps2", "0.05",
                      "--rho3", "2", "--p-s2", "0.01", "--no-timestamp")
        payload = json.loads(out.stdout)
        assert payload["raw"] == payload["pi1"] + payload["pi2"]
        assert payload["capped"] <= 1.0

    def test_proportion_small(self):
        out = run_cli("proportion", "--dist", "normal:0,1", "--n", "10",
                      "--outer", "20", "--inner", "40", "--seed", "3",
                      "--no-timestamp")
        payload = json.loads(out.stdout)
        assert payload["kind"] == "proportion"
        assert 0.0 <= payload["proportion"] <= 1.0

    def test_kdist_small(self):
        out = run_cli("kdist", "--dist", "normal:0,1", "--n", "20", "--pivot", "g1",
                      "--reps", "2000", "--seed", "4", "--no-timestamp")
        payload = json.loads(out.stdout)
        assert 0.0 <= payload["distance"] <= 1.0


class TestExitCodes:
    def test_usage_error_is_2(self):
        run_cli("nosuchcommand", expect=2)
        run_cli("sizing", "--n", "100", expect=2)  # missing --policy

    def test_statistical_error_is_1(self, tmp_path):
        const = tmp_path / "const.csv"
        const.write_text("3.0\n3.0\n3.0\n")
        out = run_cli("ci-mean", "--data", str(const), "--seed", "1", expect=1)
        assert "error" in out.stderr

    def test_missing_file_is_1(self):
        run_cli("ci-mean", "--data", "/nonexistent.csv", expect=1)

    def test_loglog_domain_error_is_1(self):
        run_cli("sizing", "--n", "2", "--policy", "loglog", expect=1)

    def test_bad_env_seed_is_usage_error(self, sample_csv):
        env = {**os.environ, "RANDPIVOT_SEED": "abc", "COLUMNS": "80"}
        cmd = [sys.executable, "-m", "randpivot.cli", "ci-mean", "--data",
               str(sample_csv), "--no-timestamp"]
        out = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert out.returncode == 2, out.stdout
        assert out.stdout == "" and "Traceback" not in out.stderr
        assert "RANDPIVOT_SEED" in out.stderr and "'abc'" in out.stderr
        # the variable is read only when --seed is absent
        out = subprocess.run(cmd + ["--seed", "7"], capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["seed"] == 7

    @pytest.mark.parametrize("command", [
        ["ci-mean", "--data", "SAMPLE"],
        ["ci-bigdata", "--data", "SAMPLE"],
        ["coverage", "--dist", "normal:0,1", "--n", "5", "--reps", "10"],
        ["kdist", "--dist", "normal:0,1", "--n", "5", "--reps", "10"],
        ["sizing", "--n", "100", "--policy", "loglog"],
    ], ids=["ci-mean", "ci-bigdata", "coverage", "kdist", "sizing"])
    def test_negative_seed_is_usage_error(self, sample_csv, command, capsys, monkeypatch):
        # one message naming the option or the variable, whichever command
        # and library path the seed would have taken
        argv = [str(sample_csv) if a == "SAMPLE" else a for a in command] + ["--no-timestamp"]
        for seed, env, where, value in [
                (["--seed", "-1"], "0", "argument --seed", -1),
                (["--seed=-7"], "0", "argument --seed", -7),
                ([], "-3", "environment variable RANDPIVOT_SEED", -3)]:
            monkeypatch.setenv("RANDPIVOT_SEED", env)
            with pytest.raises(SystemExit) as exit_:
                main(argv + seed)
            assert exit_.value.code == 2
            out, err = capsys.readouterr()
            assert out == "" and err.endswith(
                f"error: {where}: must be a non-negative integer, got {value}\n"), err

    def test_band_malformed_is_2_out_of_range_is_1(self):
        base = ("proportion", "--dist", "normal:0,1", "--n", "5", "--outer", "2",
                "--inner", "3", "--no-timestamp", "--band")
        for band in ("0.9", "0.9,0.95,0.99", "a,b"):
            assert "--band" in run_cli(*base, band, expect=2).stderr
        for band in ("0.96,0.94", "5,9"):
            out = run_cli(*base, band, expect=1)
            assert out.stdout == "" and "band" in out.stderr


    def test_bigdata_edf_without_x_is_2(self, tmp_path):
        data = tmp_path / "d.rpv"
        data.write_bytes(b"")  # never opened: the usage check comes first
        out = run_cli("ci-bigdata", "--data", str(data), "--stat", "edf",
                      "--no-timestamp", expect=2)
        assert out.stdout == "" and "--x is required for --stat edf" in out.stderr

    def test_bound_without_variance_input_is_2(self):
        base = ("bound", "--n", "100", "--m", "100", "--delta", "0.5", "--eps", "0.1",
                "--eps1", "0.01", "--eps2", "0.05", "--rho3", "2", "--no-timestamp")
        for extra in ((), ("--sigma2", "1"), ("--mu4", "3")):
            out = run_cli(*base, *extra, expect=2)
            assert out.stdout == "" and "--p-s2" in out.stderr
        # both fallback inputs pass the usage check; this bound's hypothesis fails
        assert "delta" in run_cli(*base, "--sigma2", "1", "--mu4", "3", expect=1).stderr

    @pytest.mark.parametrize("column", ["-1", "-3"])
    def test_negative_column_is_2(self, tmp_path, sample_csv, column):
        out = tmp_path / "d.rpv"
        for argv in (("ingest", "--csv", str(sample_csv), "--out", str(out)),
                     ("ci-mean", "--data", str(sample_csv)),
                     ("ci-edf", "--data", str(sample_csv), "--x", "2")):
            res = run_cli(*argv, "--column", column, "--no-timestamp", expect=2)
            assert res.stdout == "" and "--column" in res.stderr and "0-based" in res.stderr
        assert not out.exists()

    def test_missing_column_is_1_with_its_own_message(self, tmp_path):
        data = tmp_path / "named.csv"
        data.write_text("a,b\n1,2\n3,4\n")
        out = run_cli("ci-mean", "--data", str(data), "--column", "c", "--no-timestamp",
                      expect=1)
        assert out.stdout == ""
        assert out.stderr == "randpivot: error: row 0: no column named 'c'\n"

    def test_field_past_csv_limit_is_1(self, tmp_path):
        # csv.field_size_limit() is 131,072 characters by default
        data = tmp_path / "wide.csv"
        data.write_text("1.5\n" + "7" * 200_000 + "\n2.5\n")
        out = tmp_path / "d.rpv"
        out.write_bytes(b"an existing dataset")
        for argv in (("ingest", "--csv", str(data), "--out", str(out)),
                     ("ci-mean", "--data", str(data))):
            res = run_cli(*argv, "--no-timestamp", expect=1)
            assert res.stdout == ""
            assert res.stderr.startswith("randpivot: error: field larger than field limit")
            assert res.stderr.count("\n") == 1
        assert out.read_bytes() == b"an existing dataset"
        assert sorted(os.listdir(tmp_path)) == ["d.rpv", "wide.csv"]

    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_delimiter_must_be_one_character(self, tmp_path, sample_csv, delimiter):
        out = tmp_path / "d.rpv"
        res = run_cli("ingest", "--csv", str(sample_csv), "--out", str(out),
                      "--delimiter", delimiter, "--no-timestamp", expect=2)
        assert res.stdout == "" and "--delimiter" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("coverage", "--n", "0", "--reps", "10"),
        ("kdist", "--n", "-3", "--reps", "10"),
        ("kdist", "--n", "1", "--reps", "10"),
        ("proportion", "--n", "1", "--outer", "2", "--inner", "3"),
    ])
    def test_study_needs_two_observations(self, argv):
        res = run_cli(*argv, "--dist", "normal:0,1", "--no-timestamp", expect=1)
        assert res.stdout == ""
        assert res.stderr == f"randpivot: error: need at least 2 observations, got n={argv[2]}\n"

    @pytest.mark.parametrize("m", ["equal-n", "10"])
    @pytest.mark.parametrize("argv", [
        ("coverage", "--reps", "10"),
        ("kdist", "--reps", "10"),
        ("proportion", "--outer", "2", "--inner", "3"),
    ])
    def test_n_checked_before_m_is_sized(self, argv, m):
        # a sizing policy (here a fixed m) must not report n < 2 its own way
        res = run_cli(*argv, "--n", "1", "--m", m, "--dist", "normal:0,1", "--no-timestamp",
                      expect=1)
        assert res.stdout == ""
        assert res.stderr == "randpivot: error: need at least 2 observations, got n=1\n"

    @pytest.mark.parametrize("argv,message", [
        (("kdist", "--dist", "normal:0,1", "--n", "2", "--pivot", "g2", "--reps", "20000"),
         "g2 scale is zero for every draw at n=2, m=2"),
        (("coverage", "--dist", "normal:0,1", "--n", "2", "--m", "2", "--pivot", "t2",
          "--reps", "2000"), "t2 scale is zero for every draw at n=2, m=2"),
        (("proportion", "--dist", "binomial:5,0", "--n", "10", "--outer", "20"),
         "binomial(5,0) is constant: every sample's scale is zero"),
        (("coverage", "--dist", "binomial:5,1", "--n", "10", "--reps", "2000"),
         "binomial(5,1) is constant: every sample's scale is zero"),
        (("coverage", "--dist", "normal:nan,1", "--n", "20", "--reps", "2000"),
         "bad parameters (nan, 1.0) for family normal"),
        (("kdist", "--dist", "normal:inf,1", "--n", "20", "--reps", "2000"),
         "bad parameters (inf, 1.0) for family normal"),
    ])
    def test_unusable_study_is_1_before_any_draw(self, argv, message):
        res = run_cli(*argv, "--no-timestamp", expect=1)
        assert res.stdout == ""
        assert res.stderr == f"randpivot: error: {message}\n"

    @pytest.mark.parametrize("m", ["equal-n", "10"])
    @pytest.mark.parametrize("command", [("ci-mean",), ("ci-edf", "--x", "1")])
    def test_one_value_sample_needs_two_observations(self, tmp_path, command, m):
        # the same message whichever way --m sizes the weights
        data = tmp_path / "one.csv"
        data.write_text("3.5\n")
        res = run_cli(*command, "--data", str(data), "--m", m, "--no-timestamp", expect=1)
        assert res.stdout == ""
        assert res.stderr == "randpivot: error: need at least 2 observations, got n=1\n"

    @pytest.mark.parametrize("extra", [("--eps", "nan", "--p-s2", "0.01"),
                                       ("--rho3", "inf", "--p-s2", "0.01"),
                                       ("--c-be", "inf", "--p-s2", "0.01"),
                                       ("--sigma2", "nan", "--mu4", "nan")])
    def test_bound_non_finite_input_is_1(self, extra):
        res = run_cli("bound", "--n", "100", "--m", "100", "--delta", "0.5", "--eps", "0.1",
                      "--eps1", "0.01", "--eps2", "0.05", "--rho3", "2", *extra,
                      "--no-timestamp", expect=1)
        assert res.stdout == ""
        assert res.stderr.startswith("randpivot: error: ") and res.stderr.count("\n") == 1
        assert "finite" in res.stderr

    def test_bound_negative_sigma2_is_1(self):
        res = run_cli("bound", "--n", "100", "--m", "100", "--delta", "0.5", "--eps", "0.1",
                      "--eps1", "0.5", "--eps2", "0.05", "--rho3", "2", "--sigma2", "-1",
                      "--mu4", "3", "--no-timestamp", expect=1)
        assert res.stdout == ""
        assert res.stderr == "randpivot: error: sigma2=-1.0 is negative\n"

    def test_study_integer_m_is_taken_as_given(self):
        # an integer --m is not clamped to [2, n^2 - 1] as a sizing policy is
        argv = ("coverage", "--dist", "normal:0,1", "--n", "20", "--m", "1", "--reps", "200",
                "--seed", "5", "--no-timestamp")
        payload = json.loads(run_cli(*argv, "--pivot", "t1").stdout)
        want = coverage_study(parse_dist("normal:0,1"), 20, 1, PivotKind.T1, 200, 0.05, seed=5)
        assert payload == json.loads(json.dumps(want.to_dict()))
        assert payload["m"] == 1
        res = run_cli(*argv, "--pivot", "t2", expect=1)
        assert res.stdout == ""
        assert res.stderr == "randpivot: error: t2 scale is zero for every draw at n=20, m=1\n"
        res = run_cli(*argv[:5], "--m", "0", *argv[7:], expect=1)
        assert res.stderr == "randpivot: error: m must be at least 1, got 0\n"

    @pytest.mark.parametrize("command", [
        ("coverage", "--reps", "10"), ("kdist", "--reps", "10"),
        ("proportion", "--outer", "2", "--inner", "5")])
    def test_study_m_above_n_squared_minus_1_is_1(self, command, capsys):
        # refused before any draw: one row of m indices would need 745 GiB
        argv = [*command, "--dist", "normal:0,1", "--n", "5", "--pivot", "g2", "--m"]
        assert main([*argv, "100000000000", "--no-timestamp"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("randpivot: error: m must be at most n^2 - 1 = 24 at n=5, "
                           "got 100000000000\n")
        assert main([*argv, "24", "--no-timestamp"]) == 0
        assert json.loads(capsys.readouterr().out)["m"] == 24

    @pytest.mark.parametrize("command", [("ci-mean", "--variant", "g1"), ("ci-edf", "--x", "2")])
    def test_sample_integer_m_follows_the_study_rule(self, tmp_path, command, capsys):
        # an integer --m is taken as given, never clamped, and refused below
        # 1 or above n^2 - 1 with the studies' messages
        data = tmp_path / "five.csv"
        data.write_text("1.2\n3.4\n2.2\n5.0\n0.7\n")
        argv = [*command, "--data", str(data), "--seed", "1", "--no-timestamp", "--m"]
        for m, message in (("30", "m must be at most n^2 - 1 = 24 at n=5, got 30"),
                           ("0", "m must be at least 1, got 0")):
            assert main([*argv, m]) == 1
            assert capsys.readouterr() == ("", f"randpivot: error: {message}\n")
        assert main([*argv, "24"]) == 0
        assert json.loads(capsys.readouterr().out)["meta_m"] == 24
        if command[0] == "ci-mean":
            assert main([*argv, "1"]) == 0
            assert json.loads(capsys.readouterr().out)["meta_m"] == 1
        else:  # one draw leaves the EDF pivot no spread; m = 2 has some here
            assert main([*argv, "2"]) == 0
            assert json.loads(capsys.readouterr().out)["meta_m"] == 2
            assert main([*argv, "1"]) == 1
            assert capsys.readouterr().err == ("randpivot: error: hathat1 scale is zero "
                                               "at x=2.0\n")

    @pytest.mark.parametrize("command", [("ci-edf",), ("ci-bigdata", "--stat", "edf")])
    def test_nan_x_is_1(self, tmp_path, sample_csv, command):
        data = sample_csv
        if command[0] == "ci-bigdata":
            data = tmp_path / "d.rpv"
            write_dataset([0.1 * i for i in range(200)], data)
        res = run_cli(*command, "--data", str(data), "--x", "nan", "--no-timestamp", expect=1)
        assert res.stdout == ""
        assert res.stderr == "randpivot: error: x must not be NaN, got nan\n"

    def test_bigdata_non_finite_dkw_eps_is_1(self, tmp_path):
        data = tmp_path / "d.rpv"
        write_dataset([0.1 * i for i in range(200)], data)
        res = run_cli("ci-bigdata", "--data", str(data), "--stat", "edf", "--x", "3",
                      "--dkw-eps", "nan", "--no-timestamp", expect=1)
        assert res.stdout == ""
        assert res.stderr == "randpivot: error: eps must be positive and finite\n"

    @pytest.mark.parametrize("argv", [
        ("coverage", "--n", "100000000000", "--reps", "2"),
        ("coverage", "--n", "100000000000", "--reps", "2", "--threads", "2"),
        ("kdist", "--n", "100000000000", "--reps", "2"),
        ("proportion", "--n", "100000000000", "--outer", "2", "--inner", "2"),
        ("proportion", "--n", "20", "--outer", "2", "--inner", "100000000000",
         "--threads", "2")])
    def test_impossible_study_size_is_1(self, argv):
        # one block of n (or inner) values cannot be allocated, in-process or
        # in a worker; an address-space limit keeps the try off the machine
        script = ("import resource, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.RLIM_INFINITY))\n"
                  "from randpivot.cli import main\n"
                  "sys.exit(main(sys.argv[1:]))\n")
        out = subprocess.run([sys.executable, "-c", script, *argv, "--dist", "normal:0,1",
                              "--no-timestamp"], capture_output=True, text=True)
        assert out.returncode == 1, out.stderr
        assert out.stdout == ""
        assert out.stderr.startswith("randpivot: error: ") and out.stderr.count("\n") == 1
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_must_be_positive(self, threads):
        out = run_cli("coverage", "--dist", "normal:0,1", "--n", "5", "--reps", "10",
                      "--threads", threads, "--no-timestamp", expect=2)
        assert out.stdout == "" and "--threads" in out.stderr


class TestDeterminism:
    def test_same_seed_same_bytes(self, sample_csv):
        args = ("ci-mean", "--data", str(sample_csv), "--seed", "11", "--no-timestamp")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_threads_do_not_change_output(self):
        # large enough that --threads 3 runs the study in worker processes
        assert 8000 * (15 + mc._STREAM_ELEMENTS) > mc._POOL_ELEMENTS
        base = ("coverage", "--dist", "exponential:1", "--n", "15", "--pivot", "g1",
                "--reps", "8000", "--seed", "5", "--no-timestamp")
        one = run_cli(*base, "--threads", "1").stdout
        three = run_cli(*base, "--threads", "3").stdout
        assert one == three

    def test_env_seed_fallback(self, sample_csv):
        env = {**os.environ, "RANDPIVOT_SEED": "7", "COLUMNS": "80"}
        out_env = subprocess.run(
            [sys.executable, "-m", "randpivot.cli", "ci-mean", "--data",
             str(sample_csv), "--no-timestamp"],
            capture_output=True, text=True, env=env)
        out_flag = run_cli("ci-mean", "--data", str(sample_csv), "--seed", "7",
                           "--no-timestamp")
        assert out_env.stdout == out_flag.stdout

    def test_timestamp_present_unless_suppressed(self, sample_csv):
        with_ts = run_cli("ci-mean", "--data", str(sample_csv), "--seed", "1")
        without = run_cli("ci-mean", "--data", str(sample_csv), "--seed", "1",
                          "--no-timestamp")
        assert "timestamp" in json.loads(with_ts.stdout)
        assert "timestamp" not in json.loads(without.stdout)


class TestGoldenHelp:
    def test_help_matches_golden(self):
        chunks = []
        cmds = [[], ["ingest"], ["ci-mean"], ["ci-edf"], ["ci-bigdata"],
                ["coverage"], ["proportion"], ["kdist"], ["bound"], ["rate"],
                ["sizing"]]
        for cmd in cmds:
            out = run_cli(*cmd, "--help")
            header = "$ randpivot " + (" ".join(cmd) + " " if cmd else "") + "--help"
            chunks.append(header + "\n" + out.stdout)
        assert "\n".join(chunks) == GOLDEN.read_text()

    def test_optional_value_flags_document_defaults(self):
        # the golden text is the single source of truth for flag defaults;
        # collapse the help's line wrapping before searching
        text = " ".join(GOLDEN.read_text().split())
        for needle in ("(default: equal-n)", "(default: 0.05)", "(default: json)",
                       "(default: 1)", "(default: g1)", "(default: two)",
                       "(default: upper)", "(default: 1000)", "(default: 500)",
                       "(default: 0.94,0.96)", "(default: normal)",
                       "(default: power-delta:0.25)", "(default: 0.56)",
                       "(default: env RANDPIVOT_SEED or 0)"):
            assert needle in text, needle


# One command line per row, run in both formats with --no-timestamp.  {dir}
# is the directory holding the inputs _golden_inputs writes; the ingest rows
# come first, since the ci-bigdata rows read the dataset they write.
GOLDEN_GRID = [
    "ingest --csv {dir}/big.csv --out {dir}/big.rpv",
    "ingest --csv {dir}/semi.csv --column b --delimiter ; --out {dir}/semi.rpv",
    "ci-mean --data {dir}/sample.csv --seed 7",
    "ci-mean --data {dir}/sample.csv --variant g2 --m 15 --sided upper --alpha 0.1 --seed 3",
    "ci-mean --data {dir}/sample.csv --m power-delta:0.25 --sided lower --seed 4",
    "ci-mean --data {dir}/named.csv --column 1 --header --seed 5",
    "ci-edf --data {dir}/sample.csv --x 2.5 --seed 7",
    "ci-edf --data {dir}/sample.csv --x 2.5 --target df --seed 8",
    "ci-edf --data {dir}/sample.csv --x 2.5 --target df --m loglog --sided upper --seed 9",
    "ci-edf --data {dir}/sample.csv --x 0.6 --seed 2",
    "ci-edf --data {dir}/named.csv --column b --x 2.5 --seed 10",
    "ci-bigdata --data {dir}/big.rpv --seed 7",
    "ci-bigdata --data {dir}/big.rpv --policy loglog --sided upper --seed 8",
    "ci-bigdata --data {dir}/big.rpv --stat edf --x 3.0 --dkw-eps 0.02 --seed 9",
    "ci-bigdata --data {dir}/big.rpv --stat edf --x 3.0 --policy fixed:300 --seed 10",
    "coverage --dist normal:0,1 --n 20 --reps 200 --seed 1",
    "coverage --dist exponential:1 --n 15 --pivot t2 --m loglog --sided two"
    " --classical-cutoff student-t --alpha 0.1 --reps 200 --threads 2 --seed 2",
    "coverage --dist poisson:1 --n 5 --pivot g2 --reps 200 --threads 2 --seed 3",
    "proportion --dist normal:0,1 --n 10 --outer 10 --inner 40 --seed 4",
    "proportion --dist lognormal:0,1 --n 10 --pivot t1 --band 0.9,0.99 --sided lower"
    " --classical-cutoff student-t --outer 10 --inner 40 --threads 2 --seed 5",
    "kdist --dist normal:0,1 --n 20 --reps 1000 --seed 6",
    "kdist --dist beta:2,3 --n 20 --pivot g2 --m 30 --reps 1000 --threads 2 --seed 7",
    "bound --n 100 --m 100 --delta 0.5 --eps 0.1 --eps1 0.01 --eps2 0.05 --rho3 2 --p-s2 0.01",
    "bound --n 10000 --m 10000 --delta 0.5 --eps 0.9 --eps1 0.3 --eps2 0.05 --rho3 2"
    " --sigma2 1 --mu4 3 --plus-eps2 --c-be 0.5",
    "rate --n 1000000 --m 31623 --kind d",
    "rate --n 1000 --m 100 --kind a",
    "sizing --n 1000000 --policy power-delta:0.25",
    "sizing --n 1000000 --policy loglog",
]


def _golden_inputs(d: Path) -> None:
    """The grid's input files; their values come from formulas, not from a stream."""
    d.mkdir(parents=True, exist_ok=True)
    sample = [0.5 + (i * 37 % 29) * 0.173 for i in range(30)]
    (d / "sample.csv").write_text("".join(f"{v!r}\n" for v in sample))
    (d / "named.csv").write_text("a,b\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(sample)))
    (d / "semi.csv").write_text("a;b\n" + "".join(f"{i}; {v!r}\n" for i, v in enumerate(sample)))
    (d / "big.csv").write_text("".join(f"{(i * 7919 % 10007) / 1000.0!r}\n"
                                       for i in range(5000)))


def _golden_outputs(d: Path) -> dict[str, dict]:
    """Exit code and stdout of every grid row in both formats, run in-process
    through main, with d written as {dir}; an ingest row also records the
    SHA-256 of the dataset it wrote."""
    _golden_inputs(d)
    out = {}
    for row in GOLDEN_GRID:
        argv = row.format(dir=d).split()
        for fmt in ("json", "csv"):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main([*argv, "--format", fmt, "--no-timestamp"])
            record = {"exit": code, "stdout": stdout.getvalue().replace(str(d), "{dir}")}
            if argv[0] == "ingest":
                dataset = Path(argv[argv.index("--out") + 1])
                record["dataset_sha256"] = hashlib.sha256(dataset.read_bytes()).hexdigest()
            out[f"{row} --format {fmt}"] = record
    return out


class TestGoldenOutputs:
    """Every command's report equals the one recorded in cli_outputs.json.

    The record is json.dumps(_golden_outputs(d), indent=1), written at
    SCHEMA_VERSION 1.  A change to any report field, value or format shows
    here; the record changes with SCHEMA_VERSION, or where a format was
    malformed (the CSV rows whose dist label holds commas are now quoted).
    """

    def test_outputs_match_record(self, tmp_path, monkeypatch):
        monkeypatch.delenv("RANDPIVOT_SEED", raising=False)
        recorded = json.loads(GOLDEN_OUTPUTS.read_text())
        got = _golden_outputs(tmp_path / "inputs")
        assert list(got) == list(recorded)
        for key, record in recorded.items():
            assert got[key] == record, f"{key}: {NUMPY_NOTE}"

    def test_csv_records_are_valid_csv(self):
        # each CSV report is the sorted keys of its JSON twin and one row of
        # their values, a dist label such as normal(0,1) quoted
        recorded = json.loads(GOLDEN_OUTPUTS.read_text())
        checked = 0
        for key, record in recorded.items():
            if not key.endswith("--format csv") or record["exit"] != 0:
                continue
            twin = json.loads(recorded[key.removesuffix("csv") + "json"]["stdout"])
            header, *rows = csv.reader(io.StringIO(record["stdout"]))
            assert header == sorted(twin), key
            assert rows == [[str(twin[k]) for k in header]], key
            checked += 1
        assert checked == len(GOLDEN_GRID)


# The property test's grammar.  Numeric options draw the edges of float64
# and int64 and the non-finite values, beside ordinary values that let a
# command succeed; integer options draw 1e300 and 2^63 too.  Replication
# counts stay at most 30: 2^63 replications would be a study of years, not
# an input to refuse.
_EDGES = ("0", "1", "-1", "1e300", "-1e300", "1e-300", "-1e-300", "nan", "inf", "-inf",
          str(2 ** 63))
_INTS = ("-1", "0", "1", "2", "5", "20", str(2 ** 63), "1e300", "x")
_COUNTS = ("-1", "0", "1", "2", "30")
_M = ("equal-n", "0", "1", "2", "5", "24", "-1", str(2 ** 63), "power-delta:0.25",
      "power-delta:0", "power-delta:nan", "loglog", "fixed:3", "fixed:0", "fixed:1e300", "x")
_POLICIES = ("power-delta:0.25", "power-delta:0.49", "power-delta:1", "loglog", "fixed:2",
             "fixed:700", "fixed:0", "7", "x")
_FAMILIES = ("normal", "uniform", "exponential", "poisson", "binomial", "beta", "lognormal",
             "lognormal_std", "x")
_CSVS = ("sample", "huge1", "huge2", "huge3", "empty", "blank", "one", "quoted", "header",
         "latin1", "missing")
_DATASETS = ("normal", "huge", "tiny", "garbage", "missing")


def _cli_inputs(d: Path) -> None:
    """The CSVs and datasets the drawn commands read: ordinary ones, ones
    mixing values near +-1e200 and +-1e300 with small ones, and malformed ones."""
    sample = [0.5 + (i * 37 % 29) * 0.173 for i in range(12)]
    (d / "sample.csv").write_text("".join(f"{v!r}\n" for v in sample))
    (d / "huge1.csv").write_text("1e200\n1\n2\n3\n4\n")
    (d / "huge2.csv").write_text("-1e300\n0.5\n1e300\n2\n-3\n1e200\n7\n-2e200\n1\n")
    (d / "huge3.csv").write_text("".join(f"{v!r}\n" for v in sample) + "9e299\n-9e299\n")
    (d / "empty.csv").write_text("")
    (d / "blank.csv").write_text("\n \n\n")
    (d / "one.csv").write_text("3.5\n")
    (d / "quoted.csv").write_text('"1.5",a\n"2,5",b\n3,"c"\n"4"\n')
    (d / "header.csv").write_text("a,b\n1,2\n3,4\n5,6\n8,1\n")
    (d / "latin1.csv").write_bytes(b"1\n\xff\xfe2\n3\n")
    values = np.array([(i * 7919 % 1009) / 100.0 for i in range(1000)])
    write_dataset(values, d / "normal.rpv")
    huge = values.copy()
    huge[::97] = [1e300, -1e300, 1e200, -1e200, 9e299, -9e299, 1e300, 2e200, -1e300, 3e299,
                  1e300]
    write_dataset(huge, d / "huge.rpv")
    write_dataset(values[:5], d / "tiny.rpv")
    (d / "garbage.rpv").write_bytes(b"not a dataset at all")


@st.composite
def _argv(draw, command: str, d: Path) -> list[str]:
    """One argv for command, every option drawn from the grammar above."""
    def pick(*values):
        return draw(st.sampled_from(values))

    def csv_file():
        return str(d / f"{pick(*_CSVS)}.csv")

    def maybe(flag, *values):
        return [flag, pick(*values)] if draw(st.booleans()) else []

    def real(*usual):
        return pick(*usual, *_EDGES)

    sample = ["--data", csv_file(), *maybe("--column", "0", "1", "-1", "b", "x"),
              *(["--header"] if draw(st.booleans()) else [])]
    seed = ["--seed", pick("0", "1", "2", "3", "7", "-1")]
    sided = maybe("--sided", "two", "upper", "lower", "x")
    if command == "ingest":
        argv = ["--csv", csv_file(), "--out", str(d / pick("out.rpv", "no/out.rpv")),
                *maybe("--column", "0", "1", "b"), *maybe("--delimiter", ",", ";", ";;", "")]
    elif command == "ci-mean":
        argv = [*sample, "--alpha", real("0.05", "0.5"), *maybe("--variant", "g1", "g2"),
                "--m", pick(*_M), *sided]
    elif command == "ci-edf":
        argv = [*sample, "--x", real("2", "3.5", "1e200"), *maybe("--target", "edf", "df"),
                "--alpha", real("0.05", "0.5"), "--m", pick(*_M), *sided]
    elif command == "ci-bigdata":
        stat = pick("mean", "edf")
        argv = ["--data", str(d / f"{pick(*_DATASETS)}.rpv"), "--stat", stat,
                *(["--x", real("3", "5.5")] if stat == "edf" or draw(st.booleans()) else []),
                "--alpha", real("0.05", "0.5"), "--policy", pick(*_POLICIES), *sided,
                *maybe("--dkw-eps", "0.02", *_EDGES)]
    elif command in ("coverage", "proportion", "kdist"):
        params = draw(st.lists(st.sampled_from(("0", "1", "2", "0.5", *_EDGES)), max_size=3))
        argv = ["--dist", f"{pick(*_FAMILIES)}:{','.join(params)}", "--n", pick(*_INTS),
                "--m", pick(*_M), *maybe("--pivot", "t1", "t2", "g1", "g2")]
        if command == "kdist":
            argv += ["--reps", pick(*_COUNTS)]
        else:
            argv += ["--alpha", real("0.05", "0.5"), *sided,
                     *maybe("--classical-cutoff", "normal", "student-t")]
            argv += (["--reps", pick(*_COUNTS)] if command == "coverage" else
                     ["--outer", pick(*_COUNTS), "--inner", pick(*_COUNTS),
                      *maybe("--band", "0.9,1", "0.94,0.96", "0.96,0.94", "nan,1", "x")])
        argv += maybe("--threads", "1", "2", "0")
    elif command == "bound":
        argv = ["--n", pick(*_INTS), "--m", pick(*_INTS), "--delta", real("0.5", "0.9"),
                "--eps", real("0.5", "0.1"), "--eps1", real("0.1", "0.01"),
                "--eps2", real("0.1", "0.05"), "--rho3", real("2", "1.6"),
                *(["--p-s2", real("0.01", "0.5")] if draw(st.booleans()) else
                  ["--sigma2", real("1", "2"), "--mu4", real("3", "10")]),
                *maybe("--c-be", "0.56", *_EDGES),
                *(["--plus-eps2"] if draw(st.booleans()) else [])]
    elif command == "rate":
        argv = ["--n", pick(*_INTS), "--m", pick(*_INTS), "--kind", pick("a", "b", "c", "d", "x")]
    else:
        argv = ["--n", pick(*_INTS), "--policy", pick(*_POLICIES)]
    return [command, *argv, *seed, "--no-timestamp"]


def _check_report(payload: dict, argv: list[str]) -> None:
    """What every exit-0 report keeps: no NaN, ordered endpoints, EDF
    endpoints in [0, 1], the m asked for, and infinities only at a one-sided
    interval's open end or in an interval whose scale overflows float64."""
    floats = {k: v for k, v in payload.items() if isinstance(v, float)}
    assert not any(map(math.isnan, floats.values())), payload
    infinite = {k for k, v in floats.items() if math.isinf(v)}
    if "lower" in payload:
        assert payload["lower"] <= payload["upper"], payload
        if payload["target"] in ("edf_value", "df_value"):
            assert 0.0 <= payload["lower"] <= payload["upper"] <= 1.0, payload
        side = payload["sided"]  # the open end, and its raw value if an EDF interval is clamped
        open_end = {side, f"meta_raw_{side}"} if side != "two" else set()
        if math.isinf(payload["half_width"]):
            open_end = {"lower", "upper", "half_width"}
        assert infinite <= open_end, payload
    else:
        assert not infinite, payload
    if "--m" in argv and argv[0] in ("ci-mean", "ci-edf", "coverage", "proportion", "kdist"):
        m, n = ((payload["meta_m"], payload["meta_n"]) if argv[0].startswith("ci")
                else (payload["m"], payload["n"]))
        asked = argv[argv.index("--m") + 1]
        if asked == "equal-n":
            assert m == n, payload
        elif asked.lstrip("-").isdigit():
            assert m == int(asked), payload


def _run_and_check(argv: list[str]) -> None:
    """Run argv in-process through main: exit 0, 1 or 2, never a traceback.
    On exit 0 the JSON report keeps _check_report's rules; otherwise stdout
    is empty and stderr is one error line (after argparse's usage on exit 2)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    stderr = err.getvalue()
    assert code in (0, 1, 2), (argv, code, stderr)
    if code == 0:
        _check_report(json.loads(out.getvalue()), argv)
        return
    assert out.getvalue() == "", argv
    if code == 1:
        assert stderr.startswith("randpivot: error: ") and stderr.count("\n") == 1, (argv, stderr)
    else:
        errors = [line for line in stderr.splitlines() if ": error: " in line]
        assert len(errors) == 1 and stderr.endswith(errors[0] + "\n"), (argv, stderr)
        assert errors[0].startswith("randpivot"), (argv, stderr)


_COMMANDS = ("ingest", "ci-mean", "ci-edf", "ci-bigdata", "coverage", "proportion", "kdist",
             "bound", "rate", "sizing")
_BOUND = "bound --n 30 --m 30 --delta 0.5 --eps2 0.1"


class TestCliProperties:
    """Every command, on argv drawn from edge values, exits 0, 1 or 2.

    The draw is derandomized: every run tries the same argv, so a defect
    they reach fails every run, not one run in several.

    Run in-process through main under the suite's error::RuntimeWarning, so
    a numpy warning fails as a traceback would (_run_and_check).
    """

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("cli_inputs")
        _cli_inputs(d)
        return d

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_drawn_argv(self, inputs, command):
        @settings(max_examples=60, deadline=None, database=None, derandomize=True)
        @given(argv=_argv(command, inputs))
        def check(argv):
            _run_and_check(argv)

        check()

    @pytest.mark.parametrize("row", [
        # a scale whose squares overflow float64: an infinite interval, never a
        # NaN or a warning, and S_mn^2 from the nonzero counts alone
        "ci-mean --data {dir}/huge1.csv --variant g1 --seed 1",
        *(f"ci-mean --data {{dir}}/huge1.csv --variant g2 --seed {seed}" for seed in range(1, 7)),
        "ci-mean --data {dir}/huge2.csv --variant g2 --m 30 --sided lower --seed 3",
        # z = 0 (one-sided alpha 0.5) times that scale: infinite, not 0 * inf = NaN
        "ci-mean --data {dir}/huge1.csv --alpha 0.5 --sided upper --seed 0",
        "ci-bigdata --data {dir}/huge.rpv --policy fixed:700 --seed 1",
        # a study row whose scale overflows is redrawn, never counted as covered
        "coverage --dist normal:0,1e300 --n 5 --reps 5 --pivot g1",
        "kdist --dist exponential:1e-300 --n 5 --reps 5 --pivot t2",
        "coverage --dist lognormal_std:0,1e-300 --n 5 --reps 5",
        # an alpha whose 1 - alpha/2 rounds to 1.0, refused by name
        "ci-mean --data {dir}/huge1.csv --alpha 1e-300",
        "coverage --dist normal:0,1 --n 5 --reps 5 --alpha 1e-300",
        # bound terms that underflow or overflow float64
        f"{_BOUND} --eps 0.5 --eps1 0.1 --rho3 1e-200 --c-be 1e-200 --p-s2 0.01",
        f"{_BOUND} --eps 1e-200 --eps1 0.1 --rho3 2 --p-s2 0.01",
        f"{_BOUND} --eps 0.5 --eps1 0.1 --rho3 1e150 --c-be 1e150 --p-s2 0.01",
        f"{_BOUND} --eps 0.5 --eps1 1e-100 --rho3 2 --sigma2 1 --mu4 3",
    ])
    def test_edge_argv(self, inputs, row):
        _run_and_check([*row.format(dir=inputs).split(), "--no-timestamp"])

    def test_fsum_overflow_gives_the_infinite_interval(self, tmp_path):
        # fsum's partial sum of the first two squares passes float64 before it
        # meets the infinite third; the exact sum is inf, so [-inf, inf] at exit 0
        src = tmp_path / "wide.csv"
        src.write_text("0.0\n0.0\n2.8442255724327534e154\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["ci-mean", "--data", str(src), "--no-timestamp"]) == 0
        report = json.loads(out.getvalue())
        assert (report["lower"], report["upper"], report["half_width"]) == (
            -math.inf, math.inf, math.inf)
        _check_report(report, ["ci-mean"])
