"""End-to-end CLI tests via subprocess: outputs, exit codes, determinism."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden" / "cli_help.txt"


def run_cli(*args, expect=0):
    env = {**os.environ, "COLUMNS": "80"}
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
        base = ("coverage", "--dist", "exponential:1", "--n", "15", "--pivot", "g1",
                "--reps", "120", "--seed", "5", "--no-timestamp")
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
