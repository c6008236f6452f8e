"""What importing the package and running each command loads.

Each child interpreter starts clean, so sys.modules there shows exactly
what one import or one command pulled in.
"""
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import randpivot
from randpivot.bigdata import write_dataset

SUBMODULES = ("bigdata", "bounds", "edf", "errors", "intervals", "mc", "pivots", "rng",
              "weights")


def loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running code."""
    code += "\nimport json, sys; sys.stderr.write(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    return set(json.loads(out.stderr))


def loaded_by_command(*argv: str) -> set[str]:
    """The modules one CLI command loads, from start-up to its report."""
    return loaded_after("import contextlib, io\nfrom randpivot.cli import main\n"
                        "with contextlib.redirect_stdout(io.StringIO()):\n"
                        f"    assert main({[*argv, '--no-timestamp']!r}) == 0")


class TestPackage:
    def test_import_loads_no_submodule_and_no_numpy(self):
        loaded = loaded_after("import randpivot")
        assert "numpy" not in loaded
        assert {m for m in loaded if m.startswith("randpivot.")} == set()

    def test_unknown_name_is_a_standard_attribute_error_and_loads_nothing(self):
        with pytest.raises(AttributeError, match="^module 'randpivot' has no attribute 'nope'$"):
            randpivot.nope
        with pytest.raises(ImportError, match="cannot import name 'nope' from 'randpivot'"):
            from randpivot import nope  # noqa: F401
        loaded = loaded_after("import randpivot\ntry:\n    randpivot.nope\n"
                              "except AttributeError:\n    pass\nelse:\n    raise SystemExit(1)")
        assert {m for m in loaded if m.startswith("randpivot.")} == set()

    def test_each_export_is_its_defining_modules_own_object(self):
        assert set(SUBMODULES) <= set(randpivot.__all__)
        listed = dir(randpivot)
        for name in randpivot.__all__:
            value = getattr(randpivot, name)
            assert name in listed, name
            module = importlib.import_module(f"randpivot.{randpivot._MODULE_OF[name]}")
            if inspect.ismodule(value):
                assert value is module
                continue
            assert getattr(module, name) is value, name
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, name

    def test_first_access_loads_only_the_defining_module_and_its_imports(self):
        loaded = loaded_after("import randpivot\nrandpivot.rate\nrandpivot.stream")
        assert {"randpivot.bounds", "randpivot.rng"} <= loaded
        assert not loaded & {"randpivot.mc", "randpivot.bigdata", "randpivot.edf"}

    def test_star_import(self):
        namespace = {}
        exec("from randpivot import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == randpivot.__all__
        assert namespace["coverage_study"] is randpivot.mc.coverage_study


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("footprint")
    values = np.linspace(1.0, 9.0, 30).tolist()
    (d / "small.csv").write_text("".join(f"{v!r}\n" for v in values))
    write_dataset(np.linspace(0.0, 2.0, 5000), d / "data.rpv")
    return d


def short_commands(d) -> dict[str, list[str]]:
    small, data = str(d / "small.csv"), str(d / "data.rpv")
    return {
        "ingest, small": ["ingest", "--csv", small, "--out", str(d / "small.rpv")],
        "sizing": ["sizing", "--n", "1000000", "--policy", "loglog"],
        "rate": ["rate", "--n", "1000", "--m", "1000", "--kind", "d"],
        "bound": ["bound", "--n", "30", "--m", "30", "--delta", "0.5", "--eps", "0.5",
                  "--eps1", "0.1", "--eps2", "0.1", "--rho3", "2", "--p-s2", "0.01"],
        "ci-mean": ["ci-mean", "--data", small, "--seed", "3"],
        "ci-edf": ["ci-edf", "--data", small, "--x", "5", "--seed", "3"],
        "ci-bigdata mean": ["ci-bigdata", "--data", data, "--seed", "3"],
        "ci-bigdata edf": ["ci-bigdata", "--data", data, "--stat", "edf", "--x", "1",
                           "--seed", "3"],
        "coverage, small": ["coverage", "--dist", "poisson:1", "--n", "5", "--pivot", "g2",
                            "--reps", "200", "--threads", "2"],
    }


class TestCommandFootprint:
    @pytest.fixture(scope="class")
    def footprints(self, inputs):
        return {name: loaded_by_command(*argv) for name, argv in short_commands(inputs).items()}

    @pytest.mark.parametrize("command", ["sizing", "rate", "bound"])
    def test_arithmetic_commands_load_no_engine(self, footprints, command):
        assert not footprints[command] & {"randpivot.mc", "randpivot.bigdata", "numpy"}

    @pytest.mark.parametrize("command", ["ci-bigdata mean", "ci-bigdata edf"])
    def test_bigdata_query_loads_no_monte_carlo(self, footprints, command):
        assert "randpivot.bigdata" in footprints[command]
        assert "randpivot.mc" not in footprints[command]

    @pytest.mark.parametrize("command, unused", [
        ("ci-mean", {"randpivot.bigdata", "mmap", "randpivot.edf"}),
        ("ci-edf", {"randpivot.bigdata", "mmap"}),
    ])
    def test_sample_commands_load_no_dataset_code(self, footprints, command, unused):
        assert "randpivot._csv" in footprints[command]
        assert not footprints[command] & unused

    def test_no_short_command_loads_a_pool_or_fractions(self, footprints):
        for command, loaded in footprints.items():
            assert not loaded & {"concurrent.futures", "multiprocessing", "fractions"}, command


def test_only_the_pool_module_names_the_executor():
    package = Path(randpivot.__file__).parent
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        names = "concurrent.futures" in text or "ProcessPoolExecutor" in text
        assert names == (path.name == "_pool.py"), path.name


def test_only_the_csv_module_parses_csv():
    # cli's csv.writer writes output; it parses nothing
    package = Path(randpivot.__file__).parent
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        parses = "csv.reader" in text or "loadtxt" in text
        assert parses == (path.name == "_csv.py"), path.name
