"""Shared pytest configuration."""
import platform
from importlib.metadata import version


def pytest_report_header(config):
    # reports are byte-identical at a fixed numpy version, so every run
    # names the versions it ran under
    return (f"randpivot test environment: python {platform.python_version()}, "
            f"numpy {version('numpy')}, scipy {version('scipy')}")
