"""Shared pytest configuration."""
import platform
from importlib.metadata import version

from hypothesis import settings

# Property tests draw their examples from a fixed seed and replay no saved
# failures, so the suite's verdict depends on the tree alone.  Each test's
# own @settings still apply; --hypothesis-profile=default runs randomized
# examples again.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")


def pytest_report_header(config):
    # reports are byte-identical at a fixed numpy version, so every run
    # names the versions it ran under
    return (f"randpivot test environment: python {platform.python_version()}, "
            f"numpy {version('numpy')}, scipy {version('scipy')}")
