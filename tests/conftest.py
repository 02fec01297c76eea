"""Test-session set-up shared by every test module."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    # pyproject's ``pythonpath`` puts src/ on this process's sys.path; the CLI
    # subprocesses that some tests start need it in their environment too.
    paths = [SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
