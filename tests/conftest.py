"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import qpl


@pytest.fixture
def qpl_env():
    """Environment for a child `python -m qpl.cli` that imports this checkout's qpl."""
    return dict(os.environ, PYTHONPATH=str(Path(qpl.__file__).resolve().parents[1]))
