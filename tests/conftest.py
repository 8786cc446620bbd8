"""Shared test setup."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import lps


@pytest.fixture(autouse=True, scope="session")
def _children_import_this_lps():
    """Let the interpreters the CLI tests spawn import the same ``lps``.

    ``pythonpath`` in pyproject.toml reaches only this process; without an
    install a ``python -m lps`` child would not find the package.
    """
    root = str(Path(lps.__file__).resolve().parent.parent)
    paths = [root, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(paths))
        yield
