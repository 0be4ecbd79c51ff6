"""The console script that `pip install .` puts on PATH: pyproject.toml's
[project.scripts] entry must name a callable of the package."""

import importlib
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11


def test_console_script_resolves_to_cli_main():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    entry = tomllib.loads(pyproject.read_text())["project"]["scripts"]["cpulse"]
    assert entry == "cpulse.cli:main"
    module, _, name = entry.partition(":")
    assert callable(getattr(importlib.import_module(module), name))
