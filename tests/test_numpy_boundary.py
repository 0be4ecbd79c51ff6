"""Where numpy gets loaded.  cpulse binds numpy lazily, so a design job runs
on math and Python complexes alone.  pytest has imported numpy already, so
each check runs in a fresh interpreter with only src on the path."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cpulse
from cpulse.cli import main

SRC = str(Path(cpulse.__file__).resolve().parents[1])


def fresh(code: str) -> str:
    """stdout of `python -c code` in a new interpreter with src on the path."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("family", [["wm", "--m", "2"], ["wn", "--n", "3"],
                                    ["fivepulse", "--p", "2", "--q", "2", "--r", "2"]])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_design_never_loads_numpy(family, fmt):
    out = fresh(f"""
import contextlib, io, sys
from cpulse.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["design", "--family"] + {family!r}
                + ["--theta", "1.3", "--alpha", "0.4", "--format", {fmt!r}])
print(code, "numpy._core" in sys.modules, type(sys.modules["numpy"]).__name__)
""")
    assert out.split() == ["0", "False", "_LazyModule"]


def test_sweep_through_the_lazy_binding_matches_in_process():
    argv = ["sweep", "--family", "wm", "--m", "1", "--theta", "pi/2", "--eps-count", "50",
            "--format", "json"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    out = fresh(f"""
import sys
from cpulse.cli import main
assert type(sys.modules["numpy"]).__name__ == "_LazyModule"
sys.exit(main({argv!r}))
""")
    assert out == buf.getvalue()
    assert json.loads(out)["rows"][0]["epsilon"] == 0.0


def test_numpy_imports_after_cpulse():
    out = fresh("""
import cpulse
import numpy
import numpy.linalg
print(numpy.linalg.norm(numpy.array([3.0, 4.0])), numpy.__name__)
""")
    assert out.split() == ["5.0", "numpy"]


def test_numpy_imported_first_is_used_as_is():
    out = fresh("""
import numpy
import cpulse._numpy
print(cpulse._numpy.np is numpy)
""")
    assert out.split() == ["True"]
