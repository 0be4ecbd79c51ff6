"""The CLI golden corpus: tests/cli_golden.json maps each argv to its exit
code and the sha256 of its stdout, stderr and --out bytes, together with the
input files those argvs read.  tests/record_cli_golden.py writes it.

The replay runs every argv in-process through cli.main, in a scratch
directory that holds the corpus files, and names each argv whose bytes
moved.  Every argv runs with numpy blocked (None in sys.modules), so the
replay also proves that no CLI job needs numpy.  pytest has imported numpy
already, so the test replays in a fresh interpreter.

Uses neither numpy nor pytest, so it also runs as a script on any supported
Python, numpy installed or not: PYTHONPATH=src python tests/test_cli_golden.py"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CORPUS = Path(__file__).with_name("cli_golden.json")
# what each argv may write through --out, relative to the scratch directory
OUT = "out.txt"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(argv) -> dict:
    """Exit code and sha256 of stdout, stderr and the --out file (None if
    none was written) of cli.main on argv, in the current directory."""
    from cpulse.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    written = None
    if os.path.exists(OUT):
        written = _sha(Path(OUT).read_bytes())
        os.remove(OUT)
    return {"exit": code, "stdout": _sha(out.getvalue().encode()),
            "stderr": _sha(err.getvalue().encode()), "out": written}


def run_corpus(argvs, files) -> dict:
    """{argv joined by spaces: run_case's entry}, each argv run with numpy
    blocked in a scratch directory that holds the files ({name: text}).
    Must start before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy is imported already, so it cannot be blocked")
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        for name, text in files.items():
            Path(scratch, name).write_text(text)
        os.chdir(scratch)
        sys.modules["numpy"] = None
        try:
            return {" ".join(argv): _guarded(argv) for argv in argvs}
        finally:
            del sys.modules["numpy"]
            os.chdir(home)


def _guarded(argv) -> dict:
    """run_case's entry, or the escaped exception as its exit (a failed
    replay, never a recorded one)."""
    try:
        return run_case(argv)
    except (Exception, SystemExit) as exc:   # a traceback or argparse's exit
        return {"exit": f"{type(exc).__name__}: {exc}"}


def replay() -> list:
    """The argvs whose entry moved, each with its recorded and replayed entry."""
    corpus = json.loads(CORPUS.read_text())
    argvs = [key.split(" ") for key in corpus["cases"]]
    got = run_corpus(argvs, corpus["files"])
    return [(key, want, got[key]) for key, want in corpus["cases"].items() if got[key] != want]


def test_corpus_replays_byte_identical():
    import cpulse
    env = {**os.environ, "PYTHONPATH": str(Path(cpulse.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout == "0 argvs moved\n", proc.stdout


def test_corpus_covers_every_exit_code():
    cases = json.loads(CORPUS.read_text())["cases"]
    assert len(cases) >= 450
    assert {entry["exit"] for entry in cases.values()} == {0, 1, 2, 3}
    assert sum("--scan" in key.split(" ") for key in cases) >= 2
    assert any(entry["out"] is not None for entry in cases.values())


def test_near_family_table_reads_the_corpus():
    # tests/test_cli.py's table runs verify --seq on each near-family file the
    # corpus records, outer_wrap.json's outer phases straddling 0, and expects
    # the exit code recorded for that argv
    from test_cli import NEAR_FAMILY
    corpus = json.loads(CORPUS.read_text())
    near = {name for name in corpus["files"]
            if name.startswith(("w1_off", "w2_off", "outer_", "broken"))}
    assert {name for name, *_ in NEAR_FAMILY} == near
    for name, code, *_ in NEAR_FAMILY:
        assert corpus["cases"][f"verify --seq {name}"]["exit"] == code, name
    wrap = json.loads(corpus["files"]["outer_wrap.json"])["pulses"]
    assert (wrap[0]["phase"], wrap[2]["phase"]) == (1e-13, 2 * math.pi - 1e-13)


if __name__ == "__main__":
    moved = replay()
    for key, want, got in moved:
        print(f"moved: {key}\n  recorded {want}\n  replayed {got}")
    print(f"{len(moved)} argvs moved")
    sys.exit(1 if moved else 0)
