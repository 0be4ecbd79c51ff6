"""Where numpy gets imported.  cpulse imports numpy on the first read of one
of its names, so every CLI command (design, simulate, sweep, coeff, verify
with or without --scan, table1) and the library quick start run on math and
Python complexes alone, with numpy absent too.
The value records need no dataclasses either, so these jobs start without
it and the inspect/ast machinery it pulls in, and json is imported only for
JSON input or output.
pytest has imported numpy already, so each check runs in a fresh
interpreter with only src on the path."""

import contextlib
import io
import json
import math
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


def fresh_main(argv) -> tuple:
    """(exit code, whether numpy got imported, stdout) of cpulse.cli.main on
    argv in a fresh interpreter."""
    out = fresh(f"""
import contextlib, io, json, sys
from cpulse.cli import main
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = main({argv!r})
print(json.dumps([code, "numpy" in sys.modules, buf.getvalue()]))
""")
    return tuple(json.loads(out))


@pytest.fixture(scope="module")
def five_pulse_file(tmp_path_factory):
    """A W121 branch with its target, as a `--seq` JSON file."""
    target = cpulse.TargetRotation(1.9, 0.7)
    seq = cpulse.design_five_pulse(1, 2, 1, target)[0].sequence
    path = tmp_path_factory.mktemp("seq") / "w121.json"
    path.write_text(json.dumps(cpulse.sequence_to_json(seq, target)))
    return str(path)


@pytest.mark.parametrize("window", ["order", "coeff"])
@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("source", ["family", "seq"])
def test_coeff_never_loads_numpy(five_pulse_file, source, window, fmt):
    src = (["--seq", five_pulse_file] if source == "seq"
           else ["--family", "wm", "--m", "2", "--theta", "1.3", "--alpha", "0.4"])
    code, loaded, out = fresh_main(["coeff"] + src + ["--window", window, "--format", fmt])
    assert (code, loaded) == (0, False), out
    assert "coefficient" in out


@pytest.mark.parametrize("source,check", [
    (["--family", "wm", "--m", "1", "--theta", "1.3", "--alpha", "0.4"],
     "PASS analytic_coefficient"),
    (["--family", "wn", "--n", "3", "--theta", "2.0"], "PASS order"),
    (None, "PASS order")], ids=["wm1", "wn3", "seq-w121"])
def test_verify_never_loads_numpy(five_pulse_file, source, check):
    code, loaded, out = fresh_main(["verify"] + (source or ["--seq", five_pulse_file]))
    assert (code, loaded) == (0, False), out
    assert check in out


def test_table1_never_loads_numpy():
    code, loaded, out = fresh_main(["table1"])
    assert (code, loaded) == (0, False), out
    assert len(out.splitlines()) == 7


@pytest.mark.parametrize("argv", [
    ["sweep", "--eps-count", "5"],
    ["sweep", "--family", "fivepulse", "--split", "0.4", "--eps-min", "-0.1",
     "--eps-count", "2000", "--format", "json"],
    ["sweep", "--seq", None, "--eps-count", "7"],
    ["simulate", "--eps", "0.1"],
    ["simulate", "--family", "plain", "--theta", "pi/2", "--eps", "-0.3", "--format", "json"],
    ["simulate", "--seq", None, "--split", "0.2", "--eps", "0.05"]],
    ids=["sweep", "sweep-fivepulse-json", "sweep-seq", "simulate", "simulate-plain-json",
         "simulate-seq"])
def test_sweep_and_simulate_never_load_numpy(five_pulse_file, argv):
    # rows and the compiled matrix come from the scalar kernel on Python floats
    argv = [five_pulse_file if a is None else a for a in argv]
    code, loaded, out = fresh_main(argv)
    assert (code, loaded) == (0, False), out
    assert out.startswith(("epsilon,", "{", "# "))


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
print(code, "numpy" in sys.modules)
""")
    assert out.split() == ["0", "False"]


def test_short_jobs_never_load_dataclasses_or_inspect():
    # what each step leaves in sys.modules; modules only accumulate, so a
    # step that loads one shows up at that step
    out = fresh("""
import contextlib, io, json, sys
import cpulse.cli
cpulse.cli.build_parser()
heavy = ("dataclasses", "inspect", "numpy")
seen = {"parser": [m for m in heavy if m in sys.modules]}
for argv in (["design", "--family", "fivepulse", "--p", "1", "--q", "2", "--r", "1"],
             ["coeff", "--family", "wm", "--m", "1", "--format", "json"],
             ["verify", "--family", "wn", "--n", "2"],
             ["sweep", "--family", "wm", "--m", "2", "--eps-count", "30"],
             ["simulate", "--family", "plain", "--format", "json"],
             ["table1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cpulse.cli.main(argv)
    seen[argv[0]] = [code] + [m for m in heavy if m in sys.modules]
print(json.dumps(seen))
""")
    assert json.loads(out) == {"parser": [], "design": [0], "coeff": [0], "verify": [0],
                               "sweep": [0], "simulate": [0], "table1": [0]}


def test_json_loads_only_for_json_input_or_output():
    # start-up, CSV sweeps and text designs never import json; a JSON sweep
    # does, for its head.  The check prints its findings without json.
    out = fresh("""
import contextlib, io, sys
import cpulse.cli
cpulse.cli.build_parser()
seen = [("parser", "json" in sys.modules)]
for argv in (["sweep", "--family", "wm", "--m", "2", "--eps-count", "30"],
             ["design", "--family", "fivepulse", "--p", "1", "--q", "2", "--r", "1"],
             ["sweep", "--family", "wn", "--n", "2", "--eps-count", "30", "--format", "json"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cpulse.cli.main(argv)
    seen.append((argv[-1], code, "json" in sys.modules))
print(seen)
""")
    assert out.strip() == str([("parser", False), ("30", 0, False), ("1", 0, False),
                               ("json", 0, True)])


@pytest.mark.parametrize("argv", [
    ["design", "--family", "wm", "--format", "json"],
    ["coeff", "--family", "wm", "--format", "json"],
    ["sweep", "--seq", None, "--eps-count", "7"]], ids=["design-json", "coeff-json", "seq-json"])
def test_json_input_or_output_loads_json(five_pulse_file, argv):
    argv = [five_pulse_file if a is None else a for a in argv]
    out = fresh(f"""
import contextlib, io, sys
from cpulse.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
print(code, "json" in sys.modules)
""")
    assert out.split() == ["0", "True"]


QUICK_START = """
import json, math, sys
{block}
import cpulse
target = cpulse.TargetRotation(math.pi, math.pi)
bb1 = cpulse.design_wm(1, target)
w121 = cpulse.design_five_pulse(1, 2, 1, target)
report = cpulse.fit_error_scaling(bb1.sequence, target)
values = [bb1.phases, [b.phases for b in w121], report.order, report.coefficient,
          repr(cpulse.crossover(bb1.sequence, target)),
          repr(cpulse.crossover(w121[0].sequence, target)),
          cpulse.sixth_order_coefficient(cpulse.p_epsilon(bb1.sequence, target)),
          cpulse.analytic_c(math.acos(-7 / 8))]
print(json.dumps([values, sys.modules.get("numpy") is not None]))
"""


def test_library_quick_start_never_loads_numpy():
    # the README's quick start, the benchmark's quick-start job: design,
    # fit, crossover and the BCH coefficient all run on Python floats
    present = json.loads(fresh(QUICK_START.format(block="")))
    blocked = json.loads(fresh(QUICK_START.format(block='sys.modules["numpy"] = None')))
    assert present[1] is False
    assert blocked == present
    assert present[0][-2] == pytest.approx(5 * math.pi ** 6 / 1024, rel=1e-12)


def test_scan_through_the_lazy_binding_matches_in_process():
    argv = ["verify", "--scan"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    out = fresh(f"""
import sys
from cpulse.cli import main
assert "numpy" not in sys.modules
sys.exit(main({argv!r}))
""")
    assert out == buf.getvalue() == "PASS three_pulse_scan: flat residual only at pi multiples\n"


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
import sys
import numpy
import cpulse._numpy
print(cpulse._numpy.ndarray is numpy.ndarray, sys.modules["numpy"] is numpy)
""")
    assert out.split() == ["True", "True"]


def test_runs_with_numpy_blocked(five_pulse_file):
    # None in sys.modules makes `import numpy` raise ModuleNotFoundError, on
    # any numpy version: every job runs without numpy, and the first array
    # call raises
    argvs = [["design", "--family", "fivepulse", "--p", "1", "--q", "2", "--r", "1"],
             ["design", "--family", "wm", "--m", "2", "--format", "json"],
             ["simulate", "--family", "wn", "--n", "2", "--eps", "0.1"],
             ["simulate", "--seq", five_pulse_file, "--format", "json"],
             ["sweep", "--family", "wm", "--m", "1", "--eps-count", "30"],
             ["sweep", "--seq", five_pulse_file, "--eps-count", "9", "--format", "json"],
             ["coeff", "--family", "wm", "--m", "2", "--theta", "1.3", "--alpha", "0.4"],
             ["coeff", "--seq", five_pulse_file, "--window", "coeff", "--format", "json"],
             ["verify", "--family", "wn", "--n", "3", "--theta", "2.0"],
             ["verify", "--seq", five_pulse_file],
             ["verify", "--scan"],
             ["verify", "--scan", "--theta", "0.3", "--alpha", "-pi/2"],
             ["table1"]]
    expected = []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            expected.append([main(argv), buf.getvalue()])
    out = fresh(f"""
import contextlib, io, json, sys
sys.modules["numpy"] = None
import cpulse
from cpulse.cli import main
runs = []
for argv in {argvs!r}:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runs.append([main(argv), buf.getvalue()])
try:
    cpulse.rotation(1.0, 0.0)
except ImportError as exc:
    raised = type(exc).__name__
else:
    raised = None
print(json.dumps([runs, raised]))
""")
    runs, raised = json.loads(out)
    assert [code for code, _ in expected] == [0] * len(argvs)
    assert runs == expected
    assert raised == "ModuleNotFoundError"


def test_threads_touching_numpy_first_agree():
    # the import lock serialises numpy's first import across threads
    out = fresh("""
import json, sys, threading
import cpulse
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(4, timeout=30)
results = [None] * 4

def first_touch(i):
    barrier.wait()
    results[i] = cpulse.rotation(1.0, 0.0)

threads = [threading.Thread(target=first_touch, args=(i,)) for i in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=30)
    assert not t.is_alive()
print(json.dumps([repr(r.tolist()) for r in results]))
""")
    assert json.loads(out) == [repr(cpulse.rotation(1.0, 0.0).tolist())] * 4


def test_module_probes_never_import_numpy():
    # unittest's assertWarns reads __warningregistry__ off every module in
    # sys.modules; a dunder the binding lacks is not looked up in numpy
    out = fresh("""
import sys, unittest, warnings
import cpulse
with unittest.TestCase().assertWarns(UserWarning):
    warnings.warn("probe")
print(hasattr(cpulse._numpy, "__path__"), "numpy" in sys.modules)
""")
    assert out.split() == ["False", "False"]
