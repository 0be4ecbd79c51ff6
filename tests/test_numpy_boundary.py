"""Where numpy gets imported.  Each cpulse function that builds an array
imports numpy itself, so every CLI command (design, simulate, sweep, coeff,
verify with or without --scan, table1) and the library quick start run on
math and Python complexes alone, with numpy absent too.  Two proofs cover the CLI:
- the corpus replay (tests/test_cli_golden.py) runs every corpus argv with
  numpy blocked;
- the short-jobs step list here runs every command's jobs in one
  interpreter with numpy installed, and none of them loads it.
The value records need no dataclasses either, so these jobs start without
it and the inspect/ast machinery it pulls in, and json is imported only for
JSON input or output.
pytest has imported numpy already, so each check runs in a fresh
interpreter with only src on the path."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cpulse

SRC = str(Path(cpulse.__file__).resolve().parents[1])


def fresh(code: str) -> str:
    """stdout of `python -c code` in a new interpreter with src on the path."""
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def five_pulse_file(tmp_path_factory):
    """A W121 branch with its target, as a `--seq` JSON file."""
    target = cpulse.TargetRotation(1.9, 0.7)
    seq = cpulse.design_five_pulse(1, 2, 1, target)[0].sequence
    path = tmp_path_factory.mktemp("seq") / "w121.json"
    path.write_text(json.dumps(cpulse.sequence_to_json(seq, target)))
    return str(path)


WM2 = "--family wm --m 2 --theta 1.3 --alpha 0.4"
# one step each of the short-jobs test, SEQ standing for the W121 --seq file
SHORT_JOBS = (
    "design --family fivepulse --p 1 --q 2 --r 1",
    "design --family wm --m 2 --format json",
    *(f"design --family {family} --theta 1.3 --alpha 0.4 --format {fmt}"
      for family in ("wm --m 2", "wn --n 3", "fivepulse --p 2 --q 2 --r 2")
      for fmt in ("text", "json")),
    "coeff --family wm --m 1 --format json",
    "coeff " + WM2,
    *(f"coeff {source} --window {window} --format {fmt}"
      for source in (WM2, "--seq SEQ") for window in ("order", "coeff")
      for fmt in ("text", "json")),
    "verify --family wn --n 2",
    "verify --family wm --m 1 --theta 1.3 --alpha 0.4",
    "verify --family wn --n 3 --theta 2.0",
    "verify --seq SEQ",
    "verify --scan",
    "verify --scan --theta 0.3 --alpha -pi/2",
    "sweep --eps-count 5",
    "sweep --family wm --m 1 --eps-count 30",
    "sweep --family wm --m 2 --eps-count 30",
    "sweep --family fivepulse --split 0.4 --eps-min -0.1 --eps-count 2000 --format json",
    "sweep --seq SEQ --eps-count 7",
    "sweep --seq SEQ --eps-count 9 --format json",
    "simulate --eps 0.1",
    "simulate --family plain --format json",
    "simulate --family plain --theta pi/2 --eps -0.3 --format json",
    "simulate --family wn --n 2 --eps 0.1",
    "simulate --seq SEQ --format json",
    "simulate --seq SEQ --split 0.2 --eps 0.05",
    "table1")


@pytest.fixture(scope="module")
def short_jobs_seen(five_pulse_file):
    """What each short-jobs step, run in one fresh interpreter, leaves loaded
    of dataclasses, inspect and numpy, after its exit code; modules only
    accumulate, so a step that loads one shows up at that step."""
    steps = {job: [five_pulse_file if a == "SEQ" else a for a in job.split()]
             for job in SHORT_JOBS}
    assert len(steps) == len(SHORT_JOBS)
    out = fresh(f"""
import contextlib, io, json, sys
import cpulse.cli
cpulse.cli.build_parser()
heavy = ("dataclasses", "inspect", "numpy")
seen = {{"parser": [m for m in heavy if m in sys.modules]}}
for job, argv in {steps!r}.items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = cpulse.cli.main(argv)
    seen[job] = [code] + [m for m in heavy if m in sys.modules]
print(json.dumps(seen))
""")
    return json.loads(out)


def test_parser_never_loads_dataclasses_or_inspect(short_jobs_seen):
    assert list(short_jobs_seen) == ["parser", *SHORT_JOBS]
    assert short_jobs_seen["parser"] == []


@pytest.mark.parametrize("job", SHORT_JOBS)
def test_short_jobs_never_load_dataclasses_or_inspect(short_jobs_seen, job):
    assert short_jobs_seen[job] == [0]


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


# every function that builds an array, each called to give a list of the
# arrays it returns or holds; Matrix stands in for su2_parts' 2x2 input
ARRAY_FUNCTIONS = ("rotation", "su2_parts", "compile_sequence", "TargetRotation.unitary",
                   "SweepTable", "sweep", "error_derivative", "three_pulse_scan")
ARRAY_CALLS = """
arg = cpulse.TargetRotation(1.3, 0.4)
seq = cpulse.design_wm(1, arg).sequence


class Matrix:
    def ravel(self):
        return self

    def tolist(self):
        return [1.0, 0.0, 0.0, 1.0]


def table():   # SweepTable checks its columns as arrays and holds them as given
    cpulse.SweepTable([0.0, 0.1], [1.0, 0.9], [0.0, 0.1])
    return []


calls = {"rotation": lambda: [cpulse.rotation(1.0, 0.0)],
         "su2_parts": lambda: cpulse.su2.su2_parts(Matrix())[1:],
         "compile_sequence": lambda: [cpulse.compile_sequence(seq, 0.1)],
         "TargetRotation.unitary": lambda: [arg.unitary()],
         "SweepTable": table,
         "sweep": lambda: cpulse.sweep(seq, arg, [0.0, 0.1])[:3],
         "error_derivative": lambda: [cpulse.design.error_derivative(seq)],
         "three_pulse_scan": lambda: [cpulse.three_pulse_scan(arg)]}
"""
FIRST_ARRAY_CALL = ARRAY_CALLS + """
raised = dict.fromkeys(calls, None)
for name, call in calls.items():
    try:
        call()
    except ImportError as exc:
        raised[name] = type(exc).__name__
print(json.dumps(raised))
"""


def test_library_quick_start_never_loads_numpy():
    # the README's quick start, the benchmark's quick-start job: design,
    # fit, crossover and the BCH coefficient all run on Python floats.
    # None in sys.modules makes `import numpy` raise ModuleNotFoundError, on
    # any numpy version, so with numpy blocked every array function raises
    present = json.loads(fresh(QUICK_START.format(block="")))
    blocked, raised = fresh(QUICK_START.format(block='sys.modules["numpy"] = None')
                            + FIRST_ARRAY_CALL).splitlines()
    assert present[1] is False
    assert json.loads(blocked) == present
    assert json.loads(raised) == dict.fromkeys(ARRAY_FUNCTIONS, "ModuleNotFoundError")
    assert present[0][-2] == pytest.approx(5 * math.pi ** 6 / 1024, rel=1e-12)


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
import cpulse
print(type(cpulse.rotation(1.0, 0.0)) is numpy.ndarray, sys.modules["numpy"] is numpy)
""")
    assert out.split() == ["True", "True"]


def test_every_array_function_builds_numpy_arrays():
    out = fresh("import json, numpy\nimport cpulse" + ARRAY_CALLS + """
print(json.dumps({name: all(type(a) is numpy.ndarray for a in call())
                  for name, call in calls.items()}))
""")
    assert json.loads(out) == dict.fromkeys(ARRAY_FUNCTIONS, True)


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
    # sys.modules, cpulse's included
    out = fresh("""
import sys, unittest, warnings
import cpulse
with unittest.TestCase().assertWarns(UserWarning):
    warnings.warn("probe")
print("numpy" in sys.modules)
""")
    assert out.split() == ["False"]
