"""The benchmark's own gates, run in-process against the library.

bench/tracer.py counts calls per sweep point, and bench/check.py re-derives
every sweep row from an independent quaternion product, every fit from its
own power-law fit, and every designed branch from its zero-error identity,
its finite-difference derivative and, for three-pulse families, its closed
form.  A change to the evaluation path that breaks either gate fails here,
before a benchmark run.
"""

import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import check  # noqa: E402
import quickstart  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

from cpulse.cli import main  # noqa: E402


def test_tracer_exact_count_selfcheck():
    assert tracer.exact_count_selfcheck() == []


def run_job(capsys, job):
    code = main(job.argv)
    return check.check(job, code, capsys.readouterr().out)


@pytest.mark.parametrize("source,family,k,fmt_", [
    (["--family", "plain"], None, None, "json"),
    (workloads.family_args("wn", 4), "wn", 4, "csv"),
], ids=["plain-json", "w1x4-csv"])
def test_family_sweep_passes_checker(capsys, source, family, k, fmt_):
    rng = random.Random(f"contract:{source}")
    theta, alpha = workloads.random_target(rng)
    pulses = ([(theta, alpha)] if family is None
              else check.family_pulses(family, k, theta, alpha))
    job = workloads.sweep_job(rng, source, pulses, theta, alpha, fmt_)
    assert run_job(capsys, job) == []


def test_five_pulse_file_sweep_passes_checker(capsys, tmp_path):
    rng = random.Random("contract:five")
    files = workloads.five_pulse_files(rng, tmp_path)
    for path, pulses, theta, alpha in files[(2, 2, 2)]:
        job = workloads.sweep_job(rng, ["--seq", str(path)], pulses, theta, alpha, "csv")
        assert run_job(capsys, job) == [], path.name


def test_table1_passes_checker(capsys):
    assert run_job(capsys, workloads.Job("table1", ["table1"])) == []


@pytest.mark.parametrize("family,k,window,fmt_", [
    ("wm", 2, "order", "json"), ("wn", 3, "coeff", "text")])
def test_coeff_passes_checker(capsys, family, k, window, fmt_):
    rng = random.Random(f"contract:coeff:{window}")
    theta, alpha = workloads.random_target(rng, workloads.FIT_THETA_MIN)
    argv = (["coeff"] + workloads.family_args(family, k) + workloads.target_args(theta, alpha)
            + ["--window", window, "--format", fmt_])
    job = workloads.Job("coeff", argv, {"family": family, "k": k, "window": window,
                                        "format": fmt_, "theta": theta, "alpha": alpha})
    assert run_job(capsys, job) == []


def test_verify_passes_checker(capsys):
    rng = random.Random("contract:verify")
    theta, alpha = workloads.random_target(rng, workloads.FIT_THETA_MIN)
    argv = ["verify"] + workloads.family_args("wm", 1) + workloads.target_args(theta, alpha)
    job = workloads.Job("verify", argv, {"family": "wm", "k": 1, "theta": theta, "alpha": alpha})
    assert run_job(capsys, job) == []


@pytest.mark.parametrize("fmt_", ["text", "json"])
def test_five_pulse_design_passes_checker(capsys, fmt_):
    rng = random.Random(f"contract:design:W222:{fmt_}")
    theta, alpha = workloads.random_target(rng)
    argv = (["design", "--family", "fivepulse", "--p", "2", "--q", "2", "--r", "2"]
            + workloads.target_args(theta, alpha) + ["--format", fmt_])
    job = workloads.Job("design", argv, {"family": "fivepulse", "pqr": (2, 2, 2),
                                         "format": fmt_, "theta": theta, "alpha": alpha})
    assert run_job(capsys, job) == []


@pytest.mark.parametrize("family,k,fmt_", [("wm", 2, "text"), ("wn", 3, "json")])
def test_three_pulse_design_passes_checker(capsys, family, k, fmt_):
    rng = random.Random(f"contract:design:{family}")
    theta, alpha = workloads.random_target(rng)
    argv = (["design"] + workloads.family_args(family, k) + workloads.target_args(theta, alpha)
            + ["--format", fmt_])
    job = workloads.Job("design", argv, {"family": family, "k": k, "format": fmt_,
                                         "theta": theta, "alpha": alpha})
    assert run_job(capsys, job) == []


def test_quickstart_passes_checker():
    # every recorded case: a crossover that moves past CROSSOVER_TOL fails here
    for case in json.loads(workloads.EXPECTED.read_text())["quickstart"]:
        job = workloads.Job("quickstart", [], {"theta": case["theta"], "alpha": case["alpha"],
                                               "expected": case})
        out = json.dumps(quickstart.run(case["theta"], case["alpha"]))
        assert check.check(job, 0, out) == [], case
