"""Seeded job streams for the two workloads.

A job is one CLI invocation (or the quick-start script) plus the parameters
its checker needs.  Jobs come in rounds: every round holds the same job
templates in a seeded order, so any run, whatever its seed, measures the
same mix; the seed changes targets, grids, order and output formats.
"""

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from check import family_pulses, full_sequence

FIVE_PULSE = [(1, 2, 1), (1, 1, 2), (2, 2, 2), (3, 1, 2), (1, 3, 2)]
THETA_RANGE = (0.1, 4 * math.pi - 0.1)
# Fit jobs start higher: below theta ~ 0.2 a W1 corrector's infidelity at
# eps = 1e-3 sinks under the analysis module's 1e-20 floor, and coeff and
# verify exit 2 (FitWindowError) by design.
FIT_THETA_MIN = 0.5

# Sweep grid sizes scale inversely with the full sequence's pulse count, so
# every sweep job does about the same evaluation work (~0.6 s in the
# baseline): 20k points for the bare pulse down to 4k for the 13-pulse W1x4.
SWEEP_POINT_BUDGET = 60_000
FIVE_PULSE_TARGETS = 2   # seeded targets per five-pulse family, designed in set-up

EXPECTED = Path(__file__).with_name("expected.json")


@dataclass
class Job:
    kind: str
    argv: list            # arguments after `python -m cpulse.cli`, or script args
    params: dict = field(default_factory=dict)


def fmt(x: float) -> str:
    return "%.17g" % x


def random_target(rng, theta_min=THETA_RANGE[0]):
    return rng.uniform(theta_min, THETA_RANGE[1]), rng.uniform(0.0, 2 * math.pi)


def target_args(theta, alpha):
    return ["--theta", fmt(theta), "--alpha", fmt(alpha)]


def family_args(family, k):
    return ["--family", family, "--" + ("m" if family == "wm" else "n"), str(k)]


def rounds(rng, templates):
    """Endless stream of rounds: the first template leads every round (so a
    run that ends mid-round still holds it), the rest follow in a seeded order."""
    r = 0
    while True:
        order = list(range(1, len(templates)))
        rng.shuffle(order)
        for i in [0] + order:
            yield templates[i](rng, r)
        r += 1


# ---------------------------------------------------------------------------
# sweep-dense
# ---------------------------------------------------------------------------

def write_seq_file(path: Path, pulses, theta, alpha, as_json: bool):
    """Sequence file that carries its own target (JSON field or text comment)."""
    if as_json:
        obj = {"pulses": [{"angle": a, "phase": p} for a, p in pulses],
               "target": {"theta": theta, "alpha": alpha}}
        path.write_text(json.dumps(obj))
    else:
        lines = [f"# target theta={fmt(theta)} alpha={fmt(alpha)}"]
        lines += [f"{fmt(a)} {fmt(p)}" for a, p in pulses]
        path.write_text("\n".join(lines) + "\n")


def five_pulse_files(rng, workdir: Path):
    """Design every five-pulse family on seeded targets and write one branch
    per file; returns {(p, q, r): [(path, pulses, theta, alpha), ...]}."""
    from cpulse import TargetRotation, design_five_pulse

    seqdir = workdir / "seq"
    seqdir.mkdir(parents=True, exist_ok=True)
    files = {}
    for pqr in FIVE_PULSE:
        for j in range(FIVE_PULSE_TARGETS):
            theta, alpha = random_target(rng)
            branches = design_five_pulse(*pqr, TargetRotation(theta, alpha))
            branch = branches[rng.randrange(len(branches))]
            pulses = [(p.angle, p.phase) for p in branch.sequence]
            as_json = j % 2 == 0
            path = seqdir / ("W%d%d%d_%d.%s" % (*pqr, j, "json" if as_json else "txt"))
            write_seq_file(path, pulses, theta, alpha, as_json)
            files.setdefault(pqr, []).append((path, pulses, theta, alpha))
    return files


def sweep_job(rng, source, pulses, theta, alpha, fmt_):
    """One sweep over a seeded grid sized by the full sequence's pulse count."""
    full = pulses if source == ["--family", "plain"] else full_sequence(pulses, theta, alpha)
    count = int(SWEEP_POINT_BUDGET / (len(full) + 2) * rng.uniform(0.97, 1.03))
    eps_min = rng.uniform(0.0, 0.05)
    eps_max = rng.uniform(0.1, 0.5)
    argv = (["sweep"] + source + target_args(theta, alpha)
            + ["--eps-min", fmt(eps_min), "--eps-max", fmt(eps_max),
               "--eps-count", str(count), "--format", fmt_])
    return Job("sweep", argv, {"format": fmt_, "eps_min": eps_min, "eps_max": eps_max,
                               "eps_count": count, "pulses": full,
                               "theta": theta, "alpha": alpha})


def sweep_dense(rng, workdir):
    files = five_pulse_files(rng, workdir)

    # Each template keeps one output format, and the largest job, the
    # 20k-point JSON sweep of the bare pulse, leads every round: every run
    # holds it, so peak RSS compares across runs.
    def family(name, k, fmt_):
        def make(rng, r):
            theta, alpha = random_target(rng)
            return sweep_job(rng, family_args(name, k), family_pulses(name, k, theta, alpha),
                             theta, alpha, fmt_)
        return make

    def plain(rng, r):
        theta, alpha = random_target(rng)
        return sweep_job(rng, ["--family", "plain"], [(theta, alpha)], theta, alpha, "json")

    def five(pqr, fmt_):
        def make(rng, r):
            path, pulses, theta, alpha = files[pqr][r % FIVE_PULSE_TARGETS]
            return sweep_job(rng, ["--seq", str(path)], pulses, theta, alpha, fmt_)
        return make

    templates = ([plain, family("wm", 1, "csv"), family("wm", 2, "json"), family("wm", 3, "csv"),
                  family("wn", 1, "csv"), family("wn", 2, "csv"), family("wn", 3, "json"),
                  family("wn", 4, "csv")]
                 + [five(pqr, "json" if pqr == (2, 2, 2) else "csv") for pqr in FIVE_PULSE])
    return rounds(rng, templates)


# ---------------------------------------------------------------------------
# design-fit
# ---------------------------------------------------------------------------

def design_fit(rng, workdir):
    cases = json.loads(EXPECTED.read_text())["quickstart"]
    offset = rng.randrange(len(cases))

    def five(pqr):
        def make(rng, r):
            theta, alpha = random_target(rng)
            fmt_ = "json" if r % 2 else "text"
            argv = (["design", "--family", "fivepulse", "--p", str(pqr[0]), "--q", str(pqr[1]),
                     "--r", str(pqr[2])] + target_args(theta, alpha) + ["--format", fmt_])
            return Job("design", argv, {"family": "fivepulse", "pqr": pqr, "format": fmt_,
                                        "theta": theta, "alpha": alpha})
        return make

    def design3(family, fmt_, kmax):
        def make(rng, r):
            theta, alpha = random_target(rng)
            k = 1 + r % kmax
            argv = ["design"] + family_args(family, k) + target_args(theta, alpha) + ["--format", fmt_]
            return Job("design", argv, {"family": family, "k": k, "format": fmt_,
                                        "theta": theta, "alpha": alpha})
        return make

    def coeff(family, window, fmt_, kmax):
        def make(rng, r):
            theta, alpha = random_target(rng, FIT_THETA_MIN)
            k = 1 + r % kmax
            argv = (["coeff"] + family_args(family, k) + target_args(theta, alpha)
                    + ["--window", window, "--format", fmt_])
            return Job("coeff", argv, {"family": family, "k": k, "window": window,
                                       "format": fmt_, "theta": theta, "alpha": alpha})
        return make

    def verify(rng, r):
        theta, alpha = random_target(rng, FIT_THETA_MIN)
        family, k = ("wm", 1 + r % 3) if r % 2 else ("wn", 1 + r % 4)
        argv = ["verify"] + family_args(family, k) + target_args(theta, alpha)
        return Job("verify", argv, {"family": family, "k": k, "theta": theta, "alpha": alpha})

    def table1(rng, r):
        return Job("table1", ["table1"])

    def quickstart(rng, r):
        case = cases[(offset + r) % len(cases)]
        return Job("quickstart", [fmt(case["theta"]), fmt(case["alpha"])],
                   {"theta": case["theta"], "alpha": case["alpha"], "expected": case})

    templates = ([five(pqr) for pqr in FIVE_PULSE]
                 + [design3("wm", "text", 3), design3("wn", "json", 4),
                    coeff("wm", "order", "json", 3), coeff("wn", "coeff", "text", 4),
                    verify, table1, quickstart])
    return rounds(rng, templates)


WORKLOADS = {"sweep-dense": sweep_dense, "design-fit": design_fit}


def job_stream(workload: str, seed: int, workdir: Path):
    """Endless seeded job stream; set-up (input files) happens here."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, workdir)
