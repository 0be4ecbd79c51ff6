"""cpulse benchmark: closed-loop CLI jobs, plus a traced in-process run.

Run from the repository root:

    python3 bench/run.py --workload sweep-dense --seed 1 --seconds 40 --trace 0

--trace 0: one client runs one job at a time, each a fresh
`python -m cpulse.cli ...` process (src on PYTHONPATH), for --seconds
seconds, and checks every job's output.  Prints the end-to-end metrics of
BENCHMARK.json.

--trace 1: runs the same seeded jobs in this process, first untraced, then
again with a span around every call into the package's public functions.
Prints the per-layer metrics of BENCHMARK.json and whether each row of the
layer prediction table held.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Lines before it (starting with '#') record the
environment and the sample count behind each metric; the same record is
written to bench/_work/.
"""

import os
import sys

# Pin native thread pools before numpy loads, here and in every job.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
SPEC = ROOT / "BENCHMARK.json"

SETUP_PROBES = 9           # spread over the run, after one unmeasured warm-up
PROBE = "import cpulse.cli; cpulse.cli.build_parser()"
JOB_TIMEOUT = 120.0
UNTRACED_SHARE = 0.4       # of --seconds, for the untraced in-process pass

MODULES = ("su2", "pulses", "analysis", "design", "bch", "cli")

# Layer prediction table: (layer, workload, metric, relation, value, claim).
PREDICTIONS = [
    ("su2", "sweep-dense", "share.su2_rotation_self", ">=", 0.20,
     "rotation self time is about 35% of in-process time"),
    ("pulses", "sweep-dense", "share.pulses_self", ">=", 0.05, "moves job time"),
    ("pulses", "design-fit", "share.pulses_self", "<", 0.20, "small"),
    ("analysis", "sweep-dense", "share.analysis_self", ">=", 0.05, "sweep moves job time"),
    ("analysis", "design-fit", "share.analysis_total", ">=", 0.10,
     "fits and crossover move job time"),
    ("design", "sweep-dense", "share.design_total", "<", 0.01, "about 0"),
    ("design", "design-fit", "share.design_five_pulse_total", ">=", 0.20,
     "the five-pulse solver dominates (0.3 s of a 0.7 s table1)"),
    ("bch", "design-fit", "share.bch_total", "<", 0.01, "negligible"),
    ("su2+pulses+analysis", "sweep-dense", "share.su2_pulses_analysis_self", ">", 0.50,
     "their self time is the majority"),
]


@dataclass
class Outcome:
    code: int
    out: str
    err: str
    wall: float
    cpu: float = 0.0
    rss_mb: float = 0.0


class Launcher:
    """Runs jobs one at a time through launch.py (see there for why); wall
    time from spawn to exit and rusage come from wait4 in the launcher."""

    def __enter__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env["PYTHONHASHSEED"] = "0"
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "launch.py")], env=env,
                                     cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=JOB_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv) -> Outcome:
        out, err = WORK / "stdout.txt", WORK / "stderr.txt"
        req = {"argv": argv, "stdout": str(out), "stderr": str(err), "timeout": JOB_TIMEOUT}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("job launcher exited")
        r = json.loads(reply)
        return Outcome(r["code"], out.read_text(), err.read_text()[-2000:], r["wall_s"],
                       r["cpu_s"], r["rss_mb"])


def command(job):
    if job.kind == "quickstart":
        return [sys.executable, str(BENCH / "quickstart.py")] + job.argv
    return [sys.executable, "-m", "cpulse.cli"] + job.argv


def run_inprocess(job) -> Outcome:
    """The same job through the library entry points, stdout captured."""
    import cpulse.cli
    import quickstart

    buf, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        try:
            if job.kind == "quickstart":
                json.dump(quickstart.run(float(job.argv[0]), float(job.argv[1])), buf)
                buf.write("\n")
                code = 0
            else:
                code = cpulse.cli.main(job.argv)
        except Exception:  # a crash is a failed job, not a failed benchmark
            traceback.print_exc(file=err)
            code = -1
    return Outcome(code, buf.getvalue(), err.getvalue()[-2000:], perf_counter() - t0)


class Tally:
    """Attempted and failed jobs; prints the first few failures to stderr."""

    def __init__(self):
        self.attempted = self.failed = 0

    def record(self, job, outcome: Outcome) -> bool:
        from check import check

        self.attempted += 1
        problems = check(job, outcome.code, outcome.out)
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {job.kind} {' '.join(job.argv)}: {problems[:3]} "
                      f"stderr: {outcome.err[-300:]!r}", file=sys.stderr)
        return not problems


def checker_selftest():
    """Corrupt genuine outputs three ways; each must count as a failed job."""
    import random

    from check import family_pulses
    from workloads import Job, sweep_job

    rng = random.Random("selftest")
    sweep = sweep_job(rng, ["--family", "wm", "--m", "1"],
                      family_pulses("wm", 1, 2.0, 0.5), 2.0, 0.5, "csv")
    sweep.argv[sweep.argv.index("--eps-count") + 1] = "200"
    sweep.params["eps_count"] = 200
    design = Job("design", ["design", "--family", "fivepulse", "--p", "2", "--q", "2",
                            "--r", "2", "--theta", "2", "--alpha", "0.5", "--format", "json"],
                 {"family": "fivepulse", "pqr": (2, 2, 2), "format": "json",
                  "theta": 2.0, "alpha": 0.5})
    good_sweep, good_design = run_inprocess(sweep), run_inprocess(design)

    lines = good_sweep.out.split("\n")
    row = lines[100].split(",")
    lead = next(i for i, ch in enumerate(row[2]) if ch in "123456789")
    row[2] = row[2][:lead] + str((int(row[2][lead]) + 1) % 10) + row[2][lead + 1:]
    lines[100] = ",".join(row)
    obj = json.loads(good_design.out)
    obj["branches"].pop()
    corrupted = [(sweep, Outcome(0, "\n".join(lines), "", 0.0)),
                 (design, Outcome(0, json.dumps(obj), "", 0.0)),
                 (sweep, Outcome(1, good_sweep.out, "", 0.0))]

    problems = []
    tally = Tally()
    if not (tally.record(sweep, good_sweep) and tally.record(design, good_design)):
        problems.append("a genuine output failed its check")
    with contextlib.redirect_stderr(io.StringIO()):
        caught = [not tally.record(job, o) for job, o in corrupted]
    if not all(caught):
        problems.append(f"corruptions caught: {caught} (flipped digit, dropped branch, exit code)")
    return problems


def tail_percentile(xs):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(xs)
    if n < 20:
        return None
    pct = 100 * (n - 10) // n
    return pct, statistics.quantiles(xs, n=100)[pct - 1]


def run_closed_loop(stream, seconds, samples, launcher):
    """Jobs back to back for `seconds`; the set-up probes are spread evenly
    over the same interval, so both see the same machine."""
    def probe():
        o = launcher.run([sys.executable, "-c", PROBE])
        if o.code != 0:
            raise RuntimeError(f"set-up probe failed: {o.err}")
        return o.wall

    probe()   # warm-up: fills the bytecode cache
    setup, tally, ok_walls, outcomes, log = [], Tally(), [], [], []
    t0 = perf_counter()
    while not outcomes or perf_counter() - t0 < seconds:
        if perf_counter() - t0 >= len(setup) * seconds / SETUP_PROBES:
            setup.append(probe())
            continue
        job = next(stream)
        o = launcher.run(command(job))
        outcomes.append(o)
        ok = tally.record(job, o)
        if ok:
            ok_walls.append(o.wall)
        log.append({"argv": job.argv, "ok": ok, "wall_s": o.wall, "cpu_s": o.cpu,
                    "rss_mb": o.rss_mb})
    while len(setup) < SETUP_PROBES:
        setup.append(probe())
    walls = [o.wall for o in outcomes]
    metrics = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": len(ok_walls) / sum(walls),
        "job_p50_s": statistics.median(walls),
        "job_cpu_s": statistics.median([o.cpu for o in outcomes]),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
    }
    samples.update(setup_s=len(setup), jobs_per_s=len(walls), job_p50_s=len(walls),
                   job_cpu_s=len(walls), peak_rss_mb=len(walls))
    tail = tail_percentile(walls)
    extra = {"setup_samples_s": setup, "jobs": log,
             "job_tail": None if tail is None else {"percentile": tail[0], "value_s": tail[1]}}
    return tally, metrics, extra


def layer_shares(tracer, wall):
    """Self and inclusive time shares per module, from the recorded spans."""
    import numpy as np

    totals = tracer.metrics()
    module_of = np.array([MODULES.index(n.split(".")[0]) for n in tracer.names], dtype=np.int8)
    span_mod = module_of[np.frombuffer(tracer.name, dtype=np.int32)]
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    parent_mod = np.where(parent >= 0, span_mod[np.maximum(parent, 0)], -1)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    shares = {}
    for i, mod in enumerate(MODULES):
        self_s = sum(v for k, v in totals.items() if k.startswith(mod + ".") and k.endswith(".self_s"))
        outer = (span_mod == i) & (parent_mod != i)
        shares[f"share.{mod}_self"] = self_s / wall
        shares[f"share.{mod}_total"] = float(dur[outer].sum()) / wall
    shares["share.su2_rotation_self"] = totals["su2.rotation.self_s"] / wall
    shares["share.su2_pulses_analysis_self"] = sum(
        shares[f"share.{m}_self"] for m in ("su2", "pulses", "analysis"))
    shares["share.design_five_pulse_total"] = totals["design.design_five_pulse.total_s"] / wall
    return shares


def run_traced(stream, seconds, workload, seed, samples):
    from tracer import Tracer, exact_count_selfcheck

    selfcheck = exact_count_selfcheck()
    run_inprocess(next(stream))   # warm-up: lazy imports and first-call costs
    tally, jobs, untraced = Tally(), [], []
    t0 = perf_counter()
    while not jobs or perf_counter() - t0 < UNTRACED_SHARE * seconds:
        jobs.append(next(stream))
        o = run_inprocess(jobs[-1])
        untraced.append(o.wall)
        tally.record(jobs[-1], o)
    traced = []
    with Tracer() as tracer:
        for i, job in enumerate(jobs):
            tracer.job_id = i
            o = run_inprocess(job)
            traced.append(o.wall)
            tally.record(job, o)
    tracer.save(WORK / f"spans-{workload}-seed{seed}.npz")

    wall = sum(traced)
    metrics = tracer.metrics()
    metrics.update(layer_shares(tracer, wall))
    metrics["trace.overhead_ratio"] = wall / sum(untraced)
    metrics["trace.inprocess_s"] = sum(untraced)
    samples.update(jobs=len(jobs), spans=len(tracer.start))
    held = []
    for layer, wl, name, rel, bound, claim in PREDICTIONS:
        if wl != workload:
            continue
        value = metrics[name]
        ok = {"<": value < bound, ">": value > bound, ">=": value >= bound}[rel]
        held.append({"layer": layer, "metric": name, "measured": value,
                     "predicted": f"{rel} {bound}", "claim": claim, "held": ok})
    return tally, metrics, {"tracer_selfcheck": selfcheck, "predictions": held,
                            "untraced_walls_s": untraced, "traced_walls_s": traced}


def environment():
    import numpy

    head = ROOT / ".git" / "HEAD"
    rev = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        rev = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "cpulse").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "git_revision": rev,
            "src_sha256": digest.hexdigest(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cpulse" / "__init__.py").is_file():
        print(f"error: no cpulse sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    sys.path[:0] = [str(SRC), str(BENCH)]
    from workloads import WORKLOADS, job_stream

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    samples = {}
    stream = job_stream(args.workload, args.seed, WORK)
    if args.trace:
        tally, values, extra = run_traced(stream, args.seconds, args.workload, args.seed, samples)
        wanted = spec["per_layer"]
        ok = not extra["tracer_selfcheck"]
        for p in extra["predictions"]:
            print(f"# prediction {p['layer']} on {args.workload}: {p['metric']} = "
                  f"{p['measured']:.4f}, predicted {p['predicted']} ({p['claim']}): "
                  f"{'held' if p['held'] else 'NOT HELD'}")
    else:
        selftest = checker_selftest()
        with Launcher() as launcher:
            tally, values, extra = run_closed_loop(stream, args.seconds, samples, launcher)
        extra["checker_selftest"] = selftest
        wanted = spec["end_to_end"]
        ok = not selftest
    for problem in extra.get("tracer_selfcheck", []) + extra.get("checker_selftest", []):
        print(f"SELF-CHECK FAILED: {problem}", file=sys.stderr)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": ok and tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), "samples": samples,
              "all_values": values, **extra, "result": result}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    print("# env " + json.dumps(record["env"]))
    print("# samples " + json.dumps(samples))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
