"""Run bench/run.py over several seeds and summarise each metric.

From the repository root:

    python3 bench/summarize.py --seeds 1-10 > summary.json

For every workload: the end-to-end metrics of each seed, their median,
quartiles and spread (interquartile distance over median), then one traced
run with its per-layer metrics and prediction table.  `--seconds` defaults
to BENCHMARK.json's run_seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload, seed, seconds, trace):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    print(f"{workload} seed {seed} trace {trace}: {proc.stdout.splitlines()[-1]}",
          file=sys.stderr, flush=True)
    record = BENCH / "_work" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(record.read_text())


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()

    out = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        records = [run(workload, s, args.seconds, 0) for s in args.seeds]
        summary = {"attempted": sum(r["result"]["attempted"] for r in records),
                   "failed": sum(r["result"]["failed"] for r in records),
                   "all_correct": all(r["result"]["correct"] for r in records),
                   "metrics": {}}
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in records]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary["metrics"][m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": m["bound"], "values": values,
                "samples_per_run": [r["samples"][m["name"]] for r in records]}
        traced = run(workload, args.seeds[0], args.seconds, 1)
        summary["traced"] = {"seed": args.seeds[0], "result": traced["result"],
                             "predictions": traced["predictions"],
                             "tracer_selfcheck": traced["tracer_selfcheck"]}
        summary["env"] = records[0]["env"]
        out["workloads"][workload] = summary
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
