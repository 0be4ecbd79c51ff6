"""Record the CLI golden corpus that tests/test_cli_golden.py replays.

Run from the repository root, at the commit whose output is to be kept:

    PYTHONPATH=src python tests/record_cli_golden.py

It writes tests/cli_golden.json: the input files the argvs read and, per
argv, its exit code and the sha256 of its stdout, stderr and --out bytes.
The argvs and files are fixed, so the file changes only when some output
does.  A re-recording lists in CHANGES.md each argv whose entry changed,
and why: re-recording to hide a change defeats the corpus.

The argvs cover every command and exit code (0-3).  None is an argparse
error: argparse's messages differ between Python versions.
"""

import contextlib
import io
import json
import math

from cpulse.cli import main
from cpulse.design import design_five_pulse, design_wm
from cpulse.pulses import PulseSequence, TargetRotation, format_sequence, sequence_to_json
from test_cli_golden import CORPUS, OUT, run_corpus

PI = math.pi
# --theta, --alpha: signed pi forms, a separate negative token, decimals
TARGETS = [("pi", "0"), ("pi", "pi"), ("pi/2", "-pi/2"), ("1.3", "0.4"), ("3pi", "-0.7")]
# (design flags, branch) of each designed source
DESIGNED = [(["--family", "wm", "--m", m], "0") for m in "123"] + [
    (["--family", "wn", "--n", n], "0") for n in "124"] + [
    (["--family", "fivepulse", "--p", "1", "--q", "2", "--r", "1"], "0"),
    (["--family", "fivepulse", "--p", "1", "--q", "2", "--r", "1"], "1"),
    (["--family", "fivepulse", "--p", "1", "--q", "1", "--r", "2"], "0"),
    (["--family", "fivepulse", "--p", "2", "--q", "2", "--r", "2"], "0")]
# the jobs every source runs: simulate, sweep and coeff in both formats, verify
JOBS = [["simulate", "--eps", "0.05"],
        ["simulate", "--eps", "-0.1", "--split", "0.3", "--format", "json"],
        ["sweep", "--eps-count", "7"],
        ["sweep", "--eps-min", "-0.2", "--eps-max", "0.2", "--eps-count", "5", "--format", "json"],
        ["coeff"],
        ["coeff", "--window", "coeff", "--format", "json"],
        ["verify"]]


def pairs_text(pairs) -> str:
    return format_sequence(PulseSequence.from_pairs(pairs))


def files() -> dict:
    """{name: text} of the --seq files."""
    # W1 for a text file's default target, pi about X: it passes verify
    w1 = [(p.angle, p.phase) for p in design_wm(1, TargetRotation(PI, 0.0)).sequence]
    out = {"w1.txt": pairs_text(w1),
           # BB1's angles with wrong phases: in the (pi, 2 pi, pi) family, not flat
           "broken.txt": pairs_text([(PI, 0.1), (2 * PI, 2.0), (PI, 0.1)]),
           # outer phases pi apart: the angles match the family, the phases not
           "outer_pi.txt": pairs_text([w1[0], w1[1], (w1[2][0], w1[2][1] + PI)]),
           "huge.txt": "1e308 0\n",
           # a total angle whose rounding bound squares past the largest double
           "square_overflow.txt": "1e200 0\n3.141592653589793 0\n",
           "bad_line.txt": "3.14 0 7\n",
           "negative.txt": "-1 0\n",
           "empty.txt": "# no pulses\n",
           "bad.json": "{\"pulses\": [{\"angle\": \"pi\", \"phase\": 0}]}\n"}
    # off the family by delta at one index: within 1e-8 the closed form
    # applies, at 2e-5 not (numpy's allclose would pass all three)
    for delta in ("1e-9", "-1e-9", "2e-5"):
        for i in range(3):
            pairs = list(w1)
            pairs[i] = (pairs[i][0] + float(delta), pairs[i][1])
            out[f"w1_off{delta}_at{i}.txt"] = pairs_text(pairs)
        # the last phase off by delta: the closed form applies within 1e-8
        if delta != "2e-5":
            out[f"outer_off{delta}.txt"] = pairs_text(
                [w1[0], w1[1], (w1[2][0], w1[2][1] + float(delta))])
    # W2 for pi about X with its last (2 pi) pulse a hair long or short: off
    # the family by far less than the fit or the closed form can see
    w2 = [(p.angle, p.phase) for p in design_wm(2, TargetRotation(PI, 0.0)).sequence]
    for delta in ("1e-9", "-1e-9", "1e-12", "-1e-12"):
        out[f"w2_off{delta}_at2.txt"] = pairs_text(
            [w2[0], w2[1], (w2[2][0] + float(delta), w2[2][1])])
    # W1 turned so its outer phases straddle 0 (1e-13 and 2 pi - 1e-13),
    # with its target turned alike: the outer phases match on the circle
    wrap = PulseSequence.from_pairs([(PI, 1e-13), (2 * PI, w1[1][1] - w1[0][1]), (PI, -1e-13)])
    out["outer_wrap.json"] = json.dumps(sequence_to_json(wrap, TargetRotation(PI, -w1[0][1])))
    w121_target = TargetRotation(1.9, 0.7)
    w121 = design_five_pulse(1, 2, 1, w121_target)[0].sequence
    out["w121.json"] = json.dumps(sequence_to_json(w121, w121_target))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["design", "--family", "fivepulse", "--p", "2", "--q", "2", "--r", "2",
                     "--theta", "pi/2", "--alpha", "0.3", "--format", "json"]) == 0
    out["w222_design.json"] = buf.getvalue()
    return out


def argvs(names) -> list:
    cases = []
    for theta, alpha in TARGETS:
        at = ["--theta", theta, "--alpha", alpha]
        for flags, branch in DESIGNED:
            if branch == "0":
                cases += [["design"] + flags + at, ["design"] + flags + at + ["--format", "json"]]
            cases += [job + flags + ["--branch", branch] + at for job in JOBS]
        cases += [job + ["--family", "plain"] + at for job in JOBS[:-1]]
    for name in ("w1.txt", "w121.json"):
        cases += [job + ["--seq", name] for job in JOBS]
    for branch in ("0", "5", "11", "12"):
        cases += [job + ["--seq", "w222_design.json", "--branch", branch] for job in JOBS]
    cases += [["verify", "--seq", name] for name in names
              if name.startswith(("w1_off", "w2_off", "outer_", "broken"))]
    cases += [["coeff", "--seq", name, "--window", "coeff"] for name in names
              if name.startswith(("w1_off", "outer_"))]
    cases += [["simulate", "--seq", name] for name in names
              if name.startswith(("huge", "bad", "negative", "empty"))]
    cases += [
        # --out: written, and into a missing directory
        ["sweep", "--family", "wm", "--m", "2", "--eps-count", "9", "--out", OUT],
        ["design", "--family", "fivepulse", "--format", "json", "--out", OUT],
        ["table1", "--out", OUT],
        ["coeff", "--out", "missing/" + OUT],
        ["simulate", "--seq", "missing.txt"],
        ["verify", "--seq", "missing.json"],
        # the embedded target, and a flag that disagrees with it
        ["verify", "--seq", "w121.json", "--theta", "1.9"],
        ["verify", "--seq", "w121.json", "--theta", "pi"],
        # the integer caps, flags the family ignores included
        ["design", "--family", "wn", "--n", "1001"],
        ["sweep", "--family", "wm", "--m", "1000", "--eps-count", "3"],
        ["coeff", "--family", "wm", "--p", "1001"],
        ["sweep", "--eps-count", "1000001"],
        # the count floor, on flags the family ignores and on used ones
        ["design", "--family", "wn", "--m", "0"],
        ["sweep", "--family", "plain", "--eps-count", "3", "--n", "-1"],
        ["verify", "--scan", "--p", "0"],
        ["design", "--family", "wm", "--m", "0"],
        ["coeff", "--family", "fivepulse", "--q", "0"],
        # the branch rule
        ["simulate", "--family", "plain", "--branch", "1"],
        ["verify", "--seq", "w1.txt", "--branch", "1"],
        ["coeff", "--family", "wm", "--branch", "1"],
        # the error domain and an overflowing angle
        ["simulate", "--eps", "1"],
        ["simulate", "--eps", "-1e-3"],
        ["simulate", "--seq", "huge.txt", "--eps", "0.9"],
        ["sweep", "--seq", "huge.txt", "--eps-max", "0.9"],
        ["sweep", "--eps-min", "0.1", "--eps-max", "0.1"],
        ["sweep", "--eps-max", "1.5"],
        ["sweep", "--eps-min", "-1e-3", "--eps-max", "1e-3", "--eps-count", "4"],
        ["sweep", "--eps-min", "0", "--eps-max", "1e-300", "--eps-count", "3"],
        ["verify", "--seq", "square_overflow.txt"],
        ["sweep", "--split", "2"],
        ["simulate", "--family", "plain", "--split", "-0.5"],
        # targets and angles
        ["design", "--theta", "0"],
        ["design", "--theta", "4pi"],
        ["design", "--theta", "pi/0"],
        ["design", "--theta", "half"],
        # theta / (2 pi) underflows to 0 below 2e-323: no three-pulse root
        ["design", "--theta", "5e-324"],
        ["design", "--family", "wn", "--n", "4", "--theta", "1e-323"],
        ["simulate", "--theta", "1.5e-323"],
        ["sweep", "--eps-count", "3", "--theta", "5e-324"],
        ["coeff", "--theta", "5e-324"],
        ["verify", "--theta", "5e-324"],
        ["design", "--theta", "2e-323"],
        ["design", "--family", "fivepulse", "--p", "1", "--q", "1", "--r", "1"],
        ["design", "--family", "fivepulse", "--p", "1", "--q", "1", "--r", "4", "--theta", "pi"],
        # labels of multiples above 9: two orders of the same digits, and a feasible one
        ["design", "--family", "fivepulse", "--p", "11", "--q", "1", "--r", "2", "--theta", "1"],
        ["design", "--family", "fivepulse", "--p", "1", "--q", "11", "--r", "2", "--theta", "1"],
        ["design", "--family", "fivepulse", "--p", "10", "--q", "10", "--r", "2", "--theta", "pi"],
        ["design", "--family", "wm", "--m", "1000", "--alph", "-pi/2"],
        # the largest multiples, whose pinned triangles are needles
        ["design", "--family", "fivepulse", "--p", "999", "--q", "1000", "--r", "1",
         "--theta", "2", "--alpha", "0.5", "--format", "json"],
        # 4 pi - 1e-6: pins where two equal links face a right-hand side near 0
        *(["design", "--family", "fivepulse", "--p", p, "--q", q, "--r", r,
           "--theta", "12.566369614359172"] + fmt
          for p, q, r in ("222", "121") for fmt in ([], ["--format", "json"])),
        # the scan: it passes, reads the target flags, fails near 4 pi, refuses a source
        ["verify", "--scan"],
        ["verify", "--scan", "--theta", "0.3", "--alpha", "-pi/2"],
        ["verify", "--scan", "--theta", repr(4 * PI - 1e-9)],
        ["verify", "--scan", "--theta", repr(4 * PI - 3e-13)],
        ["verify", "--scan", "--theta", repr(4 * PI - 3e-14)],
        ["verify", "--scan", "--seq", "w1.txt"],
        ["table1"],
        # sweeps long enough to cross the output's block boundaries, at a
        # 256- and a 1,024-row block, and one row past each
        ["sweep", "--family", "plain", "--eps-count", "256", "--format", "json"],
        ["sweep", "--family", "plain", "--eps-count", "257"],
        ["sweep", "--family", "plain", "--eps-min", "-0.5", "--eps-count", "2049",
         "--format", "json"],
        ["sweep", "--family", "wm", "--m", "1", "--eps-count", "513", "--format", "json"],
        ["sweep", "--family", "wm", "--m", "2", "--eps-min", "-0.2", "--eps-count", "1024"],
        ["sweep", "--family", "wm", "--m", "3", "--theta", "1.3", "--eps-count", "1025"],
        ["sweep", "--seq", "w1.txt", "--eps-count", "2049"],
        ["sweep", "--seq", "w121.json", "--eps-count", "1025", "--format", "json"],
        ["sweep", "--seq", "w222_design.json", "--branch", "5", "--eps-count", "513"],
        ["sweep", "--family", "wn", "--n", "2", "--eps-count", "2049", "--format", "json",
         "--out", OUT]]
    return cases


if __name__ == "__main__":
    corpus_files = files()
    cases = argvs(sorted(corpus_files))
    keys = [" ".join(argv) for argv in cases]
    assert len(set(keys)) == len(keys), "repeated argv"
    assert all(" " not in token for argv in cases for token in argv)
    entries = run_corpus(cases, corpus_files)
    bad = {key: entry for key, entry in entries.items() if not isinstance(entry["exit"], int)}
    assert not bad, bad
    CORPUS.write_text(json.dumps({"files": corpus_files, "cases": entries}, indent=1) + "\n")
    codes = sorted({entry["exit"] for entry in entries.values()})
    print(f"{len(entries)} argvs, exit codes {codes}")
