"""Command line front end: design, simulate, sweep, coeff, verify, table1.

A source is a designed family, --family plain or a --seq file.  simulate,
sweep and coeff resolve it once to the error-bearing pulse list: the bare
target pulse for plain, else the corrector placed inside the target.
design, simulate and coeff print text or, with --format json, one object.

simulate makes one pass of the one-point kernel, pulses._jet: it prints the
matrix (compile_sequence's bit for bit) and its pulses._entry_overlap.  sweep
builds the many-point kernel, pulses._overlap_at, once and streams the library
sweep's rows from it bit for bit, over a grid generated point by point and
walked once, rendered SWEEP_BLOCK rows at a time by one %-format.  No command
imports numpy, and only JSON input or output loads json.

Exit codes: 0 success, 1 verification failure, 2 infeasible design or bad
input, 3 I/O error.  CSV output is byte-stable for a fixed invocation
(17 significant digits, '\\n' line endings).
"""

import argparse
import math
import re
import sys
from itertools import chain, islice, pairwise

from .analysis import COEFF_WINDOW, ORDER_WINDOW, _lin_grid, fit_error_scaling
from .bch import analytic_c
from .design import (InfeasibleDesign, _residuals, _scan, constraint_checks, design_five_pulse,
                     design_wm, design_wn)
from .pulses import (MAX_MULTIPLE, Pulse, PulseSequence, TargetRotation, _count, _entry_overlap,
                     _jet, _overlap_at, _target_conj, embed_target, format_sequence,
                     parse_sequence, sequence_from_json, sequence_to_json)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3

# (family, integers, branch, paper C): published sixth-order coefficients for
# a pi-pulse about -X, each row labelled by its design.  A five-pulse row
# names its branch in design_five_pulse's sorted order: the one whose
# COEFF_WINDOW fit lies nearest the paper's value (lower-C branches exist)
TABLE1_ROWS = [("wm", (1,), 0, 4.7), ("wm", (2,), 0, 59.1), ("wm", (3,), 0, 283.4),
               ("fivepulse", (1, 2, 1), 1, 72.3), ("fivepulse", (1, 1, 2), 4, 190.6),
               ("fivepulse", (2, 2, 2), 0, 877.8)]
TABLE1_TOL = 0.01
# sweep rows per write: a write per row is a syscall each on unbuffered
# stdout, one string for the whole sweep costs its size in memory.  A block
# in flight is its floats in one tuple, its template and text (~34 kB in JSON)
SWEEP_BLOCK = 256
# --n, --m, --p, --q and --r meet pulses._count before any work, flags the family
# ignores included, and --eps-count its cap: a job's time and memory grow linearly
# with --n and --eps-count, so one unbounded argument can ask for days or all memory.
MAX_EPS_COUNT = 10 ** 6
# A sweep grid with a coarser step is not walked for repeats: with -1 < lo <
# hi < 1 every point, hi too, lies within 3.3e-16 of lo + k * step (roundings
# of values below 2), so neighbours differ by at least step - 6.7e-16 > 0.
DISTINCT_STEP = 1e-15

_PI_FORM = re.compile(
    r"^(?P<sign>[+-]?)(?P<coeff>\d+(?:\.\d*)?|\.\d+)?pi(?:/(?P<div>\d+(?:\.\d*)?))?$",
    re.IGNORECASE)


def parse_angle(text: str) -> float:
    """Angles as decimal radians or pi forms: 'pi', '2pi', 'pi/2', '3pi/4'."""
    s = str(text).strip().replace(" ", "")
    m = _PI_FORM.match(s)
    if m:
        div = float(m.group("div") or 1.0)
        if div == 0.0:
            raise ValueError(f"cannot parse angle {text!r}: division by zero")
        value = float(m.group("coeff") or 1.0) * math.pi / div
        return -value if m.group("sign") == "-" else value
    try:
        return float(s)
    except ValueError:
        raise ValueError(f"cannot parse angle {text!r}") from None


def _fmt(x: float) -> str:
    return "%.17g" % x


def _write(args, text) -> None:
    """Write a string, or an iterable of string blocks, to --out or stdout."""
    blocks = [text] if isinstance(text, str) else text
    if getattr(args, "out", None):
        with open(args.out, "w", newline="") as fh:
            fh.writelines(blocks)
    else:
        sys.stdout.writelines(blocks)


def _target(args, embedded=None) -> TargetRotation:
    """Target from --theta/--alpha; an unset flag falls back to the sequence
    file's embedded target, else to pi about X.  A set flag must agree."""
    base = embedded or TargetRotation(math.pi, 0.0)
    target = TargetRotation(
        base.theta if args.theta is None else parse_angle(args.theta),
        base.alpha if args.alpha is None else parse_angle(args.alpha))
    if embedded is not None and target != embedded:
        raise ValueError(f"--theta/--alpha give {target}, "
                         f"but the sequence file holds {embedded}")
    return target


def _pick_branch(branches, branch: int):
    if not 0 <= branch < len(branches):
        raise ValueError(f"branch {branch} out of range (found {len(branches)})")
    return branches[branch]


def _load_sequence(path: str, branch: int):
    """(sequence, embedded target or None) from a pulse file.  --branch picks
    from a `design --format json` file's 'branches' list, else a one-entry one."""
    with open(path) as fh:
        if not path.endswith(".json"):
            return _pick_branch([parse_sequence(fh.read())], branch), None
        import json
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValueError("sequence JSON is nested too deeply to parse") from None
    if not (isinstance(obj, dict) and "branches" in obj):
        return sequence_from_json(_pick_branch([obj], branch))
    if not isinstance(obj["branches"], list):
        raise ValueError("'branches' must be a list")
    entry = _pick_branch(obj["branches"], branch)
    if not isinstance(entry, dict):
        raise ValueError(f"branches[{branch}] must be an object")
    obj["pulses"] = entry.get("pulses")
    return sequence_from_json(obj)


def _design_results(args, target):
    if args.family == "wn":
        return [design_wn(args.n, target)]
    if args.family == "wm":
        return [design_wm(args.m, target)]
    return design_five_pulse(args.p, args.q, args.r, target)


def _source(args, embed: bool = True):
    """Pulse list, label and target: entry --branch of --seq, else of --family
    plain (the bare target pulse, --split checked), else of the design; with
    embed, a corrector goes inside the target at --split (1.0 without one)."""
    split = getattr(args, "split", 1.0)
    if args.seq:
        seq, embedded = _load_sequence(args.seq, args.branch)
        label, target = "file", _target(args, embedded)
    else:
        target = _target(args)
        if args.family == "plain":
            if not 0.0 <= split <= 1.0:
                raise ValueError("split must lie in [0, 1]")
            bare = PulseSequence((Pulse(target.theta, target.alpha),))
            return _pick_branch([bare], args.branch), "plain", target
        res = _pick_branch(_design_results(args, target), args.branch)
        seq, label = res.sequence, res.label
    return (embed_target(seq, target, split) if embed else seq), label, target


def _emit(args, obj, lines) -> int:
    """Write obj as indented JSON under --format json, else the text lines."""
    if args.format == "json":
        import json
        lines = [json.dumps(obj, indent=2)]
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_design(args) -> int:
    target = _target(args)
    results = _design_results(args, target)
    branches = []
    lines = [f"# {results[0].label} target: theta={_fmt(target.theta)} "
             f"alpha={_fmt(target.alpha)}"]
    for i, res in enumerate(results):
        # the residuals _validated judged the design by
        residuals = {"identity_residual": res.identity_residual,
                     "derivative_residual": res.derivative_residual}
        branches.append({
            "label": res.label,
            "phases": list(res.phases),
            "mirror_phases": None if res.mirror_phases is None else list(res.mirror_phases),
            **residuals,
            "pulses": sequence_to_json(res.sequence)["pulses"],
        })
        if len(results) > 1:
            lines.append(f"# branch {i + 1} of {len(results)}")
        for j, phi in enumerate(res.phases, start=1):
            lines.append("phi%d = %s rad   %.6f deg" % (j, _fmt(phi), math.degrees(phi)))
        if res.mirror_phases is not None:
            lines.append("mirror: " + " ".join(_fmt(p) for p in res.mirror_phases))
        lines += ["%-19s = %.3g" % item for item in residuals.items()]
        lines.append("# pulses (angle_rad phase_rad), time order:")
        lines.append(format_sequence(res.sequence).rstrip("\n"))
    obj = {"family": args.family, "target": {"theta": target.theta, "alpha": target.alpha},
           "branches": branches}
    return _emit(args, obj, lines)


def cmd_simulate(args) -> int:
    full, label, target = _source(args)
    # one pass of the scalar kernel: the printed matrix is compile_sequence's
    # bit for bit, and its overlap the pair evaluator's (tests/test_pair_kernel.py)
    u = _jet(full, args.eps)[:4]
    fid, infid = _entry_overlap(*u, _target_conj(target))
    rows = (u[:2], u[2:])
    obj = {
        "label": label,
        "epsilon": args.eps,
        "matrix": [[[z.real, z.imag] for z in row] for row in rows],
        "fidelity": fid,
        "infidelity": infid,
    }
    lines = [f"# {label} compiled at epsilon = {_fmt(args.eps)}"]
    for row in rows:
        lines.append("  ".join(
            "%s%s%sj" % (_fmt(z.real), "+" if z.imag >= 0 else "-", _fmt(abs(z.imag)))
            for z in row))
    lines.append("fidelity   = " + _fmt(fid))
    lines.append("infidelity = " + _fmt(infid))
    return _emit(args, obj, lines)


def cmd_sweep(args) -> int:
    """Rows of sweep(full, target, numpy.linspace(...), embed=False) bit for
    bit, streamed from the scalar kernel without building an array."""
    if args.eps_count > MAX_EPS_COUNT:
        raise ValueError(f"--eps-count must be at most {MAX_EPS_COUNT}")
    # the error model's own domain: the kernel rejects |eps| >= 1, and a
    # finite grid wider than that overflows the grid's step
    if args.eps_count < 2 or not -1.0 < args.eps_min < args.eps_max < 1.0:
        raise ValueError("grid needs finite -1 < eps-min < eps-max < 1 and at least 2 points")
    full, label, target = _source(args)
    grid = (args.eps_min, args.eps_max, args.eps_count)
    # nothing may fail once output starts, so two checks come first: every
    # pulse angle is largest at eps-max, where an overflow would show, and a
    # grid that rounds to repeated points gets SweepTable's message
    at = _overlap_at(full, target)
    at(args.eps_max)
    if ((args.eps_max - args.eps_min) / (args.eps_count - 1) <= DISTINCT_STEP
            and any(b <= a for a, b in pairwise(_lin_grid(*grid)))):
        raise ValueError("epsilon grid must be nonempty and strictly increasing")
    _write(args, _sweep_blocks(label, _sweep_rows(at, _lin_grid(*grid)), args.format == "json"))
    return EXIT_OK


def _sweep_rows(at, grid):
    """(epsilon, fidelity, infidelity) per error of the grid, as Python
    floats, from at = _overlap_at(full, target): sweep(full, target, grid,
    embed=False)'s columns bit for bit."""
    for e in grid:
        infid = at(e)[1]
        yield e, 1.0 - infid, infid


def _sweep_blocks(label, rows, as_json: bool):
    """Sweep output from (epsilon, fidelity, infidelity) float rows, rendered
    lazily, one %-format per block of SWEEP_BLOCK rows: their floats as one
    flat tuple into a template of as many rows, each led by the separator
    but the sweep's first.  For a sweep's finite floats, %r is json's repr."""
    if as_json:
        import json
    head, row, sep, tail = (
        ('{\n  "label": %s,\n  "rows": [\n' % json.dumps(label),
         '    {\n      "epsilon": %r,\n      "fidelity": %r,\n      "infidelity": %r\n    }',
         ",\n", "\n  ]\n}\n") if as_json else
        ("epsilon,fidelity,infidelity\n", "%.17g,%.17g,%.17g", "\n", "\n"))
    yield head
    rows, skip = iter(rows), len(sep)
    while flat := tuple(chain.from_iterable(islice(rows, SWEEP_BLOCK))):
        yield ((sep + row) * (len(flat) // 3))[skip:] % flat
        skip = 0
    yield tail


def cmd_coeff(args) -> int:
    full, label, target = _source(args)
    window = COEFF_WINDOW if args.window == "coeff" else ORDER_WINDOW
    report = fit_error_scaling(full, target, window, embed=False)
    obj = {"label": label, "order": report.order,
           "coefficient": report.coefficient, "r_squared": report.r_squared,
           "window": list(report.window), "n_points": report.n_points}
    return _emit(args, obj, [
        f"# {label}",
        "order       = " + _fmt(report.order),
        "coefficient = " + _fmt(report.coefficient),
        "r_squared   = " + _fmt(report.r_squared),
        "window      = [%s, %s]" % (_fmt(report.window[0]), _fmt(report.window[1])),
    ])


def cmd_table1(args) -> int:
    target = TargetRotation(math.pi, math.pi)
    lines = ["label,fitted_C,fitted_order,paper_C,rel_err"]
    failures = []
    for family, ps, branch, paper_c in TABLE1_ROWS:
        results = [design_wm(ps[0], target)] if family == "wm" else design_five_pulse(*ps, target)
        res = results[branch]
        fit = fit_error_scaling(res.sequence, target, COEFF_WINDOW)
        rel = (fit.coefficient - paper_c) / paper_c
        lines.append(",".join((res.label, _fmt(fit.coefficient), _fmt(fit.order),
                               _fmt(paper_c), _fmt(rel))))
        if abs(rel) > TABLE1_TOL:
            failures.append((res.label, rel))
    _write(args, "\n".join(lines) + "\n")
    if failures:
        for label, rel in failures:
            print(f"FAIL {label}: relative error {rel:+.4%} exceeds "
                  f"{TABLE1_TOL:.0%}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(args) -> int:
    """PASS/FAIL lines for the 3-pulse scan, or for one corrector sequence."""
    if args.scan:
        if args.seq is not None or args.branch:
            raise ValueError("--scan reads only --theta, --alpha and --out, not --seq/--branch")
        target = _target(args)
        # a row is flat when it passes the derivative check at the split's total angle theta + 4 pi
        ok = all(constraint_checks(0.0, res, target.theta + 2 * math.tau)[1][1] == (g == math.pi)
                 for g, res in _scan(target))
        checks = [("three_pulse_scan", ok, "flat residual only at pi multiples")]
    else:
        seq, _, target = _source(args, embed=False)
        checks = [(name, ok, "%.3g" % value)
                  for name, ok, value in constraint_checks(*_residuals(seq, target))]
        report = fit_error_scaling(seq, target, ORDER_WINDOW)
        checks += [("order", abs(report.order - 6.0) <= 0.05, "%.4f" % report.order),
                   ("r_squared", report.r_squared > 0.9999, "%.8f" % report.r_squared)]
        # analytic_c's inputs within 1e-8: the (pi, 2 pi, pi) angles, one outer phase
        if len(seq) == 3 and all(abs(d) <= 1e-8 for d in (
                *(p.angle - a for p, a in zip(seq, (math.pi, math.tau, math.pi))),
                math.remainder(seq.pulses[2].phase - seq.pulses[0].phase, math.tau))):
            cfit = fit_error_scaling(seq, target, COEFF_WINDOW).coefficient
            cref = analytic_c(seq.pulses[1].phase - seq.pulses[0].phase)
            ok = cref > 0 and abs(cfit - cref) / cref <= TABLE1_TOL
            checks.append(("analytic_coefficient", ok,
                           "fit %.6g vs analytic %.6g" % (cfit, cref)))
    _write(args, "".join("%s %s: %s\n" % ("PASS" if ok else "FAIL", name, detail)
                         for name, ok, detail in checks))
    return EXIT_OK if all(ok for _, ok, _ in checks) else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpulse",
        description="Composite pulse sequences robust to pulse-length errors")
    sub = parser.add_subparsers(dest="command", required=True)
    split = ("--split", {"type": float, "default": 1.0})
    # name, help, handler, extra --family choice, --seq keywords (None: no
    # --seq/--branch), options after --branch, --format choices (None: none)
    for name, help_, func, plain, seq, options, formats in (
            ("design", "solve family phases", cmd_design, [], None, (), ["text", "json"]),
            ("simulate", "compile a sequence at one error value", cmd_simulate, ["plain"],
             {"help": "pulse file (.txt or .json)"},
             (("--eps", {"type": float, "default": 0.0}), split), ["text", "json"]),
            ("sweep", "fidelity vs error CSV", cmd_sweep, ["plain"], {},
             (split, ("--eps-min", {"type": float, "default": 0.0}),
              ("--eps-max", {"type": float, "default": 0.3}),
              ("--eps-count", {"type": int, "default": 60,
                               "help": f"grid points, 2 to {MAX_EPS_COUNT}"})),
             ["csv", "json"]),
            ("coeff", "fit the infidelity power law", cmd_coeff, ["plain"], {},
             (("--window", {"choices": ["order", "coeff"], "default": "order"}),),
             ["text", "json"]),
            ("verify", "run the invariant checks", cmd_verify, [], {},
             (("--scan", {"action": "store_true", "help": "run the 3-pulse exhaustiveness "
                          "scan instead; it reads only --theta, --alpha and --out"}),), None)):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--family", choices=["wn", "wm", "fivepulse"] + plain, default="wm")
        p.add_argument("--n", type=int, default=1,
                       help=f"repeat count for wn, at most {MAX_MULTIPLE}")
        p.add_argument("--m", type=int, default=1,
                       help=f"angle scale for wm, at most {MAX_MULTIPLE}")
        for flag, default in (("--p", 1), ("--q", 2), ("--r", 1)):
            p.add_argument(flag, type=int, default=default,
                           help=f"fivepulse angle multiple, at most {MAX_MULTIPLE}")
        p.add_argument("--theta", help="target angle, radians or pi form "
                                       "(default: the --seq file's, else pi)")
        p.add_argument("--alpha", help="target axis azimuth (default: the --seq file's, else 0)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if seq is not None:
            p.add_argument("--seq", default=None, **seq)
            p.add_argument("--branch", type=int, default=0)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        if formats:
            p.add_argument("--format", choices=formats, default=formats[0])
        p.set_defaults(func=func)

    p = sub.add_parser("table1", help="reproduce the published coefficients")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_table1)

    return parser


def _join_signed_values(argv):
    """'--alpha -pi/2' -> '--alpha=-pi/2', '--eps-min -1e-3' -> '--eps-min=-1e-3':
    argparse reads a '-'-led token that is not a plain number ('-1', '-.5') as
    an option.  A pi form or a float is joined to --theta, --alpha, --eps-min,
    --eps-max, --split or a prefix argparse expands ('--alph', '--eps-mi')."""
    out = []
    for token in argv:
        out.append(token)
        if len(out) > 1 and len(out[-2]) > 2 and token.startswith("-") and any(
                f.startswith(out[-2]) for f in ("--theta", "--alpha", "--eps-min", "--eps-max",
                                                "--split")):
            if not _PI_FORM.match(token):
                try:
                    float(token)
                except ValueError:
                    continue
            out[-2:] = [out[-2] + "=" + token]
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        for name in "nmpqr":
            _count(getattr(args, name, 1), "--" + name)
        return args.func(args)
    except InfeasibleDesign as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
