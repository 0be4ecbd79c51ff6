"""Command line front end: design, simulate, sweep, fit, verify, table1.

Exit codes: 0 success, 1 verification failure, 2 infeasible design or bad
input, 3 I/O error.  CSV output is byte-stable for a fixed invocation
(17 significant digits, '\\n' line endings).
"""

import argparse
import json
import math
import re
import sys

import numpy as np

from .analysis import (COEFF_WINDOW, ORDER_WINDOW, fidelity,
                       fit_error_scaling, infidelity, plain_sweep, sweep)
from .bch import analytic_c
from .design import (InfeasibleDesign, derivative_residual, design_five_pulse,
                     design_wm, design_wn, identity_residual,
                     three_pulse_scan)
from .pulses import (Pulse, PulseSequence, TargetRotation, compile_sequence,
                     embed_target, format_sequence, parse_sequence,
                     sequence_from_json, sequence_to_json)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3

# published sixth-order coefficients for a pi-pulse about -X
TABLE1_ROWS = [
    ("W1", ("wm", (1,)), 4.7),
    ("W2", ("wm", (2,)), 59.1),
    ("W3", ("wm", (3,)), 283.4),
    ("W121", ("fivepulse", (1, 2, 1)), 72.3),
    ("W112", ("fivepulse", (1, 1, 2)), 190.6),
    ("W222", ("fivepulse", (2, 2, 2)), 877.8),
]
TABLE1_TOL = 0.01
# sweep rows per write: a write per row is a syscall each on unbuffered
# stdout, one string for the whole sweep costs its size in memory
SWEEP_BLOCK = 1024

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
    """(sequence, embedded target or None) from a pulse file.  A `design
    --format json` file holds a 'branches' list; --branch picks the entry."""
    with open(path) as fh:
        if not path.endswith(".json"):
            return parse_sequence(fh.read()), None
        obj = json.load(fh)
    if isinstance(obj, dict) and "branches" in obj:
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
    if args.family == "fivepulse":
        return design_five_pulse(args.p, args.q, args.r, target)
    raise ValueError(f"family {args.family!r} has no designed phases")


def _resolve_sequence(args):
    """Corrector sequence, label and target for commands taking any source."""
    if getattr(args, "seq", None):
        seq, embedded = _load_sequence(args.seq, args.branch)
        return seq, "file", _target(args, embedded)
    target = _target(args)
    if args.family == "plain":
        return None, "plain", target
    res = _pick_branch(_design_results(args, target), args.branch)
    return res.sequence, res.label, target


def _result_json(res, target):
    return {
        "label": res.label,
        "phases": list(res.phases),
        "mirror_phases": None if res.mirror_phases is None else list(res.mirror_phases),
        "identity_residual": res.identity_residual,
        "derivative_residual": res.derivative_residual,
        "pulses": sequence_to_json(res.sequence, target)["pulses"],
    }


def cmd_design(args) -> int:
    target = _target(args)
    results = _design_results(args, target)
    if args.format == "json":
        obj = {
            "family": args.family,
            "target": {"theta": target.theta, "alpha": target.alpha},
            "branches": [_result_json(r, target) for r in results],
        }
        _write(args, json.dumps(obj, indent=2) + "\n")
        return EXIT_OK
    lines = [f"# {results[0].label} target: theta={_fmt(target.theta)} "
             f"alpha={_fmt(target.alpha)}"]
    for i, res in enumerate(results):
        if len(results) > 1:
            lines.append(f"# branch {i + 1} of {len(results)}")
        for j, phi in enumerate(res.phases, start=1):
            lines.append("phi%d = %s rad   %.6f deg" % (j, _fmt(phi), math.degrees(phi)))
        if res.mirror_phases is not None:
            lines.append("mirror: " + " ".join(_fmt(p) for p in res.mirror_phases))
        lines.append("identity_residual   = %.3g" % res.identity_residual)
        lines.append("derivative_residual = %.3g" % res.derivative_residual)
        lines.append("# pulses (angle_rad phase_rad), time order:")
        lines.append(format_sequence(res.sequence).rstrip("\n"))
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_simulate(args) -> int:
    seq, label, target = _resolve_sequence(args)
    if seq is None:
        full = PulseSequence((Pulse(target.theta, target.alpha),))
    else:
        full = embed_target(seq, target, args.split)
    u = compile_sequence(full, args.eps)
    ideal = target.unitary()
    fid = fidelity(u, ideal)
    infid = infidelity(u, ideal)
    if args.format == "json":
        obj = {
            "label": label,
            "epsilon": args.eps,
            "matrix": [[[u[i, j].real, u[i, j].imag] for j in range(2)]
                       for i in range(2)],
            "fidelity": fid,
            "infidelity": infid,
        }
        _write(args, json.dumps(obj, indent=2) + "\n")
        return EXIT_OK
    lines = [f"# {label} compiled at epsilon = {_fmt(args.eps)}"]
    for i in range(2):
        lines.append("  ".join(
            "%s%s%sj" % (_fmt(u[i, j].real),
                         "+" if u[i, j].imag >= 0 else "-",
                         _fmt(abs(u[i, j].imag)))
            for j in range(2)))
    lines.append("fidelity   = " + _fmt(fid))
    lines.append("infidelity = " + _fmt(infid))
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.eps_count < 2 or not args.eps_min < args.eps_max:
        raise ValueError("grid needs eps-min < eps-max and at least 2 points")
    grid = np.linspace(args.eps_min, args.eps_max, args.eps_count)
    seq, label, target = _resolve_sequence(args)
    if seq is None:
        table = plain_sweep(target, grid)
    else:
        table = sweep(seq, target, grid, split=args.split, label=label)
    _write(args, _sweep_blocks(table, args.format == "json"))
    return EXIT_OK


def _sweep_blocks(table, as_json: bool):
    """Sweep output in blocks of SWEEP_BLOCK rows rendered from Python floats;
    for the finite floats of a sweep, %r is json's float repr."""
    cols = (table.epsilons.tolist(), table.fidelities.tolist(), table.infidelities.tolist())
    head, row, sep, tail = (
        ('{\n  "label": %s,\n  "rows": [\n' % json.dumps(table.label),
         '    {\n      "epsilon": %r,\n      "fidelity": %r,\n      "infidelity": %r\n    }',
         ",\n", "\n  ]\n}\n") if as_json else
        ("epsilon,fidelity,infidelity\n", "%.17g,%.17g,%.17g", "\n", "\n"))
    yield head
    for k in range(0, len(cols[0]), SWEEP_BLOCK):
        rows = zip(*(c[k:k + SWEEP_BLOCK] for c in cols))
        yield (sep if k else "") + sep.join(row % r for r in rows)
    yield tail


def cmd_coeff(args) -> int:
    seq, label, target = _resolve_sequence(args)
    window = COEFF_WINDOW if args.window == "coeff" else ORDER_WINDOW
    if seq is None:
        bare = PulseSequence((Pulse(target.theta, target.alpha),))
        report = fit_error_scaling(bare, target, window, embed=False)
    else:
        report = fit_error_scaling(seq, target, window)
    if args.format == "json":
        obj = {"label": label, "order": report.order,
               "coefficient": report.coefficient, "r_squared": report.r_squared,
               "window": list(report.window), "n_points": report.n_points}
        _write(args, json.dumps(obj, indent=2) + "\n")
        return EXIT_OK
    _write(args, "\n".join([
        f"# {label}",
        "order       = " + _fmt(report.order),
        "coefficient = " + _fmt(report.coefficient),
        "r_squared   = " + _fmt(report.r_squared),
        "window      = [%s, %s]" % (_fmt(report.window[0]), _fmt(report.window[1])),
    ]) + "\n")
    return EXIT_OK


def _table1_fit(kind, target):
    """Fit reports for one table row; five-pulse rows carry one report per
    phase branch."""
    family, ps = kind
    if family == "wm":
        results = [design_wm(ps[0], target)]
    else:
        results = design_five_pulse(*ps, target)
    fits = [fit_error_scaling(r.sequence, target, COEFF_WINDOW) for r in results]
    return results, fits


def cmd_table1(args) -> int:
    target = TargetRotation(math.pi, math.pi)
    lines = ["label,fitted_C,fitted_order,paper_C,rel_err"]
    failures = []
    for label, kind, paper_c in TABLE1_ROWS:
        _, fits = _table1_fit(kind, target)
        best = min(fits, key=lambda f: abs(f.coefficient - paper_c))
        rel = (best.coefficient - paper_c) / paper_c
        lines.append(",".join((label, _fmt(best.coefficient), _fmt(best.order),
                               _fmt(paper_c), _fmt(rel))))
        if abs(rel) > TABLE1_TOL:
            failures.append((label, rel))
    _write(args, "\n".join(lines) + "\n")
    if failures:
        for label, rel in failures:
            print(f"FAIL {label}: relative error {rel:+.4%} exceeds "
                  f"{TABLE1_TOL:.0%}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _verify_checks(seq, target):
    """(name, passed, detail) rows for one corrector sequence."""
    checks = []
    ident = identity_residual(seq)
    checks.append(("identity_residual", ident < 1e-12, "%.3g" % ident))
    deriv = derivative_residual(seq, target)
    checks.append(("derivative_residual", deriv < 1e-9, "%.3g" % deriv))
    report = fit_error_scaling(seq, target, ORDER_WINDOW)
    checks.append(("order", abs(report.order - 6.0) <= 0.05,
                   "%.4f" % report.order))
    checks.append(("r_squared", report.r_squared > 0.9999,
                   "%.8f" % report.r_squared))
    angles = seq.angles
    if len(seq) == 3 and np.allclose(angles, [math.pi, 2 * math.pi, math.pi]):
        cfit = fit_error_scaling(seq, target, COEFF_WINDOW).coefficient
        cref = analytic_c(seq.pulses[1].phase - seq.pulses[0].phase)
        ok = cref > 0 and abs(cfit - cref) / cref < 0.01
        checks.append(("analytic_coefficient", ok,
                       "fit %.6g vs analytic %.6g" % (cfit, cref)))
    return checks


def cmd_verify(args) -> int:
    lines = []
    all_ok = True
    if args.scan:
        target = TargetRotation(math.pi, 0.0)
        rows = three_pulse_scan(target)
        bad = [g for g, res in rows
               if (res < 1e-9) != (min(abs(g - math.pi), abs(g - 2 * math.pi)) <= 0.02)]
        ok = not bad
        all_ok &= ok
        lines.append("%s three_pulse_scan: flat residual only at pi multiples"
                     % ("PASS" if ok else "FAIL"))
    else:
        seq, _, target = _resolve_sequence(args)
        if seq is None:
            raise ValueError("verify needs a designed family or --seq file")
        for name, ok, detail in _verify_checks(seq, target):
            all_ok &= ok
            lines.append("%s %s: %s" % ("PASS" if ok else "FAIL", name, detail))
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK if all_ok else EXIT_VERIFY


def _add_target_args(p):
    p.add_argument("--theta", help="target angle, radians or pi form "
                                   "(default: the --seq file's, else pi)")
    p.add_argument("--alpha", help="target axis azimuth (default: the --seq file's, else 0)")


def _add_family_args(p, with_plain=False):
    choices = ["wn", "wm", "fivepulse"] + (["plain"] if with_plain else [])
    p.add_argument("--family", choices=choices, default="wm")
    p.add_argument("--n", type=int, default=1, help="repeat count for wn")
    p.add_argument("--m", type=int, default=1, help="angle scale for wm")
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--r", type=int, default=1)


def _add_common_output(p):
    p.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpulse",
        description="Composite pulse sequences robust to pulse-length errors")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="solve family phases")
    _add_family_args(p)
    _add_target_args(p)
    _add_common_output(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("simulate", help="compile a sequence at one error value")
    _add_family_args(p, with_plain=True)
    _add_target_args(p)
    _add_common_output(p)
    p.add_argument("--seq", default=None, help="pulse file (.txt or .json)")
    p.add_argument("--branch", type=int, default=0)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--split", type=float, default=1.0)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="fidelity vs error CSV")
    _add_family_args(p, with_plain=True)
    _add_target_args(p)
    _add_common_output(p)
    p.add_argument("--seq", default=None)
    p.add_argument("--branch", type=int, default=0)
    p.add_argument("--split", type=float, default=1.0)
    p.add_argument("--eps-min", type=float, default=0.0)
    p.add_argument("--eps-max", type=float, default=0.3)
    p.add_argument("--eps-count", type=int, default=60)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("coeff", help="fit the infidelity power law")
    _add_family_args(p, with_plain=True)
    _add_target_args(p)
    _add_common_output(p)
    p.add_argument("--seq", default=None)
    p.add_argument("--branch", type=int, default=0)
    p.add_argument("--window", choices=["order", "coeff"], default="order")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_coeff)

    p = sub.add_parser("verify", help="run the invariant checks")
    _add_family_args(p)
    _add_target_args(p)
    _add_common_output(p)
    p.add_argument("--seq", default=None)
    p.add_argument("--branch", type=int, default=0)
    p.add_argument("--scan", action="store_true",
                   help="run the 3-pulse exhaustiveness scan instead")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table1", help="reproduce the published coefficients")
    _add_common_output(p)
    p.set_defaults(func=cmd_table1)

    return parser


def _join_signed_angles(argv):
    """'--alpha -pi/2' -> '--alpha=-pi/2': argparse reads a token that
    starts with '-' and is not a plain number as an option.  A prefix that
    argparse expands to the flag ('--alph', '--th') is joined the same way."""
    out = []
    for token in argv:
        if (out and len(out[-1]) > 2 and any(f.startswith(out[-1]) for f in ("--theta", "--alpha"))
                and token.startswith("-") and _PI_FORM.match(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_signed_angles(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except InfeasibleDesign as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
