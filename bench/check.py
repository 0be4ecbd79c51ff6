"""Output checks for benchmark jobs, independent of the code under test.

Every pulse sequence is re-evaluated here as a product of real unit
quaternions (w, x, y, z), standing for the SU(2) element w I - i (x, y, z).sigma.
Nothing in this module imports cpulse: the reference phases for the 3-pulse
families are re-derived from their closed forms, and the five-pulse phases
are read back from the job's own input file or output.

Each checker takes a job and its result and returns a list of problems; an
empty list means the output passed.
"""

import json
import math

import numpy as np

# |cli - reference| allowed for an infidelity: relative part for large values,
# a term for the ~1e-16 absolute error of the vector part, and a floor.
REL_TOL = 1e-9
VEC_TOL = 4e-14
ABS_FLOOR = 1e-27

FD_STEP = 1e-5
DERIV_TOL = 1e-4        # a design point's derivative is ~1e-7 here; a miss is O(0.1)
IDENTITY_TOL = 1e-9     # vector part of the corrector alone at zero error
ORDER_TOL = 0.05
TABLE1_TOL = 0.01
ANALYTIC_C_TOL = 0.01
CROSSOVER_TOL = 2e-6    # crossover bisects to 1e-6

SWEEP_HEADER = "epsilon,fidelity,infidelity"
FIVE_BRANCHES = {(1, 2, 1): 6, (1, 1, 2): 6, (2, 2, 2): 12, (3, 1, 2): 6, (1, 3, 2): 6}
TABLE1_LABELS = ["W1", "W2", "W3", "W121", "W112", "W222"]
TABLE1_PAPER = {"W1": 4.7, "W2": 59.1, "W3": 283.4, "W121": 72.3,
                "W112": 190.6, "W222": 877.8}
VERIFY_NAMES = ["identity_residual", "derivative_residual", "order", "r_squared"]
FIT_WINDOWS = {"order": (1e-3, 10.0 ** -1.5), "coeff": (1e-3, 1e-2)}
FIT_POINTS = 40


# ---------------------------------------------------------------------------
# Reference evaluator
# ---------------------------------------------------------------------------

def compose(pulses, eps):
    """Quaternion of the pulse list (time order) at each error in eps.

    Returns w of shape (n,) and v of shape (3, n).
    """
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    w = np.ones_like(eps)
    v = np.zeros((3, eps.size))
    for angle, phase in pulses:
        half = 0.5 * angle * (1.0 + eps)
        c, s = np.cos(half), np.sin(half)
        a = np.array([s * math.cos(phase), s * math.sin(phase), np.zeros_like(s)])
        # left-multiply: (c - i a.sigma)(w - i v.sigma)
        w, v = c * w - np.sum(a * v, axis=0), c * v + w * a + np.cross(a, v, axis=0)
    return w, v


def infidelity(pulses, theta, alpha, eps):
    """1 - |Tr(V T^dagger)|/2 per error, without cancellation against 1."""
    w, v = compose(pulses, eps)
    ct, st = math.cos(0.5 * theta), math.sin(0.5 * theta)
    t = np.array([st * math.cos(alpha), st * math.sin(alpha), 0.0])[:, None]
    gv = ct * v - w * t - np.cross(v, t, axis=0)
    s = np.minimum(np.sum(gv * gv, axis=0), 1.0)
    return s / (1.0 + np.sqrt(1.0 - s))


def three_pulse_phases(scale, theta, alpha, odd):
    """Closed-form corrector phases: cos(phi1 - alpha) = -theta / (4 scale pi)."""
    phi1 = alpha + math.acos(-theta / (4.0 * scale * math.pi))
    phi2 = 3.0 * phi1 - 2.0 * alpha if odd else 2.0 * alpha - phi1
    return phi1 % (2 * math.pi), phi2 % (2 * math.pi)


def family_pulses(family, k, theta, alpha):
    """Reference corrector pulses for the wm and wn families."""
    if family == "wm":
        phi1, phi2 = three_pulse_phases(k, theta, alpha, odd=k % 2 == 1)
        return [(k * math.pi, phi1), (2 * k * math.pi, phi2), (k * math.pi, phi1)]
    phi1, phi2 = three_pulse_phases(k, theta, alpha, odd=True)
    return [(math.pi, phi1), (2 * math.pi, phi2), (math.pi, phi1)] * k


def full_sequence(corrector, theta, alpha):
    """Target pulse first, then the corrector (the CLI's split = 1)."""
    return [(theta, alpha)] + list(corrector)


def design_problems(corrector, theta, alpha, label):
    """Zero-error identity and a central finite difference of the error
    derivative of the full sequence, both from the reference evaluator."""
    problems = []
    _, v0 = compose(corrector, [0.0])
    if float(np.linalg.norm(v0)) > IDENTITY_TOL:
        problems.append(f"{label}: corrector is not the identity at zero error")
    wp, vp = compose(full_sequence(corrector, theta, alpha), [FD_STEP, -FD_STEP])
    deriv = math.hypot(wp[0] - wp[1], *(vp[:, 0] - vp[:, 1])) / (2 * FD_STEP)
    if not deriv <= DERIV_TOL:
        problems.append(f"{label}: error derivative {deriv:.3g} by finite difference")
    return problems


def fit_power_law(pulses, theta, alpha, window):
    """Order and coefficient of 1 - F on the CLI's 40-point log grid."""
    eps = np.logspace(math.log10(window[0]), math.log10(window[1]), FIT_POINTS)
    slope, intercept = np.polyfit(np.log(eps), np.log(infidelity(pulses, theta, alpha, eps)), 1)
    return float(slope), float(math.exp(intercept))


# ---------------------------------------------------------------------------
# Per-kind checkers
# ---------------------------------------------------------------------------

def sweep_rows(job, out):
    """(epsilon, fidelity, infidelity) strings or floats from CSV or JSON."""
    if job.params["format"] == "json":
        obj = json.loads(out)
        return [(r["epsilon"], r["fidelity"], r["infidelity"]) for r in obj["rows"]]
    lines = out.split("\n")
    if lines[0] != SWEEP_HEADER or lines[-1] != "":
        raise ValueError("CSV header or trailing newline is wrong")
    return [tuple(line.split(",")) for line in lines[1:-1]]


def check_sweep(job, code, out):
    p = job.params
    if code != 0:
        return [f"exit code {code}"]
    rows = sweep_rows(job, out)
    table = np.array(rows, dtype=float).reshape(-1, 3)
    grid = np.linspace(p["eps_min"], p["eps_max"], p["eps_count"])
    if table.shape[0] != grid.size:
        return [f"{table.shape[0]} rows, expected {grid.size}"]
    problems = []
    if p["format"] == "csv":
        if any(r[0] != "%.17g" % e for r, e in zip(rows, grid)):
            problems.append("epsilon column differs from the requested grid")
    elif not np.array_equal(table[:, 0], grid):
        problems.append("epsilon column differs from the requested grid")
    fid, inf = table[:, 1], table[:, 2]
    if np.any(np.abs(fid + inf - 1.0) > 2.3e-16):
        problems.append("fidelity + infidelity != 1")
    ref = infidelity(p["pulses"], p["theta"], p["alpha"], grid)
    tol = REL_TOL * ref + VEC_TOL * np.sqrt(ref) + ABS_FLOOR
    bad = np.nonzero(~(np.abs(inf - ref) <= tol))[0]
    if bad.size:
        i = bad[0]
        problems.append(f"{bad.size} rows off the quaternion reference, first at "
                        f"eps={grid[i]!r}: {inf[i]!r} vs {ref[i]!r}")
    return problems


def design_pulses(job, out):
    """Per-branch pulse lists from design text or JSON output."""
    if job.params["format"] == "json":
        obj = json.loads(out)
        return [[(q["angle"], q["phase"]) for q in b["pulses"]] for b in obj["branches"]]
    branches, current = [], None
    for line in out.splitlines():
        if line.startswith("# pulses"):
            current = []
            branches.append(current)
        elif line.startswith("#") or not line.strip():
            current = None
        elif current is not None:
            a, ph = line.split()
            current.append((float(a), float(ph)))
    return branches


def expected_angles(p):
    if p["family"] == "fivepulse":
        a, b, c = p["pqr"]
        return [a * math.pi, b * math.pi, 2 * c * math.pi, b * math.pi, a * math.pi]
    k = p["k"]
    if p["family"] == "wm":
        return [k * math.pi, 2 * k * math.pi, k * math.pi]
    return [math.pi, 2 * math.pi, math.pi] * k


def check_design(job, code, out):
    p = job.params
    if code != 0:
        return [f"exit code {code}"]
    branches = design_pulses(job, out)
    want = FIVE_BRANCHES[tuple(p["pqr"])] if p["family"] == "fivepulse" else 1
    if len(branches) != want:
        return [f"{len(branches)} branches, expected {want}"]
    problems = []
    angles = expected_angles(p)
    for i, pulses in enumerate(branches):
        if len(pulses) != len(angles) or not np.allclose(
                [a for a, _ in pulses], angles, rtol=0, atol=1e-12):
            problems.append(f"branch {i}: pulse angles differ from the family")
            continue
        problems += design_problems(pulses, p["theta"], p["alpha"], f"branch {i}")
    if p["family"] != "fivepulse" and not problems:
        ref = family_pulses(p["family"], p["k"], p["theta"], p["alpha"])
        d = [abs(math.remainder(a[1] - b[1], 2 * math.pi)) for a, b in zip(branches[0], ref)]
        if max(d) > 1e-9:
            problems.append("phases differ from the closed form")
    return problems


def check_coeff(job, code, out):
    p = job.params
    if code != 0:
        return [f"exit code {code}"]
    obj = json.loads(out) if p["format"] == "json" else dict(
        (k.strip(), v.strip()) for k, v in (line.split("=", 1) for line in out.splitlines()[1:3]))
    order, coeff = float(obj["order"]), float(obj["coefficient"])
    problems = []
    if not abs(order - 6.0) <= ORDER_TOL:
        problems.append(f"order {order} not 6 +- {ORDER_TOL}")
    pulses = full_sequence(family_pulses(p["family"], p["k"], p["theta"], p["alpha"]),
                           p["theta"], p["alpha"])
    ref_order, ref_coeff = fit_power_law(pulses, p["theta"], p["alpha"],
                                         FIT_WINDOWS[p["window"]])
    if not (abs(order - ref_order) <= 1e-6 and abs(coeff - ref_coeff) <= 1e-6 * ref_coeff):
        problems.append(f"fit ({order}, {coeff}) vs reference ({ref_order}, {ref_coeff})")
    return problems


def check_verify(job, code, out):
    p = job.params
    if code != 0:
        return [f"exit code {code}"]
    names = list(VERIFY_NAMES)
    if p["k"] == 1:
        names.append("analytic_coefficient")
    lines = out.splitlines()
    got = [line.split(" ", 2)[:2] for line in lines]
    if got != [["PASS", n + ":"] for n in names]:
        return [f"verify lines {lines!r}"]
    return []


def check_table1(job, code, out):
    if code != 0:
        return [f"exit code {code}"]
    lines = out.split("\n")
    if lines[0] != "label,fitted_C,fitted_order,paper_C,rel_err" or lines[-1] != "":
        return ["table1 header or trailing newline is wrong"]
    problems = []
    rows = [line.split(",") for line in lines[1:-1]]
    if [r[0] for r in rows] != TABLE1_LABELS:
        return [f"table1 labels {[r[0] for r in rows]}"]
    for label, c, order, paper, rel in rows:
        c, order, paper, rel = float(c), float(order), float(paper), float(rel)
        if paper != TABLE1_PAPER[label] or not abs(rel) <= TABLE1_TOL:
            problems.append(f"{label}: rel_err {rel}")
        if abs((c - paper) / paper - rel) > 1e-12 or not abs(order - 6.0) <= ORDER_TOL:
            problems.append(f"{label}: inconsistent row")
    return problems


def check_quickstart(job, code, out):
    p = job.params
    if code != 0:
        return [f"exit code {code}"]
    got, want = json.loads(out), p["expected"]
    problems = []
    for key in ("crossover_bb1", "crossover_w121"):
        a, b = float(got[key]), float(want[key])
        if not (a == b or abs(a - b) <= CROSSOVER_TOL):   # inf only equals inf
            problems.append(f"{key} {got[key]} != recorded {want[key]}")
    if got["w121_branches"] != FIVE_BRANCHES[(1, 2, 1)]:
        problems.append(f"{got['w121_branches']} W121 branches")
    if not abs(got["order"] - 6.0) <= ORDER_TOL:
        problems.append(f"order {got['order']}")
    if not abs(got["c_series"] - got["c_analytic"]) <= ANALYTIC_C_TOL * got["c_analytic"]:
        problems.append(f"p_epsilon C {got['c_series']} vs analytic {got['c_analytic']}")
    problems += design_problems([tuple(x) for x in got["bb1_pulses"]],
                                p["theta"], p["alpha"], "bb1")
    return problems


CHECKERS = {"sweep": check_sweep, "design": check_design, "coeff": check_coeff,
            "verify": check_verify, "table1": check_table1, "quickstart": check_quickstart}


def check(job, code, out):
    """Problems with one job's exit code and stdout; [] when it passed."""
    try:
        return CHECKERS[job.kind](job, code, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:   # malformed output
        return [f"checker could not read the output: {exc!r}"]
