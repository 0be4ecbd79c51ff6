"""Fidelity evaluation, error sweeps, scaling fits and crossover search."""

from __future__ import annotations

import math
from collections import namedtuple

from ._numpy import np
from .pulses import Pulse, PulseSequence, TargetRotation, compile_sequence, embed_target
from .su2 import _entries, _split

# Log-spaced fit window for the scaling *order*: below 1e-3 the infidelity of
# a 6th-order sequence sinks toward the numerical floor, above 10^-1.5 the
# next-order term starts to bend the line.
ORDER_WINDOW = (1e-3, 10.0 ** -1.5)
# Narrower top for *coefficient* extraction: at eps = 1e-2 the next-order
# contamination is ~1e-4 relative, well inside the 1% comparisons.
COEFF_WINDOW = (1e-3, 1e-2)

FIT_POINTS = 40

# Fit windows stop here: against a 50-digit oracle (tests/test_analysis.py)
# infidelity's relative error is at most 1.0e-6 for 1 - F >= 1e-20 (W1, W2,
# W222 at three targets) and reaches 6e-6 just below.
INFIDELITY_FLOOR = 1e-20


class FitWindowError(ValueError):
    """Raised when a fit window reaches the numerical infidelity floor."""


class NotSuperior(ValueError):
    """Raised when a sequence does not beat the bare pulse at small error."""


def _entry_overlap(v00, v01, v10, v11, uc) -> tuple:
    """(fidelity, infidelity) of v = [[v00, v01], [v10, v11]] against u,
    uc = u.conj().tolist(), from the Python-scalar entries of
    g = v u-dagger = w I - i s.sigma.  1 - |w| is |s|^2 / (1 + |w|), with w
    and s from the split: both are accurate to ~1e-16 absolute, near a
    global phase and near fidelity 0 alike.
    """
    (u00, u01), (u10, u11) = uc
    g = (v00 * u00 + v01 * u01, v00 * u10 + v01 * u11,
         v10 * u00 + v11 * u01, v10 * u10 + v11 * u11)
    w, x, y, z = _split(*g)
    return 0.5 * abs(g[0] + g[3]), (x * x + y * y + z * z) / (1.0 + abs(w))


def _overlap(v: np.ndarray, uc) -> tuple:
    """_entry_overlap of the 2x2 array v."""
    (v00, v01), (v10, v11) = v.tolist()
    return _entry_overlap(v00, v01, v10, v11, uc)


def _target_conj(target: TargetRotation) -> tuple:
    """target.unitary().conj().tolist() as Python scalars, without an array."""
    (a, b), (c, d) = _entries(target.theta, math.cos(target.alpha), math.sin(target.alpha))
    return (a, b.conjugate()), (c.conjugate(), d)


def _overlap_at(full: PulseSequence, target: TargetRotation):
    """e -> (fidelity, infidelity) of the sequence at error e against the
    target: _entry_overlap(*_jet(full, e, 0), _target_conj(target)) float bit
    for bit, with _jet's checks and messages.  It carries the pair (a, b) of
    U = [[a, b], [-conj(b), conj(a)]] as four floats, and each phase's trig
    once.  Complex products are spelled out in CPython's order, negations
    folded in: only a zero's sign can differ, which moduli and squares drop."""
    (angle0, cp0, sp0), *rest = [(p.angle, math.cos(p.phase), math.sin(p.phase)) for p in full]
    longest = max(p.angle for p in full)
    (u00, u01), (u10, u11) = _target_conj(target)   # u00 and u11 are real
    u01r, u01i, u10r, u10i = u01.real, u01.imag, u10.real, u10.imag

    def at(e: float) -> tuple:
        if not math.isfinite(e) or abs(e) >= 1.0:
            raise ValueError("fractional error must satisfy |epsilon| < 1")
        scale = 1.0 + e
        # angle * scale grows with angle, so the longest pulse overflows first
        if not math.isfinite(longest * scale):
            raise ValueError("rotation angles must be finite")
        s = math.sin(half := 0.5 * (angle0 * scale))   # the first pulse alone
        ar, ai, br, bi = math.cos(half), 0.0, -s * sp0, -s * cp0
        for angle, cp, sp in rest:   # (a, b) -> (c a + r conj(b), c b - r conj(a)), r = x + i y
            half = 0.5 * (angle * scale)
            c, s = math.cos(half), math.sin(half)
            x, y = s * sp, s * cp
            ar, ai, br, bi = (c * ar + (x * br + y * bi), c * ai - (x * bi - y * br),
                              c * br - (x * ar + y * ai), c * bi + (x * ai - y * ar))
        g0r, g0i = ar * u00 + (br * u01r - bi * u01i), ai * u00 + (br * u01i + bi * u01r)
        g1r, g1i = (ar * u10r - ai * u10i) + br * u11, (ar * u10i + ai * u10r) + bi * u11
        w = abs(g0r)
        return w, (g1i * g1i + g1r * g1r + g0i * g0i) / (1.0 + w)

    return at


def fidelity(v: np.ndarray, u: np.ndarray) -> float:
    """Trace overlap |Tr(v u-dagger)| / 2 from scalar entries; blind to global phase."""
    return _overlap(v, u.conj().tolist())[0]


def infidelity(v: np.ndarray, u: np.ndarray) -> float:
    """1 - fidelity(v, u), computed without cancellation even far below
    double rounding.  Valid for the SU(2) matrices produced by this library."""
    return _overlap(v, u.conj().tolist())[1]


class SweepTable(namedtuple("SweepTable", "epsilons fidelities infidelities label")):
    """Fidelity (and precision-preserving infidelity) per error value."""

    __slots__ = ()

    def __new__(cls, epsilons, fidelities, infidelities, label="sequence"):
        eps = np.asarray(epsilons, dtype=float)
        if eps.size == 0 or np.any(np.diff(eps) <= 0):
            raise ValueError("epsilon grid must be nonempty and strictly increasing")
        fid = np.asarray(fidelities, dtype=float)
        if np.any(fid < -1e-12) or np.any(fid > 1 + 1e-12):
            raise ValueError("fidelities must lie in [0, 1]")
        return super().__new__(cls, epsilons, fidelities, infidelities, label)


class FitReport(namedtuple("FitReport", "order coefficient r_squared window n_points")):
    """Power-law fit of the infidelity: 1 - F = coefficient * eps^order."""

    __slots__ = ()


def sweep(seq: PulseSequence, target: TargetRotation, eps_grid,
          embed: bool = True, label: str = "sequence") -> SweepTable:
    """Fidelity of the compiled sequence against the ideal target per epsilon.

    With embed=True the corrector is wrapped around the target pulse (both
    suffer the same fractional error); embed=False sweeps the sequence as
    given, for bare-pulse baselines and for a corrector already placed with
    embed_target at another split.
    """
    eps = np.fromiter(eps_grid, dtype=float)
    full = embed_target(seq, target) if embed else seq
    uc = target.unitary().conj().tolist()
    infids = np.fromiter((_overlap(compile_sequence(full, e), uc)[1] for e in map(float, eps)),
                         dtype=float, count=eps.size)
    return SweepTable(eps, 1.0 - infids, infids, label)


def _lin_grid(lo: float, hi: float, n: int):
    """n evenly spaced Python floats from lo to hi, one at a time: np.linspace's
    values bit for bit.  That is k * step + lo with the last point hi itself,
    and (k / (n - 1)) * (hi - lo) + lo when the step underflows to 0."""
    div = max(n - 1, 1)
    delta = hi - lo
    step = delta / div
    for k in range(div if n > 1 else n):
        yield (k * step if step else k / div * delta) + lo
    if n > 1:
        yield hi


def _log_grid(window, n: int) -> list:
    """n log-spaced errors over the window as Python floats: np.logspace's
    exponents exactly (_lin_grid of the window's log10 bounds), each raised
    to a power of 10 by libm's pow."""
    lo, hi = window
    return [10.0 ** x for x in _lin_grid(math.log10(lo), math.log10(hi), n)]


def fit_grid(window=ORDER_WINDOW, n: int = FIT_POINTS) -> np.ndarray:
    """Log-spaced epsilon grid covering a fit window: the grid
    fit_error_scaling evaluates, as an array."""
    return np.array(_log_grid(window, n))


def _fit_power_law(eps: list, infid: list, window) -> FitReport:
    """Least-squares line on (log eps, log(1-F)) from Python floats, in
    closed form from the centred data: slope = sum(xc yc) / sum(xc^2), with
    xc and yc the deviations of x = log eps and y = log(1-F) from their
    means, every sum correctly rounded (math.fsum)."""
    lo, hi = window
    n = len(eps)
    if n < 3:
        raise ValueError("need at least 3 sweep points inside the fit window")
    floored = [e for e, f in zip(eps, infid) if f <= INFIDELITY_FLOOR]
    if floored:
        raise FitWindowError(
            "infidelity reaches the numerical floor (%.0e) inside the window; "
            "raise eps_min above %.3g" % (INFIDELITY_FLOOR, max(floored)))
    x = [math.log(e) for e in eps]
    y = [math.log(f) for f in infid]
    x_mean, y_mean = math.fsum(x) / n, math.fsum(y) / n
    xc = [v - x_mean for v in x]
    yc = [v - y_mean for v in y]
    slope = math.fsum(a * b for a, b in zip(xc, yc)) / math.fsum(a * a for a in xc)
    intercept = y_mean - slope * x_mean
    ss_tot = math.fsum(b * b for b in yc)
    r2 = (1.0 - math.fsum((b - slope * a) ** 2 for a, b in zip(xc, yc)) / ss_tot
          if ss_tot > 0 else 0.0)
    return FitReport(slope, math.exp(intercept), r2, (float(lo), float(hi)), n)


def fit_scaling(table: SweepTable, window=ORDER_WINDOW) -> FitReport:
    """Power-law fit of a sweep table's infidelity over the window.

    The points inside the window are fitted as fit_error_scaling fits its
    own grid: a least-squares line on (log eps, log(1-F)) in closed form.
    Raises FitWindowError when any infidelity in the window sits at the
    numerical floor; shrink the window from below (larger eps_min) in that
    case.
    """
    lo, hi = window
    mask = (table.epsilons >= lo * (1 - 1e-12)) & (table.epsilons <= hi * (1 + 1e-12))
    return _fit_power_law(table.epsilons[mask].tolist(), table.infidelities[mask].tolist(),
                          window)


def fit_error_scaling(seq: PulseSequence, target: TargetRotation,
                      window=ORDER_WINDOW, embed: bool = True) -> FitReport:
    """Power-law fit of the infidelity over FIT_POINTS log-spaced errors in
    the window.

    The same numbers as fit_scaling(sweep(seq, target, fit_grid(window),
    embed=embed), window), field for field, without building an array: each
    point comes from _overlap_at.  Raises FitWindowError as fit_scaling.
    """
    lo, hi = window
    if not 0.0 < lo < hi:
        raise ValueError("fit window needs 0 < eps_min < eps_max")
    at = _overlap_at(embed_target(seq, target) if embed else seq, target)
    eps = _log_grid(window, FIT_POINTS)
    return _fit_power_law(eps, [at(e)[1] for e in eps], window)


def crossover(seq: PulseSequence, target: TargetRotation) -> float:
    """Smallest error where the composite stops beating the bare pulse.

    Both the composite (target embedded) and the bare pulse suffer the same
    fractional error.  Marches from 0.01 in steps of 1e-3 and bisects the
    first sign change of the fidelity gap to within 1e-6; returns +inf when
    the composite stays superior over (0, 0.99].  Each fidelity comes from
    _overlap_at: the values of fidelity(compile_sequence(...),
    target.unitary()), without building an array.
    """
    full = _overlap_at(embed_target(seq, target), target)
    bare = _overlap_at(PulseSequence((Pulse(target.theta, target.alpha),)), target)

    def gap(e: float) -> float:
        return full(e)[0] - bare(e)[0]

    if gap(0.01) <= 0:
        raise NotSuperior("sequence does not beat the bare pulse at epsilon = 0.01")
    lo = 0.01
    hi = None
    e = 0.01 + 1e-3
    while e <= 0.99 + 1e-15:
        if gap(e) <= 0:
            hi = e
            break
        lo = e
        e += 1e-3
    if hi is None:
        return math.inf
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if gap(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
