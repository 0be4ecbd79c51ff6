"""Fidelity evaluation, error sweeps, scaling fits and crossover search."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._numpy import np
from .pulses import Pulse, PulseSequence, TargetRotation, compile_sequence, embed_target
from .su2 import _split

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


def _overlap(v: np.ndarray, uc) -> tuple:
    """(fidelity, infidelity) of v against u, uc = u.conj().tolist(), from the
    Python-scalar entries of g = v u-dagger = w I - i s.sigma.  1 - |w| is
    |s|^2 / (1 + |w|), with w and s from the split: both are accurate to
    ~1e-16 absolute, near a global phase and near fidelity 0 alike.
    """
    (v00, v01), (v10, v11) = v.tolist()
    (u00, u01), (u10, u11) = uc
    g = (v00 * u00 + v01 * u01, v00 * u10 + v01 * u11,
         v10 * u00 + v11 * u01, v10 * u10 + v11 * u11)
    w, x, y, z = _split(*g)
    return 0.5 * abs(g[0] + g[3]), (x * x + y * y + z * z) / (1.0 + abs(w))


def fidelity(v: np.ndarray, u: np.ndarray) -> float:
    """Trace overlap |Tr(v u-dagger)| / 2 from scalar entries; blind to global phase."""
    return _overlap(v, u.conj().tolist())[0]


def infidelity(v: np.ndarray, u: np.ndarray) -> float:
    """1 - fidelity(v, u), computed without cancellation even far below
    double rounding.  Valid for the SU(2) matrices produced by this library."""
    return _overlap(v, u.conj().tolist())[1]


@dataclass(frozen=True)
class SweepTable:
    """Fidelity (and precision-preserving infidelity) per error value."""

    epsilons: np.ndarray
    fidelities: np.ndarray
    infidelities: np.ndarray
    label: str = "sequence"

    def __post_init__(self):
        eps = np.asarray(self.epsilons, dtype=float)
        if eps.size == 0 or np.any(np.diff(eps) <= 0):
            raise ValueError("epsilon grid must be nonempty and strictly increasing")
        fid = np.asarray(self.fidelities, dtype=float)
        if np.any(fid < -1e-12) or np.any(fid > 1 + 1e-12):
            raise ValueError("fidelities must lie in [0, 1]")


@dataclass(frozen=True)
class FitReport:
    """Power-law fit of the infidelity: 1 - F = coefficient * eps^order."""

    order: float
    coefficient: float
    r_squared: float
    window: tuple
    n_points: int


def sweep(seq: PulseSequence, target: TargetRotation, eps_grid,
          split: float = 1.0, embed: bool = True,
          label: str = "sequence") -> SweepTable:
    """Fidelity of the compiled sequence against the ideal target per epsilon.

    With embed=True the corrector is wrapped around the target pulse (both
    suffer the same fractional error); embed=False sweeps the sequence as
    given, for bare-pulse baselines.
    """
    eps = np.fromiter(eps_grid, dtype=float)
    full = embed_target(seq, target, split) if embed else seq
    uc = target.unitary().conj().tolist()
    infids = np.fromiter((_overlap(compile_sequence(full, e), uc)[1] for e in map(float, eps)),
                         dtype=float, count=eps.size)
    return SweepTable(eps, 1.0 - infids, infids, label)


def fit_grid(window=ORDER_WINDOW, n: int = FIT_POINTS) -> np.ndarray:
    """Log-spaced epsilon grid covering a fit window."""
    lo, hi = window
    return np.logspace(np.log10(lo), np.log10(hi), n)


def fit_scaling(table: SweepTable, window=ORDER_WINDOW) -> FitReport:
    """Least-squares line on (log eps, log(1-F)) over the window.

    order is the slope and coefficient is exp(intercept), both in closed form
    from the centred data: slope = sum(xc yc) / sum(xc^2), with xc and yc the
    deviations of x = log eps and y = log(1-F) from their means.  Raises
    FitWindowError when any infidelity in the window sits at the numerical
    floor; shrink the window from below (larger eps_min) in that case.
    """
    lo, hi = window
    mask = (table.epsilons >= lo * (1 - 1e-12)) & (table.epsilons <= hi * (1 + 1e-12))
    eps = table.epsilons[mask]
    infid = table.infidelities[mask]
    if eps.size < 3:
        raise ValueError("need at least 3 sweep points inside the fit window")
    if np.any(infid <= INFIDELITY_FLOOR):
        raise FitWindowError(
            "infidelity reaches the numerical floor (%.0e) inside the window; "
            "raise eps_min above %.3g" % (INFIDELITY_FLOOR, eps[infid <= INFIDELITY_FLOOR].max()))
    x = np.log(eps)
    y = np.log(infid)
    xc, yc = x - x.mean(), y - y.mean()
    slope = float(np.sum(xc * yc) / np.sum(xc * xc))
    intercept = float(y.mean() - slope * x.mean())
    ss_tot = float(np.sum(yc * yc))
    r2 = 1.0 - float(np.sum((yc - slope * xc) ** 2)) / ss_tot if ss_tot > 0 else 0.0
    return FitReport(slope, math.exp(intercept), r2, (float(lo), float(hi)), int(eps.size))


def fit_error_scaling(seq: PulseSequence, target: TargetRotation,
                      window=ORDER_WINDOW, n: int = FIT_POINTS,
                      embed: bool = True) -> FitReport:
    """Sweep on a log grid over the window, then fit the power law."""
    table = sweep(seq, target, fit_grid(window, n), embed=embed)
    return fit_scaling(table, window)


def crossover(seq: PulseSequence, target: TargetRotation,
              eps_probe: float = 0.01, eps_max: float = 0.99,
              step: float = 1e-3, tol: float = 1e-6) -> float:
    """Smallest error where the composite stops beating the bare pulse.

    Both the composite (target embedded) and the bare pulse suffer the same
    fractional error.  Marches from eps_probe and bisects the first sign
    change of the fidelity gap to within tol; returns +inf when the
    composite stays superior over (0, eps_max].
    """
    full = embed_target(seq, target, 1.0)
    bare = PulseSequence((Pulse(target.theta, target.alpha),))
    ideal = target.unitary()

    def gap(e: float) -> float:
        return (fidelity(compile_sequence(full, e), ideal)
                - fidelity(compile_sequence(bare, e), ideal))

    if gap(eps_probe) <= 0:
        raise NotSuperior(
            f"sequence does not beat the bare pulse at epsilon = {eps_probe}")
    lo = eps_probe
    hi = None
    e = eps_probe + step
    while e <= eps_max + 1e-15:
        if gap(e) <= 0:
            hi = e
            break
        lo = e
        e += step
    if hi is None:
        return math.inf
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if gap(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
