"""Fidelity evaluation, error sweeps, scaling fits and crossover search."""

from __future__ import annotations

import math
from collections import namedtuple

from .pulses import (PulseSequence, TargetRotation, _checked_make, _entry_overlap,
                     _in_domain, _overlap_at, compile_sequence, embed_target)

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


def fidelity(v: np.ndarray, u: np.ndarray) -> float:
    """Trace overlap |Tr(v u-dagger)| / 2 from scalar entries; blind to global phase."""
    return _entry_overlap(*v.ravel().tolist(), u.conj().tolist())[0]


def infidelity(v: np.ndarray, u: np.ndarray) -> float:
    """1 - fidelity(v, u), computed without cancellation even far below
    double rounding.  Valid for the SU(2) matrices produced by this library."""
    return _entry_overlap(*v.ravel().tolist(), u.conj().tolist())[1]


class SweepTable(namedtuple("SweepTable", "epsilons fidelities infidelities label")):
    """Fidelity (and precision-preserving infidelity) per error value."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, epsilons, fidelities, infidelities, label="sequence"):
        import numpy as np
        columns = [np.asarray(c) for c in (epsilons, fidelities, infidelities)]
        for c in columns:
            if c.dtype.kind in "OSU":   # dtype=float would parse a str: the kernel's
                for x in c.ravel().tolist():   # abs() (_in_domain) refuses it first
                    abs(x)
        try:   # numpy raises OverflowError for an int too large for a float
            eps, *cols = [np.asarray(c, dtype=float) for c in columns]
        except OverflowError:
            raise ValueError("sweep table entries must be representable as floats") from None
        if eps.size == 0 or np.isnan(eps).any() or np.any(np.diff(eps) <= 0):
            raise ValueError("epsilon grid must be nonempty and strictly increasing")
        for name, col in zip(("fidelities", "infidelities"), cols):
            if col.shape != eps.shape:
                raise ValueError("sweep table columns must have equal length")
            if not (np.all(col >= -1e-12) and np.all(col <= 1 + 1e-12)):   # NaN fails
                raise ValueError(f"{name} must lie in [0, 1]")
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
    embed_target at another split.  Each error meets compile_sequence's checks.
    """
    import numpy as np
    eps = np.fromiter(map(_in_domain, eps_grid), dtype=float)
    full = embed_target(seq, target) if embed else seq
    uc = target.unitary().conj().tolist()
    infids = np.fromiter((_entry_overlap(*compile_sequence(full, e).ravel().tolist(), uc)[1]
                          for e in map(float, eps)), dtype=float, count=eps.size)
    return SweepTable(eps, 1.0 - infids, infids, label)


def _lin_grid(lo: float, hi: float, n: int):
    """n >= 2 evenly spaced Python floats from lo to hi, one at a time:
    k * step + lo, the last point hi itself.  That is numpy.linspace's values
    bit for bit unless the step underflows, where both repeat a point."""
    step = (hi - lo) / (n - 1)
    for k in range(n - 1):
        yield k * step + lo
    yield hi


def _roots(f, points, left=None):
    """Each root of f where its sign (f < 0 or not) changes between
    consecutive points of an increasing sequence of two or more, in order,
    one at a time.  f is evaluated once per point, the first skipped when
    left gives its sign; each changing pair [a, b] is halved down to adjacent
    floats, keeping f's sign at a on the left, and its left end is the root."""
    points = iter(points)
    a = next(points)
    left = f(a) < 0.0 if left is None else left
    for b in points:
        if (right := f(b) < 0.0) != left:
            lo, hi = a, b
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                lo, hi = (mid, hi) if (f(mid) < 0.0) == left else (lo, mid)
            yield lo
        a, left = b, right


def _log_grid(window, n: int) -> list:
    """n log-spaced errors over the window as Python floats: np.logspace's
    exponents exactly (_lin_grid of the window's log10 bounds), each raised
    to a power of 10 by libm's pow."""
    lo, hi = window
    return [10.0 ** x for x in _lin_grid(math.log10(lo), math.log10(hi), n)]


def _fit_window(window) -> tuple:
    lo, hi = window
    if not 0.0 < lo < hi < 1.0:   # the error domain; NaN and 10**400 fail too
        raise ValueError("fit window needs 0 < eps_min < eps_max < 1")
    return lo, hi


def _fit_power_law(eps: list, infid: list, window) -> FitReport:
    """Least-squares line on (log eps, log(1-F)) from Python floats, in
    closed form from the centred data: slope = sum(xc yc) / sum(xc^2), with
    xc and yc the deviations of x = log eps and y = log(1-F) from their
    means, every sum correctly rounded (math.fsum).  It owns the data checks:
    at least 3 points, none at the floor, not all at one log eps."""
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
    if not any(v != x[0] for v in x):
        raise ValueError("sweep points inside the fit window share one log epsilon")
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

    The points inside the window, picked in one pass as Python floats from
    list or array columns, are fitted as fit_error_scaling fits its own grid.
    Raises FitWindowError when any infidelity in the window sits at the
    numerical floor; shrink the window from below (larger eps_min) in that
    case.  The window must satisfy 0 < eps_min < eps_max < 1.
    """
    lo, hi = _fit_window(window)
    pts = [(float(e), float(f)) for e, f in
           zip(table.epsilons, table.infidelities, strict=True)
           if lo * (1 - 1e-12) <= e <= hi * (1 + 1e-12)]
    return _fit_power_law([e for e, _ in pts], [f for _, f in pts], window)


def fit_error_scaling(seq: PulseSequence, target: TargetRotation,
                      window=ORDER_WINDOW, embed: bool = True) -> FitReport:
    """Power-law fit of the infidelity over FIT_POINTS log-spaced errors in
    the window.

    The same numbers as fit_scaling(sweep(seq, target, _log_grid(window,
    FIT_POINTS), embed=embed), window), field for field, without building an
    array: each point comes from pulses._overlap_at.  Raises FitWindowError
    as fit_scaling.
    """
    eps = _log_grid(_fit_window(window), FIT_POINTS)
    at = _overlap_at(embed_target(seq, target) if embed else seq, target)
    return _fit_power_law(eps, [at(e)[1] for e in eps], window)


def crossover(seq: PulseSequence, target: TargetRotation) -> float:
    """Smallest error where the composite stops beating the bare pulse.

    Both the composite (target embedded) and the bare pulse suffer the same
    fractional error.  The composite stops beating the bare pulse where the
    gap behind(e) = bare - composite fidelity turns from negative to >= 0:
    the first such change on the 981-point grid 0.01, 0.011, ..., 0.99 (its
    sign at 0.01 is the NotSuperior check's, so 0.01 is evaluated once) is
    bisected to adjacent floats (_roots), and the left one, the last error
    still ahead, is returned; +inf when the composite stays ahead at every
    grid point.  The composite's fidelity comes from _overlap_at without
    building an array; the bare pulse leaves g = R(theta e, alpha), so its
    fidelity is |cos(theta e / 2)|.  Where the corrector composes to the
    identity (W2's at e = 1/2: 3 pi, 6 pi, 3 pi) the gap vanishes
    identically, and the root lands within 5e-13 of 1/2, either side.
    """
    full = _overlap_at(embed_target(seq, target), target)

    def behind(e: float) -> float:
        return abs(math.cos(0.5 * target.theta * e)) - full(e)[0]

    if behind(0.01) >= 0:
        raise NotSuperior("sequence does not beat the bare pulse at epsilon = 0.01")
    return next(_roots(behind, _lin_grid(0.01, 0.99, 981), left=True), math.inf)
