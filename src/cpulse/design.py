"""Phase design for the 3- and 5-pulse corrector families.

Every family is derived from two constraints on the full sequence (corrector
wrapped around the target): it must compile to the identity-composed-target
at zero error, and its first derivative with respect to the fractional error
must vanish there.  For correctors of pi-multiple angles the derivative
condition is a closed polygon in conjugated azimuths, sum_j w_j e^{i z_j} =
theta / (2 pi): every family pins all but two links on the frame axis,
solves those two from the triangle's side gaps (_triangle), maps the azimuths
to phases by one reflection chain (_chain) and mirrors the pulses
(_palindrome).  The 3-pulse exhaustiveness scan uses the root finder the
crossover search shares (analysis._roots, bisection to adjacent floats).
Every returned result is re-validated against the matrix-level residuals,
both judged by one rounding bound (ROUNDING_BOUND) times the total angle.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import partial, reduce
from itertools import zip_longest

from .analysis import _lin_grid, _roots
from .pulses import (PulseSequence, TargetRotation, _count, _entry_overlap, _jet,
                     embed_target, reduce_angle, repeated)

# 16 u per radian of theta + pulse angles; designs read <= 5.5 u (derivative), 0.032 u (sqrt ident)
ROUNDING_BOUND = 16 * 2.0 ** -52


class InfeasibleDesign(Exception):
    """No phase assignment satisfies the design constraints."""

    def __init__(self, message: str, best_residual: float | None = None):
        if best_residual is not None:
            message = f"{message} (best residual {best_residual:.3g})"
        super().__init__(message)
        self.best_residual = best_residual


class DesignResult(namedtuple("DesignResult", "label sequence phases identity_residual "
                                              "derivative_residual mirror_phases",
                              defaults=(None,))):
    """A validated corrector: phases plus the two constraint residuals."""

    __slots__ = ()


def identity_residual(seq: PulseSequence) -> float:
    """1 - trace fidelity of the compiled sequence against the identity,
    by the shared scalar overlap (pulses._entry_overlap)."""
    return _entry_overlap(*_jet(seq)[:4], ((1.0, 0.0), (0.0, 1.0)))[1]


def error_derivative(seq: PulseSequence) -> np.ndarray:
    """d/d(epsilon) of the compiled sequence at epsilon = 0, exactly, as a
    2x2 complex array."""
    da, db, dc, dd = _jet(seq)[4:]
    import numpy as np
    return np.array([[da, db], [dc, dd]], dtype=complex)


def derivative_residual(seq: PulseSequence, target: TargetRotation) -> float:
    """Frobenius norm of the error derivative of the full sequence.

    The corrector is embedded after the target pulse (split = 1); the value
    is placement-independent at a design point, where it vanishes.
    """
    full = embed_target(seq, target, 1.0)
    return math.hypot(*map(abs, _jet(full)[4:]))


def constraint_checks(ident: float, deriv: float, total: float) -> list:
    """(name, ok, residual) per constraint, design's and verify's: ok strictly below a finite
    b * b (identity) or b (derivative), b = ROUNDING_BOUND * total (at it, NaN or inf fails)."""
    bound = ROUNDING_BOUND * total
    return [("identity_residual", ident < bound * bound < math.inf, ident),
            ("derivative_residual", deriv < bound < math.inf, deriv)]


def _residuals(seq, target) -> tuple:
    """constraint_checks' arguments for seq as a corrector of target."""
    return (identity_residual(seq), derivative_residual(seq, target),
            sum((p.angle for p in seq), target.theta))


def _validated(label, seq, phases, target, mirror=None) -> DesignResult:
    ident, deriv, total = _residuals(seq, target)
    if not all(ok for _, ok, _ in constraint_checks(ident, deriv, total)):
        raise InfeasibleDesign(
            f"{label}: constraint residuals out of bounds "
            f"(identity {ident:.3g}, derivative {deriv:.3g})")
    return DesignResult(label, seq, phases, ident, deriv, mirror)


def _triangle(wa, wb, rhs):
    """Roots (za, zb) of wa e^{i za} + wb e^{i zb} = rhs for a real rhs, za in [0, pi] first;
    none where rhs is 0 or a side gap of the triangle (wa, wb, |rhs|) is negative.  Both
    come from the gaps, one rounding each for integer weights, in Kahan's half-angle form,
    which keeps a needle triangle's digits where a cosine near +-1 would lose them."""
    r = abs(rhs)
    g1, g2, g3, s = (wb - wa) + r, (wa + wb) - r, (wa - wb) + r, (wa + wb) + r
    if r == 0.0 or min(g1, g2, g3) < 0.0:
        return []
    za = 2.0 * math.atan2(math.sqrt(g1 * g2), math.sqrt(s * g3))
    zb = -2.0 * math.atan2(math.sqrt(g3 * g2), math.sqrt(s * g1))
    # turned by pi where rhs < 0: pi - za first, then pi + za
    turn, sign = (math.pi, -1.0) if rhs < 0.0 else (0.0, 1.0)
    return [tuple(reduce_angle(turn + k * z) for z in (za, zb)) for k in (sign, -sign)]


def _closing(roots, label, target, best_residual=None) -> list:
    """roots, or InfeasibleDesign where the label's polygon cannot close; the
    caller's reach gap as best_residual, None where it reads 0 at a rhs of 0."""
    if not roots:
        raise InfeasibleDesign(f"no phases satisfy the {label} derivative condition for "
                               f"theta = {target.theta:.6g}", best_residual)
    return roots


def _chain(z, multiples, target):
    """Pulse phases of conjugated azimuths z, pulse j's angle multiples[j] pi:
    link j, shifted by the frame alpha + pi, is reflected through the phase
    of each earlier pulse whose angle is an odd multiple of pi."""
    frame = target.alpha + math.pi
    phases = []
    for zj in z:
        phi = zj + frame
        for k, prev in zip(multiples, phases):
            phi = 2.0 * prev - phi if k % 2 else phi
        phases.append(phi)
    return tuple(map(reduce_angle, phases))


def _palindrome(multiples, phases) -> PulseSequence:
    """Angles multiples[j] pi at phases[j], mirrored about the last: abc -> abcba."""
    pairs = [(k * math.pi, phi) for k, phi in zip(multiples, phases)]
    return PulseSequence.from_pairs(pairs + pairs[-2::-1])


def _three_pulse(m: int, repeats: int, target: TargetRotation) -> DesignResult:
    """The (m pi, 2 m pi, m pi) block repeated, phased by the polygon of two
    equal links, k e^{i z1} + k e^{i z2} = theta / (2 pi) with k = m repeats
    (Cummins et al., PRA 67, 042308): z2 = -z1 and cos z1 = theta / (4 k pi)."""
    k, multiples = m * repeats, (m, 2 * m)
    label = f"W{m}x{repeats}" if repeats > 1 else f"W{m}"
    # none once theta / (2 pi) underflows to 0, else the -za root is the branch
    mirror, phases = [_chain(z, multiples, target) for z in
                      _closing(_triangle(k, k, target.theta / math.tau), label, target)]
    seq = repeated(_palindrome(multiples, phases), repeats)
    return _validated(label, seq, phases, target, mirror)


def design_wn(n: int, target: TargetRotation) -> DesignResult:
    """n-fold repeat of the (pi, 2*pi, pi) corrector.

    The phases solve the polygon n e^{i z1} + n e^{i z2} = theta / (2 pi):
    cos(phi1 - alpha) = -theta / (4 n pi), and the reflection through the
    first pulse, of odd angle, gives phi2 = 3 phi1 - 2 alpha.  n = 1 is the
    broadband Wimperis sequence.
    """
    return _three_pulse(1, _count(n, "n"), target)


def design_wm(m: int, target: TargetRotation) -> DesignResult:
    """Single 3-pulse corrector with angles (m pi, 2 m pi, m pi).

    The phases solve the polygon m e^{i z1} + m e^{i z2} = theta / (2 pi):
    cos(phi1 - alpha) = -theta / (4 m pi), and the reflection through the
    first pulse, taken for odd m only, gives phi2 = 3 phi1 - 2 alpha for odd
    m and 2 alpha - phi1 for even m.  m = 1 is the broadband and m = 2 the
    passband Wimperis sequence.
    """
    return _three_pulse(_count(m, "m"), 1, target)


# ---------------------------------------------------------------------------
# Five-pulse family
# ---------------------------------------------------------------------------
#
# For angles (p pi, q pi, 2 r pi, q pi, p pi) the polygon is
# p e^{i z1} + q e^{i z2} + r e^{i z3} = theta / (2 pi), a one-dimensional
# solution set: one azimuth is pinned to the frame axis (0 or pi) per
# symmetry class, leaving a two-link triangle with a real base.


def design_five_pulse(p: int, q: int, r: int,
                      target: TargetRotation) -> list:
    """All phase solutions for angles (p pi, q pi, 2 r pi, q pi, p pi).

    p + q + r must be even (the zero-error product is then the identity for
    any phases).  Each of the six pins (one azimuth at 0 or pi) gives at most
    two closed-form branches; the union is sorted by phases and each entry
    is validated against the matrix-level residuals.  No deduplication is
    needed: a root with two on-axis azimuths has its third on-axis too, so
    the even integer +-p +- q +- r would equal theta / (2 pi), which lies
    strictly between 0 and 2.  Hence no two pins share a branch, the two
    roots of a pin never coincide, and a zero right-hand side has no root.
    Known closed-form branches, e.g. (1,2,1) -> phi1 =
    arccos((theta - 4 pi)/(4 pi)), phi2 = 2 phi1, phi3 = 3 phi1 for a target
    about -X, are among them.
    """
    p, q, r = _count(p, "p"), _count(q, "q"), _count(r, "r")
    if (p + q + r) % 2:
        raise ValueError("p + q + r must be even")
    weights, multiples = (p, q, r), (p, q, 2 * r)
    # multiples run together unless one exceeds 9: W121, W10-10-2
    label = "W" + ("-" if max(weights) > 9 else "").join(map(str, weights))
    t = target.theta / math.tau

    phase_sets = []
    best = math.inf
    for pin in range(3):
        wa, wb = (w for i, w in enumerate(weights) if i != pin)
        for pin_val in (0.0, math.pi):
            rhs = t - weights[pin] * math.cos(pin_val)
            # distance from |rhs| to the reachable interval [|wa - wb|, wa + wb]
            best = min(best, max(0.0, abs(rhs) - (wa + wb), abs(wa - wb) - abs(rhs)))
            phase_sets.extend(_chain((*z[:pin], pin_val, *z[pin:]), multiples, target)
                              for z in _triangle(wa, wb, rhs))

    # |complex residual| maps to the matrix Frobenius norm via sqrt(2)*pi
    phase_sets = _closing(phase_sets, label, target, best * math.sqrt(2.0) * math.pi)
    return [_validated(label, _palindrome(multiples, phases), phases, target)
            for phases in sorted(phase_sets)]


# ---------------------------------------------------------------------------
# Exhaustiveness scan over general symmetric 3-pulse angle splits
# ---------------------------------------------------------------------------


def _plus(p, q):
    """Sum of two coefficient lists, lowest power first."""
    return [a + b for a, b in zip_longest(p, q, fillvalue=0.0)]


def _times(p, q):
    """Product of two coefficient lists: q shifted and scaled by each term of p."""
    return reduce(_plus, ([0.0] * i + [a * b for b in q] for i, a in enumerate(p)))


def _der(p):
    return [k * c for k, c in enumerate(p)][1:]


def _at(p, x):
    """p(x) by Horner's rule."""
    return reduce(lambda acc, c: acc * x + c, reversed(p), 0.0)


def _pieces(p, lo, hi):
    """[lo, the roots where p changes sign in (lo, hi), hi]: each lies in a
    piece of its derivative's, on which p is monotone."""
    if len(p) < 2:
        return [lo, hi]
    return [lo, *_roots(partial(_at, p), _pieces(_der(p), lo, hi)), hi]


def _split_residual(theta, gamma, m):
    """(gamma, sqrt(min |v|^2 / 2)) over all phases of the (gamma, eta, gamma)
    corrector, eta = 2(2m pi - gamma), for v of three_pulse_scan.  In the
    frame of the first corrector axis, with delta = alpha - phi1,
    psi = phi2 - phi1, u = 1 + cos psi in [0, 2] and K = 1 - cos eta,

        v = theta (cos delta, cos gamma sin delta, sin gamma sin delta) + B,
        B = (bx(u), sin psi bu(u), sin psi bh(u)),  sin^2 psi = u (2 - u),

    bx quadratic and bu, bh linear in u.  The theta term sweeps a circle in
    the plane of e_x and (0, cos gamma, sin gamma), so the minimum over delta
    is (theta - rho)^2 + h^2, with h = sin psi bh the out-of-plane part of B,
    rho^2 = P = S - u (2 - u) bh^2 and S = |B|^2 quadratic in u (as K^2 +
    sin^2 eta = 2K).  The slope of |v|^2 = theta^2 + S - 2 theta rho has the
    sign of S' rho - theta P', whose roots are roots of the sextic S'^2 P -
    theta^2 P'^2: each monotone piece of the sextic holds at most one.  The
    candidates are the ends of the pieces, u = 0 and 2 among them, and the
    slope's root on each piece where its sign changes (_roots).  The flat
    minimum lies at u = theta^2 / (8 m^2 pi^2), which u resolves and cos psi,
    near -1, does not.  gamma must lie in [0, 2 m pi], the corrector's
    domain, where every pulse angle is >= 0.
    """
    if not 0.0 <= gamma <= 2.0 * m * math.pi:   # NaN and 10**400 fail too
        raise ValueError("scan angle gamma must lie in [0, 2 m pi]")
    gamma = float(gamma)
    eta = 2.0 * (2.0 * m * math.pi - gamma)
    cg, sg, se = math.cos(gamma), math.sin(gamma), math.sin(eta)
    gk = gamma * (1.0 - math.cos(eta))
    bx = [2.0 * gamma - eta, eta - 2.0 * gk, gk]
    bu = [cg * (eta - gk) + gamma * sg * se, gk * cg]
    bh = [gamma * cg * se - sg * (eta - gk), -gk * sg]
    # S in closed form: summed from squares, its u^4 and u^3 terms would
    # cancel only to roundoff
    s = [(2.0 * gamma - eta) ** 2, 4.0 * gamma * (eta - gk), 2.0 * gamma * gk]
    p = _plus(s, _times([0.0, -2.0, 1.0], _times(bh, bh)))
    ds, dp = _der(s), _der(p)
    sextic = _plus(_times(_times(ds, ds), p), _times([-theta * theta], _times(dp, dp)))

    def rho(u):
        return math.sqrt(_at(bx, u) ** 2 + u * (2.0 - u) * _at(bu, u) ** 2)

    # unsquared: squaring pairs a spurious root with each real one
    def slope(u):
        return _at(ds, u) * rho(u) - theta * _at(dp, u)

    ends = _pieces(_der(sextic), 0.0, 2.0)
    # sums of squares: theta^2 + S - 2 theta rho cancels to ~1e-8 when flat
    return gamma, math.sqrt(min(
        (theta - rho(u)) ** 2 + u * (2.0 - u) * _at(bh, u) ** 2
        for u in (*ends, *_roots(slope, ends))) / 2.0)


def _scan(target: TargetRotation, gammas=None, m: int = 1) -> list:
    """three_pulse_scan's rows as (gamma, residual) pairs of Python floats."""
    m = _count(m, "m")
    gammas = _lin_grid(0.12, 2 * m * math.pi - 0.12, 61) if gammas is None else gammas
    return [_split_residual(target.theta, g, m) for g in gammas]


def three_pulse_scan(target: TargetRotation, gammas=None, m: int = 1) -> np.ndarray:
    """Exact least derivative residual over both phases of the (gamma,
    2(2m pi - gamma), gamma) corrector, as (gamma, residual) rows.

    In the toggling frame the error derivative of the full sequence has
    Frobenius norm |v| / sqrt(2), v = sum_k theta_k m_k with m_k pulse k's
    axis carried back through the earlier pulses; _split_residual minimises
    |v| exactly in the chart u = 1 + cos(phi2 - phi1), free of the target
    azimuth.  Only gamma = m pi, the default grid's midpoint, is flat.
    """
    import numpy as np
    return np.array(_scan(target, gammas, m)).reshape(-1, 2)
