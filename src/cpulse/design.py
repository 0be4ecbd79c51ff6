"""Phase design for the 3- and 5-pulse corrector families.

Every family is derived from two constraints on the full sequence (corrector
wrapped around the target): it must compile to the identity-composed-target
at zero error, and its first derivative with respect to the fractional error
must vanish there.  The 3-pulse and five-pulse designs are solved in closed
form (the five-pulse branches by the law of cosines, at most two per pinned
azimuth); every returned result is re-validated against the matrix-level
residuals.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analysis import infidelity
from .pulses import (PulseSequence, TargetRotation, compile_sequence,
                     embed_target, reduce_angle, repeated)
from .su2 import IDENTITY, TWO_PI, dagger, rotation, xy_axis

IDENTITY_TOL = 1e-12
DERIVATIVE_TOL = 1e-9


class InfeasibleDesign(Exception):
    """No phase assignment satisfies the design constraints."""

    def __init__(self, message: str, best_residual: float | None = None):
        if best_residual is not None:
            message = f"{message} (best residual {best_residual:.3g})"
        super().__init__(message)
        self.best_residual = best_residual


@dataclass(frozen=True)
class DesignResult:
    """A validated corrector: phases plus the two constraint residuals."""

    label: str
    sequence: PulseSequence
    phases: tuple
    identity_residual: float
    derivative_residual: float
    mirror_phases: tuple | None = None


def identity_residual(seq: PulseSequence) -> float:
    """1 - trace fidelity of the compiled sequence against the identity."""
    return infidelity(compile_sequence(seq, 0.0), IDENTITY)


def error_derivative(seq: PulseSequence) -> np.ndarray:
    """d/d(epsilon) of the compiled sequence at epsilon = 0, exactly.

    Sum over pulses of (later product) (-i angle/2 H) (earlier product,
    pulse included), H being the pulse's axis generator.
    """
    mats = [rotation(p.angle, p.phase) for p in seq]
    prefix = [IDENTITY.copy()]
    for m in mats:
        prefix.append(m @ prefix[-1])
    total = prefix[-1]
    deriv = np.zeros((2, 2), dtype=complex)
    for k, p in enumerate(seq):
        suffix = total @ dagger(prefix[k + 1])
        deriv += suffix @ ((-0.5j * p.angle) * xy_axis(p.phase)) @ prefix[k + 1]
    return deriv


def derivative_residual(seq: PulseSequence, target: TargetRotation) -> float:
    """Frobenius norm of the error derivative of the full sequence.

    The corrector is embedded after the target pulse (split = 1); the value
    is placement-independent at a design point, where it vanishes.
    """
    full = embed_target(seq, target, 1.0)
    return float(np.linalg.norm(error_derivative(full)))


def _validated(label, seq, phases, target, mirror=None) -> DesignResult:
    ident = identity_residual(seq)
    deriv = derivative_residual(seq, target)
    if ident > IDENTITY_TOL or deriv > DERIVATIVE_TOL:
        raise InfeasibleDesign(
            f"{label}: constraint residuals out of bounds "
            f"(identity {ident:.3g}, derivative {deriv:.3g})")
    return DesignResult(label, seq, tuple(reduce_angle(p) for p in phases),
                        ident, deriv,
                        None if mirror is None else tuple(reduce_angle(p) for p in mirror))


def _symmetric_three_pulse(scale: int, target: TargetRotation, even: bool):
    """Shared closed form: cos(phi1 - alpha) = -theta / (4 scale pi)."""
    c = -target.theta / (4.0 * scale * np.pi)
    if abs(c) > 1.0:
        raise InfeasibleDesign(
            f"target angle {target.theta:.6g} exceeds the reachable "
            f"magnitude 4*pi*{scale}")
    spread = math.acos(c)
    phi1 = target.alpha + spread
    phi1_mirror = target.alpha - spread
    if even:
        phi2 = 2.0 * target.alpha - phi1
        phi2_mirror = 2.0 * target.alpha - phi1_mirror
    else:
        phi2 = 3.0 * phi1 - 2.0 * target.alpha
        phi2_mirror = 3.0 * phi1_mirror - 2.0 * target.alpha
    return (phi1, phi2), (phi1_mirror, phi2_mirror)


def design_wn(n: int, target: TargetRotation) -> DesignResult:
    """n-fold repeat of the (pi, 2*pi, pi) corrector.

    Phases come from the n-scaled first-derivative condition
    cos(phi1 - alpha) = -theta / (4 n pi), phi2 = 3 phi1 - 2 alpha; the
    corrector is the single 3-pulse block repeated n times.  n = 1 is the
    broadband Wimperis sequence.
    """
    if int(n) != n or n < 1:
        raise ValueError("n must be a positive integer")
    (phi1, phi2), mirror = _symmetric_three_pulse(int(n), target, even=False)
    block = PulseSequence.from_pairs([(np.pi, phi1), (2 * np.pi, phi2), (np.pi, phi1)])
    seq = repeated(block, int(n))
    return _validated(f"W1x{n}" if n > 1 else "W1", seq, (phi1, phi2), target, mirror)


def design_wm(m: int, target: TargetRotation) -> DesignResult:
    """Single 3-pulse corrector with angles (m pi, 2 m pi, m pi).

    cos(phi1 - alpha) = -theta / (4 m pi); the second phase is
    3 phi1 - 2 alpha for odd m and 2 alpha - phi1 for even m.  m = 1 is the
    broadband and m = 2 the passband Wimperis sequence.
    """
    if int(m) != m or m < 1:
        raise ValueError("m must be a positive integer")
    m = int(m)
    (phi1, phi2), mirror = _symmetric_three_pulse(m, target, even=(m % 2 == 0))
    seq = PulseSequence.from_pairs(
        [(m * np.pi, phi1), (2 * m * np.pi, phi2), (m * np.pi, phi1)])
    return _validated(f"W{m}", seq, (phi1, phi2), target, mirror)


# ---------------------------------------------------------------------------
# Five-pulse family
# ---------------------------------------------------------------------------
#
# The derivative condition for angles (p pi, q pi, 2 r pi, q pi, p pi)
# reduces to two real equations for three conjugated axis azimuths:
#
#     p e^{i z1} + q e^{i z2} + r e^{i z3} = theta / (2 pi)
#
# in the frame rotated so the right-hand side is real positive.  The
# solution set is one-dimensional, so one azimuth is pinned to the frame
# axis (0 or pi) per symmetry class; what remains is a two-link triangle
# with a real base, solved by the law of cosines (at most two roots).


def _pinned_triangle(weights, t, pin_idx, pin_val):
    """Law-of-cosines roots of wa e^{i za} + wb e^{i zb} = rhs, the third
    azimuth pinned on-axis; returns (azimuth triples, distance from |rhs| to
    the reachable interval [|wa - wb|, wa + wb])."""
    a, b = [i for i in range(3) if i != pin_idx]
    wa, wb = weights[a], weights[b]
    rhs = t - weights[pin_idx] * math.cos(pin_val)
    gap = max(0.0, abs(rhs) - (wa + wb), abs(wa - wb) - abs(rhs))
    if rhs == 0.0:
        return [], gap
    cos_za = (rhs * rhs + wa * wa - wb * wb) / (2.0 * wa * rhs)
    if abs(cos_za) > 1.0:
        return [], gap
    out = []
    for za in (math.acos(cos_za), -math.acos(cos_za)):
        zb = math.atan2(-wa * math.sin(za), rhs - wa * math.cos(za))
        z = [pin_val] * 3
        z[a], z[b] = reduce_angle(za), reduce_angle(zb)
        out.append(tuple(z))
    return out, gap


def _conjugated_to_phases(z, p, q, target):
    """Invert the conjugated azimuths back to raw pulse phases."""
    frame = target.alpha + np.pi
    c1, c2, c3 = (zi + frame for zi in z)
    phi1 = c1
    phi2 = 2.0 * phi1 - c2 if p % 2 else c2
    inner = 2.0 * phi1 - c3 if p % 2 else c3
    phi3 = 2.0 * phi2 - inner if q % 2 else inner
    return reduce_angle(phi1), reduce_angle(phi2), reduce_angle(phi3)


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
    for name, v in (("p", p), ("q", q), ("r", r)):
        if int(v) != v or v < 1:
            raise ValueError(f"{name} must be a positive integer")
    p, q, r = int(p), int(q), int(r)
    if (p + q + r) % 2:
        raise ValueError("p + q + r must be even")
    weights = (float(p), float(q), float(r))
    t = target.theta / TWO_PI

    phase_sets = []
    best = math.inf
    for pin_idx in range(3):
        for pin_val in (0.0, np.pi):
            sols, gap = _pinned_triangle(weights, t, pin_idx, pin_val)
            best = min(best, gap)
            phase_sets.extend(_conjugated_to_phases(z, p, q, target) for z in sols)

    results = []
    for phases in sorted(phase_sets):
        phi1, phi2, phi3 = phases
        seq = PulseSequence.from_pairs([
            (p * np.pi, phi1), (q * np.pi, phi2), (2 * r * np.pi, phi3),
            (q * np.pi, phi2), (p * np.pi, phi1)])
        results.append(_validated(f"W{p}{q}{r}", seq, phases, target))
    if not results:
        # |complex residual| maps to the matrix Frobenius norm via sqrt(2)*pi
        raise InfeasibleDesign(
            f"no phases satisfy the W{p}{q}{r} derivative condition for "
            f"theta = {target.theta:.6g}",
            best_residual=best * math.sqrt(2.0) * math.pi)
    return results


# ---------------------------------------------------------------------------
# Exhaustiveness scan over general symmetric 3-pulse angle splits
# ---------------------------------------------------------------------------


def _batch_error_deriv(target, gamma, eta, phi1, phi2):
    """Error derivative matrices for (gamma, eta, gamma) correctors over
    arrays of phases, target pulse leading; shape (n, 2, 2)."""
    phi1 = np.asarray(phi1, dtype=float)
    phi2 = np.asarray(phi2, dtype=float)
    n = phi1.size
    angles = [target.theta, gamma, eta, gamma]
    phases = [np.full(n, target.alpha), phi1, phi2, phi1]

    def rot_batch(theta, ph):
        c = np.cos(0.5 * theta)
        s = np.sin(0.5 * theta)
        out = np.empty((n, 2, 2), dtype=complex)
        out[:, 0, 0] = c
        out[:, 1, 1] = c
        out[:, 0, 1] = -1j * s * np.exp(-1j * ph)
        out[:, 1, 0] = -1j * s * np.exp(1j * ph)
        return out

    def axis_batch(ph):
        out = np.zeros((n, 2, 2), dtype=complex)
        out[:, 0, 1] = np.exp(-1j * ph)
        out[:, 1, 0] = np.exp(1j * ph)
        return out

    prefix = [np.broadcast_to(IDENTITY, (n, 2, 2)).copy()]
    for th, ph in zip(angles, phases):
        prefix.append(rot_batch(th, ph) @ prefix[-1])
    total = prefix[-1]
    deriv = np.zeros((n, 2, 2), dtype=complex)
    for k, (th, ph) in enumerate(zip(angles, phases)):
        pk = prefix[k + 1]
        suffix = total @ np.conj(np.swapaxes(pk, 1, 2))
        deriv += suffix @ ((-0.5j * th) * axis_batch(ph)) @ pk
    return deriv


def _refine_pair(target, gamma, eta, phi0, iters=30):
    """Damped Gauss-Newton to the nearest least-squares point of the
    derivative residual over the phase pair; returns the residual norm."""
    x = np.array(phi0, dtype=float)
    h = 1e-6

    def stencil(v):
        p1 = [v[0], v[0] + h, v[0] - h, v[0], v[0]]
        p2 = [v[1], v[1], v[1], v[1] + h, v[1] - h]
        d = _batch_error_deriv(target, gamma, eta, p1, p2)
        vecs = d.reshape(5, 4)
        return np.concatenate([vecs.real, vecs.imag], axis=1)

    f = stencil(x)
    fnorm = float(np.linalg.norm(f[0]))
    for _ in range(iters):
        if fnorm < 1e-14:
            break
        jac = np.stack([(f[1] - f[2]) / (2 * h), (f[3] - f[4]) / (2 * h)], axis=1)
        step, *_ = np.linalg.lstsq(jac, -f[0], rcond=None)
        improved = False
        lam = 1.0
        for _ in range(12):
            trial = x + lam * step
            d = _batch_error_deriv(target, gamma, eta, [trial[0]], [trial[1]])
            tnorm = float(np.linalg.norm(d[0]))
            if tnorm < fnorm:
                x = trial
                fnorm = tnorm
                improved = True
                break
            lam *= 0.5
        if not improved:
            break
        f = stencil(x)
        fnorm = float(np.linalg.norm(f[0]))
    return fnorm


def three_pulse_scan(target: TargetRotation, gammas=None, m: int = 1,
                     seeds_per_axis: int = 32, refine_top: int = 4) -> np.ndarray:
    """Minimum derivative residual over phases for (gamma, 2(2m pi - gamma),
    gamma) correctors, per gamma.

    Returns an array of (gamma, residual) rows.  The residual reaches the
    design floor only where gamma is an integer multiple of pi, which is the
    whole point of the scan: no other symmetric 3-pulse split admits a
    first-order-flat sequence.
    """
    if gammas is None:
        gammas = np.linspace(0.12, TWO_PI - 0.12, 61)
    grid = np.linspace(0.0, TWO_PI, seeds_per_axis, endpoint=False)
    p1, p2 = np.meshgrid(grid, grid, indexing="ij")
    p1 = p1.ravel()
    p2 = p2.ravel()
    rows = []
    for gamma in np.asarray(gammas, dtype=float):
        eta = 2.0 * (2.0 * m * np.pi - gamma)
        deriv = _batch_error_deriv(target, gamma, eta, p1, p2)
        norms = np.sqrt(np.sum(np.abs(deriv) ** 2, axis=(1, 2)))
        order = np.argsort(norms)[:refine_top]
        best = float(norms.min())
        for idx in order:
            best = min(best, _refine_pair(target, gamma, eta, (p1[idx], p2[idx])))
        rows.append((float(gamma), best))
    return np.array(rows)
