"""Test-side SU(2) references: Pauli matrices, XY-plane axes as arrays, the
general closed-form exponential, the symmetric BCH series, the (pi, 2 pi, pi)
generators and their error-log rows by the array route, fit grids as arrays,
the bare-pulse sweep baseline, a high-precision infidelity, the paper's
closed-form phases and the exact C6 and C8 of every designed three-pulse
family, the five-pulse branches at high precision, BB1, and a tracemalloc
peak probe.

The package needs none of these; the tests use them as independent
matrix-level references for the scalar routines in cpulse.
"""

import math
import tracemalloc

import numpy as np

from cpulse.analysis import FIT_POINTS, ORDER_WINDOW, SweepTable, _log_grid, sweep
from cpulse.bch import _cubic
from cpulse.pulses import Pulse, PulseSequence, TargetRotation

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

EZ = np.array([0.0, 0.0, 1.0])


def pauli_sum(vec) -> np.ndarray:
    """Hermitian matrix v . sigma for a real 3-vector v."""
    vx, vy, vz = vec
    return vx * SIGMA_X + vy * SIGMA_Y + vz * SIGMA_Z


def axis_vector(phi: float) -> np.ndarray:
    """Unit 3-vector of the XY-plane axis at azimuth phi."""
    return np.array([np.cos(phi), np.sin(phi), 0.0])


def xy_axis(phi: float) -> np.ndarray:
    """Hermitian involution X cos(phi) + Y sin(phi) (squares to identity)."""
    return pauli_sum(axis_vector(phi))


def exp_pauli(vec, scale: float = 1.0) -> np.ndarray:
    """exp(-i * scale * v.sigma) in closed form.

    For unit-norm v this is cos(scale) I - i sin(scale) v.sigma; a general v
    is split into norm and direction.  A zero vector gives the identity.
    The package builds pulses with `rotation`; this general form is the
    closed-form reference for generators off the XY plane.
    """
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,) or not (np.all(np.isfinite(v)) and np.isfinite(scale)):
        raise ValueError("generator must be a finite real 3-vector with finite scale")
    norm = float(np.sqrt(v @ v))
    if norm == 0.0:
        return IDENTITY.copy()
    angle = scale * norm
    return np.cos(angle) * IDENTITY - 1j * np.sin(angle) * pauli_sum(v / norm)


def dagger(u: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return u.conj().T


def sbch(r, s, t: float) -> np.ndarray:
    """log of e^{tR/2} e^{tS} e^{tR/2} through t^3; the next term is t^5."""
    return t * (r + s) + t ** 3 * np.asarray(_cubic(r, s))


def pi_triple_generators(corrector: PulseSequence, target: TargetRotation) -> tuple:
    """(q, r, s) of a (pi, 2 pi, pi) corrector and its target as generator
    arrays k (cos(phi), sin(phi), 0) with libm's cos and sin: q is theta along
    alpha, r is pi along phi1 and s is pi along the reflected 2 phi1 - phi2."""
    phi1, phi2 = corrector.pulses[0].phase, corrector.pulses[1].phase
    return tuple(k * np.array([math.cos(phi), math.sin(phi), 0.0]) for k, phi in
                 ((target.theta, target.alpha), (np.pi, phi1), (np.pi, 2.0 * phi1 - phi2)))


def p_epsilon_array(corrector: PulseSequence, target: TargetRotation) -> np.ndarray:
    """p_epsilon's rows for a (pi, 2 pi, pi) corrector as a (4, 3) array, by
    the triple's own composition, each bracket 2 np.cross(a, b):
    row 1 = (q + d) / 2 and row 3 = c(r, s) + c(q, d) / 8 with d = 2 (r + s)."""
    q, r, s = pi_triple_generators(corrector, target)

    def cubic(a, b):
        return (-1.0 / 24.0) * (2.0 * np.cross(a + 2.0 * b, 2.0 * np.cross(a, b)))

    d = 2.0 * (r + s)
    series = np.zeros((4, 3))
    series[1] = 0.5 * (q + d)
    series[3] = cubic(r, s) + cubic(q, d) / 8.0
    return series


def fit_grid(window=ORDER_WINDOW, n: int = FIT_POINTS) -> np.ndarray:
    """Log-spaced epsilon grid covering a fit window: the grid
    fit_error_scaling evaluates, as an array."""
    return np.array(_log_grid(window, n))


def plain_sweep(target: TargetRotation, eps_grid) -> SweepTable:
    """Baseline sweep of the bare error-prone pulse for the same target."""
    bare = PulseSequence((Pulse(target.theta, target.alpha),))
    return sweep(bare, target, eps_grid, embed=False, label="plain")


def bb1_corrector() -> PulseSequence:
    """BB1's (pi, 2 pi, pi) corrector for pi about X: phi1 = arccos(-1/4), phi2 = 3 phi1."""
    phi1 = math.acos(-0.25)
    return PulseSequence.from_pairs([(math.pi, phi1), (2 * math.pi, 3 * phi1), (math.pi, phi1)])


def peak_bytes(func, *args):
    """(func(*args), the peak of the memory tracemalloc traced while it ran)."""
    tracemalloc.start()
    try:
        return func(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def oracle_infidelity(mp, pulses, target, eps):
    """1 - |Tr(V U-dagger)| / 2 from a quaternion product in mpmath.

    V = w I - i v.sigma composes the pulses in time order at angles scaled
    by (1 + eps); the trace overlap with the ideal target is the quaternion
    dot product.
    """
    def quat(angle, phase, scale):
        half = mp.mpf(angle) * scale / 2
        s = mp.sin(half)
        return (mp.cos(half), s * mp.cos(mp.mpf(phase)),
                s * mp.sin(mp.mpf(phase)), mp.mpf(0))

    w, x, y, z = mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(0)
    scale = 1 + mp.mpf(eps)
    for p in pulses:
        a, b, c, d = quat(p.angle, p.phase, scale)
        # later pulse on the left: (a, b, c, d)(w, x, y, z)
        w, x, y, z = (a * w - b * x - c * y - d * z,
                      a * x + w * b + c * z - d * y,
                      a * y + w * c + d * x - b * z,
                      a * z + w * d + b * y - c * x)
    tw, tx, ty, tz = quat(target.theta, target.alpha, 1)
    return 1 - abs(w * tw + x * tx + y * ty + z * tz)


def three_pulse_c(m: int, n: int, theta: float) -> float:
    """Exact sixth-order coefficient of the designed (m pi, 2 m pi, m pi)
    block repeated n times, for target angle theta:
    (pi^6/18) m^6 n^2 x^2 (1 - x^2) (1 + 8 x^2) with x = theta / (4 m n pi).

    For m = n = 1 it is analytic_c at cos(delta) = 2 x^2 - 1; for m or n > 1
    it was found numerically, and the tests hold it to an 80-digit product.
    It is positive for every theta in (0, 4 m n pi) and vanishes only at the
    ends.
    """
    x = theta / (4.0 * m * n * math.pi)
    return (math.pi ** 6 / 18.0) * m ** 6 * n ** 2 * x * x * (1.0 - x * x) * (1.0 + 8.0 * x * x)


def three_pulse_c8(m: int, n: int, theta: float) -> float:
    """Exact eighth-order coefficient of the same designed family:
    -(pi^8/180) m^8 n^2 x^2 (1 - x^2) (1 + 20 x^2 + (120 n^2 - 96) x^4) with
    x = theta / (4 m n pi).

    It was identified from a 60-digit power series of the compiled sequence,
    and the tests hold it to a 120-digit product.  It is negative for every
    theta in (0, 4 m n pi), so the eps^6 law always bends down, and the
    factor x^2 (1 - x^2) cancels from C6 / |C8|: the sixth-order regime's
    upper edge sqrt(C6 / |C8|) never vanishes.
    """
    x = theta / (4.0 * m * n * math.pi)
    return (-(math.pi ** 8 / 180.0) * m ** 8 * n ** 2 * x * x * (1.0 - x * x)
            * (1.0 + 20.0 * x * x + (120.0 * n * n - 96.0) * x ** 4))


def three_pulse_phases(mp, m: int, n: int, theta: float, alpha: float, dps: int = 50):
    """(branch, mirror) phase pairs (phi1, phi2) of the designed (m pi,
    2 m pi, m pi) block repeated n times, at dps digits, by the paper's
    closed form (Cummins et al., PRA 67, 042308): cos(phi1 - alpha) =
    -theta / (4 m n pi), the branch at phi1 - alpha in (0, pi), and
    phi2 = 3 phi1 - 2 alpha for odd m, 2 alpha - phi1 for even m."""
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        spread = mp.acos(-mp.mpf(theta) / (4 * m * n * mp.pi))
        return tuple((phi, 3 * phi - 2 * a if m % 2 else 2 * a - phi)
                     for phi in (a + spread, a - spread))


def five_pulse_phases(mp, p: int, q: int, r: int, theta: float, alpha: float,
                      dps: int = 40) -> list:
    """Every branch (phi1, phi2, phi3) of the (p pi, q pi, 2 r pi, q pi, p pi)
    corrector at dps digits, unsorted: per pin of one conjugated azimuth at
    0 or pi, the two law-of-cosines roots of the other two links of
    p e^{i z1} + q e^{i z2} + r e^{i z3} = theta / (2 pi), each mapped to
    phases through the pulses of odd angle written out."""
    with mp.workdps(dps):
        weights = [mp.mpf(p), mp.mpf(q), mp.mpf(r)]
        t, frame = mp.mpf(theta) / (2 * mp.pi), mp.mpf(alpha) + mp.pi
        out = []
        for pin in range(3):
            wa, wb = (w for i, w in enumerate(weights) if i != pin)
            for pin_val in (mp.mpf(0), +mp.pi):
                rhs = t - weights[pin] * mp.cos(pin_val)
                cos_za = (rhs ** 2 + wa ** 2 - wb ** 2) / (2 * wa * rhs) if rhs else 2
                if abs(cos_za) > 1:
                    continue
                for za in (mp.acos(cos_za), -mp.acos(cos_za)):
                    z = [za, mp.atan2(-wa * mp.sin(za), rhs - wa * mp.cos(za))]
                    z.insert(pin, pin_val)
                    c1, c2, c3 = (zi + frame for zi in z)
                    phi2 = 2 * c1 - c2 if p % 2 else c2
                    inner = 2 * c1 - c3 if p % 2 else c3
                    out.append((c1, phi2, 2 * phi2 - inner if q % 2 else inner))
        return out
