"""Symmetric Baker-Campbell-Hausdorff oracle over su(2), as cross products.

Generators are real 3-vectors v standing for -i v.sigma, so the bracket of
two stored vectors is 2 (a x b).  The log of e^{tR/2} e^{tS} e^{tR/2} is
t (R + S) + t^3 c(R, S) + O(t^5) with c(R, S) = -(1/24) [R + 2S, [R, S]]
(Cummins, Llewellyn and Jones, PRA 67, 042308, 2003).  Composed across the
corrector and then against the target it gives the error log of a corrected
rotation: its linear row is the design condition and its cubic row fixes
the sixth-order infidelity coefficient.
"""

import math

import numpy as np

from .pulses import PulseSequence, TargetRotation
from .su2 import axis_vector


def commutator(a, b) -> np.ndarray:
    """Bracket of stored vectors: [-i a.sigma, -i b.sigma] -> 2 (a x b)."""
    return 2.0 * np.cross(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def _cubic(r, s) -> np.ndarray:
    """t^3 coefficient of the symmetric BCH: -(1/24) [R + 2S, [R, S]]."""
    return (-1.0 / 24.0) * commutator(r + 2.0 * s, commutator(r, s))


def sbch(r, s, t: float) -> np.ndarray:
    """log of e^{tR/2} e^{tS} e^{tR/2} through t^3; the next term is t^5."""
    return t * (r + s) + t ** 3 * _cubic(r, s)


def corrector_generators(corrector: PulseSequence, target: TargetRotation):
    """Stored vectors (q, r, s) for a (pi, 2*pi, pi) corrector and target.

    q is theta times the target axis; r is pi times the first corrector
    axis; s is pi times the reflected middle axis at 2*phi1 - phi2.
    """
    angles = corrector.angles
    if len(corrector) != 3 or not np.allclose(angles, [np.pi, 2 * np.pi, np.pi],
                                              atol=1e-12):
        raise ValueError("corrector must be a (pi, 2*pi, pi) pulse triple")
    phi1 = corrector.pulses[0].phase
    phi2 = corrector.pulses[1].phase
    if abs(corrector.pulses[2].phase - phi1) > 1e-12:
        raise ValueError("outer corrector pulses must share one phase")
    q = target.theta * axis_vector(target.alpha)
    r = np.pi * axis_vector(phi1)
    s = np.pi * axis_vector(2.0 * phi1 - phi2)
    return q, r, s


def p_epsilon(corrector: PulseSequence, target: TargetRotation) -> np.ndarray:
    """Error-log coefficients of the corrected rotation through eps^3.

    Row k of the (4, 3) result is the eps^k coefficient.  The corrector's
    log eps (r + s) + eps^3 c(r, s), doubled and divided by eps, is
    d + 2 eps^2 c(r, s) with d = 2 (r + s); composing it against q at
    t = eps/2 gives row 1 = q/2 + r + s and row 3 = c(r, s) + c(q, d)/8,
    with rows 0 and 2 zero.  A flat corrector has row 1 = 0, so d = -q and
    row 3 is c(r, s) alone; otherwise the nonzero row 1 is reported.
    """
    q, r, s = corrector_generators(corrector, target)
    d = 2.0 * (r + s)
    series = np.zeros((4, 3))
    series[1] = 0.5 * (q + d)
    series[3] = _cubic(r, s) + _cubic(q, d) / 8.0
    return series


def sixth_order_coefficient(series: np.ndarray) -> float:
    """Infidelity coefficient C in 1 - F = C eps^6 from the cubic row.

    F = 1 + (1/4) Tr(P^2) and Tr((-i w.sigma)^2) = -2 |w|^2, so
    C = |w|^2 / 2 for the cubic coefficient w.
    """
    w = series[3]
    return 0.5 * float(w @ w)


def analytic_c(delta: float) -> float:
    """Closed-form sixth-order coefficient for the (pi, 2*pi, pi) family.

    delta is the azimuth gap between the two corrector axes; the bracket
    (pi^6/144) [5 + 2 cos(d) - 5 cos(2d) - 2 cos(3d)] is nonnegative and
    vanishes only at aligned or antipodal axes.
    """
    bracket = (5.0 + 2.0 * math.cos(delta) - 5.0 * math.cos(2.0 * delta)
               - 2.0 * math.cos(3.0 * delta))
    return (math.pi ** 6 / 144.0) * bracket
