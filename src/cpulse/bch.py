"""Symmetric Baker-Campbell-Hausdorff oracle over su(2), as cross products.

Generators are real 3-vectors v standing for -i v.sigma, held as 3-tuples of
Python floats, so the bracket of two stored vectors is 2 (a x b).  The log
of e^{tR/2} e^{tS} e^{tR/2} is t (R + S) + t^3 c(R, S) + O(t^5) with
c(R, S) = -(1/24) [R + 2S, [R, S]] (Cummins, Llewellyn and Jones, PRA 67,
042308, 2003).  Composed from the corrector's centre out, then against the
target, it gives the error log of a corrected rotation: its linear row is the
design condition and its cubic row fixes the sixth-order infidelity coefficient.
"""

from __future__ import annotations

import math

from .design import ROUNDING_BOUND
from .pulses import PulseSequence, TargetRotation


def commutator(a, b) -> tuple:
    """Bracket of stored vectors: [-i a.sigma, -i b.sigma] -> 2 (a x b)."""
    (a0, a1, a2), (b0, b1, b2) = a, b
    return 2.0 * (a1 * b2 - a2 * b1), 2.0 * (a2 * b0 - a0 * b2), 2.0 * (a0 * b1 - a1 * b0)


def _cubic(r, s) -> tuple:
    """t^3 coefficient of the symmetric BCH: -(1/24) [R + 2S, [R, S]]."""
    r2s = tuple(x + 2.0 * y for x, y in zip(r, s))
    return tuple((-1.0 / 24.0) * x for x in commutator(r2s, commutator(r, s)))


def p_epsilon(corrector: PulseSequence, target: TargetRotation) -> tuple:
    """Error-log coefficients of the corrected rotation through eps^3.

    Row k of the four 3-tuples returned is the eps^k coefficient; rows 0 and 2
    are zero.  The corrector is a palindrome of angles k_j pi, k_j >= 1, an odd
    length's centre k even, mirrored phases equal, each within b = ROUNDING_BOUND
    (theta + angles).  Pulse j's error generator lies in the XY plane at beta_j,
    its phase reflected (beta -> 2 phi - beta) through every earlier odd-k pulse.
    From the centre's (k pi / 2)(cos beta, sin beta, 0) out, each mirrored pair
    R = k_j pi (cos beta_j, sin beta_j, 0) adds c(R, row 1) to row 3, then R to
    row 1; the target's halves come last, R = (theta / 2)(cos alpha, sin alpha, 0).
    """
    pulses, zero = corrector.pulses, (0.0, 0.0, 0.0)
    bound = ROUNDING_BOUND * sum((p.angle for p in pulses), target.theta)
    ks = [max(1, round(p.angle / math.pi)) for p in pulses]
    half = len(ks) // 2
    if not all(abs(p.angle - k * math.pi) < bound < math.inf for p, k in zip(pulses, ks)):
        raise ValueError("corrector angles must be positive multiples of pi")
    if ks != ks[::-1]:
        raise ValueError("corrector multiples must read the same backwards")
    if len(ks) % 2 and ks[half] % 2:
        raise ValueError("an odd-length corrector's centre multiple must be even")
    if not all(abs(math.remainder(pulses[-1 - j].phase - pulses[j].phase, math.tau)) < bound
               for j in range(half)):
        raise ValueError("mirrored corrector pulses must share one phase")
    # the reflections through the earlier odd-k pulses as one map, beta -> sign beta + shift;
    # a mirrored pair adds R = k pi along beta, a centre k pi / 2 (its cubic on row 1 = 0 is 0)
    sign, shift, steps = 1.0, 0.0, []
    for j, p in enumerate(pulses[:len(ks) - half]):
        steps.append((ks[j] * math.pi * (1.0 if j < half else 0.5), sign * p.phase + shift))
        if ks[j] % 2:
            sign, shift = -sign, shift + 2.0 * sign * p.phase
    row1 = row3 = zero
    for k, beta in steps[::-1] + [(0.5 * target.theta, target.alpha)]:
        step = (k * math.cos(beta), k * math.sin(beta), 0.0)
        row3 = tuple(x + y for x, y in zip(row3, _cubic(step, row1)))
        row1 = tuple(x + y for x, y in zip(row1, step))
    return zero, row1, zero, row3


def sixth_order_coefficient(series) -> float:
    """Infidelity coefficient C in 1 - F = C eps^6 from the cubic row.

    F = 1 + (1/4) Tr(P^2) and Tr((-i w.sigma)^2) = -2 |w|^2, so
    C = |w|^2 / 2 for w, row 3 of any (4, 3) nested sequence or array.
    """
    w0, w1, w2 = map(float, series[3])
    return 0.5 * (w0 * w0 + w1 * w1 + w2 * w2)


def analytic_c(delta: float) -> float:
    """Closed-form sixth-order coefficient for the (pi, 2*pi, pi) family.

    delta is the azimuth gap between the two corrector axes; the paper's
    bracket as one product, (pi^6/72) sin^2(d) (5 + 4 cos(d)), is
    nonnegative and vanishes only at aligned or antipodal axes.
    """
    return (math.pi ** 6 / 72.0) * math.sin(delta) ** 2 * (5.0 + 4.0 * math.cos(delta))
