"""Symmetric Baker-Campbell-Hausdorff oracle over su(2), as cross products.

Generators are real 3-vectors v standing for -i v.sigma, held as 3-tuples of
Python floats, so the bracket of two stored vectors is 2 (a x b).  The log
of e^{tR/2} e^{tS} e^{tR/2} is t (R + S) + t^3 c(R, S) + O(t^5) with
c(R, S) = -(1/24) [R + 2S, [R, S]] (Cummins, Llewellyn and Jones, PRA 67,
042308, 2003).  Composed across the corrector and then against the target
it gives the error log of a corrected rotation: its linear row is the design
condition and its cubic row fixes the sixth-order infidelity coefficient.
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


def corrector_generators(corrector: PulseSequence, target: TargetRotation):
    """Stored vectors (q, r, s) for a (pi, 2*pi, pi) corrector and target.

    q is theta times the target axis; r is pi times the first corrector
    axis; s is pi times the reflected middle axis at 2*phi1 - phi2.  Each angle and
    the outer phases' gap on the circle lie strictly within ROUNDING_BOUND (theta + angles).
    """
    bound = ROUNDING_BOUND * sum((p.angle for p in corrector), target.theta)
    if len(corrector) != 3 or not all(abs(p.angle - a) < bound < math.inf for p, a in
                                      zip(corrector, (math.pi, 2 * math.pi, math.pi))):
        raise ValueError("corrector must be a (pi, 2*pi, pi) pulse triple")
    phi1, phi2, phi3 = (p.phase for p in corrector)
    if not abs(math.remainder(phi3 - phi1, math.tau)) < bound:
        raise ValueError("outer corrector pulses must share one phase")
    return tuple((k * math.cos(phi), k * math.sin(phi), 0.0) for k, phi in
                 ((target.theta, target.alpha), (math.pi, phi1),
                  (math.pi, 2.0 * phi1 - phi2)))


def p_epsilon(corrector: PulseSequence, target: TargetRotation) -> tuple:
    """Error-log coefficients of the corrected rotation through eps^3.

    Row k of the four 3-tuples returned is the eps^k coefficient.  The
    corrector's log eps (r + s) + eps^3 c(r, s), doubled and divided by eps,
    is d + 2 eps^2 c(r, s) with d = 2 (r + s); composing it against q at
    t = eps/2 gives row 1 = q/2 + r + s and row 3 = c(r, s) + c(q, d)/8,
    with rows 0 and 2 zero.  A flat corrector has row 1 = 0, so d = -q and
    row 3 is c(r, s) alone; otherwise the nonzero row 1 is reported.
    """
    q, r, s = corrector_generators(corrector, target)
    d = tuple(2.0 * (x + y) for x, y in zip(r, s))
    zero = (0.0, 0.0, 0.0)
    return (zero, tuple(0.5 * (x + y) for x, y in zip(q, d)), zero,
            tuple(x + y / 8.0 for x, y in zip(_cubic(r, s), _cubic(q, d))))


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
