"""Closed-form algebra for 2x2 unitaries and their Pauli-vector generators.

Everything here is evaluated exactly (trig identities on 2x2 matrices),
never by a truncated series or a general matrix exponential.
"""

from __future__ import annotations

import math


def _finite(x) -> bool:
    """math.isfinite(x), False for an int too large for a float."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def rotation(theta: float, alpha: float) -> np.ndarray:
    """Rotation by theta about the XY-plane axis at azimuth alpha.

    Returns cos(theta/2) I - i sin(theta/2) (X cos(alpha) + Y sin(alpha)),
    an exact SU(2) element, as a 2x2 complex array whose entries come from
    scalar trig on Python floats (_entries, which the scalar kernels share).
    theta may be negative (opposite sense).
    """
    if not _finite(alpha):
        raise ValueError("rotation angles must be finite")
    import numpy as np
    return np.array(_entries(theta, math.cos(alpha), math.sin(alpha)))


def _entries(theta: float, ca: float, sa: float) -> tuple:
    """((c, r01), (r10, c)), the entries of the rotation by theta about the
    axis (ca, sa, 0) as Python scalars: scalar trig on Python floats."""
    if not _finite(theta):
        raise ValueError("rotation angles must be finite")
    c = math.cos(0.5 * theta)
    s = math.sin(0.5 * theta)
    sc, ss = s * ca, s * sa
    return (c, complex(-ss, -sc)), (complex(ss, -sc), c)


def _split(a: complex, b: complex, c: complex, d: complex) -> tuple:
    """(w, x, y, z) of the SU(2) matrix [[a, b], [c, d]] = w I - i (x, y, z).sigma."""
    return (0.5 * (a.real + d.real), -0.5 * (b.imag + c.imag),
            0.5 * (c.real - b.real), 0.5 * (d.imag - a.imag))


def su2_parts(u: np.ndarray):
    """Split an SU(2) matrix as U = w I - i (v . sigma), returning (w, v).

    w and the components of v are real for exact SU(2) input; roundoff-sized
    imaginary residue is averaged away.  This decomposition is what makes
    infidelities far below double rounding (1 - |w| ~ 1e-18) computable: the
    small vector part is obtained without cancellation against 1.
    """
    w, x, y, z = _split(*u.ravel().tolist())
    import numpy as np
    return w, np.array([x, y, z])
