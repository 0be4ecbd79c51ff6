"""Closed-form algebra for 2x2 unitaries and their Pauli-vector generators.

Everything here is evaluated exactly (trig identities on 2x2 matrices),
never by a truncated series or a general matrix exponential.
"""

import numpy as np

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

EZ = np.array([0.0, 0.0, 1.0])

TWO_PI = 2.0 * np.pi


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
    The package itself builds pulses with `rotation`; this general form is
    the test suite's closed-form reference for generators off the XY plane.
    """
    v = np.asarray(vec, dtype=float)
    if v.shape != (3,) or not (np.all(np.isfinite(v)) and np.isfinite(scale)):
        raise ValueError("generator must be a finite real 3-vector with finite scale")
    norm = float(np.sqrt(v @ v))
    if norm == 0.0:
        return IDENTITY.copy()
    angle = scale * norm
    return np.cos(angle) * IDENTITY - 1j * np.sin(angle) * pauli_sum(v / norm)


def rotation(theta: float, alpha: float) -> np.ndarray:
    """Rotation by theta about the XY-plane axis at azimuth alpha.

    Returns cos(theta/2) I - i sin(theta/2) (X cos(alpha) + Y sin(alpha)),
    an exact SU(2) element.  theta may be negative (opposite sense).
    """
    if not (np.isfinite(theta) and np.isfinite(alpha)):
        raise ValueError("rotation angles must be finite")
    c = np.cos(0.5 * theta)
    s = np.sin(0.5 * theta)
    return np.array([[c, -1j * s * np.exp(-1j * alpha)],
                     [-1j * s * np.exp(1j * alpha), c]])


def dagger(u: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return u.conj().T


def su2_parts(u: np.ndarray):
    """Split an SU(2) matrix as U = w I - i (v . sigma), returning (w, v).

    w and the components of v are real for exact SU(2) input; roundoff-sized
    imaginary residue is averaged away.  This decomposition is what makes
    infidelities far below double rounding (1 - |w| ~ 1e-18) computable: the
    small vector part is obtained without cancellation against 1.
    """
    w = 0.5 * (u[0, 0].real + u[1, 1].real)
    x = -0.5 * (u[0, 1].imag + u[1, 0].imag)
    y = 0.5 * (u[1, 0].real - u[0, 1].real)
    z = 0.5 * (u[1, 1].imag - u[0, 0].imag)
    return w, np.array([x, y, z])
