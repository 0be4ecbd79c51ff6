import numpy as np
import pytest

from cpulse.su2 import (EZ, IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, dagger,
                        exp_pauli, rotation, su2_parts, xy_axis)

RTOL = 1e-12


def unitarity_defect(u):
    return float(np.max(np.abs(u @ dagger(u) - IDENTITY)))


def test_rotation_pi_about_x_is_minus_i_x():
    u = rotation(np.pi, 0.0)
    assert np.allclose(u, -1j * SIGMA_X, atol=RTOL)


def test_rotation_full_turn_is_minus_identity():
    for alpha in (0.0, 0.7, np.pi / 3, 5.1):
        assert np.allclose(rotation(2 * np.pi, alpha), -IDENTITY, atol=RTOL)


def test_rotation_quarter_turn_about_y():
    # expand cos(pi/4) I - i sin(pi/4) Y by hand
    expected = np.array([[1, -1], [1, 1]]) / np.sqrt(2)
    assert np.allclose(rotation(np.pi / 2, np.pi / 2), expected, atol=RTOL)


def test_rotation_rejects_non_finite():
    with pytest.raises(ValueError):
        rotation(np.nan, 0.0)
    with pytest.raises(ValueError):
        rotation(1.0, np.inf)


@pytest.mark.parametrize("theta", [-3.0, 0.0, 0.3, np.pi, 2.1, 9.0])
@pytest.mark.parametrize("alpha", [0.0, 1.0, np.pi, 4.5])
def test_rotation_unitary_with_expected_trace(theta, alpha):
    u = rotation(theta, alpha)
    assert unitarity_defect(u) < RTOL
    assert abs(np.linalg.det(u)) == pytest.approx(1.0, abs=RTOL)
    assert np.trace(u).real == pytest.approx(2 * np.cos(theta / 2), abs=RTOL)
    assert abs(np.trace(u).imag) < RTOL


def test_phase_covariance_under_z_conjugation():
    thetas = [0.4, np.pi, 2.5]
    alphas = [0.0, 1.1, 3.9]
    deltas = [0.3, np.pi / 7, 2.0]
    for theta in thetas:
        for alpha in alphas:
            for delta in deltas:
                lhs = rotation(theta, alpha + delta)
                rhs = exp_pauli(EZ, delta / 2) @ rotation(theta, alpha) @ exp_pauli(EZ, -delta / 2)
                assert np.allclose(lhs, rhs, atol=RTOL)


def test_axis_product_gives_z_phase():
    # A B = exp(i (phi2 - phi1) Z) for XY-plane axes
    for phi1, phi2 in [(0.0, 1.0), (0.5, 2.7), (4.0, 1.2)]:
        lhs = xy_axis(phi1) @ xy_axis(phi2)
        rhs = exp_pauli(EZ, -(phi2 - phi1))
        assert np.allclose(lhs, rhs, atol=RTOL)


def test_same_axis_additivity():
    for alpha in (0.0, 2.2):
        u = rotation(0.7, alpha) @ rotation(1.9, alpha)
        assert np.allclose(u, rotation(2.6, alpha), atol=RTOL)


def test_exp_pauli_unit_x():
    assert np.allclose(exp_pauli((1, 0, 0), np.pi / 2), -1j * SIGMA_X, atol=RTOL)


def test_exp_pauli_zero_generator():
    assert np.allclose(exp_pauli((0, 0, 0), 3.7), IDENTITY)


def test_exp_pauli_z_is_diagonal_phase():
    delta = 0.83
    u = exp_pauli(EZ, delta / 2)
    expected = np.diag([np.exp(-1j * delta / 2), np.exp(1j * delta / 2)])
    assert np.allclose(u, expected, atol=RTOL)


def test_exp_pauli_matches_rotation_in_plane():
    for theta, alpha in [(0.9, 0.3), (np.pi, 2.0)]:
        v = np.array([np.cos(alpha), np.sin(alpha), 0.0])
        assert np.allclose(exp_pauli(v, theta / 2), rotation(theta, alpha), atol=RTOL)


def test_exp_pauli_rejects_bad_input():
    with pytest.raises(ValueError):
        exp_pauli((np.inf, 0, 0))
    with pytest.raises(ValueError):
        exp_pauli((1, 0), 1.0)


def test_dagger_inverts_rotation():
    u = rotation(1.3, 0.4)
    assert np.allclose(dagger(u), rotation(-1.3, 0.4), atol=RTOL)
    assert np.allclose(u @ dagger(u), IDENTITY, atol=RTOL)
    assert np.allclose(dagger(-1j * SIGMA_X), 1j * SIGMA_X)


def test_products():
    v = rotation(0.77, 1.2)
    assert np.allclose(IDENTITY @ v, v)
    assert np.allclose(rotation(np.pi, 0) @ rotation(np.pi, 0), -IDENTITY, atol=RTOL)
    assert unitarity_defect(v @ rotation(2.0, 0.1) @ rotation(5.0, 3.0)) <= 1e-12


def test_su2_parts_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        quat = rng.normal(size=4)
        quat /= np.linalg.norm(quat)
        w0, (x0, y0, z0) = quat[0], quat[1:]
        u = w0 * IDENTITY - 1j * (x0 * SIGMA_X + y0 * SIGMA_Y + z0 * SIGMA_Z)
        w, vec = su2_parts(u)
        assert w == pytest.approx(w0, abs=1e-14)
        assert np.allclose(vec, (x0, y0, z0), atol=1e-14)
