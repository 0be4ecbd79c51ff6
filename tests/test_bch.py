import math

import numpy as np
import pytest

from cpulse.bch import (analytic_c, commutator, corrector_generators,
                        p_epsilon, sbch, sixth_order_coefficient)
from cpulse.design import design_wn
from cpulse.pulses import (PulseSequence, TargetRotation, compile_sequence,
                           embed_target)
from cpulse.su2 import (axis_vector, dagger, exp_pauli, pauli_sum, rotation,
                        su2_parts)

PI = np.pi
EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def bb1_corrector(theta=PI, alpha=0.0):
    phi1 = alpha + math.acos(-theta / (4 * PI))
    return PulseSequence.from_pairs(
        [(PI, phi1), (2 * PI, 3 * phi1 - 2 * alpha), (PI, phi1)])


def log_vector(u):
    """g with u = exp(-i g.sigma), for u near the identity."""
    w, v = su2_parts(u)
    norm = np.linalg.norm(v)
    return v * (math.atan2(norm, w) / norm)


class TestCommutator:
    def test_self_commutator_vanishes(self):
        assert np.allclose(commutator(EX, EX), 0.0)

    def test_pauli_algebra(self):
        assert np.allclose(commutator(EX, EY), 2 * EZ)
        assert np.allclose(commutator(EY, EZ), 2 * EX)
        assert np.allclose(commutator(EZ, EX), 2 * EY)

    def test_matches_matrix_bracket(self):
        # [-i a.sigma, -i b.sigma] = -i (2 a x b).sigma
        rng = np.random.default_rng(21)
        for _ in range(20):
            a, b = rng.normal(size=(2, 3))
            ma = -1j * pauli_sum(a)
            mb = -1j * pauli_sum(b)
            lhs = ma @ mb - mb @ ma
            rhs = -1j * pauli_sum(commutator(a, b))
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_axis_reflection_norm(self):
        # |[A, ABA]| = 2 |sin(phi2 - phi1)| in the vector convention
        for phi1, phi2 in [(0.2, 1.4), (1.0, 1.0), (0.5, 3.3)]:
            a = axis_vector(phi1)
            aba = axis_vector(2 * phi1 - phi2)
            norm = np.linalg.norm(commutator(a, aba))
            assert norm == pytest.approx(2 * abs(math.sin(phi2 - phi1)),
                                         abs=1e-12)


class TestSeries:
    def test_commuting_inputs_give_linear_term_only(self):
        r = 0.7 * EX
        for t in (1.0, 0.3):
            assert np.allclose(sbch(r, r, t), 2 * 0.7 * t * EX)

    def test_defect_scales_as_t5(self):
        # halving t must shrink the truncation defect by about 32x
        phi1 = math.acos(-0.25)
        r = PI * axis_vector(phi1)
        s = PI * axis_vector(-phi1)
        defects = []
        for t in (0.1, 0.05, 0.025):
            product = exp_pauli(r, t / 2) @ exp_pauli(s, t) @ exp_pauli(r, t / 2)
            approx = exp_pauli(sbch(r, s, t))
            defects.append(np.linalg.norm(product - approx))
        for big, small in zip(defects, defects[1:]):
            assert big / small == pytest.approx(32.0, rel=0.1)


class TestPEpsilon:
    def test_designed_corrector_cancels_linear_term(self):
        target = TargetRotation(PI, 0.0)
        series = p_epsilon(bb1_corrector(), target)
        assert np.linalg.norm(series[1]) < 1e-12

    def test_cubic_term_is_pure_double_bracket(self):
        target = TargetRotation(PI, 0.0)
        corrector = bb1_corrector()
        series = p_epsilon(corrector, target)
        _, r, s = corrector_generators(corrector, target)
        expected = -np.asarray(commutator(r + 2 * s, commutator(r, s))) / 24.0
        assert np.allclose(series[3], expected, atol=1e-12)

    def test_naive_corrector_keeps_linear_term(self):
        target = TargetRotation(PI, 0.0)
        naive = PulseSequence.from_pairs([(PI, 0.0), (2 * PI, 0.0), (PI, 0.0)])
        series = p_epsilon(naive, target)
        assert np.linalg.norm(series[1]) > 1.0

    def test_cubic_term_independent_of_target_angle(self):
        # co-designed phases keep the double bracket free of the target term
        for theta in (0.6, 1.3, PI, 2.8):
            target = TargetRotation(theta, 0.0)
            corrector = design_wn(1, target).sequence
            series = p_epsilon(corrector, target)
            _, r, s = corrector_generators(corrector, target)
            expected = -np.asarray(commutator(r + 2 * s, commutator(r, s))) / 24.0
            assert np.allclose(series[3], expected, atol=1e-10)

    def test_rows_match_matrix_route(self):
        # odd part of the log of R(theta/2)^-1 U(eps) R(theta/2)^-1, with the
        # corrector embedded at the half-turn, fitted as a eps + b eps^3 + c eps^5
        rng = np.random.default_rng(41)
        eps = np.array([1e-2, 5e-3, 2.5e-3])
        powers = np.stack([eps, eps ** 3, eps ** 5], axis=1)
        for _ in range(40):
            phi1, phi2, alpha = rng.uniform(0, 2 * PI, size=3)
            target = TargetRotation(rng.uniform(0.2, 4 * PI - 0.2), alpha)
            corrector = PulseSequence.from_pairs(
                [(PI, phi1), (2 * PI, phi2), (PI, phi1)])
            full = embed_target(corrector, target, 0.5)
            half = dagger(rotation(target.theta / 2, target.alpha))
            odd = np.array([
                (log_vector(half @ compile_sequence(full, e) @ half)
                 - log_vector(half @ compile_sequence(full, -e) @ half)) / 2
                for e in eps])
            linear, cubic, _ = np.linalg.solve(powers, odd)
            series = p_epsilon(corrector, target)
            assert series.shape == (4, 3)
            assert not np.any(series[0]) and not np.any(series[2])
            assert np.linalg.norm(linear - series[1]) <= \
                1e-9 * np.linalg.norm(series[1])
            assert np.linalg.norm(cubic - series[3]) <= \
                1e-5 * np.linalg.norm(series[3])

    def test_rejects_other_shapes(self):
        target = TargetRotation(PI, 0.0)
        with pytest.raises(ValueError):
            p_epsilon(PulseSequence.from_pairs([(PI, 0.0)]), target)
        with pytest.raises(ValueError):
            p_epsilon(PulseSequence.from_pairs(
                [(2 * PI, 0.0), (4 * PI, 1.0), (2 * PI, 0.0)]), target)


class TestAnalyticCoefficient:
    def test_bb1_value(self):
        delta = math.acos(-7.0 / 8.0)
        assert analytic_c(delta) == pytest.approx(5 * PI ** 6 / 1024, rel=1e-12)

    def test_degenerate_axes_give_zero(self):
        assert analytic_c(0.0) == pytest.approx(0.0, abs=1e-12)
        assert analytic_c(PI) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_on_grid(self):
        deltas = np.linspace(0, 2 * PI, 1000)
        values = np.array([analytic_c(d) for d in deltas])
        assert np.all(values >= -1e-12)

    def test_matches_series_coefficient(self):
        for theta in (0.8, PI, 2.2):
            target = TargetRotation(theta, 0.0)
            corrector = design_wn(1, target).sequence
            series = p_epsilon(corrector, target)
            delta = corrector.pulses[1].phase - corrector.pulses[0].phase
            assert sixth_order_coefficient(series) == pytest.approx(
                analytic_c(delta), rel=1e-10)

    def test_trace_identity_series_vs_matrices(self):
        # Tr([R+2S,[R,S]]^2) from vectors equals the matrix-level trace
        rng = np.random.default_rng(33)
        for _ in range(20):
            phi1, phi2 = rng.uniform(0, 2 * PI, size=2)
            r = PI * axis_vector(phi1)
            s = PI * axis_vector(2 * phi1 - phi2)
            w = commutator(r + 2 * s, commutator(r, s))
            series_trace = -2.0 * float(w @ w)
            mr = -1j * pauli_sum(r)
            ms = -1j * pauli_sum(s)
            inner = mr @ ms - ms @ mr
            outer = (mr + 2 * ms) @ inner - inner @ (mr + 2 * ms)
            matrix_trace = np.trace(outer @ outer)
            assert matrix_trace.imag == pytest.approx(0.0, abs=1e-9)
            assert series_trace == pytest.approx(matrix_trace.real, abs=1e-10 * max(1, abs(series_trace)))
