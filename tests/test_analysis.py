import math

import numpy as np
import pytest

from cpulse.analysis import (COEFF_WINDOW, INFIDELITY_FLOOR, ORDER_WINDOW,
                             FitWindowError, NotSuperior, SweepTable,
                             crossover, fidelity,
                             fit_error_scaling, fit_grid, fit_scaling,
                             infidelity, plain_sweep, sweep)
from cpulse.design import design_five_pulse, design_wm
from cpulse.pulses import (PulseSequence, TargetRotation, compile_sequence,
                           embed_target)
from cpulse.su2 import EZ, exp_pauli, rotation

PI = np.pi
BB1_C = 5 * PI ** 6 / 1024  # exact sixth-order coefficient of the m=1 family


def bb1_corrector(theta=PI, alpha=0.0):
    phi1 = alpha + np.arccos(-theta / (4 * PI))
    return PulseSequence.from_pairs(
        [(PI, phi1), (2 * PI, 3 * phi1 - 2 * alpha), (PI, phi1)])


def random_su2(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return (q[0] * np.eye(2) + 1j * q[1] * np.diag([1, -1])
            + q[2] * np.array([[0, 1], [-1, 0]])
            + 1j * q[3] * np.array([[0, 1], [1, 0]]))


class TestFidelity:
    def test_self_and_global_phase(self):
        u = rotation(1.1, 0.7)
        assert fidelity(u, u) == pytest.approx(1.0, abs=1e-14)
        assert fidelity(-u, u) == pytest.approx(1.0, abs=1e-14)

    def test_overrotated_pulse_closed_form(self):
        for eps in (0.05, 0.2, 0.6):
            v = rotation(PI * (1 + eps), 0.0)
            u = rotation(PI, 0.0)
            assert fidelity(v, u) == pytest.approx(abs(np.cos(eps * PI / 2)),
                                                   abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            v, u = random_su2(rng), random_su2(rng)
            assert fidelity(v, u) == pytest.approx(fidelity(u, v), abs=1e-12)

    def test_invariant_under_joint_z_conjugation(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            v, u = random_su2(rng), random_su2(rng)
            delta = rng.uniform(0, 2 * PI)
            zc = exp_pauli(EZ, delta / 2)
            zi = exp_pauli(EZ, -delta / 2)
            assert fidelity(zc @ v @ zi, zc @ u @ zi) == \
                pytest.approx(fidelity(v, u), abs=1e-12)

    def test_infidelity_matches_fidelity_at_moderate_error(self):
        v = rotation(1.3 * PI, 0.0)
        u = rotation(PI, 0.0)
        assert infidelity(v, u) == pytest.approx(1 - fidelity(v, u), abs=1e-12)

    def test_infidelity_resolves_below_double_rounding(self):
        # BB1 at eps = 1e-3: expected ~ 4.7e-18, far below 1 - F in doubles
        target = TargetRotation(PI, 0.0)
        full = embed_target(bb1_corrector(), target, 1.0)
        value = infidelity(compile_sequence(full, 1e-3), target.unitary())
        assert value == pytest.approx(BB1_C * 1e-18, rel=1e-3)


class TestSweep:
    def test_plain_pulse_value(self):
        table = plain_sweep(TargetRotation(PI, 0.0), [0.0, 0.1, 0.2])
        assert table.fidelities[0] == pytest.approx(1.0, abs=1e-14)
        assert table.fidelities[2] == pytest.approx(np.cos(0.1 * PI), abs=1e-12)

    def test_bb1_values(self):
        target = TargetRotation(PI, 0.0)
        table = sweep(bb1_corrector(), target, [0.0, 0.1, 0.2])
        assert table.infidelities[0] < 1e-15
        assert table.infidelities[1] == pytest.approx(BB1_C * 1e-6, rel=0.02)
        assert table.fidelities[2] == pytest.approx(1 - BB1_C * 0.2 ** 6, abs=2e-4)

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            SweepTable(np.array([0.1, 0.1]), np.array([1.0, 1.0]),
                       np.array([0.0, 0.0]))

    def test_bb1_matches_analytic_sixth_order_at_0p05(self):
        target = TargetRotation(PI, 0.0)
        table = sweep(bb1_corrector(), target, [0.05])
        assert table.infidelities[0] == pytest.approx(BB1_C * 0.05 ** 6,
                                                      rel=5e-3)

    def test_small_error_curves_order_by_coefficient(self):
        # at small error the family curves stack inversely to their
        # sixth-order coefficients, with the bare pulse underneath
        target = TargetRotation(PI, PI)
        eps = 0.05

        def branch_with_phi1(results, phi1):
            return next(r.sequence for r in results
                        if abs(r.phases[0] - phi1) < 1e-9)

        by_c = [design_wm(1, target).sequence,
                design_wm(2, target).sequence,
                branch_with_phi1(design_five_pulse(1, 2, 1, target),
                                 np.arccos(-0.75)),
                branch_with_phi1(design_five_pulse(2, 2, 2, target), 0.0)]
        fids = [sweep(s, target, [eps]).fidelities[0] for s in by_c]
        assert all(a > b for a, b in zip(fids, fids[1:]))
        assert fids[-1] > plain_sweep(target, [eps]).fidelities[0]

    def test_monotone_degradation_small_error(self):
        target = TargetRotation(PI, PI)
        grid = np.linspace(0.0, 0.1, 30)
        seqs = [design_wm(m, target).sequence for m in (1, 2, 3)]
        seqs += [r[0].sequence for r in
                 (design_five_pulse(1, 2, 1, target),
                  design_five_pulse(1, 1, 2, target),
                  design_five_pulse(2, 2, 2, target))]
        for seq in seqs:
            fid = sweep(seq, target, grid).fidelities
            assert np.all(np.diff(fid) <= 1e-12)


class TestFit:
    def test_plain_pulse_quadratic(self):
        target = TargetRotation(PI, 0.0)
        table = plain_sweep(target, fit_grid())
        report = fit_scaling(table)
        assert report.order == pytest.approx(2.0, abs=0.02)
        assert report.coefficient == pytest.approx(PI ** 2 / 8, rel=0.01)

    def test_bb1_sixth_order(self):
        target = TargetRotation(PI, 0.0)
        report = fit_error_scaling(bb1_corrector(), target)
        assert report.order == pytest.approx(6.0, abs=0.05)
        assert report.coefficient == pytest.approx(4.7, rel=0.01)
        assert report.r_squared > 0.9999

    def test_pb1_coefficient(self):
        target = TargetRotation(PI, PI)
        seq = design_wm(2, target).sequence
        report = fit_error_scaling(seq, target, COEFF_WINDOW)
        assert report.coefficient == pytest.approx(59.1, rel=0.01)

    def test_floor_raises_window_error(self):
        target = TargetRotation(PI, 0.0)
        table = sweep(bb1_corrector(), target, [1e-5, 2e-5, 4e-5])
        with pytest.raises(FitWindowError):
            fit_scaling(table, window=(1e-5, 4e-5))

    def test_needs_enough_points(self):
        target = TargetRotation(PI, 0.0)
        table = plain_sweep(target, [0.01, 0.02])
        with pytest.raises(ValueError):
            fit_scaling(table, window=(0.005, 0.03))


class TestCrossover:
    def test_bb1_stays_superior_well_past_0p3(self):
        target = TargetRotation(PI, 0.0)
        value = crossover(bb1_corrector(), target)
        assert value > 0.3

    def test_w222_crossover_near_0p2(self):
        target = TargetRotation(PI, PI)
        seq = design_five_pulse(2, 2, 2, target)[0].sequence
        value = crossover(seq, target)
        assert 0.12 <= value <= 0.35

    def test_plain_vs_itself_not_superior(self):
        # a null corrector makes the composite identical to the bare pulse
        target = TargetRotation(PI, 0.0)
        null = PulseSequence.from_pairs([(0.0, 0.0)])
        with pytest.raises(NotSuperior):
            crossover(null, target)


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


class TestPrecisionOracle:
    @pytest.mark.parametrize("theta,alpha", [(PI, PI), (PI / 2, 0.3), (0.5, 1.0)])
    def test_infidelity_matches_50_digit_oracle(self, theta, alpha):
        # above INFIDELITY_FLOOR the double-precision infidelity must agree
        # with the oracle to 1e-5 relative
        mpmath = pytest.importorskip("mpmath")
        target = TargetRotation(theta, alpha)
        ideal = target.unitary()
        checked = 0
        for seq in (design_wm(1, target).sequence, design_wm(2, target).sequence,
                    design_five_pulse(2, 2, 2, target)[0].sequence):
            full = embed_target(seq, target, 1.0)
            for eps in np.logspace(-5, -1, 30):
                with mpmath.workdps(50):
                    ref = float(oracle_infidelity(mpmath, full, target, eps))
                if ref < INFIDELITY_FLOOR:
                    continue
                got = infidelity(compile_sequence(full, eps), ideal)
                assert abs(got - ref) <= 1e-5 * ref, (eps, got, ref)
                checked += 1
        assert checked >= 30

    def test_infidelity_near_fidelity_zero_matches_50_digit_overlap(self):
        # near-orthogonal pairs: 1 - F sits just below 1, where recovering
        # |w| as sqrt(1 - |s|^2) loses half the digits
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(7)

        def matrix(q):
            w, x, y, z = q
            return np.array([[complex(w, -z), complex(-y, -x)],
                             [complex(y, -x), complex(w, z)]])

        worst = 0.0
        for _ in range(3000):
            qu = rng.normal(size=4)
            qu /= np.linalg.norm(qu)
            perp = rng.normal(size=4)
            perp -= (perp @ qu) * qu
            perp /= np.linalg.norm(perp)
            dot = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12, -2)
            qv = dot * qu + math.sqrt(1.0 - dot * dot) * perp
            qv /= np.linalg.norm(qv)
            v, u = matrix(qv), matrix(qu)
            with mpmath.workdps(50):
                # Tr(v u-dagger) / 2 of these matrices is exactly the
                # quaternion dot product of qv and qu
                ref = 1 - abs(mpmath.fsum(mpmath.mpf(a) * b
                                          for a, b in zip(qv.tolist(), qu.tolist())))
                worst = max(worst, abs(float(infidelity(v, u) - ref)))
        assert worst <= 2e-15, worst
