import math
from types import SimpleNamespace

import numpy as np
import pytest

from cpulse.analysis import (COEFF_WINDOW, FIT_POINTS, _fit_power_law, _log_grid,
                             fit_error_scaling)
from cpulse.bch import analytic_c, commutator, p_epsilon, sixth_order_coefficient
from cpulse.design import (ROUNDING_BOUND, InfeasibleDesign, _three_pulse, design_five_pulse,
                           design_wm, design_wn)
from cpulse.pulses import (Pulse, PulseSequence, TargetRotation, compile_sequence,
                           embed_target)
from cpulse.su2 import rotation, su2_parts
from su2_oracle import (axis_vector, bb1_corrector, dagger, exp_pauli, five_pulse_phases,
                        oracle_infidelity, p_epsilon_array, pauli_sum, pi_triple_generators, sbch,
                        three_pulse_c, three_pulse_c8, three_pulse_phases)

PI = np.pi
# every five-pulse family (p, q, r) with p, q <= 3, r <= 4 and p + q + r even
FIVE_PULSE_FAMILIES = [(p, q, r) for p in (1, 2, 3) for q in (1, 2, 3) for r in (1, 2, 3, 4)
                       if (p + q + r) % 2 == 0]
EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


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
        _, r, s = pi_triple_generators(corrector, target)
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
            _, r, s = pi_triple_generators(corrector, target)
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
            assert np.shape(series) == (4, 3)
            assert not np.any(series[0]) and not np.any(series[2])
            assert np.linalg.norm(linear - series[1]) <= \
                1e-9 * np.linalg.norm(series[1])
            assert np.linalg.norm(cubic - series[3]) <= \
                1e-5 * np.linalg.norm(series[3])

    def test_rows_match_array_route_bit_for_bit(self):
        # the tuple rows are np.cross's floats; C differs from the array
        # route's BLAS dot only in the rounding of its three-term sum
        rng = np.random.default_rng(43)
        for _ in range(300):
            phi1, phi2, alpha = rng.uniform(-10, 10, size=3).tolist()
            target = TargetRotation(rng.uniform(0.01, 4 * PI - 0.01), alpha)
            corrector = PulseSequence.from_pairs(
                [(PI, phi1), (2 * PI, phi2), (PI, phi1)])
            series = p_epsilon(corrector, target)
            reference = p_epsilon_array(corrector, target)
            assert [list(row) for row in series] == reference.tolist()
            assert all(type(x) is float for row in series for x in row)
            c, w = sixth_order_coefficient(series), reference[3]
            assert abs(c - 0.5 * float(w @ w)) <= 4.5e-16 * c

    def test_coefficient_same_for_array_and_tuple_rows(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            target = TargetRotation(rng.uniform(0.1, 4 * PI - 0.1), rng.uniform(0, 2 * PI))
            series = p_epsilon(design_wm(1, target).sequence, target)
            c, from_array = (sixth_order_coefficient(rows) for rows in (series, np.array(series)))
            assert type(c) is type(from_array) is float
            assert from_array == c

    def test_rejects_other_shapes(self):
        # a lone pi pulse and (pi, pi, pi) have an odd centre, while (pi, pi, pi,
        # pi) composes to the identity; (pi, 2 pi, 3 pi) reads otherwise backwards
        target = TargetRotation(PI, 0.0)
        for pairs in ([(PI, 0.0)], [(PI, 0.0), (PI, 1.0), (PI, 0.0)]):
            with pytest.raises(ValueError, match="centre multiple must be even"):
                p_epsilon(PulseSequence.from_pairs(pairs), target)
        p_epsilon(PulseSequence.from_pairs([(PI, 0.0), (PI, 1.0), (PI, 1.0), (PI, 0.0)]), target)
        with pytest.raises(ValueError, match="must read the same backwards"):
            p_epsilon(PulseSequence.from_pairs(
                [(PI, 0.0), (2 * PI, 1.0), (3 * PI, 0.0)]), target)

    def test_rejects_unequal_outer_phases(self):
        target = TargetRotation(PI, 0.0)
        corrector = PulseSequence.from_pairs([(PI, 0.5), (2 * PI, 1.0), (PI, 0.6)])
        with pytest.raises(ValueError, match="mirrored corrector pulses must share one phase"):
            p_epsilon(corrector, target)

    def test_outer_phases_are_compared_on_the_circle(self):
        # W1 turned so its outer phases straddle 0: 1e-14 and 2 pi - 1e-14, 2e-14
        # apart on the circle, inside the rounding bound 16 u (5 pi) ~ 5.6e-14
        p1, p2, _ = (p.phase for p in design_wm(1, TargetRotation(PI, 0.0)).sequence)
        target = TargetRotation(PI, -p1)
        corrector = PulseSequence.from_pairs([(PI, 1e-14), (2 * PI, p2 - p1), (PI, -1e-14)])
        assert corrector.pulses[2].phase == 2 * PI - 1e-14
        c = sixth_order_coefficient(p_epsilon(corrector, target))
        delta = corrector.pulses[1].phase - corrector.pulses[0].phase
        assert c == pytest.approx(analytic_c(delta), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("index", [0, 1, 2])
    @pytest.mark.parametrize("offset", [1e-9, -1e-9, 2e-5])
    def test_angle_check_is_absolute(self, index, offset):
        # numpy's default rtol (1e-5) once let (pi + 2e-5, 2 pi, pi) through
        # as if exact; the check is absolute, within the rounding bound of the
        # total angle (5.6e-14 here), like the phase check
        target = TargetRotation(PI, PI)
        pairs = [(p.angle, p.phase) for p in design_wm(1, target).sequence]
        pairs[index] = (pairs[index][0] + offset, pairs[index][1])
        with pytest.raises(ValueError, match="positive multiples of pi"):
            p_epsilon(PulseSequence.from_pairs(pairs), target)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_angle_check_fails_at_the_rounding_bound(self, index, sign):
        # 16 u per radian of the total angle, theta + the three angles, which
        # sums to 16 exactly here: an angle 16 u * 16 = 2^-44 off fails, and
        # one ulp nearer passes
        nominal, bound = (PI, 2 * PI, PI)[index], 16 * 2.0 ** -52 * 16.0
        for off, ok in ((bound, False), (bound - math.ulp(nominal), True)):
            angles = [PI, 2 * PI, PI]
            angles[index] += sign * off
            target = TargetRotation(16.0 - 4 * PI - sign * off, 0.4)
            corrector = PulseSequence.from_pairs([(a, 0.7) for a in angles])
            if ok:
                p_epsilon(corrector, target)
                continue
            assert (abs(angles[index] - nominal), sum(angles, target.theta)) == (bound, 16.0)
            with pytest.raises(ValueError, match="positive multiples of pi"):
                p_epsilon(corrector, target)

    @pytest.mark.parametrize("first", [True, False])
    def test_outer_phase_check_fails_at_the_rounding_bound(self, first):
        # outer phases 0 and b apart, in either order, b = 16 u (theta + 4 pi)
        # exactly: b fails, one ulp less passes
        target = TargetRotation(PI, 0.3)
        bound = 16 * 2.0 ** -52 * sum((PI, 2 * PI, PI), target.theta)
        for gap, ok in ((bound, False), (math.nextafter(bound, 0.0), True)):
            outer = (0.0, gap) if first else (gap, 0.0)
            corrector = PulseSequence.from_pairs([(PI, outer[0]), (2 * PI, 1.0), (PI, outer[1])])
            if ok:
                p_epsilon(corrector, target)
                continue
            with pytest.raises(ValueError, match="mirrored corrector pulses"):
                p_epsilon(corrector, target)

    def test_an_overflowing_total_angle_is_no_family_member(self):
        # angles summing past the largest double make the bound inf, under
        # which every angle would lie within it
        corrector = PulseSequence.from_pairs([(1e308, 0.0), (1e308, 1.0), (PI, 0.0)])
        with pytest.raises(ValueError, match="positive multiples of pi"):
            p_epsilon(corrector, TargetRotation(PI, 0.0))

    def test_designed_correctors_pass_the_angle_check(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            target = TargetRotation(rng.uniform(0.1, 4 * PI - 0.1), rng.uniform(0, 2 * PI))
            for res in (design_wm(1, target), design_wn(1, target)):
                c = sixth_order_coefficient(p_epsilon(res.sequence, target))
                delta = res.sequence.pulses[1].phase - res.sequence.pulses[0].phase
                assert c == pytest.approx(analytic_c(delta), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("m,n", [(m, 1) for m in range(1, 11)] + [(1, 2), (1, 3), (1, 4)])
    def test_three_pulse_families_match_the_closed_form(self, m, n):
        # the stored phases' rounding moves C by up to about 1e-13 m n / theta
        # relative, so p_epsilon is held to its rule run at 40 digits on those
        # same phases, and that run on the closed form's phases to three_pulse_c
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(61)
        multiples = [m, 2 * m, m] * n
        for _ in range(300):
            target = TargetRotation(rng.uniform(0.17, 4 * PI - 0.17), rng.uniform(0, 2 * PI))
            res = _three_pulse(m, n, target)
            c = sixth_order_coefficient(p_epsilon(res.sequence, target))
            stored = [pulse.phase for pulse in res.sequence]
            assert c == pytest.approx(rule_c6(mpmath, multiples, stored, target),
                                      rel=1e-12), target
            gap, (phi1, phi2) = min((max(abs(math.remainder(a - float(b), math.tau))
                                         for a, b in zip(res.phases, w)), w)
                                    for w in three_pulse_phases(mpmath, m, n, *target))
            assert gap < 1e-12, res.phases
            assert rule_c6(mpmath, multiples, [phi1, phi2, phi1] * n, target) == pytest.approx(
                three_pulse_c(m, n, target.theta), rel=1e-12), target

    # W114 has no branch: its links reach no nearer than 4 - 1 - 1 = 2 > theta / (2 pi);
    # every family here has r <= p + q, so every target has branches
    @pytest.mark.parametrize("p,q,r", [(p, q, r) for p, q, r in FIVE_PULSE_FAMILIES
                                       if r - p - q < 2])
    def test_five_pulse_branches_match_a_60_digit_product(self, p, q, r):
        # the product takes the oracle's phases: the stored ones leave a row 1
        # of about 1e-15, which floors a product's C6 at about 1e-7
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(62)
        for _ in range(20):
            target = TargetRotation(rng.uniform(0.17, 4 * PI - 0.17), rng.uniform(0, 2 * PI))
            want = five_pulse_phases(mpmath, p, q, r, target.theta, target.alpha, 60)
            for res in design_five_pulse(p, q, r, target):
                gap, phases = min((max(abs(math.remainder(a - float(b), math.tau))
                                       for a, b in zip(res.phases, w)), w) for w in want)
                assert gap < 1e-12, res.phases
                c = sixth_order_coefficient(p_epsilon(res.sequence, target))
                assert c == pytest.approx(palindrome_c6(mpmath, (p, q, 2 * r), phases, target),
                                          rel=1e-11), (target, res.label)

    def test_designed_correctors_are_flat_within_the_rounding_bound(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        families = st.one_of(st.tuples(st.just("wm"), st.integers(1, 10)),
                             st.tuples(st.just("wn"), st.integers(1, 4)),
                             st.sampled_from([("fivepulse", *f) for f in FIVE_PULSE_FAMILIES]))
        designs = {"wm": lambda m, t: [design_wm(m, t)], "wn": lambda n, t: [design_wn(n, t)],
                   "fivepulse": design_five_pulse}

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(theta=st.floats(1e-12, 4 * PI - 1e-12), alpha=st.floats(-10.0, 10.0),
                          family=families)
        def check(theta, alpha, family):
            target = TargetRotation(theta, alpha)
            try:
                results = designs[family[0]](*family[1:], target)
            except InfeasibleDesign:
                hypothesis.reject()
            for res in results:
                row0, row1, row2, _ = p_epsilon(res.sequence, target)
                bound = ROUNDING_BOUND * sum((p.angle for p in res.sequence), theta)
                assert row0 == row2 == (0.0, 0.0, 0.0)
                assert math.hypot(*row1) < bound, res.label

        check()


class TestAnalyticCoefficient:
    def test_bb1_value(self):
        delta = math.acos(-7.0 / 8.0)
        assert analytic_c(delta) == pytest.approx(5 * PI ** 6 / 1024, rel=1e-12)

    def test_degenerate_axes_give_zero(self):
        assert analytic_c(0.0) == 0.0
        assert 0.0 <= analytic_c(PI) < 1e-30

    def test_nonnegative_on_grid(self):
        deltas = np.linspace(0, 2 * PI, 1000)
        values = np.array([analytic_c(d) for d in deltas])
        assert np.all(values >= 0.0)

    def test_matches_50_digit_bracket(self):
        # the paper's cosine sum at 50 digits; in doubles that sum cancels
        # where C is small, and was 10x off within 1e-9 of 0, pi and 2 pi
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(30)
        deltas = rng.uniform(-2 * PI, 4 * PI, 600).tolist()
        for centre in (0.0, PI, 2 * PI):
            deltas += (centre + rng.uniform(-1e-9, 1e-9, 300)).tolist()
            deltas += (centre + rng.choice([-1.0, 1.0], 300)
                       * 10.0 ** rng.uniform(-16, -9, 300)).tolist()
        worst = 0.0
        with mpmath.workdps(50):
            for delta in deltas:
                d = mpmath.mpf(delta)
                want = (mpmath.pi ** 6 / 144) * (5 + 2 * mpmath.cos(d) - 5 * mpmath.cos(2 * d)
                                                 - 2 * mpmath.cos(3 * d))
                worst = max(worst, float(abs(analytic_c(delta) - want) / want))
        assert worst <= 2e-15

    def test_matches_series_coefficient(self):
        for theta in (0.8, PI, 2.2):
            target = TargetRotation(theta, 0.0)
            corrector = design_wn(1, target).sequence
            series = p_epsilon(corrector, target)
            delta = corrector.pulses[1].phase - corrector.pulses[0].phase
            assert sixth_order_coefficient(series) == pytest.approx(
                analytic_c(delta), rel=1e-12)

    @staticmethod
    def w1_agreement(theta, alpha):
        """Relative gap between p_epsilon's C and analytic_c on designed W1."""
        target = TargetRotation(theta, alpha)
        seq = design_wn(1, target).sequence
        delta = seq.pulses[1].phase - seq.pulses[0].phase
        return abs(sixth_order_coefficient(p_epsilon(seq, target)) / analytic_c(delta) - 1.0)

    def test_matches_series_on_seeded_w1_targets(self):
        rng = np.random.default_rng(17)
        assert max(self.w1_agreement(rng.uniform(0.17, 4 * PI - 0.17), rng.uniform(0, 2 * PI))
                   for _ in range(500)) <= 1e-12

    def test_matches_series_near_aligned_or_antipodal_axes(self):
        # theta within 0.17 of 0 or 4 pi puts the axes near antipodal or
        # aligned, where C is small.  Near 0 the designed gap delta, rounded
        # to about 1e-15, limits any C from it to about 4e-15 / theta relative
        rng = np.random.default_rng(18)
        for gap in 10.0 ** rng.uniform(-6.0, math.log10(0.17), 250):
            assert self.w1_agreement(gap, rng.uniform(0, 2 * PI)) <= 1e-14 / gap
            assert self.w1_agreement(4 * PI - gap, rng.uniform(0, 2 * PI)) <= 1e-10

    def test_trace_identity_series_vs_matrices(self):
        # Tr([R+2S,[R,S]]^2) from vectors equals the matrix-level trace
        rng = np.random.default_rng(33)
        for _ in range(20):
            phi1, phi2 = rng.uniform(0, 2 * PI, size=2)
            r = PI * axis_vector(phi1)
            s = PI * axis_vector(2 * phi1 - phi2)
            w = np.asarray(commutator(r + 2 * s, commutator(r, s)))
            series_trace = -2.0 * float(w @ w)
            mr = -1j * pauli_sum(r)
            ms = -1j * pauli_sum(s)
            inner = mr @ ms - ms @ mr
            outer = (mr + 2 * ms) @ inner - inner @ (mr + 2 * ms)
            matrix_trace = np.trace(outer @ outer)
            assert matrix_trace.imag == pytest.approx(0.0, abs=1e-9)
            assert series_trace == pytest.approx(matrix_trace.real, abs=1e-10 * max(1, abs(series_trace)))


def product_c(mpmath, m, n, theta, alpha, eps="1e-8", dps=80):
    """(1 - F) / eps^6 of the designed (m pi, 2 m pi, m pi) block repeated n
    times after the target pulse, its phases built by the paper's closed
    form and the product taken at dps digits; at eps = 1e-8 the eps^8 term
    moves it by about 1e-16 relative."""
    (phi1, phi2), _ = three_pulse_phases(mpmath, m, n, theta, alpha, dps)
    with mpmath.workdps(dps):
        eps = mpmath.mpf(eps)
        block = [SimpleNamespace(angle=k * mpmath.pi, phase=phi)
                 for k, phi in ((m, phi1), (2 * m, phi2), (m, phi1))]
        full = [Pulse(theta, alpha)] + block * n
        return oracle_infidelity(mpmath, full, TargetRotation(theta, alpha), eps) / eps ** 6


def palindrome_c6(mpmath, multiples, phases, target, eps="1e-6", dps=60):
    """C6 of the palindrome of angles multiples[j] pi at phases[j], mirrored
    about the last, after the target pulse, from products at dps digits:
    (1 - F) / eps^6 = C6 + C8 eps^2 + C10 eps^4, so (4 lo - hi) / 3 at eps
    and 2 eps is C6 - 4 C10 eps^4."""
    with mpmath.workdps(dps):
        block = [SimpleNamespace(angle=k * mpmath.pi, phase=phi)
                 for k, phi in zip(multiples, phases)]
        full = [Pulse(target.theta, target.alpha)] + block + block[-2::-1]
        eps = mpmath.mpf(eps)
        lo, hi = (oracle_infidelity(mpmath, full, target, e) / e ** 6 for e in (eps, 2 * eps))
        return float((4 * lo - hi) / 3)


def rule_c6(mpmath, multiples, phases, target, dps=40):
    """C6 of the palindrome of angles multiples[j] pi after the target, by
    p_epsilon's rule at dps digits from its first half and centre, phases[j]
    taken as given: each phase reflected through every earlier odd multiple's,
    latest first, then the symmetric BCH c(R, S) = -(1/6) (R + 2S) x (R x S)
    composed from the centre out, the target's halves last."""
    def cross(a, b):
        return a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]

    with mpmath.workdps(dps):
        half, phi = len(multiples) // 2, [mpmath.mpf(f) for f in phases]
        steps = []
        for j, k in enumerate(multiples[:len(multiples) - half]):
            beta = phi[j]
            for i in reversed(range(j)):
                if multiples[i] % 2:
                    beta = 2 * phi[i] - beta
            steps.append((k * mpmath.pi / (1 if j < half else 2), beta))
        row1 = row3 = (0, 0, 0)
        for size, beta in steps[::-1] + [(mpmath.mpf(target.theta) / 2,
                                          mpmath.mpf(target.alpha))]:
            r = (size * mpmath.cos(beta), size * mpmath.sin(beta), 0)
            r2s = [x + 2 * y for x, y in zip(r, row1)]
            row3 = [x - y / 6 for x, y in zip(row3, cross(r2s, cross(r, row1)))]
            row1 = [x + y for x, y in zip(row1, r)]
        return float(sum(x * x for x in row3) / 2)


class TestThreePulseClosedForm:
    """three_pulse_c, the exact C of every designed three-pulse family."""

    def test_matches_80_digit_product(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(80)
        for _ in range(40):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            theta, alpha = rng.uniform(0.05, 4 * PI - 0.05), rng.uniform(0, 2 * PI)
            want = float(product_c(mpmath, m, n, theta, alpha))
            assert three_pulse_c(m, n, theta) == pytest.approx(want, rel=1e-12), (m, n, theta)

    def test_c8_matches_120_digit_product(self):
        # Richardson on (1 - F) / eps^6 = C6 + C8 eps^2 + C10 eps^4: the
        # difference at 2 eps and eps over 3 eps^2 is C8 + 5 C10 eps^2, and
        # 5 C10 eps^2 is far below 1e-12 C8 at eps = 1e-10
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(88)
        for _ in range(40):
            m, n = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            theta, alpha = rng.uniform(0.05, 4 * PI - 0.05), rng.uniform(0, 2 * PI)
            with mpmath.workdps(120):
                lo, hi = (product_c(mpmath, m, n, theta, alpha, e, 120)
                          for e in ("1e-10", "2e-10"))
                want = float((hi - lo) / (3 * mpmath.mpf("1e-10") ** 2))
            assert three_pulse_c8(m, n, theta) == pytest.approx(want, rel=1e-12), (m, n, theta)

    @pytest.mark.parametrize("m,n,c6", [(1, 1, "4.694283"), (2, 1, "59.14797"),
                                        (3, 1, "283.4304"), (1, 2, "3.696748")],
                             ids=["W1", "W2", "W3", "W1x2"])
    def test_paper_target_values(self, m, n, c6):
        target = TargetRotation(PI, PI)
        assert "%.7g" % three_pulse_c(m, n, PI) == c6
        series = p_epsilon(_three_pulse(m, n, target).sequence, target)
        assert "%.7g" % sixth_order_coefficient(series) == c6

    def test_coefficient_fits_within_one_percent(self):
        rng = np.random.default_rng(18)
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                for _ in range(4):
                    target = TargetRotation(rng.uniform(0.3, 4 * PI - 0.3), rng.uniform(0, 2 * PI))
                    fit = fit_error_scaling(_three_pulse(m, n, target).sequence, target,
                                            COEFF_WINDOW)
                    assert fit.coefficient == pytest.approx(
                        three_pulse_c(m, n, target.theta), rel=0.01), (m, n, target)

    def test_coefficient_fit_is_the_two_term_law(self):
        # the COEFF_WINDOW fit equals the fit of C6 eps^6 + C8 eps^8 on the
        # same points: the eps^8 term is all of the fit's bias (C6 alone is
        # about 3.5e-3 off)
        rng = np.random.default_rng(204)
        cases = [(m, n, TargetRotation(PI, PI)) for m, n in ((1, 1), (2, 1), (3, 1), (1, 2))]
        cases += [(int(rng.integers(1, 4)), int(rng.integers(1, 4)),
                   TargetRotation(rng.uniform(0.3, 4 * PI - 0.3), rng.uniform(0, 2 * PI)))
                  for _ in range(200)]
        eps = _log_grid(COEFF_WINDOW, FIT_POINTS)
        for m, n, target in cases:
            c6, c8 = three_pulse_c(m, n, target.theta), three_pulse_c8(m, n, target.theta)
            law = _fit_power_law(eps, [c6 * e ** 6 + c8 * e ** 8 for e in eps], COEFF_WINDOW)
            fit = fit_error_scaling(_three_pulse(m, n, target).sequence, target, COEFF_WINDOW)
            assert fit.coefficient == pytest.approx(law.coefficient, rel=1e-5), (m, n, target)

    def test_analytic_c_is_its_w1_case(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            target = TargetRotation(rng.uniform(0.17, 4 * PI - 0.17), rng.uniform(0, 2 * PI))
            seq = design_wn(1, target).sequence
            delta = seq.pulses[1].phase - seq.pulses[0].phase
            assert analytic_c(delta) == pytest.approx(
                three_pulse_c(1, 1, target.theta), rel=1e-12), target
