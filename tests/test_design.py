import contextlib
import math
from functools import partial
from itertools import product
from math import tau as TWO_PI

import numpy as np
import pytest

from cpulse.analysis import _lin_grid, fit_error_scaling, infidelity
from cpulse.design import (ROUNDING_BOUND, InfeasibleDesign, _at, _der, _pieces, _residuals,
                           _split_residual, _times, _validated, constraint_checks,
                           derivative_residual, design_five_pulse, design_wm, design_wn,
                           error_derivative, identity_residual, three_pulse_scan)
from cpulse.pulses import (PulseSequence, TargetRotation, compile_sequence,
                           embed_target, reduce_angle)
from cpulse.su2 import rotation
from su2_oracle import IDENTITY, five_pulse_phases, three_pulse_phases, xy_axis

PI = np.pi


def angdist(a, b):
    d = abs(reduce_angle(a) - reduce_angle(b))
    return min(d, 2 * PI - d)


def phases_match(got, expected, tol=1e-9):
    return all(angdist(g, e) < tol for g, e in zip(got, expected))


def circle_gaps(mp, got, exact):
    """|got - exact| on the circle per phase, taken at 50 digits."""
    with mp.workdps(50):
        diffs = (mp.mpf(g) - e for g, e in zip(got, exact))
        return [float(abs(d - 2 * mp.pi * mp.nint(d / (2 * mp.pi)))) for d in diffs]


# Branch lists, in output order, as recorded from the grid-seeded Newton
# solver the closed form replaced; the closed form must reproduce them.
FIVE_PULSE_GOLDEN_W222 = [
    (0, 1.9551931012905364, 4.3279922058890499),
    (0, 4.3279922058890499, 1.9551931012905364),
    (0.89566479385786479, 3.1415926535897931, 5.3875205133217214),
    (0.89566479385786479, 5.3875205133217214, 3.1415926535897931),
    (1.9551931012905364, 0, 4.3279922058890499),
    (1.9551931012905364, 4.3279922058890499, 0),
    (3.1415926535897931, 0.89566479385786479, 5.3875205133217214),
    (3.1415926535897931, 5.3875205133217214, 0.89566479385786479),
    (4.3279922058890499, 0, 1.9551931012905364),
    (4.3279922058890499, 1.9551931012905364, 0),
    (5.3875205133217214, 0.89566479385786479, 3.1415926535897931),
    (5.3875205133217214, 3.1415926535897931, 0.89566479385786479),
]
FIVE_PULSE_GOLDEN_W121 = [
    (0.51838246836877211, 4.7957315428811569, 2.7898953102139554),
    (1.3466563485084446, 5.9722137127427501, 3.3106866495707088),
    (3.7017810535635025, 5.359408996508785, 1.7377507525012383),
    (4.530054933703175, 0.25270585919079025, 2.2585420918579917),
    (5.6658113546257667, 2.04415311061822, 3.7017810535635007),
    (5.6658113546257667, 3.0042842914537289, 1.3466563485084464),
]


class TestWn:
    def test_bb1_phases(self):
        res = design_wn(1, TargetRotation(PI, 0.0))
        phi1 = math.acos(-0.25)
        assert res.phases[0] == pytest.approx(phi1, abs=1e-12)
        assert res.phases[0] == pytest.approx(1.823476582, abs=1e-9)
        assert res.phases[1] == pytest.approx(3 * phi1, abs=1e-12)
        assert res.identity_residual < 1e-12
        assert res.derivative_residual < 1e-9

    def test_small_angle_limit(self):
        res = design_wn(1, TargetRotation(1e-9, 0.0))
        assert res.phases[0] == pytest.approx(PI / 2, abs=1e-9)

    def test_n2_scaled_condition(self):
        res = design_wn(2, TargetRotation(PI, 0.0))
        assert res.phases[0] == pytest.approx(math.acos(-0.125), abs=1e-12)
        assert len(res.sequence) == 6
        assert res.derivative_residual < 1e-9

    def test_repeated_construction_keeps_sixth_order(self):
        target = TargetRotation(PI, 0.0)
        for n in (2, 3):
            res = design_wn(n, target)
            report = fit_error_scaling(res.sequence, target)
            assert report.order == pytest.approx(6.0, abs=0.05)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            design_wn(0, TargetRotation(PI, 0.0))

    def test_zero_n_message(self):
        with pytest.raises(ValueError, match="^n must be a positive integer$"):
            design_wn(0, TargetRotation(PI, 0.0))

    def test_label_from_integral_float(self):
        target = TargetRotation(PI, 0.0)
        assert design_wn(3.0, target).label == "W1x3"
        assert design_wn(3.0, target) == design_wn(3, target)


class TestWm:
    def test_invalid_m(self):
        with pytest.raises(ValueError, match="m must be a positive integer"):
            design_wm(1.5, TargetRotation(PI, 0.0))

    def test_m1_equals_n1(self):
        target = TargetRotation(1.7, 0.6)
        assert design_wm(1, target).phases == design_wn(1, target).phases

    def test_pb1_phases(self):
        res = design_wm(2, TargetRotation(PI, PI))
        phi1 = PI + math.acos(-0.125)
        assert res.phases[0] == pytest.approx(phi1, abs=1e-12)
        assert res.phases[1] == pytest.approx(reduce_angle(2 * PI - phi1), abs=1e-12)
        assert [p.angle for p in res.sequence] == pytest.approx([2 * PI, 4 * PI, 2 * PI])

    def test_w3_condition(self):
        res = design_wm(3, TargetRotation(PI, PI))
        assert math.cos(res.phases[0] - PI) == pytest.approx(-1 / 12, abs=1e-12)

    def test_mirror_branch_also_valid(self):
        target = TargetRotation(PI, PI)
        res = design_wm(2, target)
        assert res.mirror_phases is not None
        m1, m2 = res.mirror_phases
        seq = PulseSequence.from_pairs([(2 * PI, m1), (4 * PI, m2), (2 * PI, m1)])
        assert identity_residual(seq) < 1e-12
        assert derivative_residual(seq, target) < 1e-9

    def test_phase_shift_closure(self):
        # designing about a rotated axis shifts every phase by the same angle
        for alpha in (0.9, 2.4, 4.0):
            base = design_wm(2, TargetRotation(PI, 0.0))
            turned = design_wm(2, TargetRotation(PI, alpha))
            assert phases_match(turned.phases,
                                [p + alpha for p in base.phases], tol=1e-12)


class TestThreePulseOracle:
    def test_phases_match_paper_closed_form(self):
        # the polygon's roots against cos(phi1 - alpha) = -theta / (4 m n pi)
        # and the odd/even phi2 rule at 50 digits, branch and mirror
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(32)
        families = [(m, 1) for m in range(1, 5)] + [(1, n) for n in (2, 3)]
        for theta in (1e-6, 4 * PI - 1e-6, *rng.uniform(1e-6, 4 * PI - 1e-6, 60)):
            for m, n in families:
                target = TargetRotation(theta, rng.uniform(-20.0, 20.0))
                res = design_wm(m, target) if n == 1 else design_wn(n, target)
                branch, mirror = three_pulse_phases(mp, m, n, target.theta, target.alpha)
                gaps = circle_gaps(mp, res.phases + res.mirror_phases, branch + mirror)
                assert max(gaps) < 2e-13, (m, n, target)


class TestFivePulse:
    def test_positive_multiples_required(self):
        with pytest.raises(ValueError, match="p must be a positive integer"):
            design_five_pulse(0, 2, 2, TargetRotation(PI, PI))

    def test_zero_r_message(self):
        with pytest.raises(ValueError, match="^r must be a positive integer$"):
            design_five_pulse(1, 1, 0, TargetRotation(PI, PI))

    def test_parity_required(self):
        with pytest.raises(ValueError):
            design_five_pulse(1, 1, 1, TargetRotation(PI, PI))

    def test_w121_contains_reference_branch(self):
        results = design_five_pulse(1, 2, 1, TargetRotation(PI, PI))
        phi1 = math.acos((PI - 4 * PI) / (4 * PI))
        assert any(phases_match(r.phases, (phi1, 2 * phi1, 3 * phi1))
                   for r in results)
        for r in results:
            assert r.identity_residual < 1e-12
            assert r.derivative_residual < 1e-9

    def test_w222_contains_reference_branch(self):
        results = design_five_pulse(2, 2, 2, TargetRotation(PI, PI))
        phi2 = math.acos((PI - 4 * PI) / (8 * PI))
        assert any(phases_match(r.phases, (0.0, phi2, -phi2)) for r in results)

    def test_w112_has_valid_solutions(self):
        results = design_five_pulse(1, 1, 2, TargetRotation(PI, PI))
        assert results
        for r in results:
            assert r.derivative_residual < 1e-9
        # the progression branch (z, 3z, 4z) with cos(z) = -3/4 is among them
        z = math.acos(-0.75)
        assert any(phases_match(r.phases, (z, 3 * z, 4 * z)) for r in results)

    def test_sequence_angles(self):
        res = design_five_pulse(1, 2, 1, TargetRotation(PI, PI))[0]
        assert [p.angle for p in res.sequence] == pytest.approx(
            [PI, 2 * PI, 2 * PI, 2 * PI, PI])

    def test_labels_separate_multiples_above_9(self):
        assert design_five_pulse(10, 10, 2, TargetRotation(PI, PI))[0].label == "W10-10-2"
        # 9 itself still runs together
        assert {r.label for r in design_five_pulse(9, 9, 2, TargetRotation(PI, 0.0))} == {"W992"}
        for pqr, label in (((11, 1, 2), "W11-1-2"), ((1, 11, 2), "W1-11-2")):
            with pytest.raises(InfeasibleDesign, match=f"the {label} derivative condition"):
                design_five_pulse(*pqr, TargetRotation(1.0, 0.0))

    def test_infeasible_magnitude(self):
        # weights (1, 1, 4): the reachable sum never gets within the target
        with pytest.raises(InfeasibleDesign) as exc:
            design_five_pulse(1, 1, 4, TargetRotation(PI, PI))
        assert exc.value.best_residual is not None
        assert exc.value.best_residual > 1.0

    @pytest.mark.parametrize("theta", [PI, 11.0])
    def test_infeasible_residual_is_exact_gap(self, theta):
        # t = theta / (2 pi); the nearest pin leaves a two-link triangle with
        # links (1, 4) and base t + 1, or links (1, 1) and base 4 - t: gap
        # 2 - t either way, 3/2 at pi and about 0.25, below 1, at 11
        with pytest.raises(InfeasibleDesign) as exc:
            design_five_pulse(1, 1, 4, TargetRotation(theta, PI))
        assert exc.value.best_residual == pytest.approx(
            (2.0 - theta / TWO_PI) * math.sqrt(2.0) * PI, rel=1e-12)

    @pytest.mark.parametrize("family", [(9, 9, 2), (500, 500, 2), (999, 1000, 1),
                                        (1000, 1000, 2), 1000], ids=str)
    def test_large_multiples_meet_half_the_rounding_bound(self, family):
        # their pinned triangles are needles, which the half-angle solve
        # closes to rounding: 5.5 u per radian at most over 1,020 seeded
        # targets, where the law-of-cosines solve read up to 298 u at W999-1000-1
        rng = np.random.default_rng(41)
        thetas = [*rng.uniform(0.05, 4 * PI - 0.05, 4), *10 ** rng.uniform(-12, -2, 4),
                  *(4 * PI - 10 ** rng.uniform(-12, -2, 4))]
        for theta in map(float, thetas):
            target = TargetRotation(theta, float(rng.uniform(0, 2 * PI)))
            results = (design_five_pulse(*family, target) if isinstance(family, tuple)
                       else [design_wm(family, target), design_wn(family, target)])
            for res in results:
                total = sum((p.angle for p in res.sequence), theta)
                assert res.derivative_residual < ROUNDING_BOUND / 2 * total, (res.label, target)
                assert math.sqrt(res.identity_residual) <= ROUNDING_BOUND / 2 * total

    @pytest.mark.parametrize("theta", [1e-6, PI, 2 * PI, 3 * PI, 4 * PI - 1e-6])
    @pytest.mark.parametrize("pqr,count", [
        ((1, 2, 1), 6), ((1, 1, 2), 6), ((2, 2, 2), 12), ((3, 1, 2), 6),
        ((1, 3, 2), 6)])
    def test_branches_are_distinct(self, pqr, count, theta):
        # at most two roots for each of the six pins; parity (p + q + r even,
        # 0 < theta < 4 pi) keeps every root off-axis, so none coincide
        results = design_five_pulse(*pqr, TargetRotation(theta, PI))
        assert len(results) == count
        for i, a in enumerate(results):
            for b in results[:i]:
                gap = max(angdist(x, y) for x, y in zip(a.phases, b.phases))
                assert gap > 1e-5

    @pytest.mark.parametrize("theta", [1e-11, 4 * PI - 1e-11])
    @pytest.mark.parametrize("pqr,count", [((999, 1000, 1), 6), ((500, 500, 2), 12),
                                           ((1000, 1000, 2), 12)])
    def test_needle_triangles_keep_every_branch(self, pqr, count, theta):
        # 1e-11 from an end the pinned triangles of large multiples are
        # needles, their gaps down to t or 2 - t; the cosine solve gave
        # W999-1000-1 ten branches at 1e-11, two pairs of them equal
        results = design_five_pulse(*pqr, TargetRotation(theta, PI))
        assert len(results) == count
        for i, a in enumerate(results):
            for b in results[:i]:
                assert max(angdist(x, y) for x, y in zip(a.phases, b.phases)) > 1e-9

    @pytest.mark.parametrize("pqr,theta,alpha,golden", [
        ((2, 2, 2), PI, PI, FIVE_PULSE_GOLDEN_W222),
        ((1, 2, 1), 7.270316564340023, 5.665811354625767,
         FIVE_PULSE_GOLDEN_W121),
    ])
    def test_golden_branches(self, pqr, theta, alpha, golden):
        results = design_five_pulse(*pqr, TargetRotation(theta, alpha))
        assert len(results) == len(golden)
        for res, expected in zip(results, golden):
            assert phases_match(res.phases, expected, tol=1e-9)

    @pytest.mark.parametrize("pqr", [(2, 2, 2), (1, 1, 2), (1, 2, 1)],
                             ids=["W222", "W112", "W121"])
    def test_branches_near_4pi_match_40_digit_design(self, pqr):
        # at 4 pi - 1e-6 some pins leave two equal links facing a right-hand
        # side near 0, where wa^2 - wb^2 + rhs^2 would round rhs^2 away
        mp = pytest.importorskip("mpmath")
        target = TargetRotation(4 * PI - 1e-6, 0.4)
        got = [res.phases for res in design_five_pulse(*pqr, target)]
        want = five_pulse_phases(mp, *pqr, target.theta, target.alpha)
        assert len(got) == len(want)
        nearest = []
        for phases in got:
            gap, index = min((max(circle_gaps(mp, phases, w)), i) for i, w in enumerate(want))
            assert gap < 1e-12, phases
            nearest.append(index)
        assert sorted(nearest) == list(range(len(want)))


# theta / (2 pi) underflows to 0 below 2e-323, the least theta with a
# three-pulse root; the last is 4 pi less one ulp
EDGE_THETAS = [5e-324, 1e-323, 1.5e-323, 2e-323, math.nextafter(4 * PI, 0.0)]
COUNTS = (1, 2, 3, 4, 1000)


class TestEveryTarget:
    @pytest.mark.parametrize("theta", EDGE_THETAS + [
        float(t) for t in np.random.default_rng(38).uniform(0.0, 4 * PI, 8)])
    def test_designs_or_infeasible(self, theta):
        # every valid target gets designs or InfeasibleDesign, never another exception
        target = TargetRotation(theta, 1.9)
        calls = [partial(design, k) for design in (design_wm, design_wn) for k in COUNTS]
        calls += [partial(design_five_pulse, *pqr)
                  for pqr in product(range(1, 4), repeat=3) if sum(pqr) % 2 == 0]
        for call in calls:
            with contextlib.suppress(InfeasibleDesign):
                call(target)

    @pytest.mark.parametrize("theta", EDGE_THETAS[:3])
    def test_underflowing_theta_has_no_three_pulse_root(self, theta):
        # the polygon's right-hand side is 0, where the reach gap would read 0
        for design, label in ((partial(design_wm, 1), "W1"), (partial(design_wn, 4), "W1x4")):
            with pytest.raises(InfeasibleDesign, match=f"^no phases satisfy the {label} "
                               "derivative condition for theta = ") as exc:
                design(TargetRotation(theta, 0.0))
            assert exc.value.best_residual is None
        w1 = design_wm(1, TargetRotation(2e-323, 0.0))
        assert w1.derivative_residual < ROUNDING_BOUND * (2e-323 + 4 * PI)


class TestResiduals:
    def test_an_overflowing_total_angle_fails_the_derivative_check(self):
        # pulses of 1e308 and 8e307 rad: the bound overflows to inf, under
        # which any finite residual would pass
        seq = PulseSequence.from_pairs([(1e308, 0.0), (8e307, 0.0)])
        [_, (_, ok, deriv)] = constraint_checks(*_residuals(seq, TargetRotation(PI, 0.0)))
        assert math.isfinite(deriv) and not ok

    @pytest.mark.parametrize("total", [5 * PI, 1e3])
    def test_each_residual_fails_at_its_bound(self, total):
        # b = 16 u per radian of the total angle: the identity residual, a
        # squared angle, fails at b * b and the derivative at b; one ulp below passes
        bound = 16 * 2.0 ** -52 * total
        at = constraint_checks(bound * bound, bound, total)
        below = constraint_checks(math.nextafter(bound * bound, 0.0),
                                  math.nextafter(bound, 0.0), total)
        assert [ok for _, ok, _ in at + below] == [False, False, True, True]

    def test_result_off_the_constraints_is_refused(self):
        # every designer returns through _validated; a sequence that is not
        # the identity at zero error never becomes a DesignResult
        seq = PulseSequence.from_pairs([(PI, 0.0)])
        with pytest.raises(InfeasibleDesign, match="W: constraint residuals out of bounds "
                                                   r"\(identity 1, derivative "):
            _validated("W", seq, (0.0,), TargetRotation(PI, 0.0))

    def test_identity_residual_of_bare_pi_pulse(self):
        seq = PulseSequence.from_pairs([(PI, 0.0)])
        assert identity_residual(seq) == pytest.approx(1.0, abs=1e-12)

    def test_identity_residual_closed_form_for_angle_splits(self):
        # residual of (g, 2(2m*pi - g), g) is 1 - |cos^2 g + sin^2 g cos(dphi)|
        rng = np.random.default_rng(5)
        for _ in range(12):
            g = rng.uniform(0.1, 2 * PI - 0.1)
            p1, p2 = rng.uniform(0, 2 * PI, size=2)
            seq = PulseSequence.from_pairs(
                [(g, p1), (2 * (2 * PI - g), p2), (g, p1)])
            expected = 1 - abs(math.cos(g) ** 2
                               + math.sin(g) ** 2 * math.cos(p2 - p1))
            assert identity_residual(seq) == pytest.approx(expected, abs=1e-12)

    def test_integer_pi_split_is_identity_for_any_phases(self):
        # angles (p*pi, 2*q*pi, p*pi): the compiled product collapses to
        # +/-I whatever the phases, which is what singles out the family
        rng = np.random.default_rng(6)
        for p, q in ((1, 1), (2, 2), (3, 1), (1, 3)):
            p1, p2 = rng.uniform(0, 2 * PI, size=2)
            seq = PulseSequence.from_pairs(
                [(p * PI, p1), (2 * q * PI, p2), (p * PI, p1)])
            assert identity_residual(seq) < 1e-12

    def test_naive_aligned_corrector_fails_derivative(self):
        target = TargetRotation(PI, 0.0)
        naive = PulseSequence.from_pairs([(PI, 0.0), (2 * PI, 0.0), (PI, 0.0)])
        assert identity_residual(naive) < 1e-12
        assert derivative_residual(naive, target) > 1.0

    def test_derivative_matches_finite_differences(self):
        # central difference of the compiled matrix at h = 1e-5
        target = TargetRotation(PI, 0.0)
        h = 1e-5
        rng = np.random.default_rng(9)
        cases = [PulseSequence.from_pairs([(PI, 0.0), (2 * PI, 0.0), (PI, 0.0)])]
        for _ in range(4):
            pairs = [(rng.uniform(0.2, 2 * PI), rng.uniform(0, 2 * PI))
                     for _ in range(3)]
            cases.append(PulseSequence.from_pairs(pairs))
        for seq in cases:
            full = embed_target(seq, target, 1.0)
            fd = (compile_sequence(full, h) - compile_sequence(full, -h)) / (2 * h)
            an = error_derivative(full)
            rel = np.linalg.norm(fd - an) / np.linalg.norm(fd)
            assert rel < 1e-6
            assert derivative_residual(seq, target) == pytest.approx(
                float(np.linalg.norm(fd)), rel=1e-6)

    def test_derivative_matches_prefix_suffix_products(self):
        # the sum over pulses of (later product) (-i angle/2 H) (earlier
        # product, pulse included), in 2x2 matrix products
        def reference(seq):
            prefix = [np.eye(2, dtype=complex)]
            for p in seq:
                prefix.append(rotation(p.angle, p.phase) @ prefix[-1])
            deriv = np.zeros((2, 2), dtype=complex)
            for p, before in zip(seq, prefix[1:]):
                later = prefix[-1] @ before.conj().T
                deriv += later @ ((-0.5j * p.angle) * xy_axis(p.phase)) @ before
            return deriv

        rng = np.random.default_rng(21)
        for _ in range(500):
            seq = PulseSequence.from_pairs(
                [(rng.uniform(0, 4 * PI), rng.uniform(0, 2 * PI))
                 for _ in range(rng.integers(1, 14))])
            ref = reference(seq)
            assert (np.linalg.norm(error_derivative(seq) - ref)
                    <= 1e-14 * np.linalg.norm(ref)), seq

    def test_residuals_match_the_matrix_routes_exactly(self):
        # identity_residual and derivative_residual read U and dU/deps from
        # one scalar loop; the compiled matrix against the identity and the
        # norm of error_derivative's array give the same floats
        target = TargetRotation(1.3, 0.4)
        rng = np.random.default_rng(23)
        for _ in range(500):
            seq = PulseSequence.from_pairs(
                [(rng.uniform(0, 4 * PI), rng.uniform(0, 2 * PI))
                 for _ in range(rng.integers(1, 14))])
            assert identity_residual(seq) == infidelity(compile_sequence(seq, 0.0), IDENTITY)
            deriv = error_derivative(embed_target(seq, target, 1.0))
            assert derivative_residual(seq, target) == math.hypot(*map(abs, deriv.ravel().tolist()))

    def test_designed_sequences_have_flat_finite_difference(self):
        target = TargetRotation(PI, 0.0)
        h = 1e-5
        seq = design_wn(1, target).sequence
        full = embed_target(seq, target, 1.0)
        fd = (compile_sequence(full, h) - compile_sequence(full, -h)) / (2 * h)
        assert np.linalg.norm(fd - error_derivative(full)) < 1e-6


class TestScan:
    def test_flat_only_at_pi_multiples(self):
        # at m = 1 only gamma = pi is flat: gamma = 2 pi, the row past the grid,
        # is not (its residual is 6.66 at theta = pi)
        rows = three_pulse_scan(TargetRotation(PI, 0.0),
                                gammas=[*np.linspace(0.7, 2 * PI - 0.7, 15), 2 * PI])
        assert rows[-1][0] == 2 * PI and rows[7][0] == PI
        for gamma, res in rows:
            assert (res < 1e-9) == (gamma == PI)

    @pytest.mark.parametrize("gap", [3e-9, 1e-9])
    def test_every_split_flattens_near_4pi(self, gap):
        # at psi = 0, |B| = 2 gamma + eta = 4 pi for every split, so no split's
        # least residual exceeds (4 pi - theta) / sqrt(2), and the worst meets it
        theta = 4 * PI - gap
        worst = three_pulse_scan(TargetRotation(theta, 0.0))[:, 1].max()
        assert worst == pytest.approx((4 * PI - theta) / math.sqrt(2), abs=1e-14)

    def test_root_found_at_pi(self):
        rows = three_pulse_scan(TargetRotation(PI, 0.0), gammas=[PI])
        assert rows[0][1] < 1e-9

    @pytest.mark.parametrize("theta,alpha,m,gamma", [
        (4.0, 2.0, 2, PI), (1.0, 0.3, 3, 3.480977)])
    def test_exact_minimum_over_phases(self, theta, alpha, m, gamma):
        grid_min, _, _ = brute_force_minimum(theta, alpha, m, gamma)
        res = three_pulse_scan(TargetRotation(theta, alpha), [gamma], m)[0, 1]
        assert res <= grid_min * (1 + 1e-8)
        assert res >= grid_min - 1e-3
        turned = three_pulse_scan(TargetRotation(theta, alpha + 1.3), [gamma], m)
        assert turned[0, 1] == res

    def test_matches_refined_search(self):
        # zoom in from the grid minimum on the matrix-route residual; here a
        # critical polynomial formed from squared terms, whose top
        # coefficients cancel only to roundoff, landed 1.6e-9 high
        theta, alpha, m, gamma = 2.540835790722586, 4.3481660540211, 1, 4.954548245743669
        target = TargetRotation(theta, alpha)
        eta = 2 * (2 * m * PI - gamma)
        best, p1, p2 = brute_force_minimum(theta, alpha, m, gamma, n=128)
        span = 2 * PI / 128
        for _ in range(14):
            span /= 4
            best, p1, p2 = min(
                (derivative_residual(PulseSequence.from_pairs(
                    [(gamma, a), (eta, b), (gamma, a)]), target), a, b)
                for a in np.linspace(p1 - 4 * span, p1 + 4 * span, 9)
                for b in np.linspace(p2 - 4 * span, p2 + 4 * span, 9))
        res = three_pulse_scan(target, [gamma], m)[0, 1]
        assert res == pytest.approx(best, rel=1e-12)


    @pytest.mark.parametrize("m", [0, -1, 1.5, math.nan, math.inf, "x"])
    def test_m_follows_the_count_rule(self, m):
        with pytest.raises(ValueError, match="^m must be a positive integer$"):
            three_pulse_scan(TargetRotation(PI, 0.0), [PI], m)

    def test_integral_float_m_accepted(self):
        target = TargetRotation(1.0, 0.3)
        assert np.array_equal(three_pulse_scan(target, [3.480977, 2 * PI], 2.0),
                              three_pulse_scan(target, [3.480977, 2 * PI], 2))

    @pytest.mark.parametrize("m", [2, 3])
    def test_default_grid_reaches_the_flat_split_m_pi(self, m):
        rows = three_pulse_scan(TargetRotation(PI, 0.0), m=m)
        assert rows.shape == (61, 2)
        assert np.flatnonzero(rows[:, 1] < ROUNDING_BOUND * (PI + 4 * m * PI)).tolist() == [30]
        assert rows[30, 0] == pytest.approx(m * PI, rel=1e-15)

    @pytest.mark.parametrize("m", [1, 2, 3, 10, 40])
    @pytest.mark.parametrize("theta, alpha", [(0.3, 0.7), (PI, 0.0), (3 * PI, 2.0)])
    def test_default_grid_is_flat_only_at_its_midpoint(self, theta, alpha, m):
        rows = three_pulse_scan(TargetRotation(theta, alpha), m=m)
        flat = rows[:, 1] < ROUNDING_BOUND * (theta + 4 * m * PI)
        assert np.flatnonzero(flat).tolist() == [30]

    @pytest.mark.parametrize("m, theta", [(191, 0.047), (180, 0.0438), (1000, 0.01)])
    def test_midpoint_stays_flat_at_large_m_and_small_theta(self, m, theta):
        # the flat minimum sits at 1 + cos(phi2 - phi1) = theta^2 / (8 m^2 pi^2),
        # 1.3e-12 at m = 1000; floats near cos(phi2 - phi1) = -1 are 1.1e-16
        # apart, too coarse to hold it within the bound at theta + 4 m pi
        rows = three_pulse_scan(TargetRotation(theta, 0.0), m=m)
        flat = rows[:, 1] < ROUNDING_BOUND * (theta + 4 * m * PI)
        assert np.flatnonzero(flat).tolist() == [30]
        assert rows[30, 1] < 1e-13

    def test_midpoint_flat_for_m_up_to_1000(self):
        rng = np.random.default_rng(191)
        for i in range(16):
            m = int(rng.integers(1, 1001))
            theta = rng.uniform(0.01, 0.1) if i % 2 else rng.uniform(0.01, 4 * PI - 0.01)
            rows = three_pulse_scan(TargetRotation(theta, rng.uniform(0, 2 * PI)), m=m)
            flat = rows[:, 1] < ROUNDING_BOUND * (theta + 4 * m * PI)
            assert np.flatnonzero(flat).tolist() == [30], (m, theta)

    def test_matches_a_50_digit_minimum(self):
        # 156 rows, m = 1-3, half at theta < 0.1; numpy's roots of the squared
        # sextic in cos(phi2 - phi1) were up to 4.4e-12 off on these rows
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(28)
        worst = 0.0
        for i in range(156):
            m = 1 + i % 3
            theta = rng.uniform(1e-3, 0.1) if i % 2 else rng.uniform(1e-3, 4 * PI - 1e-3)
            grid = list(_lin_grid(0.12, 2 * m * PI - 0.12, 61))
            gamma = [grid[30], grid[35], grid[int(rng.integers(61))],
                     rng.uniform(0.0, 2 * m * PI)][i // 3 % 4]
            want = float(mpmath.sqrt(least_v2_50_digits(mpmath, theta, gamma, m) / 2))
            worst = max(worst, abs(_split_residual(theta, gamma, m)[1] - want))
        # a row whose least |v| lies inside one piece of the sextic's
        # partition: with the sextic's theta^2 term's sign flipped it read 0.46 off
        want = float(mpmath.sqrt(least_v2_50_digits(mpmath, 11.05, 10.78, 2) / 2))
        worst = max(worst, abs(_split_residual(11.05, 10.78, 2)[1] - want))
        assert worst <= 1e-13

    def test_default_grid_at_m_1(self):
        rows = three_pulse_scan(TargetRotation(PI, 0.0))
        assert rows[:, 0].tobytes() == np.linspace(0.12, TWO_PI - 0.12, 61).tobytes()

    def test_grid_end_gamma_0_is_scanned(self):
        # gamma = 0 is the corrector's domain's lower end: a row, not an error
        rows = three_pulse_scan(TargetRotation(PI, 0.0), [0.0])
        assert rows[0, 0] == 0.0 and rows[0, 1] == pytest.approx(6.66432441, abs=1e-8)

    def test_empty_grid_keeps_the_row_shape(self):
        rows = three_pulse_scan(TargetRotation(PI, 0.0), [])
        assert rows.shape == (0, 2) and rows[:, 1].tolist() == []

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf,
                                       pytest.param(10 ** 400, id="huge-int"),
                                       pytest.param(-10 ** 400, id="huge-negative-int"),
                                       pytest.param(1e160, id="huge-float"),
                                       pytest.param(-0.1, id="negative"),
                                       pytest.param(TWO_PI + 0.1, id="past-2m-pi")])
    def test_non_finite_gamma_named(self, gamma):
        # [0, 2 m pi] is the corrector's domain: every pulse angle is >= 0
        # there; 2 m pi itself is scanned by test_flat_only_at_pi_multiples
        with pytest.raises(ValueError, match=r"^scan angle gamma must lie in \[0, 2 m pi\]$"):
            three_pulse_scan(TargetRotation(PI, 0.0), [1.0, gamma])


def test_pieces_brackets_every_root_by_adjacent_floats():
    # dyadic roots k / 64 keep every coefficient exact, so the seeded roots
    # are the polynomial's own; each is bisected to a float x whose neighbour
    # up reads the other sign, so |x - root| is within an ulp plus Horner's
    # error bound, 2 deg u sum |c_i| root^i, over the slope there
    rng = np.random.default_rng(6)
    for _ in range(300):
        roots = sorted(rng.choice(np.arange(1, 128), int(rng.integers(0, 7)), replace=False) / 64)
        p = [float(rng.choice([-2.0, -1.0, 0.5, 4.0]))]
        for r in roots:
            p = _times(p, [-r, 1.0])
        ends = _pieces(p, 0.0, 2.0)
        assert ends[0] == 0.0 and ends[-1] == 2.0 and len(ends) == len(roots) + 2
        for x, r in zip(ends[1:-1], roots):
            assert (_at(p, x) < 0.0) != (_at(p, math.nextafter(x, 3.0)) < 0.0)
            horner = 2 * len(p) * 2.0 ** -53 * sum(abs(c) * r ** i for i, c in enumerate(p))
            assert abs(x - r) <= math.ulp(r) + horner / abs(_at(_der(p), r))


def least_v2_50_digits(mpmath, theta, gamma, m, n=100):
    """min over phi2 - phi1 = psi in [0, pi] of _split_residual's |v|^2, at
    50 digits from B in c = cos psi: an n-step float grid brackets each local
    minimum, which golden-section search narrows in mpmath to 1e-20."""
    def v2_of(th, g, pi, cos, sin, sqrt):
        eta = 2 * (2 * m * pi - g)
        k, cg, sg, se = 1 - cos(eta), cos(g), sin(g), sin(eta)

        def v2(psi):
            c, s = cos(psi), sin(psi)
            bx, by, bz = g * (2 - k) + eta * c + g * k * c * c, s * (eta + g * k * c), g * se * s
            return ((th - sqrt(bx ** 2 + (by * cg + bz * sg) ** 2)) ** 2
                    + (bz * cg - by * sg) ** 2)
        return v2

    with mpmath.workdps(50):
        coarse = v2_of(theta, gamma, math.pi, math.cos, math.sin, math.sqrt)
        fine = v2_of(mpmath.mpf(theta), mpmath.mpf(gamma), mpmath.pi, mpmath.cos, mpmath.sin,
                     mpmath.sqrt)
        vals = [coarse(math.pi * i / n) for i in range(n + 1)]
        r = (mpmath.sqrt(5) - 1) / 2
        best = mpmath.inf
        for i in range(n + 1):
            if vals[i] > min(vals[max(i - 1, 0)], vals[min(i + 1, n)]):
                continue
            a, b = mpmath.pi * max(i - 1, 0) / n, mpmath.pi * min(i + 1, n) / n
            x1, x2 = b - r * (b - a), a + r * (b - a)
            f1, f2 = fine(x1), fine(x2)
            while b - a > 1e-20:
                if f1 < f2:
                    b, x2, f2 = x2, x1, f1
                    x1 = b - r * (b - a)
                    f1 = fine(x1)
                else:
                    a, x1, f1 = x1, x2, f2
                    x2 = a + r * (b - a)
                    f2 = fine(x2)
            best = min(best, f1, f2, fine(a), fine(b))
        return best


def brute_force_minimum(theta, alpha, m, gamma, n=512):
    """Smallest derivative residual over an n x n (phi1, phi2) grid, with its
    phases: central difference of the quaternion product of (theta, alpha),
    (gamma, phi1), (eta, phi2), (gamma, phi1); |dU/deps|_F = sqrt(2) |dq/deps|.
    """
    eta = 2 * (2 * m * PI - gamma)
    grid = np.linspace(0.0, 2 * PI, n, endpoint=False)
    phi1, phi2 = (a.ravel() for a in np.meshgrid(grid, grid, indexing="ij"))
    h = 1e-6
    qs = [quaternion_product(
        [(theta, np.full_like(phi1, alpha)), (gamma, phi1), (eta, phi2),
         (gamma, phi1)], eps) for eps in (h, -h)]
    res = math.sqrt(2) * np.linalg.norm(qs[0] - qs[1], axis=0) / (2 * h)
    i = int(np.argmin(res))
    return float(res[i]), phi1[i], phi2[i]


def quaternion_product(pulses, eps):
    """(w, x, y, z) of the time-ordered product of R(angle (1 + eps), phase)
    over arrays of phases; U = w I - i (x, y, z).sigma."""
    w, v = 1.0, np.zeros((3, 1))
    for angle, phase in pulses:
        half = 0.5 * angle * (1 + eps)
        pw = math.cos(half)
        pv = math.sin(half) * np.array([np.cos(phase), np.sin(phase),
                                        np.zeros_like(phase)])
        # later pulse on the left: (pw, pv)(w, v)
        w, v = (pw * w - np.sum(pv * v, axis=0),
                pw * v + w * pv + np.cross(pv, v, axis=0))
    return np.vstack([w, v])
