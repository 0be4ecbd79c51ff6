import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from cpulse import analysis
from cpulse.analysis import (COEFF_WINDOW, INFIDELITY_FLOOR, ORDER_WINDOW,
                             FitWindowError, NotSuperior, SweepTable, _lin_grid,
                             _roots, crossover, fidelity,
                             fit_error_scaling, fit_scaling,
                             infidelity, sweep)
from cpulse.design import design_five_pulse, design_wm, design_wn
from cpulse.pulses import (PulseSequence, TargetRotation, _overlap_at, compile_sequence,
                           embed_target)
from cpulse.su2 import rotation
from su2_oracle import EZ, bb1_corrector, exp_pauli, fit_grid, oracle_infidelity, plain_sweep

PI = np.pi
BB1_C = 5 * PI ** 6 / 1024  # exact sixth-order coefficient of the m=1 family


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

    def test_int_too_large_for_a_float_is_outside_the_error_domain(self):
        # numpy's conversion overflows; the sweep raises the kernel's error
        with pytest.raises(ValueError, match=r"^fractional error must satisfy \|epsilon\| < 1$"):
            sweep(bb1_corrector(), TargetRotation(PI, 0.0), [10**400])

    @pytest.mark.parametrize("grid", [["0.1"], [0.0, "0.1"], np.array(["0.1"])],
                             ids=["str", "float-then-str", "numpy-str"])
    def test_str_errors_raise_the_kernels_type_error(self, grid):
        # numpy's fromiter would parse the str; the kernel rejects it
        seq, target = bb1_corrector(), TargetRotation(PI, 0.0)
        with pytest.raises(TypeError) as kernel:
            compile_sequence(seq, grid[-1])
        with pytest.raises(TypeError) as swept:
            sweep(seq, target, grid)
        assert str(swept.value) == str(kernel.value)

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


class TestLinGrid:
    """_lin_grid, the sweep grid and the fit exponents (n >= 2 points),
    against np.linspace."""

    @staticmethod
    def bits(values):
        return [repr(float(x)) for x in values]   # signed zeros told apart

    def test_matches_linspace_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        cases = [(0.1, 0.10000000000000002, 10), (-0.0, 0.3, 3), (-1e-300, 1e-300, 9_999)]
        for _ in range(300):
            n = int(rng.choice([2, 3, rng.integers(2, 10_001)]))
            kind = rng.integers(4)
            if kind == 0:     # the CLI's grids
                lo, hi = np.sort(rng.uniform(-1.0, 1.0, 2))
            elif kind == 1:   # negative
                lo, hi = -np.sort(rng.uniform(0.0, 1e3, 2))[::-1]
            elif kind == 2:   # tiny: the span or the step rounds
                lo = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-320, 0)
                hi = lo + 10.0 ** rng.uniform(-323, -300)
            else:             # log10 bounds of a fit window
                lo, hi = np.sort(rng.uniform(-12.0, 0.0, 2))
            cases.append((float(lo), float(hi), n))
        for lo, hi, n in cases:
            assert self.bits(_lin_grid(lo, hi, n)) == self.bits(np.linspace(lo, hi, n)), \
                (lo, hi, n)

    @pytest.mark.parametrize("lo,hi,n", [(0.0, 5e-324, 10_000), (-5e-324, 5e-324, 7)])
    def test_underflowing_step_repeats_a_point(self, lo, hi, n):
        # a nonzero span whose step underflows to 0 takes n - 1 more than twice
        # the floats between lo and hi, so every such grid repeats a point
        assert (hi - lo) / (n - 1) == 0.0
        assert self.bits(_lin_grid(lo, hi, n)) == self.bits([lo] * (n - 1) + [hi])


class TestRoots:
    """_roots, the one root finder of crossover, _pieces and the scan."""

    @staticmethod
    def case(rng):
        """A grid of 2-59 points and a product of 0-6 linear factors, each
        root strictly inside its own grid interval, and those intervals."""
        n = int(rng.integers(2, 60))
        points = list(_lin_grid(rng.uniform(-3.0, 0.0), rng.uniform(0.5, 3.0), n))
        cells = sorted(rng.choice(n - 1, int(rng.integers(0, min(n - 1, 6) + 1)),
                                  replace=False).tolist())
        roots = [points[i] + rng.uniform(0.1, 0.9) * (points[i + 1] - points[i])
                 for i in cells]
        sign = float(rng.choice([-1.0, 1.0]))
        return points, cells, roots, lambda x: sign * math.prod(x - r for r in roots)

    def test_yields_every_root_in_order_to_adjacent_floats(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            points, cells, roots, f = self.case(rng)
            calls = []
            got = list(_roots(lambda x: calls.append(x) or f(x), points))
            assert len(got) == len(roots)
            for x, r, i in zip(got, roots, cells):
                # f's sign changes exactly at r: x - r is exact near it
                assert r in (x, math.nextafter(x, math.inf)), (x, r)
                assert points[i] <= x < points[i + 1]
            # once per point, in order; every other call bisects a changing pair
            on_grid = set(points)
            assert [x for x in calls if x in on_grid] == points
            assert all(any(points[i] < x < points[i + 1] for i in cells)
                       for x in calls if x not in on_grid)

    def test_stops_at_the_first_root(self):
        rng = np.random.default_rng(30)
        checked = 0
        while checked < 100:
            points, cells, roots, f = self.case(rng)
            if not roots:
                continue
            calls = []
            first = next(_roots(lambda x: calls.append(x) or f(x), points))
            assert roots[0] in (first, math.nextafter(first, math.inf))
            assert max(calls) == points[cells[0] + 1]
            checked += 1

    def test_a_given_first_sign_skips_only_the_first_evaluation(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            points, cells, roots, f = self.case(rng)
            calls, given = [], []
            want = list(_roots(lambda x: calls.append(x) or f(x), points))
            got = list(_roots(lambda x: given.append(x) or f(x), points, f(points[0]) < 0.0))
            assert got == want and given == calls[1:]


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

    def test_window_below_zero_is_rejected(self):
        # a table may hold negative errors; a window reaching them has no log
        table = plain_sweep(TargetRotation(PI, 0.0), [-0.08, -0.04, 0.02, 0.04, 0.08])
        for window in ((-0.1, 0.1), (0.0, 0.1)):
            with pytest.raises(ValueError, match="^fit window needs 0 < eps_min < eps_max < 1$"):
                fit_scaling(table, window)

    def test_reversed_window_is_rejected(self):
        table = plain_sweep(TargetRotation(PI, 0.0), fit_grid())
        for fit in (lambda w: fit_scaling(table, w),
                    lambda w: fit_error_scaling(bb1_corrector(), TargetRotation(PI, 0.0), w)):
            with pytest.raises(ValueError, match="^fit window needs 0 < eps_min < eps_max < 1$"):
                fit((0.05, 0.01))

    @pytest.mark.parametrize("top", [10**400, sys.float_info.max, 1.0],
                             ids=["int-past-float", "float-max", "one"])
    def test_window_past_the_error_domain_is_rejected(self, top):
        # errors lie in (-1, 1); 10**400 and float max used to raise
        # OverflowError (hi * (1 + 1e-12), 10.0 ** log10(hi))
        table = plain_sweep(TargetRotation(PI, 0.0), fit_grid())
        for fit in (lambda w: fit_scaling(table, w),
                    lambda w: fit_error_scaling(bb1_corrector(), TargetRotation(PI, 0.0), w)):
            with pytest.raises(ValueError, match="^fit window needs 0 < eps_min < eps_max < 1$"):
                fit((1e-3, top))

    @pytest.mark.parametrize("window", [ORDER_WINDOW, COEFF_WINDOW])
    def test_list_built_table_fits_like_the_array_built_one(self, window):
        target = TargetRotation(PI, 0.0)
        table = sweep(bb1_corrector(), target, fit_grid(window))
        listed = SweepTable(table.epsilons.tolist(), table.fidelities.tolist(),
                            table.infidelities.tolist())
        assert repr(fit_scaling(listed, window)) == repr(fit_scaling(table, window))

    @pytest.mark.parametrize("columns", [np.array, list])
    def test_one_log_epsilon_raises_value_error(self, columns):
        # three adjacent doubles: their logs coincide, so the slope is 0 / 0
        eps = [1e-3]
        for _ in range(2):
            eps.append(math.nextafter(eps[-1], 1.0))
        table = SweepTable(columns(eps), columns([1.0 - 1e-17] * 3),
                           columns([1e-17, 2e-17, 3e-17]))
        with pytest.raises(ValueError, match="^sweep points inside the fit window share one "
                                             "log epsilon$"):
            fit_scaling(table, (eps[0], eps[-1]))

    @pytest.mark.parametrize("columns", [np.array, list])
    def test_columns_of_unequal_length_raise_value_error(self, columns):
        with pytest.raises(ValueError, match="^sweep table columns must have equal length$"):
            fit_scaling(SweepTable(columns([0.01, 0.02, 0.03, 0.04]), columns([0.9] * 3),
                                   columns([0.1] * 3)), (0.005, 0.05))

    def test_one_log_epsilon_raises_value_error_on_the_scalar_path(self):
        window = (1e-3, math.nextafter(1e-3, 1.0))
        with pytest.raises(ValueError, match="^sweep points inside the fit window share one "
                                             "log epsilon$"):
            fit_error_scaling(bb1_corrector(), TargetRotation(PI, 0.0), window)

    def test_fit_calls_no_least_squares_solver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the fit must not call a numpy least-squares solver")

        monkeypatch.setattr(np, "polyfit", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        for window in (ORDER_WINDOW, COEFF_WINDOW):
            report = fit_error_scaling(bb1_corrector(), TargetRotation(PI, 0.0), window)
            assert report.order == pytest.approx(6.0, abs=0.05)
            assert report.coefficient == pytest.approx(4.7, rel=0.01)
            assert report.r_squared > 0.9999

    def test_matches_50_digit_least_squares(self):
        # slope and C against a 50-digit least-squares line through the same
        # double (log eps, log(1-F)) points, for ~200 random W_m and W1xn fits
        # in both windows; np.polyfit on those points sets the bar
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(12)
        worst = {"closed form": [0.0, 0.0], "np.polyfit": [0.0, 0.0]}
        for i in range(200):
            target = TargetRotation(rng.uniform(0.5, 4 * PI - 0.1), rng.uniform(0, 2 * PI))
            k = int(rng.integers(1, 4))
            design = design_wm if i % 2 else design_wn
            window = (ORDER_WINDOW, COEFF_WINDOW)[i // 2 % 2]
            table = sweep(design(k, target).sequence, target, fit_grid(window))
            x, y = np.log(table.epsilons), np.log(table.infidelities)
            with mpmath.workdps(50):
                xs, ys = [mpmath.mpf(v) for v in x.tolist()], [mpmath.mpf(v) for v in y.tolist()]
                xm, ym = mpmath.fsum(xs) / len(xs), mpmath.fsum(ys) / len(ys)
                slope = (mpmath.fsum((a - xm) * (b - ym) for a, b in zip(xs, ys))
                         / mpmath.fsum((a - xm) ** 2 for a in xs))
                coeff = mpmath.exp(ym - slope * xm)
                report = fit_scaling(table, window)
                poly_slope, poly_intercept = np.polyfit(x, y, 1)
                for name, (s, c) in (
                        ("closed form", (report.order, report.coefficient)),
                        ("np.polyfit", (poly_slope, math.exp(poly_intercept)))):
                    errs = worst[name]
                    errs[0] = max(errs[0], float(abs(s / slope - 1)))
                    errs[1] = max(errs[1], float(abs(c / coeff - 1)))
        # measured: closed form 3.7e-16 and 1.5e-14, np.polyfit 8.8e-16 and 2.2e-14
        assert worst["closed form"][0] <= worst["np.polyfit"][0], worst
        assert worst["closed form"][1] <= worst["np.polyfit"][1], worst


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

    @pytest.fixture
    def evaluated(self, monkeypatch):
        """The errors at which crossover's composite is evaluated, in order."""
        calls = []

        def counted(*args):
            at = _overlap_at(*args)
            return lambda e: calls.append(e) or at(e)

        monkeypatch.setattr(analysis, "_overlap_at", counted)
        return calls

    def test_ahead_everywhere_evaluates_each_grid_point_once(self, evaluated):
        target = TargetRotation(PI, PI)
        assert crossover(design_wm(1, target).sequence, target) == math.inf
        assert evaluated == list(_lin_grid(0.01, 0.99, 981))

    def test_no_error_is_evaluated_twice(self, evaluated):
        # the NotSuperior check's value at 0.01 starts the march, which
        # evaluated 0.01 a second time before (360 to 983 calls per search
        # at the quick-start targets, one of them that repeat)
        first_two = list(_lin_grid(0.01, 0.99, 981))[:2]
        for case in json.loads(EXPECTED.read_text())["quickstart"][:4]:
            target = TargetRotation(case["theta"], case["alpha"])
            for seq in (design_wm(1, target).sequence,
                        design_five_pulse(1, 2, 1, target)[0].sequence):
                evaluated.clear()
                crossover(seq, target)
                assert evaluated[:2] == first_two
                assert len(set(evaluated)) == len(evaluated), case

    def test_plain_vs_itself_not_superior(self):
        # a null corrector makes the composite identical to the bare pulse
        target = TargetRotation(PI, 0.0)
        null = PulseSequence.from_pairs([(0.0, 0.0)])
        with pytest.raises(NotSuperior):
            crossover(null, target)



# crossover values bisected to adjacent floats (_roots); the 1e-3 march with
# a 1e-6 bisection, which these replaced, returned each within 4.3e-7
W222_CROSSOVERS_PI_PI = [
    0.2113016601272465, 0.21130166012724624, 0.20459252536347425, 0.18315898065437797,
    0.1475836176504329, 0.1755487675985806, 0.14771080207290066, 0.14771080207290085,
    0.1475836176504329, 0.1755487675985806, 0.18315898065437797, 0.20459252536347425]
EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "expected.json"


class TestScalarFitPath:
    @pytest.mark.parametrize("window", [ORDER_WINDOW, COEFF_WINDOW])
    @pytest.mark.parametrize("design", [lambda t: design_wn(1, t), lambda t: design_wn(3, t),
                                        lambda t: design_five_pulse(2, 2, 2, t)[0]],
                             ids=["W1", "W1x3", "W222"])
    def test_matches_the_sweep_route_field_for_field(self, design, window):
        for target in (TargetRotation(PI, PI), TargetRotation(2.3, 0.8)):
            seq = design(target).sequence
            direct = fit_error_scaling(seq, target, window)
            assert direct == fit_scaling(sweep(seq, target, fit_grid(window)), window)
            assert direct.n_points == 40 and direct.window == window

    @pytest.mark.parametrize("window", [ORDER_WINDOW, COEFF_WINDOW])
    @pytest.mark.parametrize("n", [3, 40, 101])
    def test_grid_is_logspace_exponents_through_libm_pow(self, window, n):
        # the exponents are np.linspace's bit for bit; the powers may differ
        # from np.logspace by one ulp, as numpy's SIMD power (AVX-512) is not
        # libm's pow
        lo, hi = window
        exponents = np.linspace(np.log10(lo), np.log10(hi), n).tolist()
        grid = fit_grid(window, n).tolist()
        assert grid == [10.0 ** x for x in exponents]
        for got, ref in zip(grid, np.logspace(np.log10(lo), np.log10(hi), n).tolist()):
            assert abs(got - ref) <= math.ulp(ref)

    def test_rejects_an_empty_window(self):
        target = TargetRotation(PI, 0.0)
        for window in ((1e-2, 1e-3), (1e-2, 1e-2), (0.0, 1e-2)):
            with pytest.raises(ValueError, match="0 < eps_min < eps_max"):
                fit_error_scaling(bb1_corrector(), target, window)

    def test_floor_raises_window_error(self):
        with pytest.raises(FitWindowError, match="raise eps_min above"):
            fit_error_scaling(bb1_corrector(), TargetRotation(PI, 0.0), (1e-5, 4e-5))

    def test_crossover_bits_at_pi_pi(self):
        target = TargetRotation(PI, PI)
        assert crossover(design_wm(1, target).sequence, target) == math.inf
        assert [crossover(b.sequence, target)
                for b in design_five_pulse(2, 2, 2, target)] == W222_CROSSOVERS_PI_PI

    def test_crossover_bits_at_the_quick_start_targets(self):
        # expected.json holds the midpoints of the old 1e-6 brackets, so each
        # lies within 5e-7 of the root; inf only equals inf
        for case in json.loads(EXPECTED.read_text())["quickstart"]:
            target = TargetRotation(case["theta"], case["alpha"])
            bb1 = design_wm(1, target).sequence
            w121 = design_five_pulse(1, 2, 1, target)[0].sequence
            for seq, key in ((bb1, "crossover_bb1"), (w121, "crossover_w121")):
                got, want = crossover(seq, target), float(case[key])
                assert got == want or abs(got - want) <= 5e-7, (case, key, got)


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

    def test_crossover_is_within_1e_12_of_a_50_digit_root(self):
        # the 50-digit gap, composite minus bare fidelity, changes sign within
        # 1e-12 either side of each returned error, so one of its roots lies
        # that close.  The set holds crossovers a few ulp from eps = 1/2,
        # where W2's corrector composes to the identity and the gap vanishes
        mpmath = pytest.importorskip("mpmath")
        cases = [(TargetRotation(PI, PI), b.sequence)
                 for b in design_five_pulse(2, 2, 2, TargetRotation(PI, PI))]
        for case in json.loads(EXPECTED.read_text())["quickstart"]:
            target = TargetRotation(case["theta"], case["alpha"])
            cases += [(target, design_wm(1, target).sequence),
                      (target, design_wm(2, target).sequence),
                      (target, design_five_pulse(1, 2, 1, target)[0].sequence)]
        checked = 0
        for target, seq in cases:
            try:
                e = crossover(seq, target)
            except NotSuperior:
                continue
            if e == math.inf:
                continue
            full = embed_target(seq, target)
            with mpmath.workdps(50):
                def gap(x):
                    return (1 - oracle_infidelity(mpmath, full, target, x)
                            - abs(mpmath.cos(mpmath.mpf(target.theta) * x / 2)))
                step = mpmath.mpf(1e-12)
                assert gap(mpmath.mpf(e) - step) > 0 > gap(mpmath.mpf(e) + step), (target, e)
            checked += 1
        assert checked >= 40
