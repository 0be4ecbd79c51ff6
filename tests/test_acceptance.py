"""Acceptance gate: one test per release criterion, run at the stated
tolerances.  Each test prints a single PASS line (visible with -s / -v)."""

import math
import time

import numpy as np
import pytest

from cpulse.analysis import (COEFF_WINDOW, ORDER_WINDOW, crossover, fidelity,
                             fit_error_scaling, plain_sweep, fit_grid,
                             fit_scaling)
from cpulse.bch import analytic_c, p_epsilon, sbch
from cpulse.design import (derivative_residual, design_five_pulse, design_wm,
                           design_wn, error_derivative, identity_residual,
                           three_pulse_scan)
from cpulse.pulses import (PulseSequence, TargetRotation, compile_sequence,
                           embed_target)
from cpulse.su2 import axis_vector, exp_pauli

PI = math.pi
BB1_C_EXACT = 5 * PI ** 6 / 1024

PAPER_C = {"W1": 4.7, "W2": 59.1, "W3": 283.4,
           "W121": 72.3, "W112": 190.6, "W222": 877.8}


@pytest.fixture(scope="module")
def table1_designs():
    """All Table-1 sequences for the pi-pulse about -X, designed once."""
    target = TargetRotation(PI, PI)
    designs = {f"W{m}": [design_wm(m, target)] for m in (1, 2, 3)}
    designs["W121"] = design_five_pulse(1, 2, 1, target)
    designs["W112"] = design_five_pulse(1, 1, 2, target)
    designs["W222"] = design_five_pulse(2, 2, 2, target)
    return target, designs


def test_criterion_1_table1_coefficients(table1_designs):
    target, designs = table1_designs
    start = time.time()
    fitted = {}
    for label, results in designs.items():
        fits = [fit_error_scaling(r.sequence, target, COEFF_WINDOW)
                for r in results]
        fitted[label] = min(fits, key=lambda f: abs(f.coefficient - PAPER_C[label]))
    elapsed = time.time() - start
    for label, fit in fitted.items():
        rel = abs(fit.coefficient - PAPER_C[label]) / PAPER_C[label]
        assert rel <= 0.01, f"{label}: fitted {fit.coefficient:.4f} vs {PAPER_C[label]}"
    assert elapsed < 10.0
    summary = " ".join(f"{k}={fitted[k].coefficient:.4g}" for k in PAPER_C)
    print(f"\nPASS criterion 1: Table 1 within 1% ({summary}; {elapsed:.1f}s)")


def test_criterion_2_exact_bb1_coefficient():
    target = TargetRotation(PI, 0.0)
    seq = design_wn(1, target).sequence
    fit = fit_error_scaling(seq, target, COEFF_WINDOW)
    rel_fit = abs(fit.coefficient - BB1_C_EXACT) / BB1_C_EXACT
    assert rel_fit <= 0.002
    delta = math.acos(-7.0 / 8.0)
    rel_analytic = abs(fit.coefficient - analytic_c(delta)) / analytic_c(delta)
    assert rel_analytic <= 0.001
    assert analytic_c(delta) == pytest.approx(BB1_C_EXACT, rel=1e-12)
    print(f"\nPASS criterion 2: BB1 C fit {fit.coefficient:.6f} vs exact "
          f"{BB1_C_EXACT:.6f} ({rel_fit:.2%}), analytic match {rel_analytic:.2%}")


def test_criterion_3_scaling_orders(table1_designs):
    target, designs = table1_designs
    checked = []
    for label, results in designs.items():
        report = fit_error_scaling(results[0].sequence, target, ORDER_WINDOW)
        assert abs(report.order - 6.0) <= 0.05, (label, report.order)
        assert report.r_squared > 0.9999, (label, report.r_squared)
        checked.append((label, report.order))
    target0 = TargetRotation(PI, 0.0)
    for n in (1, 2, 3):
        res = design_wn(n, target0)
        report = fit_error_scaling(res.sequence, target0, ORDER_WINDOW)
        assert abs(report.order - 6.0) <= 0.05, (f"W1x{n}", report.order)
        assert report.r_squared > 0.9999
        checked.append((f"W1x{n}", report.order))
    plain = fit_scaling(plain_sweep(target0, fit_grid()), ORDER_WINDOW)
    assert abs(plain.order - 2.0) <= 0.02
    worst = max(abs(o - 6.0) for _, o in checked)
    print(f"\nPASS criterion 3: {len(checked)} sequences at order 6 "
          f"(worst |dev| {worst:.4f}), plain at {plain.order:.4f}")


def test_criterion_4_constraint_residuals(table1_designs):
    target, designs = table1_designs
    n_designs = 0
    for results in designs.values():
        for res in results:
            assert res.identity_residual < 1e-12
            assert res.derivative_residual < 1e-9
            n_designs += 1
    # analytic derivative against central finite differences at h = 1e-5
    h = 1e-5
    rng = np.random.default_rng(17)
    worst = 0.0
    cases = [PulseSequence.from_pairs([(PI, 0.0), (2 * PI, 0.0), (PI, 0.0)])]
    cases += [PulseSequence.from_pairs(
        [(rng.uniform(0.3, 2 * PI), rng.uniform(0, 2 * PI)) for _ in range(4)])
        for _ in range(5)]
    for seq in cases:
        full = embed_target(seq, TargetRotation(PI, 0.0), 1.0)
        fd = (compile_sequence(full, h) - compile_sequence(full, -h)) / (2 * h)
        rel = np.linalg.norm(fd - error_derivative(full)) / np.linalg.norm(fd)
        worst = max(worst, rel)
        assert rel < 1e-6
    print(f"\nPASS criterion 4: residual bounds on {n_designs} designs, "
          f"FD agreement worst {worst:.2e}")


def test_criterion_5_placement_invariance():
    target = TargetRotation(PI, 0.0)
    seq = design_wn(1, target).sequence
    values = []
    for split in (0.0, 0.25, 0.5, 0.75, 1.0):
        u = compile_sequence(embed_target(seq, target, split), 0.1)
        values.append(fidelity(u, target.unitary()))
    spread = max(values) - min(values)
    assert spread < 1e-12
    print(f"\nPASS criterion 5: BB1 placement spread {spread:.2e} at eps=0.1")


def test_criterion_6_crossovers(table1_designs):
    target, designs = table1_designs
    w222 = crossover(designs["W222"][0].sequence, target)
    assert 0.12 <= w222 <= 0.35
    bb1 = crossover(designs["W1"][0].sequence, target)
    assert bb1 > 0.3
    print(f"\nPASS criterion 6: W222 crossover {w222:.3f}, BB1 {bb1}")


def test_criterion_7_bch_oracle(table1_designs):
    # truncation defect shrinks 32x per halving of t
    phi1 = math.acos(-0.25)
    r = PI * axis_vector(phi1)
    s = PI * axis_vector(-phi1)
    defects = []
    for t in (0.1, 0.05, 0.025):
        product = exp_pauli(r, t / 2) @ exp_pauli(s, t) @ exp_pauli(r, t / 2)
        defects.append(np.linalg.norm(product - exp_pauli(sbch(r, s, t))))
    ratios = [big / small for big, small in zip(defects, defects[1:])]
    for ratio in ratios:
        assert abs(ratio - 32.0) <= 3.2

    # linear term of the error log vanishes exactly for validated designs
    target, designs = table1_designs
    series = p_epsilon(designs["W1"][0].sequence, target)
    assert np.linalg.norm(series[1]) < 1e-12

    # analytic vs fitted coefficient across ten target angles
    worst = 0.0
    for theta in np.linspace(0.5, 3.0, 10):
        tgt = TargetRotation(theta, 0.0)
        res = design_wn(1, tgt)
        fit = fit_error_scaling(res.sequence, tgt, COEFF_WINDOW)
        ref = analytic_c(res.phases[1] - res.phases[0])
        rel = abs(fit.coefficient - ref) / ref
        worst = max(worst, rel)
        assert rel < 0.01
    print(f"\nPASS criterion 7: sbch ratios {ratios[0]:.2f}/{ratios[1]:.2f}, "
          f"linear term flat, analytic match worst {worst:.3%}")


def test_criterion_8_three_pulse_exhaustiveness():
    start = time.time()
    rows = three_pulse_scan(TargetRotation(PI, 0.0),
                            gammas=np.linspace(0.12, 2 * PI - 0.12, 61))
    elapsed = time.time() - start
    assert len(rows) >= 50
    hit_floor = False
    for gamma, residual in rows:
        near_pi = min(abs(gamma - PI), abs(gamma - 2 * PI)) <= 0.02
        if residual < 1e-9:
            assert near_pi, f"flat residual at gamma={gamma}"
            hit_floor = True
    assert hit_floor, "scan never reached the design floor at gamma = pi"
    assert elapsed < 30.0
    off = min(res for g, res in rows if min(abs(g - PI), abs(g - 2 * PI)) > 0.02)
    print(f"\nPASS criterion 8: floor only at pi (off-pi min {off:.3g}), "
          f"{elapsed:.1f}s")
