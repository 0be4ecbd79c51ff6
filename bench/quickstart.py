"""The README's library quick start on one target, as a benchmark job.

Usage: python quickstart.py THETA ALPHA   (cpulse importable, e.g. src on
PYTHONPATH).  Prints one JSON object with the values the checker compares.
"""

import json
import sys

import cpulse


def run(theta: float, alpha: float) -> dict:
    """Design, fit, crossover and the BCH coefficient, in the README's order."""
    target = cpulse.TargetRotation(theta, alpha)
    bb1 = cpulse.design_wm(1, target)
    w121 = cpulse.design_five_pulse(1, 2, 1, target)
    report = cpulse.fit_error_scaling(bb1.sequence, target)
    cross_bb1 = cpulse.crossover(bb1.sequence, target)
    cross_w121 = cpulse.crossover(w121[0].sequence, target)
    c_series = cpulse.sixth_order_coefficient(cpulse.p_epsilon(bb1.sequence, target))
    c_analytic = cpulse.analytic_c(bb1.sequence.pulses[1].phase - bb1.sequence.pulses[0].phase)
    return {
        "bb1_pulses": [[p.angle, p.phase] for p in bb1.sequence],
        "w121_branches": len(w121),
        "order": report.order,
        "coefficient": report.coefficient,
        "crossover_bb1": repr(cross_bb1),
        "crossover_w121": repr(cross_w121),
        "c_series": c_series,
        "c_analytic": c_analytic,
    }


if __name__ == "__main__":
    json.dump(run(float(sys.argv[1]), float(sys.argv[2])), sys.stdout)
    sys.stdout.write("\n")
