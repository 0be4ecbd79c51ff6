"""Composite pulse sequences robust to systematic pulse-length errors.

Design of the 3-pulse (broadband/passband) and symmetric 5-pulse corrector
families, exact SU(2) simulation, and extraction of the sixth-order
fidelity scaling.
"""

from .analysis import (COEFF_WINDOW, ORDER_WINDOW, FitReport, FitWindowError,
                       NotSuperior, SweepTable, crossover, fidelity,
                       fit_error_scaling, fit_grid, fit_scaling, infidelity,
                       plain_sweep, sweep)
from .bch import analytic_c, p_epsilon, sixth_order_coefficient
from .design import (DesignResult, InfeasibleDesign, derivative_residual,
                     design_five_pulse, design_wm, design_wn,
                     error_derivative, identity_residual, three_pulse_scan)
from .pulses import (Pulse, PulseSequence, TargetRotation, compile_sequence,
                     embed_target, format_sequence, parse_sequence,
                     repeated, sequence_from_json, sequence_to_json)
from .su2 import (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, dagger, rotation,
                  su2_parts, xy_axis)

__version__ = "0.1.0"

__all__ = [
    "COEFF_WINDOW", "ORDER_WINDOW", "FitReport", "FitWindowError",
    "NotSuperior", "SweepTable", "crossover", "fidelity", "fit_error_scaling",
    "fit_grid", "fit_scaling", "infidelity", "plain_sweep", "sweep",
    "analytic_c", "p_epsilon", "sixth_order_coefficient",
    "DesignResult", "InfeasibleDesign", "derivative_residual",
    "design_five_pulse", "design_wm", "design_wn", "error_derivative",
    "identity_residual", "three_pulse_scan",
    "Pulse", "PulseSequence", "TargetRotation", "compile_sequence",
    "embed_target", "format_sequence", "parse_sequence", "repeated",
    "sequence_from_json", "sequence_to_json",
    "IDENTITY", "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "dagger", "rotation",
    "su2_parts", "xy_axis",
    "__version__",
]
