"""Composite pulse sequences robust to systematic pulse-length errors.

Design of the 3-pulse (broadband/passband) and symmetric 5-pulse corrector
families, exact SU(2) simulation, and extraction of the sixth-order
fidelity scaling.  Each function that builds an array imports numpy itself.
"""

from .analysis import (COEFF_WINDOW, ORDER_WINDOW, FitReport, FitWindowError,
                       NotSuperior, SweepTable, crossover, fidelity,
                       fit_error_scaling, fit_scaling, infidelity, sweep)
from .bch import analytic_c, p_epsilon, sixth_order_coefficient
from .design import (DesignResult, InfeasibleDesign, derivative_residual,
                     design_five_pulse, design_wm, design_wn,
                     identity_residual, three_pulse_scan)
from .pulses import (Pulse, PulseSequence, TargetRotation, compile_sequence,
                     embed_target, format_sequence, parse_sequence,
                     repeated, sequence_from_json, sequence_to_json)
from .su2 import rotation

__version__ = "0.1.0"

__all__ = [
    "COEFF_WINDOW", "ORDER_WINDOW", "FitReport", "FitWindowError",
    "NotSuperior", "SweepTable", "crossover", "fidelity", "fit_error_scaling",
    "fit_scaling", "infidelity", "sweep",
    "analytic_c", "p_epsilon", "sixth_order_coefficient",
    "DesignResult", "InfeasibleDesign", "derivative_residual",
    "design_five_pulse", "design_wm", "design_wn",
    "identity_residual", "three_pulse_scan",
    "Pulse", "PulseSequence", "TargetRotation", "compile_sequence",
    "embed_target", "format_sequence", "parse_sequence", "repeated",
    "sequence_from_json", "sequence_to_json",
    "rotation",
    "__version__",
]
