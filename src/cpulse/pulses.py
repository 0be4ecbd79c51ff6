"""Pulse sequences, the systematic pulse-length error model, and compilation.

A sequence stores pulses in execution order (first pulse acts first); the
compiled matrix is the operator product with the last pulse leftmost.  The
fractional error epsilon scales every pulse angle by (1 + epsilon), the
embedded target pulse included.
"""

from dataclasses import dataclass

import numpy as np

from .su2 import IDENTITY, TWO_PI, rotation


def reduce_angle(phi: float) -> float:
    """Map an angle to [0, 2*pi)."""
    return float(phi) % TWO_PI


@dataclass(frozen=True)
class Pulse:
    """One rotation: nominal angle (>= 0) about the XY axis at azimuth phase."""

    angle: float
    phase: float

    def __post_init__(self):
        if not (np.isfinite(self.angle) and np.isfinite(self.phase)):
            raise ValueError("pulse angle and phase must be finite")
        if self.angle < 0:
            raise ValueError("pulse angle must be >= 0 (fold sign into the phase)")
        object.__setattr__(self, "phase", reduce_angle(self.phase))


@dataclass(frozen=True)
class PulseSequence:
    """Ordered, nonempty list of pulses, applied left to right in time."""

    pulses: tuple

    def __post_init__(self):
        pulses = tuple(self.pulses)
        if not pulses:
            raise ValueError("pulse sequence must be nonempty")
        if not all(isinstance(p, Pulse) for p in pulses):
            raise TypeError("sequence entries must be Pulse instances")
        object.__setattr__(self, "pulses", pulses)

    @classmethod
    def from_pairs(cls, pairs) -> "PulseSequence":
        return cls(tuple(Pulse(a, p) for a, p in pairs))

    def __len__(self):
        return len(self.pulses)

    def __iter__(self):
        return iter(self.pulses)

    @property
    def angles(self) -> np.ndarray:
        return np.array([p.angle for p in self.pulses])

    @property
    def phases(self) -> np.ndarray:
        return np.array([p.phase for p in self.pulses])


@dataclass(frozen=True)
class TargetRotation:
    """The ideal gate: rotation by theta about the XY axis at azimuth alpha."""

    theta: float
    alpha: float

    def __post_init__(self):
        if not (np.isfinite(self.theta) and np.isfinite(self.alpha)):
            raise ValueError("target angles must be finite")
        if not 0.0 < self.theta < 2.0 * TWO_PI:
            raise ValueError("target theta must lie in (0, 4*pi)")
        object.__setattr__(self, "alpha", reduce_angle(self.alpha))

    def unitary(self) -> np.ndarray:
        return rotation(self.theta, self.alpha)


def compile_sequence(seq: PulseSequence, epsilon: float = 0.0) -> np.ndarray:
    """Matrix product of the sequence with every angle scaled by (1 + epsilon).

    Time ordering: the first pulse is rightmost in the product, so
    compile(s1 ++ s2) = compile(s2) @ compile(s1).
    """
    if not np.isfinite(epsilon) or abs(epsilon) >= 1.0:
        raise ValueError("fractional error must satisfy |epsilon| < 1")
    u = IDENTITY.copy()
    for p in seq:
        u = rotation(p.angle * (1.0 + epsilon), p.phase) @ u
    return u


def embed_target(seq: PulseSequence, target: TargetRotation,
                 split: float = 1.0) -> PulseSequence:
    """Place the corrector inside the target rotation.

    Returns R(split*theta) ++ seq ++ R((1-split)*theta) as a pulse list; the
    error is applied uniformly at compile time.  Zero-length boundary pulses
    are dropped.  The compiled fidelity does not depend on split.
    """
    if not 0.0 <= split <= 1.0:
        raise ValueError("split must lie in [0, 1]")
    head = [Pulse(split * target.theta, target.alpha)] if split > 0 else []
    tail = [Pulse((1.0 - split) * target.theta, target.alpha)] if split < 1 else []
    return PulseSequence(tuple(head) + seq.pulses + tuple(tail))


def repeated(seq: PulseSequence, n: int) -> PulseSequence:
    """Concatenate n copies of the sequence."""
    if int(n) != n or n < 1:
        raise ValueError("repeat count must be a positive integer")
    return PulseSequence(seq.pulses * int(n))


def format_sequence(seq: PulseSequence) -> str:
    """Line-oriented text form: one pulse per line, 17 significant digits."""
    lines = ["%.17g %.17g" % (p.angle, p.phase) for p in seq]
    return "\n".join(lines) + "\n"


def parse_sequence(text: str) -> PulseSequence:
    """Parse the text form; '#' starts a comment, blank lines are skipped."""
    pulses = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected '<angle_rad> <phase_rad>'")
        try:
            angle, phase = float(fields[0]), float(fields[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        pulses.append(Pulse(angle, phase))
    if not pulses:
        raise ValueError("no pulses found")
    return PulseSequence(tuple(pulses))


def sequence_to_json(seq: PulseSequence, target: TargetRotation | None = None) -> dict:
    """JSON mirror of the text form: pulse objects plus an optional target."""
    obj = {"pulses": [{"angle": p.angle, "phase": p.phase} for p in seq]}
    if target is not None:
        obj["target"] = {"theta": target.theta, "alpha": target.alpha}
    return obj


def _json_reals(obj, keys, where: str) -> tuple:
    """Fields of a JSON object as floats; bools and non-numbers are rejected."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be an object")
    values = []
    for key in keys:
        v = obj.get(key)
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValueError(f"{where}.{key} must be a number, not {type(v).__name__}")
        try:
            values.append(float(v))
        except OverflowError:
            raise ValueError(f"{where}.{key} is out of range") from None
    return tuple(values)


def sequence_from_json(obj):
    """Inverse of sequence_to_json; returns (sequence, target or None).
    Raises ValueError naming the first malformed entry."""
    if not isinstance(obj, dict) or not isinstance(obj.get("pulses"), list):
        raise ValueError("sequence JSON must be an object with a 'pulses' list")
    pulses = []
    for i, entry in enumerate(obj["pulses"]):
        angle, phase = _json_reals(entry, ("angle", "phase"), f"pulses[{i}]")
        try:
            pulses.append(Pulse(angle, phase))
        except ValueError as exc:
            raise ValueError(f"pulses[{i}]: {exc}") from None
    target = None
    if "target" in obj:
        target = TargetRotation(*_json_reals(obj["target"], ("theta", "alpha"), "target"))
    return PulseSequence(tuple(pulses)), target
