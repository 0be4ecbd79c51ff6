"""Pulse sequences, the systematic pulse-length error model, and compilation.

A sequence stores pulses in execution order (first pulse acts first); the
compiled matrix is the operator product with the last pulse leftmost.  The
fractional error epsilon scales every pulse angle by (1 + epsilon), the
embedded target pulse included.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .su2 import _entries, _finite, _split, rotation


def reduce_angle(phi: float) -> float:
    """Map an angle to [0, 2*pi)."""
    r = float(phi) % math.tau
    return r if r < math.tau else 0.0   # a tiny negative angle rounds up to 2*pi


# namedtuple's _make, which _replace calls, through the constructor's checks
_checked_make = classmethod(lambda cls, fields: cls(*fields))


class Pulse(namedtuple("Pulse", "angle phase")):
    """One rotation: nominal angle (>= 0) about the XY axis at azimuth phase."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, angle, phase):
        if not (_finite(angle) and _finite(phase)):
            raise ValueError("pulse angle and phase must be finite")
        if angle < 0:
            raise ValueError("pulse angle must be >= 0 (fold sign into the phase)")
        return super().__new__(cls, angle, reduce_angle(phase))


class PulseSequence:
    """Ordered, nonempty list of pulses, applied left to right in time."""

    __slots__ = ("pulses",)

    def __init__(self, pulses):
        pulses = tuple(pulses)
        if not pulses:
            raise ValueError("pulse sequence must be nonempty")
        if not all(isinstance(p, Pulse) for p in pulses):
            raise TypeError("sequence entries must be Pulse instances")
        object.__setattr__(self, "pulses", pulses)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuild through __init__: __setattr__ blocks the default slot restore
        return type(self), (self.pulses,)

    def __eq__(self, other):
        return self.pulses == other.pulses if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self.pulses)

    def __repr__(self):
        return f"PulseSequence(pulses={self.pulses!r})"

    @classmethod
    def from_pairs(cls, pairs) -> PulseSequence:
        return cls(tuple(Pulse(a, p) for a, p in pairs))

    def __len__(self):
        return len(self.pulses)

    def __iter__(self):
        return iter(self.pulses)


class TargetRotation(namedtuple("TargetRotation", "theta alpha")):
    """The ideal gate: rotation by theta about the XY axis at azimuth alpha."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, theta, alpha):
        if not (_finite(theta) and _finite(alpha)):
            raise ValueError("target angles must be finite")
        if not 0.0 < theta < 2.0 * math.tau:
            raise ValueError("target theta must lie in (0, 4*pi)")
        return super().__new__(cls, theta, reduce_angle(alpha))

    def unitary(self) -> np.ndarray:
        return rotation(self.theta, self.alpha)


def _in_domain(epsilon):
    """epsilon, once inside every kernel's error domain |epsilon| < 1."""
    if not abs(epsilon) < 1.0:   # NaN and 10**400 fail; a str raises abs()'s TypeError
        raise ValueError("fractional error must satisfy |epsilon| < 1")
    return epsilon


def compile_sequence(seq: PulseSequence, epsilon: float = 0.0) -> np.ndarray:
    """Matrix product of the sequence with every angle scaled by (1 + epsilon).

    Time ordering: the first pulse is rightmost in the product, so
    compile(s1 ++ s2) = compile(s2) @ compile(s1).  The running product is
    four Python complexes; the 2x2 array is built once at the end.
    """
    _in_domain(epsilon)
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for p in seq:
        (r00, r01), (r10, r11) = rotation(p.angle * (1.0 + epsilon), p.phase).tolist()
        a, b, c, d = r00 * a + r01 * c, r00 * b + r01 * d, r10 * a + r11 * c, r10 * b + r11 * d
    import numpy as np
    return np.array([[a, b], [c, d]], dtype=complex)


def _jet(seq: PulseSequence, epsilon: float = 0.0) -> tuple:
    """compile_sequence(seq, epsilon) as four Python complexes a, b, c, d
    (U = [[a, b], [c, d]], equal to it bit for bit), followed by
    dU/d(epsilon) likewise: the kernel for results at one error.

    Each pulse's rotation R comes from su2.rotation's own entries, at
    angle * (1 + epsilon).  R = exp((1 + epsilon) G), with G = -i angle/2
    (X cos phase + Y sin phase), so dR/d(epsilon) = G R: U maps to R U and
    D to R D + G R U.  Input checks and messages are compile_sequence's.
    """
    _in_domain(epsilon)
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    da = db = dc = dd = 0.0
    for p in seq:
        cp, sp = math.cos(p.phase), math.sin(p.phase)
        (r, r01), (r10, _) = _entries(p.angle * (1.0 + epsilon), cp, sp)
        a, b, c, d = r * a + r01 * c, r * b + r01 * d, r10 * a + r * c, r10 * b + r * d
        hc, hs = 0.5 * p.angle * cp, 0.5 * p.angle * sp
        g01, g10 = complex(-hs, -hc), complex(hs, -hc)
        da, db, dc, dd = (r * da + r01 * dc + g01 * c, r * db + r01 * dd + g01 * d,
                          r10 * da + r * dc + g10 * a, r10 * db + r * dd + g10 * b)
    return a, b, c, d, da, db, dc, dd


def _entry_overlap(v00, v01, v10, v11, uc) -> tuple:
    """(fidelity, infidelity) of v = [[v00, v01], [v10, v11]] against u,
    uc = u.conj().tolist(), from the Python-scalar entries of
    g = v u-dagger = w I - i s.sigma.  1 - |w| is |s|^2 / (1 + |w|), with w
    and s from the split: both are accurate to ~1e-16 absolute, near a
    global phase and near fidelity 0 alike.
    """
    (u00, u01), (u10, u11) = uc
    g = (v00 * u00 + v01 * u01, v00 * u10 + v01 * u11,
         v10 * u00 + v11 * u01, v10 * u10 + v11 * u11)
    w, x, y, z = _split(*g)
    return 0.5 * abs(g[0] + g[3]), (x * x + y * y + z * z) / (1.0 + abs(w))


def _target_conj(target: TargetRotation) -> tuple:
    """target.unitary().conj().tolist() as Python scalars, without an array."""
    (a, b), (c, d) = _entries(target.theta, math.cos(target.alpha), math.sin(target.alpha))
    return (a, b.conjugate()), (c.conjugate(), d)


def _overlap_at(full: PulseSequence, target: TargetRotation):
    """e -> (fidelity, infidelity) of the sequence at error e against the
    target, the kernel for many errors (sweep rows, fits, crossover):
    _entry_overlap(*_jet(full, e)[:4], _target_conj(target)) float bit for
    bit, with _jet's checks and messages.  It carries the pair (a, b) of
    U = [[a, b], [-conj(b), conj(a)]] as four floats, and each phase's trig
    once.  Complex products are spelled out in CPython's order, negations
    folded in: only a zero's sign can differ, which moduli and squares drop."""
    (angle0, cp0, sp0), *rest = [(p.angle, math.cos(p.phase), math.sin(p.phase)) for p in full]
    longest = max(p.angle for p in full)
    (u00, u01), (u10, u11) = _target_conj(target)   # u00 and u11 are real
    u01r, u01i, u10r, u10i = u01.real, u01.imag, u10.real, u10.imag

    def at(e: float) -> tuple:
        if not abs(e) < 1.0:
            raise ValueError("fractional error must satisfy |epsilon| < 1")
        scale = 1.0 + e
        # angle * scale grows with angle, so the longest pulse overflows first
        if not math.isfinite(longest * scale):
            raise ValueError("rotation angles must be finite")
        s = math.sin(half := 0.5 * (angle0 * scale))   # the first pulse alone
        ar, ai, br, bi = math.cos(half), 0.0, -s * sp0, -s * cp0
        for angle, cp, sp in rest:   # (a, b) -> (c a + r conj(b), c b - r conj(a)), r = x + i y
            half = 0.5 * (angle * scale)
            c, s = math.cos(half), math.sin(half)
            x, y = s * sp, s * cp
            ar, ai, br, bi = (c * ar + (x * br + y * bi), c * ai - (x * bi - y * br),
                              c * br - (x * ar + y * ai), c * bi + (x * ai - y * ar))
        g0r, g0i = ar * u00 + (br * u01r - bi * u01i), ai * u00 + (br * u01i + bi * u01r)
        g1r, g1i = (ar * u10r - ai * u10i) + br * u11, (ar * u10i + ai * u10r) + bi * u11
        w = abs(g0r)
        return w, (g1i * g1i + g1r * g1r + g0i * g0i) / (1.0 + w)

    return at

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


# the largest count: a job's time and memory grow linearly with it
MAX_MULTIPLE = 1000


def _count(value, name: str) -> int:
    """value as an int in [1, MAX_MULTIPLE]; else ValueError "<name> must be
    a positive integer", or "<name> must be at most 1000" for a larger one."""
    try:
        ok = int(value) == value and value >= 1
    except (TypeError, ValueError, OverflowError):   # None, NaN, +-inf, "x"
        ok = False
    if ok and value <= MAX_MULTIPLE:
        return int(value)
    raise ValueError(f"{name} must be {f'at most {MAX_MULTIPLE}' if ok else 'a positive integer'}")


def repeated(seq: PulseSequence, n: int) -> PulseSequence:
    """Concatenate n copies of the sequence."""
    return PulseSequence(seq.pulses * _count(n, "repeat count"))


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
            pulses.append(Pulse(float(fields[0]), float(fields[1])))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not pulses:
        raise ValueError("no pulses found")
    return PulseSequence(tuple(pulses))


def sequence_to_json(seq: PulseSequence, target: TargetRotation | None = None) -> dict:
    """JSON mirror of the text form, in floats: pulse objects plus an optional target."""
    obj = {"pulses": [{"angle": float(p.angle), "phase": p.phase} for p in seq]}
    if target is not None:
        obj["target"] = {"theta": float(target.theta), "alpha": target.alpha}
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
