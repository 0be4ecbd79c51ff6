"""Property tests: concatenation order, agreement with the benchmark
checker's quaternion product, the scalar kernel against compile_sequence,
the pair evaluator against the scalar kernel's overlap, the CLI's streamed
sweep rows against the library sweep, the scalar overlap against the
matrix formula, phase covariance, split invariance through the CLI, and
the text and JSON round trips of a sequence."""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import check  # noqa: E402

from cpulse.analysis import fidelity, infidelity, sweep  # noqa: E402
from cpulse.cli import _sweep_rows, main  # noqa: E402
from cpulse.design import design_wm  # noqa: E402
from cpulse.pulses import (Pulse, PulseSequence, TargetRotation, _entry_overlap,  # noqa: E402
                           _jet, _overlap_at, _target_conj, compile_sequence, embed_target,
                           format_sequence, parse_sequence, sequence_from_json,
                           sequence_to_json)
from cpulse.su2 import su2_parts  # noqa: E402
from su2_oracle import IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z, dagger  # noqa: E402

_PULSE = st.builds(Pulse, st.floats(0.0, 4 * math.pi), st.floats(-10.0, 10.0))
_SEQ = st.lists(_PULSE, min_size=1, max_size=6).map(lambda ps: PulseSequence(tuple(ps)))
_EPS = st.floats(-0.9, 0.9)
_TARGET = st.builds(TargetRotation, st.floats(1e-3, 4 * math.pi - 1e-3), st.floats(-10.0, 10.0))
_QUAT = (st.tuples(*[st.floats(-1.0, 1.0)] * 4)
         .filter(lambda q: math.fsum(c * c for c in q) > 1e-6))


def su2_matrix(q):
    w, x, y, z = np.array(q) / math.sqrt(math.fsum(c * c for c in q))
    return w * IDENTITY - 1j * (x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(s1=_SEQ, s2=_SEQ, eps=_EPS)
def test_concatenation_is_product_in_reverse_order(s1, s2, eps):
    joined = compile_sequence(PulseSequence(s1.pulses + s2.pulses), eps)
    assert np.max(np.abs(joined - compile_sequence(s2, eps) @ compile_sequence(s1, eps))) <= 1e-14


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(seq=_SEQ, eps=_EPS)
def test_compile_matches_quaternion_reference(seq, eps):
    w, v = su2_parts(compile_sequence(seq, eps))
    rw, rv = check.compose([(p.angle, p.phase) for p in seq], [eps])
    assert abs(w - rw[0]) <= 1e-14
    assert np.max(np.abs(v - rv[:, 0])) <= 1e-14


_LONG_SEQ = st.lists(_PULSE, min_size=1, max_size=13).map(lambda ps: PulseSequence(tuple(ps)))
_OPEN_EPS = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)
# central differences at step FD_STEP stay inside |eps| < 1 from here
_FD_EPS = st.floats(-0.999, 0.999)
FD_STEP = 1e-5


def float_bits(entries):
    """reprs of the real and imaginary parts, signed zeros told apart."""
    return [repr(x) for z in entries for x in (z.real, z.imag)]


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(seq=_LONG_SEQ, eps=_OPEN_EPS)
def test_jet_value_is_compile_sequence_bit_for_bit(seq, eps):
    u = _jet(seq, eps)[:4]
    assert float_bits(u) == float_bits(compile_sequence(seq, eps).ravel().tolist())


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(seq=_LONG_SEQ, eps=_FD_EPS)
def test_jet_derivative_matches_central_differences(seq, eps):
    # the central difference's truncation is h^2/6 |U'''|, and the Frobenius
    # norm of U''' is at most sqrt(2) L^3 with L = sum(angle)/2 (each pulse's
    # generator has norm angle/2); h^2 L^3 / 2 bounds it with margin, and
    # 2e-10 per pulse covers the rounding of two compiles divided by 2h
    h = FD_STEP
    fd = (compile_sequence(seq, eps + h) - compile_sequence(seq, eps - h)) / (2 * h)
    err = math.hypot(*(abs(a - b) for a, b in zip(fd.ravel().tolist(), _jet(seq, eps)[4:])))
    half_angle = 0.5 * sum(p.angle for p in seq)
    assert err <= h * h * half_angle ** 3 / 2 + 2e-10 * len(seq)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(seq=_LONG_SEQ,
                  eps=st.floats(1.0, math.inf) | st.floats(-math.inf, -1.0) | st.just(math.nan))
def test_jet_rejects_what_compile_sequence_rejects(seq, eps):
    with pytest.raises(ValueError) as compiled:
        compile_sequence(seq, eps)
    with pytest.raises(ValueError) as jet:
        _jet(seq, eps)
    assert str(jet.value) == str(compiled.value) == "fractional error must satisfy |epsilon| < 1"


def test_jet_rejects_an_overflowing_angle_like_compile_sequence():
    seq = PulseSequence((Pulse(1e308, 0.3),))
    for run in (lambda: compile_sequence(seq, 0.9), lambda: _jet(seq, 0.9)):
        with pytest.raises(ValueError, match="rotation angles must be finite"):
            run()


# quarter turns make exact zeros in the rotation entries, and +-0.0 keeps
# them: there the kernel's c and d and (-conj(b), conj(a)) differ in the
# sign of a zero
_ZERO_PHASE = (st.sampled_from([0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
               | st.floats(-10.0, 10.0))
_ZERO_ANGLE = st.sampled_from([0.0, math.pi, 2 * math.pi]) | st.floats(0.0, 4 * math.pi)
_ZERO_SEQ = (st.lists(st.builds(Pulse, _ZERO_ANGLE, _ZERO_PHASE), min_size=1, max_size=15)
             .map(lambda ps: PulseSequence(tuple(ps))))
_ZERO_THETA = st.sampled_from([math.pi, math.pi / 2]) | st.floats(1e-3, 4 * math.pi - 1e-3)
_ZERO_TARGET = st.builds(TargetRotation, _ZERO_THETA, _ZERO_PHASE)


@hypothesis.settings(max_examples=500, deadline=None)
@hypothesis.given(seq=_ZERO_SEQ, target=_ZERO_TARGET,
                  eps=st.sampled_from([0.0, -0.0]) | _OPEN_EPS)
def test_overlap_at_is_jet_overlap_bit_for_bit(seq, target, eps):
    assert (float_bits(_overlap_at(seq, target)(eps))
            == float_bits(_entry_overlap(*_jet(seq, eps)[:4], _target_conj(target))))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(seq=_LONG_SEQ, target=_TARGET,
                  eps=st.floats(1.0, math.inf) | st.floats(-math.inf, -1.0) | st.just(math.nan))
def test_overlap_at_rejects_what_jet_rejects(seq, target, eps):
    with pytest.raises(ValueError) as jet:
        _jet(seq, eps)
    with pytest.raises(ValueError) as pair:
        _overlap_at(seq, target)(eps)
    assert str(pair.value) == str(jet.value) == "fractional error must satisfy |epsilon| < 1"


def test_overlap_at_rejects_an_overflowing_angle_like_jet():
    seq = PulseSequence((Pulse(1.0, 0.0), Pulse(1e308, 0.3), Pulse(2.0, 1.0)))
    at = _overlap_at(seq, TargetRotation(1.0, 0.0))
    for run in (lambda: _jet(seq, 0.9), lambda: at(0.9)):
        with pytest.raises(ValueError, match="^rotation angles must be finite$"):
            run()


@hypothesis.settings(max_examples=500, deadline=None)
@hypothesis.given(target=_TARGET, eps=_OPEN_EPS)
def test_bare_pulse_fidelity_is_closed_form(target, eps):
    # R(theta (1 + e), alpha) against R(theta, alpha) leaves g = R(theta e, alpha)
    bare = _overlap_at(PulseSequence((Pulse(target.theta, target.alpha),)), target)
    assert abs(bare(eps)[0] - abs(math.cos(0.5 * target.theta * eps))) <= 2e-15


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(target=_TARGET)
def test_w2_ties_the_bare_pulse_at_half(target):
    # at e = 1/2 W2's corrector is (3 pi, 6 pi, 3 pi), which composes to the
    # identity: crossover's gap vanishes there identically
    full = _overlap_at(embed_target(design_wm(2, target).sequence, target), target)
    assert abs(full(0.5)[0] - abs(math.cos(0.25 * target.theta))) <= 2e-15


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(seq=_LONG_SEQ, target=_TARGET,
                  grid=st.lists(_OPEN_EPS, min_size=1, max_size=20, unique=True).map(sorted))
def test_streamed_sweep_rows_are_sweep_bit_for_bit(seq, target, grid):
    table = sweep(seq, target, grid, embed=False)
    columns = zip(table.epsilons.tolist(), table.fidelities.tolist(),
                  table.infidelities.tolist())
    assert ([float_bits(row) for row in _sweep_rows(_overlap_at(seq, target), iter(grid))]
            == [float_bits(row) for row in columns])


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(qv=_QUAT, qu=_QUAT)
def test_scalar_overlap_matches_matrix_formula(qv, qu):
    v, u = su2_matrix(qv), su2_matrix(qu)
    g = v @ dagger(u)
    _, vec = su2_parts(g)
    s = min(float(vec @ vec), 1.0)
    # s / (1 + sqrt(1 - s)) amplifies a rounding of s by 1 / (2 sqrt(1 - s)),
    # which is large only near fidelity 0; the tolerance carries that factor
    tol = 1e-15 * max(1.0, 1.0 / math.sqrt(max(1.0 - s, 1e-300)))
    assert abs(infidelity(v, u) - s / (1.0 + math.sqrt(1.0 - s))) <= tol
    assert abs(fidelity(v, u) - 0.5 * abs(g[0, 0] + g[1, 1])) <= 1e-15


# Over 30,000 random 1-6 pulse correctors, targets, errors, shifts and splits
# (same ranges as the strategies) the largest infidelity difference was
# 3.6e-15 for a phase shift and 2.3e-15 for a split; both are rounding of
# the reduced phases and of the running product.
INVARIANCE_TOL = 1e-14


def embedded_infidelity(seq, target, eps, split=1.0):
    return infidelity(compile_sequence(embed_target(seq, target, split), eps), target.unitary())


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(seq=_SEQ, target=_TARGET, eps=_EPS, delta=st.floats(-10.0, 10.0))
def test_phase_covariance(seq, target, eps, delta):
    # shifting every phase and the target azimuth by delta is a conjugation
    # by a z rotation, which leaves the overlap unchanged
    shifted = PulseSequence(tuple(Pulse(p.angle, p.phase + delta) for p in seq))
    moved = TargetRotation(target.theta, target.alpha + delta)
    assert abs(embedded_infidelity(shifted, moved, eps)
               - embedded_infidelity(seq, target, eps)) <= INVARIANCE_TOL


def simulate_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return json.loads(out.getvalue())


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(seq=_SEQ, target=_TARGET, eps=_EPS, split=st.floats(0.0, 1.0))
def test_split_invariance_through_cli(tmp_path_factory, seq, target, eps, split):
    # the target pulses on either side of the corrector share its axis, so
    # the fidelity does not depend on where the corrector sits
    path = tmp_path_factory.getbasetemp() / "split_seq.txt"
    path.write_text(format_sequence(seq))
    argv = ["simulate", "--seq", str(path), "--theta", repr(target.theta),
            "--alpha", repr(target.alpha), "--eps", repr(eps), "--format", "json"]
    moved = simulate_json(argv + ["--split", repr(split)])
    assert moved == simulate_json(argv + ["--split", repr(split)])
    assert abs(moved["infidelity"] - simulate_json(argv)["infidelity"]) <= INVARIANCE_TOL
    assert moved["infidelity"] == embedded_infidelity(seq, target, eps, split)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(seq=_SEQ)
def test_text_round_trip(seq):
    assert parse_sequence(format_sequence(seq)) == seq


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(seq=_SEQ, target=st.none() | _TARGET)
def test_json_round_trip(seq, target):
    text = json.dumps(sequence_to_json(seq, target))
    assert sequence_from_json(json.loads(text)) == (seq, target)
