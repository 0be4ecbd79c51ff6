"""Property tests: concatenation order, agreement with the benchmark
checker's quaternion product, the scalar overlap against the matrix formula,
phase covariance, split invariance through the CLI, and the text and JSON
round trips of a sequence."""

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

from cpulse.analysis import fidelity, infidelity  # noqa: E402
from cpulse.cli import main  # noqa: E402
from cpulse.pulses import (Pulse, PulseSequence, TargetRotation, compile_sequence,  # noqa: E402
                           embed_target, format_sequence, parse_sequence,
                           sequence_from_json, sequence_to_json)
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
