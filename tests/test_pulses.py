import json

import numpy as np
import pytest

from cpulse.analysis import fidelity
from cpulse.pulses import (Pulse, PulseSequence, TargetRotation,
                           compile_sequence, embed_target, format_sequence,
                           parse_sequence, repeated, sequence_from_json,
                           sequence_to_json)
from cpulse.su2 import EZ, IDENTITY, exp_pauli, rotation

PI = np.pi


def phase_shifted(seq, delta):
    return PulseSequence(tuple(Pulse(p.angle, p.phase + delta) for p in seq))


def bb1_corrector(theta=PI, alpha=0.0):
    phi1 = alpha + np.arccos(-theta / (4 * PI))
    phi2 = 3 * phi1 - 2 * alpha
    return PulseSequence.from_pairs([(PI, phi1), (2 * PI, phi2), (PI, phi1)])


class TestTypes:
    def test_pulse_phase_reduced(self):
        assert Pulse(1.0, 7.0).phase == pytest.approx(7.0 - 2 * PI)
        assert Pulse(1.0, -0.5).phase == pytest.approx(2 * PI - 0.5)

    def test_pulse_rejects_negative_angle(self):
        with pytest.raises(ValueError):
            Pulse(-0.1, 0.0)

    def test_pulse_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Pulse(np.nan, 0.0)

    def test_sequence_nonempty(self):
        with pytest.raises(ValueError):
            PulseSequence(())

    def test_target_bounds(self):
        with pytest.raises(ValueError):
            TargetRotation(0.0, 0.0)
        with pytest.raises(ValueError):
            TargetRotation(5 * PI, 0.0)
        t = TargetRotation(PI, -1.0)
        assert t.alpha == pytest.approx(2 * PI - 1.0)


class TestCompile:
    def test_single_pulse_scales_angle(self):
        seq = PulseSequence.from_pairs([(PI, 0.0)])
        assert np.allclose(compile_sequence(seq, 0.1), rotation(1.1 * PI, 0.0),
                           atol=1e-12)

    def test_bb1_corrector_is_identity_at_zero_error(self):
        w = compile_sequence(bb1_corrector(), 0.0)
        assert fidelity(w, IDENTITY) == pytest.approx(1.0, abs=1e-12)

    def test_full_bb1_realizes_target_at_zero_error(self):
        target = TargetRotation(PI, 0.0)
        full = embed_target(bb1_corrector(), target, 1.0)
        assert fidelity(compile_sequence(full, 0.0), target.unitary()) == \
            pytest.approx(1.0, abs=1e-12)

    def test_concatenation_order(self):
        rng = np.random.default_rng(3)
        pairs = [(rng.uniform(0, 2 * PI), rng.uniform(0, 2 * PI)) for _ in range(4)]
        s1 = PulseSequence.from_pairs(pairs[:2])
        s2 = PulseSequence.from_pairs(pairs[2:])
        joined = PulseSequence(s1.pulses + s2.pulses)
        eps = 0.07
        lhs = compile_sequence(joined, eps)
        rhs = compile_sequence(s2, eps) @ compile_sequence(s1, eps)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_epsilon_domain(self):
        seq = PulseSequence.from_pairs([(PI, 0.0)])
        with pytest.raises(ValueError):
            compile_sequence(seq, 1.0)


class TestEmbed:
    def test_boundary_splits(self):
        target = TargetRotation(PI, 0.0)
        w = bb1_corrector()
        first = embed_target(w, target, 1.0)
        assert first.pulses[0].angle == pytest.approx(PI)
        assert len(first) == 4
        last = embed_target(w, target, 0.0)
        assert last.pulses[-1].angle == pytest.approx(PI)
        assert len(last) == 4

    def test_split_out_of_range(self):
        with pytest.raises(ValueError):
            embed_target(bb1_corrector(), TargetRotation(PI, 0.0), 1.5)

    def test_fidelity_independent_of_split(self):
        target = TargetRotation(PI, 0.0)
        w = bb1_corrector()
        eps = 0.1
        vals = []
        for split in (0.0, 0.3, 0.5, 1.0):
            u = compile_sequence(embed_target(w, target, split), eps)
            vals.append(fidelity(u, target.unitary()))
        assert max(vals) - min(vals) < 1e-12


class TestPhaseShift:
    def test_zero_shift_is_identity(self):
        w = bb1_corrector()
        assert phase_shifted(w, 0.0) == w

    def test_compiled_matrix_is_z_conjugated(self):
        w = bb1_corrector()
        for delta in (0.4, 2.0):
            lhs = compile_sequence(phase_shifted(w, delta), 0.08)
            u = compile_sequence(w, 0.08)
            rhs = exp_pauli(EZ, delta / 2) @ u @ exp_pauli(EZ, -delta / 2)
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_fidelity_covariant_with_target_shift(self):
        w = bb1_corrector()
        target = TargetRotation(PI, 0.0)
        eps = 0.12
        base = fidelity(compile_sequence(embed_target(w, target, 1.0), eps),
                        target.unitary())
        for delta in (PI / 7, 1.0, 3 * PI / 2):
            shifted_target = TargetRotation(PI, delta)
            u = compile_sequence(embed_target(phase_shifted(w, delta),
                                              shifted_target, 1.0), eps)
            assert fidelity(u, shifted_target.unitary()) == \
                pytest.approx(base, abs=1e-12)


class TestRepeat:
    def test_identity_and_length(self):
        w = bb1_corrector()
        assert repeated(w, 1) == w
        assert len(repeated(w, 2)) == 6

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            repeated(bb1_corrector(), 0)


class TestSerialization:
    def test_text_roundtrip_with_comments(self):
        w = bb1_corrector()
        text = "# corrector\n\n" + format_sequence(w) + "# trailing\n"
        assert parse_sequence(text) == w

    def test_text_has_full_precision(self):
        w = bb1_corrector()
        line = format_sequence(w).splitlines()[0]
        angle = line.split()[0]
        digits = angle.replace(".", "").replace("-", "").lstrip("0")
        assert len(digits) >= 15

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_sequence("1.0\n")
        with pytest.raises(ValueError):
            parse_sequence("# only a comment\n")
        with pytest.raises(ValueError):
            parse_sequence("1.0 bad\n")

    def test_json_roundtrip(self):
        w = bb1_corrector()
        target = TargetRotation(PI, PI)
        blob = json.dumps(sequence_to_json(w, target))
        seq, tgt = sequence_from_json(json.loads(blob))
        assert seq == w
        assert tgt == target

    def test_json_without_target(self):
        seq, tgt = sequence_from_json(sequence_to_json(bb1_corrector()))
        assert tgt is None
        assert seq == bb1_corrector()
