import json
import math

import numpy as np
import pytest

from cpulse.analysis import fidelity
from cpulse.design import design_five_pulse, design_wm, design_wn, three_pulse_scan
from cpulse.pulses import (MAX_MULTIPLE, Pulse, PulseSequence, TargetRotation, _count, _jet,
                           _overlap_at, compile_sequence, embed_target, format_sequence,
                           parse_sequence, repeated, sequence_from_json,
                           sequence_to_json)
from cpulse.su2 import rotation
from su2_oracle import EZ, IDENTITY, bb1_corrector, exp_pauli

PI = np.pi


# each public count argument, as a call of that argument alone, with its name
COUNTED = [
    (lambda n: repeated(bb1_corrector(), n), "repeat count"),
    (lambda n: design_wn(n, TargetRotation(PI, 0.0)), "n"),
    (lambda m: design_wm(m, TargetRotation(PI, 0.0)), "m"),
    (lambda p: design_five_pulse(p, 1, 1, TargetRotation(PI, PI)), "p"),
    (lambda q: design_five_pulse(1, q, 1, TargetRotation(PI, PI)), "q"),
    (lambda r: design_five_pulse(2, 2, r, TargetRotation(PI, PI)), "r"),
]


def phase_shifted(seq, delta):
    return PulseSequence(tuple(Pulse(p.angle, p.phase + delta) for p in seq))


class TestTypes:
    def test_pulse_phase_reduced(self):
        assert Pulse(1.0, 7.0).phase == pytest.approx(7.0 - 2 * PI)
        assert Pulse(1.0, -0.5).phase == pytest.approx(2 * PI - 0.5)

    def test_tiny_negative_angle_reduces_below_two_pi(self):
        # -1e-300 % 2pi rounds to 2pi itself, which a second reduction maps
        # to 0, so a text or JSON round trip would change the phase
        assert Pulse(1.0, -1e-300).phase == 0.0
        assert TargetRotation(1.0, -1e-300).alpha == 0.0

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

    @pytest.mark.parametrize("eps", [10 ** 400, -10 ** 400], ids=["huge-int", "huge-negative-int"])
    @pytest.mark.parametrize("kernel", [
        compile_sequence, _jet, lambda seq, e: _overlap_at(seq, TargetRotation(PI, 0.0))(e)],
        ids=["compile_sequence", "_jet", "_overlap_at"])
    def test_epsilon_domain_holds_an_int_too_large_for_a_float(self, kernel, eps):
        with pytest.raises(ValueError, match=r"^fractional error must satisfy \|epsilon\| < 1$"):
            kernel(bb1_corrector(), eps)


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

    def test_zero_count_message(self):
        with pytest.raises(ValueError, match="^repeat count must be a positive integer$"):
            repeated(bb1_corrector(), 0)

    def test_count_helper(self):
        assert _count(3, "n") == 3
        assert type(_count(3.0, "n")) is int
        for bad in (0, -2, 1.5):
            with pytest.raises(ValueError, match="^x must be a positive integer$"):
                _count(bad, "x")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "x", "2", None])
    @pytest.mark.parametrize("call,name", COUNTED)
    def test_every_count_rejects_non_numbers_with_its_message(self, call, name, bad):
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer$"):
            call(bad)

    def test_integral_float_and_true_accepted(self):
        t, t5 = TargetRotation(PI, 0.0), TargetRotation(PI, PI)
        assert repeated(bb1_corrector(), 2.0) == repeated(bb1_corrector(), 2)
        assert repeated(bb1_corrector(), True) == bb1_corrector()
        for design in (design_wn, design_wm):
            assert design(2.0, t) == design(2, t) and design(True, t) == design(1, t)
        assert design_five_pulse(True, 2.0, True, t5) == design_five_pulse(1, 2, 1, t5)
        assert design_five_pulse(2.0, True, True, t5) == design_five_pulse(2, 1, 1, t5)

    @pytest.mark.parametrize("call,name,count", [
        pytest.param(lambda n: design_wn(n, TargetRotation(PI, 0.0)), "n", 1e300,
                     id="design_wn-1e300"),
        pytest.param(lambda n: repeated(bb1_corrector(), n), "repeat count", 10 ** 300,
                     id="repeated-10**300"),
        pytest.param(lambda m: three_pulse_scan(TargetRotation(PI, 0.0), [PI], m), "m", 1001,
                     id="three_pulse_scan-1001"),
    ] + [pytest.param(call, name, MAX_MULTIPLE + 1, id=f"{name}-1001") for call, name in COUNTED])
    def test_count_above_the_bound_is_rejected(self, call, name, count):
        with pytest.raises(ValueError, match=f"^{name} must be at most 1000$"):
            call(count)

    def test_count_at_the_bound_is_accepted(self):
        assert MAX_MULTIPLE == 1000
        assert repeated(bb1_corrector(), 1000) == PulseSequence(bb1_corrector().pulses * 1000)


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

    @pytest.mark.parametrize("line,message", [
        ("-1.0 0.0", "line 2: pulse angle must be >= 0 (fold sign into the phase)"),
        ("nan 0.0", "line 2: pulse angle and phase must be finite")])
    def test_parse_names_the_line_of_a_rejected_pulse(self, line, message):
        with pytest.raises(ValueError) as exc:
            parse_sequence("1.0 0.0\n" + line + "\n")
        assert str(exc.value) == message

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

    @pytest.mark.parametrize("number", [True, 2, np.int64(3), np.float32(1.5), np.float64(0.25)])
    def test_json_writes_floats_that_read_back(self, number):
        # records keep the caller's numeric type; the JSON mirror writes floats,
        # as the text form writes %.17g
        seq, target = PulseSequence([Pulse(number, 0.5)]), TargetRotation(number, 0.0)
        obj = sequence_to_json(seq, target)
        assert type(obj["pulses"][0]["angle"]) is float
        assert type(obj["target"]["theta"]) is float
        assert sequence_from_json(json.loads(json.dumps(obj))) == (seq, target)
