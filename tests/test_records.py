"""The value records' contract: construction and defaults, validation
messages, immutability, equality and hashing, repr text, and pickle and
copy round trips, for Pulse, PulseSequence, TargetRotation, SweepTable,
FitReport and DesignResult."""

import copy
import math
import pickle
import re

import numpy as np
import pytest

from cpulse.analysis import FitReport, SweepTable
from cpulse.cli import main
from cpulse.design import DesignResult, design_wn
from cpulse.pulses import Pulse, PulseSequence, TargetRotation, compile_sequence, reduce_angle
from su2_oracle import peak_bytes

PI = math.pi
BB1 = PulseSequence.from_pairs([(PI, 1.8234765819369754), (2 * PI, 5.4704297458109262),
                                (PI, 1.8234765819369754)])


def fit_report():
    return FitReport(6.0, 4.69, 0.999, (1e-3, 0.05), 40)


def design_result(mirror=None):
    return DesignResult("W1", BB1, (1.8234765819369754, 5.4704297458109262), 1e-17, 2e-16,
                        mirror)


def round_trips(obj):
    return [pickle.loads(pickle.dumps(obj, protocol)) for protocol in
            range(pickle.HIGHEST_PROTOCOL + 1)] + [copy.copy(obj), copy.deepcopy(obj)]


class TestConstruction:
    def test_pulse_positional_and_keyword(self):
        assert Pulse(1.5, 0.25) == Pulse(angle=1.5, phase=0.25) == Pulse(1.5, phase=0.25)
        p = Pulse(1.5, 0.25)
        assert (p.angle, p.phase) == (1.5, 0.25)

    def test_pulse_phase_reduced_angle_kept(self):
        p = Pulse(2, -0.5)
        assert p.phase == reduce_angle(-0.5) and 0.0 <= p.phase < 2 * PI
        assert p.angle == 2 and type(p.angle) is int
        assert Pulse(1.0, -1e-300).phase == 0.0

    def test_target_positional_and_keyword(self):
        t = TargetRotation(theta=2.0, alpha=7.0)
        assert t == TargetRotation(2.0, 7.0)
        assert (t.theta, t.alpha) == (2.0, reduce_angle(7.0))

    def test_sequence_positional_keyword_and_iterables(self):
        pulses = (Pulse(PI, 0.0), Pulse(PI / 2, 1.0))
        seq = PulseSequence(pulses)
        assert seq == PulseSequence(pulses=pulses) == PulseSequence(list(pulses))
        assert seq == PulseSequence(iter(pulses))
        assert type(PulseSequence(list(pulses)).pulses) is tuple
        assert seq.pulses == pulses
        assert len(seq) == 2 and list(seq) == list(pulses)
        assert PulseSequence.from_pairs([(PI, 0.0), (PI / 2, 1.0)]) == seq

    def test_sweep_table_default_label(self):
        t = SweepTable([0.0, 0.1], [1.0, 0.9], [0.0, 0.1])
        assert t.label == "sequence"
        assert SweepTable(epsilons=[0.0], fidelities=[1.0], infidelities=[0.0],
                          label="bb1").label == "bb1"
        # the fields hold what was passed, not a converted copy
        assert t.epsilons == [0.0, 0.1]

    def test_fit_report_fields(self):
        r = FitReport(order=6.0, coefficient=4.69, r_squared=0.999, window=(1e-3, 0.05),
                      n_points=40)
        assert r == fit_report()
        assert (r.order, r.coefficient, r.r_squared, r.window, r.n_points) == (
            6.0, 4.69, 0.999, (1e-3, 0.05), 40)

    def test_design_result_default_mirror(self):
        res = design_result()
        assert res.mirror_phases is None
        assert res == DesignResult(label="W1", sequence=BB1, phases=res.phases,
                                   identity_residual=1e-17, derivative_residual=2e-16)
        assert design_result((0.1, 0.2)).mirror_phases == (0.1, 0.2)


class TestValidation:
    @pytest.mark.parametrize("angle,phase", [
        (math.nan, 0.0), (1.0, math.inf), (-math.inf, 0.0),
        pytest.param(10 ** 400, 0.0, id="huge-int-angle"),
        pytest.param(1.0, 10 ** 400, id="huge-int-phase"),
        pytest.param(1.0, -10 ** 400, id="huge-negative-int-phase")])
    def test_pulse_non_finite(self, angle, phase):
        with pytest.raises(ValueError, match=r"^pulse angle and phase must be finite$"):
            Pulse(angle, phase)

    def test_pulse_negative_angle(self):
        with pytest.raises(ValueError,
                           match=r"^pulse angle must be >= 0 \(fold sign into the phase\)$"):
            Pulse(-0.1, 0.0)

    def test_pulse_non_number(self):
        with pytest.raises(TypeError):
            Pulse("pi", 0.0)

    @pytest.mark.parametrize("theta,alpha", [
        (math.nan, 0.0), (1.0, math.inf),
        pytest.param(10 ** 400, 0.0, id="huge-int-theta"),
        pytest.param(1.0, -10 ** 400, id="huge-negative-int-alpha")])
    def test_target_non_finite(self, theta, alpha):
        with pytest.raises(ValueError, match=r"^target angles must be finite$"):
            TargetRotation(theta, alpha)

    @pytest.mark.parametrize("theta", [0.0, -1.0, 4 * PI, 20.0])
    def test_target_theta_range(self, theta):
        with pytest.raises(ValueError, match=r"^target theta must lie in \(0, 4\*pi\)$"):
            TargetRotation(theta, 0.0)

    @pytest.mark.parametrize("pulses", [(), []])
    def test_sequence_empty(self, pulses):
        with pytest.raises(ValueError, match=r"^pulse sequence must be nonempty$"):
            PulseSequence(pulses)

    @pytest.mark.parametrize("entry", [(1.0, 0.0), [1.0, 0.0], 1.0, TargetRotation(1.0, 0.0)])
    def test_sequence_non_pulse_entry(self, entry):
        with pytest.raises(TypeError, match=r"^sequence entries must be Pulse instances$"):
            PulseSequence((Pulse(1.0, 0.0), entry))

    @pytest.mark.parametrize("eps", [[], [0.1, 0.0], [0.0, 0.0], np.array([0.0, 0.2, 0.1]),
                                     [0.1, math.nan, 0.3], [math.nan, 0.1], [math.nan]])
    def test_sweep_table_grid(self, eps):
        n = len(eps)
        with pytest.raises(ValueError,
                           match=r"^epsilon grid must be nonempty and strictly increasing$"):
            SweepTable(eps, [1.0] * n, [0.0] * n)

    @pytest.mark.parametrize("fid", [[1.0, 1.1], [-0.1, 1.0], [1.0, math.nan]])
    def test_sweep_table_fidelities(self, fid):
        with pytest.raises(ValueError, match=r"^fidelities must lie in \[0, 1\]$"):
            SweepTable([0.0, 0.1], fid, [0.0, 0.0])

    @pytest.mark.parametrize("infid", [[0.0, 1.1], [-0.1, 0.0], [math.nan, 0.0],
                                       np.array([0.0, math.inf])])
    def test_sweep_table_infidelities(self, infid):
        with pytest.raises(ValueError, match=r"^infidelities must lie in \[0, 1\]$"):
            SweepTable([0.0, 0.1], [1.0, 1.0], infid)

    @pytest.mark.parametrize("column", [0, 1, 2], ids=["epsilons", "fidelities", "infidelities"])
    @pytest.mark.parametrize("huge", [10 ** 400, -10 ** 400], ids=["huge-int", "huge-negative-int"])
    def test_sweep_table_int_too_large_for_a_float(self, column, huge):
        # numpy's conversion overflows; the table raises ValueError instead
        columns = [[0.0, 0.1], [1.0, 0.9], [0.0, 0.1]]
        columns[column][1] = huge
        with pytest.raises(ValueError,
                           match=r"^sweep table entries must be representable as floats$"):
            SweepTable(*columns)

    @pytest.mark.parametrize("column", [0, 1, 2], ids=["epsilons", "fidelities", "infidelities"])
    @pytest.mark.parametrize("entries", [
        lambda col: [str(x) for x in col],
        lambda col: np.array([str(x) for x in col]),
        lambda col: [col[0], str(col[1])],
        lambda col: np.array([col[0], str(col[1])], dtype=object)],
        ids=["str-list", "str-array", "mixed-list", "mixed-object-array"])
    def test_sweep_table_str_entries_raise_the_kernels_type_error(self, column, entries):
        # dtype=float would parse them; the kernel's own check refuses a str
        with pytest.raises(TypeError) as kernel:
            compile_sequence(BB1, "0.1")
        columns = [[0.001, 0.002], [1.0, 0.9], [0.0, 0.1]]
        columns[column] = entries(columns[column])
        with pytest.raises(TypeError, match=f"^{re.escape(str(kernel.value))}$"):
            SweepTable(*columns)

    def test_sweep_table_float_columns_build_no_python_floats(self):
        # the library sweep hands float arrays over: the checks stay in numpy,
        # with no per-entry pass (a list of 10^5 Python floats takes 3.2 MB)
        eps = np.linspace(1e-3, 0.5, 100000)
        fid = np.full(eps.size, 0.5)
        _, peak = peak_bytes(SweepTable, eps, fid, fid)
        assert peak < 2 * eps.nbytes, peak

    def test_sweep_table_infidelity_slack_matches_fidelity(self):
        t = SweepTable([0.0, 0.1], [1.0 + 1e-13, -1e-13], [-1e-13, 1.0 + 1e-13])
        assert t.infidelities == [-1e-13, 1.0 + 1e-13]

    @pytest.mark.parametrize("fid,infid", [([1.0], [0.0, 0.0, 0.0]), ([1.0, 1.0], [0.0]),
                                           ([1.0, 1.0, 1.0], [0.0, 0.0]), (1.0, [0.0, 0.0])])
    def test_sweep_table_columns_of_unequal_length(self, fid, infid):
        with pytest.raises(ValueError, match=r"^sweep table columns must have equal length$"):
            SweepTable([0.0, 0.1], fid, infid)


RECORDS = {
    "pulse": lambda: Pulse(1.5, 0.25),
    "target": lambda: TargetRotation(2.0, 0.5),
    "sequence": lambda: BB1,
    "sweep": lambda: SweepTable(np.array([0.0, 0.1]), np.array([1.0, 0.9]),
                                np.array([0.0, 0.1]), "bb1"),
    "fit": fit_report,
    "design": lambda: design_result((0.1, 0.2)),
}
FIELDS = {
    "pulse": ("angle", "phase"),
    "target": ("theta", "alpha"),
    "sequence": ("pulses",),
    "sweep": ("epsilons", "fidelities", "infidelities", "label"),
    "fit": ("order", "coefficient", "r_squared", "window", "n_points"),
    "design": ("label", "sequence", "phases", "identity_residual", "derivative_residual",
               "mirror_phases"),
}


class TestMakeAndReplace:
    """namedtuple's _make, and _replace through it, build only via __new__."""

    @pytest.mark.parametrize("name,fields", [
        ("pulse", (-1.0, 0.0)), ("pulse", (math.nan, 0.0)), ("target", (0.0, 1.0)),
        ("target", (1.0, math.inf)),
        ("sweep", ([0.1, 0.0], [1.0, 1.0], [0.0, 0.0], "s")),
        ("sweep", ([0.0, 0.1], [1.0, 1.5], [0.0, 0.0], "s")),
        ("sweep", ([0.0, 0.1], [1.0, 1.0], [0.0, math.nan], "s")),
    ])
    def test_reject_what_the_constructor_rejects(self, name, fields):
        valid = RECORDS[name]()
        cls = type(valid)
        with pytest.raises(ValueError) as ctor:
            cls(*fields)
        same = "^%s$" % re.escape(str(ctor.value))
        with pytest.raises(ValueError, match=same):
            cls._make(fields)
        with pytest.raises(ValueError, match=same):
            valid._replace(**dict(zip(cls._fields, fields)))

    def test_phase_reduced_as_by_the_constructor(self):
        made = Pulse._make([1.0, -0.5])
        assert made == Pulse(1.0, -0.5) and hash(made) == hash(Pulse(1.0, -0.5))
        assert Pulse(1.0, 0.0)._replace(phase=-0.5) == Pulse(1.0, -0.5)
        assert TargetRotation._make([PI, 2 * PI]) == TargetRotation(PI, 0.0)

    @pytest.mark.parametrize("name", ["pulse", "target", "sweep"])
    def test_valid_fields_round_trip(self, name):
        obj = RECORDS[name]()
        made = type(obj)._make(obj)
        assert type(made) is type(obj) and made == obj
        assert obj._replace() == obj

class TestImmutability:
    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        obj = RECORDS[name]()
        for field in FIELDS[name]:
            before = getattr(obj, field)
            with pytest.raises(AttributeError):
                setattr(obj, field, 1.0)
            with pytest.raises(AttributeError):
                delattr(obj, field)
            assert getattr(obj, field) is before

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_no_new_attributes(self, name):
        with pytest.raises(AttributeError):
            RECORDS[name]().extra = 1


class TestEquality:
    @pytest.mark.parametrize("name", ["pulse", "target", "sequence", "fit", "design"])
    def test_equal_values_equal_hashes(self, name):
        a, b = RECORDS[name](), copy.deepcopy(RECORDS[name]())
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_normalised_phases_compare_equal(self):
        assert Pulse(1.0, -0.5) == Pulse(1.0, reduce_angle(-0.5))
        assert hash(Pulse(1.0, -0.5)) == hash(Pulse(1.0, reduce_angle(-0.5)))
        assert TargetRotation(PI, 2 * PI) == TargetRotation(PI, 0.0)

    def test_different_values_differ(self):
        assert Pulse(1.0, 0.0) != Pulse(1.0, 0.5)
        assert TargetRotation(1.0, 0.0) != TargetRotation(2.0, 0.0)
        assert BB1 != PulseSequence(BB1.pulses[:2])
        assert design_result() != design_result((0.1, 0.2))
        assert fit_report() != FitReport(6.0, 4.69, 0.999, (1e-3, 0.05), 41)

    def test_sequence_is_not_its_pulse_tuple(self):
        assert BB1 != BB1.pulses
        assert BB1 == PulseSequence(tuple(BB1))

    def test_sweep_tables_hold_arrays(self):
        t = RECORDS["sweep"]()
        assert t == t
        with pytest.raises(TypeError):
            hash(t)


class TestRepr:
    def test_pulse(self):
        assert repr(Pulse(1.5, 0.25)) == "Pulse(angle=1.5, phase=0.25)"
        assert repr(Pulse(2, 7.0)) == "Pulse(angle=2, phase=%r)" % reduce_angle(7.0)

    def test_target(self):
        assert repr(TargetRotation(2.0, 0.5)) == "TargetRotation(theta=2.0, alpha=0.5)"
        assert str(TargetRotation(2.0, 0.5)) == "TargetRotation(theta=2.0, alpha=0.5)"

    def test_sequence(self):
        assert repr(PulseSequence((Pulse(1.0, 0.0), Pulse(2.0, 0.5)))) == (
            "PulseSequence(pulses=(Pulse(angle=1.0, phase=0.0), Pulse(angle=2.0, phase=0.5)))")
        assert repr(PulseSequence([Pulse(1.0, 0.0)])) == (
            "PulseSequence(pulses=(Pulse(angle=1.0, phase=0.0),))")

    def test_sweep_table(self):
        assert repr(SweepTable([0.0, 0.1], [1.0, 0.9], [0.0, 0.1])) == (
            "SweepTable(epsilons=[0.0, 0.1], fidelities=[1.0, 0.9], "
            "infidelities=[0.0, 0.1], label='sequence')")

    def test_fit_report(self):
        assert repr(fit_report()) == ("FitReport(order=6.0, coefficient=4.69, r_squared=0.999, "
                                      "window=(0.001, 0.05), n_points=40)")

    def test_design_result(self):
        seq = PulseSequence((Pulse(1.0, 0.5),))
        res = DesignResult("W1", seq, (0.5,), 0.0, 1e-17)
        assert repr(res) == (
            "DesignResult(label='W1', sequence=PulseSequence(pulses=(Pulse(angle=1.0, "
            "phase=0.5),)), phases=(0.5,), identity_residual=0.0, derivative_residual=1e-17, "
            "mirror_phases=None)")

    def test_target_mismatch_message(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"pulses": [{"angle": 3.0, "phase": 0.0}], '
                        '"target": {"theta": 2.0, "alpha": 0.5}}')
        assert main(["coeff", "--seq", str(path), "--theta", "1.5"]) == 2
        assert capsys.readouterr().err == (
            "error: --theta/--alpha give TargetRotation(theta=1.5, alpha=0.5), "
            "but the sequence file holds TargetRotation(theta=2.0, alpha=0.5)\n")


class TestRoundTrips:
    @pytest.mark.parametrize("name", ["pulse", "target", "sequence", "fit", "design"])
    def test_pickle_and_copy(self, name):
        obj = RECORDS[name]()
        for back in round_trips(obj):
            assert type(back) is type(obj)
            assert back == obj and hash(back) == hash(obj)

    def test_design_result_holding_a_designed_sequence(self):
        res = design_wn(1, TargetRotation(PI, 0.0))
        for back in round_trips(res):
            assert back == res
            assert type(back.sequence) is PulseSequence
            assert list(back.sequence) == list(res.sequence)
            with pytest.raises(AttributeError):
                back.sequence.pulses = ()

    def test_sweep_table(self):
        t = RECORDS["sweep"]()
        for back in round_trips(t):
            assert type(back) is SweepTable and back.label == "bb1"
            for field in ("epsilons", "fidelities", "infidelities"):
                assert np.array_equal(getattr(back, field), getattr(t, field))
