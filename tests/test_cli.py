import json
import math
import tracemalloc

import numpy as np
import pytest

from cpulse import cli
from cpulse.analysis import SweepTable
from cpulse.cli import main, parse_angle
from cpulse.design import design_wn
from cpulse.pulses import (TargetRotation, format_sequence, parse_sequence,
                           sequence_to_json)

PI = math.pi


class TestAngleParsing:
    @pytest.mark.parametrize("text,value", [
        ("pi", PI),
        ("2pi", 2 * PI),
        ("pi/2", PI / 2),
        ("3pi/4", 3 * PI / 4),
        ("1.5pi", 1.5 * PI),
        ("-pi/2", -PI / 2),
        ("0.75", 0.75),
        ("-2.5", -2.5),
    ])
    def test_forms(self, text, value):
        assert parse_angle(text) == pytest.approx(value, rel=1e-15)

    def test_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_angle("pie")

    @pytest.mark.parametrize("text", ["pi/0", "pi/0.0", "-3pi/0"])
    def test_zero_divisor_exits_2_with_one_line(self, capsys, text):
        assert main(["design", "--theta", text]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "division by zero" in err
        assert err.count("\n") == 1


class TestDesign:
    def test_bb1_phase_printed(self, capsys):
        assert main(["design", "--family", "wn", "--n", "1",
                     "--theta", "pi", "--alpha", "0"]) == 0
        out = capsys.readouterr().out
        phi_line = [l for l in out.splitlines() if l.startswith("phi1")][0]
        assert float(phi_line.split()[2]) == pytest.approx(math.acos(-0.25),
                                                           abs=1e-12)
        # the pulse block parses back as a sequence
        block = "\n".join(l for l in out.splitlines() if l and not
                          (l.startswith("#") or l.startswith("phi")
                           or "residual" in l or l.startswith("mirror")))
        seq = parse_sequence(block)
        assert len(seq) == 3

    def test_fivepulse_branch_value(self, capsys):
        assert main(["design", "--family", "fivepulse", "--p", "2", "--q", "2",
                     "--r", "2", "--theta", "pi", "--alpha", "pi",
                     "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        expected = math.acos(-3.0 / 8.0)
        hits = [b for b in obj["branches"]
                if any(abs(p - expected) < 1e-9 for p in b["phases"])]
        assert hits

    def test_infeasible_theta_exits_2(self, capsys):
        assert main(["design", "--family", "wn", "--n", "1",
                     "--theta", "5pi"]) == 2

    def test_json_shape(self, capsys):
        assert main(["design", "--family", "wm", "--m", "2", "--theta", "pi",
                     "--alpha", "pi", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        branch = obj["branches"][0]
        assert set(branch) >= {"phases", "identity_residual",
                               "derivative_residual", "pulses"}


class TestSweep:
    def test_header_and_plain_value(self, capsys):
        assert main(["sweep", "--family", "plain", "--theta", "pi",
                     "--alpha", "0", "--eps-min", "0", "--eps-max", "0.2",
                     "--eps-count", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "epsilon,fidelity,infidelity"
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(0.2)
        assert float(last[1]) == pytest.approx(math.cos(0.1 * PI), abs=1e-12)

    def test_bb1_small_error_row(self, capsys):
        assert main(["sweep", "--family", "wm", "--m", "1", "--theta", "pi",
                     "--alpha", "0", "--eps-min", "0", "--eps-max", "0.1",
                     "--eps-count", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(1.0, abs=1e-12)
        last = lines[2].split(",")
        assert float(last[2]) == pytest.approx(4.694283e-6, rel=0.02)

    def test_byte_stable(self, capsys, tmp_path):
        argv = ["sweep", "--family", "wm", "--m", "2", "--theta", "pi",
                "--alpha", "pi", "--eps-count", "12"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        b1 = out1.read_bytes()
        assert b1 == out2.read_bytes()
        assert b"\r" not in b1

    def test_bad_grid_rejected(self, capsys):
        assert main(["sweep", "--family", "plain", "--eps-min", "0.5",
                     "--eps-max", "0.1"]) == 2

    def test_io_failure_exits_3(self, capsys):
        assert main(["sweep", "--family", "plain",
                     "--out", "/nonexistent/dir/x.csv"]) == 3
        capsys.readouterr()
        assert main(["sweep", "--family", "plain", "--format", "json",
                     "--out", "/nonexistent/dir/x.json"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error:")

    @pytest.mark.parametrize("argv", [["--family", "wm", "--split", "2"],
                                      ["--family", "plain", "--eps-count", "1"]])
    def test_rejected_sweep_leaves_out_file_alone(self, capsys, tmp_path, argv):
        out = tmp_path / "x.json"
        out.write_bytes(b"kept\n")
        assert main(["sweep", "--format", "json", "--out", str(out)] + argv) == 2
        assert out.read_bytes() == b"kept\n"

    def test_json_sweep_memory(self, tmp_path):
        # the output is written in blocks, so a 20k-point sweep holds only
        # the grid's arrays, their float lists and one block of text
        tracemalloc.start()
        try:
            assert main(["sweep", "--family", "plain", "--eps-count", "20000",
                         "--format", "json", "--out", str(tmp_path / "s.json")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6, peak


class TestSweepRenderer:
    """Streamed sweep output against json.dumps and a CSV line loop on the
    same table, across block boundaries."""

    B = cli.SWEEP_BLOCK

    @staticmethod
    def table(n):
        rng = np.random.default_rng(n)
        eps = np.cumsum(rng.uniform(1e-6, 1e-3, n))
        infid = 10.0 ** rng.uniform(-40, 0, n)
        infid[0] = 0.0
        return SweepTable(eps, 1.0 - infid, infid, 'plain "W1"')

    @staticmethod
    def reference(t, fmt):
        if fmt == "json":
            rows = [{"epsilon": e, "fidelity": f, "infidelity": i}
                    for e, f, i in zip(t.epsilons, t.fidelities, t.infidelities)]
            return json.dumps({"label": t.label, "rows": rows}, indent=2) + "\n"
        lines = ["epsilon,fidelity,infidelity"]
        for e, f, i in zip(t.epsilons, t.fidelities, t.infidelities):
            lines.append(",".join(("%.17g" % e, "%.17g" % f, "%.17g" % i)))
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("n", [2, B - 1, B, B + 1, 3 * B + 5])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_match_reference(self, capsys, tmp_path, monkeypatch, n, fmt):
        t = self.table(n)
        monkeypatch.setattr(cli, "plain_sweep", lambda target, grid: t)
        argv = ["sweep", "--family", "plain", "--format", fmt]
        assert main(argv) == 0
        printed = capsys.readouterr().out.encode()
        out = tmp_path / "s.out"
        assert main(argv + ["--out", str(out)]) == 0
        assert printed == out.read_bytes() == self.reference(t, fmt).encode()


class TestCoeff:
    def test_plain_json(self, capsys):
        assert main(["coeff", "--family", "plain", "--theta", "pi",
                     "--alpha", "0", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["order"] == pytest.approx(2.0, abs=0.02)
        assert obj["coefficient"] == pytest.approx(PI ** 2 / 8, rel=0.01)

    def test_bb1_order(self, capsys):
        assert main(["coeff", "--family", "wn", "--n", "1", "--theta", "pi",
                     "--alpha", "0", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["order"] == pytest.approx(6.0, abs=0.05)
        assert obj["coefficient"] == pytest.approx(4.7, rel=0.01)


class TestVerify:
    def test_reference_design_passes(self, capsys):
        assert main(["verify", "--family", "wn", "--n", "1", "--theta", "pi",
                     "--alpha", "0"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "analytic_coefficient" in out

    def test_fivepulse_order(self, capsys):
        assert main(["verify", "--family", "fivepulse", "--p", "1", "--q", "2",
                     "--r", "1", "--theta", "pi", "--alpha", "pi"]) == 0

    def test_scan_passes(self, capsys):
        assert main(["verify", "--scan"]) == 0
        assert "PASS three_pulse_scan" in capsys.readouterr().out

    def test_broken_sequence_file_fails(self, capsys, tmp_path):
        # hand-edited corrector: BB1 angles, wrong phases
        seq = parse_sequence("3.141592653589793 0.1\n"
                             "6.283185307179586 2.0\n"
                             "3.141592653589793 0.1\n")
        path = tmp_path / "broken.txt"
        path.write_text(format_sequence(seq))
        assert main(["verify", "--seq", str(path), "--theta", "pi",
                     "--alpha", "0"]) == 1
        out = capsys.readouterr().out
        assert any(l.startswith("FAIL derivative_residual")
                   for l in out.splitlines())


class TestSequenceFiles:
    @pytest.mark.parametrize("blob", [
        {"pulses": [{"angle": "abc", "phase": 0.0}]},
        {"pulses": [{"angle": None, "phase": 0.0}]},
        [{"angle": PI, "phase": 0.0}],
        {"pulses": 3},
        {"pulses": [1]},
        {"pulses": [{"angle": PI, "phase": 0.0}],
         "target": {"theta": "pi", "alpha": 0.0}},
    ])
    def test_malformed_json_exits_2(self, capsys, tmp_path, blob):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(blob))
        assert main(["sweep", "--seq", str(path), "--eps-count", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1


class TestEmbeddedTarget:
    @pytest.fixture
    def bb1_half_pi(self, tmp_path):
        # BB1 designed for a pi/2 target, saved with that target embedded
        target = TargetRotation(PI / 2, 0.0)
        path = tmp_path / "bb1.json"
        path.write_text(json.dumps(
            sequence_to_json(design_wn(1, target).sequence, target)))
        return str(path)

    @pytest.mark.parametrize("flags", [[], ["--theta", "pi/2"],
                                       ["--theta", "pi/2", "--alpha", "2pi"]])
    def test_file_target_wins(self, capsys, bb1_half_pi, flags):
        assert main(["verify", "--seq", bb1_half_pi] + flags) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_coeff_uses_file_target(self, capsys, bb1_half_pi):
        assert main(["coeff", "--seq", bb1_half_pi, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["order"] == pytest.approx(
            6.0, abs=0.05)

    def test_conflicting_flag_exits_2(self, capsys, bb1_half_pi):
        assert main(["verify", "--seq", bb1_half_pi, "--theta", "pi"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1


class TestDesignFiles:
    W121_HALF_PI = ["--family", "fivepulse", "--p", "1", "--q", "2", "--r", "1",
                    "--theta", "pi/2"]

    @pytest.fixture
    def design_file(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        assert main(["design"] + self.W121_HALF_PI
                    + ["--format", "json", "--out", str(path)]) == 0
        return str(path)

    def test_verify_picks_branch(self, capsys, design_file):
        assert main(["verify", "--seq", design_file, "--branch", "5"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "PASS order" in out

    def test_sweep_matches_designed_family(self, capsys, design_file, tmp_path):
        from_file = tmp_path / "file.csv"
        designed = tmp_path / "designed.csv"
        assert main(["sweep", "--seq", design_file, "--out", str(from_file)]) == 0
        assert main(["sweep"] + self.W121_HALF_PI + ["--out", str(designed)]) == 0
        assert from_file.read_bytes() == designed.read_bytes()

    def test_branch_out_of_range_exits_2(self, capsys, design_file):
        assert main(["verify", "--seq", design_file, "--branch", "6"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("blob", [{"branches": 3}, {"branches": [3]}])
    def test_malformed_branches_exit_2(self, capsys, tmp_path, blob):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(blob))
        assert main(["sweep", "--seq", str(path), "--eps-count", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSignedAngleArgs:
    @pytest.mark.parametrize("value", ["-pi/2", "-3pi/4"])
    def test_separate_token_matches_joined(self, capsys, tmp_path, value):
        split = tmp_path / "split.csv"
        joined = tmp_path / "joined.csv"
        base = ["sweep", "--family", "wm", "--theta", "pi", "--eps-count", "4"]
        assert main(base + ["--alpha", value, "--out", str(split)]) == 0
        assert main(base + [f"--alpha={value}", "--out", str(joined)]) == 0
        assert split.read_bytes() == joined.read_bytes()

    @pytest.mark.parametrize("flag", ["--alph", "--al", "--a"])
    def test_abbreviated_flag_matches_joined(self, capsys, tmp_path, flag):
        split = tmp_path / "split.csv"
        joined = tmp_path / "joined.csv"
        base = ["sweep", "--family", "wm", "--theta", "pi", "--eps-count", "4"]
        assert main(base + [flag, "-pi/2", "--out", str(split)]) == 0
        assert main(base + ["--alpha=-pi/2", "--out", str(joined)]) == 0
        assert split.read_bytes() == joined.read_bytes()

    def test_abbreviated_theta_reaches_target_check(self, capsys):
        assert main(["sweep", "--family", "plain", "--th", "-pi"]) == 2
        assert capsys.readouterr().err.startswith("error: target theta")

    def test_negative_theta_reaches_target_check(self, capsys):
        assert main(["sweep", "--family", "plain", "--theta", "-pi"]) == 2
        assert capsys.readouterr().err.startswith("error: target theta")


class TestSimulate:
    def test_plain_matrix(self, capsys):
        assert main(["simulate", "--family", "plain", "--theta", "pi",
                     "--alpha", "0", "--eps", "0.2", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["fidelity"] == pytest.approx(math.cos(0.1 * PI), abs=1e-12)
        m = np.array([[complex(*c) for c in row] for row in obj["matrix"]])
        assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)


class TestTable1:
    def test_rows_within_tolerance(self, capsys):
        assert main(["table1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "label,fitted_C,fitted_order,paper_C,rel_err"
        rows = {l.split(",")[0]: l.split(",") for l in lines[1:]}
        assert set(rows) == {"W1", "W2", "W3", "W121", "W112", "W222"}
        for label, row in rows.items():
            assert abs(float(row[4])) <= 0.01
