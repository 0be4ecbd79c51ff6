import collections
import contextlib
import io
import itertools
import json
import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from cpulse import cli, design
from cpulse.analysis import COEFF_WINDOW, SweepTable, fit_error_scaling, sweep
from cpulse.bch import analytic_c
from cpulse.cli import main, parse_angle
from cpulse.design import (ROUNDING_BOUND, InfeasibleDesign, _scan, design_five_pulse,
                           design_wm, design_wn)
from cpulse.pulses import (Pulse, PulseSequence, TargetRotation, _overlap_at, compile_sequence,
                           embed_target, format_sequence, parse_sequence, sequence_to_json)
from su2_oracle import peak_bytes
from test_cli_golden import CORPUS

PI = math.pi
# verify --seq on the CLI corpus's near-family files, W1 for pi about X
# changed: exit code, PASS/FAIL per line, last line's detail.  One angle or
# the last phase 1e-9 off: within 1e-8 the closed form applies and fails its
# analytic_coefficient line (C moves by 31-47% with the last pi pulse off, by
# ~10% with the last phase off), and the derivative line fails too.  One angle
# 2e-5 off, or the outer phases pi apart: it does not apply, and other checks
# fail the file.  Outer phases 1e-13 and 2 pi - 1e-13 match on the circle, so
# the closed form applies and passes, but they are 2e-13 apart: 127 u of the
# total angle, both residuals above the rounding bound.  broken.txt holds
# BB1's angles with wrong phases.  W2 with its last pulse 1e-9 or 1e-12 long
# or short: outside the closed form, its fit passes, and the rounding bound
# alone fails it.  Every file 1e-9 or less off fails its identity line: the
# bound b is 5.6e-14 for W1 and 1.0e-13 for W2, so b * b is ~1e-26.
NEAR_FAMILY = [
    ("w1_off1e-9_at0.txt", 1, "FFPPF", "fit 6.88742 vs analytic 4.69428"),
    ("w1_off1e-9_at1.txt", 1, "FFPPF", "fit 3.82323 vs analytic 4.69428"),
    ("w1_off1e-9_at2.txt", 1, "FFPPF", "fit 6.88742 vs analytic 4.69428"),
    ("w1_off-1e-9_at0.txt", 1, "FFPPF", "fit 3.23766 vs analytic 4.69428"),
    ("w1_off-1e-9_at1.txt", 1, "FFPPF", "fit 5.55888 vs analytic 4.69428"),
    ("w1_off-1e-9_at2.txt", 1, "FFPPF", "fit 3.23766 vs analytic 4.69428"),
    ("w1_off2e-5_at0.txt", 1, "FFFF", "0.23156834"),
    ("w1_off2e-5_at1.txt", 1, "FFFF", "0.59033996"),
    ("w1_off2e-5_at2.txt", 1, "FFFF", "0.23156834"),
    ("outer_off1e-9.txt", 1, "FFPPF", "fit 4.2385 vs analytic 4.69428"),
    ("outer_off-1e-9.txt", 1, "FFPPF", "fit 4.25591 vs analytic 4.69428"),
    ("outer_pi.txt", 1, "PFFP", "1.00000000"),
    ("outer_wrap.json", 1, "FFPPP", "fit 4.69272 vs analytic 4.69428"),
    ("broken.txt", 1, "PFFPF", "fit 11.6897 vs analytic 44.3229"),
    ("w2_off1e-9_at2.txt", 1, "FFPP", "0.99999862"),
    ("w2_off-1e-9_at2.txt", 1, "FFPP", "0.99999875"),
    ("w2_off1e-12_at2.txt", 1, "FFPP", "0.99999999"),
    ("w2_off-1e-12_at2.txt", 1, "FFPP", "0.99999999")]


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

    def test_infeasible_design_exits_2_with_one_line(self, capsys):
        assert main(["design", "--family", "fivepulse", "--p", "1", "--q", "1",
                     "--r", "4", "--theta", "pi"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "infeasible: no phases satisfy the W114 derivative condition for "
            "theta = 3.14159 (best residual 6.66)"]

    def test_a_key_error_inside_a_command_propagates(self, capsys, monkeypatch):
        # only ValueError maps to exit 2: a KeyError is a programming error
        def broken(*args):
            raise KeyError("phases")

        monkeypatch.setattr(cli, "design_five_pulse", broken)
        with pytest.raises(KeyError, match="phases"):
            main(["design", "--family", "fivepulse", "--p", "1", "--q", "2", "--r", "1"])
        assert capsys.readouterr().err == ""

    def test_main_without_argv_reads_the_command_line(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["cpulse", "design", "--family", "wn"])
        assert main() == 0
        assert capsys.readouterr().out.startswith("# W1 target: ")

    @pytest.mark.parametrize("family", ["wn", "wm"])
    def test_count_flags_default_to_1(self, capsys, family):
        # with no --n or --m, design --family wn or wm designs W1
        assert main(["design", "--family", family]) == 0
        assert capsys.readouterr().out.startswith("# W1 target: ")

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

    def test_default_grid_is_60_points_from_0_to_0_3(self, capsys):
        assert main(["sweep", "--family", "plain"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 60
        assert (rows[0].split(",")[0], rows[-1].split(",")[0]) == ("0", "0.29999999999999999")

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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_sweep_peak_memory_is_one_block(self, tmp_path, fmt):
        # no grid-sized list or array: a 20k-point sweep holds one block of
        # rows as floats and text (~0.2 MB in all, the parser's included)
        code, peak = peak_bytes(main, ["sweep", "--family", "plain", "--eps-count", "20000",
                                       "--format", fmt, "--out", str(tmp_path / "s.out")])
        assert code == 0
        assert peak < 0.3e6, peak

    @pytest.mark.parametrize("bound", [["--eps-max", "inf"], ["--eps-min", "-inf"],
                                       ["--eps-max", "nan"], ["--eps-min=nan"]])
    def test_non_finite_grid_exits_2_with_one_line(self, capsys, bound):
        assert main(["sweep", "--family", "plain"] + bound) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: grid needs finite"), err

    @pytest.mark.parametrize("bounds", [["--eps-min=-1e308", "--eps-max", "1e308"],
                                        ["--eps-max", "1.5"], ["--eps-max", "1"],
                                        ["--eps-min", "-1"]])
    def test_grid_outside_error_domain_exits_2_with_one_line(self, capsys, bounds):
        # a finite grid wider than -1 < eps < 1 is rejected before its step
        # is formed, whose range would overflow, and before any point is computed
        assert main(["sweep", "--family", "plain"] + bounds) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: grid needs finite -1 < eps-min"), err

    @pytest.mark.parametrize("argv,message", [
        # 0.1 and the next double apart: the grid rounds to repeated points
        (["--family", "plain", "--eps-min", "0.1", "--eps-max", "0.10000000000000002",
          "--eps-count", "10"], "error: epsilon grid must be nonempty and strictly increasing"),
        # a span of 10 ulps over 100 points: the step guard walks the grid
        (["--family", "plain", "--eps-min", "0.5", "--eps-max", "0.5000000000000011",
          "--eps-count", "100"], "error: epsilon grid must be nonempty and strictly increasing"),
        # 1.5e308 * (1 + eps) overflows only past eps = 0.198, inside the grid
        (["--seq", "overflow.txt", "--eps-min", "-0.5", "--eps-max", "0.3"],
         "error: rotation angles must be finite")],
        ids=["repeated-points", "ten-ulp-span", "angle-overflow"])
    def test_grid_failing_inside_exits_2_before_any_output(self, capsys, tmp_path, monkeypatch,
                                                           argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "overflow.txt").write_text("1.5e308 0.3\n3.14 1\n")
        assert main(["sweep"] + argv) == 2
        assert capsys.readouterr() == ("", message + "\n")
        out = tmp_path / "kept.csv"
        out.write_bytes(b"kept\n")
        assert main(["sweep", "--format", "json", "--out", str(out)] + argv) == 2
        assert out.read_bytes() == b"kept\n"
        assert capsys.readouterr() == ("", message + "\n")

    @pytest.mark.parametrize("bounds", [
        ["--eps-min", "0", "--eps-max", "5e-324", "--eps-count", "3"],
        ["--eps-min=-5e-324", "--eps-max", "5e-324", "--eps-count", "7"],
        ["--eps-min", "1e-320", "--eps-max", "1.005e-320", "--eps-count", "10000"]])
    def test_underflowing_grid_exits_2_before_any_output(self, capsys, tmp_path, bounds):
        # a step that underflows to 0 takes more points than the span holds
        # floats, so the grid repeats a point
        argv = ["sweep", "--family", "plain"] + bounds
        assert main(argv) == 2
        message = "error: epsilon grid must be nonempty and strictly increasing\n"
        assert capsys.readouterr() == ("", message)
        out = tmp_path / "kept.csv"
        out.write_bytes(b"kept\n")
        assert main(argv + ["--out", str(out)]) == 2
        assert out.read_bytes() == b"kept\n"
        assert capsys.readouterr() == ("", message)

    def test_grid_released_before_write(self, tmp_path):
        # the grid is a generator, never a list or an array: the peak of a
        # 20k-point sweep stays within half a grid-sized float array (80 kB)
        # of a two-block sweep's, after a warm-up
        def peak(n):
            code, top = peak_bytes(main, ["sweep", "--family", "plain", "--eps-count", str(n),
                                          "--out", str(tmp_path / "s.csv")])
            assert code == 0
            return top

        small = 2 * cli.SWEEP_BLOCK
        peak(small)
        assert peak(20000) - peak(small) < 4 * 20000

    @pytest.mark.parametrize("edge", [-1.0, 0.0, 1.0])
    def test_grid_step_guard_skips_only_grids_without_repeats(self, edge):
        # grids with lo (or, at 1, hi) a few ulps inside the edge and steps
        # from 10^-16.5 to 10^-14: where cmd_sweep's guard skips the walk for
        # repeated points, the walk finds none; near +-1, where a point's ulp
        # is 1.1e-16, finer grids do repeat points
        rng = np.random.default_rng(17)
        skipped = repeats = 0
        for _ in range(1000):
            n = int(rng.integers(2, 200))
            step = 10.0 ** rng.uniform(-16.5, -14.0)
            ulps = int(rng.integers(1, 1000)) * 2.0 ** -53
            if edge == 1.0:
                hi = 1.0 - ulps
                lo = hi - (n - 1) * step
            else:
                lo = -1.0 + ulps if edge == -1.0 else rng.uniform(-1e-13, 1e-13)
                hi = lo + (n - 1) * step
            if not -1.0 < lo < hi < 1.0:
                continue
            walk_finds = any(b <= a for a, b in itertools.pairwise(cli._lin_grid(lo, hi, n)))
            if (hi - lo) / (n - 1) > cli.DISTINCT_STEP:
                skipped += 1
                assert not walk_finds, (lo, hi, n)
            repeats += walk_finds
        assert skipped > 300 and (repeats > 50) == (edge != 0.0), (skipped, repeats)

    @pytest.mark.parametrize("argv,walks", [
        ([], 0), (["--eps-min", "0.5", "--eps-max", "0.5000000000001", "--eps-count", "99"], 0),
        (["--eps-min", "0", "--eps-max", "1e-14", "--eps-count", "99"], 1)])
    def test_grid_is_walked_before_output_only_below_the_step_guard(self, monkeypatch,
                                                                    tmp_path, argv, walks):
        calls = []
        monkeypatch.setattr(cli, "pairwise", lambda it: calls.append(1) or itertools.pairwise(it))
        assert main(["sweep", "--family", "plain", "--out", str(tmp_path / "s.csv")] + argv) == 0
        assert len(calls) == walks


class TestOneKernelPerJob:
    """simulate evaluates one product and sweep builds one pair evaluator."""

    def test_simulate_does_not_build_the_pair_evaluator(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_overlap_at", lambda *args: pytest.fail("_overlap_at built"))
        assert main(["simulate", "--family", "wn", "--n", "2", "--eps", "0.1"]) == 0

    def test_sweep_builds_the_pair_evaluator_once(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "_overlap_at", lambda *args: built.append(args) or
                            _overlap_at(*args))
        assert main(["sweep", "--family", "wm", "--eps-count", "5"]) == 0
        assert len(built) == 1


class TestSweepRenderer:
    """Streamed sweep output against json.dumps and a CSV line loop on the
    same rows, across block boundaries."""

    B = cli.SWEEP_BLOCK

    @staticmethod
    def table(n):
        rng = np.random.default_rng(n)
        eps = np.cumsum(rng.uniform(1e-6, 1e-3, n))
        infid = 10.0 ** rng.uniform(-40, 0, n)
        infid[0] = 0.0
        return SweepTable(eps, 1.0 - infid, infid, 'plain "W1"')

    @staticmethod
    def rows(t):
        return zip(t.epsilons.tolist(), t.fidelities.tolist(), t.infidelities.tolist())

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

    @pytest.mark.parametrize("n", [2, B - 1, B, B + 1, 2 * B, 3 * B + 5])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_match_reference(self, capsys, tmp_path, monkeypatch, n, fmt):
        t = self.table(n)
        blocks = list(cli._sweep_blocks(t.label, self.rows(t), fmt == "json"))
        assert len(blocks) == 2 + -(-n // self.B)
        assert "".join(blocks) == self.reference(t, fmt)
        # main writes the same blocks to stdout and to --out
        monkeypatch.setattr(cli, "_sweep_rows", lambda *args: self.rows(t))
        argv = ["sweep", "--family", "plain", "--format", fmt]
        assert main(argv) == 0
        printed = capsys.readouterr().out.encode()
        out = tmp_path / "s.out"
        assert main(argv + ["--out", str(out)]) == 0
        assert printed == out.read_bytes() == self.reference(t._replace(label="plain"),
                                                             fmt).encode()

    def test_renders_one_block_at_a_time(self):
        taken = []

        def rows():
            for k in itertools.count():
                taken.append(k)
                yield float(k), 1.0, 0.0

        blocks = cli._sweep_blocks("x", rows(), False)
        next(blocks), next(blocks)
        assert len(taken) == self.B

    def test_one_block_in_flight(self):
        # a 20k-row JSON sweep, each block dropped as it comes: in flight are
        # one rendered block of L characters, at most L more for its template
        # (about 0.6 L) and the format's growth slack (up to L / 4), and the
        # block's floats in one flat tuple, 96 bytes a row (per float an
        # 8-byte slot and a 24-byte float).  Row tuples with row strings, or
        # a second copy of the block, do not fit
        target = TargetRotation(PI, 0.0)
        at = _overlap_at(PulseSequence((Pulse(PI, 0.0),)), target)

        def blocks():
            return cli._sweep_blocks("plain", cli._sweep_rows(at, cli._lin_grid(0.0, 0.3, 20000)),
                                     True)

        longest = max(map(len, blocks()))
        stream = blocks()
        _, peak = peak_bytes(collections.deque, stream, 0)
        assert peak < 2 * longest + 96 * self.B, (peak, longest)


class TestSweepMatchesLibrary:
    """cpulse sweep's bytes against the rendering of the library sweep on
    np.linspace's grid, which runs the matrix route."""

    B = cli.SWEEP_BLOCK

    @pytest.fixture(scope="class")
    def sources(self, tmp_path_factory):
        """name -> (source flags, corrector or None for plain, label, target)"""
        t1, t2, t3 = TargetRotation(PI, 0.0), TargetRotation(1.3, 5.9), TargetRotation(1.9, 0.7)
        w121 = design_five_pulse(1, 2, 1, t3)[1].sequence
        d = tmp_path_factory.mktemp("seq")
        (d / "w121.json").write_text(json.dumps(sequence_to_json(w121, t3)))
        (d / "w121.txt").write_text(format_sequence(w121))
        t2_flags = ["--theta", "1.3", "--alpha", "5.9"]
        return {
            "wm": (["--family", "wm", "--m", "2"], design_wm(2, t1).sequence, "W2", t1),
            "wn": (["--family", "wn", "--n", "3"] + t2_flags,
                   design_wn(3, t2).sequence, "W1x3", t2),
            "fivepulse": (["--family", "fivepulse", "--p", "2", "--q", "2", "--r", "2",
                           "--branch", "1"] + t2_flags,
                          design_five_pulse(2, 2, 2, t2)[1].sequence, "W222", t2),
            "plain": (["--family", "plain"] + t2_flags, None, "plain", t2),
            "seq-json": (["--seq", str(d / "w121.json")], w121, "file", t3),
            "seq-text": (["--seq", str(d / "w121.txt"), "--theta", "1.9", "--alpha", "0.7"],
                         w121, "file", t3),
        }

    @pytest.mark.parametrize("split", ["0", "0.37", "1"])
    @pytest.mark.parametrize("source,n", [("wm", B - 1), ("wn", B), ("fivepulse", B + 1),
                                          ("plain", B - 1), ("seq-json", B),
                                          ("seq-text", B + 1)])
    def test_bytes_match_library_sweep(self, capsys, sources, source, n, split):
        flags, seq, label, target = sources[source]
        full = (PulseSequence((Pulse(target.theta, target.alpha),)) if seq is None
                else embed_target(seq, target, float(split)))
        lo, hi = -0.0731, 0.45
        table = sweep(full, target, np.linspace(lo, hi, n), embed=False, label=label)
        for fmt in ("csv", "json"):
            assert main(["sweep"] + flags + ["--split", split, "--format", fmt,
                                             "--eps-min", repr(lo), "--eps-max", repr(hi),
                                             "--eps-count", str(n)]) == 0
            assert capsys.readouterr().out == TestSweepRenderer.reference(table, fmt)


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


# verify --scan targets: a seeded sample, which scans flat only at gamma = pi,
# and two near 4 pi: every split reads flat within sqrt(2) ROUNDING_BOUND
# (theta + 4 pi) ~ 1.26e-13 of 4 pi, so at 3e-14 off but not at 3e-13 off
_rng = np.random.default_rng(2702)
SCAN_TARGETS = [*((float(t), float(a), 0) for t, a in zip(_rng.uniform(0.01, 4 * PI - 0.01, 12),
                                                          _rng.uniform(0, 2 * PI, 12))),
                (4 * PI - 3e-14, 0.0, 1), (4 * PI - 3e-13, 0.0, 0)]


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

    @pytest.mark.parametrize("theta, alpha", [("0.3", "0"), ("pi/2", "1.2"), ("3pi", "-pi/2")])
    def test_scan_uses_the_target_flags(self, capsys, monkeypatch, theta, alpha):
        seen = []

        def recording_scan(target):
            seen.append(target)
            return _scan(target)

        monkeypatch.setattr(cli, "_scan", recording_scan)
        assert main(["verify", "--scan", "--theta", theta, "--alpha", alpha]) == 0
        assert capsys.readouterr().out == (
            "PASS three_pulse_scan: flat residual only at pi multiples\n")
        assert seen == [TargetRotation(parse_angle(theta), parse_angle(alpha))]

    @pytest.mark.parametrize("extra", [["--seq", "missing.json"], ["--branch", "7"],
                                       ["--seq", "missing.json", "--branch", "7", "--m", "5"]])
    def test_scan_rejects_a_source_before_scanning(self, capsys, monkeypatch, extra):
        def refuse(*args, **kwargs):
            raise AssertionError("the scan must not run")

        monkeypatch.setattr(cli, "_scan", refuse)
        assert main(["verify", "--scan"] + extra) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --scan reads only --theta, --alpha and --out, not --seq/--branch\n"

    @pytest.mark.parametrize("gap, code, verdict", [(3e-13, 0, "PASS"), (3e-14, 1, "FAIL")])
    def test_scan_fails_within_sqrt2_tol_of_4pi(self, capsys, gap, code, verdict):
        # every split's least residual is at most (4 pi - theta) / sqrt(2), so every
        # split reads flat within sqrt(2) ROUNDING_BOUND (theta + 4 pi) ~ 1.26e-13 of 4 pi
        assert main(["verify", "--scan", "--theta", repr(4 * PI - gap)]) == code
        assert capsys.readouterr().out.startswith(verdict + " three_pulse_scan")

    @pytest.mark.parametrize("residual, line", [("identity_residual", 0),
                                                ("derivative_residual", 1)])
    def test_residual_at_the_tolerance_fails_design_and_verify(self, capsys, tmp_path,
                                                               monkeypatch, residual, line):
        # design and verify share design's one comparison: a residual equal
        # to its bound is out of bounds for both.  With b = ROUNDING_BOUND
        # times the total angle, theta + pi + 2 pi + pi here, the bound is
        # b * b for the identity and b for the derivative; the residual
        # patched in is that bound
        target = TargetRotation(1.3, 0.4)
        w1 = design_wm(1, target)
        bound = ROUNDING_BOUND * sum((p.angle for p in w1.sequence), target.theta)
        path = tmp_path / "w1.json"
        path.write_text(json.dumps(sequence_to_json(w1.sequence, target)))
        value = (bound * bound, bound)[line]
        monkeypatch.setattr(design, residual, lambda *args: value)
        with pytest.raises(InfeasibleDesign, match="W1: constraint residuals out of bounds"):
            design_wm(1, target)
        assert main(["verify", "--seq", str(path)]) == 1
        verdicts = capsys.readouterr().out.splitlines()
        assert [v.startswith("FAIL ") for v in verdicts] == [i == line for i in range(5)]

    @pytest.mark.parametrize("text", ["1e308 0\n8e307 0\n", "1e200 0\n3.141592653589793 0\n"],
                             ids=["total", "square"])
    def test_an_overflowing_bound_fails_both_residual_lines(self, capsys, tmp_path, text):
        # the total angle, or only the square of its rounding bound, passes
        # the largest double: both residual lines fail, with no traceback
        path = tmp_path / "huge.txt"
        path.write_text(text)
        assert main(["verify", "--seq", str(path)]) == 1
        verdicts = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert verdicts[:2] == ["FAIL identity_residual", "FAIL derivative_residual"]

    def test_scan_reads_the_design_tolerance(self, capsys, monkeypatch):
        # every row of the default grid reads flat under a bound of 1e3 per radian
        monkeypatch.setattr(design, "ROUNDING_BOUND", 1e3)
        assert main(["verify", "--scan"]) == 1
        assert capsys.readouterr().out.startswith("FAIL three_pulse_scan")

    @pytest.mark.parametrize("field, value, verdict", [
        ("order", 6.05, "PASS"), ("order", math.nextafter(6.05, 7.0), "FAIL"),
        ("order", 5.95, "PASS"), ("order", math.nextafter(5.95, 5.0), "FAIL"),
        ("r_squared", math.nextafter(0.9999, 1.0), "PASS"), ("r_squared", 0.9999, "FAIL")])
    def test_fit_verdicts_at_their_edges(self, capsys, monkeypatch, field, value, verdict):
        # the fit patched to read one value at the edge: order passes within
        # 0.05 of 6 (no double lies exactly 0.05 off), r_squared strictly above 0.9999
        report = fit_error_scaling(design_wm(2, TargetRotation(PI, 0.0)).sequence,
                                   TargetRotation(PI, 0.0))
        monkeypatch.setattr(cli, "fit_error_scaling",
                            lambda *args: report._replace(**{field: value}))
        assert main(["verify", "--family", "wm", "--m", "2"]) == (verdict == "FAIL")
        want = {"order": "PASS", "r_squared": "PASS", field: verdict}
        assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()[2:]] == [
            f"{want[name]} {name}" for name in ("order", "r_squared")]

    @pytest.mark.parametrize("gap, applies", [(1e-8, True), (math.nextafter(1e-8, 1.0), False)])
    def test_analytic_line_applies_up_to_1e_8(self, capsys, tmp_path, gap, applies):
        # outer phases 0 and gap: the wrapped gap is gap itself, and 1e-8 applies
        path = tmp_path / "w1.txt"
        path.write_text(f"{PI!r} 0\n{2 * PI!r} 1\n{PI!r} {gap!r}\n")
        main(["verify", "--seq", str(path)])
        lines = capsys.readouterr().out.splitlines()
        assert ("analytic_coefficient" in lines[-1]) == applies, lines

    @pytest.mark.parametrize("cref, verdict", [(0.0, "FAIL"), (0.5, "PASS")])
    def test_analytic_line_needs_a_positive_reference(self, capsys, monkeypatch, cref,
                                                      verdict):
        # a reference of 0 fails without dividing by it; any positive one,
        # below 1 too, passes when the fit matches it
        report = fit_error_scaling(design_wm(1, TargetRotation(PI, 0.0)).sequence,
                                   TargetRotation(PI, 0.0))
        monkeypatch.setattr(cli, "analytic_c", lambda delta: cref)
        monkeypatch.setattr(cli, "fit_error_scaling",
                            lambda *args: report._replace(coefficient=cref))
        assert main(["verify", "--family", "wm", "--m", "1"]) == (verdict == "FAIL")
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith(verdict + " analytic_coefficient: "), last

    def test_fit_at_the_tolerance_passes_its_analytic_line(self, capsys, monkeypatch):
        # the 1% gate is inclusive, as in table1: a fit exactly TABLE1_TOL off passes
        target = TargetRotation(PI, 0.0)
        seq = design_wm(1, target).sequence
        cfit = fit_error_scaling(seq, target, COEFF_WINDOW).coefficient
        cref = analytic_c(seq.pulses[1].phase - seq.pulses[0].phase)
        rel = abs(cfit - cref) / cref
        for tol, verdict in ((rel, "PASS"), (math.nextafter(rel, 0.0), "FAIL")):
            monkeypatch.setattr(cli, "TABLE1_TOL", tol)
            main(["verify", "--family", "wm", "--m", "1"])
            last = capsys.readouterr().out.splitlines()[-1]
            assert last.startswith(verdict + " analytic_coefficient: "), (tol, last)

    @pytest.mark.parametrize("name, code, verdicts, detail", NEAR_FAMILY,
                             ids=[row[0] for row in NEAR_FAMILY])
    def test_near_family_file(self, capsys, tmp_path, monkeypatch, name, code, verdicts,
                              detail):
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_text(json.loads(CORPUS.read_text())["files"][name])
        assert main(["verify", "--seq", name]) == code
        lines = capsys.readouterr().out.splitlines()
        assert "".join({"PASS ": "P", "FAIL ": "F"}[line[:5]] for line in lines) == verdicts
        assert lines[-1].split(": ", 1)[1] == detail

    def test_design_file_passes_where_its_phases_typed_to_10_digits_fail(self, capsys,
                                                                         tmp_path):
        # a design file holds 17 digits and reads back exactly; phases typed
        # to 10 digits leave a derivative residual of 5.4e-10, far above
        # the rounding bound, though below the 1e-9 once allowed
        path, typed = tmp_path / "w1.json", tmp_path / "w1.txt"
        assert main(["design", "--format", "json", "--out", str(path)]) == 0
        assert main(["verify", "--seq", str(path)]) == 0
        pulses = json.loads(path.read_text())["branches"][0]["pulses"]
        typed.write_text("".join("%r %.10g\n" % (p["angle"], p["phase"]) for p in pulses))
        assert main(["verify", "--seq", str(typed)]) == 1
        assert "\nFAIL derivative_residual: " in capsys.readouterr().out

    def test_near_family_files_fail_an_invariant_check(self, capsys, tmp_path):
        # every file more than 1e-8 off the closed form's inputs, up to where
        # numpy's allclose (rtol 1e-5) once admitted the angles, and any outer
        # phase gap, fails one of the four invariant checks and has no
        # analytic_coefficient line
        rng = np.random.default_rng(27)
        path = tmp_path / "near.json"
        for _ in range(40):
            target = TargetRotation(rng.uniform(0.1, 4 * PI - 0.1), rng.uniform(0, 2 * PI))
            w1 = [(p.angle, p.phase) for p in design_wm(1, target).sequence]
            for kind, top in (("angle", 7e-5), ("phase", PI)) * 6:
                offset = rng.choice([-1, 1]) * 10 ** rng.uniform(math.log10(1.01e-8),
                                                                 math.log10(top))
                pairs = list(w1)
                if kind == "angle":   # one angle off
                    index = rng.integers(3)
                    pairs[index] = (pairs[index][0] + offset, pairs[index][1])
                else:                 # the outer phases apart
                    pairs[2] = (pairs[2][0], pairs[2][1] + offset)
                path.write_text(json.dumps(sequence_to_json(
                    PulseSequence.from_pairs(pairs), target)))
                assert main(["verify", "--seq", str(path)]) == 1, (target, pairs)
                lines = capsys.readouterr().out.splitlines()
                assert len(lines) == 4 and any(line.startswith("FAIL ") for line in lines), lines

    def test_scan_targets_cover_both_exit_codes(self):
        assert {code for *_, code in SCAN_TARGETS} == {0, 1}

    def test_default_scan_grid_holds_pi_once_at_row_30(self):
        gammas = np.array(_scan(TargetRotation(1.0, 0.0)))[:, 0]
        assert np.flatnonzero(gammas == PI).tolist() == [30]

    @pytest.mark.parametrize("theta, alpha, code", SCAN_TARGETS)
    def test_scan_verdict_names_row_30_as_the_only_flat_row(self, capsys, monkeypatch,
                                                            theta, alpha, code):
        rows_seen = []

        def recording_scan(target):
            rows = _scan(target)
            rows_seen.append(np.array(rows))
            return rows

        monkeypatch.setattr(cli, "_scan", recording_scan)
        assert main(["verify", "--scan", "--theta", repr(theta), "--alpha", repr(alpha)]) == code
        capsys.readouterr()
        [rows] = rows_seen
        flat = rows[:, 1] < ROUNDING_BOUND * (theta + 4 * PI)
        assert code == (0 if np.flatnonzero(flat).tolist() == [30] else 1)

    @pytest.mark.parametrize("argv, line", [
        (["--family", "wm", "--m", "1"],
         "PASS analytic_coefficient: fit 4.69272 vs analytic 4.69428\n"),
        (["--family", "wn", "--n", "1", "--theta", "pi/2", "--alpha", "0.3"],
         "PASS analytic_coefficient: fit 0.923956 vs analytic 0.924187\n")], ids=["wm1", "wn1"])
    def test_designed_family_passes_its_analytic_line(self, capsys, argv, line):
        assert main(["verify"] + argv) == 0
        out = capsys.readouterr().out
        assert out.endswith(line) and out.count("\n") == 5


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

    def test_undecodable_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["sweep", "--seq", str(path), "--eps-count", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Expecting property name")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        "[" * 200000 + "]" * 200000,
        '{"branches": ' + "[" * 200000 + "]" * 200000 + "}"])
    def test_deeply_nested_json_exits_2_with_one_line(self, capsys, tmp_path, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        assert main(["simulate", "--seq", str(path)]) == 2
        assert capsys.readouterr().err == "error: sequence JSON is nested too deeply to parse\n"

    @pytest.mark.parametrize("pulses,message", [
        ('{"angle": 1.0, "phase": 0.0}, {"angle": -1.0, "phase": 0.0}',
         "pulses[1]: pulse angle must be >= 0 (fold sign into the phase)"),
        ('{"angle": 1%s, "phase": 0.0}' % ("0" * 400), "pulses[0].angle is out of range"),
    ])
    def test_rejected_pulse_exits_2_with_one_line(self, capsys, tmp_path, pulses, message):
        path = tmp_path / "bad.json"
        path.write_text('{"pulses": [%s]}' % pulses)
        assert main(["simulate", "--seq", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: " + message]


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


class TestBranchForEverySource:
    """A source that holds one sequence is a one-entry branch list."""

    @pytest.fixture(params=["plain", "text", "json"])
    def source(self, request, tmp_path):
        if request.param == "plain":
            return ["--family", "plain"]
        seq = design_wn(1, TargetRotation(PI, 0.0)).sequence
        path = tmp_path / ("w.txt" if request.param == "text" else "w.json")
        path.write_text(format_sequence(seq) if request.param == "text"
                        else json.dumps(sequence_to_json(seq)))
        return ["--seq", str(path)]

    @pytest.mark.parametrize("command", ["simulate", "sweep", "coeff"])
    @pytest.mark.parametrize("branch", ["1", "3", "-1"])
    def test_other_branch_exits_2(self, capsys, source, command, branch):
        assert main([command] + source + ["--branch", branch]) == 2
        assert capsys.readouterr() == ("", f"error: branch {branch} out of range (found 1)\n")

    @pytest.mark.parametrize("command", ["simulate", "sweep", "coeff"])
    def test_branch_0_is_the_default(self, capsys, source, command):
        assert main([command] + source) == 0
        default = capsys.readouterr()
        assert main([command] + source + ["--branch", "0"]) == 0
        assert capsys.readouterr() == default


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

    @pytest.mark.parametrize("argv,flag,full,value", [
        (["sweep", "--eps-count", "4"], "--eps-min", "--eps-min", "-1e-3"),
        (["sweep", "--eps-count", "4", "--eps-min", "-0.5"], "--eps-max", "--eps-max", "-2E-3"),
        (["sweep", "--eps-count", "4"], "--eps-mi", "--eps-min", "-1e-3"),
        (["simulate", "--format", "json"], "--eps", "--eps", "-1e-3"),
        (["simulate"], "--ep", "--eps", "-2.5e-1"),
        (["sweep", "--eps-count", "4", "--theta", "pi"], "--alpha", "--alpha", "-1e-3"),
    ])
    def test_exponent_form_matches_joined(self, capsys, tmp_path, argv, flag, full, value):
        split = tmp_path / "split.out"
        joined = tmp_path / "joined.out"
        assert main(argv + [flag, value, "--out", str(split)]) == 0
        assert main(argv + [f"{full}={value}", "--out", str(joined)]) == 0
        assert split.read_bytes() == joined.read_bytes()

    def test_negative_split_reaches_split_check(self, capsys):
        assert main(["sweep", "--family", "wm", "--split", "-1e-3"]) == 2
        assert capsys.readouterr().err.startswith("error: split must lie")

    def test_abbreviated_theta_reaches_target_check(self, capsys):
        assert main(["sweep", "--family", "plain", "--th", "-pi"]) == 2
        assert capsys.readouterr().err.startswith("error: target theta")

    def test_negative_theta_reaches_target_check(self, capsys):
        assert main(["sweep", "--family", "plain", "--theta", "-pi"]) == 2
        assert capsys.readouterr().err.startswith("error: target theta")

    def test_end_of_options_marker_is_no_flag_prefix(self):
        # '--' begins every flag name, but a number after it is not joined to it
        assert cli._join_signed_values(["sweep", "--", "-1"]) == ["sweep", "--", "-1"]

    def test_non_numeric_token_is_left_to_argparse(self, capsys):
        assert cli._join_signed_values(["sweep", "--alpha", "-x"]) == ["sweep", "--alpha", "-x"]
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--alpha", "-x"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "cpulse sweep: error: argument --alpha: expected one argument")


class TestPlainSplit:
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("split", ["5", "1.5", "-0.5", "nan"])
    def test_out_of_range_split_exits_2_with_one_line(self, capsys, command, split):
        # the bare pulse ignores the split, but checks it like every other source
        assert main([command, "--family", "plain", "--split", split]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: split must lie in [0, 1]"]

    @pytest.mark.parametrize("argv", [["simulate", "--eps", "0.1"],
                                      ["sweep", "--eps-count", "5", "--format", "json"]])
    def test_valid_split_leaves_output_unchanged(self, capsys, argv):
        assert main(argv + ["--family", "plain", "--theta", "1.2"]) == 0
        bare = capsys.readouterr().out
        assert main(argv + ["--family", "plain", "--theta", "1.2", "--split", "0.3"]) == 0
        assert capsys.readouterr().out == bare


class TestIntegerBounds:
    @pytest.mark.parametrize("argv,flag,cap", [
        (["design", "--family", "wn", "--n", "1001"], "--n", 1000),
        (["design", "--family", "wm", "--m", "1001"], "--m", 1000),
        (["design", "--family", "fivepulse", "--p", "1001"], "--p", 1000),
        (["coeff", "--family", "fivepulse", "--q", "10000000"], "--q", 1000),
        (["verify", "--family", "fivepulse", "--r", "1001"], "--r", 1000),
        (["sweep", "--family", "wn", "--n", "100000000", "--eps-count", "3"], "--n", 1000),
        (["simulate", "--family", "plain", "--m", "1001"], "--m", 1000),
        (["sweep", "--family", "plain", "--eps-count", "1000001"], "--eps-count", 10 ** 6),
    ])
    def test_over_the_cap_exits_2_with_one_line(self, capsys, argv, flag, cap):
        assert (cli.MAX_MULTIPLE, cli.MAX_EPS_COUNT) == (1000, 10 ** 6)
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {flag} must be at most {cap}"]

    # the floor holds on flags the family ignores too, and before --eps-count's cap
    @pytest.mark.parametrize("argv,flag", [
        (["design", "--family", "wn", "--m", "0"], "--m"),
        (["sweep", "--family", "plain", "--eps-count", "3", "--n", "-1"], "--n"),
        (["verify", "--scan", "--p", "0"], "--p"),
        (["simulate", "--family", "plain", "--r", "-5"], "--r"),
        (["design", "--family", "wm", "--m", "0"], "--m"),
        (["coeff", "--family", "fivepulse", "--q", "0"], "--q"),
        (["sweep", "--family", "wn", "--eps-count", "1000001", "--n", "0"], "--n"),
    ])
    def test_below_one_exits_2_with_one_line(self, capsys, argv, flag):
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {flag} must be a positive integer"]

    def test_eps_count_floor_and_cap_are_accepted(self, capsys, monkeypatch):
        # the cap patched down, as the tests patch ROUNDING_BOUND: 2 and the
        # cap itself run, 1 and the cap + 1 exit 2
        monkeypatch.setattr(cli, "MAX_EPS_COUNT", 5)
        for count, code, rows in (("2", 0, 2), ("5", 0, 5), ("1", 2, 0), ("6", 2, 0)):
            assert main(["sweep", "--family", "plain", "--eps-count", count]) == code
            assert len(capsys.readouterr().out.splitlines()[1:]) == rows, count

    def test_cap_itself_is_accepted(self, capsys):
        assert main(["design", "--family", "wn", "--n", str(cli.MAX_MULTIPLE),
                     "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert len(obj["branches"][0]["pulses"]) == 3 * cli.MAX_MULTIPLE

    @pytest.mark.parametrize("command", ["design", "simulate", "sweep", "coeff", "verify"])
    def test_help_states_the_caps(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert text.count(f"at most {cli.MAX_MULTIPLE}") == 5
        assert (f"2 to {cli.MAX_EPS_COUNT}" in text) == (command == "sweep")


class TestSimulate:
    def test_plain_matrix(self, capsys):
        assert main(["simulate", "--family", "plain", "--theta", "pi",
                     "--alpha", "0", "--eps", "0.2", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["fidelity"] == pytest.approx(math.cos(0.1 * PI), abs=1e-12)
        m = np.array([[complex(*c) for c in row] for row in obj["matrix"]])
        assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)

    # simulate prints the four-entry product: a matrix rebuilt from the pair
    # (a, b) as [[a, b], [-conj(b), conj(a)]] flips the sign of printed zeros
    GOLDEN = json.loads(Path(__file__).with_name("simulate_golden.json").read_text())

    @pytest.mark.parametrize("command", sorted(GOLDEN))
    def test_output_bytes_are_pinned(self, capsys, command):
        assert main(command.split()) == 0
        assert capsys.readouterr().out == self.GOLDEN[command]

    # (argv fragment, corrector for a target) of each designed source
    DESIGNED = [
        (["--family", "wm", "--m", "1"], lambda t: design_wm(1, t).sequence),
        (["--family", "wm", "--m", "3"], lambda t: design_wm(3, t).sequence),
        (["--family", "wn", "--n", "2"], lambda t: design_wn(2, t).sequence),
        (["--family", "fivepulse", "--p", "1", "--q", "2", "--r", "1", "--branch", "1"],
         lambda t: design_five_pulse(1, 2, 1, t)[1].sequence),
    ]

    def test_json_numbers_are_both_kernels_bit_for_bit(self, tmp_path_factory):
        # simulate's fidelity and infidelity are the pair evaluator's, and its
        # matrix compile_sequence's, bit for bit, signed zeros included
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        path = tmp_path_factory.mktemp("simulate") / "seq.txt"
        edge = 1.0 - 2.0 ** -53
        pulses = st.lists(st.builds(Pulse, st.floats(0.0, 4 * PI), st.floats(-10.0, 10.0)),
                          min_size=1, max_size=6)

        def bits(values):
            return struct.pack(f"<{len(values)}d", *values)

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(theta=st.floats(1e-3, 4 * PI - 1e-3), alpha=st.floats(-10.0, 10.0),
                          source=st.sampled_from(self.DESIGNED + ["plain"]) | pulses,
                          split=st.sampled_from([0.0, 0.3, 1.0]),
                          eps=st.sampled_from([0.0, -0.0, edge, -edge]) | st.floats(-edge, edge))
        def check(theta, alpha, source, split, eps):
            target = TargetRotation(theta, alpha)
            argv = ["simulate", f"--theta={theta!r}", f"--alpha={alpha!r}",
                    f"--split={split!r}", f"--eps={eps!r}", "--format", "json"]
            if source == "plain":
                argv += ["--family", "plain"]
                full = PulseSequence((Pulse(target.theta, target.alpha),))
            elif isinstance(source, tuple):
                argv += source[0]
                full = embed_target(source[1](target), target, split)
            else:
                path.write_text(format_sequence(PulseSequence(tuple(source))))
                argv += ["--seq", str(path)]
                full = embed_target(parse_sequence(path.read_text()), target, split)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0
            obj = json.loads(out.getvalue())
            assert (bits([obj["fidelity"], obj["infidelity"]])
                    == bits(_overlap_at(full, target)(eps)))
            assert (bits([x for row in obj["matrix"] for z in row for x in z])
                    == bits([x for z in compile_sequence(full, eps).ravel().tolist()
                             for x in (z.real, z.imag)]))

        check()


class TestTable1:
    def test_rows_within_tolerance(self, capsys):
        assert main(["table1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "label,fitted_C,fitted_order,paper_C,rel_err"
        rows = {l.split(",")[0]: l.split(",") for l in lines[1:]}
        assert set(rows) == {"W1", "W2", "W3", "W121", "W112", "W222"}
        for label, row in rows.items():
            assert abs(float(row[4])) <= 0.01

    def test_named_branches_are_the_nearest_fits(self):
        # each row's branch is the one whose fit lies nearest the paper's
        # value (the first, on a tie), so reordering the branches fails here
        target = TargetRotation(PI, PI)
        for family, ps, branch, paper_c in cli.TABLE1_ROWS:
            results = ([design_wm(ps[0], target)] if family == "wm"
                       else design_five_pulse(*ps, target))
            dist = [abs(fit_error_scaling(r.sequence, target, COEFF_WINDOW).coefficient
                        - paper_c) for r in results]
            assert branch == dist.index(min(dist)), results[branch].label

    def test_row_off_the_paper_exits_1_after_every_row(self, capsys, monkeypatch):
        rows = list(cli.TABLE1_ROWS)
        family, ps, branch, paper_c = rows[2]
        rows[2] = (family, ps, branch, 2.0 * paper_c)
        monkeypatch.setattr(cli, "TABLE1_ROWS", rows)
        assert main(["table1"]) == 1
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 7
        [line] = captured.err.splitlines()
        assert line.startswith("FAIL W3: relative error ")
        assert line.endswith(" exceeds 1%")

    def test_row_at_the_tolerance_passes(self, capsys, monkeypatch):
        # the gate is inclusive, as in verify: the largest |rel_err| passes
        assert main(["table1"]) == 0
        worst = max(abs(float(line.split(",")[4]))
                    for line in capsys.readouterr().out.splitlines()[1:])
        for tol, code in ((worst, 0), (math.nextafter(worst, 0.0), 1)):
            monkeypatch.setattr(cli, "TABLE1_TOL", tol)
            assert main(["table1"]) == code, tol
            capsys.readouterr()

    def test_one_fit_per_row(self, capsys, monkeypatch):
        calls = []
        fit = cli.fit_error_scaling
        monkeypatch.setattr(cli, "fit_error_scaling", lambda *a: calls.append(a) or fit(*a))
        assert main(["table1"]) == 0
        assert len(calls) == len(cli.TABLE1_ROWS) == 6
