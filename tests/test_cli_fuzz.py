"""Fuzzed CLI input: every --seq file and every argv maps to a documented
exit code (argparse's own SystemExit included), with no traceback and no
warning."""

import contextlib
import io
import json
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from cpulse.cli import MAX_EPS_COUNT, MAX_MULTIPLE, main  # noqa: E402

# keys from the sequence schema, mixed with arbitrary ones, so that nearly
# valid files are generated as well as junk
_KEYS = st.sampled_from(["pulses", "angle", "phase", "target", "theta",
                         "alpha", "branches"]) | st.text(max_size=3)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(_KEYS, children, max_size=4)),
    max_leaves=12)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(blob=_JSON)
def test_any_json_sequence_file_exits_cleanly(tmp_path_factory, blob):
    path = tmp_path_factory.getbasetemp() / "fuzz_seq.json"
    path.write_text(json.dumps(blob))
    assert main(["sweep", "--seq", str(path), "--eps-count", "3"]) in (0, 1, 2, 3)


# Angle strings: pi forms with signs, coefficients and divisors (pi/0
# included), exponent forms, and junk.
_PI = st.builds("".join, st.tuples(
    st.sampled_from(["", "+", "-"]), st.sampled_from(["", "2", "0.5", ".5", "3.", "0"]),
    st.sampled_from(["pi", "PI", "Pi"]), st.sampled_from(["", "/2", "/0", "/0.0", "/4.5"])))
_NUMBER = (st.sampled_from(["0", "-0", "-1", "0.5", "-0.3", "1.5", "1e-3", "-1e-3", "2.5E+1",
                            "nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e-320"])
           | st.floats().map(repr))
_JUNK = st.sampled_from(["", " ", "pi/", "--pi", "abc", "1/2", "pi pi", "0x10", "-"])
_REAL = _PI | _NUMBER | _JUNK
# Integer flags: small values, which run, and values past the CLI's caps,
# which exit 2 before any work.  Values just under a cap are valid but slow
# (`--eps-count 1000000` sweeps for seconds), so they are not drawn.
_INT = (st.integers(-2, 8) | st.integers(MAX_MULTIPLE + 1, 10 ** 12)).map(str)
_EPS_COUNT = (st.integers(-1, 64) | st.integers(MAX_EPS_COUNT + 1, 10 ** 12)).map(str)

_REAL_FLAGS = ["--theta", "--alpha", "--eps", "--split", "--eps-min", "--eps-max",
               "--alph", "--the", "--eps-mi", "--eps-ma", "--spl"]
_INT_FLAGS = ["--n", "--m", "--p", "--q", "--r", "--branch"]
_CHOICES = {"--family": ["wm", "wn", "fivepulse", "plain", "bogus"], "--fam": ["plain", "wn"],
            "--format": ["text", "json", "csv", "xml"], "--form": ["json"],
            "--window": ["order", "coeff", "none"]}


def _option(seq_dir):
    return st.one_of(
        st.tuples(st.sampled_from(_REAL_FLAGS), _REAL),
        st.tuples(st.sampled_from(_INT_FLAGS), _INT | _JUNK),
        st.tuples(st.just("--eps-count"), _EPS_COUNT | _JUNK),
        st.sampled_from(sorted(_CHOICES)).flatmap(
            lambda f: st.tuples(st.just(f), st.sampled_from(_CHOICES[f]))),
        st.tuples(st.just("--seq"),
                  st.sampled_from(["bb1.txt", "w121.json", "junk.json", "missing.txt"])
                  .map(lambda name: str(seq_dir / name))),
        st.tuples(st.just("--out"), st.sampled_from(["out.txt", "no/dir/out.txt"])
                  .map(lambda name: str(seq_dir / name))),
        st.sampled_from([("--scan",), ("--bogus",), ("--",), ("stray",), ("-x", "1")]))


@pytest.fixture(scope="module")
def seq_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("argv")
    (d / "bb1.txt").write_text("3.141592653589793 1.318116071652818\n"
                               "6.283185307179586 3.954348214958454\n"
                               "3.141592653589793 1.318116071652818\n")
    code, text = run(["design", "--family", "fivepulse", "--format", "json"])
    assert code == 0
    (d / "w121.json").write_text(text)
    (d / "junk.json").write_text("{not json")
    return d


def run(argv):
    """(exit code, stdout) of one in-process invocation; a warning raises."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse: --help, usage errors
            code = exc.code
    assert "Traceback" not in err.getvalue(), err.getvalue()
    return code, out.getvalue()


# Text-form lines: fields of numbers, pi forms and junk, '#' comments after
# a pulse or alone, and arbitrary text, so that valid pulses mix with bad lines
_TEXT_LINE = st.one_of(
    st.lists(_REAL, max_size=3).map(" ".join),
    st.builds("{} {} # {}".format, _NUMBER, _NUMBER, st.text(max_size=4)),
    st.text(max_size=4).map("#{}".format),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(lines=st.lists(_TEXT_LINE, max_size=6))
def test_any_text_sequence_file_exits_cleanly(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "fuzz_seq.txt"
    path.write_text("\n".join(lines), encoding="utf-8")
    code, _ = run(["sweep", "--seq", str(path), "--eps-count", "3"])
    hypothesis.event(f"exit {code}")
    assert code in (0, 2), (lines, code)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(data=st.data())
def test_any_argv_exits_cleanly(seq_dir, data):
    command = data.draw(st.sampled_from(
        ["design", "simulate", "sweep", "coeff", "verify", "table1", "bogus"]), "command")
    options = data.draw(st.lists(_option(seq_dir), max_size=5), "options")
    argv = [command] + [token for option in options for token in option]
    if command == "table1":   # 0.15 s a run; its argv space is --out alone
        argv = argv[:3]
    code, _ = run(argv)
    hypothesis.event(f"{command} exit {code}")
    assert code in (0, 1, 2, 3), (argv, code)
