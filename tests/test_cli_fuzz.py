"""Fuzzed --seq files: the CLI maps every JSON value to a documented exit code."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from cpulse.cli import main

# keys from the sequence schema, mixed with arbitrary ones, so that nearly
# valid files are generated as well as junk
_KEYS = st.sampled_from(["pulses", "angle", "phase", "target", "theta",
                         "alpha"]) | st.text(max_size=3)
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
