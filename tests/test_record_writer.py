"""Property test: the record writer gives the bytes of json.dumps(indent=2, sort_keys=True)."""

import json

import numpy as np
import pytest

from faradaymeter.cli import _write_json

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

_TEXT = st.text(st.characters(min_codepoint=0, max_codepoint=0x1F64F), max_size=6)
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),  # NaN, +-inf and -0.0 included
    st.floats().map(np.float64),
    _TEXT,
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
    ),
    max_leaves=24,
)


def written(value) -> str:
    chunks: list = []
    _write_json(value, chunks)
    return "".join(chunks)


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
@hypothesis.given(tree=_TREES)
@hypothesis.example(tree={"a": [], "b": {}, "c": ()})
@hypothesis.example(tree=[float("nan"), float("inf"), -float("inf"), -0.0, 2**64 + 1])
@hypothesis.example(tree={"\x00\n\t\"\\": "é \U0001F600\x1f"})
@hypothesis.example(tree={"z": {"y": [np.float64(0.1), np.float64("nan")]}, "a": True})
def test_writer_matches_json_dumps(tree):
    assert written(tree) == json.dumps(tree, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [np.int64(3), {1, 2}, {1: "a"}, {"a": [np.int64(1)]}, {"a": {None: 0}}, object()],
    ids=["int64", "set", "int-key", "nested-int64", "none-key", "object"],
)
def test_other_types_raise_type_error(value):
    with pytest.raises(TypeError):
        written(value)
