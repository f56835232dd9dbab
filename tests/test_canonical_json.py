"""canonical_json prints exactly what json.dumps prints with sorted keys, a
two-space indent and ASCII escapes."""

import json
import math
from fractions import Fraction

import pytest

from sigmatrop.cli import canonical_json

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def reference(doc):
    """The old canonical_json: json.dumps of doc without its "_" keys."""
    doc = {k: v for k, v in doc.items() if not k.startswith("_")}
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


# non-ASCII, control and quote characters, as well as plain ones
TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\b\f\n\r\t\x00\x7f é€😀')),
               max_size=8)
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0,
                                    1e308, -1e308, 5e-324, 1e16, 0.1]))
INTS = st.one_of(st.integers(), st.integers(min_value=2 ** 64, max_value=2 ** 200),
                 st.integers(max_value=-2 ** 64, min_value=-2 ** 200))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, FLOATS, TEXT)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(INTS, max_size=5),
        st.dictionaries(TEXT, inner, max_size=5)),
    max_leaves=25)
DOCS = st.dictionaries(TEXT, VALUES, max_size=6)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(DOCS)
def test_matches_json_dumps(doc):
    assert canonical_json(doc) == reference(doc)


@pytest.mark.parametrize("value", [
    [1, True, 0], [True, False, None], [], {}, (), ((),), [[[[[[[1]]]]]]],
    {"b": {}, "a": [], "c": ()}, [-0.0, 1e308, 5e-324, math.nan, -math.inf],
    [2 ** 64, -2 ** 100, 0], {"é": "\x00\x1f\"\\", "": "\ud800"},
])
def test_edge_values(value):
    doc = {"v": value, "_plot": object()}
    assert canonical_json(doc) == reference(doc)


def test_deep_nesting():
    value = [0]
    for depth in range(200):
        value = {"k": value} if depth % 2 else [value, depth]
    assert canonical_json({"v": value}) == reference({"v": value})


@pytest.mark.parametrize("value", [Fraction(1, 3), {1, 2}, b"x", object()])
def test_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError):
        reference({"v": value})
    with pytest.raises(TypeError):
        canonical_json({"v": value})
    with pytest.raises(TypeError):
        canonical_json({"v": [1, {"w": value}]})


def test_a_key_that_is_not_str_raises():
    # json.dumps would print 1 as "1"; no result document has such a key
    with pytest.raises(TypeError):
        canonical_json({"v": {1: 2}})
