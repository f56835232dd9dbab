"""canonical_json writes a result document as one line of JSON with sorted
keys, no spaces and ASCII escapes, and refuses what JSON cannot hold."""

import json
import math
from fractions import Fraction

import pytest

from sigmatrop.cli import canonical_json

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


# non-ASCII, control and quote characters, as well as plain ones
TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\b\f\n\r\t\x00\x7f é€😀')),
               max_size=8)
FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 0.0, 1e308, -1e308, 5e-324, 1e16, 0.1]))
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


def as_read(value):
    """value as json.loads gives it back: tuples become lists."""
    if isinstance(value, dict):
        return {k: as_read(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [as_read(x) for x in value]
    return value


def reversed_order(value):
    """An equal value whose dicts were filled in the opposite order."""
    if isinstance(value, dict):
        return {k: reversed_order(value[k]) for k in reversed(list(value))}
    if isinstance(value, (list, tuple)):
        return type(value)(reversed_order(x) for x in value)
    return value


def sorted_pairs(pairs):
    """json.loads' object_pairs_hook: checks that the keys come sorted."""
    keys = [k for k, _ in pairs]
    assert keys == sorted(keys)
    return dict(pairs)


# one test for the four properties, as drawing the documents takes most of
# its time
@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(DOCS)
def test_one_sorted_ascii_line_that_reads_back(doc):
    text = canonical_json({**doc, "_plot": object()})
    # the document without its "_" keys
    assert json.loads(text, object_pairs_hook=sorted_pairs) == as_read(
        {k: v for k, v in doc.items() if not k.startswith("_")})
    assert text.isascii()
    assert text.endswith("\n") and text.count("\n") == 1
    # equal documents built in another insertion order give equal bytes
    assert canonical_json(reversed_order(doc)) == canonical_json(doc)


@pytest.mark.parametrize("value", [
    [1, True, 0], [True, False, None], [], {}, (), ((),), [[[[[[[1]]]]]]],
    {"b": {}, "a": [], "c": ()}, [-0.0, 1e308, 5e-324, -1e-308],
    [2 ** 64, -2 ** 100, 0], {"é": "\x00\x1f\"\\", "": "\ud800"},
])
def test_edge_values(value):
    text = canonical_json({"v": value, "_plot": object()})
    assert json.loads(text) == {"v": as_read(value)}
    assert text.isascii() and text.count("\n") == 1


def test_deep_nesting():
    value = [0]
    for depth in range(200):
        value = {"k": value} if depth % 2 else [value, depth]
    assert json.loads(canonical_json({"v": value})) == {"v": as_read(value)}


def test_the_exact_text():
    doc = {"b": [1, 2.5, None], "a": {"é": True, "c": ()}, "_plot": ("cloud", None)}
    assert canonical_json(doc) == '{"a":{"c":[],"\\u00e9":true},"b":[1,2.5,null]}\n'


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("wrap", [
    lambda x: x, lambda x: [x], lambda x: (1, x), lambda x: {"w": [0, {"z": x}]},
])
def test_a_non_finite_float_raises(bad, wrap):
    with pytest.raises(ValueError):
        canonical_json({"v": wrap(bad)})


@pytest.mark.parametrize("value", [Fraction(1, 3), {1, 2}, b"x", object()])
def test_rejects_what_json_dumps_rejects(value):
    with pytest.raises(TypeError):
        canonical_json({"v": value})
    with pytest.raises(TypeError):
        canonical_json({"v": [1, {"w": value}]})
