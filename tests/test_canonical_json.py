"""``core.canonical_json`` against a reference encoder that spells the
encoding rule out."""

import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from swl.core import canonical_json  # noqa: E402


def _reference_json(obj) -> str:
    # the encoding rule spelled out: JSON literals and strings, ints in
    # decimal, floats with 17 significant digits, complex as {"im", "re"},
    # mappings sorted by the str of their keys
    if obj is None or isinstance(obj, (bool, str)):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(obj)
        return "%.17g" % obj
    if isinstance(obj, complex):
        return '{"im":%s,"re":%s}' % (_reference_json(obj.imag), _reference_json(obj.real))
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(f"{json.dumps(str(k))}:{_reference_json(v)}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_reference_json(v) for v in obj) + "]"
    raise TypeError(type(obj).__name__)


def test_canonical_json_edge_cases():
    assert canonical_json({10: [], 9: {}, "a": ()}) == '{"10":[],"9":{},"a":[]}'
    assert canonical_json([True, 1, -0.0, 5e-324]) == "[true,1,-0,4.9406564584124654e-324]"
    assert canonical_json(1 - 2j) == '{"im":-2,"re":1}'
    assert canonical_json("\u00e9") == '"\\u00e9"'
    with pytest.raises(ValueError):
        canonical_json({"a": [1.0, float("nan")]})
    with pytest.raises(ValueError):
        canonical_json(complex(float("inf"), 0.0))
    with pytest.raises(TypeError):
        canonical_json({"a": object()})


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), _FINITE, st.text(),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    # -0.0, subnormals and the True/1 pair, which must stay apart
    st.sampled_from([-0.0, 5e-324, 2.2250738585072009e-308, True, 1, 1.0, "\u00e9\u2211\U0001f600"]),
)
_JSON_DOCS = st.recursive(_JSON_LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(st.one_of(st.text(max_size=4), st.integers(-20, 20)), kids, max_size=4),
), max_leaves=24)


@settings(max_examples=300)
@given(doc=_JSON_DOCS)
def test_canonical_json_matches_the_reference_encoder(doc):
    assert canonical_json(doc) == _reference_json(doc)
