"""The JSON writer against json.dumps(payload, indent=2, sort_keys=True):
strings with escapes, non-ASCII, control and astral characters, nested and
empty containers, bools next to ints, and negative ints.  The examples are
derandomized and bounded, so every run checks the same ones."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinberg import jsonout

bounded = settings(derandomize=True, max_examples=300, database=None, deadline=None)

# every code point class json escapes differently: '"' and '\\', the short
# control escapes, other controls, DEL, the rest of the BMP (surrogates
# included) and the astral planes
texts = st.text(st.one_of(
    st.sampled_from('"\\\b\f\n\r\t\x00\x1f\x7f /~'),
    st.characters(max_codepoint=0x7f),
    st.characters(min_codepoint=0x80, max_codepoint=0xffff),
    st.characters(min_codepoint=0x10000),
))
scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(-3, 3), texts)
payloads = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.tuples(inner, inner),
                            st.dictionaries(texts, inner, max_size=4)),
    max_leaves=20,
)


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


@bounded
@given(payloads)
def test_writer_matches_json_dumps(payload):
    assert jsonout.dumps(payload) == _json(payload)


@pytest.mark.parametrize("payload", [
    [], {}, [[]], {"a": {}}, [True, 1, False, 0, -1, None], {"b": 1, "a": [True, 2]},
    "\U0001f600é \ud800", -(2**70), {"": ""},
])
def test_writer_matches_json_dumps_on_edge_cases(payload):
    assert jsonout.dumps(payload) == _json(payload)


@pytest.mark.parametrize("payload", [{1: "x"}, [1.5], {"a": {2, 3}}])
def test_writer_refuses_what_the_commands_never_print(payload):
    with pytest.raises(TypeError):
        jsonout.dumps(payload)
