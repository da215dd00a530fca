"""Property tests of the ring layer: the commutative ring laws and the
render/parse round trip, on scalar, polynomial and Laurent rings.  The
examples are derandomized and bounded, so every run checks the same ones."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinberg import rings

RINGS = ["Z", "Z/6", "Z/7", "GF(5)", "Z[t,u]", "Z/4[t]", "Z[t][r^+-1]",
         "Z[r^+-1][t][u^+-1][v^+-1]"]

bounded = settings(derandomize=True, max_examples=60, database=None, deadline=None)


def elements(desc: rings.RingDescriptor):
    """Elements of desc: small integers and residues, and sums of up to
    three of their multiples of products of small powers of the variables,
    negative ones only of Laurent variables.  They are built by ring
    operations alone, whatever the layout of the data."""
    scalars = st.integers(-20, 20)
    if not desc.names:
        return scalars.map(lambda k: rings.from_int(desc, k))
    variables = [rings.parse_element(desc, name) for name in desc.names]
    exponents = st.tuples(*[st.integers(-3 if laurent else 0, 3) for laurent in desc.laurent])

    def term(k: int, exps: tuple) -> rings.RingElement:
        out = rings.from_int(desc, k)
        for x, e in zip(variables, exps):
            out = out * rings.power(x, e)
        return out

    terms = st.builds(term, scalars, exponents)
    return st.lists(terms, max_size=3).map(lambda ts: sum(ts, rings.zero(desc)))


def triples(name: str):
    desc = rings.parse_descriptor(name)
    return st.tuples(*[elements(desc)] * 3)


@pytest.mark.parametrize("name", RINGS)
def test_ring_laws(name):
    @bounded
    @given(triples(name))
    def check(abc):
        a, b, c = abc
        zero = rings.zero(a.desc)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == zero and a - a == zero
        assert a * rings.one(a.desc) == a and a + zero == a

    check()


@pytest.mark.parametrize("name", RINGS)
def test_render_parse_round_trip(name):
    desc = rings.parse_descriptor(name)

    @bounded
    @given(elements(desc))
    def check(a):
        assert rings.parse_element(desc, rings.render_element(a)) == a

    check()
