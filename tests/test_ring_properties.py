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
    three terms with small exponents and coefficients from the base ring."""
    if desc.kind == "Z":
        return st.integers(-20, 20).map(lambda k: rings.from_int(desc, k))
    if desc.kind in ("Zmod", "GF"):
        return st.integers(0, desc.params[0] - 1).map(lambda k: rings.from_int(desc, k))
    base, names = desc.params
    if desc.kind == "poly":
        monomials = st.tuples(*[st.integers(0, 3)] * len(names))
    else:
        monomials = st.integers(-3, 3)

    def summed(terms: dict) -> rings.RingElement:
        total = rings.zero(desc)
        for monomial, coeff in terms.items():
            if not coeff.is_zero():
                total = total + rings.RingElement(desc, ((monomial, coeff.data),))
        return total

    return st.dictionaries(monomials, elements(base), max_size=3).map(summed)


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
