import random
import re

import pytest

from steinberg import rings as R


def ext_euclid_inverse(a, n):
    # independent oracle: extended Euclid
    old_r, r = a % n, n
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    assert old_r == 1
    return old_s % n


def test_mod_add():
    z5 = R.integers_mod(5)
    assert (R.from_int(z5, 3) + R.from_int(z5, 4)).data == 2


def test_poly_difference_of_squares():
    ztu = R.polynomial_ring(R.integers(), ("t", "u"))
    t, u = R.variable(ztu, "t"), R.variable(ztu, "u")
    prod = (t + u) * (t - u)
    assert prod == t * t - u * u
    assert str(prod) == "t^2 - u^2"


def test_laurent_unit_cancellation():
    lz5 = R.laurent_ring(R.integers_mod(5), "t")
    t = R.variable(lz5, "t")
    tinv = R.inverse(t)
    assert tinv * t == R.one(lz5)


def test_units_of_finite_rings():
    assert [u.data for u in R.units(R.integers_mod(6))] == [1, 5]
    assert [u.data for u in R.units(R.prime_field(7))] == [1, 2, 3, 4, 5, 6]
    assert [u.data for u in R.units(R.integers_mod(4))] == [1, 3]


def test_units_brute_force_small_rings():
    for n in range(2, 51):
        zn = R.integers_mod(n)
        brute = [
            a.data
            for a in R.elements(zn)
            if any(a * b == R.one(zn) for b in R.elements(zn))
        ]
        assert [u.data for u in R.units(zn)] == brute


def test_units_infinite_ring_rejected():
    with pytest.raises(ValueError):
        R.units(R.integers())


def test_inverse_examples():
    z7 = R.integers_mod(7)
    assert R.inverse(R.from_int(z7, 3)).data == ext_euclid_inverse(3, 7) == 5
    assert R.inverse(R.one(z7)) == R.one(z7)
    assert R.inverse(R.from_int(z7, -1)).data == 6
    with pytest.raises(ValueError):
        R.inverse(R.zero(z7))
    with pytest.raises(ValueError):
        R.inverse(R.from_int(R.integers_mod(6), 2))
    # in a tower: one term, a unit scalar, no polynomial variable
    schema = R.parse_descriptor("Z[r^+-1][t][u^+-1][v^+-1]")
    a = R.parse_element(schema, "-r^2*u^-1*v")
    assert R.inverse(a) == R.parse_element(schema, "-r^-2*u*v^-1")
    for text in ["t*r", "2*r", "r + u", "0"]:
        with pytest.raises(ValueError):
            R.inverse(R.parse_element(schema, text))
    z5t = R.parse_descriptor("Z/5[t^+-1]")
    assert R.inverse(R.parse_element(z5t, "2*t^3")) == R.parse_element(z5t, "3*t^-3")
    # a tower names each variable once
    with pytest.raises(ValueError, match=re.escape("'t' is already a variable of Z/3[t^+-1]")):
        R.parse_descriptor("Z/3[t^+-1][t]")


def test_canonical_form_idempotent():
    ztu = R.polynomial_ring(R.integers(), ("t", "u"))
    t, u = R.variable(ztu, "t"), R.variable(ztu, "u")
    a = t * u - t * u + t  # zero term must be trimmed
    assert a == t
    assert (a - t).is_zero()
    assert (a - t).data == ()


def test_evaluation_homomorphism_random():
    rng = random.Random(7)
    z9 = R.integers_mod(9)
    units = R.units(z9)
    for name in ["Z/9[t,u]", "Z[r^+-1][t][u^+-1][v^+-1]", "Z[t][r^+-1]"]:
        desc = R.parse_descriptor(name)
        laurent = dict(zip(desc.names, desc.laurent))
        variables = {x: R.parse_element(desc, x) for x in desc.names}

        def rand_poly():
            acc = R.zero(desc)
            for _ in range(rng.randrange(1, 5)):
                term = R.from_int(desc, rng.randrange(-8, 9))
                for _ in range(rng.randrange(0, 3)):
                    x = rng.choice(desc.names)
                    term = term * R.power(variables[x], rng.choice([-1, 1]) if laurent[x] else 1)
                acc = acc + term
            return acc

        for _ in range(60):
            a, b = rand_poly(), rand_poly()
            # units at the Laurent variables, any residue elsewhere
            point = {x: rng.choice(units) if laurent[x] else R.from_int(z9, rng.randrange(9))
                     for x in desc.names}
            assert R.substitute(a + b, point) == R.substitute(a, point) + R.substitute(b, point)
            assert R.substitute(a * b, point) == R.substitute(a, point) * R.substitute(b, point)


def test_nested_rings_render_in_one_graded_lex_order():
    # one order over all variables, innermost ring first: r, t, u, v
    schema = R.parse_descriptor("Z[r^+-1][t][u^+-1][v^+-1]")
    r, t, u, v = (R.parse_element(schema, name) for name in "rtuv")
    assert str(t + u) == "t + u"
    assert str(R.inverse(u * v)) == "u^-1*v^-1"
    assert str(R.power(r, -1) * t) == "r^-1*t"
    assert str(R.power(r, 1) * t) == "r*t"
    zt_r = R.parse_descriptor("Z[t][r^+-1]")
    t, r = R.parse_element(zt_r, "t"), R.parse_element(zt_r, "r")
    assert str(t * r + r) == "t*r + r"
    assert str(t * t - r) == "t^2 - r"  # the degree decides across the levels


def test_substitute_walks_nested_rings():
    schema = R.parse_descriptor("Z[r^+-1][t][u^+-1][v^+-1]")
    z7 = R.integers_mod(7)
    point = {name: R.from_int(z7, k) for name, k in zip("rtuv", (2, 5, 3, 6))}
    a = R.parse_element(schema, "3*r^-1*t*u^2 - u^-1*v^-1")
    expected = 3 * pow(2, -1, 7) * 5 * 9 - pow(3, -1, 7) * pow(6, -1, 7)
    assert R.substitute(a, point) == R.from_int(z7, expected)
    # a variable needs a value only where its exponent is nonzero
    assert R.substitute(R.parse_element(schema, "t + 1"), {"t": point["t"]}) == R.from_int(z7, 6)
    assert R.substitute(R.one(schema), {"v": point["v"]}) == R.one(z7)
    with pytest.raises(ValueError):
        R.substitute(R.parse_element(schema, "u"), {"t": point["t"]})
    with pytest.raises(ValueError):
        R.substitute(R.parse_element(schema, "u^-1"), {"u": R.zero(z7)})


def test_parse_round_trip():
    cases = [
        (R.integers(), ["-12", "0", "7"]),
        (R.integers_mod(5), ["3", "0"]),
        (R.polynomial_ring(R.integers(), ("t", "u")), ["3*t^2*u - t + 1", "0", "-t"]),
        (R.laurent_ring(R.integers_mod(5), "t"), ["2*t^-1", "t^3 + 4", "0"]),
    ]
    for desc, texts in cases:
        for text in texts:
            a = R.parse_element(desc, text)
            assert R.parse_element(desc, str(a)) == a


def test_parse_descriptor_round_trip():
    for text in ["Z", "Z/6", "GF(7)", "Z[t,u]", "GF(5)[t]", "Z/5[t^+-1]"]:
        d = R.parse_descriptor(text)
        assert R.parse_descriptor(str(d)) == d


@pytest.mark.parametrize("text,name", [
    ("Z[t][t]", "t"),
    ("Z[t^+-1][t^+-1]", "t"),
    ("Z[t,u][u^+-1]", "u"),
    ("Z/3[t][r^+-1][t]", "t"),
    ("GF(5)[r^+-1][t][u,r]", "r"),
])
def test_tower_repeating_a_variable_rejected(text, name):
    # at any level below, not only the immediate base
    with pytest.raises(ValueError, match=f"'{name}' is already a variable of"):
        R.parse_descriptor(text)


def test_ring_constructors_reject_a_variable_of_the_base():
    base = R.parse_descriptor("Z[t][u^+-1]")
    message = re.escape("'t' is already a variable of Z[t][u^+-1]")
    with pytest.raises(ValueError, match=message):
        R.polynomial_ring(base, ("v", "t"))
    with pytest.raises(ValueError, match=message):
        R.laurent_ring(base, "t")


def test_descriptor_mismatch_rejected():
    with pytest.raises(ValueError):
        R.one(R.integers()) + R.one(R.integers_mod(5))


def test_power_with_negative_exponent():
    z7 = R.integers_mod(7)
    a = R.from_int(z7, 3)
    assert R.power(a, -2) == R.inverse(a) * R.inverse(a)
    assert R.power(a, 0) == R.one(z7)
