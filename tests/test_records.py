"""The record contract: every record type is immutable, equal by value to a
record of its own type only, and hashes as the tuple of its fields (so set
and dict iteration orders, and with them the output bytes, do not depend on
how a record is declared)."""

import pytest

import steinberg
from steinberg import collection as C
from steinberg import diagrams as D
from steinberg import loopmodel as L
from steinberg import presentation as P
from steinberg import rings
from steinberg import roots as R

A2 = D.affine_cartan(D.parse_label("A~2"))
A4 = D.affine_cartan(D.parse_label("A~4"))
Z5 = rings.integers_mod(5)


def _pair(label, a, b):
    ars = R.affine_system(label)
    return R.classify_pair(ars, R.AffineRoot(*a), R.AffineRoot(*b))


# name -> (builder of a fresh record, builder of one that differs, field names)
RECORDS = {
    "RingDescriptor": (
        lambda: rings.parse_descriptor("Z/5[t^+-1]"),
        lambda: rings.parse_descriptor("Z/7[t^+-1]"),
        ("kind", "params"),
    ),
    "RingElement": (
        lambda: rings.from_int(Z5, 3),
        lambda: rings.from_int(Z5, 4),
        ("desc", "data"),
    ),
    "GeneralizedCartanMatrix": (
        lambda: D.affine_cartan(D.parse_label("A~2")),
        lambda: D.affine_cartan(D.parse_label("C~2")),
        D.GeneralizedCartanMatrix._fields,
    ),
    "DiagramClass": (
        lambda: D.parse_label("A~2"),
        lambda: D.parse_label("G~2"),
        D.DiagramClass._fields,
    ),
    "RingProfile": (
        lambda: D.RingProfile(finitely_generated_ring=True),
        lambda: D.RingProfile(),
        D.RingProfile._fields,
    ),
    "PresentabilityVerdict": (
        lambda: D.finite_presentability_hypotheses(A4, D.RingProfile(finitely_generated_ring=True)),
        lambda: D.finite_presentability_hypotheses(A4, D.RingProfile()),
        D.PresentabilityVerdict._fields,
    ),
    "FiniteRootSystem": (
        lambda: R.enumerate_finite_roots(D.finite_cartan("B", 2), "B"),
        lambda: R.enumerate_finite_roots(D.finite_cartan("G", 2), "G"),
        ("cartan", "family", "roots", "d", "nonreduced"),
    ),
    "AffineRootSystem": (
        lambda: R.affine_system("A~2"),
        lambda: R.affine_system("C~2"),
        ("cls", "finite", "phi0"),
    ),
    "AffineRoot": (
        lambda: R.AffineRoot((1, 0), 0),
        lambda: R.AffineRoot((1, 0), 1),
        R.AffineRoot._fields,
    ),
    "PairClassification": (
        lambda: _pair("A~3", ((1, 0, 0), 0), ((1, 0, 0), 1)),
        lambda: _pair("A~3", ((1, 0, 0), 0), ((0, 1, 0), 0)),
        R.PairClassification._fields,
    ),
    "PresentationOptions": (
        lambda: P.PresentationOptions(include_torus_action=True),
        lambda: P.PresentationOptions(),
        P.PresentationOptions._fields,
    ),
    "Generator": (
        lambda: P.X(1, rings.from_int(Z5, 2)),
        lambda: P.X(1, rings.from_int(Z5, 3)),
        P.Generator._fields,
    ),
    "Presentation": (
        lambda: P.relators_for(A2, rings.integers_mod(2)),
        lambda: P.relators_for(A2, rings.integers_mod(3)),
        P.Presentation._fields,
    ),
    "Relator": (
        lambda: P.relators_for(A2, rings.integers_mod(2)).relators[0],
        lambda: P.relators_for(A2, rings.integers_mod(2)).relators[1],
        P.Relator._fields,
    ),
    "NilpotentRootSet": (
        lambda: C.case_configuration.__wrapped__(1).nrs,
        lambda: C.case_configuration.__wrapped__(2).nrs,
        ("ars", "roots", "tables", "commuting", "names"),
    ),
    "NormalProduct": (
        lambda: C.replay_case(6),
        lambda: C.replay_case(4, 1, -1),
        ("nrs", "factors"),
    ),
    "CaseDeclaration": (
        lambda: C.CaseDeclaration(*C.CASES[6]),
        lambda: C.CaseDeclaration(*C.CASES[7]),
        C.CaseDeclaration._fields,
    ),
    "CaseData": (
        # the expansions hold lambdas, so equal cases share their fields
        lambda: C.CaseData(*C.case_configuration(1)),
        lambda: C.CaseData(*C.case_configuration(2)),
        C.CaseData._fields,
    ),
    "LoopMatrix": (
        lambda: L.LoopMatrix({(0, 0, 0): 1, (1, 1, 0): 1, (0, 1, 2): 3}, 5, 2),
        lambda: L.LoopMatrix({(0, 0, 0): 1, (1, 1, 0): 1, (0, 1, 2): 4}, 5, 2),
        ("entries", "n", "dim"),
    ),
}

# hashes that are not the hash of the field tuple: a LoopMatrix's entries are
# a dict, so it hashes its shape only
HASH_KEYS = {"LoopMatrix": lambda m: (m.n, m.dim, len(m.entries))}


def _fields(record, names) -> tuple:
    return tuple(getattr(record, name) for name in names)


def test_every_record_type_is_covered():
    # a record type: a tuple, a rings.Record, or a class with an equality of
    # its own
    found = {
        cls
        for name in steinberg.__all__
        for cls in vars(getattr(steinberg, name)).values()
        if isinstance(cls, type) and cls.__module__ == f"steinberg.{name}"
        and cls is not rings.Record
        and (issubclass(cls, (tuple, rings.Record)) or "__eq__" in vars(cls))
    }
    assert {make().__class__ for make, _, _ in RECORDS.values()} == found
    assert {cls.__name__ for cls in found} == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_equal_by_value(name):
    make, other, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert a != other() and not a == other()


@pytest.mark.parametrize("name", RECORDS)
def test_record_hash_is_the_hash_of_its_fields(name):
    make, _, names = RECORDS[name]
    record = make()
    key = HASH_KEYS.get(name, lambda r: _fields(r, names))(record)
    try:
        expected = hash(key)
    except TypeError:  # a field is a dict: the record is unhashable too
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected == hash(make())


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_cannot_be_assigned(name):
    make, _, names = RECORDS[name]
    record = make()
    before = _fields(record, names)
    for field in names:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.not_a_field = None
    assert _fields(record, names) == before


@pytest.mark.parametrize("name", ["RingDescriptor", "RingElement"])
def test_ring_records_never_equal_a_bare_tuple(name):
    make, _, names = RECORDS[name]
    record = make()
    bare = _fields(record, names)
    assert record != bare and bare != record
    assert not record == bare and not bare == record
    assert not isinstance(record, tuple)
    assert len({record, bare}) == 2
