import random

import pytest

from steinberg import diagrams as D
from steinberg import presentation as P
from steinberg import rings

from oracles import parse_native, substitute


A2 = D.affine_cartan(D.parse_label("A~2"))
A3 = D.affine_cartan(D.parse_label("A~3"))
GF2 = rings.prime_field(2)
Z5 = rings.integers_mod(5)


def test_stilde_word_shape():
    z7 = rings.integers_mod(7)
    w = P.stilde(1, rings.from_int(z7, 3))
    rendered = P.render_word(w)
    assert rendered == "X1(3) S1 X1(5) S1^-1 X1(3)"  # 3^-1 = 5 mod 7
    w = P.stilde(0, rings.from_int(rings.integers(), -1))
    assert P.render_word(w) == "X0(-1) S0 X0(-1) S0^-1 X0(-1)"
    w = P.stilde(0, rings.one(z7))
    assert P.render_word(w) == "X0(1) S0 X0(1) S0^-1 X0(1)"
    with pytest.raises(ValueError):
        P.stilde(0, rings.zero(z7))


def test_htilde_length():
    z7 = rings.integers_mod(7)
    for u in rings.units(z7):
        assert len(P.htilde(0, u)) == 10
    w = P.htilde(0, rings.from_int(z7, -1))
    assert w == P.stilde(0, rings.from_int(z7, 6)) + P.stilde(0, rings.from_int(z7, 6))


def test_generator_count_a2_gf2():
    p = P.relators_for(A2, GF2)
    assert len(p.generators) == 9  # 3 S + 3*2 X
    assert not p.symbolic


def test_additivity_instance_count():
    p = P.relators_for(A2, GF2)
    additivity = [r for r in p.relators if r.family == "additivity"]
    assert len(additivity) == 3 * 4  # |I| * |R|^2


def test_torus_omitted_for_two_spherical():
    p = P.relators_for(A2, GF2)
    assert not any(r.family in P.TORUS_ACTION_FAMILIES for r in p.relators)
    forced = P.relators_for(A2, GF2, P.PresentationOptions(include_torus_action=True))
    count = sum(1 for r in forced.relators if r.family == "torus-action-1")
    assert count == 9 * 1 * 2  # 9 ordered node pairs, 1 unit, |R| = 2 values of t


def test_b2_edge_has_exactly_the_six_m4_families():
    b2 = D.finite_cartan("B", 2)
    p = P.relators_for(b2, GF2)
    fams = {r.family for r in p.relators}
    m4 = {f for f in fams if "4" in f}
    assert m4 == {
        "artin-4", "interaction-4", "chevalley-4-close",
        "chevalley-4-orthogonal-long", "chevalley-4-orthogonal-short",
        "chevalley-4-distant",
    }


def test_short_long_resolution():
    b2 = D.finite_cartan("B", 2)  # node 1 is the short root: |A_10| = 2
    s, l = P._short_long(b2, 0, 1)
    assert (s, l) == (1, 0)
    g2 = D.finite_cartan("G", 2)  # node 0 is short: A_01 = -3
    s, l = P._short_long(g2, 0, 1)
    assert (s, l) == (0, 1)


def test_infinite_edge_rejected_concrete():
    bad = D.gcm([[2, -4], [-1, 2]])
    with pytest.raises(ValueError):
        P.relators_for(bad, GF2)


def test_symbolic_mode():
    p = P.relators_for(A2, rings.integers())
    assert p.symbolic
    additivity = [r for r in p.relators if r.family == "additivity"]
    assert len(additivity) == 3  # one schema per node
    assert P.render_word(additivity[0].left) == "X0(t) X0(u)"
    assert P.render_word(additivity[0].right) == "X0(t+u)"
    with pytest.raises(ValueError):
        P.emit(p, "gap")


def test_amalgam_matches_relators_minus_torus():
    for matrix, ring in ((A3, GF2), (A2, Z5)):
        full = P.relators_for(matrix, ring)
        am = P.amalgam(matrix, ring)
        full_set = {r for r in full.relators if r.family not in P.TORUS_ACTION_FAMILIES}
        assert set(am.relators) == full_set
        assert len(am.relators) == len(full_set)
        assert am.generators == full.generators


def test_symmetric_difference_property():
    # with the torus-action families forced on, the full presentation exceeds
    # the amalgam by exactly those instances; otherwise they coincide
    opts = P.PresentationOptions(include_torus_action=True)
    full = P.relators_for(A2, GF2, opts)
    am = P.amalgam(A2, GF2)
    diff = set(full.relators) - set(am.relators)
    assert diff == {r for r in full.relators if r.family in P.TORUS_ACTION_FAMILIES}
    assert set(am.relators) <= set(full.relators)


def test_amalgam_rank2_subdiagram_census_a3():
    # the 4-cycle has 6 node pairs: 4 joined (A_2 type) and 2 opposite (A_1 x A_1)
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    joined = [p for p in pairs if A3.rows[p[0]][p[1]] != 0]
    assert len(pairs) == 6 and len(joined) == 4


def test_emit_deterministic_and_round_trip():
    p = P.relators_for(A2, GF2)
    text1 = P.emit(p, "native")
    text2 = P.emit(p, "native")
    assert text1 == text2
    parsed = parse_native(text1)
    assert parsed.ring == p.ring
    assert parsed.generators == p.generators
    assert parsed.relators == p.relators
    assert parsed.gcm.rows == p.gcm.rows


def test_emit_gap_flavored():
    p = P.relators_for(A2, GF2)
    text = P.emit(p, "gap")
    assert text.startswith("# free-group presentation, GAP-flavored")
    assert "FreeGroup(" in text and text.rstrip().endswith("G := F / rels;")
    assert "S0" in text and "X0_1" in text


def test_native_symbolic_round_trip():
    p = P.relators_for(A2, rings.integers())
    text = P.emit(p, "native")
    parsed = parse_native(text)
    assert parsed.symbolic
    assert parsed.relators == p.relators


def test_km_torus_relations():
    opts = P.PresentationOptions(include_kacmoody_torus=True)
    p = P.relators_for(A2, Z5, opts)
    torus = [r for r in p.relators if r.family == "torus"]
    assert len(torus) == 3 * 4 * 4  # nodes x units^2
    rel = torus[0]
    assert len(rel.left) == 20 and len(rel.right) == 10


def _specialised(w, binding: dict):
    """w with the binding substituted into the parameters of its X letters."""
    return tuple(
        (P.X(g.node, substitute(g.param, binding)) if g.kind == "X" else g, e)
        for g, e in w
    )


@pytest.mark.parametrize("label", ["A~2", "C~2", "G~2", "A~3"])
@pytest.mark.parametrize("n", [5, 7, 8])
def test_every_schema_specialises_to_its_instances(label, n):
    # each concrete relator is its family's schema with the relator's own
    # parameter binding substituted, the km-torus inverse (uv)^-1 included;
    # a relator without parameters renders as its schema does
    a = D.affine_cartan(D.parse_label(label))
    opts = P.PresentationOptions(include_torus_action=True, include_kacmoody_torus=True)
    schemas = {(r.family, r.nodes): r for r in P.relators_for(a, rings.integers(), opts).relators}
    concrete = P.relators_for(a, rings.integers_mod(n), opts).relators
    assert {(r.family, r.nodes) for r in concrete} == set(schemas)
    for rel in concrete:
        schema = schemas[rel.family, rel.nodes]
        binding = dict(rel.params)
        assert [name for name, _ in schema.params] == list(binding)
        for mine, theirs in ((schema.left, rel.left), (schema.right, rel.right)):
            if binding:
                assert _specialised(mine, binding) == theirs
            else:
                assert P.render_word(mine) == P.render_word(theirs)


def test_symbolic_torus_words_round_trip():
    opts = P.PresentationOptions(include_torus_action=True)
    p = P.relators_for(A2, rings.integers(), opts)
    torus1 = [r for r in p.relators if r.family == "torus-action-1"]
    assert torus1, "symbolic torus schemas missing"
    assert "X0(r^-1)" in P.render_word(torus1[0].left)
    text = P.emit(p, "native")
    assert parse_native(text).relators == p.relators


@pytest.mark.parametrize("ring", [rings.integers_mod(13), rings.integers()], ids=["Z/13", "Z"])
def test_sorted_relators_match_the_rendered_key(ring):
    # shuffled, with copies that tie on family, nodes and parameters and
    # differ only in their words, so the rendered words decide
    rels = list(P.relators_for(A2, ring, P.PresentationOptions(include_torus_action=True)).relators)
    rels += [r._replace(right=r.right[:-1]) for r in rels[::7]]
    rels += [r._replace(left=r.right, right=r.left) for r in rels[::11]]
    random.Random(5).shuffle(rels)
    assert P._sorted_relators(rels) == sorted(rels, key=P._relator_sort_key)
