import math
import random

import pytest

from steinberg import collection as C
from steinberg import loopmodel as L
from steinberg import presentation as P
from steinberg import rings
from steinberg.roots import AffineRoot

Z5 = rings.integers_mod(5)
Z7 = rings.integers_mod(7)


def test_root_element_basics():
    model = L.build_model("A~2", Z5)
    gamma = AffineRoot((1, 0), 0)
    assert model.root_element(gamma, rings.zero(Z5)).is_identity()
    u, v = rings.from_int(Z5, 2), rings.from_int(Z5, 4)
    lhs = model.root_element(gamma, u) * model.root_element(gamma, v)
    assert lhs == model.root_element(gamma, u + v)
    # nontriviality away from zero
    for w in rings.elements(Z5):
        if not w.is_zero():
            assert not model.root_element(gamma, w).is_identity()


def test_commutator_of_root_elements_matches_structure_constant():
    model = L.build_model("A~2", Z5)
    a, b = AffineRoot((1, 0), 0), AffineRoot((0, 1), 1)
    one = rings.one(Z5)
    x, y = model.root_element(a, one), model.root_element(b, one)
    xi, yi = model.root_element(a, -one), model.root_element(b, -one)
    comm = x * y * xi * yi
    n = model.basis.n((1, 0), (0, 1))
    assert n in (1, -1)
    expected = model.root_element(AffineRoot((1, 1), 1), rings.from_int(Z5, n))
    assert comm == expected


def test_stilde_word_evaluates_to_weyl_representative():
    model = L.build_model("A~2", Z5)
    for i in range(3):
        w = P.stilde(i, rings.one(Z5))
        assert model.evaluate_word(w) == model.s_matrix(i)


def test_htilde_at_one_is_identity():
    model = L.build_model("A~2", Z5)
    for i in range(3):
        assert model.evaluate_word(P.htilde(i, rings.one(Z5))).is_identity()


def test_htilde_is_diagonal():
    model = L.build_model("A~2", Z5)
    for i in range(3):
        for r in rings.units(Z5):
            assert model.evaluate_word(P.htilde(i, r)).is_diagonal()


def test_m3_distant_relation_instance():
    model = L.build_model("A~2", Z5)
    t, u = rings.from_int(Z5, 2), rings.from_int(Z5, 3)
    lhs = P.commutator_word(P.word(P.X(0, t)), P.word(P.X(1, u)))
    rhs = P.conj(P.word(P.S(0)), P.word(P.X(1, t * u)))
    assert model.evaluate_word(lhs) == model.evaluate_word(rhs)


def test_corrupted_relator_fails():
    model = L.build_model("A~2", Z5)
    t, u = rings.from_int(Z5, 2), rings.from_int(Z5, 3)
    lhs = P.commutator_word(P.word(P.X(0, t)), P.word(P.X(1, u)))
    corrupted = P.conj(P.word(P.S(0)), P.word(P.X(1, t * u + rings.one(Z5))))
    assert model.evaluate_word(lhs) != model.evaluate_word(corrupted)


def test_x_at_zero_is_identity():
    model = L.build_model("C~2", Z5)
    for i in range(3):
        assert model.x_matrix(i, rings.zero(Z5)).is_identity()


def test_verify_presentation_small():
    rep = L.verify_presentation(L.build_model("A~2", rings.prime_field(3)))
    assert rep["all_passed"]
    fams = {f["family"] for f in rep["families"]}
    assert "torus-action-1" in fams and "additivity" in fams
    total = sum(f["instances"] for f in rep["families"])
    assert total == sum(f["passed"] for f in rep["families"])


def test_verify_rejects_twisted_and_infinite():
    with pytest.raises(ValueError):
        L.build_model("BC~2^odd", Z5)
    with pytest.raises(ValueError):
        L.build_model("A~2", rings.integers())


def test_morita_rehmann_example_exponent():
    # over Z/7 with r = 3: conjugation scales the adjacent node's root group
    # by 3^(-1) = 5, its own by 3^2 = 2
    model = L.build_model("A~2", Z7)
    rep = L.verify_morita_rehmann(model, 1)
    assert rep["all_passed"]
    r = rings.from_int(Z7, 3)
    beta = model.simple_of_node[1]
    h = model.evaluate_word(P.htilde(0, r))
    hinv = model.evaluate_word(P.winv(P.htilde(0, r)))
    u = rings.one(Z7)
    scaled = rings.power(r, -1) * u
    assert scaled.data == 5
    assert h * model.root_element(beta, u) * hinv == model.root_element(beta, scaled)
    alpha = model.simple_of_node[0]
    scaled2 = rings.power(r, 2) * u
    assert scaled2.data == 2
    assert h * model.root_element(alpha, u) * hinv == model.root_element(alpha, scaled2)


def test_weyl_conjugation_fixes_orthogonal_roots():
    model = L.build_model("C~2", Z5)
    # the two long end nodes are orthogonal, so conjugation by the stilde of
    # one leaves the other's root group untouched
    i, j = next(
        (i, j)
        for i in range(3)
        for j in range(3)
        if i != j and model.gcm.rows[i][j] == 0
    )
    s = model.evaluate_word(P.stilde(i, rings.one(Z5)))
    sinv = model.evaluate_word(P.winv(P.stilde(i, rings.one(Z5))))
    beta = model.simple_of_node[j]
    for u in rings.elements(Z5):
        assert s * model.root_element(beta, u) * sinv == model.root_element(beta, u)


def test_collection_normal_forms_match_matrix_products():
    # cross-module oracle: collected normal forms evaluate to the same matrix
    # as the uncollected word, on every untwisted case configuration
    rng = random.Random(23)
    tu = rings.polynomial_ring(rings.integers(), ("t", "u"))
    tvar, uvar = rings.variable(tu, "t"), rings.variable(tu, "u")
    for cid in (1, 2, 3, 4):
        cfg = C.case_configuration(cid)
        model = L.model_for_system(cfg.nrs.ars, Z5)

        def evaluate(letters, tval, uval):
            out = L.identity_matrix(model.n, model.dim)
            for root, coeff in letters:
                value = rings.substitute(coeff, {"t": tval, "u": uval})
                sign = cfg.signs.get(root, 1)
                out = out * model.root_element(root, value.scale(sign))
            return out

        roots = list(cfg.nrs.roots)
        for _ in range(6):
            letters = []
            for _ in range(4):
                c = rings.from_int(tu, rng.randrange(-2, 3))
                if rng.random() < 0.5:
                    c = c * tvar
                if rng.random() < 0.5:
                    c = c * uvar
                if not c.is_zero():
                    letters.append((rng.choice(roots), c))
            # avoid consulting the excluded (alpha, beta) pair
            if any(r == cfg.alpha for r, _ in letters) and any(
                r == cfg.beta for r, _ in letters
            ):
                continue
            try:
                nf = C.collect(cfg.nrs, letters)
            except C.ConfigurationError:
                continue
            for tval in (rings.from_int(Z5, 2), rings.from_int(Z5, 4)):
                uval = rings.from_int(Z5, 3)
                assert evaluate(letters, tval, uval) == evaluate(nf, tval, uval)


def test_replay_case4_words_match_matrices():
    # the case-4 replay equality holds as an exact matrix identity too
    cfg = C.case_configuration(4)
    model = L.model_for_system(cfg.nrs.ars, Z7)
    result = C.replay(cfg)
    assert result.is_empty()
    # the commutator of the realized alpha and beta root elements vanishes in
    # the model for concrete parameters (independent confirmation)
    for tv in (1, 3):
        for uv in (2, 5):
            t = rings.from_int(Z7, tv)
            u = rings.from_int(Z7, uv)
            a = model.root_element(cfg.alpha, t.scale(cfg.signs.get(cfg.alpha, 1)))
            b = model.root_element(cfg.beta, u.scale(cfg.signs.get(cfg.beta, 1)))
            ai = model.root_element(cfg.alpha, (-t).scale(cfg.signs.get(cfg.alpha, 1)))
            bi = model.root_element(cfg.beta, (-u).scale(cfg.signs.get(cfg.beta, 1)))
            assert (a * b * ai * bi).is_identity()


def test_verify_family_census():
    # the m=4 edges contribute exactly their six families, the m=6 edge its
    # nine, on top of the four per-node/ordered-pair families and the two
    # torus actions
    z3 = rings.integers_mod(3)
    rep = L.verify_presentation(L.build_model("C~2", z3))
    fams = {f["family"] for f in rep["families"]}
    assert {f for f in fams if "-4" in f} == {
        "artin-4", "interaction-4", "chevalley-4-close",
        "chevalley-4-orthogonal-long", "chevalley-4-orthogonal-short",
        "chevalley-4-distant",
    }
    assert rep["all_passed"]

    gf2 = rings.prime_field(2)
    rep = L.verify_presentation(L.build_model("G~2", gf2))
    fams = {f["family"] for f in rep["families"]}
    assert {f for f in fams if "-6" in f} == {
        "artin-6", "interaction-6", "chevalley-6-close-long",
        "chevalley-6-adjacent", "chevalley-6-orthogonal",
        "chevalley-6-distant-long", "chevalley-6-close-short",
        "chevalley-6-distant-short", "chevalley-6-distant",
    }
    assert rep["all_passed"]


def test_int64_guard_on_both_sides_of_the_bound():
    # G~2 has a 14-dimensional adjoint module; a block product sums 14 terms
    # below (n - 1)^2 each in int64
    largest = math.isqrt((2**63 - 1) // 14) + 1
    assert 14 * (largest - 1) ** 2 < 2**63 <= 14 * largest**2
    model = L.build_model("G~2", rings.integers_mod(largest))
    assert model.dim == 14
    for i in range(3):
        assert (model.s_matrix(i) * model.s_inverse(i)).is_identity()
    with pytest.raises(L.UnsupportedModelError, match="too large"):
        L.build_model("G~2", rings.integers_mod(largest + 1))


def test_unsupported_model_error_is_shared():
    assert L.UnsupportedModelError is rings.UnsupportedModelError
    assert issubclass(L.UnsupportedModelError, ValueError)
