import collections
import itertools
import math
import random

import pytest

from steinberg import collection as C
from steinberg import diagrams as D
from steinberg import loopmodel as L
from steinberg import presentation as P
from steinberg import rings
from steinberg import roots as R
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
    # G~2 has a 14-dimensional adjoint module; the guard refuses exactly the
    # rings with 14 (n - 1)^2 >= 2^63, far too large to enumerate anyway
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


def _commutator_identity_holds(model, a, b, table) -> bool:
    """[x_a(t), x_b(u)] == prod_gamma x_gamma(N t^i u^j) in the model for
    every t, u in Z/n, on the level-0 root groups of the finite roots."""
    n = model.n
    letters = {}

    def x(coords, c):
        key = (coords, c % n)
        if key not in letters:
            letters[key] = model.root_element(AffineRoot(coords, 0), rings.from_int(model.ring, c))
        return letters[key]

    for t in range(n):
        for u in range(n):
            lhs = x(a, t) * x(b, u) * x(a, -t) * x(b, -u)
            rhs = L.identity_matrix(n, model.dim)
            for gamma, coeff, (i, j) in table:
                rhs = rhs * x(gamma, coeff * t**i * u**j)
            if lhs != rhs:
                return False
    return True


@pytest.mark.parametrize("diagram", ["A~2", "C~2", "G~2"])
def test_commutator_tables_are_group_identities(diagram):
    # an oracle independent of the peeling: every ordered non-opposite pair
    # of finite roots, ascending interior order, checked as matrices over Z/5
    model = L.build_model(diagram, Z5)
    basis = model.basis
    for a in basis.roots_order:
        for b in basis.roots_order:
            if a == tuple(-c for c in b):
                continue
            assert _commutator_identity_holds(model, a, b, basis.commutator_table(a, b)), (a, b)


def test_g2_display_order_table_is_a_group_identity():
    model = L.build_model("G~2", Z5)
    sig, lam = (1, 0), (0, 1)
    table = model.basis.commutator_table(sig, lam, order=[(2, 1), (1, 1), (3, 1), (3, 2)])
    assert [g for g, _, _ in table] == [(2, 1), (1, 1), (3, 1), (3, 2)]
    assert _commutator_identity_holds(model, sig, lam, table)
    # negative control: one changed constant breaks the identity
    gamma, coeff, ij = table[-1]
    assert not _commutator_identity_holds(model, sig, lam, table[:-1] + [(gamma, coeff + 1, ij)])


def test_equality_compares_modulus_and_dimension():
    assert L.identity_matrix(5, 8) != L.identity_matrix(7, 8)
    assert L.identity_matrix(5, 8) != L.identity_matrix(5, 10)
    model = L.build_model("A~2", Z5)
    one = model.root_element(AffineRoot((1, 0), 0), rings.zero(Z5))
    assert one == L.identity_matrix(5, 8) and hash(one) == hash(L.identity_matrix(5, 8))


def test_root_element_support_is_truncated_by_zero_divisors():
    model = L.build_model("C~2", rings.integers_mod(4))
    beta = next(root for root in model.simple_of_node.values() if root.level)
    singles = [model.root_element(beta, u) for u in rings.elements(model.ring)]
    # 2^2 = 0 truncates the exponential, so the supports differ
    assert [tuple(k for k, _ in x.blocks) for x in singles] == [(0,), (0, 1, 2), (0, 1), (0, 1, 2)]
    for x in singles:
        regrouped = {(r, c, k): v for k, block in x.blocks for (r, c), v in block.items()}
        assert regrouped == x.entries and 0 not in x.entries.values()


def _random_matrix(rng, n, dim, degrees, zero_row=None):
    """A LoopMatrix with every entry of the given degrees just below n, except
    in zero_row."""
    entries = {
        (r, c, k): n - 1 - rng.randrange(1000)
        for r in range(dim) if r != zero_row for c in range(dim) for k in degrees
    }
    return L.LoopMatrix(entries, n, dim)


def _dense(m):
    """{degree: m's coefficient of t^degree as a list of rows of Python ints}."""
    return {
        k: [[block.get((r, c), 0) for c in range(m.dim)] for r in range(m.dim)]
        for k, block in m.blocks
    }


def _dense_product(x, y, n):
    """The product of two {degree: rows} Laurent matrices mod n, zero degrees dropped."""
    dim, out = len(next(iter(x.values()))), {}
    for e1, p in x.items():
        for e2, q in y.items():
            block = out.setdefault(e1 + e2, [[0] * dim for _ in range(dim)])
            for r in range(dim):
                for c in range(dim):
                    block[r][c] += sum(p[r][m] * q[m][c] for m in range(dim))
    reduced = {e: [[v % n for v in row] for row in block] for e, block in out.items()}
    return {e: block for e, block in reduced.items() if any(map(any, block))}


@pytest.mark.parametrize("right_low", [-1, 0, 1])
@pytest.mark.parametrize("left_k,right_k", [(4, 1), (1, 4), (4, 4)])
def test_product_matches_exact_reference_at_the_int64_bound(left_k, right_k, right_low):
    # left_k and right_k degrees of dense entries just below n, for the largest
    # n the guard accepts for dim 3 and for an n above 2^63: every entry of a
    # product sums products far above 2^63, which Python ints keep exact
    dim = 3
    rng = random.Random(right_low + 7 * left_k + 11 * right_k)
    for n in (math.isqrt((2**63 - 1) // dim) + 1, 2**64 + 13):
        left = _random_matrix(rng, n, dim, range(-1, left_k - 1))
        # a zero row, so the support is not everything
        right = _random_matrix(rng, n, dim, range(right_low, right_low + right_k), zero_row=1)
        assert _dense(left * right) == _dense_product(_dense(left), _dense(right), n)


@pytest.mark.parametrize("n", [4, 6, 2**64 + 13])
def test_product_by_a_near_identity_factor_matches_the_reference(n):
    # right factors I + N that the kernel indexes by their difference from I:
    # N off the diagonal and at other degrees, a diagonal entry c != 1, a
    # missing one, and products that cancel entries of the left factor
    dim, rng = 6, random.Random(n)
    for _ in range(20):
        left = L.LoopMatrix({(r, c, k): rng.randrange(1, n) for r in range(dim) if r != 4
                             for c in range(dim) for k in range(-1, 2) if rng.random() < 0.7},
                            n, dim)
        entries = {(i, i, 0): 1 for i in range(dim) if i != 3}
        entries[0, 0, 0] = rng.randrange(2, n)
        for _ in range(4):
            entries[rng.randrange(dim), rng.randrange(dim), rng.randrange(-1, 2)] = rng.randrange(1, n)
        entries[1, 2, 0] = n - 1
        right = L.LoopMatrix(entries, n, dim)
        assert right._offset_rows is not None
        assert _dense(left * right) == _dense_product(_dense(left), _dense(right), n)
    cancelling = L.LoopMatrix({(0, 0, 0): 1, (1, 1, 0): 1, (0, 1, 0): n - 1}, n, 2)
    assert (cancelling * cancelling).entries == {(0, 0, 0): 1, (1, 1, 0): 1, (0, 1, 0): n - 2}
    assert (L.LoopMatrix({(0, 1, 0): 1}, n, 2) * cancelling).entries == {(0, 1, 0): 1}


def _perturbed(rel, ring):
    """rel with the parameter of its first right-hand X letter shifted by one."""
    right = list(rel.right)
    for k, (gen, exp) in enumerate(right):
        if gen.kind == "X":
            right[k] = (P.X(gen.node, gen.param + rings.one(ring)), exp)
            return rel._replace(right=tuple(right))
    return None


@pytest.mark.parametrize(
    "diagram,n", [("A~2", 5), ("C~2", 6), ("G~2", 4), ("A~2", 8), ("G~2", 9)]
)
def test_batched_verdicts_match_single_words(diagram, n):
    ring = rings.integers_mod(n)
    model = L.build_model(diagram, ring)
    options = P.PresentationOptions(include_torus_action=True)
    # every third instance is followed by a copy with a shifted right-hand
    # parameter, so one batch mixes true and false instances, and another by
    # a copy whose right word is one letter shorter, a new letter shape
    rels = []
    for k, rel in enumerate(P.relators_for(model.gcm, ring, options).relators):
        rels.append(rel)
        if k % 3 == 0 and (bad := _perturbed(rel, ring)) is not None:
            rels.append(bad)
        if k % 3 == 1:
            rels.append(rel._replace(right=rel.right[:-1]))
    # the reference multiplies every word out letter by letter on a model of
    # its own, so it shares no segment value with the batched path
    reference = L.build_model(diagram, ring)
    expected = [_plain(reference, rel.left) == _plain(reference, rel.right) for rel in rels]
    batched = L.verify_relators(model, rels)
    assert batched == expected
    assert any(batched) and not all(batched)
    # reversed, the runs and sub-runs meet a cold and a warm segment cache
    for m in (L.build_model(diagram, ring), model):
        assert L.verify_relators(m, rels[::-1]) == expected[::-1]


def _plain(model, w):
    """The value of a word as a plain product of its letters."""
    out = L.identity_matrix(model.n, model.dim)
    for gen, exp in w:
        out = out * model.letter(gen, exp)
    return out


def _pairing_exponent(model, i, beta):
    return model.ars.finite.pairing(model.simple_of_node[i].coords, beta.coords)


def _reference_morita_rehmann(model, level_bound, exponent=_pairing_exponent):
    """The Weyl/torus check of verify_morita_rehmann, one parameter at a time;
    htilde_i(r) is to scale the root group of beta by r^exponent(model, i, beta)."""
    ars, ring = model.ars, model.ring
    all_roots = R.real_roots_up_to_level(ars, level_bound)
    elements = [x for x in rings.elements(ring) if not x.is_zero()]
    weyl = {"family": "weyl-conjugation", "instances": 0, "passed": 0, "failed": 0,
            "counterexamples": []}
    torus = {"family": "torus-scaling", "instances": 0, "passed": 0, "failed": 0,
             "counterexamples": []}
    for i in range(model.gcm.rank):
        simple = model.simple_of_node[i]
        s_word = P.stilde(i, rings.one(ring))
        s_mat, s_inv = model.evaluate_word(s_word), model.evaluate_word(P.winv(s_word))
        for beta in all_roots:
            image = R.reflect(ars, beta, simple)
            sign, ok = None, True
            for u in elements:
                conj = s_mat * model.root_element(beta, u) * s_inv
                if sign is None:
                    if conj == model.root_element(image, u):
                        sign = 1
                    elif conj == model.root_element(image, -u):
                        sign = -1
                    else:
                        ok = False
                        break
                elif conj != model.root_element(image, u.scale(sign)):
                    ok = False
                    break
            weyl["instances"] += 1
            weyl["passed" if ok else "failed"] += 1
            if not ok:
                weyl["counterexamples"].append({"i": i, "beta": R.root_json(ars, beta)})
        for r in rings.units(ring):
            h_word = P.htilde(i, r)
            h_mat, h_inv = model.evaluate_word(h_word), model.evaluate_word(P.winv(h_word))
            assert h_mat.is_diagonal()
            for beta in all_roots:
                scale = rings.power(r, exponent(model, i, beta))
                ok = all(
                    h_mat * model.root_element(beta, u) * h_inv
                    == model.root_element(beta, scale * u)
                    for u in elements
                )
                torus["instances"] += 1
                torus["passed" if ok else "failed"] += 1
                if not ok:
                    torus["counterexamples"].append(
                        {"i": i, "r": str(r), "beta": R.root_json(ars, beta)}
                    )
    return {
        "diagram": ars.cls.label(), "ring": str(ring), "level_bound": level_bound,
        "families": [weyl, torus],
        "all_passed": weyl["failed"] == 0 and torus["failed"] == 0,
    }


@pytest.mark.parametrize(
    "diagram,n,level_bound",
    [pytest.param(d, n, 1, id=f"{d}-{n}")
     for d, n in [("A~2", 7), ("G~2", 4), ("C~2", 6), ("B~3", 3), ("D~4", 2)]]
    + [pytest.param(d, n, 2, id=f"{d}-{n}-level-bound-2")
       for d, n in [("A~2", 4), ("G~2", 4), ("C~2", 6)]],
)
def test_morita_rehmann_matches_reference_loop(diagram, n, level_bound):
    model = L.build_model(diagram, rings.integers_mod(n))
    report = L.verify_morita_rehmann(model, level_bound)
    assert report["all_passed"]
    assert report == _reference_morita_rehmann(model, level_bound)


def test_conjugations_do_not_grow_with_the_level_bound(monkeypatch):
    # t is central, so a root's verdict is proved once per finite root,
    # image and level offset, and holds at every level
    conjugate, counts = L._conjugate, []

    def counted(*args):
        counts[-1] += 1
        return conjugate(*args)

    monkeypatch.setattr(L, "_conjugate", counted)
    for level_bound in (1, 2):
        counts.append(0)
        model = L.build_model("G~2", rings.integers_mod(4))
        assert L.verify_morita_rehmann(model, level_bound)["all_passed"]
    assert counts[0] == counts[1] > 0


def test_proven_keeps_apart_roots_with_other_candidates():
    # one finite root at two levels, one of them offered a wrong scale: each
    # level keeps its own verdict
    model = L.build_model("A~2", Z7)
    i, r = 1, rings.from_int(Z7, 3)
    h_word = P.htilde(i, r)
    h, h_inv = model.evaluate_word(h_word), model.evaluate_word(P.winv(h_word))
    coords = model.simple_of_node[i].coords
    roots = [AffineRoot(coords, 0), AffineRoot(coords, 1)]
    right, wrong = [rings.power(r, 2).data], [1]
    assert L._proven(model, h, h_inv, roots, roots, [right, wrong]) == [True, False]
    assert L._proven(model, h, h_inv, roots, roots, [wrong, right]) == [False, True]


def test_graded_terms_are_built_once_per_model(monkeypatch):
    model = L.build_model("C~2", rings.integers_mod(6))
    graded_terms, returned, calls = L._graded_terms, {}, []

    def recorded(model, root, c=1):
        terms = graded_terms(model, root, c)
        returned.setdefault((root, c % model.n), []).append(terms)
        calls.append(root)
        return terms

    monkeypatch.setattr(L, "_graded_terms", recorded)
    L.verify_morita_rehmann(model, 2)
    L.verify_morita_rehmann(model, 1)
    # every call for one (root, c mod n) gets the dict built by the first
    assert all(all(t is seen[0] for t in seen) for seen in returned.values())
    assert len(calls) > len(returned) == len(model._terms_cache)
    root = calls[0]
    assert graded_terms(model, root, 1 + model.n) is graded_terms(model, root, 1)


def _record_enumerations(monkeypatch) -> list:
    """Every root left to the per-parameter check, in order."""
    calls, enumerated = [], L._enumerated

    def recorded(model, g, g_inv, beta, *rest):
        calls.append(beta)
        return enumerated(model, g, g_inv, beta, *rest)

    monkeypatch.setattr(L, "_enumerated", recorded)
    return calls


@pytest.mark.parametrize("diagram,n", [("A~2", 7), ("F~4", 2)])
def test_correct_inputs_never_reach_the_enumeration(monkeypatch, diagram, n):
    def unreachable(*args):
        raise AssertionError("a correct input was left to the per-parameter check")

    monkeypatch.setattr(L, "_enumerated", unreachable)
    assert L.verify_morita_rehmann(L.build_model(diagram, rings.integers_mod(n)), 1)["all_passed"]


def test_forced_enumeration_matches_reference_loop(monkeypatch):
    # neither proof holds: every Weyl root, and every torus root at every
    # unit, is left to the per-parameter check
    model = L.build_model("A~2", Z7)
    monkeypatch.setattr(L, "_proven", lambda model, g, g_inv, roots, *rest: [False] * len(roots))
    monkeypatch.setattr(L, "_torus_proven", lambda model, i, roots: False)
    calls = _record_enumerations(monkeypatch)
    report = L.verify_morita_rehmann(model, 1)
    roots = R.real_roots_up_to_level(model.ars, 1)
    assert len(calls) == len(roots) * model.gcm.rank * (1 + len(rings.units(Z7)))
    assert report["all_passed"]
    assert report == _reference_morita_rehmann(model, 1)


def _record_concrete_htilde(monkeypatch, model) -> list:
    """(node, r) of every concrete htilde_i(r) the model evaluates, in order."""
    calls, evaluate = [], model.evaluate_word

    def recorded(w):
        if L._is_htilde(w) and w[0][0].param.desc == model.ring:
            calls.append((w[0][0].node, w[0][0].param))
        return evaluate(w)

    monkeypatch.setattr(model, "evaluate_word", recorded)
    return calls


def test_a_shifted_torus_exponent_matches_reference_loop(monkeypatch):
    # the claimed scale of one finite root at node 1 moved from r^a to
    # r^(a+1): the formal proof fails for node 1 alone, which is checked unit
    # by unit and fails that root at every level, at exactly the units with
    # r^(a+1) != r^a, that is r != 1
    model = L.build_model("A~2", Z7)
    roots = R.real_roots_up_to_level(model.ars, 1)
    node, coords = 1, roots[2].coords
    exponent = L._torus_exponent

    def shifted(model, i, beta):
        return exponent(model, i, beta) + ((i, beta.coords) == (node, coords))

    monkeypatch.setattr(L, "_torus_exponent", shifted)
    fallbacks = _record_concrete_htilde(monkeypatch, model)
    report = L.verify_morita_rehmann(model, 1)
    units = rings.units(Z7)
    assert fallbacks == [(node, r) for r in units]
    weyl, torus = report["families"]
    assert weyl["failed"] == 0
    assert torus["counterexamples"] == [
        {"i": node, "r": str(r), "beta": R.root_json(model.ars, beta)}
        for r in units if r != rings.one(Z7) for beta in roots if beta.coords == coords
    ]
    assert torus["instances"] == model.gcm.rank * len(units) * len(roots)
    assert report == _reference_morita_rehmann(model, 1, shifted)


def test_the_torus_proof_reads_every_finite_root(monkeypatch):
    # the claimed exponent of one finite root at a time moved by one: the
    # proof fails at every node, whichever root it is
    model = L.build_model("A~2", Z7)
    roots = R.real_roots_up_to_level(model.ars, 1)
    nodes = range(model.gcm.rank)
    model._cover([w for i in nodes for w in L._formal_htilde(i)])
    assert all(L._torus_proven(model, i, roots) for i in nodes)
    exponent = L._torus_exponent
    for coords in sorted({beta.coords for beta in roots}):
        monkeypatch.setattr(L, "_torus_exponent", lambda model, i, beta, coords=coords:
                            exponent(model, i, beta) + (beta.coords == coords))
        assert not any(L._torus_proven(model, i, roots) for i in nodes)


def _formal_control(monkeypatch, tamper, inverse_holds=False):
    """Tamper with the kept formal htilde_0(r) and its inverse of a checked
    A~2 model over Z/7: node 0 alone falls back to the per-unit check, and the
    report is still the reference loop's.  inverse_holds: whether the pair
    still passes the checks that need no root (one term per row, z-digit 0,
    g g^-1 = I), so that only the entries of the D_k refute it."""
    model = L.build_model("A~2", Z7)
    assert L.verify_morita_rehmann(model, 1)["all_passed"]
    assert L._torus_proven(model, 0, [])
    values, words = model._packing.values, L._formal_htilde(0)
    values[words[0]], values[words[1]] = tamper(model, *(values[w] for w in words))
    assert L._torus_proven(model, 0, []) == inverse_holds
    assert not L._torus_proven(model, 0, R.real_roots_up_to_level(model.ars, 1))
    fallbacks = _record_concrete_htilde(monkeypatch, model)
    report = L.verify_morita_rehmann(model, 1)
    assert fallbacks == [(0, r) for r in rings.units(Z7)]
    assert report["all_passed"]
    assert report == _reference_morita_rehmann(model, 1)


def test_a_bumped_formal_htilde_falls_back_to_the_units(monkeypatch):
    # a diagonal entry raised by one: g g^-1 is no longer I
    def bumped(model, g, g_inv):
        key = next(k for k in sorted(g.entries) if k[2])
        return _bumped(g, key), g_inv

    _formal_control(monkeypatch, bumped)


@pytest.mark.parametrize("coeff,strides,with_inverse", [
    pytest.param(3, 0, True, id="coefficient-with-inverse"),
    pytest.param(1, 1, False, id="degree-alone"),
    pytest.param(1, 1, True, id="degree-with-inverse"),
])
def test_a_rescaled_row_of_the_formal_htilde_falls_back_to_the_units(
        monkeypatch, coeff, strides, with_inverse):
    # one diagonal entry of g times coeff and raised by r^strides.  Alone,
    # g g^-1 is no longer I (a coefficient alone is the bumped control
    # above).  With that of g^-1 times coeff^-1 mod 7 and lowered as much,
    # g g^-1 = I still holds, so only the check on the entries of each D_k
    # tells the pair from htilde_0(r)^(+-1)
    def rescaled(model, g, g_inv):
        row, degree = g.dim - 1, strides * model._packing.strides[1]
        g = _rescaled_row(g, row, coeff, degree)
        if with_inverse:
            g_inv = _rescaled_row(g_inv, row, pow(coeff, -1, 7), -degree)
        assert (g * g_inv).is_identity() == with_inverse
        return g, g_inv

    _formal_control(monkeypatch, rescaled, inverse_holds=with_inverse)


def _rescaled_row(m, row, coeff, degree):
    """m with the one entry of its row times coeff and raised by degree."""
    entries = dict(m.entries)
    ((key, value),) = [(k, v) for k, v in entries.items() if k[0] == row]
    del entries[key]
    entries[row, key[1], key[2] + degree] = value * coeff % m.n
    return L.LoopMatrix(entries, m.n, m.dim)


def test_an_off_diagonal_formal_htilde_falls_back_to_the_units(monkeypatch):
    _formal_control(monkeypatch, lambda model, g, g_inv: (_bumped(g, (0, 1, 0)), g_inv))


def test_a_formal_htilde_with_a_zero_row_falls_back_to_the_units(monkeypatch):
    # the last diagonal entry dropped from g: g has a zero row, so the rows
    # left are one term each, but g g^-1 is not I
    def dropped(model, g, g_inv):
        row = g.dim - 1
        entries = {key: v for key, v in g.entries.items() if key[0] != row}
        return L.LoopMatrix(entries, g.n, g.dim), g_inv

    _formal_control(monkeypatch, dropped)


def test_a_formal_htilde_off_by_a_power_of_z_falls_back_to_the_units(monkeypatch):
    # z g and z^-1 g^-1: diagonal, inverse to each other and, z being
    # central, with the same conjugates, so only the decoded z-digit of
    # their degrees tells them from htilde_0(r)^(+-1)
    def moved(model, g, g_inv):
        up, down = ({(row, col, degree + d): v for (row, col, degree), v in m.entries.items()}
                    for m, d in ((g, 1), (g_inv, -1)))
        pair = L.LoopMatrix(up, g.n, g.dim), L.LoopMatrix(down, g.n, g.dim)
        assert (pair[0] * pair[1]).is_identity()
        for beta in R.real_roots_up_to_level(model.ars, 1):
            for term in L._graded_terms(model, beta).values():
                assert L._conjugate(*pair, term) == L._conjugate(g, g_inv, term)
        return pair

    _formal_control(monkeypatch, moved)


def test_torus_check_cost_does_not_grow_with_the_units(monkeypatch):
    # the torus action is proved once per node over (Z/n)[r^+-1], so a fresh
    # A~2 model takes as many products and conjugations over Z/7 as over
    # Z/13 and Z/31
    mul, conjugate, counts = L.LoopMatrix.__mul__, L._conjugate, []

    def counted_mul(self, other):
        counts[-1][0] += 1
        return mul(self, other)

    def counted_conjugate(*args):
        counts[-1][1] += 1
        return conjugate(*args)

    monkeypatch.setattr(L.LoopMatrix, "__mul__", counted_mul)
    monkeypatch.setattr(L, "_conjugate", counted_conjugate)
    for n in (7, 13, 31):
        model = L.build_model("A~2", rings.integers_mod(n))
        counts.append([0, 0])
        assert L.verify_morita_rehmann(model, 1)["all_passed"]
    assert counts[0] == counts[1] == counts[2]
    assert counts[0][0] > 0 and counts[0][1] > 0


def test_identity_term_control_proves_no_root(monkeypatch):
    # one extra entry in each evaluated stilde_i(1)^-1 breaks S S^-1 = I; it
    # sits in the column of e_(-theta), which ad e_beta kills for every
    # negative beta, so only the identity term shows it for those roots
    model = L.build_model("A~2", Z7)
    one = rings.one(Z7)
    inverses = {P.winv(P.stilde(i, one)) for i in range(model.gcm.rank)}
    evaluate = model.evaluate_word

    def with_extra_entry(w):
        m = evaluate(w)
        return _bumped(m, (m.dim - 1, m.dim - 1, 0)) if w in inverses else m

    monkeypatch.setattr(model, "evaluate_word", with_extra_entry)
    calls = _record_enumerations(monkeypatch)
    report = L.verify_morita_rehmann(model, 1)
    roots = R.real_roots_up_to_level(model.ars, 1)
    # every Weyl instance, and no torus instance, is left to the enumeration
    assert calls == roots * model.gcm.rank
    assert report["families"][0]["failed"] == len(calls)
    assert report == _reference_morita_rehmann(model, 1)


def _bumped(m, key):
    """m with its coefficient at key = (row, col, degree) raised by one."""
    entries = dict(m.entries)
    entries[key] = (entries.get(key, 0) + 1) % m.n
    if not entries[key]:
        del entries[key]
    return L.LoopMatrix(entries, m.n, m.dim)


@pytest.mark.parametrize("n", [4, 6])
def test_scaling_by_a_diagonal_matches_the_product(n):
    # zero divisors among the scales (c v = 0 mod n drops an entry), zero
    # rows, and two factors that are not one term per row, which are
    # multiplied instead
    rng, dim = random.Random(n), 6
    m = L.LoopMatrix({(rng.randrange(dim), rng.randrange(dim), rng.randrange(-2, 3)):
                      rng.randrange(1, n) for _ in range(30)}, n, dim)
    diagonal = L.LoopMatrix({(i, i, rng.randrange(-2, 3)): rng.randrange(1, n)
                             for i in range(dim) if i != 2}, n, dim)
    dropping = L.LoopMatrix({(i, i, 1): n // 2 for i in range(dim)}, n, dim)
    off = L.LoopMatrix({**diagonal.entries, (0, 1, 0): 1}, n, dim)
    twice = L.LoopMatrix({**diagonal.entries, (0, 0, 7): 1}, n, dim)
    assert diagonal._diagonal is not None and dropping._diagonal is not None
    assert off._diagonal is None and twice._diagonal is None
    for g in (diagonal, dropping, off, twice, L.identity_matrix(n, dim)):
        assert L._scaled(g, m, None) == g * m
        assert L._scaled(None, m, g) == m * g
        for h in (diagonal, dropping, off, twice):
            assert L._scaled(g, m, h) == g * m * h
    assert len((dropping * m).entries) < len(m.entries)


def test_sparse_conjugation_is_exact_at_the_int64_bound():
    # dense g and g_inv with entries mod the largest odd n the guard accepts
    # for dim 8, and mod an n above 2^63: each position of g T g_inv sums 64 or
    # more products far above 2^63, which Python ints keep exact
    dim = 8
    rng = random.Random(3)
    for n in (math.isqrt((2**63 - 1) // dim), 2**64 + 13):
        g = _random_matrix(rng, n, dim, (-1, 0))
        g_inv = _random_matrix(rng, n, dim, (0, 1))
        for degree in (0, 1, -1, 2):
            term = {(r, c, degree): rng.randrange(1, n) for r in range(dim) for c in range(dim)}
            t = L.LoopMatrix(term, n, dim)
            dense = _dense_product(_dense_product(_dense(g), _dense(t), n), _dense(g_inv), n)
            expected = {
                (r, c, e): v
                for e, block in dense.items()
                for r, row in enumerate(block) for c, v in enumerate(row) if v
            }
            assert L._conjugate(g, g_inv, term) == expected
            last = max(expected)
            wrong_value = _bumped(L.LoopMatrix(expected, n, dim), last).entries
            wrong_degree = dict(expected)
            wrong_degree[last[:2] + (last[2] + 1,)] = wrong_degree.pop(last)
            for wrong in (wrong_value, wrong_degree):
                assert L._conjugate(g, g_inv, term) != wrong


def _check_weyl_control(monkeypatch, wrong):
    """Patch reflect to send one root to wrong(its image): the Weyl check must
    report exactly that root, at every node, as the reference loop does."""
    model = L.build_model("A~2", Z7)
    target = R.real_roots_up_to_level(model.ars, 1)[5]
    reflect = R.reflect

    def wrong_for_target(ars, beta, simple):
        image = reflect(ars, beta, simple)
        return wrong(image) if beta == target else image

    monkeypatch.setattr(R, "reflect", wrong_for_target)
    report = L.verify_morita_rehmann(model, 1)
    weyl, torus = report["families"]
    assert weyl["counterexamples"] == [
        {"i": i, "beta": R.root_json(model.ars, target)} for i in range(model.gcm.rank)
    ]
    assert torus["failed"] == 0 and not report["all_passed"]
    assert report == _reference_morita_rehmann(model, 1)


def test_weyl_control_reports_exactly_the_patched_root(monkeypatch):
    _check_weyl_control(
        monkeypatch, lambda image: AffineRoot(tuple(-c for c in image.coords), -image.level)
    )


def test_weyl_control_reports_exactly_the_level_shifted_root(monkeypatch):
    # the right matrices one power of t off: only the degree tells them apart
    _check_weyl_control(monkeypatch, lambda image: AffineRoot(image.coords, image.level + 1))


def _binding(rel):
    binding = dict(zip(("i", "j"), rel.nodes))
    binding.update((name, rings.render_element(value)) for name, value in rel.params)
    return binding


@pytest.mark.parametrize(
    "diagram,n,family,perturb,changed",
    [
        # -2 t u -> -t u: unchanged only where t u = 0, 16 of 25 on each of
        # the two m = 4 edges
        ("C~2", 5, "chevalley-4-orthogonal-short",
         lambda k, f: (-1 if k == -2 else k, *f), 32),
        ("G~2", 5, "chevalley-6-close-short", lambda k, f: (1 if k == 3 else k, *f), 16),
        # the sign of s2-on-x, the only one-factor monomial of A~2
        ("A~2", 5, "s2-on-x", lambda k, f: (-k if len(f) == 1 else k, *f), 36),
    ],
    ids=["C~2-orthogonal-short", "G~2-close-short", "A~2-s2-on-x"],
)
def test_negative_control_fails_only_the_perturbed_instances(
    monkeypatch, diagram, n, family, perturb, changed
):
    ring = rings.integers_mod(n)
    model = L.build_model(diagram, ring)
    options = P.PresentationOptions(include_torus_action=True)
    clean = P.relators_for(model.gcm, ring, options).relators
    schemas = P.relators_for(model.gcm, rings.integers(), options).relators
    mono = P._mono
    monkeypatch.setattr(P, "_mono", lambda k, *f: mono(*perturb(k, f)))
    patched = P.relators_for(model.gcm, ring, options).relators
    assert [(r.family, r.nodes, r.params) for r in patched] == [
        (r.family, r.nodes, r.params) for r in clean
    ]
    moved = [rel for rel, old in zip(patched, clean) if rel.right != old.right]
    assert len(moved) == changed and {rel.family for rel in moved} == {family}
    # the same patch reaches the symbolic schemas, and only this family's
    patched_schemas = P.relators_for(model.gcm, rings.integers(), options).relators
    assert {new.family for new, old in zip(patched_schemas, schemas) if new != old} == {family}
    report = L.verify_presentation(model, options)
    failing = [f for f in report["families"] if f["failed"]]
    assert [f["family"] for f in failing] == [family]
    assert failing[0]["failed"] == changed
    assert failing[0]["counterexamples"] == [_binding(rel) for rel in moved]


def test_a_constant_equal_mod_n_shows_only_in_the_schema(monkeypatch):
    # 3 -> -2 in chevalley-6-close-short: 3 = -2 mod 5, so no relator of G~2
    # over Z/5 moves and verify cannot see it; the same patched _mono builds
    # the symbolic schema, which shows -2*t*u
    ring = rings.integers_mod(5)
    gcm = L.build_model("G~2", ring).gcm

    def schemas():
        rels = P.relators_for(gcm, rings.integers()).relators
        return [P.render_word(r.right) for r in rels if r.family == "chevalley-6-close-short"]

    clean = P.relators_for(gcm, ring).relators
    assert schemas() and all("(3*t*u)" in w for w in schemas())
    mono = P._mono
    monkeypatch.setattr(P, "_mono", lambda k, *f: mono(-2 if k == 3 else k, *f))
    assert P.relators_for(gcm, ring).relators == clean
    assert all("(-2*t*u)" in w and "3*" not in w for w in schemas())


def test_wrong_kept_conjugator_fails_exactly_the_relators_that_contain_it():
    # the cached values are the checked values: after a passing run, one kept
    # htilde_i(r) replaced by a wrong matrix fails every relator whose words
    # contain that segment, and no other
    model = L.build_model("A~2", Z7)
    options = P.PresentationOptions(include_torus_action=True)
    rels = P.relators_for(model.gcm, Z7, options).relators
    assert all(L.verify_relators(model, rels))
    h = P.htilde(1, rings.from_int(Z7, 3))
    values = model._packing.values
    values[h] = _bumped(values[h], (0, 1, 0))

    def contains(w):
        return any(w[k:k + len(h)] == h for k in range(len(w) - len(h) + 1))

    failed = [rel for rel, ok in zip(rels, L.verify_relators(model, rels)) if not ok]
    assert failed == [rel for rel in rels if contains(rel.left) or contains(rel.right)]
    assert {rel.family for rel in failed} == {"torus-action-1", "torus-action-2"}
    assert len(failed) == 2 * model.gcm.rank * 7


def _runs(rel) -> tuple:
    """The runs of the two words of a relator: the letters between the kept
    head and tail."""
    return tuple(w[head:len(w) - tail]
                 for w in (rel.left, rel.right) for head, tail in [L._ends(w)])


def test_a_tampered_shared_run_fails_exactly_the_relators_whose_words_have_it():
    # the packing keeps exactly the runs of two or more letters that two or
    # more words share, each multiplied out once; one of them replaced by a
    # wrong matrix fails the relators with that run and no other
    model = L.build_model("A~2", Z7)
    options = P.PresentationOptions(include_torus_action=True)
    schemas = P.relators_for(model.gcm, rings.integers(), options).relators
    assert all(L.verify_relators(model, schemas))
    counts = collections.Counter(run for rel in schemas for run in _runs(rel))
    runs = model._packing.runs
    assert set(runs) == {run for run, count in counts.items() if count > 1 and len(run) > 1}
    assert any(count == 1 and len(run) > 1 for run, count in counts.items())
    assert len(runs) == 2 * model.gcm.rank and None not in runs.values()
    for run, value in list(runs.items()):
        runs[run] = _bumped(value, (0, 1, 0))
        failed = [rel for rel, ok in zip(schemas, L.verify_relators(model, schemas)) if not ok]
        assert failed == [rel for rel in schemas if run in _runs(rel)] and len(failed) >= 2
        runs[run] = value
    assert all(L.verify_relators(model, schemas))


@pytest.mark.parametrize(
    "label", [cls.label() for cls, _ in D.catalog(6) if cls.kind == "affine-untwisted"])
def test_weyl_letters_reach_their_z_degree_share_and_no_further(label):
    # the share kmax |m| of an S letter (LoopModel._box_share) is the largest
    # |z-degree| of S_i and of S_i^-1, at every node and modulus
    for n in (2, 3, 4):
        model = L.build_model(label, rings.integers_mod(n))
        for i in range(model.gcm.rank):
            share, _ = model._box_share(P.S(i))
            assert share == max(abs(degree) for m in (model.s_matrix(i), model.s_inverse(i))
                                for _, _, degree in m.entries)
        assert any(model._box_share(P.S(i))[0] for i in range(model.gcm.rank))


def _record_instances(monkeypatch) -> list:
    """(family, nodes) of every schema sent to the enumeration, in order."""
    calls, instances = [], P.instances

    def recorded(ring, schema, domains):
        calls.append((schema.family, schema.nodes))
        return instances(ring, schema, domains)

    monkeypatch.setattr(P, "instances", recorded)
    return calls


def test_a_tampered_conjugator_sends_exactly_its_schemas_to_enumeration(monkeypatch):
    # the formal htilde_1(r) is kept once and shared by the torus-action
    # schemas of node 1; tampered, it fails exactly those formally, and their
    # instances, multiplied out with concrete conjugators, still pass
    model = L.build_model("A~2", Z7)
    assert L.verify_presentation(model)["all_passed"]
    values = model._packing.values
    h = P.htilde(1, P._VARIABLE["r"])
    values[h] = _bumped(values[h], (0, 1, 0))
    enumerated = _record_instances(monkeypatch)
    report = L.verify_presentation(model)
    assert report["all_passed"]
    assert enumerated == [(family, (1, j)) for family in ("torus-action-1", "torus-action-2")
                          for j in range(model.gcm.rank)]
    assert report == L.verify_presentation(L.build_model("A~2", Z7))


def test_a_bumped_kept_square_fails_exactly_the_s2_schemas_of_its_node(monkeypatch):
    # S_1 S_1 is kept once for the s2-on-s and s2-on-x schemas of node 1 and
    # every j; concrete and formal words share its key, so the enumerated
    # instances of those schemas, and only those, fail too
    model = L.build_model("A~2", Z7)
    assert L.verify_presentation(model)["all_passed"]
    square = P.word(P.S(1), P.S(1))
    values = model._packing.values
    values[square] = _bumped(values[square], (0, 1, 0))
    enumerated = _record_instances(monkeypatch)
    report = L.verify_presentation(model)
    rank = model.gcm.rank
    assert enumerated == [(family, (1, j)) for family in ("s2-on-s", "s2-on-x")
                          for j in range(rank)]
    failing = {f["family"]: f for f in report["families"] if f["failed"]}
    assert set(failing) == {"s2-on-s", "s2-on-x"}
    assert failing["s2-on-s"]["counterexamples"] == [{"i": 1, "j": j} for j in range(rank)]
    assert failing["s2-on-x"]["counterexamples"] == [
        {"i": 1, "j": j, "t": str(t)} for j in range(rank) for t in range(7)]
    assert [failing[f]["failed"] for f in ("s2-on-s", "s2-on-x")] == [rank, rank * 7]


@pytest.mark.parametrize("diagram,n", [("A~2", 7), ("C~2", 6), ("G~2", 4), ("B~3", 3)])
def test_correct_schemas_never_reach_the_enumeration(monkeypatch, diagram, n):
    # every schema, the Kac-Moody torus included, is one formal identity
    def unreachable(*args):
        raise AssertionError("a correct schema was enumerated")

    monkeypatch.setattr(P, "instances", unreachable)
    options = P.PresentationOptions(include_torus_action=True, include_kacmoody_torus=True)
    assert L.verify_presentation(L.build_model(diagram, rings.integers_mod(n)), options)["all_passed"]


def test_conjugator_cache_keeps_each_htilde_and_its_inverse_once():
    # after a full verify of F~4 over Z/3 the packing keeps the formal X
    # letters and, for each node, the formal htilde_i(r) and its inverse and
    # S_i S_i and S_i^-1 S_i^-1: one conjugator per node for the torus-action
    # and s2 families and every j, and the torus check reuses the formal
    # htilde_i(r)
    ring = rings.integers_mod(3)
    model = L.build_model("F~4", ring)
    assert L.verify_presentation(model)["all_passed"]
    packing, kept = model._packing, set(model._packing.values)
    r = P._VARIABLE["r"]
    square = [P.word(P.S(i), P.S(i)) for i in range(model.gcm.rank)]
    assert {key for key in kept if len(key) > 1} == {
        w for i in range(model.gcm.rank)
        for w in (P.htilde(i, r), P.winv(P.htilde(i, r)), square[i], P.winv(square[i]))
    }
    assert L.verify_morita_rehmann(model, 1)["all_passed"]
    assert model._packing is packing and set(packing.values) == kept
    letters = [gen for key in kept if len(key) == 1 for gen, _ in key]
    assert letters and all(gen.kind == "X" and gen.param.desc == P.SCHEMA_RING for gen in letters)


def _schema(family, params, left, right):
    return P.Relator(family, (0, 0), params, P.word(*left), P.word(*right))


def test_an_identity_of_functions_passes_after_enumeration(monkeypatch):
    # X_0(t^5) = X_0(t) over GF(5): formally false, true at every t
    ring = rings.prime_field(5)
    t = P._VARIABLE["t"]
    schema = _schema("s2-on-x", (("t", t),), [P.X(0, rings.power(t, 5))], [P.X(0, t)])
    enumerated = _record_instances(monkeypatch)
    [entry] = L._families(L.build_model("A~2", ring), [schema])
    assert enumerated == [("s2-on-x", (0, 0))]
    assert (entry["instances"], entry["passed"], entry["failed"]) == (5, 5, 0)


def test_a_formal_mismatch_fails_exactly_the_instances_it_breaks():
    # X_0(t^2) = X_0(t) over Z/4 holds at t = 0, 1 and fails at t = 2, 3
    t = P._VARIABLE["t"]
    schema = _schema("s2-on-x", (("t", t),), [P.X(0, t * t)], [P.X(0, t)])
    [entry] = L._families(L.build_model("A~2", rings.integers_mod(4)), [schema])
    assert (entry["instances"], entry["failed"]) == (4, 2)
    assert entry["counterexamples"] == [{"i": 0, "j": 0, "t": "2"}, {"i": 0, "j": 0, "t": "3"}]
    # over Z/12 it holds at the idempotents 0, 1, 4, 9; relator order sorts
    # the rendered parameters, so t = 10 comes before t = 2
    [entry] = L._families(L.build_model("A~2", rings.integers_mod(12)), [schema])
    assert [c["t"] for c in entry["counterexamples"]] == ["10", "11", "2", "3", "5", "6", "7", "8"]


def test_an_inverted_torus_scale_fails_exactly_the_instances_it_moves(monkeypatch):
    # r^(a_ij) -> r^(-a_ij) in the torus-action families of A~2 over Z/7 moves
    # an instance exactly when r^(2 a_ij) t != 0: every schema fails formally,
    # and the enumeration reports exactly the moved instances, in order
    model = L.build_model("A~2", Z7)
    options = P.PresentationOptions(include_torus_action=True)
    clean = P.relators_for(model.gcm, Z7, options).relators
    power, one = rings.power, rings.one(Z7)
    monkeypatch.setattr(rings, "power", lambda r, k: power(r, -k))
    patched = P.relators_for(model.gcm, Z7, options).relators
    moved = [rel for rel, old in zip(patched, clean) if rel.right != old.right]
    assert moved == [
        rel for rel in patched
        if rel.family in P.TORUS_ACTION_FAMILIES and not dict(rel.params)["t"].is_zero()
        and power(dict(rel.params)["r"], 2 * model.gcm.rows[rel.nodes[0]][rel.nodes[1]]) != one
    ]
    enumerated = _record_instances(monkeypatch)
    report = L.verify_presentation(model, options)
    assert enumerated == [(family, (i, j)) for family in ("torus-action-1", "torus-action-2")
                          for i in range(3) for j in range(3)]
    failing = [f for f in report["families"] if f["failed"]]
    assert [f["family"] for f in failing] == ["torus-action-1", "torus-action-2"]
    assert [c for f in failing for c in f["counterexamples"]] == [_binding(rel) for rel in moved]


def test_a_negative_power_of_a_non_unit_parameter_is_refused():
    # the precondition of the formal verdict: u^-1 has a value on every
    # instance of the Kac-Moody torus, where u is a unit, and on no other
    units, elements = rings.units(Z7), list(rings.elements(Z7))
    t, u, v = (P._VARIABLE[name] for name in "tuv")
    letters = [P.X(0, rings.inverse(u))], [P.X(0, u)]
    assert P._domains(_schema("torus", (("u", u), ("v", v)), *letters), units, elements) == [
        units, units]
    with pytest.raises(ValueError, match=r"u\^-1"):
        P._domains(_schema("additivity", (("t", t), ("u", u)), *letters), units, elements)
    # a variable that is not a parameter has no value either
    with pytest.raises(ValueError, match="v"):
        P._domains(_schema("s2-on-x", (("t", t),), [P.X(0, t * v)], [P.X(0, t)]), units, elements)


@pytest.mark.parametrize("diagram", ["A~2", "C~2", "G~2", "A~3", "B~3"])
def test_schema_counts_match_the_concrete_enumeration(diagram):
    # per family, the product of the parameters' value lists is the number of
    # concrete instances, torus units and zero divisors included, with and
    # without the Kac-Moody torus
    for ring in map(rings.parse_descriptor, ("Z/2", "Z/3", "Z/5", "Z/6", "Z/8", "GF(5)", "GF(7)")):
        model = L.build_model(diagram, ring)
        for km_torus in (False, True):
            options = P.PresentationOptions(include_torus_action=True,
                                            include_kacmoody_torus=km_torus)
            report = L.verify_presentation(model, options)
            concrete = collections.Counter(
                rel.family for rel in P.relators_for(model.gcm, ring, options).relators)
            assert {f["family"]: f["instances"] for f in report["families"]} == concrete, ring


def _unpack(packing, degree) -> tuple:
    """(d, exponents) of a packed degree, one balanced digit per radix."""
    digits = []
    for radix in packing.radices:
        digits.append((degree + radix // 2) % radix - radix // 2)
        degree = (degree - digits[-1]) // radix
    assert degree == 0
    return digits[0], tuple(digits[1:])


def test_packing_round_trips_its_corners_and_widens_with_the_words():
    # words (X_j(r^-1 t) S_i X_l(t u^2))^k, i the node of level 1 and j, l
    # those of level 0, so only the Weyl letters raise z-degrees: degrees and
    # exponents grow with k, and so does the model's packing.  Every corner of
    # the box round-trips, and the formal value specialises to the plain
    # product at every point, which an aliased degree would break.
    model = L.build_model("A~2", Z5)
    i = next(i for i, root in model.simple_of_node.items() if root.level)
    j, l = (i + 1) % 3, (i + 2) % 3
    r, t, u = (P._VARIABLE[name] for name in "rtu")
    boxes = []
    for k in (1, 3, 6):
        w = P.word(P.X(j, rings.inverse(r) * t), P.S(i), P.X(l, t * u * u)) * k
        L.verify_relators(model, [P.Relator("additivity", (i,), (), w, w[::-1])])
        packing = model._packing
        boxes.append((packing.span, packing.top))
        for d in (-packing.span, packing.span):
            for exps in itertools.product((-packing.top, packing.top), repeat=4):
                assert _unpack(packing, packing.degree(d, exps)) == (d, exps)
        formal = L._value(model, w, *L._ends(w))
        assert any(_unpack(packing, degree)[1][0] < 0 for _, _, degree in formal.entries)
        for rv, tv, uv in [(1, 1, 1), (2, 3, 4), (4, 2, 0), (3, 4, 2)]:
            concrete = P.word(P.X(j, rings.from_int(Z5, pow(rv, -1, 5) * tv)), P.S(i),
                              P.X(l, rings.from_int(Z5, tv * uv * uv))) * k
            sums = {}
            for (row, col, degree), c in formal.entries.items():
                d, (er, et, eu, _) = _unpack(packing, degree)
                value = c * pow(rv, er, 5) * tv**et * uv**eu
                sums[row, col, d] = (sums.get((row, col, d), 0) + value) % 5
            assert {key: v for key, v in sums.items() if v} == _plain(model, concrete).entries
    spans, tops = zip(*boxes)
    assert spans == tuple(sorted(set(spans))) and tops == tuple(sorted(set(tops)))
    # the longest word reaches z-degrees and exponents past the shortest
    # word's box, which its radices would alias
    monomials = [_unpack(packing, degree) for _, _, degree in formal.entries]
    assert max(abs(d) for d, _ in monomials) > spans[0]
    assert min(exps[0] for _, exps in monomials) < -tops[0]


def _first_right_x_negated(rel: P.Relator) -> P.Relator | None:
    """The relator with the parameter p of the first X letter of its right
    side replaced by -p, or None if that side has no X letter."""
    k = next((k for k, (gen, _) in enumerate(rel.right) if gen.kind == "X"), None)
    if k is None:
        return None
    gen, exp = rel.right[k]
    return rel._replace(right=rel.right[:k] + ((gen._replace(param=-gen.param), exp),)
                        + rel.right[k + 1:])


def test_z2_cannot_see_a_sign_and_z3_can():
    # the negative control behind verifying over Z/3 as well as Z/2: a sign
    # flipped in any D~4 schema is invisible mod 2, since -p = p there
    options = P.PresentationOptions(include_torus_action=True)
    schemas = P.relators_for(D.affine_cartan(D.parse_label("D~4")), rings.integers(),
                             options).relators
    mutants = [m for m in map(_first_right_x_negated, schemas) if m is not None]
    assert len(mutants) == 127
    for n, passed in ((2, 127), (3, 0)):
        model = L.build_model("D~4", rings.integers_mod(n))
        assert all(L.verify_relators(model, schemas))
        assert sum(L.verify_relators(model, mutants)) == passed
