"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each test prints a single `[criterion N] PASS` line on success (visible with
pytest -s); a failing criterion fails its test.
"""

import itertools
import time

from steinberg import chevalley, collection, diagrams, loopmodel, presentation, rings
from steinberg import roots as R


def _report(n: int, text: str) -> None:
    print(f"[criterion {n}] PASS: {text}")


# ---------------------------------------------------------------------------
# 1. full relation verification over Z/5


def test_criterion_1_full_relation_verification():
    start = time.time()
    z5 = rings.integers_mod(5)
    opts = presentation.PresentationOptions(include_torus_action=True)
    for label in ("A~2", "C~2", "G~2"):
        report = loopmodel.verify_presentation(loopmodel.build_model(label, z5), opts)
        assert report["all_passed"], (label, [f for f in report["families"] if f["failed"]])
        assert sum(f["instances"] for f in report["families"]) > 0
        assert any(f["family"] == "torus-action-1" for f in report["families"])
    elapsed = time.time() - start
    assert elapsed < 300, f"verification took {elapsed:.0f}s"
    _report(1, f"A~2, C~2, G~2 over Z/5: every family instance holds ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. the three prenilpotence conditions agree


def _condition_three(ars, a, b):
    # alpha != beta, and the projections are equal, or one is twice the other
    # in the non-reduced (odd superscript) case
    if a == b:
        return False
    if a.coords == b.coords:
        return True
    double = tuple(2 * c for c in a.coords) == b.coords or (
        tuple(2 * c for c in b.coords) == a.coords
    )
    return double and ars.superscript == "odd"


def test_criterion_2_lemma_equivalence():
    labels = ("A~2", "B~2", "BC~2^odd", "G~2^0mod3")
    checked = 0
    for label in labels:
        ars = R.affine_system(label)
        roots = R.real_roots_up_to_level(ars, 3)
        for a in roots:
            for b in roots:
                cls = R.classify_pair(ars, a, b)
                geometric = R.prenilpotent_geometric(ars, a, b)
                nonclassical_geo = geometric and not (
                    a == b or R._proportionality(a.coords, b.coords) is None
                )
                via_classify = cls.kind == "nonclassical"
                via_projection = _condition_three(ars, a, b)
                assert nonclassical_geo == via_classify == via_projection, (label, a, b)
                if cls.kind == "nonclassical" and cls.case in (5, 6, 7):
                    assert ars.superscript == "odd"
                checked += 1
    assert checked == 1764 + 3136 + 5184 + 3600
    _report(2, f"three conditions agree on all {checked} pairs; cases 5-7 only in the odd system")


# ---------------------------------------------------------------------------
# 3. case 6 constant and its negative control


def test_criterion_3_case6_constant():
    result = collection.replay_case(6)
    cfg = collection.case_configuration(6)
    assert str(result) == "X_{alpha+beta}(4*t*u)"
    assert collection.verdict(result) == "CONSTANT C=4"
    perturbed = collection.override_coefficient(cfg, ("mu", "alpha+sigma"), -1)
    control = collection.replay(perturbed)
    assert control.factors != result.factors
    assert control.factors[0][1] != result.factors[0][1]
    _report(3, "replay of case 6 yields X_{alpha+beta}(4tu); perturbing -2tu to -tu changes it")


# ---------------------------------------------------------------------------
# 4. case 4 sign table


def test_criterion_4_case4_sign_table():
    expected = {(1, 1): 0, (1, -1): 6, (-1, 1): 12, (-1, -1): -6}
    got = {}
    for e, ep in itertools.product((1, -1), repeat=2):
        result = collection.replay_case(4, e, ep)
        names = [collection.case_configuration(4, e, ep).nrs.name(r) for r, _ in result.factors]
        # X_{alpha+2 sigma+lambda}(C t u), or the empty product for C = 0
        assert names in ([], ["alpha+2*sigma+lambda"])
        verdict = collection.verdict(result)
        got[e, ep] = int(verdict.removeprefix("CONSTANT C=")) if names else 0
    assert got == expected
    assert collection.replay_case(4, 1, 1).is_empty()
    _report(4, f"case-4 constants {got} match 3+3e'-6ee'; (1,1) replay is empty")


# ---------------------------------------------------------------------------
# 5. the commuting cases


def test_criterion_5_commuting_cases():
    for case_id in (1, 2, 3, 5, 7):
        result = collection.replay_case(case_id)
        assert result.is_empty(), case_id
    _report(5, "cases 1, 2, 3, 5 and 7 replay to the empty product")


# ---------------------------------------------------------------------------
# 6. torus scaling and Weyl permutation of root groups


def test_criterion_6_morita_rehmann():
    z7 = rings.integers_mod(7)
    model = loopmodel.build_model("A~2", z7)
    report = loopmodel.verify_morita_rehmann(model, 2)
    assert report["all_passed"], report
    weyl, torus = report["families"]
    assert weyl["failed"] == 0 and torus["failed"] == 0
    assert weyl["instances"] == 3 * 30  # three nodes, thirty roots at |m| <= 2
    assert torus["instances"] == 3 * 6 * 30
    _report(6, "htilde scales by r^<coroot, beta> and stilde permutes root groups over Z/7")


# ---------------------------------------------------------------------------
# 7. the covering predicate across the affine catalog


def test_criterion_7_covering_predicate():
    # The failing diagrams are exactly the chain-shaped (path) affine
    # diagrams, all of which carry double edges: the chains with double edges
    # at both ends (C~n, B~n^even, BC~n^odd) plus F~4 and F~4^even.  The end
    # pair of any chain lies in no connected proper full subdiagram, hence in
    # no irreducible spherical one, so every affine chain must fail the
    # predicate; every non-chain in range passes (dropping a leaf keeps the
    # relevant pairs inside a finite-type subdiagram).
    def is_chain(matrix) -> bool:
        degrees = [
            sum(1 for j in range(matrix.rank) if j != i and matrix.rows[i][j] != 0)
            for i in range(matrix.rank)
        ]
        return sorted(degrees) == [1, 1] + [2] * (matrix.rank - 2)

    def has_double_edge(matrix) -> bool:
        return any(
            matrix.rows[i][j] * matrix.rows[j][i] == 2
            for i in range(matrix.rank)
            for j in range(matrix.rank)
            if i != j
        )

    failing, holding = [], []
    for cls, matrix in diagrams.catalog(9):
        if not cls.is_affine or not 4 <= cls.rank <= 9:
            continue
        if diagrams.spherical_covering_holds(matrix):
            holding.append((cls, matrix))
        else:
            failing.append((cls, matrix))
    assert failing, "the scan found no failing diagrams"
    for cls, matrix in failing:
        assert is_chain(matrix) and has_double_edge(matrix), cls.label()
    for cls, matrix in holding:
        assert not is_chain(matrix), cls.label()
    double_ended = {
        label
        for label in (
            [f"C~{n}" for n in range(3, 9)]
            + [f"B~{n}^even" for n in range(3, 9)]
            + [f"BC~{n}^odd" for n in range(3, 9)]
        )
    }
    failing_labels = {cls.label() for cls, _ in failing}
    assert double_ended <= failing_labels
    assert failing_labels - double_ended == {"F~4", "F~4^even"}
    _report(
        7,
        f"covering fails exactly on the {len(failing)} double-edged chain diagrams "
        "(the double-ended chains plus the two F-family chains) and holds on all others",
    )


# ---------------------------------------------------------------------------
# 8. the amalgam


def test_criterion_8_amalgam():
    a3 = diagrams.affine_cartan(diagrams.parse_label("A~3"))
    gf2 = rings.prime_field(2)
    full = presentation.relators_for(a3, gf2)
    am = presentation.amalgam(a3, gf2)
    expected = [
        r for r in full.relators if r.family not in presentation.TORUS_ACTION_FAMILIES
    ]
    assert sorted(am.relators, key=presentation._relator_sort_key) == sorted(
        expected, key=presentation._relator_sort_key
    )
    assert len(am.relators) == len(expected)
    text1 = presentation.emit(am, "native")
    text2 = presentation.emit(presentation.amalgam(a3, gf2), "native")
    assert text1.encode() == text2.encode()
    _report(8, "amalgam(A~3, Z/2) = relators minus torus-action families; emission is byte-stable")


# ---------------------------------------------------------------------------
# 9. structure constants


def _string_p(system, a, b):
    p, cur = 0, tuple(x - y for x, y in zip(b, a))
    while cur in system:
        p += 1
        cur = tuple(x - y for x, y in zip(cur, a))
    return p


def test_criterion_9_structure_constants():
    for family, n in (("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)):
        system = R.enumerate_finite_roots(diagrams.finite_cartan(family, n), family)
        basis = chevalley.build_chevalley_basis(system)
        for a in system.roots:
            for b in system.roots:
                total = tuple(x + y for x, y in zip(a, b))
                if all(c == 0 for c in total):
                    continue
                nab = basis.n(a, b)
                assert nab == -basis.n(b, a)
                if total in system:
                    assert abs(nab) == _string_p(system, a, b) + 1
                else:
                    assert nab == 0
        # Jacobi in matrix form: ad is a Lie homomorphism on root vectors
        for a in system.roots:
            for b in system.roots:
                ada = basis.adjoint_matrix(a)
                adb = basis.adjoint_matrix(b)
                lhs = _mat_sub(_mat_mul(ada, adb), _mat_mul(adb, ada))
                total = tuple(x + y for x, y in zip(a, b))
                if total in system:
                    rhs = _mat_scale(basis.n(a, b), basis.adjoint_matrix(total))
                elif all(c == 0 for c in total):
                    rhs = _cartan_ad(basis, a)
                else:
                    rhs = _mat_scale(0, ada)
                assert lhs == rhs, (family, n, a, b)

    # displayed coefficient signs after the computed orientation adjustment
    b2 = chevalley.build_chevalley_basis(
        R.enumerate_finite_roots(diagrams.finite_cartan("B", 2), "B")
    )
    s, l = (0, 1), (1, 0)
    table = b2.commutator_table(s, l)
    target = [((1, 1), -1, (1, 1)), ((1, 2), 1, (2, 1))]
    signs = chevalley.solve_orientation({(s, l): table}, {(s, l): target})[0]
    assert [
        (g, v) for g, v, _ in chevalley.apply_signs(table, signs, s, l)
    ] == [(g, v) for g, v, _ in target]

    g2 = chevalley.build_chevalley_basis(
        R.enumerate_finite_roots(diagrams.finite_cartan("G", 2), "G")
    )
    sig, lam = (1, 0), (0, 1)
    order = [(2, 1), (1, 1), (3, 1), (3, 2)]
    table = g2.commutator_table(sig, lam, order=order)
    target = [
        ((2, 1), 1, (2, 1)),
        ((1, 1), -1, (1, 1)),
        ((3, 1), 1, (3, 1)),
        ((3, 2), -1, (3, 2)),
    ]
    signs = chevalley.solve_orientation({(sig, lam): table}, {(sig, lam): target})[0]
    assert [
        (g, v) for g, v, _ in chevalley.apply_signs(table, signs, sig, lam)
    ] == [(g, v) for g, v, _ in target]
    _report(9, "Jacobi, antisymmetry, |N| = p+1 exhaustive; displayed B_2/G_2 signs reached")


def _mat_mul(a, b):
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def _mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mat_scale(k, a):
    return tuple(tuple(k * x for x in row) for row in a)


def _cartan_ad(basis, a):
    # ad h_a as a combination of the simple Cartan actions
    n = basis.dim
    out = [[0] * n for _ in range(n)]
    for i, c in enumerate(basis.coroot_vector(a)):
        if c:
            for r, root in enumerate(basis.roots_order):
                out[basis.rank + r][basis.rank + r] += c * basis.system.pairing(
                    basis.system.simple(i), root
                )
    return tuple(tuple(row) for row in out)


# ---------------------------------------------------------------------------
# 10. root counts


def test_criterion_10_root_counts():
    cases = [("A~2", 2, 30), ("B~2^even", 2, 32), ("BC~1^odd", 3, 22)]
    for label, bound, expected in cases:
        ars = R.affine_system(label)
        got = R.real_roots_up_to_level(ars, bound)
        assert len(got) == expected, label
        # independent brute force straight from the membership rule
        brute = 0
        for coords in ars.finite.roots:
            long = ars.finite.length_class(coords) == "long"
            for m in range(-bound, bound + 1):
                if not long or ars.superscript is None:
                    brute += 1
                elif ars.superscript == "even" and m % 2 == 0:
                    brute += 1
                elif ars.superscript == "odd" and m % 2 == 1:
                    brute += 1
                elif ars.superscript == "0mod3" and m % 3 == 0:
                    brute += 1
        assert brute == expected, label
    _report(10, "root counts 30 / 32 / 22 confirmed against the membership rule")
